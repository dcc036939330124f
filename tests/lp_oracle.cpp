#include "lp_oracle.hpp"

#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

namespace tlb::solver {

namespace {
constexpr double kEps = 1e-9;
}

std::optional<SimplexSolution> solve_lp(const LinearProgram& lp) {
  const int m = static_cast<int>(lp.a.size());
  const int n = m > 0 ? static_cast<int>(lp.a[0].size())
                      : static_cast<int>(lp.c.size());
  assert(static_cast<int>(lp.b.size()) == m);
  assert(static_cast<int>(lp.c.size()) == n);
#ifndef NDEBUG
  for (double bi : lp.b) assert(bi >= -kEps && "solve_lp requires b >= 0");
#endif

  // Tableau: m rows of [A | I | b], objective row of [-c | 0 | 0].
  const int cols = n + m + 1;
  std::vector<std::vector<double>> t(
      static_cast<std::size_t>(m + 1),
      std::vector<double>(static_cast<std::size_t>(cols), 0.0));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) t[i][static_cast<std::size_t>(j)] = lp.a[i][static_cast<std::size_t>(j)];
    t[i][static_cast<std::size_t>(n + i)] = 1.0;
    t[i][static_cast<std::size_t>(cols - 1)] = lp.b[static_cast<std::size_t>(i)];
  }
  for (int j = 0; j < n; ++j) t[static_cast<std::size_t>(m)][static_cast<std::size_t>(j)] = -lp.c[static_cast<std::size_t>(j)];

  std::vector<int> basis(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) basis[static_cast<std::size_t>(i)] = n + i;

  while (true) {
    // Bland's rule: entering variable = smallest index with negative
    // reduced cost.
    int pivot_col = -1;
    for (int j = 0; j < n + m; ++j) {
      if (t[static_cast<std::size_t>(m)][static_cast<std::size_t>(j)] < -kEps) {
        pivot_col = j;
        break;
      }
    }
    if (pivot_col < 0) break;  // optimal

    // Ratio test; Bland tie-break on smallest basis index.
    int pivot_row = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int i = 0; i < m; ++i) {
      const double aij = t[static_cast<std::size_t>(i)][static_cast<std::size_t>(pivot_col)];
      if (aij > kEps) {
        const double ratio = t[static_cast<std::size_t>(i)][static_cast<std::size_t>(cols - 1)] / aij;
        if (ratio < best_ratio - kEps ||
            (std::abs(ratio - best_ratio) <= kEps && pivot_row >= 0 &&
             basis[static_cast<std::size_t>(i)] <
                 basis[static_cast<std::size_t>(pivot_row)])) {
          best_ratio = ratio;
          pivot_row = i;
        }
      }
    }
    if (pivot_row < 0) return std::nullopt;  // unbounded

    // Pivot.
    const double pivot = t[static_cast<std::size_t>(pivot_row)][static_cast<std::size_t>(pivot_col)];
    for (double& v : t[static_cast<std::size_t>(pivot_row)]) v /= pivot;
    for (int i = 0; i <= m; ++i) {
      if (i == pivot_row) continue;
      const double factor = t[static_cast<std::size_t>(i)][static_cast<std::size_t>(pivot_col)];
      if (std::abs(factor) <= kEps) continue;
      for (int j = 0; j < cols; ++j) {
        t[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] -=
            factor * t[static_cast<std::size_t>(pivot_row)][static_cast<std::size_t>(j)];
      }
    }
    basis[static_cast<std::size_t>(pivot_row)] = pivot_col;
  }

  SimplexSolution sol;
  sol.x.assign(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < m; ++i) {
    if (basis[static_cast<std::size_t>(i)] < n) {
      sol.x[static_cast<std::size_t>(basis[static_cast<std::size_t>(i)])] =
          t[static_cast<std::size_t>(i)][static_cast<std::size_t>(cols - 1)];
    }
  }
  sol.objective = t[static_cast<std::size_t>(m)][static_cast<std::size_t>(cols - 1)];
  return sol;
}

double allocation_objective_lp(const AllocationProblem& p) {
  const auto& g = *p.graph;
  const int appranks = g.left_count();
  const int nodes = g.right_count();
  const double total_work =
      std::accumulate(p.work.begin(), p.work.end(), 0.0);
  if (total_work <= 0.0) return 0.0;

  // Variables: y'_e (extra cores per edge, e indexed globally) then z.
  std::vector<std::pair<int, int>> edge_list;  // (apprank, node)
  std::vector<std::vector<int>> edge_of(static_cast<std::size_t>(appranks));
  for (int a = 0; a < appranks; ++a) {
    for (int n : g.neighbors_of_left(a)) {
      edge_of[static_cast<std::size_t>(a)].push_back(
          static_cast<int>(edge_list.size()));
      edge_list.emplace_back(a, n);
    }
  }
  const int ne = static_cast<int>(edge_list.size());
  const int nv = ne + 1;  // + z
  LinearProgram lp;
  lp.c.assign(static_cast<std::size_t>(nv), 0.0);
  lp.c[static_cast<std::size_t>(ne)] = 1.0;  // maximise z

  // work_a * z - sum_{e in a} y'_e <= deg(a)
  for (int a = 0; a < appranks; ++a) {
    std::vector<double> row(static_cast<std::size_t>(nv), 0.0);
    row[static_cast<std::size_t>(ne)] = p.work[static_cast<std::size_t>(a)];
    for (int e : edge_of[static_cast<std::size_t>(a)]) {
      row[static_cast<std::size_t>(e)] = -1.0;
    }
    lp.a.push_back(std::move(row));
    lp.b.push_back(static_cast<double>(g.left_degree(a)));
  }
  // sum_{e on n} y'_e <= residual_n
  for (int n = 0; n < nodes; ++n) {
    std::vector<double> row(static_cast<std::size_t>(nv), 0.0);
    for (int e = 0; e < ne; ++e) {
      if (edge_list[static_cast<std::size_t>(e)].second == n) {
        row[static_cast<std::size_t>(e)] = 1.0;
      }
    }
    lp.a.push_back(std::move(row));
    // Node capacity after the mandatory one core per resident worker.
    const int residual =
        p.node_cores[static_cast<std::size_t>(n)] - g.right_degree(n);
    if (residual < 0) {
      throw InfeasibleAllocation(
          "node hosts more workers than cores; cannot give 1 core each");
    }
    lp.b.push_back(static_cast<double>(residual));
  }

  const auto sol = solve_lp(lp);
  if (!sol || sol->objective <= 0.0) {
    throw InfeasibleAllocation("LP formulation failed to produce z > 0");
  }
  return 1.0 / sol->objective;  // z = 1/t
}

}  // namespace tlb::solver
