// Test-only LP oracle: a dense primal simplex for small linear programs,
//
//   maximise  c^T x
//   subject to A x <= b,  x >= 0,
//
// and the core-allocation LP of Equation 1 solved with it. The paper solves
// that LP with CVXOPT (§5.4.2); the simulator solves it natively via
// bisection + min-cost flow (solver/allocation.hpp), and the tests
// cross-check the two. Bland's rule guards against cycling; sizes here are
// tiny (hundreds of variables at most), so the dense tableau is the
// simplest correct choice.
#pragma once

#include <optional>
#include <vector>

#include "solver/allocation.hpp"

namespace tlb::solver {

struct LinearProgram {
  // Row-major m x n constraint matrix.
  std::vector<std::vector<double>> a;
  std::vector<double> b;  // m right-hand sides
  std::vector<double> c;  // n objective coefficients
};

struct SimplexSolution {
  std::vector<double> x;
  double objective = 0.0;
};

/// Solves the LP; returns std::nullopt when unbounded. Infeasibility cannot
/// arise for b >= 0 (the origin is feasible); callers must ensure b >= 0,
/// which every formulation in this repo satisfies by construction.
std::optional<SimplexSolution> solve_lp(const LinearProgram& lp);

/// Reference implementation of solve_allocation's objective via the direct
/// LP formulation: maximise z subject to sum_w(a) y_w >= work_a * z and
/// node capacities. Returns only the optimal objective
/// (max_a work_a/cores_a). O(n^3)-ish, small inputs only.
double allocation_objective_lp(const AllocationProblem& problem);

}  // namespace tlb::solver
