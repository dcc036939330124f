// Component micro-benchmarks (google-benchmark):
//   - the global allocation solve (paper §5.4.2 reports ~57 ms for 32
//     nodes with CVXOPT and roughly quadratic growth; our native
//     bisection+flow solver is orders of magnitude faster, which is why
//     the modelled solver latency is configurable);
//   - expander construction and screening;
//   - task dependency registration throughput;
//   - the max-min fabric under flow churn (fig17's fat-tree shape);
//   - the real application kernels (hex8 stiffness, Barnes-Hut force).
#include <benchmark/benchmark.h>

#include "apps/micropp/hex8.hpp"
#include "apps/nbody/octree.hpp"
#include "graph/expander.hpp"
#include "nanos/dependency_graph.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "solver/allocation.hpp"

namespace {

using namespace tlb;

void BM_ExpanderBuild(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto r = graph::build_expander({.nodes = nodes,
                                    .appranks_per_node = 2,
                                    .degree = 4,
                                    .seed = seed++});
    benchmark::DoNotOptimize(r.expansion);
  }
}
BENCHMARK(BM_ExpanderBuild)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_VertexExpansionScreening(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const auto r = graph::build_expander(
      {.nodes = nodes, .appranks_per_node = 1, .degree = 4, .seed = 3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::vertex_expansion(r.graph));
  }
}
BENCHMARK(BM_VertexExpansionScreening)->Arg(16)->Arg(32);

void BM_AllocationSolver(benchmark::State& state) {
  // The paper's 32-node solve takes ~57 ms in CVXOPT; this measures the
  // native equivalent on the same problem shape (2 appranks/node,
  // degree 4, 48 cores).
  const int nodes = static_cast<int>(state.range(0));
  const auto ex = graph::build_expander(
      {.nodes = nodes, .appranks_per_node = 2, .degree = 4, .seed = 5});
  sim::Rng rng(7);
  solver::AllocationProblem p;
  p.graph = &ex.graph;
  p.node_cores.assign(static_cast<std::size_t>(nodes), 48);
  for (int a = 0; a < ex.graph.left_count(); ++a) {
    p.work.push_back(rng.uniform(0.0, 48.0));
  }
  for (auto _ : state) {
    auto r = solver::solve_allocation(p);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_AllocationSolver)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_DependencyRegistration(benchmark::State& state) {
  // Chains of InOut tasks over disjoint blocks: the common app pattern.
  const int tasks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    nanos::TaskPool pool;
    nanos::DependencyGraph graph(pool);
    for (int i = 0; i < tasks; ++i) {
      const auto id = pool.create(
          0, 1.0,
          {nanos::AccessRegion{static_cast<std::uint64_t>(i % 64) * 4096,
                               4096, nanos::AccessMode::InOut}});
      benchmark::DoNotOptimize(graph.register_task(id));
    }
    state.counters["tasks/s"] = benchmark::Counter(
        static_cast<double>(tasks), benchmark::Counter::kIsIterationInvariantRate);
  }
}
BENCHMARK(BM_DependencyRegistration)->Arg(1024)->Arg(8192);

void BM_FabricChurn(benchmark::State& state) {
  // N staggered 256 KiB flows on fig17's fabric (64 nodes, 16 per leaf,
  // 4 spines, 200 MB/s links), drained to the last byte: every start and
  // finish re-solves the max-min rates over all streaming flows.
  const int flows = static_cast<int>(state.range(0));
  constexpr int kNodes = 64;
  constexpr double kBandwidth = 2e8;
  for (auto _ : state) {
    sim::Engine engine;
    net::Fabric fabric(engine,
                       net::NetTopology::fat_tree(kNodes, 16, 4, kBandwidth,
                                                  kBandwidth, 1e-6, 5e-7));
    for (int i = 0; i < flows; ++i) {
      const int src = i % kNodes;
      const int dst = (src + 1 + (i * 7) % (kNodes - 1)) % kNodes;
      engine.at(1e-5 * i, [&fabric, src, dst] {
        fabric.start_flow(src, dst, 256u << 10, [] {});
      });
    }
    engine.run();
    benchmark::DoNotOptimize(fabric.flows_completed());
  }
  state.counters["flows/s"] = benchmark::Counter(
      static_cast<double>(flows), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_FabricChurn)->Arg(64)->Arg(256);

void BM_Hex8Stiffness(benchmark::State& state) {
  const auto coords = apps::micropp::unit_cube_coords(1.0);
  const auto c = apps::micropp::elastic_matrix({});
  for (auto _ : state) {
    auto ke = apps::micropp::Hex8::stiffness(coords, c);
    benchmark::DoNotOptimize(ke[0][0]);
  }
}
BENCHMARK(BM_Hex8Stiffness);

void BM_OctreeForce(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Rng rng(11);
  std::vector<apps::nbody::Body> bodies(static_cast<std::size_t>(n));
  for (auto& b : bodies) {
    b.position = {rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)};
    b.mass = 1.0 / n;
  }
  const apps::nbody::Octree tree(bodies);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto fr = tree.acceleration(bodies[i++ % bodies.size()], 0.5);
    benchmark::DoNotOptimize(fr.interactions);
  }
}
BENCHMARK(BM_OctreeForce)->Arg(1024)->Arg(8192);

}  // namespace

BENCHMARK_MAIN();
