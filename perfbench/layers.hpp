// Per-layer numbers of the traced run.
//
// Two sources, both outside src/:
//  - the traced repetitions: src/prof's phase tree and allocation tags
//    plus the public counters (RunResult, Fabric::solver_*, StreamSink,
//    SchedStats), turned into per-task ratios, per-call times and shares
//    of the repetition's wall time;
//  - layer micro-benchmarks: the benchmark's own timed calls into one
//    layer's public API, on input shapes taken from the workload (its
//    topology and concurrent flow count, expander, access pattern and
//    measured push-to-fire ratio). Each batch is a span in the SpanLog.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "dlb/core_registry.hpp"
#include "dlb/lewi.hpp"
#include "graph/expander.hpp"
#include "nanos/dependency_graph.hpp"
#include "net/fabric.hpp"
#include "sim/event_queue.hpp"
#include "solver/allocation.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The q-quantile of `xs`, interpolating linearly between order
/// statistics.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}

inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

// --- derived from the traced repetitions -------------------------------------

/// Every per-layer metric of one traced repetition that the repetition
/// itself determines (the micro-benchmarks and trace.overhead are added by the
/// caller). Counts repeat exactly; times and shares are host-dependent.
inline std::vector<Metric> traced_metrics(const Rep& rep) {
  const ProfView& p = rep.prof;
  const Counters& c = rep.counters;
  const double tasks = static_cast<double>(rep.tasks);
  const double wall = p.wall_ns;
  const auto incl = [&](const char* n) {
    return static_cast<double>(p.phase(n).inclusive_ns);
  };
  const auto per_call_ns = [&](const char* n) {
    const ProfView::Phase ph = p.phase(n);
    return ratio(static_cast<double>(ph.inclusive_ns),
                 static_cast<double>(ph.calls));
  };
  const double jobs = static_cast<double>(rep.launched);
  const double lifecycle_ns =
      incl("core.construct") + incl("core.start") + incl("core.finalize");
  return {
      {"sim.events_per_task", "events/task",
       ratio(static_cast<double>(c.events), tasks)},
      {"sim.pushes_per_event", "pushes/event",
       ratio(static_cast<double>(p.tag("sim.event").allocs),
             static_cast<double>(c.events))},
      {"sim.pop_ns", "ns", per_call_ns("engine.pop")},
      {"sim.pop_share", "share", ratio(incl("engine.pop"), wall)},
      {"net.solves_per_task", "solves/task",
       ratio(static_cast<double>(c.solver_runs), tasks)},
      {"net.flows_per_solve", "flows/solve",
       ratio(static_cast<double>(c.flows_touched),
             static_cast<double>(c.solver_runs))},
      {"net.links_per_solve", "links/solve",
       ratio(static_cast<double>(c.links_touched),
             static_cast<double>(c.solver_runs))},
      {"net.solve_us", "us", per_call_ns("net.solve") / 1e3},
      {"net.solve_share", "share", ratio(incl("net.solve"), wall)},
      {"sched.decisions_per_task", "decisions/task",
       ratio(static_cast<double>(p.phase("sched.pick").calls), tasks)},
      {"sched.probes_per_decision", "probes/decision",
       ratio(static_cast<double>(c.state_touched),
             static_cast<double>(c.decisions))},
      {"sched.pick_ns", "ns", per_call_ns("sched.pick")},
      {"sched.pick_share", "share", ratio(incl("sched.pick"), wall)},
      {"core.dispatch_self_share", "share",
       ratio(static_cast<double>(p.phase("engine.dispatch").exclusive_ns),
             wall)},
      {"core.ctrl_msgs_per_task", "msgs/task",
       ratio(static_cast<double>(c.ctrl_msgs), tasks)},
      {"dlb.lewi_ops_per_task", "ops/task",
       ratio(static_cast<double>(c.lewi_ops), tasks)},
      {"dlb.drom_moves", "count", static_cast<double>(c.drom_moves)},
      {"nanos.task_bytes_per_task", "B/task",
       ratio(static_cast<double>(p.tag("nanos.task").peak_bytes), tasks)},
      {"solver.solves", "count",
       static_cast<double>(p.phase("core.policy_tick").calls)},
      {"stream.spill_ns", "ns", per_call_ns("stream.spill")},
      {"stream.bytes_per_span", "B/span",
       ratio(static_cast<double>(c.stream_bytes),
             static_cast<double>(c.spans_spilled))},
      {"stream.peak_open_spans", "count",
       static_cast<double>(c.peak_open_spans)},
      {"obs.span_bytes_per_task", "B/task",
       ratio(static_cast<double>(p.tag("obs.span").peak_bytes), tasks)},
      {"core.job_lifecycle_us", "us", ratio(lifecycle_ns, jobs) / 1e3},
      {"svc.jobs_launched", "count", static_cast<double>(rep.launched)},
      {"svc.jobs_shed", "count", static_cast<double>(rep.shed)},
      {"svc.heap_kb_per_job", "KiB/job",
       ratio((rep.heap_live - rep.heap_before) / 1024.0, jobs)},
      {"resil.sweep_share", "share", ratio(incl("resil.sweep"), wall)},
  };
}

// --- micro-benchmark input shapes --------------------------------------------

struct FabricShape {
  int nodes = 2;
  int leaf_radix = 4;
  int spines = 2;
  double nic_bandwidth = 0.0;
  double uplink_bandwidth = 0.0;
  double latency = 0.0;
  double per_hop_latency = 0.0;
  std::uint64_t payload = 0;
  int concurrent_flows = 1;
};

struct MicroShapes {
  double pushes_per_event = 1.0;
  std::size_t queue_depth = 1024;
  FabricShape fabric;
  int cores_per_node = 2;
  int residents_per_node = 2;
  std::vector<core::TaskSpec> tasks;  ///< one apprank's tasks, one iteration
  std::vector<std::unique_ptr<graph::ExpanderResult>> expanders;
  std::vector<solver::AllocationProblem> problems;
};

inline FabricShape fabric_shape(const core::RuntimeConfig& cfg,
                                std::uint64_t payload, int flows) {
  const net::NetConfig& n = cfg.net;
  FabricShape s;
  s.nodes = cfg.cluster.node_count();
  s.leaf_radix = n.leaf_radix;
  s.spines = n.spines;
  s.nic_bandwidth = n.nic_bw(cfg.cluster.link);
  s.uplink_bandwidth = n.uplink_bw(cfg.cluster.link);
  s.latency = n.base_latency(cfg.cluster.link);
  s.per_hop_latency = n.per_hop_latency;
  s.payload = payload;
  s.concurrent_flows = std::max(1, flows);
  return s;
}

/// Adds the allocation problem a runtime of `cfg` solves: its own
/// expander and a per-apprank work vector.
inline void add_problem(MicroShapes& d, const core::RuntimeConfig& cfg,
                        std::vector<double> work) {
  graph::ExpanderParams params;
  params.nodes = cfg.cluster.node_count();
  params.appranks_per_node = cfg.appranks_per_node;
  params.degree = cfg.degree;
  params.seed = cfg.seed;
  d.expanders.push_back(std::make_unique<graph::ExpanderResult>(
      graph::build_expander(params)));
  solver::AllocationProblem p;
  p.graph = &d.expanders.back()->graph;
  for (const auto& node : cfg.cluster.nodes) p.node_cores.push_back(node.cores);
  p.work = std::move(work);
  d.problems.push_back(std::move(p));
}

/// Input shapes for the micro-benchmarks. `measured` is a traced
/// repetition of the same workload and seed: it supplies the push-to-fire
/// ratio, the queue depth and, on the fabric workload, the concurrent flow
/// count.
inline MicroShapes micro_shapes(Kind kind, std::uint64_t seed,
                                const Rep& measured) {
  MicroShapes d;
  d.pushes_per_event = std::max(
      1.0, ratio(static_cast<double>(measured.prof.tag("sim.event").allocs),
                 static_cast<double>(measured.counters.events)));
  d.queue_depth = std::max<std::size_t>(
      16, static_cast<std::size_t>(measured.prof.median_queue_depth));
  const auto rank_work = [](const std::vector<double>& means, int tasks) {
    std::vector<double> w;
    for (double m : means) w.push_back(m * tasks);
    return w;
  };
  switch (kind) {
    case Kind::FabricFattree: {
      const core::RuntimeConfig cfg = fabric_runtime_config(seed);
      const double flows =
          ratio(static_cast<double>(measured.counters.flows_touched),
                static_cast<double>(measured.counters.solver_runs));
      d.fabric = fabric_shape(cfg, kFabPayload, static_cast<int>(flows + 0.5));
      d.cores_per_node = kFabCores;
      d.residents_per_node = cfg.appranks_per_node * cfg.degree;
      apps::SyntheticWorkload wl(fabric_workload_config());
      wl.reseed(seed);
      d.tasks = wl.make_tasks(0, 0);
      add_problem(d, cfg, rank_work(wl.rank_means(), kFabTasksPerRank));
      break;
    }
    case Kind::PaperMicropp: {
      // The fabric is off here: the replay drives the default fat-tree a
      // net-on run of this cluster would get, one in-flight input
      // transfer per apprank and helper.
      const core::RuntimeConfig cfg = micropp_runtime_config(seed);
      const apps::micropp::MicroPPConfig wcfg = micropp_workload_config(seed);
      apps::micropp::MicroPPWorkload wl(wcfg);
      d.fabric = fabric_shape(
          cfg, wcfg.bytes_per_element * wcfg.elements_per_task,
          wcfg.appranks * (kMppDegree - 1));
      d.cores_per_node = kMppCores;
      d.residents_per_node = cfg.appranks_per_node * cfg.degree;
      d.tasks = wl.make_tasks(0, 0);
      add_problem(d, cfg, wl.expected_rank_loads());
      break;
    }
    case Kind::SvcTenants: {
      // Every job solves its own partition's problem; both templates'
      // problems are timed. The replay, like paper_micropp's, drives the
      // default fat-tree over the whole cluster.
      const core::RuntimeConfig base = svc_base_config(seed);
      const std::vector<svc::JobTemplate> tpls = svc_templates();
      d.fabric = fabric_shape(base, tpls[0].bytes_per_task,
                              kSvcNodes * (tpls[0].degree - 1));
      d.cores_per_node = kSvcCores;
      d.residents_per_node = tpls[0].appranks_per_node * tpls[0].degree;
      for (const svc::JobTemplate& tpl : tpls) {
        core::RuntimeConfig cfg = base;
        cfg.cluster = sim::ClusterSpec::homogeneous(tpl.nodes, kSvcCores);
        cfg.appranks_per_node = tpl.appranks_per_node;
        cfg.degree = std::min(tpl.degree, tpl.nodes);
        apps::SyntheticConfig scfg;
        scfg.appranks = tpl.nodes * tpl.appranks_per_node;
        scfg.iterations = tpl.iterations;
        scfg.tasks_per_rank = tpl.tasks_per_rank;
        scfg.base_duration = tpl.base_duration;
        scfg.imbalance = tpl.imbalance;
        scfg.bytes_per_task = tpl.bytes_per_task;
        apps::SyntheticWorkload wl(scfg);
        wl.reseed(seed);
        if (d.tasks.empty()) d.tasks = wl.make_tasks(0, 0);
        add_problem(d, cfg, rank_work(wl.rank_means(), tpl.tasks_per_rank));
      }
      break;
    }
  }
  return d;
}

// --- micro-benchmarks --------------------------------------------------------

/// Runs `batch` (which returns the operations it performed) until
/// `budget_s` has passed, each batch a span; returns ns per operation.
inline double drive(SpanLog& log, const char* name, double budget_s,
                    const std::function<std::uint64_t()>& batch) {
  const auto t0 = Clock::now();
  double busy_s = 0.0;
  std::uint64_t ops = 0;
  do {
    const int span = log.open(name);
    const std::uint64_t n = batch();
    busy_s += log.close(span, n);
    ops += n;
  } while (seconds_since(t0) < budget_s);
  return ratio(busy_s * 1e9, static_cast<double>(ops));
}

/// sim: push/cancel/pop mix on sim::EventQueue at the workload's measured
/// pushes per fired event, around its measured queue depth. Every fired
/// event pushes k entries and cancels k-1 pending ones, as the fabric's
/// re-solve does; ns per queue operation.
inline double drive_event_queue(SpanLog& log, const MicroShapes& d,
                                double budget_s) {
  return drive(log, "micro.sim.queue", budget_s, [&]() -> std::uint64_t {
    sim::EventQueue q;
    std::mt19937_64 rng(0x51a7);
    std::uniform_real_distribution<double> gap(0.0, 1e-3);
    std::vector<sim::EventId> recent;
    double now = 0.0;
    for (std::size_t i = 0; i < d.queue_depth; ++i) {
      recent.push_back(q.push(gap(rng), [] {}));
    }
    std::uint64_t ops = d.queue_depth;
    double carry = 0.0;
    for (int fired = 0; fired < 20000 && !q.empty(); ++fired) {
      auto popped = q.pop();
      now = popped.first;
      carry += d.pushes_per_event;
      const int k = static_cast<int>(carry);
      carry -= k;
      for (int i = 0; i < k; ++i) {
        recent.push_back(q.push(now + gap(rng), [] {}));
      }
      for (int i = 0; i + 1 < k && !recent.empty(); ++i) {
        q.cancel(recent[recent.size() - 2]);
        recent.erase(recent.end() - 2);
      }
      if (recent.size() > 4 * d.queue_depth) {
        recent.erase(recent.begin(), recent.begin() + d.queue_depth);
      }
      ops += 1 + static_cast<std::uint64_t>(k) +
             static_cast<std::uint64_t>(std::max(0, k - 1));
    }
    return ops;
  });
}

/// net: closed-loop flows over the workload's fabric, holding its
/// concurrent flow count; µs per max-min solve.
inline double drive_fabric(SpanLog& log, const MicroShapes& d,
                           double budget_s) {
  const FabricShape& s = d.fabric;
  const double ns = drive(log, "micro.net.solve", budget_s,
                          [&]() -> std::uint64_t {
    sim::Engine engine;
    net::Fabric fabric(engine, net::NetTopology::fat_tree(
                                   s.nodes, s.leaf_radix, s.spines,
                                   s.nic_bandwidth, s.uplink_bandwidth,
                                   s.latency, s.per_hop_latency));
    std::mt19937_64 rng(0xfab);
    int remaining = 4 * s.concurrent_flows + 256;
    std::function<void()> launch = [&] {
      const auto src = static_cast<net::NodeId>(rng() % s.nodes);
      auto dst = static_cast<net::NodeId>(rng() % s.nodes);
      if (dst == src) dst = (dst + 1) % s.nodes;
      const std::uint64_t bytes = s.payload / 2 + rng() % (s.payload + 1);
      fabric.start_flow(src, dst, bytes, [&] {
        if (--remaining > 0) launch();
      });
    };
    for (int i = 0; i < s.concurrent_flows; ++i) launch();
    engine.run();
    return fabric.solver_runs();
  });
  return ns / 1e3;
}

/// dlb: LeWI lend / borrow / release / reclaim cycle on one node of the
/// workload (its cores and resident workers); ns per LeWI call.
inline double drive_lewi(SpanLog& log, const MicroShapes& d,
                         double budget_s) {
  const int cores = std::max(2, d.cores_per_node);
  const int residents = std::clamp(d.residents_per_node, 2, cores);
  dlb::NodeCores node(cores, 0);
  for (int r = 1; r < residents; ++r) node.set_owner(cores - r, r);
  dlb::LewiModule lewi(node, true);
  return drive(log, "micro.dlb.lewi", budget_s, [&]() -> std::uint64_t {
    constexpr int kCycles = 20000;
    for (int i = 0; i < kCycles; ++i) {
      lewi.lend_idle(0);
      lewi.borrow(1, cores);
      lewi.lend_idle(1);
      lewi.reclaim_for(0, cores);
      lewi.reclaim_for(1, cores);
    }
    return 5 * kCycles;
  });
}

/// nanos: task creation plus dependency registration with the workload's
/// own access pattern; ns per task.
inline double drive_nanos(SpanLog& log, const MicroShapes& d,
                          double budget_s) {
  return drive(log, "micro.nanos.register", budget_s, [&]() -> std::uint64_t {
    constexpr int kRounds = 16;
    std::uint64_t n = 0;
    nanos::TaskPool pool;
    nanos::DependencyGraph graph(pool);
    for (int r = 0; r < kRounds; ++r) {
      for (const core::TaskSpec& spec : d.tasks) {
        const nanos::TaskId id = pool.create(0, spec.work, spec.accesses);
        graph.register_task(id);
        ++n;
      }
    }
    return n;
  });
}

/// solver: the global allocation solve on the workload's expander and
/// work vector; ms per solve.
inline double drive_solver(SpanLog& log, const MicroShapes& d,
                           double budget_s) {
  const double ns = drive(log, "micro.solver.solve", budget_s,
                          [&]() -> std::uint64_t {
                            double sink = 0.0;
                            for (const auto& p : d.problems) {
                              sink += solver::solve_allocation(p).objective;
                            }
                            if (sink < 0.0) return 0;
                            return d.problems.size();
                          });
  return ns / 1e6;
}

}  // namespace perfbench
