// The three benchmark workloads, one repetition of each, and the output
// check every repetition passes through.
//
//  - fabric_fattree: synthetic tasks over a contended fat-tree with
//    stream telemetry. The event queue and the max-min fabric solve do
//    most of the work.
//  - paper_micropp: the paper's MicroPP configuration on 32 MareNostrum 4
//    nodes with LeWI, DROM and the global solver, the in-memory span
//    collector on and the fabric off. Runtime dispatch, DLB and the
//    scheduler do most of the work; net changes must not move it.
//  - svc_tenants: open-loop multi-tenant jobs at about twice saturation
//    with admission control and heartbeat leases. Thousands of short
//    runtimes share one engine, so per-job set-up, admission and lease
//    sweeps dominate, and retained jobs set the memory.
//
// A repetition splits into set-up (inputs, expander, topology, runtime
// or job-manager construction, arrival generation) and the run proper;
// tasks_per_s divides the tasks the run completed by the run's seconds.
//
// Each repetition of a run draws its own input from the run's seed
// (input_seed), so a run's median covers a sample of inputs rather than
// one: on fabric_fattree the simulated work per task moves by about ±10%
// from seed to seed, and one input per run would make that the spread
// between runs.
#pragma once

#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/micropp/workload.hpp"
#include "apps/synthetic.hpp"
#include "core/runtime.hpp"
#include "prof/prof.hpp"
#include "spans.hpp"
#include "svc/arrivals.hpp"
#include "svc/job_manager.hpp"

namespace perfbench {

using namespace tlb;

enum class Kind { FabricFattree, PaperMicropp, SvcTenants };

struct WorkloadInfo {
  const char* name;
  Kind kind;
};

inline constexpr WorkloadInfo kWorkloads[] = {
    {"fabric_fattree", Kind::FabricFattree},
    {"paper_micropp", Kind::PaperMicropp},
    {"svc_tenants", Kind::SvcTenants},
};

// --- sizes -------------------------------------------------------------------
// Chosen so one repetition takes 0.3-0.8 s on a 4-core x86 VM in a
// Release build: a 30 s run then holds 30-90 repetitions, enough for a
// steady quantile on a host whose speed swings with other tenants' load.

// fabric_fattree: fig17's shape at the 32-node gate.
inline constexpr int kFabNodes = 32;
inline constexpr int kFabCores = 8;
inline constexpr int kFabDegree = 4;
inline constexpr double kFabNicBandwidth = 2e8;           // 200 MB/s
inline constexpr std::uint64_t kFabPayload = 256u << 10;  // 256 KiB/task
inline constexpr int kFabLeafRadix = 16;
inline constexpr int kFabSpines = 4;
inline constexpr int kFabIterations = 4;
inline constexpr int kFabTasksPerRank = 128;

// paper_micropp: 32 MareNostrum 4 nodes, 2 appranks per node, the
// bench/micropp_figure.hpp task shape (512 tasks per rank and iteration),
// 2 of its 16 iterations.
inline constexpr int kMppNodes = 32;
inline constexpr int kMppCores = 48;
inline constexpr int kMppAppranksPerNode = 2;
inline constexpr int kMppDegree = 4;
inline constexpr int kMppIterations = 2;
inline constexpr double kMppSolverLatency = 0.057;  // paper §5.4.2, 32 nodes

// svc_tenants: fig15's tenants at about twice the saturation rate.
inline constexpr int kSvcNodes = 8;
inline constexpr int kSvcCores = 8;
inline constexpr double kSvcRate = 12.0;        // jobs per simulated second
inline constexpr double kSvcHorizon = 60.0;     // simulated seconds
inline constexpr double kSvcSaturation = 6.0;   // fig15 calibration, jobs/s

// --- configurations ----------------------------------------------------------

inline apps::SyntheticConfig fabric_workload_config() {
  apps::SyntheticConfig cfg;
  cfg.appranks = kFabNodes;
  cfg.iterations = kFabIterations;
  cfg.tasks_per_rank = kFabTasksPerRank;
  cfg.base_duration = 0.005;
  cfg.imbalance = 1.8;
  cfg.bytes_per_task = kFabPayload;
  return cfg;
}

inline core::RuntimeConfig fabric_runtime_config(std::uint64_t seed) {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(kFabNodes, kFabCores);
  cfg.cluster.link.bandwidth = kFabNicBandwidth;
  cfg.degree = kFabDegree;
  cfg.policy = core::PolicyKind::Global;
  cfg.net.enabled = true;
  cfg.net.topology = net::TopologyKind::FatTree;
  cfg.net.leaf_radix = kFabLeafRadix;
  cfg.net.spines = kFabSpines;
  cfg.obs.stream.enabled = true;
  cfg.seed = seed;
  return cfg;
}

inline apps::micropp::MicroPPConfig micropp_workload_config(
    std::uint64_t seed) {
  apps::micropp::MicroPPConfig cfg;
  cfg.appranks = kMppNodes * kMppAppranksPerNode;
  cfg.iterations = kMppIterations;
  cfg.elements_per_rank = 8192;
  cfg.elements_per_task = 16;
  cfg.heavy_rank_fraction = 0.25;
  cfg.nonlinear_fraction_heavy = 0.55;
  cfg.nonlinear_fraction_light = 0.05;
  cfg.core_flops_rate = 5e7;
  cfg.seed = seed;
  return cfg;
}

inline core::RuntimeConfig micropp_runtime_config(std::uint64_t seed) {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(kMppNodes, kMppCores);
  cfg.appranks_per_node = kMppAppranksPerNode;
  cfg.degree = kMppDegree;
  cfg.policy = core::PolicyKind::Global;
  cfg.solver_latency = kMppSolverLatency;
  cfg.lewi = true;
  cfg.drom = true;
  cfg.obs.spans = true;
  cfg.seed = seed;
  return cfg;
}

inline std::vector<svc::JobTemplate> svc_templates() {
  svc::JobTemplate interactive;
  interactive.name = "interactive";
  interactive.nodes = 2;
  interactive.degree = 2;
  interactive.iterations = 2;
  interactive.tasks_per_rank = 32;
  interactive.base_duration = 0.020;
  interactive.imbalance = 1.5;
  interactive.deadline_class = 0;
  interactive.deadline = 1.5;
  interactive.weight = 4.0;

  svc::JobTemplate batch;
  batch.name = "batch";
  batch.nodes = 4;
  batch.degree = 2;
  batch.iterations = 4;
  batch.tasks_per_rank = 48;
  batch.base_duration = 0.025;
  batch.imbalance = 2.0;
  batch.deadline_class = 2;
  batch.deadline = 10.0;
  batch.weight = 1.0;
  return {interactive, batch};
}

inline std::uint64_t template_tasks(const svc::JobTemplate& tpl) {
  return static_cast<std::uint64_t>(tpl.nodes) *
         static_cast<std::uint64_t>(tpl.appranks_per_node) *
         static_cast<std::uint64_t>(tpl.iterations) *
         static_cast<std::uint64_t>(tpl.tasks_per_rank);
}

inline core::RuntimeConfig svc_base_config(std::uint64_t seed) {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(kSvcNodes, kSvcCores);
  cfg.policy = core::PolicyKind::Global;
  cfg.seed = seed;
  cfg.record_traces = false;
  cfg.resil.detection = resil::DetectionMode::Heartbeat;
  cfg.svc.enabled = true;
  cfg.svc.templates = svc_templates();
  cfg.svc.arrivals.shape = svc::ArrivalShape::Poisson;
  cfg.svc.arrivals.rate = kSvcRate;
  cfg.svc.arrivals.horizon = kSvcHorizon;
  cfg.svc.fabric_pressure = 0.02;
  svc::AdmissionConfig& adm = cfg.svc.admission;  // fig15's tuning
  adm.enabled = true;
  adm.bucket_rate = 2.0 * kSvcSaturation;
  adm.bucket_burst = 16.0;
  adm.initial_limit = 6;
  adm.min_limit = 2;
  adm.max_limit = 12;
  adm.tolerance = 2.5;
  adm.update_window = 8;
  adm.class_fractions = {1.0, 0.85, 0.6};
  adm.retry_backoff = 0.3;
  adm.retry_max = 2;
  return cfg;
}

/// Canonical description of a workload's configuration; its hash goes
/// into the run manifest so results of different shapes never compare.
inline std::string config_description(Kind kind) {
  char buf[512];
  switch (kind) {
    case Kind::FabricFattree:
      std::snprintf(buf, sizeof(buf),
                    "fabric_fattree nodes=%d cores=%d degree=%d nic=%g "
                    "payload=%" PRIu64 " leaf=%d spines=%d iterations=%d "
                    "tasks_per_rank=%d base=0.005 imbalance=1.8 policy=global "
                    "solver=full telemetry=stream",
                    kFabNodes, kFabCores, kFabDegree, kFabNicBandwidth,
                    kFabPayload, kFabLeafRadix, kFabSpines, kFabIterations,
                    kFabTasksPerRank);
      break;
    case Kind::PaperMicropp:
      std::snprintf(buf, sizeof(buf),
                    "paper_micropp nodes=%d cores=%d appranks_per_node=%d "
                    "degree=%d iterations=%d elements=8192/16 heavy=0.25 "
                    "nl=0.55/0.05 flops=5e7 solver_latency=%g lewi drom "
                    "policy=global net=off telemetry=collector",
                    kMppNodes, kMppCores, kMppAppranksPerNode, kMppDegree,
                    kMppIterations, kMppSolverLatency);
      break;
    case Kind::SvcTenants:
      std::snprintf(buf, sizeof(buf),
                    "svc_tenants nodes=%d cores=%d rate=%g horizon=%g "
                    "saturation=%g templates=interactive(2n,2x32,w4)"
                    "+batch(4n,4x48,w1) admission=fig15 resil=heartbeat "
                    "fabric_pressure=0.02 arrivals=poisson",
                    kSvcNodes, kSvcCores, kSvcRate, kSvcHorizon,
                    kSvcSaturation);
      break;
  }
  return buf;
}

// --- one repetition ----------------------------------------------------------

/// Counts the tasks a workload hands the runtime, so the output check can
/// compare generated against completed without trusting the runtime.
class CountingWorkload final : public core::Workload {
 public:
  explicit CountingWorkload(core::Workload& inner) : inner_(inner) {}
  [[nodiscard]] int iteration_count() const override {
    return inner_.iteration_count();
  }
  void reseed(std::uint64_t seed) override { inner_.reseed(seed); }
  std::vector<core::TaskSpec> make_tasks(int apprank, int iteration) override {
    std::vector<core::TaskSpec> tasks = inner_.make_tasks(apprank, iteration);
    generated_ += tasks.size();
    return tasks;
  }
  std::vector<nanos::AccessRegion> barrier_regions(int apprank,
                                                   int iteration) override {
    return inner_.barrier_regions(apprank, iteration);
  }
  void on_iteration_done(int iteration,
                         const std::vector<double>& apprank_times) override {
    inner_.on_iteration_done(iteration, apprank_times);
  }
  [[nodiscard]] std::uint64_t generated() const { return generated_; }

 private:
  core::Workload& inner_;
  std::uint64_t generated_ = 0;
};

/// Public counters of one repetition, read before teardown.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t solver_runs = 0;
  std::uint64_t flows_touched = 0;
  std::uint64_t links_touched = 0;
  std::uint64_t decisions = 0;
  std::uint64_t state_touched = 0;
  std::uint64_t ctrl_msgs = 0;
  std::uint64_t lewi_ops = 0;
  std::uint64_t drom_moves = 0;
  std::uint64_t spans_spilled = 0;
  std::uint64_t stream_bytes = 0;
  std::uint64_t peak_open_spans = 0;
};

/// The src/prof state of a traced repetition, copied before teardown.
struct ProfView {
  struct Phase {
    std::uint64_t calls = 0;
    std::uint64_t inclusive_ns = 0;
    std::uint64_t exclusive_ns = 0;
  };
  double wall_ns = 0.0;
  std::map<std::string, Phase> phases;  ///< summed over call paths
  std::map<std::string, prof::TagStats> tags;
  double median_queue_depth = 0.0;

  [[nodiscard]] Phase phase(const std::string& name) const {
    const auto it = phases.find(name);
    return it == phases.end() ? Phase{} : it->second;
  }
  [[nodiscard]] prof::TagStats tag(const std::string& name) const {
    const auto it = tags.find(name);
    return it == tags.end() ? prof::TagStats{} : it->second;
  }
};

inline ProfView capture_prof() {
  const prof::Profiler& p = prof::Profiler::instance();
  ProfView v;
  v.wall_ns = static_cast<double>(p.wall_ns());
  for (const prof::PhaseNode& n : p.phases()) {
    ProfView::Phase& ph = v.phases[n.name];
    ph.calls += n.calls;
    ph.inclusive_ns += n.inclusive_ns;
    ph.exclusive_ns += n.exclusive_ns();
  }
  for (const prof::TagStats& t : p.alloc_stats()) v.tags[t.tag] = t;
  std::vector<double> depths;
  for (const prof::HealthSnapshot& s : p.snapshots()) {
    depths.push_back(static_cast<double>(s.queue_depth));
  }
  if (!depths.empty()) {
    std::sort(depths.begin(), depths.end());
    v.median_queue_depth = depths[depths.size() / 2];
  }
  return v;
}

/// Seed of the simulated input of repetition input `k` of a run: input 0
/// is the run's seed itself, later ones are derived from it.
inline std::uint64_t input_seed(std::uint64_t seed, std::uint64_t k) {
  return seed + k * 0x9E3779B97F4A7C15ull;
}

/// Heap bytes in use (glibc): live allocations, which unlike RSS fall
/// again when a repetition's state is freed.
inline double heap_in_use_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

struct Rep {
  std::uint64_t input = 0;  ///< input index within the run
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t tasks = 0;  ///< tasks completed by the run
  /// Simulated outcome: identical on every repetition of one input.
  double makespan = 0.0;
  std::uint64_t arrived = 0;   ///< svc_tenants only
  std::uint64_t launched = 0;  ///< jobs launched (1 for a batch run)
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::vector<std::string> errors;  ///< output-check failures
  Counters counters;
  bool traced = false;
  ProfView prof;
  double peak_rss_mb = 0.0;  ///< process high-water RSS after this run
  double heap_before = 0.0;  ///< heap bytes in use before set-up
  double heap_live = 0.0;    ///< ... after the run, its state still alive

  [[nodiscard]] double tasks_per_s() const {
    return run_s > 0.0 ? static_cast<double>(tasks) / run_s : 0.0;
  }
  [[nodiscard]] std::string fingerprint() const {
    char buf[160];
    if (arrived > 0) {
      std::snprintf(buf, sizeof(buf),
                    "arrived=%" PRIu64 " launched=%" PRIu64
                    " completed=%" PRIu64 " shed=%" PRIu64 " tasks=%" PRIu64,
                    arrived, launched, completed, shed, tasks);
    } else {
      std::snprintf(buf, sizeof(buf), "makespan=%.17g tasks=%" PRIu64,
                    makespan, tasks);
    }
    return buf;
  }
};

struct RepOptions {
  Kind kind = Kind::FabricFattree;
  std::uint64_t seed = 1;  ///< the run's seed
  std::uint64_t input = 0;  ///< input index: simulates input_seed(seed, input)
  bool traced = false;
  std::string spill_path;  ///< stream spill file (fabric_fattree)
};

namespace detail {

inline void fail(Rep& rep, const std::string& what) {
  rep.errors.push_back(what);
}

/// Every generated task completed, and each exactly once.
inline void check_batch(Rep& rep, const CountingWorkload& counted,
                        const core::RunResult& r,
                        const core::ClusterRuntime& rt) {
  const std::uint64_t generated = counted.generated();
  if (generated == 0) fail(rep, "no tasks generated");
  if (r.tasks_total != generated) {
    fail(rep, "completed " + std::to_string(r.tasks_total) + " of " +
                  std::to_string(generated) + " generated tasks");
  }
  const nanos::TaskPool& pool = rt.tasks();
  if (pool.size() != generated) {
    fail(rep, "task pool holds " + std::to_string(pool.size()) +
                  " tasks, generated " + std::to_string(generated));
  }
  std::uint64_t not_once = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const nanos::Task& t = pool.get(i);
    if (t.state != nanos::TaskState::Finished || t.executions != 1) {
      ++not_once;
    }
  }
  if (not_once > 0) {
    fail(rep, std::to_string(not_once) +
                  " tasks not finished exactly once");
  }
  if (!(r.makespan > 0.0) || !std::isfinite(r.makespan)) {
    fail(rep, "makespan is not a positive finite number");
  }
}

inline void read_runtime_counters(Counters& c, const core::RunResult& r,
                                  const core::ClusterRuntime& rt) {
  c.events = r.events_fired;
  c.decisions = r.sched.decisions;
  c.state_touched = r.sched.state_touched;
  c.ctrl_msgs = r.control_messages;
  c.lewi_ops = r.lewi_lends + r.lewi_borrows + r.lewi_reclaims;
  c.drom_moves = r.drom_moves;
  if (const net::Fabric* f = rt.fabric()) {
    c.solver_runs = f->solver_runs();
    c.flows_touched = f->solver_flows_touched();
    c.links_touched = f->solver_links_touched();
  }
  if (const stream::StreamSink* s = rt.stream_sink()) {
    c.spans_spilled = s->spans_spilled();
    c.stream_bytes = s->bytes_written();
    c.peak_open_spans = s->peak_open_spans();
  }
}

inline void run_batch(Rep& rep, const RepOptions& opt, SpanLog& log) {
  const std::uint64_t seed = input_seed(opt.seed, opt.input);
  const auto t0 = Clock::now();
  const int setup_span = log.open("setup");
  std::unique_ptr<core::Workload> inner;
  core::RuntimeConfig cfg;
  if (opt.kind == Kind::FabricFattree) {
    inner = std::make_unique<apps::SyntheticWorkload>(fabric_workload_config());
    cfg = fabric_runtime_config(seed);
    cfg.obs.stream.path = opt.spill_path;
  } else {
    inner = std::make_unique<apps::micropp::MicroPPWorkload>(
        micropp_workload_config(seed));
    cfg = micropp_runtime_config(seed);
  }
  cfg.prof.enabled = opt.traced;
  CountingWorkload counted(*inner);
  auto rt = std::make_unique<core::ClusterRuntime>(cfg);
  log.close(setup_span);
  rep.setup_s = seconds_since(t0);

  const auto t1 = Clock::now();
  const int run_span = log.open("run");
  const core::RunResult r = rt->run(counted);
  rep.run_s = seconds_since(t1);
  log.close(run_span, r.tasks_total);

  rep.heap_live = heap_in_use_bytes();
  if (opt.traced) rep.prof = capture_prof();
  rep.tasks = r.tasks_total;
  rep.makespan = r.makespan;
  rep.launched = 1;
  read_runtime_counters(rep.counters, r, *rt);
  check_batch(rep, counted, r, *rt);
  rt.reset();
  if (opt.kind == Kind::FabricFattree) std::remove(opt.spill_path.c_str());
}

inline void run_svc(Rep& rep, const RepOptions& opt, SpanLog& log) {
  const auto t0 = Clock::now();
  const int setup_span = log.open("setup");
  core::RuntimeConfig cfg = svc_base_config(input_seed(opt.seed, opt.input));
  cfg.prof.enabled = opt.traced;
  // Arrivals are fixed before the run (they never depend on execution),
  // so they are generated here and replayed verbatim by the manager.
  std::vector<double> weights;
  for (const svc::JobTemplate& tpl : cfg.svc.templates) {
    weights.push_back(tpl.weight);
  }
  svc::ArrivalGenerator gen(cfg.svc.arrivals, weights, cfg.seed);
  cfg.svc.arrivals.trace = gen.all();
  cfg.svc.arrivals.shape = svc::ArrivalShape::Trace;
  const std::size_t offered = cfg.svc.arrivals.trace.size();
  auto mgr = std::make_unique<svc::JobManager>(cfg);
  log.close(setup_span);
  rep.setup_s = seconds_since(t0);

  const auto t1 = Clock::now();
  const int run_span = log.open("run");
  const svc::SvcResult res = mgr->run();
  rep.run_s = seconds_since(t1);

  rep.heap_live = heap_in_use_bytes();
  if (opt.traced) rep.prof = capture_prof();
  rep.arrived = res.arrived;
  rep.completed = res.completed;
  rep.shed = res.shed;
  std::uint64_t pending = 0;
  std::uint64_t disordered = 0;
  for (const svc::JobRecord& rec : mgr->jobs()) {
    if (rec.outcome == svc::JobOutcome::Pending) ++pending;
    if (rec.started >= 0.0) ++rep.launched;
    if (rec.outcome != svc::JobOutcome::Completed) continue;
    rep.tasks += template_tasks(
        cfg.svc.templates[static_cast<std::size_t>(rec.template_index)]);
    if (!(rec.started >= rec.arrival && rec.finished >= rec.started)) {
      ++disordered;
    }
  }
  log.close(run_span, rep.tasks);

  // JobManager keeps each job's RunResult private, so the per-runtime
  // counters (sched, control messages, DLB, fabric) stay zero here.
  Counters& c = rep.counters;
  c.events = res.engine_events;

  if (offered == 0 || res.arrived != offered) {
    fail(rep, "arrived " + std::to_string(res.arrived) + " of " +
                  std::to_string(offered) + " offered jobs");
  }
  if (pending > 0) fail(rep, std::to_string(pending) + " jobs undecided");
  if (res.completed + res.shed != res.arrived) {
    fail(rep, "completed + shed != arrived");
  }
  if (rep.launched != res.completed || res.admitted != res.completed) {
    fail(rep, "launched " + std::to_string(rep.launched) + ", admitted " +
                  std::to_string(res.admitted) + ", completed " +
                  std::to_string(res.completed));
  }
  if (disordered > 0) {
    fail(rep, std::to_string(disordered) + " jobs with disordered times");
  }
  if (opt.traced) {
    // With the profiler on, every task a job's runtime created is counted
    // by the nanos.task allocation tag: it must equal the tasks of the
    // launched jobs, all of which completed.
    const std::uint64_t created = rep.prof.tag("nanos.task").allocs;
    if (created != rep.tasks) {
      fail(rep, "runtimes created " + std::to_string(created) +
                    " tasks, completed jobs hold " +
                    std::to_string(rep.tasks));
    }
  }
  mgr.reset();
}

}  // namespace detail

inline Rep run_rep(const RepOptions& opt, SpanLog& log) {
  Rep rep;
  rep.input = opt.input;
  rep.traced = opt.traced;
  if (opt.traced) {
    // A fresh profiler window per repetition, opened before set-up so
    // construction is attributed too.
    prof::Profiler::instance().reset();
    prof::Profiler::instance().enable();
  }
  rep.heap_before = heap_in_use_bytes();
  if (opt.kind == Kind::SvcTenants) {
    detail::run_svc(rep, opt, log);
  } else {
    detail::run_batch(rep, opt, log);
  }
  if (opt.traced) prof::Profiler::instance().disable();
  rep.peak_rss_mb = prof::peak_rss_mb();
  // Hand the repetition's freed heap back to the kernel, so the process
  // high-water mark is the largest single repetition's footprint and does
  // not creep up with heap fragmentation as repetitions accumulate.
  malloc_trim(0);
  if (rep.tasks == 0) detail::fail(rep, "no tasks completed");
  return rep;
}

// --- pinned fingerprints -----------------------------------------------------

/// The simulated outcome of input 0 of the pinned seed. Simulated results
/// repeat exactly, so a change here is an output-check failure, never a
/// metric.
/// fabric_fattree's makespan may drift by rounding when the fabric's
/// arithmetic order changes (ROADMAP item 1), so it is compared with a
/// relative tolerance of kFabricMakespanTolerance; the others exactly.
inline constexpr std::uint64_t kPinnedSeed = 1;
inline constexpr double kFabricMakespanTolerance = 1e-6;

struct Pinned {
  Kind kind;
  double makespan;  ///< batch workloads
  std::uint64_t tasks;
  std::uint64_t arrived, launched, completed, shed;  ///< svc_tenants
};

inline constexpr Pinned kPinned[] = {
    {Kind::FabricFattree, 0.76953674101641623, 16384, 0, 0, 0, 0},
    {Kind::PaperMicropp, 2.5350522905600026, 65536, 0, 0, 0, 0},
    {Kind::SvcTenants, 0.0, 94080, 730, 470, 470, 260},
};

/// Empty when `rep` matches the pinned fingerprint of its workload.
inline std::string check_pinned(Kind kind, const Rep& rep) {
  for (const Pinned& p : kPinned) {
    if (p.kind != kind) continue;
    char buf[256];
    if (kind == Kind::SvcTenants) {
      if (rep.arrived == p.arrived && rep.launched == p.launched &&
          rep.completed == p.completed && rep.shed == p.shed &&
          rep.tasks == p.tasks) {
        return "";
      }
      std::snprintf(buf, sizeof(buf),
                    "pinned arrived=%" PRIu64 " launched=%" PRIu64
                    " completed=%" PRIu64 " shed=%" PRIu64 " tasks=%" PRIu64,
                    p.arrived, p.launched, p.completed, p.shed, p.tasks);
    } else {
      const double tol =
          kind == Kind::FabricFattree ? kFabricMakespanTolerance : 0.0;
      if (rep.tasks == p.tasks &&
          std::fabs(rep.makespan - p.makespan) <= tol * p.makespan) {
        return "";
      }
      std::snprintf(buf, sizeof(buf), "pinned makespan=%.17g tasks=%" PRIu64,
                    p.makespan, p.tasks);
    }
    return std::string(buf) + ", got " + rep.fingerprint();
  }
  return "no pinned fingerprint";
}

}  // namespace perfbench
