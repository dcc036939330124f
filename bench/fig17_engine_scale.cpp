// Fig 17 (extension): engine scale-out — events/sec and bounded
// telemetry memory.
//
// The paper's figures stop at 32 nodes; this figure asks what the
// *simulator* can sustain when the modelled machine grows to 256 nodes
// and >1M tasks. Two arms:
//
//  - "telemetry": one mid-size machine run three ways — span telemetry
//    off, the in-memory obs::SpanCollector, and the tlb::stream spill
//    backend. The collector's resident set grows with total tasks; the
//    stream sink's with *in-flight* tasks (peak_open_spans), so its RSS
//    tracks the telemetry-off run while producing the same trace (the
//    equivalence is pinned bit-for-bit by tests/stream_test.cpp).
//  - "scale": nodes x tasks with the streaming backend on (the fig17
//    configuration): wall clock, events/sec, peak RSS, spans spilled,
//    and solver work counters.
//
// Baseline recorded for the header claim: the pre-PR engine (seed
// 89c9282: std::priority_queue event loop, full re-solve on every flow
// event, in-memory collector only) measured on the same host at the
// 64-node scale point sustains kSeedBaselineEventsPerSec below. Only the
// 64-node scale point is comparable with that number, so only it reports
// events_per_sec_vs_seed (other rows print "-"). With TLB_PROF=1 every
// scale point additionally reports solver_wall_share,
// alloc_bytes_per_task, pushes_per_event (event-queue pushes per fired
// event; the fabric keeps one completion event, so this stays near 1), and
// per-subsystem byte attribution from the src/prof self-profiler
// (windowed per point). The max-min solve
// dominates wall time on the 4-spine fat-tree (see solver_flows_touched
// and EXPERIMENTS.md Fig 17). Simulated results are deterministic; only
// wall-clock columns vary between hosts.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string_view>

#include "apps/synthetic.hpp"
#include "bench/common.hpp"
#include "net/fabric.hpp"
#include "prof/prof.hpp"

namespace {

using namespace tlb;

constexpr int kCores = 8;
constexpr int kDegree = 4;
constexpr double kNicBandwidth = 2e8;             // 200 MB/s
constexpr std::uint64_t kPayload = 256u << 10;    // 256 KiB/task
constexpr int kLeafRadix = 16;
constexpr int kSpines = 4;

/// Pre-PR engine throughput at the 64-node scale point on the reference
/// host (see header). 0 means "not yet measured on this checkout".
constexpr double kSeedBaselineEventsPerSec = 4937.0;

std::string bench_dir() {
  const char* dir = std::getenv("TLB_BENCH_OUTPUT_DIR");
  return (dir != nullptr && dir[0] != '\0') ? std::string(dir) : std::string(".");
}

apps::SyntheticConfig workload_config(int nodes, int tasks_per_rank) {
  apps::SyntheticConfig cfg;
  cfg.appranks = nodes;
  // Many barrier-paced iterations of moderate task counts: the stream
  // sink's working set is the *in-flight* spans (one iteration's worth),
  // so total tasks grow 16x past resident telemetry memory.
  cfg.iterations = bench::smoke() ? 4 : 16;
  cfg.tasks_per_rank = tasks_per_rank;
  cfg.base_duration = 0.005;
  cfg.imbalance = 1.8;
  cfg.bytes_per_task = kPayload;
  return cfg;
}

enum class Telemetry { Off, Collector, Stream };

core::RuntimeConfig runtime_config(int nodes, Telemetry telemetry,
                                   const std::string& stream_path) {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(nodes, kCores);
  cfg.cluster.link.bandwidth = kNicBandwidth;
  cfg.appranks_per_node = 1;
  cfg.degree = kDegree;
  cfg.policy = core::PolicyKind::Global;
  cfg.net.enabled = true;
  cfg.net.topology = net::TopologyKind::FatTree;
  cfg.net.leaf_radix = kLeafRadix;
  cfg.net.spines = kSpines;
  cfg.obs.spans = telemetry == Telemetry::Collector;
  cfg.obs.stream.enabled = telemetry == Telemetry::Stream;
  cfg.obs.stream.path = stream_path;
  cfg.prof.enabled = bench::prof_requested();
  // Smoke points fire only a few thousand events; the default 8192-event
  // cadence would leave the health-snapshot buffer empty.
  cfg.prof.snapshot_every_events = bench::smoke() ? 256 : 8192;
  return cfg;
}

std::uint64_t total_tasks(int nodes, int tasks_per_rank) {
  const apps::SyntheticConfig cfg = workload_config(nodes, tasks_per_rank);
  return static_cast<std::uint64_t>(cfg.appranks) *
         static_cast<std::uint64_t>(cfg.iterations) *
         static_cast<std::uint64_t>(cfg.tasks_per_rank);
}

struct RunSample {
  core::RunResult result;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  double rss_mb = 0.0;       ///< VmRSS right after run() (runtime alive)
  double peak_rss_mb = 0.0;  ///< process high-water mark so far
  std::uint64_t spans_spilled = 0;
  std::uint64_t stream_bytes = 0;
  std::uint64_t peak_open_spans = 0;
  std::uint64_t solver_runs = 0;
  std::uint64_t solver_flows_touched = 0;
  std::uint64_t solver_links_touched = 0;
  // Filled only when TLB_PROF=1 (all zero otherwise).
  bool prof_on = false;
  double solver_wall_share = 0.0;       ///< total_ns("net.solve") / window wall
  double prof_unattributed_share = 0.0; ///< 1 - attributed/wall (acceptance <5%)
  double alloc_bytes_per_task = 0.0;    ///< sum of per-tag peaks / total tasks
  double pushes_per_event = 0.0;        ///< sim.event allocations / fired
  std::uint64_t prof_snapshots = 0;
  std::vector<prof::TagStats> alloc_peaks;  ///< per-tag, for the RSS breakdown
};

RunSample run_once(int nodes, int tasks_per_rank, Telemetry telemetry,
                   const std::string& stream_path) {
  // Each point gets its own profiler window so solver_wall_share and the
  // allocation peaks describe this run, not everything since main().
  // (The report-level "prof" block therefore covers the *last* point.)
  const bool prof_on = bench::prof_requested();
  if (prof_on) prof::Profiler::instance().reset();
  RunSample s;
  s.prof_on = prof_on;
  apps::SyntheticWorkload wl(workload_config(nodes, tasks_per_rank));
  core::ClusterRuntime rt(runtime_config(nodes, telemetry, stream_path));
  const auto t0 = std::chrono::steady_clock::now();
  s.result = rt.run(wl);
  s.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  s.events_per_sec =
      s.wall_s > 0.0
          ? static_cast<double>(s.result.events_fired) / s.wall_s
          : 0.0;
  s.rss_mb = bench::current_rss_mb();
  s.peak_rss_mb = bench::peak_rss_mb();
  if (const stream::StreamSink* sink = rt.stream_sink()) {
    s.spans_spilled = sink->spans_spilled();
    s.stream_bytes = sink->bytes_written();
    s.peak_open_spans = sink->peak_open_spans();
  }
  if (const net::Fabric* fabric = rt.fabric()) {
    s.solver_runs = fabric->solver_runs();
    s.solver_flows_touched = fabric->solver_flows_touched();
    s.solver_links_touched = fabric->solver_links_touched();
  }
  if (prof_on) {
    // Read before ~ClusterRuntime so the window excludes teardown (the
    // teardown frees are what balances the alloc counters, not a cost the
    // run pays); peaks are monotone within the window so reading them
    // with the runtime still alive is exact.
    auto& p = prof::Profiler::instance();
    const std::uint64_t wall_ns = p.wall_ns();
    if (wall_ns > 0) {
      s.solver_wall_share =
          static_cast<double>(p.total_ns("net.solve")) /
          static_cast<double>(wall_ns);
      const std::uint64_t attributed = p.attributed_ns();
      s.prof_unattributed_share =
          attributed < wall_ns
              ? 1.0 - static_cast<double>(attributed) /
                          static_cast<double>(wall_ns)
              : 0.0;
    }
    s.prof_snapshots = p.snapshots().size();
    s.alloc_peaks = p.alloc_stats();
    std::int64_t peak_sum = 0;
    for (const auto& t : s.alloc_peaks) {
      peak_sum += t.peak_bytes;
      if (std::string_view(t.tag) == "sim.event" &&
          s.result.events_fired > 0) {
        s.pushes_per_event = static_cast<double>(t.allocs) /
                             static_cast<double>(s.result.events_fired);
      }
    }
    const std::uint64_t tasks = total_tasks(nodes, tasks_per_rank);
    if (tasks > 0) {
      s.alloc_bytes_per_task =
          static_cast<double>(peak_sum) / static_cast<double>(tasks);
    }
  }
  return s;
}

// --- telemetry arm ------------------------------------------------------------

void telemetry_arm(bench::JsonReport& report, int nodes, int tasks_per_rank) {
  using namespace tlb::bench;
  print_header("Fig 17a: telemetry backend at " + std::to_string(nodes) +
                   " nodes (" + std::to_string(total_tasks(nodes,
                                                           tasks_per_rank)) +
                   " tasks)",
               {"backend", "makespan[s]", "wall[s]", "kev/s", "rss[MB]",
                "spans", "open_peak"});
  // Collector last: ru_maxrss is a process-wide high-water mark, and the
  // collector's task-count-proportional footprint would otherwise mask
  // the off/stream readings.
  const struct {
    Telemetry telemetry;
    const char* name;
  } backends[] = {{Telemetry::Off, "off"},
                  {Telemetry::Stream, "stream"},
                  {Telemetry::Collector, "collector"}};
  for (const auto& b : backends) {
    const std::string spill = bench_dir() + "/fig17_telemetry.stream";
    const RunSample s = run_once(nodes, tasks_per_rank, b.telemetry, spill);
    const std::uint64_t spans = b.telemetry == Telemetry::Stream
                                    ? s.spans_spilled
                                    : (b.telemetry == Telemetry::Collector
                                           ? s.result.tasks_total
                                           : 0);
    print_cell(b.name);
    print_cell(s.result.makespan);
    print_cell(s.wall_s);
    print_cell(fmt(s.events_per_sec / 1e3, 2));
    print_cell(fmt(s.rss_mb, 1));
    print_cell(static_cast<int>(spans));
    print_cell(static_cast<int>(s.peak_open_spans));
    end_row();

    report.point("telemetry")
        .set("backend", b.name)
        .set("nodes", nodes)
        .set("tasks", total_tasks(nodes, tasks_per_rank))
        .set("makespan", s.result.makespan)
        .set("wall_s", s.wall_s)
        .set("events_fired", s.result.events_fired)
        .set("events_per_sec", s.events_per_sec)
        .set("rss_mb", s.rss_mb)
        .set("peak_rss_mb", s.peak_rss_mb)
        .set("spans_spilled", s.spans_spilled)
        .set("stream_bytes", s.stream_bytes)
        .set("peak_open_spans", s.peak_open_spans);
    if (b.telemetry == Telemetry::Stream) std::remove(spill.c_str());
  }
}

// --- scale arm ----------------------------------------------------------------

void scale_arm(bench::JsonReport& report, const std::vector<int>& node_counts,
               int tasks_per_rank) {
  using namespace tlb::bench;
  print_header("Fig 17c: engine scale (stream telemetry)",
               {"nodes", "tasks", "makespan[s]", "wall[s]", "kev/s",
                "peak_rss[MB]", "spans", "vs_seed64"});
  for (const int nodes : node_counts) {
    const std::string spill =
        bench_dir() + "/fig17_scale_n" + std::to_string(nodes) + ".stream";
    const RunSample s =
        run_once(nodes, tasks_per_rank, Telemetry::Stream, spill);
    // The seed baseline was measured at 64 nodes; other rows have no
    // comparable number.
    const bool has_seed = nodes == 64 && kSeedBaselineEventsPerSec > 0.0;
    const double vs_seed = has_seed
                               ? s.events_per_sec / kSeedBaselineEventsPerSec
                               : 0.0;

    print_cell(nodes);
    print_cell(static_cast<int>(total_tasks(nodes, tasks_per_rank)));
    print_cell(s.result.makespan);
    print_cell(s.wall_s);
    print_cell(fmt(s.events_per_sec / 1e3, 2));
    print_cell(fmt(s.peak_rss_mb, 1));
    print_cell(static_cast<int>(s.spans_spilled));
    if (has_seed) {
      print_cell(fmt(vs_seed, 2));
    } else {
      print_cell("-");
    }
    end_row();

    bench::JsonObject& pt = report.point("scale");
    pt.set("nodes", nodes)
        .set("tasks", total_tasks(nodes, tasks_per_rank))
        .set("makespan", s.result.makespan)
        .set("wall_s", s.wall_s)
        .set("events_fired", s.result.events_fired)
        .set("events_per_sec", s.events_per_sec)
        .set("rss_mb", s.rss_mb)
        .set("peak_rss_mb", s.peak_rss_mb)
        .set("spans_spilled", s.spans_spilled)
        .set("stream_bytes", s.stream_bytes)
        .set("peak_open_spans", s.peak_open_spans)
        .set("solver_runs", s.solver_runs)
        .set("solver_flows_touched", s.solver_flows_touched)
        .set("solver_links_touched", s.solver_links_touched);
    if (has_seed) pt.set("events_per_sec_vs_seed", vs_seed);
    if (s.prof_on) {
      // Direction-aware trend metrics (tools/bench_trend.py: up is bad)
      // plus the per-subsystem RSS attribution for EXPERIMENTS.md.
      pt.set("solver_wall_share", s.solver_wall_share)
          .set("alloc_bytes_per_task", s.alloc_bytes_per_task)
          .set("pushes_per_event", s.pushes_per_event)
          .set("prof_unattributed_share", s.prof_unattributed_share)
          .set("prof_snapshots", s.prof_snapshots);
      const auto tasks =
          static_cast<double>(total_tasks(nodes, tasks_per_rank));
      for (const auto& t : s.alloc_peaks) {
        std::string key = std::string("alloc_") + t.tag + "_bytes_per_task";
        for (char& c : key) {
          if (c == '.') c = '_';
        }
        pt.set(key, tasks > 0.0
                        ? static_cast<double>(t.peak_bytes) / tasks
                        : 0.0);
      }
    }
    std::remove(spill.c_str());
  }
}

}  // namespace

int main() {
  const bool smoke = tlb::bench::smoke();
  std::printf(
      "== Fig 17: engine scale-out (stream telemetry) ==\n"
      "(synthetic, %d cores/node, degree %d, %d KiB/task, fat-tree\n"
      " %d-leaf/%d-spine, %.0f MB/s NICs; seed baseline %.0f events/s at\n"
      " the 64-node point — see header comment)\n",
      kCores, kDegree, static_cast<int>(kPayload >> 10), kLeafRadix, kSpines,
      kNicBandwidth / 1e6, kSeedBaselineEventsPerSec);

  tlb::bench::JsonReport report("fig17",
                                "Engine scale-out: events/sec, bounded "
                                "telemetry memory");
  report.config()
      .set("cores_per_node", kCores)
      .set("degree", kDegree)
      .set("payload_bytes", kPayload)
      .set("nic_bandwidth", kNicBandwidth)
      .set("leaf_radix", kLeafRadix)
      .set("spines", kSpines)
      .set("seed_baseline_events_per_sec", kSeedBaselineEventsPerSec)
      .set("seed_baseline_commit", "89c9282");

  const int tasks_per_rank = smoke ? 16 : 256;
  const int telemetry_nodes = smoke ? 8 : 64;
  const std::vector<int> scale_nodes =
      smoke ? std::vector<int>{4, 8} : std::vector<int>{16, 32, 64, 256};

  telemetry_arm(report, telemetry_nodes, tasks_per_rank);
  scale_arm(report, scale_nodes, tasks_per_rank);
  return 0;
}
