// Tests of the observability subsystem (tlb::obs): metrics registry and
// histogram quantile edge cases, Chrome trace export invariants (valid
// JSON, monotone timestamps, B/E pairing), POP efficiency agreement with
// TALP, critical-path breakdown, typed trace marks / Paraver export, and
// the determinism contract (span collection keeps schedules bit-identical
// to the golden fingerprints, and the serialized registry is pinned).
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "apps/synthetic.hpp"
#include "core/runtime.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/pop.hpp"
#include "obs/span.hpp"
#include "trace/paraver.hpp"
#include "trace/recorder.hpp"

namespace {

using namespace tlb;

// --- histogram ---------------------------------------------------------------

TEST(Histogram, RejectsNonIncreasingBounds) {
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({}), std::invalid_argument);
}

TEST(Histogram, EmptyQuantileIsZero) {
  obs::Histogram h({1.0, 2.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(1.0), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(Histogram, SingleSampleQuantileIsExact) {
  obs::Histogram h({1.0, 2.0, 4.0});
  h.add(1.7);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.7);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.7);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.7);
  EXPECT_DOUBLE_EQ(h.mean(), 1.7);
}

TEST(Histogram, SaturatedTopBucketClampsToObservedMax) {
  // Every sample lands in the overflow bucket (no finite upper edge): the
  // quantile must clamp to the observed max, never report infinity.
  obs::Histogram h({1.0});
  h.add(10.0);
  h.add(20.0);
  h.add(30.0);
  EXPECT_EQ(h.buckets().back(), 3u);
  EXPECT_LE(h.quantile(0.99), 30.0);
  EXPECT_GE(h.quantile(0.99), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 30.0);
  EXPECT_DOUBLE_EQ(h.max(), 30.0);
  EXPECT_DOUBLE_EQ(h.min(), 10.0);
}

TEST(Histogram, QuantileInterpolatesAndIsMonotone) {
  obs::Histogram h({1.0, 2.0, 3.0, 4.0});
  for (int i = 0; i < 100; ++i) h.add(0.5 + 3.0 * i / 99.0);  // [0.5, 3.5]
  double prev = h.quantile(0.0);
  for (double q = 0.1; q <= 1.0001; q += 0.1) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_NEAR(h.quantile(0.5), 2.0, 0.25);
}

// --- registry ----------------------------------------------------------------

TEST(Registry, SharesMetricsByNameAndRejectsKindMismatch) {
  obs::Registry reg;
  reg.counter("a").inc(2);
  reg.counter("a").inc(3);
  EXPECT_EQ(reg.counter("a").value(), 5u);
  reg.gauge("g").set(1.5);
  EXPECT_THROW(reg.gauge("a"), std::logic_error);
  EXPECT_THROW(reg.counter("g"), std::logic_error);
  EXPECT_EQ(reg.find_counter("a")->value(), 5u);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
}

TEST(Registry, ToJsonIsWellFormedAndOrdered) {
  obs::Registry reg;
  reg.counter("z.second");
  reg.counter("a.first").inc(7);
  reg.gauge("g").set(0.25);
  reg.histogram("h", {1.0, 2.0}).add(1.5);
  const std::string j = reg.to_json();
  // Registration order, not name order.
  EXPECT_LT(j.find("z.second"), j.find("a.first"));
  EXPECT_NE(j.find("\"a.first\": 7"), std::string::npos);
  EXPECT_NE(j.find("\"g\": 0.25"), std::string::npos);
  EXPECT_NE(j.find("\"count\": 1"), std::string::npos);
  // Balanced braces, single root object.
  int depth = 0;
  for (char c : j) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// --- golden fingerprints (determinism contract) -------------------------------

std::uint64_t fp_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
  return h;
}

std::uint64_t bits_of(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

std::uint64_t schedule_fingerprint(const core::ClusterRuntime& rt,
                                   const core::RunResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const nanos::TaskPool& pool = rt.tasks();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const nanos::Task& t = pool.get(static_cast<nanos::TaskId>(i));
    h = fp_mix(h, t.id);
    h = fp_mix(h, static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(t.scheduled_node)));
    h = fp_mix(h, static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(t.executed_worker)));
    h = fp_mix(h, static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(t.executed_core)));
    h = fp_mix(h, static_cast<std::uint64_t>(t.executions));
    h = fp_mix(h, bits_of(t.start_at));
    h = fp_mix(h, bits_of(t.finish_at));
  }
  h = fp_mix(h, bits_of(r.makespan));
  h = fp_mix(h, r.events_fired);
  return h;
}

// Captured in tests/sched_test.cpp from the pre-obs binary; span
// collection must not move them (it records, it never schedules).
constexpr std::uint64_t kGoldenPlain = 0x5515139c5bf2c300ull;
constexpr std::uint64_t kGoldenNet = 0xb613ed57f79b2e8aull;

core::RuntimeConfig plain_config() {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(4, 8);
  cfg.appranks_per_node = 2;
  cfg.degree = 3;
  cfg.policy = core::PolicyKind::Global;
  cfg.global_period = 0.2;
  cfg.local_period = 0.05;
  return cfg;
}

apps::SyntheticConfig plain_workload() {
  apps::SyntheticConfig cfg;
  cfg.appranks = 8;
  cfg.imbalance = 1.8;
  cfg.iterations = 3;
  cfg.tasks_per_rank = 40;
  return cfg;
}

core::RuntimeConfig net_config() {
  core::RuntimeConfig cfg;
  cfg.cluster = sim::ClusterSpec::homogeneous(4, 4);
  cfg.appranks_per_node = 1;
  cfg.degree = 2;
  cfg.policy = core::PolicyKind::Global;
  cfg.global_period = 0.2;
  cfg.local_period = 0.05;
  cfg.net.enabled = true;
  cfg.net.leaf_radix = 2;
  cfg.net.spines = 1;
  return cfg;
}

apps::SyntheticConfig net_workload() {
  apps::SyntheticConfig cfg;
  cfg.appranks = 4;
  cfg.iterations = 2;
  cfg.tasks_per_rank = 24;
  cfg.imbalance = 2.0;
  cfg.bytes_per_task = 1 << 20;
  return cfg;
}

TEST(ObsDeterminism, SpanCollectionKeepsPlainScheduleBitIdentical) {
  core::RuntimeConfig cfg = plain_config();
  cfg.obs.spans = true;
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  EXPECT_EQ(schedule_fingerprint(rt, rt.run(wl)), kGoldenPlain);
  ASSERT_NE(rt.spans(), nullptr);
  EXPECT_EQ(rt.spans()->spans().size(), rt.tasks().size());
}

TEST(ObsDeterminism, SpanCollectionKeepsNetScheduleBitIdentical) {
  core::RuntimeConfig cfg = net_config();
  cfg.obs.spans = true;
  apps::SyntheticWorkload wl(net_workload());
  core::ClusterRuntime rt(cfg);
  EXPECT_EQ(schedule_fingerprint(rt, rt.run(wl)), kGoldenNet);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) h = fp_mix(h, static_cast<unsigned char>(c));
  return h;
}

// The serialized registry of three runs that together reach every metric
// the runtime exports: plain with spans (obs.*), fat-tree fabric + hier
// scheduler + stream sink (net.*, net.fct_s, hier.*, stream.*), and
// heartbeat detection with a helper crash plus a node that joins and
// retires (resil.*, fault.*, elastic.*). Names, kinds, order and values
// are pinned byte for byte.
TEST(ObsDeterminism, MetricsJsonIsPinned) {
  {
    core::RuntimeConfig cfg = plain_config();
    cfg.obs.spans = true;
    apps::SyntheticWorkload wl(plain_workload());
    core::ClusterRuntime rt(cfg);
    rt.run(wl);
    const std::string j = rt.metrics().to_json();
    EXPECT_NE(j.find("\"obs.rescues\""), std::string::npos) << j;
    EXPECT_EQ(fnv1a(j), 0x6e092332ef04c58cull) << j;
  }
  {
    const std::string path = "obs_test_metrics_pinned.stream";
    core::RuntimeConfig cfg = net_config();
    cfg.sched.policy = "hier";
    cfg.obs.stream.enabled = true;
    cfg.obs.stream.path = path;
    apps::SyntheticWorkload wl(net_workload());
    core::ClusterRuntime rt(cfg);
    rt.run(wl);
    const std::string j = rt.metrics().to_json();
    for (const char* key : {"\"net.fct_s\"", "\"hier.masters\"",
                            "\"stream.peak_open_spans\"", "\"obs.rescues\""}) {
      EXPECT_NE(j.find(key), std::string::npos) << key << " in " << j;
    }
    EXPECT_EQ(fnv1a(j), 0xdf27531a661158d5ull) << j;
    std::remove(path.c_str());
  }
  {
    core::RuntimeConfig cfg = plain_config();
    cfg.cluster = sim::ClusterSpec::homogeneous(3, 8);
    cfg.appranks_per_node = 1;
    cfg.degree = 2;
    cfg.resil.detection = resil::DetectionMode::Heartbeat;
    sim::Engine engine;
    core::ClusterRuntime rt(cfg, &engine);
    apps::SyntheticConfig scfg = plain_workload();
    scfg.appranks = 3;
    scfg.iterations = 6;
    scfg.tasks_per_rank = 80;
    apps::SyntheticWorkload wl(scfg);
    bool done = false;
    rt.start(wl, [&] { done = true; });
    sim::NodeSpec spec;
    spec.cores = 8;
    int grown = -1;
    engine.at(0.3, [&] {
      if (!done) grown = rt.grow_node(spec);
    });
    engine.at(0.5, [&] {
      if (!done) rt.crash_worker(rt.topology().workers_of_apprank(0)[1]);
    });
    engine.at(1.0, [&] {
      if (!done && grown >= 0) rt.retire_node(grown);
    });
    engine.run();
    const core::RunResult r = rt.finalize();
    ASSERT_TRUE(done);
    ASSERT_GE(grown, 0);
    EXPECT_EQ(r.workers_crashed, 1u);
    EXPECT_GT(r.heartbeat_messages, 0u);
    const std::string j = rt.metrics().to_json();
    EXPECT_NE(j.find("\"elastic.nodes_joined\": 1"), std::string::npos) << j;
    EXPECT_NE(j.find("\"elastic.nodes_retired\": 1"), std::string::npos) << j;
    EXPECT_EQ(fnv1a(j), 0xeffa36bbac2ea100ull) << j;
  }
}

// --- span lifecycle ----------------------------------------------------------

TEST(Spans, EveryTaskGetsACompleteLifecycle) {
  core::RuntimeConfig cfg = plain_config();
  cfg.obs.spans = true;
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  const auto r = rt.run(wl);
  ASSERT_NE(rt.spans(), nullptr);
  const auto& spans = rt.spans()->spans();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(r.tasks_total));
  for (const auto& s : spans) {
    EXPECT_NE(s.id, nanos::kNoTask);
    EXPECT_GE(s.created_at, 0.0);
    EXPECT_GE(s.ready_at, s.created_at);
    EXPECT_GE(s.done_at, s.ready_at);
    ASSERT_FALSE(s.attempts.empty());
    const auto* at = s.final_attempt();
    EXPECT_GE(at->scheduled_at, s.ready_at);
    EXPECT_GE(at->exec_start, at->scheduled_at);
    EXPECT_GE(at->exec_end, at->exec_start);
    EXPECT_LE(at->exec_end, s.done_at);
    EXPECT_FALSE(at->rescued);
  }
}

// --- Chrome trace export -----------------------------------------------------

TEST(ChromeTrace, TimestampsMonotoneAndBeginEndPaired) {
  core::RuntimeConfig cfg = plain_config();
  cfg.obs.spans = true;
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  rt.run(wl);
  const auto events = obs::chrome_events(
      *rt.spans(), rt.topology().node_count(), rt.topology().apprank_count());
  ASSERT_FALSE(events.empty());
  std::int64_t last_ts = 0;
  std::map<std::string, int> open;  // (pid, tid, name) -> open B count
  int durations = 0;
  for (const auto& e : events) {
    if (e.ph == 'M') continue;  // metadata precedes the timeline
    EXPECT_GE(e.ts_us, last_ts);
    last_ts = e.ts_us;
    const std::string key = std::to_string(e.pid) + "/" +
                            std::to_string(e.tid) + "/" + e.name;
    if (e.ph == 'B') {
      ++open[key];
      ++durations;
    } else if (e.ph == 'E') {
      EXPECT_GT(open[key], 0) << "E without matching B: " << key;
      --open[key];
    }
  }
  EXPECT_GT(durations, 0);
  for (const auto& [key, n] : open) {
    EXPECT_EQ(n, 0) << "unclosed B: " << key;
  }
}

TEST(ChromeTrace, JsonIsBalancedAndEscaped) {
  core::RuntimeConfig cfg = plain_config();
  cfg.obs.spans = true;
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  rt.run(wl);
  const std::string j = obs::chrome_trace_json(
      *rt.spans(), rt.topology().node_count(), rt.topology().apprank_count());
  EXPECT_EQ(j.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(j.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < j.size(); ++i) {
    const char c = j[i];
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n')
        << "raw control character at offset " << i;
    if (c == '"' && (i == 0 || j[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

// --- POP efficiency report ---------------------------------------------------

TEST(Pop, ParallelEfficiencyMatchesTalpAggregate) {
  core::RuntimeConfig cfg = plain_config();
  cfg.obs.spans = true;
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  const auto r = rt.run(wl);
  const obs::PopReport pop = rt.pop();

  double total_busy = 0.0;
  for (int w = 0; w < rt.talp().worker_count(); ++w) {
    total_busy += rt.talp().busy_core_seconds(w);
  }
  const double total_cores = 4 * 8;
  const double talp_pe = total_busy / (total_cores * r.makespan);
  EXPECT_NEAR(pop.parallel_efficiency, talp_pe, 1e-9);

  EXPECT_GT(pop.parallel_efficiency, 0.0);
  EXPECT_LE(pop.parallel_efficiency, 1.0 + 1e-9);
  EXPECT_GT(pop.load_balance, 0.0);
  EXPECT_LE(pop.load_balance, 1.0 + 1e-9);
  // The multiplicative POP model: PE = LB x CommE.
  EXPECT_NEAR(pop.parallel_efficiency,
              pop.load_balance * pop.communication_efficiency, 1e-9);
  // No fabric + spans on: transfer waits exist but stay a small fraction.
  EXPECT_LE(pop.transfer_efficiency, 1.0 + 1e-9);
  EXPECT_GT(pop.transfer_efficiency, 0.5);
  ASSERT_EQ(pop.appranks.size(), 8u);
  double busy_sum = 0.0;
  for (const auto& row : pop.appranks) busy_sum += row.busy_core_seconds;
  EXPECT_NEAR(busy_sum, total_busy, 1e-9);
  const std::string rendered = obs::render_pop(pop);
  EXPECT_NE(rendered.find("parallel efficiency"), std::string::npos);
}

TEST(Pop, RegistryGaugesMirrorTheReport) {
  core::RuntimeConfig cfg = plain_config();
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  const auto r = rt.run(wl);
  const obs::PopReport pop = rt.pop();
  const obs::Registry metrics = rt.metrics();
  const obs::Gauge* pe = metrics.find_gauge("pop.parallel_efficiency");
  ASSERT_NE(pe, nullptr);
  EXPECT_DOUBLE_EQ(pe->value(), pop.parallel_efficiency);
  const obs::Counter* msgs = metrics.find_counter("core.control_messages");
  ASSERT_NE(msgs, nullptr);
  EXPECT_EQ(msgs->value(), r.control_messages);
  const obs::Counter* tasks = metrics.find_counter("core.tasks_total");
  ASSERT_NE(tasks, nullptr);
  EXPECT_EQ(tasks->value(), r.tasks_total);
}

// --- per-iteration POP windows -----------------------------------------------

TEST(PopWindows, OneWellFormedRowPerIteration) {
  core::RuntimeConfig cfg = plain_config();
  cfg.obs.pop_windows = true;
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  const auto r = rt.run(wl);
  const auto& rows = rt.pop_windows();
  ASSERT_EQ(rows.size(), 3u);  // one per iteration
  double prev_end = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const obs::PopWindowRow& w = rows[i];
    EXPECT_EQ(w.epoch, static_cast<int>(i));
    // Windows tile the run: contiguous, non-empty, ending at the makespan.
    EXPECT_DOUBLE_EQ(w.t_begin, prev_end);
    EXPECT_GT(w.t_end, w.t_begin);
    prev_end = w.t_end;
    EXPECT_GT(w.parallel_efficiency, 0.0);
    EXPECT_LE(w.parallel_efficiency, 1.0 + 1e-9);
    EXPECT_GT(w.load_balance, 0.0);
    EXPECT_LE(w.load_balance, 1.0 + 1e-9);
    EXPECT_NEAR(w.parallel_efficiency,
                w.load_balance * w.communication_efficiency, 1e-9);
  }
  EXPECT_NEAR(prev_end, r.makespan, 1e-9);
}

TEST(PopWindows, BusyDeltasSumToTalpTotals) {
  core::RuntimeConfig cfg = plain_config();
  cfg.obs.pop_windows = true;
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  rt.run(wl);
  // Integrating PE over the windows recovers the whole-run busy total.
  const double total_cores = 4 * 8;
  double windowed_busy = 0.0;
  for (const auto& w : rt.pop_windows()) {
    windowed_busy += w.parallel_efficiency * total_cores * (w.t_end - w.t_begin);
  }
  double talp_busy = 0.0;
  for (int wk = 0; wk < rt.talp().worker_count(); ++wk) {
    talp_busy += rt.talp().busy_core_seconds(wk);
  }
  EXPECT_NEAR(windowed_busy, talp_busy, 1e-6);
}

TEST(PopWindows, RecordingKeepsTheScheduleBitIdentical) {
  core::RuntimeConfig cfg = plain_config();
  cfg.obs.pop_windows = true;
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  EXPECT_EQ(schedule_fingerprint(rt, rt.run(wl)), kGoldenPlain);
}

TEST(PopWindows, OffByDefaultAndRenderable) {
  core::RuntimeConfig cfg = plain_config();
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  rt.run(wl);
  EXPECT_TRUE(rt.pop_windows().empty());

  std::vector<obs::PopWindowRow> rows(2);
  rows[0] = {0, 0.0, 1.0, 0.8, 0.9, 0.8 / 0.9};
  rows[1] = {1, 1.0, 2.5, 0.6, 0.7, 0.6 / 0.7};
  const std::string rendered = obs::render_pop_windows(rows);
  EXPECT_NE(rendered.find("epoch"), std::string::npos);
  EXPECT_NE(rendered.find("80.0"), std::string::npos);  // PE as percentage
}

// --- critical path -----------------------------------------------------------

TEST(CriticalPath, BreakdownSumsToLength) {
  core::RuntimeConfig cfg = plain_config();
  cfg.obs.spans = true;
  apps::SyntheticWorkload wl(plain_workload());
  core::ClusterRuntime rt(cfg);
  const auto r = rt.run(wl);
  const obs::CriticalPath cp = obs::critical_path(rt.tasks(), *rt.spans());
  ASSERT_FALSE(cp.chain.empty());
  EXPECT_GT(cp.length, 0.0);
  EXPECT_LE(cp.length, r.makespan + 1e-9);
  EXPECT_GE(cp.compute, 0.0);
  EXPECT_GE(cp.transfer, 0.0);
  EXPECT_GE(cp.wait, 0.0);
  EXPECT_NEAR(cp.compute + cp.transfer + cp.wait, cp.length, 1e-9);
  EXPECT_GT(cp.compute, 0.0);
  // The chain walks forward in completion time.
  double prev = -1.0;
  for (const nanos::TaskId id : cp.chain) {
    const double d = rt.spans()->span(id).done_at;
    EXPECT_GE(d, prev);
    prev = d;
  }
  const std::string rendered = obs::render_critical_path(cp);
  EXPECT_NE(rendered.find("Critical path"), std::string::npos);
}

TEST(CriticalPath, EmptyCollectorYieldsEmptyPath) {
  nanos::TaskPool pool;
  obs::SpanCollector spans;
  const obs::CriticalPath cp = obs::critical_path(pool, spans);
  EXPECT_EQ(cp.length, 0.0);
  EXPECT_TRUE(cp.chain.empty());
}

// --- typed trace marks / ASCII rendering -------------------------------------

TEST(RecorderMarks, AsciiMarksRenderCountsPerBin) {
  std::vector<std::pair<sim::SimTime, std::string>> marks;
  marks.emplace_back(0.05, "single");
  for (int i = 0; i < 3; ++i) marks.emplace_back(0.15, "triple");
  for (int i = 0; i < 12; ++i) marks.emplace_back(0.25, "dozen");
  const std::string row = trace::ascii_marks(marks, 0.0, 1.0, 10);
  ASSERT_EQ(row.size(), 10u);
  EXPECT_EQ(row[0], '^');
  EXPECT_EQ(row[1], '3');
  EXPECT_EQ(row[2], '#');
  EXPECT_EQ(row[3], ' ');
}

TEST(RecorderMarks, OutOfOrderMarkAssertsInDebugAndClampsInRelease) {
  trace::Recorder rec(1, 1);
  rec.mark(1.0, "first");
  EXPECT_DEBUG_DEATH(rec.mark(0.5, "earlier"), "");
#ifdef NDEBUG
  // Release build: the statement above executed and clamped.
  ASSERT_EQ(rec.marks().size(), 2u);
  EXPECT_EQ(rec.marks()[1].first, 1.0);
  EXPECT_EQ(rec.marks()[1].second, "earlier");
#endif
}

TEST(RecorderMarks, TypedMarksCarryKindAndValue) {
  trace::Recorder rec(2, 1);
  rec.mark(0.5, "net congestion: spine0", trace::MarkKind::NetCongestion, 7);
  rec.mark(0.9, "net cleared: spine0", trace::MarkKind::NetCleared, 7);
  ASSERT_EQ(rec.marks().size(), 2u);  // the labelled channel sees both
  ASSERT_EQ(rec.typed_marks().size(), 2u);
  EXPECT_EQ(rec.typed_marks()[0].kind, trace::MarkKind::NetCongestion);
  EXPECT_EQ(rec.typed_marks()[0].value, 7);
  EXPECT_EQ(rec.typed_marks()[1].kind, trace::MarkKind::NetCleared);
}

TEST(Paraver, TypedMarksExportAsDedicatedEventTypes) {
  trace::Recorder rec(1, 1);
  rec.busy_delta(0.0, 0, 0, 1);
  rec.mark(0.25, "sched steer: task 3 -> worker 2",
           trace::MarkKind::SchedSteer, 2);
  rec.mark(0.5, "net congestion: nic0", trace::MarkKind::NetCongestion, 0);
  rec.mark(0.75, "plain mark");  // Generic: labelled channel only
  const std::string prv = trace::to_paraver(rec, 1.0);
  EXPECT_NE(prv.find(":90000003:2\n"), std::string::npos);
  EXPECT_NE(prv.find(":90000005:0\n"), std::string::npos);
  EXPECT_EQ(prv.find("90000004"), std::string::npos);

  const std::string pcf = trace::paraver_pcf();
  for (int type = 90000001; type <= 90000006; ++type) {
    EXPECT_NE(pcf.find(std::to_string(type)), std::string::npos)
        << "pcf misses event type " << type;
  }
  EXPECT_NE(pcf.find("EVENT_TYPE"), std::string::npos);
}

// --- fabric congestion events ------------------------------------------------

TEST(Spans, NetModeRecordsTransfersAndCongestionInstants) {
  core::RuntimeConfig cfg = net_config();
  cfg.obs.spans = true;
  apps::SyntheticWorkload wl(net_workload());
  core::ClusterRuntime rt(cfg);
  rt.run(wl);
  ASSERT_NE(rt.spans(), nullptr);
  bool saw_transfer = false;
  for (const auto& s : rt.spans()->spans()) {
    const auto* at = s.final_attempt();
    if (at != nullptr && at->transfer_start >= 0.0) {
      EXPECT_GE(at->transfer_end, at->transfer_start);
      EXPECT_GT(at->transfer_bytes, 0u);
      saw_transfer = true;
    }
  }
  EXPECT_TRUE(saw_transfer);
  EXPECT_GT(rt.spans()->transfer_wait_core_seconds(), 0.0);
}

// An oversubscribed fat-tree with heavy task inputs: links cross and clear
// the congestion threshold many times during the run.
core::RuntimeConfig congested_config() {
  core::RuntimeConfig cfg = net_config();
  cfg.cluster = sim::ClusterSpec::homogeneous(8, 4);
  cfg.degree = 3;
  cfg.net.uplink_bandwidth = 2e8;
  return cfg;
}

apps::SyntheticConfig congested_workload() {
  apps::SyntheticConfig cfg = net_workload();
  cfg.appranks = 8;
  cfg.iterations = 3;
  cfg.tasks_per_rank = 40;
  cfg.imbalance = 2.5;
  cfg.bytes_per_task = 4 << 20;
  return cfg;
}

// The fabric reports each congestion transition once; the runtime hands it
// to both the recorder and the span sink, which must list the same
// (time, transition, link) sequence.
TEST(Spans, CongestionInstantsMatchRecorderTypedMarks) {
  core::RuntimeConfig cfg = congested_config();
  cfg.obs.spans = true;
  apps::SyntheticWorkload wl(congested_workload());
  core::ClusterRuntime rt(cfg);
  rt.run(wl);
  ASSERT_NE(rt.spans(), nullptr);
  ASSERT_NE(rt.fabric(), nullptr);

  using Transition = std::tuple<double, bool, std::string>;
  std::vector<Transition> from_marks;
  for (const trace::TypedMark& m : rt.recorder().typed_marks()) {
    if (m.kind != trace::MarkKind::NetCongestion &&
        m.kind != trace::MarkKind::NetCleared) {
      continue;
    }
    from_marks.emplace_back(
        m.t, m.kind == trace::MarkKind::NetCongestion,
        rt.fabric()->topology().link(static_cast<net::LinkId>(m.value)).name);
  }
  std::vector<Transition> from_instants;
  for (const auto& e : rt.spans()->instants()) {
    for (const bool congested : {true, false}) {
      const std::string prefix =
          congested ? "net congestion: " : "net cleared: ";
      if (e.name.rfind(prefix, 0) == 0) {
        from_instants.emplace_back(e.t, congested,
                                   e.name.substr(prefix.size()));
      }
    }
  }
  ASSERT_FALSE(from_marks.empty()) << "the run never congested a link";
  EXPECT_EQ(from_instants, from_marks);
}

// record_traces = false drops the busy/owned series and the marks but
// keeps the schedule and the offload counters RunResult reports.
TEST(ObsDeterminism, RecordTracesOffKeepsCountersAndDropsTheTimeline) {
  core::RuntimeConfig cfg = congested_config();
  apps::SyntheticWorkload wl_on(congested_workload());
  core::ClusterRuntime on(cfg);
  const auto r_on = on.run(wl_on);

  cfg.record_traces = false;
  apps::SyntheticWorkload wl_off(congested_workload());
  core::ClusterRuntime off(cfg);
  const auto r_off = off.run(wl_off);

  EXPECT_EQ(schedule_fingerprint(off, r_off), schedule_fingerprint(on, r_on));
  EXPECT_GT(r_on.tasks_offloaded, 0u);
  EXPECT_EQ(r_off.tasks_total, r_on.tasks_total);
  EXPECT_EQ(r_off.tasks_offloaded, r_on.tasks_offloaded);
  EXPECT_EQ(r_off.work_total, r_on.work_total);
  EXPECT_EQ(r_off.work_offloaded, r_on.work_offloaded);

  // The traced run has a timeline to drop.
  ASSERT_FALSE(on.recorder().marks().empty());
  ASSERT_FALSE(on.recorder().node_busy(0).empty());
  const trace::Recorder& rec = off.recorder();
  EXPECT_TRUE(rec.marks().empty());
  EXPECT_TRUE(rec.typed_marks().empty());
  for (int n = 0; n < rec.nodes(); ++n) {
    EXPECT_TRUE(rec.node_busy(n).empty());
    for (int a = 0; a < rec.appranks(); ++a) {
      EXPECT_TRUE(rec.busy(n, a).empty());
      EXPECT_TRUE(rec.owned(n, a).empty());
    }
  }
}

}  // namespace
