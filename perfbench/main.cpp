// perfbench: runs one named workload in this process, on one thread, and
// prints one JSON line with its output check, run manifest and metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spill-dir <dir>] [--spans-out <file>]
//
// --trace 0 measures the end-to-end metrics with src/prof off:
// repetitions run back to back for --seconds, with the host probe
// (probe.hpp) before each one and after the last. tasks_per_s is the
// median of the repetitions' throughputs times the run's host_slowdown,
// setup_s the median of their set-up times divided by it: both read as
// on the reference host, so that other tenants' load on a shared host
// does not show as a change of the program. peak_rss_mb is the process
// high-water mark after the last repetition.
// --trace 1 spends the same time on untraced repetitions, traced
// repetitions (src/prof on) and the layer micro-benchmarks, and prints the
// per-layer metrics (medians over the traced repetitions).
//
// perfbench/run.py builds this binary and wraps its output in the
// benchmark's result line; see perfbench/README.md.
#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "layers.hpp"
#include "probe.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spill_dir = ".";
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spill-dir <dir>] "
               "[--spans-out <file>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') usage("--seed must be an integer");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(a.seconds > 0.0)) {
        usage("--seconds must be a positive number");
      }
    } else if (key == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace must be 0 or 1");
      }
      a.trace = v[0] - '0';
    } else if (key == "--spill-dir") {
      a.spill_dir = v;
    } else if (key == "--spans-out") {
      a.spans_out = v;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload.empty() || a.seconds <= 0.0 || a.trace < 0) {
    usage("--workload, --seconds and --trace are required");
  }
  return a;
}

// --- manifest ----------------------------------------------------------------

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss in KiB
}

// --- JSON --------------------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- measurement -------------------------------------------------------------

/// Untraced run: repetitions until `budget_s` has passed (at least two),
/// with the host probe before each one and after the last.
/// Repetition i simulates input max(0, i - 1): input 0 runs twice, so
/// every run checks that one input gives one outcome.
std::vector<Rep> repeat(RepOptions opt, double budget_s, SpanLog& log,
                        std::vector<ProbeTimes>& probes) {
  HostProbe probe;
  std::vector<Rep> reps;
  const auto t0 = Clock::now();
  do {
    probes.push_back(probe.measure());
    opt.input = reps.empty() ? 0 : reps.size() - 1;
    reps.push_back(run_rep(opt, log));
  } while (reps.size() < 2 || seconds_since(t0) < budget_s);
  probes.push_back(probe.measure());
  return reps;
}

/// Traced run: pairs of one untraced and one traced repetition of the
/// same input until `budget_s` has passed. Pairing on one input and
/// alternating cancels input effects and host drift out of
/// trace.overhead, and checks that tracing leaves the outcome unchanged.
void repeat_pairs(RepOptions opt, double budget_s, SpanLog& log,
                  std::vector<Rep>& untraced, std::vector<Rep>& traced) {
  const auto t0 = Clock::now();
  do {
    opt.input = untraced.size();
    opt.traced = false;
    untraced.push_back(run_rep(opt, log));
    opt.traced = true;
    traced.push_back(run_rep(opt, log));
  } while (seconds_since(t0) < budget_s);
}

double quantile_of(const std::vector<Rep>& reps, double q,
                   double (*get)(const Rep&)) {
  std::vector<double> xs;
  for (const Rep& r : reps) xs.push_back(get(r));
  return quantile(xs, q);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadInfo* info = nullptr;
  for (const WorkloadInfo& w : kWorkloads) {
    if (args.workload == w.name) info = &w;
  }
  if (info == nullptr) usage(("unknown workload " + args.workload).c_str());

  RepOptions opt;
  opt.kind = info->kind;
  opt.seed = args.seed;
  opt.spill_path = args.spill_dir + "/perfbench-" +
                   std::to_string(static_cast<long>(getpid())) + ".stream";

  SpanLog log;
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  std::vector<ProbeTimes> probes;
  double slowdown = 1.0;  // host_slowdown of the untraced run
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    untraced = repeat(opt, args.seconds, log, probes);
    slowdown = host_slowdown(probes);
    const double tasks_per_s = quantile_of(
        untraced, 0.5, [](const Rep& r) { return r.tasks_per_s(); });
    const double setup_s =
        quantile_of(untraced, 0.5, [](const Rep& r) { return r.setup_s; });
    metrics.push_back({"tasks_per_s", "1/s", tasks_per_s * slowdown});
    metrics.push_back({"setup_s", "s", setup_s / slowdown});
    metrics.push_back({"peak_rss_mb", "MB", peak_rss_mb()});
  } else {
    // Repetition pairs take 70% of the time; the five micro-benchmarks
    // share the rest.
    repeat_pairs(opt, 0.7 * args.seconds, log, untraced, traced);

    // Per-metric median over the traced repetitions.
    std::vector<std::vector<Metric>> per_rep;
    for (const Rep& r : traced) per_rep.push_back(traced_metrics(r));
    for (std::size_t m = 0; m < per_rep.front().size(); ++m) {
      std::vector<double> xs;
      for (const auto& v : per_rep) xs.push_back(v[m].value);
      metrics.push_back(
          {per_rep.front()[m].name, per_rep.front()[m].unit, median(xs)});
    }

    const MicroShapes shapes =
        micro_shapes(opt.kind, opt.seed, traced.front());
    const double slot = 0.3 * args.seconds / 5.0;
    metrics.push_back(
        {"sim.queue_op_ns", "ns", drive_event_queue(log, shapes, slot)});
    metrics.push_back(
        {"net.solve_us_replay", "us", drive_fabric(log, shapes, slot)});
    metrics.push_back(
        {"dlb.lend_borrow_ns", "ns", drive_lewi(log, shapes, slot)});
    metrics.push_back(
        {"nanos.register_ns", "ns", drive_nanos(log, shapes, slot)});
    metrics.push_back(
        {"solver.solve_ms", "ms", drive_solver(log, shapes, slot)});

    // Median over the pairs of the traced run's throughput loss.
    std::vector<double> loss;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      loss.push_back(1.0 - ratio(traced[i].tasks_per_s(),
                                 untraced[i].tasks_per_s()));
    }
    metrics.push_back({"trace.overhead", "share", median(loss)});
  }

  // --- output check ----------------------------------------------------------
  std::vector<Rep> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  std::map<std::uint64_t, std::string> fingerprints;  // by input index
  for (const Rep& r : all) fingerprints.emplace(r.input, r.fingerprint());
  const std::string fingerprint = fingerprints.at(0);
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::vector<std::string> errs = all[i].errors;
    const std::string& first = fingerprints.at(all[i].input);
    if (all[i].fingerprint() != first) {
      errs.push_back("nondeterministic: " + all[i].fingerprint() + " vs " +
                     first);
    }
    if (i == 0 && args.seed == kPinnedSeed) {
      const std::string pinned = check_pinned(opt.kind, all[i]);
      if (!pinned.empty()) errs.push_back(pinned);
    }
    if (!errs.empty()) {
      ++failed;
      for (const std::string& e : errs) {
        errors.push_back("rep " + std::to_string(i) + ": " + e);
      }
    }
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      errors.push_back("metric " + m.name + " is not finite");
    }
  }
  const bool correct = failed == 0 && errors.empty();

  if (!args.spans_out.empty() && !log.write_json(args.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.spans_out.c_str());
  }

  // --- report ----------------------------------------------------------------
  const std::string config = config_description(opt.kind);
  char hash[20];
  std::snprintf(hash, sizeof(hash), "%016" PRIx64, fnv1a(config));
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::string out = "{\"workload\": " + quote(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"manifest\": {\"config\": " + quote(config) +
                    ", \"config_hash\": " + quote(hash) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"build_type\": " + quote(PERFBENCH_BUILD_TYPE) +
                    ", \"ndebug\": " + (ndebug ? "true" : "false") +
                    ", \"compiler\": " + quote("g++ " __VERSION__) +
                    ", \"cpu\": " + quote(cpu_model()) +
                    ", \"prof\": " + (args.trace == 1 ? "true" : "false") +
                    "}, \"fingerprint\": " + quote(fingerprint) +
                    ", \"pinned_seed\": " + std::to_string(kPinnedSeed) +
                    ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    out += (i > 0 ? ", " : "") + quote(errors[i]);
  }
  out += "], \"reps\": [";
  for (std::size_t i = 0; i < all.size(); ++i) {
    out += std::string(i > 0 ? ", " : "") +
           "{\"input\": " + std::to_string(all[i].input) + ", \"traced\": " +
           (all[i].traced ? "true" : "false") +
           ", \"setup_s\": " + number(all[i].setup_s) +
           ", \"run_s\": " + number(all[i].run_s) +
           ", \"peak_rss_mb\": " + number(all[i].peak_rss_mb) +
           ", \"tasks\": " + std::to_string(all[i].tasks) + "}";
  }
  out += "], \"probes\": [";
  for (std::size_t i = 0; i < probes.size(); ++i) {
    out += std::string(i > 0 ? ", " : "") + "{\"l2_s\": " +
           number(probes[i].l2_s) + ", \"alu_s\": " +
           number(probes[i].alu_s) + "}";
  }
  out += "], \"host_slowdown\": " + number(slowdown);
  out += ", \"correct\": " + std::string(correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(all.size()) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", " : "") + quote(metrics[i].name) +
           ": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": " + quote(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
