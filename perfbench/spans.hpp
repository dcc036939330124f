// Benchmark-side spans: one record per call the benchmark makes into a
// layer (set-up, the run, each micro-benchmark batch), kept in memory and
// written out once the benchmark ends. They are recorded from the
// benchmark's own files, around the public calls; the simulator's own
// host-time phases come from src/prof in the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;       ///< index of the enclosing span, -1 at the root
    double start_s = 0.0;  ///< seconds since the log was created
    double end_s = 0.0;
    std::uint64_t ops = 0;  ///< operations the span covers
  };

  /// Opens a span under the innermost open one and returns its index.
  int open(std::string name) {
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_s = seconds_since(epoch_);
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  /// Closes span `id` (the innermost open one) and returns its duration.
  double close(int id, std::uint64_t ops = 0) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = seconds_since(epoch_);
    s.ops = ops;
    if (!open_.empty() && open_.back() == id) open_.pop_back();
    return s.end_s - s.start_s;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as a JSON array; returns false when the file cannot
  /// be written.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                   "\"start_s\": %.9f, \"end_s\": %.9f, \"ops\": %llu}%s\n",
                   i, s.name.c_str(), s.parent, s.start_s, s.end_s,
                   static_cast<unsigned long long>(s.ops),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
