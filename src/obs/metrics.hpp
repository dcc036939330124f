// Typed metrics registry (tlb::obs).
//
// A Registry is the export form of a run's statistics: named monotone
// Counters, last-value Gauges and fixed-bucket Histograms under one JSON
// serialization. It is not where a run counts. core::RunResult and the
// subsystems (fabric, scheduler, span backend) keep each statistic once
// as the run goes; ClusterRuntime::metrics() builds a Registry from them
// when asked, so nothing writes a Registry while a run is in progress.
//
// Determinism: building a registry reads finished statistics only — no
// simulator events, no RNG, no clock reads. Iteration order is insertion
// order (names are registered deterministically), so serialized output is
// byte-stable across runs and platforms.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace tlb::obs {

/// Monotone event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written scalar (makespan, efficiency, ...). Also usable as an
/// accumulator via add() for time integrals (e.g. transfer-wait seconds).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: `bounds` are the inclusive upper edges of the
/// finite buckets; one implicit overflow bucket catches everything above
/// the last bound. Bounds are validated strictly increasing at
/// construction. Tracks min/max/sum so quantiles can be clamped to the
/// observed range (the overflow bucket has no upper edge of its own).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void add(double v);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Quantile estimate for q in [0, 1] by linear interpolation inside the
  /// bucket where the cumulative count crosses q * count. Edge behaviour:
  /// 0 with no samples; the exact value with one sample; clamped to the
  /// observed [min, max] (so a saturated overflow bucket reports max, not
  /// infinity).
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; size bounds().size() + 1 (last = overflow).
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const {
    return buckets_;
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Name -> metric registry. Registering an existing name returns the
/// existing metric (so independent subsystems can share a series by
/// name); registering it as a different kind throws.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` is only consulted when the histogram does not exist yet.
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;

  /// Serializes the whole registry as one JSON object:
  ///   {"counters": {name: n, ...}, "gauges": {...},
  ///    "histograms": {name: {"count": n, "mean": x, "p50": x, "p99": x,
  ///                          "max": x}, ...}}
  /// Keys appear in registration order; doubles use shortest round-trip
  /// formatting ("%.12g").
  [[nodiscard]] std::string to_json() const;

 private:
  enum class Kind { Counter, Gauge, Histogram };
  struct Entry {
    std::string name;
    Kind kind;
    std::size_t index;  ///< into the per-kind vector
  };
  /// The entry of `name`, registered as `kind` on first use (`bounds`
  /// builds a new histogram and is ignored otherwise).
  Entry& lookup(const std::string& name, Kind kind,
                std::vector<double> bounds = {});

  std::vector<Entry> entries_;               ///< registration order
  std::map<std::string, std::size_t> by_name_;
  // Each metric sits behind a unique_ptr, so the references counter(),
  // gauge() and histogram() return stay valid as later names register.
  std::vector<std::unique_ptr<Counter>> counters_;
  std::vector<std::unique_ptr<Gauge>> gauges_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
};

}  // namespace tlb::obs
