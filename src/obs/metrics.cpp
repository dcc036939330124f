#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace tlb::obs {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  if (std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "%.12g", v);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    throw std::invalid_argument("Histogram: at least one bucket bound");
  }
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i - 1] < bounds_[i])) {
      throw std::invalid_argument(
          "Histogram: bounds must be strictly increasing");
    }
  }
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::add(double v) {
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())] += 1;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (count_ == 1) return min_;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::uint64_t in_bucket = buckets_[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket) < target) {
      cum += in_bucket;
      continue;
    }
    // The target rank falls in bucket b: interpolate between its edges.
    // The overflow bucket (b == bounds_.size()) has no upper edge; its
    // observations are summarised by the observed max.
    const double lo = b == 0 ? min_ : bounds_[b - 1];
    const double hi = b < bounds_.size() ? bounds_[b] : max_;
    const double frac =
        (target - static_cast<double>(cum)) / static_cast<double>(in_bucket);
    const double v = lo + frac * (hi - lo);
    return std::clamp(v, min_, max_);
  }
  return max_;
}

Registry::Entry& Registry::lookup(const std::string& name, Kind kind,
                                  std::vector<double> bounds) {
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    Entry& e = entries_[it->second];
    if (e.kind != kind) {
      throw std::invalid_argument("Registry: metric '" + name +
                                  "' already registered as a different kind");
    }
    return e;
  }
  Entry e;
  e.name = name;
  e.kind = kind;
  switch (kind) {
    case Kind::Counter:
      e.index = counters_.size();
      counters_.push_back(std::make_unique<Counter>());
      break;
    case Kind::Gauge:
      e.index = gauges_.size();
      gauges_.push_back(std::make_unique<Gauge>());
      break;
    case Kind::Histogram:
      e.index = histograms_.size();
      histograms_.push_back(std::make_unique<Histogram>(std::move(bounds)));
      break;
  }
  by_name_.emplace(name, entries_.size());
  entries_.push_back(std::move(e));
  return entries_.back();
}

Counter& Registry::counter(const std::string& name) {
  return *counters_[lookup(name, Kind::Counter).index];
}

Gauge& Registry::gauge(const std::string& name) {
  return *gauges_[lookup(name, Kind::Gauge).index];
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  return *histograms_[lookup(name, Kind::Histogram, std::move(bounds)).index];
}

const Counter* Registry::find_counter(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end() || entries_[it->second].kind != Kind::Counter) {
    return nullptr;
  }
  return counters_[entries_[it->second].index].get();
}

const Gauge* Registry::find_gauge(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end() || entries_[it->second].kind != Kind::Gauge) {
    return nullptr;
  }
  return gauges_[entries_[it->second].index].get();
}

std::string Registry::to_json() const {
  std::string counters = "{";
  std::string gauges = "{";
  std::string histograms = "{";
  bool c1 = true, g1 = true, h1 = true;
  for (const Entry& e : entries_) {
    switch (e.kind) {
      case Kind::Counter:
        if (!c1) counters += ", ";
        c1 = false;
        counters += quote(e.name) + ": " +
                    std::to_string(counters_[e.index]->value());
        break;
      case Kind::Gauge:
        if (!g1) gauges += ", ";
        g1 = false;
        gauges += quote(e.name) + ": " + fmt_double(gauges_[e.index]->value());
        break;
      case Kind::Histogram: {
        if (!h1) histograms += ", ";
        h1 = false;
        const Histogram& h = *histograms_[e.index];
        histograms += quote(e.name) + ": {\"count\": " +
                      std::to_string(h.count()) +
                      ", \"mean\": " + fmt_double(h.mean()) +
                      ", \"p50\": " + fmt_double(h.quantile(0.5)) +
                      ", \"p99\": " + fmt_double(h.quantile(0.99)) +
                      ", \"max\": " + fmt_double(h.max()) + "}";
        break;
      }
    }
  }
  return "{\"counters\": " + counters + "}, \"gauges\": " + gauges +
         "}, \"histograms\": " + histograms + "}}";
}

}  // namespace tlb::obs
