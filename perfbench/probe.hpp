// Host speed probe, timed between the repetitions of an untraced run.
//
// On a shared host the simulator's speed moves with other tenants' load,
// by up to 1.5x for seconds to minutes. The probe does the same fixed work
// every time, in code that a change to src/ cannot touch: a chain of
// dependent loads over a buffer that fits in the core's L2, and a chain of
// dependent integer operations. On the 4-core VM the benchmark was tuned
// on, the simulator slowed about as much as the product of the two parts'
// slowdowns, while either part alone moved only half as much (in log
// terms). The end-to-end times are therefore scaled by
//
//   host_slowdown = (median L2 time / kReferenceL2Seconds)
//                 * (median ALU time / kReferenceAluSeconds),
//
// so they read as times on a host where the two parts take the reference
// times (that VM in a quiet window).
#pragma once

#include <cstdint>
#include <vector>

#include "layers.hpp"
#include "spans.hpp"

namespace perfbench {

inline constexpr double kReferenceL2Seconds = 0.018;
inline constexpr double kReferenceAluSeconds = 0.012;

struct ProbeTimes {
  double l2_s = 0.0;
  double alu_s = 0.0;
};

class HostProbe {
 public:
  /// The load chain is one cycle of a full-period LCG (multiplier 1 mod
  /// 4, odd increment) over the buffer, so successive addresses are
  /// scattered and no prefetcher follows them.
  HostProbe() : next_(kL2Words) {
    for (std::uint64_t i = 0; i < kL2Words; ++i) {
      next_[i] = static_cast<std::uint32_t>(
          (i * 2862933555777941757ull + 3037000493ull) & (kL2Words - 1));
    }
  }

  ProbeTimes measure() {
    ProbeTimes t;
    auto t0 = Clock::now();
    std::uint32_t p = 0;
    for (int i = 0; i < kL2Loads; ++i) p = next_[p];
    t.l2_s = seconds_since(t0);

    t0 = Clock::now();
    std::uint64_t x = p | 1u;
    for (int i = 0; i < kAluSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    t.alu_s = seconds_since(t0);
    sink_ = x;  // a volatile store keeps both chains live
    return t;
  }

 private:
  static constexpr std::uint64_t kL2Words = 1u << 16;  // 256 KiB
  static constexpr int kL2Loads = 3000000;
  static constexpr int kAluSteps = 5000000;

  std::vector<std::uint32_t> next_;
  volatile std::uint64_t sink_ = 0;
};

/// How much slower than the reference the host ran over a set of probes;
/// above 1 it ran slower.
inline double host_slowdown(const std::vector<ProbeTimes>& probes) {
  std::vector<double> l2;
  std::vector<double> alu;
  for (const ProbeTimes& t : probes) {
    l2.push_back(t.l2_s);
    alu.push_back(t.alu_s);
  }
  return median(l2) / kReferenceL2Seconds *
         (median(alu) / kReferenceAluSeconds);
}

}  // namespace perfbench
