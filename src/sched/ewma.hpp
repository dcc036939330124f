// Time-decayed exponential averages for scheduling signals (tlb::sched).
//
// The feedback policies smooth observed waits / flow completion times with
// an EWMA, but a plain sample-driven EWMA has a staleness bug: a helper
// that stops producing samples (idle, drained, or simply not chosen)
// keeps its last estimate forever, and a burst that ended seconds ago
// still reads as "busy". DecayEwma fixes that by decaying the estimate
// towards zero with a half-life between observations, so a read at time t
// sees value * 2^-((t - last_observation) / half_life).
#pragma once

#include <cmath>

#include "sched/config.hpp"
#include "sim/time.hpp"

namespace tlb::sched {

/// `Smoothing` is the weight of the decayed estimate in each blend;
/// `HalfLife` (seconds) the decay between observations.
template <double Smoothing, double HalfLife>
class DecayEwma {
  static_assert(HalfLife > 0.0, "the estimate must decay");

 public:
  /// Estimate as of `now`: the stored value decayed by the elapsed time
  /// since the last observation. Pure — repeated reads at the same time
  /// return the same value.
  [[nodiscard]] double read(sim::SimTime now) const {
    if (value_ == 0.0 || now <= updated_) return value_;
    return value_ * std::exp2(-(now - updated_) / HalfLife);
  }

  /// Folds one sample in at time `now`: the current (decayed) estimate is
  /// blended as estimate = Smoothing * decayed + (1 - Smoothing) * sample.
  void observe(double sample, sim::SimTime now) {
    value_ = Smoothing * read(now) + (1.0 - Smoothing) * sample;
    updated_ = now;
  }

 private:
  double value_ = 0.0;
  sim::SimTime updated_ = 0.0;
};

/// The queue-wait estimate of the waittime policy and the hier balancer.
using WaitEwma = DecayEwma<kWaitSmoothing, kWaitHalflife>;

}  // namespace tlb::sched
