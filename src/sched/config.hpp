// Configuration of the pluggable scheduler subsystem (tlb::sched).
//
// RuntimeConfig::sched selects the victim-selection policy by *name*
// (registry lookup, see sched/registry.hpp). Unknown names are rejected
// at ClusterRuntime construction with an error listing the valid values —
// a typo never silently falls back to the default.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace tlb::sched {

struct SchedConfig {
  /// Policy name: "locality" (paper §5.5, the default), "congestion"
  /// (locality + fabric link-load + per-helper FCT feedback), "waittime"
  /// (Samfass-style offload throttling on observed waits), "adaptive"
  /// (online portfolio selection among the three with hysteresis), or
  /// "hier" (two-level scheduling over per-node summaries, tlb::hier,
  /// tuned by RuntimeConfig::hier).
  std::string policy = "locality";

  // --- adaptive portfolio tuning ----------------------------------------------
  // The portfolio is explore/exploit on *measured* waits: probe each mode
  // for a window of decisions, elect the best-measured one, exploit it
  // until the signals say the regime changed (see sched/policies.hpp).

  /// Probe window length in simulated seconds: each mode is measured
  /// over windows of this length during an explore cycle, and the same
  /// window paces the rolling drift check during exploit. Time-based on
  /// purpose — decisions arrive in same-instant bursts (a scheduler
  /// sweep places a whole iteration's ready tasks at one sim time), so a
  /// decision-counted window can close with zero elapsed time and
  /// measure nothing.
  sim::SimTime adaptive_window = 0.1;
  /// Minimum exploit length in probe windows before any re-explore
  /// trigger is honoured (dwell): even a genuine regime change cannot
  /// flip the portfolio back immediately.
  std::uint64_t adaptive_dwell = 16;
  /// Probe the waittime mode from *cold* estimator state: entering the
  /// waittime probe window clears the portfolio's waittime wait/helper
  /// EWMAs first. The estimators are kept warm across switches on
  /// purpose (a mode entered later starts from current signals), but for
  /// waittime specifically the warm start hides the mode's fixed point:
  /// its suppress -> low-waits -> keep-suppressing equilibrium is only
  /// reachable from low estimates, while the probe inherits the
  /// *previous* mode's high waits and measures locality-with-extra-steps
  /// instead. Cold-starting just the probe lets the election see the
  /// mode's own equilibrium. false restores the always-warm behaviour.
  bool adaptive_cold_probe = true;
};

// --- feedback thresholds shared with tlb::hier ---------------------------------
// Fixed by design rather than configurable: the balancing is transparent,
// so nothing tunes them per run. The sched feedback policies and the hier
// global balancer read the same values.

/// Path utilization at/above which a remote candidate with data still to
/// move is steered away from (its uplink is saturated; streaming more
/// input bytes over it would only deepen the queue).
inline constexpr double kCongestionAvoid = 0.85;
/// EWMA factor for the queue-wait estimates:
/// ewma = smoothing * decayed ewma + (1 - smoothing) * observed.
inline constexpr double kWaitSmoothing = 0.7;
/// Mean queue wait (seconds) below which remote offloading is suppressed:
/// tasks that barely wait at home gain nothing from paying an offload
/// transfer (Samfass et al.: offload on observed wait times, not static
/// scores).
inline constexpr sim::SimTime kWaitOffloadMin = 0.005;
/// Half-life (seconds) of the wait estimates between observations: an
/// estimate read t seconds after its last sample is scaled by
/// 2^-(t / half_life), so a helper that went idle decays back towards
/// "no observed waiting" instead of keeping its last-seen value forever.
inline constexpr double kWaitHalflife = 0.5;
/// Per-helper throttle: a remote offload whose target helper's own
/// smoothed queue wait exceeds kWaitHelperFactor x the apprank's home
/// wait is suppressed — tasks queue there longer than at home, so the
/// transfer buys nothing. Helper waits are observed end-to-end (they
/// include the offload input transfer), so the factor leaves headroom:
/// only a helper whose waits dwarf the home wait is vetoed.
inline constexpr double kWaitHelperFactor = 4.0;

}  // namespace tlb::sched
