// Configuration of the failure-detection / graceful-degradation layer.
//
// All parameters are plain data consumed by ClusterRuntime; together with
// RuntimeConfig::seed they make detection fully deterministic. The
// detector's cadence and sensitivity and the lease attempt cap are fixed
// constants (below), not per-run options. The default
// DetectionMode::Oracle preserves the PR-1 behaviour bit-for-bit: crashes
// are announced to the runtime directly and none of the machinery below
// (heartbeats, leases, quarantine) is instantiated.
#pragma once

#include "sim/time.hpp"

namespace tlb::resil {

enum class DetectionMode {
  /// Failures are announced to the runtime by fiat (crash_worker performs
  /// the full oracle recovery immediately). Legacy / baseline behaviour.
  Oracle,
  /// Failures are *observed*: phi-accrual heartbeat detection, task
  /// leases with acknowledgment and retransmit, outlier quarantine.
  Heartbeat,
};

// --- phi-accrual heartbeat detector (per helper rank) -----------------------
/// Interval between heartbeats a helper sends to its apprank's home
/// runtime over the control plane (so heartbeats see link faults).
inline constexpr sim::SimTime kHeartbeatPeriod = 0.05;
/// Suspicion threshold: a worker is suspected when
/// phi = -log10 P(silence this long | past arrivals) exceeds this.
inline constexpr double kPhiThreshold = 8.0;
/// Sliding window of inter-arrival samples kept per detector.
inline constexpr int kPhiWindow = 32;
/// Lower bound on the inter-arrival standard deviation. The simulator is
/// deterministic, so observed variance can collapse to zero; the floor
/// keeps the normal tail well-defined (and models clock/scheduling skew
/// a real deployment always has).
inline constexpr sim::SimTime kPhiMinStd = 0.01;

/// Offload transmissions before a task lease is declared expired and the
/// task is re-queued elsewhere.
inline constexpr int kLeaseMaxAttempts = 5;

struct ResilConfig {
  DetectionMode detection = DetectionMode::Oracle;

  // --- task lease / acknowledgment protocol ---------------------------------
  /// A remote assignment must be acknowledged by the helper within this
  /// time, or the offload message is retransmitted.
  sim::SimTime lease_timeout = 0.05;
  /// Exponential backoff factor between lease retransmits (>= 1).
  double lease_backoff = 2.0;
  /// Upper bound on the backoff delay (the "capped" in capped exponential
  /// backoff). 0 disables the cap.
  sim::SimTime lease_timeout_cap = 0.4;

  // --- outlier quarantine (Envoy-style ejection) ----------------------------
  /// Consecutive lease expiries that eject a worker from pick_worker
  /// candidacy (phi crossings eject immediately).
  int quarantine_threshold = 3;
  /// Initial cooling period before an ejected worker is probed back in.
  sim::SimTime quarantine_cooling = 1.0;
  /// Cooling grows by this factor on every consecutive re-ejection.
  double quarantine_backoff = 2.0;
  /// Upper bound on the cooling period.
  sim::SimTime quarantine_cooling_cap = 8.0;

  // --- solver fallback chain ------------------------------------------------
  /// Wall-clock budget for one global solve; when the modelled
  /// solver_latency exceeds it the policy downshifts to local convergence
  /// for that tick. 0 disables the budget.
  sim::SimTime solver_time_budget = 0.0;
  /// Bisection-iteration budget handed to solver::solve_allocation; if the
  /// solve does not converge within it, the policy downshifts. 0 keeps the
  /// solver default.
  int solver_iteration_budget = 0;

  /// Re-wire the expander with a fresh helper edge when a crash leaves an
  /// apprank with no usable helper (offloading degree collapses to 1).
  bool rewire_on_disconnect = true;

  [[nodiscard]] bool heartbeat_active() const {
    return detection == DetectionMode::Heartbeat;
  }
};

}  // namespace tlb::resil
