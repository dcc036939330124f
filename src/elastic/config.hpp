// Configuration of the elasticity subsystem (tlb::elastic).
//
// Elasticity turns the resilience machinery (expander rewire, mid-run
// DLB/topology growth, epoch-stamped leases) from a crash-recovery path
// into a capacity feature: the cluster scales out on sustained queue
// pressure and scales back in on idle, mid-run, without a restart.
//
// Two consumers share this config:
//   - core::ClusterRuntime (single-app runs): when `enabled`, an elastic
//     tick samples the runtime's task backlog per usable core and grows /
//     retires helper-only nodes between min_nodes and max_nodes.
//   - svc::JobManager (service scenario): the same controller decides how
//     many of the cluster's nodes are powered on; jobs only dispatch onto
//     provisioned nodes and the run is billed in node-seconds.
//
// RuntimeConfig::elastic carries this struct. The default (enabled =
// false) is inert — no tick is scheduled, no code path reads the knobs —
// so plain runs stay bit-identical to a build without the subsystem.
#pragma once

namespace tlb::elastic {

struct ElasticConfig {
  /// Master switch. False (the default) schedules nothing.
  bool enabled = false;

  /// Node-count bounds the controller honours. For the JobManager these
  /// are powered-on node counts within the configured cluster (max_nodes
  /// is clamped to the cluster size); for ClusterRuntime they bound the
  /// total node count including elastic grow_node() additions.
  int min_nodes = 1;
  int max_nodes = 64;

  /// Controller sampling period, simulated seconds.
  double eval_period = 0.25;

  /// Pressure thresholds with hysteresis. Pressure is demand over
  /// capacity: for the JobManager, (queued node demand + busy nodes) /
  /// powered nodes; for ClusterRuntime, backlogged tasks per usable core.
  /// Sustained pressure >= high_pressure for sustain_ticks consecutive
  /// samples scales out; pressure <= low_pressure for idle_ticks samples
  /// scales in. The dead band in between holds.
  double high_pressure = 1.05;
  double low_pressure = 0.60;
  int sustain_ticks = 2;
  int idle_ticks = 8;

  /// Minimum simulated time between two scaling actions (either
  /// direction) — the outer damper against provision/retire thrash.
  double cooldown = 0.5;

  /// Nodes added / removed per scaling action.
  int step = 1;

  /// Boot time of a provisioned node: it counts towards capacity (and
  /// node-seconds) immediately but becomes schedulable only after this
  /// delay (svc::JobManager; ClusterRuntime grows synchronously — the
  /// simulated runtime attach is the analogue of this handshake).
  double provision_delay = 0.5;
};

}  // namespace tlb::elastic
