// Per-task lifecycle spans (tlb::obs).
//
// Every task gets a lifecycle record: created -> ready -> scheduled
// (possibly steered or suppressed by the policy) -> offload-transfer
// start/end -> execute start/end -> done, plus retries/rescues after
// crashes or revoked leases. The runtime emits these through the SpanSink
// interface, including the scheduler's verdicts and the fabric's
// congestion transitions; the default sink is null (span collection is
// off unless RuntimeConfig::obs.spans or obs.stream enables it).
// SpanLifecycle holds the lifecycle rules; SpanCollector (memory) and
// stream::StreamSink (spill file) only store what it produces.
//
// Determinism contract: sinks only *record*. They must not schedule
// simulator events, read RNGs, or otherwise feed back into the run; a run
// with span collection enabled is bit-identical (same schedule
// fingerprint, same event count) to one without.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nanos/task.hpp"
#include "sim/time.hpp"

namespace tlb::obs {

/// Scheduler verdicts relative to the locality baseline (tlb::sched).
enum class SchedVerdict { Baseline, Steered, Suppressed };

/// Receiver of task lifecycle events. All hooks are no-ops by default so
/// emitters pay one virtual call per event and nothing else.
class SpanSink {
 public:
  virtual ~SpanSink() = default;

  virtual void task_created(nanos::TaskId /*id*/, int /*apprank*/,
                            sim::SimTime /*t*/) {}
  virtual void task_ready(nanos::TaskId /*id*/, sim::SimTime /*t*/) {}
  /// `offloaded` = scheduled off the task's home node.
  virtual void task_scheduled(nanos::TaskId /*id*/, int /*worker*/,
                              int /*node*/, bool /*offloaded*/,
                              sim::SimTime /*t*/) {}
  virtual void sched_decision(nanos::TaskId /*id*/, SchedVerdict /*verdict*/,
                              int /*worker*/, sim::SimTime /*t*/) {}
  /// Eager input transfer towards the execution node began / delivered its
  /// last byte. `bytes` is the total payload across all source nodes.
  virtual void transfer_begin(nanos::TaskId /*id*/, std::uint64_t /*bytes*/,
                              int /*node*/, sim::SimTime /*t*/) {}
  virtual void transfer_end(nanos::TaskId /*id*/, sim::SimTime /*t*/) {}
  /// Compute began on a core (busy, not merely occupied) / released it.
  virtual void exec_begin(nanos::TaskId /*id*/, int /*worker*/, int /*node*/,
                          int /*core*/, sim::SimTime /*t*/) {}
  virtual void exec_end(nanos::TaskId /*id*/, sim::SimTime /*t*/) {}
  /// Completion observed at the home runtime (dependencies released).
  virtual void task_done(nanos::TaskId /*id*/, sim::SimTime /*t*/) {}
  /// The assignment to `worker` was voided (crash / lease revocation) and
  /// the task went back to the ready path.
  virtual void task_rescued(nanos::TaskId /*id*/, int /*worker*/,
                            sim::SimTime /*t*/) {}
  /// A fabric link crossed / cleared the congestion threshold.
  virtual void link_congestion(int /*link*/, const std::string& /*name*/,
                               bool /*congested*/, sim::SimTime /*t*/) {}
};

/// The span lifecycle rules, written once for every backend: first
/// readiness only, one attempt per task_scheduled, the transfer-wait
/// integral folded in at exec_begin, and the rescue, scheduler-verdict and
/// congestion instants. A backend decides only where spans are kept and
/// where a finished span or an instant goes (the four protected hooks).
/// Every other hook presumes task_created already ran for the task.
class SpanLifecycle : public SpanSink {
 public:
  /// One execution attempt of a task. Times are -1 until observed.
  struct Attempt {
    int worker = -1;
    int node = -1;
    int core = -1;
    sim::SimTime scheduled_at = -1.0;
    sim::SimTime transfer_start = -1.0;
    sim::SimTime transfer_end = -1.0;
    sim::SimTime exec_start = -1.0;
    sim::SimTime exec_end = -1.0;
    std::uint64_t transfer_bytes = 0;
    bool offloaded = false;  ///< scheduled off the task's home node
    bool rescued = false;    ///< voided by a crash / revoked lease
  };
  struct TaskSpan {
    nanos::TaskId id = nanos::kNoTask;
    int apprank = -1;
    sim::SimTime created_at = -1.0;
    sim::SimTime ready_at = -1.0;
    sim::SimTime done_at = -1.0;
    SchedVerdict verdict = SchedVerdict::Baseline;
    std::vector<Attempt> attempts;

    /// The attempt that ran to completion (the last one), or null.
    [[nodiscard]] const Attempt* final_attempt() const {
      return attempts.empty() ? nullptr : &attempts.back();
    }
  };

  void task_created(nanos::TaskId id, int apprank, sim::SimTime t) final;
  void task_ready(nanos::TaskId id, sim::SimTime t) final;
  void task_scheduled(nanos::TaskId id, int worker, int node, bool offloaded,
                      sim::SimTime t) final;
  void sched_decision(nanos::TaskId id, SchedVerdict verdict, int worker,
                      sim::SimTime t) final;
  void transfer_begin(nanos::TaskId id, std::uint64_t bytes, int node,
                      sim::SimTime t) final;
  void transfer_end(nanos::TaskId id, sim::SimTime t) final;
  void exec_begin(nanos::TaskId id, int worker, int node, int core,
                  sim::SimTime t) final;
  void exec_end(nanos::TaskId id, sim::SimTime t) final;
  void task_done(nanos::TaskId id, sim::SimTime t) final;
  void task_rescued(nanos::TaskId id, int worker, sim::SimTime t) final;
  void link_congestion(int link, const std::string& name, bool congested,
                       sim::SimTime t) final;

  // Aggregates maintained as events arrive (consumed by obs::pop_report).
  /// Core-seconds spent occupied-but-not-busy waiting on input transfers
  /// (transfer_end - exec claim, approximated by transfer windows).
  [[nodiscard]] double transfer_wait_core_seconds() const {
    return transfer_wait_;
  }
  [[nodiscard]] std::uint64_t rescues() const { return rescues_; }

  /// Spans held in memory right now (the prof open-spans gauge).
  [[nodiscard]] virtual std::size_t resident_spans() const = 0;

 protected:
  /// The span of `id`, created empty on first use.
  virtual TaskSpan& span_of(nanos::TaskId id) = 0;
  /// The span of `id`, or null when the backend does not hold it.
  virtual TaskSpan* find_span(nanos::TaskId id) = 0;
  /// task_done stamped `span`; the backend may release it on return.
  virtual void finished(TaskSpan& span) = 0;
  /// An instant event, in emission order (node -1 = cluster-scoped).
  virtual void instant(sim::SimTime t, std::string name, int node) = 0;

  double transfer_wait_ = 0.0;
  std::uint64_t rescues_ = 0;

 private:
  [[nodiscard]] Attempt& open_attempt(nanos::TaskId id);
};

/// In-memory backend: one TaskSpan per task (indexed by dense task id),
/// one attempt record per execution, plus the instant-event streams
/// (scheduler verdicts, congestion marks) the Chrome exporter renders as
/// instants.
class SpanCollector final : public SpanLifecycle {
 public:
  struct InstantEvent {
    sim::SimTime t = 0.0;
    std::string name;
    int node = -1;  ///< -1 = cluster-scoped (congestion marks)
  };

  ~SpanCollector() override;

  [[nodiscard]] const std::vector<TaskSpan>& spans() const { return spans_; }
  [[nodiscard]] const TaskSpan& span(nanos::TaskId id) const {
    return spans_.at(static_cast<std::size_t>(id));
  }
  [[nodiscard]] const std::vector<InstantEvent>& instants() const {
    return instants_;
  }
  [[nodiscard]] std::size_t resident_spans() const override {
    return spans_.size();
  }

  // --- restore hooks (tlb::stream) ------------------------------------------
  // A stream::StreamReader rebuilds a collector-equivalent view from a
  // spill file so every exporter (chrome_trace, flame, critical_path)
  // works unchanged on streamed runs. Restored records bypass the live
  // event hooks: spans land at their dense id slot, instants keep their
  // original emission order, and the aggregates are installed verbatim
  // instead of being re-derived.

  /// Installs a fully-populated span at its dense id slot.
  void restore_span(TaskSpan span);
  /// Appends an instant event (call in original emission order).
  void restore_instant(InstantEvent event);
  /// Installs the run aggregates the live hooks would have accumulated.
  void restore_aggregates(double transfer_wait_core_s, std::uint64_t rescues) {
    transfer_wait_ = transfer_wait_core_s;
    rescues_ = rescues;
  }

 private:
  TaskSpan& span_of(nanos::TaskId id) override;
  TaskSpan* find_span(nanos::TaskId id) override;
  void finished(TaskSpan& /*span*/) override {}
  void instant(sim::SimTime t, std::string name, int node) override;

  std::vector<TaskSpan> spans_;
  std::vector<InstantEvent> instants_;
};

}  // namespace tlb::obs
