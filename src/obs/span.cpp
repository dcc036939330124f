#include "obs/span.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"
#include "prof/prof.hpp"

namespace tlb::obs {

// --- SpanLifecycle: the rules every backend shares ------------------------------

SpanLifecycle::Attempt& SpanLifecycle::open_attempt(nanos::TaskId id) {
  TaskSpan* s = find_span(id);
  assert(s != nullptr && "attempt events on a closed/unknown span");
  assert(!s->attempts.empty() && "attempt events before task_scheduled");
  return s->attempts.back();
}

void SpanLifecycle::task_created(nanos::TaskId id, int apprank,
                                 sim::SimTime t) {
  TaskSpan& s = span_of(id);
  s.id = id;
  s.apprank = apprank;
  s.created_at = t;
}

void SpanLifecycle::task_ready(nanos::TaskId id, sim::SimTime t) {
  TaskSpan& s = span_of(id);
  // Only the first readiness counts as the lifecycle edge; a rescue that
  // re-queues the task keeps the original ready time (the re-queue itself
  // is recorded on the voided attempt).
  if (s.ready_at < 0.0) s.ready_at = t;
}

void SpanLifecycle::task_scheduled(nanos::TaskId id, int worker, int node,
                                   bool offloaded, sim::SimTime t) {
  Attempt a;
  a.worker = worker;
  a.node = node;
  a.offloaded = offloaded;
  a.scheduled_at = t;
  prof::alloc_note(prof::AllocTag::ObsSpan, sizeof(Attempt));
  span_of(id).attempts.push_back(a);
}

void SpanLifecycle::sched_decision(nanos::TaskId id, SchedVerdict verdict,
                                   int worker, sim::SimTime t) {
  span_of(id).verdict = verdict;
  if (verdict == SchedVerdict::Baseline) return;
  instant(t,
          (verdict == SchedVerdict::Steered ? "sched steer task "
                                            : "sched suppress task ") +
              std::to_string(id),
          worker);
}

void SpanLifecycle::transfer_begin(nanos::TaskId id, std::uint64_t bytes,
                                   int /*node*/, sim::SimTime t) {
  Attempt& a = open_attempt(id);
  a.transfer_start = t;
  a.transfer_bytes = bytes;
}

void SpanLifecycle::transfer_end(nanos::TaskId id, sim::SimTime t) {
  open_attempt(id).transfer_end = t;
}

void SpanLifecycle::exec_begin(nanos::TaskId id, int worker, int node,
                               int core, sim::SimTime t) {
  Attempt& a = open_attempt(id);
  a.worker = worker;
  a.node = node;
  a.core = core;
  a.exec_start = t;
  // A transfer that completed before compute began stalled the pipeline
  // only up to exec_start; one still marked open was cancelled.
  if (a.transfer_start >= 0.0 && a.transfer_end >= 0.0) {
    transfer_wait_ +=
        std::max(0.0, std::min(a.transfer_end, t) - a.transfer_start);
  }
}

void SpanLifecycle::exec_end(nanos::TaskId id, sim::SimTime t) {
  open_attempt(id).exec_end = t;
}

void SpanLifecycle::task_done(nanos::TaskId id, sim::SimTime t) {
  TaskSpan& s = span_of(id);
  s.done_at = t;
  finished(s);
}

void SpanLifecycle::task_rescued(nanos::TaskId id, int worker,
                                 sim::SimTime t) {
  TaskSpan* s = find_span(id);
  if (s != nullptr && !s->attempts.empty()) s->attempts.back().rescued = true;
  ++rescues_;
  instant(t, "rescue task " + std::to_string(id), worker);
}

void SpanLifecycle::link_congestion(int /*link*/, const std::string& name,
                                    bool congested, sim::SimTime t) {
  instant(t, (congested ? "net congestion: " : "net cleared: ") + name, -1);
}

void SpanLifecycle::finish(Registry& metrics) {
  metrics.counter("obs.rescues").inc(rescues_);
  metrics.gauge("obs.transfer_wait_core_s").set(transfer_wait_);
}

// --- SpanCollector: dense in-memory storage -------------------------------------

SpanCollector::~SpanCollector() {
  // Balance the obs.span charges (spans at dense-slot growth, attempts
  // and instants at push) so alive bytes return to zero at teardown.
  if (!prof::enabled()) return;
  std::size_t bytes = spans_.size() * sizeof(TaskSpan) +
                      instants_.size() * sizeof(InstantEvent);
  for (const auto& s : spans_) bytes += s.attempts.size() * sizeof(Attempt);
  if (bytes > 0) prof::free_note(prof::AllocTag::ObsSpan, bytes);
}

SpanCollector::TaskSpan& SpanCollector::span_of(nanos::TaskId id) {
  const auto idx = static_cast<std::size_t>(id);
  if (idx >= spans_.size()) {
    prof::alloc_note(prof::AllocTag::ObsSpan,
                     (idx + 1 - spans_.size()) * sizeof(TaskSpan));
    spans_.resize(idx + 1);
  }
  return spans_[idx];
}

SpanCollector::TaskSpan* SpanCollector::find_span(nanos::TaskId id) {
  const auto idx = static_cast<std::size_t>(id);
  return idx < spans_.size() ? &spans_[idx] : nullptr;
}

void SpanCollector::instant(sim::SimTime t, std::string name, int node) {
  restore_instant(InstantEvent{t, std::move(name), node});
}

void SpanCollector::restore_span(TaskSpan span) {
  TaskSpan& slot = span_of(span.id);
  prof::free_note(prof::AllocTag::ObsSpan,
                  slot.attempts.size() * sizeof(Attempt));
  prof::alloc_note(prof::AllocTag::ObsSpan,
                   span.attempts.size() * sizeof(Attempt));
  slot = std::move(span);
}

void SpanCollector::restore_instant(InstantEvent event) {
  prof::alloc_note(prof::AllocTag::ObsSpan, sizeof(InstantEvent));
  instants_.push_back(std::move(event));
}

}  // namespace tlb::obs
