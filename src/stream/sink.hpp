// Bounded-memory streaming span backend (tlb::stream).
//
// StreamSink is an obs::SpanLifecycle backend: the lifecycle rules are
// the collector's (they live in the base class), but only *open* spans
// stay in memory. A span is serialized to the spill file the moment its
// task_done arrives and its record is dropped from the working set, so
// resident span memory is bounded by the in-flight task count (peak
// concurrency), not the total task count. Instant events are spilled
// immediately in emission order. The runtime closes the sink at
// finalize(), which flushes the spans still open (crashed-out or
// never-finished tasks), the footer aggregates, and the seekable trailer.
//
// Determinism contract (same as the collector): the sink only records.
// It never posts engine events, reads RNG streams, or feeds back into
// scheduling — a run with the stream backend enabled is bit-identical
// (same schedule fingerprint, same event count) to one without.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "stream/config.hpp"
#include "stream/record.hpp"

namespace tlb::stream {

class StreamSink final : public obs::SpanLifecycle {
 public:
  /// Opens (truncates) config.path and writes the header. Throws
  /// std::runtime_error when the file cannot be created.
  explicit StreamSink(StreamConfig config);
  ~StreamSink() override;

  StreamSink(const StreamSink&) = delete;
  StreamSink& operator=(const StreamSink&) = delete;

  /// Appends one windowed metric snapshot (the runtime calls this at
  /// every global barrier with its cumulative engine counters).
  void metric_window(int epoch, sim::SimTime t_end,
                     std::uint64_t events_fired);

  /// Spills every still-open span (id order), writes the footer and the
  /// trailer, flushes, and closes the file. Idempotent; called by the
  /// destructor if the runtime did not.
  void close();
  /// Closes the file, then adds the stream.* counters to `metrics`.
  void finish(obs::Registry& metrics) override;

  /// Finished spans written to the spill file so far.
  [[nodiscard]] std::uint64_t spans_spilled() const { return spans_spilled_; }
  /// Spans currently resident (open tasks) — the bounded working set.
  [[nodiscard]] std::size_t resident_spans() const override {
    return open_.size();
  }
  /// High-water mark of the resident working set.
  [[nodiscard]] std::size_t peak_open_spans() const { return peak_open_; }
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
  [[nodiscard]] const std::string& path() const { return config_.path; }

 private:
  TaskSpan& span_of(nanos::TaskId id) override;
  TaskSpan* find_span(nanos::TaskId id) override;
  void finished(TaskSpan& span) override;
  void instant(sim::SimTime t, std::string name, int node) override;

  /// Serializes `span`, counts it and releases its prof charge; the
  /// caller drops the record from open_.
  void spill_span(const TaskSpan& span);
  void begin_record(RecordType type);
  void end_record();
  void flush_if_full();

  // Little scalar appenders into buffer_.
  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i32(std::int32_t v);
  void put_f64(double v);
  void put_bytes(const void* data, std::size_t n);

  StreamConfig config_;
  std::FILE* file_ = nullptr;
  std::vector<unsigned char> buffer_;
  std::size_t record_start_ = 0;  ///< buffer offset of the open record

  /// Open spans, keyed by task id. An ordered map so the end-of-run
  /// spill of never-finished tasks walks in id order (deterministic
  /// files for deterministic runs).
  std::map<nanos::TaskId, TaskSpan> open_;
  std::size_t peak_open_ = 0;

  std::uint64_t spans_spilled_ = 0;
  std::uint64_t instants_written_ = 0;
  std::uint64_t windows_written_ = 0;
  std::uint64_t bytes_written_ = 0;
  sim::SimTime last_window_end_ = 0.0;
  bool closed_ = false;
};

}  // namespace tlb::stream
