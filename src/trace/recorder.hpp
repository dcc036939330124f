// Execution trace recorder.
//
// Captures, per (node, apprank):
//   - busy cores: number of cores executing that apprank's tasks on that
//     node (the left-hand traces of Fig 9);
//   - owned cores: DROM ownership (the right-hand traces of Fig 9);
// plus per-node totals and timeline marks. Renderers below turn the
// series into ASCII timelines and CSV for the paper's trace figures.
// Offload statistics live in core::RunResult.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/step_series.hpp"

namespace tlb::trace {

/// Classification of a timeline mark for the Paraver export. Generic marks
/// render only as ASCII/CSV annotations; the typed kinds additionally map
/// to dedicated Paraver event types (see trace/paraver.hpp).
enum class MarkKind : std::uint8_t {
  Generic,
  SchedSteer,     ///< scheduler redirected an offload (value = worker)
  SchedSuppress,  ///< scheduler suppressed an offload (value = worker)
  NetCongestion,  ///< fabric link became congested (value = link id)
  NetCleared,     ///< fabric link congestion cleared (value = link id)
};

struct TypedMark {
  sim::SimTime t = 0.0;
  MarkKind kind = MarkKind::Generic;
  std::int64_t value = 0;
};

class Recorder {
 public:
  /// With `timeline` false the recorder keeps nothing: busy/owned series
  /// and marks are dropped as they arrive.
  Recorder(int nodes, int appranks, bool timeline = true);

  [[nodiscard]] int nodes() const { return nodes_; }
  [[nodiscard]] int appranks() const { return appranks_; }
  /// Whether series and marks are kept (callers skip formatting labels
  /// that would be dropped).
  [[nodiscard]] bool timeline() const { return timeline_; }

  /// Grows the recorder by one node (elastic scale-out). The node-major
  /// series layout makes this append-only: existing (node, apprank)
  /// indices are unchanged.
  void add_node();

  void busy_delta(sim::SimTime t, int node, int apprank, int delta);
  void set_owned(sim::SimTime t, int node, int apprank, int count);

  /// Annotates the timeline with a labelled instant (fault injections,
  /// recoveries, phase changes). Times must be non-decreasing: a violation
  /// asserts in debug builds and is clamped to the previous mark's time in
  /// release builds, so the series stays sorted either way.
  void mark(sim::SimTime t, std::string label);
  /// Typed variant: records the same labelled mark plus a (kind, value)
  /// record that the Paraver exporter turns into a dedicated event type
  /// (value = worker id for scheduler marks, link id for fabric marks).
  void mark(sim::SimTime t, std::string label, MarkKind kind,
            std::int64_t value);
  [[nodiscard]] const std::vector<std::pair<sim::SimTime, std::string>>&
  marks() const {
    return marks_;
  }
  [[nodiscard]] const std::vector<TypedMark>& typed_marks() const {
    return typed_marks_;
  }

  [[nodiscard]] const StepSeries& busy(int node, int apprank) const;
  [[nodiscard]] const StepSeries& owned(int node, int apprank) const;
  /// Total busy cores on a node (all appranks).
  [[nodiscard]] const StepSeries& node_busy(int node) const;

 private:
  [[nodiscard]] std::size_t idx(int node, int apprank) const {
    return static_cast<std::size_t>(node) * static_cast<std::size_t>(appranks_) +
           static_cast<std::size_t>(apprank);
  }

  int nodes_;
  int appranks_;
  bool timeline_;
  std::vector<StepSeries> busy_;
  std::vector<StepSeries> owned_;
  std::vector<StepSeries> node_busy_;
  std::vector<std::pair<sim::SimTime, std::string>> marks_;
  std::vector<TypedMark> typed_marks_;
};

/// One-line sparkline of binned values scaled to [0, peak]; characters
/// " .:-=+*#%@" from empty to full.
std::string ascii_sparkline(const std::vector<double>& values, double peak);

/// Multi-row ASCII timeline of a set of labelled series over [t0, t1).
std::string ascii_timeline(
    const std::vector<std::pair<std::string, const StepSeries*>>& rows,
    sim::SimTime t0, sim::SimTime t1, int bins, double peak);

/// CSV with one column per labelled series, sampled into `bins` bins.
std::string to_csv(
    const std::vector<std::pair<std::string, const StepSeries*>>& rows,
    sim::SimTime t0, sim::SimTime t1, int bins);

/// One-line marker row aligned with an ascii_timeline of the same [t0, t1)
/// window: '^' at each bin containing one mark, the count digit '2'..'9'
/// when a bin holds several, '#' for ten or more, ' ' elsewhere.
std::string ascii_marks(
    const std::vector<std::pair<sim::SimTime, std::string>>& marks,
    sim::SimTime t0, sim::SimTime t1, int bins);

/// "t,label" CSV of timeline marks.
std::string marks_csv(
    const std::vector<std::pair<sim::SimTime, std::string>>& marks);

}  // namespace tlb::trace
