#include "net/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "prof/prof.hpp"

namespace tlb::net {

namespace {
/// Residual bytes below this are complete (guards float drift when a
/// flow's remaining time is recomputed many times).
constexpr double kByteEpsilon = 1e-6;
}  // namespace

Fabric::Fabric(sim::Engine& engine, NetTopology topology)
    : engine_(engine), topo_(std::move(topology)) {
  const std::size_t links = static_cast<std::size_t>(topo_.link_count());
  link_mult_.assign(links, 1.0);
  last_util_.assign(links, 0.0);
  util_at_.assign(links, 0.0);
  peak_util_.assign(links, 0.0);
  congested_.assign(links, 0);
}

Fabric::~Fabric() {
  // Flows still in flight at teardown: release their net.flow charge so
  // the allocation accounting balances to zero (charged in start_flow,
  // normally released in complete()/cancel()).
  if (prof::enabled() && !flows_.empty()) {
    prof::free_note(prof::AllocTag::NetFlow, flows_.size() * sizeof(Flow));
  }
}

double Fabric::effective_capacity(LinkId link) const {
  return topo_.link(link).capacity * bandwidth_mult_ *
         link_mult_[static_cast<std::size_t>(link)];
}

double Fabric::flow_rate(FlowId id) const {
  auto it = flows_.find(id);
  if (it == flows_.end() || !it->second.injected) return 0.0;
  return it->second.rate;
}

FlowId Fabric::start_flow(NodeId src, NodeId dst, std::uint64_t bytes,
                          std::function<void()> on_complete,
                          sim::SimTime extra_latency) {
  assert(src != dst && "intra-node traffic never enters the fabric");
  assert(src >= 0 && src < topo_.node_count());
  assert(dst >= 0 && dst < topo_.node_count());
  const FlowId id = next_id_++;
  ++started_;

  Flow flow;
  flow.src = src;
  flow.dst = dst;
  flow.bytes = bytes;
  flow.remaining = static_cast<double>(bytes);
  flow.started_at = engine_.now();
  flow.on_complete = std::move(on_complete);

  const sim::SimTime latency =
      topo_.path_latency(src, dst) * latency_mult_ + extra_latency;
  auto [it, inserted] = flows_.emplace(id, std::move(flow));
  assert(inserted);
  (void)inserted;
  prof::alloc_note(prof::AllocTag::NetFlow, sizeof(Flow));
  it->second.pending_event =
      engine_.after(latency, [this, id] { inject(id); });
  return id;
}

void Fabric::inject(FlowId id) {
  auto it = flows_.find(id);
  assert(it != flows_.end());
  Flow& flow = it->second;
  flow.pending_event = sim::kInvalidEvent;
  if (flow.remaining <= kByteEpsilon) {
    // Zero-byte payload (control message): latency was the whole cost.
    complete(id);
    return;
  }
  flow.injected = true;
  flow.settled_at = engine_.now();
  solve();
}

void Fabric::complete(FlowId id) {
  auto it = flows_.find(id);
  assert(it != flows_.end());
  Flow flow = std::move(it->second);
  flows_.erase(it);
  prof::free_note(prof::AllocTag::NetFlow, sizeof(Flow));
  ++completed_;
  if (flow.bytes > 0) fcts_.push_back(engine_.now() - flow.started_at);
  delivered_ += flow.bytes;
  if (flow.injected) solve();
  if (flow.on_complete) flow.on_complete();
}

void Fabric::cancel(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;  // completed or never existed
  const bool injected = it->second.injected;
  engine_.cancel(it->second.pending_event);  // latency phase only
  flows_.erase(it);
  prof::free_note(prof::AllocTag::NetFlow, sizeof(Flow));
  ++cancelled_;
  // Released bandwidth is re-shared immediately, and the completion event
  // is re-armed (it may have belonged to this flow).
  if (injected) solve();
}

void Fabric::set_global_fault(double latency_mult, double bandwidth_mult) {
  assert(latency_mult > 0.0 && bandwidth_mult > 0.0);
  latency_mult_ = latency_mult;
  bandwidth_mult_ = bandwidth_mult;
  solve();
}

void Fabric::degrade_link(LinkId link, double capacity_mult) {
  assert(link >= 0 && link < topo_.link_count());
  assert(capacity_mult > 0.0);
  link_mult_[static_cast<std::size_t>(link)] = capacity_mult;
  solve();
}

void Fabric::solve() {
  PROF_SCOPE("net.solve");
  const sim::SimTime now = engine_.now();
  const int link_count = topo_.link_count();
  const std::size_t nlinks = static_cast<std::size_t>(link_count);
  std::vector<double> residual(nlinks);
  std::vector<int> unfrozen(nlinks, 0);
  for (LinkId l = 0; l < link_count; ++l) {
    residual[static_cast<std::size_t>(l)] = effective_capacity(l);
  }

  // 1. Settle: drop the stale completion event, bank the bytes each
  // injected flow streamed since its last update, and count it on its
  // links.
  engine_.cancel(next_done_);
  next_done_ = sim::kInvalidEvent;
  std::vector<std::pair<FlowId, Flow*>> active;
  active.reserve(flows_.size());
  for (auto& [id, flow] : flows_) {
    if (!flow.injected) continue;
    active.emplace_back(id, &flow);
    flow.remaining -= flow.rate * (now - flow.settled_at);
    if (flow.remaining < 0.0) flow.remaining = 0.0;
    flow.settled_at = now;
    flow.rate = 0.0;
    for (LinkId l : topo_.route(flow.src, flow.dst)) {
      ++unfrozen[static_cast<std::size_t>(l)];
    }
  }
  ++solver_runs_;
  solver_flows_touched_ += active.size();
  solver_links_touched_ += nlinks;
  const std::vector<int> crossing = unfrozen;

  // 2. Progressive filling: repeatedly find the bottleneck link (smallest
  // fair share = residual capacity / unfrozen flows) and freeze its flows
  // at that share. `unfrozen_flows` keeps the flows still to freeze in id
  // order (ties stay deterministic) and is compacted every round, so
  // frozen flows are never rescanned.
  std::vector<Flow*> unfrozen_flows;
  unfrozen_flows.reserve(active.size());
  for (auto& [id, flow] : active) unfrozen_flows.push_back(flow);
  while (!unfrozen_flows.empty()) {
    double share = std::numeric_limits<double>::infinity();
    for (LinkId l = 0; l < link_count; ++l) {
      const std::size_t sl = static_cast<std::size_t>(l);
      if (unfrozen[sl] > 0) {
        share = std::min(share, residual[sl] / unfrozen[sl]);
      }
    }
    assert(std::isfinite(share));
    // Freeze every unfrozen flow crossing a link at the bottleneck share.
    std::size_t kept = 0;
    for (Flow* flow : unfrozen_flows) {
      const std::vector<LinkId>& route = topo_.route(flow->src, flow->dst);
      const bool at_bottleneck =
          std::any_of(route.begin(), route.end(), [&](LinkId l) {
            const std::size_t sl = static_cast<std::size_t>(l);
            return residual[sl] / unfrozen[sl] <= share;
          });
      if (!at_bottleneck) {
        unfrozen_flows[kept++] = flow;
        continue;
      }
      flow->rate = share;
      for (LinkId l : route) {
        const std::size_t sl = static_cast<std::size_t>(l);
        residual[sl] = std::max(0.0, residual[sl] - share);
        --unfrozen[sl];
      }
    }
    assert(kept < unfrozen_flows.size() &&
           "progressive filling must freeze a flow per round");
    unfrozen_flows.resize(kept);
  }

  // 3. Arm one completion event at the earliest projected finish and sum
  // link loads. A tie goes to the lowest id, the (time, seq) order in
  // which per-flow completion events would have fired.
  std::vector<double> load(nlinks, 0.0);
  sim::SimTime first = std::numeric_limits<double>::infinity();
  FlowId first_id = kInvalidFlow;
  for (auto& [id, flow] : active) {
    assert(flow->rate > 0.0);
    const sim::SimTime left =
        flow->remaining <= kByteEpsilon ? 0.0 : flow->remaining / flow->rate;
    const sim::SimTime at = now + left;
    if (at < first) {
      first = at;
      first_id = id;
    }
    for (LinkId l : topo_.route(flow->src, flow->dst)) {
      load[static_cast<std::size_t>(l)] += flow->rate;
    }
  }
  if (first_id != kInvalidFlow) {
    next_done_ = engine_.at(first, [this, id = first_id] {
      next_done_ = sim::kInvalidEvent;
      complete(id);
    });
  }

  // 4. Record utilization and congestion transitions.
  for (LinkId l = 0; l < link_count; ++l) {
    const std::size_t sl = static_cast<std::size_t>(l);
    const double util = std::min(1.0, load[sl] / effective_capacity(l));
    if (util != last_util_[sl]) {
      // The previous value held until now unless it was set at this same
      // instant, in which case this solve replaces it.
      if (util_at_[sl] != now) {
        peak_util_[sl] = std::max(peak_util_[sl], last_util_[sl]);
      }
      last_util_[sl] = util;
      util_at_[sl] = now;
    }
    const bool congested =
        util >= kCongestionThreshold && crossing[sl] >= 2;
    if (congested != (congested_[sl] != 0)) {
      congested_[sl] = congested ? 1 : 0;
      if (on_congestion_) on_congestion_(l, congested);
    }
  }
}

double Fabric::fct_quantile(double q) const {
  if (fcts_.empty()) return 0.0;
  if (sorted_fcts_.size() != fcts_.size()) {
    sorted_fcts_ = fcts_;
    std::sort(sorted_fcts_.begin(), sorted_fcts_.end());
  }
  const std::vector<double>& sorted = sorted_fcts_;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace tlb::net
