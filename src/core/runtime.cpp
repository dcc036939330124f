#include "core/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "hier/hier_scheduler.hpp"
#include "metrics/recovery.hpp"
#include "prof/prof.hpp"
#include "sched/registry.hpp"
#include "solver/allocation.hpp"

namespace tlb::core {

namespace {

/// Control-plane message tags (ctrl_comm_).
constexpr int kTagOffload = 1;    ///< home -> helper: task assignment
constexpr int kTagComplete = 2;   ///< helper -> home: task completion
constexpr int kTagHeartbeat = 3;  ///< helper -> home: phi-accrual heartbeat
constexpr int kTagAck = 4;        ///< helper -> home: offload acknowledgment

// Tags for deriving independent child RNG streams from RuntimeConfig::seed
// (the expander consumes the seed directly).
constexpr std::uint64_t kSeedWorkload = 0xA995;
constexpr std::uint64_t kSeedFaultJitter = 0xFA17;
constexpr std::uint64_t kSeedAppComm = 0xC0A1;
constexpr std::uint64_t kSeedCtrlComm = 0xC0A2;

/// Applies an ownership plan directly (initial division, bypassing the
/// DromModule enable flag: the startup split of §5.4 always happens).
void force_plan(dlb::NodeCores& cores,
                const std::vector<std::pair<dlb::WorkerId, int>>& node_plan) {
  int cursor = 0;
  for (const auto& [w, count] : node_plan) {
    for (int k = 0; k < count; ++k) {
      cores.set_owner(cursor++, w);
    }
  }
  assert(cursor == cores.core_count() && "plan must cover every core");
}

}  // namespace

template <class F>
void ClusterRuntime::send_ctrl(WorkerId src, WorkerId dst, int tag,
                               F on_delivered) {
  ctrl_comm_->send(src, dst, tag, 0,
                   [fn = std::move(on_delivered)](const vmpi::Message&) {
                     fn();
                   });
  // Consume the message at the receiver (the logic lives in the delivery
  // callback above; this keeps the mailbox from accumulating).
  ctrl_comm_->recv(dst, vmpi::kAnySource, vmpi::kAnyTag,
                   [](const vmpi::Message&) {});
}

ClusterRuntime::ClusterRuntime(RuntimeConfig config, sim::Engine* shared_engine)
    : config_(std::move(config)),
      owned_engine_(shared_engine == nullptr ? std::make_unique<sim::Engine>()
                                             : nullptr),
      engine_(shared_engine != nullptr ? *shared_engine : *owned_engine_) {
  // Turn the process-global profiler on before the first instrumented
  // scope so construction itself is attributed ("core.construct").
  if (config_.prof.enabled) {
    prof::Profiler::instance().enable(config_.prof.snapshot_every_events);
  }
  PROF_SCOPE("core.construct");
  graph::ExpanderParams params;
  params.nodes = config_.cluster.node_count();
  params.appranks_per_node = config_.appranks_per_node;
  params.degree = config_.degree;
  params.seed = config_.seed;
  expander_ = graph::build_expander(params);
  topology_ = std::make_unique<Topology>(expander_.graph,
                                         config_.appranks_per_node);

  // Appranks communicate over vmpi from their home nodes.
  std::vector<int> rank_to_node(
      static_cast<std::size_t>(topology_->apprank_count()));
  for (int a = 0; a < topology_->apprank_count(); ++a) {
    rank_to_node[static_cast<std::size_t>(a)] = topology_->home_node(a);
  }
  app_comm_ = std::make_unique<vmpi::Communicator>(
      engine_, config_.cluster.link, std::move(rank_to_node));

  // Control plane: one vmpi rank per worker process, so offload/finish
  // notifications are priced by the interconnect and see link faults.
  std::vector<int> worker_to_node(
      static_cast<std::size_t>(topology_->worker_count()));
  for (int w = 0; w < topology_->worker_count(); ++w) {
    worker_to_node[static_cast<std::size_t>(w)] = topology_->worker(w).node;
  }
  ctrl_comm_ = std::make_unique<vmpi::Communicator>(
      engine_, config_.cluster.link, std::move(worker_to_node));

  // Single-seed reproducibility: every stochastic component draws from an
  // independent child stream of config_.seed.
  const sim::Rng root(config_.seed);
  fault_rng_ = root.fork(kSeedFaultJitter);
  app_comm_->set_fault_seed(root.fork(kSeedAppComm).next_u64());
  ctrl_comm_->set_fault_seed(root.fork(kSeedCtrlComm).next_u64());

  if (resil_active()) {
    detectors_.assign(static_cast<std::size_t>(topology_->worker_count()),
                      {resil::kPhiWindow, resil::kPhiMinStd});
    quarantine_ = std::make_unique<resil::Quarantine>(
        topology_->worker_count(), config_.resil);
  }
  policy_level_ = config_.policy == PolicyKind::Global ? 0 : 1;
  if (config_.elastic.enabled) {
    elastic_ctrl_ = std::make_unique<elastic::ElasticController>(config_.elastic);
  }

  for (int n = 0; n < topology_->node_count(); ++n) {
    const sim::NodeSpec& spec =
        config_.cluster.nodes[static_cast<std::size_t>(n)];
    const auto& residents = topology_->workers_on_node(n);
    assert(!residents.empty());
    if (static_cast<int>(residents.size()) > spec.cores) {
      throw std::invalid_argument(
          "ClusterRuntime: node " + std::to_string(n) + " hosts " +
          std::to_string(residents.size()) + " workers but has only " +
          std::to_string(spec.cores) +
          " cores; lower the offloading degree or appranks per node");
    }
    add_node_state(spec.cores, residents.front(), spec.speed);
  }

  talp_ = std::make_unique<dlb::TalpModule>(
      [this] { return engine_.now(); }, topology_->worker_count());
  recorder_ = std::make_unique<trace::Recorder>(topology_->node_count(),
                                                topology_->apprank_count(),
                                                config_.record_traces);
  if (config_.obs.stream.enabled) {
    // Streaming backend: finished spans spill to disk, only open spans
    // stay resident. Supersedes the in-memory collector when both are
    // requested (same events, bounded memory).
    span_backend_ = std::make_unique<stream::StreamSink>(config_.obs.stream);
  } else if (config_.obs.spans) {
    span_backend_ = std::make_unique<obs::SpanCollector>();
  }

  // Contention-aware interconnect (tlb::net): replace the analytic cost
  // model with a shared-link fabric. Both communicators route their
  // inter-node payloads through it; eager input transfers and barrier
  // pulls become per-source flows (finish_assignment / enter_barrier).
  if (config_.net.enabled) {
    const sim::LinkSpec& link = config_.cluster.link;
    const net::NetConfig& nconf = config_.net;
    net::NetTopology topo =
        nconf.topology == net::TopologyKind::Crossbar
            ? net::NetTopology::crossbar(topology_->node_count(),
                                         nconf.nic_bw(link),
                                         nconf.base_latency(link))
            : net::NetTopology::fat_tree(
                  topology_->node_count(), nconf.leaf_radix, nconf.spines,
                  nconf.nic_bw(link), nconf.uplink_bw(link),
                  nconf.base_latency(link), nconf.per_hop_latency);
    fabric_ = std::make_unique<net::Fabric>(engine_, std::move(topo));
    fabric_->set_congestion_observer([this](net::LinkId l, bool congested) {
      on_link_congestion(l, congested);
    });
    app_comm_->attach_fabric(fabric_.get());
    ctrl_comm_->attach_fabric(fabric_.get());
    link_load_view_ = std::make_unique<net::LinkLoadView>(*fabric_);
  }

  workers_.resize(static_cast<std::size_t>(topology_->worker_count()));
  appranks_.resize(static_cast<std::size_t>(topology_->apprank_count()));

  // Victim-selection policy (tlb::sched / tlb::hier). Built last so it can
  // observe the fully-constructed runtime through the RuntimeView window;
  // throws on an unknown policy name (listing the valid values).
  // register_policies is idempotent: "hier" enters the registry once per
  // process, whichever runtime constructs first.
  hier::register_policies();
  scheduler_ = make_policy(config_.sched.policy);
  subscribe_control_types();

  if (config_.prof.enabled) {
    // Health snapshots report the telemetry working set through this
    // gauge; cleared in the destructor so the callback never dangles.
    prof::Profiler::instance().set_open_spans_gauge(
        [this]() -> std::int64_t {
          return span_backend_ != nullptr
                     ? static_cast<std::int64_t>(span_backend_->resident_spans())
                     : 0;
        });
    prof_gauge_registered_ = true;
  }
}

ClusterRuntime::~ClusterRuntime() {
  if (prof_gauge_registered_) {
    prof::Profiler::instance().clear_open_spans_gauge();
  }
  if (prof::enabled()) {
    // Balance the core.exec / core.pending charges of records still live
    // at teardown (an aborted run, or executions parked on a crash).
    while (!running_.empty()) erase_exec(running_.begin());
    while (!pending_data_.empty()) erase_pending(pending_data_.begin());
  }
}

std::unique_ptr<sched::Scheduler> ClusterRuntime::make_policy(
    const std::string& name) {
  if (name == "hier") {
    // Built directly (not through the registry factory) so the instance
    // carries RuntimeConfig::hier's tuning, not HierConfig defaults. The
    // base conversion must happen here, in member context, where the
    // private sched::RuntimeView base is accessible.
    const sched::RuntimeView& view = *this;
    return std::make_unique<hier::HierScheduler>(config_.hier, view);
  }
  sched::SchedConfig sc = config_.sched;
  sc.policy = name;
  return sched::make_scheduler(sc, *this);
}

void ClusterRuntime::set_sched_policy(const std::string& name) {
  // Construct-then-swap: an unknown name throws here and the running
  // policy is never touched (the control-plane applier relies on this for
  // its NACK-without-side-effects contract).
  std::unique_ptr<sched::Scheduler> next = make_policy(name);
  sched_retired_.merge(scheduler_->stats());
  scheduler_ = std::move(next);
  ++sched_swaps_;
  mark_trace("sched policy -> " + name);
}

void ClusterRuntime::subscribe_control_types() {
  control_.subscribe(
      "tlb.sched.policy", [this](const elastic::Resource& r) -> std::string {
        std::map<std::string, std::string> kv;
        try {
          kv = elastic::parse_kv(r.payload);
        } catch (const std::exception& e) {
          return e.what();
        }
        const auto it = kv.find("policy");
        if (it == kv.end()) {
          return "tlb.sched.policy: missing key 'policy'";
        }
        // Validate before mutate: set_sched_policy would throw on an
        // unknown name anyway (leaving the old policy in place), but a
        // registry check gives the NACK a precise reason.
        if (it->second != "hier" && !sched::policy_registered(it->second)) {
          std::string valid;
          for (const std::string& n : sched::known_policies()) {
            if (!valid.empty()) valid += ", ";
            valid += n;
          }
          return "tlb.sched.policy: unknown policy '" + it->second +
                 "'; valid values: " + valid;
        }
        set_sched_policy(it->second);
        return "";
      });
}

obs::PopReport ClusterRuntime::pop() const {
  std::vector<int> worker_apprank;
  worker_apprank.reserve(static_cast<std::size_t>(topology_->worker_count()));
  for (int w = 0; w < topology_->worker_count(); ++w) {
    worker_apprank.push_back(topology_->worker(w).apprank);
  }
  double total_cores = 0.0;
  for (const auto& n : config_.cluster.nodes) total_cores += n.cores;
  const double elapsed = result_.makespan > 0.0
                             ? result_.makespan
                             : engine_.now() - start_time_;
  const double transfer_wait =
      span_backend_ != nullptr ? span_backend_->transfer_wait_core_seconds()
                               : 0.0;
  return obs::pop_report(*talp_, worker_apprank, topology_->apprank_count(),
                         total_cores, elapsed, transfer_wait);
}

RunResult ClusterRuntime::run(Workload& workload) {
  start(workload);
  engine_.run();
  return finalize();
}

void ClusterRuntime::start(Workload& workload,
                           std::function<void()> on_complete) {
  // Pre-loop setup (task graph materialisation, initial ownership plan)
  // runs outside the engine loop, so it needs its own attribution bucket.
  PROF_SCOPE("core.start");
  workload_ = &workload;
  on_complete_ = std::move(on_complete);
  start_time_ = engine_.now();
  last_barrier_time_ = engine_.now();
  window_start_time_ = engine_.now();
  workload.reseed(sim::Rng(config_.seed).fork(kSeedWorkload).next_u64());

  // Initial ownership: one core per helper, the rest split among the
  // node's appranks (§5.4).
  std::vector<int> node_core_counts;
  node_core_counts.reserve(config_.cluster.nodes.size());
  for (const auto& n : config_.cluster.nodes) node_core_counts.push_back(n.cores);
  const OwnershipPlan initial = initial_plan(*topology_, node_core_counts);
  for (int n = 0; n < topology_->node_count(); ++n) {
    force_plan(node_state(n).cores, initial[static_cast<std::size_t>(n)]);
  }
  record_ownership();

  for (int a = 0; a < topology_->apprank_count(); ++a) {
    ApprankState& st = appranks_[static_cast<std::size_t>(a)];
    st.deps = std::make_unique<nanos::DependencyGraph>(pool_);
    st.locations =
        std::make_unique<nanos::DataLocations>(topology_->home_node(a));
  }

  if (config_.drom_active()) schedule_policy_tick();
  if (resil_active()) start_heartbeats();
  if (elastic_ctrl_ != nullptr) schedule_elastic_tick();
  start_iteration_all();
}

RunResult ClusterRuntime::finalize() {
  PROF_SCOPE("core.finalize");
  // The run counted into result_ as it went; add the statistics the
  // subsystems keep themselves.
  for (const auto& ns : nodes_) {
    result_.lewi_lends += ns->lewi.lends();
    result_.lewi_borrows += ns->lewi.borrows();
    result_.lewi_reclaims += ns->lewi.reclaims();
    result_.drom_moves += ns->drom.ownership_changes();
  }
  result_.messages_lost =
      app_comm_->messages_lost() + ctrl_comm_->messages_lost();
  result_.retransmissions =
      app_comm_->retransmissions() + ctrl_comm_->retransmissions();
  result_.sched_policy = scheduler_->name();
  result_.sched = sched_retired_;  // policies retired by mid-run hot-swaps
  result_.sched.merge(scheduler_->stats());
  result_.events_fired = engine_.events_fired();
  if (auto* stream = dynamic_cast<stream::StreamSink*>(span_backend_.get())) {
    stream->close();  // footer + trailer: the spill file is now complete
  }
  return result_;
}

obs::Registry ClusterRuntime::metrics() const {
  // Registry::to_json writes counters, gauges and histograms as three
  // objects, each in registration order; the names below are registered
  // in that export order.
  const RunResult& r = result_;
  obs::Registry reg;
  const auto count = [&reg](const char* name, std::uint64_t v) {
    reg.counter(name).inc(v);
  };
  const auto gauge = [&reg](const char* name, double v) {
    reg.gauge(name).set(v);
  };
  const auto* h = dynamic_cast<const hier::HierScheduler*>(scheduler_.get());
  const stream::StreamSink* stream = stream_sink();

  count("core.control_messages", r.control_messages);
  count("core.transfer_bytes", r.transfer_bytes);
  count("fault.tasks_reexecuted", r.tasks_reexecuted);
  count("fault.workers_crashed", r.workers_crashed);
  count("resil.heartbeat_messages", r.heartbeat_messages);
  count("resil.detections", r.detections);
  count("resil.false_suspicions", r.false_suspicions);
  count("resil.lease_retransmits", r.lease_retransmits);
  count("resil.lease_expiries", r.lease_expiries);
  count("resil.duplicates_suppressed", r.duplicates_suppressed);
  count("resil.quarantine_ejections", r.quarantine_ejections);
  count("resil.quarantine_readmissions", r.quarantine_readmissions);
  count("resil.policy_downshifts", r.policy_downshifts);
  count("resil.rewired_edges", r.rewired_edges);
  count("elastic.nodes_joined", grown_nodes_.size());
  count("elastic.nodes_retired",
        static_cast<std::uint64_t>(
            std::count_if(nodes_.begin(), nodes_.end(),
                          [](const auto& ns) { return ns->retired; })));
  count("core.tasks_total", r.tasks_total);
  count("core.tasks_offloaded", r.tasks_offloaded);
  count("dlb.lewi_lends", r.lewi_lends);
  count("dlb.lewi_borrows", r.lewi_borrows);
  count("dlb.lewi_reclaims", r.lewi_reclaims);
  count("dlb.drom_moves", r.drom_moves);
  count("vmpi.messages_lost", r.messages_lost);
  count("vmpi.retransmissions", r.retransmissions);
  count("sched.decisions", r.sched.decisions);
  count("sched.offloads_considered", r.sched.offloads_considered);
  count("sched.offloads_steered", r.sched.offloads_steered);
  count("sched.offloads_suppressed", r.sched.offloads_suppressed);
  count("sched.switches", r.sched.switches);
  count("sched.state_touched", r.sched.state_touched);
  count("sched.policy_swaps", sched_swaps_);
  if (h != nullptr) count("hier.summary_refreshes", h->summary_refreshes());
  count("sim.events_fired", r.events_fired);
  if (fabric_ != nullptr) {
    count("net.flows_started", fabric_->flows_started());
    count("net.flows_completed", fabric_->flows_completed());
    count("net.flows_cancelled", fabric_->flows_cancelled());
    count("net.bytes_delivered", fabric_->bytes_delivered());
    count("net.solver_runs", fabric_->solver_runs());
    count("net.solver_flows_touched", fabric_->solver_flows_touched());
    count("net.solver_links_touched", fabric_->solver_links_touched());
  }
  if (span_backend_ != nullptr) count("obs.rescues", span_backend_->rescues());
  if (stream != nullptr) {
    count("stream.spans_spilled", stream->spans_spilled());
    count("stream.bytes_written", stream->bytes_written());
  }

  gauge("resil.detection_latency_sum_s", r.detection_latency_sum);
  gauge("core.perfect_time_s", r.perfect_time);
  gauge("core.work_total", r.work_total);
  gauge("core.work_offloaded", r.work_offloaded);
  gauge("core.makespan_s", r.makespan);
  if (h != nullptr) {
    gauge("hier.masters", static_cast<double>(h->balancer().master_count()));
  }
  const obs::PopReport pr = pop();
  gauge("pop.parallel_efficiency", pr.parallel_efficiency);
  gauge("pop.load_balance", pr.load_balance);
  gauge("pop.communication_efficiency", pr.communication_efficiency);
  gauge("pop.transfer_efficiency", pr.transfer_efficiency);
  if (span_backend_ != nullptr) {
    gauge("obs.transfer_wait_core_s",
          span_backend_->transfer_wait_core_seconds());
  }
  if (stream != nullptr) {
    gauge("stream.peak_open_spans",
          static_cast<double>(stream->peak_open_spans()));
  }

  obs::Histogram& iteration = reg.histogram(
      "core.iteration_time_s",
      {0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0});
  for (const double t : r.iteration_times) iteration.add(t);
  if (fabric_ != nullptr) {
    obs::Histogram& fct = reg.histogram(
        "net.fct_s",
        {1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0});
    for (const double f : fabric_->completion_times()) fct.add(f);
  }
  return reg;
}

// --- SPMD iteration orchestration -------------------------------------------

void ClusterRuntime::start_iteration_all() {
  double iteration_work = 0.0;
  for (int a = 0; a < topology_->apprank_count(); ++a) {
    ApprankState& st = appranks_[static_cast<std::size_t>(a)];
    st.iteration_start = engine_.now();
    const auto specs = workload_->make_tasks(a, st.iteration);
    st.outstanding = specs.size();
    for (const TaskSpec& spec : specs) {
      iteration_work += spec.work;
      const nanos::TaskId id =
          pool_.create(a, spec.work, spec.accesses, spec.offloadable);
      nanos::Task& t = pool_.get(id);
      t.created_at = engine_.now();
      sink().task_created(id, a, engine_.now());
      if (st.deps->register_task(id)) {
        t.ready_at = engine_.now();
        sink().task_ready(id, engine_.now());
        on_task_ready(id);
      }
    }
    if (st.outstanding == 0) enter_barrier(a);
  }
  result_.perfect_time += iteration_work / config_.cluster.total_capacity();
  for (int n = 0; n < topology_->node_count(); ++n) kick_node(n);
}

void ClusterRuntime::enter_barrier(int apprank) {
  ApprankState& st = appranks_[static_cast<std::size_t>(apprank)];
  st.taskwait_done = engine_.now();
  // The apprank's MPI exchange runs in non-offloadable context on the home
  // node: pull any remote result data home first (§4, §3.2 no automatic
  // write-back — this is the point where values are actually needed).
  const auto regions = workload_->barrier_regions(apprank, st.iteration);
  const int home = topology_->home_node(apprank);
  auto do_barrier = [this, apprank] {
    app_comm_->barrier(apprank, [this] {
      if (++barrier_arrivals_ == topology_->apprank_count()) {
        barrier_arrivals_ = 0;
        on_barrier_done();
      }
    });
  };
  if (fabric_ != nullptr) {
    // Net mode: each remote piece streams home as its own flow (sharing
    // the fabric with every other transfer); the barrier is entered when
    // the last one lands. Home nodes never crash, so no teardown needed.
    const auto sources = st.locations->pull_by_source(regions, home);
    auto remaining = std::make_shared<int>(0);
    for (const auto& [src, bytes] : sources) {
      result_.transfer_bytes += bytes;
      *remaining += 1;
      fabric_->start_flow(src, home, bytes, [remaining, do_barrier] {
        if (--*remaining == 0) do_barrier();
      });
    }
    if (*remaining == 0) do_barrier();
    return;
  }
  const std::uint64_t bytes = st.locations->pull(regions, home);
  sim::SimTime delay = 0.0;
  if (bytes > 0) {
    delay = faulted_transfer_time(bytes);
    result_.transfer_bytes += bytes;
  }
  engine_.after(delay, do_barrier);
}

void ClusterRuntime::on_barrier_done() {
  const int iteration = appranks_.front().iteration;
  result_.iteration_times.push_back(engine_.now() - last_barrier_time_);
  last_barrier_time_ = engine_.now();
  if (config_.obs.pop_windows) capture_pop_window(iteration);
  if (auto* stream = dynamic_cast<stream::StreamSink*>(span_backend_.get())) {
    // Windowed telemetry snapshot at the barrier epoch: cumulative engine
    // and spill counters, differenced by readers for per-window rates.
    stream->metric_window(iteration, engine_.now(), engine_.events_fired());
  }

  std::vector<double> apprank_times(
      static_cast<std::size_t>(topology_->apprank_count()));
  for (int a = 0; a < topology_->apprank_count(); ++a) {
    ApprankState& st = appranks_[static_cast<std::size_t>(a)];
    apprank_times[static_cast<std::size_t>(a)] =
        st.taskwait_done - st.iteration_start;
    ++st.iteration;
  }
  workload_->on_iteration_done(iteration, apprank_times);

  if (iteration + 1 < workload_->iteration_count()) {
    start_iteration_all();
  } else {
    done_ = true;
    result_.makespan = engine_.now() - start_time_;
    engine_.cancel(policy_event_);
    policy_event_ = sim::kInvalidEvent;
    if (on_complete_) on_complete_();
  }
}

void ClusterRuntime::capture_pop_window(int epoch) {
  const sim::SimTime end = engine_.now();
  const int workers = topology_->worker_count();
  std::vector<obs::PopWorkerInput> inputs;
  inputs.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    // Workers added mid-run (expander rewire) start from a zero snapshot:
    // their whole busy total belongs to this window.
    double& snapshot = worker_state(w).window_busy;
    const double busy = talp_->busy_core_seconds(w);
    obs::PopWorkerInput in;
    in.worker = w;
    in.apprank = topology_->worker(w).apprank;
    in.busy_core_seconds = busy - snapshot;
    inputs.push_back(in);
    snapshot = busy;
  }
  double total_cores = 0.0;
  for (const auto& n : config_.cluster.nodes) total_cores += n.cores;
  const obs::PopReport r =
      obs::pop_report(inputs, topology_->apprank_count(), total_cores,
                      end - window_start_time_, 0.0);
  obs::PopWindowRow row;
  row.epoch = epoch;
  row.t_begin = window_start_time_;
  row.t_end = end;
  row.parallel_efficiency = r.parallel_efficiency;
  row.load_balance = r.load_balance;
  row.communication_efficiency = r.communication_efficiency;
  pop_windows_.push_back(row);
  window_start_time_ = end;
}

// --- Scheduling (§5.5) --------------------------------------------------------

int ClusterRuntime::owned_cores(WorkerId w) const {
  return nodes_[static_cast<std::size_t>(topology_->worker(w).node)]
      ->cores.owned_count(w);
}

int ClusterRuntime::pick_worker(const nanos::Task& task) {
  PROF_SCOPE("sched.pick");
  // The §5.5 rule itself lives in tlb::sched (Scheduler::locality_pick,
  // the "locality" policy); alternative policies steer or suppress
  // offloads based on runtime feedback. Deviations from the baseline are
  // annotated on the trace timeline so figure scripts can correlate them
  // with congestion marks.
  const sched::Decision d = scheduler_->pick(task);
  if (d.kind == sched::DecisionKind::Baseline) return d.worker;
  const bool steered = d.kind == sched::DecisionKind::Steered;
  if (recorder_->timeline()) {
    const std::string task_label = "task " + std::to_string(task.id);
    recorder_->mark(
        engine_.now(),
        steered ? "sched steer: " + task_label + " -> worker " +
                      std::to_string(d.worker)
                : "sched suppress: " + task_label +
                      (d.worker >= 0 ? " held home" : " held centrally"),
        steered ? trace::MarkKind::SchedSteer : trace::MarkKind::SchedSuppress,
        d.worker);
  }
  sink().sched_decision(task.id,
                        steered ? obs::SchedVerdict::Steered
                                : obs::SchedVerdict::Suppressed,
                        d.worker, engine_.now());
  return d.worker;
}

void ClusterRuntime::on_link_congestion(net::LinkId link, bool congested) {
  const std::string& name = fabric_->topology().link(link).name;
  if (recorder_->timeline()) {
    recorder_->mark(engine_.now(),
                    (congested ? "net congestion: " : "net cleared: ") + name,
                    congested ? trace::MarkKind::NetCongestion
                              : trace::MarkKind::NetCleared,
                    link);
  }
  sink().link_congestion(link, name, congested, engine_.now());
}

void ClusterRuntime::on_task_ready(nanos::TaskId id) {
  nanos::Task& task = pool_.get(id);
  assert(task.state == nanos::TaskState::Ready);
  if (!task.offloadable) {
    // Must execute in the apprank's own process (it may call MPI, §4).
    assign_to_worker(id, topology_->home_worker(task.apprank));
    return;
  }
  const int w = pick_worker(task);
  if (w >= 0) {
    assign_to_worker(id, w);
  } else {
    appranks_[static_cast<std::size_t>(task.apprank)].central.push_back(id);
  }
}

void ClusterRuntime::assign_to_worker(nanos::TaskId id, WorkerId w) {
  nanos::Task& task = pool_.get(id);
  const WorkerInfo& info = topology_->worker(w);
  assert(usable(w));
  task.state = nanos::TaskState::Scheduled;
  task.scheduled_node = info.node;
  worker_state(w).inflight += 1;
  sink().task_scheduled(id, w, info.node, !info.is_home, engine_.now());

  // Offloading is final from here (§5.5). A home assignment is a local
  // runtime call; a remote one is an offload control message over the
  // control plane (it pays the link latency and can be degraded or lost
  // and retransmitted). The eager input transfer starts once the helper
  // has learned of the task.
  if (info.is_home) {
    finish_assignment(id, w);
    return;
  }
  ++result_.control_messages;
  worker_state(w).pending += 1;
  if (resil_active()) {
    // Lease/ACK protocol (tlb::resil): the assignment is covered by an
    // epoch-stamped lease; the offload must be acknowledged within the
    // lease timeout or it is retransmitted with capped backoff.
    resil::LeaseRecord& lease = leases_.grant(id, w, engine_.now());
    send_offload(id, w, lease.epoch);
    lease.timer =
        engine_.after(resil::LeaseTable::backoff_delay(config_.resil, 1),
                      [this, id] { on_lease_timeout(id); });
    return;
  }
  send_ctrl(topology_->home_worker(task.apprank), w, kTagOffload,
            [this, id, w] { land_offload(id, w); });
}

void ClusterRuntime::land_offload(nanos::TaskId id, WorkerId w) {
  WorkerState& ws = worker_state(w);
  ws.pending -= 1;
  if (!ws.alive || ws.retired) {
    // The helper crashed — or its node was retired by elastic scale-in —
    // while the offload message was in flight: the task must not land
    // there. (Oracle detection only: under Heartbeat detection a corpse
    // never sees the offload and a retired worker holds no current lease.)
    rescue_task(id, w);
    return;
  }
  finish_assignment(id, w);
  kick_node(topology_->worker(w).node);
}

void ClusterRuntime::finish_assignment(nanos::TaskId id, WorkerId w) {
  nanos::Task& task = pool_.get(id);
  const WorkerInfo& info = topology_->worker(w);
  nanos::DataLocations& loc =
      *appranks_[static_cast<std::size_t>(task.apprank)].locations;
  std::uint64_t bytes = 0;
  sim::SimTime cost = 0.0;
  if (fabric_ != nullptr) {
    // Net mode: one flow per source node holding a missing piece of the
    // task's input. The task may not compute before the last flow lands
    // (on_input_arrived); data_ready_at is refined there.
    PendingData pd;
    for (const auto& [src, b] :
         loc.missing_by_source(task.accesses, info.node)) {
      bytes += b;
      pd.flows.push_back(fabric_->start_flow(
          src, info.node, b, [this, id] { on_input_arrived(id); }));
    }
    if (bytes > 0) {
      pd.remaining = static_cast<int>(pd.flows.size());
      pd.worker = w;
      pd.started = engine_.now();
      prof::alloc_note(prof::AllocTag::CorePending, pd.bytes());
      pending_data_[id] = std::move(pd);
    }
  } else {
    bytes = loc.missing_input_bytes(task.accesses, info.node);
    if (bytes > 0) cost = faulted_transfer_time(bytes);
  }
  task.transfer_bytes = bytes;
  task.data_ready_at = engine_.now() + cost;
  if (bytes > 0) {
    result_.transfer_bytes += bytes;
    sink().transfer_begin(id, bytes, info.node, engine_.now());
    // The analytic model resolves the transfer window up front; record
    // both edges now (the end timestamp lies in the future, which the
    // span record represents exactly).
    if (fabric_ == nullptr) sink().transfer_end(id, engine_.now() + cost);
  }
  worker_state(w).queue.push_back(id);
}

void ClusterRuntime::dispatch(WorkerId w) {
  if (!usable(w)) return;
  const WorkerInfo& info = topology_->worker(w);
  dlb::NodeCores& nc = node_state(info.node).cores;
  WorkerState& ws = worker_state(w);
  ApprankState& st = appranks_[static_cast<std::size_t>(info.apprank)];

  while (true) {
    const int idle = nc.idle_leased_count(w);
    if (idle == 0) return;
    if (ws.queue.empty()) {
      // Steal from the apprank's central queue: an idle core is capacity
      // by definition ("stolen as tasks complete", §5.5). A remote
      // assignment is asynchronous (offload control message in flight),
      // so pre-claim at most one in-flight task per idle core; each
      // delivery callback kicks this node again.
      if (st.central.empty()) return;
      if (ws.pending >= idle) return;
      const nanos::TaskId id = st.central.front();
      st.central.pop_front();
      assign_to_worker(id, w);
      continue;
    }
    const nanos::TaskId id = ws.queue.front();
    ws.queue.pop_front();
    start_task(id, w, nc.first_idle_leased(w));
  }
}

void ClusterRuntime::start_task(nanos::TaskId id, WorkerId w, int core) {
  nanos::Task& task = pool_.get(id);
  const WorkerInfo& info = topology_->worker(w);
  assert(task.state == nanos::TaskState::Scheduled);
  task.state = nanos::TaskState::Running;
  task.start_at = engine_.now();
  task.executed_worker = w;
  task.executed_core = core;
  task.executions += 1;
  // Feedback to the scheduling policy: how long the task waited between
  // readiness and claiming a core (the "waittime" offload-throttle signal).
  scheduler_->on_task_started(task, w, engine_.now() - task.ready_at);

  dlb::NodeCores& nc = node_state(info.node).cores;
  nc.task_started(core);

  sim::SimTime transfer_wait =
      std::max(0.0, task.data_ready_at - engine_.now());
  if (nc.owner(core) != w) {
    // Borrowed core: pay the lend/borrow friction (§5.5 — borrowed cores
    // are never as efficient as owned ones).
    transfer_wait += config_.borrowed_core_overhead;
  }

  RunningExec run;
  run.task = id;
  run.worker = w;
  run.node = info.node;
  run.core = core;
  if (resil_active()) {
    if (const resil::LeaseRecord* lease = leases_.find(id)) {
      assert(lease->worker == w);
      run.epoch = lease->epoch;
    }
  }
  const std::uint64_t exec_id = next_exec_++;
  prof::alloc_note(prof::AllocTag::CoreExec, sizeof(RunningExec));
  running_.emplace(exec_id, run);

  auto pd = pending_data_.find(id);
  if (pd != pending_data_.end() && pd->second.remaining > 0) {
    // Net mode: the inputs are still streaming over the fabric. Park the
    // execution (core occupied, not busy — same semantics as the analytic
    // transfer wait); the last flow's arrival resumes it. The borrowed-
    // core friction is paid after the data lands, mirroring the analytic
    // path where it extends the transfer wait.
    pd->second.exec = exec_id;
    pd->second.exec_waiting = true;
    pd->second.overhead = transfer_wait;
    return;
  }
  begin_compute(exec_id, transfer_wait);
}

void ClusterRuntime::begin_compute(std::uint64_t exec_id, sim::SimTime wait) {
  auto it = running_.find(exec_id);
  assert(it != running_.end());
  RunningExec& run = it->second;
  const sim::SimTime compute =
      pool_.get(run.task).work / node_state(run.node).speed;

  // Busy accounting covers the compute phase only: a core waiting for data
  // is occupied but not busy (the paper's borrowed-core under-utilisation).
  if (wait > 0.0) {
    run.busy_event = engine_.after(wait, [this, exec_id] {
      auto it2 = running_.find(exec_id);
      assert(it2 != running_.end());
      start_busy(it2->second);
    });
  } else {
    start_busy(run);
  }
  run.finish_event = engine_.after(wait + compute, [this, exec_id] {
    on_task_finished(exec_id);
  });
}

void ClusterRuntime::start_busy(RunningExec& run) {
  busy_delta(run.worker, run.node, topology_->worker(run.worker).apprank, +1);
  run.busy_applied = true;
  // A ghost's lease moved on and the task already has a newer attempt;
  // recording into it would corrupt that attempt.
  if (!run.ghost) {
    sink().exec_begin(run.task, run.worker, run.node, run.core, engine_.now());
  }
}

void ClusterRuntime::on_input_arrived(nanos::TaskId id) {
  auto it = pending_data_.find(id);
  if (it == pending_data_.end()) return;  // torn down meanwhile
  PendingData& pd = it->second;
  assert(pd.remaining > 0);
  if (--pd.remaining > 0) return;
  pool_.get(id).data_ready_at = engine_.now();
  sink().transfer_end(id, engine_.now());
  const bool waiting = pd.exec_waiting;
  const std::uint64_t exec = pd.exec;
  const sim::SimTime overhead = pd.overhead;
  // Feedback to the scheduling policy: observed flow-completion time of
  // this task's input transfers (the "congestion" per-helper FCT signal).
  scheduler_->on_inputs_landed(pd.worker, engine_.now() - pd.started);
  erase_pending(it);
  if (waiting) begin_compute(exec, overhead);
}

void ClusterRuntime::cancel_input_flows(nanos::TaskId id) {
  if (fabric_ == nullptr) return;
  auto it = pending_data_.find(id);
  if (it == pending_data_.end()) return;
  for (const net::FlowId f : it->second.flows) fabric_->cancel(f);
  erase_pending(it);
}

void ClusterRuntime::erase_pending(
    std::map<nanos::TaskId, PendingData>::iterator it) {
  prof::free_note(prof::AllocTag::CorePending, it->second.bytes());
  pending_data_.erase(it);
}

bool ClusterRuntime::unpark(nanos::TaskId id, std::uint64_t exec_id) {
  auto pd = pending_data_.find(id);
  if (pd == pending_data_.end() || !pd->second.exec_waiting ||
      pd->second.exec != exec_id) {
    return false;
  }
  pd->second.exec_waiting = false;
  return true;
}

std::map<std::uint64_t, ClusterRuntime::RunningExec>::iterator
ClusterRuntime::erase_exec(std::map<std::uint64_t, RunningExec>::iterator it) {
  prof::free_note(prof::AllocTag::CoreExec, sizeof(RunningExec));
  return running_.erase(it);
}

void ClusterRuntime::busy_delta(WorkerId w, int node, int apprank, int delta) {
  talp_->on_busy_delta(w, delta);
  recorder_->busy_delta(engine_.now(), node, apprank, delta);
}

void ClusterRuntime::on_task_finished(std::uint64_t exec_id) {
  auto itr = running_.find(exec_id);
  assert(itr != running_.end());
  const RunningExec run = itr->second;
  erase_exec(itr);
  const WorkerId w = run.worker;
  const int node = run.node;
  nanos::Task& task = pool_.get(run.task);
  const int apprank = task.apprank;

  busy_delta(w, node, apprank, -1);
  node_state(node).cores.task_finished(run.core);

  if (run.ghost) {
    // Disowned execution (its lease was revoked after a suspicion): it
    // frees its core and reports a completion that names a stale epoch —
    // the home runtime suppresses it. No scheduler state moves here; the
    // task itself was already re-queued elsewhere.
    send_completion(run.task, w, run.epoch);
    kick_node(node);
    return;
  }

  task.finish_at = engine_.now();
  sink().exec_end(run.task, engine_.now());
  worker_state(w).inflight -= 1;

  const int home = topology_->home_node(apprank);
  result_.tasks_total += 1;
  result_.work_total += task.work;
  if (node != home) {
    result_.tasks_offloaded += 1;
    result_.work_offloaded += task.work;
  }
  appranks_[static_cast<std::size_t>(apprank)].locations->task_executed(
      task.accesses, node);

  // Dependency release and taskwait accounting happen on the apprank's
  // home runtime instance; a remote completion needs a control message.
  if (node != home && resil_active()) {
    // The completion names its lease epoch so the home runtime can tell
    // a current execution from a zombie's (exactly-once accounting).
    resil::LeaseRecord* lease = leases_.find(run.task);
    if (lease != nullptr && lease->worker == w && lease->epoch == run.epoch) {
      lease->completion_in_flight = true;
    }
    send_completion(run.task, w, run.epoch);
  } else if (node != home) {
    ++result_.control_messages;
    send_ctrl(w, topology_->home_worker(apprank), kTagComplete,
              [this, id = run.task] { complete_task(id); });
  } else {
    complete_task(run.task);
  }

  kick_node(node);
}

void ClusterRuntime::complete_task(nanos::TaskId id) {
  const int apprank = pool_.get(id).apprank;
  ApprankState& state = appranks_[static_cast<std::size_t>(apprank)];
  sink().task_done(id, engine_.now());
  const auto ready = state.deps->on_task_finished(id);
  std::vector<int> touched;
  for (nanos::TaskId r : ready) {
    nanos::Task& rt = pool_.get(r);
    rt.ready_at = engine_.now();
    sink().task_ready(r, engine_.now());
    on_task_ready(r);
    if (rt.state == nanos::TaskState::Scheduled) {
      touched.push_back(rt.scheduled_node);
    }
  }
  assert(state.outstanding > 0);
  if (--state.outstanding == 0) {
    enter_barrier(apprank);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (int n : touched) kick_node(n);
}

void ClusterRuntime::kick_node(int node) {
  PROF_SCOPE("core.kick_node");
  dlb::NodeCores& nc = node_state(node).cores;
  dlb::LewiModule& lw = node_state(node).lewi;
  const auto& residents = topology_->workers_on_node(node);

  // Crashed and quarantined workers take no new work: their backlog reads
  // as zero, so they reclaim and borrow nothing and lend what they hold.
  auto backlog_of = [this](WorkerId w) -> int {
    if (!usable(w)) return 0;
    const WorkerState& ws = worker_state(w);
    const ApprankState& st =
        appranks_[static_cast<std::size_t>(topology_->worker(w).apprank)];
    return static_cast<int>(ws.queue.size() + st.central.size()) + ws.pending;
  };

  // Only the crash itself removes a worker from DLB's node-local view
  // (shared memory dies with the process); quarantine is a scheduler-side
  // verdict and must not touch a possibly-alive worker's cores directly.
  auto is_alive = [this](WorkerId w) { return worker_state(w).alive; };

  // 1. Owners with backlog reclaim their lent-out cores (§5.3).
  if (lw.enabled()) {
    PROF_SCOPE("dlb.lewi");
    for (WorkerId w : residents) {
      if (!is_alive(w)) continue;
      const int deficit = backlog_of(w) - nc.idle_leased_count(w);
      if (deficit > 0) lw.reclaim_for(w, deficit);
    }
  }
  // 2. Run whatever fits on currently leased idle cores.
  for (WorkerId w : residents) dispatch(w);
  // 3. Idle workers lend their remaining cores into the pool.
  if (lw.enabled()) {
    {
      PROF_SCOPE("dlb.lewi");
      for (WorkerId w : residents) {
        if (is_alive(w) && backlog_of(w) == 0) lw.lend_idle(w);
      }
    }
    // 4. Backlogged workers borrow from the pool.
    for (WorkerId w : residents) {
      if (!is_alive(w)) continue;
      const int want = backlog_of(w) - nc.idle_leased_count(w);
      if (want > 0) {
        {
          PROF_SCOPE("dlb.lewi");
          lw.borrow(w, want);
        }
        dispatch(w);
      }
    }
  }
}

// --- DROM policy loop (§5.4) ---------------------------------------------------

void ClusterRuntime::schedule_policy_tick() {
  const sim::SimTime period = config_.policy == PolicyKind::Local
                                  ? config_.local_period
                                  : config_.global_period;
  policy_event_ = engine_.after(period, [this] { policy_tick(); });
}

void ClusterRuntime::resolve_policy_now() {
  if (!config_.drom_active() || done_) return;
  engine_.cancel(policy_event_);
  policy_event_ = sim::kInvalidEvent;
  policy_tick();
}

void ClusterRuntime::policy_tick() {
  if (done_) return;
  PROF_SCOPE("core.policy_tick");
  const double s = config_.busy_smoothing;
  const auto workers = static_cast<std::size_t>(topology_->worker_count());
  std::vector<double> busy(workers);
  std::vector<char> usable_mask(workers, 1);
  bool any_unusable = false;
  for (int w = 0; w < topology_->worker_count(); ++w) {
    double& ema = worker_state(w).busy_smoothed;
    if (!usable(w)) {
      // Crashed or quarantined worker: no residual demand must leak into
      // the plans.
      ema = 0.0;
      usable_mask[static_cast<std::size_t>(w)] = 0;
      any_unusable = true;
    } else {
      ema = s * ema + (1.0 - s) * talp_->window_average(w);
    }
    busy[static_cast<std::size_t>(w)] = ema;
  }
  talp_->reset_window();
  // The mask is only passed once a worker is dead or quarantined, so a
  // fault-free run takes exactly the pre-fault code path.
  const std::vector<char>* mask = any_unusable ? &usable_mask : nullptr;

  // Retired nodes contribute zero capacity: the solver's reduced graph has
  // no usable edges there, and a zero-core node rounds to an empty plan.
  std::vector<int> node_core_counts;
  node_core_counts.reserve(config_.cluster.nodes.size());
  for (const auto& ns : nodes_) {
    node_core_counts.push_back(ns->retired ? 0 : ns->cores.core_count());
  }

  // Solver fallback chain (tlb::resil): global solve -> local convergence
  // -> static proportional split. Each rung is strictly more robust and
  // strictly less informed than the one above it.
  OwnershipPlan plan;
  int level = config_.policy == PolicyKind::Global ? 0 : 1;
  if (level == 0) {
    const resil::ResilConfig& rc = config_.resil;
    if (rc.solver_time_budget > 0.0 &&
        config_.solver_latency > rc.solver_time_budget) {
      level = 1;  // the modelled solve cost exceeds the wall-clock budget
    } else {
      try {
        bool converged = true;
        plan = global_solver_plan(*topology_, node_core_counts, busy, mask,
                                  rc.solver_iteration_budget, &converged);
        if (rc.solver_iteration_budget > 0 && !converged) level = 1;
      } catch (const solver::InfeasibleAllocation&) {
        level = 1;
      }
    }
  }
  if (level == 1) {
    try {
      plan = local_convergence_plan(*topology_, node_core_counts, busy, mask);
    } catch (const std::exception&) {
      level = 2;
    }
  }
  if (level == 2) {
    plan = static_ownership_plan(*topology_, node_core_counts, mask);
  }
  if (level != policy_level_) {
    if (level > policy_level_) {
      ++result_.policy_downshifts;
      mark_trace(level == 1 ? "policy downshift: global -> local"
                            : "policy downshift: -> static ownership");
    } else {
      mark_trace("policy restored");
    }
    policy_level_ = level;
  }

  if (config_.policy == PolicyKind::Global && config_.solver_latency > 0.0) {
    engine_.after(config_.solver_latency, [this, plan = std::move(plan)] {
      if (!done_) apply_plan(plan);
    });
  } else {
    apply_plan(plan);
  }
  schedule_policy_tick();
}

void ClusterRuntime::apply_plan(const OwnershipPlan& plan) {
  PROF_SCOPE("core.apply_plan");
  // A plan computed before a crash or suspicion (e.g. held back by
  // solver_latency) may still grant cores to an unusable worker; drop it —
  // the crash/suspicion already triggered a fresh solve.
  for (const auto& node_plan : plan) {
    for (const auto& [w, count] : node_plan) {
      (void)count;
      if (!usable(w)) return;
    }
  }
  for (int n = 0; n < topology_->node_count(); ++n) {
    node_state(n).drom.apply(plan[static_cast<std::size_t>(n)]);
  }
  record_ownership();
  for (int n = 0; n < topology_->node_count(); ++n) kick_node(n);
}

void ClusterRuntime::record_ownership() {
  for (int n = 0; n < topology_->node_count(); ++n) {
    const dlb::NodeCores& nc = node_state(n).cores;
    for (WorkerId w : topology_->workers_on_node(n)) {
      recorder_->set_owned(engine_.now(), n, topology_->worker(w).apprank,
                           nc.owned_count(w));
    }
  }
}

// --- perturbation / resilience (tlb::fault) -----------------------------------

void ClusterRuntime::set_node_speed(int node, double speed) {
  assert(node >= 0 && node < topology_->node_count());
  assert(speed > 0.0);
  node_state(node).speed = speed;
}

void ClusterRuntime::set_link_fault(const vmpi::LinkFault& fault) {
  link_fault_ = fault;
  app_comm_->set_link_fault(fault);
  ctrl_comm_->set_link_fault(fault);
  // Net mode: the latency/bandwidth multipliers act on the fabric itself
  // (every in-flight flow re-shares the degraded links); loss and jitter
  // stay with the communicators.
  if (fabric_ != nullptr) {
    fabric_->set_global_fault(fault.latency_mult, fault.bandwidth_mult);
  }
}

sim::SimTime ClusterRuntime::faulted_transfer_time(std::uint64_t bytes) {
  // With a default LinkFault this reproduces LinkSpec::transfer_time
  // bit-for-bit (multiplying by 1.0 is exact) and draws no random numbers.
  const sim::LinkSpec& l = config_.cluster.link;
  sim::SimTime t = l.latency * link_fault_.latency_mult +
                   static_cast<double>(bytes) /
                       (l.bandwidth * link_fault_.bandwidth_mult);
  if (link_fault_.jitter_max > 0.0) {
    t += fault_rng_.uniform(0.0, link_fault_.jitter_max);
  }
  return t;
}

void ClusterRuntime::mark_trace(const std::string& label) {
  recorder_->mark(engine_.now(), label);
}

void ClusterRuntime::rescue_task(nanos::TaskId id, WorkerId from,
                                 bool charge_worker) {
  nanos::Task& task = pool_.get(id);
  assert(task.state == nanos::TaskState::Scheduled ||
         task.state == nanos::TaskState::Running);
  // Net mode: input flows streaming towards the voided assignment's node
  // are torn down (their bandwidth returns to the surviving flows); the
  // re-assignment below starts fresh ones.
  cancel_input_flows(id);
  if (charge_worker) worker_state(from).inflight -= 1;
  task.state = nanos::TaskState::Ready;
  task.scheduled_node = -1;
  task.data_ready_at = 0.0;
  task.reexecutions += 1;
  ++result_.tasks_reexecuted;
  sink().task_rescued(id, from, engine_.now());
  on_task_ready(id);
}

void ClusterRuntime::crash_worker(WorkerId w) {
  assert(w >= 0 && w < topology_->worker_count());
  const WorkerInfo& info = topology_->worker(w);
  assert(!info.is_home &&
         "only helper ranks may crash; the apprank process is the app");
  WorkerState& ws = worker_state(w);
  if (!ws.alive || done_) return;
  ws.alive = false;
  ws.crashed_at = engine_.now();
  ++result_.workers_crashed;

  const int node = info.node;
  dlb::NodeCores& nc = node_state(node).cores;

  // 1. Abort the tasks executing on the crashed worker: cancel their
  // completion events, undo busy accounting, free their cores. The ordered
  // exec-id map walks executions in start order, so the re-queue order is
  // identical on every standard-library implementation.
  std::vector<nanos::TaskId> lost;
  for (auto it = running_.begin(); it != running_.end();) {
    if (it->second.worker != w) {
      ++it;
      continue;
    }
    RunningExec& run = it->second;
    engine_.cancel(run.finish_event);
    if (run.busy_applied) {
      busy_delta(w, node, info.apprank, -1);
    } else {
      engine_.cancel(run.busy_event);
    }
    nc.task_finished(run.core);
    // Net mode: a parked execution must not be resumed by a late flow
    // completion. (The flows themselves are cancelled when the task is
    // rescued; under Heartbeat detection that happens at lease expiry.)
    unpark(run.task, it->first);
    if (!run.ghost) lost.push_back(run.task);
    it = erase_exec(it);
  }

  // 2. Tasks assigned but not yet started die with the worker's queue.
  if (!resil_active()) {
    for (nanos::TaskId id : ws.queue) lost.push_back(id);
  }
  ws.queue.clear();

  // 3. Evict the worker from core ownership: its cores move to the
  // surviving residents (DROM invariant: every core keeps exactly one
  // owner), and cores it had borrowed return to their owners. This is
  // node-local: DLB's shared-memory view sees the process die instantly,
  // independent of any cluster-wide detection.
  std::vector<WorkerId> survivors;
  for (WorkerId r : topology_->workers_on_node(node)) {
    if (worker_state(r).alive) survivors.push_back(r);
  }
  // Nodes with a home apprank always keep it (homes cannot crash); a
  // helper-only node grown by elastic scale-out can lose its last worker,
  // in which case its cores keep their dead owner until the node retires
  // (no survivor may inherit them, and nothing schedules there).
  std::size_t rr = 0;
  for (int c = 0; c < nc.core_count(); ++c) {
    if (nc.owner(c) == w) {
      if (!survivors.empty()) {
        nc.set_owner(c, survivors[rr++ % survivors.size()]);
      }
    } else if (nc.lease(c) == w && !nc.is_running(c)) {
      nc.reclaim(c);
    }
  }
  record_ownership();

  if (resil_active()) {
    // Heartbeat detection: the crash is *not* announced to the home
    // runtimes. The worker merely falls silent; its leases stay open
    // (in-flight/pending accounting untouched) until heartbeat silence or
    // lease expiry makes suspect_worker observe the failure. Only the
    // node-local capacity freed above is re-usable immediately.
    kick_node(node);
    return;
  }

  // Oracle recovery: the failure is known cluster-wide the instant it
  // happens.
  // 4. If the crash disconnected the apprank from every helper, re-wire
  // the expander with a replacement helper before re-queueing.
  maybe_rewire(info.apprank);

  // 5. Re-queue the lost tasks; each is re-executed exactly once (the
  // scheduler never picks a dead worker again). Rescued tasks can land on
  // any adjacent node, so kick them all.
  for (nanos::TaskId id : lost) rescue_task(id, w);
  for (int n = 0; n < topology_->node_count(); ++n) kick_node(n);

  // 6. Fresh policy solve over the reduced offloading graph, without
  // waiting for the next periodic tick.
  resolve_policy_now();
}

// --- failure detection / graceful degradation (tlb::resil) --------------------

void ClusterRuntime::start_heartbeats() {
  for (int w = 0; w < topology_->worker_count(); ++w) {
    if (topology_->worker(w).is_home) continue;
    // Deterministic stagger: first beats spread over one period so the
    // control plane is not hit by a synchronized burst (no RNG — the
    // phase is a pure function of the worker id).
    const sim::SimTime phase =
        resil::kHeartbeatPeriod * (w + 1) / (topology_->worker_count() + 1);
    engine_.after(phase, [this, w] { send_heartbeat(w); });
  }
  engine_.after(resil::kHeartbeatPeriod, [this] { detector_sweep(); });
}

void ClusterRuntime::send_heartbeat(WorkerId w) {
  // Crashed workers fell silent; retired workers shut down cleanly (and
  // detector_sweep skips them, so the silence never reads as a failure).
  if (done_ || !worker_state(w).alive || worker_state(w).retired) return;
  ++result_.heartbeat_messages;
  send_ctrl(w, topology_->home_worker(topology_->worker(w).apprank),
            kTagHeartbeat, [this, w] { on_heartbeat(w); });
  engine_.after(resil::kHeartbeatPeriod, [this, w] { send_heartbeat(w); });
}

void ClusterRuntime::on_heartbeat(WorkerId w) {
  if (done_) return;
  worker_state(w).last_heartbeat = engine_.now();
  detectors_[static_cast<std::size_t>(w)].heartbeat(engine_.now());
}

void ClusterRuntime::detector_sweep() {
  if (done_) return;
  PROF_SCOPE("resil.sweep");
  const sim::SimTime now = engine_.now();
  for (int w = 0; w < topology_->worker_count(); ++w) {
    const WorkerState& ws = worker_state(w);
    if (topology_->worker(w).is_home || ws.suspected || ws.retired) continue;
    const resil::PhiAccrualDetector& det =
        detectors_[static_cast<std::size_t>(w)];
    if (det.started()) {
      if (det.phi(now) > resil::kPhiThreshold) suspect_worker(w);
    } else {
      // Bootstrap: no inter-arrival distribution yet (the worker died —
      // or its link degraded — before two heartbeats arrived). Judge the
      // silence against the heartbeat period instead.
      const sim::SimTime since = now - std::max(0.0, ws.last_heartbeat);
      if (since > resil::kPhiThreshold * resil::kHeartbeatPeriod) {
        suspect_worker(w);
      }
    }
  }
  engine_.after(resil::kHeartbeatPeriod, [this] { detector_sweep(); });
}

void ClusterRuntime::send_offload(nanos::TaskId id, WorkerId w,
                                  std::uint64_t epoch) {
  send_ctrl(topology_->home_worker(pool_.get(id).apprank), w, kTagOffload,
            [this, id, w, epoch] { on_offload_delivered(id, w, epoch); });
}

void ClusterRuntime::send_completion(nanos::TaskId id, WorkerId w,
                                     std::uint64_t epoch) {
  ++result_.control_messages;
  send_ctrl(w, topology_->home_worker(pool_.get(id).apprank), kTagComplete,
            [this, id, w, epoch] { on_completion(id, w, epoch); });
}

void ClusterRuntime::on_offload_delivered(nanos::TaskId id, WorkerId w,
                                          std::uint64_t epoch) {
  if (done_) return;
  if (!worker_state(w).alive) return;  // delivered into a corpse
  resil::LeaseRecord* lease = leases_.find(id);
  const bool current =
      lease != nullptr && lease->worker == w && lease->epoch == epoch;
  if (!current) {
    // Stale copy at a live worker: the home runtime has already re-queued
    // the task elsewhere (the lease moved on), but the helper cannot know
    // that. It executes the task as a zombie; the completion it eventually
    // reports names the stale epoch and is suppressed. Modelled off-book —
    // the zombie burns time, not scheduler state.
    const double speed = node_state(topology_->worker(w).node).speed;
    engine_.after(pool_.get(id).work / speed, [this, id, w, epoch] {
      if (!done_ && worker_state(w).alive) send_completion(id, w, epoch);
    });
    return;
  }
  if (lease->helper_received) {
    // Duplicate copy (a retransmit raced the original): just re-ACK.
    send_ack(id, w, epoch);
    return;
  }
  lease->helper_received = true;
  send_ack(id, w, epoch);
  land_offload(id, w);
}

void ClusterRuntime::send_ack(nanos::TaskId id, WorkerId w,
                              std::uint64_t epoch) {
  ++result_.control_messages;
  send_ctrl(w, topology_->home_worker(pool_.get(id).apprank), kTagAck,
            [this, id, w, epoch] { on_ack(id, w, epoch); });
}

void ClusterRuntime::on_ack(nanos::TaskId id, WorkerId w,
                            std::uint64_t epoch) {
  if (done_) return;
  resil::LeaseRecord* lease = leases_.find(id);
  if (lease == nullptr || lease->worker != w || lease->epoch != epoch) {
    return;  // stale ACK for a lease that has moved on
  }
  if (lease->acked) return;
  lease->acked = true;
  engine_.cancel(lease->timer);
  lease->timer = sim::kInvalidEvent;
  quarantine_->record_success(w);
}

void ClusterRuntime::on_lease_timeout(nanos::TaskId id) {
  if (done_) return;
  resil::LeaseRecord* lease = leases_.find(id);
  if (lease == nullptr || lease->acked) return;  // settled meanwhile
  const WorkerId w = lease->worker;
  if (lease->attempts < resil::kLeaseMaxAttempts) {
    lease->attempts += 1;
    ++result_.lease_retransmits;
    ++result_.control_messages;
    send_offload(id, w, lease->epoch);
    lease->timer = engine_.after(
        resil::LeaseTable::backoff_delay(config_.resil, lease->attempts),
        [this, id] { on_lease_timeout(id); });
    return;
  }
  // Attempts exhausted: the lease expires. The task moves elsewhere; the
  // worker moves towards quarantine.
  ++result_.lease_expiries;
  lease->timer = sim::kInvalidEvent;
  if (quarantine_->record_expiry(w) && !worker_state(w).suspected) {
    suspect_worker(w);  // re-queues every lease on w, including this one
  } else if (!worker_state(w).suspected) {
    requeue_leased_task(id);
    kick_node(topology_->worker(w).node);
  }
}

void ClusterRuntime::on_completion(nanos::TaskId id, WorkerId w,
                                   std::uint64_t epoch) {
  if (done_) return;
  resil::LeaseRecord* lease = leases_.find(id);
  if (lease == nullptr || lease->worker != w || lease->epoch != epoch) {
    // Zombie or otherwise stale completion: the lease moved on (the task
    // was re-queued, possibly already completed elsewhere). Suppressing it
    // here is what makes completion accounting exactly-once at the home
    // runtime.
    ++result_.duplicates_suppressed;
    return;
  }
  engine_.cancel(lease->timer);
  leases_.revoke(id);
  quarantine_->record_success(w);
  complete_task(id);
}

void ClusterRuntime::requeue_leased_task(nanos::TaskId id) {
  resil::LeaseRecord* lease = leases_.find(id);
  assert(lease != nullptr);
  const WorkerId w = lease->worker;
  engine_.cancel(lease->timer);
  if (!lease->helper_received) {
    // The offload never arrived; retire the pre-claimed slot.
    worker_state(w).pending -= 1;
  }
  // Drop the task from the helper's queue if it had not started there.
  auto& q = worker_state(w).queue;
  q.erase(std::remove(q.begin(), q.end(), id), q.end());
  // Disown a live execution into a ghost: it keeps burning its core until
  // it finishes, but its completion will name a stale epoch. An execution
  // still parked waiting for its input flows (net mode) is aborted outright
  // instead — rescue_task below cancels those flows, so the ghost could
  // never finish: free its core and erase it.
  for (auto rit = running_.begin(); rit != running_.end();) {
    RunningExec& run = rit->second;
    if (run.task != id || run.worker != w || run.ghost ||
        run.epoch != lease->epoch) {
      ++rit;
      continue;
    }
    if (unpark(id, rit->first)) {
      node_state(run.node).cores.task_finished(run.core);
      rit = erase_exec(rit);
      continue;
    }
    run.ghost = true;
    ++rit;
  }
  const bool settled = lease->completion_in_flight;
  leases_.revoke(id);
  // When the helper already finished (its completion is in flight and will
  // be suppressed), the worker's in-flight accounting was settled at
  // finish time; charging it again would double-count.
  rescue_task(id, w, /*charge_worker=*/!settled);
}

void ClusterRuntime::suspect_worker(WorkerId w) {
  WorkerState& ws = worker_state(w);
  if (done_ || ws.suspected) return;
  const WorkerInfo& info = topology_->worker(w);
  assert(!info.is_home && "home workers are never suspected");
  ws.suspected = true;

  // Detection verdict: real failure or false suspicion?
  if (!ws.alive) {
    ++result_.detections;
    const double latency = engine_.now() - ws.crashed_at;
    result_.detection_latency_sum += latency;
    if (recovery_series_ != nullptr) {
      recovery_series_->record_detection(engine_.now(), w, true, latency);
    }
    mark_trace("detected crash of worker " + std::to_string(w));
  } else {
    ++result_.false_suspicions;
    if (recovery_series_ != nullptr) {
      recovery_series_->record_detection(engine_.now(), w, false, 0.0);
    }
    mark_trace("false suspicion of worker " + std::to_string(w));
  }

  // Outlier ejection (Envoy-style): out of pick_worker candidacy until the
  // cooling period ends, then probed back in.
  ++result_.quarantine_ejections;
  const sim::SimTime cooled = quarantine_->eject(w, engine_.now());
  engine_.at(cooled, [this, w] { probe_worker(w); });

  // Re-queue everything leased to the suspect, in ascending task-id order.
  for (const std::uint64_t id : leases_.tasks_on(w)) {
    requeue_leased_task(static_cast<nanos::TaskId>(id));
  }

  // If the suspicion disconnected the apprank from every helper, re-wire.
  maybe_rewire(info.apprank);

  // Immediate policy re-solve over the usable workers, then let every node
  // pick up the re-queued work.
  resolve_policy_now();
  for (int n = 0; n < topology_->node_count(); ++n) kick_node(n);
}

void ClusterRuntime::probe_worker(WorkerId w) {
  WorkerState& ws = worker_state(w);
  if (done_ || !ws.suspected) return;
  // The probe is a liveness check: has the worker produced a heartbeat
  // since it was ejected?
  if (ws.alive && ws.last_heartbeat > quarantine_->ejected_at(w)) {
    ws.suspected = false;
    quarantine_->readmit(w);
    // Forget pre-ejection inter-arrival history (it includes the silence
    // that caused the ejection and would poison the fresh estimate).
    detectors_[static_cast<std::size_t>(w)].reset();
    ++result_.quarantine_readmissions;
    mark_trace("readmitted worker " + std::to_string(w));
    resolve_policy_now();
    return;
  }
  // Still silent: extend the quarantine with a longer (capped) cooling.
  const sim::SimTime next = quarantine_->extend(w, engine_.now());
  engine_.at(next, [this, w] { probe_worker(w); });
}

WorkerId ClusterRuntime::add_helper(int apprank, int node) {
  expander_.graph.add_edge(apprank, node);
  const WorkerId w = topology_->add_worker(apprank, node);
  const vmpi::RankId rank = ctrl_comm_->add_rank(node);
  (void)rank;
  assert(rank == w && "control-plane ranks mirror worker ids");
  talp_->add_worker();
  workers_.emplace_back();
  if (resil_active()) {
    detectors_.emplace_back(resil::kPhiWindow, resil::kPhiMinStd);
    quarantine_->add_worker();
    engine_.after(resil::kHeartbeatPeriod, [this, w] { send_heartbeat(w); });
  }
  return w;
}

void ClusterRuntime::add_node_state(int cores, WorkerId first_owner,
                                    double speed) {
  nodes_.push_back(std::make_unique<NodeState>(
      cores, first_owner, config_.lewi, config_.drom_active(), speed));
}

void ClusterRuntime::maybe_rewire(int apprank) {
  if (!config_.resil.rewire_on_disconnect || done_) return;
  const auto& ws = topology_->workers_of_apprank(apprank);
  if (ws.size() < 2) return;  // degree-1 appranks never offload
  for (WorkerId w : ws) {
    if (!topology_->worker(w).is_home && usable(w)) return;  // still connected
  }

  // Replacement helper on the node with the most spare worker capacity.
  std::vector<int> spare(static_cast<std::size_t>(topology_->node_count()));
  for (int n = 0; n < topology_->node_count(); ++n) {
    // Retired nodes must not receive replacement helpers.
    spare[static_cast<std::size_t>(n)] =
        node_state(n).retired
            ? 0
            : node_state(n).cores.core_count() -
                  static_cast<int>(topology_->workers_on_node(n).size());
  }
  const int node = graph::pick_replacement_node(expander_.graph, apprank, spare);
  if (node < 0) {
    mark_trace("rewire failed: no node with spare capacity");
    return;
  }

  add_helper(apprank, node);
  ++result_.rewired_edges;
  mark_trace("rewired apprank " + std::to_string(apprank) + " -> node " +
             std::to_string(node));
  // The new worker owns no cores yet; the policy re-solve that follows the
  // crash/suspicion grants it at least one (it is unpickable until then).
}

// --- elasticity (tlb::elastic) ------------------------------------------------

int ClusterRuntime::grow_node(const sim::NodeSpec& spec) {
  if (done_) throw std::logic_error("grow_node: run already complete");
  if (workload_ == nullptr) {
    throw std::logic_error(
        "grow_node: call start() first (the initial ownership split must "
        "exist before the cluster can grow)");
  }
  if (fabric_ != nullptr) {
    throw std::logic_error(
        "grow_node: the contention-aware fabric has a fixed topology; "
        "elastic growth requires the analytic interconnect model");
  }
  if (spec.cores < 1) {
    throw std::invalid_argument("grow_node: node needs at least one core");
  }

  // The grow sequence is the rewire path run once per helper (add_helper).
  const int node = expander_.graph.add_right_vertex();
  const int tnode = topology_->add_node();
  assert(node == tnode && "graph and topology node ids must stay aligned");
  (void)tnode;
  config_.cluster.nodes.push_back(spec);
  recorder_->add_node();

  // Helper placement: one per apprank, capped by the core count; appranks
  // with the fewest workers first (they gain the most offload reach), ties
  // by id — deterministic.
  const int count = std::min(topology_->apprank_count(), spec.cores);
  std::vector<int> order(static_cast<std::size_t>(topology_->apprank_count()));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [this](int x, int y) {
    return expander_.graph.left_degree(x) < expander_.graph.left_degree(y);
  });

  std::vector<WorkerId> added;
  for (int i = 0; i < count; ++i) {
    added.push_back(add_helper(order[static_cast<std::size_t>(i)], node));
  }
  assert(!added.empty());

  // DLB modules for the node. All cores start owned by the first helper;
  // the immediate policy re-solve below redistributes them (exactly like
  // the initial split would have, had the node existed at start()).
  add_node_state(spec.cores, added.front(), spec.speed);
  record_ownership();
  grown_nodes_.push_back(node);

  mark_trace("elastic: node " + std::to_string(node) + " joined with " +
             std::to_string(added.size()) + " helpers");

  resolve_policy_now();
  kick_node(node);
  return node;
}

void ClusterRuntime::retire_node(int node) {
  if (node < 0 || node >= topology_->node_count()) {
    throw std::invalid_argument("retire_node: no such node");
  }
  if (node_state(node).retired) return;  // idempotent
  const auto residents = topology_->workers_on_node(node);
  for (WorkerId w : residents) {
    if (topology_->worker(w).is_home) {
      throw std::invalid_argument(
          "retire_node: node " + std::to_string(node) +
          " hosts an apprank process; only helper-only nodes can retire");
    }
  }
  node_state(node).retired = true;

  // Fence first: usable() is now false for every resident, so no new
  // assignment, LeWI borrow, or pick_worker choice can land here while we
  // drain.
  for (WorkerId w : residents) worker_state(w).retired = true;

  for (WorkerId w : residents) {
    if (!worker_state(w).alive) continue;  // crashed earlier
    if (resil_active()) {
      // Revoke the leases of tasks that have not started computing here;
      // executions already running keep their lease and complete normally
      // (the worker is alive, merely drained — completions carry the
      // current epoch and count exactly once). A task requeued here and
      // raced by a stale copy is covered by the usual zombie suppression.
      for (const std::uint64_t id : leases_.tasks_on(w)) {
        const bool running = std::any_of(
            running_.begin(), running_.end(), [id, w](const auto& e) {
              return e.second.task == static_cast<nanos::TaskId>(id) &&
                     e.second.worker == w && !e.second.ghost;
            });
        if (!running) requeue_leased_task(static_cast<nanos::TaskId>(id));
      }
    } else {
      // Oracle mode: queued-but-unstarted assignments are rescued exactly
      // once; in-flight offload messages are rescued by their delivery
      // callback (which now sees the retired flag).
      std::deque<nanos::TaskId> drained;
      drained.swap(worker_state(w).queue);
      for (nanos::TaskId id : drained) rescue_task(id, w);
    }
  }

  mark_trace("elastic: node " + std::to_string(node) + " retired");

  // Re-solve over the reduced capacity, then let the survivors pick up the
  // rescued work.
  resolve_policy_now();
  for (int n = 0; n < topology_->node_count(); ++n) {
    if (!node_state(n).retired) kick_node(n);
  }
}

void ClusterRuntime::schedule_elastic_tick() {
  engine_.after(config_.elastic.eval_period, [this] { elastic_tick(); });
}

void ClusterRuntime::elastic_tick() {
  if (done_) return;  // stop rescheduling; the engine can drain

  // Pressure = demand over capacity: every task that wants a core (central
  // queues, worker queues, in-flight offloads, running executions) against
  // the cores of non-retired nodes.
  double demand = 0.0;
  for (const ApprankState& st : appranks_) {
    demand += static_cast<double>(st.central.size());
  }
  for (int w = 0; w < topology_->worker_count(); ++w) {
    if (!usable(w)) continue;
    const WorkerState& ws = worker_state(w);
    demand += static_cast<double>(ws.queue.size()) + ws.pending;
  }
  for (const auto& [eid, run] : running_) {
    (void)eid;
    if (!run.ghost) demand += 1.0;
  }
  double capacity = 0.0;
  int active = 0;
  for (const auto& ns : nodes_) {
    if (ns->retired) continue;
    capacity += ns->cores.core_count();
    ++active;
  }
  const double pressure = capacity > 0.0 ? demand / capacity : 0.0;

  const elastic::ScaleDecision d =
      elastic_ctrl_->observe(engine_.now(), pressure, active);
  if (d == elastic::ScaleDecision::Out) {
    // Grown nodes clone node 0's core count and run at nominal speed.
    sim::NodeSpec spec;
    spec.cores = config_.cluster.nodes.front().cores;
    for (int k = 0; k < config_.elastic.step; ++k) {
      if (active >= elastic_ctrl_->max_nodes()) break;
      grow_node(spec);
      ++active;
    }
  } else if (d == elastic::ScaleDecision::In) {
    // Retire the most recently grown node that is fully idle (nothing
    // queued, leased, or running on any resident). Original nodes host
    // apprank processes and never retire.
    auto has_work = [this](WorkerId w) {
      const WorkerState& ws = worker_state(w);
      return !ws.queue.empty() || ws.pending > 0 || ws.inflight > 0 ||
             (resil_active() && !leases_.tasks_on(w).empty());
    };
    auto idle = [this, &has_work](int n) {
      const auto& residents = topology_->workers_on_node(n);
      return !node_state(n).retired &&
             std::none_of(residents.begin(), residents.end(), has_work);
    };
    for (int k = 0; k < config_.elastic.step; ++k) {
      if (active <= elastic_ctrl_->min_nodes()) break;
      const auto it =
          std::find_if(grown_nodes_.rbegin(), grown_nodes_.rend(), idle);
      if (it == grown_nodes_.rend()) break;  // nothing idle enough; hold
      retire_node(*it);
      --active;
    }
  }
  schedule_elastic_tick();
}

}  // namespace tlb::core
