#include "svc/job_manager.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "apps/synthetic.hpp"
#include "sched/registry.hpp"

namespace tlb::svc {

namespace {

/// Exact order-statistics quantile over a sorted sample (linear
/// interpolation between adjacent ranks, the common "type 7" definition).
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

}  // namespace

JobManager::JobManager(core::RuntimeConfig base)
    : base_(std::move(base)),
      svc_(std::exchange(base_.svc, {})),  // jobs never nest services
      admission_(svc_.admission) {
  if (!svc_.enabled) {
    throw std::invalid_argument("JobManager: RuntimeConfig::svc is disabled");
  }
  if (svc_.templates.empty()) {
    throw std::invalid_argument("JobManager: no job templates configured");
  }
  const int cluster_nodes = base_.cluster.node_count();
  if (cluster_nodes < 1) {
    throw std::invalid_argument("JobManager: empty cluster");
  }
  for (const JobTemplate& tpl : svc_.templates) {
    if (tpl.nodes < 1 || tpl.nodes > cluster_nodes) {
      throw std::invalid_argument(
          "JobManager: template \"" + tpl.name + "\" wants " +
          std::to_string(tpl.nodes) + " nodes on a " +
          std::to_string(cluster_nodes) + "-node cluster");
    }
    if (tpl.appranks_per_node < 1 || tpl.degree < 1 || tpl.iterations < 1 ||
        tpl.tasks_per_rank < 1 || tpl.base_duration <= 0.0 ||
        tpl.imbalance < 1.0 || tpl.deadline <= 0.0 || tpl.deadline_class < 0) {
      throw std::invalid_argument("JobManager: template \"" + tpl.name +
                                  "\" has out-of-range parameters");
    }
  }
  if (svc_.fabric_pressure < 0.0) {
    throw std::invalid_argument("JobManager: negative fabric_pressure");
  }

  if (svc_.breaker.enabled) {
    breakers_.reserve(svc_.templates.size());
    for (std::size_t t = 0; t < svc_.templates.size(); ++t) {
      breakers_.emplace_back(svc_.breaker);  // ctor validates the config
    }
  }

  powered_.assign(static_cast<std::size_t>(cluster_nodes), 1);
  provisioning_slot_.assign(static_cast<std::size_t>(cluster_nodes), 0);
  power_on_at_.assign(static_cast<std::size_t>(cluster_nodes), 0.0);

  if (base_.elastic.enabled) {
    elastic_ctrl_ =
        std::make_unique<elastic::ElasticController>(base_.elastic);
    if (base_.elastic.min_nodes > cluster_nodes) {
      throw std::invalid_argument(
          "JobManager: elastic.min_nodes exceeds the cluster size");
    }
    // The pool can never grow past the declared cluster, whatever the
    // configured ceiling says.
    elastic_ctrl_->set_bounds(base_.elastic.min_nodes,
                              std::min(base_.elastic.max_nodes,
                                       cluster_nodes));
    for (const JobTemplate& tpl : svc_.templates) {
      if (tpl.nodes > elastic_ctrl_->max_nodes()) {
        throw std::invalid_argument(
            "JobManager: template \"" + tpl.name +
            "\" can never fit within elastic.max_nodes");
      }
    }
    // Slots above min_nodes start dark and are billed only once powered.
    for (int n = elastic_ctrl_->min_nodes(); n < cluster_nodes; ++n) {
      powered_[static_cast<std::size_t>(n)] = 0;
    }
  }
  for (int n = 0; n < cluster_nodes; ++n) {
    if (powered_[static_cast<std::size_t>(n)] != 0) free_nodes_.push_back(n);
  }
  peak_powered_ = powered_count();

  subscribe_control_types();
}

int JobManager::powered_count() const {
  int n = 0;
  for (char p : powered_) n += p != 0 ? 1 : 0;
  return n;
}

void JobManager::subscribe_control_types() {
  // Every applier validates the full payload before mutating any state, so
  // a NACK leaves the previously acked config in force (the ControlPlane
  // re-applies the last acked resource, which then must succeed).
  control_.subscribe(
      "tlb.sched.policy", [this](const elastic::Resource& res) -> std::string {
        try {
          const auto kv = elastic::parse_kv(res.payload);
          const auto it = kv.find("policy");
          if (it == kv.end()) return "missing key 'policy'";
          const auto known = sched::known_policies();
          if (std::find(known.begin(), known.end(), it->second) ==
              known.end()) {
            return "unknown scheduler policy '" + it->second + "'";
          }
          base_.sched.policy = it->second;  // affects subsequent launches
          return "";
        } catch (const std::exception& e) {
          return e.what();
        }
      });

  control_.subscribe(
      "tlb.svc.admission", [this](const elastic::Resource& res) -> std::string {
        try {
          const auto kv = elastic::parse_kv(res.payload);
          AdmissionConfig next = svc_.admission;
          next.bucket_rate =
              elastic::kv_double(kv, "bucket_rate", next.bucket_rate);
          next.bucket_burst =
              elastic::kv_double(kv, "bucket_burst", next.bucket_burst);
          next.initial_limit =
              elastic::kv_int(kv, "initial_limit", next.initial_limit);
          next.min_limit = elastic::kv_int(kv, "min_limit", next.min_limit);
          next.max_limit = elastic::kv_int(kv, "max_limit", next.max_limit);
          next.tolerance =
              elastic::kv_double(kv, "tolerance", next.tolerance);
          next.update_window =
              elastic::kv_int(kv, "update_window", next.update_window);
          if (next.bucket_rate < 0.0 || next.bucket_burst < 1.0) {
            return "bucket_rate must be >= 0 and bucket_burst >= 1";
          }
          if (next.min_limit < 1 || next.max_limit < next.min_limit ||
              next.initial_limit < next.min_limit ||
              next.initial_limit > next.max_limit) {
            return "limits must satisfy 1 <= min <= initial <= max";
          }
          if (next.tolerance <= 0.0 || next.update_window < 1) {
            return "tolerance must be > 0 and update_window >= 1";
          }
          // Hot-swap: the controller restarts from the pushed config (the
          // gradient limiter relearns its latency floor, deliberately).
          svc_.admission = next;
          admission_ = AdmissionController(next);
          return "";
        } catch (const std::exception& e) {
          return e.what();
        }
      });

  control_.subscribe(
      "tlb.elastic.nodes", [this](const elastic::Resource& res) -> std::string {
        try {
          if (elastic_ctrl_ == nullptr) {
            return "elastic pool is disabled in this run";
          }
          const auto kv = elastic::parse_kv(res.payload);
          const int min_n =
              elastic::kv_int(kv, "min", elastic_ctrl_->min_nodes());
          const int max_n =
              elastic::kv_int(kv, "max", elastic_ctrl_->max_nodes());
          const int cluster_nodes = base_.cluster.node_count();
          if (min_n < 1 || max_n < min_n || max_n > cluster_nodes) {
            return "bounds must satisfy 1 <= min <= max <= " +
                   std::to_string(cluster_nodes);
          }
          elastic_ctrl_->set_bounds(min_n, max_n);
          // A raised floor takes effect immediately instead of waiting for
          // queue pressure that idle capacity would never generate.
          for (int n = 0; n < cluster_nodes &&
                          powered_count() + provisioning_ < min_n;
               ++n) {
            if (powered_[static_cast<std::size_t>(n)] == 0 &&
                provisioning_slot_[static_cast<std::size_t>(n)] == 0) {
              begin_power_up(n);
            }
          }
          return "";
        } catch (const std::exception& e) {
          return e.what();
        }
      });
}

SvcResult JobManager::run() {
  if (ran_) {
    throw std::logic_error("JobManager::run is one-shot");
  }
  ran_ = true;

  std::vector<double> weights;
  weights.reserve(svc_.templates.size());
  for (const JobTemplate& tpl : svc_.templates) weights.push_back(tpl.weight);
  ArrivalGenerator gen(svc_.arrivals, weights, base_.seed);

  // The whole arrival sequence is fixed up front (it is independent of
  // execution by construction), so the offered traffic is identical across
  // admission settings under one seed.
  const std::vector<Arrival> arrivals = gen.all();
  records_.reserve(arrivals.size());
  for (const Arrival& a : arrivals) {
    JobRecord rec;
    rec.id = static_cast<int>(records_.size());
    rec.template_index = a.template_index;
    const JobTemplate& tpl =
        svc_.templates[static_cast<std::size_t>(a.template_index)];
    rec.deadline_class = tpl.deadline_class;
    rec.deadline = tpl.deadline;
    rec.arrival = a.time;
    rec.job_seed = a.job_seed;
    records_.push_back(rec);
    engine_.at(a.time, [this, a, id = rec.id] { on_arrival(a, id, false); });
  }
  if (elastic_ctrl_ != nullptr) schedule_elastic_tick();
  engine_.run();

  // The run counted arrivals, admissions, sheds, retries, completions and
  // scaling decisions into result_; derive the rest.
  SvcResult& res = result_;
  res.elapsed = engine_.now();
  res.horizon = svc_.arrivals.horizon;
  res.goodput = res.horizon > 0.0
                    ? static_cast<double>(res.slo_met) / res.horizon
                    : 0.0;
  res.shed_rate = res.arrived > 0
                      ? static_cast<double>(res.shed) /
                            static_cast<double>(res.arrived)
                      : 0.0;
  res.final_limit = admission_.limiter().limit();
  res.engine_events = engine_.events_fired();

  // Close out the billing interval of every still-powered slot. Static
  // runs bill the whole cluster for the whole run by construction.
  res.cost_node_seconds = node_seconds_;
  for (int n = 0; n < base_.cluster.node_count(); ++n) {
    if (powered_[static_cast<std::size_t>(n)] != 0 ||
        provisioning_slot_[static_cast<std::size_t>(n)] != 0) {
      res.cost_node_seconds +=
          res.elapsed - power_on_at_[static_cast<std::size_t>(n)];
    }
  }
  res.peak_nodes = peak_powered_;
  for (const CircuitBreaker& br : breakers_) {
    res.breaker_trips += br.trips();
    res.breaker_open_time_s += br.open_time(res.elapsed);
  }

  std::vector<double> latencies;
  std::vector<double> waits;
  std::vector<double> services;
  int max_class = 0;
  for (const JobRecord& rec : records_) {
    max_class = std::max(max_class, rec.deadline_class);
  }
  res.classes.resize(static_cast<std::size_t>(max_class) + 1);
  for (std::size_t c = 0; c < res.classes.size(); ++c) {
    res.classes[c].deadline_class = static_cast<int>(c);
  }
  res.tenants.resize(svc_.templates.size());
  std::vector<std::vector<double>> tenant_latencies(svc_.templates.size());
  for (std::size_t t = 0; t < svc_.templates.size(); ++t) {
    res.tenants[t].template_index = static_cast<int>(t);
    res.tenants[t].name = svc_.templates[t].name;
    if (t < breakers_.size()) {
      res.tenants[t].breaker_trips = breakers_[t].trips();
      res.tenants[t].breaker_open_time_s =
          breakers_[t].open_time(res.elapsed);
    }
  }
  for (const JobRecord& rec : records_) {
    SvcClassRow& row =
        res.classes[static_cast<std::size_t>(rec.deadline_class)];
    SvcTenantRow& tenant =
        res.tenants[static_cast<std::size_t>(rec.template_index)];
    ++row.arrived;
    ++tenant.arrived;
    if (rec.outcome == JobOutcome::Completed) {
      ++row.completed;
      ++tenant.completed;
      if (rec.slo_met) {
        ++row.slo_met;
        ++tenant.slo_met;
      }
      latencies.push_back(rec.latency());
      waits.push_back(rec.queue_wait());
      services.push_back(rec.service());
      tenant_latencies[static_cast<std::size_t>(rec.template_index)]
          .push_back(rec.latency());
    } else if (rec.outcome != JobOutcome::Pending) {
      ++row.shed;
      ++tenant.shed;
      if (rec.outcome == JobOutcome::ShedBreaker) ++tenant.shed_breaker;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  std::sort(waits.begin(), waits.end());
  res.latency_p50 = percentile(latencies, 0.50);
  res.latency_p99 = percentile(latencies, 0.99);
  res.latency_mean = mean_of(latencies);
  res.queue_wait_p50 = percentile(waits, 0.50);
  res.queue_wait_p99 = percentile(waits, 0.99);
  res.service_mean = mean_of(services);
  for (std::size_t t = 0; t < res.tenants.size(); ++t) {
    std::sort(tenant_latencies[t].begin(), tenant_latencies[t].end());
    res.tenants[t].latency_p99 = percentile(tenant_latencies[t], 0.99);
  }
  return res;
}

void JobManager::decide(int record_id, JobOutcome outcome) {
  JobRecord& rec = records_[static_cast<std::size_t>(record_id)];
  if (rec.outcome != JobOutcome::Pending) {
    throw std::logic_error("JobManager: record decided twice");
  }
  rec.outcome = outcome;
  ++decided_;
}

void JobManager::on_arrival(const Arrival& arrival, int record_id,
                            bool is_retry) {
  if (is_retry) {
    admission_.retry_budget().settle();
  } else {
    ++result_.arrived;
  }
  const JobRecord& rec = records_[static_cast<std::size_t>(record_id)];

  bool is_probe = false;
  if (!breakers_.empty()) {
    CircuitBreaker& br =
        breakers_[static_cast<std::size_t>(rec.template_index)];
    if (!br.allow(engine_.now())) {
      // Tenant-level door: no retry — the breaker *is* the backoff.
      decide(record_id, JobOutcome::ShedBreaker);
      ++result_.shed;
      ++result_.shed_breaker;
      return;
    }
    is_probe = br.state() == BreakerState::HalfOpen;
  }

  const AdmitVerdict verdict =
      svc_.admission.enabled
          ? admission_.decide(rec.deadline_class, in_flight(), engine_.now())
          : AdmitVerdict::Admit;
  if (verdict == AdmitVerdict::Admit) {
    ++result_.admitted;
    pending_.push_back(record_id);
    try_dispatch();
    return;
  }
  reject(arrival, record_id, verdict, is_probe);
}

void JobManager::reject(const Arrival& arrival, int record_id,
                        AdmitVerdict verdict, bool is_probe) {
  JobRecord& rec = records_[static_cast<std::size_t>(record_id)];
  if (is_probe) {
    // Admission shed the half-open probe before it could run: re-arm the
    // breaker's open timer (no backoff escalation) instead of wedging in
    // HalfOpen waiting for feedback that will never arrive. Probes do not
    // retry — the re-armed breaker is the backoff.
    breakers_[static_cast<std::size_t>(rec.template_index)].on_probe_shed(
        engine_.now());
  } else if (rec.retries < svc_.admission.retry_max &&
             admission_.retry_budget().try_start(in_flight())) {
    ++rec.retries;
    ++result_.retries;
    const double delay = svc_.admission.retry_backoff *
                         std::pow(2.0, static_cast<double>(rec.retries - 1));
    engine_.after(delay,
                  [this, arrival, record_id] {
                    on_arrival(arrival, record_id, /*is_retry=*/true);
                  });
    return;
  }
  decide(record_id, verdict == AdmitVerdict::ShedBucket
                        ? JobOutcome::ShedBucket
                        : JobOutcome::ShedLimit);
  ++result_.shed;
}

void JobManager::try_dispatch() {
  // Strict FCFS: the queue head blocks until its partition fits. Simple,
  // deterministic, and starvation-free (no backfilling that could let
  // small jobs overtake a large one forever).
  while (!pending_.empty()) {
    const int id = pending_.front();
    const JobRecord& rec = records_[static_cast<std::size_t>(id)];
    const JobTemplate& tpl =
        svc_.templates[static_cast<std::size_t>(rec.template_index)];
    if (static_cast<std::size_t>(tpl.nodes) > free_nodes_.size()) return;
    pending_.pop_front();
    launch(id);
  }
}

void JobManager::launch(int record_id) {
  JobRecord& rec = records_[static_cast<std::size_t>(record_id)];
  const JobTemplate& tpl =
      svc_.templates[static_cast<std::size_t>(rec.template_index)];

  // Lowest free indices first — keeps allocation order deterministic.
  std::vector<int> nodes(free_nodes_.begin(),
                         free_nodes_.begin() + tpl.nodes);
  free_nodes_.erase(free_nodes_.begin(), free_nodes_.begin() + tpl.nodes);

  rec.started = engine_.now();
  ++running_;

  auto job = std::make_unique<LaunchedJob>();
  job->record = record_id;
  job->nodes = nodes;

  apps::SyntheticConfig scfg;
  scfg.appranks = tpl.nodes * tpl.appranks_per_node;
  scfg.iterations = tpl.iterations;
  scfg.tasks_per_rank = tpl.tasks_per_rank;
  scfg.base_duration = tpl.base_duration;
  scfg.imbalance = tpl.imbalance;
  scfg.bytes_per_task = tpl.bytes_per_task;
  job->workload = std::make_unique<apps::SyntheticWorkload>(scfg);

  job->runtime = std::make_unique<core::ClusterRuntime>(
      job_config(tpl, nodes, rec.job_seed), &engine_);
  // Register the job before start(): the completion callback indexes
  // launched_, and start() must never observe an unregistered job even if
  // a degenerate workload were to complete without deferring.
  const std::size_t index = launched_.size();
  launched_.push_back(std::move(job));
  launched_[index]->runtime->start(*launched_[index]->workload,
                                   [this, index] { on_job_done(index); });
}

void JobManager::on_job_done(std::size_t launched_index) {
  // Reference the pointee, not the vector slot: try_dispatch() below may
  // launch and push_back, reallocating launched_.
  LaunchedJob& job = *launched_[launched_index];
  job.done = true;
  job.runtime->finalize();

  JobRecord& rec = records_[static_cast<std::size_t>(job.record)];
  rec.finished = engine_.now();
  decide(job.record, JobOutcome::Completed);
  rec.slo_met = rec.latency() <= rec.deadline;

  ++result_.completed;
  if (rec.slo_met) ++result_.slo_met;
  if (svc_.admission.enabled) {
    admission_.on_job_latency(rec.latency());
  }
  if (!breakers_.empty()) {
    CircuitBreaker& br =
        breakers_[static_cast<std::size_t>(rec.template_index)];
    if (rec.slo_met) {
      br.on_success(engine_.now());
    } else {
      br.on_failure(engine_.now());
    }
  }

  free_nodes_.insert(free_nodes_.end(), job.nodes.begin(), job.nodes.end());
  std::sort(free_nodes_.begin(), free_nodes_.end());
  --running_;
  try_dispatch();
}

void JobManager::schedule_elastic_tick() {
  engine_.after(base_.elastic.eval_period, [this] { elastic_tick(); });
}

void JobManager::elastic_tick() {
  // Terminate once every record is decided: nothing can create demand any
  // more, and an immortal tick would keep the engine alive forever.
  if (!work_remaining()) return;

  const double now = engine_.now();
  const int powered = powered_count();
  const int active = powered + provisioning_;
  int queued_nodes = 0;
  for (int id : pending_) {
    queued_nodes +=
        svc_.templates[static_cast<std::size_t>(
                           records_[static_cast<std::size_t>(id)]
                               .template_index)].nodes;
  }
  const int busy_nodes = powered - static_cast<int>(free_nodes_.size());
  const double pressure =
      active > 0 ? static_cast<double>(queued_nodes + busy_nodes) /
                       static_cast<double>(active)
                 : 1.0e9;

  const elastic::ScaleDecision decision =
      elastic_ctrl_->observe(now, pressure, active);
  if (decision == elastic::ScaleDecision::Out) {
    int budget = base_.elastic.step;
    for (int n = 0; n < base_.cluster.node_count() && budget > 0 &&
                    powered_count() + provisioning_ <
                        elastic_ctrl_->max_nodes();
         ++n) {
      if (powered_[static_cast<std::size_t>(n)] == 0 &&
          provisioning_slot_[static_cast<std::size_t>(n)] == 0) {
        begin_power_up(n);
        --budget;
      }
    }
  } else if (decision == elastic::ScaleDecision::In && pending_.empty()) {
    // Only idle *free* nodes are reclaimable — a running job's partition
    // is never powered off under it, and a non-empty queue means the head
    // does not fit yet, which more capacity (not less) resolves.
    int budget = base_.elastic.step;
    while (budget > 0 && !free_nodes_.empty() &&
           powered_count() + provisioning_ > elastic_ctrl_->min_nodes()) {
      // Highest-indexed free slot: launches prefer low indices, so high
      // slots are the coldest and repowering cost stays on the fringe.
      power_down(free_nodes_.back());
      --budget;
    }
  }
  schedule_elastic_tick();
}

void JobManager::begin_power_up(int node) {
  provisioning_slot_[static_cast<std::size_t>(node)] = 1;
  ++provisioning_;
  ++result_.scale_out_events;
  // Billing starts at the provisioning decision — a booting node costs
  // money before it serves jobs, which is exactly the elasticity tax the
  // node-seconds metric should expose.
  power_on_at_[static_cast<std::size_t>(node)] = engine_.now();
  engine_.after(base_.elastic.provision_delay,
                [this, node] { power_up(node); });
}

void JobManager::power_up(int node) {
  provisioning_slot_[static_cast<std::size_t>(node)] = 0;
  --provisioning_;
  powered_[static_cast<std::size_t>(node)] = 1;
  free_nodes_.insert(
      std::upper_bound(free_nodes_.begin(), free_nodes_.end(), node), node);
  peak_powered_ = std::max(peak_powered_, powered_count());
  try_dispatch();
}

void JobManager::power_down(int node) {
  const auto it =
      std::find(free_nodes_.begin(), free_nodes_.end(), node);
  if (it == free_nodes_.end()) {
    throw std::logic_error("JobManager: powering down a non-free node");
  }
  free_nodes_.erase(it);
  powered_[static_cast<std::size_t>(node)] = 0;
  node_seconds_ +=
      engine_.now() - power_on_at_[static_cast<std::size_t>(node)];
  ++result_.scale_in_events;
}

core::RuntimeConfig JobManager::job_config(const JobTemplate& tpl,
                                           const std::vector<int>& nodes,
                                           std::uint64_t job_seed) const {
  core::RuntimeConfig cfg = base_;
  cfg.cluster.nodes.clear();
  for (int n : nodes) {
    cfg.cluster.nodes.push_back(
        base_.cluster.nodes[static_cast<std::size_t>(n)]);
  }
  if (svc_.fabric_pressure > 0.0 && running_ > 1) {
    // Static cross-tenant derating: the partition's share of the backbone
    // shrinks with the number of co-running neighbours at launch.
    cfg.cluster.link.bandwidth /=
        1.0 + svc_.fabric_pressure * static_cast<double>(running_ - 1);
  }
  cfg.appranks_per_node = tpl.appranks_per_node;
  cfg.degree = std::min(tpl.degree, tpl.nodes);
  cfg.seed = job_seed;
  cfg.record_traces = false;
  cfg.elastic = elastic::ElasticConfig{};  // pool elasticity is ours alone
  return cfg;
}

}  // namespace tlb::svc
