#include "sched/registry.hpp"

#include <stdexcept>
#include <utility>

#include "sched/policies.hpp"

namespace tlb::sched {

namespace {

struct Entry {
  const char* name;
  PolicyFactory make;
};

constexpr Entry kBuiltins[] = {
    {"locality",
     [](const SchedConfig&, const RuntimeView& view)
         -> std::unique_ptr<Scheduler> {
       return std::make_unique<LocalityScheduler>(view);
     }},
    {"congestion",
     [](const SchedConfig&, const RuntimeView& view)
         -> std::unique_ptr<Scheduler> {
       return std::make_unique<CongestionScheduler>(view);
     }},
    {"waittime",
     [](const SchedConfig&, const RuntimeView& view)
         -> std::unique_ptr<Scheduler> {
       return std::make_unique<WaittimeScheduler>(view);
     }},
    {"adaptive",
     [](const SchedConfig& config, const RuntimeView& view)
         -> std::unique_ptr<Scheduler> {
       return std::make_unique<AdaptiveScheduler>(config, view);
     }},
};

/// Extension entries added through register_policy (tlb::hier's "hier").
/// Function-local static so registration from any static-initialization
/// context is safe; insertion order is preserved for known_policies().
std::vector<std::pair<std::string, PolicyFactory>>& extensions() {
  static std::vector<std::pair<std::string, PolicyFactory>> ext;
  return ext;
}

}  // namespace

std::vector<std::string> known_policies() {
  std::vector<std::string> names;
  for (const Entry& e : kBuiltins) names.emplace_back(e.name);
  for (const auto& [name, make] : extensions()) names.push_back(name);
  return names;
}

bool policy_registered(const std::string& name) {
  for (const Entry& e : kBuiltins) {
    if (name == e.name) return true;
  }
  for (const auto& [ext, make] : extensions()) {
    if (name == ext) return true;
  }
  return false;
}

void register_policy(const std::string& name, PolicyFactory make) {
  if (make == nullptr) {
    throw std::invalid_argument("sched::register_policy: null factory for '" +
                                name + "'");
  }
  if (policy_registered(name)) {
    throw std::invalid_argument("sched::register_policy: policy '" + name +
                                "' is already registered");
  }
  extensions().emplace_back(name, make);
}

std::unique_ptr<Scheduler> make_scheduler(const SchedConfig& config,
                                          const RuntimeView& view) {
  for (const Entry& e : kBuiltins) {
    if (config.policy == e.name) return e.make(config, view);
  }
  for (const auto& [name, make] : extensions()) {
    if (config.policy == name) return make(config, view);
  }
  std::string valid;
  for (const std::string& name : known_policies()) {
    if (!valid.empty()) valid += ", ";
    valid += name;
  }
  throw std::invalid_argument("RuntimeConfig::sched: unknown scheduling "
                              "policy '" +
                              config.policy + "'; valid values: " + valid);
}

}  // namespace tlb::sched
