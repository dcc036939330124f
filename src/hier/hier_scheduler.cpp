#include "hier/hier_scheduler.hpp"

#include <memory>

#include "sched/registry.hpp"

namespace tlb::hier {

void register_policies() {
  if (sched::policy_registered("hier")) return;  // idempotent
  sched::register_policy(
      "hier",
      [](const sched::SchedConfig&, const sched::RuntimeView& view)
          -> std::unique_ptr<sched::Scheduler> {
        return std::make_unique<HierScheduler>(HierConfig{}, view);
      });
}

}  // namespace tlb::hier
