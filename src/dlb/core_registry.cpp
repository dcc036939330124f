#include "dlb/core_registry.hpp"

#include <bit>
#include <cassert>

namespace tlb::dlb {

namespace {

constexpr int kWordBits = 64;

// Cores are never negative; unsigned division and modulo compile to a
// plain shift and mask.
int word_of(int core) {
  return static_cast<int>(static_cast<unsigned>(core) / kWordBits);
}
std::uint64_t bit_of(int core) {
  return std::uint64_t{1} << (static_cast<unsigned>(core) % kWordBits);
}

}  // namespace

NodeCores::NodeCores(int core_count, WorkerId initial_owner)
    : cores_(static_cast<std::size_t>(core_count)),
      pool_(static_cast<std::size_t>((core_count + kWordBits - 1) /
                                     kWordBits)) {
  assert(core_count > 0);
  assert(initial_owner != kNoWorker);
  const int s = slot(initial_owner);
  for (Core& c : cores_) {
    c.owner = s;
    c.lease = s;
  }
  slots_[static_cast<std::size_t>(s)].owned = core_count;
  slots_[static_cast<std::size_t>(s)].idle_count = core_count;
  for (int core = 0; core < core_count; ++core) {
    idle_[word_index(s, word_of(core))] |= bit_of(core);
  }
}

int NodeCores::find(WorkerId w) const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].worker == w) return static_cast<int>(i);
  }
  return kNoSlot;
}

int NodeCores::slot(WorkerId w) {
  const int found = find(w);
  if (found != kNoSlot) return found;
  slots_.push_back(Slot{w, 0, 0});
  idle_.resize(idle_.size() + pool_.size(), 0);
  reclaimable_.resize(reclaimable_.size() + pool_.size(), 0);
  return static_cast<int>(slots_.size()) - 1;
}

void NodeCores::hold(int core, int holder, int sign) {
  if (holder == kBusy) return;
  std::uint64_t& bits =
      holder == kNoSlot ? pool_[static_cast<std::size_t>(word_of(core))]
                        : idle_[word_index(holder, word_of(core))];
  assert(((bits & bit_of(core)) != 0) == (sign < 0) && "set out of sync");
  bits ^= bit_of(core);
  (holder == kNoSlot ? pooled_
                     : slots_[static_cast<std::size_t>(holder)].idle_count) +=
      sign;
}

void NodeCores::sync(int core, const Core& before) {
  const Core& after = cores_[static_cast<std::size_t>(core)];
  if (before.owner != after.owner) {
    slots_[static_cast<std::size_t>(before.owner)].owned -= 1;
    slots_[static_cast<std::size_t>(after.owner)].owned += 1;
  }
  // The owner may reclaim the core while its lease is elsewhere and no
  // transfer back is pending.
  const auto reclaimer = [](const Core& c) {
    return c.lease != c.owner && c.pending != c.owner ? c.owner : kNoSlot;
  };
  const int r0 = reclaimer(before);
  const int r1 = reclaimer(after);
  if (r0 != r1) {
    const int word = word_of(core);
    if (r0 != kNoSlot) reclaimable_[word_index(r0, word)] ^= bit_of(core);
    if (r1 != kNoSlot) reclaimable_[word_index(r1, word)] ^= bit_of(core);
  }
  const int h0 = before.running ? kBusy : before.lease;
  const int h1 = after.running ? kBusy : after.lease;
  if (h0 != h1) {
    hold(core, h0, -1);
    hold(core, h1, +1);
  }
}

void NodeCores::set_owner(int core, WorkerId new_owner) {
  assert(new_owner != kNoWorker);
  const int to = slot(new_owner);
  Core& c = at(core);
  const int from = c.owner;
  if (from == to) return;
  const Core before = c;
  c.owner = to;
  if (c.lease == to) {
    // The new owner already holds the lease (it borrowed the core):
    // nothing to hand over, running or not.
    c.pending = kNoSlot;
  } else if (!c.running && (c.lease == from || c.lease == kNoSlot)) {
    // Idle and held by the old owner or pooled: the lease moves now.
    c.lease = to;
    c.pending = kNoSlot;
  } else {
    // Mid-task, or borrowed by a third party: hand over at the boundary.
    c.pending = to;
  }
  sync(core, before);
}

void NodeCores::lend(int core) {
  Core& c = at(core);
  assert(c.lease == c.owner && "only the owner's lease can be lent");
  assert(!c.running && "cannot lend a running core");
  const Core before = c;
  c.lease = kNoSlot;
  sync(core, before);
}

bool NodeCores::try_borrow(int core, WorkerId borrower) {
  assert(borrower != kNoWorker);
  if (at(core).lease != kNoSlot || at(core).running) return false;
  const int s = slot(borrower);  // may grow slots_, never cores_
  Core& c = at(core);
  const Core before = c;
  c.lease = s;
  sync(core, before);
  return true;
}

void NodeCores::release_borrowed(int core) {
  Core& c = at(core);
  assert(c.lease != kNoSlot && c.lease != c.owner &&
         "release_borrowed requires a borrower lease");
  assert(!c.running);
  const Core before = c;
  c.lease = c.pending;  // the pending transfer, or back to the pool
  c.pending = kNoSlot;
  sync(core, before);
}

void NodeCores::reclaim(int core) {
  Core& c = at(core);
  if (c.lease == c.owner) return;  // already ours
  const Core before = c;
  if (!c.running) {
    c.lease = c.owner;
    c.pending = kNoSlot;
  } else {
    c.pending = c.owner;
  }
  sync(core, before);
}

void NodeCores::task_started(int core) {
  Core& c = at(core);
  assert(c.lease != kNoSlot && "task on an unleased core");
  assert(!c.running && "core already running a task");
  const Core before = c;
  c.running = true;
  sync(core, before);
}

WorkerId NodeCores::task_finished(int core) {
  Core& c = at(core);
  assert(c.running);
  const Core before = c;
  c.running = false;
  if (c.pending != kNoSlot) {
    c.lease = c.pending;
    c.pending = kNoSlot;
  }
  sync(core, before);
  return worker(c.lease);
}

int NodeCores::owned_count(WorkerId w) const {
  const int s = find(w);
  return s == kNoSlot ? 0 : slots_[static_cast<std::size_t>(s)].owned;
}

int NodeCores::leased_count(WorkerId w) const {
  int n = 0;
  for (int core = 0; core < core_count(); ++core) n += (lease(core) == w);
  return n;
}

int NodeCores::idle_leased_count(WorkerId w) const {
  const int s = find(w);
  return s == kNoSlot ? 0 : slots_[static_cast<std::size_t>(s)].idle_count;
}

int NodeCores::first_idle_leased(WorkerId w) const {
  const int s = find(w);
  if (s == kNoSlot) return -1;
  for (int i = 0; i < words(); ++i) {
    if (const std::uint64_t bits = idle_[word_index(s, i)]; bits != 0) {
      return i * kWordBits + std::countr_zero(bits);
    }
  }
  return -1;
}

std::uint64_t NodeCores::idle_leased_word(WorkerId w, int i) const {
  const int s = find(w);
  return s == kNoSlot ? 0 : idle_[word_index(s, i)];
}

std::uint64_t NodeCores::reclaimable_word(WorkerId w, int i) const {
  const int s = find(w);
  return s == kNoSlot ? 0 : reclaimable_[word_index(s, i)];
}

bool NodeCores::check_invariants() const {
  const int slots = static_cast<int>(slots_.size());
  const auto valid = [&](int s) { return s >= 0 && s < slots; };
  for (const Core& c : cores_) {
    if (!valid(c.owner)) return false;  // ownerless core
    if (c.lease != kNoSlot && !valid(c.lease)) return false;
    if (c.pending != kNoSlot && !valid(c.pending)) return false;
    if (c.running && c.lease == kNoSlot) return false;  // unleased run
    if (c.pending != kNoSlot && c.pending == c.lease) return false;
  }
  for (int s = 0; s < slots; ++s) {  // one slot per worker
    if (find(slots_[static_cast<std::size_t>(s)].worker) != s) return false;
  }
  // Recompute every kept set straight from the per-core state.
  std::vector<std::uint64_t> pool(pool_.size(), 0);
  int pooled = 0;
  for (int core = 0; core < core_count(); ++core) {
    if (cores_[static_cast<std::size_t>(core)].lease == kNoSlot) {
      pool[static_cast<std::size_t>(word_of(core))] |= bit_of(core);
      ++pooled;
    }
  }
  if (pool != pool_ || pooled != pooled_) return false;
  for (int s = 0; s < slots; ++s) {
    std::vector<std::uint64_t> idle(pool_.size(), 0);
    std::vector<std::uint64_t> reclaimable(pool_.size(), 0);
    int owned = 0;
    int idle_count = 0;
    for (int core = 0; core < core_count(); ++core) {
      const Core& c = cores_[static_cast<std::size_t>(core)];
      if (c.owner == s) {
        ++owned;
        if (c.lease != s && c.pending != s) {
          reclaimable[static_cast<std::size_t>(word_of(core))] |= bit_of(core);
        }
      }
      if (c.lease == s && !c.running) {
        idle[static_cast<std::size_t>(word_of(core))] |= bit_of(core);
        ++idle_count;
      }
    }
    const Slot& slot = slots_[static_cast<std::size_t>(s)];
    if (owned != slot.owned || idle_count != slot.idle_count) return false;
    for (int i = 0; i < words(); ++i) {
      if (idle[static_cast<std::size_t>(i)] != idle_[word_index(s, i)] ||
          reclaimable[static_cast<std::size_t>(i)] !=
              reclaimable_[word_index(s, i)]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace tlb::dlb
