// Core ownership and leasing state for one node (DLB's shared-memory view).
//
// Every physical core of a node is *owned* by exactly one worker process
// (an apprank or a helper rank) at all times — the DROM invariant. The
// *lease* tracks who may currently run tasks on the core:
//   - normally the owner;
//   - kNoWorker while the core sits in the LeWI lending pool;
//   - a borrower after LeWI borrowing.
// Reclaims (by the owner) and ownership changes (by DROM) that hit a core
// in the middle of a task take effect at the task boundary — a task is
// never preempted, matching OmpSs-2 malleability semantics.
//
// The sets LeWI and the runtime ask about at every task boundary are kept
// up to date by the mutators, so a query costs O(1) or O(words) instead of
// a scan over every core (real DLB answers them from shared memory):
//   - per resident worker: its owned-core count, the idle cores leased to
//     it, and the owned cores it could reclaim (lent out, no transfer back
//     pending);
//   - the lending pool.
// Sets are word bitmasks (a node may have more than 64 cores); bit `c % 64`
// of word `c / 64` stands for core c, so walking set bits in word order
// visits cores in ascending index order.
#pragma once

#include <cstdint>
#include <vector>

namespace tlb::dlb {

/// Globally unique worker-process id (apprank main process or helper rank).
using WorkerId = int;
inline constexpr WorkerId kNoWorker = -1;

class NodeCores {
 public:
  /// All cores initially owned (and leased) by `initial_owner`.
  NodeCores(int core_count, WorkerId initial_owner);

  [[nodiscard]] int core_count() const { return static_cast<int>(cores_.size()); }
  /// Number of 64-bit words in every core set.
  [[nodiscard]] int words() const { return static_cast<int>(pool_.size()); }

  [[nodiscard]] WorkerId owner(int core) const {
    return worker(at(core).owner);
  }
  [[nodiscard]] WorkerId lease(int core) const {
    return worker(at(core).lease);
  }
  [[nodiscard]] bool is_running(int core) const { return at(core).running; }
  [[nodiscard]] bool is_in_pool(int core) const {
    return at(core).lease == kNoSlot;
  }
  [[nodiscard]] bool reclaim_pending(int core) const {
    return at(core).pending != kNoSlot;
  }
  /// Who the core will be leased to at the next task boundary (kNoWorker if
  /// no transfer is pending).
  [[nodiscard]] WorkerId pending_lease(int core) const {
    return worker(at(core).pending);
  }

  // --- DROM: ownership -----------------------------------------------------

  /// Transfers ownership. If the core is idle and was leased to the old
  /// owner (or pooled), the lease moves immediately; if it is running a
  /// task, the transfer completes at the next task_finished().
  void set_owner(int core, WorkerId new_owner);

  // --- LeWI: lend / borrow / reclaim ----------------------------------------

  /// Owner stops using an idle core: it enters the lending pool.
  /// Requires: lease == owner, not running.
  void lend(int core);

  /// A worker takes an idle pooled core. Returns false if unavailable.
  bool try_borrow(int core, WorkerId borrower);

  /// Borrower voluntarily returns an idle core to the pool.
  /// Requires: leased to a non-owner, not running.
  void release_borrowed(int core);

  /// Owner wants its core back. Immediate when the core is idle; otherwise
  /// marked pending and applied at task_finished(). No-op when the owner
  /// already holds the lease.
  void reclaim(int core);

  // --- execution notifications ----------------------------------------------

  /// Runtime marks a task starting on the core (requires leased, idle).
  void task_started(int core);

  /// Runtime marks the task done. Applies any pending lease transfer and
  /// returns the worker now holding the lease.
  WorkerId task_finished(int core);

  // --- queries ----------------------------------------------------------------

  [[nodiscard]] int owned_count(WorkerId w) const;
  /// Cores leased to `w`, running or not (a scan; diagnostics and tests).
  [[nodiscard]] int leased_count(WorkerId w) const;
  /// Cores leased to `w` and idle.
  [[nodiscard]] int idle_leased_count(WorkerId w) const;
  /// Lowest-index core leased to `w` and idle, or -1 if there is none.
  [[nodiscard]] int first_idle_leased(WorkerId w) const;
  /// Cores currently in the lending pool.
  [[nodiscard]] int pooled_count() const { return pooled_; }

  /// Word `i` of the set of cores leased to `w` and idle.
  [[nodiscard]] std::uint64_t idle_leased_word(WorkerId w, int i) const;
  /// Word `i` of the set of cores `w` owns but neither holds nor has on its
  /// way back (lease elsewhere, no transfer to `w` pending): what
  /// reclaim() would act on.
  [[nodiscard]] std::uint64_t reclaimable_word(WorkerId w, int i) const;
  /// Word `i` of the lending pool.
  [[nodiscard]] std::uint64_t pooled_word(int i) const {
    return pool_[static_cast<std::size_t>(i)];
  }

  /// Consistency check: every core has an owner, lease/pending states are
  /// mutually consistent, and every kept set and count equals its
  /// recomputation from the per-core state. Returns false on a violation.
  [[nodiscard]] bool check_invariants() const;

 private:
  static constexpr int kNoSlot = -1;
  static constexpr int kBusy = -2;  // holder of a running core: no idle set
  /// One core, with workers named by their index in slots_ so that keeping
  /// the sets up to date needs no lookup.
  struct Core {
    int owner = kNoSlot;
    int lease = kNoSlot;    // kNoSlot while pooled
    int pending = kNoSlot;  // lease transfer applied at task end
    bool running = false;
  };
  /// One resident worker (owner or lessee of some core) and its counts;
  /// its sets are words [slot * words(), (slot + 1) * words()) of idle_
  /// and reclaimable_.
  struct Slot {
    WorkerId worker = kNoWorker;
    int owned = 0;
    int idle_count = 0;
  };

  [[nodiscard]] const Core& at(int core) const {
    return cores_.at(static_cast<std::size_t>(core));
  }
  [[nodiscard]] Core& at(int core) {
    return cores_.at(static_cast<std::size_t>(core));
  }
  [[nodiscard]] WorkerId worker(int slot) const {
    return slot == kNoSlot ? kNoWorker
                           : slots_[static_cast<std::size_t>(slot)].worker;
  }
  /// Slot index of `w`, or kNoSlot if it never owned or leased a core here.
  [[nodiscard]] int find(WorkerId w) const;
  /// Slot index of `w`, created on first use.
  int slot(WorkerId w);
  /// Brings the kept sets up to date after cores_[core] changed from
  /// `before`, touching only the sets whose membership changed. Every
  /// mutator calls it once after changing a core.
  void sync(int core, const Core& before);
  /// Adds (sign +1) or removes (-1) `core` from the idle set of `holder`:
  /// a slot's idle set, the pool (kNoSlot) or none (kBusy).
  void hold(int core, int holder, int sign);
  [[nodiscard]] std::size_t word_index(int slot, int i) const {
    return static_cast<std::size_t>(slot) * pool_.size() +
           static_cast<std::size_t>(i);
  }

  std::vector<Core> cores_;
  std::vector<Slot> slots_;  // this node's residents only; a linear find
  std::vector<std::uint64_t> idle_;         // per slot: leased, not running
  std::vector<std::uint64_t> reclaimable_;  // per slot: see reclaimable_word()
  std::vector<std::uint64_t> pool_;
  int pooled_ = 0;
};

}  // namespace tlb::dlb
