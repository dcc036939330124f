// Unit tests for the DLB modules: core registry, LeWI, DROM, TALP.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "dlb/core_registry.hpp"
#include "dlb/drom.hpp"
#include "dlb/lewi.hpp"
#include "dlb/talp.hpp"

namespace tlb::dlb {
namespace {

TEST(NodeCores, InitialOwnershipAndLease) {
  NodeCores nc(4, 7);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(nc.owner(c), 7);
    EXPECT_EQ(nc.lease(c), 7);
    EXPECT_FALSE(nc.is_running(c));
  }
  EXPECT_EQ(nc.owned_count(7), 4);
  EXPECT_EQ(nc.leased_count(7), 4);
}

TEST(NodeCores, SetOwnerIdleMovesLease) {
  NodeCores nc(2, 0);
  nc.set_owner(0, 1);
  EXPECT_EQ(nc.owner(0), 1);
  EXPECT_EQ(nc.lease(0), 1);
  EXPECT_FALSE(nc.reclaim_pending(0));
}

TEST(NodeCores, SetOwnerRunningDefersLease) {
  NodeCores nc(1, 0);
  nc.task_started(0);
  nc.set_owner(0, 1);
  EXPECT_EQ(nc.owner(0), 1);
  EXPECT_EQ(nc.lease(0), 0);  // still running under the old lease
  EXPECT_TRUE(nc.reclaim_pending(0));
  EXPECT_EQ(nc.task_finished(0), 1);  // transfer applies at the boundary
  EXPECT_EQ(nc.lease(0), 1);
}

TEST(NodeCores, LendBorrowReclaimIdle) {
  NodeCores nc(1, 0);
  nc.lend(0);
  EXPECT_TRUE(nc.is_in_pool(0));
  EXPECT_TRUE(nc.try_borrow(0, 2));
  EXPECT_EQ(nc.lease(0), 2);
  nc.reclaim(0);  // idle: immediate
  EXPECT_EQ(nc.lease(0), 0);
}

TEST(NodeCores, ReclaimRunningBorrowedWaitsForTaskEnd) {
  NodeCores nc(1, 0);
  nc.lend(0);
  ASSERT_TRUE(nc.try_borrow(0, 2));
  nc.task_started(0);
  nc.reclaim(0);
  EXPECT_EQ(nc.lease(0), 2);  // borrower finishes its task
  EXPECT_TRUE(nc.reclaim_pending(0));
  EXPECT_EQ(nc.task_finished(0), 0);
  EXPECT_EQ(nc.lease(0), 0);
  EXPECT_FALSE(nc.reclaim_pending(0));
}

TEST(NodeCores, BorrowFailsWhenNotPooled) {
  NodeCores nc(1, 0);
  EXPECT_FALSE(nc.try_borrow(0, 2));  // not lent
  nc.lend(0);
  ASSERT_TRUE(nc.try_borrow(0, 2));
  EXPECT_FALSE(nc.try_borrow(0, 3));  // already borrowed
}

TEST(NodeCores, ReleaseBorrowedReturnsToPool) {
  NodeCores nc(1, 0);
  nc.lend(0);
  ASSERT_TRUE(nc.try_borrow(0, 2));
  nc.release_borrowed(0);
  EXPECT_TRUE(nc.is_in_pool(0));
}

TEST(NodeCores, ReleaseBorrowedHonoursPendingTransfer) {
  NodeCores nc(1, 0);
  nc.lend(0);
  ASSERT_TRUE(nc.try_borrow(0, 2));
  nc.set_owner(0, 3);  // idle but borrowed: transfer deferred
  EXPECT_EQ(nc.lease(0), 2);
  nc.release_borrowed(0);
  EXPECT_EQ(nc.lease(0), 3);  // pending applied on release
}

TEST(NodeCores, EveryCoreAlwaysHasExactlyOneOwner) {
  NodeCores nc(8, 0);
  nc.set_owner(3, 1);
  nc.set_owner(5, 2);
  int total = 0;
  for (WorkerId w : {0, 1, 2}) total += nc.owned_count(w);
  EXPECT_EQ(total, 8);
  EXPECT_TRUE(nc.check_invariants());
}

TEST(NodeCores, IdleLeasedAndPooledQueries) {
  NodeCores nc(4, 0);
  nc.task_started(1);
  nc.lend(2);
  EXPECT_EQ(nc.idle_leased_count(0), 2);  // cores 0 and 3
  EXPECT_EQ(nc.first_idle_leased(0), 0);
  EXPECT_EQ(nc.pooled_count(), 1);
  EXPECT_EQ(nc.idle_leased_count(1), 0);  // not resident
  EXPECT_EQ(nc.first_idle_leased(1), -1);
}

TEST(Lewi, DisabledIsNoOp) {
  NodeCores nc(2, 0);
  LewiModule lw(nc, false);
  EXPECT_EQ(lw.lend_idle(0), 0);
  EXPECT_EQ(lw.borrow(1, 5), 0);
  EXPECT_EQ(lw.reclaim_for(0, 5), 0);
  EXPECT_EQ(nc.pooled_count(), 0);
}

TEST(Lewi, LendIdleMovesOwnedCoresToPool) {
  NodeCores nc(3, 0);
  nc.task_started(0);
  LewiModule lw(nc, true);
  EXPECT_EQ(lw.lend_idle(0), 2);
  EXPECT_EQ(nc.pooled_count(), 2);
  EXPECT_EQ(lw.lends(), 2u);
}

TEST(Lewi, BorrowTakesUpToLimit) {
  NodeCores nc(4, 0);
  LewiModule lw(nc, true);
  lw.lend_idle(0);
  EXPECT_EQ(lw.borrow(1, 3), 3);
  EXPECT_EQ(nc.leased_count(1), 3);
  EXPECT_EQ(lw.borrows(), 3u);
}

TEST(Lewi, BorrowSkipsOwnCores) {
  NodeCores nc(2, 0);
  LewiModule lw(nc, true);
  lw.lend_idle(0);
  // Worker 0 should reclaim, not borrow, its own pooled cores.
  EXPECT_EQ(lw.borrow(0, 2), 0);
  EXPECT_EQ(lw.reclaim_for(0, 2), 2);
  EXPECT_EQ(nc.leased_count(0), 2);
}

TEST(Lewi, ReclaimOnlyIssuesNeeded) {
  NodeCores nc(4, 0);
  LewiModule lw(nc, true);
  lw.lend_idle(0);
  EXPECT_EQ(lw.reclaim_for(0, 2), 2);
  EXPECT_EQ(nc.leased_count(0), 2);
  EXPECT_EQ(nc.pooled_count(), 2);
}

TEST(Lewi, LendIdleReleasesBorrowedCores) {
  NodeCores nc(2, 0);
  LewiModule lw(nc, true);
  lw.lend_idle(0);
  ASSERT_EQ(lw.borrow(1, 2), 2);
  EXPECT_EQ(lw.lend_idle(1), 2);  // releases them back to the pool
  EXPECT_EQ(nc.pooled_count(), 2);
}

TEST(Drom, DisabledIsNoOp) {
  NodeCores nc(4, 0);
  DromModule dm(nc, false);
  EXPECT_EQ(dm.apply({{0, 1}, {1, 3}}), 0);
  EXPECT_EQ(nc.owned_count(0), 4);
}

TEST(Drom, AppliesTargetCounts) {
  NodeCores nc(8, 0);
  DromModule dm(nc, true);
  const int moved = dm.apply({{0, 5}, {1, 2}, {2, 1}});
  EXPECT_EQ(moved, 3);
  EXPECT_EQ(nc.owned_count(0), 5);
  EXPECT_EQ(nc.owned_count(1), 2);
  EXPECT_EQ(nc.owned_count(2), 1);
  EXPECT_TRUE(nc.check_invariants());
}

TEST(Drom, MinimalMovesWhenAlreadyBalanced) {
  NodeCores nc(4, 0);
  DromModule dm(nc, true);
  dm.apply({{0, 2}, {1, 2}});
  EXPECT_EQ(dm.apply({{0, 2}, {1, 2}}), 0);  // no change needed
}

TEST(Drom, PrefersIdleDonorCores) {
  NodeCores nc(3, 0);
  nc.task_started(0);  // core 0 busy
  DromModule dm(nc, true);
  dm.apply({{0, 1}, {1, 2}});
  // The running core 0 should stay with worker 0; cores 1 and 2 moved.
  EXPECT_EQ(nc.owner(0), 0);
  EXPECT_EQ(nc.owner(1), 1);
  EXPECT_EQ(nc.owner(2), 1);
}

TEST(Drom, MovesRunningCoreWhenUnavoidable) {
  NodeCores nc(2, 0);
  nc.task_started(0);
  nc.task_started(1);
  DromModule dm(nc, true);
  dm.apply({{0, 1}, {1, 1}});
  EXPECT_EQ(nc.owned_count(1), 1);
  // Lease transfers only at the task boundary.
  const int moved_core = nc.owner(0) == 1 ? 0 : 1;
  EXPECT_TRUE(nc.reclaim_pending(moved_core));
}

// --- Kept core sets vs. a brute-force scan -----------------------------------

// The per-core scans the kept sets replace, written against the per-core
// accessors only: the reference the randomized sequence below checks both
// the queries and LeWI's core choice against.
std::vector<int> scan_idle_leased(const NodeCores& nc, WorkerId w) {
  std::vector<int> out;
  for (int c = 0; c < nc.core_count(); ++c) {
    if (nc.lease(c) == w && !nc.is_running(c)) out.push_back(c);
  }
  return out;
}

std::vector<int> scan_pooled(const NodeCores& nc) {
  std::vector<int> out;
  for (int c = 0; c < nc.core_count(); ++c) {
    if (nc.is_in_pool(c)) out.push_back(c);
  }
  return out;
}

std::vector<int> scan_reclaimable(const NodeCores& nc, WorkerId w) {
  std::vector<int> out;
  for (int c = 0; c < nc.core_count(); ++c) {
    if (nc.owner(c) == w && nc.lease(c) != w && nc.pending_lease(c) != w) {
      out.push_back(c);
    }
  }
  return out;
}

std::vector<int> bits_of(const NodeCores& nc, auto word) {
  std::vector<int> out;
  for (int i = 0; i < nc.words(); ++i) {
    for (int b = 0; b < 64; ++b) {
      if ((word(i) >> b) & 1u) out.push_back(i * 64 + b);
    }
  }
  return out;
}

// LeWI as it was written before the kept sets: snapshot a scan, then act.
int ref_lend_idle(NodeCores& nc, WorkerId w) {
  int moved = 0;
  for (int core : scan_idle_leased(nc, w)) {
    if (nc.owner(core) == w) {
      if (nc.reclaim_pending(core)) continue;
      nc.lend(core);
    } else {
      nc.release_borrowed(core);
    }
    ++moved;
  }
  return moved;
}

int ref_borrow(NodeCores& nc, WorkerId w, int max_cores) {
  int got = 0;
  if (max_cores <= 0) return got;
  for (int core : scan_pooled(nc)) {
    if (got >= max_cores) break;
    if (nc.owner(core) == w) continue;
    if (nc.try_borrow(core, w)) ++got;
  }
  return got;
}

int ref_reclaim_for(NodeCores& nc, WorkerId w, int needed) {
  int issued = 0;
  for (int core = 0; core < nc.core_count() && issued < needed; ++core) {
    if (nc.owner(core) != w || nc.lease(core) == w) continue;
    if (nc.pending_lease(core) == w) continue;
    nc.reclaim(core);
    ++issued;
  }
  return issued;
}

void expect_same_cores(const NodeCores& a, const NodeCores& b, int step) {
  for (int c = 0; c < a.core_count(); ++c) {
    ASSERT_EQ(a.owner(c), b.owner(c)) << "step " << step << " core " << c;
    ASSERT_EQ(a.lease(c), b.lease(c)) << "step " << step << " core " << c;
    ASSERT_EQ(a.pending_lease(c), b.pending_lease(c))
        << "step " << step << " core " << c;
    ASSERT_EQ(a.is_running(c), b.is_running(c))
        << "step " << step << " core " << c;
  }
}

void expect_queries_match_scan(const NodeCores& nc,
                               const std::vector<WorkerId>& workers,
                               int step) {
  ASSERT_TRUE(nc.check_invariants()) << "step " << step;
  const std::vector<int> pooled = scan_pooled(nc);
  ASSERT_EQ(nc.pooled_count(), static_cast<int>(pooled.size()))
      << "step " << step;
  ASSERT_EQ(bits_of(nc, [&](int i) { return nc.pooled_word(i); }), pooled)
      << "step " << step;
  for (WorkerId w : workers) {
    int owned = 0;
    for (int c = 0; c < nc.core_count(); ++c) owned += nc.owner(c) == w;
    ASSERT_EQ(nc.owned_count(w), owned) << "step " << step << " w " << w;
    const std::vector<int> idle = scan_idle_leased(nc, w);
    ASSERT_EQ(nc.idle_leased_count(w), static_cast<int>(idle.size()))
        << "step " << step << " w " << w;
    ASSERT_EQ(nc.first_idle_leased(w), idle.empty() ? -1 : idle.front())
        << "step " << step << " w " << w;
    ASSERT_EQ(bits_of(nc, [&](int i) { return nc.idle_leased_word(w, i); }),
              idle)
        << "step " << step << " w " << w;
    ASSERT_EQ(bits_of(nc, [&](int i) { return nc.reclaimable_word(w, i); }),
              scan_reclaimable(nc, w))
        << "step " << step << " w " << w;
  }
}

TEST(NodeCores, RandomizedSequenceKeepsSetsEqualToScan) {
  // 80 cores: every set spans two words, and core 63/64 straddle them.
  constexpr int kCores = 80;
  const std::vector<WorkerId> residents = {10, 11, 12, 13};
  // 99 never owns or leases a core: its queries must read empty.
  std::vector<WorkerId> queried = residents;
  queried.push_back(99);

  NodeCores fast(kCores, residents.front());
  NodeCores ref(kCores, residents.front());
  LewiModule lewi(fast, true);
  DromModule drom_fast(fast, true);
  DromModule drom_ref(ref, true);
  std::mt19937_64 rng(0x5eed16);
  auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  auto random_target = [&] {
    // Every resident owns >= 1 core; the rest split at random.
    std::vector<std::pair<WorkerId, int>> target;
    for (WorkerId w : residents) target.emplace_back(w, 1);
    for (int c = static_cast<int>(residents.size()); c < kCores; ++c) {
      target[static_cast<std::size_t>(pick(4))].second += 1;
    }
    return target;
  };
  {
    const auto target = random_target();
    drom_fast.apply(target);
    drom_ref.apply(target);
  }
  expect_queries_match_scan(fast, queried, -1);

  int drom_steps = 0;
  int two_word_walks = 0;
  for (int step = 0; step < 4000; ++step) {
    const WorkerId w = residents[static_cast<std::size_t>(pick(4))];
    switch (pick(7)) {
      case 0:
        ASSERT_EQ(lewi.lend_idle(w), ref_lend_idle(ref, w));
        break;
      case 1: {
        const int k = pick(kCores);
        ASSERT_EQ(lewi.borrow(w, k), ref_borrow(ref, w, k));
        break;
      }
      case 2: {
        const int k = pick(kCores);
        ASSERT_EQ(lewi.reclaim_for(w, k), ref_reclaim_for(ref, w, k));
        break;
      }
      case 3:
      case 4: {  // start a task on one of w's idle leased cores
        const std::vector<int> idle = scan_idle_leased(fast, w);
        if (idle.empty()) break;
        const int core = idle[static_cast<std::size_t>(
            pick(static_cast<int>(idle.size())))];
        two_word_walks += idle.front() < 64 && idle.back() >= 64;
        fast.task_started(core);
        ref.task_started(core);
        break;
      }
      case 5: {  // finish a random running task
        std::vector<int> running;
        for (int c = 0; c < kCores; ++c) {
          if (fast.is_running(c)) running.push_back(c);
        }
        if (running.empty()) break;
        const int core = running[static_cast<std::size_t>(
            pick(static_cast<int>(running.size())))];
        ASSERT_EQ(fast.task_finished(core), ref.task_finished(core));
        break;
      }
      case 6: {
        const auto target = random_target();
        ASSERT_EQ(drom_fast.apply(target), drom_ref.apply(target));
        ++drom_steps;
        break;
      }
    }
    expect_same_cores(fast, ref, step);
    expect_queries_match_scan(fast, queried, step);
  }
  // The sequence must actually exercise DROM and two-word idle sets.
  EXPECT_GT(drom_steps, 100);
  EXPECT_GT(two_word_walks, 100);
}

TEST(Talp, AccumulatesBusyTime) {
  double now = 0.0;
  TalpModule talp([&] { return now; }, 2);
  talp.on_busy_delta(0, +1);
  now = 2.0;
  talp.on_busy_delta(0, +1);
  now = 3.0;
  talp.on_busy_delta(0, -2);
  EXPECT_DOUBLE_EQ(talp.busy_core_seconds(0), 2.0 * 1 + 1.0 * 2);
  EXPECT_DOUBLE_EQ(talp.busy_core_seconds(1), 0.0);
}

TEST(Talp, WindowAverage) {
  double now = 0.0;
  TalpModule talp([&] { return now; }, 1);
  talp.on_busy_delta(0, +1);
  now = 1.0;
  EXPECT_DOUBLE_EQ(talp.window_average(0), 1.0);
  talp.reset_window();
  now = 2.0;
  talp.on_busy_delta(0, +1);  // two busy from t=2
  now = 4.0;
  // Window [1, 4): busy 1 for 1s then 2 for 2s => 5/3.
  EXPECT_NEAR(talp.window_average(0), 5.0 / 3.0, 1e-12);
}

TEST(Talp, ResetWindowClearsOnlyWindow) {
  double now = 0.0;
  TalpModule talp([&] { return now; }, 1);
  talp.on_busy_delta(0, +1);
  now = 5.0;
  talp.reset_window();
  EXPECT_DOUBLE_EQ(talp.busy_core_seconds(0), 5.0);
  now = 6.0;
  EXPECT_DOUBLE_EQ(talp.window_average(0), 1.0);
}

TEST(Talp, EfficiencyAgainstAssignedCores) {
  double now = 0.0;
  TalpModule talp([&] { return now; }, 1);
  talp.on_busy_delta(0, +1);
  now = 10.0;
  // 10 busy core-seconds over 10 s with 2 cores assigned -> 0.5.
  EXPECT_DOUBLE_EQ(talp.efficiency(0, 2.0), 0.5);
}

TEST(Talp, CurrentBusyTracksDeltas) {
  double now = 0.0;
  TalpModule talp([&] { return now; }, 1);
  EXPECT_EQ(talp.current_busy(0), 0);
  talp.on_busy_delta(0, +1);
  talp.on_busy_delta(0, +1);
  EXPECT_EQ(talp.current_busy(0), 2);
  talp.on_busy_delta(0, -1);
  EXPECT_EQ(talp.current_busy(0), 1);
}

}  // namespace
}  // namespace tlb::dlb
