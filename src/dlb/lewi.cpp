#include "dlb/lewi.hpp"

#include <bit>

namespace tlb::dlb {

namespace {

/// Calls `fn(core)` for every set bit of `bits` (word `word` of a core set)
/// in ascending core order. `bits` is a copy, so `fn` may change the set it
/// came from: a LeWI step on one core never adds another core to the set.
template <typename Fn>
void for_each_core(int word, std::uint64_t bits, Fn&& fn) {
  for (; bits != 0; bits &= bits - 1) {
    if (!fn(word * 64 + std::countr_zero(bits))) return;
  }
}

}  // namespace

int LewiModule::lend_idle(WorkerId w) {
  if (!enabled_) return 0;
  int moved = 0;
  for (int word = 0; word < cores_.words(); ++word) {
    for_each_core(word, cores_.idle_leased_word(w, word), [&](int core) {
      if (cores_.owner(core) == w) {
        // Do not lend a core that someone is already waiting to take over
        // (a pending DROM transfer): let the transfer complete instead.
        if (cores_.reclaim_pending(core)) return true;
        cores_.lend(core);
        ++lends_;
      } else {
        cores_.release_borrowed(core);
      }
      ++moved;
      return true;
    });
  }
  return moved;
}

int LewiModule::borrow(WorkerId w, int max_cores) {
  if (!enabled_ || max_cores <= 0) return 0;
  int got = 0;
  for (int word = 0; word < cores_.words() && got < max_cores; ++word) {
    for_each_core(word, cores_.pooled_word(word), [&](int core) {
      if (got >= max_cores) return false;
      if (cores_.owner(core) == w) return true;  // own cores: reclaim
      if (cores_.try_borrow(core, w)) {
        ++got;
        ++borrows_;
      }
      return true;
    });
  }
  return got;
}

int LewiModule::reclaim_for(WorkerId w, int needed) {
  if (!enabled_ || needed <= 0) return 0;
  int issued = 0;
  for (int word = 0; word < cores_.words() && issued < needed; ++word) {
    for_each_core(word, cores_.reclaimable_word(w, word), [&](int core) {
      if (issued >= needed) return false;
      cores_.reclaim(core);
      ++reclaims_;
      ++issued;
      return true;
    });
  }
  return issued;
}

}  // namespace tlb::dlb
