// Phase-concurrent open-addressing hash map from 64-bit keys to int64_t
// values, in the style of Gil--Matias--Vishkin / the ParlayLib hash table:
// concurrent inserts are lock-free (linear probing with CAS), deletes use
// tombstones, and resizing happens only at phase boundaries
// (single-threaded callers). This matches how the paper's batch-update
// algorithms use tables: one phase inserts, a barrier, then another phase
// reads or deletes.
#pragma once

#include <atomic>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"
#include "util/fault.h"
#include "util/random.h"

namespace ufo::par {

// Concurrency contract: concurrent inserts and concurrent erases are safe
// within a phase, lookups are safe in read phases, and capacity growth
// happens only at phase boundaries. Concurrent inserts of one key must
// carry equal values: exactly one caller reports the key fresh, and the
// slot holds that value. A value written by insert_concurrent becomes
// visible to readers after the phase barrier (the fork-join join publishes
// it); phases that mix inserts and reads of the same key are not
// supported, matching how the connectivity layer uses it (bulk edge
// inserts, then queries). Telemetry counters keep their `hash.set.` names,
// which the benchmark's per-layer metrics and the CI telemetry job read.
class ConcurrentMap {
 public:
  using Value = int64_t;

  static constexpr uint64_t kEmpty = ~0ULL;
  static constexpr uint64_t kTombstone = ~0ULL - 1;

  explicit ConcurrentMap(size_t capacity_hint = 0) { reserve(capacity_hint); }

  ConcurrentMap(const ConcurrentMap& other) { copy_from(other); }
  ConcurrentMap& operator=(const ConcurrentMap& other) {
    if (this != &other) copy_from(other);
    return *this;
  }

  // Phase-concurrent insert-or-assign. Returns true iff the key was
  // absent. Keys kEmpty/kTombstone are reserved. The caller must guarantee
  // enough capacity (use reserve() at a phase boundary before a concurrent
  // phase).
  bool insert_concurrent(uint64_t key, Value value) { return put(key, value); }

  // Sequential insert-or-assign; grows on demand.
  bool insert_or_assign(uint64_t key, Value value) {
    reserve(1);
    return put(key, value);
  }

  // Phase-concurrent erase (tombstone). Returns true if the key was present.
  bool erase(uint64_t key) {
    size_t mask = keys_.size() - 1;
    size_t i = util::hash64(key) & mask;
    for (;;) {
      uint64_t cur = keys_[i].load(std::memory_order_relaxed);
      if (cur == kEmpty) return false;
      if (cur == key) {
        uint64_t expected = key;
        if (keys_[i].compare_exchange_strong(expected, kTombstone,
                                             std::memory_order_acq_rel)) {
          tombs_.fetch_add(1, std::memory_order_relaxed);
          size_.fetch_sub(1, std::memory_order_relaxed);
          UFO_STAT("hash.set.erases", 1);
          return true;
        }
        UFO_STAT("hash.set.cas_retries", 1);
        continue;
      }
      i = (i + 1) & mask;
    }
  }

  bool contains(uint64_t key) const { return slot_of(key) != SIZE_MAX; }

  // Value for `key`, or `fallback` when absent (read phase).
  Value get(uint64_t key, Value fallback) const {
    size_t i = slot_of(key);
    return i == SIZE_MAX ? fallback : vals_[i].load(std::memory_order_relaxed);
  }

  size_t size() const { return size_.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }
  size_t capacity() const { return keys_.size(); }
  size_t tombstones() const { return tombs_.load(std::memory_order_relaxed); }

  // Largest representable table size (the top power of two of size_t).
  // capacity_for() saturates here instead of overflowing; a reserve that
  // saturates will fail to allocate long before correctness matters, but it
  // fails loudly (bad_alloc) rather than looping on a zero-sized table.
  static constexpr size_t kMaxCapacity = size_t{1}
                                         << (8 * sizeof(size_t) - 1);

  // Slot count needed to hold `live + extra` keys at load factor <= 1/2:
  // the smallest power of two >= 2 * (live + extra + 1), clamped to
  // kMaxCapacity (16 at least, so an empty table takes 16 slots).
  // Overflow-safe: `want / 2 <= need` is equivalent to
  // `want < 2 * (need + 1)` for powers of two without ever multiplying.
  static constexpr size_t capacity_for(size_t live, size_t extra) {
    size_t need = live < SIZE_MAX - extra ? live + extra : SIZE_MAX;
    size_t want = 16;
    while (want < kMaxCapacity && want / 2 <= need) want <<= 1;
    return want;
  }

  // Single-threaded (phase boundary): grow so that `n` *additional* keys fit
  // on top of the current live set with load factor <= 1/2, rehashing live
  // keys and dropping tombstones. Sizing must count live keys: a request
  // smaller than size() would otherwise rehash the live set into a table it
  // cannot fit (load factor >= 1), and the next insert would spin forever on
  // a full probe chain. Tombstones count toward occupancy too — every probe
  // loop terminates only on a kEmpty slot, and outside a rehash a tombstone
  // never reverts to empty, so sustained insert/erase churn at stable live
  // size would otherwise consume every empty slot and wedge the next
  // absent-key probe. Rehashing (which drops them) whenever live +
  // tombstones + n passes half the table keeps >= capacity/2 - n empty
  // slots through any phase.
  void reserve(size_t n) {
    size_t want = capacity_for(size(), n);
    // In this branch want <= capacity, so size() + n <= capacity/2 and the
    // occupancy sum below cannot overflow.
    if (want <= keys_.size() && size() + tombstones() + n <= keys_.size() / 2)
      return;  // roomy enough, even counting tombstoned slots
    UFO_STAT("hash.set.resizes", 1);
    // Allocate the new arrays before touching the table, so a bad_alloc
    // leaves it as it was (try_reserve relies on that); after the swaps
    // `keys`/`vals` hold the old table, rehashed from below.
    std::vector<std::atomic<uint64_t>> keys(want);
    std::vector<std::atomic<Value>> vals(want);
    for (auto& s : keys) s.store(kEmpty, std::memory_order_relaxed);
    keys_.swap(keys);
    vals_.swap(vals);
    size_.store(0, std::memory_order_relaxed);
    tombs_.store(0, std::memory_order_relaxed);
    for (size_t i = 0; i < keys.size(); ++i) {
      uint64_t k = keys[i].load(std::memory_order_relaxed);
      if (k == kEmpty || k == kTombstone) continue;
      put(k, vals[i].load(std::memory_order_relaxed));
    }
  }

  // reserve() with the allocation failure surfaced as a return value
  // instead of bad_alloc. The table is untouched on failure (the new arrays
  // are allocated before anything is torn down), so callers can degrade —
  // e.g. fall back to incremental per-edge growth — rather than terminate.
  bool try_reserve(size_t n) noexcept {
    if (UFO_FAULT_POINT("hash.reserve")) return false;
    try {
      reserve(n);
      return true;
    } catch (const std::bad_alloc&) {
      return false;
    }
  }

  // Visit every live entry as f(key, value) (read-only phase).
  template <class F>
  void for_each(F&& f) const {
    // Locals, not keys_: `f` may write through references the compiler
    // cannot tell apart from keys_, which would reload it every slot.
    const std::atomic<uint64_t>* keys = keys_.data();
    const std::atomic<Value>* vals = vals_.data();
    const size_t cap = keys_.size();
    for (size_t i = 0; i < cap; ++i) {
      uint64_t k = keys[i].load(std::memory_order_relaxed);
      if (k == kEmpty || k == kTombstone) continue;
      f(k, vals[i].load(std::memory_order_relaxed));
    }
  }

  void clear() {
    for (auto& s : keys_) s.store(kEmpty, std::memory_order_relaxed);
    size_.store(0, std::memory_order_relaxed);
    tombs_.store(0, std::memory_order_relaxed);
  }

  size_t memory_bytes() const {
    return sizeof(*this) +
           keys_.size() * (sizeof(std::atomic<uint64_t>) +
                           sizeof(std::atomic<Value>));
  }

 private:
  // The one insert loop. Returns true iff `key` was absent; stores `value`
  // in the key's slot either way.
  bool put(uint64_t key, Value value) {
    size_t mask = keys_.size() - 1;
    size_t i = util::hash64(key) & mask;
    // Scan the full probe chain before claiming a tombstone: the key may
    // sit past tombstones left by earlier erases, and claiming the first
    // tombstone would duplicate it (a later erase would remove only one
    // copy and contains() would still find the other).
    size_t tomb = SIZE_MAX;
    UFO_OBS_ONLY([[maybe_unused]] int64_t probes = 1;)
    for (;;) {
      uint64_t cur = keys_[i].load(std::memory_order_relaxed);
      if (cur == key) {
        vals_[i].store(value, std::memory_order_relaxed);
        UFO_STAT_HIST("hash.set.probe_len", probes);
        return false;
      }
      if (cur == kTombstone && tomb == SIZE_MAX) tomb = i;
      if (cur == kEmpty) {
        size_t target = tomb != SIZE_MAX ? tomb : i;
        uint64_t expected = keys_[target].load(std::memory_order_relaxed);
        if (expected != kEmpty && expected != kTombstone) {
          // Lost the remembered slot to a concurrent insert; rescan.
          UFO_STAT("hash.set.cas_retries", 1);
          tomb = SIZE_MAX;
          i = util::hash64(key) & mask;
          continue;
        }
        if (keys_[target].compare_exchange_strong(
                expected, key, std::memory_order_acq_rel)) {
          vals_[target].store(value, std::memory_order_relaxed);
          if (expected == kTombstone)
            tombs_.fetch_sub(1, std::memory_order_relaxed);
          size_.fetch_add(1, std::memory_order_relaxed);
          UFO_STAT("hash.set.inserts", 1);
          UFO_STAT_HIST("hash.set.probe_len", probes);
          return true;
        }
        UFO_STAT("hash.set.cas_retries", 1);
        if (expected == key) {
          vals_[target].store(value, std::memory_order_relaxed);
          return false;
        }
        continue;  // raced on the slot; retry
      }
      UFO_OBS_ONLY(++probes;)
      i = (i + 1) & mask;
    }
  }

  // The one find loop: key's slot, or SIZE_MAX when absent.
  size_t slot_of(uint64_t key) const {
    size_t mask = keys_.size() - 1;
    size_t i = util::hash64(key) & mask;
    for (;;) {
      uint64_t cur = keys_[i].load(std::memory_order_relaxed);
      if (cur == key) return i;
      if (cur == kEmpty) return SIZE_MAX;
      i = (i + 1) & mask;
    }
  }

  void copy_from(const ConcurrentMap& other) {
    auto copy = [](auto& dst, const auto& src) {
      dst = std::remove_reference_t<decltype(dst)>(src.size());
      for (size_t i = 0; i < src.size(); ++i)
        dst[i].store(src[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    };
    copy(keys_, other.keys_);
    copy(vals_, other.vals_);
    size_.store(other.size(), std::memory_order_relaxed);
    tombs_.store(other.tombstones(), std::memory_order_relaxed);
  }

  std::vector<std::atomic<uint64_t>> keys_;
  std::vector<std::atomic<Value>> vals_;
  std::atomic<size_t> size_{0};
  std::atomic<size_t> tombs_{0};
};

// EdgeStore keeps two per-vertex vectors of maps: a map must carry nothing
// beyond its key and value arrays and two counters.
static_assert(sizeof(ConcurrentMap) <=
              2 * sizeof(std::vector<std::atomic<uint64_t>>) +
                  2 * sizeof(std::atomic<size_t>));

// Per-slot ownership claims for phase-concurrent algorithms: many tasks race
// to claim the same dense id (a cluster, a teardown walk target, a graph
// vertex) and exactly one wins the CAS and performs the work; a loser drops
// its duplicate request, relying on the winner's effect (the claimed cluster
// re-enters the shared frontier) to serve it. Slots are epoch-tagged so a new
// phase invalidates every previous claim in O(1) — no O(n) clear between
// batches, which matters when a small batch touches a huge structure.
class ClaimTable {
 public:
  // owner_of() result when nobody claimed the id this phase. Owners must be
  // < kUnclaimed (the replacement-search engine uses search ids, the
  // teardown walk uses request indexes — both dense and well below
  // 2^32 - 1).
  static constexpr uint32_t kUnclaimed = 0xffffffffu;

  // Single-threaded phase boundary: make ids [0, n) claimable and retire
  // every claim from earlier phases.
  void begin_phase(size_t n) {
    if (slots_.size() < n) {
      // Atomics are not movable; rebuild and restart the epoch count.
      std::vector<std::atomic<uint64_t>> fresh(n + n / 2 + 16);
      for (auto& s : fresh) s.store(0, std::memory_order_relaxed);
      slots_.swap(fresh);
      epoch_ = 0;
    }
    ++epoch_;
    if ((epoch_ >> 32) != 0) {  // 32-bit epoch wrapped: hard-clear instead
      for (auto& s : slots_) s.store(0, std::memory_order_relaxed);
      epoch_ = 1;
    }
  }

  // Phase-concurrent: claim `id` for `owner`. Returns true iff `owner` holds
  // the claim after the call, so racing callers must pass distinct owners
  // for exactly one of them to win.
  bool claim(size_t id, uint32_t owner) {
    return claim_or_owner(id, owner) == owner;
  }

  // Phase-concurrent: claim `id` for `owner` and report who holds the claim
  // after the call — `owner` iff this call won, the earlier winner's id
  // otherwise. The merge protocol of the replacement-search engine needs the
  // holder, not just win/lose: a losing search unions itself with the holder
  // instead of rescanning the holder's territory.
  uint32_t claim_or_owner(size_t id, uint32_t owner) {
    uint64_t want = (epoch_ << 32) | owner;
    uint64_t cur = slots_[id].load(std::memory_order_relaxed);
    for (;;) {
      if ((cur >> 32) == epoch_)
        return static_cast<uint32_t>(cur);  // already claimed this phase
      if (slots_[id].compare_exchange_weak(cur, want,
                                           std::memory_order_acq_rel))
        return owner;
    }
  }

  // Holder of `id`'s claim this phase, or kUnclaimed. Safe concurrently with
  // claims (a racing claim may or may not be visible, as with any snapshot
  // read); exact after a phase barrier.
  uint32_t owner_of(size_t id) const {
    uint64_t cur = slots_[id].load(std::memory_order_relaxed);
    return (cur >> 32) == epoch_ ? static_cast<uint32_t>(cur) : kUnclaimed;
  }

  size_t memory_bytes() const {
    return sizeof(*this) + slots_.size() * sizeof(std::atomic<uint64_t>);
  }

 private:
  std::vector<std::atomic<uint64_t>> slots_;
  uint64_t epoch_ = 0;  // low 32 bits of slots hold the owner, high the epoch
};

}  // namespace ufo::par
