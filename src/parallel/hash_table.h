// Phase-concurrent open-addressing hash tables for 64-bit keys, in the style
// of Gil--Matias--Vishkin / the ParlayLib hash table: concurrent inserts are
// lock-free (linear probing with CAS), deletes use tombstones, and resizing
// happens only at phase boundaries (single-threaded callers). This matches
// how the paper's batch-update algorithms use tables: one phase inserts, a
// barrier, then another phase reads or deletes.
//
// One probing core, ProbeTable<V>, backs both public tables: ConcurrentSet
// (V = void: keys only) and ConcurrentMap (V = int64_t: a value array
// parallel to the keys).
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

namespace internal {
struct NoValues {};  // the set's value "array": empty, takes no space
}  // namespace internal

// Concurrency contract, both instantiations: concurrent inserts (for a
// map, of distinct keys) and concurrent erases are safe within a phase,
// lookups are safe in read phases, and capacity growth happens only at
// phase boundaries. A map value written by insert_concurrent becomes
// visible to readers after the phase barrier (the fork-join join publishes
// it); phases that mix inserts and reads of the same key are not
// supported, matching how the connectivity layer uses it (bulk weight
// writes, then queries).
template <class V>
class ProbeTable {
  static constexpr bool kMap = !std::is_void_v<V>;

 public:
  using Value = std::conditional_t<kMap, V, internal::NoValues>;

  static constexpr uint64_t kEmpty = ~0ULL;
  static constexpr uint64_t kTombstone = ~0ULL - 1;

  explicit ProbeTable(size_t capacity_hint = 16) { reserve(capacity_hint); }

  ProbeTable(const ProbeTable& other) { copy_from(other); }
  ProbeTable& operator=(const ProbeTable& other) {
    if (this != &other) copy_from(other);
    return *this;
  }

  // Set: phase-concurrent insert. Returns true if the key was newly
  // inserted. Keys kEmpty/kTombstone are reserved. The caller must
  // guarantee enough capacity (use reserve() at a phase boundary before a
  // concurrent phase).
  bool insert(uint64_t key)
    requires(!kMap)
  {
    return put(key, Value{});
  }

  // Map: phase-concurrent insert-or-assign; keys must be distinct across
  // concurrent callers and capacity pre-reserved. Returns true iff the key
  // was absent.
  bool insert_concurrent(uint64_t key, Value value)
    requires kMap
  {
    return put(key, value);
  }

  // Map: sequential insert-or-assign; grows on demand.
  bool insert_or_assign(uint64_t key, Value value)
    requires kMap
  {
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
          if constexpr (!kMap) UFO_STAT("hash.set.erases", 1);
          return true;
        }
        if constexpr (!kMap) UFO_STAT("hash.set.cas_retries", 1);
        continue;
      }
      i = (i + 1) & mask;
    }
  }

  bool contains(uint64_t key) const { return slot_of(key) != SIZE_MAX; }

  // Map: value for `key`, or `fallback` when absent (read phase).
  Value get(uint64_t key, Value fallback) const
    requires kMap
  {
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
  // kMaxCapacity. Overflow-safe: `want / 2 <= need` is equivalent to
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
    UFO_STAT(kMap ? "hash.map.resizes" : "hash.set.resizes", 1);
    // Allocate the new arrays before touching the table, so a bad_alloc
    // leaves it as it was (try_reserve relies on that); after the swaps
    // `keys`/`vals` hold the old table, rehashed from below.
    std::vector<std::atomic<uint64_t>> keys(want);
    Values vals;
    if constexpr (kMap) vals = Values(want);
    for (auto& s : keys) s.store(kEmpty, std::memory_order_relaxed);
    keys_.swap(keys);
    if constexpr (kMap) vals_.swap(vals);
    size_.store(0, std::memory_order_relaxed);
    tombs_.store(0, std::memory_order_relaxed);
    for (size_t i = 0; i < keys.size(); ++i) {
      uint64_t k = keys[i].load(std::memory_order_relaxed);
      if (k == kEmpty || k == kTombstone) continue;
      if constexpr (kMap)
        put(k, vals[i].load(std::memory_order_relaxed));
      else
        put(k, Value{});
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

  // Set: snapshot of live keys (single-threaded or read-only phase).
  std::vector<uint64_t> elements() const
    requires(!kMap)
  {
    std::vector<uint64_t> out;
    out.reserve(size());
    for_each([&](uint64_t k) { out.push_back(k); });
    return out;
  }

  // Visit every live key — f(key) for a set, f(key, value) for a map
  // (read-only phase).
  template <class F>
  void for_each(F&& f) const {
    // Locals, not keys_: `f` may write through references the compiler
    // cannot tell apart from keys_, which would reload it every slot.
    const std::atomic<uint64_t>* keys = keys_.data();
    const size_t cap = keys_.size();
    for (size_t i = 0; i < cap; ++i) {
      uint64_t k = keys[i].load(std::memory_order_relaxed);
      if (k == kEmpty || k == kTombstone) continue;
      if constexpr (kMap)
        f(k, vals_[i].load(std::memory_order_relaxed));
      else
        f(k);
    }
  }

  void clear() {
    for (auto& s : keys_) s.store(kEmpty, std::memory_order_relaxed);
    size_.store(0, std::memory_order_relaxed);
    tombs_.store(0, std::memory_order_relaxed);
  }

  size_t memory_bytes() const {
    size_t total =
        sizeof(*this) + keys_.size() * sizeof(std::atomic<uint64_t>);
    if constexpr (kMap) total += vals_.size() * sizeof(std::atomic<Value>);
    return total;
  }

 private:
  using Values = std::conditional_t<kMap, std::vector<std::atomic<Value>>,
                                    internal::NoValues>;

  // The one insert loop. Returns true iff `key` was absent; a map also
  // stores `value` in the key's slot either way.
  bool put(uint64_t key, [[maybe_unused]] Value value) {
    auto store = [&](size_t slot) {
      if constexpr (kMap) vals_[slot].store(value, std::memory_order_relaxed);
    };
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
        store(i);
        if constexpr (!kMap) UFO_STAT_HIST("hash.set.probe_len", probes);
        return false;
      }
      if (cur == kTombstone && tomb == SIZE_MAX) tomb = i;
      if (cur == kEmpty) {
        size_t target = tomb != SIZE_MAX ? tomb : i;
        uint64_t expected = keys_[target].load(std::memory_order_relaxed);
        if (expected != kEmpty && expected != kTombstone) {
          // Lost the remembered slot to a concurrent insert; rescan.
          if constexpr (!kMap) UFO_STAT("hash.set.cas_retries", 1);
          tomb = SIZE_MAX;
          i = util::hash64(key) & mask;
          continue;
        }
        if (keys_[target].compare_exchange_strong(
                expected, key, std::memory_order_acq_rel)) {
          store(target);
          if (expected == kTombstone)
            tombs_.fetch_sub(1, std::memory_order_relaxed);
          size_.fetch_add(1, std::memory_order_relaxed);
          if constexpr (!kMap) {
            UFO_STAT("hash.set.inserts", 1);
            UFO_STAT_HIST("hash.set.probe_len", probes);
          }
          return true;
        }
        if constexpr (!kMap) UFO_STAT("hash.set.cas_retries", 1);
        if (expected == key) {
          store(target);
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

  void copy_from(const ProbeTable& other) {
    auto copy = [](auto& dst, const auto& src) {
      dst = std::remove_reference_t<decltype(dst)>(src.size());
      for (size_t i = 0; i < src.size(); ++i)
        dst[i].store(src[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    };
    copy(keys_, other.keys_);
    if constexpr (kMap) copy(vals_, other.vals_);
    size_.store(other.size(), std::memory_order_relaxed);
    tombs_.store(other.tombstones(), std::memory_order_relaxed);
  }

  std::vector<std::atomic<uint64_t>> keys_;
  [[no_unique_address]] Values vals_;
  std::atomic<size_t> size_{0};
  std::atomic<size_t> tombs_{0};
};

using ConcurrentSet = ProbeTable<void>;
using ConcurrentMap = ProbeTable<int64_t>;

// EdgeStore keeps two per-vertex vectors of sets: the set must carry no
// value storage beyond its key array and two counters.
static_assert(sizeof(ConcurrentSet) <=
              sizeof(std::vector<std::atomic<uint64_t>>) +
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
  // teardown walk uses cluster ids — both dense and well below 2^32 - 1).
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

  // Phase-concurrent: claim `id` for `owner`. Returns true iff this call
  // won (exactly one claim per id per phase succeeds).
  bool claim(size_t id, uint32_t owner) {
    uint64_t want = (epoch_ << 32) | owner;
    uint64_t cur = slots_[id].load(std::memory_order_relaxed);
    for (;;) {
      if ((cur >> 32) == epoch_) {
        UFO_STAT("claim.lost", 1);
        return false;  // already claimed this phase
      }
      if (slots_[id].compare_exchange_weak(cur, want,
                                           std::memory_order_acq_rel)) {
        UFO_STAT("claim.won", 1);
        return true;
      }
      UFO_STAT("claim.cas_retries", 1);
    }
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
