// Tests for the fork-join runtime and parallel primitives. CMake registers
// this binary at 1, 2, and 4 workers plus the hardware default
// (parallel_test / _t2 / _t4 / _tmax), since the pool's size is fixed at
// process start.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>

#include "parallel/hash_table.h"
#include "parallel/primitives.h"
#include "parallel/scheduler.h"
#include "pool_coverage.h"
#include "util/random.h"

namespace ufo::par {
namespace {

TEST(Scheduler, NumWorkersPositive) { EXPECT_GE(num_workers(), 1); }

// A loop body whose cost is wall-clock time, independent of optimization
// level or sanitizer slowdown.
void spin_for(std::chrono::microseconds d) {
  auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

// Every index exactly once, whether the adaptive prefix finishes the range
// inline (trivial body) or stops after one index and forks the rest
// (2 us body, above the inline threshold).
TEST(Scheduler, ParallelForVisitsEachIndexOnce) {
  for (bool heavy : {false, true}) {
    for (size_t lo : {size_t{0}, size_t{13}}) {
      for (size_t n : {0, 1, 2, 3, 7, 64, 1000, 100000}) {
        std::vector<std::atomic<int>> hits(lo + n);
        parallel_for(lo, lo + n, [&](size_t i) {
          if (heavy) spin_for(std::chrono::microseconds(2));
          hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (size_t i = 0; i < lo + n; ++i)
          ASSERT_EQ(hits[i].load(), i < lo ? 0 : 1)
              << "heavy=" << heavy << " lo=" << lo << " n=" << n << " i=" << i;
      }
    }
  }
}

// A short loop of cheap iterations costs less than a fork-join, so it runs
// on the caller; telemetry builds also see that nothing reached the pool.
TEST(Scheduler, TinyTrivialLoopStaysOnCaller) {
  const int caller = worker_id();
  std::atomic<bool> moved{false};
  auto body = [&](size_t) {
    if (worker_id() != caller) moved.store(true, std::memory_order_relaxed);
  };
  // Unoptimized sanitizer builds (TSan at -O0) make even this body cost
  // about a microsecond per few calls, and then forking is the right call.
  auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < 8; ++i) body(i);
  if (std::chrono::steady_clock::now() - t0 >= internal::kInlineThreshold / 4)
    GTEST_SKIP() << "this build makes the loop body too slow to be trivial";
  const int64_t submits = test::sched_counter("sched.submits");
  parallel_for(0, 16, body);
  EXPECT_FALSE(moved.load());
  EXPECT_EQ(test::sched_counter("sched.submits"), submits);
}

// A loop of heavy iterations still spreads over the pool. On a loaded host
// (ctest -j) a woken worker may wait several scheduler periods for a CPU,
// longer than one ~1.3 ms loop, so the loop is repeated for up to 2 s.
TEST(Scheduler, HeavyLoopRunsOnOtherWorkers) {
  if (num_workers() <= 1) GTEST_SKIP() << "pool has a single worker";
  const int caller = worker_id();
  std::atomic<bool> moved{false};
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!moved.load() && std::chrono::steady_clock::now() < deadline) {
    parallel_for(0, 256, [&](size_t) {
      spin_for(std::chrono::microseconds(5));
      if (worker_id() != caller) moved.store(true, std::memory_order_relaxed);
    });
  }
  EXPECT_TRUE(moved.load());
}

TEST(Scheduler, ParDoRunsBoth) {
  std::atomic<int> a{0}, b{0};
  par_do([&] { a = 1; }, [&] { b = 2; });
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 2);
}

TEST(Scheduler, NestedParDo) {
  std::atomic<int> total{0};
  par_do(
      [&] {
        par_do([&] { total += 1; }, [&] { total += 2; });
      },
      [&] {
        par_do([&] { total += 4; }, [&] { total += 8; });
      });
  EXPECT_EQ(total.load(), 15);
}

TEST(Scheduler, NestedParallelFor) {
  constexpr size_t n = 64;
  std::vector<std::atomic<int>> hits(n * n);
  parallel_for(0, n, [&](size_t i) {
    parallel_for(0, n, [&](size_t j) { hits[i * n + j].fetch_add(1); });
  });
  for (size_t i = 0; i < n * n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Primitives, Reduce) {
  std::vector<int64_t> v(10000);
  std::iota(v.begin(), v.end(), 1);
  int64_t total = reduce(v, int64_t{0}, [](int64_t a, int64_t b) { return a + b; });
  EXPECT_EQ(total, 10000LL * 10001 / 2);
}

TEST(Primitives, ReduceEmpty) {
  std::vector<int64_t> v;
  EXPECT_EQ(reduce(v, int64_t{7}, [](int64_t a, int64_t b) { return a + b; }), 7);
}

TEST(Primitives, ScanExclusive) {
  std::vector<int64_t> v(9999, 1);
  int64_t total = scan_exclusive(v);
  EXPECT_EQ(total, 9999);
  for (size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i], (int64_t)i);
}

TEST(Primitives, ScanSmall) {
  std::vector<int64_t> v{3, 1, 4, 1, 5};
  int64_t total = scan_exclusive(v);
  EXPECT_EQ(total, 14);
  EXPECT_EQ(v, (std::vector<int64_t>{0, 3, 4, 8, 9}));
}

TEST(Primitives, Filter) {
  std::vector<int> v(10000);
  std::iota(v.begin(), v.end(), 0);
  auto evens = filter(v, [](int x) { return x % 2 == 0; });
  ASSERT_EQ(evens.size(), 5000u);
  for (size_t i = 0; i < evens.size(); ++i) EXPECT_EQ(evens[i], (int)(2 * i));
}

TEST(Primitives, FlattenEmptyOuter) {
  std::vector<std::vector<int>> lists;
  EXPECT_TRUE(flatten(lists).empty());
}

TEST(Primitives, FlattenAllInnerEmpty) {
  std::vector<std::vector<int>> lists(100);
  EXPECT_TRUE(flatten(lists).empty());
}

TEST(Primitives, FlattenMixedSizesKeepsIndexOrder) {
  std::vector<std::vector<int>> lists{{1, 2}, {}, {3}, {}, {}, {4, 5, 6}, {}};
  EXPECT_EQ(flatten(lists), (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

// Enough output for several scan blocks; list i holds i % 7 entries
// (i, 0), (i, 1), ... and the result must be their index-order concatenation.
TEST(Primitives, FlattenPastForkGrainKeepsIndexOrder) {
  size_t n = 5000;
  auto lists = map(n, [](size_t i) {
    std::vector<std::pair<uint32_t, uint32_t>> out;
    for (uint32_t j = 0; j < i % 7; ++j)
      out.emplace_back(static_cast<uint32_t>(i), j);
    return out;
  });
  auto flat = flatten(lists);
  std::vector<std::pair<uint32_t, uint32_t>> expected;
  for (const auto& l : lists)
    expected.insert(expected.end(), l.begin(), l.end());
  ASSERT_GT(expected.size(), 4096u);
  EXPECT_EQ(flat, expected);
}

TEST(Primitives, SortRandom) {
  util::SplitMix64 rng(42);
  std::vector<uint64_t> v(50000);
  for (auto& x : v) x = rng.next();
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  sort(v);
  EXPECT_EQ(v, expected);
}

TEST(Primitives, RemoveDuplicates) {
  std::vector<uint64_t> v{5, 3, 5, 5, 1, 3, 9};
  remove_duplicates(v);
  EXPECT_EQ(v, (std::vector<uint64_t>{1, 3, 5, 9}));
}

TEST(Primitives, GroupByKey) {
  std::vector<std::pair<uint32_t, uint32_t>> kv{
      {2, 0}, {1, 1}, {2, 2}, {3, 3}, {1, 4}, {2, 5}};
  auto groups = group_by_key(kv);
  ASSERT_EQ(groups.size(), 3u);
  // keys sorted: 1 (2 entries), 2 (3 entries), 3 (1 entry)
  EXPECT_EQ(groups[0].second - groups[0].first, 2u);
  EXPECT_EQ(groups[1].second - groups[1].first, 3u);
  EXPECT_EQ(groups[2].second - groups[2].first, 1u);
  EXPECT_EQ(kv[groups[2].first].first, 3u);
}

// Four racing requests per id with distinct owners: exactly one wins each
// id, and a new phase makes every id claimable again.
TEST(ClaimTable, OneDistinctOwnerWinsPerPhase) {
  constexpr size_t n = 4096;
  ClaimTable claims;
  for (int phase = 0; phase < 2; ++phase) {
    claims.begin_phase(n);
    std::vector<std::atomic<int>> wins(n);
    parallel_for(0, 4 * n, [&](size_t r) {
      if (claims.claim(r % n, static_cast<uint32_t>(r))) wins[r % n]++;
    });
    for (size_t id = 0; id < n; ++id) {
      ASSERT_EQ(wins[id].load(), 1);
      EXPECT_EQ(claims.owner_of(id) % n, id);
    }
  }
}

TEST(HashTable, InsertContainsErase) {
  ConcurrentMap map(100);
  EXPECT_TRUE(map.insert_concurrent(42, 1));
  EXPECT_FALSE(map.insert_concurrent(42, 2));
  EXPECT_TRUE(map.contains(42));
  EXPECT_EQ(map.get(42, 0), 2);
  EXPECT_FALSE(map.contains(43));
  EXPECT_TRUE(map.erase(42));
  EXPECT_FALSE(map.erase(42));
  EXPECT_FALSE(map.contains(42));
  EXPECT_EQ(map.size(), 0u);
}

TEST(HashTable, ConcurrentInserts) {
  constexpr size_t n = 20000;
  ConcurrentMap map(n);
  parallel_for(0, n, [&](size_t i) {
    map.insert_concurrent(i, static_cast<int64_t>(i) * 3);
  });
  EXPECT_EQ(map.size(), n);
  parallel_for(0, n, [&](size_t i) {
    EXPECT_EQ(map.get(i, -1), static_cast<int64_t>(i) * 3);
  });
  size_t visited = 0;
  map.for_each([&](uint64_t k, int64_t v) {
    EXPECT_EQ(v, static_cast<int64_t>(k) * 3);
    ++visited;
  });
  EXPECT_EQ(visited, n);
}

// Regression: reserve(n) used to size the new table from n alone, ignoring
// live keys. Reserving a small headroom on a large live set then rehashed
// the live keys into a table they cannot fit (load factor >= 1), and the
// next insert would spin forever on a full probe chain. Before the fix this
// test hangs in reserve(); after it, the table counts live keys and grows.
TEST(HashTable, ReserveSmallOnLargeLiveSet) {
  ConcurrentMap map;
  map.reserve(100);
  for (uint64_t i = 0; i < 100; ++i) map.insert_concurrent(i, 1);
  ASSERT_EQ(map.size(), 100u);
  // Headroom request far below the live count. The undersized computation
  // (2 * (30 + 1) -> 64 slots < 100 live keys) tripped exactly here.
  map.reserve(30);
  EXPECT_GE(map.capacity(), 2 * (100 + 30));
  for (uint64_t i = 100; i < 130; ++i) EXPECT_TRUE(map.insert_concurrent(i, 1));
  EXPECT_EQ(map.size(), 130u);
  for (uint64_t i = 0; i < 130; ++i) EXPECT_TRUE(map.contains(i));
}

// Regression: the capacity doubling loop `while (want < 2 * (n + 1))` could
// overflow `want` to 0 for adversarially large n and never terminate.
// capacity_for saturates at kMaxCapacity instead (and never multiplies, so
// the comparison itself cannot overflow).
TEST(HashTable, CapacityForClampsAdversarialRequests) {
  EXPECT_EQ(ConcurrentMap::capacity_for(0, 0), 16u);
  EXPECT_EQ(ConcurrentMap::capacity_for(0, 7), 16u);
  EXPECT_EQ(ConcurrentMap::capacity_for(0, 8), 32u);
  EXPECT_EQ(ConcurrentMap::capacity_for(100, 30), 512u);
  EXPECT_EQ(ConcurrentMap::capacity_for(0, SIZE_MAX),
            ConcurrentMap::kMaxCapacity);
  EXPECT_EQ(ConcurrentMap::capacity_for(SIZE_MAX, SIZE_MAX),
            ConcurrentMap::kMaxCapacity);
  EXPECT_EQ(ConcurrentMap::capacity_for(SIZE_MAX / 2, 1),
            ConcurrentMap::kMaxCapacity);
}

// Regression: reserve()'s early return used to consider live keys only.
// Tombstones occupy probe slots and never revert to empty outside a
// rehash, so sustained insert/erase churn at a stable live size consumed
// every empty slot — after which any absent-key probe (contains/insert/
// erase of a missing key) spun forever. reserve() now counts tombstones
// toward occupancy and rehashes (dropping them) when the sum passes half
// the table; before the fix this test hangs inside contains().
TEST(HashTable, TombstoneChurnKeepsEmptySlots) {
  ConcurrentMap map;
  map.reserve(8);
  for (uint64_t i = 0; i < 10000; ++i) {
    map.insert_or_assign(i, 1);  // reserve(1) first, EdgeStore::insert-style
    EXPECT_FALSE(map.contains(i + 1));  // absent probe must terminate
    EXPECT_TRUE(map.erase(i));
  }
  EXPECT_EQ(map.size(), 0u);
  // Live size never exceeded 1, so periodic rehashes keep the table tiny
  // instead of letting tombstones force growth.
  EXPECT_LE(map.capacity(), 64u);
}

TEST(HashTable, ReserveRehashesAndDropsTombstones) {
  ConcurrentMap map(8);
  for (uint64_t i = 0; i < 8; ++i)
    map.insert_concurrent(i, static_cast<int64_t>(i) + 10);
  for (uint64_t i = 0; i < 4; ++i) map.erase(i);
  map.reserve(1000);
  EXPECT_EQ(map.size(), 4u);
  EXPECT_EQ(map.tombstones(), 0u);
  for (uint64_t i = 4; i < 8; ++i)
    EXPECT_EQ(map.get(i, -1), static_cast<int64_t>(i) + 10);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_FALSE(map.contains(i));
}

}  // namespace
}  // namespace ufo::par
