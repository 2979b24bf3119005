// Property sweeps for the parallel primitives, parameterized by size —
// these are the substrate of the batch-update algorithms (Section 5), so
// their contracts are checked at sizes from trivial to well past the
// parallel grain, against sequential reference computations.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <unordered_map>
#include <vector>

#include "parallel/hash_table.h"
#include "parallel/primitives.h"
#include "parallel/scheduler.h"
#include "util/random.h"

namespace ufo::par {
namespace {

class SizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(SizeSweep, ScanMatchesSequential) {
  size_t n = GetParam();
  util::SplitMix64 rng(n);
  std::vector<long long> v(n);
  for (auto& x : v) x = static_cast<long long>(rng.next(1000)) - 500;
  std::vector<long long> expect = v;
  long long acc = 0;
  for (size_t i = 0; i < n; ++i) {
    long long x = expect[i];
    expect[i] = acc;
    acc += x;
  }
  std::vector<long long> got = v;
  long long total = scan_exclusive(got);
  EXPECT_EQ(total, acc);
  EXPECT_EQ(got, expect);
}

TEST_P(SizeSweep, ReduceMatchesAccumulate) {
  size_t n = GetParam();
  util::SplitMix64 rng(n + 1);
  std::vector<long long> v(n);
  for (auto& x : v) x = static_cast<long long>(rng.next(1 << 20));
  long long expect = std::accumulate(v.begin(), v.end(), 0LL);
  EXPECT_EQ(reduce(v, 0LL, [](long long a, long long b) { return a + b; }),
            expect);
  long long mx = v.empty() ? -1 : *std::max_element(v.begin(), v.end());
  EXPECT_EQ(reduce(v, -1LL,
                   [](long long a, long long b) { return a > b ? a : b; }),
            mx);
}

TEST_P(SizeSweep, FilterKeepsOrderAndElements) {
  size_t n = GetParam();
  util::SplitMix64 rng(n + 2);
  std::vector<uint32_t> v(n);
  for (auto& x : v) x = static_cast<uint32_t>(rng.next(1000));
  auto pred = [](uint32_t x) { return x % 3 == 0; };
  std::vector<uint32_t> expect;
  for (uint32_t x : v)
    if (pred(x)) expect.push_back(x);
  EXPECT_EQ(filter(v, pred), expect);
}

TEST_P(SizeSweep, SortIsSortedPermutation) {
  size_t n = GetParam();
  util::SplitMix64 rng(n + 3);
  std::vector<uint64_t> v(n);
  for (auto& x : v) x = rng.next(97);  // many duplicates
  std::vector<uint64_t> expect = v;
  std::sort(expect.begin(), expect.end());
  sort(v);
  EXPECT_EQ(v, expect);
}

TEST_P(SizeSweep, GroupByKeyPartitionsExactly) {
  size_t n = GetParam();
  util::SplitMix64 rng(n + 4);
  std::vector<std::pair<uint32_t, uint32_t>> kv(n);
  std::map<uint32_t, std::multiset<uint32_t>> expect;
  for (size_t i = 0; i < n; ++i) {
    kv[i] = {static_cast<uint32_t>(rng.next(n / 4 + 1)),
             static_cast<uint32_t>(i)};
    expect[kv[i].first].insert(kv[i].second);
  }
  auto groups = group_by_key(kv);
  // Groups tile [0, n), keys within a group are uniform and distinct
  // across groups, and each group's value multiset matches.
  size_t covered = 0;
  std::set<uint32_t> seen_keys;
  for (auto [b, e] : groups) {
    ASSERT_LT(b, e);
    covered += e - b;
    uint32_t key = kv[b].first;
    ASSERT_TRUE(seen_keys.insert(key).second) << "key split across groups";
    std::multiset<uint32_t> vals;
    for (size_t i = b; i < e; ++i) {
      ASSERT_EQ(kv[i].first, key);
      vals.insert(kv[i].second);
    }
    ASSERT_EQ(vals, expect[key]);
  }
  EXPECT_EQ(covered, n);
  EXPECT_EQ(seen_keys.size(), expect.size());
}

INSTANTIATE_TEST_SUITE_P(Sizes, SizeSweep,
                         ::testing::Values(0, 1, 2, 3, 17, 100, 2047, 2048,
                                           2049, 10000, 100000),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

// Random-ops differential harness: ConcurrentMap against
// std::unordered_map. Phase-concurrent contract: capacity is managed by the
// caller via reserve() at phase boundaries (the batch-update algorithms do
// exactly this), so size the table for the key space and re-reserve
// periodically to flush tombstones.
void random_ops_match_reference(uint64_t seed) {
  ConcurrentMap table(2048);
  std::unordered_map<uint64_t, int64_t> ref;
  auto audit = [&](const ConcurrentMap& t, const char* what, int step) {
    ASSERT_EQ(t.size(), ref.size()) << what << " " << step;
    std::unordered_map<uint64_t, int64_t> seen;
    t.for_each([&](uint64_t k, int64_t v) { seen.emplace(k, v); });
    ASSERT_EQ(seen, ref) << what << " " << step;
    for (uint64_t k = 1; k <= 500; ++k)
      ASSERT_EQ(t.contains(k), ref.count(k) > 0) << what << " " << step;
  };
  util::SplitMix64 rng(seed);
  for (int step = 0; step < 20000; ++step) {
    uint64_t key = rng.next(500) + 1;  // small key space: heavy collisions
    int64_t value = static_cast<int64_t>(rng.next(1000)) - 500;
    bool absent = ref.count(key) == 0;
    switch (rng.next(3)) {
      case 0: {
        // Overwrites through both insert paths; the sequential one grows
        // on demand, the concurrent one relies on the reserve below.
        bool fresh = (step & 1) ? table.insert_or_assign(key, value)
                                : table.insert_concurrent(key, value);
        ASSERT_EQ(fresh, absent) << "step " << step;
        ref[key] = value;
        break;
      }
      case 1:
        ASSERT_EQ(table.erase(key), !absent) << "step " << step;
        ref.erase(key);
        break;
      default:
        ASSERT_EQ(table.contains(key), !absent) << "step " << step;
        ASSERT_EQ(table.get(key, -1000), absent ? -1000 : ref[key])
            << "step " << step;
    }
    if (step % 4096 == 0) {
      table.reserve(2048);  // phase boundary: rehash away tombstones
      ASSERT_NO_FATAL_FAILURE(audit(table, "audit", step));
      ConcurrentMap copy(table);
      ASSERT_NO_FATAL_FAILURE(audit(copy, "copy", step));
    }
  }
  ASSERT_NO_FATAL_FAILURE(audit(table, "final", 20000));

  // Tombstone reuse past a live key: b sits behind a in a's probe chain;
  // erasing a leaves a tombstone in front of b, and re-inserting b must
  // find it there rather than claim the tombstone (a duplicate would
  // survive the next erase).
  table.clear();
  ref.clear();
  size_t mask = table.capacity() - 1;
  uint64_t a = 1, b = 2;
  while ((util::hash64(b) & mask) != (util::hash64(a) & mask)) ++b;
  for (uint64_t k : {a, b}) table.insert_concurrent(k, 1);
  ASSERT_TRUE(table.erase(a));
  ASSERT_FALSE(table.insert_concurrent(b, 7));
  EXPECT_EQ(table.get(b, 0), 7);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.erase(b));
  EXPECT_FALSE(table.contains(b));
  EXPECT_EQ(table.size(), 0u);
}

// Two seeds: two independent op streams.
TEST(ConcurrentMapProperty, RandomOpsMatchStdMap) {
  ASSERT_NO_FATAL_FAILURE(random_ops_match_reference(77));
  ASSERT_NO_FATAL_FAILURE(random_ops_match_reference(78));
}

TEST(SchedulerProperty, ParallelForWritesEveryIndexOnce) {
  for (size_t n : {size_t{1}, size_t{63}, size_t{64}, size_t{10007}}) {
    std::vector<std::atomic<int>> hits(n);
    parallel_for(0, n, [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
  }
}

}  // namespace
}  // namespace ufo::par
