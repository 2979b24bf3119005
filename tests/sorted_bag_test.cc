// Unit tests for core::SortedBag, the flat sorted-array multiset backing
// the pooled rake indexes (src/core/sorted_bag.h). Differential against
// std::multiset over randomized insert/erase/min/max/top2 traffic, plus
// directed cases for the pending-buffer flush, tombstone compaction, the
// top-2 dead-run scan limit, and the bulk sorted-run merge used by
// rake_index_merge_runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/sorted_bag.h"
#include "util/random.h"

namespace ufo::core {
namespace {

void expect_matches(SortedBag& bag, const std::multiset<int64_t>& oracle,
                    const char* ctx) {
  ASSERT_EQ(bag.size(), oracle.size()) << ctx;
  ASSERT_EQ(bag.empty(), oracle.empty()) << ctx;
  if (oracle.empty()) return;
  EXPECT_EQ(bag.min(), *oracle.begin()) << ctx;
  EXPECT_EQ(bag.max(), *oracle.rbegin()) << ctx;
  int64_t top[2];
  int got = bag.top2(top);
  auto it = oracle.rbegin();
  ASSERT_EQ(got, static_cast<int>(std::min<size_t>(oracle.size(), 2))) << ctx;
  EXPECT_EQ(top[0], *it) << ctx;
  if (got == 2) EXPECT_EQ(top[1], *++it) << ctx;
}

TEST(SortedBag, BasicInsertEraseMinMax) {
  SortedBag b;
  EXPECT_TRUE(b.empty());
  b.insert(5);
  b.insert(3);
  b.insert(9);
  b.insert(3);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b.min(), 3);
  EXPECT_EQ(b.max(), 9);
  int64_t top[2];
  ASSERT_EQ(b.top2(top), 2);
  EXPECT_EQ(top[0], 9);
  EXPECT_EQ(top[1], 5);
  b.erase_one(9);
  EXPECT_EQ(b.max(), 5);
  b.erase_one(3);
  b.erase_one(3);
  EXPECT_EQ(b.min(), 5);
  b.erase_one(5);
  EXPECT_TRUE(b.empty());
}

TEST(SortedBag, Top2WithDuplicateMaximum) {
  SortedBag b;
  b.insert(7);
  b.insert(7);
  b.insert(1);
  int64_t top[2];
  ASSERT_EQ(b.top2(top), 2);
  EXPECT_EQ(top[0], 7);
  EXPECT_EQ(top[1], 7);  // a multiset: the duplicate counts as second
}

// top2 ranks up to four candidates: the two largest pending values and the
// two topmost live main-run slots. Every split of four distinct values
// between the two sources (each relative order of pending vs main) must
// rank the same.
TEST(SortedBag, Top2RanksPendingAgainstMainRun) {
  const int64_t vals[4] = {10, 20, 30, 40};
  for (int mask = 0; mask < 16; ++mask) {
    if (__builtin_popcount(mask) != 2) continue;
    SortedBag bag;
    std::vector<int64_t> run;
    std::multiset<int64_t> oracle(vals, vals + 4);
    for (int i = 0; i < 4; ++i)
      if (mask & (1 << i)) run.push_back(vals[i]);
    bag.merge_sorted_run(run);  // main run
    for (int i = 0; i < 4; ++i)
      if (!(mask & (1 << i))) bag.insert(vals[i]);  // pending buffer
    expect_matches(bag, oracle, "two pending, two main");
  }
}

// Push enough values through to force multiple pending-buffer flushes and
// main-run rebuilds, verifying against the oracle throughout.
TEST(SortedBag, DifferentialRandomChurn) {
  util::SplitMix64 rng(0xbadcafe);
  SortedBag bag;
  std::multiset<int64_t> oracle;
  for (int step = 0; step < 20000; ++step) {
    bool do_insert = oracle.empty() || (rng.next() % 100) < 55;
    if (do_insert) {
      int64_t v = static_cast<int64_t>(rng.next() % 512) - 256;
      bag.insert(v);
      oracle.insert(v);
    } else {
      // Erase a value present in the oracle (biased toward the extremes,
      // where the bag's trim paths live).
      int64_t v;
      switch (rng.next() % 4) {
        case 0: v = *oracle.begin(); break;
        case 1: v = *oracle.rbegin(); break;
        default: {
          auto it = oracle.begin();
          std::advance(it, rng.next() % oracle.size());
          v = *it;
        }
      }
      bag.erase_one(v);
      oracle.erase(oracle.find(v));
    }
    if (step % 97 == 0) expect_matches(bag, oracle, "churn");
  }
  expect_matches(bag, oracle, "final");
}

// Deleting a long run of near-maximal values leaves a dead run at the top
// of the main array; top2 must flush past the scan limit and still answer.
TEST(SortedBag, Top2SurvivesDeadRunAtTop) {
  SortedBag bag;
  std::multiset<int64_t> oracle;
  for (int64_t v = 0; v < 1000; ++v) {
    bag.insert(v);
    oracle.insert(v);
  }
  // Kill 900..998 (keeping 999 and everything below 900): a 99-slot dead
  // run right under the maximum.
  for (int64_t v = 900; v < 999; ++v) {
    bag.erase_one(v);
    oracle.erase(oracle.find(v));
  }
  expect_matches(bag, oracle, "dead run below max");
  bag.erase_one(999);
  oracle.erase(oracle.find(999));
  expect_matches(bag, oracle, "dead run at top");
}

TEST(SortedBag, MergeSortedRunMatchesOracle) {
  util::SplitMix64 rng(0x5eed);
  SortedBag bag;
  std::multiset<int64_t> oracle;
  for (int round = 0; round < 8; ++round) {
    // Interleave incremental traffic with bulk merges, as the rake index
    // does (incremental add/remove between bulk build rounds).
    for (int i = 0; i < 50; ++i) {
      int64_t v = static_cast<int64_t>(rng.next() % 1000);
      bag.insert(v);
      oracle.insert(v);
    }
    for (int i = 0; i < 20 && !oracle.empty(); ++i) {
      auto it = oracle.begin();
      std::advance(it, rng.next() % oracle.size());
      bag.erase_one(*it);
      oracle.erase(it);
    }
    std::vector<int64_t> run(200 + rng.next() % 300);
    for (auto& v : run) v = static_cast<int64_t>(rng.next() % 1000);
    std::sort(run.begin(), run.end());
    bag.merge_sorted_run(run);
    oracle.insert(run.begin(), run.end());
    expect_matches(bag, oracle, "post-merge");
  }
  bag.clear();
  EXPECT_TRUE(bag.empty());
  EXPECT_EQ(bag.size(), 0u);
}

TEST(SortedBag, MemoryBytesTracksCapacity) {
  SortedBag bag;
  EXPECT_EQ(bag.memory_bytes(), 0u);
  for (int64_t v = 0; v < 5000; ++v) bag.insert(v);
  size_t full = bag.memory_bytes();
  EXPECT_GT(full, 5000 * sizeof(int64_t) / 2);
  bag.clear();
  // clear() releases nothing by design (the pooled rake index reuses the
  // warmed-up capacity), so accounting must still see the heap.
  EXPECT_LE(bag.memory_bytes(), full);
}

}  // namespace
}  // namespace ufo::core
