// Adversarial differential tests for the level-synchronous parallel
// replacement-edge search (replacement_search.h): every scenario runs
// batch_erase against a BFS oracle on the same input stream, and after
// every wave checks edge, component and tree-edge counts, sampled
// connectivity, and the invariant audit. Registered at 1/2/4/max workers
// like the other par suites, and part of the TSan job.
//
// The scenarios target the engine's hard cases:
//   * star shatter — every cut-pair search seeds at the hub, so all hub-side
//     searches must merge through the claim protocol in round one;
//   * path / grid shatter — long chains of pieces, replacement edges only
//     reachable through multi-round doubling-radius expansion;
//   * power-law shatter — skewed degrees, many pieces per batch;
//   * full-component deletion — certification (not reconnection) must
//     terminate every search, including the multi-piece both-sides rule;
//   * duplicate / absent / self-loop entries mixed into every batch;
//   * deep forests — long paths and a grid under a random spanning forest,
//     where incomplete groups test their non-tree edges by component id
//     before their BFS covers a side.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "connectivity/connectivity.h"
#include "graph/generators.h"
#include "parallel/par_ufo_tree.h"
#include "pool_coverage.h"
#include "seq/ufo_tree.h"
#include "util/random.h"

namespace ufo::conn {
namespace {

using UfoConn = GraphConnectivity<seq::UfoTree>;

// Brute-force oracle: adjacency sets + BFS for every query.
class BfsOracle {
 public:
  explicit BfsOracle(size_t n) : adj_(n) {}

  void insert(Vertex u, Vertex v) {
    if (u == v || u >= adj_.size() || v >= adj_.size() || adj_[u].count(v))
      return;
    adj_[u].insert(v);
    adj_[v].insert(u);
    ++edges_;
  }
  void erase(Vertex u, Vertex v) {
    if (u == v || u >= adj_.size() || v >= adj_.size() || !adj_[u].count(v))
      return;
    adj_[u].erase(v);
    adj_[v].erase(u);
    --edges_;
  }
  size_t num_edges() const { return edges_; }

  bool connected(Vertex u, Vertex v) const {
    if (u == v) return true;
    std::vector<Vertex> seen{u};
    std::set<Vertex> vis{u};
    for (size_t h = 0; h < seen.size(); ++h) {
      if (seen[h] == v) return true;
      for (Vertex y : adj_[seen[h]])
        if (vis.insert(y).second) seen.push_back(y);
    }
    return false;
  }
  size_t num_components() const {
    std::vector<bool> vis(adj_.size(), false);
    size_t comps = 0;
    for (Vertex v = 0; v < adj_.size(); ++v) {
      if (vis[v]) continue;
      ++comps;
      std::vector<Vertex> seen{v};
      vis[v] = true;
      for (size_t h = 0; h < seen.size(); ++h)
        for (Vertex y : adj_[seen[h]])
          if (!vis[y]) {
            vis[y] = true;
            seen.push_back(y);
          }
    }
    return comps;
  }

 private:
  std::vector<std::set<Vertex>> adj_;
  size_t edges_ = 0;
};

// Apply the same erase batch to the connectivity layer and the oracle; then
// cross-check them.
template <typename Conn = UfoConn>
struct Duo {
  Conn par_g;
  BfsOracle oracle;

  explicit Duo(size_t n) : par_g(n), oracle(n) {}

  void insert_all(const EdgeList& edges) {
    EXPECT_EQ(par_g.batch_insert(edges), BatchStatus::kOk);
    for (const Edge& e : edges) oracle.insert(e.u, e.v);
  }

  void erase_batch(const EdgeList& batch) {
    EXPECT_EQ(par_g.batch_erase(batch), BatchStatus::kOk);
    // Oracle semantics: duplicates/absent are no-ops, as in batch_erase.
    for (const Edge& e : batch) oracle.erase(e.u, e.v);
  }

  void check(util::SplitMix64& rng, size_t probes) {
    ASSERT_EQ(par_g.num_edges(), oracle.num_edges());
    size_t comps = oracle.num_components();
    ASSERT_EQ(par_g.num_components(), comps);
    ASSERT_EQ(par_g.num_tree_edges(), par_g.size() - comps);
    for (size_t p = 0; p < probes; ++p) {
      Vertex a = static_cast<Vertex>(rng.next(par_g.size()));
      Vertex b = static_cast<Vertex>(rng.next(par_g.size()));
      ASSERT_EQ(par_g.connected(a, b), oracle.connected(a, b))
          << a << "-" << b;
    }
    ASSERT_TRUE(par_g.check_valid());
  }
};

// Salt a batch with adversarial entries: in-batch duplicates (both
// orientations), absent edges, self-loops, out-of-range-free randoms.
void salt(EdgeList* batch, size_t n, util::SplitMix64& rng) {
  if (!batch->empty()) {
    Edge d = batch->front();
    batch->push_back(d);
    batch->push_back({d.v, d.u});  // flipped duplicate
  }
  batch->push_back({static_cast<Vertex>(rng.next(n)),
                    static_cast<Vertex>(rng.next(n))});  // likely absent
  Vertex s = static_cast<Vertex>(rng.next(n));
  batch->push_back({s, s});  // self-loop
}

TEST(ParallelBatchErase, StarShatterNoReplacements) {
  // Shatter a bare star in one batch: every pair must end certified (both
  // sides for multi-piece), with the hub-side searches collapsing into one
  // group. No replacement exists; component count must jump to n.
  constexpr size_t n = 257;
  Duo t(n);
  EdgeList spokes = gen::star(n);
  t.insert_all(spokes);
  util::SplitMix64 rng(42);
  EdgeList batch = spokes;
  salt(&batch, n, rng);
  t.erase_batch(batch);
  EXPECT_EQ(t.par_g.num_components(), n);
  t.check(rng, 50);
}

TEST(ParallelBatchErase, StarShatterWithChordReplacements) {
  // Star plus a rim cycle: cutting waves of spokes always leaves rim chords
  // as replacements, so searches promote instead of certifying.
  constexpr size_t n = 193;
  Duo t(n);
  EdgeList edges = gen::star(n);
  for (Vertex i = 1; i + 1 < n; ++i)
    edges.push_back({i, static_cast<Vertex>(i + 1)});  // rim
  t.insert_all(edges);
  util::SplitMix64 rng(7);
  EdgeList spokes = gen::star(n);
  util::shuffle(spokes, 11);
  for (size_t at = 0; at < spokes.size(); at += 48) {
    EdgeList batch(spokes.begin() + static_cast<ptrdiff_t>(at),
                   spokes.begin() + static_cast<ptrdiff_t>(
                                        std::min(spokes.size(), at + 48)));
    salt(&batch, n, rng);
    t.erase_batch(batch);
    t.check(rng, 30);
  }
  EXPECT_EQ(t.par_g.num_components(), 2u);  // rim path + vertex 0
}

TEST(ParallelBatchErase, PathShatterEveryOtherEdge) {
  // Cutting every other edge of a path makes ~n/2 two-vertex pieces in one
  // batch — maximal pair count, zero replacements.
  constexpr size_t n = 256;
  Duo t(n);
  EdgeList edges = gen::path(n);
  t.insert_all(edges);
  util::SplitMix64 rng(13);
  EdgeList batch;
  for (size_t i = 0; i < edges.size(); i += 2) batch.push_back(edges[i]);
  salt(&batch, n, rng);
  t.erase_batch(batch);
  t.check(rng, 50);
}

TEST(ParallelBatchErase, GridShatterWithReplacements) {
  // Grid columns cut in batches: row edges supply replacements, exercising
  // multi-round promotion + group merging across many concurrent searches.
  constexpr size_t rows = 12, cols = 12, n = rows * cols;
  Duo t(n);
  EdgeList edges = gen::grid_graph(rows, cols);
  t.insert_all(edges);
  util::SplitMix64 rng(99);
  EdgeList pool = edges;
  util::shuffle(pool, 3);
  for (size_t at = 0; at < pool.size(); at += 64) {
    EdgeList batch(pool.begin() + static_cast<ptrdiff_t>(at),
                   pool.begin() + static_cast<ptrdiff_t>(
                                      std::min(pool.size(), at + 64)));
    salt(&batch, n, rng);
    t.erase_batch(batch);
    t.check(rng, 30);
  }
  EXPECT_EQ(t.par_g.num_edges(), 0u);
  EXPECT_EQ(t.par_g.num_components(), n);
}

TEST(ParallelBatchErase, PowerLawChurn) {
  // Preferential-attachment graph: skewed degrees mean cut batches mix huge
  // and tiny pieces; interleave erase and re-insert waves.
  const int64_t tasks_before = test::pool_tasks_run();
  constexpr size_t n = 300;
  Duo t(n);
  EdgeList edges = gen::social_graph(n, 4, 17);
  t.insert_all(edges);
  util::SplitMix64 rng(555);
  EdgeList pool = edges;
  for (size_t wave = 0; wave < 10; ++wave) {
    util::shuffle(pool, 100 + wave);
    EdgeList batch(pool.begin(),
                   pool.begin() + static_cast<ptrdiff_t>(
                                      std::min<size_t>(pool.size(), 90)));
    salt(&batch, n, rng);
    t.erase_batch(batch);
    t.check(rng, 25);
    // Re-insert half of what we just removed so later waves hit tree and
    // non-tree edges in fresh proportions.
    EdgeList back(batch.begin(),
                  batch.begin() + static_cast<ptrdiff_t>(batch.size() / 2));
    t.insert_all(back);
    t.check(rng, 10);
  }
  test::expect_pool_tasks_since(tasks_before);
}

TEST(ParallelBatchErase, FullComponentDeletion) {
  // Delete every edge of a multi-cycle component in ONE batch: tree and
  // non-tree edges together, so promoted replacements must themselves get
  // erased within the same call's classification (they were classified
  // before the cut — promotion happens after, and the promoted edges were
  // part of the batch's non-tree set). Ends fully disconnected.
  constexpr size_t rows = 8, cols = 8, n = rows * cols;
  Duo t(n);
  EdgeList edges = gen::grid_graph(rows, cols);
  t.insert_all(edges);
  util::SplitMix64 rng(31);
  EdgeList batch = edges;
  salt(&batch, n, rng);
  t.erase_batch(batch);
  EXPECT_EQ(t.par_g.num_edges(), 0u);
  EXPECT_EQ(t.par_g.num_components(), n);
  t.check(rng, 40);
}

TEST(ParallelBatchErase, ManySmallComponentsThroughputShape) {
  // Disjoint triangles, one edge cut from each in a single batch: k
  // independent searches that never collide — the engine must keep them
  // fully independent (each promotes its triangle's non-tree edge).
  constexpr size_t tri = 64, n = 3 * tri;
  Duo t(n);
  EdgeList edges;
  for (size_t c = 0; c < tri; ++c) {
    Vertex a = static_cast<Vertex>(3 * c);
    edges.push_back({a, static_cast<Vertex>(a + 1)});
    edges.push_back({static_cast<Vertex>(a + 1), static_cast<Vertex>(a + 2)});
    edges.push_back({static_cast<Vertex>(a + 2), a});
  }
  t.insert_all(edges);
  ASSERT_EQ(t.par_g.num_components(), tri);
  util::SplitMix64 rng(77);
  EdgeList batch;
  for (size_t c = 0; c < tri; ++c) batch.push_back(edges[3 * c]);
  salt(&batch, n, rng);
  t.erase_batch(batch);
  EXPECT_EQ(t.par_g.num_components(), tri);  // every triangle reconnected
  t.check(rng, 40);
}

TEST(ParallelBatchErase, SingleEdgeBatchesMatchSingleErase) {
  // k=1 batches and single-edge erase, alternating, exercise the single-cut
  // (one-side certification) rule.
  constexpr size_t n = 100;
  Duo t(n);
  EdgeList edges = gen::social_graph(n, 3, 5);
  t.insert_all(edges);
  util::SplitMix64 rng(8);
  EdgeList pool = edges;
  util::shuffle(pool, 1);
  for (size_t i = 0; i < std::min<size_t>(pool.size(), 60); ++i) {
    if (i % 2) {
      EXPECT_TRUE(t.par_g.erase(pool[i].u, pool[i].v));
      t.oracle.erase(pool[i].u, pool[i].v);
    } else {
      t.erase_batch({pool[i]});
    }
    if (i % 10 == 9) t.check(rng, 20);
  }
  t.check(rng, 40);
}

// A path of 4096 vertices inserted first, so it is the spanning forest,
// plus `chords` as non-tree edges.
template <typename Conn = UfoConn>
void deep_path(Duo<Conn>& t, const EdgeList& chords) {
  t.insert_all(gen::path(t.par_g.size()));
  t.insert_all(chords);
  ASSERT_EQ(t.par_g.num_tree_edges(), t.par_g.size() - 1);
}

// Chords (i, i + 3) that never cross the middle of an n-vertex path.
EdgeList half_chords(size_t n) {
  EdgeList chords;
  for (Vertex i = 0; i + 3 < n; i += 5)
    if ((i + 3 < n / 2) == (i < n / 2))
      chords.push_back({i, static_cast<Vertex>(i + 3)});
  return chords;
}

TEST(ParallelBatchErase, DeepPathMiddleCutCertifies) {
  // Both sides of the middle cut are 2048 deep, and every chord near the
  // cut is internal: early scans drop clean vertices from both incomplete
  // groups, and the cut must still certify as two components.
  constexpr size_t n = 4096;
  const Edge mid{n / 2 - 1, n / 2};
  util::SplitMix64 rng(21);
  {
    SCOPED_TRACE("single erase");
    Duo t(n);
    deep_path(t, half_chords(n));
    EXPECT_TRUE(t.par_g.erase(mid.u, mid.v));
    t.oracle.erase(mid.u, mid.v);
    EXPECT_EQ(t.par_g.num_components(), 2u);
    t.check(rng, 40);
  }
  {
    SCOPED_TRACE("batch of one");
    Duo t(n);
    deep_path(t, half_chords(n));
    t.erase_batch({mid});
    EXPECT_EQ(t.par_g.num_components(), 2u);
    t.check(rng, 40);
  }
  {
    SCOPED_TRACE("multi-edge batch");
    Duo t(n);
    EdgeList chords = half_chords(n);
    deep_path(t, chords);
    // The middle cut plus path edges that chords bridge, one non-tree
    // chord, and the salt.
    EdgeList batch{mid, {100, 101}, {3000, 3001}, {1, 2}, chords[7]};
    salt(&batch, n, rng);
    t.erase_batch(batch);
    EXPECT_EQ(t.par_g.num_components(), t.oracle.num_components());
    t.check(rng, 40);
  }
}

TEST(ParallelBatchErase, DeepPathFarCrossingChordFoundAfterCleanDrops) {
  // One chord crosses the middle, 1000 hops from the cut on either side:
  // both groups drop clean vertices for several rounds before one of them
  // reaches it and promotes it.
  constexpr size_t n = 4096;
  const Edge mid{n / 2 - 1, n / 2};
  EdgeList chords = half_chords(n);
  chords.push_back({n / 2 - 1000, n / 2 + 1000});
  util::SplitMix64 rng(22);
  {
    SCOPED_TRACE("single erase");
    Duo t(n);
    deep_path(t, chords);
    EXPECT_TRUE(t.par_g.erase(mid.u, mid.v));
    t.oracle.erase(mid.u, mid.v);
    EXPECT_EQ(t.par_g.num_components(), 1u);
    t.check(rng, 40);
  }
  {
    SCOPED_TRACE("multi-edge batch");
    Duo t(n);
    deep_path(t, chords);
    EdgeList batch{mid, {500, 501}, {3500, 3501}};
    salt(&batch, n, rng);
    t.erase_batch(batch);
    EXPECT_EQ(t.par_g.num_components(), 1u);
    t.check(rng, 40);
  }
}

// A 64x64 grid standing on a random-incremental spanning forest (inserted
// first, as the repository benchmark does): rounds of k=8 random erases
// plus re-insert, then single erases.
template <typename Conn>
void grid_trickle(uint64_t seed) {
  constexpr size_t side = 64, n = side * side;
  Duo<Conn> t(n);
  EdgeList edges = gen::grid_graph(side, side);
  t.insert_all(gen::ris_forest(n, edges, seed));
  t.insert_all(edges);
  util::SplitMix64 rng(seed);
  for (size_t round = 0; round < 12; ++round) {
    EdgeList batch;
    for (size_t i = 0; i < 8; ++i)
      batch.push_back(edges[rng.next(edges.size())]);
    t.erase_batch(batch);
    t.check(rng, 20);
    t.insert_all(batch);
  }
  for (size_t i = 0; i < 24; ++i) {
    const Edge& e = edges[rng.next(edges.size())];
    EXPECT_TRUE(t.par_g.erase(e.u, e.v));
    t.oracle.erase(e.u, e.v);
    if (i % 6 == 5) t.check(rng, 20);
    t.insert_all({e});
  }
  t.check(rng, 40);
}

TEST(ParallelBatchErase, GridTrickleSeqBackend) {
  grid_trickle<GraphConnectivity<seq::UfoTree>>(5);
}

TEST(ParallelBatchErase, GridTrickleParBackend) {
  grid_trickle<GraphConnectivity<par::UfoTree>>(6);
}

}  // namespace
}  // namespace ufo::conn
