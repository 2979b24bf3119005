// UfoCore: the cluster hierarchy shared by every UFO-tree backend.
//
// Both the sequential UFO tree (src/seq/ufo_tree.h) and the parallel
// batch-dynamic one (src/parallel/par_ufo_tree.h) maintain the same
// contraction structure — a forest of clusters where each internal cluster
// is a pair merge (two adjacent children joined across a recorded merge
// edge), a fanout-1 extension, or a superunary (high-degree) merge of a
// center child with its degree-1 rake neighbors. Everything that depends
// only on that structure lives here:
//
//   * the cluster pools (allocation, adjacency, parent/child bookkeeping);
//   * aggregate maintenance (recompute_aggregates and the incremental rake
//     index standing in for the paper's rank trees, Section 4.2);
//   * the entire query suite (App. C.2): path sum/max/length, subtree
//     sum/size, LCA, diameter/center/median, nearest-marked-vertex;
//   * the validity and aggregate audits used by the tests.
//
// What the backends add is the *update* algorithm: seq::UfoTree implements
// Algorithms 1-2 (ancestor deletion + greedy reclustering), par::UfoTree the
// level-synchronous parallel batch variant (Section 5). Any hierarchy that
// satisfies the structural invariants below answers queries correctly
// through this base, which is what lets the two backends share code and the
// tests compare them differentially.
//
// Structural invariants relied on throughout (see DESIGN.md):
//   * every cluster has at most two distinct boundary vertices;
//   * clusters with >= 3 incident edges (superunary) have exactly one
//     boundary vertex — their "center" — and arise only from high-degree
//     merges, whose center child is recorded in `center_child`;
//   * pair merges (fanout 2, center_child == 0) record their merge edge;
//   * children of a cluster live exactly one level below it, and adjacency
//     only ever connects clusters of the same level.
//
// Storage is structure-of-arrays (DESIGN.md, "Memory layout"): a 64-byte
// hot topology record per cluster (everything the contraction / teardown /
// query-climb loops touch), a cold aggregates record touched only by
// recompute_aggregates and query leaves, and pooled slab storage for
// adjacency lists, children lists, adjacency hash indexes, and rake
// indexes. Slabs are index-addressed and recycled through per-level
// freelists, so bulk teardown is a freelist splice instead of per-cluster
// container destruction, and pointers into a slab stay valid across any
// other allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cluster_pool.h"
#include "core/invariants.h"
#include "core/sorted_bag.h"
#include "graph/forest.h"

namespace ufo::recovery {
class ForestSerializer;  // checkpointing (src/recovery/snapshot.h)
}

namespace ufo::core {

class UfoCore {
 public:
  size_t size() const { return n_; }

  bool has_edge(Vertex u, Vertex v) const;
  size_t degree(Vertex v) const;
  void set_vertex_weight(Vertex v, Weight w);
  void set_mark(Vertex v, bool marked);

  // --- Queries --------------------------------------------------------------
  bool connected(Vertex u, Vertex v) const;
  // Opaque identifier of v's component: equal for two vertices iff they are
  // connected. Only valid until the next update (the id is the component's
  // current root cluster). Lets bulk callers (the connectivity subsystem's
  // batch staging) canonicalize many endpoints without pairwise queries.
  uint64_t component_id(Vertex v) const { return tree_root(v); }
  Weight path_sum(Vertex u, Vertex v) const;
  Weight path_max(Vertex u, Vertex v) const;
  int64_t path_length(Vertex u, Vertex v) const;  // hop count
  Weight subtree_sum(Vertex v, Vertex p) const;
  size_t subtree_size(Vertex v, Vertex p) const;
  Vertex lca(Vertex u, Vertex v, Vertex r) const;
  void path_milestone(Vertex u, Vertex v, Vertex* a, Vertex* b) const;
  int64_t component_diameter(Vertex v) const;
  Vertex component_center(Vertex v) const;
  Vertex component_median(Vertex v) const;
  int64_t nearest_marked_distance(Vertex v) const;

  // --- Introspection ---------------------------------------------------------
  // Exact per-pool accounting (every heap byte the structure holds,
  // including recycled-but-retained slab and rake-index capacity).
  struct MemoryBreakdown {
    size_t hot = 0;        // hot topology records (capacity)
    size_t cold = 0;       // cold aggregate records (capacity)
    size_t adjacency = 0;  // pooled adjacency slabs
    size_t children = 0;   // pooled children slabs
    size_t adj_index = 0;  // pooled high-degree adjacency hash indexes
    size_t rake = 0;       // pooled rake indexes (objects + bag heap)
    size_t other = 0;      // object header, freelists, vertex arrays
    size_t clusters = 0;   // live cluster count (not bytes)
    size_t total() const {
      return hot + cold + adjacency + children + adj_index + rake + other;
    }
  };
  MemoryBreakdown memory_breakdown() const;
  size_t memory_bytes() const { return memory_breakdown().total(); }
  size_t live_clusters() const { return live_clusters_; }
  size_t height(Vertex v) const;
  // Full structural audit. Returns every violated invariant (failure code,
  // cluster id) instead of printing; check_valid() wraps it for tests.
  InvariantReport validate() const;
  bool check_valid() const;
  // Recomputes every cluster's aggregates bottom-up and compares with the
  // maintained values; returns false (and reports) on any divergence.
  bool check_aggregates();

 protected:
  explicit UfoCore(size_t n);
  UfoCore(const UfoCore&) = delete;
  UfoCore& operator=(const UfoCore&) = delete;

  // The snapshot subsystem is the one external reader/writer of the pools;
  // it dumps logical records and rebuilds all derived state on load.
  friend class ufo::recovery::ForestSerializer;

  struct Adj {
    uint32_t nbr = 0;
    Vertex my_end = kNoVertex;
    Vertex other_end = kNoVertex;
    Weight w = 0;
  };

  static constexpr Weight kNegInf = INT64_MIN / 4;
  static constexpr int64_t kInf = INT64_MAX / 4;
  static constexpr int32_t kFreedLevel = -1;

  // Slab reference: head handle into a pool, live prefix size, power-of-two
  // capacity. 12 bytes; lives inline in the hot record.
  struct ListRef {
    uint32_t head = kNullSlab;
    uint32_t size = 0;
    uint32_t cap = 0;
  };

  // Hot topology record: exactly one cache line. Touched by every climb,
  // contraction round, and teardown walk. merge_w leads so the 8-byte field
  // sets the alignment and nothing pads.
  struct alignas(64) Hot {
    Weight merge_w = 0;          // pair-merge edge weight
    uint32_t parent = 0;
    uint32_t pos_in_parent = 0;  // index in parent's children slab
    int32_t level = 0;
    Vertex leaf_vertex = kNoVertex;
    uint32_t center_child = 0;   // nonzero => superunary (high-degree) merge
    Vertex merge_u = kNoVertex;  // inside children[0] (pair merges only)
    Vertex merge_v = kNoVertex;  // inside children[1]
    ListRef nbrs;                // slab in adj_pool_
    ListRef children;            // slab in child_pool_
    // Hash index over nbrs for high-degree clusters (slab in idx_pool_,
    // capacity always 2 * nbrs.cap); kNullSlab below the degree threshold.
    uint32_t adj_index = kNullSlab;
  };
  static_assert(sizeof(Hot) == 64, "hot record must be one cache line");

  // Cold aggregates record: identical quantities to TopologyTree (see
  // topology_tree.h) plus the rake-index handle and the cached contribution
  // this cluster last pushed into a superunary parent's rake index.
  struct Cold {
    Weight sub_sum = 0;
    Weight path_sum = 0;
    Weight path_max = kNegInf;
    int64_t path_len = 0;
    int64_t diam = 0;
    int64_t max_dist[2] = {0, 0};
    int64_t sum_dist[2] = {0, 0};
    int64_t marked_dist[2] = {kInf, kInf};
    int64_t contrib_depth = 0;
    int64_t contrib_mark = 0;
    int64_t contrib_diam = 0;
    int64_t contrib_sumdist = 0;
    Weight contrib_sub = 0;
    uint32_t n_verts = 1;
    uint32_t marked_count = 0;
    uint32_t contrib_nverts = 0;
    uint32_t contrib_marked = 0;
    Vertex bv[2] = {kNoVertex, kNoVertex};
    // Rake index handle into rake_pool_ (superunary clusters only;
    // allocated lazily, recycled with the cluster). May be allocated while
    // rake_index_valid is false — validity gates the *contents*.
    uint32_t rake = kNullSlab;
    bool rake_index_valid = false;
  };

  // Incremental rake index for one superunary cluster, standing in for the
  // paper's rank trees (Section 4.2): sorted bags index the non-invertible
  // rake contributions; running totals cover the invertible parts; each
  // rake caches the contribution it last added (Cold::contrib_*).
  struct RakeIndex {
    SortedBag depths;  // 1 + rake.max_dist
    SortedBag marks;   // 1 + rake.marked_dist (finite only)
    SortedBag diams;   // rake.diam
    Weight sub_total = 0;
    int64_t sumdist_total = 0;
    uint32_t nverts_total = 0;
    uint32_t marked_total = 0;
    void clear() {
      depths.clear();
      marks.clear();
      diams.clear();
      sub_total = 0;
      sumdist_total = 0;
      nverts_total = 0;
      marked_total = 0;
    }
    size_t memory_bytes() const {
      return depths.memory_bytes() + marks.memory_bytes() +
             diams.memory_bytes();
    }
  };

  uint32_t leaf_id(Vertex v) const { return v + 1; }
  // Number of cluster-record slots (hot_/cold_ length), the bound for id
  // scans and scratch sizing. Cluster ids are 1..pool_size()-1; slot 0 is
  // the null cluster.
  uint32_t pool_size() const { return static_cast<uint32_t>(hot_.size()); }

  uint32_t alloc_cluster(int32_t level);
  void free_cluster(uint32_t c);
  // Recycle + mark freed without touching the free list (bulk teardown from
  // parallel phases recycles concurrently, then appends ids serially).
  void reset_cluster(uint32_t c);
  // Bulk teardown recycle: reset every cluster's records in parallel, then
  // splice all their slabs into the pool freelists and append the ids to
  // the cluster free list serially. The ids must be distinct and alive.
  void recycle_clusters(const std::vector<uint32_t>& ids);
  bool alive(uint32_t c) const { return hot_[c].level >= 0; }

  // --- Pooled list access ---------------------------------------------------
  // Spans stay valid across cluster allocation and across growth of *other*
  // clusters' lists (slab segments never move); they are invalidated only
  // by mutation of the same cluster's same list.
  Span<const Adj> nbrs(uint32_t c) const {
    const ListRef& l = hot_[c].nbrs;
    return {l.size ? adj_pool_.ptr(l.head) : nullptr, l.size};
  }
  Span<Adj> nbrs_mut(uint32_t c) {
    const ListRef& l = hot_[c].nbrs;
    return {l.size ? adj_pool_.ptr(l.head) : nullptr, l.size};
  }
  Span<const uint32_t> children(uint32_t c) const {
    const ListRef& l = hot_[c].children;
    return {l.size ? child_pool_.ptr(l.head) : nullptr, l.size};
  }
  size_t cluster_degree(uint32_t c) const { return hot_[c].nbrs.size; }
  size_t fanout(uint32_t c) const { return hot_[c].children.size; }

  void nbrs_push(uint32_t c, const Adj& a);
  // Ensure capacity for `total` entries before a run of pushes.
  void nbrs_reserve(uint32_t c, uint32_t total);
  // Drop all entries (keeps the slab; frees the hash index).
  void nbrs_clear(uint32_t c);

  bool adj_contains(uint32_t c, uint32_t d) const;
  const Adj* adj_find(uint32_t c, uint32_t d) const;
  void adj_remove(uint32_t c, uint32_t d);
  // Remove every entry whose nbr is in `targets` (sorted, all present).
  // O(targets) when c carries a hash index, O(degree + targets) otherwise —
  // the high-degree-hub case the adjacency index exists for.
  void adj_remove_batch(uint32_t c, const std::vector<uint32_t>& targets);

  uint32_t tree_root(Vertex v) const;
  // children bookkeeping with O(1) positional removal (superunary clusters
  // can have Theta(n) children; a linear scan per detach would be O(n^2)
  // over a star teardown).
  void add_child(uint32_t p, uint32_t c);
  void remove_child(uint32_t p, uint32_t c);
  // True when c is a rake of p and p's rake index holds c's entry.
  bool indexed_rake(uint32_t p, uint32_t c) const {
    return hot_[p].center_child != 0 && hot_[p].center_child != c &&
           cold_[p].rake_index_valid;
  }
  // remove_child that also drops c's rake-index entry when it has one.
  void drop_child(uint32_t p, uint32_t c);

  void refresh_leaf(uint32_t leaf);
  void recompute_aggregates(uint32_t p);
  // Incremental rake-index maintenance (amortized O(log fanout) each).
  void rake_index_add(uint32_t p, uint32_t r);
  void rake_index_remove(uint32_t p, uint32_t r);
  // Recompute r's cached contribution fields from its current aggregates
  // (the pure part of rake_index_add; safe to run concurrently for
  // distinct r).
  void rake_contrib_refresh(uint32_t r);
  // Batch rake-index construction (Section 4.2's rank trees are
  // parallelizable; the sorted-bag stand-in gets the same treatment):
  // compute every rake's contribution, sort the key arrays (fork-join when
  // parallel_bulk_ and the fanout is large, serial otherwise), and build
  // the bags from the sorted runs — O(f log f) work instead of f container
  // inserts. The only rebuild path recompute_aggregates uses.
  void rake_index_build_bulk(uint32_t p);
  // Batch attach: merge `rakes` (already children of p) into p's valid rake
  // index. Sorted-run merge — O(existing + new) instead of
  // new * log(existing); falls back to a full bulk rebuild when the new set
  // rivals the existing one.
  void rake_index_bulk_add(uint32_t p, const std::vector<uint32_t>& rakes);
  // Shared tail of the two bulk paths: refresh contributions, sort, merge
  // runs into p's bags, accumulate totals.
  void rake_index_merge_runs(uint32_t p, const std::vector<uint32_t>& rakes);
  // Empty p's rake index bags and totals (does not touch validity),
  // allocating the pooled index if p has none yet.
  void rake_index_clear(uint32_t p);
  static constexpr size_t kRakeBulkThreshold = 1024;
  // Recompute p's aggregates from the valid rake index + fresh center
  // values, without touching the rake children.
  void recompute_from_rake_index(uint32_t p);
  // Recompute c and every ancestor, refreshing c's (and each ancestor's)
  // cached contribution in superunary parents' rake indexes on the way up.
  void recompute_chain(uint32_t c);

  struct RepPath {
    Weight sum[2] = {0, 0};
    Weight max[2] = {kNegInf, kNegInf};
    int64_t len[2] = {0, 0};
  };
  RepPath climb_rep_path(Vertex from, uint32_t stop, uint32_t* child) const;
  bool is_ancestor(uint32_t anc, uint32_t leaf) const;
  uint32_t lca_cluster(uint32_t a, uint32_t b) const;
  int boundary_slot(const Cold& c, Vertex bv) const {
    if (c.bv[0] == bv) return 0;
    if (c.bv[1] == bv) return 1;
    return -1;
  }
  // Sum, max and hop count of a tree path.
  struct PathAgg {
    Weight sum;
    Weight max;
    int64_t len;
  };
  // Aggregates from a climbed endpoint to the center vertex of the LCA's
  // superunary merge (used by path queries at superunary LCA clusters).
  // child = the LCA child on that endpoint's side.
  PathAgg side_to_center(uint32_t lca, uint32_t child,
                         const RepPath& rp) const;
  // The u-v path's aggregates (u != v, connected): the one lca / climb /
  // combine walk behind path_sum, path_max and path_length.
  PathAgg path_aggregate(Vertex u, Vertex v) const;
  // Total of `field` over v's side of tree edge (v, p): the one walk behind
  // subtree_sum (Cold::sub_sum) and subtree_size (Cold::n_verts).
  template <class T>
  int64_t subtree_walk(Vertex v, Vertex p, T Cold::*field) const;

  // Degree at which a cluster grows a hash index over its adjacency slab.
  static constexpr uint32_t kAdjIdxThreshold = 64;

  size_t n_;
  // True during seq batch_update's deletion walk, where a doomed pair merge
  // may be recomputed before its retirement (see recompute_aggregates).
  bool batch_deleting_ = false;
  // Opted into by the parallel backend: lets recompute_aggregates build
  // large rake indexes with the fork-join bulk path. The sequential backend
  // leaves it false so "seq" never touches the pool (it stays an honest
  // single-threaded baseline and spawns no background threads).
  bool parallel_bulk_ = false;

  std::vector<Hot> hot_;
  std::vector<Cold> cold_;
  SlabPool<Adj> adj_pool_;
  SlabPool<uint32_t> child_pool_;
  SlabPool<uint64_t> idx_pool_;  // adjacency hash-index slabs
  ObjectPool<RakeIndex> rake_pool_;
  std::vector<uint32_t> free_;
  std::vector<Weight> vweight_;
  std::vector<uint8_t> marked_;
  size_t live_clusters_ = 0;

 private:
  RakeIndex& rake_of(uint32_t p) { return rake_pool_.at(cold_[p].rake); }
  void rake_ensure(uint32_t p);
  void children_push(uint32_t p, uint32_t c);
  // Adjacency hash index internals (slot = key << 32 | pos; 0 = empty).
  void adj_index_build(uint32_t c);
  void adj_index_drop(uint32_t c);
  void adj_index_insert(uint32_t c, uint32_t key, uint32_t pos);
  void adj_index_erase(uint32_t c, uint32_t key);
  void adj_index_set_pos(uint32_t c, uint32_t key, uint32_t pos);
  uint32_t adj_index_find(uint32_t c, uint32_t key) const;
  void maybe_drop_index(uint32_t c);
};

}  // namespace ufo::core
