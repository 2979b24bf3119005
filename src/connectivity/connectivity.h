// Batch-dynamic connectivity for *general graphs*.
//
// The paper's structures maintain forests: link() requires its endpoints to
// be disconnected and cut() removes a tree edge. Every motivating workload
// (RIS edge streams, road closures, fleet tracking) is a general-graph
// problem, so this subsystem layers the textbook spanning-forest scheme on
// top of a UFO tree (seq::UfoTree, the default, or par::UfoTree):
//
//   * a spanning forest of the current graph, held in the Backend
//     (O(min{log n, D}) updates, Theorem 4.3), with its edges and their
//     weights in a tree EdgeStore;
//   * every remaining edge, with its weight, in a non-tree EdgeStore
//     (per-vertex adjacency on the phase-concurrent hash map);
//   * on insertion, an edge joining two components becomes a tree edge,
//     otherwise a non-tree edge;
//   * on deletion of tree edges, the level-synchronous replacement-edge
//     search (replacement_search.h) runs doubling-radius smaller-side
//     searches for every cut edge at once and promotes a non-tree edge
//     leaving each split side, or certifies the side crossing-free.
//
// Batch operations preserve the Section 5 batch contract for the backend: a
// batch_insert stages candidates in key order through a union-find over
// their endpoints' forest components (stage_candidates), so the edges
// handed to Backend::batch_link are mutually independent — any ordering is
// a valid link sequence. batch_erase cuts all tree edges in one backend
// batch and then runs one replacement search over all of them; single-edge
// erase is the same search on a one-edge cut batch.
//
// Replacement-search invariant (why one pass suffices): during batch_erase,
// cuts happen before any promotion, and afterwards components only merge.
// For each cut edge {u, v} the search ends in one of two permanent
// states: u and v reconnected, or both of their components certified
// crossing-free (every non-tree edge incident to a certified component
// stays internal, and certified components never change again). A crossing
// edge surviving all searches would yield, by walking its endpoints'
// original tree path, a cut pair with one endpoint in an uncertified
// crossing component and its partner elsewhere — contradicting that every
// pair finished in a permanent state. Hence forest components equal graph
// components after a single pass over the cut edges.
//
// Costs: insert/erase of a non-tree edge O(1) expected beyond the
// connectivity query; tree-edge deletion O(min-side + incident non-tree
// edges) for the search (within the doubling factor) plus the backend cut —
// the pragmatic bound (no HDT-style amortization), which the
// bench_connectivity sweep measures.
#pragma once

#include <concepts>
#include <cstddef>
#include <new>
#include <string>
#include <vector>

#include "connectivity/edge_store.h"
#include "connectivity/replacement_search.h"
#include "core/capabilities.h"
#include "core/invariants.h"
#include "core/ufo_core.h"
#include "graph/forest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/primitives.h"
#include "parallel/scheduler.h"
#include "recovery/snapshot.h"
#include "seq/ufo_tree.h"
#include "util/union_find.h"

namespace ufo::conn {

// BFS component labeling over a tree-edge store; label = smallest vertex id
// in the component. Shared by check_valid() and the test oracles.
std::vector<Vertex> component_labels(const EdgeStore& tree_edges);

template <std::derived_from<core::UfoCore> Backend = seq::UfoTree>
class GraphConnectivity {
 public:
  using backend_type = Backend;

  explicit GraphConnectivity(size_t n)
      : n_(n), forest_(n), tree_(n), nontree_(n), components_(n) {}

  size_t size() const { return n_; }
  size_t num_edges() const { return tree_.edges() + nontree_.edges(); }
  size_t num_tree_edges() const { return tree_.edges(); }
  size_t num_components() const { return components_; }
  bool has_edge(Vertex u, Vertex v) const {
    return u != v && (tree_.contains(u, v) || nontree_.contains(u, v));
  }
  bool connected(Vertex u, Vertex v) const {
    return u == v || forest_.connected(u, v);
  }

  // The spanning forest itself: path/subtree/non-local queries on it are
  // meaningful for any workload that treats promoted edges as routes.
  const Backend& forest() const { return forest_; }

  // Vertex annotations pass through to the backend (weights feed subtree
  // aggregates, marks feed nearest-marked queries); they never affect
  // connectivity, so exposing them cannot desync the spanning forest.
  void set_vertex_weight(Vertex v, Weight w) { forest_.set_vertex_weight(v, w); }
  void set_mark(Vertex v, bool m) { forest_.set_mark(v, m); }

  // Number of vertices in v's component, from the backend's subtree
  // aggregates on both sides of one tree edge at v (O(update cost)).
  size_t component_size(Vertex v) const {
    Vertex p = kNoVertex;
    tree_.for_each_neighbor(v, [&](Vertex y) {
      if (p == kNoVertex) p = y;
    });
    if (p == kNoVertex) return 1;  // isolated vertex
    return forest_.subtree_size(v, p) + forest_.subtree_size(p, v);
  }

  // --- Single-edge updates --------------------------------------------------
  // Insert {u, v}. Returns false (no-op) on self-loops and duplicates.
  bool insert(Vertex u, Vertex v, Weight w = 1) {
    if (u == v || u >= n_ || v >= n_ || has_edge(u, v)) return false;
    if (forest_.connected(u, v)) {
      nontree_.insert(u, v, w);
    } else {
      forest_.link(u, v, w);
      tree_.insert(u, v, w);
      --components_;
    }
    return true;
  }

  // Erase {u, v}. Returns false if the edge is absent. Deleting a tree edge
  // triggers the replacement-edge search.
  bool erase(Vertex u, Vertex v) {
    if (u == v || u >= n_ || v >= n_) return false;
    if (nontree_.erase(u, v)) return true;
    if (!tree_.erase(u, v)) return false;
    forest_.cut(u, v);
    ++components_;
    find_replacements({Edge{u, v, Weight{1}}}, /*multi_piece=*/false);
    return true;
  }

  // --- Batch updates --------------------------------------------------------
  // Insert a batch of edges. Unlike Backend::batch_link there is no
  // precondition: self-loops, duplicates within the batch, and edges already
  // present are filtered, and cycle-closing edges become non-tree edges. The
  // spanning candidates are staged through a union-find so the backend batch
  // is mutually independent (Section 5 contract). Returns kDegradedAlloc if
  // a bulk reservation failed and the sequential fallback was used (the
  // batch is still fully applied).
  BatchStatus batch_insert(const EdgeList& edges) {
    if (edges.empty()) return BatchStatus::kOk;
    // Phase 1 (parallel): drop self-loops and present edges, then
    // canonicalize and dedupe (the first occurrence of each key wins).
    EdgeList cand = par::filter(edges, [&](const Edge& e) {
      return e.u != e.v && e.u < n_ && e.v < n_ && !has_edge(e.u, e.v);
    });
    canonicalize_edges(&cand);
    if (cand.empty()) return BatchStatus::kOk;

    // Phase 2: stage in key order over forest components; the accepted
    // candidates span, the rest close cycles.
    std::vector<uint8_t> accept = stage_candidates(forest_, cand);
    EdgeList tree_batch =
        par::filter_index(cand, [&](size_t i) { return accept[i] != 0; });
    EdgeList nontree_batch =
        par::filter_index(cand, [&](size_t i) { return accept[i] == 0; });

    // Phase 3: apply. The tree batch is mutually independent by staging.
    BatchStatus status = BatchStatus::kOk;
    if (!tree_batch.empty()) {
      forest_.batch_link(tree_batch);
      components_ -= tree_batch.size();
      if (store_batch(tree_, tree_batch) == BatchStatus::kDegradedAlloc)
        status = BatchStatus::kDegradedAlloc;
    }
    if (!nontree_batch.empty()) {
      if (store_batch(nontree_, nontree_batch) == BatchStatus::kDegradedAlloc)
        status = BatchStatus::kDegradedAlloc;
    }
    return status;
  }

  // Erase a batch of edges. Absent edges and duplicates are filtered.
  // Non-tree removals are trivial; tree removals go through one backend
  // batch_cut, then replacement searches for all cut edges at once via the
  // level-synchronous parallel engine (replacement_search.h). Single pass —
  // see the invariant argument in the header comment. Returns
  // kDegradedAlloc if a bulk reservation failed along the way (the batch is
  // still fully applied through the sequential fallback).
  BatchStatus batch_erase(const EdgeList& edges) {
    if (edges.empty()) return BatchStatus::kOk;
    EdgeList cand = edges;
    canonicalize_edges(&cand);
    // Classify in parallel: 1 = non-tree, 2 = tree, 0 = absent.
    std::vector<uint8_t> kind(cand.size());
    par::parallel_for(0, cand.size(), [&](size_t i) {
      const Edge& e = cand[i];
      if (e.u == e.v || e.u >= n_ || e.v >= n_)
        kind[i] = 0;
      else if (nontree_.contains(e.u, e.v))
        kind[i] = 1;
      else if (tree_.contains(e.u, e.v))
        kind[i] = 2;
      else
        kind[i] = 0;
    });
    // Non-tree removals: phase-concurrent tombstone erases (distinct keys
    // by the dedupe above); the cut batch falls out of a parallel filter
    // over the classification.
    par::parallel_for(0, cand.size(), [&](size_t i) {
      if (kind[i] == 1) nontree_.erase(cand[i].u, cand[i].v);
    });
    EdgeList cut_batch =
        par::filter_index(cand, [&](size_t i) { return kind[i] == 2; });
    if (cut_batch.empty()) return BatchStatus::kOk;
    par::parallel_for(0, cut_batch.size(), [&](size_t i) {
      tree_.erase(cut_batch[i].u, cut_batch[i].v);
    });
    forest_.batch_cut(cut_batch);
    components_ += cut_batch.size();
    // One cut edge makes exactly two pieces; only larger cut batches can
    // shatter a component and need the both-sides certification rule.
    return find_replacements(cut_batch, /*multi_piece=*/cut_batch.size() > 1);
  }

  // --- Introspection --------------------------------------------------------
  size_t memory_bytes() const {
    return sizeof(*this) + tree_.memory_bytes() + nontree_.memory_bytes() +
           engine_.memory_bytes() + forest_.memory_bytes();
  }

  // Invariant audit: the forest spans exactly the graph's components, every
  // non-tree edge is intra-component, and the counters agree with a
  // from-scratch labeling. Failure codes (entity = a vertex of the edge,
  // or 0 for counter drift):
  //   #101 component count drift     #103 crossing non-tree edge
  //   #102 tree edge count drift     #105 spanning forest out of sync
  // (#104 is unused: an edge's weight lives in its own store entry.)
  core::InvariantReport validate() const {
    core::InvariantReport rep;
    std::vector<Vertex> label = component_labels(tree_);
    size_t comps = 0;
    for (Vertex v = 0; v < n_; ++v)
      if (label[v] == v) ++comps;
    if (comps != components_) rep.add(101, 0, "component count drift");
    if (tree_.edges() != n_ - components_)
      rep.add(102, 0, "tree edge count drift");
    for (Vertex v = 0; v < n_ && !rep.truncated; ++v) {
      nontree_.for_each_neighbor(v, [&](Vertex y) {
        if (label[v] != label[y]) rep.add(103, v, "crossing non-tree edge");
      });
      tree_.for_each_neighbor(v, [&](Vertex y) {
        if (!forest_.connected(v, y)) rep.add(105, v, "forest out of sync");
      });
    }
    return rep;
  }

  bool check_valid() const {
    core::InvariantReport rep = validate();
    if (!rep.ok()) rep.print(stderr);
    return rep.ok();
  }

  // --- Checkpointing --------------------------------------------------------
  // Durable snapshot of the whole layer: the spanning forest's cluster
  // hierarchy (via ForestSerializer) plus tree/non-tree edge sets, edge
  // weights, and the component counter, all in one checksummed file
  // written with the temp + fsync + rename protocol.
  recovery::RecoveryError save_checkpoint(const std::string& path) const {
    UFO_SPAN("recovery.conn_save");
    recovery::SnapshotWriter w;
    recovery::ForestSerializer::append(w, forest_);
    recovery::ByteBuf meta;
    meta.put_u64(n_);
    meta.put_u64(components_);
    w.add_section(recovery::kSecConnMeta, std::move(meta));
    w.add_section(recovery::kSecTreeEdges, dump_edges(tree_));
    w.add_section(recovery::kSecNontreeEdges, dump_edges(nontree_));
    // One (edge key, weight) pair per edge, from both stores.
    recovery::ByteBuf ws;
    ws.put_u64(num_edges());
    for (const EdgeStore* s : {&tree_, &nontree_})
      for (Vertex v = 0; v < n_; ++v)
        s->for_each_weighted(v, [&](Vertex y, Weight wt) {
          if (v < y) {
            ws.put_u64(edge_key(v, y));
            ws.put_i64(wt);
          }
        });
    w.add_section(recovery::kSecWeights, std::move(ws));
    return w.commit(path);
  }

  // Restore into a freshly constructed GraphConnectivity of the snapshot's
  // n. Edge sets are cross-checked against a union-find rebuilt from the
  // tree edges (cycle / crossing / counter drift -> kInconsistent); a
  // damaged kWeights section degrades to default weights when allowed.
  recovery::RecoveryError load_checkpoint(
      const std::string& path, const recovery::LoadOptions& opts = {},
      recovery::LoadStats* stats = nullptr) {
    using recovery::RecoveryError;
    UFO_SPAN("recovery.conn_load");
    recovery::LoadStats local;
    recovery::LoadStats& st = stats ? *stats : local;
    if (tree_.edges() != 0 || nontree_.edges() != 0 || components_ != n_)
      return RecoveryError::kBadTarget;
    recovery::SnapshotReader r;
    RecoveryError e = r.open(path);
    if (e != RecoveryError::kNone) return e;
    e = recovery::ForestSerializer::restore(r, forest_, opts, &st);
    if (e != RecoveryError::kNone) return e;

    const auto* cm = r.find(recovery::kSecConnMeta);
    const auto* te = r.find(recovery::kSecTreeEdges);
    const auto* ne = r.find(recovery::kSecNontreeEdges);
    const auto* wsec = r.find(recovery::kSecWeights);
    if (!cm || !te || !ne) return RecoveryError::kMissingSection;
    if (cm->corrupt || te->corrupt || ne->corrupt)
      return RecoveryError::kCorruptSection;
    recovery::Cursor mc(cm->data, cm->len);
    uint64_t n = mc.get_u64();
    uint64_t comps = mc.get_u64();
    if (!mc.ok()) return RecoveryError::kTruncated;
    if (n != n_) return RecoveryError::kBadTarget;
    if (comps > n_) return RecoveryError::kInconsistent;

    EdgeList tree_edges;
    try {
      e = parse_edges(*te, &tree_edges);
      if (e != RecoveryError::kNone) return e;
      EdgeList nontree_edges;
      e = parse_edges(*ne, &nontree_edges);
      if (e != RecoveryError::kNone) return e;
      // Every edge starts at weight 1; the weights section overwrites.
      for (const Edge& ed : tree_edges)
        if (!tree_.insert(ed.u, ed.v, 1)) return RecoveryError::kInconsistent;
      for (const Edge& ed : nontree_edges)
        if (tree_.contains(ed.u, ed.v) || !nontree_.insert(ed.u, ed.v, 1))
          return RecoveryError::kInconsistent;
      if (wsec && !wsec->corrupt) {
        recovery::Cursor wc(wsec->data, wsec->len);
        uint64_t count = wc.get_u64();
        if (count > wsec->len / 16 || !wc.can_read(count * 16))
          return RecoveryError::kTruncated;
        for (uint64_t i = 0; i < count; ++i) {
          uint64_t key = wc.get_u64();
          Weight wt = wc.get_i64();
          // The weight goes to whichever store holds the key's edge.
          Vertex u = static_cast<Vertex>(key >> 32);
          Vertex v = static_cast<Vertex>(key);
          if (u >= v || v >= n_) return RecoveryError::kInconsistent;
          EdgeStore& home = tree_.contains(u, v) ? tree_ : nontree_;
          if (!home.contains(u, v)) return RecoveryError::kInconsistent;
          home.insert_concurrent(u, v, wt);  // present: no slot needed
        }
      } else if (opts.allow_degraded) {
        st.degraded = true;
        st.notes.emplace_back("edge weights defaulted to 1");
        UFO_STAT("recovery.load.degraded", 1);
      } else {
        return RecoveryError::kCorruptSection;
      }
      components_ = comps;

      // Cross-check the edge sets against a union-find rebuilt from the
      // tree edges (the staged batches' certification structure): a cycle,
      // a crossing non-tree edge, or counter drift is kInconsistent.
      util::UnionFind uf(n_);
      for (const Edge& ed : tree_edges)
        if (!uf.unite(ed.u, ed.v)) return RecoveryError::kInconsistent;
      if (uf.num_components() != components_)
        return RecoveryError::kInconsistent;
      for (const Edge& ed : nontree_edges)
        if (!uf.same(ed.u, ed.v)) return RecoveryError::kInconsistent;
    } catch (const std::bad_alloc&) {
      return RecoveryError::kAllocFailed;
    }
    if (opts.verify && !validate().ok()) return RecoveryError::kInconsistent;
    return RecoveryError::kNone;
  }

 private:
  // Bulk-insert `edges` into `store`: reserve once + parallel inserts, or,
  // when the reservation's allocation fails, degrade to sequential
  // per-edge inserts (each grows incrementally, so a failed bulk
  // reservation does not imply the small ones fail too).
  BatchStatus store_batch(EdgeStore& store, const EdgeList& edges) {
    if (store.try_reserve_batch(edges)) {
      par::parallel_for(0, edges.size(), [&](size_t i) {
        store.insert_concurrent(edges[i].u, edges[i].v, edges[i].w);
      });
      return BatchStatus::kOk;
    }
    UFO_STAT("conn.degraded_batches", 1);
    for (const Edge& e : edges) store.insert(e.u, e.v, e.w);
    return BatchStatus::kDegradedAlloc;
  }

  static recovery::ByteBuf dump_edges(const EdgeStore& s) {
    recovery::ByteBuf b;
    b.put_u64(s.edges());
    for (Vertex v = 0; v < s.vertices(); ++v)
      s.for_each_neighbor(v, [&](Vertex y) {
        if (v < y) {
          b.put_u32(v);
          b.put_u32(y);
        }
      });
    return b;
  }

  recovery::RecoveryError parse_edges(const recovery::SnapshotReader::Section& sec,
                                      EdgeList* out) const {
    recovery::Cursor c(sec.data, sec.len);
    uint64_t count = c.get_u64();
    // Divide, don't multiply: a corrupt count must not overflow the guard.
    if (count > sec.len / 8 || !c.can_read(count * 8))
      return recovery::RecoveryError::kTruncated;
    out->reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      Edge e;
      e.u = c.get_u32();
      e.v = c.get_u32();
      if (e.u >= n_ || e.v >= n_ || e.u == e.v)
        return recovery::RecoveryError::kInconsistent;
      out->push_back(e);
    }
    return recovery::RecoveryError::kNone;
  }

  // Replacement search for the tree edges in `cut`, already cut from
  // forest_ and tree_ and counted in components_. If the engine's
  // zero-progress safety valve fires (unreachable by the termination
  // argument in DESIGN.md), every non-tree edge that now crosses forest
  // components is re-filed through batch_insert, whose staging promotes a
  // spanning subset and keeps the rest as intra-component non-tree edges:
  // O(m), and correct whatever state the engine left.
  BatchStatus find_replacements(const EdgeList& cut, bool multi_piece) {
    bool stalled = false;
    BatchStatus st = engine_.run(forest_, tree_, nontree_, cut, n_,
                                 multi_piece, &components_, &stalled);
    if (!stalled) return st;
    EdgeList crossing;
    for (Vertex v = 0; v < n_; ++v)
      nontree_.for_each_weighted(v, [&](Vertex y, Weight w) {
        if (v < y && !forest_.connected(v, y)) crossing.push_back(Edge{v, y, w});
      });
    for (const Edge& e : crossing) nontree_.erase(e.u, e.v);
    if (batch_insert(crossing) == BatchStatus::kDegradedAlloc)
      st = BatchStatus::kDegradedAlloc;
    return st;
  }

  size_t n_;
  Backend forest_;           // spanning forest (tree edges only)
  EdgeStore tree_;           // its weighted adjacency: membership + BFS
  EdgeStore nontree_;        // weighted replacement-edge candidates
  size_t components_;
  ReplacementSearch<Backend> engine_;  // pooled parallel replacement search
};

static_assert(core::GraphConnectivity<GraphConnectivity<seq::UfoTree>>);

// The default backend is compiled once in connectivity.cc.
extern template class GraphConnectivity<seq::UfoTree>;

}  // namespace ufo::conn
