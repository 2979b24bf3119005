// Per-vertex weighted adjacency store on the phase-concurrent hash map
// (parallel/hash_table.h). The connectivity subsystem keeps two of these:
// one for spanning-forest (tree) edges, one for non-tree edges awaiting
// promotion as replacement edges. Each edge {u, v} is one entry in each
// endpoint's map (neighbour -> weight), and that is the only place its
// weight lives: moving an edge between the stores moves its weight.
//
// Concurrency model matches ConcurrentMap's: lookups/inserts/erases are safe
// within a phase, capacity growth happens only at phase boundaries
// (try_reserve_batch before a concurrent insert phase). The sequential
// insert() grows on demand.
#pragma once

#include <atomic>
#include <cstddef>
#include <unordered_map>
#include <vector>

#include "graph/forest.h"
#include "parallel/hash_table.h"

namespace ufo::conn {

class EdgeStore {
 public:
  explicit EdgeStore(size_t n) : adj_(n) {}

  EdgeStore(const EdgeStore& other)
      : adj_(other.adj_), edges_(other.edges_.load()) {}
  EdgeStore& operator=(const EdgeStore& other) {
    if (this != &other) {
      adj_ = other.adj_;
      edges_.store(other.edges_.load());
    }
    return *this;
  }

  size_t vertices() const { return adj_.size(); }
  // Number of undirected edges currently stored.
  size_t edges() const { return edges_.load(std::memory_order_relaxed); }
  size_t degree(Vertex v) const { return adj_[v].size(); }

  bool contains(Vertex u, Vertex v) const { return adj_[u].contains(v); }

  // Weight of the stored edge {u, v} (1 if absent; read phase).
  Weight weight(Vertex u, Vertex v) const { return adj_[u].get(v, Weight{1}); }

  // Sequential insert-or-assign of {u, v} with weight w; grows the endpoint
  // maps as needed. Returns true iff the edge was absent.
  bool insert(Vertex u, Vertex v, Weight w) {
    adj_[u].reserve(1);
    adj_[v].reserve(1);
    return insert_concurrent(u, v, w);
  }

  // Phase-concurrent insert-or-assign: distinct edges may be inserted from
  // parallel tasks, provided try_reserve_batch() covered the endpoints at
  // the preceding phase boundary.
  bool insert_concurrent(Vertex u, Vertex v, Weight w) {
    bool fresh = adj_[u].insert_concurrent(v, w);
    adj_[v].insert_concurrent(u, w);
    if (fresh) edges_.fetch_add(1, std::memory_order_relaxed);
    return fresh;
  }

  // Phase-concurrent erase (tombstones). Returns true iff the edge existed.
  bool erase(Vertex u, Vertex v) {
    bool had = adj_[u].erase(v);
    adj_[v].erase(u);
    if (had) edges_.fetch_sub(1, std::memory_order_relaxed);
    return had;
  }

  template <class F>
  void for_each_neighbor(Vertex v, F&& f) const {
    adj_[v].for_each(
        [&](uint64_t key, Weight) { f(static_cast<Vertex>(key)); });
  }

  // f(neighbour, weight) for every edge at v (read-only phase).
  template <class F>
  void for_each_weighted(Vertex v, F&& f) const {
    adj_[v].for_each(
        [&](uint64_t key, Weight w) { f(static_cast<Vertex>(key), w); });
  }

  std::vector<Vertex> neighbors(Vertex v) const {
    std::vector<Vertex> out;
    out.reserve(adj_[v].size());
    for_each_neighbor(v, [&](Vertex u) { out.push_back(u); });
    return out;
  }

  // Phase boundary: grow every endpoint's map so a following concurrent
  // insert phase over `edges` cannot overflow. Allocation failure is
  // reported instead of thrown: returns false as soon as one endpoint's
  // growth fails; every map is still valid (try_reserve leaves a map
  // untouched on failure), so the caller can fall back to sequential
  // per-edge inserts.
  bool try_reserve_batch(const EdgeList& edges) {
    std::unordered_map<Vertex, size_t> extra;
    for (const Edge& e : edges) {
      ++extra[e.u];
      ++extra[e.v];
    }
    for (const auto& [v, k] : extra)
      if (!adj_[v].try_reserve(k)) return false;
    return true;
  }

  // Every map's memory_bytes() counts its own header, so adj_'s buffer
  // (exactly n headers) is not counted twice.
  size_t memory_bytes() const {
    size_t total = sizeof(*this);
    for (const auto& s : adj_) total += s.memory_bytes();
    return total;
  }

 private:
  std::vector<par::ConcurrentMap> adj_;
  std::atomic<size_t> edges_{0};
};

}  // namespace ufo::conn
