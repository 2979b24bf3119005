// Dynamic ternarization (Appendix A.1): maps an arbitrary-degree forest to
// a degree <= 3 forest maintained under edge updates, so that degree-bounded
// structures (topology trees, RC trees) can host it.
//
// Scheme: each original vertex v owns a chain of "slots". The head slot is
// v itself; every incident real edge is hosted by exactly one slot, and
// consecutive slots are joined by weight-0 chain edges. A slot therefore has
// degree <= 3 (one real edge + two chain edges), the head <= 2. One original
// update maps to at most 4 underlying updates (the paper bounds it by 7).
//
// Underlying ids: originals occupy 0..n-1; extra slots are allocated from a
// pool above n. The inner structure is sized for `slot_capacity(n)` ids.
//
// Supported queries: connectivity, path sum/max over real edge weights
// (chain edges carry weight 0; weights must be non-negative for path_max to
// be meaningful), and subtree sums with respect to a real edge.
#pragma once

#include <cassert>
#include <cstddef>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/forest.h"

namespace ufo::seq {

template <class Inner>
class Ternarizer {
 public:
  // A forest on n vertices with up to n-1 edges needs at most n + 2(n-1)
  // underlying ids (each edge adds at most one slot per endpoint).
  static size_t slot_capacity(size_t n) { return n < 2 ? n : 3 * n - 2; }

  explicit Ternarizer(size_t n)
      : n_(n), inner_(slot_capacity(n)), chain_(n) {
    next_slot_ = static_cast<Vertex>(n);
    for (Vertex v = 0; v < n; ++v) chain_[v].push_back(v);
  }

  size_t size() const { return n_; }
  Inner& inner() { return inner_; }
  const Inner& inner() const { return inner_; }

  void link(Vertex u, Vertex v, Weight w = 1) {
    assert(u != v && !connected(u, v));
    Vertex su = host_for_new_edge(u);
    Vertex sv = host_for_new_edge(v);
    inner_.link(su, sv, w);
    uint64_t key = edge_key(u, v);
    hosts_[key] = {su, sv};
    weights_[key] = w;
    slot_edge_[su] = key;
    slot_edge_[sv] = key;
  }

  void cut(Vertex u, Vertex v) {
    auto it = hosts_.find(edge_key(u, v));
    assert(it != hosts_.end());
    auto [a, b] = it->second;
    Vertex su = owner_of(a) == u ? a : b;
    Vertex sv = owner_of(a) == u ? b : a;
    hosts_.erase(it);
    weights_.erase(edge_key(u, v));
    slot_edge_.erase(su);
    slot_edge_.erase(sv);
    inner_.cut(su, sv);
    release_slot(u, su);
    release_slot(v, sv);
  }

  bool has_edge(Vertex u, Vertex v) const {
    return hosts_.count(edge_key(u, v)) > 0;
  }

  bool connected(Vertex u, Vertex v) { return inner_.connected(u, v); }
  Weight path_sum(Vertex u, Vertex v) { return inner_.path_sum(u, v); }
  Weight path_max(Vertex u, Vertex v) { return inner_.path_max(u, v); }

  // Aggregate of original-vertex weights over the subtree of v rooted so
  // that p is v's parent ((v,p) must be a real edge).
  Weight subtree_sum(Vertex v, Vertex p) {
    auto it = hosts_.find(edge_key(v, p));
    assert(it != hosts_.end());
    auto [a, b] = it->second;
    Vertex sv = owner_of(a) == v ? a : b;
    Vertex sp = owner_of(a) == v ? b : a;
    return inner_.subtree_sum(sv, sp);
  }

  void set_vertex_weight(Vertex v, Weight w) {
    inner_.set_vertex_weight(v, w);  // the head slot carries the weight
  }

  size_t degree(Vertex v) const {
    const auto& ch = chain_[v];
    if (ch.size() > 1) return ch.size();
    return head_hosts_.count(v) ? 1 : 0;
  }

  size_t memory_bytes() const {
    size_t bytes = inner_.memory_bytes() + sizeof(*this);
    for (const auto& ch : chain_) bytes += ch.capacity() * sizeof(Vertex);
    bytes += (hosts_.size() + weights_.size() + slot_edge_.size() +
              head_hosts_.size() + owner_.size()) *
             48;  // rough node overhead for the bookkeeping maps
    bytes += free_slots_.capacity() * sizeof(Vertex);
    return bytes;
  }

 private:
  Vertex owner_of(Vertex slot) const {
    if (slot < n_) return slot;
    auto it = owner_.find(slot);
    assert(it != owner_.end());
    return it->second;
  }

  // Returns the slot that will host a new real edge of v, extending v's
  // chain if all existing slots are occupied.
  Vertex host_for_new_edge(Vertex v) {
    auto& ch = chain_[v];
    if (ch.size() == 1 && !head_hosts_.count(v)) {
      head_hosts_.insert(v);
      return v;
    }
    Vertex s;
    if (!free_slots_.empty()) {
      s = free_slots_.back();
      free_slots_.pop_back();
    } else {
      s = next_slot_++;
      assert(s < slot_capacity(n_));
    }
    owner_[s] = v;
    inner_.set_vertex_weight(s, 0);  // slots carry no vertex weight
    inner_.link(ch.back(), s, 0);    // chain edge
    ch.push_back(s);
    return s;
  }

  // Removes slot s from v's chain after its real edge was cut.
  void release_slot(Vertex v, Vertex s) {
    auto& ch = chain_[v];
    if (s == v) {  // the head hosted the edge
      head_hosts_.erase(v);
      if (ch.size() > 1) {
        // Keep "the head hosts an edge while extra slots exist": relocate
        // the tail slot's real edge onto the head, then drop the tail.
        Vertex tail = ch.back();
        relocate_real_edge(tail, v);
        inner_.cut(ch[ch.size() - 2], tail);
        owner_.erase(tail);
        free_slots_.push_back(tail);
        ch.pop_back();
        head_hosts_.insert(v);
      }
      return;
    }
    // Splice a non-head slot out of the chain.
    size_t idx = 0;
    while (ch[idx] != s) ++idx;
    Vertex prev = ch[idx - 1];
    inner_.cut(prev, s);
    if (idx + 1 < ch.size()) {
      Vertex next = ch[idx + 1];
      inner_.cut(s, next);
      inner_.link(prev, next, 0);
    }
    ch.erase(ch.begin() + idx);
    owner_.erase(s);
    free_slots_.push_back(s);
  }

  // Moves the real edge hosted at slot `from` onto slot `to` (same owner).
  void relocate_real_edge(Vertex from, Vertex to) {
    auto se = slot_edge_.find(from);
    assert(se != slot_edge_.end());
    uint64_t key = se->second;
    auto& slots = hosts_.at(key);
    Weight w = weights_.at(key);
    Vertex other = slots.first == from ? slots.second : slots.first;
    inner_.cut(from, other);
    inner_.link(to, other, w);
    if (slots.first == from)
      slots.first = to;
    else
      slots.second = to;
    slot_edge_.erase(se);
    slot_edge_[to] = key;
  }

  size_t n_;
  Inner inner_;
  std::vector<std::vector<Vertex>> chain_;
  std::unordered_map<uint64_t, std::pair<Vertex, Vertex>> hosts_;
  std::unordered_map<uint64_t, Weight> weights_;
  std::unordered_map<Vertex, uint64_t> slot_edge_;
  std::unordered_set<Vertex> head_hosts_;
  std::unordered_map<Vertex, Vertex> owner_;
  std::vector<Vertex> free_slots_;
  Vertex next_slot_;
};

}  // namespace ufo::seq
