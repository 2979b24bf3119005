// Common graph types shared by every dynamic-tree structure in the library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ufo {

// Vertex identifiers are dense 0..n-1 integers.
using Vertex = uint32_t;
inline constexpr Vertex kNoVertex = ~0u;

// Edge weights are 64-bit integers; 1 by default (unweighted inputs).
using Weight = int64_t;

struct Edge {
  Vertex u = 0;
  Vertex v = 0;
  Weight w = 1;
};

using EdgeList = std::vector<Edge>;

// A batch-update entry: insert (is_delete = false) or delete an edge.
struct Update {
  Vertex u = 0;
  Vertex v = 0;
  Weight w = 1;
  bool is_delete = false;
};

// The batch that links (is_delete = false) or cuts every edge of `edges`.
inline std::vector<Update> as_updates(const std::vector<Edge>& edges,
                                      bool is_delete) {
  std::vector<Update> batch;
  batch.reserve(edges.size());
  for (const Edge& e : edges) batch.push_back({e.u, e.v, e.w, is_delete});
  return batch;
}

// Canonical 64-bit key for an undirected edge (order-insensitive).
inline uint64_t edge_key(Vertex u, Vertex v) {
  if (u > v) {
    Vertex t = u;
    u = v;
    v = t;
  }
  return (static_cast<uint64_t>(u) << 32) | v;
}

}  // namespace ufo
