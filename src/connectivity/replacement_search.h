// Level-synchronous parallel replacement-edge search.
//
// After a batch_cut, every cut pair {u, v} needs either a replacement edge
// (reconnecting the split) or a certificate that its components carry no
// crossing non-tree edge. This engine is the connectivity layer's one
// replacement search: it serves single-edge erase (a one-pair batch) and
// every cut batch, processing all pairs concurrently in rounds, combining
// two classic ideas:
//
//   * doubling-radius smaller-side search (HDT-style): each side of each cut
//     pair runs a budgeted BFS over tree edges; the budget doubles every
//     round, so the smaller side completes first and pays the scan;
//   * claim-based search merging (psac-style round structure): vertices are
//     claimed through a par::ClaimTable CAS protocol, and a search reaching a
//     vertex another search owns *merges* with it (union-find over search
//     ids, frontier splicing) instead of rescanning its territory — a
//     shattered star's hub-side searches collapse into one group in the
//     first round, so total work is O(component) rather than O(k x
//     component).
//
// Round structure (serial barriers between phases):
//   A. expand  — parallel over active groups: pop up to `budget` frontier
//                vertices, claim their tree neighbors; losing claims record
//                merge requests.
//   B. merge   — apply merge requests (splice loser frontier + pending into
//                the union-find root's).
//   C. scan    — parallel over the pending lists of *complete* groups (claim
//                set = whole forest component): find one crossing non-tree
//                edge per vertex; crossing-free vertices leave pending
//                permanently (components only merge afterwards, so internal
//                edges stay internal).
//   D. promote — dedupe candidates, stage them through a union-find over
//                forest components (mutually independent set), then ONE
//                forest.batch_link for the whole round; each promoted edge
//                moves with its weight from the non-tree to the tree store
//                and merges the groups at its endpoints.
//   E. resolve — parallel over pairs: done when reconnected, or certified
//                (complete + empty pending) on one side (single cut) or both
//                sides (multi-piece batch — see connectivity.h's invariant).
//
// Certification stays sound across merges because group state is never
// dropped mid-batch: a dormant group (all its pairs done) keeps its queue
// and pending, and a later merge splices them into the active group, whose
// completeness/cleanliness then covers the inherited territory.
//
// All per-batch state (claim table, frontier arena, union-finds, flat
// scratch) is pooled across batches and accounted in memory_bytes(). Short
// phases cost little on one or a few pairs: par::parallel_for runs short
// loops inline.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "connectivity/edge_store.h"
#include "core/ufo_core.h"
#include "graph/forest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/frontier.h"
#include "parallel/primitives.h"
#include "parallel/scheduler.h"
#include "util/fault.h"
#include "util/union_find.h"

namespace ufo::conn {

// Outcome of a batch mutation. kDegradedAlloc: a bulk hash-table
// reservation failed (real or injected bad_alloc), so the batch completed
// through the sequential fallback — the structure is fully consistent and
// every edge was applied, only the parallel fast path was lost.
enum class BatchStatus { kOk, kDegradedAlloc };

// Store every edge as u < v, sort by edge_key and keep the first occurrence
// of each key: the canonical form batch_insert, batch_erase and the
// engine's promotion stage all work on.
inline void canonicalize_edges(EdgeList* edges) {
  EdgeList& es = *edges;
  par::parallel_for(0, es.size(), [&](size_t i) {
    if (es[i].u > es[i].v) std::swap(es[i].u, es[i].v);
  });
  auto key = [](const Edge& e) { return edge_key(e.u, e.v); };
  par::sort(es, [&](const Edge& a, const Edge& b) { return key(a) < key(b); });
  es.erase(std::unique(es.begin(), es.end(),
                       [&](const Edge& a, const Edge& b) {
                         return key(a) == key(b);
                       }),
           es.end());
}

// Stage candidate links for one Backend::batch_link: accept[j] = 1 iff
// candidate j joins two forest components that no earlier accepted
// candidate already joined. The accepted set is mutually independent
// (Section 5 contract), so one batch_link applies it in any order, and it
// is exactly the set a Kruskal pass in candidate order accepts over a
// union-find seeded with the forest's components. Serves batch_insert and
// every promotion round of the engine.
inline std::vector<uint8_t> stage_candidates(const core::UfoCore& forest,
                                             const EdgeList& cands) {
  size_t m = cands.size();
  std::vector<uint64_t> ids = par::map(2 * m, [&](size_t i) {
    const Edge& e = cands[i >> 1];
    return forest.component_id((i & 1) ? e.v : e.u);
  });
  // Dense ids over the distinct components, for the union-find.
  std::vector<uint32_t> cidx(2 * m);
  std::unordered_map<uint64_t, uint32_t> dense;
  dense.reserve(2 * m);
  for (size_t i = 0; i < ids.size(); ++i) {
    auto [it, fresh] =
        dense.emplace(ids[i], static_cast<uint32_t>(dense.size()));
    cidx[i] = it->second;
  }
  util::UnionFind uf(dense.size());
  std::vector<uint8_t> accept(m);
  for (size_t j = 0; j < m; ++j)
    accept[j] = uf.unite(cidx[2 * j], cidx[2 * j + 1]) ? 1 : 0;
  return accept;
}

template <std::derived_from<core::UfoCore> Backend>
class ReplacementSearch {
 public:
  // Run replacement searches for `cut_batch` (the tree edges just cut from
  // `forest`; their tree_ entries already erased). Promoted edges move with
  // their weights from `nontree` to `tree` and decrement *components.
  // *stalled is set when the zero-progress safety valve stopped the search
  // with pairs still unsettled; the caller then repairs the forest
  // (connectivity.h). `n` is the vertex count, `multi_piece` the batch's
  // certification rule (see connectivity.h).
  BatchStatus run(Backend& forest, EdgeStore& tree, EdgeStore& nontree,
                  const EdgeList& cut_batch, size_t n, bool multi_piece,
                  size_t* components, bool* stalled) {
    UFO_SPAN("conn.search");
    BatchStatus status = BatchStatus::kOk;
    const size_t k = cut_batch.size();
    const uint32_t S = static_cast<uint32_t>(2 * k);  // search 2i/2i+1 = u/v side
    claims_.begin_phase(n);
    uf_.reset(S);
    qh_.assign(S, kNone);
    ph_.assign(S, kNone);
    head_.assign(S, 0);
    budget_.assign(S, kInitialBudget);
    complete_.assign(S, 0);
    lead_.assign(S, 0);
    mreq_.assign(S, {});
    done_.assign(k, 0);

    // Seed claims (serial: seeds collide whenever cut edges share an
    // endpoint — the star-shatter case — and must merge immediately).
    for (uint32_t s = 0; s < S; ++s) {
      const Edge& e = cut_batch[s >> 1];
      Vertex seed = (s & 1) ? e.v : e.u;
      uint32_t o = claims_.claim_or_owner(seed, s);
      if (o == s) {
        qh_[s] = arena_.acquire();
        ph_[s] = arena_.acquire();
        arena_.at(qh_[s]).push_back(seed);
        arena_.at(ph_[s]).push_back(seed);
      } else {
        merge_groups(s, o);
      }
    }

    size_t undone = k;
    while (undone > 0) {
      UFO_STAT("conn.search.rounds", 1);
      // Groups serving at least one undone pair participate this round;
      // dormant groups keep their state for potential later merges.
      mark_served(S, k);
      expand_roots_.clear();
      for (uint32_t s = 0; s < S; ++s)
        if (qh_[s] != kNone && served_[s] && !complete_[s])
          expand_roots_.push_back(s);

      // --- Phase A: budgeted parallel expansion over tree edges ----------
      std::atomic<size_t> pops{0}, won{0}, lost{0};
      par::parallel_for(
          0, expand_roots_.size(),
          [&](size_t t) {
            uint32_t r = expand_roots_[t];
            auto& q = arena_.at(qh_[r]);
            auto& p = arena_.at(ph_[r]);
            size_t popped = 0, w = 0, l = 0;
            while (head_[r] < q.size() && popped < budget_[r]) {
              Vertex x = q[head_[r]++];
              ++popped;
              tree.for_each_neighbor(x, [&](Vertex y) {
                // Only group r ever writes owner id r, and r's expansion is
                // single-threaded, so the pre-check cleanly separates
                // "already ours" from "we just won".
                uint32_t o = claims_.owner_of(y);
                if (o == par::ClaimTable::kUnclaimed) {
                  o = claims_.claim_or_owner(y, r);
                  if (o == r) {
                    q.push_back(y);
                    p.push_back(y);
                    ++w;
                    return;
                  }
                }
                if (lead_[o] != r) {
                  mreq_[r].push_back(o);
                  ++l;
                }
              });
            }
            complete_[r] = (head_[r] == q.size()) ? 1 : 0;
            pops.fetch_add(popped, std::memory_order_relaxed);
            won.fetch_add(w, std::memory_order_relaxed);
            lost.fetch_add(l, std::memory_order_relaxed);
          });
      UFO_STAT("conn.claim.won", static_cast<int64_t>(won.load()));
      UFO_STAT("conn.claim.lost", static_cast<int64_t>(lost.load()));

      // --- Phase B: apply merge requests (serial barrier) ----------------
      size_t merges = 0;
      for (uint32_t r : expand_roots_) {
        for (uint32_t o : mreq_[r])
          if (uf_.find(r) != uf_.find(o)) {
            merge_groups(r, o);
            ++merges;
          }
        mreq_[r].clear();
      }

      // --- Phase C: parallel crossing-edge scan of complete groups -------
      mark_served(S, k);
      item_group_.clear();
      item_vertex_.clear();
      scan_roots_.clear();
      for (uint32_t s = 0; s < S; ++s) {
        if (qh_[s] == kNone || !served_[s] || !complete_[s]) continue;
        const auto& p = arena_.at(ph_[s]);
        if (p.empty()) continue;
        scan_roots_.push_back(s);
        for (Vertex x : p) {
          item_group_.push_back(s);
          item_vertex_.push_back(x);
        }
      }
      size_t items = item_vertex_.size();
      cand_y_.assign(items, kNoVertex);
      auto scan = [&](size_t j) {
        Vertex x = item_vertex_[j];
        uint32_t r = item_group_[j];
        Vertex found = kNoVertex;
        nontree.for_each_neighbor(x, [&](Vertex y) {
          if (found != kNoVertex) return;
          uint32_t o = claims_.owner_of(y);
          // r is complete: its claims cover x's whole forest component, so
          // an unclaimed or foreign-group y lies in another component.
          if (o == par::ClaimTable::kUnclaimed || lead_[o] != r) found = y;
        });
        cand_y_[j] = found;
      };
      [[maybe_unused]] size_t scanned = items;
      if (multi_piece) {
        par::parallel_for(0, items, scan);
      } else {
        // A single cut makes exactly two pieces, so its first crossing edge
        // reconnects them: scan in order and stop there. Vertices left
        // unscanned stay pending, so they never count as certified clean.
        size_t j = 0;
        while (j < items) {
          scan(j);
          if (cand_y_[j++] != kNoVertex) break;
        }
        scanned = j;
        std::fill(cand_y_.begin() + static_cast<ptrdiff_t>(j), cand_y_.end(),
                  kUnscanned);
      }
      UFO_STAT("conn.replacement_scanned", static_cast<int64_t>(scanned));

      // Rebuild pending lists: crossing-free vertices leave permanently,
      // emitters stay (their candidate may lose staging and need a rescan).
      // A group's claims lie in one forest component, so staging would
      // accept at most one of its candidates per target group: keep one
      // per target group, plus one into unclaimed territory, and spare
      // staging the rest's component lookups. Items are contiguous per
      // group, so last_emit_ only needs the last emitting group per target.
      size_t pending_drops = 0;
      EdgeList cands;
      last_emit_.assign(S + 1, par::ClaimTable::kUnclaimed);
      for (uint32_t s : scan_roots_) arena_.at(ph_[s]).clear();
      for (size_t j = 0; j < items; ++j) {
        Vertex y = cand_y_[j];
        if (y == kNoVertex) {
          ++pending_drops;
          continue;
        }
        uint32_t r = item_group_[j];
        arena_.at(ph_[r]).push_back(item_vertex_[j]);
        if (y == kUnscanned) continue;
        uint32_t o = claims_.owner_of(y);
        uint32_t target = o == par::ClaimTable::kUnclaimed ? S : lead_[o];
        if (last_emit_[target] == r) continue;
        last_emit_[target] = r;
        cands.push_back(Edge{item_vertex_[j], y, Weight{1}});
      }

      // --- Phase D: bulk promotion -------------------------------------
      size_t promoted = 0;
      if (!cands.empty()) {
        UFO_SPAN("conn.promote");
        canonicalize_edges(&cands);
        std::vector<uint8_t> accept = stage_candidates(forest, cands);
        EdgeList winners =
            par::filter_index(cands, [&](size_t j) { return accept[j] != 0; });
        // Read each weight before the edge leaves the non-tree store.
        par::parallel_for(0, winners.size(), [&](size_t j) {
          winners[j].w = nontree.weight(winners[j].u, winners[j].v);
        });
        // Staging guarantees mutual independence: one backend batch per
        // round, the whole point of bulk promotion.
        forest.batch_link(winners);
        *components -= winners.size();
        promoted = winners.size();
        UFO_STAT("conn.promotions", static_cast<int64_t>(promoted));
        if (tree.try_reserve_batch(winners)) {
          par::parallel_for(0, winners.size(), [&](size_t j) {
            tree.insert_concurrent(winners[j].u, winners[j].v, winners[j].w);
          });
        } else {
          UFO_STAT("conn.degraded_batches", 1);
          for (const Edge& e : winners) tree.insert(e.u, e.v, e.w);
          status = BatchStatus::kDegradedAlloc;
        }
        par::parallel_for(0, winners.size(), [&](size_t j) {
          nontree.erase(winners[j].u, winners[j].v);
        });
        // Group bookkeeping per promotion (serial): the emitter's group and
        // the far endpoint's group are now one component — merge them, or,
        // if the far endpoint was unclaimed, claim it and put it on the
        // frontier so its piece gets expanded and scanned. Canonical order
        // hides which endpoint emitted; the emitter is the claimed one.
        for (const Edge& e : winners) {
          Vertex far = e.v;
          uint32_t ox = claims_.owner_of(e.u);
          uint32_t oy = claims_.owner_of(e.v);
          if (ox == par::ClaimTable::kUnclaimed) {
            std::swap(ox, oy);
            far = e.u;
          }
          if (oy != par::ClaimTable::kUnclaimed) {
            if (uf_.find(ox) != uf_.find(oy)) merge_groups(ox, oy);
          } else {
            uint32_t r = uf_.find(ox);
            claims_.claim_or_owner(far, r);
            arena_.at(qh_[r]).push_back(far);
            arena_.at(ph_[r]).push_back(far);
            complete_[r] = 0;
          }
        }
      }

      // --- Phase E: resolve pairs (parallel) ---------------------------
      refresh_leads(S);
      size_t newly_done = 0;
      std::vector<uint8_t> newly(k, 0);
      par::parallel_for(0, k, [&](size_t i) {
        if (done_[i]) return;
        const Edge& e = cut_batch[i];
        bool conn = forest.connected(e.u, e.v);
        bool cu = certified(lead_[2 * i]);
        bool cv = certified(lead_[2 * i + 1]);
        // Multi-piece batches need BOTH sides certified (a third piece may
        // still hang off the far side); a single cut makes exactly two
        // pieces, so one clean side settles it — connectivity.h's invariant.
        bool d = conn || (multi_piece ? (cu && cv) : (cu || cv));
        if (d) {
          done_[i] = 1;
          newly[i] = 1;
        }
      });
      for (size_t i = 0; i < k; ++i) newly_done += newly[i];
      undone -= newly_done;

      // --- Phase F: double the radius of unfinished groups -------------
      size_t doublings = 0;
      for (uint32_t s = 0; s < S; ++s) {
        if (qh_[s] == kNone || complete_[s]) continue;
        if (budget_[s] < n) {
          budget_[s] <<= 1;
          ++doublings;
        }
      }
      UFO_STAT("conn.radius_doublings", static_cast<int64_t>(doublings));

      // Safety valve: a round that moved nothing cannot start moving (all
      // quantities are monotone); stop rather than spin and let the caller
      // repair. Unreachable by the termination argument in DESIGN.md, but
      // cheap insurance against it being wrong. The conn.search.stall
      // fault site forces it so tests can reach the repair.
      if (UFO_FAULT_POINT("conn.search.stall") ||
          (pops.load() == 0 && merges == 0 && promoted == 0 &&
           newly_done == 0 && pending_drops == 0))
        break;
    }

    *stalled = undone > 0;
    for (uint32_t s = 0; s < S; ++s) {
      if (qh_[s] == kNone) continue;
      arena_.release(qh_[s]);
      arena_.release(ph_[s]);
      qh_[s] = kNone;
      ph_[s] = kNone;
    }
    return status;
  }

  size_t memory_bytes() const {
    auto vec = [](const auto& v) {
      return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
    };
    size_t total = sizeof(*this) + claims_.memory_bytes() +
                   arena_.memory_bytes() + vec(qh_) + vec(ph_) + vec(head_) +
                   vec(budget_) + vec(complete_) + vec(done_) + vec(lead_) +
                   vec(served_) + vec(expand_roots_) + vec(scan_roots_) +
                   vec(item_group_) + vec(item_vertex_) + vec(cand_y_) +
                   vec(last_emit_);
    for (const auto& m : mreq_) total += vec(m);
    total += mreq_.capacity() * sizeof(std::vector<uint32_t>);
    return total;
  }

 private:
  // First-round pops per side. Small so pairs whose replacement sits within
  // a hop or two stop after one cheap round; doubling reaches any radius in
  // log rounds anyway.
  static constexpr size_t kInitialBudget = 8;
  // Scan result of a vertex the single-cut early exit skipped (vertex ids
  // stay below kNoVertex - 1).
  static constexpr Vertex kUnscanned = kNoVertex - 1;
  static constexpr par::FrontierArena::Handle kNone = par::FrontierArena::kNone;

  void refresh_leads(uint32_t S) {
    for (uint32_t s = 0; s < S; ++s) lead_[s] = uf_.find(s);
  }

  // Refresh the leads, then flag served_[r] for every group root r that
  // serves at least one of the k pairs not yet done.
  void mark_served(uint32_t S, size_t k) {
    refresh_leads(S);
    served_.assign(S, 0);
    for (size_t i = 0; i < k; ++i) {
      if (done_[i]) continue;
      served_[lead_[2 * i]] = 1;
      served_[lead_[2 * i + 1]] = 1;
    }
  }

  // A group certifies its (whole) component crossing-free when its claims
  // cover it (complete) and every claimed vertex scanned clean (pending
  // empty). `r` must be a current union-find root.
  bool certified(uint32_t r) const {
    return qh_[r] != kNone && complete_[r] && arena_.at(ph_[r]).empty();
  }

  // Unite the groups of searches a and b; the surviving state lands at the
  // new union-find root. The loser's unexpanded queue suffix and pending
  // list splice into the winner's — inherited territory keeps its
  // obligations, which is what keeps certification sound across merges.
  void merge_groups(uint32_t a, uint32_t b) {
    uint32_t ra = uf_.find(a), rb = uf_.find(b);
    if (ra == rb) return;
    uf_.unite(ra, rb);
    uint32_t r = uf_.find(ra);
    uint32_t o = (r == ra) ? rb : ra;
    if (qh_[o] == kNone) return;  // loser had no state; winner keeps its own
    if (qh_[r] == kNone) {  // winner fresh (lost its seed): steal wholesale
      qh_[r] = qh_[o];
      ph_[r] = ph_[o];
      head_[r] = head_[o];
      budget_[r] = budget_[o];
      complete_[r] = complete_[o];
    } else {
      auto& qr = arena_.at(qh_[r]);
      const auto& qo = arena_.at(qh_[o]);
      qr.insert(qr.end(), qo.begin() + static_cast<ptrdiff_t>(head_[o]),
                qo.end());
      auto& pr = arena_.at(ph_[r]);
      const auto& po = arena_.at(ph_[o]);
      pr.insert(pr.end(), po.begin(), po.end());
      complete_[r] = (complete_[r] && complete_[o]) ? 1 : 0;
      budget_[r] = std::max(budget_[r], budget_[o]);
      arena_.release(qh_[o]);
      arena_.release(ph_[o]);
    }
    qh_[o] = kNone;
    ph_[o] = kNone;
  }

  par::ClaimTable claims_;
  par::FrontierArena arena_;
  util::UnionFind uf_{0};  // over search ids: group membership
  std::vector<par::FrontierArena::Handle> qh_, ph_;  // per-root BFS queue /
                                                     // pending-scan handles
  std::vector<size_t> head_, budget_;
  std::vector<uint8_t> complete_, done_, served_;
  std::vector<uint32_t> lead_;  // search id -> union-find root, per-phase
                                // snapshot (find() mutates; no concurrent use)
  std::vector<std::vector<uint32_t>> mreq_;  // per-root merge requests
  std::vector<uint32_t> expand_roots_, scan_roots_, item_group_;
  std::vector<uint32_t> last_emit_;  // target group (S: unclaimed) -> last
                                     // group that emitted a candidate into it
  std::vector<Vertex> item_vertex_, cand_y_;
};

}  // namespace ufo::conn
