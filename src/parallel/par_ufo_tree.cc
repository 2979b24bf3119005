// Parallel batch-dynamic UFO tree updates: path-granular level-synchronous
// teardown (concurrent DeleteAncestors), multi-level edge propagation, and
// reclustering of the detached frontier against the surviving hierarchy
// (Section 5). Queries and aggregate maintenance are inherited from
// core::UfoCore.
#include "parallel/par_ufo_tree.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/primitives.h"
#include "parallel/scheduler.h"
#include "util/random.h"

namespace ufo::par {

UfoTree::UfoTree(size_t n) : core::UfoCore(n) {
  parallel_bulk_ = true;  // rake indexes may use the fork-join bulk paths
  ensure_scratch();
}

void UfoTree::link(Vertex u, Vertex v, Weight w) {
  assert(u != v && !connected(u, v));
  batch_update({{u, v, w, false}});
}

void UfoTree::cut(Vertex u, Vertex v) {
  assert(has_edge(u, v));
  batch_update({{u, v, 0, true}});
}

void UfoTree::batch_link(const std::vector<Edge>& edges) {
  batch_update(as_updates(edges, false));
}

void UfoTree::batch_cut(const std::vector<Edge>& edges) {
  batch_update(as_updates(edges, true));
}

void UfoTree::ensure_scratch() {
  size_t n = pool_size();
  if (state_.size() < n) state_.resize(n, 0);
  if (proposal_.size() < n) proposal_.resize(n, 0);
  if (doomed_.size() < n) doomed_.resize(n, 0);
}

void UfoTree::set_role(uint32_t c, uint8_t role) {
  state_[c] = (round_ << 3) | role;
}

uint8_t UfoTree::role_of(uint32_t c) const {
  uint64_t s = state_[c];
  return (s >> 3) == round_ ? static_cast<uint8_t>(s & 7)
                            : static_cast<uint8_t>(kNone);
}

void UfoTree::root_into_frontier(uint32_t c) {
  size_t lvl = static_cast<size_t>(hot_[c].level);
  if (frontier_.size() <= lvl) frontier_.resize(lvl + 1);
  frontier_[lvl].push_back(c);
}

// Apply the batch's edge updates at every level where both endpoints'
// ancestor chains have distinct clusters (the parallel analogue of seq's
// edge_walk). Deletions run on the intact pre-teardown chains, so the
// teardown's survival guards see post-delete degrees; insertions run on the
// surviving post-teardown chains, whose clusters all kept degree >= 3
// through the guard and therefore attach the new projections at their
// single boundary vertex. Walks are read-only and parallel; the emitted
// (cluster, op) list is semisorted so one task owns each touched cluster.
void UfoTree::edge_level_ops(const std::vector<Update>& ops, bool insert) {
  size_t m = ops.size();
  // Pass 1: per-update walk length.
  std::vector<size_t> off(m);
  parallel_for(0, m, [&](size_t i) {
    uint32_t a = leaf_id(ops[i].u), b = leaf_id(ops[i].v);
    size_t levels = 0;
    while (a != 0 && b != 0 && a != b) {
      ++levels;
      a = hot_[a].parent;
      b = hot_[b].parent;
    }
    off[i] = 2 * levels;
  });
  size_t total = scan_exclusive(off);
  std::vector<std::pair<uint32_t, Adj>> flat(total);
  parallel_for(0, m, [&](size_t i) {
    uint32_t a = leaf_id(ops[i].u), b = leaf_id(ops[i].v);
    size_t at = off[i];
    while (a != 0 && b != 0 && a != b) {
      flat[at++] = {a, {b, ops[i].u, ops[i].v, ops[i].w}};
      flat[at++] = {b, {a, ops[i].v, ops[i].u, ops[i].w}};
      a = hot_[a].parent;
      b = hot_[b].parent;
    }
  });
  if (!insert) {
    auto gone = map(total, [&](size_t i) {
      return std::pair{flat[i].first, flat[i].second.nbr};
    });
    for (uint32_t c : remove_adjacency(std::move(gone))) dirty_.push_back(c);
    return;
  }
  auto groups = group_by_key(flat);
  parallel_for(0, groups.size(), [&](size_t g) {
    auto [begin, end] = groups[g];
    uint32_t c = flat[begin].first;
    nbrs_reserve(c, hot_[c].nbrs.size + static_cast<uint32_t>(end - begin));
    for (size_t i = begin; i < end; ++i) {
      assert(!adj_contains(c, flat[i].second.nbr) &&
             "batch inserts a present edge");
      nbrs_push(c, flat[i].second);
    }
  });
  for (const auto& [begin, end] : groups) dirty_.push_back(flat[begin].first);
}

// Strip the (cluster, neighbor) entries in `gone`. The pairs are semisorted
// by cluster, so one task owns each adjacency list and compacts it once
// (k removals from a degree-d cluster cost O(d + k), not O(d * k)). Returns
// the touched clusters in id order.
std::vector<uint32_t> UfoTree::remove_adjacency(
    std::vector<std::pair<uint32_t, uint32_t>> gone) {
  auto groups = group_by_key(gone);
  parallel_for(0, groups.size(), [&](size_t g) {
    auto [begin, end] = groups[g];
    std::vector<uint32_t> targets(end - begin);
    for (size_t i = begin; i < end; ++i) targets[i - begin] = gone[i].second;
    std::sort(targets.begin(), targets.end());
    adj_remove_batch(gone[begin].first, targets);
  });
  return map(groups.size(),
             [&](size_t g) { return gone[groups[g].first].first; });
}

// Level-synchronous concurrent DeleteAncestors (Algorithm 1 run one level
// per round across every walk at once). Tokens carry the cluster the walk
// just left; converging walks are merged by semisorting on the shared
// parent, so each parent is decided by exactly one task with the full set
// of its walk children in view. Low-degree/low-fanout parents are deleted
// (children re-rooted into the frontier); surviving high-degree/high-fanout
// parents shed their low-degree walk children and stay. The walk child of a
// survivor stays attached only when its degree is >= 3 — which is also what
// keeps the surviving chains usable for insert propagation.
void UfoTree::teardown_pass(const std::vector<uint32_t>& starts) {
  UFO_SPAN("par.teardown");
  UFO_STAT("par.teardown.walks", starts.size());
  std::vector<Token> toks =
      map(starts.size(), [&](size_t i) { return Token{starts[i], false}; });
  while (!toks.empty()) {
    UFO_STAT("par.teardown.rounds", 1);
    ensure_scratch();
    // Walks whose child is parentless are done: a surviving chain top joins
    // the frontier (deleted tops already re-rooted their children).
    for (const Token& t : toks) {
      if (hot_[t.child].parent == 0 && !t.deleted)
        root_into_frontier(t.child);
    }
    std::vector<Token> rest = filter(
        toks, [&](const Token& t) { return hot_[t.child].parent != 0; });
    if (rest.empty()) break;

    auto byp = map(rest.size(), [&](size_t i) {
      return std::pair{hot_[rest[i].child].parent, static_cast<uint32_t>(i)};
    });
    auto groups = group_by_key(byp);
    size_t ngroups = groups.size();
    UFO_STAT_HIST("par.teardown.level_width", rest.size());
    UFO_STAT("par.teardown.visited", ngroups);
    std::vector<Token> next(ngroups);
    std::vector<std::vector<uint32_t>> rooted(ngroups);

    parallel_for(0, ngroups, [&](size_t g) {
      auto [begin, end] = groups[g];
      uint32_t cur = byp[begin].first;
      Hot& ch = hot_[cur];
      // Detach walk children that were deleted at the previous level.
      bool center_gone = false;
      for (size_t i = begin; i < end; ++i) {
        const Token& t = rest[byp[i].second];
        if (!t.deleted) continue;
        if (ch.center_child == t.child) center_gone = true;
        drop_child(cur, t.child);
      }
      bool deletable = ch.nbrs.size < 3 && ch.children.size < 3;
      // A pair merge whose merge edge was deleted by this batch is no
      // longer a valid merge regardless of degree drift: delete it rather
      // than keep a stale pair whose aggregates cannot be recomputed.
      if (!deletable && ch.center_child == 0 && ch.children.size == 2 &&
          !adj_contains(children(cur)[0], children(cur)[1]))
        deletable = true;
      // A high-degree merge whose center is being removed (deleted below,
      // or about to be stripped as a low-degree child) is no longer a valid
      // merge: delete cur outright. Its degree is bounded by the former
      // center's (< 3), so this preserves the update cost bound.
      if (!deletable && ch.center_child != 0) {
        if (center_gone) {
          deletable = true;
        } else {
          for (size_t i = begin; i < end && !deletable; ++i) {
            const Token& t = rest[byp[i].second];
            if (!t.deleted && t.child == ch.center_child &&
                hot_[t.child].nbrs.size <= 2)
              deletable = true;
          }
        }
      }
      if (!deletable) {
        // A survivor may only shed a walk child whose every edge is
        // internal (a rake, or a pair child holding just the merge edge):
        // shedding a child with external edges would leave the survivor
        // holding stale projections of content that left it. Force-delete
        // instead — the generic doomed-adjacency cleanup handles it.
        for (size_t i = begin; i < end && !deletable; ++i) {
          const Token& t = rest[byp[i].second];
          if (t.deleted || hot_[t.child].nbrs.size > 2) continue;
          for (const Adj& a : nbrs(t.child)) {
            // Atomic read: a concurrent group deleting the neighbor's
            // parent re-roots it (stores 0) in this same round. Either
            // value differs from cur, so the decision is unaffected — the
            // atomicity only keeps the unsynchronized access defined.
            uint32_t np = std::atomic_ref<uint32_t>(hot_[a.nbr].parent)
                              .load(std::memory_order_relaxed);
            if (np != cur) {
              deletable = true;
              break;
            }
          }
        }
      }
      if (deletable) {
        doomed_[cur] = 1;
        for (uint32_t kid : children(cur)) {
          std::atomic_ref<uint32_t>(hot_[kid].parent)
              .store(0, std::memory_order_relaxed);
          rooted[g].push_back(kid);
        }
        next[g] = {cur, true};
      } else {
        for (size_t i = begin; i < end; ++i) {
          const Token& t = rest[byp[i].second];
          if (t.deleted) continue;
          uint32_t c = t.child;
          if (hot_[c].nbrs.size > 2) continue;  // stays attached
          drop_child(cur, c);  // c is not the center (see the check above)
          std::atomic_ref<uint32_t>(hot_[c].parent)
              .store(0, std::memory_order_relaxed);
          rooted[g].push_back(c);
        }
        next[g] = {cur, false};
      }
    });

    // Phase boundary: collect re-rooted clusters, doomed ids, and dirt.
    for (uint32_t c : flatten(rooted)) root_into_frontier(c);
    std::vector<uint32_t> newly_doomed;
    for (const Token& t : next)
      (t.deleted ? newly_doomed : dirty_).push_back(t.child);
    doomed_list_.insert(doomed_list_.end(), newly_doomed.begin(),
                        newly_doomed.end());
    UFO_STAT("par.teardown.doomed", newly_doomed.size());
    UFO_STAT("par.teardown.survivors", ngroups - newly_doomed.size());

    // Remove this round's doomed clusters from their surviving neighbors'
    // adjacency.
    std::vector<std::pair<uint32_t, uint32_t>> cleanup;
    for (uint32_t d : newly_doomed) {
      for (const Adj& a : nbrs(d))
        if (!doomed_[a.nbr]) cleanup.emplace_back(a.nbr, d);
    }
    for (uint32_t q : remove_adjacency(std::move(cleanup))) {
      dirty_.push_back(q);
      revalidate_.push_back(q);  // degree dropped
    }
    toks = std::move(next);
  }
}

void UfoTree::force_detach(uint32_t c) {
  uint32_t p = hot_[c].parent;
  assert(p != 0);
  drop_child(p, c);
  hot_[c].parent = 0;
  root_into_frontier(c);
  dirty_.push_back(p);
}

bool UfoTree::attached(uint32_t c) const {
  return alive(c) && !doomed_[c] && hot_[c].parent != 0;
}

// Detach broken participants: `forced` clusters that are still attached
// directly (force_detach), and walk targets (attached, as the callers
// ensure) through the guarded teardown. The claim filter keeps one walk per
// target (each request claims with its own index as owner) and keeps index
// order, so at width 1 the first occurrence wins.
void UfoTree::detach(const std::vector<uint32_t>& walk_targets,
                     std::vector<uint32_t> forced) {
  remove_duplicates(forced);
  for (uint32_t c : forced)
    if (attached(c)) force_detach(c);
  if (walk_targets.empty()) return;
  claims_.begin_phase(pool_size());
  teardown_pass(filter_index(walk_targets, [&](size_t i) {
    return claims_.claim(walk_targets[i], static_cast<uint32_t>(i));
  }));
}

void UfoTree::drain_revalidate() {
  while (!revalidate_.empty()) {
    std::vector<uint32_t> check = std::exchange(revalidate_, {});
    remove_duplicates(check);
    check = filter(check,
                   [&](uint32_t q) { return alive(q) && !doomed_[q]; });
    // Collect broken participants. Walk targets (degree <= 2) go through
    // the guarded teardown; a high-degree cluster whose rake role broke is
    // detached directly. Parentless clusters are skipped — the frontier
    // round that picks them up enforces maximality itself.
    std::vector<uint8_t> broken(check.size(), 0);  // rake role broke
    auto walk_targets = flatten(map(check.size(), [&](size_t i) {
      std::vector<uint32_t> out;
      uint32_t q = check[i];
      const Hot& qh = hot_[q];
      if (qh.parent == 0) return out;
      if (qh.nbrs.size >= 3) {
        for (const Adj& a : nbrs(q)) {
          const Hot& wh = hot_[a.nbr];
          if (wh.nbrs.size == 1 && wh.parent != 0 && wh.parent != qh.parent)
            out.push_back(a.nbr);  // must be raked beside q
        }
        const Hot& pq = hot_[qh.parent];
        if (pq.center_child != 0 && pq.center_child != q)
          broken[i] = 1;  // a rake must have degree 1
      } else if (qh.nbrs.size == 1) {
        uint32_t z = nbrs(q)[0].nbr;
        const Hot& zh = hot_[z];
        if (zh.nbrs.size >= 3 && zh.parent != 0 && zh.parent != qh.parent)
          out.push_back(q);  // must be raked beside z
      }
      return out;
    }));
    auto forced = filter_index(check, [&](size_t i) { return broken[i]; });
    if (walk_targets.empty() && forced.empty()) break;
    remove_duplicates(walk_targets);
    detach(filter(walk_targets, [&](uint32_t c) { return attached(c); }),
           std::move(forced));
  }
}

void UfoTree::batch_update(const std::vector<Update>& batch) {
  if (batch.empty()) return;
  UFO_SPAN("par.batch_update");
  UFO_STAT("par.batch.count", 1);
  UFO_STAT("par.batch.updates", batch.size());
  ensure_scratch();
  std::vector<Update> dels =
      filter(batch, [](const Update& u) { return u.is_delete; });
  std::vector<Update> inss =
      filter(batch, [](const Update& u) { return !u.is_delete; });
  // 1. Deleted edges leave every level of the intact chains first, so the
  //    teardown's survival guards see post-delete degrees (matches seq).
  if (!dels.empty()) {
    UFO_SPAN("par.edge_delete");
    edge_level_ops(dels, /*insert=*/false);
  }
  // 2. Path-granular teardown from the endpoint leaves.
  {
    std::vector<uint32_t> leaves(2 * batch.size());
    parallel_for(0, batch.size(), [&](size_t i) {
      assert(batch[i].u != batch[i].v && "self-loop in batch");
      leaves[2 * i] = leaf_id(batch[i].u);
      leaves[2 * i + 1] = leaf_id(batch[i].v);
    });
    remove_duplicates(leaves);
    teardown_pass(leaves);
    drain_revalidate();
  }
  // 3. Inserted edges join every level of the surviving chains.
  if (!inss.empty()) {
    UFO_SPAN("par.edge_insert");
    edge_level_ops(inss, /*insert=*/true);
  }
  // 4. Recluster the detached frontier level-synchronously.
  {
    UFO_SPAN("par.recluster");
    contract_frontier();
  }
  // 5. Refresh every surviving ancestor's aggregates bottom-up.
  flush_dirty();
  // 6. Recycle the doomed clusters: parallel record reset, then one serial
  //    per-level slab splice at the phase boundary (core::recycle_clusters).
  {
    UFO_SPAN("par.recycle");
    UFO_STAT("par.recycled", doomed_list_.size());
    parallel_for(0, doomed_list_.size(),
                 [&](size_t i) { doomed_[doomed_list_[i]] = 0; });
    recycle_clusters(doomed_list_);
    doomed_list_.clear();
  }
}

void UfoTree::contract_frontier() {
  for (size_t l = 0; l < frontier_.size(); ++l) {
    // Stay at l until it drains: a round can re-root more clusters here
    // (walklets detaching survivors never root below the level they start
    // from, so the sweep only ever moves up).
    while (!frontier_[l].empty()) contract_round(static_cast<int32_t>(l));
  }
}

// Drain frontier_[lvl] down to the clusters that join this level's round:
// deduplicated, still alive, parentless and at lvl. Everything entering a
// round gets fresh aggregates (shed survivors lost a child, frontier leaves
// changed adjacency; idempotent for new parents), and zero-degree clusters
// (completed tree roots) drop out.
std::vector<uint32_t> UfoTree::take_live_roots(int32_t lvl) {
  std::vector<uint32_t> roots;
  if (static_cast<size_t>(lvl) < frontier_.size())
    roots = std::exchange(frontier_[lvl], {});
  remove_duplicates(roots);
  roots = filter(roots, [&](uint32_t c) {
    return alive(c) && !doomed_[c] && hot_[c].parent == 0 &&
           hot_[c].level == lvl;
  });
  parallel_for(0, roots.size(),
               [&](size_t i) { recompute_aggregates(roots[i]); });
  return filter(roots, [&](uint32_t c) { return hot_[c].nbrs.size != 0; });
}

void UfoTree::contract_round(int32_t lvl) {
  UFO_STAT("par.recluster.rounds", 1);
  ensure_scratch();
  std::vector<uint32_t> active = take_live_roots(lvl);
  if (active.empty()) return;  // completed tree roots only

  // Phase 1: detach fixpoint. Two obligations against the surviving
  // hierarchy: (a) an active high-degree cluster must rake in every
  // degree-1 neighbor — including ones still attached to a surviving
  // parent (fanout-1 towers, never rakes or pair children, since their
  // single edge points at the active cluster); (b) an active degree-1
  // cluster next to an attached high-degree neighbor must rake-attach into
  // that neighbor's parent, so a parent that cannot center the neighbor (a
  // pair merge whose child drifted to degree >= 3) has the neighbor
  // detached instead — it then re-enters this level as an active center.
  // Walk requests are deduplicated with a per-cluster ownership CAS: the
  // first claimer owns the walk, and any loser simply finds the target
  // active (re-rooted at this level) in the next sweep.
  for (;;) {
    std::vector<uint32_t> blocked(active.size(), 0);  // (b) neighbors, 0: none
    std::vector<uint32_t> targets = flatten(map(active.size(), [&](size_t i) {
      std::vector<uint32_t> out;
      uint32_t c = active[i];
      if (hot_[c].nbrs.size >= 3) {
        for (const Adj& a : nbrs(c)) {
          uint32_t y = a.nbr;
          if (hot_[y].parent != 0 && hot_[y].nbrs.size == 1) out.push_back(y);
        }
      } else if (hot_[c].nbrs.size == 1) {
        uint32_t y = nbrs(c)[0].nbr;
        if (hot_[y].parent != 0 && hot_[y].nbrs.size >= 3) {
          const Hot& pyh = hot_[hot_[y].parent];
          bool can_center =
              pyh.center_child == y ||
              (pyh.center_child == 0 && pyh.children.size == 1);
          if (!can_center) blocked[i] = y;
        }
      }
      return out;
    }));
    std::vector<uint32_t> forced =
        filter(blocked, [](uint32_t y) { return y != 0; });
    if (targets.empty() && forced.empty()) break;
    detach(targets, std::move(forced));
    // Absorb clusters the detaches re-rooted at this level.
    std::vector<uint32_t> fresh = take_live_roots(lvl);
    if (fresh.empty()) break;  // targets were all shed without new roots
    active.insert(active.end(), fresh.begin(), fresh.end());
    remove_duplicates(active);
    active = filter(active, [&](uint32_t c) {
      return hot_[c].parent == 0 && !doomed_[c];
    });
  }

  size_t m = active.size();
  ++round_;

  // Phase 2: roles.
  parallel_for(0, m, [&](size_t i) {
    uint32_t c = active[i];
    set_role(c, hot_[c].nbrs.size >= 3 ? kCenter : kFree);
  });
  // Degree-1 clusters: rake under an active center, or rake-attach into a
  // surviving superunary whose center is their (attached) neighbor (the
  // phase-1 fixpoint already detached neighbors whose parent cannot center
  // them).
  auto slots = map(m, [&](size_t i) {  // (survivor parent, c) or (0, 0)
    std::pair<uint32_t, uint32_t> none{0, 0};
    uint32_t c = active[i];
    if (hot_[c].nbrs.size != 1) return none;
    uint32_t y = nbrs(c)[0].nbr;
    if (role_of(y) == kCenter) {
      set_role(c, kRaked);
    } else if (role_of(y) == kNone && hot_[y].parent != 0 &&
               hot_[y].nbrs.size >= 3) {
      set_role(c, kEngaged);
      return std::pair{hot_[y].parent, c};
    }
    return none;
  });
  auto engaged = filter(slots, [](const auto& e) { return e.second != 0; });

  // Phase B: randomized mutual-proposal matching over the remaining
  // degree <= 2 clusters (their eligible subgraph is a disjoint union of
  // paths — a contracted forest has no cycles). Each round, every unmatched
  // eligible cluster proposes to its eligible neighbor with the highest
  // salted hash; mutual proposals pair up. The hash-maximal eligible
  // cluster with an eligible neighbor always lands a mutual proposal, so a
  // round with no new pairs proves the eligible edge set empty; random
  // salts pair an expected constant fraction per round.
  std::vector<uint32_t> pairs;  // anchors; partner = proposal_[anchor]
  std::vector<uint32_t> matchable =
      filter(active, [&](uint32_t c) { return role_of(c) == kFree; });
  while (!matchable.empty()) {
    UFO_STAT("par.recluster.match_rounds", 1);
    uint64_t salt = util::hash64(round_salt_++);
    auto rank = [&](uint32_t d) { return util::hash64(salt ^ d); };
    parallel_for(0, matchable.size(), [&](size_t i) {
      uint32_t c = matchable[i];
      uint32_t best = 0;
      uint64_t besth = 0;
      for (const Adj& a : nbrs(c)) {
        uint32_t d = a.nbr;
        if (role_of(d) != kFree) continue;
        uint64_t h = rank(d);
        if (best == 0 || h > besth || (h == besth && d > best)) {
          best = d;
          besth = h;
        }
      }
      proposal_[c] = best;  // 0 = no eligible neighbor
    });
    std::vector<uint32_t> fresh = filter(matchable, [&](uint32_t c) {
      uint32_t d = proposal_[c];
      return d != 0 && proposal_[d] == c && c < d;
    });
    if (fresh.empty()) break;  // no eligible edges remain (see above)
    parallel_for(0, fresh.size(), [&](size_t i) {
      uint32_t c = fresh[i];
      set_role(c, kPaired);
      set_role(proposal_[c], kPaired);  // distinct pairs: disjoint writes
    });
    pairs.insert(pairs.end(), fresh.begin(), fresh.end());
    matchable =
        filter(matchable, [&](uint32_t c) { return role_of(c) == kFree; });
  }

  std::vector<uint32_t> centers =
      filter(active, [&](uint32_t c) { return role_of(c) == kCenter; });
  std::vector<uint32_t> singles =
      filter(active, [&](uint32_t c) { return role_of(c) == kFree; });
  UFO_STAT("par.recluster.centers", centers.size());
  UFO_STAT("par.recluster.pairs", pairs.size());
  UFO_STAT("par.recluster.singletons", singles.size());
  UFO_STAT("par.recluster.rake_attached", engaged.size());

  // Phase 3a: rake-attach into surviving superunary parents, grouped so one
  // task owns each target parent and extends its rake index with a single
  // parallel sorted-run bulk merge (this is the star's hot path).
  auto egroups = group_by_key(engaged);
  parallel_for(0, egroups.size(), [&](size_t g) {
    auto [begin, end] = egroups[g];
    uint32_t py = engaged[begin].first;
    Hot& pyh = hot_[py];
    uint32_t y = nbrs(engaged[begin].second)[0].nbr;
    if (pyh.center_child == 0) {
      // A fanout-1 extension of y gains its first rakes: it becomes a
      // high-degree merge centered on y (y kept degree >= 3, so its
      // boundary is already the single center vertex).
      assert(pyh.children.size == 1 && children(py)[0] == y);
      pyh.center_child = y;
      rake_index_clear(py);
      cold_[py].rake_index_valid = true;
    }
    assert(pyh.center_child == y && "rake-attach target must center y");
    std::vector<uint32_t> newly(end - begin);
    for (size_t i = begin; i < end; ++i) {
      newly[i - begin] = engaged[i].second;
      add_child(py, engaged[i].second);
    }
    if (cold_[py].rake_index_valid) rake_index_bulk_add(py, newly);
  });
  for (const auto& [begin, end] : egroups) {
    uint32_t py = engaged[begin].first;
    dirty_.push_back(py);
    // A parentless target re-contracts at its own level (dedup at round).
    if (hot_[py].parent == 0) root_into_frontier(py);
  }

  // Phase 3b: allocate the level's new parents at the phase boundary (the
  // pool is sequential), then build them concurrently — each task owns one
  // parent and its children, so all writes are disjoint.
  size_t nc = centers.size(), np = pairs.size(), ns = singles.size();
  std::vector<uint32_t> parents(nc + np + ns);
  for (size_t i = 0; i < parents.size(); ++i)
    parents[i] = alloc_cluster(lvl + 1);
  ensure_scratch();  // the pool may have grown
  parallel_for(0, parents.size(), [&](size_t i) {
    uint32_t p = parents[i];
    set_role(p, kFresh);  // the build below reads only the actives' roles
    if (i < nc) {
      uint32_t c = centers[i];
      hot_[p].center_child = c;
      add_child(p, c);
      for (const Adj& a : nbrs(c))
        if (role_of(a.nbr) == kRaked) add_child(p, a.nbr);
    } else if (i < nc + np) {
      uint32_t c = pairs[i - nc];
      uint32_t d = proposal_[c];  // stable: c left `matchable` when paired
      const Adj* a = adj_find(c, d);
      assert(a != nullptr);
      add_child(p, c);
      add_child(p, d);
      hot_[p].merge_u = a->my_end;
      hot_[p].merge_v = a->other_end;
      hot_[p].merge_w = a->w;
    } else {
      add_child(p, singles[i - nc - np]);
    }
  });

  // Phase 4: level l+1 adjacency. Every neighbor of a reclustered child has
  // a parent by now — a parent built this round (kFresh, which projects the
  // shared edge itself) or a surviving one, which gets the reciprocal entry
  // appended in a per-survivor batch. A forest has at most one edge between
  // two parents' contents, so no dedupe pass is needed.
  auto flat = flatten(map(parents.size(), [&](size_t i) {
    std::vector<std::pair<uint32_t, Adj>> recip;
    uint32_t p = parents[i];
    for (uint32_t c : children(p)) {
      for (const Adj& a : nbrs(c)) {
        uint32_t q = hot_[a.nbr].parent;
        assert(q != 0 && "neighbor must have been reclustered");
        if (q == p) continue;  // merge or rake edge: now internal
        assert(!adj_contains(p, q) &&
               "duplicate projected edge: cycle in the batch?");
        nbrs_push(p, {q, a.my_end, a.other_end, a.w});
        if (role_of(q) != kFresh)
          recip.emplace_back(q, Adj{p, a.other_end, a.my_end, a.w});
      }
    }
    return recip;
  }));
  auto rgroups = group_by_key(flat);
  parallel_for(0, rgroups.size(), [&](size_t g) {
    auto [begin, end] = rgroups[g];
    uint32_t q = flat[begin].first;
    for (size_t i = begin; i < end; ++i) {
      assert(!adj_contains(q, flat[i].second.nbr));
      nbrs_push(q, flat[i].second);
    }
  });
  for (const auto& [begin, end] : rgroups) {
    dirty_.push_back(flat[begin].first);
    revalidate_.push_back(flat[begin].first);  // degree grew
  }

  // Phase 5: aggregates — children and adjacency are final; one task per
  // parent (superunary parents above the bulk threshold build their rake
  // index with the parallel sorted-run constructor).
  parallel_for(0, parents.size(),
               [&](size_t i) { recompute_aggregates(parents[i]); });

  // Phase 6: the new parents recluster one level up, and survivors whose
  // degree drifted are rechecked (their detaches land strictly above lvl,
  // so the upward sweep picks them up).
  for (uint32_t p : parents) root_into_frontier(p);
  drain_revalidate();
}

// Level-synchronous bottom-up refresh of every surviving cluster the batch
// touched: recompute a level in parallel, patch the touched rake entries in
// superunary parents (remove uses the cached contribution, add re-caches
// from the fresh aggregates), then propagate to the parents' level.
void UfoTree::flush_dirty() {
  if (dirty_.empty()) return;
  UFO_SPAN("par.flush");
  std::vector<uint32_t> all = std::exchange(dirty_, {});
  remove_duplicates(all);
  std::vector<std::vector<uint32_t>> buckets;
  for (uint32_t c : all) {
    if (!alive(c) || doomed_[c]) continue;
    size_t lvl = static_cast<size_t>(hot_[c].level);
    if (buckets.size() <= lvl) buckets.resize(lvl + 1);
    buckets[lvl].push_back(c);
  }
  for (size_t l = 0; l < buckets.size(); ++l) {
    std::vector<uint32_t> items = std::move(buckets[l]);
    remove_duplicates(items);
    items = filter(items, [&](uint32_t c) {
      return alive(c) && !doomed_[c] &&
             hot_[c].level == static_cast<int32_t>(l);
    });
    if (items.empty()) continue;
    UFO_STAT("par.flush.clusters", items.size());
    parallel_for(0, items.size(),
                 [&](size_t i) { recompute_aggregates(items[i]); });
    std::vector<std::pair<uint32_t, uint32_t>> stale;  // (parent, rake)
    for (uint32_t c : items) {
      uint32_t p = hot_[c].parent;
      if (p == 0 || doomed_[p]) continue;
      if (buckets.size() <= l + 1) buckets.resize(l + 2);
      buckets[l + 1].push_back(p);
      if (indexed_rake(p, c)) stale.emplace_back(p, c);
    }
    auto sgroups = group_by_key(stale);
    parallel_for(0, sgroups.size(), [&](size_t g) {
      auto [begin, end] = sgroups[g];
      for (size_t i = begin; i < end; ++i) {
        rake_index_remove(stale[i].first, stale[i].second);
        rake_index_add(stale[i].first, stale[i].second);
      }
    });
  }
}

}  // namespace ufo::par
