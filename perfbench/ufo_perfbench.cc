// One measured pass of the repository benchmark (perfbench/run.py is the
// front door; it builds this binary twice and merges the passes).
//
// A single closed-loop client drives the public API of ParUfoConnectivity
// (and, through it, par::UfoTree): each round deletes k random standing
// edges, answers a batch of connectivity queries on the split structure, then
// re-inserts the same k edges, and the next round starts only after the
// previous one returned. Every round is checked against the benchmark's own
// copy of the edges (see check_* below); a mismatch ends the pass with exit
// code 1.
//
// The build decides the pass kind. Without UFO_OBSERVABILITY the pass is
// untraced and reports the end-to-end metrics. With it, the pass also takes
// the delta of the library's counter/span registry around every public call,
// records its own spans (name, start, end, parent, round) in memory, and
// reports the per-layer metrics listed in perfbench/README.md.
//
// Usage (the first three flags are required; unknown flags are errors):
//   ufo_perfbench --workload=NAME --seed=N --rounds=R
//                 [--spans-out=PATH] [--checkpoint=PATH]
// The pass sets up once, runs R measured rounds, and prints its raw samples
// (one per call or round) as one JSON line; run.py pools the samples of its
// passes into the reported percentiles and medians.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_queries.h"
#include "core/ufo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recovery/snapshot.h"
#include "util/random.h"

namespace {

using namespace ufo;
using Clock = std::chrono::steady_clock;

#if defined(UFO_OBSERVABILITY) && UFO_OBSERVABILITY
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

// Rounds that run before measurement starts (pools and caches warm up).
constexpr size_t kWarmupRounds = 2;
// Every kOracleEvery-th round (and the first) checks each query answer and
// the component count against a from-scratch union-find.
constexpr size_t kOracleEvery = 4;

struct WorkloadSpec {
  const char* name;
  size_t k;        // edges deleted and re-inserted per round
  size_t queries;  // connectivity queries per round
};

constexpr WorkloadSpec kWorkloads[] = {
    {"social-wave", 4096, 65536},
    {"road-trickle", 8, 4096},
};

struct Options {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  size_t rounds = 0;
  std::string spans_out;
  std::string checkpoint;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "ufo_perfbench: %s\n", msg.c_str());
  std::exit(2);
}

bool parse_u64(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 19) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos)
      usage_error("expected --flag=value, got '" + a + "'");
    std::string key = a.substr(2, eq - 2), val = a.substr(eq + 1);
    uint64_t num = 0;
    if (key == "workload") {
      for (const auto& w : kWorkloads)
        if (val == w.name) o.spec = &w;
      if (!o.spec) usage_error("unknown workload '" + val + "'");
    } else if (key == "seed") {
      if (!parse_u64(val, &o.seed)) usage_error("bad --seed");
      have_seed = true;
    } else if (key == "rounds") {
      if (!parse_u64(val, &num) || num < 1 || num > 100000)
        usage_error("--rounds must be an integer in [1, 100000]");
      o.rounds = static_cast<size_t>(num);
    } else if (key == "spans-out") {
      o.spans_out = val;
    } else if (key == "checkpoint") {
      o.checkpoint = val;
    } else {
      usage_error("unknown flag --" + key);
    }
  }
  if (!o.spec || !have_seed || o.rounds == 0)
    usage_error("--workload, --seed and --rounds are required");
  return o;
}

double since_s(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// The oracle: a plain union-find over the benchmark's own edge copy, kept
// independent of the library so a shared defect cannot hide a mismatch.
class Oracle {
 public:
  Oracle(size_t n, const EdgeList& edges, const std::vector<uint32_t>& skip,
         uint32_t stamp)
      : parent_(n), components_(n) {
    std::iota(parent_.begin(), parent_.end(), Vertex{0});
    for (size_t i = 0; i < edges.size(); ++i) {
      if (skip[i] == stamp) continue;
      Vertex a = find(edges[i].u), b = find(edges[i].v);
      if (a != b) {
        parent_[a] = b;
        --components_;
      }
    }
  }
  Vertex find(Vertex x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  size_t components() const { return components_; }

 private:
  std::vector<Vertex> parent_;
  size_t components_;
};

// --- Workload inputs and the structure under test ---------------------------

struct Input {
  size_t n = 0;
  EdgeList edges;
  // A random-incremental spanning forest is inserted first, so the standing
  // forest starts out random. Erase rounds promote random replacement edges;
  // starting from the key-ordered forest a single batch_insert would pick,
  // the forest (and every latency) drifts for hundreds of rounds instead.
  EdgeList spanning;
};

// Each workload stands on one fixed graph, as a benchmark on a published
// dataset would; --seed picks the deleted edges and the query pairs. Between
// generator seeds social-wave's insert p50 ranged 45 to 62 ms and its query
// rate 3.5 to 4.3 Mq/s, while repeats of one seed stayed within 3% and 8%.
Input generate(const WorkloadSpec& w) {
  uint64_t gseed = util::hash64(0x5eedf00dULL);
  Input in;
  if (std::string(w.name) == "social-wave") {
    in.n = size_t{1} << 18;
    in.edges = gen::social_graph(in.n, 4, gseed);
  } else {
    in.n = size_t{512} * 512;
    in.edges = gen::grid_graph(512, 512);
  }
  in.spanning = gen::ris_forest(in.n, in.edges, gseed + 1);
  return in;
}

std::unique_ptr<ParUfoConnectivity> build(const Input& in) {
  auto g = std::make_unique<ParUfoConnectivity>(in.n);
  g->batch_insert(in.spanning);
  g->batch_insert(in.edges);
  return g;
}

// --- Traced-pass bookkeeping ------------------------------------------------

// Library counters the traced pass attributes to calls. Span counters are
// `span.<name>.ns`; registering them here first is harmless (find-or-create).
const char* const kCounterNames[] = {
    "span.par.batch_update.ns", "span.par.edge_delete.ns",
    "span.par.teardown.ns",     "span.par.edge_insert.ns",
    "span.par.recluster.ns",    "span.par.flush.ns",
    "span.par.recycle.ns",      "span.conn.search.ns",
    "span.conn.promote.ns",     "par.teardown.doomed",
    "par.teardown.survivors",   "par.recluster.rounds",
    "par.recluster.pairs",      "par.flush.clusters",
    "sched.tasks",              "sched.steals",
    "sched.failed_steals",      "sched.idle_sleeps",
    "conn.search.rounds",       "conn.claim.won",
    "conn.claim.lost",          "conn.replacement_scanned",
    "conn.promotions",          "conn.radius_doublings",
    "hash.set.cas_retries",     "hash.set.resizes",
    "hash.map.resizes",         "core.cluster.allocs",
    "core.recycle.clusters",
};
constexpr size_t kNumCounters = std::size(kCounterNames);

size_t counter_index(const std::string& name) {
  for (size_t i = 0; i < kNumCounters; ++i)
    if (name == kCounterNames[i]) return i;
  std::fprintf(stderr, "ufo_perfbench: no tracked counter %s\n", name.c_str());
  std::abort();
}

struct Snapshot {
  int64_t c[kNumCounters] = {};
  int64_t probe_count = 0, probe_sum = 0;

  Snapshot& operator+=(const Snapshot& o) {
    for (size_t i = 0; i < kNumCounters; ++i) c[i] += o.c[i];
    probe_count += o.probe_count;
    probe_sum += o.probe_sum;
    return *this;
  }
  int64_t operator[](const std::string& name) const {
    return c[counter_index(name)];
  }
};

class Registry {
 public:
  Registry() {
    auto& reg = obs::MetricsRegistry::instance();
    for (size_t i = 0; i < kNumCounters; ++i)
      counters_[i] = &reg.counter(kCounterNames[i]);
    probe_len_ = &reg.histogram("hash.set.probe_len");
  }
  Snapshot read() const {
    Snapshot s;
    for (size_t i = 0; i < kNumCounters; ++i) s.c[i] = counters_[i]->total();
    s.probe_count = probe_len_->count();
    s.probe_sum = probe_len_->sum();
    return s;
  }
  static Snapshot delta(const Snapshot& before, const Snapshot& after) {
    Snapshot d;
    for (size_t i = 0; i < kNumCounters; ++i) d.c[i] = after.c[i] - before.c[i];
    d.probe_count = after.probe_count - before.probe_count;
    d.probe_sum = after.probe_sum - before.probe_sum;
    return d;
  }

 private:
  obs::Counter* counters_[kNumCounters] = {};
  obs::Histogram* probe_len_ = nullptr;
};

// The benchmark's own span around one public call (or a whole round).
struct SpanRec {
  const char* name;
  int64_t start_ns, end_ns;
  int64_t parent;  // index into the span log, -1 for a round
  size_t round;
};

// Time inside [start, end) covered by top-level library spans of the main
// thread (the library's spans nest, so the outermost ones tile the cover).
int64_t library_cover_ns(const std::vector<obs::TraceEvent>& ev, size_t* cursor,
                         int64_t start, int64_t end) {
  int64_t covered = 0, frontier = start;
  size_t i = *cursor;
  while (i < ev.size() && ev[i].t0_ns < start) ++i;
  *cursor = i;
  for (; i < ev.size() && ev[i].t0_ns < end; ++i) {
    if (ev[i].tid != 0 || ev[i].t0_ns < frontier) continue;
    int64_t stop = std::min(end, ev[i].t0_ns + ev[i].dur_ns);
    covered += stop - ev[i].t0_ns;
    frontier = stop;
  }
  return covered;
}

// --- The measured loop ------------------------------------------------------

struct Result {
  bool correct = true;
  std::string mismatch;
  size_t attempted = 0, failed = 0;
  size_t rounds = 0;
  double setup_s = 0;
  double peak_rss_mb = 0;  // at the end of the measured loop
  std::vector<double> del_ms, ins_ms;
  // Per-round rates; the run reports their medians, which a few seconds of
  // interference from other tenants of a shared host do not move.
  std::vector<double> update_medges_s, query_mq_s;
  double queries = 0;
  std::map<std::string, std::pair<double, const char*>> layer;
  std::map<std::string, double> span_s_per_round;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

class Bench {
 public:
  explicit Bench(const Options& opt) : opt_(opt), w_(*opt.spec) {}

  Result run() {
    setup();
    if (res_.correct) loop();
    if (kTraced && res_.correct) {
      fork_join_probe();
      memory_report();
      if (!opt_.checkpoint.empty()) checkpoint();
    }
    return std::move(res_);
  }

 private:
  void fail(const std::string& what) {
    if (res_.correct) res_.mismatch = what;
    res_.correct = false;
  }

  void setup() {
    auto t0 = Clock::now();
    in_ = generate(w_);
    s_ = build(in_);
    res_.setup_s = since_s(t0, Clock::now());
    m_ = in_.edges.size();
    picked_.assign(m_, 0);
    std::vector<uint32_t> none(m_, 0);
    c0_ = Oracle(in_.n, in_.edges, none, 1).components();
    if (s_->num_edges() != m_ || s_->num_components() != c0_)
      fail("standing graph counts differ from the input after set-up");
  }

  void pick_batch(util::SplitMix64& rng, uint32_t stamp) {
    batch_.clear();
    while (batch_.size() < w_.k) {
      size_t i = rng.next(m_);
      if (picked_[i] == stamp) continue;
      picked_[i] = stamp;
      batch_.push_back(in_.edges[i]);
    }
    query_.resize(w_.queries);
    for (size_t i = 0; i < w_.queries; ++i) {
      if (i % 2 == 0) {
        const Edge& e = batch_[(i / 2) % w_.k];
        query_[i] = {e.u, e.v};
      } else {
        query_[i] = {static_cast<Vertex>(rng.next(in_.n)),
                     static_cast<Vertex>(rng.next(in_.n))};
      }
    }
  }

  // Checks that run every round: the edge count after each update call and,
  // after re-insertion, the standing component count.
  void check_after_erase() {
    if (s_->num_edges() != m_ - w_.k) fail("edge count after erase");
  }
  void check_after_insert() {
    if (s_->num_edges() != m_) fail("edge count after insert");
    if (s_->num_components() != c0_) fail("component count after insert");
  }
  // Runs at the end of a round, after the timed calls, so the oracle's pass
  // over the whole edge list never directly precedes a timed call; the
  // `picked_` stamps still name the edges the round deleted.
  void check_queries(const std::vector<uint8_t>& ans, uint32_t stamp,
                     size_t comps_after_erase) {
    Oracle o(in_.n, in_.edges, picked_, stamp);
    for (size_t i = 0; i < query_.size(); ++i) {
      bool want = o.find(query_[i].first) == o.find(query_[i].second);
      if (static_cast<bool>(ans[i]) != want) {
        fail("query answer differs from the union-find oracle");
        return;
      }
    }
    if (comps_after_erase != o.components())
      fail("component count after erase differs from the oracle");
  }

  void loop() {
    util::SplitMix64 rng(util::hash64(opt_.seed ^ 0xba7c4e5ULL));
    Registry reg;
    Snapshot loop_start{}, per_kind[3]{};  // 0 erase, 1 query, 2 insert
    std::vector<int64_t> erase_span;       // indices into spans_
    double cut_pairs = 0, split = 0;
    auto call = [&](int kind, const char* name, size_t round, int64_t parent,
                    auto&& fn) {
      Snapshot before;
      if constexpr (kTraced) before = reg.read();
      int64_t s0 = kTraced ? obs::now_ns() : 0;  // the library spans' clock
      auto t0 = Clock::now();
      fn();
      auto t1 = Clock::now();
      if constexpr (kTraced) {
        spans_.push_back({name, s0, obs::now_ns(), parent, round});
        per_kind[kind] += Registry::delta(before, reg.read());
      }
      return since_s(t0, t1);
    };

    for (size_t r = 0; r < kWarmupRounds + opt_.rounds; ++r) {
      if (kTraced && r == kWarmupRounds) {
        loop_start = reg.read();
        for (auto& p : per_kind) p = Snapshot{};
        obs::TraceSession::start();
      }
      bool measured = r >= kWarmupRounds;
      uint32_t stamp = static_cast<uint32_t>(r + 1);
      pick_batch(rng, stamp);
      int64_t round_span = -1;
      if constexpr (kTraced) {
        round_span = static_cast<int64_t>(spans_.size());
        spans_.push_back({"round", obs::now_ns(), 0, -1, r});
      }
      size_t tree_before = s_->num_tree_edges();
      size_t comps_before = s_->num_components();
      size_t promo_before =
          static_cast<size_t>(per_kind[0]["conn.promotions"]);

      bool ok = true;
      if (measured && kTraced) erase_span.push_back(spans_.size());
      double del = call(0, "connectivity.batch_erase", r, round_span, [&] {
        ok = s_->batch_erase(batch_) == conn::BatchStatus::kOk;
      });
      if (measured) {
        ++res_.attempted;
        if (!ok) ++res_.failed;
        res_.del_ms.push_back(del * 1e3);
      }
      check_after_erase();
      size_t comps_after = s_->num_components();
      if (measured) {
        size_t promo = static_cast<size_t>(per_kind[0]["conn.promotions"]);
        cut_pairs += static_cast<double>(tree_before - s_->num_tree_edges() +
                                         promo - promo_before);
        split += static_cast<double>(comps_after - comps_before);
      }

      std::vector<uint8_t> ans;
      double q = call(1, "core.batch_connected", r, round_span, [&] {
        ans = core::batch_connected(s_->forest(), query_);
      });

      double ins = call(2, "connectivity.batch_insert", r, round_span, [&] {
        ok = s_->batch_insert(batch_) == conn::BatchStatus::kOk;
      });
      if constexpr (kTraced) spans_[round_span].end_ns = obs::now_ns();
      check_after_insert();
      if (r % kOracleEvery == 0) check_queries(ans, stamp, comps_after);
      if (!res_.correct) return;
      if (!measured) continue;
      ++res_.attempted;
      if (!ok) ++res_.failed;
      res_.ins_ms.push_back(ins * 1e3);
      ++res_.rounds;
      res_.update_medges_s.push_back(2e-6 * static_cast<double>(w_.k) /
                                     (del + ins));
      res_.query_mq_s.push_back(1e-6 * static_cast<double>(w_.queries) / q);
      res_.queries += static_cast<double>(w_.queries);
    }
    res_.peak_rss_mb = peak_rss_mb();
    if constexpr (kTraced) {
      obs::TraceSession::stop();
      Snapshot loop = Registry::delta(loop_start, reg.read());
      layer_from_counters(per_kind, loop, erase_span, cut_pairs, split);
    }
  }

  void put(const std::string& name, double v, const char* unit) {
    res_.layer[name] = {v, unit};
  }

  void layer_from_counters(const Snapshot per_kind[3], const Snapshot& loop,
                           const std::vector<int64_t>& erase_span,
                           double cut_pairs, double split) {
    Snapshot all = per_kind[0];
    all += per_kind[1];
    all += per_kind[2];
    double R = static_cast<double>(res_.rounds);
    auto per_round = [&](int64_t v) { return static_cast<double>(v) / R; };
    auto frac = [](int64_t part, int64_t whole) {
      return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                       : 0.0;
    };
    auto secs = [&](int64_t ns) { return per_round(ns) * 1e-9; };

    put("parallel.batch_cut_s", secs(per_kind[0]["span.par.batch_update.ns"]), "s");
    put("parallel.batch_link_s", secs(per_kind[2]["span.par.batch_update.ns"]), "s");
    for (const char* s : {"par.edge_delete", "par.teardown", "par.edge_insert",
                          "par.recluster", "par.flush", "par.recycle",
                          "conn.search", "conn.promote"}) {
      put(std::string(s) + "_s", secs(all[std::string("span.") + s + ".ns"]),
          "s");
      res_.span_s_per_round[s] = secs(all[std::string("span.") + s + ".ns"]);
    }
    res_.span_s_per_round["par.batch_update"] =
        secs(all["span.par.batch_update.ns"]);
    put("par.teardown.survivor_frac",
        frac(all["par.teardown.survivors"],
             all["par.teardown.survivors"] + all["par.teardown.doomed"]),
        "ratio");
    for (const char* c : {"par.recluster.rounds", "par.recluster.pairs",
                          "par.flush.clusters", "conn.search.rounds",
                          "conn.radius_doublings", "hash.set.cas_retries",
                          "hash.set.resizes", "hash.map.resizes",
                          "core.cluster.allocs", "core.recycle.clusters"})
      put(c, per_round(all[c]), "count");

    int64_t update_tasks = per_kind[0]["sched.tasks"] + per_kind[2]["sched.tasks"];
    put("sched.tasks_per_batch", per_round(update_tasks) / 2, "count");
    put("sched.steal_fail_frac",
        frac(loop["sched.failed_steals"],
             loop["sched.failed_steals"] + loop["sched.steals"]),
        "ratio");
    put("sched.idle_sleeps", per_round(loop["sched.idle_sleeps"]), "count");

    // Own spans.
    double erase_s = 0, insert_s = 0, self_s = 0, query_ns = 0;
    std::vector<obs::TraceEvent> ev = obs::TraceSession::events();
    size_t cursor = 0;
    for (int64_t i : erase_span) {
      const SpanRec& sp = spans_[i];
      int64_t cover = library_cover_ns(ev, &cursor, sp.start_ns, sp.end_ns);
      self_s += static_cast<double>(sp.end_ns - sp.start_ns - cover) * 1e-9;
    }
    for (const SpanRec& sp : spans_) {
      if (sp.round < kWarmupRounds) continue;
      double d = static_cast<double>(sp.end_ns - sp.start_ns);
      std::string name = sp.name;
      if (name == "connectivity.batch_erase") erase_s += d * 1e-9;
      if (name == "connectivity.batch_insert") insert_s += d * 1e-9;
      if (name == "core.batch_connected") query_ns += d;
    }
    put("connectivity.batch_erase_s", erase_s / R, "s");
    put("connectivity.batch_insert_s", insert_s / R, "s");
    put("connectivity.erase_self_s", self_s / R, "s");
    res_.span_s_per_round["connectivity.batch_erase"] = erase_s / R;
    res_.span_s_per_round["connectivity.batch_insert"] = insert_s / R;
    res_.span_s_per_round["connectivity.erase_self"] = self_s / R;
    put("core.ns_per_query", query_ns / res_.queries, "ns");

    put("conn.replacement_searches", cut_pairs / R, "count");
    put("conn.claim.lost_frac",
        frac(all["conn.claim.lost"],
             all["conn.claim.lost"] + all["conn.claim.won"]),
        "ratio");
    put("conn.scanned_per_promotion",
        frac(all["conn.replacement_scanned"], all["conn.promotions"]), "count");
    put("connectivity.components_split", split / R, "count");
    put("hash.set.probe_len_mean", frac(all.probe_sum, all.probe_count), "count");
  }

  // An empty parallel_for over one index per worker, timed from outside.
  void fork_join_probe() {
    constexpr int kReps = 2000;
    size_t w = static_cast<size_t>(par::num_workers());
    std::vector<double> us(kReps);
    for (int i = 0; i < kReps; ++i) {
      auto t0 = Clock::now();
      par::parallel_for(0, w, [](size_t) {});
      us[i] = since_s(t0, Clock::now()) * 1e6;
    }
    put("parallel.fork_join_us", median(us), "us");
  }

  void memory_report() {
    auto mb = s_->forest().memory_breakdown();
    double n = static_cast<double>(in_.n);
    put("core.mem.hot_bytes_per_vertex", static_cast<double>(mb.hot) / n, "B");
    put("core.mem.cold_bytes_per_vertex", static_cast<double>(mb.cold) / n, "B");
    put("core.mem.adjacency_bytes_per_vertex",
        static_cast<double>(mb.adjacency) / n, "B");
    put("core.mem.children_bytes_per_vertex",
        static_cast<double>(mb.children) / n, "B");
    put("core.mem.adj_index_bytes_per_vertex",
        static_cast<double>(mb.adj_index) / n, "B");
    put("core.mem.rake_bytes_per_vertex", static_cast<double>(mb.rake) / n, "B");
    put("core.mem.other_bytes_per_vertex", static_cast<double>(mb.other) / n,
        "B");
    put("connectivity.mem_bytes_per_vertex",
        static_cast<double>(s_->memory_bytes()) / n, "B");
  }

  // One save and one load of the standing structure; the restored copy must
  // answer like the original.
  void checkpoint() {
    const std::string& path = opt_.checkpoint;
    auto t0 = Clock::now();
    recovery::RecoveryError e = s_->save_checkpoint(path);
    auto t1 = Clock::now();
    if (e != recovery::RecoveryError::kNone) {
      fail(std::string("save_checkpoint: ") + recovery::to_string(e));
      return;
    }
    double bytes = static_cast<double>(std::filesystem::file_size(path));
    ParUfoConnectivity copy(in_.n);
    auto t2 = Clock::now();
    e = copy.load_checkpoint(path);
    auto t3 = Clock::now();
    std::filesystem::remove(path);
    if (e != recovery::RecoveryError::kNone) {
      fail(std::string("load_checkpoint: ") + recovery::to_string(e));
      return;
    }
    util::SplitMix64 rng(opt_.seed);
    for (int i = 0; i < 4096; ++i) {
      Vertex u = static_cast<Vertex>(rng.next(in_.n));
      Vertex v = static_cast<Vertex>(rng.next(in_.n));
      if (copy.connected(u, v) != s_->connected(u, v))
        fail("restored checkpoint answers differently");
    }
    put("recovery.save_s", since_s(t0, t1), "s");
    put("recovery.load_s", since_s(t2, t3), "s");
    put("recovery.bytes", bytes, "B");
  }

 public:
  void write_spans(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return;
    std::fprintf(f, "{\"spans\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"parent\": %lld, \"round\": %zu}\n",
                   i ? "," : "", s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent), s.round);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

 private:
  const Options& opt_;
  const WorkloadSpec& w_;
  Input in_;
  std::unique_ptr<ParUfoConnectivity> s_;
  size_t m_ = 0, c0_ = 0;
  std::vector<uint32_t> picked_;  // edge index -> stamp of the round using it
  EdgeList batch_;
  std::vector<core::VertexPair> query_;
  Result res_;
  std::vector<SpanRec> spans_;
};

int host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

void print_samples(const char* name, const std::vector<double>& v) {
  std::printf(", \"%s\": [", name);
  for (size_t i = 0; i < v.size(); ++i)
    std::printf("%s%.17g", i ? ", " : "", v[i]);
  std::printf("]");
}

void print_result(const Options& opt, const Result& r) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %d, "
              "\"pool_width\": %d, \"build_type\": \"%s\", \"traced\": %s, "
              "\"correct\": %s, \"mismatch\": \"%s\", \"attempted\": %zu, "
              "\"failed\": %zu, \"rounds\": %zu, \"setup_s\": %.17g, "
              "\"peak_rss_mb\": %.17g",
              opt.spec->name, static_cast<unsigned long long>(opt.seed),
              host_nproc(), par::num_workers(), UFO_BENCH_BUILD_TYPE,
              kTraced ? "true" : "false", r.correct ? "true" : "false",
              r.mismatch.c_str(), r.attempted, r.failed, r.rounds, r.setup_s,
              r.peak_rss_mb);
  print_samples("delete_ms", r.del_ms);
  print_samples("insert_ms", r.ins_ms);
  print_samples("update_medges_s", r.update_medges_s);
  print_samples("query_mq_s", r.query_mq_s);
  std::printf(", \"layer\": {");
  const char* sep = "";
  for (const auto& [name, vu] : r.layer) {
    std::printf("%s\"%s\": [%.17g, \"%s\"]", sep, name.c_str(), vu.first,
                vu.second);
    sep = ", ";
  }
  std::printf("}, \"span_s_per_round\": {");
  sep = "";
  for (const auto& [name, v] : r.span_s_per_round) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), v);
    sep = ", ";
  }
  std::printf("}}\n");
}

int run(const Options& opt) {
  Bench bench(opt);
  Result r = bench.run();
  if (kTraced && !opt.spans_out.empty()) bench.write_spans(opt.spans_out);
  print_result(opt, r);
  if (!r.correct)
    std::fprintf(stderr, "ufo_perfbench: MISMATCH: %s\n", r.mismatch.c_str());
  return r.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return run(parse_args(argc, argv));
}
