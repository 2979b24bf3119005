// Thread sweep: par::UfoTree against seq::UfoTree on identical batched
// build+destroy workloads, across fork-join pool widths.
//
// The pool's width is fixed at process start (UFOTREE_NUM_THREADS), so the
// sweep re-executes this binary once per thread count with the variable set
// and captures the child's measurement over a pipe. Inputs follow Fig. 8/9:
// a path (all pair merges), a preferential-attachment tree (mixed), and a
// star (one superunary merge).
//
//   --n=<vertices>  --batch=<k>  --quick  --batch-sweep
//   --json=<path>   write a "ufo-bench/1" sidecar: config, per-row timings
//                   (including each child process's per-round times and
//                   metric snapshot, spliced in verbatim), exact storage
//                   accounting for the standing tree ("seq_memory" per row,
//                   "memory" per par child: memory_bytes, live clusters,
//                   bytes-per-cluster, per-pool breakdown), and the
//                   parent's own metric snapshot
//   --trace=<path>  write a chrome://tracing JSON of one widest-pool child
//                   run (spans need -DUFO_OBSERVABILITY=ON to appear)
//
// The speedup column is seq seconds / widest-par seconds — the acceptance
// target for this backend is >= 1.5x on >= 4 cores at k = 100000 (see
// BENCH.md for recorded runs; single-core hosts can only show the parallel
// overhead, not the speedup).
//
// --batch-sweep switches to the small-batch regime: build each input fully,
// then time rounds of (batch_cut k, batch_link k) for k in {100, 1k, 10k}
// on a standing n-vertex tree. This is the regime where the old
// whole-component parallel rebuild paid O(component) per batch; with
// path-granular affected sets par must stay at or below seq.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "graph/generators.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/par_ufo_tree.h"
#include "parallel/scheduler.h"
#include "recovery/snapshot.h"
#include "seq/ufo_tree.h"

using namespace ufo;
using namespace ufo::bench;

namespace {

EdgeList make_input(const std::string& name, size_t n) {
  if (name == "path") return gen::path(n);
  if (name == "pref-attach") return gen::pref_attach(n, 7);
  return gen::star(n);
}

constexpr int kSweepRounds = 10;

bool write_string(const std::string& path, const std::string& s) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  size_t written = std::fwrite(s.data(), 1, s.size(), f);
  return (std::fclose(f) == 0) && written == s.size();
}

// Child mode: one parallel measurement, result on stdout for the parent.
// With --json the child also drops a JSON blob (timings + its own metric
// snapshot — the par-side counters live in this process, not the parent)
// for the parent to splice into the sidecar's rows.
int child_main(const std::string& input, size_t n, size_t k, bool sweep,
               const std::string& json, const std::string& trace) {
  if (!trace.empty()) obs::TraceSession::start();
  std::vector<double> rounds;
  MemReport mem;
  MemReport* mp = json.empty() ? nullptr : &mem;
  double s = sweep ? small_batch_rounds_seconds<par::UfoTree>(
                         n, make_input(input, n), k, kSweepRounds, 4, &rounds,
                         mp)
                   : batch_build_destroy_seconds<par::UfoTree>(
                         n, make_input(input, n), k, 4, &rounds, mp);
  if (!trace.empty()) obs::TraceSession::write_chrome_trace(trace);
  if (!json.empty()) {
    touch_headline_counters();
    obs::JsonWriter w;
    w.begin_object();
    w.key("threads");
    w.value(static_cast<int64_t>(par::num_workers()));
    w.key("input");
    w.value(input);
    w.key("k");
    w.value(static_cast<uint64_t>(k));
    w.key("seconds");
    w.value(s);
    w.key(sweep ? "round_seconds" : "phase_seconds");
    w.begin_array();
    for (double r : rounds) w.value(r);
    w.end_array();
    mem.append_json(w, "memory");
    w.key("metrics");
    w.raw(obs::MetricsRegistry::instance().to_json());
    w.end_object();
    write_string(json, w.str());
  }
  std::printf("%.6f\n", s);
  return 0;
}

// Re-exec self with the pool width pinned; returns seconds or -1.
double run_child(const char* self, const std::string& input, size_t n,
                 size_t k, unsigned threads, bool sweep,
                 const std::string& json = "",
                 const std::string& trace = "") {
  std::string cmd = "UFOTREE_NUM_THREADS=" + std::to_string(threads) + " '" +
                    self + "' --child=" + input + " --n=" + std::to_string(n) +
                    " --batch=" + std::to_string(k) +
                    (sweep ? " --batch-sweep" : "");
  if (!json.empty()) cmd += " --json=" + json;
  if (!trace.empty()) cmd += " --trace=" + trace;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) return -1;
  double s = -1;
  if (std::fscanf(pipe, "%lf", &s) != 1) s = -1;
  if (pclose(pipe) != 0) return -1;
  return s;
}

// One sweep/build-destroy driver shared by both table modes: measures seq
// in-process and each par width in a child, printing cells as it goes and
// appending a row object to `rows` (used only when the caller writes a
// sidecar). Child JSON blobs are staged in temp files next to the sidecar
// and spliced in verbatim.
struct RowRunner {
  const char* self;
  size_t n;
  const std::vector<unsigned>& threads;
  bool sweep;
  const Options& opt;
  obs::JsonWriter& rows;
  bool trace_pending;
  int child_idx = 0;

  void run(const std::string& input, size_t k) {
    rows.begin_object();
    rows.key("input");
    rows.value(input);
    rows.key("k");
    rows.value(static_cast<uint64_t>(k));
    std::vector<double> seq_rounds;
    MemReport seq_mem;
    MemReport* mp = opt.json.empty() ? nullptr : &seq_mem;
    double seq_s =
        sweep ? small_batch_rounds_seconds<seq::UfoTree>(
                    n, make_input(input, n), k, kSweepRounds, 4, &seq_rounds,
                    mp)
              : batch_build_destroy_seconds<seq::UfoTree>(
                    n, make_input(input, n), k, 4, &seq_rounds, mp);
    print_cell(seq_s);
    std::fflush(stdout);
    rows.key("seq_seconds");
    rows.value(seq_s);
    rows.key(sweep ? "seq_round_seconds" : "seq_phase_seconds");
    rows.begin_array();
    for (double r : seq_rounds) rows.value(r);
    rows.end_array();
    seq_mem.append_json(rows, "seq_memory");
    rows.key("par");
    rows.begin_array();
    double widest = -1;
    for (unsigned t : threads) {
      std::string cj, ct;
      if (!opt.json.empty())
        cj = opt.json + ".child" + std::to_string(child_idx++) + ".tmp";
      if (trace_pending && t == threads.back()) {
        ct = opt.trace;
        trace_pending = false;
      }
      widest = run_child(self, input, n, k, t, sweep, cj, ct);
      print_cell(widest);
      std::fflush(stdout);
      std::string blob;
      if (!cj.empty()) {
        blob = read_file(cj);
        std::remove(cj.c_str());
      }
      if (!blob.empty()) {
        rows.raw(blob);
      } else {
        rows.begin_object();
        rows.key("threads");
        rows.value(static_cast<int64_t>(t));
        rows.key("seconds");
        rows.value(widest);
        rows.end_object();
      }
    }
    rows.end_array();
    rows.key("speedup");
    rows.value(widest > 0 ? seq_s / widest : -1.0);
    rows.end_object();
    if (widest > 0)
      std::printf(" %11.2fx", seq_s / widest);
    else
      std::printf(" %12s", "n/a");
    std::printf("\n");
    std::fflush(stdout);
  }
};

// --checkpoint: durable snapshot save + load of a standing seq tree per
// input (src/recovery/snapshot.h), timed and size-reported. Returns false
// (after printing why) if any save or load comes back with an error — the
// CI perf-smoke job runs this as the persistence liveness gate. With
// --json the measurements land in the sidecar under "checkpoint".
bool run_checkpoint_block(const Options& opt, size_t n, std::string* json) {
  using recovery::ForestSerializer;
  using recovery::RecoveryError;
  std::printf(
      "\n== checkpoint (durable save -> verified load, standing seq tree, "
      "n=%zu) ==\n%-26s %12s %12s %12s %12s\n",
      n, "input", "save-s", "load-s", "MB", "save-MB/s");
  obs::JsonWriter w;
  w.begin_array();
  bool ok = true;
  for (const std::string& input : {"path", "pref-attach", "star"}) {
    seq::UfoTree t(n);
    t.batch_link(make_input(input, n));
    double save_s = 0, load_s = 0;
    RecoveryError e;
    {
      util::ScopedTimer st(save_s);
      e = ForestSerializer::save(t, opt.checkpoint);
    }
    if (e != RecoveryError::kNone) {
      std::fprintf(stderr, "checkpoint save(%s) failed: %s\n", input.c_str(),
                   recovery::to_string(e));
      ok = false;
      continue;
    }
    recovery::SnapshotInfo info;
    ForestSerializer::peek(opt.checkpoint, &info);
    seq::UfoTree fresh(n);
    {
      util::ScopedTimer st(load_s);
      e = ForestSerializer::load(fresh, opt.checkpoint);
    }
    if (e != RecoveryError::kNone) {
      std::fprintf(stderr, "checkpoint load(%s) failed: %s\n", input.c_str(),
                   recovery::to_string(e));
      ok = false;
      continue;
    }
    double mb = static_cast<double>(info.file_bytes) / (1024.0 * 1024.0);
    std::printf("%-26s %12.4f %12.4f %12.2f %12.1f\n", input.c_str(), save_s,
                load_s, mb, save_s > 0 ? mb / save_s : 0.0);
    std::fflush(stdout);
    w.begin_object();
    w.key("input");
    w.value(input);
    w.key("save_seconds");
    w.value(save_s);
    w.key("load_seconds");
    w.value(load_s);
    w.key("bytes");
    w.value(info.file_bytes);
    w.end_object();
  }
  w.end_array();
  if (json) *json = w.str();
  std::remove(opt.checkpoint.c_str());
  return ok;
}

void write_sidecar(const Options& opt, size_t n, size_t k, bool sweep,
                   const std::vector<unsigned>& threads,
                   obs::JsonWriter& rows,
                   const std::string& checkpoint_json = {}) {
  obs::JsonWriter cfg;
  cfg.begin_object();
  cfg.key("n");
  cfg.value(static_cast<uint64_t>(n));
  cfg.key("mode");
  cfg.value(sweep ? "batch-sweep" : "build-destroy");
  if (sweep) {
    cfg.key("rounds");
    cfg.value(int64_t{kSweepRounds});
  } else {
    cfg.key("k");
    cfg.value(static_cast<uint64_t>(k));
  }
  cfg.key("threads");
  cfg.begin_array();
  for (unsigned t : threads) cfg.value(static_cast<int64_t>(t));
  cfg.end_array();
  cfg.key("observability");
#if defined(UFO_OBSERVABILITY) && UFO_OBSERVABILITY
  cfg.value(true);
#else
  cfg.value(false);
#endif
  cfg.end_object();
  if (!write_bench_json(opt.json, "bench_par_vs_seq", cfg.str(), rows.str(),
                        checkpoint_json.empty() ? "" : "checkpoint",
                        checkpoint_json))
    std::fprintf(stderr, "failed to write sidecar %s\n", opt.json.c_str());
}

// Small-batch sweep table: rows are input x k, columns seq / par widths.
int sweep_main(const char* self, size_t n,
               const std::vector<unsigned>& threads, const Options& opt) {
  std::printf(
      "[par-vs-seq] small-batch sweep: %d rounds of (batch_cut k, "
      "batch_link k) on a standing tree, n=%zu (seconds)\n",
      kSweepRounds, n);
  std::vector<std::string> cols{"seq"};
  for (unsigned t : threads) cols.push_back("par-t" + std::to_string(t));
  cols.push_back("speedup");
  print_header("small batches", "input / k", cols);
  obs::JsonWriter rows;
  rows.begin_array();
  RowRunner runner{self,        n,    threads, /*sweep=*/true,
                   opt,         rows, !opt.trace.empty()};
  for (const std::string& input : {"path", "pref-attach", "star"}) {
    for (size_t k : {size_t{100}, size_t{1000}, size_t{10000}}) {
      std::string row = input + " k=" + std::to_string(k);
      std::printf("%-26s", row.c_str());
      runner.run(input, k);
    }
  }
  rows.end_array();
  std::string ckpt;
  bool ckpt_ok = opt.checkpoint.empty() ||
                 run_checkpoint_block(opt, n, opt.json.empty() ? nullptr
                                                               : &ckpt);
  if (!opt.json.empty()) write_sidecar(opt, n, 0, true, threads, rows, ckpt);
  return ckpt_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = parse(argc, argv, {"--child=", "--batch-sweep"});
  size_t n = opt.n ? opt.n : (opt.quick ? 20000 : 300000);
  size_t k = opt.batch ? opt.batch : std::min<size_t>(n, 100000);
  std::string child_input;
  bool sweep = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--child=", 8) == 0) child_input = argv[i] + 8;
    if (std::strcmp(argv[i], "--batch-sweep") == 0) sweep = true;
  }
  if (!child_input.empty())
    return child_main(child_input, n, k, sweep, opt.json, opt.trace);

  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  std::vector<unsigned> threads{1, 2, 4};
  if (hw > 4) threads.push_back(hw);
  if (sweep) return sweep_main(argv[0], n, threads, opt);
  std::printf(
      "[par-vs-seq] batch UFO build+destroy, n=%zu, k=%zu (seconds); "
      "host has %u hardware threads\n",
      n, k, hw);
  std::vector<std::string> cols{"seq"};
  for (unsigned t : threads) cols.push_back("par-t" + std::to_string(t));
  cols.push_back("speedup");
  print_header("inputs", "input", cols);
  obs::JsonWriter rows;
  rows.begin_array();
  RowRunner runner{argv[0],     n,    threads, /*sweep=*/false,
                   opt,         rows, !opt.trace.empty()};
  for (const std::string& input : {"path", "pref-attach", "star"}) {
    std::printf("%-26s", input.c_str());
    runner.run(input, k);
  }
  rows.end_array();
  std::string ckpt;
  bool ckpt_ok = opt.checkpoint.empty() ||
                 run_checkpoint_block(opt, n, opt.json.empty() ? nullptr
                                                               : &ckpt);
  if (!opt.json.empty()) write_sidecar(opt, n, k, false, threads, rows, ckpt);
  return ckpt_ok ? 0 : 1;
}
