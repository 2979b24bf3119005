// Crash-consistency and integrity tests for the snapshot subsystem
// (src/recovery/). Three families:
//
//   * Round-trip differentials: save a churned forest, load it into a fresh
//     tree, and compare every query family against the original (seq and
//     par backends, plus the connectivity layer's full checkpoint).
//   * Corruption: a >= 1000-flip fuzz sweep, prefix truncations, bad magic,
//     version skew, and surgically edited sections (CRC-fixed edits must
//     come back kInconsistent; CRC-broken kCold must degrade, kTopo must
//     not). Every case must return a typed RecoveryError — never crash —
//     which the sanitizer CI job checks under ASan.
//   * Crash simulation: a forked child is SIGKILLed while overwriting the
//     checkpoint in a loop; the temp + fsync + rename protocol must leave
//     the parent a loadable checkpoint at the published path.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "connectivity/connectivity.h"
#include "core/invariants.h"
#include "graph/generators.h"
#include "parallel/par_ufo_tree.h"
#include "recovery/snapshot.h"
#include "seq/ufo_tree.h"
#include "util/random.h"

namespace ufo {
namespace {

using recovery::ForestSerializer;
using recovery::LoadOptions;
using recovery::LoadStats;
using recovery::RecoveryError;

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "ufo_recovery_" + std::to_string(getpid()) +
         "_" + name;
}

std::vector<uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

uint32_t le32(const std::vector<uint8_t>& b, size_t off) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= uint32_t(b[off + i]) << (8 * i);
  return v;
}

uint64_t le64(const std::vector<uint8_t>& b, size_t off) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t(b[off + i]) << (8 * i);
  return v;
}

void put64(std::vector<uint8_t>* b, size_t off, uint64_t v) {
  for (int i = 0; i < 8; ++i) (*b)[off + i] = uint8_t(v >> (8 * i));
}

// Walks the section table of a snapshot image. Returns the payload offset
// and length of the section with `tag` (crc lives at hdr_off + 16), or
// false if absent. Mirrors the format documented in snapshot.h.
struct SectionLoc {
  size_t hdr_off = 0;
  size_t payload_off = 0;
  uint64_t len = 0;
};
bool find_section(const std::vector<uint8_t>& img, uint32_t tag,
                  SectionLoc* out) {
  constexpr size_t kFileHeader = 24, kSectionHeader = 24;
  size_t off = kFileHeader;
  while (off + kSectionHeader <= img.size()) {
    uint32_t t = le32(img, off);
    uint64_t len = le64(img, off + 8);
    if (off + kSectionHeader + len > img.size()) return false;
    if (t == tag) {
      out->hdr_off = off;
      out->payload_off = off + kSectionHeader;
      out->len = len;
      return true;
    }
    off += kSectionHeader + len;
  }
  return false;
}

// Re-checksums a section payload after a surgical edit, so the edit tests
// corruption *past* the CRC layer (kInconsistent, not kCorruptSection).
void fix_section_crc(std::vector<uint8_t>* img, const SectionLoc& loc) {
  uint64_t crc = recovery::crc64(img->data() + loc.payload_off, loc.len);
  put64(img, loc.hdr_off + 16, crc);
}

// Standard churn: link everything, cut a stride subset, relink part of it,
// then sprinkle weights and marks so every aggregate family is non-trivial.
// Returns the edges still present afterwards (the subtree-query oracle
// needs adjacent endpoints).
template <class Tree>
EdgeList churn(Tree* t, const EdgeList& edges, uint64_t seed) {
  t->batch_link(edges);
  EdgeList cut;
  for (size_t i = 0; i < edges.size(); i += 3) cut.push_back(edges[i]);
  t->batch_cut(cut);
  EdgeList relink;
  for (size_t i = 0; i + 1 < cut.size(); i += 2) relink.push_back(cut[i]);
  t->batch_link(relink);
  util::SplitMix64 rng(seed);
  size_t n = t->size();
  for (Vertex v = 0; v < n; v += 5)
    t->set_vertex_weight(v, static_cast<Weight>(rng.next(100)) - 50);
  for (Vertex v = 0; v < n; v += 7) t->set_mark(v, true);
  EdgeList live;
  for (size_t i = 0; i < edges.size(); ++i)
    if (i % 3 != 0) live.push_back(edges[i]);
  live.insert(live.end(), relink.begin(), relink.end());
  return live;
}

// Query-oracle differential between two trees over sampled vertex pairs:
// connectivity, path aggregates, subtree aggregates, and non-local queries
// must agree exactly.
template <class TreeA, class TreeB>
void expect_equal_queries(const TreeA& a, const TreeB& b, uint64_t seed,
                          const EdgeList& live = {}) {
  size_t n = a.size();
  ASSERT_EQ(n, b.size());
  util::SplitMix64 rng(seed);
  for (int i = 0; i < 200; ++i) {
    Vertex u = static_cast<Vertex>(rng.next(n));
    Vertex v = static_cast<Vertex>(rng.next(n));
    ASSERT_EQ(a.connected(u, v), b.connected(u, v)) << u << " " << v;
    if (u != v && a.connected(u, v)) {
      EXPECT_EQ(a.path_length(u, v), b.path_length(u, v)) << u << " " << v;
      EXPECT_EQ(a.path_sum(u, v), b.path_sum(u, v)) << u << " " << v;
      EXPECT_EQ(a.path_max(u, v), b.path_max(u, v)) << u << " " << v;
    }
    EXPECT_EQ(a.component_diameter(u), b.component_diameter(u)) << u;
    EXPECT_EQ(a.nearest_marked_distance(u), b.nearest_marked_distance(u))
        << u;
  }
  // Subtree aggregates need adjacent endpoints: sweep the live tree edges.
  for (size_t i = 0; i < live.size(); i += 3) {
    const Edge& e = live[i];
    EXPECT_EQ(a.subtree_sum(e.u, e.v), b.subtree_sum(e.u, e.v))
        << e.u << " " << e.v;
    EXPECT_EQ(a.subtree_size(e.v, e.u), b.subtree_size(e.v, e.u))
        << e.u << " " << e.v;
  }
}

struct ForestCase {
  std::string name;
  size_t n;
  EdgeList edges;
};

std::vector<ForestCase> forest_cases() {
  size_t n = 600;
  return {
      {"path", n, gen::path(n)},
      {"star", n, gen::star(n)},
      {"pattach", n, gen::pref_attach(n, 99)},
      {"deg3", n, gen::random_degree3(n, 7)},
  };
}

template <class Tree>
void run_round_trip(const ForestCase& fc) {
  SCOPED_TRACE(fc.name);
  const std::string path = tmp_path("rt_" + fc.name + ".snap");
  Tree t(fc.n);
  EdgeList live = churn(&t, fc.edges, 0xABC0 + fc.n);
  ASSERT_EQ(ForestSerializer::save(t, path), RecoveryError::kNone);

  Tree fresh(fc.n);
  LoadStats st;
  ASSERT_EQ(ForestSerializer::load(fresh, path, LoadOptions{}, &st),
            RecoveryError::kNone);
  EXPECT_FALSE(st.degraded);
  EXPECT_EQ(st.bytes, read_file(path).size());
  ASSERT_TRUE(fresh.check_valid());
  ASSERT_TRUE(fresh.check_aggregates());
  expect_equal_queries(t, fresh, 0xBEEF, live);
  std::remove(path.c_str());
}

TEST(SnapshotRoundTrip, SeqGenerators) {
  for (const ForestCase& fc : forest_cases()) run_round_trip<seq::UfoTree>(fc);
}

TEST(SnapshotRoundTrip, ParGenerators) {
  for (const ForestCase& fc : forest_cases()) run_round_trip<par::UfoTree>(fc);
}

// The two backends share the format: a forest saved by the sequential tree
// must load into the parallel one (and vice versa) with identical queries.
TEST(SnapshotRoundTrip, CrossBackend) {
  const std::string path = tmp_path("cross.snap");
  size_t n = 500;
  EdgeList edges = gen::pref_attach(n, 3);
  seq::UfoTree s(n);
  EdgeList live = churn(&s, edges, 11);
  ASSERT_EQ(ForestSerializer::save(s, path), RecoveryError::kNone);
  par::UfoTree p(n);
  ASSERT_EQ(ForestSerializer::load(p, path), RecoveryError::kNone);
  ASSERT_TRUE(p.check_valid());
  expect_equal_queries(s, p, 0xCAFE, live);
  std::remove(path.c_str());
}

// A loaded tree is a first-class tree: further batch updates must work and
// keep matching an original that receives the same updates (this exercises
// the lazily rebuilt derived state — rake indexes, adjacency hash indexes,
// freelists — under real mutations).
TEST(SnapshotRoundTrip, MutableAfterLoad) {
  const std::string path = tmp_path("mut.snap");
  size_t n = 600;
  EdgeList edges = gen::random_degree3(n, 21);
  seq::UfoTree t(n);
  t.batch_link(edges);
  ASSERT_EQ(ForestSerializer::save(t, path), RecoveryError::kNone);
  seq::UfoTree fresh(n);
  ASSERT_EQ(ForestSerializer::load(fresh, path), RecoveryError::kNone);

  EdgeList cut;
  for (size_t i = 0; i < edges.size(); i += 4) cut.push_back(edges[i]);
  t.batch_cut(cut);
  fresh.batch_cut(cut);
  t.batch_link(cut);
  fresh.batch_link(cut);
  for (Vertex v = 0; v < n; v += 9) {
    t.set_vertex_weight(v, static_cast<Weight>(v));
    fresh.set_vertex_weight(v, static_cast<Weight>(v));
  }
  ASSERT_TRUE(fresh.check_valid());
  ASSERT_TRUE(fresh.check_aggregates());
  expect_equal_queries(t, fresh, 0xD00D);
  std::remove(path.c_str());
}

TEST(SnapshotRoundTrip, EmptyForest) {
  const std::string path = tmp_path("empty.snap");
  seq::UfoTree t(5);
  ASSERT_EQ(ForestSerializer::save(t, path), RecoveryError::kNone);
  seq::UfoTree fresh(5);
  ASSERT_EQ(ForestSerializer::load(fresh, path), RecoveryError::kNone);
  EXPECT_TRUE(fresh.check_valid());
  EXPECT_FALSE(fresh.connected(0, 1));
  std::remove(path.c_str());
}

TEST(SnapshotPeek, ReportsMeta) {
  const std::string path = tmp_path("peek.snap");
  size_t n = 123;
  seq::UfoTree t(n);
  t.batch_link(gen::path(n));
  ASSERT_EQ(ForestSerializer::save(t, path), RecoveryError::kNone);
  recovery::SnapshotInfo info;
  ASSERT_EQ(ForestSerializer::peek(path, &info), RecoveryError::kNone);
  EXPECT_EQ(info.version, 1u);
  EXPECT_EQ(info.n, n);
  EXPECT_FALSE(info.has_connectivity);
  EXPECT_EQ(info.file_bytes, read_file(path).size());
  EXPECT_GE(info.sections.size(), 4u);

  conn::GraphConnectivity<seq::UfoTree> g(n);
  g.batch_insert(gen::social_graph(n, 3, 5));
  ASSERT_EQ(g.save_checkpoint(path), RecoveryError::kNone);
  ASSERT_EQ(ForestSerializer::peek(path, &info), RecoveryError::kNone);
  EXPECT_EQ(info.n, n);
  EXPECT_TRUE(info.has_connectivity);
  std::remove(path.c_str());
}

TEST(SnapshotLoad, BadTarget) {
  const std::string path = tmp_path("badtarget.snap");
  size_t n = 200;
  seq::UfoTree t(n);
  t.batch_link(gen::path(n));
  ASSERT_EQ(ForestSerializer::save(t, path), RecoveryError::kNone);

  seq::UfoTree wrong_n(n + 1);
  EXPECT_EQ(ForestSerializer::load(wrong_n, path),
            RecoveryError::kBadTarget);

  seq::UfoTree used(n);
  used.link(0, 1);
  EXPECT_EQ(ForestSerializer::load(used, path), RecoveryError::kBadTarget);
  std::remove(path.c_str());
}

TEST(SnapshotLoad, MissingFileIsIoError) {
  seq::UfoTree t(4);
  EXPECT_EQ(ForestSerializer::load(t, tmp_path("does_not_exist.snap")),
            RecoveryError::kIoError);
  recovery::SnapshotInfo info;
  EXPECT_EQ(ForestSerializer::peek(tmp_path("does_not_exist.snap"), &info),
            RecoveryError::kIoError);
}

TEST(SnapshotSave, UnwritablePathIsIoError) {
  seq::UfoTree t(4);
  EXPECT_EQ(ForestSerializer::save(t, "/nonexistent_dir_ufo/x.snap"),
            RecoveryError::kIoError);
}

TEST(SnapshotLoad, BadMagic) {
  const std::string path = tmp_path("magic.snap");
  seq::UfoTree t(50);
  t.batch_link(gen::path(50));
  ASSERT_EQ(ForestSerializer::save(t, path), RecoveryError::kNone);
  std::vector<uint8_t> img = read_file(path);
  img[0] ^= 0xFF;
  write_file(path, img);
  seq::UfoTree fresh(50);
  EXPECT_EQ(ForestSerializer::load(fresh, path), RecoveryError::kBadMagic);
  std::remove(path.c_str());
}

TEST(SnapshotLoad, VersionMismatch) {
  const std::string path = tmp_path("version.snap");
  seq::UfoTree t(50);
  t.batch_link(gen::path(50));
  ASSERT_EQ(ForestSerializer::save(t, path), RecoveryError::kNone);
  std::vector<uint8_t> img = read_file(path);
  // Bump the version field (offset 8) and re-seal the header CRC (over the
  // first 16 bytes, stored at offset 16) so the skew is reached at all.
  img[8] = 0x63;
  put64(&img, 16, recovery::crc64(img.data(), 16));
  write_file(path, img);
  seq::UfoTree fresh(50);
  EXPECT_EQ(ForestSerializer::load(fresh, path),
            RecoveryError::kVersionMismatch);
  std::remove(path.c_str());
}

// Every prefix truncation must come back as a typed error, never a crash
// or a silent partial load.
TEST(SnapshotLoad, TruncationSweep) {
  const std::string base = tmp_path("trunc_base.snap");
  const std::string path = tmp_path("trunc.snap");
  size_t n = 300;
  seq::UfoTree t(n);
  churn(&t, gen::pref_attach(n, 4), 5);
  ASSERT_EQ(ForestSerializer::save(t, base), RecoveryError::kNone);
  std::vector<uint8_t> img = read_file(base);
  ASSERT_GT(img.size(), 200u);

  std::vector<size_t> cuts = {0, 1, 7, 8, 15, 16, 23, 24, 25, 47, 48};
  for (size_t step = 64; step < img.size(); step += 97)
    cuts.push_back(step);
  cuts.push_back(img.size() - 1);
  for (size_t cut : cuts) {
    SCOPED_TRACE("prefix " + std::to_string(cut));
    write_file(path, std::vector<uint8_t>(img.begin(), img.begin() + cut));
    seq::UfoTree fresh(n);
    RecoveryError e = ForestSerializer::load(fresh, path);
    EXPECT_NE(e, RecoveryError::kNone);
  }
  std::remove(base.c_str());
  std::remove(path.c_str());
}

// >= 1000 seeded single-bit flips. Each mutated file must either load
// cleanly into a tree that passes the full audit (flips in dead bytes such
// as a section header's reserved field are benign) or return a typed
// error. Any crash, hang, or sanitizer report fails the suite; the CI
// fault-injection job runs this under ASan.
TEST(SnapshotLoad, CorruptionFuzz1000) {
  const std::string base = tmp_path("fuzz_base.snap");
  const std::string path = tmp_path("fuzz.snap");
  size_t n = 250;
  seq::UfoTree t(n);
  churn(&t, gen::random_degree3(n, 13), 13);
  ASSERT_EQ(ForestSerializer::save(t, base), RecoveryError::kNone);
  const std::vector<uint8_t> img = read_file(base);
  ASSERT_GT(img.size(), 0u);

  util::SplitMix64 rng(0xF00DF00D);
  int silent = 0, degraded = 0, typed = 0;
  for (int iter = 0; iter < 1200; ++iter) {
    std::vector<uint8_t> bad = img;
    size_t off = rng.next(bad.size());
    bad[off] ^= uint8_t(1u << rng.next(8));
    write_file(path, bad);
    seq::UfoTree fresh(n);
    LoadStats st;
    RecoveryError e = ForestSerializer::load(fresh, path, LoadOptions{}, &st);
    if (e == RecoveryError::kNone) {
      ASSERT_TRUE(fresh.check_valid())
          << "flip at " << off << " loaded clean but invalid";
      ASSERT_TRUE(fresh.check_aggregates())
          << "flip at " << off << " loaded clean but aggregates drifted";
      if (st.degraded)
        ++degraded;  // flip hit kCold: detected, rebuilt from topology
      else
        ++silent;  // flip hit a dead byte (reserved header field)
    } else {
      ++typed;
    }
  }
  // Every flip must be *detected* (typed error or degrade-and-rebuild);
  // silent survivals can only come from dead bytes — 4 reserved bytes per
  // section header out of tens of KB.
  EXPECT_GT(typed, 0);
  EXPECT_GT(typed + degraded, 1150);
  EXPECT_LT(silent, 50);
  std::remove(base.c_str());
  std::remove(path.c_str());
}

// A damaged aggregate section is recoverable: the loader rebuilds the
// aggregates bottom-up from topology when allowed, and reports a typed
// error when not.
TEST(SnapshotLoad, DegradedColdRebuild) {
  const std::string path = tmp_path("cold.snap");
  size_t n = 400;
  seq::UfoTree t(n);
  churn(&t, gen::pref_attach(n, 17), 17);
  ASSERT_EQ(ForestSerializer::save(t, path), RecoveryError::kNone);
  std::vector<uint8_t> img = read_file(path);
  SectionLoc cold;
  ASSERT_TRUE(find_section(img, recovery::kSecCold, &cold));
  ASSERT_GT(cold.len, 8u);
  img[cold.payload_off + 8] ^= 0xFF;  // payload edit, CRC left stale
  write_file(path, img);

  seq::UfoTree strict(n);
  EXPECT_EQ(ForestSerializer::load(strict, path,
                                   {.verify = true, .allow_degraded = false}),
            RecoveryError::kCorruptSection);

  seq::UfoTree fresh(n);
  LoadStats st;
  ASSERT_EQ(ForestSerializer::load(fresh, path,
                                   {.verify = true, .allow_degraded = true},
                                   &st),
            RecoveryError::kNone);
  EXPECT_TRUE(st.degraded);
  EXPECT_FALSE(st.notes.empty());
  ASSERT_TRUE(fresh.check_valid());
  ASSERT_TRUE(fresh.check_aggregates());
  expect_equal_queries(t, fresh, 0xC01D);
  std::remove(path.c_str());
}

// Corruption that *passes* the checksum (a re-sealed edit) must be caught
// by the semantic layer: aggregate recompute flags the drift, and with
// degradation allowed the recomputed values win.
TEST(SnapshotLoad, CrcValidDriftIsInconsistent) {
  const std::string path = tmp_path("drift.snap");
  size_t n = 300;
  seq::UfoTree t(n);
  churn(&t, gen::path(n), 23);
  ASSERT_EQ(ForestSerializer::save(t, path), RecoveryError::kNone);
  std::vector<uint8_t> img = read_file(path);
  SectionLoc cold;
  ASSERT_TRUE(find_section(img, recovery::kSecCold, &cold));
  ASSERT_GT(cold.len, 4u + 108u);
  // First record: u32 count, u32 id, then the aggregate words. Nudge the
  // first aggregate and re-seal the section CRC.
  size_t agg = cold.payload_off + 4 + 4;
  put64(&img, agg, le64(img, agg) + 1);
  fix_section_crc(&img, cold);
  write_file(path, img);

  seq::UfoTree strict(n);
  EXPECT_EQ(ForestSerializer::load(strict, path,
                                   {.verify = true, .allow_degraded = false}),
            RecoveryError::kInconsistent);

  seq::UfoTree fresh(n);
  LoadStats st;
  ASSERT_EQ(ForestSerializer::load(fresh, path,
                                   {.verify = true, .allow_degraded = true},
                                   &st),
            RecoveryError::kNone);
  EXPECT_TRUE(st.degraded);
  ASSERT_TRUE(fresh.check_aggregates());
  expect_equal_queries(t, fresh, 0xD51F);
  std::remove(path.c_str());
}

// Topology has no redundant copy to rebuild from: damage there must stay
// fatal even with degradation allowed.
TEST(SnapshotLoad, TopoCorruptionIsFatal) {
  const std::string path = tmp_path("topo.snap");
  size_t n = 200;
  seq::UfoTree t(n);
  t.batch_link(gen::star(n));
  ASSERT_EQ(ForestSerializer::save(t, path), RecoveryError::kNone);
  std::vector<uint8_t> img = read_file(path);
  SectionLoc topo;
  ASSERT_TRUE(find_section(img, recovery::kSecTopo, &topo));
  img[topo.payload_off + topo.len / 2] ^= 0x10;
  write_file(path, img);
  seq::UfoTree fresh(n);
  EXPECT_EQ(ForestSerializer::load(fresh, path,
                                   {.verify = true, .allow_degraded = true}),
            RecoveryError::kCorruptSection);
  std::remove(path.c_str());
}

// The crash test proper: a child process overwrites the checkpoint in a
// tight loop and is SIGKILLed at an arbitrary point — possibly mid-write.
// The publish protocol (write tmp, fsync, rename, fsync dir) must leave
// the published path holding a complete checkpoint: either the previous
// one or a fully committed new one, never a torn file.
TEST(Recovery, SigkillMidSnapshotLeavesLoadableCheckpoint) {
  const std::string path = tmp_path("crash.snap");
  size_t n = 500;
  seq::UfoTree t(n);
  churn(&t, gen::pref_attach(n, 31), 31);
  ASSERT_EQ(ForestSerializer::save(t, path), RecoveryError::kNone);

  pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: re-publish until killed. Serialization is single-threaded, so
    // the fork is safe even with the parent's worker pool running.
    for (;;) (void)ForestSerializer::save(t, path);
    _exit(0);  // unreachable
  }
  usleep(25 * 1000);
  kill(pid, SIGKILL);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));

  seq::UfoTree fresh(n);
  LoadStats st;
  ASSERT_EQ(ForestSerializer::load(fresh, path, LoadOptions{}, &st),
            RecoveryError::kNone);
  EXPECT_FALSE(st.degraded);
  ASSERT_TRUE(fresh.check_valid());
  ASSERT_TRUE(fresh.check_aggregates());
  expect_equal_queries(t, fresh, 0x51CC);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// --- Connectivity-layer checkpoints ----------------------------------------

TEST(ConnectivityCheckpoint, RoundTrip) {
  const std::string path = tmp_path("conn.snap");
  size_t n = 400;
  conn::GraphConnectivity<seq::UfoTree> g(n);
  EdgeList edges = gen::social_graph(n, 4, 77);
  util::SplitMix64 rng(77);
  for (Edge& e : edges) e.w = static_cast<Weight>(rng.next(40)) + 1;
  ASSERT_EQ(g.batch_insert(edges), conn::BatchStatus::kOk);
  EdgeList drop;
  for (size_t i = 0; i < edges.size(); i += 5) drop.push_back(edges[i]);
  g.batch_erase(drop);
  ASSERT_TRUE(g.check_valid());
  ASSERT_EQ(g.save_checkpoint(path), RecoveryError::kNone);

  conn::GraphConnectivity<seq::UfoTree> fresh(n);
  LoadStats st;
  ASSERT_EQ(fresh.load_checkpoint(path, {}, &st), RecoveryError::kNone);
  EXPECT_FALSE(st.degraded);
  ASSERT_TRUE(fresh.check_valid());
  EXPECT_EQ(fresh.num_components(), g.num_components());
  EXPECT_EQ(fresh.num_edges(), g.num_edges());
  EXPECT_EQ(fresh.num_tree_edges(), g.num_tree_edges());
  for (const Edge& e : edges)
    EXPECT_EQ(fresh.has_edge(e.u, e.v), g.has_edge(e.u, e.v));
  for (int i = 0; i < 300; ++i) {
    Vertex u = static_cast<Vertex>(rng.next(n));
    Vertex v = static_cast<Vertex>(rng.next(n));
    EXPECT_EQ(fresh.connected(u, v), g.connected(u, v)) << u << " " << v;
  }

  // The restored layer must keep working as a graph: erase tree edges (the
  // replacement search leans on the restored non-tree store and weights)
  // and both instances must stay in lockstep.
  EdgeList more_drop;
  for (size_t i = 1; i < edges.size(); i += 7) more_drop.push_back(edges[i]);
  g.batch_erase(more_drop);
  fresh.batch_erase(more_drop);
  ASSERT_TRUE(fresh.check_valid());
  EXPECT_EQ(fresh.num_components(), g.num_components());
  EXPECT_EQ(fresh.num_edges(), g.num_edges());

  // Restored weights feed promotions: every tree edge of either instance,
  // promoted after the load or not, carries its inserted weight (the first
  // occurrence's, as batch_insert keeps it) as its one-edge path sum.
  std::map<uint64_t, Weight> first_w;
  for (const Edge& e : edges) first_w.emplace(edge_key(e.u, e.v), e.w);
  for (const auto* c : {&g, &fresh}) {
    size_t checked = 0;
    for (const auto& [key, w] : first_w) {
      Vertex u = static_cast<Vertex>(key >> 32), v = static_cast<Vertex>(key);
      if (!c->forest().has_edge(u, v)) continue;
      EXPECT_EQ(c->forest().path_sum(u, v), w) << u << " " << v;
      ++checked;
    }
    EXPECT_EQ(checked, c->num_tree_edges());
  }
  std::remove(path.c_str());
}

TEST(ConnectivityCheckpoint, DegradedWeights) {
  const std::string path = tmp_path("connw.snap");
  size_t n = 200;
  conn::GraphConnectivity<seq::UfoTree> g(n);
  g.batch_insert(gen::social_graph(n, 3, 9));
  ASSERT_EQ(g.save_checkpoint(path), RecoveryError::kNone);
  std::vector<uint8_t> img = read_file(path);
  SectionLoc wsec;
  ASSERT_TRUE(find_section(img, recovery::kSecWeights, &wsec));
  ASSERT_GT(wsec.len, 8u);
  img[wsec.payload_off + 8] ^= 0x01;
  write_file(path, img);

  conn::GraphConnectivity<seq::UfoTree> strict(n);
  EXPECT_EQ(strict.load_checkpoint(path,
                                   {.verify = true, .allow_degraded = false}),
            RecoveryError::kCorruptSection);

  conn::GraphConnectivity<seq::UfoTree> fresh(n);
  LoadStats st;
  ASSERT_EQ(fresh.load_checkpoint(path, {}, &st), RecoveryError::kNone);
  EXPECT_TRUE(st.degraded);
  ASSERT_TRUE(fresh.check_valid());
  EXPECT_EQ(fresh.num_edges(), g.num_edges());
  std::remove(path.c_str());
}

// A re-sealed edit that invents a non-tree edge crossing two components
// passes every checksum; the union-find cross-check must reject it.
TEST(ConnectivityCheckpoint, CrcValidCrossingEdgeIsInconsistent) {
  const std::string path = tmp_path("conncross.snap");
  size_t n = 50;
  conn::GraphConnectivity<seq::UfoTree> g(n);
  // Two components: a path on [0, 25) and one on [25, 50); no non-tree
  // edges yet.
  EdgeList edges;
  for (Vertex v = 0; v + 1 < 25; ++v) edges.push_back({v, v + 1, 1});
  for (Vertex v = 25; v + 1 < 50; ++v) edges.push_back({v, v + 1, 1});
  g.batch_insert(edges);
  ASSERT_EQ(g.save_checkpoint(path), RecoveryError::kNone);
  std::vector<uint8_t> img = read_file(path);
  SectionLoc ne;
  ASSERT_TRUE(find_section(img, recovery::kSecNontreeEdges, &ne));
  // Rewrite the (empty) non-tree section: count=1, edge {2, 40} crossing
  // the two components. Grow the payload in place.
  std::vector<uint8_t> forged(img.begin(), img.begin() + ne.payload_off);
  std::vector<uint8_t> tail(img.begin() + ne.payload_off + ne.len, img.end());
  for (int i = 0; i < 8; ++i) forged.push_back(uint8_t(uint64_t(1) >> (8 * i)));
  for (int i = 0; i < 4; ++i) forged.push_back(uint8_t(uint32_t(2) >> (8 * i)));
  for (int i = 0; i < 4; ++i)
    forged.push_back(uint8_t(uint32_t(40) >> (8 * i)));
  forged.insert(forged.end(), tail.begin(), tail.end());
  SectionLoc loc = ne;
  loc.len = 16;
  put64(&forged, ne.hdr_off + 8, 16);  // new payload length
  fix_section_crc(&forged, loc);
  write_file(path, forged);

  conn::GraphConnectivity<seq::UfoTree> fresh(n);
  EXPECT_EQ(fresh.load_checkpoint(path), RecoveryError::kInconsistent);
  std::remove(path.c_str());
}

TEST(ConnectivityCheckpoint, BadTargetNotFresh) {
  const std::string path = tmp_path("connbt.snap");
  size_t n = 60;
  conn::GraphConnectivity<seq::UfoTree> g(n);
  g.batch_insert(gen::path(n));
  ASSERT_EQ(g.save_checkpoint(path), RecoveryError::kNone);
  conn::GraphConnectivity<seq::UfoTree> used(n);
  used.insert(0, 1);
  EXPECT_EQ(used.load_checkpoint(path), RecoveryError::kBadTarget);
  std::remove(path.c_str());
}

// --- InvariantReport mechanics ---------------------------------------------

TEST(InvariantReport, CollectsAndTruncates) {
  core::InvariantReport rep;
  EXPECT_TRUE(rep.ok());
  // add() returns true while there is room for more: the add that fills
  // the report returns false so audit loops stop scanning.
  for (size_t i = 0; i + 1 < core::InvariantReport::kMaxFailures; ++i)
    EXPECT_TRUE(rep.add(1, static_cast<uint32_t>(i), "x"));
  EXPECT_FALSE(rep.add(1, 63, "last"));
  EXPECT_FALSE(rep.ok());
  EXPECT_FALSE(rep.truncated);
  EXPECT_FALSE(rep.add(2, 0, "overflow"));
  EXPECT_TRUE(rep.truncated);
  EXPECT_EQ(rep.failures.size(), core::InvariantReport::kMaxFailures);
}

TEST(Crc64, DeterministicAndSensitive) {
  const char a[] = "123456789";
  uint64_t c1 = recovery::crc64(a, 9);
  uint64_t c2 = recovery::crc64(a, 9);
  EXPECT_EQ(c1, c2);
  const char b[] = "123456780";
  EXPECT_NE(c1, recovery::crc64(b, 9));
  // Seed chaining: crc of a split buffer equals crc of the whole.
  uint64_t part = recovery::crc64(a, 4);
  EXPECT_EQ(recovery::crc64(a + 4, 5, part), c1);
}

TEST(RecoveryError, ToStringCoversAll) {
  for (int i = 0; i <= static_cast<int>(RecoveryError::kBadTarget); ++i) {
    const char* s = recovery::to_string(static_cast<RecoveryError>(i));
    ASSERT_NE(s, nullptr);
    EXPECT_GT(std::string(s).size(), 0u);
  }
}

}  // namespace
}  // namespace ufo
