// Telemetry subsystem tests: sharded counter exactness against a mutex
// oracle under fork-join load, histogram aggregation, span nesting and
// chrome://tracing export, the JSON writer, and macro gating.
//
// The obs classes are compiled in every build; only the UFO_STAT/UFO_SPAN
// macros depend on UFO_OBSERVABILITY, and the gating test asserts whichever
// behavior matches the build. CMake runs this binary at 1, 2, 4, and the
// hardware-default worker counts (UFOTREE_NUM_THREADS).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>

#include <unistd.h>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/scheduler.h"

namespace {

using namespace ufo;

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return {};
  std::string out;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, got);
  std::fclose(f);
  return out;
}

TEST(ObsScheduler, WorkerIdsInRange) {
  int w = std::max(par::num_workers(), 1);
  EXPECT_EQ(par::worker_id(), 0);  // main thread owns slot 0
  std::atomic<bool> bad{false};
  par::parallel_for(
      0, 10000,
      [&](size_t) {
        int id = par::worker_id();
        if (id < 0 || id >= w) bad.store(true, std::memory_order_relaxed);
      },
      1);
  EXPECT_FALSE(bad.load());
}

TEST(ObsCounter, ExactTotalsVsMutexOracle) {
  obs::Counter c("test.exact");
  std::mutex mu;
  int64_t oracle = 0;
  constexpr size_t kN = 200000;
  par::parallel_for(
      0, kN,
      [&](size_t i) {
        int64_t d = static_cast<int64_t>(i % 7);
        c.add(d);
        std::lock_guard<std::mutex> lock(mu);
        oracle += d;
      },
      64);
  EXPECT_EQ(c.total(), oracle);
  // The per-shard breakdown must re-sum to the exact total, and only
  // workers that exist may own a slot.
  int64_t shard_sum = 0;
  std::vector<int64_t> shards = c.per_shard();
  EXPECT_LE(shards.size(),
            std::min<size_t>(obs::kShards,
                             static_cast<size_t>(par::num_workers())));
  for (int64_t v : shards) shard_sum += v;
  EXPECT_EQ(shard_sum, oracle);
}

TEST(ObsHistogram, MatchesOracle) {
  obs::Histogram h("test.hist");
  std::mutex mu;
  int64_t osum = 0, ocount = 0, omax = 0;
  constexpr size_t kN = 50000;
  par::parallel_for(
      0, kN,
      [&](size_t i) {
        int64_t v = static_cast<int64_t>((i * i) % 1000);
        h.record(v);
        std::lock_guard<std::mutex> lock(mu);
        osum += v;
        ocount += 1;
        omax = std::max(omax, v);
      },
      64);
  EXPECT_EQ(h.count(), ocount);
  EXPECT_EQ(h.sum(), osum);
  EXPECT_EQ(h.max(), omax);
  int64_t bucket_total = 0;
  for (size_t b = 0; b < obs::kHistBuckets; ++b)
    bucket_total += h.bucket_count(b);
  EXPECT_EQ(bucket_total, ocount);
}

TEST(ObsHistogram, BucketBoundaries) {
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(-5), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
  for (size_t b = 1; b + 1 < obs::kHistBuckets; ++b) {
    int64_t lo = obs::Histogram::bucket_floor(b);
    EXPECT_EQ(obs::Histogram::bucket_of(lo), b);
    EXPECT_EQ(obs::Histogram::bucket_of(2 * lo - 1), b);
  }
}

TEST(ObsTrace, SpanNestingAndCounters) {
  obs::TraceSession::start();
  {
    static obs::SpanSite outer("test.outer");
    obs::SpanGuard g1(outer);
    {
      static obs::SpanSite inner("test.inner");
      obs::SpanGuard g2(inner);
    }
  }
  obs::TraceSession::stop();
  std::vector<obs::TraceEvent> evs = obs::TraceSession::events();
  ASSERT_EQ(evs.size(), 2u);
  const obs::TraceEvent* outer_ev = nullptr;
  const obs::TraceEvent* inner_ev = nullptr;
  for (const auto& e : evs) {
    if (std::string(e.name) == "test.outer") outer_ev = &e;
    if (std::string(e.name) == "test.inner") inner_ev = &e;
  }
  ASSERT_NE(outer_ev, nullptr);
  ASSERT_NE(inner_ev, nullptr);
  // Proper nesting: the inner span lies within the outer one.
  EXPECT_GE(inner_ev->t0_ns, outer_ev->t0_ns);
  EXPECT_LE(inner_ev->t0_ns + inner_ev->dur_ns,
            outer_ev->t0_ns + outer_ev->dur_ns);
  // Spans always feed their counters, session or not.
  obs::Counter* cnt = obs::MetricsRegistry::instance().find_counter(
      "span.test.outer.count");
  ASSERT_NE(cnt, nullptr);
  EXPECT_GE(cnt->total(), 1);
  obs::Counter* ns =
      obs::MetricsRegistry::instance().find_counter("span.test.outer.ns");
  ASSERT_NE(ns, nullptr);
  EXPECT_GE(ns->total(), outer_ev->dur_ns);
}

TEST(ObsTrace, ParallelSpansAllRecorded) {
  static obs::SpanSite site("test.par_span");
  obs::TraceSession::start();
  constexpr size_t kN = 1000;
  par::parallel_for(0, kN, [&](size_t) { obs::SpanGuard g(site); }, 1);
  obs::TraceSession::stop();
  // Every worker id here is < kShards, so no events are dropped.
  EXPECT_EQ(obs::TraceSession::event_count(), kN);
  std::vector<obs::TraceEvent> evs = obs::TraceSession::events();
  for (size_t i = 1; i < evs.size(); ++i)
    EXPECT_LE(evs[i - 1].t0_ns, evs[i].t0_ns);  // merged sort order
}

TEST(ObsTrace, WritesChromeTraceJson) {
  obs::TraceSession::start();
  {
    static obs::SpanSite site("test.file_span");
    obs::SpanGuard g(site);
  }
  // One file per process: CTest runs this binary at several worker counts
  // concurrently in the same directory.
  const std::string path =
      "obs_test_trace." + std::to_string(getpid()) + ".json";
  ASSERT_TRUE(obs::TraceSession::write_chrome_trace(path));
  std::string content = slurp(path);
  std::remove(path.c_str());
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(content.find("test.file_span"), std::string::npos);
  EXPECT_NE(content.find("thread_name"), std::string::npos);
  EXPECT_EQ(content.front(), '{');
  EXPECT_EQ(content.back(), '}');
}

TEST(ObsJson, WriterPlacesCommasAndEscapes) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("a");
  w.value(int64_t{1});
  w.key("b");
  w.begin_array();
  w.value("x\"y");
  w.value(2.5);
  w.value(true);
  w.end_array();
  w.key("c");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(), "{\"a\":1,\"b\":[\"x\\\"y\",2.5,true],\"c\":{}}");
}

TEST(ObsJson, RawSplicesVerbatim) {
  obs::JsonWriter w;
  w.begin_array();
  w.raw("{\"child\":1}");
  w.raw("{\"child\":2}");
  w.end_array();
  EXPECT_EQ(w.str(), "[{\"child\":1},{\"child\":2}]");
}

TEST(ObsRegistry, SnapshotAndReset) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& c = reg.counter("test.snapshot");
  c.add(5);
  reg.histogram("test.snapshot_hist").record(3);
  std::string j = reg.to_json();
  EXPECT_NE(j.find("\"test.snapshot\""), std::string::npos);
  EXPECT_NE(j.find("\"test.snapshot_hist\""), std::string::npos);
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  EXPECT_EQ(&reg.counter("test.snapshot"), &c);  // find-or-create is stable
  reg.reset();
  EXPECT_EQ(c.total(), 0);
  EXPECT_EQ(reg.histogram("test.snapshot_hist").count(), 0);
}

TEST(ObsMacros, GatingMatchesBuild) {
  UFO_STAT("test.macro_gate", 2);
  UFO_STAT_HIST("test.macro_gate_hist", 9);
  auto& reg = obs::MetricsRegistry::instance();
#if defined(UFO_OBSERVABILITY) && UFO_OBSERVABILITY
  obs::Counter* c = reg.find_counter("test.macro_gate");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->total(), 2);
  obs::Histogram* h = reg.find_histogram("test.macro_gate_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1);
  EXPECT_EQ(h->max(), 9);
#else
  // The macros compiled to nothing: the metrics must not even register.
  EXPECT_EQ(reg.find_counter("test.macro_gate"), nullptr);
  EXPECT_EQ(reg.find_histogram("test.macro_gate_hist"), nullptr);
#endif
}

}  // namespace
