// Shared by the scheduler and parallel suites: reads the telemetry build's
// scheduler counters, and checks that a test case still puts work on the
// fork-join pool. parallel_for runs loops shorter than a fork-join
// inline, so a suite of small batches could stop exercising concurrent
// execution without failing; sanitizer (TSan) runs rely on at least one
// case per suite running pool tasks.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "obs/metrics.h"
#include "parallel/scheduler.h"

namespace ufo::test {

// Total of a scheduler counter ("sched.tasks", "sched.submits"); 0 when
// telemetry is compiled out.
inline int64_t sched_counter(const char* name) {
  const obs::Counter* c = obs::MetricsRegistry::instance().find_counter(name);
  return c ? c->total() : 0;
}

inline int64_t pool_tasks_run() { return sched_counter("sched.tasks"); }

// In telemetry builds at 4 or more workers, fails the current test unless
// a pool task ran since pool_tasks_run() returned `before`.
inline void expect_pool_tasks_since(int64_t before) {
#if defined(UFO_OBSERVABILITY) && UFO_OBSERVABILITY
  if (par::num_workers() >= 4) {
    EXPECT_GT(pool_tasks_run(), before)
        << "no pool task ran: every parallel_for of this case stayed inline";
  }
#else
  (void)before;
#endif
}

}  // namespace ufo::test
