// A small structured fork-join runtime, standing in for ParlayLib.
//
// The model is nested fork-join (binary forking): `par_do` forks two subtasks,
// `parallel_for` dynamically splits an index range across workers. Blocked
// waiters *help*: while waiting for a forked task they execute other pending
// tasks, so nested parallelism cannot deadlock on the shared pool.
//
// Worker count defaults to std::thread::hardware_concurrency() and can be
// pinned with the UFOTREE_NUM_THREADS environment variable (1 disables all
// threading and runs inline, which is also the fallback on 1-core machines).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>

namespace ufo::par {

// Number of worker threads (including the caller). Cached after the pool's
// first use, so hot call sites (parallel_for's grain heuristic runs on
// every invocation) pay one static-guard check instead of re-deriving the
// pool width through the singleton.
int num_workers();

// Id of the calling thread within the pool, in [0, num_workers()): pool
// workers get 1..num_workers()-1, and the main thread (or any other
// external submitter) is 0. Fixed for a thread's lifetime — benches and
// the telemetry layer use it to label per-worker output and to index
// sharded counters.
int worker_id();

namespace internal {

// Type-erased task submission; prefer the templated wrappers below.
void submit(std::function<void()> task);

// Run pending tasks while waiting for a condition.
void help_while(const std::atomic<bool>& done);
void help_while_counter(const std::atomic<size_t>& remaining);

// How long one inline chunk of an adaptive parallel_for must run before the
// rest of the range is worth forking. An empty fork-join across a width-3
// pool measures ~2.4 us on a 4-vCPU x86 VM (perfbench's
// parallel.fork_join_us), so a chunk of ~1 us means the remaining work is
// large against the fork's cost.
inline constexpr std::chrono::nanoseconds kInlineThreshold{1000};

}  // namespace internal

// Run `left` and `right`, potentially in parallel. Returns when both are done.
template <class L, class R>
void par_do(L&& left, R&& right) {
  if (num_workers() <= 1) {
    left();
    right();
    return;
  }
  // Shared state keeps the queued closure valid even if it is popped after
  // this call frame has moved on (it then sees `claimed` and does nothing).
  struct State {
    std::atomic<bool> done{false};
    std::atomic<bool> claimed{false};
  };
  auto st = std::make_shared<State>();
  R* right_ptr = &right;
  internal::submit([st, right_ptr] {
    if (!st->claimed.exchange(true, std::memory_order_acq_rel)) {
      (*right_ptr)();
      st->done.store(true, std::memory_order_release);
    }
  });
  left();
  if (!st->claimed.exchange(true, std::memory_order_acq_rel)) {
    right();  // nobody picked it up; run inline
    return;
  }
  internal::help_while(st->done);
}

// parallel_for over [lo, hi).
//
// With the default `grain == 0` the fork decision is adaptive (ParlayLib's
// granularity control): a doubling prefix of the range (1, 2, 4, ...
// indices) runs inline on the caller, each chunk timed, until one chunk has
// taken about as long as a fork-join. If the prefix finishes the range, the
// loop never forks, so the many short loops of a small batch cost about
// what plain loops cost. Otherwise the remainder is split into blocks of
// ~1/8 of a worker's share and handed to the pool. An explicit `grain > 0`
// skips the prefix and forks blocks of that size whenever there are at
// least two, forcing concurrency regardless of the body's cost.
template <class F>
void parallel_for(size_t lo, size_t hi, F&& f, size_t grain = 0) {
  if (hi <= lo) return;
  int workers = num_workers();
  if (workers <= 1 || hi - lo == 1) {
    for (size_t i = lo; i < hi; ++i) f(i);
    return;
  }
  if (grain == 0) {
    using Clock = std::chrono::steady_clock;
    auto start = Clock::now();
    for (size_t chunk = 1;; chunk *= 2) {
      size_t end = lo + std::min(chunk, hi - lo);
      for (; lo < end; ++lo) f(lo);
      if (lo == hi) return;
      auto now = Clock::now();
      if (now - start >= internal::kInlineThreshold) break;
      start = now;
    }
    size_t n = hi - lo;
    grain = (n + 8 * static_cast<size_t>(workers) - 1) /
            (8 * static_cast<size_t>(workers));
  }
  size_t nblocks = (hi - lo + grain - 1) / grain;
  if (nblocks <= 1) {
    for (size_t i = lo; i < hi; ++i) f(i);
    return;
  }

  struct State {
    std::atomic<size_t> next{0};
    std::atomic<size_t> remaining{0};
    size_t lo, hi, grain, nblocks;
  };
  auto st = std::make_shared<State>();
  st->lo = lo;
  st->hi = hi;
  st->grain = grain;
  st->nblocks = nblocks;
  st->remaining.store(nblocks, std::memory_order_relaxed);

  auto* fp = &f;
  auto run_blocks = [st, fp] {
    for (;;) {
      size_t b = st->next.fetch_add(1, std::memory_order_relaxed);
      if (b >= st->nblocks) return;  // safe even after caller returned
      size_t start = st->lo + b * st->grain;
      size_t end = start + st->grain < st->hi ? start + st->grain : st->hi;
      for (size_t i = start; i < end; ++i) (*fp)(i);
      st->remaining.fetch_sub(1, std::memory_order_acq_rel);
    }
  };

  size_t helpers = static_cast<size_t>(workers - 1);
  if (helpers > nblocks - 1) helpers = nblocks - 1;
  for (size_t t = 0; t < helpers; ++t) internal::submit(run_blocks);
  run_blocks();
  internal::help_while_counter(st->remaining);
}

}  // namespace ufo::par
