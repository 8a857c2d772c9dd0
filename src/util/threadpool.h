// Persistent worker pool for row-sharding the GEMM macro-loop.
//
// Determinism contract: parallel_for splits [0, total) into contiguous
// half-open chunks and every index is visited exactly once, so any body that
// writes disjoint state per index produces bit-identical results at every
// thread count — the property the fault-detection tests rely on (a checksum
// mismatch must mean a fault, never a scheduling artifact).
//
// The calling thread participates as a worker, so a pool of size 1 runs the
// body inline with no synchronization.
//
// Nesting rules (load-bearing for realm::serve): the "inside a pool worker"
// marker is thread-local and PROCESS-WIDE — a parallel_for issued from inside
// any pool's worker runs inline on that worker, even on a *different* pool.
// This is what lets the serving engine run request-level parallel_for on its
// own pool while each request's GEMM routes through global_pool(): the GEMM
// sees the nesting flag and runs inline on the engine worker instead of
// deadlocking or oversubscribing. Corollaries:
//  * kernel-level threading (REALM_THREADS / set_global_threads) applies only
//    to top-level callers, never inside another pool's workers;
//  * distinct top-level threads may call parallel_for on the same pool
//    concurrently — they serialize on the single job slot, they don't race.
#pragma once

#include <cstddef>

namespace realm::util {

/// Non-owning reference to a `void(begin, end)` callable: parallel_for blocks
/// until the body has run, so unlike std::function it never copies (or
/// allocates for) the caller's lambda.
class ChunkFn {
 public:
  template <class F>
  ChunkFn(const F& f) noexcept  // NOLINT(google-explicit-constructor): lambdas convert
      : obj_(&f), call_([](const void* obj, std::size_t begin, std::size_t end) {
          (*static_cast<const F*>(obj))(begin, end);
        }) {}

  void operator()(std::size_t begin, std::size_t end) const { call_(obj_, begin, end); }

 private:
  const void* obj_;
  void (*call_)(const void*, std::size_t, std::size_t);
};

class ThreadPool {
 public:
  /// @param threads total concurrency including the calling thread; clamped
  ///                to >= 1. A pool of size N spawns N-1 workers.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept;

  /// Run body(begin, end) over contiguous chunks covering [0, total); blocks
  /// until every chunk completes. Chunks are at least `grain` indices (except
  /// possibly the last). The first exception thrown by any chunk is rethrown
  /// on the calling thread after all workers quiesce; remaining chunks are
  /// abandoned. One job runs at a time; concurrent callers serialize.
  void parallel_for(std::size_t total, std::size_t grain, ChunkFn body);

 private:
  struct Impl;
  Impl* impl_;
};

/// Mark the CALLING thread as a pool worker for the nesting rule above: every
/// parallel_for issued from this thread (on any pool) runs inline from now
/// on. For long-lived worker threads that live outside ThreadPool — the async
/// serve engine's persistent workers — which need each request's GEMM pinned
/// to the worker instead of fanning out onto (and deadlocking against) the
/// global pool. Sticky for the thread's lifetime; ThreadPool's own workers
/// set it implicitly.
void mark_thread_as_pool_worker() noexcept;

/// Process-wide pool used by the GEMM kernels. Defaults to 1 thread (serial)
/// unless the REALM_THREADS environment variable names a larger count at
/// first use; resizable at runtime via set_global_threads().
[[nodiscard]] ThreadPool& global_pool();

/// Replace the global pool with one of `threads` total threads (clamped to
/// >= 1). Must not be called while a parallel_for on the global pool is in
/// flight on another thread.
void set_global_threads(std::size_t threads);

[[nodiscard]] std::size_t global_threads();

}  // namespace realm::util
