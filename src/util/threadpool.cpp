#include "util/threadpool.h"

#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace realm::util {

namespace {

/// Set while a thread is executing chunk bodies; nested parallel_for calls
/// detect it and run inline instead of deadlocking on the single job slot.
thread_local bool t_inside_pool = false;

}  // namespace

// All job state is read and written under `mu`, and every chunk claim checks
// the job generation under that same lock — a straggler from a finished job
// can never claim into (or observe half-initialized fields of) the next one.
// The lock is taken once per chunk; chunks are sized in whole GEMM row blocks
// (milliseconds of work), so contention is negligible.
struct ThreadPool::Impl {
  explicit Impl(std::size_t threads) : concurrency(threads < 1 ? 1 : threads) {
    workers.reserve(concurrency - 1);
    try {
      for (std::size_t w = 0; w + 1 < concurrency; ++w) {
        workers.emplace_back([this] { worker_loop(); });
      }
    } catch (...) {
      // A failed spawn (thread/VM exhaustion) must not unwind past joinable
      // threads — that would std::terminate. Shut down what started and let
      // the caller see the original std::system_error.
      shutdown();
      throw;
    }
  }

  ~Impl() { shutdown(); }

  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu);
      shutting_down = true;
    }
    wake.notify_all();
    for (auto& t : workers) t.join();
    workers.clear();
  }

  void worker_loop() {
    t_inside_pool = true;
    std::uint64_t seen_generation = 0;
    for (;;) {
      std::uint64_t my_generation;
      {
        std::unique_lock<std::mutex> lock(mu);
        wake.wait(lock, [&] { return shutting_down || generation != seen_generation; });
        if (shutting_down) return;
        seen_generation = my_generation = generation;
      }
      run_chunks(my_generation);
    }
  }

  /// Claim and execute chunks of job `my_generation` until the job is done,
  /// closed (a newer job replaced it), or errored. Whoever retires the last
  /// chunk — including an erroring thread discarding the unclaimed tail —
  /// wakes the submitter.
  void run_chunks(std::uint64_t my_generation) {
    for (;;) {
      std::size_t begin, end;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (generation != my_generation || next_chunk >= nchunks) return;
        begin = next_chunk * chunk_size;
        end = begin + chunk_size < total ? begin + chunk_size : total;
        ++next_chunk;
      }
      bool errored = false;
      try {
        (*body)(begin, end);
      } catch (...) {
        errored = true;
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        std::size_t finished = 1;
        if (errored && generation == my_generation) {
          // Abandon the unclaimed tail; chunks other threads already claimed
          // retire themselves on completion.
          finished += nchunks - next_chunk;
          next_chunk = nchunks;
        }
        pending -= finished;
        if (pending == 0) job_done.notify_all();
      }
      if (errored) return;
    }
  }

  std::size_t concurrency;
  std::vector<std::thread> workers;

  std::mutex mu;
  std::condition_variable wake;      ///< workers: new job or shutdown
  std::condition_variable job_done;  ///< submitter: all chunks retired
  bool shutting_down = false;
  std::uint64_t generation = 0;

  // Current job; guarded by mu (the body itself runs unlocked, but its
  // pointer is only read under mu and only swapped while pending == 0).
  const ChunkFn* body = nullptr;
  std::size_t total = 0;
  std::size_t chunk_size = 1;
  std::size_t nchunks = 0;
  std::size_t next_chunk = 0;
  std::size_t pending = 0;
  std::exception_ptr error;

  std::mutex submit_mu;  ///< serializes concurrent parallel_for callers
};

void mark_thread_as_pool_worker() noexcept { t_inside_pool = true; }

ThreadPool::ThreadPool(std::size_t threads) : impl_(new Impl(threads)) {}

ThreadPool::~ThreadPool() { delete impl_; }

std::size_t ThreadPool::size() const noexcept { return impl_->concurrency; }

void ThreadPool::parallel_for(std::size_t total, std::size_t grain, ChunkFn body) {
  if (total == 0) return;
  if (grain < 1) grain = 1;

  // Serial pool, a job too small to split, or a nested call: run inline.
  if (impl_->concurrency == 1 || total <= grain || t_inside_pool) {
    body(0, total);
    return;
  }

  std::lock_guard<std::mutex> submit_lock(impl_->submit_mu);

  // A few chunks per thread so uneven chunk costs still balance, but never
  // smaller than the caller's grain.
  std::size_t chunk = (total + impl_->concurrency * 4 - 1) / (impl_->concurrency * 4);
  if (chunk < grain) chunk = grain;
  const std::size_t nchunks = (total + chunk - 1) / chunk;

  std::uint64_t my_generation;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->body = &body;
    impl_->total = total;
    impl_->chunk_size = chunk;
    impl_->nchunks = nchunks;
    impl_->next_chunk = 0;
    impl_->pending = nchunks;
    impl_->error = nullptr;
    my_generation = ++impl_->generation;
  }
  impl_->wake.notify_all();

  // The submitting thread works too.
  t_inside_pool = true;
  impl_->run_chunks(my_generation);
  t_inside_pool = false;

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->job_done.wait(lock, [&] { return impl_->pending == 0; });
    impl_->body = nullptr;
    error = impl_->error;
  }
  if (error) std::rethrow_exception(error);
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;

std::size_t default_threads() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — read once under g_pool_mu before workers exist
  if (const char* env = std::getenv("REALM_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 1) return static_cast<std::size_t>(v);
  }
  return 1;
}

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(default_threads());
  return *g_pool;
}

void set_global_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_pool = std::make_unique<ThreadPool>(threads < 1 ? 1 : threads);
}

std::size_t global_threads() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(default_threads());
  return g_pool->size();
}

}  // namespace realm::util
