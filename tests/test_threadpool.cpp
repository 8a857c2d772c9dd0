#include "util/threadpool.h"

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "realm_test.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "util/rng.h"

using realm::util::ThreadPool;

namespace {

/// Restores the global pool to 1 thread so later cases (and other test
/// binaries' assumptions) see the serial default.
struct SerialGuard {
  ~SerialGuard() { realm::util::set_global_threads(1); }
};

}  // namespace

REALM_TEST(parallel_for_covers_every_index_exactly_once) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    ThreadPool pool(threads);
    REALM_CHECK_EQ(pool.size(), threads);
    std::vector<std::atomic<int>> hits(1237);
    pool.parallel_for(hits.size(), 3, [&](std::size_t begin, std::size_t end) {
      REALM_CHECK(begin < end);
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) REALM_CHECK_EQ(h.load(), 1);
    // Empty and sub-grain totals degenerate gracefully.
    pool.parallel_for(0, 8, [&](std::size_t, std::size_t) { REALM_CHECK(false); });
    std::atomic<int> calls{0};
    pool.parallel_for(2, 100, [&](std::size_t begin, std::size_t end) {
      REALM_CHECK_EQ(begin, std::size_t{0});
      REALM_CHECK_EQ(end, std::size_t{2});
      calls.fetch_add(1);
    });
    REALM_CHECK_EQ(calls.load(), 1);
  }
}

REALM_TEST(gemm_identical_at_1_2_8_threads) {
  // The determinism contract: row shards are disjoint and each output element
  // is reduced by exactly one thread, so every thread count must produce the
  // same bits — a checksum mismatch can only ever mean a fault.
  realm::util::Rng rng(77);
  SerialGuard guard;
  realm::tensor::MatI8 a(67, 129), b(129, 55);
  for (auto& x : a.flat()) x = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  for (auto& x : b.flat()) x = static_cast<std::int8_t>(rng.uniform_int(-128, 127));

  realm::util::set_global_threads(1);
  const realm::tensor::MatI32 serial = realm::tensor::gemm_i8(a, b);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    realm::util::set_global_threads(threads);
    REALM_CHECK_EQ(realm::util::global_threads(), threads);
    REALM_CHECK(realm::tensor::gemm_i8(a, b) == serial);
  }
}

REALM_TEST(exceptions_propagate_to_the_caller) {
  ThreadPool pool(4);
  bool threw = false;
  try {
    pool.parallel_for(1000, 1, [&](std::size_t begin, std::size_t) {
      if (begin >= 500) throw std::runtime_error("chunk failed");
    });
  } catch (const std::runtime_error&) {
    threw = true;
  }
  REALM_CHECK(threw);
  // The pool survives an errored job and runs the next one normally.
  std::atomic<std::size_t> covered{0};
  pool.parallel_for(100, 1,
                    [&](std::size_t begin, std::size_t end) { covered.fetch_add(end - begin); });
  REALM_CHECK_EQ(covered.load(), std::size_t{100});
}

REALM_TEST(nested_parallel_for_runs_inline) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(8, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      // A nested call must run inline on the current thread instead of
      // deadlocking on the single job slot.
      pool.parallel_for(10, 1,
                        [&](std::size_t b2, std::size_t e2) { total.fetch_add(e2 - b2); });
    }
  });
  REALM_CHECK_EQ(total.load(), std::size_t{80});
}

REALM_TEST_MAIN()
