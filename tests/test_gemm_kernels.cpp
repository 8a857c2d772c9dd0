#include "tensor/gemm_kernels.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <vector>

#include "realm_test.h"
#include "tensor/checksum.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "util/rng.h"

using namespace realm::tensor;
using realm::tensor::kernels::Tier;

namespace {

/// Restores the pre-test tier even when a REALM_CHECK throws, so one failing
/// case can't leak a forced tier into the rest of the .all run.
struct TierGuard {
  Tier saved = kernels::active_tier();
  ~TierGuard() { kernels::set_active_tier(saved); }
};

std::vector<Tier> supported_tiers() {
  std::vector<Tier> tiers{Tier::kPortable};
  if (kernels::best_supported_tier() >= Tier::kAvx2) tiers.push_back(Tier::kAvx2);
  if (kernels::best_supported_tier() >= Tier::kAvx512) tiers.push_back(Tier::kAvx512);
  return tiers;
}

MatI8 random_i8_full_range(std::size_t rows, std::size_t cols, realm::util::Rng& rng) {
  MatI8 m(rows, cols);
  // Full raw int8 range including -128: the overflow analysis and the
  // sign-extension paths must hold beyond the quantizer's ±127.
  for (auto& x : m.flat()) x = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  return m;
}

/// Naive int64-accumulating reference, independent of every kernel tier.
MatI32 reference_gemm(const MatI8& a, const MatI8& b) {
  MatI32 c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      std::int64_t acc = 0;
      for (std::size_t kk = 0; kk < a.cols(); ++kk) {
        acc += static_cast<std::int64_t>(a(i, kk)) * static_cast<std::int64_t>(b(kk, j));
      }
      c(i, j) = static_cast<std::int32_t>(acc);
    }
  }
  return c;
}

}  // namespace

REALM_TEST(all_tiers_match_reference_on_randomized_shapes) {
  realm::util::Rng rng(101);
  TierGuard guard;
  // Shapes straddling every blocking boundary: microkernel tiles (4/8 rows,
  // 16/32 cols), the 64-row A block, k not a multiple of 2 or 4 (the padded
  // tail of an avx2 int16 pair or an avx512 int8 quad), k = 1, and
  // single-row/column edges.
  const std::size_t shapes[][3] = {{1, 1, 1},   {3, 5, 7},    {8, 64, 32},  {9, 65, 33},
                                   {17, 2, 50}, {33, 127, 1}, {5, 1, 100},  {64, 128, 96},
                                   {66, 130, 97}, {12, 31, 48}, {100, 7, 19}};
  // Decode-sized: panels a thousand k-quads long, a k % 4 tail after them, a
  // ragged last panel, and a panel prefetch that runs past the buffer's end.
  const std::size_t decode_shapes[][3] = {{1, 4096, 64}, {8, 4096, 96}, {16, 4099, 33}};
  const auto check = [&](const auto& s) {
    const MatI8 a = random_i8_full_range(s[0], s[1], rng);
    const MatI8 b = random_i8_full_range(s[1], s[2], rng);
    const MatI32 want = reference_gemm(a, b);
    const std::vector<std::int64_t> want_sums = col_sums(want);
    for (const Tier t : supported_tiers()) {
      kernels::set_active_tier(t);
      MatI32 c;
      std::vector<std::int64_t> fused;
      gemm_i8(a, b, c, &fused);
      REALM_CHECK(c == want);
      REALM_CHECK(fused == want_sums);
    }
  };
  for (const auto& s : shapes) check(s);
  for (const auto& s : decode_shapes) check(s);
}

REALM_TEST(tiers_agree_at_k_bound_with_minus128) {
  // Worst-case accumulation at k = kMaxK, and one below it (a k that is
  // neither a whole int16 pair nor a whole int8 quad, so the padded tail runs
  // at full magnitude). All operands -128 give 2^14 * 2^16 = 2^30 — the
  // documented int32 ceiling — on every tier. A = +127 against B = -128 is
  // the avx512 tier's largest biased sum: it feeds vpdpbusd u8 255 x s8 -128
  // per k-step, -2 139 095 040 at k = 2^16, before the 128 * sum(B) bias
  // brings it back to -16256 * k. Nothing may saturate or wrap on the way.
  TierGuard guard;
  const std::int8_t operands[][2] = {{-128, -128}, {127, -128}};
  for (const std::size_t k : {kMaxK, kMaxK - 1}) {
    for (const auto& ab : operands) {
      const MatI8 a(2, k, ab[0]);
      const MatI8 b(k, 3, ab[1]);
      const std::int32_t want = ab[0] * ab[1] * static_cast<std::int32_t>(k);
      for (const Tier t : supported_tiers()) {
        kernels::set_active_tier(t);
        const MatI32 c = gemm_i8(a, b);
        for (std::size_t i = 0; i < c.rows(); ++i) {
          for (std::size_t j = 0; j < c.cols(); ++j) REALM_CHECK_EQ(c(i, j), want);
        }
      }
    }
  }
}

REALM_TEST(mixed_sign_columns_cancel_exactly) {
  // Alternating ±127 against ±128 stresses cancellation: intermediate sums
  // swing to both extremes while the final value stays small. Any tier that
  // saturated an intermediate (the maddubs trap) would diverge.
  TierGuard guard;
  const std::size_t k = 4096;
  MatI8 a(1, k);
  for (std::size_t kk = 0; kk < k; ++kk) a(0, kk) = (kk % 2 == 0) ? 127 : -127;
  MatI8 b(k, 2);
  for (std::size_t kk = 0; kk < k; ++kk) {
    b(kk, 0) = -128;
    b(kk, 1) = (kk % 2 == 0) ? -128 : 127;
  }
  const MatI32 want = reference_gemm(a, b);
  for (const Tier t : supported_tiers()) {
    kernels::set_active_tier(t);
    REALM_CHECK(gemm_i8(a, b) == want);
  }
}

REALM_TEST(output_is_fully_overwritten_not_accumulated) {
  // The kernel contract: a correctly-sized c is overwritten without being
  // read. Pre-poisoning c must not leak into the result on any tier,
  // including the k = 0 edge (which must zero c).
  realm::util::Rng rng(102);
  TierGuard guard;
  const MatI8 a = random_i8_full_range(7, 33, rng);
  const MatI8 b = random_i8_full_range(33, 19, rng);
  const MatI32 want = reference_gemm(a, b);
  for (const Tier t : supported_tiers()) {
    kernels::set_active_tier(t);
    MatI32 c(7, 19);
    c.fill(0x7eadbeef);
    gemm_i8(a, b, c);
    REALM_CHECK(c == want);
    MatI32 zero(4, 6);
    zero.fill(123);
    gemm_i8(MatI8(4, 0), MatI8(0, 6), zero);
    REALM_CHECK(zero == MatI32(4, 6, 0));
  }
}

REALM_TEST(prepacked_weights_match_fresh_pack_and_survive_tier_switch) {
  // The weight-stationary path: panels packed once via kernels::pack_b must
  // produce the same bits as packing fresh, and a cache packed under one tier
  // must fall back (not mis-decode) when the active tier changes.
  realm::util::Rng rng(103);
  TierGuard guard;
  const MatI8 a = random_i8_full_range(13, 70, rng);
  const MatI8 b = random_i8_full_range(70, 37, rng);
  const MatI32 want = reference_gemm(a, b);
  for (const Tier t : supported_tiers()) {
    kernels::set_active_tier(t);
    const kernels::PackedB pb = kernels::pack_b(b.data(), b.rows(), b.cols());
    MatI32 c;
    gemm_i8_prepacked(a, b, pb, c);
    REALM_CHECK(c == want);
    // Stale caches are ignored: wrong shape...
    const kernels::PackedB wrong = kernels::pack_b(b.data(), b.rows(), b.cols() - 1);
    REALM_CHECK(!wrong.valid_for(t, b.rows(), b.cols()));
    // ...and wrong tier (switch away from where the panels were packed).
    for (const Tier other : supported_tiers()) {
      kernels::set_active_tier(other);
      MatI32 c2;
      gemm_i8_prepacked(a, b, pb, c2);
      REALM_CHECK(c2 == want);
    }
    kernels::set_active_tier(t);
  }
}

REALM_TEST(packed_tail_word_corruption_hits_one_column) {
  // The last word of a packed image: on avx512 the high half of the last
  // column's int32 bias (128 * sum_k b), on avx2 b(k-1, n-1) of the last
  // int16 pair (k even, n a whole panel). One flipped bit there must fail
  // the repack-compare scrub and move exactly one output column, in every
  // row — which is why the row-side identity A·(W·e) catches it. Runs on
  // every SIMD tier the CPU supports, the best one included.
  realm::util::Rng rng(104);
  TierGuard guard;
  if (kernels::best_supported_tier() == Tier::kPortable) {
    std::fprintf(stderr, "skipped: the portable tier packs no panels\n");
    return;
  }
  const std::size_t m = 9, k = 72, n = 64;
  MatI8 a = random_i8_full_range(m, k, rng);
  for (std::size_t i = 0; i < m; ++i) {
    if (a(i, k - 1) == 0) a(i, k - 1) = 1;  // every row must see b(k-1, n-1) on avx2
  }
  const MatI8 b = random_i8_full_range(k, n, rng);
  const MatI32 want = reference_gemm(a, b);
  for (const Tier t : supported_tiers()) {
    if (t == Tier::kPortable) continue;
    kernels::set_active_tier(t);
    kernels::PackedB pb = kernels::pack_b(b.data(), k, n);
    const std::span<std::int16_t> words = pb.mutable_panels();
    REALM_CHECK(!words.empty());
    words.back() = static_cast<std::int16_t>(words.back() ^ 1);
    const kernels::PackedB fresh = kernels::pack_b(b.data(), k, n);
    REALM_CHECK(!std::equal(fresh.raw_panels().begin(), fresh.raw_panels().end(),
                            pb.raw_panels().begin(), pb.raw_panels().end()));

    MatI32 c;
    gemm_i8_prepacked(a, b, pb, c);
    std::size_t bad_cols = 0;
    for (std::size_t j = 0; j < n; ++j) {
      std::size_t bad_rows = 0;
      for (std::size_t i = 0; i < m; ++i) bad_rows += c(i, j) != want(i, j) ? 1 : 0;
      if (bad_rows == 0) continue;
      ++bad_cols;
      REALM_CHECK_EQ(bad_rows, m);
    }
    REALM_CHECK_EQ(bad_cols, std::size_t{1});
  }
}

REALM_TEST(tier_dispatch_and_override) {
  TierGuard guard;
  const Tier best = kernels::best_supported_tier();
  REALM_CHECK(kernels::active_tier() <= best);
  // Portable is always selectable...
  kernels::set_active_tier(Tier::kPortable);
  REALM_CHECK(kernels::active_tier() == Tier::kPortable);
  kernels::set_active_tier(best);
  REALM_CHECK(kernels::active_tier() == best);
  // ...and a tier above the CPU's capability is rejected.
  if (best < Tier::kAvx512) {
    REALM_CHECK_THROWS(kernels::set_active_tier(Tier::kAvx512), std::invalid_argument);
  }
  REALM_CHECK(std::string(kernels::to_string(Tier::kPortable)) == "portable");
  REALM_CHECK(std::string(kernels::to_string(Tier::kAvx2)) == "avx2");
  REALM_CHECK(std::string(kernels::to_string(Tier::kAvx512)) == "avx512");
}

REALM_TEST_MAIN()
