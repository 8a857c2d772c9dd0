#include "tensor/checksum_kernels.h"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "detect/detect.h"
#include "realm_test.h"
#include "sa/datapath.h"
#include "tensor/checksum.h"
#include "tensor/gemm.h"
#include "tensor/gemm_kernels.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/threadpool.h"

using namespace realm::tensor;
using realm::tensor::kernels::Tier;

namespace {

/// Restores the pre-test tier even when a REALM_CHECK throws, so one failing
/// case can't leak a forced tier into the rest of the .all run.
struct TierGuard {
  Tier saved = kernels::active_tier();
  ~TierGuard() { kernels::set_active_tier(saved); }
};

/// Same for the global pool size (the determinism case resizes it).
struct ThreadGuard {
  std::size_t saved = realm::util::global_threads();
  ~ThreadGuard() { realm::util::set_global_threads(saved); }
};

std::vector<Tier> supported_tiers() {
  std::vector<Tier> tiers{Tier::kPortable};
  if (kernels::best_supported_tier() >= Tier::kAvx2) tiers.push_back(Tier::kAvx2);
  if (kernels::best_supported_tier() >= Tier::kAvx512) tiers.push_back(Tier::kAvx512);
  return tiers;
}

MatI8 random_i8_full_range(std::size_t rows, std::size_t cols, realm::util::Rng& rng) {
  MatI8 m(rows, cols);
  for (auto& x : m.flat()) x = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  return m;
}

MatI32 random_i32_full_range(std::size_t rows, std::size_t cols, realm::util::Rng& rng) {
  MatI32 m(rows, cols);
  for (auto& x : m.flat()) {
    x = static_cast<std::int32_t>(rng.uniform_int(INT32_MIN, INT32_MAX));
  }
  return m;
}

// Naive int64 references, independent of every kernel tier.

template <typename T>
std::vector<std::int64_t> ref_col_sums(const Mat<T>& m) {
  std::vector<std::int64_t> out(m.cols(), 0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t j = 0; j < m.cols(); ++j) out[j] += static_cast<std::int64_t>(m(r, j));
  }
  return out;
}

template <typename T>
std::vector<std::int64_t> ref_row_sums(const Mat<T>& m) {
  std::vector<std::int64_t> out(m.rows(), 0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t j = 0; j < m.cols(); ++j) out[r] += static_cast<std::int64_t>(m(r, j));
  }
  return out;
}

std::vector<std::int64_t> ref_predict_col(const std::vector<std::int64_t>& ea, const MatI8& b) {
  std::vector<std::int64_t> out(b.cols(), 0);
  for (std::size_t kk = 0; kk < b.rows(); ++kk) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      out[j] += ea[kk] * static_cast<std::int64_t>(b(kk, j));
    }
  }
  return out;
}

std::vector<std::int64_t> ref_predict_row(const MatI8& a, const std::vector<std::int64_t>& bv) {
  std::vector<std::int64_t> out(a.rows(), 0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t kk = 0; kk < a.cols(); ++kk) {
      out[r] += static_cast<std::int64_t>(a(r, kk)) * bv[kk];
    }
  }
  return out;
}

}  // namespace

REALM_TEST(col_and_row_sums_match_reference_across_tiers) {
  realm::util::Rng rng(201);
  TierGuard guard;
  // Shapes straddling every vector boundary: the 32/16-column i8 stripes, the
  // 16/8-column i32 stripes, the 256-row int16 flush block (255/256/257), the
  // 64/32-byte row_sums chunks, and single-row/column edges.
  const std::size_t shapes[][2] = {{1, 1},   {1, 33},   {257, 1},  {3, 5},    {255, 16},
                                   {256, 32}, {257, 31}, {64, 100}, {300, 129}, {2, 64},
                                   {31, 65},  {129, 8}};
  for (const auto& s : shapes) {
    const MatI8 m8 = random_i8_full_range(s[0], s[1], rng);
    const MatI32 m32 = random_i32_full_range(s[0], s[1], rng);
    for (const Tier t : supported_tiers()) {
      kernels::set_active_tier(t);
      REALM_CHECK(col_sums(m8) == ref_col_sums(m8));
      REALM_CHECK(col_sums(m32) == ref_col_sums(m32));
      REALM_CHECK(row_sums(m8) == ref_row_sums(m8));
      REALM_CHECK(row_sums(m32) == ref_row_sums(m32));
    }
  }
}

REALM_TEST(i16_block_boundary_and_k_bound_extremes) {
  // 2^16 rows of -128 drives every int16 block accumulator to exactly
  // INT16_MIN at its 256-row flush boundary (256 * -128 = -32768); +127 and
  // alternating extremes stress the other direction and cancellation. These
  // are the adversarial operands of the GEMM k-bound analysis, applied to the
  // checksum screen.
  TierGuard guard;
  const std::size_t kbound = std::size_t{1} << 16;
  const MatI8 lo(kbound, 3, std::int8_t{-128});
  const MatI8 hi(kbound, 3, std::int8_t{127});
  MatI8 alt(257, 33);
  for (std::size_t r = 0; r < alt.rows(); ++r) {
    for (std::size_t j = 0; j < alt.cols(); ++j) alt(r, j) = (r % 2 == 0) ? -128 : 127;
  }
  for (const Tier t : supported_tiers()) {
    kernels::set_active_tier(t);
    for (const auto v : col_sums(lo)) REALM_CHECK_EQ(v, std::int64_t{-128} << 16);
    for (const auto v : col_sums(hi)) REALM_CHECK_EQ(v, std::int64_t{127} << 16);
    REALM_CHECK(col_sums(alt) == ref_col_sums(alt));
    REALM_CHECK(row_sums(alt) == ref_row_sums(alt));
    for (const auto v : row_sums(lo)) REALM_CHECK_EQ(v, std::int64_t{-384});
  }
}

REALM_TEST(predict_checksums_match_reference_across_tiers) {
  realm::util::Rng rng(202);
  TierGuard guard;
  const std::size_t shapes[][3] = {{1, 1, 1},  {3, 5, 7},    {9, 65, 33},  {64, 128, 96},
                                   {17, 2, 50}, {33, 127, 1}, {5, 1, 100},  {300, 31, 17}};
  for (const auto& s : shapes) {
    MatI8 a = random_i8_full_range(s[0], s[1], rng);
    // Force a few zero entries in eᵀA so the av == 0 skip path runs.
    if (a.rows() >= 2) {
      for (std::size_t kk = 0; kk + 1 < a.cols(); kk += 3) {
        a(0, kk) = 17;
        a(1, kk) = -17;
        for (std::size_t r = 2; r < a.rows(); ++r) a(r, kk) = 0;
      }
    }
    const MatI8 b = random_i8_full_range(s[1], s[2], rng);
    const std::vector<std::int64_t> want_col = ref_predict_col(ref_col_sums(a), b);
    const std::vector<std::int64_t> want_row = ref_predict_row(a, ref_col_sums(transpose(b)));
    for (const Tier t : supported_tiers()) {
      kernels::set_active_tier(t);
      REALM_CHECK(predict_col_checksum(a, b) == want_col);
      REALM_CHECK(predict_row_checksum(a, b) == want_row);
      REALM_CHECK(predict_row_checksum(a, row_sums(b)) == want_row);
    }
  }
}

REALM_TEST(predict_kernels_fall_back_on_out_of_range_multipliers) {
  // The SIMD predict paths do 32x32->64 multiplies, so a basis entry outside
  // int32 (unreachable from real matrices below 2^24 rows, but expressible
  // through the raw kernel API) must take the exact scalar path on every tier.
  realm::util::Rng rng(203);
  TierGuard guard;
  const MatI8 b = random_i8_full_range(5, 37, rng);
  const MatI8 a = random_i8_full_range(11, 5, rng);
  const std::vector<std::int64_t> huge = {(std::int64_t{1} << 31) + 7, -1,
                                          -(std::int64_t{1} << 40), INT32_MAX, INT32_MIN};
  const std::vector<std::int64_t> want_col = ref_predict_col(huge, b);
  const std::vector<std::int64_t> want_row = ref_predict_row(a, huge);
  for (const Tier t : supported_tiers()) {
    kernels::set_active_tier(t);
    std::vector<std::int64_t> got_col(b.cols(), -1);
    kernels::predict_col_checksum(huge.data(), b.data(), b.rows(), b.cols(), got_col.data());
    REALM_CHECK(got_col == want_col);
    std::vector<std::int64_t> got_row(a.rows(), -1);
    kernels::predict_row_checksum(a.data(), a.rows(), a.cols(), huge.data(), got_row.data());
    REALM_CHECK(got_row == want_row);
  }
}

REALM_TEST(fused_gemm_colsums_equal_identity_on_all_tiers) {
  // The store-phase fused reduction must equal both eᵀC read back from the
  // output AND the predicted (eᵀA)·B — the checksum identity ProtectedGemm
  // banks on — for every tier, prepacked or not, and tile-edge shape.
  realm::util::Rng rng(204);
  TierGuard guard;
  const std::size_t shapes[][3] = {{1, 1, 1},  {8, 64, 32},  {9, 65, 33},   {4, 16, 16},
                                   {5, 2, 100}, {64, 128, 96}, {17, 129, 65}, {33, 127, 1}};
  for (const auto& s : shapes) {
    const MatI8 a = random_i8_full_range(s[0], s[1], rng);
    const MatI8 b = random_i8_full_range(s[1], s[2], rng);
    for (const Tier t : supported_tiers()) {
      kernels::set_active_tier(t);
      MatI32 c;
      std::vector<std::int64_t> fused(3, 0x7ead);  // wrong size and poisoned
      gemm_i8(a, b, c, &fused);
      REALM_CHECK(fused == col_sums(c));
      REALM_CHECK(fused == predict_col_checksum(a, b));
      const kernels::PackedB pb = kernels::pack_b(b.data(), b.rows(), b.cols());
      MatI32 c2;
      std::vector<std::int64_t> fused2;
      gemm_i8_prepacked(a, b, pb, c2, &fused2);
      REALM_CHECK(c2 == c);
      REALM_CHECK(fused2 == fused);
    }
  }
  // k = 0: C and the fused sums are all zero.
  for (const Tier t : supported_tiers()) {
    kernels::set_active_tier(t);
    MatI32 c;
    std::vector<std::int64_t> fused(1, 42);
    gemm_i8(MatI8(4, 0), MatI8(0, 6), c, &fused);
    REALM_CHECK(c == MatI32(4, 6, 0));
    REALM_CHECK(fused == std::vector<std::int64_t>(6, 0));
  }
}

REALM_TEST(sharded_screen_deterministic_across_thread_counts) {
  // Every reduction (and the fused GEMM sums) must be bit-identical at 1, 2,
  // and 8 threads — column bands and row shards write disjoint outputs, and
  // the fused merge is exact integer addition in any order.
  realm::util::Rng rng(205);
  TierGuard tier_guard;
  ThreadGuard thread_guard;
  const MatI8 a = random_i8_full_range(301, 257, rng);
  const MatI8 b = random_i8_full_range(257, 131, rng);
  const MatI32 m32 = random_i32_full_range(301, 131, rng);
  for (const Tier t : supported_tiers()) {
    kernels::set_active_tier(t);
    realm::util::set_global_threads(1);
    const auto want_cols8 = col_sums(a);
    const auto want_cols32 = col_sums(m32);
    const auto want_rows32 = row_sums(m32);
    const auto want_pred_col = predict_col_checksum(a, b);
    const auto want_pred_row = predict_row_checksum(a, row_sums(b));
    MatI32 want_c;
    std::vector<std::int64_t> want_fused;
    gemm_i8(a, b, want_c, &want_fused);
    for (const std::size_t threads : {2, 8}) {
      realm::util::set_global_threads(threads);
      REALM_CHECK(col_sums(a) == want_cols8);
      REALM_CHECK(col_sums(m32) == want_cols32);
      REALM_CHECK(row_sums(m32) == want_rows32);
      REALM_CHECK(predict_col_checksum(a, b) == want_pred_col);
      REALM_CHECK(predict_row_checksum(a, row_sums(b)) == want_pred_row);
      MatI32 c;
      std::vector<std::int64_t> fused;
      gemm_i8(a, b, c, &fused);
      REALM_CHECK(c == want_c);
      REALM_CHECK(fused == want_fused);
    }
    realm::util::set_global_threads(1);
  }
}

REALM_TEST(width_truncated_sums_match_register_model) {
  // The width kernels must equal a literal simulation of `bits`-wide
  // registers fed one element at a time in the pinned accumulation order —
  // at every tier (wrap rides the SIMD reductions) and for both semantics.
  realm::util::Rng rng(0x3d1);
  TierGuard guard;
  for (const Tier tier : supported_tiers()) {
    kernels::set_active_tier(tier);
    for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{7, 13},
                                     {64, 33},
                                     {257, 17}}) {
      const MatI32 m = random_i32_full_range(rows, cols, rng);
      for (const int bits : {8, 16, 31, 64}) {
        for (const bool saturate : {false, true}) {
          std::vector<std::int64_t> cols_out(cols), rows_out(rows);
          kernels::col_sums_i32_width(m.data(), rows, cols, bits, saturate, cols_out.data());
          kernels::row_sums_i32_width(m.data(), rows, cols, bits, saturate, rows_out.data());
          const auto overflow =
              saturate ? realm::sa::Overflow::kSaturate : realm::sa::Overflow::kWrap;
          for (std::size_t j = 0; j < cols; ++j) {
            realm::sa::Reg reg(bits, overflow);
            for (std::size_t r = 0; r < rows; ++r) reg.add(m(r, j));
            REALM_CHECK_EQ(cols_out[j], reg.value());
          }
          for (std::size_t r = 0; r < rows; ++r) {
            realm::sa::Reg reg(bits, overflow);
            for (std::size_t j = 0; j < cols; ++j) reg.add(m(r, j));
            REALM_CHECK_EQ(rows_out[r], reg.value());
          }
        }
      }
      // At 64 bits both semantics reduce to the exact kernels — including
      // the rows·INT32_MAX and rows·INT32_MIN extremes, which no 64-bit
      // register can saturate on.
      for (const MatI32& wide_in :
           {m, MatI32(rows, cols, INT32_MAX), MatI32(rows, cols, INT32_MIN)}) {
        const std::vector<std::int64_t> want_cols = ref_col_sums(wide_in);
        const std::vector<std::int64_t> want_rows = ref_row_sums(wide_in);
        REALM_CHECK(col_sums(wide_in) == want_cols);
        REALM_CHECK(row_sums(wide_in) == want_rows);
        for (const bool saturate : {false, true}) {
          std::vector<std::int64_t> wide_cols(cols), wide_rows(rows);
          kernels::col_sums_i32_width(wide_in.data(), rows, cols, 64, saturate,
                                      wide_cols.data());
          kernels::row_sums_i32_width(wide_in.data(), rows, cols, 64, saturate,
                                      wide_rows.data());
          REALM_CHECK(wide_cols == want_cols);
          REALM_CHECK(wide_rows == want_rows);
        }
      }
    }
  }
}

REALM_TEST(weight_integrity_scrub_detects_corruption) {
  realm::util::Rng rng(206);
  realm::detect::ProtectedGemm pg;
  REALM_CHECK_THROWS(pg.verify_weight_integrity(), std::logic_error);
  pg.set_weights_quantized(random_i8_full_range(33, 29, rng), QuantParams{0.02f});
  REALM_CHECK(pg.weight_col_basis() == col_sums(pg.weights()));
  REALM_CHECK(pg.weight_row_basis() == row_sums(pg.weights()));
  REALM_CHECK(pg.verify_weight_integrity());
  // Corrupt the stationary tile in place (simulating weight-SRAM upset; the
  // public API has no mutator, which is the point of the scrub).
  auto& w = const_cast<MatI8&>(pg.weights());
  const std::int8_t orig = w(7, 11);
  w(7, 11) = static_cast<std::int8_t>(orig ^ 0x40);
  REALM_CHECK(!pg.verify_weight_integrity());
  w(7, 11) = orig;
  REALM_CHECK(pg.verify_weight_integrity());
}

REALM_TEST_MAIN()
