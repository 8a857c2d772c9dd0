#include "tensor/checksum.h"

#include <cstdint>
#include <vector>

#include "detect/detect.h"
#include "realm_test.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "util/bitmath.h"
#include "util/rng.h"

using namespace realm::tensor;
using realm::detect::Deviations;
using realm::detect::screen_deviations;
using realm::detect::ScreenStats;

namespace {

MatI8 random_i8(std::size_t rows, std::size_t cols, realm::util::Rng& rng) {
  MatI8 m(rows, cols);
  for (auto& x : m.flat()) x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  return m;
}

}  // namespace

REALM_TEST(column_checksum_linearity) {
  // eᵀ(A·B) == (eᵀA)·B on fault-free outputs, for several shapes: the one
  // screen reads zero deviation and zero MSD.
  realm::util::Rng rng(11);
  const std::size_t shapes[][3] = {{4, 9, 6}, {32, 64, 16}, {1, 128, 5}};
  for (const auto& s : shapes) {
    const MatI8 a = random_i8(s[0], s[1], rng);
    const MatI8 b = random_i8(s[1], s[2], rng);
    const MatI32 c = gemm_i8(a, b);
    const std::vector<std::int64_t> predicted = predict_col_checksum(a, b);
    REALM_CHECK(col_sums(c) == predicted);
    Deviations dev;
    const ScreenStats stats = screen_deviations(predicted, {}, c, 64, true, dev);
    REALM_CHECK_EQ(stats.nonzero_cols, std::size_t{0});
    REALM_CHECK_EQ(stats.msd, std::int64_t{0});
    REALM_CHECK(dev.dc == std::vector<std::int64_t>(s[2], 0));
    REALM_CHECK(dev.dr.empty());  // no predicted rows: column side only
  }
}

REALM_TEST(row_checksum_linearity) {
  realm::util::Rng rng(12);
  const MatI8 a = random_i8(13, 40, rng);
  const MatI8 b = random_i8(40, 21, rng);
  const MatI32 c = gemm_i8(a, b);
  REALM_CHECK(row_sums(c) == predict_row_checksum(a, b));
  // The basis-taking overload (weight-resident B·e) agrees with the direct one.
  REALM_CHECK(predict_row_checksum(a, row_sums(b)) == predict_row_checksum(a, b));
  REALM_CHECK_THROWS(predict_row_checksum(a, std::vector<std::int64_t>(3, 0)),
                     std::invalid_argument);
  Deviations dev;
  const ScreenStats stats =
      screen_deviations(predict_col_checksum(a, b), predict_row_checksum(a, b), c, 64, true, dev);
  REALM_CHECK_EQ(stats.nonzero_rows, std::size_t{0});
  REALM_CHECK(dev.dr == std::vector<std::int64_t>(13, 0));
}

REALM_TEST(deviation_reflects_injected_error) {
  // An additive error e at (r, j) must surface as dc[j] == e, dr[r] == e and
  // MSD == Σ e.
  realm::util::Rng rng(13);
  const MatI8 a = random_i8(8, 16, rng);
  const MatI8 b = random_i8(16, 8, rng);
  MatI32 c = gemm_i8(a, b);
  c(3, 5) += 1000;
  c(6, 2) -= 250;
  const std::vector<std::int64_t> pred_cols = predict_col_checksum(a, b);
  const std::vector<std::int64_t> pred_rows = predict_row_checksum(a, b);
  Deviations dev;
  const ScreenStats stats = screen_deviations(pred_cols, pred_rows, c, 64, true, dev);
  REALM_CHECK_EQ(dev.dc[5], std::int64_t{1000});
  REALM_CHECK_EQ(dev.dc[2], std::int64_t{-250});
  REALM_CHECK_EQ(dev.dr[3], std::int64_t{1000});
  REALM_CHECK_EQ(dev.dr[6], std::int64_t{-250});
  REALM_CHECK_EQ(stats.msd, std::int64_t{750});
  REALM_CHECK_EQ(stats.nonzero_cols, std::size_t{2});
  REALM_CHECK_EQ(stats.nonzero_rows, std::size_t{2});
  // The same screen through 8-bit wrapping registers (predicted side wrapped
  // like the hardware's): each deviation survives mod 2^8, so +1000 reads
  // as 1000 − 4·256 = −24 and the MSD register as 750 − 3·256 = −18.
  std::vector<std::int64_t> pred8_cols(8), pred8_rows(8);
  for (std::size_t j = 0; j < 8; ++j) pred8_cols[j] = realm::util::wrap_to_bits(pred_cols[j], 8);
  for (std::size_t i = 0; i < 8; ++i) pred8_rows[i] = realm::util::wrap_to_bits(pred_rows[i], 8);
  const ScreenStats narrow = screen_deviations(pred8_cols, pred8_rows, c, 8, false, dev);
  REALM_CHECK_EQ(dev.dc[5], std::int64_t{-24});
  REALM_CHECK_EQ(dev.dr[6], std::int64_t{6});  // −250 + 256
  REALM_CHECK_EQ(narrow.msd, std::int64_t{-18});
  REALM_CHECK_EQ(narrow.nonzero_cols, std::size_t{2});
}

REALM_TEST(deviation_saturates_instead_of_wrapping) {
  // Adversarial predicted checksums drive the signed accumulator past the
  // int64 range; raw += would wrap a huge deviation back to a small value.
  const MatI32 c(1, 2, 0);
  const std::vector<std::int64_t> predicted = {INT64_MIN, INT64_MIN};
  Deviations dev;
  const ScreenStats stats = screen_deviations(predicted, {}, c, 64, true, dev);
  REALM_CHECK_EQ(dev.dc[0], INT64_MAX);  // 0 - INT64_MIN saturates
  REALM_CHECK_EQ(stats.msd, INT64_MAX);
  REALM_CHECK_EQ(stats.nonzero_cols, std::size_t{2});
  // Shape and width misuse is rejected before any buffer is read.
  const std::vector<std::int64_t> zeros3(3, 0), zeros2(2, 0);
  REALM_CHECK_THROWS(screen_deviations(zeros3, {}, c, 64, true, dev), std::invalid_argument);
  REALM_CHECK_THROWS(screen_deviations(zeros2, zeros3, c, 64, true, dev), std::invalid_argument);
  REALM_CHECK_THROWS(screen_deviations(zeros2, {}, c, 0, true, dev), std::invalid_argument);
  REALM_CHECK_THROWS(screen_deviations(zeros2, {}, c, 65, false, dev), std::invalid_argument);
}

REALM_TEST_MAIN()
