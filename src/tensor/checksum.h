// ABFT checksum primitives (Fig. 3 of the paper).
//
// For Y = A·B, the column-checksum identity is eᵀY = (eᵀA)·B and the
// row-checksum identity is Y·e = A·(B·e). Classical ABFT checks both sides;
// one-sided / MSD schemes check only columns; ReaLM's statistical unit
// consumes the per-column deviation vector d and its sum (the matrix-sum
// deviation, MSD = eᵀY·e − eᵀA·B·e).
//
// All checksum arithmetic is int64 here. The deviations (observed −
// predicted) and the MSD are computed in one place, detect::screen_deviations,
// which runs at any register width: 64 bits for the int64 pipeline, and the
// reduced widths (16-bit eᵀW row, 32-bit accumulator buses) realm::sa models.
//
// Every reduction routes through the tiered SIMD layer in
// checksum_kernels.{h,cpp} (avx512/avx2/portable, picked by the same runtime
// dispatch as the GEMM — kernels::active_tier()) and is row- or
// column-sharded across util::global_pool(); results are bit-identical to the
// int64 scalar reference at every tier and thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace realm::tensor {

/// eᵀM: per-column sums (length = cols).
[[nodiscard]] std::vector<std::int64_t> col_sums(const MatI8& m);
[[nodiscard]] std::vector<std::int64_t> col_sums(const MatI32& m);

/// M·e: per-row sums (length = rows).
[[nodiscard]] std::vector<std::int64_t> row_sums(const MatI8& m);
[[nodiscard]] std::vector<std::int64_t> row_sums(const MatI32& m);

/// Weighted checksum bases for the multi-fault ABFT solve (see
/// src/detect/correct.h): uᵀM with u = [1,2,3,…] and M·v with v = [1,2,3,…].
/// The ratio of weighted to plain deviation recovers the faulty row (column
/// solve) or column (row solve) index plus one.
[[nodiscard]] std::vector<std::int64_t> weighted_col_sums(const MatI8& m);
[[nodiscard]] std::vector<std::int64_t> weighted_col_sums(const MatI32& m);
[[nodiscard]] std::vector<std::int64_t> weighted_row_sums(const MatI8& m);
[[nodiscard]] std::vector<std::int64_t> weighted_row_sums(const MatI32& m);

/// Predicted column checksum of A·B, i.e. (eᵀA)·B, computed from the inputs.
[[nodiscard]] std::vector<std::int64_t> predict_col_checksum(const MatI8& a, const MatI8& b);

/// Predicted row checksum of A·B, i.e. A·(B·e).
[[nodiscard]] std::vector<std::int64_t> predict_row_checksum(const MatI8& a, const MatI8& b);

/// Same, from a precomputed weight basis B·e (= row_sums(b)); the hardware
/// keeps this resident with the stationary weights so the per-GEMM row-side
/// cost is O(m·k) instead of O(k·n + m·k).
[[nodiscard]] std::vector<std::int64_t> predict_row_checksum(
    const MatI8& a, const std::vector<std::int64_t>& b_row_basis);

}  // namespace realm::tensor
