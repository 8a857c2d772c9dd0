#include "detect/correct.h"

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "tensor/checksum.h"
#include "util/bitmath.h"

namespace realm::detect::correct {

namespace {

/// Solve the weighted-basis equation for one line (a column or a row):
/// a single fault at weighted position p satisfies weighted = (p+1)·plain,
/// so p = weighted/plain − 1. Inexact division or an index outside
/// [0, extent) means the line does not hold exactly one fault (or the fault
/// pattern aliases); the caller leaves it for the recompute fallback.
bool solve_line(std::int64_t plain, std::int64_t weighted, std::size_t extent,
                std::size_t& index) {
  if (plain == 0 || weighted % plain != 0) return false;
  const std::int64_t pos1 = weighted / plain;  // 1-based position
  if (pos1 < 1 || static_cast<std::uint64_t>(pos1) > extent) return false;
  index = static_cast<std::size_t>(pos1) - 1;
  return true;
}

/// `current − delta` when it fits int32. The patched value is the
/// algebraically reconstructed true element, which fits int32 when the solve
/// was right; a value off the rails proves the solve wrong.
bool patched_value(std::int64_t current, std::int64_t delta, std::int32_t& value) {
  const std::int64_t v = util::sat_sub_i64(current, delta);
  if (v < INT32_MIN || v > INT32_MAX) return false;
  value = static_cast<std::int32_t>(v);
  return true;
}

}  // namespace

std::vector<Patch> solve_patches(std::span<const std::int64_t> dc,
                                 std::span<const std::int64_t> wdc, std::vector<std::int64_t> dr,
                                 std::vector<std::int64_t> wdr, const tensor::MatI32& acc,
                                 int bits, bool saturate) {
  const std::size_t m = dr.size();
  const std::size_t n = dc.size();
  std::vector<Patch> patches;

  // Plan A — column solve: every column with a nonzero deviation is solved
  // independently, so simultaneous faults in distinct columns (including
  // several sharing one row) all patch in one pass. Each accepted patch is
  // subtracted from the row-side residuals so Plan B only chases what the
  // column solve could not see. `by_col[j]` indexes column j's patch.
  constexpr std::size_t kNone = SIZE_MAX;
  std::vector<std::size_t> by_col(n, kNone);
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t r = 0;
    std::int32_t value = 0;
    if (dc[j] == 0 || !solve_line(dc[j], wdc[j], m, r) ||
        !patched_value(acc(r, j), dc[j], value)) {
      continue;
    }
    by_col[j] = patches.size();
    patches.push_back({r, j, value, false});
    dr[r] = util::width_sub(dr[r], dc[j], bits, saturate);
    wdr[r] = util::width_sub(wdr[r], static_cast<std::int64_t>(j + 1) * dc[j], bits, saturate);
  }

  // Plan B — row solve over the residuals: catches the fault classes whose
  // column statistics alias (two faults sharing a column, opposite-sign
  // pairs that cancel in every column sum) but whose row deviations do not.
  // A row patch may land on an element Plan A already patched; it then
  // starts from that patch's value.
  for (std::size_t i = 0; i < m; ++i) {
    std::size_t c = 0;
    if (dr[i] == 0 || !solve_line(dr[i], wdr[i], n, c)) continue;
    const std::size_t prior = by_col[c];
    const std::int64_t current =
        prior != kNone && patches[prior].row == i ? patches[prior].value : acc(i, c);
    std::int32_t value = 0;
    if (patched_value(current, dr[i], value)) patches.push_back({i, c, value, true});
  }
  return patches;
}

PatchResult try_patch(const DetectionConfig& cfg,
                      const std::vector<std::int64_t>& predicted_cols, const tensor::MatI8& a8,
                      const tensor::MatI8& w8, const std::vector<std::int64_t>& w_row_basis,
                      const std::vector<std::int64_t>& w_row_wbasis, tensor::MatI32& acc) {
  if (a8.rows() != acc.rows() || a8.cols() != w8.rows() || w8.cols() != acc.cols()) {
    throw std::invalid_argument("try_patch: operand/accumulator shape mismatch");
  }
  PatchResult res;
  const std::size_t m = acc.rows();
  const std::size_t n = acc.cols();

  // Plain deviations on both sides through the one screen. The rows are
  // predicted from the CLEAN a8 (the screen of an activation strike predicts
  // them from the struck copy), so the screen's own deviations are not reused.
  Deviations dev;
  dev.pred_rows = tensor::predict_row_checksum(a8, w_row_basis);
  const ScreenStats stats =
      screen_deviations(predicted_cols, dev.pred_rows, acc, 64, /*saturate=*/true, dev);
  if (stats.nonzero_cols == 0 && stats.nonzero_rows == 0) {
    // A "detected" verdict with zero deviations on both sides has nothing to
    // solve against; refuse to touch the accumulator.
    res.outcome = PatchOutcome::kNoFault;
    return res;
  }

  // Weighted deviations, computed lazily only on this (cold) correction
  // path. Column side: predicted uᵀ(A·W) = (uᵀA)·W. solve_patches reads
  // wdc[j] only where dc[j] ≠ 0, so only those columns are predicted, in one
  // row-major pass over W; every other wdc entry stays 0. Row side:
  // (A·W)·v = A·(W·v) reuses the row predict kernel on the resident weighted
  // weight basis.
  std::vector<std::size_t> dirty;
  for (std::size_t j = 0; j < n; ++j) {
    if (dev.dc[j] != 0) dirty.push_back(j);
  }
  dev.wdc.assign(n, 0);
  if (!dirty.empty()) {
    const std::vector<std::int64_t> ua = tensor::weighted_col_sums(a8);
    std::vector<std::int64_t> pred_wcols(dirty.size(), 0);
    for (std::size_t kk = 0; kk < w8.rows(); ++kk) {
      if (ua[kk] == 0) continue;
      const std::int8_t* wrow = w8.data() + kk * w8.cols();
      for (std::size_t d = 0; d < dirty.size(); ++d) {
        pred_wcols[d] += ua[kk] * static_cast<std::int64_t>(wrow[dirty[d]]);
      }
    }
    const std::vector<std::int64_t> obs_wcols = tensor::weighted_col_sums(acc);
    for (std::size_t d = 0; d < dirty.size(); ++d) {
      dev.wdc[dirty[d]] = util::sat_sub_i64(obs_wcols[dirty[d]], pred_wcols[d]);
    }
  }
  const std::vector<std::int64_t> pred_wrows = tensor::predict_row_checksum(a8, w_row_wbasis);
  dev.wdr = tensor::weighted_row_sums(acc);
  for (std::size_t i = 0; i < m; ++i) dev.wdr[i] = util::sat_sub_i64(dev.wdr[i], pred_wrows[i]);

  // Full-width int64 deviations: 64-bit saturate is exactly sat_sub_i64.
  const std::vector<Patch> patches = solve_patches(dev.dc, dev.wdc, std::move(dev.dr),
                                                   std::move(dev.wdr), acc, 64, /*saturate=*/true);
  for (const Patch& p : patches) {
    acc(p.row, p.col) = p.value;
    res.used_row_solve = res.used_row_solve || p.row_solve;
  }
  res.patches_applied = patches.size();

  // Mandatory full re-screen: a patch is only trusted when the complete
  // criteria (MSD threshold, per-column deviations, row-side identity) come
  // back clean. This is what defuses an accidentally-divisible wrong solve —
  // a mispatch leaves some checksum unbalanced and lands here as kFailed.
  res.recheck = screen_accumulator(cfg, predicted_cols, a8, w_row_basis, acc, dev);
  res.outcome = (res.patches_applied > 0 && res.recheck.verdict == Verdict::kClean)
                    ? PatchOutcome::kPatched
                    : PatchOutcome::kFailed;
  return res;
}

}  // namespace realm::detect::correct
