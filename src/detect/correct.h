// Algebraic in-place fault correction (the multi-fault ABFT solve).
//
// The checksum screen localizes faults; this module repairs them without the
// O(m·k·n) recompute replay. Both solves rest on the linearity of the
// checksum identities. Write the error matrix E = C_observed − C_true. Then
//
//   plain column deviation   dc[j]  = Σ_i E(i,j)
//   weighted column deviation wdc[j] = Σ_i (i+1)·E(i,j)   (basis u = [1,2,…])
//   plain row deviation      dr[i]  = Σ_j E(i,j)
//   weighted row deviation   wdr[i] = Σ_j (j+1)·E(i,j)    (basis v = [1,2,…])
//
// For a column j holding exactly one error at row r of magnitude δ:
// dc[j] = δ and wdc[j] = (r+1)·δ, so r = wdc[j]/dc[j] − 1 and the patch is
// C(r,j) −= dc[j] — position AND magnitude from two numbers, the classic
// weighted-basis ABFT construction. Because the solve is per column, any
// number of simultaneous faults in DISTINCT columns (including several
// sharing a row) patch independently. The row-side solve is the transpose
// (c = wdr[i]/dr[i] − 1, patch C(i,c) −= dr[i]) and catches what the column
// solve cannot see: faults sharing a column, including pairs whose column
// deviations cancel.
//
// The predicted weighted sums reuse the existing fault-free prediction
// identities: uᵀ(A·W) = (uᵀA)·W (one weighted col-sum over int8 A, then one
// row-major pass over W that predicts only the d columns with a nonzero
// plain deviation — the only ones the column solve reads) and
// (A·W)·v = A·(W·v) (the resident weighted weight basis
// ProtectedGemm::set_weights precomputes). Total patch cost is
// O(m·n + m·k + k·d) against the recompute replay's O(m·k·n). That is an
// asymptotic bound, not a speed-up at every shape: at the decode tile
// (m ≤ 16, k = 4096, 512 columns) the patch measured about 1.5×
// recompute-plus-recheck (traced perfbench decode, seed 5).
//
// State machine: detect → try_patch → full re-screen → serve (kPatched), or
// on any inconsistency (inexact division, out-of-range index, dirty recheck)
// → kFailed → caller recomputes. The mandatory re-screen is what makes an
// accidentally-divisible wrong solve safe: a mispatch perturbs checksums the
// patch did not balance, the recheck stays dirty, and the recompute replay
// overwrites the accumulator wholesale (no undo needed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "detect/detect.h"
#include "tensor/tensor.h"

namespace realm::detect::correct {

enum class PatchOutcome : std::uint8_t {
  kNoFault,  ///< every deviation is zero; accumulator left untouched
  kPatched,  ///< patches applied and the full re-screen came back clean
  kFailed,   ///< no consistent solve, or recheck still dirty: recompute
};

struct PatchResult {
  PatchOutcome outcome = PatchOutcome::kNoFault;
  std::size_t patches_applied = 0;  ///< elements mutated (0 for kNoFault)
  bool used_row_solve = false;      ///< the row-side (Plan B) solve fired
  /// Verdict of the mandatory post-patch re-screen (default-initialized for
  /// kNoFault, where nothing was mutated and nothing needs re-certifying).
  DetectionVerdict recheck;
};

/// One solved fault: acc(row, col) becomes `value`.
struct Patch {
  std::size_t row = 0;
  std::size_t col = 0;
  std::int32_t value = 0;
  bool row_solve = false;  ///< found by Plan B (the row-side solve)
};

/// The Plan A / Plan B weighted-basis solve over the deviations (observed −
/// predicted) dc/wdc (plain/weighted, per column) and dr/wdr (per row). Plan
/// A solves each column with a nonzero deviation on its own (wdc[j] is read
/// only where dc[j] ≠ 0); Plan B solves
/// each row over the residuals Plan A left. A patch whose value leaves int32
/// proves its solve wrong and is dropped before it is charged to the row
/// residuals. Every residual subtraction runs through util::width_sub at
/// `bits` / `saturate` (the corrector passes 64 and true; the sa register
/// model passes its datapath's width). `acc` is read only for the current
/// values of the patched elements. Applying the returned patches in order
/// reconstructs the solved accumulator; a later patch of the same element
/// already accounts for the earlier one.
[[nodiscard]] std::vector<Patch> solve_patches(std::span<const std::int64_t> dc,
                                               std::span<const std::int64_t> wdc,
                                               std::vector<std::int64_t> dr,
                                               std::vector<std::int64_t> wdr,
                                               const tensor::MatI32& acc, int bits,
                                               bool saturate);

/// Attempt the algebraic in-place correction of `acc` against the predicted
/// column checksum. Reads the same inputs as screen_accumulator plus the
/// weight operand (for the weighted column prediction (uᵀA)·W) and the
/// resident weighted basis W·v. Mutates `acc` only through solved patches;
/// on kFailed the caller must recompute (which overwrites `acc` entirely).
/// Never claims kPatched without a clean full re-screen.
[[nodiscard]] PatchResult try_patch(const DetectionConfig& cfg,
                                    const std::vector<std::int64_t>& predicted_cols,
                                    const tensor::MatI8& a8, const tensor::MatI8& w8,
                                    const std::vector<std::int64_t>& w_row_basis,
                                    const std::vector<std::int64_t>& w_row_wbasis,
                                    tensor::MatI32& acc);

}  // namespace realm::detect::correct
