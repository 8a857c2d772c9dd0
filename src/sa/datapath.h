// Reduced-width checksum datapath model for the systolic array (Fig. 7).
//
// realm::detect screens with full int64 checksum arithmetic — the
// software-reference behavior. The paper's hardware proposal cannot afford
// 64-bit registers next to every column of the array: it keeps a 16-bit eᵀW
// checksum row, so the predicted-side registers, the observed-side
// registers, the per-column deviations, and the MSD accumulator are all
// reduced-width datapaths that either wrap or saturate on overflow. This
// layer is the bit-accurate model of that hardware: the same quantize → GEMM
// → inject → screen pipeline as detect::ProtectedGemm, running the SAME
// screen (detect::screen_deviations) at the reduced width instead of 64 bits
// — plus the bookkeeping to say exactly where the narrow datapath loses
// detections against the int64 reference. It is the first subsystem in the
// repo that measures *coverage* rather than speed; the sweep harness on top
// of it lives in sa/roc.h.
//
// Overflow semantics (shared with tensor::kernels::*_i32_width):
//  * kWrap — carries out of the register drop (two's complement mod 2^bits).
//    Modular addition is associative, so a wrapped register equals the exact
//    sum reduced once — and detection events NEST across widths: a deviation
//    visible at width w is visible at every width > w, because d ≡ 0
//    (mod 2^W) implies d ≡ 0 (mod 2^w) for w < W but never the reverse. The
//    coverage curve is therefore provably monotone in width (pinned by
//    test_roc). The failure mode is ALIASING: error mass that is a multiple
//    of 2^bits screens as exactly clean — the width-16 miss the harness
//    demonstrates is a single +2^16 upset.
//  * kSaturate — every add clamps at the register rails. Not associative, so
//    the model pins the accumulation order a weight-stationary array drains
//    partial sums in (ascending row index for column registers, ascending
//    column index for row registers). The failure mode is RAIL PINNING: when
//    the predicted and observed registers both hit the same rail their
//    difference reads zero, hiding the fault (pinned by test_sa).
#pragma once

#include <cstdint>
#include <vector>

#include "detect/detect.h"
#include "fault/fault.h"
#include "tensor/tensor.h"
#include "util/bitmath.h"
#include "util/rng.h"

namespace realm::sa {

enum class Overflow : std::uint8_t {
  kWrap,      ///< drop carries (mod 2^bits) — the cheap-hardware default
  kSaturate,  ///< clamp at the rails, like the int64 reference's sat_add
};

[[nodiscard]] const char* to_string(Overflow o) noexcept;

/// One reduced-width checksum datapath to screen through.
struct DatapathConfig {
  int bits = 16;  ///< register width in [1, 64]; 64 reproduces the reference
  Overflow overflow = Overflow::kWrap;
  /// |MSD register| strictly greater than this flags a fault (same contract
  /// as DetectionConfig::msd_threshold; checksums are exact, so 0 gives zero
  /// false positives at every width).
  std::uint64_t msd_threshold = 0;
  /// Also screen per-column deviations and the row-side identity (the
  /// two-sided mode of the reference pipeline).
  bool two_sided = true;
};

/// One width-limited accumulator register (util::width_add; the matrix-sized
/// reductions ride tensor::kernels::*_i32_width instead).
class Reg {
 public:
  /// Throws std::invalid_argument unless bits is in [1, 64].
  explicit Reg(int bits, Overflow overflow);

  void add(std::int64_t x) noexcept;
  [[nodiscard]] std::int64_t value() const noexcept { return value_; }

 private:
  std::int64_t value_ = 0;
  int bits_;
  Overflow overflow_;
};

/// What one reduced-width screen concluded about one accumulator.
struct ScreenResult {
  int bits = 0;  ///< echo of the datapath that produced this
  Overflow overflow = Overflow::kWrap;
  bool flagged = false;      ///< col_flagged || row_flagged
  bool col_flagged = false;  ///< MSD over threshold, or a nonzero column deviation
  bool row_flagged = false;  ///< a nonzero row deviation (two_sided only)
  std::int64_t msd = 0;      ///< final value of the width-limited MSD register
  std::size_t nonzero_cols = 0;
  std::size_t nonzero_rows = 0;
  /// The width-limited weighted-basis patch simulation reconstructed the
  /// fault-free product exactly (attempted only on flagged faulty trials;
  /// set by SaProtectedGemm::run_into, not by screen()).
  bool patched = false;
};

/// Recycled buffers for screen_into (predicted column registers; predicted
/// rows and deviations in `dev`), so a steady-state screen allocates nothing.
struct ScreenScratch {
  std::vector<std::int64_t> pred_cols;
  detect::Deviations dev;
};

/// Bit-accurate reduced-width screen of a faulted accumulator against the
/// fault-free product. `truth` feeds the predicted-side registers (the
/// dedicated fault-free checksum datapath of Fig. 7 sees the true partial
/// sums); `faulted` goes through detect::screen_deviations — the same screen
/// the int64 pipeline runs — at the datapath's width and overflow semantics.
/// Throws std::invalid_argument on shape mismatch or bits outside [1, 64].
[[nodiscard]] ScreenResult screen(const tensor::MatI32& truth, const tensor::MatI32& faulted,
                                  const DatapathConfig& cfg);
ScreenResult screen_into(const tensor::MatI32& truth, const tensor::MatI32& faulted,
                         const DatapathConfig& cfg, ScreenScratch& scratch);

/// Simulate the weighted-basis algebraic correction (detect/correct.h) with
/// every deviation — plain and weighted, column and row — routed through
/// width-limited registers of `cfg`'s width and overflow semantics (weighted
/// sums accumulate through `Reg` in the array's drain order). The solve is
/// the corrector's own correct::solve_patches, with residual updates in the
/// same width arithmetic; success means the patched copy equals `truth`
/// EXACTLY. At bits == 64 this heals a trial exactly when correct::try_patch
/// does (single faults always patch); at reduced widths wrapped/saturated
/// deviations mis-solve and the comparison fails — the correction-coverage
/// loss the sweep measures.
/// Correction always uses both checksum sides (localization needs them),
/// independent of DatapathConfig::two_sided.
[[nodiscard]] bool simulate_patch(const tensor::MatI32& truth, const tensor::MatI32& faulted,
                                  const DatapathConfig& cfg);

/// Everything one protected run produced, at the reference width and at every
/// configured reduced width — the per-trial record the coverage harness
/// tallies.
struct SaRunResult {
  /// Injection net-changed the accumulator (two flips on one bit cancel; a
  /// run whose flips all cancel is ground-truth clean).
  bool truth_faulty = false;
  /// Net-corrupted accumulator elements (distinct indices where the faulted
  /// copy disagrees with the truth) — 1 is the single-fault class whose
  /// full-width patch rate the CI gate pins at 100%.
  std::size_t faulty_elems = 0;
  /// The 64-bit patch simulation healed this trial. It runs the corrector's
  /// own solve on exact deviations, so this is exactly what correct::try_patch
  /// achieves on the same faulted accumulator (pinned by test_sa).
  bool reference_patched = false;
  /// Full-width int64 screen of the same faulted accumulator — what the
  /// software reference concludes (verdict is kClean or kDetected; this
  /// model never recomputes).
  detect::DetectionVerdict reference;
  /// Exact per-flip records from the injector (bit index + pre/post values).
  std::vector<fault::FlipRecord> flips;
  /// One entry per configured DatapathConfig, same order.
  std::vector<ScreenResult> by_width;

  /// Reduced-width datapath `i` missed a fault the int64 reference caught.
  [[nodiscard]] bool coverage_loss(std::size_t i) const {
    return truth_faulty && reference.faulty() && !by_width.at(i).flagged;
  }
};

/// Recycled buffers for run_into: the truth/faulted accumulators, the fused
/// predicted checksum, and the screen register files.
struct SaRunScratch {
  tensor::MatI32 truth, faulted;
  std::vector<std::int64_t> predicted_cols;
  ScreenScratch screen;
};

/// The checksum-protected systolic-array datapath at several checksum widths
/// at once: one GEMM, one injection, one int64 reference screen, and one
/// reduced-width screen per configured datapath — all over the SAME faulted
/// accumulator, so per-width verdicts are directly comparable.
///
/// Same thread-safety contract as detect::ProtectedGemm: immutable after
/// set_weights_quantized, so any number of threads may run() concurrently on
/// a const instance, each with its own Rng and scratch (the sweep harness
/// shards cells over the global pool this way).
class SaProtectedGemm {
 public:
  /// `datapaths` may be empty (reference-only runs). The reference screen
  /// uses `reference_cfg` with recompute_on_detect forced off — this model
  /// characterizes detection, it never replays.
  explicit SaProtectedGemm(std::vector<DatapathConfig> datapaths,
                           detect::DetectionConfig reference_cfg = {});

  void set_weights_quantized(tensor::MatI8 w8, tensor::QuantParams qw);

  [[nodiscard]] SaRunResult run(const tensor::MatI8& a8, const fault::FaultInjector& injector,
                                util::Rng& rng) const;
  void run_into(const tensor::MatI8& a8, const fault::FaultInjector& injector, util::Rng& rng,
                SaRunResult& result, SaRunScratch& scratch) const;

  [[nodiscard]] const std::vector<DatapathConfig>& datapaths() const noexcept {
    return datapaths_;
  }
  [[nodiscard]] const detect::ProtectedGemm& reference() const noexcept { return ref_; }

 private:
  std::vector<DatapathConfig> datapaths_;
  detect::ProtectedGemm ref_;  ///< owns the weights, bases, and SIMD panels
};

}  // namespace realm::sa
