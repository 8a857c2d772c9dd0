// Protected-GEMM detection pipeline (the paper's end-to-end flow, Fig. 3+7).
//
// ProtectedGemm wires together every layer of the stack: float operands are
// quantized through realm::tensor::{calibrate,quantize}, multiplied on the
// INT8 datapath (gemm_i8), attacked by a pluggable realm::fault::FaultInjector
// modelling timing upsets in the accumulator, and then screened by the
// statistical unit: the predicted column checksum (eᵀA)·B is compared against
// the observed eᵀC, the mean-signed-deviation statistic (MSD) is thresholded,
// and — when two-sided checking is enabled — the row×column intersection of
// nonzero deviations localizes the faulty elements. A detected GEMM is
// corrected algebraically in place when the weighted-basis solve pins the
// faults (src/detect/correct.h), falling back to fault-free recompute (the
// paper's fallback: replay the tile) only when the patched recheck is dirty.
//
// The weight operand is stationary, matching the accelerator: set_weights()
// quantizes once and precomputes both checksum bases — W·e for the row-side
// check (O(m·k) per GEMM) and eᵀW, kept resident like the hardware's Fig. 7
// checksum row (consumed by weight-integrity scrubbing and the reduced-width
// realm::sa datapath work).
//
// The column side's predicted checksum (eᵀA)·W is NOT computed as a separate
// O(k·n) pass: the GEMM kernels fuse the eᵀC reduction into their store
// phase, and because fault injection in this model perturbs the accumulator
// AFTER the multiply, the fused sums are the column checksum of the true
// product — exactly (eᵀA)·W by the checksum identity. This models Fig. 7's
// dedicated (fault-free) checksum datapath running alongside the array; the
// observed side is then re-read from the possibly-faulted accumulator by the
// SIMD column-sum screen — detect::screen_deviations, the one screen, which
// realm::sa runs at its reduced register widths and this pipeline at 64
// bits. Total per-run checking cost is O(m·k + m·n), all vectorized — the old
// scalar O(k·n) prediction term is gone entirely.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/fault.h"
#include "tensor/checksum.h"
#include "tensor/gemm_kernels.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace realm::fault {
class MemoryFaultModel;  // fault/memory.h — at-rest weight/panel/activation strikes
}

namespace realm::detect {

/// What the detector concluded about one protected GEMM.
enum class Verdict : std::uint8_t {
  kClean,       ///< no deviation above threshold; output served as-is
  kDetected,    ///< fault flagged, correction disabled or recheck still dirty
  kPatched,     ///< fault flagged, algebraic in-place patch verified clean
  kRecomputed,  ///< fault flagged, full recompute verified clean
};

[[nodiscard]] const char* to_string(Verdict v) noexcept;

/// True when the output was repaired and re-verified clean, by either
/// correction mode (in-place patch or full recompute).
[[nodiscard]] constexpr bool corrected(Verdict v) noexcept {
  return v == Verdict::kPatched || v == Verdict::kRecomputed;
}

/// How the MSD statistic is compared against the threshold.
enum class CheckMode : std::uint8_t {
  kMsdOnly,   ///< one-sided: flag iff |MSD| > threshold (paper default)
  kTwoSided,  ///< additionally flag any nonzero per-column deviation and
              ///< compute row deviations for localization
};

struct DetectionConfig {
  /// |MSD| strictly greater than this flags a fault. Checksums are exact
  /// integer identities, so 0 gives zero false positives on golden runs.
  std::uint64_t msd_threshold = 0;
  CheckMode mode = CheckMode::kTwoSided;
  /// Try the algebraic in-place patch first when a fault is flagged: solve
  /// position and magnitude from the plain + weighted deviations, patch the
  /// accumulator, and re-screen: O(m·n + m·k + k·d) for d faulted columns
  /// against the replay's O(m·k·n). Asymptotic only — at the decode tile
  /// (m ≤ 16, k = 4096, 512 columns) the patch measured about 1.5×
  /// recompute-plus-recheck (traced perfbench decode, seed 5).
  bool patch_on_detect = true;
  /// Recompute the GEMM (fault-free replay) when a fault is flagged and the
  /// patch was disabled or its recheck came back dirty.
  bool recompute_on_detect = true;
};

struct DetectionVerdict {
  Verdict verdict = Verdict::kClean;
  std::int64_t msd_signed = 0;  ///< Σ per-column deviation, saturating at int64
  std::uint64_t msd_abs = 0;
  /// floor(log2(max |per-column deviation|)); 0 when clean. The magnitude
  /// axis of the paper's critical-region map (Fig. 6).
  int max_dev_pow2 = 0;
  /// Columns/rows with nonzero deviation (kTwoSided only); their cross
  /// product localizes candidate faulty elements.
  std::vector<std::size_t> fault_cols;
  std::vector<std::size_t> fault_rows;
  fault::InjectionReport injection;  ///< what the injector reported doing
  /// Bit flips injected DURING this run, by memory-hierarchy component:
  /// kAccumulator mirrors injection.flipped_bits, kActivations counts the
  /// memory model's pre-GEMM activation strikes. Weight/panel flips happen at
  /// load/rest time (corrupt_weights/corrupt_panels), outside any single run,
  /// so their slots stay zero here and are tallied by the owner of the tile.
  fault::ComponentFlips component_flips{};

  [[nodiscard]] bool faulty() const noexcept { return verdict != Verdict::kClean; }
};

/// Checksum deviations (observed − predicted) of one accumulator, owned by the
/// caller so a recycled instance keeps the screen allocation-free. The screen
/// writes `dc`/`dr`; only the correction paths fill `wdc`/`wdr`. `pred_rows`
/// is scratch for callers that predict the row checksum themselves.
struct Deviations {
  std::vector<std::int64_t> dc, dr, wdc, wdr, pred_rows;
};

struct ScreenStats {
  std::int64_t msd = 0;  ///< final value of the width-limited MSD register
  std::size_t nonzero_cols = 0, nonzero_rows = 0;
};

/// The one checksum screen (Fig. 7), at any register width: re-reads the
/// column (and row) sums of `acc` through `bits`-wide registers, writes
/// dc = observed − predicted (and dr) with util::width_sub, and runs Σ dc
/// through one util::width_add MSD register; `saturate` false wraps. (64,
/// true) is the exact int64 screen. An empty `predicted_rows` screens the
/// columns only. Throws std::invalid_argument on a prediction whose length
/// does not match `acc`, or bits outside [1, 64].
ScreenStats screen_deviations(std::span<const std::int64_t> predicted_cols,
                              std::span<const std::int64_t> predicted_rows,
                              const tensor::MatI32& acc, int bits, bool saturate,
                              Deviations& dev);

struct ProtectedGemmResult {
  tensor::MatI32 acc;      ///< final accumulator (patched or recomputed when corrected)
  tensor::MatF output;     ///< dequantized float output of `acc`
  DetectionVerdict report;
  Deviations dev;  ///< the run's last screen; recycled like acc/output
  /// Predicted column checksum eᵀ(A·W) the screen compared against (the
  /// GEMM's fused sums on the injector-only path); recycled likewise.
  std::vector<std::int64_t> predicted_cols;
  /// Working copy of the activation operand when the memory fault model is
  /// live: the GEMM consumes this (possibly corrupted) image while the
  /// caller's a8 stands in for the producer's golden copy. Recycled across
  /// runs like acc/output; empty on the injector-only path.
  tensor::MatI8 a8_work;
};

/// The full-width (int64) verdict, exposed as a standalone step: exactly
/// what run_quantized* applies internally — screen_deviations at (64,
/// saturate), MSD thresholding and, in two-sided mode, per-column deviations
/// plus the row-side identity predicted from `a8` and the resident basis
/// `W·e`. The returned verdict is kClean or kDetected (correction is the
/// pipeline's job, not the screen's) and `injection` is left
/// default-initialized. With a recycled `dev`, a clean screen allocates
/// nothing. Throws std::invalid_argument on mismatched shapes.
///
/// Exposed so external datapath models can re-screen the same accumulator
/// the pipeline saw: realm::sa uses it as the int64 reference verdict in its
/// coverage comparison.
[[nodiscard]] DetectionVerdict screen_accumulator(const DetectionConfig& cfg,
                                                  const std::vector<std::int64_t>& predicted_cols,
                                                  const tensor::MatI8& a8,
                                                  const std::vector<std::int64_t>& w_row_basis,
                                                  const tensor::MatI32& acc, Deviations& dev);
/// Same, with throwaway deviations.
[[nodiscard]] DetectionVerdict screen_accumulator(const DetectionConfig& cfg,
                                                  const std::vector<std::int64_t>& predicted_cols,
                                                  const tensor::MatI8& a8,
                                                  const std::vector<std::int64_t>& w_row_basis,
                                                  const tensor::MatI32& acc);

// Thread-safety contract (load-bearing for realm::serve): after set_weights*
// returns, a ProtectedGemm is immutable — every run* overload and
// verify_weight_integrity() only read members, so any number of threads may
// call them concurrently on the same const instance. Each caller must supply
// its own Rng and (for run_quantized_into) its own result buffer; the GEMM
// inside routes through util::global_pool(), whose nesting rule makes it run
// inline on pool workers and serialize top-level callers (see threadpool.h).
// Calling set_weights* concurrently with any run* is a data race.
class ProtectedGemm {
 public:
  explicit ProtectedGemm(DetectionConfig cfg = {}) : cfg_(cfg) {}

  /// Calibrate + quantize the stationary weight operand and precompute its
  /// checksum basis W·e. Must be called before run()/run_quantized().
  void set_weights(const tensor::MatF& w);

  /// Use pre-quantized weights directly (tests and the bench drive this).
  void set_weights_quantized(tensor::MatI8 w8, tensor::QuantParams qw);

  /// Full pipeline on float activations: calibrate+quantize A, multiply,
  /// inject, detect/correct, dequantize.
  [[nodiscard]] ProtectedGemmResult run(const tensor::MatF& a,
                                        const fault::FaultInjector& injector,
                                        util::Rng& rng) const;

  /// Quantized-domain pipeline (skips activation calibration; exact control
  /// over the INT8 operands for tests).
  [[nodiscard]] ProtectedGemmResult run_quantized(const tensor::MatI8& a8,
                                                  tensor::QuantParams qa,
                                                  const fault::FaultInjector& injector,
                                                  util::Rng& rng) const;

  /// Steady-state serving variant: recycles `result`'s buffers (resized only
  /// on shape change), so back-to-back protected GEMMs pay no page faults
  /// and, after the first call on a thread, a clean tile allocates nothing
  /// (the GEMM's A pack lives in per-thread scratch).
  /// The report is reset; all other semantics identical to run_quantized.
  ///
  /// When `memory` is non-null and its activation BER is nonzero, the run
  /// models a per-request activation strike: a8 is copied into the result's
  /// working buffer, corrupted from the counter-based stream
  /// component_stream(seed, kActivations, op), and the GEMM consumes the
  /// corrupted image. The predicted column checksum is then computed from the
  /// CLEAN a8 (the checksum row travels with A from its fault-free producer,
  /// exactly like the resident eᵀW row travels with W), so the column screen
  /// is what catches activation corruption; the row side predicts from the
  /// same corrupted image the array consumed and stays blind to it. Patch and
  /// recompute both rehabilitate from the clean a8 (a recompute re-fetches
  /// the golden DRAM copy), so corrected outputs are bit-equal to the
  /// fault-free reference. memory == nullptr (or activation BER 0) is
  /// bit-identical to the injector-only path.
  void run_quantized_into(const tensor::MatI8& a8, tensor::QuantParams qa,
                          const fault::FaultInjector& injector, util::Rng& rng,
                          ProtectedGemmResult& result,
                          const fault::MemoryFaultModel* memory = nullptr,
                          std::uint64_t op = 0) const;

  /// Memory-hierarchy strike on the resident weight tile (the kWeights
  /// component: a load-time upset at set_weights/swap_tile). Flips bits of
  /// the quantized image and repacks the SIMD panels from the corrupted
  /// image — the accelerator packs whatever it loaded, so the GEMM consumes
  /// the corruption and only the base-capture scrub can notice. Returns the
  /// number of bit flips applied. Must not race any run* call (same rule as
  /// set_weights*).
  std::uint64_t corrupt_weights(const fault::MemoryFaultModel& memory, std::uint64_t op,
                                std::vector<fault::FlipRecord>* record = nullptr);

  /// Memory-hierarchy strike on the packed panels only (the kPackedPanels
  /// component: an at-rest SRAM upset between requests). The quantized image
  /// and its bases stay clean, so the repack-compare leg of the scrub is
  /// what catches it. Vacuous on the portable tier, which keeps no panels.
  std::uint64_t corrupt_panels(const fault::MemoryFaultModel& memory, std::uint64_t op,
                               std::vector<fault::FlipRecord>* record = nullptr);

  [[nodiscard]] const tensor::MatI8& weights() const noexcept { return w8_; }
  [[nodiscard]] tensor::QuantParams weight_params() const noexcept { return qw_; }
  [[nodiscard]] const DetectionConfig& config() const noexcept { return cfg_; }

  /// The resident checksum bases (set_weights precomputes all of them).
  [[nodiscard]] const std::vector<std::int64_t>& weight_row_basis() const noexcept {
    return w_row_basis_;
  }
  [[nodiscard]] const std::vector<std::int64_t>& weight_col_basis() const noexcept {
    return w_col_basis_;
  }
  /// Weighted row basis W·v with v = [1,2,3,…]: the second checksum basis of
  /// the classic ABFT construction. The weighted row sum of the true product,
  /// A·(W·v), divided by the plain row deviation yields the faulty column
  /// index — how the corrector separates simultaneous faults (see correct.h).
  [[nodiscard]] const std::vector<std::int64_t>& weight_row_wbasis() const noexcept {
    return w_row_wbasis_;
  }

  /// The resident SIMD weight panels (packed once at set_weights). Immutable
  /// after packing — safe to read from any number of concurrent GEMMs; the
  /// serving layer's unprotected baseline reuses them so raw-vs-protected
  /// comparisons share identical weight state.
  [[nodiscard]] const tensor::kernels::PackedB& weight_panels() const noexcept {
    return w_packed_;
  }

  /// Scrub the stationary weight tile against its resident bases: recompute
  /// eᵀW and W·e from w8_ and compare with the values captured at
  /// set_weights; then repack the panels from w8_ and byte-compare against
  /// the resident panels (the kPackedPanels leg — exact, so ANY panel
  /// corruption is caught; skipped when the resident panels were packed for
  /// a different tier/shape and would be repacked at use anyway). The sum
  /// legs are exact int64 identities: any SINGLE net weight fault is caught
  /// unconditionally (it perturbs exactly one row sum and one column sum),
  /// and a multi-fault pattern escapes only by cancelling in every row AND
  /// every column simultaneously (e.g. a ±δ 2x2 anti-diagonal — a measure-
  /// zero alignment under independent bit flips). False means
  /// the weight memory (not a GEMM) was corrupted — the class of fault
  /// recompute-on-detect cannot fix, because replaying the multiply reuses
  /// the same bad operand; recovery is reloading from the golden host copy.
  [[nodiscard]] bool verify_weight_integrity() const;

 private:
  DetectionConfig cfg_;
  tensor::MatI8 w8_;
  tensor::QuantParams qw_;
  std::vector<std::int64_t> w_row_basis_;   ///< W·e, resident with the weights
  std::vector<std::int64_t> w_col_basis_;   ///< eᵀW, resident likewise (Fig. 7 row)
  std::vector<std::int64_t> w_row_wbasis_;  ///< W·v, v=[1,2,…] (weighted ABFT basis)
  tensor::kernels::PackedB w_packed_;      ///< SIMD panels, resident likewise
};

/// Distribution of the synthetic activations calibrate_msd_threshold draws.
/// Calibration must see value ranges like production traffic: the activation
/// scale (and therefore which accumulator bits real deviations can reach)
/// depends on it, so callers describe their regime instead of inheriting a
/// hardcoded standard normal.
struct ActivationSpec {
  enum class Dist : std::uint8_t {
    kNormal,   ///< normal(p0 = mean, p1 = stddev); stddev must be > 0
    kUniform,  ///< uniform [p0 = lo, p1 = hi); requires hi > lo
  };
  Dist dist = Dist::kNormal;
  double p0 = 0.0;
  double p1 = 1.0;

  /// SmoothQuant-style activations: roughly normal with rare outlier scale.
  [[nodiscard]] static ActivationSpec normal(double mean, double stddev) {
    return {Dist::kNormal, mean, stddev};
  }
  [[nodiscard]] static ActivationSpec uniform(double lo, double hi) {
    return {Dist::kUniform, lo, hi};
  }
};

/// Run `golden_runs` fault-free GEMMs over random activations drawn from
/// `spec` and return the largest |MSD| observed (always 0 for exact integer
/// checksums — the call exists so threshold calibration is an explicit,
/// testable step rather than an assumption baked into DetectionConfig, and so
/// reduced-width datapath models can calibrate against a realistic activation
/// range). Throws std::invalid_argument on a degenerate spec.
[[nodiscard]] std::uint64_t calibrate_msd_threshold(const ProtectedGemm& pg, std::size_t m,
                                                    std::size_t golden_runs, util::Rng& rng,
                                                    ActivationSpec spec = {});

}  // namespace realm::detect
