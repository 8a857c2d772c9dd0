#include "detect/detect.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "detect/correct.h"
#include "fault/memory.h"
#include "obs/trace.h"
#include "tensor/checksum_kernels.h"
#include "tensor/gemm.h"
#include "util/bitmath.h"

namespace realm::detect {

ScreenStats screen_deviations(std::span<const std::int64_t> predicted_cols,
                              std::span<const std::int64_t> predicted_rows,
                              const tensor::MatI32& acc, int bits, bool saturate,
                              Deviations& dev) {
  if (predicted_cols.size() != acc.cols() ||
      (!predicted_rows.empty() && predicted_rows.size() != acc.rows()) || bits < 1 || bits > 64) {
    throw std::invalid_argument("screen_deviations: checksum length or register width mismatch");
  }
  ScreenStats stats;
  // Column side: the observed registers re-read the possibly-faulted
  // accumulator; every deviation and the MSD run through registers of the
  // same width. At 64 bits nothing can wrap or pin, and saturation keeps a
  // huge deviation from aliasing to a small one (see bitmath.h).
  dev.dc.resize(acc.cols());
  tensor::kernels::col_sums_i32_width(acc.data(), acc.rows(), acc.cols(), bits, saturate,
                                      dev.dc.data());
  for (std::size_t j = 0; j < acc.cols(); ++j) {
    dev.dc[j] = util::width_sub(dev.dc[j], predicted_cols[j], bits, saturate);
    if (dev.dc[j] != 0) ++stats.nonzero_cols;
    stats.msd = util::width_add(stats.msd, dev.dc[j], bits, saturate);
  }
  // Row side (two-sided callers only).
  dev.dr.resize(predicted_rows.size());
  if (!predicted_rows.empty()) {
    tensor::kernels::row_sums_i32_width(acc.data(), acc.rows(), acc.cols(), bits, saturate,
                                        dev.dr.data());
    for (std::size_t i = 0; i < acc.rows(); ++i) {
      dev.dr[i] = util::width_sub(dev.dr[i], predicted_rows[i], bits, saturate);
      if (dev.dr[i] != 0) ++stats.nonzero_rows;
    }
  }
  return stats;
}

DetectionVerdict screen_accumulator(const DetectionConfig& cfg,
                                    const std::vector<std::int64_t>& predicted_cols,
                                    const tensor::MatI8& a8,
                                    const std::vector<std::int64_t>& w_row_basis,
                                    const tensor::MatI32& acc, Deviations& dev) {
  const bool two_sided = cfg.mode == CheckMode::kTwoSided;
  dev.pred_rows.clear();
  if (two_sided) {
    if (a8.cols() != w_row_basis.size() || a8.rows() != acc.rows()) {
      throw std::invalid_argument("screen_accumulator: activation/basis/accumulator mismatch");
    }
    dev.pred_rows.resize(a8.rows());
    tensor::kernels::predict_row_checksum(a8.data(), a8.rows(), a8.cols(), w_row_basis.data(),
                                          dev.pred_rows.data());
  }
  const ScreenStats stats =
      screen_deviations(predicted_cols, dev.pred_rows, acc, 64, /*saturate=*/true, dev);

  DetectionVerdict report;
  report.msd_signed = stats.msd;
  report.msd_abs = util::abs_u64(stats.msd);
  for (const auto d : dev.dc) {
    if (d != 0) report.max_dev_pow2 = std::max(report.max_dev_pow2, util::ilog2_abs(d));
  }
  bool flagged = report.msd_abs > cfg.msd_threshold;
  if (two_sided) {
    for (std::size_t j = 0; j < dev.dc.size(); ++j) {
      if (dev.dc[j] != 0) report.fault_cols.push_back(j);
    }
    for (std::size_t i = 0; i < dev.dr.size(); ++i) {
      if (dev.dr[i] != 0) report.fault_rows.push_back(i);
    }
    // The row side must participate in the verdict, not just localization:
    // opposite-sign errors in one column cancel in every column statistic
    // (zero diff, zero MSD) but still perturb two row sums — the case
    // classical two-sided ABFT exists to catch.
    flagged = flagged || stats.nonzero_cols > 0 || stats.nonzero_rows > 0;
  }
  report.verdict = flagged ? Verdict::kDetected : Verdict::kClean;
  return report;
}

DetectionVerdict screen_accumulator(const DetectionConfig& cfg,
                                    const std::vector<std::int64_t>& predicted_cols,
                                    const tensor::MatI8& a8,
                                    const std::vector<std::int64_t>& w_row_basis,
                                    const tensor::MatI32& acc) {
  Deviations dev;
  return screen_accumulator(cfg, predicted_cols, a8, w_row_basis, acc, dev);
}

const char* to_string(Verdict v) noexcept {
  switch (v) {
    case Verdict::kClean: return "clean";
    case Verdict::kDetected: return "detected";
    case Verdict::kPatched: return "patched";
    case Verdict::kRecomputed: return "recomputed";
  }
  return "?";
}

void ProtectedGemm::set_weights(const tensor::MatF& w) {
  const tensor::QuantParams qw = tensor::calibrate(w.flat());
  set_weights_quantized(tensor::quantize(w, qw), qw);
}

void ProtectedGemm::set_weights_quantized(tensor::MatI8 w8, tensor::QuantParams qw) {
  if (w8.empty()) throw std::invalid_argument("ProtectedGemm: empty weights");
  w8_ = std::move(w8);
  qw_ = qw;
  // Weight-stationary model: both checksum bases (W·e and eᵀW) and the SIMD
  // panels are computed once and stay resident with the weights, like the
  // Fig. 7 checksum row. Every protected GEMM (and its recompute replay)
  // then skips the O(k·n) pack.
  w_row_basis_ = tensor::row_sums(w8_);
  w_col_basis_ = tensor::col_sums(w8_);
  // Weighted ABFT basis W·v (v = [1,2,3,…]): resident like W·e so the
  // corrector's row-side solve A·(W·v) reuses the same predict kernel.
  w_row_wbasis_ = tensor::weighted_row_sums(w8_);
  w_packed_ = tensor::kernels::pack_b(w8_.data(), w8_.rows(), w8_.cols());
}

bool ProtectedGemm::verify_weight_integrity() const {
  if (w8_.empty()) throw std::logic_error("ProtectedGemm: set_weights() not called");
  if (tensor::row_sums(w8_) != w_row_basis_ || tensor::col_sums(w8_) != w_col_basis_) {
    return false;
  }
  // Panel leg: the packed SIMD image must still be the pack of w8_. A fresh
  // repack against a byte-compare is exact — any at-rest panel corruption is
  // caught, independent of value or position. Only meaningful when the
  // resident panels target the active tier/shape (otherwise every GEMM
  // repacks fresh and stale panels are never consumed).
  if (w_packed_.valid_for(tensor::kernels::active_tier(), w8_.rows(), w8_.cols())) {
    const tensor::kernels::PackedB repacked =
        tensor::kernels::pack_b(w8_.data(), w8_.rows(), w8_.cols());
    const std::span<const std::int16_t> fresh = repacked.raw_panels();
    const std::span<const std::int16_t> resident = w_packed_.raw_panels();
    if (fresh.size() != resident.size() ||
        !std::equal(fresh.begin(), fresh.end(), resident.begin())) {
      return false;
    }
  }
  return true;
}

std::uint64_t ProtectedGemm::corrupt_weights(const fault::MemoryFaultModel& memory,
                                             std::uint64_t op,
                                             std::vector<fault::FlipRecord>* record) {
  if (w8_.empty()) throw std::logic_error("ProtectedGemm: set_weights() not called");
  const std::uint64_t flips =
      memory.corrupt(fault::Component::kWeights, op, w8_.flat(), record);
  if (flips != 0) {
    // The load strike lands before packing: the panels are packed from the
    // corrupted image, so the GEMM consumes it consistently and only the
    // bases (captured from the clean image) can expose the damage.
    w_packed_ = tensor::kernels::pack_b(w8_.data(), w8_.rows(), w8_.cols());
  }
  return flips;
}

std::uint64_t ProtectedGemm::corrupt_panels(const fault::MemoryFaultModel& memory,
                                            std::uint64_t op,
                                            std::vector<fault::FlipRecord>* record) {
  if (w8_.empty()) throw std::logic_error("ProtectedGemm: set_weights() not called");
  return memory.corrupt16(fault::Component::kPackedPanels, op, w_packed_.mutable_panels(),
                          record);
}

ProtectedGemmResult ProtectedGemm::run(const tensor::MatF& a,
                                       const fault::FaultInjector& injector,
                                       util::Rng& rng) const {
  tensor::QuantParams qa{};
  tensor::MatI8 a8;
  {
    // The serving path submits pre-quantized activations, so this span only
    // appears on the float front door.
    const obs::ScopedSpan quant_span(obs::SpanKind::kQuantize);
    qa = tensor::calibrate(a.flat());
    a8 = tensor::quantize(a, qa);
  }
  return run_quantized(a8, qa, injector, rng);
}

ProtectedGemmResult ProtectedGemm::run_quantized(const tensor::MatI8& a8,
                                                 tensor::QuantParams qa,
                                                 const fault::FaultInjector& injector,
                                                 util::Rng& rng) const {
  ProtectedGemmResult result;
  run_quantized_into(a8, qa, injector, rng, result);
  return result;
}

void ProtectedGemm::run_quantized_into(const tensor::MatI8& a8, tensor::QuantParams qa,
                                       const fault::FaultInjector& injector, util::Rng& rng,
                                       ProtectedGemmResult& result,
                                       const fault::MemoryFaultModel* memory,
                                       std::uint64_t op) const {
  if (w8_.empty()) throw std::logic_error("ProtectedGemm: set_weights() not called");
  if (a8.cols() != w8_.rows()) {
    throw std::invalid_argument("ProtectedGemm: activation/weight dim mismatch");
  }

  // Stage spans nest under the caller's tile span via the thread-local trace
  // context (obs/trace.h) — no-ops outside a traced request and compiled out
  // entirely under REALM_TRACE=OFF.
  const bool strike_acts =
      memory != nullptr && memory->enabled(fault::Component::kActivations);
  std::uint64_t activation_flips = 0;
  std::vector<std::int64_t>& predicted_cols = result.predicted_cols;
  const tensor::MatI8* gemm_a = &a8;
  if (strike_acts) {
    // Per-request activation strike: the array consumes a working copy hit
    // by the kActivations stream; the caller's a8 stands in for the golden
    // producer copy. The predicted column checksum comes from that CLEAN
    // copy — the checksum row travels with A from its fault-free producer —
    // so the column screen sees the corruption; the row side (predicted
    // below from the consumed image) is blind to it by construction.
    result.a8_work = a8;
    activation_flips =
        memory->corrupt(fault::Component::kActivations, op, result.a8_work.flat());
    gemm_a = &result.a8_work;
    predicted_cols = tensor::predict_col_checksum(a8, w8_);
    const obs::ScopedSpan gemm_span(obs::SpanKind::kGemm);
    tensor::gemm_i8_prepacked(*gemm_a, w8_, w_packed_, result.acc);
  } else {
    // The fused store-phase reduction of the multiply IS the predicted column
    // checksum: injection perturbs the accumulator only after this line, so
    // the fused sums are eᵀ(A·W) of the true product, which equals (eᵀA)·W
    // exactly (integer checksum identity — cross-checked in the test suite).
    // This models the dedicated fault-free checksum datapath of Fig. 7 and
    // replaces the scalar O(k·n) predict_col_checksum pass.
    const obs::ScopedSpan gemm_span(obs::SpanKind::kGemm);
    tensor::gemm_i8_prepacked(a8, w8_, w_packed_, result.acc, &predicted_cols);
  }
  const fault::InjectionReport injection = injector.inject(result.acc.flat(), rng);

  {
    const obs::ScopedSpan screen_span(obs::SpanKind::kScreen);
    result.report = screen_accumulator(cfg_, predicted_cols, *gemm_a, w_row_basis_, result.acc,
                                       result.dev);
  }
  result.report.injection = injection;
  result.report.component_flips[static_cast<std::size_t>(fault::Component::kAccumulator)] =
      injection.flipped_bits;
  result.report.component_flips[static_cast<std::size_t>(fault::Component::kActivations)] =
      activation_flips;

  if (result.report.verdict == Verdict::kDetected && cfg_.patch_on_detect) {
    // Algebraic in-place correction: solve fault positions and magnitudes
    // from the plain + weighted deviations and patch the accumulator, at
    // O(m·n + m·k + k·d) for d faulted columns instead of the O(m·k·n)
    // replay. try_patch re-screens with the full criteria internally; only a
    // clean recheck claims success.
    const obs::ScopedSpan patch_span(obs::SpanKind::kPatch);
    const correct::PatchResult patched = correct::try_patch(
        cfg_, predicted_cols, a8, w8_, w_row_basis_, w_row_wbasis_, result.acc);
    if (patched.outcome == correct::PatchOutcome::kPatched) {
      result.report.verdict = Verdict::kPatched;
    }
  }
  if (result.report.verdict == Verdict::kDetected && cfg_.recompute_on_detect) {
    // Fault-free replay of the tile; re-screen with the full criteria so a
    // correction is only claimed when the recheck actually comes back clean
    // (a column-only recheck would certify row-detected fault classes it
    // never re-examined). The replay consumes the caller's a8 — on the
    // memory-model path that is a re-fetch of the golden producer copy, so
    // an activation strike is recomputed away just like an accumulator one.
    {
      const obs::ScopedSpan recompute_span(obs::SpanKind::kRecompute);
      tensor::gemm_i8_prepacked(a8, w8_, w_packed_, result.acc);
    }
    const obs::ScopedSpan recheck_span(obs::SpanKind::kRecheck);
    if (screen_accumulator(cfg_, predicted_cols, a8, w_row_basis_, result.acc, result.dev)
            .verdict == Verdict::kClean) {
      result.report.verdict = Verdict::kRecomputed;
    }
  }

  {
    const obs::ScopedSpan dequant_span(obs::SpanKind::kDequantize);
    tensor::dequantize_acc(result.acc, qa, qw_, result.output);
  }
}

std::uint64_t calibrate_msd_threshold(const ProtectedGemm& pg, std::size_t m,
                                      std::size_t golden_runs, util::Rng& rng,
                                      ActivationSpec spec) {
  switch (spec.dist) {
    case ActivationSpec::Dist::kNormal:
      if (!(spec.p1 > 0.0)) {
        throw std::invalid_argument("calibrate_msd_threshold: normal stddev must be > 0");
      }
      break;
    case ActivationSpec::Dist::kUniform:
      if (!(spec.p1 > spec.p0)) {
        throw std::invalid_argument("calibrate_msd_threshold: uniform needs hi > lo");
      }
      break;
  }
  const std::size_t k = pg.weights().rows();
  std::uint64_t worst = 0;
  const fault::NullInjector none;
  for (std::size_t run = 0; run < golden_runs; ++run) {
    tensor::MatF a(m, k);
    for (auto& x : a.flat()) {
      x = static_cast<float>(spec.dist == ActivationSpec::Dist::kNormal
                                 ? rng.normal(spec.p0, spec.p1)
                                 : rng.uniform(spec.p0, spec.p1));
    }
    const ProtectedGemmResult r = pg.run(a, none, rng);
    worst = std::max(worst, r.report.msd_abs);
  }
  return worst;
}

}  // namespace realm::detect
