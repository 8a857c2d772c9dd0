#include "sa/datapath.h"

#include <stdexcept>
#include <utility>

#include "detect/correct.h"
#include "tensor/checksum_kernels.h"
#include "tensor/gemm.h"

namespace realm::sa {

namespace {

void check_bits(int bits) {
  if (bits < 1 || bits > 64) {
    throw std::invalid_argument("sa: register width must be in [1, 64]");
  }
}

/// This model characterizes detection and simulated correction; it never
/// patches or replays a flagged tile in place.
detect::DetectionConfig reference_screen_cfg(detect::DetectionConfig cfg) {
  cfg.patch_on_detect = false;
  cfg.recompute_on_detect = false;
  return cfg;
}

/// Width-limited weighted deviations, observed − predicted, per column
/// (`by_col`: Σ_i (i+1)·x(i, j)) or per row (Σ_j (j+1)·x(i, j)). Both sides
/// drain through Regs of the datapath's width in the array's drain order
/// (ascending row index for columns, ascending column index for rows) — the
/// order the saturating datapath pins; wrap is order-free.
void weighted_deviations_width(const tensor::MatI32& truth, const tensor::MatI32& faulted,
                               const DatapathConfig& cfg, bool by_col,
                               std::vector<std::int64_t>& out) {
  const std::size_t n = truth.cols();
  const std::size_t lines = by_col ? n : truth.rows();
  const std::size_t len = by_col ? truth.rows() : n;
  const std::size_t line_step = by_col ? 1 : n;
  const std::size_t pos_step = by_col ? n : 1;
  out.resize(lines);
  for (std::size_t l = 0; l < lines; ++l) {
    Reg pred(cfg.bits, cfg.overflow);
    Reg obs(cfg.bits, cfg.overflow);
    for (std::size_t p = 0; p < len; ++p) {
      const std::size_t at = l * line_step + p * pos_step;
      const auto pos = static_cast<std::int64_t>(p + 1);
      pred.add(pos * truth.data()[at]);
      obs.add(pos * faulted.data()[at]);
    }
    out[l] = util::width_sub(obs.value(), pred.value(), cfg.bits,
                             cfg.overflow == Overflow::kSaturate);
  }
}

/// The predicted-side registers: width-limited column (and, when `rows`,
/// row) drains of the fault-free product. `pred_rows` is left empty
/// otherwise, which screens the column side only.
void predict_width(const tensor::MatI32& truth, const DatapathConfig& cfg, bool rows,
                   std::vector<std::int64_t>& pred_cols, std::vector<std::int64_t>& pred_rows) {
  const bool sat = cfg.overflow == Overflow::kSaturate;
  pred_cols.resize(truth.cols());
  tensor::kernels::col_sums_i32_width(truth.data(), truth.rows(), truth.cols(), cfg.bits, sat,
                                      pred_cols.data());
  pred_rows.resize(rows ? truth.rows() : 0);
  if (rows) {
    tensor::kernels::row_sums_i32_width(truth.data(), truth.rows(), truth.cols(), cfg.bits, sat,
                                        pred_rows.data());
  }
}

}  // namespace

const char* to_string(Overflow o) noexcept {
  switch (o) {
    case Overflow::kWrap: return "wrap";
    case Overflow::kSaturate: return "saturate";
  }
  return "?";
}

Reg::Reg(int bits, Overflow overflow) : bits_(bits), overflow_(overflow) { check_bits(bits); }

void Reg::add(std::int64_t x) noexcept {
  value_ = util::width_add(value_, x, bits_, overflow_ == Overflow::kSaturate);
}

ScreenResult screen(const tensor::MatI32& truth, const tensor::MatI32& faulted,
                    const DatapathConfig& cfg) {
  ScreenScratch scratch;
  return screen_into(truth, faulted, cfg, scratch);
}

ScreenResult screen_into(const tensor::MatI32& truth, const tensor::MatI32& faulted,
                         const DatapathConfig& cfg, ScreenScratch& scratch) {
  check_bits(cfg.bits);
  if (truth.rows() != faulted.rows() || truth.cols() != faulted.cols()) {
    throw std::invalid_argument("sa::screen: truth/faulted shape mismatch");
  }
  const bool sat = cfg.overflow == Overflow::kSaturate;

  // The predicted registers drain the fault-free partial sums (Fig. 7's
  // dedicated datapath) at the reduced width; the one screen re-reads the
  // faulted accumulator through registers of the same width.
  predict_width(truth, cfg, cfg.two_sided, scratch.pred_cols, scratch.dev.pred_rows);
  const detect::ScreenStats stats = detect::screen_deviations(
      scratch.pred_cols, scratch.dev.pred_rows, faulted, cfg.bits, sat, scratch.dev);

  ScreenResult res;
  res.bits = cfg.bits;
  res.overflow = cfg.overflow;
  res.msd = stats.msd;
  res.nonzero_cols = stats.nonzero_cols;
  res.nonzero_rows = stats.nonzero_rows;
  res.col_flagged = util::abs_u64(res.msd) > cfg.msd_threshold;
  if (cfg.two_sided) res.col_flagged = res.col_flagged || res.nonzero_cols > 0;
  res.row_flagged = res.nonzero_rows > 0;  // two_sided only: rows unscreened otherwise
  res.flagged = res.col_flagged || res.row_flagged;
  return res;
}

bool simulate_patch(const tensor::MatI32& truth, const tensor::MatI32& faulted,
                    const DatapathConfig& cfg) {
  check_bits(cfg.bits);
  if (truth.rows() != faulted.rows() || truth.cols() != faulted.cols()) {
    throw std::invalid_argument("sa::simulate_patch: truth/faulted shape mismatch");
  }
  const bool sat = cfg.overflow == Overflow::kSaturate;

  // Plain deviations through the one screen, rows always on (localization
  // needs both sides); weighted deviations through the ordered Reg drains.
  std::vector<std::int64_t> pred_cols;
  detect::Deviations dev;
  predict_width(truth, cfg, /*rows=*/true, pred_cols, dev.pred_rows);
  static_cast<void>(
      detect::screen_deviations(pred_cols, dev.pred_rows, faulted, cfg.bits, sat, dev));
  weighted_deviations_width(truth, faulted, cfg, /*by_col=*/true, dev.wdc);
  weighted_deviations_width(truth, faulted, cfg, /*by_col=*/false, dev.wdr);

  // The corrector's own solve, with every residual update kept in width
  // arithmetic. A wrapped deviation that still divides exactly mis-solves;
  // the truth comparison below catches it.
  tensor::MatI32 patched = faulted;
  for (const detect::correct::Patch& p :
       detect::correct::solve_patches(dev.dc, dev.wdc, std::move(dev.dr), std::move(dev.wdr),
                                      faulted, cfg.bits, sat)) {
    patched(p.row, p.col) = p.value;
  }
  return patched == truth;
}

SaProtectedGemm::SaProtectedGemm(std::vector<DatapathConfig> datapaths,
                                 detect::DetectionConfig reference_cfg)
    : datapaths_(std::move(datapaths)), ref_(reference_screen_cfg(reference_cfg)) {
  for (const auto& d : datapaths_) check_bits(d.bits);
}

void SaProtectedGemm::set_weights_quantized(tensor::MatI8 w8, tensor::QuantParams qw) {
  ref_.set_weights_quantized(std::move(w8), qw);
}

SaRunResult SaProtectedGemm::run(const tensor::MatI8& a8, const fault::FaultInjector& injector,
                                 util::Rng& rng) const {
  SaRunResult result;
  SaRunScratch scratch;
  run_into(a8, injector, rng, result, scratch);
  return result;
}

void SaProtectedGemm::run_into(const tensor::MatI8& a8, const fault::FaultInjector& injector,
                               util::Rng& rng, SaRunResult& result,
                               SaRunScratch& scratch) const {
  if (ref_.weights().empty()) {
    throw std::logic_error("SaProtectedGemm: set_weights_quantized() not called");
  }
  if (a8.cols() != ref_.weights().rows()) {
    throw std::invalid_argument("SaProtectedGemm: activation/weight dim mismatch");
  }

  // One multiply; the fused store-phase reduction is the exact (eᵀA)·W for
  // the reference screen (same argument as ProtectedGemm: injection perturbs
  // the accumulator only after this line).
  tensor::gemm_i8_prepacked(a8, ref_.weights(), ref_.weight_panels(), scratch.truth,
                            &scratch.predicted_cols);
  scratch.faulted = scratch.truth;  // reuses capacity on steady-state shapes
  const fault::InjectionReport injection = injector.inject(scratch.faulted.flat(), rng,
                                                           &result.flips);

  // Ground truth is the NET effect: flips that cancel (two upsets on one bit)
  // leave the accumulator clean, and a screen that stays quiet then must not
  // be scored as a miss. Count DISTINCT corrupted elements — several flips
  // can land in one element, and the single-fault class (faulty_elems == 1)
  // is what the full-width patch-rate gate pins.
  result.faulty_elems = 0;
  for (std::size_t f = 0; f < result.flips.size(); ++f) {
    const auto idx = static_cast<std::size_t>(result.flips[f].index);
    if (scratch.faulted.flat()[idx] == scratch.truth.flat()[idx]) continue;
    bool seen = false;
    for (std::size_t g = 0; g < f; ++g) {
      seen = seen || static_cast<std::size_t>(result.flips[g].index) == idx;
    }
    if (!seen) ++result.faulty_elems;
  }
  result.truth_faulty = result.faulty_elems > 0;

  result.reference = detect::screen_accumulator(ref_.config(), scratch.predicted_cols, a8,
                                                ref_.weight_row_basis(), scratch.faulted);
  result.reference.injection = injection;
  // Full-width patch simulation: exact deviations, so this is what the int64
  // in-place corrector achieves on this trial (single faults always heal).
  result.reference_patched =
      result.truth_faulty && result.reference.faulty() &&
      simulate_patch(scratch.truth, scratch.faulted, DatapathConfig{64, Overflow::kWrap, 0, true});

  result.by_width.resize(datapaths_.size());
  for (std::size_t i = 0; i < datapaths_.size(); ++i) {
    result.by_width[i] = screen_into(scratch.truth, scratch.faulted, datapaths_[i], scratch.screen);
    result.by_width[i].patched =
        result.truth_faulty && result.by_width[i].flagged &&
        simulate_patch(scratch.truth, scratch.faulted, datapaths_[i]);
  }
}

}  // namespace realm::sa
