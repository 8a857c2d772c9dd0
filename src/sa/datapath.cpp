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

/// Width-limited weighted line sums: out[line] = Σ pos·x routed through a Reg
/// of the datapath's width, accumulated in the array's drain order (ascending
/// row index for columns, ascending column index for rows) — the order the
/// saturating datapath pins; wrap is order-free so it costs nothing there.
void weighted_col_sums_width(const tensor::MatI32& m, const DatapathConfig& cfg,
                             std::vector<std::int64_t>& out) {
  out.resize(m.cols());
  for (std::size_t j = 0; j < m.cols(); ++j) {
    Reg reg(cfg.bits, cfg.overflow);
    for (std::size_t i = 0; i < m.rows(); ++i) {
      reg.add(static_cast<std::int64_t>(i + 1) * m(i, j));
    }
    out[j] = reg.value();
  }
}

void weighted_row_sums_width(const tensor::MatI32& m, const DatapathConfig& cfg,
                             std::vector<std::int64_t>& out) {
  out.resize(m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    Reg reg(cfg.bits, cfg.overflow);
    for (std::size_t j = 0; j < m.cols(); ++j) {
      reg.add(static_cast<std::int64_t>(j + 1) * m(i, j));
    }
    out[i] = reg.value();
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
  if (overflow_ == Overflow::kWrap) {
    // realm-lint: allow(sat-math): models the wrap datapath itself — mod-2^64 on purpose
    const std::uint64_t s = static_cast<std::uint64_t>(value_) + static_cast<std::uint64_t>(x);
    value_ = util::wrap_to_bits(static_cast<std::int64_t>(s), bits_);
  } else {
    value_ = util::clamp_to_bits(util::sat_add_i64(value_, x), bits_);
  }
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

  ScreenResult res;
  res.bits = cfg.bits;
  res.overflow = cfg.overflow;

  // Column side: both checksum rows run at the reduced width — the predicted
  // registers see the fault-free partial sums (Fig. 7's dedicated datapath),
  // the observed registers re-read the possibly-faulted accumulator.
  scratch.pred_cols.resize(truth.cols());
  scratch.obs_cols.resize(truth.cols());
  tensor::kernels::col_sums_i32_width(truth.data(), truth.rows(), truth.cols(), cfg.bits, sat,
                                      scratch.pred_cols.data());
  tensor::kernels::col_sums_i32_width(faulted.data(), faulted.rows(), faulted.cols(), cfg.bits,
                                      sat, scratch.obs_cols.data());
  Reg msd(cfg.bits, cfg.overflow);
  for (std::size_t j = 0; j < truth.cols(); ++j) {
    const std::int64_t d =
        util::width_sub(scratch.obs_cols[j], scratch.pred_cols[j], cfg.bits, sat);
    if (d != 0) ++res.nonzero_cols;
    msd.add(d);
  }
  res.msd = msd.value();
  res.col_flagged = util::abs_u64(res.msd) > cfg.msd_threshold;
  if (cfg.two_sided) res.col_flagged = res.col_flagged || res.nonzero_cols > 0;

  // Row side (two-sided only, like the reference pipeline).
  if (cfg.two_sided) {
    scratch.pred_rows.resize(truth.rows());
    scratch.obs_rows.resize(truth.rows());
    tensor::kernels::row_sums_i32_width(truth.data(), truth.rows(), truth.cols(), cfg.bits, sat,
                                        scratch.pred_rows.data());
    tensor::kernels::row_sums_i32_width(faulted.data(), faulted.rows(), faulted.cols(), cfg.bits,
                                        sat, scratch.obs_rows.data());
    for (std::size_t r = 0; r < truth.rows(); ++r) {
      if (util::width_sub(scratch.obs_rows[r], scratch.pred_rows[r], cfg.bits, sat) != 0) {
        ++res.nonzero_rows;
      }
    }
    res.row_flagged = res.nonzero_rows > 0;
  }

  res.flagged = res.col_flagged || res.row_flagged;
  return res;
}

bool simulate_patch(const tensor::MatI32& truth, const tensor::MatI32& faulted,
                    const DatapathConfig& cfg) {
  check_bits(cfg.bits);
  if (truth.rows() != faulted.rows() || truth.cols() != faulted.cols()) {
    throw std::invalid_argument("sa::simulate_patch: truth/faulted shape mismatch");
  }
  const std::size_t m = truth.rows();
  const std::size_t n = truth.cols();
  const bool sat = cfg.overflow == Overflow::kSaturate;

  // Plain deviations through the same width-limited kernels the screen uses;
  // weighted deviations through the ordered Reg drains above.
  std::vector<std::int64_t> pred_cols(n), obs_cols(n), pred_rows(m), obs_rows(m);
  tensor::kernels::col_sums_i32_width(truth.data(), m, n, cfg.bits, sat, pred_cols.data());
  tensor::kernels::col_sums_i32_width(faulted.data(), m, n, cfg.bits, sat, obs_cols.data());
  tensor::kernels::row_sums_i32_width(truth.data(), m, n, cfg.bits, sat, pred_rows.data());
  tensor::kernels::row_sums_i32_width(faulted.data(), m, n, cfg.bits, sat, obs_rows.data());
  std::vector<std::int64_t> wpred_cols, wobs_cols, wpred_rows, wobs_rows;
  weighted_col_sums_width(truth, cfg, wpred_cols);
  weighted_col_sums_width(faulted, cfg, wobs_cols);
  weighted_row_sums_width(truth, cfg, wpred_rows);
  weighted_row_sums_width(faulted, cfg, wobs_rows);

  std::vector<std::int64_t> dc(n), wdc(n), dr(m), wdr(m);
  for (std::size_t j = 0; j < n; ++j) {
    dc[j] = util::width_sub(obs_cols[j], pred_cols[j], cfg.bits, sat);
    wdc[j] = util::width_sub(wobs_cols[j], wpred_cols[j], cfg.bits, sat);
  }
  for (std::size_t i = 0; i < m; ++i) {
    dr[i] = util::width_sub(obs_rows[i], pred_rows[i], cfg.bits, sat);
    wdr[i] = util::width_sub(wobs_rows[i], wpred_rows[i], cfg.bits, sat);
  }

  // The corrector's own solve, with every residual update kept in width
  // arithmetic. A wrapped deviation that still divides exactly mis-solves;
  // the truth comparison below catches it.
  tensor::MatI32 patched = faulted;
  for (const detect::correct::Patch& p :
       detect::correct::solve_patches(dc, wdc, std::move(dr), std::move(wdr), faulted, cfg.bits,
                                      sat)) {
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
