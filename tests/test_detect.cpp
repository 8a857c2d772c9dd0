#include "detect/detect.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>

#include "realm_test.h"
#include "sa/datapath.h"
#include "tensor/checksum.h"
#include "tensor/gemm.h"
#include "tensor/gemm_kernels.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/threadpool.h"

using namespace realm::detect;
using namespace realm::tensor;
using namespace realm::fault;
using realm::util::Rng;

// Counting global operator new: every allocation of the test binary bumps
// the counter, so a case can pin a code path as allocation-free.
namespace {
std::atomic<std::size_t> g_allocations{0};
std::size_t allocations() { return g_allocations.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

MatF random_f32(std::size_t rows, std::size_t cols, Rng& rng) {
  MatF m(rows, cols);
  for (auto& x : m.flat()) x = static_cast<float>(rng.normal());
  return m;
}

ProtectedGemm make_pg(std::size_t k, std::size_t n, Rng& rng, DetectionConfig cfg = {}) {
  ProtectedGemm pg(cfg);
  pg.set_weights(random_f32(k, n, rng));
  return pg;
}

}  // namespace

REALM_TEST(golden_runs_are_clean) {
  // Checksums are exact integer identities: across many fault-free runs the
  // detector must report zero deviation — zero false positives.
  Rng rng(31);
  ProtectedGemm pg = make_pg(48, 24, rng);
  const NullInjector none;
  for (int trial = 0; trial < 50; ++trial) {
    const ProtectedGemmResult r = pg.run(random_f32(8, 48, rng), none, rng);
    REALM_CHECK(r.report.verdict == Verdict::kClean);
    REALM_CHECK_EQ(r.report.msd_abs, std::uint64_t{0});
    REALM_CHECK(r.report.fault_cols.empty());
    REALM_CHECK(r.report.fault_rows.empty());
  }
  REALM_CHECK_EQ(calibrate_msd_threshold(pg, 8, 20, rng), std::uint64_t{0});
}

REALM_TEST(magfreq_sweep_detects_everything) {
  // The acceptance sweep: every (mag, freq) cell must be flagged with MSD
  // above threshold, and the correction path must restore a clean tile.
  Rng rng(32);
  ProtectedGemm pg = make_pg(64, 32, rng);
  const std::int64_t mags[] = {1, 16, 1 << 10, 1 << 20, -(1 << 15)};
  const std::uint64_t freqs[] = {1, 3, 17};
  int cells = 0;
  for (const auto mag : mags) {
    for (const auto freq : freqs) {
      const MagFreqInjector inj(mag, freq);
      const ProtectedGemmResult r = pg.run(random_f32(16, 64, rng), inj, rng);
      // MagFreq errors all share one sign, so MSD == |freq * mag| exactly.
      REALM_CHECK(r.report.msd_abs > pg.config().msd_threshold);
      REALM_CHECK_EQ(r.report.msd_abs,
                     freq * static_cast<std::uint64_t>(mag < 0 ? -mag : mag));
      REALM_CHECK(corrected(r.report.verdict));
      ++cells;
    }
  }
  REALM_CHECK_EQ(cells, 15);
}

REALM_TEST(localization_intersects_rows_and_columns) {
  Rng rng(33);
  DetectionConfig cfg;
  cfg.patch_on_detect = false;  // keep the corrupted accumulator visible
  cfg.recompute_on_detect = false;
  ProtectedGemm pg = make_pg(32, 16, rng, cfg);

  // Inject a single known error by comparing against the fault-free run.
  const MatF a = random_f32(8, 32, rng);
  const QuantParams qa = calibrate(a.flat());
  const MatI8 a8 = quantize(a, qa);
  const MagFreqInjector inj(1 << 12, 1);
  const ProtectedGemmResult faulty = pg.run_quantized(a8, qa, inj, rng);
  const MatI32 clean = gemm_i8(a8, pg.weights());

  REALM_CHECK(faulty.report.verdict == Verdict::kDetected);
  REALM_CHECK_EQ(faulty.report.fault_cols.size(), std::size_t{1});
  REALM_CHECK_EQ(faulty.report.fault_rows.size(), std::size_t{1});
  const std::size_t row = faulty.report.fault_rows[0];
  const std::size_t col = faulty.report.fault_cols[0];
  // The row x column intersection pinpoints the corrupted element.
  REALM_CHECK_EQ(faulty.acc(row, col) - clean(row, col), 1 << 12);
  REALM_CHECK_EQ(faulty.report.max_dev_pow2, 12);
}

REALM_TEST(correction_recomputes_exact_output) {
  Rng rng(34);
  ProtectedGemm pg = make_pg(40, 20, rng);
  const MatF a = random_f32(6, 40, rng);
  const QuantParams qa = calibrate(a.flat());
  const MatI8 a8 = quantize(a, qa);

  const NullInjector none;
  const ProtectedGemmResult golden = pg.run_quantized(a8, qa, none, rng);
  const MagFreqInjector inj(12345, 5);
  const ProtectedGemmResult corrected = pg.run_quantized(a8, qa, inj, rng);

  REALM_CHECK(realm::detect::corrected(corrected.report.verdict));
  REALM_CHECK(corrected.acc == golden.acc);      // bit-exact healed tile
  REALM_CHECK(corrected.output == golden.output);
  REALM_CHECK_EQ(corrected.report.injection.corrupted_values, std::uint64_t{5});
}

REALM_TEST(calibration_accepts_activation_spec) {
  // Callers describe their activation regime; checksums stay exact integer
  // identities, so every fault-free distribution calibrates to 0 — but a
  // degenerate spec must be rejected loudly, not silently sampled.
  Rng rng(44);
  ProtectedGemm pg = make_pg(24, 12, rng);
  REALM_CHECK_EQ(calibrate_msd_threshold(pg, 4, 5, rng, ActivationSpec::normal(0.0, 3.0)),
                 std::uint64_t{0});
  REALM_CHECK_EQ(calibrate_msd_threshold(pg, 4, 5, rng, ActivationSpec::uniform(-8.0, 8.0)),
                 std::uint64_t{0});
  REALM_CHECK_THROWS(calibrate_msd_threshold(pg, 4, 5, rng, ActivationSpec::normal(0.0, 0.0)),
                     std::invalid_argument);
  REALM_CHECK_THROWS(calibrate_msd_threshold(pg, 4, 5, rng, ActivationSpec::uniform(1.0, 1.0)),
                     std::invalid_argument);
}

REALM_TEST(msd_only_mode_and_thresholding) {
  Rng rng(35);
  DetectionConfig cfg;
  cfg.mode = CheckMode::kMsdOnly;
  cfg.msd_threshold = 1000;
  cfg.patch_on_detect = false;
  cfg.recompute_on_detect = false;
  ProtectedGemm pg = make_pg(32, 16, rng, cfg);
  const MatF a = random_f32(4, 32, rng);
  const QuantParams qa = calibrate(a.flat());
  const MatI8 a8 = quantize(a, qa);

  // Below threshold: slips past the one-sided MSD check.
  const ProtectedGemmResult below =
      pg.run_quantized(a8, qa, MagFreqInjector(500, 1), rng);
  REALM_CHECK(below.report.verdict == Verdict::kClean);
  REALM_CHECK_EQ(below.report.msd_abs, std::uint64_t{500});
  REALM_CHECK(below.report.fault_cols.empty());  // no localization in MSD-only

  // Above threshold: detected even without per-column checks.
  const ProtectedGemmResult above =
      pg.run_quantized(a8, qa, MagFreqInjector(2000, 1), rng);
  REALM_CHECK(above.report.verdict == Verdict::kDetected);
}

namespace {

/// Opposite-sign errors in one column: zero per-column deviation, zero MSD —
/// invisible to every column-side statistic, caught only by the row checks.
class CancellingPairInjector final : public FaultInjector {
 public:
  explicit CancellingPairInjector(std::size_t stride) : stride_(stride) {}
  InjectionReport inject(std::span<std::int32_t> data, realm::util::Rng&,
                         std::vector<realm::fault::FlipRecord>* record) const override {
    if (record != nullptr) record->clear();
    data[0] += 1 << 20;        // element (0, 0)
    data[stride_] -= 1 << 20;  // element (1, 0)
    return {.flipped_bits = 2, .corrupted_values = 2};
  }

 private:
  std::size_t stride_;
};

}  // namespace

REALM_TEST(column_cancelling_fault_caught_by_rows) {
  Rng rng(39);
  ProtectedGemm pg = make_pg(32, 16, rng);
  const MatF a = random_f32(4, 32, rng);
  const QuantParams qa = calibrate(a.flat());
  const CancellingPairInjector inj(pg.weights().cols());
  const ProtectedGemmResult r = pg.run_quantized(quantize(a, qa), qa, inj, rng);
  REALM_CHECK_EQ(r.report.msd_abs, std::uint64_t{0});  // column side is blind
  REALM_CHECK(r.report.fault_cols.empty());
  REALM_CHECK_EQ(r.report.fault_rows.size(), std::size_t{2});
  REALM_CHECK(corrected(r.report.verdict));  // rows flag + heal (patch or replay)
}

REALM_TEST(screen_accumulator_matches_pipeline_verdict) {
  // The exposed screen is the SAME code path the pipeline runs internally:
  // re-screening a run's accumulator with the recomputed predicted checksum
  // must reproduce the pipeline's verdict field for field (sans injection) —
  // the contract the realm::sa reference comparison stands on.
  Rng rng(42);
  DetectionConfig cfg;
  cfg.patch_on_detect = false;  // keep the faulted accumulator visible
  cfg.recompute_on_detect = false;
  ProtectedGemm pg = make_pg(32, 24, rng, cfg);
  const MatF a = random_f32(8, 32, rng);
  const QuantParams qa = calibrate(a.flat());
  const MatI8 a8 = quantize(a, qa);

  for (const std::int64_t mag : {std::int64_t{0}, std::int64_t{1} << 18}) {
    const NullInjector none;
    const MagFreqInjector inj(1 << 18, 2);
    const FaultInjector& active = mag == 0 ? static_cast<const FaultInjector&>(none) : inj;
    const ProtectedGemmResult r = pg.run_quantized(a8, qa, active, rng);

    const std::vector<std::int64_t> predicted = predict_col_checksum(a8, pg.weights());
    const DetectionVerdict v =
        screen_accumulator(pg.config(), predicted, a8, pg.weight_row_basis(), r.acc);
    REALM_CHECK(v.verdict == r.report.verdict);
    REALM_CHECK_EQ(v.msd_signed, r.report.msd_signed);
    REALM_CHECK_EQ(v.msd_abs, r.report.msd_abs);
    REALM_CHECK_EQ(v.max_dev_pow2, r.report.max_dev_pow2);
    REALM_CHECK(v.fault_cols == r.report.fault_cols);
    REALM_CHECK(v.fault_rows == r.report.fault_rows);
  }

  // A corrected pipeline run re-screens clean: the standalone screen on its
  // (recomputed) accumulator must agree.
  DetectionConfig fix;
  ProtectedGemm pg_fix(fix);
  pg_fix.set_weights_quantized(pg.weights(), pg.weight_params());
  const ProtectedGemmResult corrected =
      pg_fix.run_quantized(a8, qa, MagFreqInjector(1 << 18, 2), rng);
  REALM_CHECK(realm::detect::corrected(corrected.report.verdict));
  const std::vector<std::int64_t> predicted = predict_col_checksum(a8, pg_fix.weights());
  REALM_CHECK(screen_accumulator(pg_fix.config(), predicted, a8, pg_fix.weight_row_basis(),
                                 corrected.acc)
                  .verdict == Verdict::kClean);
}

REALM_TEST(detect_roc_over_random_bitflips) {
  // High-bit random flips (the paper's timing-error regime) must all be
  // caught by the two-sided check; report-level sanity on the sweep.
  Rng rng(37);
  ProtectedGemm pg = make_pg(64, 32, rng);
  const RandomBitFlipInjector inj(1e-4, 24, 31);
  int injected_runs = 0, detected_runs = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const ProtectedGemmResult r = pg.run(random_f32(16, 64, rng), inj, rng);
    if (r.report.injection.flipped_bits == 0) {
      REALM_CHECK(r.report.verdict == Verdict::kClean);
      continue;
    }
    ++injected_runs;
    if (r.report.faulty()) ++detected_runs;
  }
  REALM_CHECK(injected_runs > 0);
  REALM_CHECK_EQ(detected_runs, injected_runs);  // 100% detection, column-exact
}

namespace {

/// Flips exactly one high bit of one fixed element — the minimal fault the
/// end-to-end pipeline must detect, localize, and correct.
class OneBitFlipAt final : public FaultInjector {
 public:
  OneBitFlipAt(std::size_t index, int bit) : index_(index), bit_(bit) {}
  InjectionReport inject(std::span<std::int32_t> data, realm::util::Rng&,
                         std::vector<realm::fault::FlipRecord>* record) const override {
    if (record != nullptr) record->clear();
    data[index_] ^= std::int32_t{1} << bit_;
    return {.flipped_bits = 1, .corrupted_values = 1};
  }

 private:
  std::size_t index_;
  int bit_;
};

/// Restores the serial default even when a REALM_CHECK throws mid-case, so a
/// failure can't leak an 8-thread pool into the remaining cases.
struct SerialGuard {
  ~SerialGuard() { realm::util::set_global_threads(1); }
};

}  // namespace

REALM_TEST(fast_path_detects_and_corrects_with_threads_on_and_off) {
  // End-to-end on the dispatched kernel: detection screens whatever tier
  // actually serves production GEMMs (the fastest supported one unless
  // REALM_KERNEL overrides), and the verdict, localization, and corrected
  // bits must be identical at every thread count.
  Rng rng(40);
  SerialGuard guard;
  ProtectedGemm pg = make_pg(96, 64, rng);
  const MatF a = random_f32(32, 96, rng);
  const QuantParams qa = calibrate(a.flat());
  const MatI8 a8 = quantize(a, qa);
  const std::size_t faulty_index = 7 * 64 + 21;  // element (7, 21)
  const OneBitFlipAt inj(faulty_index, 28);
  const NullInjector none;

  realm::util::set_global_threads(1);
  const ProtectedGemmResult golden = pg.run_quantized(a8, qa, none, rng);
  const ProtectedGemmResult serial = pg.run_quantized(a8, qa, inj, rng);
  REALM_CHECK(serial.report.verdict == Verdict::kPatched);  // lone flip: patched in place
  REALM_CHECK(serial.acc == golden.acc);

  // Localization from a detect-only config, serial vs threaded.
  DetectionConfig no_fix;
  no_fix.patch_on_detect = false;
  no_fix.recompute_on_detect = false;
  ProtectedGemm pg_loc(no_fix);
  pg_loc.set_weights_quantized(pg.weights(), pg.weight_params());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    realm::util::set_global_threads(threads);
    const ProtectedGemmResult fixed = pg.run_quantized(a8, qa, inj, rng);
    REALM_CHECK(fixed.report.verdict == Verdict::kPatched);
    REALM_CHECK(fixed.acc == golden.acc);       // corrected bits identical
    REALM_CHECK(fixed.output == golden.output);
    const ProtectedGemmResult located = pg_loc.run_quantized(a8, qa, inj, rng);
    REALM_CHECK(located.report.verdict == Verdict::kDetected);
    REALM_CHECK_EQ(located.report.fault_rows.size(), std::size_t{1});
    REALM_CHECK_EQ(located.report.fault_cols.size(), std::size_t{1});
    REALM_CHECK_EQ(located.report.fault_rows[0], std::size_t{7});
    REALM_CHECK_EQ(located.report.fault_cols[0], std::size_t{21});
  }
}

REALM_TEST(misuse_is_rejected) {
  ProtectedGemm pg;
  Rng rng(38);
  const NullInjector none;
  REALM_CHECK_THROWS(pg.run(MatF(2, 2, 1.0f), none, rng), std::logic_error);
  pg.set_weights(MatF(4, 4, 1.0f));
  REALM_CHECK_THROWS(pg.run(MatF(2, 5, 1.0f), none, rng), std::invalid_argument);

  // The standalone screen rejects misshapen inputs instead of reading past
  // a buffer: more activation rows than accumulator rows (the row side),
  // a predicted column checksum of the wrong length, and a basis that does
  // not match the activation width.
  const MatI8 tall(64, 8, 1);
  const std::vector<std::int64_t> basis8(8, 0), basis5(5, 0), cols4(4, 0), cols3(3, 0);
  const MatI32 acc(2, 4, 0);
  const DetectionConfig two_sided{};
  DetectionConfig msd_only;
  msd_only.mode = CheckMode::kMsdOnly;
  REALM_CHECK_THROWS(screen_accumulator(two_sided, cols4, tall, basis8, acc),
                     std::invalid_argument);
  REALM_CHECK_THROWS(screen_accumulator(two_sided, cols3, MatI8(2, 8, 1), basis8, acc),
                     std::invalid_argument);
  REALM_CHECK_THROWS(screen_accumulator(two_sided, cols4, MatI8(2, 8, 1), basis5, acc),
                     std::invalid_argument);
  REALM_CHECK_THROWS(screen_accumulator(msd_only, cols3, tall, basis8, acc),
                     std::invalid_argument);
  // One-sided screens never read the activations: only the columns matter.
  REALM_CHECK(screen_accumulator(msd_only, cols4, tall, basis8, acc).verdict == Verdict::kClean);
  REALM_CHECK(screen_accumulator(two_sided, cols4, MatI8(2, 8, 1), basis8, acc).verdict ==
              Verdict::kClean);
}

REALM_TEST(recycled_screen_makes_no_allocations) {
  // With caller-owned deviations recycled across calls, a clean-tile screen
  // allocates nothing after the first call — in both check modes, and for
  // the reduced-width sa screen with a recycled ScreenScratch. Only the
  // screen is counted; the GEMM that produced the accumulator runs outside.
  Rng rng(44);
  const MatF w = random_f32(96, 80, rng);
  const MatF a = random_f32(12, 96, rng);
  const QuantParams qa = calibrate(a.flat());
  const MatI8 a8 = quantize(a, qa);
  constexpr int kCalls = 16;
  for (const CheckMode mode : {CheckMode::kMsdOnly, CheckMode::kTwoSided}) {
    DetectionConfig cfg;
    cfg.mode = mode;
    ProtectedGemm pg(cfg);
    pg.set_weights(w);
    const std::vector<std::int64_t> predicted = predict_col_checksum(a8, pg.weights());
    const MatI32 acc = gemm_i8(a8, pg.weights());
    Deviations dev;
    bool all_clean =
        screen_accumulator(cfg, predicted, a8, pg.weight_row_basis(), acc, dev).verdict ==
        Verdict::kClean;
    const std::size_t before = allocations();
    for (int call = 0; call < kCalls; ++call) {
      all_clean = all_clean &&
                  screen_accumulator(cfg, predicted, a8, pg.weight_row_basis(), acc, dev)
                          .verdict == Verdict::kClean;
    }
    const std::size_t made = allocations() - before;
    REALM_CHECK(all_clean);
    REALM_CHECK_EQ(made, std::size_t{0});
  }

  ProtectedGemm pg;
  pg.set_weights(w);
  const MatI32 truth = gemm_i8(a8, pg.weights());
  realm::sa::ScreenScratch scratch;
  for (const realm::sa::DatapathConfig& dp :
       {realm::sa::DatapathConfig{16, realm::sa::Overflow::kWrap, 0, true},
        realm::sa::DatapathConfig{24, realm::sa::Overflow::kSaturate, 0, true},
        realm::sa::DatapathConfig{64, realm::sa::Overflow::kSaturate, 0, false}}) {
    bool all_clean = !realm::sa::screen_into(truth, truth, dp, scratch).flagged;
    const std::size_t before = allocations();
    for (int call = 0; call < kCalls; ++call) {
      all_clean = all_clean && !realm::sa::screen_into(truth, truth, dp, scratch).flagged;
    }
    const std::size_t made = allocations() - before;
    REALM_CHECK(all_clean);
    REALM_CHECK_EQ(made, std::size_t{0});
  }
}

REALM_TEST(recycled_clean_tile_makes_no_allocations) {
  // The whole clean-tile pipeline (GEMM with its A pack and fused column
  // sums, screen, dequantize) allocates nothing once a recycled result and
  // the calling thread's GEMM scratch have seen the shape. The kernel pool is
  // pinned to one thread, as on a serving worker, where every tile's GEMM
  // runs inline; a wider pool would warm each worker's scratch on whichever
  // call first hands it a chunk.
  struct Restore {
    std::size_t threads = realm::util::global_threads();
    kernels::Tier tier = kernels::active_tier();
    ~Restore() {
      realm::util::set_global_threads(threads);
      kernels::set_active_tier(tier);
    }
  } restore;
  realm::util::set_global_threads(1);
  Rng rng(45);
  // n = 72 leaves a ragged last panel on both SIMD tiers.
  const MatF w = random_f32(200, 72, rng);
  const NullInjector none;
  constexpr int kCalls = 8;
  for (const kernels::Tier tier :
       {kernels::Tier::kPortable, kernels::Tier::kAvx2, kernels::Tier::kAvx512}) {
    if (tier > kernels::best_supported_tier()) continue;
    kernels::set_active_tier(tier);  // before set_weights, which packs for it
    for (const CheckMode mode : {CheckMode::kMsdOnly, CheckMode::kTwoSided}) {
      DetectionConfig cfg;
      cfg.mode = mode;
      ProtectedGemm pg(cfg);
      pg.set_weights(w);
      for (const std::size_t m : {1, 8, 16}) {
        const MatF a = random_f32(m, 200, rng);
        const QuantParams qa = calibrate(a.flat());
        const MatI8 a8 = quantize(a, qa);
        ProtectedGemmResult result;
        pg.run_quantized_into(a8, qa, none, rng, result);
        bool all_clean = result.report.verdict == Verdict::kClean;
        const std::size_t before = allocations();
        for (int call = 0; call < kCalls; ++call) {
          pg.run_quantized_into(a8, qa, none, rng, result);
          all_clean = all_clean && result.report.verdict == Verdict::kClean;
        }
        const std::size_t made = allocations() - before;
        REALM_CHECK(all_clean);
        REALM_CHECK_EQ(made, std::size_t{0});
      }
    }
  }
}

REALM_TEST_MAIN()
