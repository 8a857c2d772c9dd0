#include "serve/tile_grid.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "fault/memory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/gemm.h"

namespace realm::serve {

namespace {

/// Severity order for the worst-wins merge: an uncorrected detection outranks
/// either certified correction, and the recompute replay (the latency cliff)
/// outranks the in-place patch, which outranks clean.
int severity(detect::Verdict v) noexcept {
  switch (v) {
    case detect::Verdict::kClean: return 0;
    case detect::Verdict::kPatched: return 1;
    case detect::Verdict::kRecomputed: return 2;
    case detect::Verdict::kDetected: return 3;
  }
  return 0;
}

}  // namespace

void BatchVerdict::reset() noexcept {
  verdict = detect::Verdict::kClean;
  tiles = tiles_clean = tiles_detected = tiles_patched = tiles_recomputed = 0;
  msd_abs_max = 0;
  max_dev_pow2 = 0;
  fault_cols.clear();
  fault_rows.clear();
  injection = {};
  component_flips = {};
}

void BatchVerdict::merge_tile(const detect::DetectionVerdict& v, std::size_t col_origin) {
  ++tiles;
  switch (v.verdict) {
    case detect::Verdict::kClean: ++tiles_clean; break;
    case detect::Verdict::kDetected: ++tiles_detected; break;
    case detect::Verdict::kPatched: ++tiles_patched; break;
    case detect::Verdict::kRecomputed: ++tiles_recomputed; break;
  }
  if (severity(v.verdict) > severity(verdict)) verdict = v.verdict;
  msd_abs_max = std::max(msd_abs_max, v.msd_abs);
  max_dev_pow2 = std::max(max_dev_pow2, v.max_dev_pow2);
  for (const std::size_t c : v.fault_cols) fault_cols.push_back(col_origin + c);
  fault_rows.insert(fault_rows.end(), v.fault_rows.begin(), v.fault_rows.end());
  injection.flipped_bits += v.injection.flipped_bits;
  injection.corrupted_values += v.injection.corrupted_values;
  for (std::size_t i = 0; i < fault::kComponentCount; ++i) {
    component_flips[i] += v.component_flips[i];
  }
}

void BatchVerdict::finalize() {
  std::sort(fault_rows.begin(), fault_rows.end());
  fault_rows.erase(std::unique(fault_rows.begin(), fault_rows.end()), fault_rows.end());
}

TileGrid::TileGrid(const tensor::MatI8& w8, tensor::QuantParams qw, TileGridConfig cfg)
    : cfg_(cfg) {
  build(w8, qw);
}

void TileGrid::emit_instant(obs::SpanKind kind, std::size_t t) const {
  if constexpr (obs::kTraceCompiledIn) {
    if (cfg_.tracer == nullptr) return;
    obs::Event e;
    e.span_id = obs::span_id(0, static_cast<std::int32_t>(t), kind);
    e.t_start_ns = e.t_end_ns = cfg_.tracer->now_ns();
    e.tile = static_cast<std::int32_t>(t);
    e.kind = kind;
    cfg_.tracer->record_control(e);
  }
}

void TileGrid::build(const tensor::MatI8& w8, tensor::QuantParams qw) {
  if (w8.empty()) throw std::invalid_argument("TileGrid: empty weights");
  if (cfg_.tile_cols == 0) throw std::invalid_argument("TileGrid: tile_cols must be >= 1");
  if (cfg_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *cfg_.metrics;
    met_.swaps = &reg.counter("realm_grid_swaps_total", "Hot-swap tile installs (scrub passed).");
    met_.scrub_rejects = &reg.counter("realm_grid_scrub_rejects_total",
                                      "Hot-swap candidates rejected by the weight scrub.");
    met_.swap_epoch = &reg.gauge("realm_grid_swap_epoch", "Monotone swap-install epoch.");
    for (std::size_t i = 0; i < fault::kComponentCount; ++i) {
      const auto c = static_cast<fault::Component>(i);
      met_.memory_flips[i] =
          &reg.counter("realm_grid_memory_flips_total",
                       "Load/rest-time memory-fault bit flips by component.",
                       std::string("component=\"") + fault::to_string(c) + "\"");
    }
  }
  rows_ = w8.rows();
  cols_ = w8.cols();
  const std::size_t ntiles = (cols_ + cfg_.tile_cols - 1) / cfg_.tile_cols;
  tiles_.reserve(ntiles);
  origins_.reserve(ntiles);
  widths_.reserve(ntiles);
  for (std::size_t origin = 0; origin < cols_; origin += cfg_.tile_cols) {
    const std::size_t width = std::min(cfg_.tile_cols, cols_ - origin);
    tensor::MatI8 slice(rows_, width);
    for (std::size_t r = 0; r < rows_; ++r) {
      std::memcpy(slice.row(r).data(), w8.row(r).data() + origin, width);
    }
    auto tile = std::make_shared<detect::ProtectedGemm>(cfg_.detect);
    tile->set_weights_quantized(std::move(slice), qw);
    tiles_.push_back(std::move(tile));
    origins_.push_back(origin);
    widths_.push_back(width);
  }
}

TileGrid::TileHandle TileGrid::tile(std::size_t t) const {
  const std::lock_guard<std::mutex> lock(swap_mu_);
  return tiles_.at(t);
}

bool TileGrid::swap_tile(std::size_t t, tensor::MatI8 slice, tensor::QuantParams qw) {
  if (t >= widths_.size()) throw std::invalid_argument("TileGrid: swap_tile index out of range");
  if (slice.rows() != rows_ || slice.cols() != widths_[t]) {
    throw std::invalid_argument("TileGrid: swap_tile slice shape must match the tile");
  }
  // Build and scrub the candidate entirely off to the side: the slot keeps
  // serving the old tile until the new one is vouched end-to-end (panels
  // packed, bases captured, verify_weight_integrity green).
  auto candidate = std::make_shared<detect::ProtectedGemm>(cfg_.detect);
  candidate->set_weights_quantized(std::move(slice), qw);
  if (!candidate->verify_weight_integrity()) {
    if (met_.scrub_rejects != nullptr) met_.scrub_rejects->inc();
    emit_instant(obs::SpanKind::kScrubReject, t);
    return false;
  }
  const std::lock_guard<std::mutex> lock(swap_mu_);
  tiles_[t] = std::move(candidate);
  ++swap_epoch_;
  if (met_.swaps != nullptr) met_.swaps->inc();
  if (met_.swap_epoch != nullptr) met_.swap_epoch->set(static_cast<std::int64_t>(swap_epoch_));
  emit_instant(obs::SpanKind::kHotSwap, t);
  return true;
}

bool TileGrid::swap_tile(std::size_t t, tensor::MatI8 slice, tensor::QuantParams qw,
                         const fault::MemoryFaultModel& memory, std::uint64_t op) {
  if (t >= widths_.size()) throw std::invalid_argument("TileGrid: swap_tile index out of range");
  if (slice.rows() != rows_ || slice.cols() != widths_[t]) {
    throw std::invalid_argument("TileGrid: swap_tile slice shape must match the tile");
  }
  auto candidate = std::make_shared<detect::ProtectedGemm>(cfg_.detect);
  candidate->set_weights_quantized(std::move(slice), qw);
  // The load-time strike window: kWeights faults land on the candidate AFTER
  // its bases were captured (the bases model the known-good producer-side
  // checksums riding with the shard) and BEFORE the scrub vouches it. A net
  // fault therefore disagrees with the bases and the scrub rejects the load.
  const std::uint64_t flips =
      candidate->corrupt_weights(memory, fault::compose_op(op, t));
  if (flips > 0) {
    const auto c = static_cast<std::size_t>(fault::Component::kWeights);
    if (met_.memory_flips[c] != nullptr) met_.memory_flips[c]->inc(flips);
    emit_instant(obs::SpanKind::kInjectedFlips, t);
  }
  const bool ok = candidate->verify_weight_integrity();
  if (!ok) {
    if (met_.scrub_rejects != nullptr) met_.scrub_rejects->inc();
    emit_instant(obs::SpanKind::kScrubReject, t);
  }
  const std::lock_guard<std::mutex> lock(swap_mu_);
  memory_flips_[static_cast<std::size_t>(fault::Component::kWeights)] += flips;
  if (!ok) return false;
  tiles_[t] = std::move(candidate);
  ++swap_epoch_;
  if (met_.swaps != nullptr) met_.swaps->inc();
  if (met_.swap_epoch != nullptr) met_.swap_epoch->set(static_cast<std::int64_t>(swap_epoch_));
  emit_instant(obs::SpanKind::kHotSwap, t);
  return true;
}

std::uint64_t TileGrid::age_panels(const fault::MemoryFaultModel& memory, std::uint64_t epoch) {
  std::uint64_t total = 0;
  for (std::size_t t = 0; t < widths_.size(); ++t) {
    // Clone the current tile so in-flight readers of the old snapshot are
    // untouched, corrupt the clone's panels in place (it is exclusively
    // owned until installed), then publish. No scrub: at-rest corruption is
    // exactly what the scrub/screen must catch on the NEXT touch.
    auto aged = std::make_shared<detect::ProtectedGemm>(*tile(t));
    const std::uint64_t flipped = aged->corrupt_panels(memory, fault::compose_op(epoch, t));
    if (flipped > 0) emit_instant(obs::SpanKind::kInjectedFlips, t);
    total += flipped;
    const std::lock_guard<std::mutex> lock(swap_mu_);
    tiles_[t] = std::move(aged);
  }
  const auto c = static_cast<std::size_t>(fault::Component::kPackedPanels);
  if (total > 0 && met_.memory_flips[c] != nullptr) met_.memory_flips[c]->inc(total);
  const std::lock_guard<std::mutex> lock(swap_mu_);
  memory_flips_[c] += total;
  return total;
}

fault::ComponentFlips TileGrid::memory_flips() const {
  const std::lock_guard<std::mutex> lock(swap_mu_);
  return memory_flips_;
}

std::size_t TileGrid::swap_weights(const tensor::MatI8& w8, tensor::QuantParams qw) {
  if (w8.rows() != rows_ || w8.cols() != cols_) {
    throw std::invalid_argument("TileGrid: swap_weights shape must match the grid");
  }
  std::size_t installed = 0;
  for (std::size_t t = 0; t < widths_.size(); ++t) {
    tensor::MatI8 slice(rows_, widths_[t]);
    for (std::size_t r = 0; r < rows_; ++r) {
      std::memcpy(slice.row(r).data(), w8.row(r).data() + origins_[t], widths_[t]);
    }
    if (!swap_tile(t, std::move(slice), qw)) break;
    ++installed;
  }
  return installed;
}

std::uint64_t TileGrid::swap_epoch() const {
  const std::lock_guard<std::mutex> lock(swap_mu_);
  return swap_epoch_;
}

void TileGrid::run_into(const tensor::MatI8& a8, tensor::QuantParams qa,
                        const fault::FaultInjector& injector, const util::Rng& rng,
                        std::vector<detect::ProtectedGemmResult>& scratch, tensor::MatF& out,
                        BatchVerdict& verdict, const fault::MemoryFaultModel* memory,
                        std::uint64_t op) const {
  const fault::FaultInjector* const one = &injector;
  run_tiles(a8, qa, &one, 0, rng, scratch, out, verdict, memory, op);
}

void TileGrid::run_into(const tensor::MatI8& a8, tensor::QuantParams qa,
                        std::span<const fault::FaultInjector* const> tile_injectors,
                        const util::Rng& rng, std::vector<detect::ProtectedGemmResult>& scratch,
                        tensor::MatF& out, BatchVerdict& verdict,
                        const fault::MemoryFaultModel* memory, std::uint64_t op) const {
  if (tile_injectors.size() != tiles_.size()) {
    throw std::invalid_argument("TileGrid: need one injector per tile");
  }
  run_tiles(a8, qa, tile_injectors.data(), 1, rng, scratch, out, verdict, memory, op);
}

void TileGrid::run_tiles(const tensor::MatI8& a8, tensor::QuantParams qa,
                         const fault::FaultInjector* const* injectors, std::size_t stride,
                         const util::Rng& rng, std::vector<detect::ProtectedGemmResult>& scratch,
                         tensor::MatF& out, BatchVerdict& verdict,
                         const fault::MemoryFaultModel* memory, std::uint64_t op) const {
  const std::size_t m = a8.rows();
  scratch.resize(tiles_.size());
  if (out.rows() != m || out.cols() != cols_) out = tensor::MatF(m, cols_);
  verdict.reset();
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    // Snapshot the slot exactly once, right before running the tile: the
    // request computes against entirely-old or entirely-new weights for THIS
    // tile even if swap_tile lands mid-request (hot-swap contract above).
    const TileHandle tile = this->tile(t);
    // Tile span nests under the worker's request span via the thread-local
    // trace context (no-op outside a traced request).
    obs::ScopedSpan tile_span(obs::SpanKind::kTile, static_cast<std::int32_t>(t));
    // Forked per tile so the fault stream depends only on (seed, tile), never
    // on which worker ran the tile or in what order — the determinism the
    // 1/2/8-thread tests pin down.
    util::Rng tile_rng = rng.fork(t);
    // Each tile DMAs its own copy of A, so the activation exposure is an
    // independent stream per (op, tile) — compose_op keeps those streams
    // replayable regardless of worker count or tile order.
    tile->run_quantized_into(a8, qa, *injectors[t * stride], tile_rng, scratch[t], memory,
                             fault::compose_op(op, t));
    tile_span.set_verdict(static_cast<std::uint8_t>(scratch[t].report.verdict));
    verdict.merge_tile(scratch[t].report, origins_[t]);
    const std::size_t width = scratch[t].output.cols();
    for (std::size_t r = 0; r < m; ++r) {
      std::memcpy(out.row(r).data() + origins_[t], scratch[t].output.row(r).data(),
                  width * sizeof(float));
    }
  }
  verdict.finalize();
}

void TileGrid::run_raw_into(const tensor::MatI8& a8,
                            std::vector<tensor::MatI32>& scratch) const {
  scratch.resize(tiles_.size());
  for (std::size_t t = 0; t < tiles_.size(); ++t) {
    const TileHandle pg = tile(t);
    tensor::gemm_i8_prepacked(a8, pg->weights(), pg->weight_panels(), scratch[t]);
  }
}

bool TileGrid::verify_weight_integrity() const {
  for (std::size_t t = 0; t < widths_.size(); ++t) {
    if (!tile(t)->verify_weight_integrity()) return false;
  }
  return true;
}

}  // namespace realm::serve
