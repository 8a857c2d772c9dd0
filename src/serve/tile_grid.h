// Column-tiled protected weight grid — the multi-tile layer of the serving
// engine (paper Fig. 3/7 scaled out: one stationary accelerator tile per
// weight shard, each screening its own outputs with resident checksum bases).
//
// TileGrid shards a stationary weight matrix W[k x n] into column tiles of at
// most `tile_cols` columns. Each tile owns a detect::ProtectedGemm, so the
// expensive per-weight state — quantized slice, SIMD panels (kernels::PackedB),
// and both checksum bases (W·e and the Fig. 7 eᵀW row) — is computed once at
// construction and stays resident for every request the grid ever serves.
//
// A GEMM is column-separable: columns [origin, origin+width) of A·W are
// exactly A·W[:, origin:origin+width]. Sharding therefore changes nothing
// about the math — a multi-tile run's assembled accumulator and output are
// bit-identical to an unsharded ProtectedGemm on the same operands, and each
// tile's checksum screen is the same exact integer identity it was for the
// whole matrix. What sharding buys is serving granularity: faults localize to
// a tile before the column intersection even runs, verdicts aggregate per
// request (BatchVerdict), and a detected tile recomputes only its own
// O(m·k·width) slice instead of the full O(m·k·n) product.
//
// Thread safety: the grid's geometry (rows/cols/tile origins/widths) is
// immutable after construction. Tile CONTENTS are hot-swappable: each tile
// slot holds a shared_ptr<const ProtectedGemm>, readers snapshot the pointer
// per tile under a short lock and then run against the (immutable) snapshot,
// and swap_tile() replaces the pointer the same way. run_into/run_raw_into
// are const and may be called concurrently from any number of threads —
// including concurrently with swap_tile — PROVIDED each caller passes its own
// scratch/out buffers and its own Rng (the contract ServeEngine's per-worker
// buffers satisfy). Per-tile randomness is drawn from rng.fork(tile_index),
// so results depend only on the seed handed in — never on scheduling or
// thread count.
//
// Hot-swap state machine (per tile slot):
//
//     [serving old]──swap_tile(slice)──>[scrub candidate off to the side]
//          ^                                  │                │
//          │ scrub fails: candidate dropped,  │ scrub passes   │
//          └──────── old never stops serving ─┘                v
//                                             [pointer install: serving new]
//
// A request snapshots each tile pointer exactly once, immediately before
// running that tile — it computes against entirely-old or entirely-new tile
// weights, NEVER against a half-swapped tile (ProtectedGemm is immutable, so
// there is no such state to observe). Requests spanning a swap may mix old
// and new tiles across DIFFERENT column ranges; each tile's checksum screen
// still verifies its own slice exactly.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "detect/detect.h"
#include "fault/fault.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace realm::fault {
class MemoryFaultModel;  // fault/memory.h
}

namespace realm::obs {  // obs/trace.h, obs/metrics.h
class Tracer;
class MetricsRegistry;
class Counter;
class Gauge;
enum class SpanKind : std::uint8_t;
}  // namespace realm::obs

namespace realm::serve {

struct TileGridConfig {
  /// Maximum columns per tile; the last tile takes the (possibly narrower)
  /// remainder. Must be >= 1.
  std::size_t tile_cols = 256;
  /// Detection config shared by every tile's ProtectedGemm.
  detect::DetectionConfig detect{};
  /// Span tracer for grid lifecycle instants (hot-swap installs, scrub
  /// rejections, injected memory flips); nullptr = untraced. Appended after
  /// `detect` so pre-observability aggregate initializers stay valid. Must
  /// outlive the grid.
  obs::Tracer* tracer = nullptr;
  /// Metrics registry for the realm_grid_* family; nullptr = unmetered.
  /// Must outlive the grid.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Aggregated verdict of one request across every tile of the grid.
///
/// Merge rules (merge_tile):
///  * verdict: worst wins, ordered kDetected > kRecomputed > kPatched >
///    kClean — one uncorrected tile poisons the request even if every other
///    tile healed, and a recompute (latency cliff) outranks the cheap patch.
///  * fault_cols: per-tile column indices shifted by the tile's origin, so
///    they index the assembled [m x n] output directly.
///  * fault_rows: union across tiles (finalize() sorts and dedups — the same
///    activation row feeds every tile, so row hits can repeat).
///  * injection: reports summed over tiles.
///  * msd_abs_max / max_dev_pow2: worst tile's statistic, the magnitude axis
///    of the paper's critical-region map at request granularity.
struct BatchVerdict {
  detect::Verdict verdict = detect::Verdict::kClean;
  std::size_t tiles = 0;
  std::size_t tiles_clean = 0;
  std::size_t tiles_detected = 0;   ///< flagged and NOT certified corrected
  std::size_t tiles_patched = 0;    ///< corrected by the in-place algebraic patch
  std::size_t tiles_recomputed = 0; ///< corrected by the full recompute replay

  /// Tiles corrected by either mode (patch + recompute).
  [[nodiscard]] std::size_t tiles_corrected() const noexcept {
    return tiles_patched + tiles_recomputed;
  }
  std::uint64_t msd_abs_max = 0;
  int max_dev_pow2 = 0;
  std::vector<std::size_t> fault_cols;  ///< global column indices, ascending
  std::vector<std::size_t> fault_rows;  ///< union over tiles, ascending after finalize()
  fault::InjectionReport injection;     ///< summed over tiles
  /// Per-component memory-fault bit-flip tallies, summed over tiles (the
  /// request-time components: kAccumulator mirrors injection.flipped_bits,
  /// kActivations counts pre-GEMM strikes; weight/panel faults happen at
  /// load/rest, outside any request — see TileGrid::memory_flips()).
  fault::ComponentFlips component_flips{};

  /// Clear to the all-clean state, keeping vector capacity (recycled buffers).
  void reset() noexcept;

  /// Fold one tile's verdict in; `col_origin` is the tile's first global
  /// column. Tiles merged in ascending origin order keep fault_cols sorted.
  void merge_tile(const detect::DetectionVerdict& v, std::size_t col_origin);

  /// Sort + dedup fault_rows (call once after the last merge_tile).
  void finalize();

  [[nodiscard]] bool faulty() const noexcept { return verdict != detect::Verdict::kClean; }
};

class TileGrid {
 public:
  /// Immutable snapshot of one tile's protected weights; holders keep the
  /// tile alive across a concurrent swap_tile of the same slot.
  using TileHandle = std::shared_ptr<const detect::ProtectedGemm>;

  /// Shard pre-quantized weights. Every tile shares `qw`, so the grid is
  /// numerically identical to an unsharded ProtectedGemm on the same matrix.
  TileGrid(const tensor::MatI8& w8, tensor::QuantParams qw, TileGridConfig cfg = {});

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }  ///< k
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }  ///< n
  [[nodiscard]] std::size_t tile_count() const noexcept { return widths_.size(); }
  [[nodiscard]] std::size_t tile_origin(std::size_t t) const { return origins_.at(t); }
  [[nodiscard]] std::size_t tile_width(std::size_t t) const { return widths_.at(t); }
  [[nodiscard]] TileHandle tile(std::size_t t) const;
  [[nodiscard]] const TileGridConfig& config() const noexcept { return cfg_; }

  /// Zero-downtime weight update for one tile: builds a fresh ProtectedGemm
  /// from `slice` (must be rows() x tile_width(t); same-shape swaps only —
  /// the grid's geometry is immutable), scrubs the candidate with
  /// verify_weight_integrity BEFORE it takes any traffic, and atomically
  /// installs the pointer. Returns false (old tile keeps serving, candidate
  /// dropped) if the scrub fails; throws std::invalid_argument on a shape
  /// mismatch or bad tile index. Requests in flight keep their snapshots of
  /// the old tile and complete against it.
  ///
  /// Tiles swapped with a different `qw` than their neighbours dequantize
  /// their own columns with their own scale — numerically fine, but the grid
  /// then no longer matches an unsharded single-scale run bit-for-bit.
  bool swap_tile(std::size_t t, tensor::MatI8 slice, tensor::QuantParams qw);

  /// swap_tile under the memory-hierarchy fault model: the candidate's
  /// weights take kWeights strikes from `memory` (stream op
  /// compose_op(op, t), so rolling swaps reusing one `op` still expose each
  /// tile independently) between build and scrub, modelling a corrupted DMA
  /// of the new shard. The
  /// existing scrub-on-swap then vouches the candidate exactly as for a
  /// clean swap — a load whose net fault perturbs any row or column sum is
  /// rejected (returns false, old tile keeps serving). Flips are tallied in
  /// memory_flips()[kWeights] whether or not the candidate installs.
  bool swap_tile(std::size_t t, tensor::MatI8 slice, tensor::QuantParams qw,
                 const fault::MemoryFaultModel& memory, std::uint64_t op);

  /// Hot-swap the whole matrix tile by tile (the rolling-update loop):
  /// slices `w8` (must be rows() x cols()) along the existing tile
  /// boundaries and swap_tile()s each in ascending order. Returns the number
  /// of tiles installed — equal to tile_count() unless a candidate failed
  /// its scrub, in which case the roll-out stops there and every later tile
  /// keeps its old weights.
  std::size_t swap_weights(const tensor::MatI8& w8, tensor::QuantParams qw);

  /// Successful swap_tile installs so far (0 for a freshly built grid).
  [[nodiscard]] std::uint64_t swap_epoch() const;

  /// One at-rest retention epoch over every tile's resident SIMD panels:
  /// each tile's panels take kPackedPanels strikes from `memory` (stream
  /// op compose_op(epoch, tile_index), so epochs and tiles are independent
  /// replayable streams). Unlike swap_tile there is NO scrub here — at-rest
  /// corruption is precisely the fault the eᵀW scrub and per-request screen
  /// must catch later. Each faulted tile is rebuilt as a copy and installed
  /// atomically (in-flight requests keep their clean snapshots); the
  /// checksum BASES stay clean, so the corruption is detectable. Returns
  /// total bits flipped (also tallied in memory_flips()[kPackedPanels]).
  /// Vacuous (returns 0) on the portable tier, which holds no panels.
  std::uint64_t age_panels(const fault::MemoryFaultModel& memory, std::uint64_t epoch);

  /// Cumulative load/rest-time memory-fault tallies (kWeights from faulted
  /// swap_tile loads, kPackedPanels from age_panels); request-time slots
  /// stay zero — those live in BatchVerdict::component_flips.
  [[nodiscard]] fault::ComponentFlips memory_flips() const;

  /// One request through every tile: per-tile protected GEMM (injector drawn
  /// against rng.fork(tile_index)) into recycled `scratch` (resized to
  /// tile_count() on first use), per-tile outputs assembled into `out`
  /// [m x n], verdicts merged into `verdict`. With all three buffers recycled,
  /// a clean tile's protected GEMM and screen allocate nothing (see
  /// ProtectedGemm::run_quantized_into).
  ///
  /// Non-null `memory` puts the request under the memory-hierarchy fault
  /// model: each tile consumes a kActivations stream at op
  /// compose_op(op, tile_index) — every tile DMAs its own copy of A, an
  /// independent exposure — and tallies land in verdict.component_flips.
  /// Streams depend only on (memory seed, op, tile_index), never on thread
  /// count or scheduling.
  void run_into(const tensor::MatI8& a8, tensor::QuantParams qa,
                const fault::FaultInjector& injector, const util::Rng& rng,
                std::vector<detect::ProtectedGemmResult>& scratch, tensor::MatF& out,
                BatchVerdict& verdict, const fault::MemoryFaultModel* memory = nullptr,
                std::uint64_t op = 0) const;

  /// Per-tile injector variant (tests drive a fault into exactly one tile
  /// with NullInjector elsewhere). `tile_injectors` must have tile_count()
  /// entries, none null.
  void run_into(const tensor::MatI8& a8, tensor::QuantParams qa,
                std::span<const fault::FaultInjector* const> tile_injectors, const util::Rng& rng,
                std::vector<detect::ProtectedGemmResult>& scratch, tensor::MatF& out,
                BatchVerdict& verdict, const fault::MemoryFaultModel* memory = nullptr,
                std::uint64_t op = 0) const;

  /// Unprotected baseline over the same tiles and resident panels: per-tile
  /// prepacked GEMM only — no screen, no dequantize. The raw side of the
  /// serve bench's per-request overhead measurement.
  void run_raw_into(const tensor::MatI8& a8, std::vector<tensor::MatI32>& scratch) const;

  /// Scrub every tile's stationary weights against its resident bases.
  [[nodiscard]] bool verify_weight_integrity() const;

 private:
  void build(const tensor::MatI8& w8, tensor::QuantParams qw);

  /// Control-lane instant on the configured tracer (no-op when untraced or
  /// when tracing is compiled out).
  void emit_instant(obs::SpanKind kind, std::size_t t) const;

  /// Handles resolved once at build() from cfg_.metrics; nullptr when
  /// unmetered. Increments are relaxed-atomic — safe from any thread.
  struct GridMetrics {
    obs::Counter* swaps = nullptr;
    obs::Counter* scrub_rejects = nullptr;
    obs::Gauge* swap_epoch = nullptr;
    std::array<obs::Counter*, fault::kComponentCount> memory_flips{};
  };

  /// Shared tile loop. `injectors[t * stride]` is tile t's injector: stride 0
  /// broadcasts one injector to every tile without materializing a per-tile
  /// pointer array (the serving hot path), stride 1 walks the per-tile span.
  void run_tiles(const tensor::MatI8& a8, tensor::QuantParams qa,
                 const fault::FaultInjector* const* injectors, std::size_t stride,
                 const util::Rng& rng, std::vector<detect::ProtectedGemmResult>& scratch,
                 tensor::MatF& out, BatchVerdict& verdict, const fault::MemoryFaultModel* memory,
                 std::uint64_t op) const;

  TileGridConfig cfg_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  /// Tile slots; pointer reads/writes guarded by swap_mu_, pointees immutable.
  std::vector<TileHandle> tiles_;
  std::vector<std::size_t> origins_;
  std::vector<std::size_t> widths_;
  mutable std::mutex swap_mu_;
  std::uint64_t swap_epoch_ = 0;             ///< guarded by swap_mu_
  fault::ComponentFlips memory_flips_{};     ///< guarded by swap_mu_
  GridMetrics met_{};
};

}  // namespace realm::serve
