// Low-overhead span tracer: per-worker ring buffers of fixed-size events,
// Chrome-trace/Perfetto JSON export, compile-time removable.
//
// Recording model
//   - Lane 1..N: one single-producer ring per engine worker. record() is a
//     plain array store plus one release store of the lane's event count — no
//     locks, no allocation, no formatting on the hot path. A full ring
//     overwrites the oldest event (tracing favors recency over completeness).
//   - Lane 0: mutex-guarded control lane for everything that happens off the
//     worker threads (load-shed rejections at submit, hot-swap epochs, scrub
//     rejects, injected-flip tallies). Cold paths only.
//   - Export/snapshot require QUIESCENCE on worker lanes: call them only
//     after ServeEngine::wait()/drain() (whose mutex hand-off orders every
//     worker's stores before the exporting thread's loads) or after the
//     engine is destroyed. The release/acquire pair on each lane's count is
//     belt-and-braces, not a license to export mid-flight.
//
// Determinism: timestamps come from the tracer's injectable util::Clock, so a
// ManualClock makes every t_start/t_end a scripted tick. Span ids derive from
// (stream, tile, kind) — the stream is the request's ticket-derived id, so
// ids and parent links are identical at any worker count; only the lane (the
// Chrome `tid`) depends on which worker ran the request.
//
// Compile-time removal: building with REALM_TRACE=OFF defines
// REALM_TRACE_ENABLED=0, which turns ScopedSpan/ScopedRequestTrace into empty
// no-op types and kTraceCompiledIn into false (call sites gate direct
// Tracer::record() calls on `if constexpr (kTraceCompiledIn)`), leaving zero
// trace code in hot loops. The Tracer class itself stays compiled — it is a
// cold-path object and keeping it makes the OFF build's API identical.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "util/clock.h"

#ifndef REALM_TRACE_ENABLED
#define REALM_TRACE_ENABLED 1
#endif

namespace realm::obs {

inline constexpr bool kTraceCompiledIn = REALM_TRACE_ENABLED != 0;

/// Span taxonomy. Duration spans nest queued→request→tile→stage on a worker
/// track; instant kinds mark point events (see is_instant()).
enum class SpanKind : std::uint8_t {
  // Duration spans.
  kRequest = 1,   // whole request: submit → response ready
  kQueued = 2,    // submit → claimed by a worker (child of kRequest)
  kTile = 3,      // one column tile through the protected pipeline
  kQuantize = 4,  // float→int8 activation quantization
  kGemm = 5,      // int8 GEMM (fused checksum store phase included)
  kScreen = 6,    // checksum screen of the accumulator
  kPatch = 7,     // in-place algebraic correction attempt
  kRecompute = 8,  // replay GEMM after failed/disabled patch
  kRecheck = 9,    // post-recompute screen
  kDequantize = 10,  // int32 accumulator → float output
  // Instant events.
  kInjectedFlips = 32,  // fault model injected bit flips
  kScrubReject = 33,    // hot-swap candidate rejected by weight scrub
  kHotSwap = 34,        // tile swap installed (new epoch)
  kLoadShed = 35,       // admission rejected at full queue
  kExpired = 36,        // request past deadline, dropped by worker
};

[[nodiscard]] constexpr bool is_instant(SpanKind k) noexcept {
  return static_cast<std::uint8_t>(k) >= 32;
}

/// Chrome/Perfetto event name for a kind.
[[nodiscard]] const char* span_name(SpanKind k) noexcept;

/// No verdict attached (non-tile spans, instants).
inline constexpr std::uint8_t kNoVerdict = 0xff;

/// Fixed-size trace record. `tile` is -1 for request-level spans; `verdict`
/// holds the detect::Verdict value (numeric, see span_name mapping in the
/// exporter) or kNoVerdict.
struct Event {
  std::uint64_t span_id = 0;
  std::uint64_t parent = 0;
  std::int64_t t_start_ns = 0;
  std::int64_t t_end_ns = 0;  // == t_start_ns for instants
  std::int32_t tile = -1;
  std::uint16_t tenant = 0;
  SpanKind kind = SpanKind::kRequest;
  std::uint8_t verdict = kNoVerdict;
};

/// Deterministic span id from (stream, tile, kind): stream in the high bits,
/// tile+1 (0 = request-level) in the middle, kind low — unique within a
/// request and stable across worker counts. Streams are the engine's
/// ticket-derived ids, so ids never collide within one trace.
[[nodiscard]] constexpr std::uint64_t span_id(std::uint64_t stream, std::int32_t tile,
                                              SpanKind kind) noexcept {
  return ((stream + 1) << 24) | (static_cast<std::uint64_t>(tile + 1) << 8) |
         static_cast<std::uint64_t>(kind);
}

struct TracerConfig {
  std::size_t lanes = 1;          ///< worker lanes (lane 0 control is extra)
  std::size_t capacity = 1 << 12;  ///< events per lane before wrap
  const util::Clock* clock = nullptr;  ///< nullptr → real steady clock
  bool enabled = true;                 ///< runtime toggle start state
};

class Tracer {
 public:
  explicit Tracer(TracerConfig cfg);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Runtime toggle. Disabling stops new events; already-recorded events
  /// stay exportable.
  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Worker lanes (the control lane 0 is extra — valid lane indices for
  /// snapshot()/recorded() are 0..lanes() inclusive).
  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_.size() - 1; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Timestamp from the tracer's clock (ManualClock ticks in tests).
  [[nodiscard]] std::int64_t now_ns() const noexcept { return util::to_ns(clock_->now()); }

  /// Record on a worker lane (1..lanes()). Single producer per lane: at most
  /// one thread may record on a given lane at a time. No-op when disabled.
  void record(std::size_t lane, const Event& e) noexcept;

  /// Record on the mutex-guarded control lane (lane 0) — any thread, cold
  /// paths only. No-op when disabled.
  void record_control(const Event& e);

  /// Events currently held by a lane, oldest first (wrapped-out events are
  /// gone). Quiescence required for worker lanes — see file-top contract.
  [[nodiscard]] std::vector<Event> snapshot(std::size_t lane) const;

  /// Total events ever recorded on a lane (including overwritten ones).
  [[nodiscard]] std::uint64_t recorded(std::size_t lane) const noexcept;

  /// Chrome trace-event JSON: one track (`tid`) per lane, duration spans as
  /// "ph":"X" complete events (nesting via ts/dur), instants as "ph":"i",
  /// thread_name metadata naming worker tracks. Loads in Perfetto and
  /// chrome://tracing. Quiescence required.
  [[nodiscard]] std::string export_chrome_json() const;

 private:
  struct Lane {
    std::vector<Event> ring;
    std::atomic<std::uint64_t> count{0};
  };

  const std::size_t capacity_;
  const util::Clock* clock_;
  std::atomic<bool> enabled_;
  std::deque<Lane> lanes_;  // deque: Lane holds an atomic, must never move
  mutable std::mutex control_mu_;
};

#if REALM_TRACE_ENABLED

/// Thread-local trace destination, installed by ScopedRequestTrace on a
/// worker for the duration of one request. ScopedSpan reads it so the tile
/// and detect layers emit spans without tracer parameters threading through
/// their APIs. tracer == nullptr (the default) means "not tracing" and makes
/// every ScopedSpan on this thread a no-op.
struct TraceContext {
  Tracer* tracer = nullptr;
  std::size_t lane = 0;
  std::uint64_t stream = 0;
  std::uint16_t tenant = 0;
  std::uint64_t parent = 0;  ///< current innermost span id
};

[[nodiscard]] TraceContext& trace_context() noexcept;

/// RAII duration span tied to the thread's TraceContext. Construction opens
/// the span (and makes it the context's parent for spans nested inside);
/// destruction records the event. Free when no context is installed.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, std::int32_t tile = -1) noexcept;
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

  void set_verdict(std::uint8_t v) noexcept { verdict_ = v; }

 private:
  std::int64_t t0_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t saved_parent_ = 0;
  std::int32_t tile_ = -1;
  SpanKind kind_ = SpanKind::kRequest;
  std::uint8_t verdict_ = kNoVerdict;
  bool active_ = false;
};

/// Installs the TraceContext for one request on a worker thread, emits the
/// kQueued span (submit → now) immediately, and records the enclosing
/// kRequest span (submit → destruction) on the way out. Restores the prior
/// context so nested engines (an engine driven from inside another) stay
/// correct.
class ScopedRequestTrace {
 public:
  ScopedRequestTrace(Tracer* tracer, std::size_t lane, std::uint64_t stream, std::uint16_t tenant,
                     std::int64_t submitted_ns) noexcept;
  ScopedRequestTrace(const ScopedRequestTrace&) = delete;
  ScopedRequestTrace& operator=(const ScopedRequestTrace&) = delete;
  ~ScopedRequestTrace();

  void set_verdict(std::uint8_t v) noexcept { verdict_ = v; }

 private:
  TraceContext saved_{};
  std::int64_t submitted_ns_ = 0;
  std::uint64_t request_id_ = 0;
  std::uint8_t verdict_ = kNoVerdict;
  bool active_ = false;
};

#else  // !REALM_TRACE_ENABLED

// No-op stand-ins: empty types with constexpr bodies, so call sites compile
// unchanged and the optimizer erases them entirely (the constexpr/sizeof test
// in test_obs pins this). Keep signatures in lock-step with the ON variants.
class ScopedSpan {
 public:
  constexpr explicit ScopedSpan(SpanKind /*kind*/, std::int32_t /*tile*/ = -1) noexcept {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  constexpr void set_verdict(std::uint8_t /*v*/) const noexcept {}
};

class ScopedRequestTrace {
 public:
  constexpr ScopedRequestTrace(Tracer* /*tracer*/, std::size_t /*lane*/, std::uint64_t /*stream*/,
                               std::uint16_t /*tenant*/, std::int64_t /*submitted_ns*/) noexcept {}
  ScopedRequestTrace(const ScopedRequestTrace&) = delete;
  ScopedRequestTrace& operator=(const ScopedRequestTrace&) = delete;
  constexpr void set_verdict(std::uint8_t /*v*/) const noexcept {}
};

#endif  // REALM_TRACE_ENABLED

}  // namespace realm::obs
