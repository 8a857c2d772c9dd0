// Async serving engine over a TileGrid — the layer that turns one protected
// GEMM into a traffic-serving system. Each persistent worker claims one
// ticket at a time and runs it through every tile; requests are not batched.
//
// Lifecycle of a request:
//
//   submit(Request, {tenant, priority, deadline}) ──> Ticket
//        │  admission control: blocking submit() parks under backpressure
//        │  (bounded budget shared across lanes); try_submit() sheds load
//        v
//   priority lanes  [interactive] > [normal] > [batch]    (strict priority)
//        │
//        v            persistent worker threads (ServeConfig::workers)
//   worker_loop: pop most-urgent ticket ──> deadline check ──> TileGrid run
//        │             (expired: retired as kExpired,     (per-request RNG
//        │              GEMM never runs)                   stream, per-tile
//        v                                                 fork)
//   poll(Ticket) -> TicketState;  wait(Ticket) -> Response (consumes ticket)
//
// Workers are plain threads marked with util::mark_thread_as_pool_worker, so
// each request's GEMMs run INLINE on the worker that claimed it (threadpool.h
// nesting rule): request-level parallelism and kernel-level parallelism never
// fight over the same cores, and the per-tile screen stays bit-exact. The
// corollary is that kernel-level threading (REALM_THREADS) does not compose
// with engine workers — a request is one worker's work, end to end.
//
// Mixed shapes in flight: per-worker scratch is keyed by the request's row
// count, so interleaving m=8 and m=64 traffic recycles one buffer set per
// shape instead of reallocating per request; steady-state traffic over a
// fixed shape mix allocates nothing.
//
// Determinism: a request's fault stream is seed→fork(stream)→fork(tile),
// where `stream` is SubmitOptions::stream if pinned, else the ticket's
// submission sequence. Verdicts and outputs are therefore a pure function of
// (seed, request, stream) — independent of worker count, queue depth,
// priorities, or completion order: any two runs that pin the same streams
// are bit-identical. Latency stats are the only nondeterministic outputs.
//
// Weight hot-swap: the engine reads tiles through TileGrid's per-tile
// snapshots, so the owner may call grid.swap_tile()/swap_weights() while
// traffic is in flight — requests complete against consistent per-tile
// weights (old or new, never half-swapped; see tile_grid.h for the state
// machine). drain() is the barrier for callers that want a strict epoch:
// drain, swap every tile, resume submitting.
//
// Accounting: one row per tenant, guarded by the engine lock. Each serve
// event (submitted, rejected, expired, completed, failed) updates its
// tenant's row exactly once, inside the critical section that already moves
// the ticket through its lifecycle; an attached metrics registry is bumped
// from the same site. stats() sums the rows, tenant_stats() reads one.
//
// Thread safety: submit/try_submit/poll/wait/drain/stats/tenant_stats may be
// called concurrently from any number of threads. wait() consumes the
// ticket; polling a consumed or never-issued ticket throws.
#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/ticket.h"
#include "serve/tile_grid.h"
#include "util/clock.h"
#include "util/mpmc_queue.h"
#include "util/stats.h"

namespace realm::obs {  // obs/trace.h, obs/metrics.h
class Tracer;
class MetricsRegistry;
class Counter;
class Gauge;
class LogHistogram;
}  // namespace realm::obs

namespace realm::serve {

struct ServeConfig {
  /// Dedicated worker threads draining the scheduler. Clamped to >= 1.
  std::size_t workers = 1;
  /// Admission budget: total queued tickets across all priority lanes.
  /// submit() parks when it fills; try_submit() rejects.
  std::size_t queue_capacity = 64;
  /// Base seed for per-request fault streams (forked per stream, per tile).
  std::uint64_t seed = 0x5e44e;
  /// Sliding-window span (samples): the engine-wide and per-tenant latency
  /// quantiles cover the last `stats_window` completions, and each tenant's
  /// req/s covers its last `stats_window` completion instants. Must be >= 1.
  std::size_t stats_window = 512;
  /// Deadline / rate-window time source; nullptr = real steady clock. Tests
  /// inject a util::ManualClock here to make expiry deterministic. Must
  /// outlive the engine.
  const util::Clock* clock = nullptr;
  /// Span tracer; nullptr = untraced. Worker w records on tracer lane w+1, so
  /// the tracer needs at least `workers` worker lanes. For coherent queue
  /// spans, configure the tracer with the same clock as the engine. Must
  /// outlive the engine.
  obs::Tracer* tracer = nullptr;
  /// Metrics registry for the realm_serve_* family; nullptr = unmetered.
  /// Must outlive the engine.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One inference request. The activation is either BORROWED (`a8` — the
/// pointed-to matrix must stay alive until the ticket is waited on or the
/// engine is destroyed; under async serving that window is unbounded, so
/// borrow only what you own for the engine's lifetime) or OWNED (`owned` —
/// the request keeps the activation alive itself; the safe default for
/// fire-and-forget submission). The injector is always borrowed under the
/// same ticket-scoped contract (nullptr = golden/NullInjector).
struct Request {
  const tensor::MatI8* a8 = nullptr;  ///< borrowed activation (see above)
  tensor::QuantParams qa{};
  /// Fault model for this request (nullptr = golden/NullInjector).
  const fault::FaultInjector* injector = nullptr;
  /// Memory-hierarchy fault model for this request (nullptr = none): its
  /// kActivations stream strikes the request's activation image per tile,
  /// op-keyed by the request's fault stream — deterministic at any worker
  /// count. Borrowed under the same ticket-scoped lifetime contract as the
  /// injector.
  const fault::MemoryFaultModel* memory = nullptr;
  /// Owned activation; when set it wins over `a8`.
  std::shared_ptr<const tensor::MatI8> owned;

  /// Borrowing constructor-helper: caller guarantees `a8` outlives the ticket.
  [[nodiscard]] static Request borrow(const tensor::MatI8& a8, tensor::QuantParams qa,
                                      const fault::FaultInjector* injector = nullptr,
                                      const fault::MemoryFaultModel* memory = nullptr) {
    Request rq;
    rq.a8 = &a8;
    rq.qa = qa;
    rq.injector = injector;
    rq.memory = memory;
    return rq;
  }

  /// Owning helper: the request carries the activation; nothing to outlive.
  [[nodiscard]] static Request own(tensor::MatI8 a8, tensor::QuantParams qa,
                                   const fault::FaultInjector* injector = nullptr,
                                   const fault::MemoryFaultModel* memory = nullptr) {
    Request rq;
    rq.owned = std::make_shared<const tensor::MatI8>(std::move(a8));
    rq.qa = qa;
    rq.injector = injector;
    rq.memory = memory;
    return rq;
  }

  /// The activation actually served: owned if set, else the borrowed pointer
  /// (nullptr means a malformed request — submit() rejects it).
  [[nodiscard]] const tensor::MatI8* activation() const noexcept {
    return owned ? owned.get() : a8;
  }
};

struct Response {
  tensor::MatF output;    ///< assembled [m x n] dequantized result
  BatchVerdict verdict;   ///< aggregated across tiles
  double latency_ms = 0;  ///< worker-claim to response-complete
  bool expired = false;   ///< deadline passed while queued; output empty
};

/// Accounting snapshot: engine-wide from stats() (the sum of every tenant's
/// row), or one tenant's row from tenant_stats(). The latency quantiles are
/// sliding-window over the most recent `ServeConfig::stats_window`
/// completions — NOT per-batch (a worker runs one request at a time, so there
/// are no batches) and NOT whole-history (which goes stale); the `window_`
/// prefix is deliberate so readers of the old per-batch `p50_ms`/`p99_ms`
/// fields cannot silently misread them.
struct ServeStats {
  std::string tenant;           ///< tenant_stats(): the tenant; stats(): empty
  std::uint64_t submitted = 0;  ///< admitted tickets
  std::uint64_t rejected = 0;   ///< try_submit refused at admission
  std::uint64_t completed = 0;  ///< computed to a verdict
  std::uint64_t expired = 0;    ///< retired at the deadline, never computed
  std::uint64_t failed = 0;     ///< worker threw (wait() rethrows)
  std::uint64_t tiles_screened = 0;
  std::uint64_t tiles_detected = 0;    ///< flagged, not certified corrected
  std::uint64_t tiles_patched = 0;     ///< healed by the in-place algebraic patch
  std::uint64_t tiles_recomputed = 0;  ///< healed by the full recompute replay
  /// Tiles healed by either correction mode.
  [[nodiscard]] std::uint64_t tiles_corrected() const noexcept {
    return tiles_patched + tiles_recomputed;
  }
  // Request verdicts over completed requests. The worst-wins merge means a
  // "patched" request healed every faulty tile via the cheap in-place patch,
  // while "recomputed" means at least one tile needed the full replay.
  std::uint64_t requests_faulty = 0;      ///< verdict != kClean
  std::uint64_t requests_patched = 0;     ///< verdict == kPatched
  std::uint64_t requests_recomputed = 0;  ///< verdict == kRecomputed
  std::uint64_t requests_detected = 0;    ///< verdict == kDetected (uncorrected)
  /// Memory-hierarchy fault exposure summed over completed requests (the
  /// request-time components; see BatchVerdict::component_flips). Load- and
  /// rest-time weight and panel faults are grid state, not per request — see
  /// TileGrid::memory_flips().
  fault::ComponentFlips component_flips{};
  util::RunningStat latency_ms;  ///< cumulative over completed requests
  double window_p50_ms = 0;      ///< sliding window, last stats_window completions
  double window_p99_ms = 0;      ///< sliding window, last stats_window completions
  std::size_t window_count = 0;  ///< samples currently in the window
  /// Completions per second over a tenant's last stats_window completion
  /// instants; 0 until two land (and while the clock stands still).
  /// stats() reports the sum over tenants.
  double req_per_s = 0;
};

class ServeEngine {
 public:
  /// Spawns the worker threads. The grid (and cfg.clock, if set) must
  /// outlive the engine.
  explicit ServeEngine(const TileGrid& grid, ServeConfig cfg = {});

  /// Closes admission, drains every admitted ticket, joins the workers.
  /// Unclaimed responses are discarded.
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Admit one request. Blocks while the admission budget is exhausted
  /// (backpressure). Throws std::invalid_argument on a null activation.
  Ticket submit(Request request, SubmitOptions options = {});

  /// Non-blocking admission: nullopt (and a `rejected` tally for the tenant)
  /// when the budget is exhausted — the load-shedding front door.
  std::optional<Ticket> try_submit(Request request, SubmitOptions options = {});

  /// Lifecycle state of a live ticket. Throws std::invalid_argument for a
  /// ticket that was never issued or was already consumed by wait().
  [[nodiscard]] TicketState poll(Ticket ticket) const;

  /// Block until the ticket is terminal, then consume it. Returns the
  /// response (check Response::expired for deadline losses); rethrows the
  /// worker's exception for kFailed tickets. A ticket can be waited on
  /// exactly once: any other wait() on it — after it was consumed, or while
  /// another thread is still waiting on it — throws std::invalid_argument.
  Response wait(Ticket ticket);

  /// Block until every admitted ticket has been retired (done, expired, or
  /// failed). New submissions during a drain extend it.
  void drain();

  /// Engine-wide accounting: every tenant row summed, plus the engine-wide
  /// latency window.
  [[nodiscard]] ServeStats stats() const;
  /// Zero every tenant row, the engine-wide window and the attached metrics
  /// registry in one critical section: a concurrent stats() or
  /// tenant_stats() observes either the fully pre-reset or the fully
  /// post-reset state. Tenants stay known to tenants() with zeroed rows.
  void reset_stats();

  /// One tenant's row. Throws std::invalid_argument for a tenant that has
  /// never been submitted — a typo'd dashboard key should fail loudly.
  [[nodiscard]] ServeStats tenant_stats(std::string_view tenant) const;
  /// Every tenant ever submitted (admitted or rejected), sorted.
  [[nodiscard]] std::vector<std::string> tenants() const;

  [[nodiscard]] const TileGrid& grid() const noexcept { return grid_; }
  [[nodiscard]] std::size_t workers() const noexcept { return threads_.size(); }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

 private:
  /// Ticket-table entry; guarded by mu_.
  struct Slot {
    TicketState state = TicketState::kQueued;
    bool waited = false;  ///< a wait() has claimed this ticket
    Request request;
    std::size_t row = 0;  ///< tenant row; its uint16_t truncation tags trace events
    std::optional<util::TimePoint> deadline;
    util::TimePoint submitted_at{};  ///< engine-clock admit time (queue wait)
    std::uint64_t stream = 0;
    Response response;
    std::exception_ptr error;
  };

  /// One tenant's accounting; guarded by mu_. `totals` carries the counters
  /// and the cumulative latency; its window fields stay unset (snapshots
  /// fill them from the rings).
  struct TenantRow {
    explicit TenantRow(std::size_t window) : latency_window(window), done_s(window) {}
    ServeStats totals;
    util::SlidingWindow latency_window;
    util::SlidingWindow done_s;  ///< completion instants, engine-clock seconds
  };

  /// Transparent hash so tenant lookups take the caller's string_view as is.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  /// Per-worker recycled buffers, keyed by activation row count so mixed
  /// shapes in flight each reuse their own set (lives on the worker's stack).
  struct WorkerScratch {
    std::map<std::size_t, std::vector<detect::ProtectedGemmResult>> by_rows;
  };

  std::optional<Ticket> enqueue(Request&& request, const SubmitOptions& options, bool blocking);
  /// `lane` is the worker's tracer lane (worker index + 1; lane 0 is the
  /// tracer's control lane).
  void worker_loop(std::size_t lane);
  void process(WorkerScratch& scratch, const Request& request, std::uint64_t stream,
               Response& response);
  /// Row index of a tenant, appending a row on first sight (rows are
  /// numbered in first-submission order); caller must hold mu_.
  std::size_t row_locked(std::string_view tenant);

  /// Metric handles resolved once at construction from cfg_.metrics (all
  /// nullptr when unmetered). Bumped beside the row update they mirror, under
  /// mu_, so reset_stats() zeroes both in one critical section.
  struct Metrics {
    obs::Counter* submitted = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* expired = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* tiles_screened = nullptr;
    obs::Counter* tiles_detected = nullptr;
    obs::Counter* tiles_patched = nullptr;
    obs::Counter* tiles_recomputed = nullptr;
    std::array<obs::Counter*, fault::kComponentCount> component_flips{};
    obs::LogHistogram* latency_us = nullptr;
    obs::LogHistogram* queue_wait_us = nullptr;
    obs::Gauge* queue_depth = nullptr;
  };

  const TileGrid& grid_;
  const ServeConfig cfg_;
  const util::Clock* clock_;  ///< cfg_.clock or the process-wide steady clock
  util::PriorityMpmcQueue<std::uint64_t> queue_;  ///< ticket ids, one lane per Priority

  mutable std::mutex mu_;
  std::condition_variable done_cv_;  ///< state transitions; wait()/drain() park here
  std::unordered_map<std::uint64_t, Slot> slots_;
  std::uint64_t next_id_ = 1;  ///< ticket ids; id-1 is the default stream tag
  std::size_t inflight_ = 0;   ///< queued + running (drain()'s predicate)
  Metrics met_{};              ///< resolved handles; pointees are atomic

  // Accounting; guarded by mu_.
  std::vector<TenantRow> rows_;
  std::unordered_map<std::string, std::size_t, NameHash, std::equal_to<>> row_of_;
  util::SlidingWindow latency_window_;  ///< engine-wide, every tenant's completions

  std::vector<std::thread> threads_;
};

}  // namespace realm::serve
