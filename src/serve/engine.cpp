#include "serve/engine.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/threadpool.h"

namespace realm::serve {

namespace {

/// Process-wide default time source when ServeConfig::clock is null.
const util::Clock& steady_clock_instance() {
  static const util::Clock clock;
  return clock;
}

bool terminal(TicketState s) noexcept {
  return s == TicketState::kDone || s == TicketState::kExpired || s == TicketState::kFailed;
}

/// Point event on the tracer's control lane (submit-side paths: any thread).
void emit_instant_control(obs::Tracer* tracer, obs::SpanKind kind, std::uint64_t stream,
                          std::uint16_t tenant) {
  if constexpr (obs::kTraceCompiledIn) {
    if (tracer == nullptr) return;
    obs::Event e;
    e.span_id = obs::span_id(stream, -1, kind);
    e.t_start_ns = e.t_end_ns = tracer->now_ns();
    e.tenant = tenant;
    e.kind = kind;
    tracer->record_control(e);
  }
}

/// Point event on a worker lane (the lane's single producer only).
void emit_instant_lane(obs::Tracer* tracer, std::size_t lane, obs::SpanKind kind,
                       std::uint64_t stream, std::uint16_t tenant, std::uint64_t parent = 0) {
  if constexpr (obs::kTraceCompiledIn) {
    if (tracer == nullptr) return;
    obs::Event e;
    e.span_id = obs::span_id(stream, -1, kind);
    e.parent = parent;
    e.t_start_ns = e.t_end_ns = tracer->now_ns();
    e.tenant = tenant;
    e.kind = kind;
    tracer->record(lane, e);
  }
}

/// Trace-event tenant tag of a row: its index, wrapping past 65535 tenants
/// (the tag labels events only; accounting is keyed by the row).
std::uint16_t trace_tag(std::size_t row) noexcept { return static_cast<std::uint16_t>(row); }

/// Completions per second across a ring of completion instants (seconds):
/// 0 until two completions land, and while the clock stands still.
double rate_per_s(const util::SlidingWindow& done_s) {
  if (done_s.count() < 2) return 0.0;
  const double span_s = done_s.quantile(1.0) - done_s.quantile(0.0);
  return span_s > 0 ? static_cast<double>(done_s.count() - 1) / span_s : 0.0;
}

/// Window quantiles of a latency ring into a snapshot.
void fill_window(ServeStats& out, const util::SlidingWindow& latency_window) {
  out.window_count = latency_window.count();
  if (out.window_count > 0) {
    out.window_p50_ms = latency_window.quantile(0.50);
    out.window_p99_ms = latency_window.quantile(0.99);
  }
}

/// Adds one row's counters and cumulative latency into an engine-wide sum.
void add_row(ServeStats& sum, const ServeStats& row) {
  sum.submitted += row.submitted;
  sum.rejected += row.rejected;
  sum.completed += row.completed;
  sum.expired += row.expired;
  sum.failed += row.failed;
  sum.tiles_screened += row.tiles_screened;
  sum.tiles_detected += row.tiles_detected;
  sum.tiles_patched += row.tiles_patched;
  sum.tiles_recomputed += row.tiles_recomputed;
  sum.requests_faulty += row.requests_faulty;
  sum.requests_patched += row.requests_patched;
  sum.requests_recomputed += row.requests_recomputed;
  sum.requests_detected += row.requests_detected;
  for (std::size_t i = 0; i < fault::kComponentCount; ++i) {
    sum.component_flips[i] += row.component_flips[i];
  }
  sum.latency_ms.merge(row.latency_ms);
}

}  // namespace

ServeEngine::ServeEngine(const TileGrid& grid, ServeConfig cfg)
    : grid_(grid),
      cfg_(cfg),
      clock_(cfg.clock ? cfg.clock : &steady_clock_instance()),
      queue_(cfg.queue_capacity, kPriorityLanes),  // throws if the capacity is 0
      latency_window_(cfg.stats_window) {          // throws if the window is 0
  if (cfg_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *cfg_.metrics;
    const auto state_counter = [&reg](const char* state) {
      return &reg.counter("realm_serve_requests_total", "Requests by lifecycle state.",
                          std::string("state=\"") + state + "\"");
    };
    met_.submitted = state_counter("submitted");
    met_.rejected = state_counter("rejected");
    met_.completed = state_counter("completed");
    met_.expired = state_counter("expired");
    met_.failed = state_counter("failed");
    const auto tile_counter = [&reg](const char* outcome) {
      return &reg.counter("realm_serve_tiles_total", "Screened tiles by outcome.",
                          std::string("outcome=\"") + outcome + "\"");
    };
    met_.tiles_screened = tile_counter("screened");
    met_.tiles_detected = tile_counter("detected");
    met_.tiles_patched = tile_counter("patched");
    met_.tiles_recomputed = tile_counter("recomputed");
    for (std::size_t i = 0; i < fault::kComponentCount; ++i) {
      met_.component_flips[i] =
          &reg.counter("realm_serve_component_flips_total",
                       "Request-time memory-fault bit flips by component.",
                       std::string("component=\"") +
                           fault::to_string(static_cast<fault::Component>(i)) + "\"");
    }
    met_.latency_us = &reg.histogram("realm_serve_request_latency_us",
                                     "Request latency (worker claim to response), microseconds.");
    met_.queue_wait_us = &reg.histogram("realm_serve_queue_wait_us",
                                        "Admission-to-claim queue wait, microseconds.");
    met_.queue_depth = &reg.gauge("realm_serve_queue_depth", "Tickets currently queued.");
  }
  const std::size_t nworkers = cfg_.workers < 1 ? 1 : cfg_.workers;
  if (cfg_.tracer != nullptr && cfg_.tracer->lanes() < nworkers) {
    throw std::invalid_argument("ServeEngine: tracer needs one worker lane per engine worker");
  }
  threads_.reserve(nworkers);
  try {
    for (std::size_t w = 0; w < nworkers; ++w) {
      // Tracer lane w+1: lane 0 is the control lane for non-worker threads.
      threads_.emplace_back([this, w] { worker_loop(w + 1); });
    }
  } catch (...) {
    // A failed spawn must not unwind past joinable threads (std::terminate);
    // close the queue, join what started, surface the original error.
    queue_.close();
    for (auto& th : threads_) th.join();
    throw;
  }
}

ServeEngine::~ServeEngine() {
  // Graceful close: no new admissions, workers drain every queued ticket
  // (the queue keeps handing out work after close until empty).
  queue_.close();
  for (auto& th : threads_) th.join();
}

std::optional<Ticket> ServeEngine::enqueue(Request&& request, const SubmitOptions& options,
                                           bool blocking) {
  if (request.activation() == nullptr) {
    throw std::invalid_argument("ServeEngine: request with null activation");
  }
  Ticket ticket;
  std::uint64_t stream = 0;
  std::size_t row = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ticket.id = next_id_++;
    row = row_locked(options.tenant);
    Slot& slot = slots_[ticket.id];
    slot.request = std::move(request);
    slot.row = row;
    slot.deadline = options.deadline;
    slot.submitted_at = clock_->now();
    // Default stream: the submission sequence (ticket id - 1), so a single
    // submitter gets the 0,1,2,... streams of the old batch engine; pin
    // options.stream for interleaving-independent replays.
    slot.stream = stream = options.stream.value_or(ticket.id - 1);
    ++inflight_;
  }
  const std::size_t lane = lane_of(options.priority);
  const bool admitted =
      blocking ? queue_.push(ticket.id, lane) : queue_.try_push(ticket.id, lane);
  if (!admitted) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      slots_.erase(ticket.id);
      --inflight_;
      ++rows_[row].totals.rejected;
      if (met_.rejected != nullptr) met_.rejected->inc();
    }
    emit_instant_control(cfg_.tracer, obs::SpanKind::kLoadShed, stream, trace_tag(row));
    done_cv_.notify_all();  // a parked drain() must re-check its predicate
    if (blocking) {
      // push() only fails once the queue is closed — submitting into a
      // destructing engine is a caller bug worth throwing about.
      throw std::runtime_error("ServeEngine: submit after shutdown");
    }
    return std::nullopt;
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++rows_[row].totals.submitted;
    if (met_.submitted != nullptr) {
      met_.submitted->inc();
      met_.queue_depth->add(1);
    }
  }
  return ticket;
}

std::size_t ServeEngine::row_locked(std::string_view tenant) {
  const auto it = row_of_.find(tenant);
  if (it != row_of_.end()) return it->second;
  rows_.emplace_back(cfg_.stats_window);
  row_of_.emplace(std::string(tenant), rows_.size() - 1);
  return rows_.size() - 1;
}

Ticket ServeEngine::submit(Request request, SubmitOptions options) {
  return *enqueue(std::move(request), options, /*blocking=*/true);
}

std::optional<Ticket> ServeEngine::try_submit(Request request, SubmitOptions options) {
  return enqueue(std::move(request), options, /*blocking=*/false);
}

void ServeEngine::process(WorkerScratch& scratch, const Request& request, std::uint64_t stream,
                          Response& response) {
  static const fault::NullInjector kGolden;
  const fault::FaultInjector& inj = request.injector ? *request.injector : kGolden;
  // Latency is a measurement, not a scheduling input, so it always reads the
  // real steady clock (util::now_ns) — even when deadlines run against a
  // ManualClock.
  const std::int64_t t0_ns = util::now_ns();
  // Deterministic fault stream: the stream tag (not worker id, not pop order)
  // selects it; the grid forks it again per tile.
  const util::Rng rng = util::Rng(cfg_.seed).fork(stream);
  const tensor::MatI8& a8 = *request.activation();
  // Shape-keyed scratch: mixed shapes in flight each recycle their own
  // buffer set instead of thrashing one set through reallocation.
  auto& tile_scratch = scratch.by_rows[a8.rows()];
  // The stream tag doubles as the memory-model op: activation strike streams
  // are keyed by (memory seed, stream, tile), replayable like the injector's.
  grid_.run_into(a8, request.qa, inj, rng, tile_scratch, response.output, response.verdict,
                 request.memory, stream);
  response.latency_ms = util::ms_since_ns(t0_ns);
}

void ServeEngine::worker_loop(std::size_t lane) {
  // Nesting marker: every parallel_for reached from this thread (the GEMM
  // macro-loop) runs inline here — one request is one worker's work.
  util::mark_thread_as_pool_worker();
  WorkerScratch scratch;
  std::uint64_t id = 0;
  while (queue_.pop(id)) {
    Request request;
    std::size_t row = 0;
    std::uint64_t stream = 0;
    util::TimePoint submitted_at{};
    bool expired = false;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      Slot& slot = slots_.at(id);
      row = slot.row;
      stream = slot.stream;
      submitted_at = slot.submitted_at;
      if (met_.queue_depth != nullptr) met_.queue_depth->add(-1);
      if (slot.deadline && clock_->now() > *slot.deadline) {
        // Retired at the deadline: the GEMM never runs, the output stays
        // empty, and the request's fault stream is simply never drawn (other
        // requests' streams are independent forks, so nothing shifts).
        slot.state = TicketState::kExpired;
        slot.response.expired = true;
        expired = true;
        ++rows_[row].totals.expired;
        if (met_.expired != nullptr) met_.expired->inc();
        --inflight_;
      } else {
        slot.state = TicketState::kRunning;
        request = slot.request;  // pointers + shared_ptr: cheap, lock stays short
        if (met_.queue_wait_us != nullptr) {
          const std::int64_t wait_ns = util::to_ns(clock_->now()) - util::to_ns(submitted_at);
          met_.queue_wait_us->observe(wait_ns > 0 ? static_cast<std::uint64_t>(wait_ns) / 1000
                                                  : 0);
        }
      }
    }
    if (expired) {
      emit_instant_lane(cfg_.tracer, lane, obs::SpanKind::kExpired, stream, trace_tag(row));
      done_cv_.notify_all();
      continue;
    }

    Response response;
    std::exception_ptr error;
    {
      // Installs this thread's trace context: the grid's per-tile spans and
      // the detect stage spans nest under this request span; the kQueued
      // child (submit → claim) is recorded by the constructor.
      obs::ScopedRequestTrace req_trace(cfg_.tracer, lane, stream, trace_tag(row),
                                        util::to_ns(submitted_at));
      try {
        process(scratch, request, stream, response);
      } catch (...) {
        error = std::current_exception();
      }
      if (!error) {
        req_trace.set_verdict(static_cast<std::uint8_t>(response.verdict.verdict));
        bool any_flips = response.verdict.injection.flipped_bits > 0;
        for (const std::uint64_t f : response.verdict.component_flips) {
          any_flips = any_flips || f > 0;
        }
        if (any_flips) {
          emit_instant_lane(cfg_.tracer, lane, obs::SpanKind::kInjectedFlips, stream,
                            trace_tag(row), obs::span_id(stream, -1, obs::SpanKind::kRequest));
        }
      }
    }
    // Completion instant for the tenant's req/s ring (engine clock, seconds).
    const double done_s = error ? 0.0 : static_cast<double>(util::to_ns(clock_->now())) * 1e-9;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      Slot& slot = slots_.at(id);
      TenantRow& r = rows_[row];
      if (error) {
        slot.state = TicketState::kFailed;
        slot.error = error;
        ++r.totals.failed;
        if (met_.failed != nullptr) met_.failed->inc();
      } else {
        slot.state = TicketState::kDone;
        const BatchVerdict& v = response.verdict;
        const double latency_ms = response.latency_ms;
        ServeStats& t = r.totals;
        ++t.completed;
        t.tiles_screened += v.tiles;
        t.tiles_detected += v.tiles_detected;
        t.tiles_patched += v.tiles_patched;
        t.tiles_recomputed += v.tiles_recomputed;
        if (v.verdict != detect::Verdict::kClean) ++t.requests_faulty;
        if (v.verdict == detect::Verdict::kPatched) ++t.requests_patched;
        if (v.verdict == detect::Verdict::kRecomputed) ++t.requests_recomputed;
        if (v.verdict == detect::Verdict::kDetected) ++t.requests_detected;
        for (std::size_t i = 0; i < fault::kComponentCount; ++i) {
          t.component_flips[i] += v.component_flips[i];
        }
        t.latency_ms.add(latency_ms);
        r.latency_window.add(latency_ms);
        r.done_s.add(done_s);
        latency_window_.add(latency_ms);
        if (met_.completed != nullptr) {
          met_.completed->inc();
          met_.tiles_screened->inc(v.tiles);
          met_.tiles_detected->inc(v.tiles_detected);
          met_.tiles_patched->inc(v.tiles_patched);
          met_.tiles_recomputed->inc(v.tiles_recomputed);
          for (std::size_t i = 0; i < fault::kComponentCount; ++i) {
            if (v.component_flips[i] > 0) met_.component_flips[i]->inc(v.component_flips[i]);
          }
          met_.latency_us->observe(
              latency_ms > 0 ? static_cast<std::uint64_t>(latency_ms * 1000.0) : 0);
        }
        slot.response = std::move(response);
      }
      --inflight_;
    }
    done_cv_.notify_all();
  }
}

TicketState ServeEngine::poll(Ticket ticket) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = slots_.find(ticket.id);
  if (it == slots_.end()) {
    throw std::invalid_argument("ServeEngine: unknown or already-consumed ticket");
  }
  return it->second.state;
}

Response ServeEngine::wait(Ticket ticket) {
  Slot slot;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = slots_.find(ticket.id);
    // One waiter per ticket: a second one throws here instead of racing the
    // first to a slot that the first is about to erase.
    if (it == slots_.end() || it->second.waited) {
      throw std::invalid_argument("ServeEngine: unknown or already-consumed ticket");
    }
    it->second.waited = true;
    // Re-look-up per check: concurrent submits may rehash the table. The
    // slot itself stays: only this waiter erases it.
    done_cv_.wait(lock, [&] {
      it = slots_.find(ticket.id);
      return terminal(it->second.state);
    });
    slot = std::move(it->second);
    slots_.erase(it);
  }
  if (slot.error) std::rethrow_exception(slot.error);
  return std::move(slot.response);
}

void ServeEngine::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return inflight_ == 0; });
}

ServeStats ServeEngine::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  ServeStats out;
  for (const TenantRow& r : rows_) {
    add_row(out, r.totals);
    out.req_per_s += rate_per_s(r.done_s);
  }
  fill_window(out, latency_window_);
  return out;
}

void ServeEngine::reset_stats() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (TenantRow& r : rows_) r = TenantRow(cfg_.stats_window);
  latency_window_ = util::SlidingWindow(cfg_.stats_window);
  if (cfg_.metrics != nullptr) cfg_.metrics->reset();
}

ServeStats ServeEngine::tenant_stats(std::string_view tenant) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = row_of_.find(tenant);
  if (it == row_of_.end()) {
    throw std::invalid_argument("ServeEngine: unknown tenant '" + std::string(tenant) + "'");
  }
  const TenantRow& r = rows_[it->second];
  ServeStats out = r.totals;
  out.tenant = it->first;
  fill_window(out, r.latency_window);
  out.req_per_s = rate_per_s(r.done_s);
  return out;
}

std::vector<std::string> ServeEngine::tenants() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(row_of_.size());
  for (const auto& entry : row_of_) names.push_back(entry.first);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace realm::serve
