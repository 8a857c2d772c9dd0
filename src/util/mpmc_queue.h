// Bounded multi-producer / multi-consumer queue with strict priority lanes —
// the admission and scheduling primitive of the serving engine
// (realm::serve::ServeEngine holds one over ticket ids, one lane per
// serve::Priority).
//
// Semantics:
//  * push() blocks while the queue is full and returns false (dropping the
//    item) once the queue has been closed — producers cannot enqueue work the
//    consumers will never see. try_push() is the non-blocking variant: full
//    or closed means false, the reject path of admission control.
//  * pop() blocks while every lane is empty and the queue is open; it drains
//    remaining items after close() and only then returns false, so close()
//    is a graceful "no more work" signal, never a discard.
//  * close() is idempotent and wakes every blocked producer and consumer.
//
// The bound is the backpressure mechanism: a producer that outruns the
// consumers parks on not_full_ instead of growing an unbounded backlog —
// exactly the admission-control behavior a serving front door needs.
//
// Thread safety: every member may be called concurrently from any number of
// threads. Items are moved in and out under a single mutex; per-item work in
// the serving engine is a whole protected GEMM (micro- to milliseconds), so
// lock contention is noise at any realistic consumer count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

namespace realm::util {

/// Lane semantics:
///  * lane 0 is the most urgent; pop() always drains the lowest-numbered
///    non-empty lane first (strict priority, no aging — a saturated lane 0
///    starves lane 2 by design, matching interactive-over-batch serving).
///  * within a lane, items are FIFO, so equal-priority requests complete in
///    submission order under a single consumer.
///  * the capacity bound is TOTAL across lanes: one shared admission budget,
///    so a burst of low-priority traffic exerts backpressure on everyone —
///    the caller decides (via try_push) whether to reject instead of park.
template <typename T>
class PriorityMpmcQueue {
 public:
  PriorityMpmcQueue(std::size_t capacity, std::size_t lanes)
      : capacity_(capacity), lanes_(lanes) {
    if (capacity == 0) throw std::invalid_argument("PriorityMpmcQueue: capacity must be >= 1");
    if (lanes == 0) throw std::invalid_argument("PriorityMpmcQueue: lanes must be >= 1");
  }

  PriorityMpmcQueue(const PriorityMpmcQueue&) = delete;
  PriorityMpmcQueue& operator=(const PriorityMpmcQueue&) = delete;

  /// Blocks while the total budget is exhausted; enqueues on `lane` and
  /// returns true, or returns false (item dropped) once closed.
  bool push(T item, std::size_t lane) {
    check_lane(lane);
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_full_.wait(lock, [&] { return closed_ || size_ < capacity_; });
      if (closed_) return false;
      lanes_[lane].push_back(std::move(item));
      ++size_;
    }
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking admission: enqueues and returns true iff the queue is open
  /// and under budget — the reject path of admission control.
  bool try_push(T item, std::size_t lane) {
    check_lane(lane);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || size_ >= capacity_) return false;
      lanes_[lane].push_back(std::move(item));
      ++size_;
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while every lane is empty and the queue is open. Returns true
  /// with an item from the most urgent non-empty lane, or false once closed
  /// AND fully drained.
  bool pop(T& out) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [&] { return closed_ || size_ > 0; });
      if (size_ == 0) return false;  // closed and drained
      for (auto& lane : lanes_) {
        if (lane.empty()) continue;
        out = std::move(lane.front());
        lane.pop_front();
        --size_;
        break;
      }
    }
    not_full_.notify_one();
    return true;
  }

  /// Signal end of input: blocked producers return false, consumers drain
  /// every lane in priority order and then return false. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t lane_count() const noexcept { return lanes_.size(); }

 private:
  void check_lane(std::size_t lane) const {
    if (lane >= lanes_.size()) throw std::out_of_range("PriorityMpmcQueue: bad lane");
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<std::deque<T>> lanes_;
  std::size_t size_ = 0;
  bool closed_ = false;
};

}  // namespace realm::util
