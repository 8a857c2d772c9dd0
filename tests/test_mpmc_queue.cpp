#include "util/mpmc_queue.h"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "realm_test.h"

using realm::util::PriorityMpmcQueue;

namespace {

constexpr std::size_t kLanes = 3;

/// Spreads a stream of items across every lane: item i rides lane i % kLanes.
std::size_t lane_for(std::uint64_t i) { return static_cast<std::size_t>(i % kLanes); }

}  // namespace

REALM_TEST(fifo_order_and_close_semantics) {
  PriorityMpmcQueue<int> q(8, kLanes);
  for (int i = 0; i < 5; ++i) REALM_CHECK(q.push(i, 1));
  REALM_CHECK_EQ(q.size(), std::size_t{5});
  q.close();
  // close() is a graceful end-of-input: queued items still drain, in order.
  int v = -1;
  for (int i = 0; i < 5; ++i) {
    REALM_CHECK(q.pop(v));
    REALM_CHECK_EQ(v, i);
  }
  REALM_CHECK(!q.pop(v));       // closed and drained
  REALM_CHECK(!q.push(99, 0));  // producers see closed immediately, on any lane
  REALM_CHECK(q.closed());
  q.close();                    // idempotent
}

REALM_TEST(capacity_bound_applies_backpressure) {
  // A capacity-1 queue forces the producer to park until the consumer pops:
  // the total depth can never exceed the bound, and nothing is lost. One
  // lane keeps the arrival order observable.
  PriorityMpmcQueue<int> q(1, kLanes);
  constexpr int kItems = 64;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) q.push(i, 2);
    q.close();
  });
  int v = -1;
  int received = 0;
  while (q.pop(v)) {
    REALM_CHECK_EQ(v, received);  // FIFO preserved through the blocking
    REALM_CHECK(q.size() <= 1);
    ++received;
  }
  producer.join();
  REALM_CHECK_EQ(received, kItems);
}

REALM_TEST(many_producers_many_consumers_deliver_each_item_once) {
  PriorityMpmcQueue<std::uint64_t> q(4, kLanes);
  constexpr std::uint64_t kProducers = 3, kConsumers = 4, kPerProducer = 200;
  std::atomic<std::uint64_t> popped_sum{0}, popped_count{0};
  std::vector<std::thread> threads;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v = p * kPerProducer + i;
        q.push(v, lane_for(v));
      }
    });
  }
  std::vector<std::thread> consumers;
  for (std::uint64_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      std::uint64_t v = 0;
      while (q.pop(v)) {
        popped_sum.fetch_add(v, std::memory_order_relaxed);
        popped_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  const std::uint64_t n = kProducers * kPerProducer;
  REALM_CHECK_EQ(popped_count.load(), n);
  REALM_CHECK_EQ(popped_sum.load(), n * (n - 1) / 2);  // each value exactly once
}

REALM_TEST(close_with_queued_items_drains_before_reporting_end) {
  // Shutdown edge: close() with a full queue and concurrent consumers. Every
  // queued item must still be delivered (in order within a lane, observed
  // per consumer via a monotonicity check) before pop() starts returning
  // false — close is end-of-input, not discard.
  PriorityMpmcQueue<int> q(16, kLanes);
  for (int i = 0; i < 16; ++i) REALM_CHECK(q.push(i, 0));
  q.close();
  REALM_CHECK(!q.push(100, 0));  // rejected while items are still queued
  std::atomic<int> delivered{0};
  std::vector<std::thread> consumers;
  std::atomic<bool> order_ok{true};
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      int v = -1;
      int last = -1;
      while (q.pop(v)) {
        if (v <= last) order_ok = false;  // FIFO: each consumer sees increasing values
        last = v;
        delivered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : consumers) t.join();
  REALM_CHECK(order_ok.load());
  REALM_CHECK_EQ(delivered.load(), 16);
  int v = -1;
  REALM_CHECK(!q.pop(v));  // drained and closed: end of stream is sticky
  REALM_CHECK_EQ(q.size(), std::size_t{0});
}

REALM_TEST(close_releases_blocked_producers_and_consumers) {
  // Shutdown edge: threads parked inside push (queue full) and pop (queue
  // empty) when close() lands must both wake and return false — a missed
  // notify here is a hang, which the ctest timeout would surface.
  PriorityMpmcQueue<int> full(1, kLanes);
  REALM_CHECK(full.push(0, 2));
  std::atomic<bool> push_result{true};
  std::thread producer([&] { push_result = full.push(1, 0); });  // parks: queue is full
  PriorityMpmcQueue<int> empty(1, kLanes);
  std::atomic<bool> pop_result{true};
  std::thread consumer([&] {
    int v = -1;
    pop_result = empty.pop(v);  // parks: every lane is empty
  });
  // Give both threads a chance to reach their condvar waits before closing.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  full.close();
  empty.close();
  producer.join();
  consumer.join();
  REALM_CHECK(!push_result.load());  // blocked push observes close, rejects
  REALM_CHECK(!pop_result.load());   // blocked pop observes close, ends stream
  int v = -1;
  REALM_CHECK(full.pop(v));  // the pre-close item still drains
  REALM_CHECK_EQ(v, 0);
}

REALM_TEST(stressed_mpmc_with_mid_stream_close_loses_nothing_already_queued) {
  // TSan-stressed shutdown: many producers race many consumers through a
  // tiny queue, every lane in play, while the main thread closes mid-stream.
  // Accepted pushes and successful pops must balance exactly — close may
  // refuse new items but can never drop an accepted one or double-deliver
  // under contention, whichever lane it sits in.
  constexpr int kProducers = 4, kConsumers = 4;
  PriorityMpmcQueue<std::uint64_t> q(2, kLanes);
  std::atomic<std::uint64_t> pushed_sum{0}, popped_sum{0};
  std::atomic<std::uint64_t> pushed_count{0}, popped_count{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 1; i <= 500; ++i) {
        const std::uint64_t v = static_cast<std::uint64_t>(p) * 1000 + i;
        if (!q.push(v, lane_for(v))) break;  // close() observed: stop producing
        pushed_sum.fetch_add(v, std::memory_order_relaxed);
        pushed_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      std::uint64_t v = 0;
      while (q.pop(v)) {
        popped_sum.fetch_add(v, std::memory_order_relaxed);
        popped_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  q.close();  // mid-stream: producers mid-push, consumers mid-pop
  for (auto& t : threads) t.join();
  REALM_CHECK_EQ(popped_count.load(), pushed_count.load());
  REALM_CHECK_EQ(popped_sum.load(), pushed_sum.load());
  std::uint64_t v = 0;
  REALM_CHECK(!q.pop(v));  // nothing stranded in any lane
}

REALM_TEST(priority_lanes_pop_in_priority_order) {
  // Lane 0 is most urgent; pop() always drains the lowest non-empty lane and
  // preserves FIFO within a lane regardless of push interleaving.
  PriorityMpmcQueue<int> q(8, 3);
  REALM_CHECK_EQ(q.lane_count(), std::size_t{3});
  REALM_CHECK(q.push(20, 2));
  REALM_CHECK(q.push(10, 1));
  REALM_CHECK(q.push(21, 2));
  REALM_CHECK(q.push(0, 0));
  REALM_CHECK(q.push(11, 1));
  REALM_CHECK_EQ(q.size(), std::size_t{5});  // size is TOTAL across lanes
  int v = -1;
  const int want[] = {0, 10, 11, 20, 21};
  for (const int w : want) {
    REALM_CHECK(q.pop(v));
    REALM_CHECK_EQ(v, w);
  }
  // Lane indices are validated loudly, and degenerate shapes are rejected.
  REALM_CHECK_THROWS(q.push(1, 3), std::out_of_range);
  REALM_CHECK_THROWS(q.try_push(1, 99), std::out_of_range);
  REALM_CHECK_THROWS(PriorityMpmcQueue<int>(0, 3), std::invalid_argument);
  REALM_CHECK_THROWS(PriorityMpmcQueue<int>(8, 0), std::invalid_argument);
}

REALM_TEST(priority_try_push_sheds_load_at_capacity) {
  // The admission bound is shared across lanes: once TOTAL depth hits
  // capacity, try_push rejects on EVERY lane — urgency does not buy a
  // deeper queue, only an earlier pop.
  PriorityMpmcQueue<int> q(2, 3);
  REALM_CHECK(q.try_push(1, 2));
  REALM_CHECK(q.try_push(2, 1));
  REALM_CHECK(!q.try_push(3, 0));  // full: even the urgent lane is refused
  REALM_CHECK_EQ(q.size(), q.capacity());
  int v = -1;
  REALM_CHECK(q.pop(v));
  REALM_CHECK_EQ(v, 2);            // lane 1 outranks lane 2
  REALM_CHECK(q.try_push(3, 0));   // a pop frees shared budget for any lane
  q.close();
  REALM_CHECK(!q.try_push(9, 0));  // closed beats non-full
}

REALM_TEST(priority_close_drains_lanes_in_order_and_releases_blocked) {
  // close() is end-of-input, not discard: queued items across all lanes
  // drain in strict priority order before pop() reports end of stream, and a
  // producer parked on a full queue wakes with a rejection.
  PriorityMpmcQueue<int> q(3, 2);
  REALM_CHECK(q.push(5, 1));
  REALM_CHECK(q.push(6, 1));
  REALM_CHECK(q.push(1, 0));
  std::atomic<bool> push_result{true};
  std::thread producer([&] { push_result = q.push(7, 0); });  // parks: full
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  producer.join();
  REALM_CHECK(!push_result.load());
  int v = -1;
  const int want[] = {1, 5, 6};  // urgent lane first, then lane-1 FIFO
  for (const int w : want) {
    REALM_CHECK(q.pop(v));
    REALM_CHECK_EQ(v, w);
  }
  REALM_CHECK(!q.pop(v));  // drained + closed
  REALM_CHECK(q.closed());
}

REALM_TEST_MAIN()
