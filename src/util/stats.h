// Streaming statistics and quantiles used throughout the characterization
// harness (Sec. IV of the paper) and by the statistical-unit hardware model.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace realm::util {

/// Welford running mean/variance with min/max tracking.
///
/// Edge-case contract (pinned by test_stats):
///  * empty (count() == 0): mean(), variance(), stddev(), min(), max() all
///    return 0.0 — never NaN or an infinity sentinel;
///  * single sample: variance() and stddev() are 0.0 (sample variance is
///    undefined at n == 1; 0 keeps downstream tables finite), min() == max()
///    == mean() == the sample;
///  * duplicate values: variance() is exactly 0.0 (the Welford update adds
///    delta * (x - mean_) == 0 each step — no catastrophic cancellation);
///  * merge() with an empty side is the identity in either direction.
class RunningStat {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  void merge(const RunningStat& other) noexcept {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    const double delta = other.mean_ - mean_;
    const auto na = static_cast<double>(n_);
    const auto nb = static_cast<double>(other.n_);
    const double nt = na + nb;
    m2_ += other.m2_ + delta * delta * na * nb / nt;
    mean_ += delta * nb / nt;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-capacity window over the most recent samples, for quantiles that
/// stay meaningful under a continuous stream (a whole-history quantile goes
/// stale; a per-batch quantile is noise once there are no batches). The async
/// serving engine keeps its latency p50/p99 here.
///
/// Semantics: add() overwrites the oldest sample once `capacity` samples are
/// held; quantile() is the exact util::quantile over whatever the window
/// currently holds and therefore throws on an empty window (same contract).
class SlidingWindow {
 public:
  explicit SlidingWindow(std::size_t capacity) : ring_(capacity) {
    if (capacity == 0) throw std::invalid_argument("SlidingWindow: capacity must be >= 1");
  }

  void add(double x) noexcept {
    ring_[next_] = x;
    next_ = (next_ + 1) % ring_.size();
    ++added_;
  }

  /// Samples currently in the window: min(total(), capacity()).
  [[nodiscard]] std::size_t count() const noexcept { return std::min(added_, ring_.size()); }
  /// Lifetime adds, including samples that have slid out.
  [[nodiscard]] std::size_t total() const noexcept { return added_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }

  /// Exact quantile over the current window (see util::quantile for the q
  /// contract). Throws std::invalid_argument on an empty window.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<double> ring_;
  std::size_t next_ = 0;
  std::size_t added_ = 0;
};

/// Exact quantile of a sample (copies + nth_element; fine for eval-sized
/// data), using the nearest-rank index round(q * (n - 1)).
///
/// Edge-case contract (pinned by test_stats):
///  * empty input throws std::invalid_argument — there is no defensible
///    value, and returning a sentinel would poison percentile tables;
///  * NaN q throws std::invalid_argument (a NaN would otherwise slip through
///    clamping and index-cast into UB);
///  * q outside [0, 1] clamps to the nearest bound, so q == 0 / q == 1 are
///    exactly min / max;
///  * a single-sample input returns that sample for every q;
///  * duplicate values are fine — nth_element handles ties.
[[nodiscard]] double quantile(std::span<const double> xs, double q);

}  // namespace realm::util
