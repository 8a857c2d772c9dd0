#include "util/stats.h"

namespace realm::util {

double SlidingWindow::quantile(double q) const {
  // Ring order does not matter for a quantile; hand the live prefix (ring
  // fills front-to-back until the first wrap) straight to util::quantile.
  return util::quantile(std::span<const double>(ring_.data(), count()), q);
}

double quantile(std::span<const double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("quantile: empty sample");
  // A NaN q compares false against both clamp bounds, survives the clamp, and
  // turns the index cast below into UB — reject it explicitly.
  if (std::isnan(q)) throw std::invalid_argument("quantile: q is NaN");
  q = std::clamp(q, 0.0, 1.0);
  std::vector<double> copy(xs.begin(), xs.end());
  const auto idx =
      static_cast<std::size_t>(q * static_cast<double>(copy.size() - 1) + 0.5);
  std::nth_element(copy.begin(), copy.begin() + static_cast<std::ptrdiff_t>(idx), copy.end());
  return copy[idx];
}

}  // namespace realm::util
