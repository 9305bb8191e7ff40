#include "ts/seasonality.h"

#include <algorithm>
#include <cmath>

#include "math/stats.h"

namespace f2db {
namespace {

// Removes an OLS linear trend.
std::vector<double> Detrend(const std::vector<double>& xs) {
  const std::size_t n = xs.size();
  if (n < 3) return xs;
  // Closed-form simple regression on t = 0..n-1.
  const double nn = static_cast<double>(n);
  const double t_mean = (nn - 1.0) / 2.0;
  const double y_mean = Mean(xs);
  double num = 0.0;
  double denom = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    const double dt = static_cast<double>(t) - t_mean;
    num += dt * (xs[t] - y_mean);
    denom += dt * dt;
  }
  const double slope = denom > 0 ? num / denom : 0.0;
  std::vector<double> out(n);
  for (std::size_t t = 0; t < n; ++t) {
    out[t] = xs[t] - y_mean - slope * (static_cast<double>(t) - t_mean);
  }
  return out;
}

}  // namespace

SeasonalityResult DetectSeasonality(const TimeSeries& series,
                                    const SeasonalityOptions& options) {
  SeasonalityResult result;
  const std::size_t n = series.size();
  if (n < 8) return result;

  const std::vector<double> data =
      options.detrend ? Detrend(series.ToVector()) : series.ToVector();

  const std::size_t longest =
      std::min(options.max_period, n / 3 > 1 ? n / 3 : 1);
  std::vector<std::size_t> candidates = options.candidates;
  if (candidates.empty()) {
    for (std::size_t m = 2; m <= longest; ++m) candidates.push_back(m);
  }
  if (candidates.empty()) return result;

  const std::size_t max_lag =
      std::min(n - 1, *std::max_element(candidates.begin(), candidates.end()) + 1);
  const std::vector<double> acf = Autocorrelation(data, max_lag);
  const double noise_band = 1.96 / std::sqrt(static_cast<double>(n));

  double best = 0.0;
  std::size_t best_period = 1;
  for (std::size_t m : candidates) {
    if (m < 2 || m >= acf.size()) continue;
    const double value = acf[m];
    if (value < options.min_acf || value < noise_band) continue;
    // Local-maximum check: the seasonal lag must beat its neighbors, so a
    // slowly decaying ACF (trend remnant) does not masquerade as a season.
    const double left = acf[m - 1];
    const double right = m + 1 < acf.size() ? acf[m + 1] : -1.0;
    if (value < left || value < right) continue;
    if (value > best) {
      best = value;
      best_period = m;
    }
  }
  result.period = best_period;
  result.strength = best_period > 1 ? best : 0.0;
  return result;
}

}  // namespace f2db
