#include "ts/decomposition.h"

#include <algorithm>
#include <cmath>

#include "math/stats.h"

namespace f2db {
namespace {

// Centered moving average of window `period` (even periods use the
// standard 2x(m) average). Ends are filled by linear extrapolation from
// the first/last defined values so downstream code never sees gaps.
std::vector<double> CenteredMovingAverage(const std::vector<double>& xs,
                                          std::size_t period) {
  const std::size_t n = xs.size();
  std::vector<double> out(n, 0.0);
  const std::size_t half = period / 2;
  const bool even = period % 2 == 0;
  const std::size_t first = half;
  const std::size_t last = n - half - 1;
  for (std::size_t t = first; t <= last; ++t) {
    double sum = 0.0;
    if (even) {
      sum += 0.5 * xs[t - half];
      sum += 0.5 * xs[t + half];
      for (std::size_t j = t - half + 1; j < t + half; ++j) sum += xs[j];
      out[t] = sum / static_cast<double>(period);
    } else {
      for (std::size_t j = t - half; j <= t + half; ++j) sum += xs[j];
      out[t] = sum / static_cast<double>(period);
    }
  }
  // Extrapolate the ends linearly from the first/last two interior values.
  if (last > first) {
    const double head_slope = out[first + 1] - out[first];
    for (std::size_t t = first; t-- > 0;) out[t] = out[t + 1] - head_slope;
    const double tail_slope = out[last] - out[last - 1];
    for (std::size_t t = last + 1; t < n; ++t) out[t] = out[t - 1] + tail_slope;
  } else {
    for (std::size_t t = 0; t < n; ++t) out[t] = out[first];
  }
  return out;
}

}  // namespace

Result<Decomposition> Decompose(const TimeSeries& series, std::size_t period,
                                DecompositionType type) {
  const std::size_t n = series.size();
  if (period < 2) return Status::InvalidArgument("Decompose: period < 2");
  if (n < 2 * period) {
    return Status::InvalidArgument("Decompose: need >= 2 full seasons");
  }
  const std::vector<double> xs = series.ToVector();
  if (type == DecompositionType::kMultiplicative) {
    for (double v : xs) {
      if (v <= 0.0) {
        return Status::InvalidArgument(
            "Decompose: multiplicative needs positive data");
      }
    }
  }

  Decomposition out;
  out.period = period;
  out.type = type;
  out.trend = CenteredMovingAverage(xs, period);

  // Seasonal indices: average detrended value per season position.
  std::vector<double> index_sum(period, 0.0);
  std::vector<std::size_t> index_count(period, 0);
  for (std::size_t t = 0; t < n; ++t) {
    const double detrended = type == DecompositionType::kAdditive
                                 ? xs[t] - out.trend[t]
                                 : xs[t] / out.trend[t];
    index_sum[t % period] += detrended;
    ++index_count[t % period];
  }
  std::vector<double> indices(period);
  for (std::size_t j = 0; j < period; ++j) {
    indices[j] = index_count[j] > 0
                     ? index_sum[j] / static_cast<double>(index_count[j])
                     : (type == DecompositionType::kAdditive ? 0.0 : 1.0);
  }
  // Normalize: additive indices sum to 0, multiplicative average to 1.
  const double mean_index = Mean(indices);
  for (double& v : indices) {
    if (type == DecompositionType::kAdditive) {
      v -= mean_index;
    } else if (std::abs(mean_index) > 1e-12) {
      v /= mean_index;
    }
  }

  out.seasonal.resize(n);
  out.remainder.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    out.seasonal[t] = indices[t % period];
    out.remainder[t] = type == DecompositionType::kAdditive
                           ? xs[t] - out.trend[t] - out.seasonal[t]
                           : xs[t] / (out.trend[t] * out.seasonal[t]);
  }
  return out;
}

Result<std::vector<double>> BoxCox(const std::vector<double>& xs,
                                   double lambda) {
  std::vector<double> out(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] <= 0.0) {
      return Status::InvalidArgument("BoxCox: data must be positive");
    }
    out[i] = std::abs(lambda) < 1e-12
                 ? std::log(xs[i])
                 : (std::pow(xs[i], lambda) - 1.0) / lambda;
  }
  return out;
}

std::vector<double> InverseBoxCox(const std::vector<double>& xs,
                                  double lambda) {
  std::vector<double> out(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (std::abs(lambda) < 1e-12) {
      out[i] = std::exp(xs[i]);
    } else {
      const double base = lambda * xs[i] + 1.0;
      out[i] = base > 0.0 ? std::pow(base, 1.0 / lambda) : 0.0;
    }
  }
  return out;
}

Result<double> SelectBoxCoxLambda(const std::vector<double>& xs,
                                  std::size_t period) {
  if (period < 2) return Status::InvalidArgument("lambda: period < 2");
  if (xs.size() < 2 * period) {
    return Status::InvalidArgument("lambda: need >= 2 seasonal blocks");
  }
  for (double v : xs) {
    if (v <= 0.0) return Status::InvalidArgument("lambda: positive data only");
  }
  const double grid[] = {-1.0, -0.5, 0.0, 0.5, 1.0};
  double best_lambda = 1.0;
  double best_score = std::numeric_limits<double>::max();
  for (const double lambda : grid) {
    auto transformed = BoxCox(xs, lambda);
    if (!transformed.ok()) continue;
    // Per-block standard deviations; a good lambda equalizes them.
    std::vector<double> block_sds;
    for (std::size_t start = 0; start + period <= xs.size(); start += period) {
      std::vector<double> block(
          transformed.value().begin() + static_cast<std::ptrdiff_t>(start),
          transformed.value().begin() +
              static_cast<std::ptrdiff_t>(start + period));
      block_sds.push_back(StdDev(block));
    }
    const double score = CoefficientOfVariation(block_sds);
    if (score < best_score) {
      best_score = score;
      best_lambda = lambda;
    }
  }
  return best_lambda;
}

}  // namespace f2db
