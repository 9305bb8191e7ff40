#include "ts/theta.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "math/optimizer.h"
#include "ts/decomposition.h"

namespace f2db {

double ThetaModel::SeasonalIndexAhead(std::size_t pos, std::size_t k) const {
  if (seasonal_.empty()) return 1.0;
  return seasonal_[(pos + k - 1) % seasonal_.size()];
}

Status ThetaModel::Fit(const TimeSeries& history) {
  const std::size_t n = history.size();
  if (n < 4) return Status::InvalidArgument("Theta: series too short");

  // Deseasonalize multiplicatively when a season is configured and the
  // history covers at least two full cycles.
  std::vector<double> work = history.ToVector();
  seasonal_.clear();
  std::size_t pos = 0;
  if (period_ >= 2 && n >= 2 * period_) {
    bool positive = true;
    for (double v : work) positive = positive && v > 0.0;
    if (positive) {
      auto decomposition =
          Decompose(history, period_, DecompositionType::kMultiplicative);
      if (decomposition.ok()) {
        seasonal_.resize(period_);
        for (std::size_t j = 0; j < period_; ++j) {
          seasonal_[j] = decomposition.value().seasonal[j];
        }
        for (std::size_t t = 0; t < n; ++t) {
          const double index = seasonal_[t % period_];
          if (std::abs(index) > 1e-12) work[t] /= index;
        }
        // The state's pos must select the index of the NEXT observation.
        pos = n % period_;
      }
    }
  }

  // Theta-0 line: linear regression slope; the drift is half of it.
  const double nn = static_cast<double>(n);
  const double t_mean = (nn - 1.0) / 2.0;
  double y_mean = 0.0;
  for (double v : work) y_mean += v;
  y_mean /= nn;
  double num = 0.0, denom = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    const double dt = static_cast<double>(t) - t_mean;
    num += dt * (work[t] - y_mean);
    denom += dt * dt;
  }
  const double slope = denom > 0 ? num / denom : 0.0;
  drift_ = 0.5 * slope;

  // SES on the deseasonalized series; alpha by one-step SSE.
  auto sse_for = [&](double alpha) {
    double level = work[0];
    double sse = 0.0;
    for (std::size_t t = 1; t < n; ++t) {
      const double err = work[t] - level;
      sse += err * err;
      level = alpha * work[t] + (1.0 - alpha) * level;
    }
    return sse;
  };
  Bounds bounds;
  bounds.lower = {0.01};
  bounds.upper = {0.99};
  OptimizerOptions options;
  options.max_evaluations = 200;
  const OptimizationResult best =
      NelderMead([&](const std::vector<double>& x) { return sse_for(x[0]); },
                 {0.3}, bounds, options);
  alpha_ = std::clamp(best.x[0], 0.01, 0.99);

  // Final pass: level, fitted values, residual variance.
  double level = work[0];
  std::vector<double> fitted(n, 0.0);
  double sse = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    const double index = seasonal_.empty() ? 1.0 : seasonal_[t % period_];
    const double predicted = (level + drift_) * index;
    fitted[t] = t == 0 ? history[0] : predicted;
    const double err = history[t] - fitted[t];
    sse += err * err;
    level = alpha_ * work[t] + (1.0 - alpha_) * level;
  }
  state_ = {level, static_cast<double>(pos)};
  fitted_values_ =
      std::make_shared<const std::vector<double>>(std::move(fitted));
  sigma2_ = sse / nn;
  fitted_ = true;
  return Status::OK();
}

void ThetaModel::ForecastInto(std::span<const double> state,
                              std::size_t horizon,
                              std::vector<double>* out) const {
  assert(fitted_);
  const auto pos = static_cast<std::size_t>(state[kPos]);
  out->clear();
  out->resize(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    const double base = state[kLevel] + drift_ * static_cast<double>(h + 1);
    (*out)[h] = base * SeasonalIndexAhead(pos, h + 1);
  }
}

void ThetaModel::StepState(std::span<double> state, double value) const {
  double deseasonalized = value;
  if (!seasonal_.empty()) {
    const auto pos = static_cast<std::size_t>(state[kPos]);
    const double index = seasonal_[pos];
    if (std::abs(index) > 1e-12) deseasonalized = value / index;
    state[kPos] = static_cast<double>((pos + 1) % seasonal_.size());
  }
  state[kLevel] = alpha_ * deseasonalized + (1.0 - alpha_) * state[kLevel];
}

std::unique_ptr<ForecastModel> ThetaModel::Clone() const {
  return std::make_unique<ThetaModel>(*this);
}

std::vector<double> ThetaModel::SaveState(std::span<const double> state) const {
  std::vector<double> out{static_cast<double>(period_),
                          static_cast<double>(seasonal_.size()),
                          state[kPos],
                          alpha_,
                          drift_,
                          state[kLevel],
                          sigma2_};
  out.insert(out.end(), seasonal_.begin(), seasonal_.end());
  return out;
}

Status ThetaModel::RestoreState(const std::vector<double>& state) {
  if (state.size() < 7) return Status::InvalidArgument("Theta: bad state");
  const std::size_t season_len = static_cast<std::size_t>(state[1]);
  if (state.size() != 7 + season_len) {
    return Status::InvalidArgument("Theta: bad state size");
  }
  period_ = static_cast<std::size_t>(state[0]);
  auto pos = static_cast<std::size_t>(state[2]);
  alpha_ = state[3];
  drift_ = state[4];
  sigma2_ = state[6];
  seasonal_.assign(state.begin() + 7, state.end());
  if (!seasonal_.empty()) pos %= seasonal_.size();
  state_ = {state[5], static_cast<double>(pos)};
  fitted_values_.reset();
  fitted_ = true;
  return Status::OK();
}

std::vector<double> ThetaModel::ForecastVariance(std::span<const double> state,
                                                 std::size_t horizon) const {
  (void)state;
  // SES-style error accumulation: var_h = sigma2 (1 + (h-1) alpha^2).
  std::vector<double> out(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    out[h] = sigma2_ * (1.0 + static_cast<double>(h) * alpha_ * alpha_);
  }
  return out;
}

}  // namespace f2db
