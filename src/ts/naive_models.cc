#include "ts/naive_models.h"

#include <algorithm>
#include <cmath>

#include "math/stats.h"

namespace f2db {

// ---------------------------------------------------------------- MeanModel

Status MeanModel::Fit(const TimeSeries& history) {
  if (history.empty()) return Status::InvalidArgument("MeanModel: empty series");
  state_ = {history.Mean(), static_cast<double>(history.size())};
  sigma2_ = Variance(history.ToVector());
  fitted_ = true;
  return Status::OK();
}

void MeanModel::StepState(std::span<double> state, double value) const {
  state[1] += 1.0;
  state[0] += (value - state[0]) / state[1];
}

void MeanModel::ForecastInto(std::span<const double> state,
                             std::size_t horizon,
                             std::vector<double>* out) const {
  out->clear();
  out->resize(horizon, state[0]);
}

std::unique_ptr<ForecastModel> MeanModel::Clone() const {
  return std::make_unique<MeanModel>(*this);
}

std::vector<double> MeanModel::SaveState(std::span<const double> state) const {
  return {state[0], state[1], sigma2_};
}

Status MeanModel::RestoreState(const std::vector<double>& state) {
  if (state.size() != 3) return Status::InvalidArgument("MeanModel: bad state");
  state_ = {state[0], state[1]};
  sigma2_ = state[2];
  fitted_ = true;
  return Status::OK();
}

std::vector<double> MeanModel::ForecastVariance(std::span<const double> state,
                                                std::size_t horizon) const {
  // Forecast = sample mean: var = sigma2 * (1 + 1/n) at every horizon.
  const double count = state[1];
  const double v = sigma2_ * (1.0 + (count > 0 ? 1.0 / count : 0.0));
  return std::vector<double>(horizon, v);
}

// --------------------------------------------------------------- NaiveModel

Status NaiveModel::Fit(const TimeSeries& history) {
  if (history.empty()) return Status::InvalidArgument("NaiveModel: empty series");
  state_ = {history[history.size() - 1]};
  std::vector<double> diffs;
  diffs.reserve(history.size());
  for (std::size_t i = 1; i < history.size(); ++i) {
    diffs.push_back(history[i] - history[i - 1]);
  }
  double sum_sq = 0.0;
  for (double d : diffs) sum_sq += d * d;
  sigma2_ = diffs.empty() ? 0.0 : sum_sq / static_cast<double>(diffs.size());
  fitted_ = true;
  return Status::OK();
}

void NaiveModel::StepState(std::span<double> state, double value) const {
  state[0] = value;
}

void NaiveModel::ForecastInto(std::span<const double> state,
                              std::size_t horizon,
                              std::vector<double>* out) const {
  out->clear();
  out->resize(horizon, state[0]);
}

std::unique_ptr<ForecastModel> NaiveModel::Clone() const {
  return std::make_unique<NaiveModel>(*this);
}

std::vector<double> NaiveModel::SaveState(std::span<const double> state) const {
  return {state[0], sigma2_};
}

Status NaiveModel::RestoreState(const std::vector<double>& state) {
  if (state.size() != 2) return Status::InvalidArgument("NaiveModel: bad state");
  state_ = {state[0]};
  sigma2_ = state[1];
  fitted_ = true;
  return Status::OK();
}

std::vector<double> NaiveModel::ForecastVariance(std::span<const double> state,
                                                 std::size_t horizon) const {
  (void)state;
  // Random walk: errors accumulate, var_h = sigma2 * h.
  std::vector<double> out(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    out[h] = sigma2_ * static_cast<double>(h + 1);
  }
  return out;
}

// ------------------------------------------------------- SeasonalNaiveModel

Status SeasonalNaiveModel::Fit(const TimeSeries& history) {
  if (period_ == 0) return Status::InvalidArgument("SeasonalNaive: period 0");
  if (history.size() < period_) {
    return Status::InvalidArgument(
        "SeasonalNaive: need at least one full season (" +
        std::to_string(period_) + " observations)");
  }
  state_.assign(1 + period_, 0.0);  // pos 0: the ring starts in order
  for (std::size_t i = 0; i < period_; ++i) {
    state_[1 + i] = history[history.size() - period_ + i];
  }
  double sum_sq = 0.0;
  std::size_t count = 0;
  for (std::size_t i = period_; i < history.size(); ++i) {
    const double d = history[i] - history[i - period_];
    sum_sq += d * d;
    ++count;
  }
  sigma2_ = count > 0 ? sum_sq / static_cast<double>(count) : 0.0;
  fitted_ = true;
  return Status::OK();
}

void SeasonalNaiveModel::ForecastInto(std::span<const double> state,
                                      std::size_t horizon,
                                      std::vector<double>* out) const {
  const auto pos = static_cast<std::size_t>(state[0]);
  out->clear();
  out->resize(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    (*out)[h] = state[1 + (pos + h % period_) % period_];
  }
}

void SeasonalNaiveModel::StepState(std::span<double> state,
                                   double value) const {
  // Overwrite the oldest slot (the season the new value belongs to).
  const auto pos = static_cast<std::size_t>(state[0]);
  state[1 + pos] = value;
  state[0] = static_cast<double>((pos + 1) % period_);
}

std::unique_ptr<ForecastModel> SeasonalNaiveModel::Clone() const {
  return std::make_unique<SeasonalNaiveModel>(*this);
}

std::vector<double> SeasonalNaiveModel::SaveState(
    std::span<const double> state) const {
  std::vector<double> out;
  out.push_back(static_cast<double>(period_));
  out.push_back(state[0]);
  out.push_back(sigma2_);
  out.insert(out.end(), state.begin() + 1, state.end());
  return out;
}

Status SeasonalNaiveModel::RestoreState(const std::vector<double>& state) {
  if (state.size() < 3) {
    return Status::InvalidArgument("SeasonalNaive: bad state");
  }
  const std::size_t period = static_cast<std::size_t>(state[0]);
  if (period == 0 || state.size() != 3 + period) {
    return Status::InvalidArgument("SeasonalNaive: bad state size");
  }
  period_ = period;
  sigma2_ = state[2];
  state_.assign(1 + period_, 0.0);
  state_[0] = static_cast<double>(static_cast<std::size_t>(state[1]) % period_);
  std::copy(state.begin() + 3, state.end(), state_.begin() + 1);
  fitted_ = true;
  return Status::OK();
}

std::vector<double> SeasonalNaiveModel::ForecastVariance(
    std::span<const double> state, std::size_t horizon) const {
  (void)state;
  // var_h = sigma2 * (number of completed seasonal cycles + 1).
  std::vector<double> out(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    out[h] = sigma2_ * static_cast<double>(h / period_ + 1);
  }
  return out;
}

// --------------------------------------------------------------- DriftModel

Status DriftModel::Fit(const TimeSeries& history) {
  if (history.size() < 2) {
    return Status::InvalidArgument("DriftModel: need >= 2 observations");
  }
  first_ = history[0];
  state_ = {history[history.size() - 1], static_cast<double>(history.size())};
  const double slope = Slope(state_);
  double sum_sq = 0.0;
  for (std::size_t i = 1; i < history.size(); ++i) {
    const double d = history[i] - history[i - 1] - slope;
    sum_sq += d * d;
  }
  sigma2_ = sum_sq / static_cast<double>(history.size() - 1);
  fitted_ = true;
  return Status::OK();
}

double DriftModel::Slope(std::span<const double> state) const {
  const double last = state[0];
  const double count = state[1];
  return (count > 1.0) ? (last - first_) / (count - 1.0) : 0.0;
}

void DriftModel::ForecastInto(std::span<const double> state,
                              std::size_t horizon,
                              std::vector<double>* out) const {
  const double slope = Slope(state);
  out->clear();
  out->resize(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    (*out)[h] = state[0] + slope * static_cast<double>(h + 1);
  }
}

void DriftModel::StepState(std::span<double> state, double value) const {
  state[0] = value;
  state[1] += 1.0;
}

std::unique_ptr<ForecastModel> DriftModel::Clone() const {
  return std::make_unique<DriftModel>(*this);
}

std::vector<double> DriftModel::parameters() const {
  return {state_.empty() ? 0.0 : Slope(state_)};
}

std::vector<double> DriftModel::SaveState(std::span<const double> state) const {
  return {first_, state[0], state[1], sigma2_};
}

Status DriftModel::RestoreState(const std::vector<double>& state) {
  if (state.size() != 4) return Status::InvalidArgument("DriftModel: bad state");
  first_ = state[0];
  state_ = {state[1], state[2]};
  sigma2_ = state[3];
  fitted_ = true;
  return Status::OK();
}

std::vector<double> DriftModel::ForecastVariance(std::span<const double> state,
                                                 std::size_t horizon) const {
  // Hyndman & Athanasopoulos: var_h = sigma2 * h * (1 + h / (n - 1)).
  std::vector<double> out(horizon);
  const double n1 = std::max(state[1] - 1.0, 1.0);
  for (std::size_t h = 0; h < horizon; ++h) {
    const double hh = static_cast<double>(h + 1);
    out[h] = sigma2_ * hh * (1.0 + hh / n1);
  }
  return out;
}

}  // namespace f2db
