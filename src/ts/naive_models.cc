#include "ts/naive_models.h"

#include <algorithm>
#include <cmath>

#include "math/stats.h"

namespace f2db {

// ---------------------------------------------------------------- MeanModel

Status MeanModel::Fit(const TimeSeries& history) {
  if (history.empty()) return Status::InvalidArgument("MeanModel: empty series");
  mean_ = history.Mean();
  count_ = static_cast<double>(history.size());
  sigma2_ = Variance(history.ToVector());
  fitted_ = true;
  return Status::OK();
}

std::vector<double> MeanModel::Forecast(std::size_t horizon) const {
  return std::vector<double>(horizon, mean_);
}

void MeanModel::ForecastInto(std::size_t horizon,
                             std::vector<double>* out) const {
  out->clear();
  out->resize(horizon, mean_);
}

void MeanModel::Update(double value) {
  count_ += 1.0;
  mean_ += (value - mean_) / count_;
}

std::unique_ptr<ForecastModel> MeanModel::Clone() const {
  return std::make_unique<MeanModel>(*this);
}

std::vector<double> MeanModel::SaveState() const {
  return {mean_, count_, sigma2_};
}

Status MeanModel::RestoreState(const std::vector<double>& state) {
  if (state.size() != 3) return Status::InvalidArgument("MeanModel: bad state");
  mean_ = state[0];
  count_ = state[1];
  sigma2_ = state[2];
  fitted_ = true;
  return Status::OK();
}

std::vector<double> MeanModel::ForecastVariance(std::size_t horizon) const {
  // Forecast = sample mean: var = sigma2 * (1 + 1/n) at every horizon.
  const double v = sigma2_ * (1.0 + (count_ > 0 ? 1.0 / count_ : 0.0));
  return std::vector<double>(horizon, v);
}

// --------------------------------------------------------------- NaiveModel

Status NaiveModel::Fit(const TimeSeries& history) {
  if (history.empty()) return Status::InvalidArgument("NaiveModel: empty series");
  last_ = history[history.size() - 1];
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

std::vector<double> NaiveModel::Forecast(std::size_t horizon) const {
  return std::vector<double>(horizon, last_);
}

void NaiveModel::ForecastInto(std::size_t horizon,
                              std::vector<double>* out) const {
  out->clear();
  out->resize(horizon, last_);
}

void NaiveModel::Update(double value) { last_ = value; }

std::unique_ptr<ForecastModel> NaiveModel::Clone() const {
  return std::make_unique<NaiveModel>(*this);
}

std::vector<double> NaiveModel::SaveState() const {
  return {last_, sigma2_};
}

Status NaiveModel::RestoreState(const std::vector<double>& state) {
  if (state.size() != 2) return Status::InvalidArgument("NaiveModel: bad state");
  last_ = state[0];
  sigma2_ = state[1];
  fitted_ = true;
  return Status::OK();
}

std::vector<double> NaiveModel::ForecastVariance(std::size_t horizon) const {
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
  season_.resize(period_);
  for (std::size_t i = 0; i < period_; ++i) {
    season_[i] = history[history.size() - period_ + i];
  }
  pos_ = 0;
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

std::vector<double> SeasonalNaiveModel::Forecast(std::size_t horizon) const {
  std::vector<double> out(horizon);
  ForecastInto(horizon, &out);
  return out;
}

void SeasonalNaiveModel::ForecastInto(std::size_t horizon,
                                      std::vector<double>* out) const {
  out->clear();
  out->resize(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    (*out)[h] = season_[(pos_ + h % period_) % period_];
  }
}

void SeasonalNaiveModel::Update(double value) {
  // Overwrite the oldest slot (the season the new value belongs to).
  season_[pos_] = value;
  pos_ = (pos_ + 1) % period_;
}

std::unique_ptr<ForecastModel> SeasonalNaiveModel::Clone() const {
  return std::make_unique<SeasonalNaiveModel>(*this);
}

std::vector<double> SeasonalNaiveModel::SaveState() const {
  std::vector<double> out;
  out.push_back(static_cast<double>(period_));
  out.push_back(static_cast<double>(pos_));
  out.push_back(sigma2_);
  out.insert(out.end(), season_.begin(), season_.end());
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
  pos_ = static_cast<std::size_t>(state[1]) % period_;
  sigma2_ = state[2];
  season_.assign(state.begin() + 3, state.end());
  fitted_ = true;
  return Status::OK();
}

std::vector<double> SeasonalNaiveModel::ForecastVariance(
    std::size_t horizon) const {
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
  last_ = history[history.size() - 1];
  count_ = static_cast<double>(history.size());
  const double slope = (last_ - first_) / (count_ - 1.0);
  double sum_sq = 0.0;
  for (std::size_t i = 1; i < history.size(); ++i) {
    const double d = history[i] - history[i - 1] - slope;
    sum_sq += d * d;
  }
  sigma2_ = sum_sq / static_cast<double>(history.size() - 1);
  fitted_ = true;
  return Status::OK();
}

std::vector<double> DriftModel::Forecast(std::size_t horizon) const {
  std::vector<double> out(horizon);
  ForecastInto(horizon, &out);
  return out;
}

void DriftModel::ForecastInto(std::size_t horizon,
                              std::vector<double>* out) const {
  const double slope = (count_ > 1.0) ? (last_ - first_) / (count_ - 1.0) : 0.0;
  out->clear();
  out->resize(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    (*out)[h] = last_ + slope * static_cast<double>(h + 1);
  }
}

void DriftModel::Update(double value) {
  last_ = value;
  count_ += 1.0;
}

std::unique_ptr<ForecastModel> DriftModel::Clone() const {
  return std::make_unique<DriftModel>(*this);
}

std::vector<double> DriftModel::parameters() const {
  const double slope = (count_ > 1.0) ? (last_ - first_) / (count_ - 1.0) : 0.0;
  return {slope};
}

std::vector<double> DriftModel::SaveState() const {
  return {first_, last_, count_, sigma2_};
}

Status DriftModel::RestoreState(const std::vector<double>& state) {
  if (state.size() != 4) return Status::InvalidArgument("DriftModel: bad state");
  first_ = state[0];
  last_ = state[1];
  count_ = state[2];
  sigma2_ = state[3];
  fitted_ = true;
  return Status::OK();
}

std::vector<double> DriftModel::ForecastVariance(std::size_t horizon) const {
  // Hyndman & Athanasopoulos: var_h = sigma2 * h * (1 + h / (n - 1)).
  std::vector<double> out(horizon);
  const double n1 = std::max(count_ - 1.0, 1.0);
  for (std::size_t h = 0; h < horizon; ++h) {
    const double hh = static_cast<double>(h + 1);
    out[h] = sigma2_ * hh * (1.0 + hh / n1);
  }
  return out;
}

}  // namespace f2db
