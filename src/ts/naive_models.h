// Baseline forecast models: mean, naive (random walk), seasonal naive, and
// drift. These serve as sanity baselines in tests and as cheap fallbacks in
// automatic model selection.

#ifndef F2DB_TS_NAIVE_MODELS_H_
#define F2DB_TS_NAIVE_MODELS_H_

#include <memory>
#include <vector>

#include "ts/model.h"

namespace f2db {

/// Forecasts the running mean of all observations seen so far.
/// State: [mean, count].
class MeanModel final : public ForecastModel {
 public:
  using ForecastModel::ForecastInto;
  using ForecastModel::ForecastVariance;
  using ForecastModel::SaveState;

  Status Fit(const TimeSeries& history) override;
  void StepState(std::span<double> state, double value) const override;
  void ForecastInto(std::span<const double> state, std::size_t horizon,
                    std::vector<double>* out) const override;
  std::vector<double> ForecastVariance(std::span<const double> state,
                                       std::size_t horizon) const override;
  std::vector<double> SaveState(std::span<const double> state) const override;
  std::unique_ptr<ForecastModel> Clone() const override;
  ModelType type() const override { return ModelType::kMean; }
  std::size_t num_parameters() const override { return 1; }
  std::vector<double> parameters() const override {
    return {state_.empty() ? 0.0 : state_[0]};
  }
  bool is_fitted() const override { return fitted_; }
  Status RestoreState(const std::vector<double>& state) override;
  double residual_variance() const override { return sigma2_; }

 private:
  bool fitted_ = false;
  double sigma2_ = 0.0;  ///< Residual variance around the mean.
};

/// Random walk forecast: every horizon gets the last observation.
/// State: [last].
class NaiveModel final : public ForecastModel {
 public:
  using ForecastModel::ForecastInto;
  using ForecastModel::ForecastVariance;
  using ForecastModel::SaveState;

  Status Fit(const TimeSeries& history) override;
  void StepState(std::span<double> state, double value) const override;
  void ForecastInto(std::span<const double> state, std::size_t horizon,
                    std::vector<double>* out) const override;
  std::vector<double> ForecastVariance(std::span<const double> state,
                                       std::size_t horizon) const override;
  std::vector<double> SaveState(std::span<const double> state) const override;
  std::unique_ptr<ForecastModel> Clone() const override;
  ModelType type() const override { return ModelType::kNaive; }
  std::size_t num_parameters() const override { return 0; }
  std::vector<double> parameters() const override { return {}; }
  bool is_fitted() const override { return fitted_; }
  Status RestoreState(const std::vector<double>& state) override;
  double residual_variance() const override { return sigma2_; }

 private:
  bool fitted_ = false;
  double sigma2_ = 0.0;  ///< Variance of one-step differences.
};

/// Repeats the most recent full season.
/// State: [pos, season x period], a ring of the last `period` values whose
/// oldest slot is at index pos.
class SeasonalNaiveModel final : public ForecastModel {
 public:
  using ForecastModel::ForecastInto;
  using ForecastModel::ForecastVariance;
  using ForecastModel::SaveState;

  /// `period` is the season length (>= 1; 1 degenerates to NaiveModel).
  explicit SeasonalNaiveModel(std::size_t period) : period_(period) {}

  Status Fit(const TimeSeries& history) override;
  void StepState(std::span<double> state, double value) const override;
  void ForecastInto(std::span<const double> state, std::size_t horizon,
                    std::vector<double>* out) const override;
  std::vector<double> ForecastVariance(std::span<const double> state,
                                       std::size_t horizon) const override;
  std::vector<double> SaveState(std::span<const double> state) const override;
  std::unique_ptr<ForecastModel> Clone() const override;
  ModelType type() const override { return ModelType::kSeasonalNaive; }
  std::size_t num_parameters() const override { return 0; }
  std::vector<double> parameters() const override { return {}; }
  bool is_fitted() const override { return fitted_; }
  Status RestoreState(const std::vector<double>& state) override;
  double residual_variance() const override { return sigma2_; }

 private:
  std::size_t period_;
  bool fitted_ = false;
  double sigma2_ = 0.0;  ///< Variance of seasonal differences.
};

/// Random walk with drift: extrapolates the average historical step.
/// State: [last, count].
class DriftModel final : public ForecastModel {
 public:
  using ForecastModel::ForecastInto;
  using ForecastModel::ForecastVariance;
  using ForecastModel::SaveState;

  Status Fit(const TimeSeries& history) override;
  void StepState(std::span<double> state, double value) const override;
  void ForecastInto(std::span<const double> state, std::size_t horizon,
                    std::vector<double>* out) const override;
  std::vector<double> ForecastVariance(std::span<const double> state,
                                       std::size_t horizon) const override;
  std::vector<double> SaveState(std::span<const double> state) const override;
  std::unique_ptr<ForecastModel> Clone() const override;
  ModelType type() const override { return ModelType::kDrift; }
  std::size_t num_parameters() const override { return 1; }
  std::vector<double> parameters() const override;
  bool is_fitted() const override { return fitted_; }
  Status RestoreState(const std::vector<double>& state) override;
  double residual_variance() const override { return sigma2_; }

 private:
  /// Average step from the first observation to the state's last one.
  double Slope(std::span<const double> state) const;

  bool fitted_ = false;
  double first_ = 0.0;
  double sigma2_ = 0.0;  ///< Variance of drift-adjusted differences.
};

}  // namespace f2db

#endif  // F2DB_TS_NAIVE_MODELS_H_
