// The Theta method (Assimakopoulos & Nikolopoulos 2000).
//
// Winner of the M3 competition that the paper cites for model coverage
// (Makridakis & Hibon 2000). Implemented in its standard equivalent form
// (Hyndman & Billah 2003): deseasonalize multiplicatively, forecast with
// simple exponential smoothing plus half the slope of the fitted linear
// trend as drift, reseasonalize.

#ifndef F2DB_TS_THETA_H_
#define F2DB_TS_THETA_H_

#include <memory>
#include <vector>

#include "ts/model.h"

namespace f2db {

/// Theta forecast model with optional multiplicative deseasonalization.
class ThetaModel final : public ForecastModel {
 public:
  /// `period` >= 2 enables deseasonalization; 1 runs on the raw series.
  explicit ThetaModel(std::size_t period = 1) : period_(period) {}

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
  ModelType type() const override { return ModelType::kTheta; }
  std::size_t num_parameters() const override { return 2; }  // alpha, drift
  std::vector<double> parameters() const override { return {alpha_, drift_}; }
  bool is_fitted() const override { return fitted_; }
  Status RestoreState(const std::vector<double>& state) override;
  std::vector<double> FittedValues() const override {
    return fitted_values_ ? *fitted_values_ : std::vector<double>{};
  }
  double residual_variance() const override { return sigma2_; }

  double alpha() const { return alpha_; }
  /// Half the regression slope of the deseasonalized series.
  double drift() const { return drift_; }

 private:
  // The state is [level, pos]: the SES level of the deseasonalized series
  // and the seasonal ring position that applies to the next observation.
  static constexpr std::size_t kLevel = 0;
  static constexpr std::size_t kPos = 1;

  /// Seasonal index applying to the observation k steps ahead (k >= 1).
  double SeasonalIndexAhead(std::size_t pos, std::size_t k) const;

  std::size_t period_;
  bool fitted_ = false;
  double alpha_ = 0.3;
  double drift_ = 0.0;
  /// Multiplicative seasonal indices; the state's pos selects the one for
  /// the next observation. Empty when period_ < 2 or no seasonality
  /// detected.
  std::vector<double> seasonal_;
  double sigma2_ = 0.0;
  /// In-sample one-step forecasts of the last Fit, shared between clones.
  std::shared_ptr<const std::vector<double>> fitted_values_;
};

}  // namespace f2db

#endif  // F2DB_TS_THETA_H_
