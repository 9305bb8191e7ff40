// Exponential smoothing models: simple (SES), double (Holt, optionally
// damped), and triple (Holt–Winters, additive or multiplicative
// seasonality).
//
// The paper's evaluation uses triple exponential smoothing as the model of
// choice ("we analyzed different forecast models ... and found that triple
// exponential smoothing worked best in most cases, where we set the
// seasonality according to the granularity of the data", Section VI-A).
// Smoothing parameters are estimated by minimizing the one-step-ahead sum
// of squared errors with a derivative-free optimizer (Section IV-B1).

#ifndef F2DB_TS_EXPONENTIAL_SMOOTHING_H_
#define F2DB_TS_EXPONENTIAL_SMOOTHING_H_

#include <memory>
#include <vector>

#include "common/failpoint.h"
#include "ts/model.h"

namespace f2db {

/// Fault-injection site: ExponentialSmoothingModel::Fit fails with
/// kUnavailable before touching any state (used to exercise the engine's
/// re-estimation fallback ladder).
F2DB_DEFINE_FAILPOINT(kFailpointEtsFit, "ts.ets_fit")

/// Structural configuration of an exponential smoothing model.
struct EtsSpec {
  bool trend = false;           ///< Include a (Holt) trend component.
  bool damped = false;          ///< Damped trend (requires trend).
  bool seasonal = false;        ///< Include a seasonal component.
  bool multiplicative = false;  ///< Multiplicative seasonality.
  std::size_t period = 1;       ///< Season length (>= 2 when seasonal).
};

/// Which optimizer estimates the smoothing parameters.
enum class EtsOptimizer {
  kNelderMead,          ///< Default: fast local simplex search.
  kHillClimb,           ///< Coordinate hill-climbing (paper Section IV-B1).
  kSimulatedAnnealing,  ///< Global stochastic search.
};

/// Unified exponential-smoothing model covering SES, Holt, and
/// Holt–Winters. The concrete ModelType is derived from the spec.
class ExponentialSmoothingModel final : public ForecastModel {
 public:
  explicit ExponentialSmoothingModel(
      EtsSpec spec, EtsOptimizer optimizer = EtsOptimizer::kNelderMead);

  /// Simple exponential smoothing.
  static std::unique_ptr<ExponentialSmoothingModel> Ses();
  /// Holt's linear (optionally damped) trend method.
  static std::unique_ptr<ExponentialSmoothingModel> Holt(bool damped = false);
  /// Triple exponential smoothing with additive seasonality.
  static std::unique_ptr<ExponentialSmoothingModel> HoltWintersAdditive(
      std::size_t period);
  /// Triple exponential smoothing with multiplicative seasonality.
  static std::unique_ptr<ExponentialSmoothingModel> HoltWintersMultiplicative(
      std::size_t period);

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
  ModelType type() const override;
  std::size_t num_parameters() const override;
  std::vector<double> parameters() const override;
  bool is_fitted() const override { return fitted_; }
  Status RestoreState(const std::vector<double>& state) override;
  std::vector<double> FittedValues() const override {
    return fitted_values_ ? *fitted_values_ : std::vector<double>{};
  }
  double residual_variance() const override { return sigma2_; }

  const EtsSpec& spec() const { return spec_; }

  /// Smoothing parameters after Fit.
  double alpha() const { return alpha_; }
  double beta() const { return beta_; }
  double gamma() const { return gamma_; }
  double phi() const { return phi_; }

 private:
  // The state is [level, trend, seasonal x m] with m = period when
  // seasonal, else 0; seasonal[0] applies to the next observation and the
  // indices rotate by one on every step.
  static constexpr std::size_t kLevel = 0;
  static constexpr std::size_t kTrend = 1;
  static constexpr std::size_t kSeasonal = 2;

  /// Number of seasonal slots in the state.
  std::size_t season_length() const {
    return spec_.seasonal ? spec_.period : 0;
  }

  /// Initializes level/trend/seasonal from the first observations into
  /// `state` (resized to the state layout).
  Status InitializeState(const TimeSeries& history,
                         std::vector<double>& state) const;

  /// Advances `state` by observation y under the given parameters and
  /// returns the one-step-ahead forecast made before seeing y.
  double Step(std::span<double> state, double y, double alpha, double beta,
              double gamma, double phi) const;

  /// One-step forecast implied by the current state (k steps ahead).
  double PointForecast(std::span<const double> state, std::size_t k) const;

  EtsSpec spec_;
  EtsOptimizer optimizer_;
  bool fitted_ = false;
  double alpha_ = 0.3, beta_ = 0.1, gamma_ = 0.1, phi_ = 0.98;
  /// In-sample one-step forecasts of the last Fit. Immutable once fitted
  /// and shared between clones, so Clone copies no history.
  std::shared_ptr<const std::vector<double>> fitted_values_;
  /// One-step in-sample residual variance from the final fitting pass.
  double sigma2_ = 0.0;
};

}  // namespace f2db

#endif  // F2DB_TS_EXPONENTIAL_SMOOTHING_H_
