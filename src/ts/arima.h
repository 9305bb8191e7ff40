// (Seasonal) ARIMA models estimated by conditional sum of squares.
//
// ARIMA(p,d,q)(P,D,Q)_s in the Box–Jenkins sense (the paper cites Box,
// Jenkins & Reinsel for its model-creation pipeline and generates its
// synthetic data from a SARIMA process). Estimation minimizes the
// conditional sum of squares of the innovations with Nelder–Mead; AR and MA
// coefficients are reparametrized through partial autocorrelations
// (Monahan's transform) so that every optimizer iterate is stationary and
// invertible.

#ifndef F2DB_TS_ARIMA_H_
#define F2DB_TS_ARIMA_H_

#include <memory>
#include <span>
#include <vector>

#include "common/failpoint.h"
#include "ts/model.h"

namespace f2db {

/// Fault-injection site: ArimaModel::Fit fails with kUnavailable before
/// touching any state (used to exercise the engine's re-estimation
/// fallback ladder).
F2DB_DEFINE_FAILPOINT(kFailpointArimaFit, "ts.arima_fit")

/// Orders of a seasonal ARIMA model.
struct ArimaOrder {
  std::size_t p = 1;  ///< Non-seasonal AR order.
  std::size_t d = 0;  ///< Non-seasonal differencing.
  std::size_t q = 1;  ///< Non-seasonal MA order.
  std::size_t sp = 0;      ///< Seasonal AR order (P).
  std::size_t sd = 0;      ///< Seasonal differencing (D).
  std::size_t sq = 0;      ///< Seasonal MA order (Q).
  std::size_t season = 1;  ///< Season length s (>= 2 when seasonal parts set).

  /// Total number of estimated coefficients (excluding the mean).
  std::size_t NumCoefficients() const { return p + q + sp + sq; }
};

/// Maps partial autocorrelations in (-1, 1) to the coefficients of a
/// stationary AR polynomial (Durbin–Levinson step of Monahan's transform).
/// Exposed for tests.
std::vector<double> PacfToArCoefficients(const std::vector<double>& pacf);

/// Seasonal ARIMA forecast model.
class ArimaModel final : public ForecastModel {
 public:
  explicit ArimaModel(ArimaOrder order);

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
  ModelType type() const override { return ModelType::kArima; }
  std::size_t num_parameters() const override {
    return order_.NumCoefficients() + 1;  // + mean
  }
  std::vector<double> parameters() const override;
  bool is_fitted() const override { return fitted_; }
  Status RestoreState(const std::vector<double>& state) override;
  std::vector<double> FittedValues() const override {
    return fitted_values_ ? *fitted_values_ : std::vector<double>{};
  }
  double residual_variance() const override { return sigma2_; }

  const ArimaOrder& order() const { return order_; }
  /// Estimated mean of the differenced series.
  double mu() const { return mu_; }
  /// Non-seasonal AR / MA and seasonal AR / MA coefficients.
  const std::vector<double>& phi() const { return phi_; }
  const std::vector<double>& theta() const { return theta_; }
  const std::vector<double>& seasonal_phi() const { return seasonal_phi_; }
  const std::vector<double>& seasonal_theta() const { return seasonal_theta_; }
  /// Akaike information criterion of the CSS fit.
  double aic() const { return aic_; }

 private:
  // The state holds bounded tails of the recent raw values, the demeaned
  // differenced values and the innovations: the recursions never look
  // further back than the expanded polynomial orders plus the differencing
  // window. Layout: [raw_count, z_count, e_count, raw x R, z x Z, e x E];
  // each block is right-aligned (its newest value is last) and holds its
  // `count` newest values, count <= capacity. SaveState writes exactly the
  // valid part of each block.
  static constexpr std::size_t kRawCount = 0;
  static constexpr std::size_t kZCount = 1;
  static constexpr std::size_t kErrorCount = 2;
  static constexpr std::size_t kTails = 3;

  /// Tail capacities R, Z and E, fixed by the orders.
  std::size_t raw_capacity() const;
  std::size_t z_capacity() const;
  std::size_t error_capacity() const;

  /// Lays the newest values of `raw`, `z` and `errors` out as the state.
  void SetState(std::span<const double> raw, std::span<const double> z,
                std::span<const double> errors);

  /// Rebuilds the expanded AR/MA polynomials from the coefficient groups.
  void ExpandPolynomials();

  /// Applies d regular and D seasonal differences to `raw`.
  std::vector<double> Difference(std::span<const double> raw) const;

  /// The newest value of Difference(tail), computed in a reused buffer.
  double NewestDifference(std::span<const double> tail) const;

  /// Computes innovations over a demeaned differenced series.
  /// Returns the conditional sum of squares; fills `errors` when non-null.
  double ConditionalSse(const std::vector<double>& z,
                        std::vector<double>* errors) const;

  ArimaOrder order_;
  bool fitted_ = false;
  double mu_ = 0.0;
  std::vector<double> phi_, theta_, seasonal_phi_, seasonal_theta_;
  std::vector<double> expanded_ar_, expanded_ma_;  ///< Multiplied polynomials.
  double aic_ = 0.0;
  double sigma2_ = 0.0;  ///< CSS innovation variance.
  /// In-sample one-step forecasts of the last Fit, shared between clones.
  std::shared_ptr<const std::vector<double>> fitted_values_;
};

}  // namespace f2db

#endif  // F2DB_TS_ARIMA_H_
