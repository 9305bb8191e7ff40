// The forecast-model abstraction.
//
// Every node of the time series hyper graph may carry one forecast model
// (Section II-B). The advisor is agnostic to the model family; the engine
// additionally needs incremental state maintenance (Update) and
// serialization for the configuration storage tables (Section V).

#ifndef F2DB_TS_MODEL_H_
#define F2DB_TS_MODEL_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "ts/time_series.h"

namespace f2db {

/// Model families available in this library.
enum class ModelType {
  kMean,               ///< Constant mean of the history.
  kNaive,              ///< Random walk: last observation.
  kSeasonalNaive,      ///< Last observed value of the same season.
  kDrift,              ///< Random walk with drift.
  kSes,                ///< Simple exponential smoothing.
  kHolt,               ///< Double exponential smoothing (trend).
  kHoltWintersAdd,     ///< Triple ES, additive seasonality (paper default).
  kHoltWintersMul,     ///< Triple ES, multiplicative seasonality.
  kArima,              ///< (Seasonal) ARIMA via CSS + Nelder–Mead.
  kTheta,              ///< Theta method (M3 winner; SES + half trend drift).
  kAuto,               ///< Holdout-based automatic selection.
};

/// Stable lower-case name for a model type ("holt_winters_add", ...).
const char* ModelTypeName(ModelType type);

/// Parses a ModelTypeName back to the enum.
Result<ModelType> ParseModelType(const std::string& name);

/// Interface implemented by all forecast models.
///
/// Lifecycle: construct -> Fit(history) -> Forecast(h) any number of times;
/// as new observations arrive, Update(y) advances the internal state by one
/// period without re-estimating parameters (the paper's incremental
/// maintenance). Re-estimation is a fresh Fit on the extended history,
/// triggered lazily by the engine's invalidation strategy.
///
/// Parameters and state are split. The parameters are what Fit estimates
/// (smoothing weights, coefficients, residual variance); they never change
/// after Fit or RestoreState. The state is a flat array of state_size()
/// doubles that one observation advances (level, trend, seasonal indices,
/// bounded lag tails). state_size() is fixed by the model's structure, so
/// it does not change after Fit or RestoreState either. The state-taking
/// members (StepState, ForecastInto, ForecastVariance, SaveState) are the
/// one implementation: Update, Forecast and the other own-state members
/// apply them to the model's own state. A caller that keeps states outside
/// the model — the engine keeps one flat array per snapshot — therefore
/// computes exactly what Clone() + Update would.
///
/// Thread-safety contract: the const members must be genuinely read-only —
/// no mutable caches — so that a fitted model shared between threads can
/// serve concurrent forecasts and step states it does not own. The engine
/// relies on this: published snapshots share one parameter object per model
/// and advance only their own state arrays.
class ForecastModel {
 public:
  virtual ~ForecastModel() = default;

  /// Estimates parameters and initializes state from `history`.
  virtual Status Fit(const TimeSeries& history) = 0;

  // ---- the state-taking implementation; `state` has state_size() values

  /// Advances `state` by one new observation under this model's
  /// parameters.
  virtual void StepState(std::span<double> state, double value) const = 0;

  /// Clears and fills *out with the next `horizon` forecasts implied by
  /// `state`. The engine's hot path calls this with recycled vectors, so
  /// overrides write in place where they can. Requires a successful Fit.
  virtual void ForecastInto(std::span<const double> state,
                            std::size_t horizon,
                            std::vector<double>* out) const = 0;

  /// Variance of the h-step-ahead forecast errors for h = 1..horizon from
  /// `state`, based on the in-sample residual variance and the model's
  /// error propagation structure. Empty when the model does not support
  /// interval forecasts.
  virtual std::vector<double> ForecastVariance(std::span<const double> state,
                                               std::size_t horizon) const {
    (void)state;
    (void)horizon;
    return {};
  }

  /// Serializes the parameters together with `state` into a flat vector
  /// for the engine's model table. RestoreState must accept exactly this
  /// output.
  virtual std::vector<double> SaveState(
      std::span<const double> state) const = 0;

  // ---- the same members applied to the model's own state

  /// Number of doubles in the state.
  std::size_t state_size() const { return state_.size(); }
  /// The model's own state.
  std::span<const double> state() const { return state_; }
  /// Copies the model's own state into `out` (state_size() values).
  void CopyState(std::span<double> out) const;

  /// Advances the own state by one new observation without changing the
  /// estimated parameters.
  void Update(double value) { StepState(state_, value); }

  /// Forecasts the next `horizon` values after the end of the history seen
  /// so far (Fit plus Updates). Requires a successful Fit.
  std::vector<double> Forecast(std::size_t horizon) const {
    return Forecast(state_, horizon);
  }
  /// Forecast from an external state.
  std::vector<double> Forecast(std::span<const double> state,
                               std::size_t horizon) const;
  /// Forecast(horizon) into a caller-owned buffer (cleared first).
  void ForecastInto(std::size_t horizon, std::vector<double>* out) const {
    ForecastInto(state_, horizon, out);
  }
  std::vector<double> ForecastVariance(std::size_t horizon) const {
    return ForecastVariance(state_, horizon);
  }
  std::vector<double> SaveState() const { return SaveState(state_); }

  /// Deep copy. Used when evaluating tentative configurations and as the
  /// starting point of a re-estimation. Cheap: parameters + state, no
  /// history.
  virtual std::unique_ptr<ForecastModel> Clone() const = 0;

  /// The model family.
  virtual ModelType type() const = 0;

  /// Number of free parameters estimated by Fit (for AIC-style criteria).
  virtual std::size_t num_parameters() const = 0;

  /// Flat view of the estimated parameters (empty before Fit).
  virtual std::vector<double> parameters() const = 0;

  /// True after a successful Fit.
  virtual bool is_fitted() const = 0;

  /// Restores a model previously saved with SaveState. The model is usable
  /// for Forecast/Update afterwards.
  virtual Status RestoreState(const std::vector<double>& state) = 0;

  /// One-step-ahead in-sample forecasts for the fitted history; used for
  /// accuracy diagnostics and AIC computation. Empty when unsupported.
  virtual std::vector<double> FittedValues() const { return {}; }

  /// In-sample one-step residual variance estimated at Fit time; 0 when
  /// unsupported or before Fit.
  virtual double residual_variance() const { return 0.0; }

 protected:
  ForecastModel() = default;
  ForecastModel(const ForecastModel&) = default;
  ForecastModel& operator=(const ForecastModel&) = default;

  /// The own state, laid out as the subclass's StepState expects.
  std::vector<double> state_;
};

}  // namespace f2db

#endif  // F2DB_TS_MODEL_H_
