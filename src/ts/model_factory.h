// ModelSpec and ModelFactory: uniform creation, fitting, and serialization
// of forecast models.
//
// The advisor and all baselines create models through a factory so that the
// model family is a single configuration point (the paper fixes triple
// exponential smoothing for its evaluation but the approach is
// model-agnostic, Section II-B). The factory also implements the
// "artificially vary the time to create a single forecast model" knob used
// in Figures 8(c)/8(d) of the paper.

#ifndef F2DB_TS_MODEL_FACTORY_H_
#define F2DB_TS_MODEL_FACTORY_H_

#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "ts/arima.h"
#include "ts/model.h"

namespace f2db {

/// Full specification of a forecast model to create.
struct ModelSpec {
  ModelType type = ModelType::kHoltWintersAdd;
  /// Season length for seasonal model families.
  std::size_t period = 1;
  /// Orders when type == kArima.
  ArimaOrder arima;

  /// Convenience factories.
  static ModelSpec TripleExponentialSmoothing(std::size_t period) {
    ModelSpec spec;
    spec.type = ModelType::kHoltWintersAdd;
    spec.period = period;
    return spec;
  }
  static ModelSpec Arima(ArimaOrder order) {
    ModelSpec spec;
    spec.type = ModelType::kArima;
    spec.arima = order;
    spec.period = order.season;
    return spec;
  }
  static ModelSpec Auto(std::size_t period) {
    ModelSpec spec;
    spec.type = ModelType::kAuto;
    spec.period = period;
    return spec;
  }
};

/// Creates, fits, and (de)serializes forecast models of one spec.
class ModelFactory {
 public:
  explicit ModelFactory(ModelSpec spec) : spec_(spec) {}

  const ModelSpec& spec() const { return spec_; }

  /// Artificial per-creation delay in seconds (0 disables). Reproduces the
  /// model-creation-time sweep of Figures 8(c)/(d).
  void set_artificial_delay_seconds(double seconds) {
    artificial_delay_seconds_ = seconds < 0 ? 0 : seconds;
  }
  double artificial_delay_seconds() const { return artificial_delay_seconds_; }

  /// Pre-fit hook invoked with the training series before every
  /// CreateAndFit; a non-OK status aborts that creation. Intended for
  /// failure injection in tests (e.g. make fitting fail for selected
  /// nodes) — callers must tolerate creation failures either way.
  using FitHook = std::function<Status(const TimeSeries&)>;
  void set_fit_hook(FitHook hook) { fit_hook_ = std::move(hook); }

  /// Instantiates an unfitted model of the configured spec. For kAuto this
  /// fails — automatic selection needs data; use CreateAndFit.
  Result<std::unique_ptr<ForecastModel>> Create() const;

  /// Creates and fits a model on `history`, applying the artificial delay.
  Result<std::unique_ptr<ForecastModel>> CreateAndFit(
      const TimeSeries& history) const;

  /// Serializes a fitted model to a single-line string for the engine's
  /// model table.
  static std::string SerializeModel(const ForecastModel& model) {
    return SerializeModel(model, model.state());
  }
  /// Serializes a model's parameters with an external `state`, exactly as
  /// a model holding that state would serialize.
  static std::string SerializeModel(const ForecastModel& model,
                                    std::span<const double> state);

  /// Restores a model serialized with SerializeModel.
  static Result<std::unique_ptr<ForecastModel>> DeserializeModel(
      const std::string& text);

 private:
  ModelSpec spec_;
  double artificial_delay_seconds_ = 0.0;
  FitHook fit_hook_;
};

}  // namespace f2db

#endif  // F2DB_TS_MODEL_FACTORY_H_
