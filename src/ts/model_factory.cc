#include "ts/model_factory.h"

#include <chrono>
#include <sstream>
#include <thread>

#include "common/string_util.h"
#include "ts/auto_select.h"
#include "ts/exponential_smoothing.h"
#include "ts/naive_models.h"
#include "ts/theta.h"

namespace f2db {
namespace {

// Instantiates an unfitted model for a concrete (non-auto) type.
Result<std::unique_ptr<ForecastModel>> Instantiate(const ModelSpec& spec) {
  switch (spec.type) {
    case ModelType::kMean:
      return std::unique_ptr<ForecastModel>(std::make_unique<MeanModel>());
    case ModelType::kNaive:
      return std::unique_ptr<ForecastModel>(std::make_unique<NaiveModel>());
    case ModelType::kSeasonalNaive:
      return std::unique_ptr<ForecastModel>(
          std::make_unique<SeasonalNaiveModel>(spec.period));
    case ModelType::kDrift:
      return std::unique_ptr<ForecastModel>(std::make_unique<DriftModel>());
    case ModelType::kSes:
      return std::unique_ptr<ForecastModel>(ExponentialSmoothingModel::Ses());
    case ModelType::kHolt:
      return std::unique_ptr<ForecastModel>(
          ExponentialSmoothingModel::Holt(false));
    case ModelType::kHoltWintersAdd:
      return std::unique_ptr<ForecastModel>(
          ExponentialSmoothingModel::HoltWintersAdditive(spec.period));
    case ModelType::kHoltWintersMul:
      return std::unique_ptr<ForecastModel>(
          ExponentialSmoothingModel::HoltWintersMultiplicative(spec.period));
    case ModelType::kArima:
      return std::unique_ptr<ForecastModel>(
          std::make_unique<ArimaModel>(spec.arima));
    case ModelType::kTheta:
      return std::unique_ptr<ForecastModel>(
          std::make_unique<ThetaModel>(spec.period));
    case ModelType::kAuto:
      return Status::InvalidArgument(
          "ModelFactory: kAuto needs data; use CreateAndFit");
  }
  return Status::InvalidArgument("ModelFactory: unknown model type");
}

}  // namespace

Result<std::unique_ptr<ForecastModel>> ModelFactory::Create() const {
  return Instantiate(spec_);
}

Result<std::unique_ptr<ForecastModel>> ModelFactory::CreateAndFit(
    const TimeSeries& history) const {
  if (fit_hook_) {
    F2DB_RETURN_IF_ERROR(fit_hook_(history));
  }
  if (artificial_delay_seconds_ > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(artificial_delay_seconds_));
  }
  if (spec_.type == ModelType::kAuto) {
    AutoSelectOptions options;
    options.period = spec_.period;
    F2DB_ASSIGN_OR_RETURN(AutoSelection selection,
                          AutoSelectModel(history, options));
    return std::move(selection.model);
  }
  F2DB_ASSIGN_OR_RETURN(std::unique_ptr<ForecastModel> model,
                        Instantiate(spec_));
  F2DB_RETURN_IF_ERROR(model->Fit(history));
  return model;
}

std::string ModelFactory::SerializeModel(const ForecastModel& model,
                                        std::span<const double> state) {
  std::ostringstream out;
  out.precision(17);
  out << ModelTypeName(model.type());
  for (double v : model.SaveState(state)) out << ";" << v;
  return out.str();
}

Result<std::unique_ptr<ForecastModel>> ModelFactory::DeserializeModel(
    const std::string& text) {
  const std::vector<std::string> parts = SplitString(text, ';');
  if (parts.empty()) return Status::InvalidArgument("empty model text");
  F2DB_ASSIGN_OR_RETURN(ModelType type, ParseModelType(parts[0]));
  std::vector<double> state;
  state.reserve(parts.size() - 1);
  for (std::size_t i = 1; i < parts.size(); ++i) {
    F2DB_ASSIGN_OR_RETURN(double v, ParseDouble(parts[i]));
    state.push_back(v);
  }
  ModelSpec spec;
  spec.type = type;
  spec.period = 2;  // placeholder; RestoreState overwrites seasonal config
  F2DB_ASSIGN_OR_RETURN(std::unique_ptr<ForecastModel> model,
                        Instantiate(spec));
  F2DB_RETURN_IF_ERROR(model->RestoreState(state));
  return model;
}

}  // namespace f2db
