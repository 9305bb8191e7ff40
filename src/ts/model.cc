#include "ts/model.h"

#include <algorithm>

namespace f2db {

void ForecastModel::CopyState(std::span<double> out) const {
  std::copy(state_.begin(), state_.end(), out.begin());
}

std::vector<double> ForecastModel::Forecast(std::span<const double> state,
                                            std::size_t horizon) const {
  std::vector<double> out;
  ForecastInto(state, horizon, &out);
  return out;
}

const char* ModelTypeName(ModelType type) {
  switch (type) {
    case ModelType::kMean:
      return "mean";
    case ModelType::kNaive:
      return "naive";
    case ModelType::kSeasonalNaive:
      return "seasonal_naive";
    case ModelType::kDrift:
      return "drift";
    case ModelType::kSes:
      return "ses";
    case ModelType::kHolt:
      return "holt";
    case ModelType::kHoltWintersAdd:
      return "holt_winters_add";
    case ModelType::kHoltWintersMul:
      return "holt_winters_mul";
    case ModelType::kArima:
      return "arima";
    case ModelType::kTheta:
      return "theta";
    case ModelType::kAuto:
      return "auto";
  }
  return "unknown";
}

Result<ModelType> ParseModelType(const std::string& name) {
  for (ModelType type :
       {ModelType::kMean, ModelType::kNaive, ModelType::kSeasonalNaive,
        ModelType::kDrift, ModelType::kSes, ModelType::kHolt,
        ModelType::kHoltWintersAdd, ModelType::kHoltWintersMul,
        ModelType::kArima, ModelType::kTheta, ModelType::kAuto}) {
    if (name == ModelTypeName(type)) return type;
  }
  return Status::InvalidArgument("unknown model type: " + name);
}

}  // namespace f2db
