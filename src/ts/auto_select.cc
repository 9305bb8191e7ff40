#include "ts/auto_select.h"

#include <limits>

#include "ts/accuracy.h"
#include "ts/arima.h"
#include "ts/exponential_smoothing.h"
#include "ts/naive_models.h"
#include "ts/theta.h"

namespace f2db {
namespace {

// Builds the candidate set (unfitted) for the given options.
std::vector<std::unique_ptr<ForecastModel>> BuildCandidates(
    const AutoSelectOptions& options) {
  std::vector<std::unique_ptr<ForecastModel>> out;
  out.push_back(std::make_unique<MeanModel>());
  out.push_back(std::make_unique<DriftModel>());
  out.push_back(ExponentialSmoothingModel::Ses());
  out.push_back(ExponentialSmoothingModel::Holt(/*damped=*/false));
  out.push_back(std::make_unique<ThetaModel>(options.period));
  if (options.period >= 2) {
    out.push_back(std::make_unique<SeasonalNaiveModel>(options.period));
    out.push_back(ExponentialSmoothingModel::HoltWintersAdditive(options.period));
    out.push_back(
        ExponentialSmoothingModel::HoltWintersMultiplicative(options.period));
  }
  if (options.include_arima) {
    ArimaOrder order;
    order.p = 1;
    order.d = 1;
    order.q = 1;
    out.push_back(std::make_unique<ArimaModel>(order));
    if (options.period >= 2) {
      ArimaOrder seasonal;
      seasonal.p = 0;
      seasonal.d = 1;
      seasonal.q = 1;
      seasonal.sp = 0;
      seasonal.sd = 1;
      seasonal.sq = 1;
      seasonal.season = options.period;
      out.push_back(std::make_unique<ArimaModel>(seasonal));
    }
  }
  return out;
}

}  // namespace

Result<AutoSelection> AutoSelectModel(const TimeSeries& history,
                                      const AutoSelectOptions& options) {
  if (history.size() < 4) {
    return Status::InvalidArgument("AutoSelect: series too short");
  }
  const auto [train, test] = history.TrainTestSplit(options.train_fraction);

  AutoSelection best;
  best.holdout_smape = std::numeric_limits<double>::max();
  for (auto& candidate : BuildCandidates(options)) {
    if (!candidate->Fit(train).ok()) continue;
    const std::vector<double> forecast = candidate->Forecast(test.size());
    const double error = Smape(test.ToVector(), forecast);
    if (error < best.holdout_smape) {
      best.holdout_smape = error;
      best.chosen_type = candidate->type();
      best.model = std::move(candidate);
    }
  }
  if (best.model == nullptr) {
    return Status::Internal("AutoSelect: no candidate could be fitted");
  }
  // Refit the winner on the full history.
  F2DB_RETURN_IF_ERROR(best.model->Fit(history));
  return best;
}

}  // namespace f2db
