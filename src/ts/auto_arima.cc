#include "ts/auto_arima.h"

#include <cmath>
#include <limits>

#include "math/stats.h"

namespace f2db {
namespace {

std::vector<double> DifferenceOnce(const std::vector<double>& xs,
                                   std::size_t lag) {
  if (xs.size() <= lag) return {};
  std::vector<double> out(xs.size() - lag);
  for (std::size_t t = lag; t < xs.size(); ++t) out[t - lag] = xs[t] - xs[t - lag];
  return out;
}

}  // namespace

std::size_t SelectDifferencingOrder(const std::vector<double>& values,
                                    std::size_t max_d) {
  std::vector<double> current = values;
  std::size_t d = 0;
  double sd = StdDev(current);
  while (d < max_d) {
    const std::vector<double> next = DifferenceOnce(current, 1);
    if (next.size() < 8) break;
    const double next_sd = StdDev(next);
    // Differencing a stationary AR(1) with coefficient rho shrinks the
    // standard deviation by sqrt(2(1-rho)); requiring a reduction below
    // 0.5 corresponds to rho > 0.875, i.e. near-unit-root behaviour.
    if (next_sd >= 0.5 * sd) break;
    current = next;
    sd = next_sd;
    ++d;
  }
  return d;
}

std::size_t SelectSeasonalDifferencing(const std::vector<double>& values,
                                       std::size_t season,
                                       std::size_t max_sd) {
  if (season < 2 || max_sd == 0) return 0;
  if (values.size() < 3 * season) return 0;
  const std::vector<double> acf = Autocorrelation(values, season);
  return acf[season] > 0.5 ? 1 : 0;
}

Result<AutoArimaResult> AutoArima(const TimeSeries& history,
                                  const AutoArimaOptions& options) {
  if (history.size() < 16) {
    return Status::InvalidArgument("AutoArima: series too short");
  }
  // Non-finite observations would corrupt the differencing heuristics and
  // every candidate fit; reject them before the grid search starts.
  F2DB_RETURN_IF_ERROR(history.ValidateFinite());

  // Differencing orders by heuristic (AIC values are not comparable across
  // different differencing, so these are fixed before the grid search).
  std::vector<double> d_differenced = history.ToVector();
  const std::size_t d = SelectDifferencingOrder(d_differenced, options.max_d);
  for (std::size_t k = 0; k < d; ++k) {
    d_differenced = DifferenceOnce(d_differenced, 1);
  }
  const std::size_t sd = SelectSeasonalDifferencing(
      d_differenced, options.season, options.max_seasonal_d);

  AutoArimaResult result;
  result.aicc = std::numeric_limits<double>::max();

  const bool seasonal = options.season >= 2;
  const std::size_t max_sp = seasonal ? options.max_seasonal_p : 0;
  const std::size_t max_sq = seasonal ? options.max_seasonal_q : 0;

  for (std::size_t p = 0; p <= options.max_p; ++p) {
    for (std::size_t q = 0; q <= options.max_q; ++q) {
      for (std::size_t sp = 0; sp <= max_sp; ++sp) {
        for (std::size_t sq = 0; sq <= max_sq; ++sq) {
          if (p + q + sp + sq == 0 && d + sd == 0) continue;  // white noise
          ArimaOrder order;
          order.p = p;
          order.d = d;
          order.q = q;
          order.sp = sp;
          order.sd = sd;
          order.sq = sq;
          order.season = seasonal ? options.season : 1;
          auto model = std::make_unique<ArimaModel>(order);
          if (!model->Fit(history).ok()) continue;
          ++result.models_tried;

          const double n_w = static_cast<double>(
              history.size() - d - sd * (seasonal ? options.season : 0));
          const double k = static_cast<double>(order.NumCoefficients()) + 1.0;
          double aicc = model->aic();
          if (n_w - k - 1.0 > 0.0) {
            aicc += 2.0 * k * (k + 1.0) / (n_w - k - 1.0);
          }
          if (aicc < result.aicc) {
            result.aicc = aicc;
            result.order = order;
            result.model = std::move(model);
          }
        }
      }
    }
  }
  if (result.model == nullptr) {
    return Status::Internal("AutoArima: no candidate order could be fitted");
  }
  return result;
}

}  // namespace f2db
