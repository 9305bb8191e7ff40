#include "ts/exponential_smoothing.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "math/optimizer.h"

namespace f2db {
namespace {

constexpr double kParamLo = 0.01;
constexpr double kParamHi = 0.99;
constexpr double kPhiLo = 0.80;
constexpr double kPhiHi = 0.995;

}  // namespace

ExponentialSmoothingModel::ExponentialSmoothingModel(EtsSpec spec,
                                                     EtsOptimizer optimizer)
    : spec_(spec), optimizer_(optimizer) {
  if (!spec_.trend) spec_.damped = false;
  if (!spec_.seasonal) {
    spec_.multiplicative = false;
    spec_.period = 1;
  }
}

std::unique_ptr<ExponentialSmoothingModel> ExponentialSmoothingModel::Ses() {
  return std::make_unique<ExponentialSmoothingModel>(EtsSpec{});
}

std::unique_ptr<ExponentialSmoothingModel> ExponentialSmoothingModel::Holt(
    bool damped) {
  EtsSpec spec;
  spec.trend = true;
  spec.damped = damped;
  return std::make_unique<ExponentialSmoothingModel>(spec);
}

std::unique_ptr<ExponentialSmoothingModel>
ExponentialSmoothingModel::HoltWintersAdditive(std::size_t period) {
  EtsSpec spec;
  spec.trend = true;
  spec.seasonal = true;
  spec.multiplicative = false;
  spec.period = period;
  return std::make_unique<ExponentialSmoothingModel>(spec);
}

std::unique_ptr<ExponentialSmoothingModel>
ExponentialSmoothingModel::HoltWintersMultiplicative(std::size_t period) {
  EtsSpec spec;
  spec.trend = true;
  spec.seasonal = true;
  spec.multiplicative = true;
  spec.period = period;
  return std::make_unique<ExponentialSmoothingModel>(spec);
}

ModelType ExponentialSmoothingModel::type() const {
  if (spec_.seasonal) {
    return spec_.multiplicative ? ModelType::kHoltWintersMul
                                : ModelType::kHoltWintersAdd;
  }
  return spec_.trend ? ModelType::kHolt : ModelType::kSes;
}

std::size_t ExponentialSmoothingModel::num_parameters() const {
  std::size_t n = 1;  // alpha
  if (spec_.trend) ++n;
  if (spec_.seasonal) ++n;
  if (spec_.damped) ++n;
  return n;
}

std::vector<double> ExponentialSmoothingModel::parameters() const {
  std::vector<double> out{alpha_};
  if (spec_.trend) out.push_back(beta_);
  if (spec_.seasonal) out.push_back(gamma_);
  if (spec_.damped) out.push_back(phi_);
  return out;
}

Status ExponentialSmoothingModel::InitializeState(
    const TimeSeries& history, std::vector<double>& state) const {
  const std::size_t n = history.size();
  const std::size_t m = spec_.seasonal ? spec_.period : 1;
  if (spec_.seasonal && m < 2) {
    return Status::InvalidArgument("ETS: seasonal period must be >= 2");
  }
  const std::size_t min_obs = spec_.seasonal ? m + 2 : (spec_.trend ? 3u : 1u);
  if (n < min_obs) {
    return Status::InvalidArgument("ETS: series too short (" +
                                   std::to_string(n) + " < " +
                                   std::to_string(min_obs) + ")");
  }

  if (!spec_.seasonal) {
    state.assign(kSeasonal, 0.0);
    state[kLevel] = history[0];
    state[kTrend] = spec_.trend && n >= 2 ? history[1] - history[0] : 0.0;
    return Status::OK();
  }

  // Classical initialization: level = mean of the first season; trend =
  // difference of the first two season means (or overall slope when only
  // one full season is available); seasonal indices averaged per position.
  state.assign(kSeasonal + m, spec_.multiplicative ? 1.0 : 0.0);
  const std::span<double> seasonal(state.data() + kSeasonal, m);
  double season1 = 0.0;
  for (std::size_t i = 0; i < m; ++i) season1 += history[i];
  season1 /= static_cast<double>(m);
  state[kLevel] = season1;

  if (n >= 2 * m) {
    double season2 = 0.0;
    for (std::size_t i = m; i < 2 * m; ++i) season2 += history[i];
    season2 /= static_cast<double>(m);
    state[kTrend] = (season2 - season1) / static_cast<double>(m);
  } else {
    state[kTrend] =
        (history[n - 1] - history[0]) / static_cast<double>(n - 1);
  }
  if (!spec_.trend) state[kTrend] = 0.0;

  std::vector<std::size_t> counts(m, 0);
  const std::size_t full_seasons = n / m;
  for (std::size_t k = 0; k < full_seasons; ++k) {
    double season_mean = 0.0;
    for (std::size_t j = 0; j < m; ++j) season_mean += history[k * m + j];
    season_mean /= static_cast<double>(m);
    if (spec_.multiplicative && std::abs(season_mean) < 1e-12) continue;
    for (std::size_t j = 0; j < m; ++j) {
      const double y = history[k * m + j];
      const double idx =
          spec_.multiplicative ? y / season_mean : y - season_mean;
      seasonal[j] += idx;
      ++counts[j];
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    if (counts[j] > 0) {
      seasonal[j] /= static_cast<double>(counts[j]);
      if (spec_.multiplicative) {
        // Remove the initial 1.0 contribution from assign().
        seasonal[j] -= 1.0 / static_cast<double>(counts[j]);
      }
    }
  }
  // Normalize seasonal indices (sum 0 for additive, mean 1 for mult.).
  double total = 0.0;
  for (double s : seasonal) total += s;
  if (spec_.multiplicative) {
    const double mean = total / static_cast<double>(m);
    if (std::abs(mean) > 1e-12) {
      for (double& s : seasonal) s /= mean;
    }
  } else {
    const double mean = total / static_cast<double>(m);
    for (double& s : seasonal) s -= mean;
  }
  return Status::OK();
}

double ExponentialSmoothingModel::PointForecast(std::span<const double> state,
                                                std::size_t k) const {
  // k >= 1 steps ahead of the current state.
  double trend_sum = 0.0;
  if (spec_.trend) {
    if (spec_.damped) {
      double damp = phi_;
      for (std::size_t i = 1; i <= k; ++i) {
        trend_sum += damp;
        damp *= phi_;
      }
    } else {
      trend_sum = static_cast<double>(k);
    }
  }
  const double base = state[kLevel] + trend_sum * state[kTrend];
  if (!spec_.seasonal) return base;
  const double s = state[kSeasonal + (k - 1) % season_length()];
  return spec_.multiplicative ? base * s : base + s;
}

double ExponentialSmoothingModel::Step(std::span<double> state, double y,
                                       double alpha, double beta, double gamma,
                                       double phi) const {
  double& level = state[kLevel];
  double& trend = state[kTrend];
  const double damped_trend = spec_.damped ? phi * trend : trend;
  double prediction;
  if (spec_.seasonal) {
    double* seasonal = state.data() + kSeasonal;
    const std::size_t m = season_length();
    const double s0 = seasonal[0];
    const double base = level + (spec_.trend ? damped_trend : 0.0);
    prediction = spec_.multiplicative ? base * s0 : base + s0;

    const double deseasonalized =
        spec_.multiplicative ? (std::abs(s0) > 1e-12 ? y / s0 : y) : y - s0;
    const double prev_level = level;
    level = alpha * deseasonalized +
            (1.0 - alpha) * (prev_level + (spec_.trend ? damped_trend : 0.0));
    if (spec_.trend) {
      trend = beta * (level - prev_level) + (1.0 - beta) * damped_trend;
    }
    const double detrended = spec_.multiplicative
                                 ? (std::abs(level) > 1e-12 ? y / level : s0)
                                 : y - level;
    const double new_seasonal = gamma * detrended + (1.0 - gamma) * s0;
    std::copy(seasonal + 1, seasonal + m, seasonal);
    seasonal[m - 1] = new_seasonal;
  } else {
    const double base = level + (spec_.trend ? damped_trend : 0.0);
    prediction = base;
    const double prev_level = level;
    level = alpha * y + (1.0 - alpha) * base;
    if (spec_.trend) {
      trend = beta * (level - prev_level) + (1.0 - beta) * damped_trend;
    }
  }
  return prediction;
}

Status ExponentialSmoothingModel::Fit(const TimeSeries& history) {
  F2DB_INJECT_FAILPOINT(kFailpointEtsFit);
  std::vector<double> init;
  F2DB_RETURN_IF_ERROR(InitializeState(history, init));

  // One-step-ahead SSE of a full pass over the history; every pass restarts
  // from `init` in one reused buffer.
  std::vector<double> state(init.size());
  auto sse_for = [&](double alpha, double beta, double gamma, double phi) {
    std::copy(init.begin(), init.end(), state.begin());
    double sse = 0.0;
    for (std::size_t t = 0; t < history.size(); ++t) {
      const double pred = Step(state, history[t], alpha, beta, gamma, phi);
      const double err = history[t] - pred;
      sse += err * err;
    }
    return std::isfinite(sse) ? sse : std::numeric_limits<double>::max();
  };

  // Pack the free parameters into an optimizer vector.
  const bool has_beta = spec_.trend;
  const bool has_gamma = spec_.seasonal;
  const bool has_phi = spec_.damped;
  auto unpack = [&](const std::vector<double>& x, double& alpha, double& beta,
                    double& gamma, double& phi) {
    std::size_t i = 0;
    alpha = x[i++];
    beta = has_beta ? x[i++] : 0.0;
    gamma = has_gamma ? x[i++] : 0.0;
    phi = has_phi ? x[i++] : 1.0;
  };
  Objective objective = [&](const std::vector<double>& x) {
    double alpha, beta, gamma, phi;
    unpack(x, alpha, beta, gamma, phi);
    return sse_for(alpha, beta, gamma, phi);
  };

  std::vector<double> x0{0.3};
  Bounds bounds;
  bounds.lower = {kParamLo};
  bounds.upper = {kParamHi};
  if (has_beta) {
    x0.push_back(0.1);
    bounds.lower.push_back(kParamLo);
    bounds.upper.push_back(kParamHi);
  }
  if (has_gamma) {
    x0.push_back(0.1);
    bounds.lower.push_back(kParamLo);
    bounds.upper.push_back(kParamHi);
  }
  if (has_phi) {
    x0.push_back(0.95);
    bounds.lower.push_back(kPhiLo);
    bounds.upper.push_back(kPhiHi);
  }

  OptimizationResult best;
  switch (optimizer_) {
    case EtsOptimizer::kNelderMead: {
      OptimizerOptions options;
      options.max_evaluations = 400 * x0.size();
      best = NelderMead(objective, x0, bounds, options);
      break;
    }
    case EtsOptimizer::kHillClimb: {
      OptimizerOptions options;
      options.max_evaluations = 400 * x0.size();
      best = HillClimb(objective, x0, bounds, options);
      break;
    }
    case EtsOptimizer::kSimulatedAnnealing: {
      AnnealingOptions options;
      options.base.max_evaluations = 600 * x0.size();
      Rng rng(0xE75F17u);
      best = SimulatedAnnealing(objective, x0, bounds, rng, options);
      break;
    }
  }

  // Optimizer non-convergence is an expected (transient) event, not a
  // programmer error: every objective value was non-finite (or the search
  // was aborted by the math.optimizer_converge failpoint). Surfacing
  // kUnavailable lets the engine degrade through its fallback ladder
  // instead of installing a model with garbage parameters.
  if (!(best.value < std::numeric_limits<double>::max())) {
    return Status::Unavailable(
        "ETS: optimizer did not reach a finite objective");
  }
  unpack(best.x, alpha_, beta_, gamma_, phi_);
  if (!spec_.damped) phi_ = 1.0;

  // Final pass: record fitted values and the end-of-history state.
  state_ = std::move(init);
  std::vector<double> fitted;
  fitted.reserve(history.size());
  double sse_final = 0.0;
  for (std::size_t t = 0; t < history.size(); ++t) {
    fitted.push_back(Step(state_, history[t], alpha_, beta_, gamma_, phi_));
    const double err = history[t] - fitted.back();
    sse_final += err * err;
  }
  fitted_values_ =
      std::make_shared<const std::vector<double>>(std::move(fitted));
  sigma2_ = history.empty() ? 0.0
                            : sse_final / static_cast<double>(history.size());
  fitted_ = true;
  return Status::OK();
}

void ExponentialSmoothingModel::ForecastInto(std::span<const double> state,
                                             std::size_t horizon,
                                             std::vector<double>* out) const {
  assert(fitted_);
  out->clear();
  out->resize(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    (*out)[h] = PointForecast(state, h + 1);
  }
}

void ExponentialSmoothingModel::StepState(std::span<double> state,
                                          double value) const {
  Step(state, value, alpha_, beta_, gamma_, phi_);
}

std::unique_ptr<ForecastModel> ExponentialSmoothingModel::Clone() const {
  return std::make_unique<ExponentialSmoothingModel>(*this);
}

std::vector<double> ExponentialSmoothingModel::ForecastVariance(
    std::span<const double> state, std::size_t horizon) const {
  (void)state;
  // Class-1 ETS forecast variance (Hyndman et al. 2008, Table 6.2):
  //   var_h = sigma2 * (1 + sum_{j=1}^{h-1} c_j^2)
  // with c_j = alpha (1 + beta* S_j) + gamma (1 - alpha) [j mod m == 0],
  // where S_j = j for an undamped trend and sum_{i<=j} phi^i when damped.
  // The multiplicative-seasonal variant has no closed form (class 2); the
  // additive formula is used as an approximation there.
  std::vector<double> out(horizon);
  double cumulative = 0.0;
  const std::size_t m = spec_.seasonal ? spec_.period : 0;
  double damp_sum = 0.0;
  double damp_pow = 1.0;
  for (std::size_t h = 0; h < horizon; ++h) {
    out[h] = sigma2_ * (1.0 + cumulative);
    // Prepare c_{h+1} for the next step.
    const double j = static_cast<double>(h + 1);
    double trend_term = 0.0;
    if (spec_.trend) {
      if (spec_.damped) {
        damp_pow *= phi_;
        damp_sum += damp_pow;
        trend_term = beta_ * damp_sum;
      } else {
        trend_term = beta_ * j;
      }
    }
    double c = alpha_ * (1.0 + trend_term);
    if (m > 1 && (h + 1) % m == 0) c += gamma_ * (1.0 - alpha_);
    cumulative += c * c;
  }
  return out;
}

std::vector<double> ExponentialSmoothingModel::SaveState(
    std::span<const double> state) const {
  std::vector<double> out;
  out.push_back(spec_.trend ? 1.0 : 0.0);
  out.push_back(spec_.damped ? 1.0 : 0.0);
  out.push_back(spec_.seasonal ? 1.0 : 0.0);
  out.push_back(spec_.multiplicative ? 1.0 : 0.0);
  out.push_back(static_cast<double>(spec_.period));
  out.push_back(alpha_);
  out.push_back(beta_);
  out.push_back(gamma_);
  out.push_back(phi_);
  out.push_back(sigma2_);
  out.insert(out.end(), state.begin(), state.end());
  return out;
}

Status ExponentialSmoothingModel::RestoreState(
    const std::vector<double>& state) {
  if (state.size() < 12) return Status::InvalidArgument("ETS: bad state");
  EtsSpec spec;
  spec.trend = state[0] != 0.0;
  spec.damped = state[1] != 0.0;
  spec.seasonal = state[2] != 0.0;
  spec.multiplicative = state[3] != 0.0;
  spec.period = static_cast<std::size_t>(state[4]);
  const std::size_t season_len = spec.seasonal ? spec.period : 0;
  if (state.size() != 12 + season_len) {
    return Status::InvalidArgument("ETS: bad state size");
  }
  spec_ = spec;
  alpha_ = state[5];
  beta_ = state[6];
  gamma_ = state[7];
  phi_ = state[8];
  sigma2_ = state[9];
  state_.assign(state.begin() + 10, state.end());
  fitted_ = true;
  return Status::OK();
}

}  // namespace f2db
