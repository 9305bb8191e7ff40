#include "ts/arima.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "math/optimizer.h"

namespace f2db {
namespace {

// Least number of values each state tail keeps room for.
constexpr std::size_t kMinTail = 4;

double SafeTanh(double x) { return std::tanh(x); }

/// Appends `value` to a right-aligned tail block holding `count` values and
/// returns the new count.
double PushTail(std::span<double> block, double count, double value) {
  std::copy(block.begin() + 1, block.end(), block.begin());
  block.back() = value;
  return std::min(count + 1.0, static_cast<double>(block.size()));
}

}  // namespace

std::vector<double> PacfToArCoefficients(const std::vector<double>& pacf) {
  const std::size_t p = pacf.size();
  std::vector<double> phi(p, 0.0);
  std::vector<double> prev;
  for (std::size_t k = 1; k <= p; ++k) {
    prev = phi;
    phi[k - 1] = pacf[k - 1];
    for (std::size_t j = 1; j < k; ++j) {
      phi[j - 1] = prev[j - 1] - pacf[k - 1] * prev[k - 1 - j];
    }
  }
  return phi;
}

ArimaModel::ArimaModel(ArimaOrder order) : order_(order) {
  if (order_.sp == 0 && order_.sq == 0 && order_.sd == 0) order_.season = 1;
  phi_.assign(order_.p, 0.0);
  theta_.assign(order_.q, 0.0);
  seasonal_phi_.assign(order_.sp, 0.0);
  seasonal_theta_.assign(order_.sq, 0.0);
  ExpandPolynomials();
}

void ArimaModel::ExpandPolynomials() {
  const std::size_t s = order_.season;
  // AR: (1 - sum phi_i B^i)(1 - sum PHI_j B^{js}) expanded so that
  //   z_t = sum_k expanded_ar_[k-1] z_{t-k} + ...
  const std::size_t ar_len = order_.p + order_.sp * s;
  expanded_ar_.assign(ar_len, 0.0);
  for (std::size_t i = 1; i <= order_.p; ++i) {
    expanded_ar_[i - 1] += phi_[i - 1];
  }
  for (std::size_t j = 1; j <= order_.sp; ++j) {
    expanded_ar_[j * s - 1] += seasonal_phi_[j - 1];
    for (std::size_t i = 1; i <= order_.p; ++i) {
      expanded_ar_[j * s + i - 1] -= seasonal_phi_[j - 1] * phi_[i - 1];
    }
  }
  // MA: (1 + sum theta_i B^i)(1 + sum THETA_j B^{js}), so that
  //   z_t = e_t + sum_k expanded_ma_[k-1] e_{t-k} + AR part.
  const std::size_t ma_len = order_.q + order_.sq * s;
  expanded_ma_.assign(ma_len, 0.0);
  for (std::size_t i = 1; i <= order_.q; ++i) {
    expanded_ma_[i - 1] += theta_[i - 1];
  }
  for (std::size_t j = 1; j <= order_.sq; ++j) {
    expanded_ma_[j * s - 1] += seasonal_theta_[j - 1];
    for (std::size_t i = 1; i <= order_.q; ++i) {
      expanded_ma_[j * s + i - 1] += seasonal_theta_[j - 1] * theta_[i - 1];
    }
  }
}

std::vector<double> ArimaModel::Difference(
    std::span<const double> raw) const {
  std::vector<double> out(raw.begin(), raw.end());
  const std::size_t s = order_.season;
  for (std::size_t k = 0; k < order_.sd; ++k) {
    if (out.size() <= s) return {};
    std::vector<double> next(out.size() - s);
    for (std::size_t t = s; t < out.size(); ++t) next[t - s] = out[t] - out[t - s];
    out = std::move(next);
  }
  for (std::size_t k = 0; k < order_.d; ++k) {
    if (out.size() <= 1) return {};
    std::vector<double> next(out.size() - 1);
    for (std::size_t t = 1; t < out.size(); ++t) next[t - 1] = out[t] - out[t - 1];
    out = std::move(next);
  }
  return out;
}

double ArimaModel::NewestDifference(std::span<const double> tail) const {
  // The same differences as Difference(), in place: each pass runs from
  // the newest value down, so x[t - lag] is still the previous pass's
  // value when x[t] reads it.
  thread_local std::vector<double> x;
  x.assign(tail.begin(), tail.end());
  std::size_t begin = 0;
  const auto pass = [&](std::size_t lag) {
    for (std::size_t t = x.size() - 1; t >= begin + lag; --t) {
      x[t] -= x[t - lag];
    }
    begin += lag;
  };
  for (std::size_t k = 0; k < order_.sd; ++k) pass(order_.season);
  for (std::size_t k = 0; k < order_.d; ++k) pass(1);
  return x.back();
}

std::size_t ArimaModel::raw_capacity() const {
  return std::max(kMinTail,
                  order_.d + (order_.sd + 1) * order_.season + 2);
}

std::size_t ArimaModel::z_capacity() const {
  return std::max(kMinTail, order_.p + order_.sp * order_.season + 1);
}

std::size_t ArimaModel::error_capacity() const {
  return std::max(kMinTail, order_.q + order_.sq * order_.season + 1);
}

void ArimaModel::SetState(std::span<const double> raw,
                          std::span<const double> z,
                          std::span<const double> errors) {
  const std::size_t capacities[] = {raw_capacity(), z_capacity(),
                                    error_capacity()};
  const std::span<const double> tails[] = {raw, z, errors};
  state_.assign(kTails + capacities[0] + capacities[1] + capacities[2], 0.0);
  std::size_t end = kTails;
  for (std::size_t i = 0; i < 3; ++i) {
    end += capacities[i];
    const std::size_t count = std::min(tails[i].size(), capacities[i]);
    state_[i] = static_cast<double>(count);
    std::copy(tails[i].end() - static_cast<std::ptrdiff_t>(count),
              tails[i].end(),
              state_.begin() + static_cast<std::ptrdiff_t>(end - count));
  }
}

double ArimaModel::ConditionalSse(const std::vector<double>& z,
                                  std::vector<double>* errors) const {
  const std::size_t n = z.size();
  const std::size_t ar_len = expanded_ar_.size();
  const std::size_t ma_len = expanded_ma_.size();
  std::vector<double> e(n, 0.0);
  double sse = 0.0;
  std::size_t count = 0;
  for (std::size_t t = 0; t < n; ++t) {
    double pred = 0.0;
    for (std::size_t i = 1; i <= ar_len && i <= t; ++i) {
      pred += expanded_ar_[i - 1] * z[t - i];
    }
    for (std::size_t j = 1; j <= ma_len && j <= t; ++j) {
      pred += expanded_ma_[j - 1] * e[t - j];
    }
    e[t] = z[t] - pred;
    if (t >= ar_len) {  // condition on the first ar_len observations
      sse += e[t] * e[t];
      ++count;
    }
  }
  if (errors != nullptr) *errors = std::move(e);
  if (count == 0) return std::numeric_limits<double>::max();
  return sse;
}

Status ArimaModel::Fit(const TimeSeries& history) {
  F2DB_INJECT_FAILPOINT(kFailpointArimaFit);
  if ((order_.sp > 0 || order_.sq > 0 || order_.sd > 0) && order_.season < 2) {
    return Status::InvalidArgument("ARIMA: seasonal orders require season >= 2");
  }
  // A single NaN/Inf observation poisons the CSS recursion and every
  // forecast downstream; reject it up front instead of fitting garbage.
  F2DB_RETURN_IF_ERROR(history.ValidateFinite());
  const std::span<const double> raw = history.values();
  const std::vector<double> w = Difference(raw);
  const std::size_t ar_len = order_.p + order_.sp * order_.season;
  const std::size_t ma_len = order_.q + order_.sq * order_.season;
  const std::size_t min_obs = ar_len + ma_len + 5;
  if (w.size() < min_obs) {
    return Status::InvalidArgument(
        "ARIMA: series too short after differencing (" +
        std::to_string(w.size()) + " < " + std::to_string(min_obs) + ")");
  }

  // Demean the differenced series; mu is estimated by the sample mean.
  double mean = 0.0;
  for (double v : w) mean += v;
  mean /= static_cast<double>(w.size());
  mu_ = mean;
  std::vector<double> z(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) z[i] = w[i] - mu_;

  const std::size_t dim = order_.NumCoefficients();
  if (dim > 0) {
    // Unconstrained parameters map through tanh to PACFs, which map to
    // stationary AR (invertible MA) coefficients.
    auto apply = [&](const std::vector<double>& x) {
      std::size_t idx = 0;
      auto take = [&](std::size_t count) {
        std::vector<double> pacf(count);
        for (std::size_t i = 0; i < count; ++i) {
          pacf[i] = 0.98 * SafeTanh(x[idx++]);
        }
        return PacfToArCoefficients(pacf);
      };
      phi_ = take(order_.p);
      theta_ = take(order_.q);
      seasonal_phi_ = take(order_.sp);
      seasonal_theta_ = take(order_.sq);
      ExpandPolynomials();
    };
    Objective objective = [&](const std::vector<double>& x) {
      apply(x);
      return ConditionalSse(z, nullptr);
    };
    OptimizerOptions options;
    options.max_evaluations = 300 * dim;
    options.tolerance = 1e-9;
    const std::vector<double> x0(dim, 0.0);
    const OptimizationResult best = NelderMead(objective, x0, Bounds{}, options);
    // Same contract as the ETS fitter: a search that never reached a finite
    // objective is a transient estimation failure, not a usable model.
    if (!(best.value < std::numeric_limits<double>::max())) {
      return Status::Unavailable(
          "ARIMA: optimizer did not reach a finite objective");
    }
    apply(best.x);
  }

  std::vector<double> errors;
  const double sse = ConditionalSse(z, &errors);
  const double n_eff =
      static_cast<double>(z.size() > ar_len ? z.size() - ar_len : 1);
  sigma2_ = std::max(sse / n_eff, 0.0);
  const double sigma2 = std::max(sigma2_, 1e-300);
  aic_ = n_eff * std::log(sigma2) +
         2.0 * (static_cast<double>(dim) + 1.0);

  // One-step in-sample fit on the original scale: y_t - e_t (differencing
  // uses past actuals, so the innovation carries over linearly).
  std::vector<double> fitted(raw.begin(), raw.end());
  const std::size_t offset = raw.size() - z.size();
  for (std::size_t t = 0; t < z.size(); ++t) {
    fitted[offset + t] = raw[offset + t] - errors[t];
  }
  fitted_values_ =
      std::make_shared<const std::vector<double>>(std::move(fitted));

  SetState(raw, z, errors);
  fitted_ = true;
  return Status::OK();
}

void ArimaModel::ForecastInto(std::span<const double> state,
                              std::size_t horizon,
                              std::vector<double>* out) const {
  assert(fitted_);
  const std::size_t ar_len = expanded_ar_.size();
  const std::size_t ma_len = expanded_ma_.size();
  const std::size_t raw_cap = raw_capacity();
  const std::size_t z_cap = z_capacity();
  const auto raw_count = static_cast<std::size_t>(state[kRawCount]);
  const auto n = static_cast<std::size_t>(state[kZCount]);
  const auto e_count = static_cast<std::size_t>(state[kErrorCount]);
  const std::span<const double> raw =
      state.subspan(kTails + raw_cap - raw_count, raw_count);
  const std::span<const double> z =
      state.subspan(kTails + raw_cap + z_cap - n, n);
  const std::span<const double> errors = state.last(e_count);

  // Forecast the demeaned differenced series. Time t indexes the z tail;
  // the innovation tail ends at the same time.
  std::vector<double> future_z(horizon, 0.0);
  auto z_at = [&](std::ptrdiff_t t) -> double {
    if (t < 0) return 0.0;
    if (t < static_cast<std::ptrdiff_t>(n)) {
      return z[static_cast<std::size_t>(t)];
    }
    return future_z[static_cast<std::size_t>(t) - n];
  };
  auto e_at = [&](std::ptrdiff_t t) -> double {
    if (t < 0 || t >= static_cast<std::ptrdiff_t>(n)) return 0.0;
    const std::size_t back = n - static_cast<std::size_t>(t);
    return back <= e_count ? errors[e_count - back] : 0.0;
  };
  for (std::size_t h = 0; h < horizon; ++h) {
    const std::ptrdiff_t t = static_cast<std::ptrdiff_t>(n + h);
    double pred = 0.0;
    for (std::size_t i = 1; i <= ar_len; ++i) {
      pred += expanded_ar_[i - 1] * z_at(t - static_cast<std::ptrdiff_t>(i));
    }
    for (std::size_t j = 1; j <= ma_len; ++j) {
      pred += expanded_ma_[j - 1] * e_at(t - static_cast<std::ptrdiff_t>(j));
    }
    future_z[h] = pred;
  }

  // Undo the demeaning, then integrate the differences back to the
  // original scale. w = Delta^d Delta_s^D y; invert regular diffs first.
  std::vector<double> future_w(horizon);
  for (std::size_t h = 0; h < horizon; ++h) future_w[h] = future_z[h] + mu_;

  // v = Delta_s^D y (after removing the d regular differences).
  // Build the "v tails" for each regular-integration level.
  const std::size_t s = order_.season;
  std::vector<double> v_full(raw.begin(), raw.end());
  for (std::size_t k = 0; k < order_.sd; ++k) {
    std::vector<double> next(v_full.size() > s ? v_full.size() - s : 0);
    for (std::size_t t = s; t < v_full.size(); ++t) {
      next[t - s] = v_full[t] - v_full[t - s];
    }
    v_full = std::move(next);
  }
  // levels[0] = v (seasonally differenced only), levels[k] = Delta^k v.
  std::vector<std::vector<double>> levels;
  levels.push_back(v_full);
  for (std::size_t k = 0; k < order_.d; ++k) {
    const std::vector<double>& cur = levels.back();
    std::vector<double> next(cur.size() > 1 ? cur.size() - 1 : 0);
    for (std::size_t t = 1; t < cur.size(); ++t) next[t - 1] = cur[t] - cur[t - 1];
    levels.push_back(std::move(next));
  }

  // Integrate the d regular differences.
  std::vector<double> current = future_w;
  for (std::size_t k = order_.d; k-- > 0;) {
    const std::vector<double>& base_level = levels[k];
    double last = base_level.empty() ? 0.0 : base_level.back();
    for (double& v : current) {
      last += v;
      v = last;
    }
  }

  // Integrate the D seasonal differences. Reconstruct per level of
  // seasonal integration, starting from v forecasts up to raw y.
  std::vector<std::vector<double>> season_levels;  // level 0 = raw y
  season_levels.emplace_back(raw.begin(), raw.end());
  {
    std::vector<double> tmp(raw.begin(), raw.end());
    for (std::size_t k = 0; k < order_.sd; ++k) {
      std::vector<double> next(tmp.size() > s ? tmp.size() - s : 0);
      for (std::size_t t = s; t < tmp.size(); ++t) next[t - s] = tmp[t] - tmp[t - s];
      tmp = std::move(next);
      season_levels.push_back(tmp);
    }
  }
  for (std::size_t k = order_.sd; k-- > 0;) {
    const std::vector<double>& base_level = season_levels[k];
    std::vector<double> integrated(horizon);
    for (std::size_t h = 0; h < horizon; ++h) {
      // y_{n+h} = w_{n+h} + y_{n+h-s}; the lagged value is historical when
      // h < s and a previously integrated forecast otherwise.
      double lagged = 0.0;
      if (h < s) {
        if (base_level.size() >= s - h) {
          lagged = base_level[base_level.size() - (s - h)];
        } else if (!base_level.empty()) {
          lagged = base_level.back();
        }
      } else {
        lagged = integrated[h - s];
      }
      integrated[h] = current[h] + lagged;
    }
    current = std::move(integrated);
  }
  *out = std::move(current);
}

void ArimaModel::StepState(std::span<double> state, double value) const {
  const std::size_t raw_cap = raw_capacity();
  const std::size_t z_cap = z_capacity();
  const std::span<double> raw = state.subspan(kTails, raw_cap);
  const std::span<double> z = state.subspan(kTails + raw_cap, z_cap);
  const std::span<double> errors = state.subspan(kTails + raw_cap + z_cap);
  state[kRawCount] = PushTail(raw, state[kRawCount], value);
  // New differenced value needs the last d + D*s raw observations.
  const std::size_t s = order_.season;
  const std::size_t need = order_.d + order_.sd * s + 1;
  const auto raw_count = static_cast<std::size_t>(state[kRawCount]);
  if (raw_count < need) {
    return;  // not enough history yet to form a differenced value
  }
  // Compute the newest w by differencing the tail.
  const double z_new =
      NewestDifference(raw.last(std::min(raw_count, need + s))) - mu_;

  // New innovation from the recursion.
  const std::size_t ar_len = expanded_ar_.size();
  const std::size_t ma_len = expanded_ma_.size();
  const auto z_count = static_cast<std::size_t>(state[kZCount]);
  const auto e_count = static_cast<std::size_t>(state[kErrorCount]);
  double pred = 0.0;
  for (std::size_t i = 1; i <= ar_len && i <= z_count; ++i) {
    pred += expanded_ar_[i - 1] * z[z_cap - i];
  }
  for (std::size_t j = 1; j <= ma_len && j <= e_count; ++j) {
    pred += expanded_ma_[j - 1] * errors[errors.size() - j];
  }
  state[kZCount] = PushTail(z, state[kZCount], z_new);
  state[kErrorCount] = PushTail(errors, state[kErrorCount], z_new - pred);
}

std::unique_ptr<ForecastModel> ArimaModel::Clone() const {
  return std::make_unique<ArimaModel>(*this);
}

std::vector<double> ArimaModel::ForecastVariance(std::span<const double> state,
                                                 std::size_t horizon) const {
  (void)state;
  // Psi-weight recursion on the full (integrated) AR polynomial:
  //   Phi(B) = A(B) * (1-B)^d * (1-B^s)^D, with A(B) the expanded
  //   stationary AR polynomial. Then
  //   psi_0 = 1,  psi_k = sum_i c_i psi_{k-i} + theta_k,
  //   var_h = sigma2 * sum_{k<h} psi_k^2.
  std::vector<double> poly{1.0};
  for (std::size_t i = 0; i < expanded_ar_.size(); ++i) {
    poly.push_back(-expanded_ar_[i]);
  }
  auto multiply_by_one_minus_b_lag = [&poly](std::size_t lag) {
    std::vector<double> next(poly.size() + lag, 0.0);
    for (std::size_t i = 0; i < poly.size(); ++i) {
      next[i] += poly[i];
      next[i + lag] -= poly[i];
    }
    poly = std::move(next);
  };
  for (std::size_t k = 0; k < order_.d; ++k) multiply_by_one_minus_b_lag(1);
  for (std::size_t k = 0; k < order_.sd; ++k) {
    multiply_by_one_minus_b_lag(order_.season);
  }
  // c_i = -poly[i] for i >= 1.
  std::vector<double> psi(horizon, 0.0);
  std::vector<double> out(horizon, 0.0);
  double cumulative = 0.0;
  for (std::size_t k = 0; k < horizon; ++k) {
    double value = (k == 0) ? 1.0 : 0.0;
    if (k >= 1) {
      for (std::size_t i = 1; i < poly.size() && i <= k; ++i) {
        value += -poly[i] * psi[k - i];
      }
      if (k <= expanded_ma_.size()) value += expanded_ma_[k - 1];
    }
    psi[k] = value;
    cumulative += value * value;
    out[k] = sigma2_ * cumulative;
  }
  return out;
}

std::vector<double> ArimaModel::parameters() const {
  std::vector<double> out{mu_};
  out.insert(out.end(), phi_.begin(), phi_.end());
  out.insert(out.end(), theta_.begin(), theta_.end());
  out.insert(out.end(), seasonal_phi_.begin(), seasonal_phi_.end());
  out.insert(out.end(), seasonal_theta_.begin(), seasonal_theta_.end());
  return out;
}

std::vector<double> ArimaModel::SaveState(std::span<const double> state) const {
  std::vector<double> out;
  out.push_back(static_cast<double>(order_.p));
  out.push_back(static_cast<double>(order_.d));
  out.push_back(static_cast<double>(order_.q));
  out.push_back(static_cast<double>(order_.sp));
  out.push_back(static_cast<double>(order_.sd));
  out.push_back(static_cast<double>(order_.sq));
  out.push_back(static_cast<double>(order_.season));
  out.push_back(mu_);
  out.push_back(aic_);
  out.push_back(sigma2_);
  for (const auto* group : {&phi_, &theta_, &seasonal_phi_, &seasonal_theta_}) {
    out.insert(out.end(), group->begin(), group->end());
  }
  // The tail counts, then the valid part of each tail.
  out.insert(out.end(), state.begin(), state.begin() + kTails);
  const std::size_t capacities[] = {raw_capacity(), z_capacity(),
                                    error_capacity()};
  std::size_t end = kTails;
  for (std::size_t i = 0; i < 3; ++i) {
    end += capacities[i];
    const auto count = static_cast<std::size_t>(state[i]);
    out.insert(out.end(),
               state.begin() + static_cast<std::ptrdiff_t>(end - count),
               state.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return out;
}

Status ArimaModel::RestoreState(const std::vector<double>& state) {
  if (state.size() < 13) return Status::InvalidArgument("ARIMA: bad state");
  std::size_t idx = 0;
  ArimaOrder order;
  order.p = static_cast<std::size_t>(state[idx++]);
  order.d = static_cast<std::size_t>(state[idx++]);
  order.q = static_cast<std::size_t>(state[idx++]);
  order.sp = static_cast<std::size_t>(state[idx++]);
  order.sd = static_cast<std::size_t>(state[idx++]);
  order.sq = static_cast<std::size_t>(state[idx++]);
  order.season = static_cast<std::size_t>(state[idx++]);
  order_ = order;
  mu_ = state[idx++];
  aic_ = state[idx++];
  sigma2_ = state[idx++];
  auto take = [&](std::size_t count) -> Result<std::vector<double>> {
    if (idx + count > state.size()) {
      return Status::InvalidArgument("ARIMA: truncated state");
    }
    std::vector<double> out(state.begin() + static_cast<std::ptrdiff_t>(idx),
                            state.begin() +
                                static_cast<std::ptrdiff_t>(idx + count));
    idx += count;
    return out;
  };
  F2DB_ASSIGN_OR_RETURN(phi_, take(order_.p));
  F2DB_ASSIGN_OR_RETURN(theta_, take(order_.q));
  F2DB_ASSIGN_OR_RETURN(seasonal_phi_, take(order_.sp));
  F2DB_ASSIGN_OR_RETURN(seasonal_theta_, take(order_.sq));
  ExpandPolynomials();
  if (idx + 3 > state.size()) return Status::InvalidArgument("ARIMA: bad tails");
  const std::size_t raw_tail = static_cast<std::size_t>(state[idx++]);
  const std::size_t z_tail = static_cast<std::size_t>(state[idx++]);
  const std::size_t e_tail = static_cast<std::size_t>(state[idx++]);
  F2DB_ASSIGN_OR_RETURN(const std::vector<double> raw, take(raw_tail));
  F2DB_ASSIGN_OR_RETURN(const std::vector<double> z, take(z_tail));
  F2DB_ASSIGN_OR_RETURN(const std::vector<double> errors, take(e_tail));
  if (idx != state.size()) return Status::InvalidArgument("ARIMA: extra state");
  SetState(raw, z, errors);
  fitted_values_.reset();
  fitted_ = true;
  return Status::OK();
}

}  // namespace f2db
