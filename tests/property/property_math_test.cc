// Math-substrate property tests (satellite b): models fit on
// generator-known processes recover the generating parameters, and the
// optimizer's outcome is invariant to series/objective scaling.

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "data/sarima_generator.h"
#include "gtest/gtest.h"
#include "math/optimizer.h"
#include "testing/property.h"
#include "testing/replay_hint.h"
#include "ts/arima.h"
#include "ts/exponential_smoothing.h"
#include "ts/time_series.h"

namespace f2db::testing {
namespace {

TEST(PropertyMathTest, ArimaRecoversAr1Coefficient) {
  // AR(1) with a strong positive coefficient: the fitted phi must land in
  // the right region across several seeded realizations. Loose tolerance —
  // the estimator sees 400 noisy observations, not the true process.
  const std::uint64_t base = PropertySeed();
  const std::size_t rounds = PropertyIterations(3);
  for (std::size_t round = 0; round < rounds; ++round) {
    SarimaProcess process;
    process.order = ArimaOrder{1, 0, 0, 0, 0, 0, 1};
    process.phi = {0.7};
    process.noise_stddev = 1.0;
    process.level_offset = 100.0;
    Rng rng(SubSeed(base, "ar1-" + std::to_string(round)));
    const TimeSeries sample = SimulateSarima(process, 400, rng);

    ArimaModel model(ArimaOrder{1, 0, 0, 0, 0, 0, 1});
    ASSERT_TRUE(model.Fit(sample).ok()) << ReplayHint(base);
    ASSERT_EQ(model.phi().size(), 1u);
    EXPECT_NEAR(model.phi()[0], 0.7, 0.25)
        << "round " << round << "; " << ReplayHint(base);
  }
}

TEST(PropertyMathTest, HoltWintersTracksSeasonalTrendProcess) {
  // A clean seasonal + trend signal with mild noise: the in-sample SMAPE
  // of triple exponential smoothing must be small, and the forecast must
  // keep the seasonal shape (peak stays the peak).
  const std::uint64_t base = PropertySeed();
  const std::size_t rounds = PropertyIterations(2);
  const std::size_t period = 4;
  for (std::size_t round = 0; round < rounds; ++round) {
    Rng rng(SubSeed(base, "hw-" + std::to_string(round)));
    std::vector<double> values;
    const double season[period] = {10.0, -5.0, 3.0, -8.0};
    for (std::size_t t = 0; t < 120; ++t) {
      values.push_back(100.0 + 0.5 * static_cast<double>(t) +
                       season[t % period] + rng.Gaussian(0.0, 0.5));
    }
    auto model = ExponentialSmoothingModel::HoltWintersAdditive(period);
    ASSERT_TRUE(model->Fit(TimeSeries(values)).ok());

    const std::vector<double> forecast = model->Forecast(2 * period);
    ASSERT_EQ(forecast.size(), 2 * period);
    // t = 120 is phase 0 (the +10 peak); within each forecast period the
    // phase-0 value must exceed the phase-3 trough.
    EXPECT_GT(forecast[0], forecast[3]) << ReplayHint(base);
    EXPECT_GT(forecast[4], forecast[7]) << ReplayHint(base);
    // One-period-ahead level is near the deterministic continuation.
    const double expected0 = 100.0 + 0.5 * 120.0 + season[0];
    EXPECT_NEAR(forecast[0], expected0, 5.0) << ReplayHint(base);
  }
}

TEST(PropertyMathTest, NelderMeadArgminIsScaleInvariant) {
  // argmin of a * (x - c)^2 must not depend on a: the optimizer normalizes
  // nothing, but the simplex contraction is driven by comparisons only.
  const std::uint64_t base = PropertySeed();
  const std::size_t rounds = PropertyIterations(4);
  for (std::size_t round = 0; round < rounds; ++round) {
    Rng rng(SubSeed(base, "scale-" + std::to_string(round)));
    const double c = rng.Uniform(-5.0, 5.0);
    const auto argmin_for = [&](double scale) {
      const Objective objective = [c, scale](const std::vector<double>& x) {
        return scale * (x[0] - c) * (x[0] - c);
      };
      OptimizerOptions options;
      options.max_evaluations = 4000;
      return NelderMead(objective, {0.0}, Bounds{}, options);
    };
    const OptimizationResult small = argmin_for(1.0);
    const OptimizationResult large = argmin_for(1e6);
    ASSERT_TRUE(small.converged);
    ASSERT_TRUE(large.converged);
    EXPECT_NEAR(small.x[0], c, 1e-3) << ReplayHint(base);
    EXPECT_NEAR(large.x[0], small.x[0], 1e-3)
        << "c=" << c << "; " << ReplayHint(base);
  }
}

TEST(PropertyMathTest, SesAlphaIsInvariantToSeriesScaling) {
  // SES minimizes sum of squared one-step errors; scaling the series by a
  // constant scales the objective uniformly, so the fitted alpha must not
  // move (beyond optimizer tolerance).
  const std::uint64_t base = PropertySeed();
  const std::size_t rounds = PropertyIterations(3);
  for (std::size_t round = 0; round < rounds; ++round) {
    Rng rng(SubSeed(base, "ses-scale-" + std::to_string(round)));
    std::vector<double> values;
    double level = 50.0;
    for (std::size_t t = 0; t < 80; ++t) {
      level += rng.Gaussian(0.0, 2.0);
      values.push_back(level);
    }
    std::vector<double> scaled = values;
    for (double& v : scaled) v *= 1000.0;

    auto a = ExponentialSmoothingModel::Ses();
    auto b = ExponentialSmoothingModel::Ses();
    ASSERT_TRUE(a->Fit(TimeSeries(values)).ok());
    ASSERT_TRUE(b->Fit(TimeSeries(scaled)).ok());
    EXPECT_NEAR(a->alpha(), b->alpha(), 0.05)
        << "round " << round << "; " << ReplayHint(base);

    // And the forecasts scale linearly with the series.
    const double fa = a->Forecast(1)[0];
    const double fb = b->Forecast(1)[0];
    EXPECT_NEAR(fb, 1000.0 * fa, std::abs(fa) * 10.0 + 1e-6)
        << ReplayHint(base);
  }
}

TEST(PropertyMathTest, HillClimbAndNelderMeadAgreeOnConvexObjective) {
  const std::uint64_t base = PropertySeed();
  const std::size_t rounds = PropertyIterations(3);
  for (std::size_t round = 0; round < rounds; ++round) {
    Rng rng(SubSeed(base, "convex-" + std::to_string(round)));
    const double cx = rng.Uniform(-3.0, 3.0);
    const double cy = rng.Uniform(-3.0, 3.0);
    const Objective objective = [cx, cy](const std::vector<double>& x) {
      return (x[0] - cx) * (x[0] - cx) + 2.0 * (x[1] - cy) * (x[1] - cy);
    };
    OptimizerOptions options;
    options.max_evaluations = 8000;
    const OptimizationResult nm = NelderMead(objective, {0.0, 0.0}, Bounds{},
                                             options);
    const OptimizationResult hc = HillClimb(objective, {0.0, 0.0}, Bounds{},
                                            options);
    EXPECT_NEAR(nm.x[0], cx, 1e-2) << ReplayHint(base);
    EXPECT_NEAR(hc.x[0], cx, 1e-2) << ReplayHint(base);
    EXPECT_NEAR(nm.x[1], cy, 1e-2) << ReplayHint(base);
    EXPECT_NEAR(hc.x[1], cy, 1e-2) << ReplayHint(base);
  }
}

}  // namespace
}  // namespace f2db::testing
