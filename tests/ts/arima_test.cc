#include "ts/arima.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "data/sarima_generator.h"
#include "ts/accuracy.h"

namespace f2db {
namespace {

TEST(PacfTransform, Ar1PassThrough) {
  const auto phi = PacfToArCoefficients({0.6});
  ASSERT_EQ(phi.size(), 1u);
  EXPECT_DOUBLE_EQ(phi[0], 0.6);
}

TEST(PacfTransform, Ar2DurbinLevinson) {
  // pacf (p1, p2) -> phi1 = p1(1 - p2), phi2 = p2.
  const auto phi = PacfToArCoefficients({0.5, -0.3});
  EXPECT_NEAR(phi[0], 0.5 * (1.0 - (-0.3)), 1e-12);
  EXPECT_NEAR(phi[1], -0.3, 1e-12);
}

TEST(PacfTransform, StationarityForExtremePacf) {
  // Any pacf in (-1,1) must give a stationary polynomial; spot-check that
  // the one-step recursion with these coefficients does not explode.
  const auto phi = PacfToArCoefficients({0.95, -0.9, 0.85, -0.8});
  std::vector<double> w(500, 0.0);
  w[0] = 1.0;
  double max_abs = 0.0;
  for (std::size_t t = 1; t < w.size(); ++t) {
    double v = 0.0;
    for (std::size_t i = 1; i <= phi.size() && i <= t; ++i) {
      v += phi[i - 1] * w[t - i];
    }
    w[t] = v;
    max_abs = std::max(max_abs, std::abs(v));
  }
  EXPECT_LT(std::abs(w.back()), 1e-3) << "impulse response must decay";
  EXPECT_LT(max_abs, 100.0);
}

TimeSeries SimulateAr1(double phi, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  double prev = 0.0;
  for (std::size_t burn = 0; burn < 100; ++burn) {
    prev = phi * prev + rng.NextGaussian();
  }
  for (std::size_t t = 0; t < n; ++t) {
    prev = phi * prev + rng.NextGaussian();
    out[t] = prev + 50.0;
  }
  return TimeSeries(out);
}

TEST(Arima, RecoversAr1Coefficient) {
  ArimaOrder order;
  order.p = 1;
  order.d = 0;
  order.q = 0;
  ArimaModel model(order);
  ASSERT_TRUE(model.Fit(SimulateAr1(0.7, 2000, 11)).ok());
  ASSERT_EQ(model.phi().size(), 1u);
  EXPECT_NEAR(model.phi()[0], 0.7, 0.08);
}

TEST(Arima, RecoversMeanOfDifferencedSeries) {
  // Random walk with drift 2: first difference has mean 2.
  Rng rng(13);
  std::vector<double> series(300);
  double level = 0.0;
  for (double& v : series) {
    level += 2.0 + rng.Gaussian(0.0, 0.1);
    v = level;
  }
  ArimaOrder order;
  order.p = 0;
  order.d = 1;
  order.q = 0;
  ArimaModel model(order);
  ASSERT_TRUE(model.Fit(TimeSeries(series)).ok());
  EXPECT_NEAR(model.mu(), 2.0, 0.05);
  // Forecasts continue the drift.
  const auto f = model.Forecast(5);
  EXPECT_NEAR(f[4] - f[0], 8.0, 0.5);
}

TEST(Arima, ForecastConvergesToMeanForStationaryModel) {
  ArimaOrder order;
  order.p = 1;
  ArimaModel model(order);
  ASSERT_TRUE(model.Fit(SimulateAr1(0.5, 1000, 17)).ok());
  const auto f = model.Forecast(200);
  EXPECT_NEAR(f.back(), 50.0, 1.0);  // long-run forecast ~ series mean
}

TEST(Arima, SeasonalModelTracksSarimaProcess) {
  SarimaProcess process;
  process.order.p = 1;
  process.order.q = 0;
  process.order.sd = 1;
  process.order.season = 12;
  process.phi = {0.5};
  process.noise_stddev = 0.5;
  process.level_offset = 100.0;
  Rng rng(19);
  const TimeSeries series = SimulateSarima(process, 240, rng);
  const auto [train, test] = series.TrainTestSplit(0.9);

  ArimaOrder order;
  order.p = 1;
  order.d = 0;
  order.q = 0;
  order.sd = 1;
  order.sq = 1;
  order.season = 12;
  ArimaModel model(order);
  ASSERT_TRUE(model.Fit(train).ok());
  const auto naive_error =
      Smape(test.ToVector(),
            std::vector<double>(test.size(), train.values().back()));
  const auto model_error = Smape(test.ToVector(), model.Forecast(test.size()));
  EXPECT_LT(model_error, naive_error);
}

TEST(Arima, RejectsSeriesTooShort) {
  ArimaOrder order;
  order.p = 2;
  order.q = 2;
  ArimaModel model(order);
  EXPECT_FALSE(model.Fit(TimeSeries({1, 2, 3, 4, 5})).ok());
}

TEST(Arima, RejectsSeasonalOrdersWithoutSeason) {
  ArimaOrder order;
  order.sp = 1;
  order.season = 1;
  ArimaModel model(order);
  EXPECT_FALSE(
      model.Fit(TimeSeries(std::vector<double>(100, 1.0))).ok());
}

TEST(Arima, RejectsNonFiniteHistory) {
  // A single NaN would silently poison the CSS recursion; Fit must reject
  // the series up front instead of estimating garbage coefficients.
  std::vector<double> values(100, 1.0);
  values[40] = std::numeric_limits<double>::quiet_NaN();
  ArimaModel model(ArimaOrder{});
  const Status status = model.Fit(TimeSeries(values));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(model.is_fitted());
}

TEST(Arima, UpdateAdvancesForecastOrigin) {
  ArimaModel model(ArimaOrder{1, 0, 0, 0, 0, 0, 1});
  const TimeSeries series = SimulateAr1(0.8, 500, 23);
  ASSERT_TRUE(model.Fit(series).ok());
  const double predicted_next = model.Forecast(2)[1];
  model.Update(model.Forecast(1)[0]);
  // After updating with exactly the predicted value, the new one-step
  // forecast equals the old two-step forecast.
  EXPECT_NEAR(model.Forecast(1)[0], predicted_next, 1e-6);
}

TEST(Arima, AicPenalizesExtraParameters) {
  const TimeSeries series = SimulateAr1(0.6, 400, 29);
  ArimaModel small(ArimaOrder{1, 0, 0, 0, 0, 0, 1});
  ArimaModel large(ArimaOrder{3, 0, 3, 0, 0, 0, 1});
  ASSERT_TRUE(small.Fit(series).ok());
  ASSERT_TRUE(large.Fit(series).ok());
  // The true process is AR(1); the bigger model cannot beat it by much and
  // pays the 2k penalty.
  EXPECT_LT(small.aic(), large.aic() + 2.0);
}

TEST(Arima, SaveRestoreRoundTrip) {
  ArimaOrder order;
  order.p = 1;
  order.d = 1;
  order.q = 1;
  ArimaModel model(order);
  const TimeSeries series = SimulateAr1(0.5, 300, 31);
  ASSERT_TRUE(model.Fit(series).ok());
  model.Update(48.0);
  const auto state = model.SaveState();

  ArimaModel restored(ArimaOrder{});
  ASSERT_TRUE(restored.RestoreState(state).ok());
  const auto f1 = model.Forecast(6);
  const auto f2 = restored.Forecast(6);
  ASSERT_EQ(f1.size(), f2.size());
  for (std::size_t i = 0; i < f1.size(); ++i) EXPECT_NEAR(f1[i], f2[i], 1e-9);

  // Updates continue identically after restore.
  restored.Update(50.0);
  model.Update(50.0);
  EXPECT_NEAR(model.Forecast(1)[0], restored.Forecast(1)[0], 1e-9);
}

TEST(Arima, StateStaysBoundedAndMatchesARestoredModel) {
  // A seasonal AR part makes the z tail longer than the innovation tail,
  // so the two tails must each be read from their own end.
  ArimaOrder order;
  order.p = 1;
  order.d = 1;
  order.q = 1;
  order.sp = 1;
  order.season = 4;
  ArimaModel model(order);
  const TimeSeries series = SimulateAr1(0.5, 120, 41);
  ASSERT_TRUE(model.Fit(series).ok());
  const std::size_t state_size = model.state_size();

  ArimaModel restored(ArimaOrder{});
  ASSERT_TRUE(restored.RestoreState(model.SaveState()).ok());
  ASSERT_EQ(restored.state_size(), state_size);

  Rng rng(43);
  for (int step = 0; step < 1000; ++step) {
    const double y = 50.0 + 5.0 * rng.NextGaussian();
    model.Update(y);
    restored.Update(y);
    ASSERT_EQ(model.state_size(), state_size) << "step " << step;
    ASSERT_EQ(restored.state_size(), state_size) << "step " << step;
    if (step % 50 == 0 || step == 999) {
      const auto f1 = model.Forecast(8);
      const auto f2 = restored.Forecast(8);
      ASSERT_EQ(f1, f2) << "step " << step;
      ASSERT_EQ(model.SaveState(), restored.SaveState()) << "step " << step;
    }
  }
}

TEST(Arima, RestoreRejectsCorruptState) {
  ArimaModel model(ArimaOrder{});
  EXPECT_FALSE(model.RestoreState({}).ok());
  EXPECT_FALSE(model.RestoreState({1, 2, 3}).ok());
}

TEST(Arima, FittedValuesMatchHistoryLength) {
  ArimaModel model(ArimaOrder{1, 1, 1, 0, 0, 0, 1});
  const TimeSeries series = SimulateAr1(0.4, 200, 37);
  ASSERT_TRUE(model.Fit(series).ok());
  EXPECT_EQ(model.FittedValues().size(), series.size());
}

class ArimaOrderSweep : public ::testing::TestWithParam<ArimaOrder> {};

TEST_P(ArimaOrderSweep, FitsAndForecastsFinite) {
  ArimaModel model(GetParam());
  const TimeSeries series = SimulateAr1(0.6, 400, 41);
  ASSERT_TRUE(model.Fit(series).ok());
  for (double v : model.Forecast(24)) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(
    Orders, ArimaOrderSweep,
    ::testing::Values(ArimaOrder{0, 0, 1, 0, 0, 0, 1},
                      ArimaOrder{1, 0, 1, 0, 0, 0, 1},
                      ArimaOrder{2, 0, 0, 0, 0, 0, 1},
                      ArimaOrder{1, 1, 1, 0, 0, 0, 1},
                      ArimaOrder{2, 1, 2, 0, 0, 0, 1},
                      ArimaOrder{1, 0, 0, 1, 0, 0, 12},
                      ArimaOrder{0, 1, 1, 0, 1, 1, 12},
                      ArimaOrder{1, 2, 1, 0, 0, 0, 1}));

}  // namespace
}  // namespace f2db
