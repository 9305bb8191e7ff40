#include "ts/exponential_smoothing.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ts/accuracy.h"

namespace f2db {
namespace {

std::vector<double> SeasonalTrendSeries(std::size_t n, std::size_t period,
                                        double noise_sd, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (std::size_t t = 0; t < n; ++t) {
    out[t] = 100.0 + 0.5 * static_cast<double>(t) +
             20.0 * std::sin(2.0 * M_PI * static_cast<double>(t) /
                             static_cast<double>(period)) +
             (noise_sd > 0 ? rng.Gaussian(0.0, noise_sd) : 0.0);
  }
  return out;
}

TEST(Ses, ConstantSeriesForecastsConstant) {
  auto model = ExponentialSmoothingModel::Ses();
  ASSERT_TRUE(model->Fit(TimeSeries(std::vector<double>(20, 5.0))).ok());
  for (double v : model->Forecast(5)) EXPECT_NEAR(v, 5.0, 1e-9);
}

TEST(Ses, FlatForecastShape) {
  auto model = ExponentialSmoothingModel::Ses();
  ASSERT_TRUE(
      model->Fit(TimeSeries(SeasonalTrendSeries(40, 12, 1.0, 1))).ok());
  const auto f = model->Forecast(5);
  for (std::size_t h = 1; h < f.size(); ++h) {
    EXPECT_DOUBLE_EQ(f[h], f[0]);  // SES forecasts are flat
  }
}

TEST(Holt, CapturesLinearTrend) {
  std::vector<double> series(30);
  for (std::size_t t = 0; t < series.size(); ++t) {
    series[t] = 10.0 + 2.0 * static_cast<double>(t);
  }
  auto model = ExponentialSmoothingModel::Holt();
  ASSERT_TRUE(model->Fit(TimeSeries(series)).ok());
  const auto f = model->Forecast(3);
  EXPECT_NEAR(f[0], 70.0, 1.0);
  EXPECT_NEAR(f[2], 74.0, 1.5);
}

TEST(Holt, DampedTrendFlattens) {
  std::vector<double> series(30);
  for (std::size_t t = 0; t < series.size(); ++t) {
    series[t] = 10.0 + 2.0 * static_cast<double>(t);
  }
  auto damped = ExponentialSmoothingModel::Holt(/*damped=*/true);
  ASSERT_TRUE(damped->Fit(TimeSeries(series)).ok());
  const auto f = damped->Forecast(50);
  // Damped increments shrink: late steps grow slower than early steps.
  const double early_step = f[1] - f[0];
  const double late_step = f[49] - f[48];
  EXPECT_LT(late_step, early_step + 1e-9);
  EXPECT_EQ(damped->num_parameters(), 3u);  // alpha, beta, phi
}

TEST(HoltWinters, AdditiveTracksSeasonalSeries) {
  const auto series = SeasonalTrendSeries(72, 12, 0.5, 2);
  TimeSeries ts(series);
  const auto [train, test] = ts.TrainTestSplit(0.8);
  auto model = ExponentialSmoothingModel::HoltWintersAdditive(12);
  ASSERT_TRUE(model->Fit(train).ok());
  const double error = Smape(test.ToVector(), model->Forecast(test.size()));
  EXPECT_LT(error, 0.03);
}

TEST(HoltWinters, MultiplicativeTracksMultiplicativeSeasonality) {
  Rng rng(3);
  std::vector<double> series(72);
  for (std::size_t t = 0; t < series.size(); ++t) {
    const double base = 50.0 + static_cast<double>(t);
    const double season =
        1.0 + 0.4 * std::sin(2.0 * M_PI * static_cast<double>(t) / 12.0);
    series[t] = base * season * (1.0 + rng.Gaussian(0.0, 0.01));
  }
  TimeSeries ts(series);
  const auto [train, test] = ts.TrainTestSplit(0.8);
  auto model = ExponentialSmoothingModel::HoltWintersMultiplicative(12);
  ASSERT_TRUE(model->Fit(train).ok());
  const double error = Smape(test.ToVector(), model->Forecast(test.size()));
  EXPECT_LT(error, 0.05);
}

TEST(HoltWinters, BeatsSesOnSeasonalData) {
  const auto series = SeasonalTrendSeries(60, 12, 1.0, 4);
  TimeSeries ts(series);
  const auto [train, test] = ts.TrainTestSplit(0.8);
  auto hw = ExponentialSmoothingModel::HoltWintersAdditive(12);
  auto ses = ExponentialSmoothingModel::Ses();
  ASSERT_TRUE(hw->Fit(train).ok());
  ASSERT_TRUE(ses->Fit(train).ok());
  EXPECT_LT(Smape(test.ToVector(), hw->Forecast(test.size())),
            Smape(test.ToVector(), ses->Forecast(test.size())));
}

TEST(HoltWinters, UpdateMatchesRefitRecursion) {
  // Feeding values one at a time through Update must advance the state the
  // same way the in-fit recursion would (same parameters).
  const auto series = SeasonalTrendSeries(48, 12, 0.0, 5);
  auto model = ExponentialSmoothingModel::HoltWintersAdditive(12);
  ASSERT_TRUE(model->Fit(TimeSeries(series)).ok());
  auto clone = model->Clone();

  const std::vector<double> predicted = model->Forecast(3);
  // Apply the actual next values; forecasts after the update must differ in
  // a consistent way (state advanced by exactly one step each).
  clone->Update(predicted[0]);
  const std::vector<double> after = clone->Forecast(2);
  EXPECT_NEAR(after[0], predicted[1], 1.0);
  EXPECT_NEAR(after[1], predicted[2], 1.0);
}

TEST(HoltWinters, RejectsTooShortSeries) {
  auto model = ExponentialSmoothingModel::HoltWintersAdditive(12);
  EXPECT_FALSE(model->Fit(TimeSeries(std::vector<double>(10, 1.0))).ok());
}

TEST(HoltWinters, RejectsPeriodOne) {
  EtsSpec spec;
  spec.trend = true;
  spec.seasonal = true;
  spec.period = 1;
  ExponentialSmoothingModel model(spec);
  EXPECT_FALSE(model.Fit(TimeSeries(std::vector<double>(30, 1.0))).ok());
}

TEST(Ets, TypeDerivedFromSpec) {
  EXPECT_EQ(ExponentialSmoothingModel::Ses()->type(), ModelType::kSes);
  EXPECT_EQ(ExponentialSmoothingModel::Holt()->type(), ModelType::kHolt);
  EXPECT_EQ(ExponentialSmoothingModel::HoltWintersAdditive(4)->type(),
            ModelType::kHoltWintersAdd);
  EXPECT_EQ(ExponentialSmoothingModel::HoltWintersMultiplicative(4)->type(),
            ModelType::kHoltWintersMul);
}

TEST(Ets, ParametersWithinBounds) {
  auto model = ExponentialSmoothingModel::HoltWintersAdditive(12);
  ASSERT_TRUE(
      model->Fit(TimeSeries(SeasonalTrendSeries(60, 12, 2.0, 6))).ok());
  for (double p : model->parameters()) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(Ets, FittedValuesLengthMatchesHistory) {
  auto model = ExponentialSmoothingModel::Ses();
  ASSERT_TRUE(
      model->Fit(TimeSeries(SeasonalTrendSeries(30, 12, 1.0, 7))).ok());
  EXPECT_EQ(model->FittedValues().size(), 30u);
}

TEST(Ets, CloneSharesFittedValuesAndDivergesOnUpdate) {
  auto model = ExponentialSmoothingModel::HoltWintersAdditive(12);
  ASSERT_TRUE(
      model->Fit(TimeSeries(SeasonalTrendSeries(60, 12, 1.0, 11))).ok());
  const std::vector<double> fitted = model->FittedValues();
  const std::vector<double> forecast = model->Forecast(12);
  const std::vector<double> state = model->SaveState();

  auto clone = model->Clone();
  EXPECT_EQ(clone->FittedValues(), fitted);  // bit-identical
  EXPECT_EQ(clone->Forecast(12), forecast);
  EXPECT_EQ(clone->residual_variance(), model->residual_variance());

  // Advancing the clone leaves the original untouched.
  clone->Update(500.0);
  clone->Update(-20.0);
  EXPECT_NE(clone->Forecast(12), forecast);
  EXPECT_EQ(model->Forecast(12), forecast);
  EXPECT_EQ(model->SaveState(), state);
  EXPECT_EQ(model->FittedValues(), fitted);
  // In-sample fitted values describe the fit, not later updates.
  EXPECT_EQ(clone->FittedValues(), fitted);

  // Refitting the clone replaces its fitted values only.
  ASSERT_TRUE(
      clone->Fit(TimeSeries(SeasonalTrendSeries(36, 12, 1.0, 12))).ok());
  EXPECT_EQ(clone->FittedValues().size(), 36u);
  EXPECT_EQ(model->FittedValues(), fitted);
  EXPECT_EQ(model->Forecast(12), forecast);
}

TEST(Ets, SaveRestoreRoundTrip) {
  auto model = ExponentialSmoothingModel::HoltWintersAdditive(6);
  ASSERT_TRUE(
      model->Fit(TimeSeries(SeasonalTrendSeries(48, 6, 0.5, 8))).ok());
  model->Update(123.0);
  const auto state = model->SaveState();

  auto restored = ExponentialSmoothingModel::Ses();  // spec overwritten
  ASSERT_TRUE(restored->RestoreState(state).ok());
  EXPECT_EQ(restored->Forecast(12), model->Forecast(12));
  EXPECT_EQ(restored->type(), model->type());
}

TEST(Ets, RestoreRejectsBadState) {
  auto model = ExponentialSmoothingModel::Ses();
  EXPECT_FALSE(model->RestoreState({1, 2, 3}).ok());
  // Seasonal flag set but season values missing.
  std::vector<double> bad{1, 0, 1, 0, 4, 0.5, 0.1, 0.1, 1.0, 0.0, 0.0};
  EXPECT_FALSE(model->RestoreState(bad).ok());
}

TEST(Ets, OptimizerVariantsAllFit) {
  const auto series = SeasonalTrendSeries(48, 12, 1.0, 9);
  for (EtsOptimizer optimizer :
       {EtsOptimizer::kNelderMead, EtsOptimizer::kHillClimb,
        EtsOptimizer::kSimulatedAnnealing}) {
    EtsSpec spec;
    spec.trend = true;
    spec.seasonal = true;
    spec.period = 12;
    ExponentialSmoothingModel model(spec, optimizer);
    ASSERT_TRUE(model.Fit(TimeSeries(series)).ok());
    const double error = Smape(series, model.FittedValues());
    EXPECT_LT(error, 0.1);
  }
}

}  // namespace
}  // namespace f2db
