// Tests for seasonality detection, classical decomposition, Box-Cox, the
// Theta method, and automatic ARIMA order selection.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "data/sarima_generator.h"
#include "ts/accuracy.h"
#include "ts/auto_arima.h"
#include "ts/decomposition.h"
#include "ts/seasonality.h"
#include "ts/theta.h"

namespace f2db {
namespace {

TimeSeries SeasonalTrend(std::size_t n, std::size_t period, double amp,
                         double noise, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (std::size_t t = 0; t < n; ++t) {
    out[t] = 100.0 + 0.5 * static_cast<double>(t) +
             amp * std::sin(2.0 * M_PI * static_cast<double>(t) /
                            static_cast<double>(period)) +
             rng.Gaussian(0.0, noise);
  }
  return TimeSeries(out);
}

// ------------------------------------------------------------- seasonality

TEST(Seasonality, DetectsQuarterlyAndMonthly) {
  EXPECT_EQ(DetectSeasonality(SeasonalTrend(80, 4, 20, 0.5, 1)).period, 4u);
  EXPECT_EQ(DetectSeasonality(SeasonalTrend(144, 12, 20, 0.5, 2)).period,
            12u);
}

TEST(Seasonality, WhiteNoiseHasNoSeason) {
  Rng rng(3);
  std::vector<double> xs(200);
  for (double& v : xs) v = rng.NextGaussian();
  const auto result = DetectSeasonality(TimeSeries(xs));
  EXPECT_EQ(result.period, 1u);
  EXPECT_DOUBLE_EQ(result.strength, 0.0);
}

TEST(Seasonality, TrendAloneIsNotSeasonal) {
  std::vector<double> xs(120);
  for (std::size_t t = 0; t < xs.size(); ++t) xs[t] = static_cast<double>(t);
  EXPECT_EQ(DetectSeasonality(TimeSeries(xs)).period, 1u);
}

TEST(Seasonality, RespectsCandidateRestriction) {
  SeasonalityOptions options;
  options.candidates = {7};  // wrong period only
  const auto result =
      DetectSeasonality(SeasonalTrend(120, 12, 25, 0.1, 4), options);
  EXPECT_EQ(result.period, 1u);
}

TEST(Seasonality, ShortSeriesGraceful) {
  EXPECT_EQ(DetectSeasonality(TimeSeries({1, 2, 3})).period, 1u);
}

// ----------------------------------------------------------- decomposition

TEST(Decomposition, AdditiveRecomposesExactly) {
  const TimeSeries series = SeasonalTrend(96, 12, 15, 1.0, 5);
  auto d = Decompose(series, 12, DecompositionType::kAdditive);
  ASSERT_TRUE(d.ok());
  for (std::size_t t = 0; t < series.size(); ++t) {
    EXPECT_NEAR(d.value().trend[t] + d.value().seasonal[t] +
                    d.value().remainder[t],
                series[t], 1e-9);
  }
}

TEST(Decomposition, MultiplicativeRecomposesExactly) {
  Rng rng(6);
  std::vector<double> xs(96);
  for (std::size_t t = 0; t < xs.size(); ++t) {
    xs[t] = (50.0 + static_cast<double>(t)) *
            (1.0 + 0.3 * std::sin(2.0 * M_PI * t / 12.0)) *
            (1.0 + rng.Gaussian(0.0, 0.01));
  }
  auto d = Decompose(TimeSeries(xs), 12, DecompositionType::kMultiplicative);
  ASSERT_TRUE(d.ok());
  for (std::size_t t = 0; t < xs.size(); ++t) {
    EXPECT_NEAR(d.value().trend[t] * d.value().seasonal[t] *
                    d.value().remainder[t],
                xs[t], 1e-6);
  }
}

TEST(Decomposition, SeasonalIndicesNormalized) {
  const TimeSeries series = SeasonalTrend(96, 12, 15, 0.5, 7);
  auto d = Decompose(series, 12, DecompositionType::kAdditive);
  ASSERT_TRUE(d.ok());
  double sum = 0.0;
  for (std::size_t j = 0; j < 12; ++j) sum += d.value().seasonal[j];
  EXPECT_NEAR(sum, 0.0, 1e-9);
}

TEST(Decomposition, SeasonalIndicesTrackTheSine) {
  const TimeSeries series = SeasonalTrend(120, 12, 20, 0.2, 8);
  auto d = Decompose(series, 12, DecompositionType::kAdditive);
  ASSERT_TRUE(d.ok());
  // Peak of sin(2 pi t / 12) is at t = 3.
  double max_index = -1e9;
  std::size_t argmax = 0;
  for (std::size_t j = 0; j < 12; ++j) {
    if (d.value().seasonal[j] > max_index) {
      max_index = d.value().seasonal[j];
      argmax = j;
    }
  }
  EXPECT_EQ(argmax, 3u);
  EXPECT_NEAR(max_index, 20.0, 3.0);
}

TEST(Decomposition, Validation) {
  const TimeSeries series = SeasonalTrend(20, 12, 5, 0.1, 9);
  EXPECT_FALSE(Decompose(series, 1).ok());
  EXPECT_FALSE(Decompose(series, 12).ok());  // < 2 seasons
  TimeSeries negative({-1, 2, -3, 4, -1, 2, -3, 4, -1, 2, -3, 4});
  EXPECT_FALSE(
      Decompose(negative, 4, DecompositionType::kMultiplicative).ok());
}

// ----------------------------------------------------------------- box-cox

TEST(BoxCox, LambdaZeroIsLog) {
  auto transformed = BoxCox({1.0, std::exp(1.0)}, 0.0);
  ASSERT_TRUE(transformed.ok());
  EXPECT_NEAR(transformed.value()[0], 0.0, 1e-12);
  EXPECT_NEAR(transformed.value()[1], 1.0, 1e-12);
}

TEST(BoxCox, RoundTripsThroughInverse) {
  const std::vector<double> xs{0.5, 1.0, 10.0, 123.0};
  for (double lambda : {-1.0, -0.5, 0.0, 0.5, 1.0, 2.0}) {
    auto transformed = BoxCox(xs, lambda);
    ASSERT_TRUE(transformed.ok());
    const auto back = InverseBoxCox(transformed.value(), lambda);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_NEAR(back[i], xs[i], 1e-9) << "lambda " << lambda;
    }
  }
}

TEST(BoxCox, RejectsNonPositive) {
  EXPECT_FALSE(BoxCox({1.0, 0.0}, 0.5).ok());
  EXPECT_FALSE(BoxCox({-1.0}, 1.0).ok());
}

TEST(BoxCox, LambdaSelectionPrefersLogForMultiplicativeData) {
  Rng rng(10);
  std::vector<double> xs(120);
  for (std::size_t t = 0; t < xs.size(); ++t) {
    // Exponential growth with proportional seasonality: log stabilizes it.
    xs[t] = std::exp(0.03 * static_cast<double>(t)) *
            (1.0 + 0.3 * std::sin(2.0 * M_PI * t / 12.0)) *
            (1.0 + rng.Gaussian(0.0, 0.02));
  }
  auto lambda = SelectBoxCoxLambda(xs, 12);
  ASSERT_TRUE(lambda.ok());
  EXPECT_LE(lambda.value(), 0.5);  // strongly sub-linear transform
}

// ------------------------------------------------------------------- theta

TEST(Theta, BeatsNaiveOnTrendedData) {
  const TimeSeries series = SeasonalTrend(80, 12, 0.0, 1.0, 11);
  const auto [train, test] = series.TrainTestSplit(0.8);
  ThetaModel theta(1);
  ASSERT_TRUE(theta.Fit(train).ok());
  const double theta_err = Smape(test.ToVector(), theta.Forecast(test.size()));
  const double naive_err =
      Smape(test.ToVector(),
            std::vector<double>(test.size(), train.values().back()));
  EXPECT_LT(theta_err, naive_err);
}

TEST(Theta, DeseasonalizesWhenPeriodGiven) {
  const TimeSeries series = SeasonalTrend(96, 12, 20, 0.5, 12);
  const auto [train, test] = series.TrainTestSplit(0.8);
  ThetaModel seasonal(12);
  ThetaModel plain(1);
  ASSERT_TRUE(seasonal.Fit(train).ok());
  ASSERT_TRUE(plain.Fit(train).ok());
  EXPECT_LT(Smape(test.ToVector(), seasonal.Forecast(test.size())),
            Smape(test.ToVector(), plain.Forecast(test.size())));
}

TEST(Theta, DriftIsHalfTheSlope) {
  std::vector<double> xs(50);
  for (std::size_t t = 0; t < xs.size(); ++t) {
    xs[t] = 10.0 + 2.0 * static_cast<double>(t);
  }
  ThetaModel theta(1);
  ASSERT_TRUE(theta.Fit(TimeSeries(xs)).ok());
  EXPECT_NEAR(theta.drift(), 1.0, 1e-9);
}

TEST(Theta, SaveRestoreRoundTrip) {
  const TimeSeries series = SeasonalTrend(96, 12, 20, 0.5, 13);
  ThetaModel model(12);
  ASSERT_TRUE(model.Fit(series).ok());
  model.Update(140.0);
  const auto state = model.SaveState();
  ThetaModel restored(1);
  ASSERT_TRUE(restored.RestoreState(state).ok());
  EXPECT_EQ(restored.Forecast(13), model.Forecast(13));
  restored.Update(150.0);
  model.Update(150.0);
  EXPECT_EQ(restored.Forecast(1), model.Forecast(1));
}

TEST(Theta, RejectsTinySeriesAndBadState) {
  ThetaModel model(1);
  EXPECT_FALSE(model.Fit(TimeSeries({1, 2, 3})).ok());
  EXPECT_FALSE(model.RestoreState({1, 2, 3}).ok());
}

// -------------------------------------------------------------- auto arima

TEST(AutoArima, SelectsDifferencingForRandomWalk) {
  Rng rng(14);
  std::vector<double> xs(300);
  double level = 0.0;
  for (double& v : xs) {
    level += 1.0 + rng.Gaussian(0.0, 0.5);
    v = level;
  }
  EXPECT_GE(SelectDifferencingOrder(xs, 2), 1u);
  // Stationary noise needs none.
  std::vector<double> noise(300);
  for (double& v : noise) v = rng.NextGaussian();
  EXPECT_EQ(SelectDifferencingOrder(noise, 2), 0u);
}

TEST(AutoArima, SeasonalDifferencingForStrongSeason) {
  SarimaProcess process;
  process.order.sd = 1;
  process.order.season = 12;
  process.noise_stddev = 0.2;
  Rng rng(15);
  const TimeSeries series = SimulateSarima(process, 240, rng);
  EXPECT_EQ(SelectSeasonalDifferencing(series.ToVector(), 12, 1), 1u);
  std::vector<double> noise(240);
  for (double& v : noise) v = rng.NextGaussian();
  EXPECT_EQ(SelectSeasonalDifferencing(noise, 12, 1), 0u);
}

TEST(AutoArima, RecoversLowOrderForAr1) {
  Rng rng(16);
  std::vector<double> xs(600);
  double prev = 0.0;
  for (double& v : xs) {
    prev = 0.7 * prev + rng.NextGaussian();
    v = prev + 50.0;
  }
  AutoArimaOptions options;
  options.max_p = 2;
  options.max_q = 2;
  auto result = AutoArima(TimeSeries(xs), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().models_tried, 1u);
  EXPECT_EQ(result.value().order.d, 0u);
  // AR(1)-ish structure: small total order, includes AR or MA terms.
  EXPECT_LE(result.value().order.p + result.value().order.q, 3u);
  EXPECT_GE(result.value().order.p + result.value().order.q, 1u);
}

TEST(AutoArima, ForecastsSarimaBetterThanNaive) {
  SarimaProcess process;
  process.order.p = 1;
  process.order.sd = 1;
  process.order.season = 12;
  process.phi = {0.4};
  process.noise_stddev = 0.5;
  process.level_offset = 200.0;
  Rng rng(17);
  const TimeSeries series = SimulateSarima(process, 200, rng);
  const auto [train, test] = series.TrainTestSplit(0.9);

  AutoArimaOptions options;
  options.season = 12;
  options.max_p = 2;
  options.max_q = 1;
  auto result = AutoArima(train, options);
  ASSERT_TRUE(result.ok());
  const double model_err =
      Smape(test.ToVector(), result.value().model->Forecast(test.size()));
  const double naive_err = Smape(
      test.ToVector(), std::vector<double>(test.size(), train.values().back()));
  EXPECT_LT(model_err, naive_err);
}

TEST(AutoArima, RejectsShortSeries) {
  EXPECT_FALSE(AutoArima(TimeSeries(std::vector<double>(8, 1.0))).ok());
}

}  // namespace
}  // namespace f2db
