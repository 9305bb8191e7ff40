// Model contract sweep: every concrete model family must uphold the
// ForecastModel interface contract on every series shape — fit cleanly or
// fail with a Status (never crash), produce finite forecasts, survive
// serialization, clone independently, and keep variances monotone.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "ts/history_selection.h"
#include "ts/model_factory.h"

namespace f2db {
namespace {

enum class SeriesKind {
  kConstant,
  kTrend,
  kSeasonal,
  kNoisy,
  kShort,
  kTiny,
  kLargeScale,
};

const char* SeriesKindName(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kConstant:
      return "constant";
    case SeriesKind::kTrend:
      return "trend";
    case SeriesKind::kSeasonal:
      return "seasonal";
    case SeriesKind::kNoisy:
      return "noisy";
    case SeriesKind::kShort:
      return "short";
    case SeriesKind::kTiny:
      return "tiny";
    case SeriesKind::kLargeScale:
      return "largescale";
  }
  return "?";
}

TimeSeries MakeSeries(SeriesKind kind) {
  Rng rng(99);
  switch (kind) {
    case SeriesKind::kConstant:
      return TimeSeries(std::vector<double>(60, 7.5));
    case SeriesKind::kTrend: {
      std::vector<double> out(60);
      for (std::size_t t = 0; t < out.size(); ++t) {
        out[t] = 5.0 + 1.2 * static_cast<double>(t);
      }
      return TimeSeries(out);
    }
    case SeriesKind::kSeasonal: {
      std::vector<double> out(72);
      for (std::size_t t = 0; t < out.size(); ++t) {
        out[t] = 50.0 + 10.0 * std::sin(2.0 * M_PI * t / 12.0) +
                 rng.Gaussian(0.0, 0.5);
      }
      return TimeSeries(out);
    }
    case SeriesKind::kNoisy: {
      std::vector<double> out(60);
      for (double& v : out) v = 20.0 + rng.Gaussian(0.0, 8.0);
      return TimeSeries(out);
    }
    case SeriesKind::kShort:
      return TimeSeries({3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0});
    case SeriesKind::kTiny:
      return TimeSeries({1.0, 2.0});
    case SeriesKind::kLargeScale: {
      std::vector<double> out(60);
      for (std::size_t t = 0; t < out.size(); ++t) {
        out[t] = 1e9 + 1e7 * std::sin(2.0 * M_PI * t / 12.0) +
                 rng.Gaussian(0.0, 1e6);
      }
      return TimeSeries(out);
    }
  }
  return TimeSeries();
}

using ContractCase = std::tuple<ModelType, SeriesKind>;

class ModelContract : public ::testing::TestWithParam<ContractCase> {};

TEST_P(ModelContract, FitForecastSerializeCloneUpdate) {
  const auto [type, kind] = GetParam();
  ModelSpec spec;
  spec.type = type;
  spec.period = 12;
  if (type == ModelType::kArima) spec.arima = ArimaOrder{1, 0, 1, 0, 0, 0, 1};
  ModelFactory factory(spec);
  const TimeSeries series = MakeSeries(kind);

  auto fitted = factory.CreateAndFit(series);
  if (!fitted.ok()) {
    // Clean rejection is an acceptable contract outcome (short series etc.).
    EXPECT_FALSE(fitted.status().message().empty());
    return;
  }
  ForecastModel& model = *fitted.value();
  EXPECT_TRUE(model.is_fitted());

  // Forecasts are finite at several horizons.
  for (const std::size_t horizon : {1u, 7u, 30u}) {
    const auto f = model.Forecast(horizon);
    ASSERT_EQ(f.size(), horizon);
    for (double v : f) EXPECT_TRUE(std::isfinite(v)) << SeriesKindName(kind);
  }

  // Variances (when provided) are finite, non-negative, monotone.
  const auto var = model.ForecastVariance(12);
  if (!var.empty()) {
    ASSERT_EQ(var.size(), 12u);
    for (std::size_t h = 0; h < var.size(); ++h) {
      EXPECT_TRUE(std::isfinite(var[h]));
      EXPECT_GE(var[h], 0.0);
      if (h > 0) {
        EXPECT_GE(var[h] + 1e-9, var[h - 1]);
      }
    }
  }

  // Serialization round trip preserves forecasts.
  const std::string payload = ModelFactory::SerializeModel(model);
  auto restored = ModelFactory::DeserializeModel(payload);
  ASSERT_TRUE(restored.ok()) << payload.substr(0, 40);
  const auto f1 = model.Forecast(6);
  const auto f2 = restored.value()->Forecast(6);
  for (std::size_t h = 0; h < 6; ++h) {
    EXPECT_NEAR(f1[h], f2[h], 1e-6 * (1.0 + std::abs(f1[h])));
  }

  // Clones evolve independently.
  auto clone = model.Clone();
  model.Update(series[series.size() - 1] * 2.0 + 1.0);
  const auto clone_forecast = clone->Forecast(1);
  EXPECT_TRUE(std::isfinite(clone_forecast[0]));

  // Updates keep forecasts finite.
  for (int i = 0; i < 5; ++i) model.Update(series[i % series.size()]);
  for (double v : model.Forecast(4)) EXPECT_TRUE(std::isfinite(v));
}

// The parameter/state split: stepping a state kept outside the model must
// be exactly the model's own Update, so the engine's flat per-snapshot
// states, Clone()+Update and serialization all agree bit for bit.
TEST_P(ModelContract, ExternalStateMatchesCloneAndUpdate) {
  const auto [type, kind] = GetParam();
  ModelSpec spec;
  spec.type = type;
  spec.period = 12;
  if (type == ModelType::kArima) spec.arima = ArimaOrder{1, 0, 1, 0, 0, 0, 1};
  ModelFactory factory(spec);
  const TimeSeries series = MakeSeries(kind);
  auto fitted = factory.CreateAndFit(series);
  if (!fitted.ok()) return;  // clean rejection, covered above
  const ForecastModel& model = *fitted.value();

  const std::size_t state_size = model.state_size();
  ASSERT_GT(state_size, 0u);
  std::vector<double> state(state_size);
  model.CopyState(state);
  std::unique_ptr<ForecastModel> clone = model.Clone();
  Rng rng(7);
  for (int step = 0; step < 200; ++step) {
    const double y =
        series[static_cast<std::size_t>(step) % series.size()] *
        (1.0 + rng.Gaussian(0.0, 0.05));
    model.StepState(state, y);
    clone->Update(y);
    ASSERT_EQ(model.state_size(), state_size);
    ASSERT_EQ(clone->state_size(), state_size);
    const std::vector<double> external = model.Forecast(state, 5);
    const std::vector<double> own = clone->Forecast(5);
    ASSERT_EQ(external.size(), own.size());
    for (std::size_t h = 0; h < own.size(); ++h) {
      // Bit for bit, NaN included.
      ASSERT_EQ(std::memcmp(&external[h], &own[h], sizeof(double)), 0)
          << "step " << step << " h=" << h;
    }
    const std::vector<double> external_var = model.ForecastVariance(state, 5);
    const std::vector<double> own_var = clone->ForecastVariance(5);
    ASSERT_EQ(external_var.size(), own_var.size());
    for (std::size_t h = 0; h < own_var.size(); ++h) {
      ASSERT_EQ(std::memcmp(&external_var[h], &own_var[h], sizeof(double)),
                0)
          << "step " << step << " h=" << h;
    }
    ASSERT_EQ(ModelFactory::SerializeModel(model, state),
              ModelFactory::SerializeModel(*clone))
        << "step " << step;
  }
  // The model's own state never moved.
  ASSERT_EQ(model.state_size(), state_size);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamiliesAllShapes, ModelContract,
    ::testing::Combine(
        ::testing::Values(ModelType::kMean, ModelType::kNaive,
                          ModelType::kSeasonalNaive, ModelType::kDrift,
                          ModelType::kSes, ModelType::kHolt,
                          ModelType::kHoltWintersAdd,
                          ModelType::kHoltWintersMul, ModelType::kArima,
                          ModelType::kTheta),
        ::testing::Values(SeriesKind::kConstant, SeriesKind::kTrend,
                          SeriesKind::kSeasonal, SeriesKind::kNoisy,
                          SeriesKind::kShort, SeriesKind::kTiny,
                          SeriesKind::kLargeScale)),
    [](const auto& info) {
      return std::string(ModelTypeName(std::get<0>(info.param))) + "_" +
             SeriesKindName(std::get<1>(info.param));
    });

// ------------------------------------------------------- history selection

TEST(HistorySelection, PrefersRecentWindowAfterLevelShift) {
  // Level jumps at t = 60: training on the full history biases the mean
  // model badly, the recent window wins.
  std::vector<double> xs(120);
  Rng rng(5);
  for (std::size_t t = 0; t < xs.size(); ++t) {
    xs[t] = (t < 60 ? 10.0 : 100.0) + rng.Gaussian(0.0, 1.0);
  }
  ModelFactory factory(ModelSpec{ModelType::kMean, 1, {}});
  auto selection = SelectHistoryLength(TimeSeries(xs), factory);
  ASSERT_TRUE(selection.ok()) << selection.status().ToString();
  EXPECT_LE(selection.value().length, 60u);
  EXPECT_LT(selection.value().validation_smape, 0.1);
  EXPECT_GT(selection.value().candidates_tried, 1u);
}

TEST(HistorySelection, StationarySeriesKeepsLongWindow) {
  std::vector<double> xs(128);
  Rng rng(6);
  for (double& v : xs) v = 50.0 + rng.Gaussian(0.0, 2.0);
  ModelFactory factory(ModelSpec{ModelType::kMean, 1, {}});
  auto selection = SelectHistoryLength(TimeSeries(xs), factory);
  ASSERT_TRUE(selection.ok());
  // Longer windows average noise better; expect at least half the history.
  EXPECT_GE(selection.value().length, 64u);
}

TEST(HistorySelection, Validation) {
  ModelFactory factory(ModelSpec{ModelType::kMean, 1, {}});
  EXPECT_FALSE(
      SelectHistoryLength(TimeSeries({1, 2, 3}), factory).ok());
  HistorySelectionOptions bad;
  bad.validation_length = 0;
  EXPECT_FALSE(SelectHistoryLength(TimeSeries(std::vector<double>(100, 1.0)),
                                   factory, bad)
                   .ok());
}

TEST(HistorySelection, ExplicitCandidates) {
  std::vector<double> xs(100);
  Rng rng(7);
  for (double& v : xs) v = 10.0 + rng.Gaussian(0.0, 1.0);
  ModelFactory factory(ModelSpec{ModelType::kSes, 1, {}});
  HistorySelectionOptions options;
  options.candidate_lengths = {100, 40};
  auto selection = SelectHistoryLength(TimeSeries(xs), factory, options);
  ASSERT_TRUE(selection.ok());
  EXPECT_TRUE(selection.value().length == 100 ||
              selection.value().length == 40);
  EXPECT_EQ(selection.value().candidates_tried, 2u);
}

}  // namespace
}  // namespace f2db
