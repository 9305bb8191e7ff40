// Self-tests of the correctness harness: the seeded generator is
// deterministic, the seed/budget plumbing behaves, the shrinker minimizes,
// and the reference oracle agrees with hand-computed ground truth on a
// cube small enough to check by eye.

#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "testing/differential.h"
#include "testing/oracle.h"
#include "testing/property.h"
#include "testing/replay_hint.h"
#include "testing/workload.h"
#include "ts/model_factory.h"

namespace f2db::testing {
namespace {

TEST(PropertyHarnessTest, SameSeedGeneratesIdenticalWorkloads) {
  const std::uint64_t base = PropertySeed();
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::uint64_t seed = SubSeed(base, "determinism-" + std::to_string(i));
    const WorkloadSpec a = GenerateWorkload(seed);
    const WorkloadSpec b = GenerateWorkload(seed);
    EXPECT_EQ(DescribeWorkload(a), DescribeWorkload(b)) << "seed " << seed;
  }
}

TEST(PropertyHarnessTest, SameSeedGeneratesIdenticalStorms) {
  const std::uint64_t seed = SubSeed(PropertySeed(), "storm-determinism");
  for (std::size_t shape = 0; shape < NumWorkloadShapes(); ++shape) {
    const WorkloadSpec a = GenerateQueryStorm(seed, shape, 200);
    const WorkloadSpec b = GenerateQueryStorm(seed, shape, 200);
    EXPECT_EQ(DescribeWorkload(a), DescribeWorkload(b)) << "shape " << shape;
  }
}

TEST(PropertyHarnessTest, DifferentSeedsGenerateDifferentWorkloads) {
  const std::uint64_t base = PropertySeed();
  const WorkloadSpec a = GenerateWorkload(SubSeed(base, "distinct-a"));
  const WorkloadSpec b = GenerateWorkload(SubSeed(base, "distinct-b"));
  EXPECT_NE(DescribeWorkload(a), DescribeWorkload(b));
}

TEST(PropertyHarnessTest, SubSeedDependsOnLabel) {
  EXPECT_NE(SubSeed(1, "alpha"), SubSeed(1, "beta"));
  EXPECT_EQ(SubSeed(1, "alpha"), SubSeed(1, "alpha"));
  EXPECT_NE(SubSeed(1, "alpha"), SubSeed(2, "alpha"));
}

TEST(PropertyHarnessTest, IterationBudgetScalesWithEnvironment) {
  unsetenv("F2DB_PROPERTY_ITERATIONS");
  EXPECT_EQ(PropertyIterations(3), 3u);
  setenv("F2DB_PROPERTY_ITERATIONS", "100", 1);
  EXPECT_EQ(PropertyBudgetMultiplier(), 100u);
  EXPECT_EQ(PropertyIterations(3), 300u);
  setenv("F2DB_PROPERTY_ITERATIONS", "garbage", 1);
  EXPECT_EQ(PropertyIterations(3), 3u);
  unsetenv("F2DB_PROPERTY_ITERATIONS");
}

TEST(PropertyHarnessTest, ReplayHintNamesTheSeedAndTheFilter) {
  const std::string hint = ReplayHint(12345);
  EXPECT_NE(hint.find("F2DB_PROPERTY_SEED=12345"), std::string::npos);
  EXPECT_NE(
      hint.find(
          "ctest -R '^PropertyHarnessTest.ReplayHintNamesTheSeedAndTheFilter$'"),
      std::string::npos)
      << hint;
}

TEST(PropertyHarnessTest, ReplayHintSeedRegeneratesTheFailingSpec) {
  // A failing test reports ReplayHint(base); replaying sets
  // F2DB_PROPERTY_SEED to the hinted seed, and the test re-derives its
  // per-test seed with the same label — it must land on the same spec.
  const std::uint64_t base = PropertySeed();
  const std::string label = "diff-2-0";
  const WorkloadSpec failing = GenerateWorkload(SubSeed(base, label), 2, false);
  const std::string hint = ReplayHint(base);
  const std::string key = "F2DB_PROPERTY_SEED=";
  const std::size_t at = hint.find(key);
  ASSERT_NE(at, std::string::npos) << hint;
  const std::string hinted =
      hint.substr(at + key.size(), hint.find(' ', at) - at - key.size());

  const char* previous = std::getenv("F2DB_PROPERTY_SEED");
  const std::string saved = previous == nullptr ? "" : previous;
  setenv("F2DB_PROPERTY_SEED", hinted.c_str(), 1);
  const std::uint64_t replayed = SubSeed(PropertySeed(), label);
  if (previous == nullptr) {
    unsetenv("F2DB_PROPERTY_SEED");
  } else {
    setenv("F2DB_PROPERTY_SEED", saved.c_str(), 1);
  }
  EXPECT_EQ(replayed, failing.seed) << hint;
  EXPECT_EQ(DescribeWorkload(GenerateWorkload(replayed, 2, false)),
            DescribeWorkload(failing));
}

TEST(PropertyHarnessTest, EveryShapeGeneratesConsistentSpecs) {
  const std::uint64_t base = PropertySeed();
  for (std::size_t shape = 0; shape < NumWorkloadShapes(); ++shape) {
    const WorkloadSpec spec = GenerateWorkload(
        SubSeed(base, "shape-" + std::to_string(shape)), shape,
        /*inject_refit_failures=*/false);
    EXPECT_EQ(spec.shape_index, shape);
    EXPECT_FALSE(spec.dims.empty());
    const ReferenceOracle oracle(spec.dims);
    EXPECT_EQ(spec.base_history.size(), oracle.num_base_cells());
    for (const auto& history : spec.base_history) {
      EXPECT_EQ(history.size(), spec.history_length);
    }
    EXPECT_FALSE(spec.models.empty());
    // Every address is covered by an explicit scheme (the engine's
    // nearest-model fallback fill must never kick in).
    EXPECT_EQ(spec.schemes.size(), oracle.AllAddresses().size());
    EXPECT_FALSE(spec.ops.empty());
  }
}

// --------------------------------------------------------------- shrinker

TEST(PropertyHarnessTest, ShrinkerMinimizesToTheSingleFailingOp) {
  WorkloadSpec spec =
      GenerateWorkload(SubSeed(PropertySeed(), "shrinker"), 0, false);
  // Synthetic predicate: the spec "fails" while it still contains at least
  // one behind-frontier insert op.
  const auto still_fails = [](const WorkloadSpec& candidate) {
    for (const WorkloadOp& op : candidate.ops) {
      if (op.kind == OpKind::kInsertBehind) return true;
    }
    return false;
  };
  WorkloadOp marker;
  marker.kind = OpKind::kInsertBehind;
  spec.ops.push_back(marker);  // guarantee the predicate holds
  const WorkloadSpec shrunk = ShrinkWorkload(spec, still_fails);
  ASSERT_EQ(shrunk.ops.size(), 1u);
  EXPECT_EQ(shrunk.ops[0].kind, OpKind::kInsertBehind);
}

TEST(PropertyHarnessTest, ShrinkerReturnsSpecUnchangedWhenItPasses) {
  const WorkloadSpec spec =
      GenerateWorkload(SubSeed(PropertySeed(), "shrink-pass"), 1, false);
  const WorkloadSpec shrunk =
      ShrinkWorkload(spec, [](const WorkloadSpec&) { return false; });
  EXPECT_EQ(DescribeWorkload(shrunk), DescribeWorkload(spec));
}

// ---------------------------------------------------------- oracle sanity

std::vector<OracleDimension> TwoCellDim() {
  OracleDimension dim;
  dim.name = "d";
  dim.level_names = {"city"};
  dim.values = {{"a", "b"}};
  return {dim};
}

TEST(PropertyHarnessTest, OracleAggregatesByFlatSum) {
  ReferenceOracle oracle(TwoCellDim());
  oracle.SetBaseSeries(0, {1.0, 2.0, 3.0});
  oracle.SetBaseSeries(1, {10.0, 20.0, 30.0});
  OracleAddress all;
  all.coords = {{1, 0}};  // ALL
  EXPECT_EQ(oracle.SeriesOf(all), (std::vector<double>{11.0, 22.0, 33.0}));
  EXPECT_DOUBLE_EQ(oracle.HistorySum(all), 66.0);
  OracleAddress cell_a = oracle.CellAddress(0);
  EXPECT_DOUBLE_EQ(oracle.Weight({all}, cell_a), 6.0 / 66.0);
}

TEST(PropertyHarnessTest, OracleInsertContractMatchesTheEngineContract) {
  ReferenceOracle oracle(TwoCellDim());
  oracle.SetBaseSeries(0, {1.0, 2.0});
  oracle.SetBaseSeries(1, {3.0, 4.0});
  EXPECT_EQ(oracle.frontier(), 2);
  EXPECT_EQ(oracle.Insert(0, 1, 5.0), OracleInsert::kBehindFrontier);
  EXPECT_EQ(oracle.Insert(0, 2, std::nan("")), OracleInsert::kNonFinite);
  EXPECT_EQ(oracle.Insert(7, 2, 5.0), OracleInsert::kUnknownCell);
  EXPECT_EQ(oracle.Insert(0, 2, 5.0), OracleInsert::kAccepted);
  EXPECT_EQ(oracle.Insert(0, 2, 6.0), OracleInsert::kDuplicate);
  EXPECT_EQ(oracle.pending_inserts(), 1u);
  EXPECT_EQ(oracle.advances(), 0u);
  EXPECT_EQ(oracle.Insert(1, 2, 6.0), OracleInsert::kAccepted);
  EXPECT_EQ(oracle.pending_inserts(), 0u);
  EXPECT_EQ(oracle.advances(), 1u);
  EXPECT_EQ(oracle.frontier(), 3);
}

TEST(PropertyHarnessTest, OracleForecastAppliesTheDerivationWeight) {
  ReferenceOracle oracle(TwoCellDim());
  oracle.SetBaseSeries(0, {1.0, 1.0, 1.0, 1.0});
  oracle.SetBaseSeries(1, {3.0, 3.0, 3.0, 3.0});
  OracleAddress all;
  all.coords = {{1, 0}};
  const OracleAddress cell_a = oracle.CellAddress(0);

  ModelSpec spec;
  spec.type = ModelType::kMean;
  ModelFactory factory(spec);
  auto model = factory.CreateAndFit(TimeSeries(oracle.SeriesOf(all)));
  ASSERT_TRUE(model.ok());
  oracle.SetModel(all, std::move(model).value());
  oracle.SetScheme(all, {all});
  oracle.SetScheme(cell_a, {all});

  // forecast(ALL) = mean = 4; weight(cell_a from ALL) = 4/16 = 0.25.
  const auto direct = oracle.Forecast(all, 2);
  ASSERT_TRUE(direct.has_value());
  EXPECT_DOUBLE_EQ((*direct)[0], 4.0);
  const auto derived = oracle.Forecast(cell_a, 2);
  ASSERT_TRUE(derived.has_value());
  EXPECT_DOUBLE_EQ((*derived)[0], 1.0);
  EXPECT_TRUE(oracle.FullFidelity(cell_a));

  // A scheme through a model-less node degrades fidelity but still derives.
  const OracleAddress cell_b = oracle.CellAddress(1);
  oracle.SetScheme(cell_b, {cell_a});
  EXPECT_FALSE(oracle.FullFidelity(cell_b));
  const auto chained = oracle.Forecast(cell_b, 1);
  ASSERT_TRUE(chained.has_value());
  EXPECT_DOUBLE_EQ((*chained)[0], 3.0);  // weight 12/4 * forecast 1
}

TEST(PropertyHarnessTest, OracleSmapeSkipsBothZeroTerms) {
  EXPECT_DOUBLE_EQ(ReferenceOracle::Smape({0.0, 1.0}, {0.0, 1.0}), 0.0);
  EXPECT_DOUBLE_EQ(ReferenceOracle::Smape({1.0}, {0.0}), 1.0);
  EXPECT_DOUBLE_EQ(ReferenceOracle::Smape({}, {}), 0.0);
}

}  // namespace
}  // namespace f2db::testing
