#include "testing/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/rng.h"

namespace f2db::testing {

std::string RenderDouble(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

namespace {

/// "d<d>l<l>v<j>" — globally unique value names so a rendered SQL
/// statement is unambiguous in any shape.
std::vector<std::string> ValueNames(std::size_t dim, std::size_t level,
                                    std::size_t count) {
  std::vector<std::string> names;
  names.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    names.push_back("d" + std::to_string(dim) + "l" + std::to_string(level) +
                    "v" + std::to_string(j));
  }
  return names;
}

OracleDimension FlatDim(std::size_t dim, std::size_t count) {
  OracleDimension out;
  out.name = "dim" + std::to_string(dim);
  out.level_names = {"d" + std::to_string(dim) + "l0"};
  out.values = {ValueNames(dim, 0, count)};
  out.parents = {};
  return out;
}

/// Two declared levels: `base` values rolling up block-wise into `groups`.
OracleDimension TwoLevelDim(std::size_t dim, std::size_t base,
                            std::size_t groups) {
  OracleDimension out;
  out.name = "dim" + std::to_string(dim);
  out.level_names = {"d" + std::to_string(dim) + "l0",
                     "d" + std::to_string(dim) + "l1"};
  out.values = {ValueNames(dim, 0, base), ValueNames(dim, 1, groups)};
  std::vector<std::size_t> parents(base);
  const std::size_t block = (base + groups - 1) / groups;
  for (std::size_t v = 0; v < base; ++v) {
    parents[v] = std::min(v / block, groups - 1);
  }
  out.parents = {std::move(parents)};
  return out;
}

/// Series regimes the base histories are drawn from. `tiny` keeps values
/// in the 1e-5 range so rendered SQL inserts use exponent notation — the
/// regime that originally exposed the number-lexer divergence.
enum class Regime { kConstant, kTrend, kSeasonal, kWalk, kSpiky, kTiny };
constexpr std::size_t kNumRegimes = 6;

/// Typical magnitude of a regime, used to draw later insert values in the
/// same range as the stored history.
double RegimeMagnitude(Regime regime, Rng& rng) {
  switch (regime) {
    case Regime::kTiny:
      return rng.Uniform(2e-5, 9e-5);
    default:
      return rng.Uniform(15.0, 80.0);
  }
}

std::vector<double> GenerateSeries(Regime regime, double magnitude,
                                   std::size_t n, Rng& rng) {
  std::vector<double> out;
  out.reserve(n);
  switch (regime) {
    case Regime::kConstant: {
      for (std::size_t t = 0; t < n; ++t) {
        out.push_back(std::max(1e-3, magnitude + rng.Gaussian(0.0, 0.8)));
      }
      break;
    }
    case Regime::kTrend: {
      const double slope = rng.Uniform(0.2, 1.5);
      for (std::size_t t = 0; t < n; ++t) {
        out.push_back(magnitude + slope * static_cast<double>(t) +
                      rng.Gaussian(0.0, 0.5));
      }
      break;
    }
    case Regime::kSeasonal: {
      const double amplitude = rng.Uniform(0.1, 0.3) * magnitude;
      const double phase = rng.Uniform(0.0, 6.28318);
      for (std::size_t t = 0; t < n; ++t) {
        out.push_back(magnitude +
                      amplitude *
                          std::sin(6.28318 * static_cast<double>(t) / 4.0 +
                                   phase) +
                      rng.Gaussian(0.0, 0.5));
      }
      break;
    }
    case Regime::kWalk: {
      double level = magnitude;
      for (std::size_t t = 0; t < n; ++t) {
        level = std::max(5.0, level + rng.Gaussian(0.0, 1.5));
        out.push_back(level);
      }
      break;
    }
    case Regime::kSpiky: {
      for (std::size_t t = 0; t < n; ++t) {
        double value = magnitude + rng.Gaussian(0.0, 0.5);
        if (rng.NextBernoulli(0.1)) value += rng.Uniform(20.0, 80.0);
        out.push_back(value);
      }
      break;
    }
    case Regime::kTiny: {
      for (std::size_t t = 0; t < n; ++t) {
        out.push_back(std::max(1e-6, magnitude + rng.Gaussian(0.0, 5e-6)));
      }
      break;
    }
  }
  return out;
}

/// A fresh value for later insertion into a cell of the given magnitude.
double DrawInsertValue(double magnitude, Rng& rng) {
  return std::max(magnitude * 1e-2, magnitude * rng.Uniform(0.5, 1.5));
}

constexpr ModelType kModelPalette[] = {
    ModelType::kMean, ModelType::kDrift, ModelType::kSes, ModelType::kHolt,
    ModelType::kHoltWintersAdd,
};

/// Samples `count` distinct indices in [0, size).
std::vector<std::size_t> SampleDistinct(std::size_t size, std::size_t count,
                                        Rng& rng) {
  std::vector<std::size_t> all(size);
  for (std::size_t i = 0; i < size; ++i) all[i] = i;
  for (std::size_t i = 0; i + 1 < size && i < count; ++i) {
    const std::size_t j = static_cast<std::size_t>(
        rng.UniformInt(static_cast<std::int64_t>(i),
                       static_cast<std::int64_t>(size - 1)));
    std::swap(all[i], all[j]);
  }
  all.resize(std::min(count, size));
  return all;
}

/// Builds the model placement + full scheme cover for one cube.
void GenerateConfiguration(const std::vector<OracleAddress>& addresses,
                           bool inject_refit_failures, Rng& rng,
                           WorkloadSpec* spec) {
  const std::size_t num_models = static_cast<std::size_t>(
      rng.UniformInt(1, std::min<std::int64_t>(
                            4, static_cast<std::int64_t>(addresses.size()))));
  const std::vector<std::size_t> model_indices =
      SampleDistinct(addresses.size(), num_models, rng);
  std::vector<bool> has_model(addresses.size(), false);
  for (const std::size_t i : model_indices) {
    ModelPlacement placement;
    placement.node = addresses[i];
    placement.type =
        kModelPalette[rng.UniformInt(0, std::size(kModelPalette) - 1)];
    placement.period = placement.type == ModelType::kHoltWintersAdd ? 4 : 1;
    spec->models.push_back(std::move(placement));
    has_model[i] = true;
  }

  // Every address gets an explicit scheme. Model nodes forecast directly;
  // model-less nodes derive from 1-3 model nodes (rank 1). In value mode a
  // few rank-1 nodes are then promoted to derive from OTHER rank-1 nodes
  // (rank 2), which exercises the engine's derived-fallback rung with a
  // statically bounded recursion depth.
  std::vector<std::size_t> rank1;
  std::vector<std::size_t> promoted;
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    if (has_model[i]) continue;
    if (!inject_refit_failures && rng.NextBernoulli(0.2)) {
      promoted.push_back(i);
    } else {
      rank1.push_back(i);
    }
  }
  if (rank1.empty()) {
    rank1 = std::move(promoted);
    promoted.clear();
  }

  const auto sample_sources = [&](const std::vector<std::size_t>& pool,
                                  std::size_t max_count) {
    const std::size_t count = static_cast<std::size_t>(rng.UniformInt(
        1, static_cast<std::int64_t>(std::min(max_count, pool.size()))));
    std::vector<OracleAddress> sources;
    for (const std::size_t j : SampleDistinct(pool.size(), count, rng)) {
      sources.push_back(addresses[pool[j]]);
    }
    return sources;
  };

  std::vector<std::size_t> model_pool;
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    if (has_model[i]) model_pool.push_back(i);
  }
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    SchemeChoice choice;
    choice.target = addresses[i];
    if (has_model[i]) {
      choice.sources = {addresses[i]};
    } else if (std::find(promoted.begin(), promoted.end(), i) !=
               promoted.end()) {
      choice.sources = sample_sources(rank1, 2);
    } else {
      choice.sources = sample_sources(model_pool, 3);
    }
    spec->schemes.push_back(std::move(choice));
  }
}

void GenerateHistories(std::size_t num_cells, std::size_t n, Rng& rng,
                       WorkloadSpec* spec,
                       std::vector<double>* cell_magnitude) {
  spec->base_history.resize(num_cells);
  cell_magnitude->resize(num_cells);
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    const auto regime = static_cast<Regime>(
        rng.UniformInt(0, static_cast<std::int64_t>(kNumRegimes) - 1));
    const double magnitude = RegimeMagnitude(regime, rng);
    (*cell_magnitude)[cell] = magnitude;
    spec->base_history[cell] = GenerateSeries(regime, magnitude, n, rng);
  }
}

void GenerateOps(std::size_t num_addresses, std::size_t num_cells,
                 const std::vector<double>& cell_magnitude, std::size_t count,
                 Rng& rng, WorkloadSpec* spec) {
  const auto random_cell = [&] {
    return static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(num_cells) - 1));
  };
  for (std::size_t i = 0; i < count; ++i) {
    WorkloadOp op;
    const double roll = rng.NextDouble();
    if (roll < 0.55) {
      op.kind = OpKind::kQuery;
      op.address_index = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(num_addresses) - 1));
      op.horizon = static_cast<std::size_t>(rng.UniformInt(1, 6));
      op.parameterize_filter = rng.NextBernoulli(0.5);
    } else if (roll < 0.80) {
      op.kind = OpKind::kInsertRound;
      op.round_values.resize(num_cells);
      op.insert_order.resize(num_cells);
      for (std::size_t cell = 0; cell < num_cells; ++cell) {
        op.round_values[cell] = DrawInsertValue(cell_magnitude[cell], rng);
        op.insert_order[cell] = cell;
      }
      for (std::size_t a = num_cells; a-- > 1;) {
        const std::size_t b = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(a)));
        std::swap(op.insert_order[a], op.insert_order[b]);
      }
    } else if (roll < 0.88) {
      op.kind = OpKind::kInsertPartial;
      op.cell = random_cell();
      op.value = DrawInsertValue(cell_magnitude[op.cell], rng);
    } else if (roll < 0.93) {
      op.kind = OpKind::kInsertBehind;
      op.cell = random_cell();
      op.value = DrawInsertValue(cell_magnitude[op.cell], rng);
    } else if (roll < 0.97) {
      op.kind = OpKind::kInsertNonFinite;
      op.cell = random_cell();
      op.value = std::numeric_limits<double>::quiet_NaN();
    } else {
      op.kind = OpKind::kInsertInjectedFault;
      op.cell = random_cell();
      op.value = DrawInsertValue(cell_magnitude[op.cell], rng);
    }
    spec->ops.push_back(std::move(op));
  }
}

WorkloadSpec GenerateOnShape(std::uint64_t seed, std::size_t shape_index,
                             bool inject_refit_failures, Rng rng) {
  WorkloadSpec spec;
  spec.seed = seed;
  spec.shape_index = shape_index % NumWorkloadShapes();
  spec.dims = WorkloadShape(spec.shape_index, &spec.shape_name);
  spec.inject_refit_failures = inject_refit_failures;
  if (inject_refit_failures) {
    spec.reestimate_after_updates =
        static_cast<std::size_t>(rng.UniformInt(1, 3));
  }
  spec.history_length = static_cast<std::size_t>(rng.UniformInt(24, 36));

  const ReferenceOracle shape_probe(spec.dims);
  const std::size_t num_cells = shape_probe.num_base_cells();
  const std::vector<OracleAddress> addresses = shape_probe.AllAddresses();

  std::vector<double> cell_magnitude;
  GenerateHistories(num_cells, spec.history_length, rng, &spec,
                    &cell_magnitude);
  GenerateConfiguration(addresses, inject_refit_failures, rng, &spec);
  const std::size_t op_count =
      static_cast<std::size_t>(rng.UniformInt(12, 24));
  GenerateOps(addresses.size(), num_cells, cell_magnitude, op_count, rng,
              &spec);
  return spec;
}

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kQuery:
      return "QUERY";
    case OpKind::kInsertRound:
      return "INSERT_ROUND";
    case OpKind::kInsertPartial:
      return "INSERT_PARTIAL";
    case OpKind::kInsertBehind:
      return "INSERT_BEHIND";
    case OpKind::kInsertNonFinite:
      return "INSERT_NON_FINITE";
    case OpKind::kInsertInjectedFault:
      return "INSERT_INJECTED_FAULT";
  }
  return "UNKNOWN";
}

std::size_t NumWorkloadShapes() { return 6; }

std::vector<OracleDimension> WorkloadShape(std::size_t index,
                                           std::string* name) {
  std::vector<OracleDimension> dims;
  std::string shape_name;
  switch (index % NumWorkloadShapes()) {
    case 0:
      shape_name = "flat4";
      dims = {FlatDim(0, 4)};
      break;
    case 1:
      shape_name = "chain6to2";
      dims = {TwoLevelDim(0, 6, 2)};
      break;
    case 2:
      shape_name = "grid2x3";
      dims = {FlatDim(0, 2), FlatDim(1, 3)};
      break;
    case 3:
      shape_name = "region4x2-product2";
      dims = {TwoLevelDim(0, 4, 2), FlatDim(1, 2)};
      break;
    case 4:
      shape_name = "cube2x2x2";
      dims = {FlatDim(0, 2), FlatDim(1, 2), FlatDim(2, 2)};
      break;
    default:
      shape_name = "asym6to2x3";
      dims = {TwoLevelDim(0, 6, 2), FlatDim(1, 3)};
      break;
  }
  if (name != nullptr) *name = shape_name;
  return dims;
}

WorkloadSpec GenerateWorkload(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t shape_index = static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(NumWorkloadShapes()) - 1));
  const bool inject = rng.NextBernoulli(0.25);
  return GenerateOnShape(seed, shape_index, inject, std::move(rng));
}

WorkloadSpec GenerateWorkload(std::uint64_t seed, std::size_t shape_index,
                              bool inject_refit_failures) {
  Rng rng(seed);
  return GenerateOnShape(seed, shape_index, inject_refit_failures,
                         std::move(rng));
}

WorkloadSpec GenerateScatterGatherWorkload(std::uint64_t seed,
                                           std::size_t shape_index,
                                           bool inject_refit_failures) {
  Rng rng(seed);
  WorkloadSpec spec;
  spec.seed = seed;
  spec.shape_index = shape_index % NumWorkloadShapes();
  spec.dims = WorkloadShape(spec.shape_index, &spec.shape_name);
  spec.shape_name += "-scatter";
  spec.inject_refit_failures = inject_refit_failures;
  if (inject_refit_failures) {
    spec.reestimate_after_updates =
        static_cast<std::size_t>(rng.UniformInt(1, 3));
  }
  spec.history_length = static_cast<std::size_t>(rng.UniformInt(24, 36));

  const ReferenceOracle shape_probe(spec.dims);
  const std::size_t num_cells = shape_probe.num_base_cells();
  const std::vector<OracleAddress> addresses = shape_probe.AllAddresses();

  std::vector<double> cell_magnitude;
  GenerateHistories(num_cells, spec.history_length, rng, &spec,
                    &cell_magnitude);

  // One model per base cell: any partitioning of the base cells leaves
  // every shard with its own models.
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    ModelPlacement placement;
    placement.node = shape_probe.CellAddress(cell);
    placement.type =
        kModelPalette[rng.UniformInt(0, std::size(kModelPalette) - 1)];
    placement.period = placement.type == ModelType::kHoltWintersAdd ? 4 : 1;
    spec.models.push_back(std::move(placement));
  }

  // Covering schemes: every address derives from ALL base cells it rolls
  // up, so the derivation weight is exactly 1 and the scheme restricts to
  // any shard without changing the summed answer.
  for (const OracleAddress& address : addresses) {
    SchemeChoice choice;
    choice.target = address;
    for (std::size_t cell = 0; cell < num_cells; ++cell) {
      if (shape_probe.Covers(address, cell)) {
        choice.sources.push_back(shape_probe.CellAddress(cell));
      }
    }
    spec.schemes.push_back(std::move(choice));
  }

  // Frontier-aligned op mix: queries dominate (that is what scatter-gather
  // exercises); inserts are complete rounds or always-rejected probes.
  const std::size_t op_count =
      static_cast<std::size_t>(rng.UniformInt(14, 26));
  const auto random_cell = [&] {
    return static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(num_cells) - 1));
  };
  for (std::size_t i = 0; i < op_count; ++i) {
    WorkloadOp op;
    const double roll = rng.NextDouble();
    if (roll < 0.60) {
      op.kind = OpKind::kQuery;
      op.address_index = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(addresses.size()) - 1));
      op.horizon = static_cast<std::size_t>(rng.UniformInt(1, 6));
      op.parameterize_filter = rng.NextBernoulli(0.5);
    } else if (roll < 0.85) {
      op.kind = OpKind::kInsertRound;
      op.round_values.resize(num_cells);
      op.insert_order.resize(num_cells);
      for (std::size_t cell = 0; cell < num_cells; ++cell) {
        op.round_values[cell] = DrawInsertValue(cell_magnitude[cell], rng);
        op.insert_order[cell] = cell;
      }
      for (std::size_t a = num_cells; a-- > 1;) {
        const std::size_t b = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(a)));
        std::swap(op.insert_order[a], op.insert_order[b]);
      }
    } else if (roll < 0.93) {
      op.kind = OpKind::kInsertBehind;
      op.cell = random_cell();
      op.value = DrawInsertValue(cell_magnitude[op.cell], rng);
    } else {
      op.kind = OpKind::kInsertNonFinite;
      op.cell = random_cell();
      op.value = std::numeric_limits<double>::quiet_NaN();
    }
    spec.ops.push_back(std::move(op));
  }
  return spec;
}

WorkloadSpec GenerateQueryStorm(std::uint64_t seed, std::size_t shape_index,
                                std::size_t num_queries) {
  Rng rng(seed);
  WorkloadSpec spec = GenerateOnShape(seed, shape_index,
                                      /*inject_refit_failures=*/false, rng);
  spec.ops.clear();
  const ReferenceOracle shape_probe(spec.dims);
  const std::size_t num_cells = shape_probe.num_base_cells();
  const std::size_t num_addresses = shape_probe.AllAddresses().size();
  std::vector<double> cell_magnitude(num_cells);
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    cell_magnitude[cell] = spec.base_history[cell].back();
  }
  std::size_t queries = 0;
  while (queries < num_queries) {
    if (queries > 0 && queries % 1000 == 0) {
      // Interleave an occasional complete round so weights and model
      // states keep moving under the query volume.
      WorkloadOp round;
      round.kind = OpKind::kInsertRound;
      round.round_values.resize(num_cells);
      round.insert_order.resize(num_cells);
      for (std::size_t cell = 0; cell < num_cells; ++cell) {
        round.round_values[cell] = DrawInsertValue(cell_magnitude[cell], rng);
        round.insert_order[cell] = cell;
      }
      spec.ops.push_back(std::move(round));
    }
    WorkloadOp op;
    op.kind = OpKind::kQuery;
    op.address_index = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(num_addresses) - 1));
    op.horizon = static_cast<std::size_t>(rng.UniformInt(1, 6));
    op.parameterize_filter = rng.NextBernoulli(0.5);
    spec.ops.push_back(std::move(op));
    ++queries;
  }
  return spec;
}

std::string DescribeOp(const WorkloadOp& op) {
  std::string out = OpKindName(op.kind);
  switch (op.kind) {
    case OpKind::kQuery:
      out += " addr=" + std::to_string(op.address_index) +
             " h=" + std::to_string(op.horizon) +
             " pf=" + (op.parameterize_filter ? "1" : "0");
      break;
    case OpKind::kInsertRound: {
      out += " values=[";
      for (std::size_t i = 0; i < op.round_values.size(); ++i) {
        if (i > 0) out += ",";
        out += RenderDouble(op.round_values[i]);
      }
      out += "] order=[";
      for (std::size_t i = 0; i < op.insert_order.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(op.insert_order[i]);
      }
      out += "]";
      break;
    }
    default:
      out += " cell=" + std::to_string(op.cell) +
             " value=" + RenderDouble(op.value);
      break;
  }
  return out;
}

std::string DescribeWorkload(const WorkloadSpec& spec) {
  std::ostringstream out;
  out << "workload seed=" << spec.seed << " shape=" << spec.shape_name
      << " n=" << spec.history_length
      << " cells=" << spec.base_history.size()
      << " faults=" << (spec.inject_refit_failures ? 1 : 0)
      << " reestimate_after=" << spec.reestimate_after_updates << "\n";
  for (const ModelPlacement& placement : spec.models) {
    out << "model " << placement.node.Key() << " "
        << ModelTypeName(placement.type) << " period=" << placement.period
        << "\n";
  }
  for (const SchemeChoice& choice : spec.schemes) {
    out << "scheme " << choice.target.Key() << " <-";
    for (const OracleAddress& source : choice.sources) {
      out << " " << source.Key();
    }
    out << "\n";
  }
  for (std::size_t cell = 0; cell < spec.base_history.size(); ++cell) {
    out << "history cell=" << cell << " [";
    for (std::size_t t = 0; t < spec.base_history[cell].size(); ++t) {
      if (t > 0) out << ",";
      out << RenderDouble(spec.base_history[cell][t]);
    }
    out << "]\n";
  }
  for (std::size_t i = 0; i < spec.ops.size(); ++i) {
    out << "op[" << i << "] " << DescribeOp(spec.ops[i]) << "\n";
  }
  return out.str();
}

}  // namespace f2db::testing
