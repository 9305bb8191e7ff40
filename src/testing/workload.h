// Seeded workload generation for the differential correctness harness.
//
// A WorkloadSpec is a fully deterministic function of a 64-bit seed: the
// cube shape, the base histories (drawn from a palette of series regimes),
// the model placement and derivation schemes, and an interleaved op list of
// forecast queries and maintenance inserts (complete rounds, partial
// batches, rejected inserts, fault-injected inserts). The same seed always
// generates the same spec, so any differential failure replays from the
// base seed its replay hint names (see testing/property.h).
//
// Spec values are generated once and stored; only execution-time facts
// (insert time stamps, which track the cube frontier) are recomputed while
// the workload runs, so dropping ops during shrinking keeps the remaining
// ops meaningful.

#ifndef F2DB_TESTING_WORKLOAD_H_
#define F2DB_TESTING_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "testing/oracle.h"
#include "ts/model.h"

namespace f2db::testing {

/// One step of a generated workload.
enum class OpKind {
  /// Forecast query on one address with a generated horizon.
  kQuery,
  /// One new value per base cell at the current frontier, inserted in a
  /// generated permutation; completes a period and advances the cube.
  kInsertRound,
  /// A single buffered value for one cell at the current frontier (leaves
  /// the batch incomplete on multi-cell cubes).
  kInsertPartial,
  /// An insert behind the stored frontier — must be rejected identically
  /// by every executor.
  kInsertBehind,
  /// An insert with a NaN measure value — must be rejected identically.
  kInsertNonFinite,
  /// An insert issued while the engine.insert failpoint is armed — both
  /// engines must fail it with kUnavailable; the oracle never sees it.
  kInsertInjectedFault,
};

/// Stable display name ("QUERY", "INSERT_ROUND", ...).
const char* OpKindName(OpKind kind);

struct WorkloadOp {
  OpKind kind = OpKind::kQuery;
  /// kQuery: index into ReferenceOracle::AllAddresses().
  std::size_t address_index = 0;
  /// kQuery: forecast horizon.
  std::size_t horizon = 1;
  /// kQuery, prepared shadow mode only: also turn the LAST filter
  /// predicate into a `?` bind slot (the horizon is always one), so the
  /// generated mix covers both slot kinds. Seed-derived like every other
  /// spec value.
  bool parameterize_filter = false;
  /// kInsertRound: one value per base cell (cell order).
  std::vector<double> round_values;
  /// kInsertRound: the order the cells are inserted in (a permutation).
  std::vector<std::size_t> insert_order;
  /// Single-cell insert ops: the target cell and value.
  std::size_t cell = 0;
  double value = 0.0;
};

/// A model placed at one address, from the deterministic-update families
/// only (kMean, kDrift, kSes, kHolt, kHoltWintersAdd) — ARIMA/Auto are
/// exercised by the math property suite, not the differential driver.
struct ModelPlacement {
  OracleAddress node;
  ModelType type = ModelType::kMean;
  std::size_t period = 1;
};

/// The derivation scheme of one address. Every address of the cube gets
/// an explicit scheme so the engine's nearest-model fallback fill never
/// kicks in (the oracle mirrors the explicit schemes only).
struct SchemeChoice {
  OracleAddress target;
  std::vector<OracleAddress> sources;
};

/// A fully generated, self-contained workload.
struct WorkloadSpec {
  std::uint64_t seed = 0;
  std::size_t shape_index = 0;
  std::string shape_name;
  std::vector<OracleDimension> dims;
  /// Stored history length n at workload start.
  std::size_t history_length = 0;
  /// Per-cell base histories, each of length history_length.
  std::vector<std::vector<double>> base_history;
  std::vector<ModelPlacement> models;
  std::vector<SchemeChoice> schemes;
  /// Fault mode: engine.refit is armed (Policy::Always) for the whole run
  /// and models invalidate after `reestimate_after_updates` advances, so
  /// every query past that point must be annotated kStaleModel (values
  /// still agree with the never-refit oracle).
  bool inject_refit_failures = false;
  std::size_t reestimate_after_updates = 0;
  std::vector<WorkloadOp> ops;
};

/// Number of cube shapes in the palette (>= 5, from a flat 1-dimensional
/// cube to a 3-dimensional one and a two-level asymmetric grid).
std::size_t NumWorkloadShapes();

/// The dimensions of shape `index` (modulo the palette size). Level names
/// are globally unique ("d0l1", ...) as FindLevelAnywhere requires.
std::vector<OracleDimension> WorkloadShape(std::size_t index,
                                           std::string* name = nullptr);

/// Generates the workload of `seed`; shape, fault mode, and op mix are all
/// derived from the seed.
WorkloadSpec GenerateWorkload(std::uint64_t seed);

/// Generates a workload with the shape and fault mode pinned (the seed
/// still drives everything else).
WorkloadSpec GenerateWorkload(std::uint64_t seed, std::size_t shape_index,
                              bool inject_refit_failures);

/// Generates a query-heavy workload: `num_queries` forecast queries over
/// shape `shape_index` with an occasional insert round interleaved. Used
/// by the bulk-agreement test (>= 10k queries across the shape palette).
WorkloadSpec GenerateQueryStorm(std::uint64_t seed, std::size_t shape_index,
                                std::size_t num_queries);

/// Generates a SHARD-SAFE workload for the scatter-gather differential
/// suite: one model at EVERY base cell (so each shard of any partitioning
/// owns at least one model) and a covering derivation scheme at every
/// address (sources = all covered base cells, derivation weight exactly
/// 1), which a ShardedEngine can split loss-free across shards. The op
/// mix uses only frontier-aligned inserts — complete rounds plus
/// always-rejected behind/non-finite probes — so cross-shard aggregate
/// queries never race a partially advanced frontier; partial and
/// failpoint inserts are excluded by construction.
WorkloadSpec GenerateScatterGatherWorkload(std::uint64_t seed,
                                           std::size_t shape_index,
                                           bool inject_refit_failures);

/// Renders "%.17g", which round-trips every finite double exactly.
std::string RenderDouble(double value);

/// One-line rendering of an op ("QUERY addr=7 h=3", ...) for failure
/// messages and determinism checks.
std::string DescribeOp(const WorkloadOp& op);

/// Multi-line rendering of a whole spec (shape, models, schemes, ops).
/// Two specs generated from the same seed render identically — the
/// determinism contract checked by the harness self-test.
std::string DescribeWorkload(const WorkloadSpec& spec);

}  // namespace f2db::testing

#endif  // F2DB_TESTING_WORKLOAD_H_
