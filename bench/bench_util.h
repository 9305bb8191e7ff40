// Shared helpers for the figure-reproduction benches.
//
// Every bench binary prints CSV-ish tables to stdout, one per reproduced
// figure, with a header line naming the experiment. Run them all with
//   for b in build/bench/*; do $b; done
//
// Fault injection: set F2DB_FAILPOINTS (same spec grammar as
// failpoint::EnableFromSpec, e.g. "engine.refit=prob:0.1" or, for a durable
// bench, "io.wal_append=eio:nth:3") to run any bench against an injected
// failure mix — PrintHeader applies the variable and echoes the active spec
// so logs are self-describing.

#ifndef F2DB_BENCH_BENCH_UTIL_H_
#define F2DB_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/advisor_builder.h"
#include "common/failpoint.h"
#include "baselines/bottom_up.h"
#include "baselines/builder.h"
#include "baselines/combine.h"
#include "baselines/direct.h"
#include "baselines/greedy.h"
#include "baselines/top_down.h"
#include "core/advisor.h"
#include "data/datasets.h"

namespace f2db::bench {

/// Accuracy + cost summary of one built configuration.
struct ApproachRow {
  std::string approach;
  double error = 1.0;
  std::size_t num_models = 0;
  double build_seconds = 0.0;
  std::size_t models_created = 0;
  bool ok = false;
  std::string note;
};

/// Runs one builder and summarizes the outcome.
inline ApproachRow RunBuilder(ConfigurationBuilder& builder,
                              const ConfigurationEvaluator& evaluator,
                              const ModelFactory& factory) {
  ApproachRow row;
  row.approach = builder.name();
  auto outcome = builder.Build(evaluator, factory);
  if (!outcome.ok()) {
    row.note = outcome.status().ToString();
    return row;
  }
  row.ok = true;
  row.error = outcome.value().configuration.MeanError();
  row.num_models = outcome.value().configuration.num_models();
  row.build_seconds = outcome.value().build_seconds;
  row.models_created = outcome.value().models_created;
  return row;
}

/// Default advisor options for benches: bounded iterations, fixed seed.
inline AdvisorOptions BenchAdvisorOptions() {
  AdvisorOptions options;
  options.seed = 2013;
  // Emulate the paper's 12-core batch size regardless of the host: eight
  // models are created and judged per iteration.
  options.models_per_iteration = 8;
  options.stop.max_iterations = 150;
  return options;
}

/// Prints a section header recognizable in combined bench logs. Also arms
/// any failpoints requested through F2DB_FAILPOINTS and echoes the spec.
inline void PrintHeader(const std::string& experiment,
                        const std::string& figure,
                        const std::string& columns) {
  const std::string failpoints = failpoint::InitFromEnv();
  std::printf("\n=== %s (paper %s) ===\n", experiment.c_str(),
              figure.c_str());
  if (!failpoints.empty()) {
    std::printf("# failpoints: %s\n", failpoints.c_str());
  }
  std::printf("%s\n", columns.c_str());
}

}  // namespace f2db::bench

#endif  // F2DB_BENCH_BENCH_UTIL_H_
