// The model configuration advisor (Sections III and IV).
//
// Given a time series graph, the advisor iteratively builds a model
// configuration through four phases:
//
//   1. Candidate selection — indicators rank positive candidates V_A
//      (nodes likely to benefit from a model, Eq. 5) and negative
//      candidates V_R (model nodes that may be removable, Eq. 6).
//   2. Evaluation — models are created in parallel for the top-n ranked
//      positive candidates (n = worker threads, mirroring the paper's
//      processor count), their real benefit is measured, and the
//      generalized acceptance criterion (Eq. 8, parameter alpha) admits or
//      rejects them; the lowest-benefit negative candidate is test-deleted.
//   3. Control — regulates the indicator size |I| (memory budget), the
//      candidate threshold gamma (balancing selection vs. evaluation
//      time), and the alpha schedule; runs the multi-source optimizer.
//   4. Output — records an intermediate snapshot, invokes the user
//      callback (the advisor can be interrupted at any time), and checks
//      the stop criteria.

#ifndef F2DB_CORE_ADVISOR_H_
#define F2DB_CORE_ADVISOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/configuration.h"
#include "core/evaluator.h"
#include "core/indicators.h"
#include "core/multi_source.h"
#include "cube/graph.h"
#include "ts/model_factory.h"

namespace f2db {

class ThreadPool;

/// User-definable termination conditions (Section IV-D).
struct StopCriteria {
  /// Stop once the configuration error is at or below this value.
  std::optional<double> target_error;
  /// Stop once the relative error (vs. the initial configuration) is at or
  /// below this fraction.
  std::optional<double> target_relative_error;
  /// Stop once total model costs reach this many seconds.
  std::optional<double> max_cost_seconds;
  /// Stop once this many models are in the configuration.
  std::optional<std::size_t> max_models;
  /// Hard cap on advisor iterations.
  std::optional<std::size_t> max_iterations;
};

/// All advisor knobs. The defaults implement the paper's self-regulating
/// behaviour; "ideally no further parameterization input should be needed".
struct AdvisorOptions {
  /// Train fraction of every series (the paper uses about 80%).
  double train_fraction = 0.8;
  /// Worker threads for model creation and local-indicator batches; 0 =
  /// hardware concurrency. One pool of this width lives for each Run.
  std::size_t num_threads = 0;
  /// Models created per iteration (the paper's n, "restricted by the number
  /// of available processors"); 0 = same as the worker thread count. Set
  /// explicitly to emulate the paper's 12-core batch size on smaller
  /// machines.
  std::size_t models_per_iteration = 0;
  /// Hard cap on positive candidates analyzed (local indicators built) in
  /// one ranking step; 0 = auto (4x the batch size + 16). The gamma control
  /// steers the candidate count across iterations, this cap bounds the
  /// worst single iteration.
  std::size_t max_candidates_per_iteration = 0;
  /// Initial acceptance parameter alpha of Eq. 8 (paper: "usually 0.1").
  double initial_alpha = 0.1;
  /// Alpha increment applied by the control phase.
  double alpha_step = 0.1;
  /// Alpha at which the advisor stops increasing (inclusive upper end).
  double final_alpha = 1.0;
  /// Consecutive rejects that trigger an alpha increase.
  std::size_t max_rejects_per_alpha = 3;
  /// Iterations spent at one alpha before it is increased.
  std::size_t max_iterations_per_alpha = 8;
  /// Relative error improvement below which alpha is increased.
  double min_relative_improvement = 1e-3;
  /// Local indicator size |I|; 0 derives it from the memory budget.
  std::size_t indicator_size = 0;
  /// Memory budget for all indicator arrays (Section IV-C1).
  std::size_t indicator_memory_budget_bytes = std::size_t{256} << 20;
  /// Indicator combination weights.
  IndicatorOptions indicator;
  /// Seed the configuration with a model at the top node (the advisor then
  /// works its way down, mirroring the running example in Figure 4).
  bool start_with_top_model = true;
  /// Multi-source probes executed per iteration (0 disables; Section IV-C2).
  std::size_t multi_source_probes_per_iteration = 16;
  /// Run the multi-source optimizer as a true background thread.
  bool async_multi_source = false;
  MultiSourceOptions multi_source;
  /// Price every model at one cost unit instead of its measured creation
  /// time, and freeze the time-based control decisions (gamma and batch
  /// width stay at their initial values). Makes advisor runs bit-for-bit
  /// reproducible — wall-clock noise otherwise feeds into the Eq. 8
  /// acceptance and the control phase. Appropriate when all models share
  /// one family and thus comparable maintenance cost.
  bool count_models_as_cost = false;
  /// Workload-aware extension: per-node importance weights for the
  /// configuration error (e.g. expected query frequencies). Empty =
  /// uniform, as in the paper. Must have one entry per graph node.
  std::vector<double> node_weights;
  /// Deterministic seed for all stochastic components.
  std::uint64_t seed = 42;
  /// Emit per-iteration INFO logs.
  bool verbose = false;
  StopCriteria stop;
};

/// One row of the advisor's continuous output (Section IV-D).
struct AdvisorSnapshot {
  std::size_t iteration = 0;
  double error = 1.0;
  double cost_seconds = 0.0;
  std::size_t num_models = 0;
  double alpha = 0.0;
  double gamma = 0.0;
  double selection_seconds = 0.0;
  double evaluation_seconds = 0.0;
};

/// Final outcome of an advisor run.
struct AdvisorResult {
  ModelConfiguration configuration;
  std::vector<AdvisorSnapshot> history;  ///< One entry per iteration.
  std::size_t iterations = 0;
  std::size_t models_created = 0;
  std::size_t models_accepted = 0;
  std::size_t models_rejected = 0;
  std::size_t models_deleted = 0;
  std::size_t multi_source_adopted = 0;
  std::size_t indicator_size_used = 0;
  double final_error = 1.0;
  double final_cost_seconds = 0.0;
  double total_runtime_seconds = 0.0;
};

/// The offline model configuration advisor.
class ModelConfigurationAdvisor {
 public:
  /// Invoked after every iteration with the latest snapshot; returning
  /// false interrupts the advisor (its current configuration is returned).
  using IterationCallback = std::function<bool(const AdvisorSnapshot&)>;

  /// The graph must outlive the advisor and have its aggregates built.
  ModelConfigurationAdvisor(const TimeSeriesGraph& graph, ModelFactory factory,
                            AdvisorOptions options = {});

  void set_iteration_callback(IterationCallback callback) {
    callback_ = std::move(callback);
  }

  /// Runs the full iterative process and returns the final configuration.
  Result<AdvisorResult> Run();

  /// The evaluation context (exposed for benches and tests).
  const ConfigurationEvaluator& evaluator() const { return evaluator_; }

  /// The effective |I| in use.
  std::size_t indicator_size() const { return indicator_size_; }

 private:
  struct CandidateModel {
    NodeId node = 0;
    ModelEntry entry;
    bool created = false;
    /// False when the model was revived from the parked pool.
    bool newly_built = true;
  };

  /// Derives |I| from options / memory budget.
  std::size_t DetermineIndicatorSize() const;

  /// Lazily computes and caches the local indicator of `node`.
  const LocalIndicator& LocalOf(NodeId node);

  /// Computes the uncached local indicators of `nodes` across the pool.
  /// Every entries buffer is allocated here, on the calling thread; the
  /// workers only fill them.
  void ComputeLocals(const std::vector<NodeId>& nodes, ThreadPool& pool);

  /// Rebuilds the global indicator from the locals of all model nodes.
  void RebuildGlobal(const ModelConfiguration& config);

  /// Phase 1: preselection + ranking. Returns ranked V_A and V_R. The
  /// global indicator must already cover exactly the model nodes.
  void SelectCandidates(const ModelConfiguration& config, ThreadPool& pool,
                        std::vector<NodeId>& positive,
                        std::vector<NodeId>& negative);

  /// Creates (or revives) models for the top-n positive candidates.
  std::vector<CandidateModel> CreateModels(const std::vector<NodeId>& ranked,
                                           ThreadPool& pool);

  /// Acceptance criterion of Eq. 8 on normalized (error, cost) pairs.
  bool Accept(double err_new, double cost_new, double err_old,
              double cost_old) const;

  /// Cost normalization: total seconds relative to the estimated cost of
  /// the all-models configuration.
  double NormalizeCost(double cost_seconds) const;

  const TimeSeriesGraph* graph_;
  ModelFactory factory_;
  AdvisorOptions options_;
  ConfigurationEvaluator evaluator_;
  IndicatorComputer indicators_;
  IterationCallback callback_;

  std::size_t indicator_size_ = 0;
  std::size_t num_threads_ = 1;
  std::size_t batch_size_ = 1;
  /// Models actually created this iteration; shrunk by the control phase
  /// when model creation dominates the iteration cost (Section IV-C1).
  std::size_t adaptive_batch_ = 1;
  double gamma_ = 0.0;
  double alpha_ = 0.1;
  double avg_creation_seconds_ = 0.0;
  std::size_t creation_samples_ = 0;
  /// Running mean error improvement per evaluated candidate model; the
  /// cost unit of Eq. 8 (DESIGN.md section 4: cost normalization).
  double avg_improvement_ = 0.0;
  std::size_t improvement_samples_ = 0;

  std::vector<std::optional<LocalIndicator>> local_cache_;
  /// Nearest-node search buffers: slot w serves pool task w of
  /// ComputeLocals, slot 0 also LocalOf on the calling thread.
  std::vector<TimeSeriesGraph::NearestScratch> nearest_scratch_;
  /// Element-wise minimum over the locals of the model nodes; merged on
  /// every accept, rebuilt on every deletion.
  GlobalIndicator global_;
  std::vector<bool> blacklisted_;
  /// Models rejected with error improvement are parked for cheap retry at
  /// a higher alpha.
  std::unordered_map<NodeId, ModelEntry> parked_models_;
};

}  // namespace f2db

#endif  // F2DB_CORE_ADVISOR_H_
