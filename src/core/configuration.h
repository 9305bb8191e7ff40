// ModelConfiguration: an assignment of forecast models and derivation
// schemes to the nodes of a time series graph (Section II-C: "we call an
// assignment of models and derivation schemes to nodes a model
// configuration").
//
// The configuration owns the fitted models, remembers each model's creation
// cost and cached test-horizon forecast, and tracks per node the currently
// best derivation scheme and its measured forecast error. Its two quality
// measures (Section II-D) are the mean per-node SMAPE and the total model
// creation time.

#ifndef F2DB_CORE_CONFIGURATION_H_
#define F2DB_CORE_CONFIGURATION_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/derivation.h"
#include "core/evaluator.h"
#include "cube/graph.h"
#include "ts/model.h"

namespace f2db {

/// Per-node forecast provenance: the best scheme found so far and its error.
struct NodeAssignment {
  /// SMAPE on the test part; 1.0 (the maximum) while uncovered.
  double error = 1.0;
  /// Sources of the best scheme; empty while uncovered.
  DerivationScheme scheme;
};

/// A model plus the bookkeeping the advisor needs about it.
struct ModelEntry {
  std::unique_ptr<ForecastModel> model;
  /// Wall-clock seconds spent creating (fitting) the model — the paper's
  /// worst-case maintenance cost proxy (Section II-D).
  double creation_seconds = 0.0;
  /// Cached forecast over the evaluation (test) horizon.
  std::vector<double> test_forecast;
  /// Target nodes this model may serve (its local-indicator coverage).
  std::vector<NodeId> coverage;
};

/// The set of models and per-node scheme assignments for one graph.
class ModelConfiguration {
 public:
  /// Empty configuration over zero nodes (placeholder for move-assignment).
  ModelConfiguration() = default;

  explicit ModelConfiguration(std::size_t num_nodes)
      : assignments_(num_nodes) {}

  ModelConfiguration(ModelConfiguration&&) = default;
  ModelConfiguration& operator=(ModelConfiguration&&) = default;

  std::size_t num_nodes() const { return assignments_.size(); }

  bool HasModel(NodeId node) const { return models_.count(node) > 0; }
  std::size_t num_models() const { return models_.size(); }

  /// The fitted model at `node`, or nullptr.
  ForecastModel* model(NodeId node) const;

  /// The model entry at `node`, or nullptr.
  const ModelEntry* entry(NodeId node) const;

  /// Nodes currently carrying models, ascending.
  std::vector<NodeId> model_nodes() const;

  /// Installs a model. Replaces an existing entry at the same node.
  void AddModel(NodeId node, ModelEntry entry);

  /// Removes and returns the entry at `node` (empty when absent).
  ModelEntry RemoveModel(NodeId node);

  const NodeAssignment& assignment(NodeId node) const {
    return assignments_[node];
  }

  /// Overwrites a node's assignment (used by the advisor's rollback).
  void set_assignment(NodeId node, NodeAssignment assignment) {
    assignments_[node] = std::move(assignment);
  }

  /// Total model costs: sum of creation seconds (Section II-D).
  double TotalCostSeconds() const;

  /// Installs per-node importance weights for the configuration error
  /// (e.g. expected query frequencies — a workload-aware extension of the
  /// paper's uniform "overall error err"). Weights are normalized
  /// internally; an empty vector restores uniform weighting. Fails when
  /// the size mismatches or weights are negative / all zero.
  Status SetNodeWeights(std::vector<double> weights);

  /// Configuration forecast error: (weighted) mean per-node SMAPE.
  double MeanError() const;

  /// Tries all single-source schemes from the model at `source` to every
  /// node in its coverage (and itself); lowers assignments where the new
  /// scheme is better. Returns the number of improved nodes. When `undo` is
  /// given, the previous assignment of every improved node is appended to
  /// it, so restoring those undoes the call exactly.
  std::size_t ApplyModelSchemes(
      const ConfigurationEvaluator& evaluator, NodeId source,
      std::vector<std::pair<NodeId, NodeAssignment>>* undo = nullptr);

  /// Installs a multi-source scheme for `target` when it improves on the
  /// current assignment; remembered so recomputation can re-validate it.
  /// All sources must carry models. Returns true when adopted.
  bool TryMultiSourceScheme(const ConfigurationEvaluator& evaluator,
                            NodeId target, DerivationScheme scheme);

  /// Recomputes every assignment from scratch from the current model set
  /// (single-source schemes from all coverages plus retained multi-source
  /// schemes). Used after model deletion.
  void RecomputeAssignments(const ConfigurationEvaluator& evaluator);

  /// Recomputes the assignments of `targets` only — the cheap path after a
  /// single model deletion, where only the victim's dependents change.
  void RecomputeNodes(const ConfigurationEvaluator& evaluator,
                      const std::vector<NodeId>& targets);

  /// Collects the test forecasts for a scheme's sources; nullptr when some
  /// source has no model.
  std::vector<const std::vector<double>*> ForecastsFor(
      const DerivationScheme& scheme) const;

 private:
  /// Installs {source} -> target when its error beats the current
  /// assignment; the scheme is built only then. Returns true when adopted.
  bool TrySingleSource(
      const ConfigurationEvaluator& evaluator, NodeId source,
      const std::vector<double>& forecast, NodeId target,
      std::vector<std::pair<NodeId, NodeAssignment>>* undo = nullptr);

  std::vector<NodeAssignment> assignments_;
  /// Normalized per-node weights; empty = uniform.
  std::vector<double> node_weights_;
  std::unordered_map<NodeId, ModelEntry> models_;
  /// Adopted multi-source schemes, re-validated on recomputation.
  std::vector<std::pair<NodeId, DerivationScheme>> multi_schemes_;
};

}  // namespace f2db

#endif  // F2DB_CORE_CONFIGURATION_H_
