#include "core/configuration.h"

#include <algorithm>
#include <unordered_set>

namespace f2db {

ForecastModel* ModelConfiguration::model(NodeId node) const {
  const auto it = models_.find(node);
  return it == models_.end() ? nullptr : it->second.model.get();
}

const ModelEntry* ModelConfiguration::entry(NodeId node) const {
  const auto it = models_.find(node);
  return it == models_.end() ? nullptr : &it->second;
}

std::vector<NodeId> ModelConfiguration::model_nodes() const {
  std::vector<NodeId> out;
  out.reserve(models_.size());
  for (const auto& [node, entry] : models_) out.push_back(node);
  std::sort(out.begin(), out.end());
  return out;
}

void ModelConfiguration::AddModel(NodeId node, ModelEntry entry) {
  models_[node] = std::move(entry);
}

ModelEntry ModelConfiguration::RemoveModel(NodeId node) {
  const auto it = models_.find(node);
  if (it == models_.end()) return {};
  ModelEntry out = std::move(it->second);
  models_.erase(it);
  return out;
}

double ModelConfiguration::TotalCostSeconds() const {
  double total = 0.0;
  for (const auto& [node, entry] : models_) total += entry.creation_seconds;
  return total;
}

Status ModelConfiguration::SetNodeWeights(std::vector<double> weights) {
  if (weights.empty()) {
    node_weights_.clear();
    return Status::OK();
  }
  if (weights.size() != assignments_.size()) {
    return Status::InvalidArgument(
        "node weights must have one entry per graph node");
  }
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) return Status::InvalidArgument("node weights must be >= 0");
    total += w;
  }
  if (total <= 0.0) {
    return Status::InvalidArgument("node weights must not be all zero");
  }
  for (double& w : weights) w /= total;
  node_weights_ = std::move(weights);
  return Status::OK();
}

double ModelConfiguration::MeanError() const {
  if (assignments_.empty()) return 0.0;
  if (!node_weights_.empty()) {
    double sum = 0.0;
    for (std::size_t i = 0; i < assignments_.size(); ++i) {
      sum += node_weights_[i] * assignments_[i].error;
    }
    return sum;
  }
  double sum = 0.0;
  for (const NodeAssignment& a : assignments_) sum += a.error;
  return sum / static_cast<double>(assignments_.size());
}

std::size_t ModelConfiguration::ApplyModelSchemes(
    const ConfigurationEvaluator& evaluator, NodeId source,
    std::vector<std::pair<NodeId, NodeAssignment>>* undo) {
  const auto it = models_.find(source);
  if (it == models_.end()) return 0;
  const ModelEntry& entry = it->second;

  std::size_t improved = 0;
  auto try_target = [&](NodeId target) {
    if (TrySingleSource(evaluator, source, entry.test_forecast, target, undo)) {
      ++improved;
    }
  };
  try_target(source);
  for (NodeId target : entry.coverage) try_target(target);
  return improved;
}

bool ModelConfiguration::TrySingleSource(
    const ConfigurationEvaluator& evaluator, NodeId source,
    const std::vector<double>& forecast, NodeId target,
    std::vector<std::pair<NodeId, NodeAssignment>>* undo) {
  const double error = evaluator.SchemeError(source, forecast, target);
  NodeAssignment& assignment = assignments_[target];
  if (!(error < assignment.error)) return false;
  if (undo != nullptr) undo->emplace_back(target, std::move(assignment));
  assignment.error = error;
  assignment.scheme = DerivationScheme::Single(source);
  return true;
}

bool ModelConfiguration::TryMultiSourceScheme(
    const ConfigurationEvaluator& evaluator, NodeId target,
    DerivationScheme scheme) {
  const std::vector<const std::vector<double>*> forecasts =
      ForecastsFor(scheme);
  if (forecasts.empty()) return false;
  const double error = evaluator.SchemeError(scheme, forecasts, target);
  if (error >= assignments_[target].error) return false;
  assignments_[target].error = error;
  assignments_[target].scheme = scheme;
  multi_schemes_.emplace_back(target, std::move(scheme));
  return true;
}

void ModelConfiguration::RecomputeAssignments(
    const ConfigurationEvaluator& evaluator) {
  for (NodeAssignment& a : assignments_) a = NodeAssignment{};
  for (const auto& [node, entry] : models_) {
    ApplyModelSchemes(evaluator, node);
  }
  // Re-validate multi-source schemes whose sources all still have models.
  std::vector<std::pair<NodeId, DerivationScheme>> kept;
  for (auto& [target, scheme] : multi_schemes_) {
    const std::vector<const std::vector<double>*> forecasts =
        ForecastsFor(scheme);
    if (forecasts.empty()) continue;
    const double error = evaluator.SchemeError(scheme, forecasts, target);
    if (error < assignments_[target].error) {
      assignments_[target].error = error;
      assignments_[target].scheme = scheme;
    }
    kept.emplace_back(target, std::move(scheme));
  }
  multi_schemes_ = std::move(kept);
}

void ModelConfiguration::RecomputeNodes(const ConfigurationEvaluator& evaluator,
                                        const std::vector<NodeId>& targets) {
  std::unordered_set<NodeId> target_set(targets.begin(), targets.end());
  for (NodeId target : targets) assignments_[target] = NodeAssignment{};

  for (const auto& [node, entry] : models_) {
    auto try_target = [&](NodeId target) {
      TrySingleSource(evaluator, node, entry.test_forecast, target);
    };
    if (target_set.count(node) > 0) try_target(node);
    // Coverage is sorted; visit only the targets of interest.
    if (targets.size() < entry.coverage.size()) {
      for (NodeId target : targets) {
        if (target != node &&
            std::binary_search(entry.coverage.begin(), entry.coverage.end(),
                               target)) {
          try_target(target);
        }
      }
    } else {
      for (NodeId target : entry.coverage) {
        if (target_set.count(target) > 0) try_target(target);
      }
    }
  }

  for (auto& [target, scheme] : multi_schemes_) {
    if (target_set.count(target) == 0) continue;
    const std::vector<const std::vector<double>*> forecasts =
        ForecastsFor(scheme);
    if (forecasts.empty()) continue;  // a source lost its model
    const double error = evaluator.SchemeError(scheme, forecasts, target);
    if (error < assignments_[target].error) {
      assignments_[target].error = error;
      assignments_[target].scheme = scheme;
    }
  }
}

std::vector<const std::vector<double>*> ModelConfiguration::ForecastsFor(
    const DerivationScheme& scheme) const {
  std::vector<const std::vector<double>*> out;
  out.reserve(scheme.sources.size());
  for (NodeId source : scheme.sources) {
    const auto it = models_.find(source);
    if (it == models_.end()) return {};
    out.push_back(&it->second.test_forecast);
  }
  return out;
}

}  // namespace f2db
