#include "core/indicators.h"

#include <algorithm>
#include <cmath>

#include "math/stats.h"

namespace f2db {

double IndicatorComputer::Indicate(NodeId source, NodeId target) const {
  if (source == target) return 0.0;
  const TimeSeriesGraph& graph = evaluator_->graph();
  const std::span<const double> src = graph.series(source).values();
  const std::span<const double> tgt = graph.series(target).values();
  const std::size_t n = evaluator_->train_length();
  const double k = evaluator_->Weight(source, target);

  // First walk: HistoricalError's SMAPE sum, and the sum and count of
  // WeightInstability's per-step weights (steps with a ~0 source skipped).
  double error_sum = 0.0;
  double weight_sum = 0.0;
  std::size_t weight_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double s = src[i];
    const double actual = tgt[i];
    const double derived = k * s;
    const double denom = std::abs(actual) + std::abs(derived);
    if (denom >= 1e-12) error_sum += std::abs(actual - derived) / denom;
    if (std::abs(s) < 1e-12) continue;
    weight_sum += actual / s;
    ++weight_count;
  }
  const double historical =
      n == 0 ? 1.0 : error_sum / static_cast<double>(n);

  // Second walk: the weights' variance about their mean, recomputing each
  // weight instead of storing it (CoefficientOfVariation's operation order).
  double instability = 1.0;  // fewer than 2 weights: no evidence of stability
  if (weight_count >= 2) {
    const double count = static_cast<double>(weight_count);
    const double mean = weight_sum / count;
    if (std::abs(mean) < 1e-12) {
      instability = 0.0;
    } else {
      double squares = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double s = src[i];
        if (std::abs(s) < 1e-12) continue;
        const double d = tgt[i] / s - mean;
        squares += d * d;
      }
      instability = std::sqrt(squares / count) / std::abs(mean);
    }
  }
  return options_.historical_weight * historical +
         options_.similarity_weight * std::min(1.0, instability);
}

LocalIndicator IndicatorComputer::ComputeLocal(NodeId source,
                                               std::size_t size) const {
  const std::size_t num_nodes = evaluator_->graph().num_nodes();
  TimeSeriesGraph::NearestScratch scratch;
  LocalIndicator local;
  local.entries.reserve(std::min(size, num_nodes - 1) + 1);
  ComputeLocalInto(source, size, scratch, &local);
  return local;
}

void IndicatorComputer::ComputeLocalInto(
    NodeId source, std::size_t size, TimeSeriesGraph::NearestScratch& scratch,
    LocalIndicator* local) const {
  local->source = source;
  local->entries.clear();
  local->entries.emplace_back(source, 0.0);
  for (NodeId target :
       evaluator_->graph().NearestNodesInto(source, size, scratch)) {
    local->entries.emplace_back(target, Indicate(source, target));
  }
  std::sort(local->entries.begin(), local->entries.end());
}

void GlobalIndicator::Merge(const LocalIndicator& local) {
  for (const auto& [target, value] : local.entries) {
    values_[target] = std::min(values_[target], value);
  }
}

void GlobalIndicator::Rebuild(const std::vector<const LocalIndicator*>& locals) {
  std::fill(values_.begin(), values_.end(), kUncoveredIndicator);
  for (const LocalIndicator* local : locals) Merge(*local);
}

double GlobalIndicator::Mean() const { return f2db::Mean(values_); }

double GlobalIndicator::StdDev() const { return f2db::StdDev(values_); }

}  // namespace f2db
