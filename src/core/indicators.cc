#include "core/indicators.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "math/stats.h"

namespace f2db {
namespace {

/// Indicate's result from the sums of its two walks over n training steps:
/// the SMAPE sum, the number of weights and their mean, and the weights'
/// squared deviations about the mean (read only when there are two or more
/// weights and the mean is not ~0).
double Combine(const IndicatorOptions& options, std::size_t n,
               double error_sum, std::size_t weight_count, double mean,
               double squares) {
  const double historical =
      n == 0 ? 1.0 : error_sum / static_cast<double>(n);
  double instability = 1.0;  // fewer than 2 weights: no evidence of stability
  if (weight_count >= 2) {
    instability = std::abs(mean) < 1e-12
                      ? 0.0
                      : std::sqrt(squares / static_cast<double>(weight_count)) /
                            std::abs(mean);
  }
  return options.historical_weight * historical +
         options.similarity_weight * std::min(1.0, instability);
}

// Two targets of one source, one per lane of a 16-byte vector (one SSE2
// register on the x86-64 baseline). Every lane performs the scalar
// kernel's IEEE operations in the same order, so each lane's result is
// bit-identical to Indicate's.
using Lanes = double __attribute__((vector_size(16)));
using LaneMask = decltype(Lanes{} < Lanes{});  // all-ones where true

Lanes Abs(Lanes x) {
  constexpr std::int64_t kMagnitude = INT64_MAX;  // every bit but the sign
  return std::bit_cast<Lanes>(std::bit_cast<LaneMask>(x) &
                              LaneMask{kMagnitude, kMagnitude});
}

/// Indicate(source, t0) and Indicate(source, t1) for targets other than
/// `source`, given the source's row, the targets' rows and their weights.
void IndicatePair(const IndicatorOptions& options, const double* src,
                  const double* tgt0, const double* tgt1, std::size_t n,
                  double k0, double k1, double* out0, double* out1) {
  const Lanes k = {k0, k1};
  Lanes error_sum = {0.0, 0.0};
  Lanes weight_sum = {0.0, 0.0};
  std::size_t weight_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double s = src[i];
    const Lanes actual = {tgt0[i], tgt1[i]};
    const Lanes derived = k * s;
    const Lanes denom = Abs(actual) + Abs(derived);
    // A lane whose denominator is ~0 adds +0.0 instead of its (NaN) term,
    // which leaves its non-negative sum unchanged, as the scalar skip does.
    const Lanes term = Abs(actual - derived) / denom;
    error_sum += std::bit_cast<Lanes>(std::bit_cast<LaneMask>(term) &
                                      (denom >= 1e-12));
    // The source decides the skip, so both lanes take the same branch.
    if (std::abs(s) < 1e-12) continue;
    weight_sum += actual / s;
    ++weight_count;
  }
  Lanes mean = {0.0, 0.0};
  Lanes squares = {0.0, 0.0};
  if (weight_count >= 2) {
    mean = weight_sum / static_cast<double>(weight_count);
    for (std::size_t i = 0; i < n; ++i) {
      const double s = src[i];
      if (std::abs(s) < 1e-12) continue;
      const Lanes d = Lanes{tgt0[i], tgt1[i]} / s - mean;
      squares += d * d;
    }
  }
  *out0 = Combine(options, n, error_sum[0], weight_count, mean[0], squares[0]);
  *out1 = Combine(options, n, error_sum[1], weight_count, mean[1], squares[1]);
}

}  // namespace

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

  // Second walk: the weights' variance about their mean, recomputing each
  // weight instead of storing it (CoefficientOfVariation's operation order).
  double mean = 0.0;
  double squares = 0.0;
  if (weight_count >= 2) {
    mean = weight_sum / static_cast<double>(weight_count);
    for (std::size_t i = 0; i < n; ++i) {
      const double s = src[i];
      if (std::abs(s) < 1e-12) continue;
      const double d = tgt[i] / s - mean;
      squares += d * d;
    }
  }
  return Combine(options_, n, error_sum, weight_count, mean, squares);
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
  const TimeSeriesGraph& graph = evaluator_->graph();
  const std::vector<NodeId>& targets =
      graph.NearestNodesInto(source, size, scratch);
  local->source = source;
  local->entries.clear();
  local->entries.emplace_back(source, 0.0);
  const double* src = graph.series(source).values().data();
  const std::size_t n = evaluator_->train_length();
  std::size_t i = 0;
  for (; i + 1 < targets.size(); i += 2) {
    const NodeId t0 = targets[i];
    const NodeId t1 = targets[i + 1];
    double v0 = 0.0;
    double v1 = 0.0;
    IndicatePair(options_, src, graph.series(t0).values().data(),
                 graph.series(t1).values().data(), n,
                 evaluator_->Weight(source, t0), evaluator_->Weight(source, t1),
                 &v0, &v1);
    local->entries.emplace_back(t0, v0);
    local->entries.emplace_back(t1, v1);
  }
  if (i < targets.size()) {
    local->entries.emplace_back(targets[i], Indicate(source, targets[i]));
  }
  std::sort(local->entries.begin(), local->entries.end());
}

void GlobalIndicator::Merge(const LocalIndicator& local) {
  for (const auto& [target, value] : local.entries) {
    if (value < values_[target]) {
      second_[target] = values_[target];
      values_[target] = value;
      owner_[target] = local.source;
    } else if (value < second_[target]) {
      second_[target] = value;
    }
  }
}

void GlobalIndicator::Rebuild(const std::vector<const LocalIndicator*>& locals) {
  std::fill(values_.begin(), values_.end(), kUncoveredIndicator);
  std::fill(second_.begin(), second_.end(), kUncoveredIndicator);
  std::fill(owner_.begin(), owner_.end(), kNoOwner);
  for (const LocalIndicator* local : locals) Merge(*local);
}

double GlobalIndicator::Mean() const { return f2db::Mean(values_); }

double GlobalIndicator::StdDev() const { return f2db::StdDev(values_); }

}  // namespace f2db
