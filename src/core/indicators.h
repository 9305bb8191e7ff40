// Indicators: cheap heuristics for the expected benefit of a model
// (Section III-B).
//
// A local indicator of a source node s holds, for each target t in its
// coverage, a combined estimate of how accurately t could be derived from a
// model at s — computed WITHOUT building any model, from (1) the historical
// error of the scheme s -> t under a perfect model assumption and (2) the
// stability of the per-step derivation weights. The indicator of a node
// with itself is 0. The global indicator is the element-wise minimum over
// the local indicators of all nodes currently carrying models; entries not
// covered by any local indicator default to the maximum.

#ifndef F2DB_CORE_INDICATORS_H_
#define F2DB_CORE_INDICATORS_H_

#include <limits>
#include <vector>

#include "core/evaluator.h"
#include "cube/graph.h"

namespace f2db {

/// Indicator value assigned to nodes not covered by any local indicator.
/// Historical SMAPE is bounded by 1 and the similarity term by
/// `similarity_weight`, so this dominates every computed value.
inline constexpr double kUncoveredIndicator = 2.0;

/// Tuning of the indicator combination.
struct IndicatorOptions {
  /// Weight of the similarity (weight-stability) term; the historical
  /// error term has weight 1. Setting 0 ablates similarity.
  double similarity_weight = 0.5;
  /// Weight of the historical-error term; setting 0 ablates it.
  double historical_weight = 1.0;
};

/// The local indicator array of one source node.
struct LocalIndicator {
  NodeId source = 0;
  /// (target, indicator value); includes (source, 0.0); sorted by target.
  std::vector<std::pair<NodeId, double>> entries;
};

/// Computes local indicators over a fixed evaluation context.
class IndicatorComputer {
 public:
  IndicatorComputer(const ConfigurationEvaluator& evaluator,
                    IndicatorOptions options)
      : evaluator_(&evaluator), options_(options) {}

  /// Combined indicator of the scheme source -> target; 0 when equal.
  /// Equals historical_weight * HistoricalError + similarity_weight *
  /// min(1, WeightInstability) bit for bit, computed in two walks of the
  /// training history without allocating.
  double Indicate(NodeId source, NodeId target) const;

  /// Builds the local indicator of `source` covering itself and its
  /// `size` nearest nodes in the graph (Section IV-C1: "the local
  /// indicator of a node s is constructed by including those nodes which
  /// are closest to s in the time series graph").
  LocalIndicator ComputeLocal(NodeId source, std::size_t size) const;

  /// ComputeLocal into `*local`, searching through `scratch`. Allocates
  /// nothing when `local->entries` already has capacity for the result
  /// (min(size, num_nodes - 1) + 1 entries) and `scratch` was built for the
  /// graph, so concurrent callers can fill buffers their caller allocated.
  /// Computes the targets two at a time, one per SIMD lane, each lane
  /// bit-identical to Indicate.
  void ComputeLocalInto(NodeId source, std::size_t size,
                        TimeSeriesGraph::NearestScratch& scratch,
                        LocalIndicator* local) const;

 private:
  const ConfigurationEvaluator* evaluator_;
  IndicatorOptions options_;
};

/// Element-wise minimum over local indicators; one entry per graph node.
/// Next to each minimum it keeps the second-smallest merged value and the
/// source whose local holds the minimum, so the cost of removing a model
/// (its owned entries fall to their second-smallest value) is one pass
/// over the nodes instead of a rescan of every merged local. The
/// (minimum, second minimum) pair does not depend on merge order; the
/// owner does only where the two are equal.
class GlobalIndicator {
 public:
  /// Owner of an entry no merged local improves on the uncovered default.
  static constexpr NodeId kNoOwner = std::numeric_limits<NodeId>::max();

  explicit GlobalIndicator(std::size_t num_nodes)
      : values_(num_nodes, kUncoveredIndicator),
        second_(num_nodes, kUncoveredIndicator),
        owner_(num_nodes, kNoOwner) {}

  /// Merges one local indicator (element-wise min). Each source may be
  /// merged at most once between Rebuilds.
  void Merge(const LocalIndicator& local);

  /// Resets to "uncovered" and merges all given locals.
  void Rebuild(const std::vector<const LocalIndicator*>& locals);

  double value(NodeId node) const { return values_[node]; }
  const std::vector<double>& values() const { return values_; }
  std::size_t size() const { return values_.size(); }

  /// Second-smallest value merged at `node` (kUncoveredIndicator when at
  /// most one merged local covers it with a smaller value).
  double second(NodeId node) const { return second_[node]; }
  /// Source of the first merged local holding value(node), or kNoOwner.
  NodeId owner(NodeId node) const { return owner_[node]; }

  /// Mean / standard deviation over all entries (Eq. 5's E(I), sigma(I)).
  double Mean() const;
  double StdDev() const;

 private:
  std::vector<double> values_;
  std::vector<double> second_;
  std::vector<NodeId> owner_;
};

}  // namespace f2db

#endif  // F2DB_CORE_INDICATORS_H_
