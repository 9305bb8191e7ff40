// ConfigurationEvaluator: train/test bookkeeping, derivation weights, and
// scheme accuracy over a time series graph (Section II-C/D).
//
// Every quantity the advisor learns from (derivation weights, historical
// errors, weight stability) is computed on the training part of the
// history only; the held-out test part is used exclusively to measure the
// real forecast error of schemes (Section II-D: "the division of the time
// series into a training part, over which the model is created, and a
// testing part for the error calculation itself").

#ifndef F2DB_CORE_EVALUATOR_H_
#define F2DB_CORE_EVALUATOR_H_

#include <cmath>
#include <vector>

#include "core/derivation.h"
#include "cube/graph.h"
#include "ts/model.h"

namespace f2db {

/// Immutable evaluation context bound to one graph + split.
class ConfigurationEvaluator {
 public:
  /// Splits every node's series at `train_fraction` (applied to the common
  /// series length).
  ConfigurationEvaluator(const TimeSeriesGraph& graph, double train_fraction);

  const TimeSeriesGraph& graph() const { return *graph_; }
  std::size_t train_length() const { return train_length_; }
  std::size_t test_length() const { return test_length_; }

  /// Training part of a node's series (the model-fitting input).
  TimeSeries TrainSeries(NodeId node) const;

  /// Actual values of the held-out test part.
  std::vector<double> TestActual(NodeId node) const;

  /// h_x of Eq. 2: the sum of a node's training history (precomputed).
  double HistorySum(NodeId node) const { return history_sums_[node]; }

  /// Derivation weight k_{S->t} = h_t / sum h_s (Eq. 3); 0 when the
  /// denominator vanishes.
  double Weight(const std::vector<NodeId>& sources, NodeId target) const;

  /// Single-source Weight, without the source vector.
  double Weight(NodeId source, NodeId target) const {
    const double denom = history_sums_[source];
    return std::abs(denom) < 1e-12 ? 0.0 : history_sums_[target] / denom;
  }

  /// Element-wise k * sum of source forecasts (Eq. 1). All forecasts must
  /// have equal length.
  static std::vector<double> Derive(
      double weight, const std::vector<const std::vector<double>*>& forecasts);

  /// SMAPE on the test part of `target` for a scheme whose source test
  /// forecasts are given (ordered as scheme.sources).
  double SchemeError(const DerivationScheme& scheme,
                     const std::vector<const std::vector<double>*>& forecasts,
                     NodeId target) const;

  /// SchemeError of the single-source scheme {source} -> target, computed
  /// in place: no scheme, derived forecast or test-actual copy is built.
  /// Bit-identical to SchemeError(DerivationScheme::Single(source),
  /// {&forecast}, target).
  double SchemeError(NodeId source, const std::vector<double>& forecast,
                     NodeId target) const;

  /// Historical-error indicator component (Section III-B): assume a perfect
  /// model at `source` (its actual training values are the "forecast"),
  /// derive the target's training history, and return the SMAPE.
  double HistoricalError(NodeId source, NodeId target) const;

  /// Multi-source variant used by the multi-source optimizer.
  double HistoricalErrorMulti(const std::vector<NodeId>& sources,
                              NodeId target) const;

  /// Similarity indicator component (Section III-B): the stability of the
  /// per-step derivation weights y_t(i) / y_s(i) over the training history,
  /// measured as their coefficient of variation. Low = similar series.
  double WeightInstability(NodeId source, NodeId target) const;

 private:
  const TimeSeriesGraph* graph_;
  std::size_t train_length_ = 0;
  std::size_t test_length_ = 0;
  std::vector<double> history_sums_;
};

}  // namespace f2db

#endif  // F2DB_CORE_EVALUATOR_H_
