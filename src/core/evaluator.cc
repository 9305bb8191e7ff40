#include "core/evaluator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "math/stats.h"
#include "ts/accuracy.h"

namespace f2db {

ConfigurationEvaluator::ConfigurationEvaluator(const TimeSeriesGraph& graph,
                                               double train_fraction)
    : graph_(&graph) {
  const std::size_t n = graph.series_length();
  train_fraction = std::clamp(train_fraction, 0.0, 1.0);
  train_length_ = static_cast<std::size_t>(train_fraction *
                                           static_cast<double>(n));
  if (n >= 2) {
    train_length_ = std::clamp<std::size_t>(train_length_, 1, n - 1);
  }
  test_length_ = n - train_length_;

  history_sums_.resize(graph.num_nodes(), 0.0);
  for (NodeId node = 0; node < graph.num_nodes(); ++node) {
    const TimeSeries& series = graph.series(node);
    double sum = 0.0;
    for (std::size_t i = 0; i < train_length_ && i < series.size(); ++i) {
      sum += series[i];
    }
    history_sums_[node] = sum;
  }
}

TimeSeries ConfigurationEvaluator::TrainSeries(NodeId node) const {
  return graph_->series(node).Head(train_length_);
}

std::vector<double> ConfigurationEvaluator::TestActual(NodeId node) const {
  const TimeSeries tail = graph_->series(node).Slice(train_length_, test_length_);
  return tail.ToVector();
}

double ConfigurationEvaluator::Weight(const std::vector<NodeId>& sources,
                                      NodeId target) const {
  double denom = 0.0;
  for (NodeId s : sources) denom += history_sums_[s];
  if (std::abs(denom) < 1e-12) return 0.0;
  return history_sums_[target] / denom;
}

std::vector<double> ConfigurationEvaluator::Derive(
    double weight, const std::vector<const std::vector<double>*>& forecasts) {
  assert(!forecasts.empty());
  std::vector<double> out(forecasts[0]->size(), 0.0);
  for (const std::vector<double>* f : forecasts) {
    assert(f->size() == out.size());
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += (*f)[i];
  }
  for (double& v : out) v *= weight;
  return out;
}

double ConfigurationEvaluator::SchemeError(
    const DerivationScheme& scheme,
    const std::vector<const std::vector<double>*>& forecasts,
    NodeId target) const {
  if (scheme.IsEmpty() || forecasts.empty()) return 1.0;
  const double k = Weight(scheme.sources, target);
  const std::vector<double> derived = Derive(k, forecasts);
  return Smape(TestActual(target), derived);
}

double ConfigurationEvaluator::SchemeError(NodeId source,
                                           const std::vector<double>& forecast,
                                           NodeId target) const {
  // Smape(TestActual(target), Derive(k, {&forecast})) without the copies.
  const std::span<const double> series = graph_->series(target).values();
  const std::size_t begin = std::min(train_length_, series.size());
  const std::size_t n = std::min(test_length_, series.size() - begin);
  if (n == 0 || n != forecast.size()) return 1.0;
  const double k = Weight(source, target);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double actual = series[begin + i];
    const double derived = forecast[i] * k;
    const double denom = std::abs(actual) + std::abs(derived);
    if (denom < 1e-12) continue;
    sum += std::abs(actual - derived) / denom;
  }
  return sum / static_cast<double>(n);
}

double ConfigurationEvaluator::HistoricalError(NodeId source,
                                               NodeId target) const {
  return HistoricalErrorMulti({source}, target);
}

double ConfigurationEvaluator::HistoricalErrorMulti(
    const std::vector<NodeId>& sources, NodeId target) const {
  const double k = Weight(sources, target);
  const TimeSeries& target_series = graph_->series(target);
  double error_sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < train_length_; ++i) {
    double src = 0.0;
    for (NodeId s : sources) src += graph_->series(s)[i];
    const double derived = k * src;
    const double actual = target_series[i];
    const double denom = std::abs(actual) + std::abs(derived);
    if (denom >= 1e-12) error_sum += std::abs(actual - derived) / denom;
    ++count;
  }
  if (count == 0) return 1.0;
  return error_sum / static_cast<double>(count);
}

double ConfigurationEvaluator::WeightInstability(NodeId source,
                                                 NodeId target) const {
  const TimeSeries& src_series = graph_->series(source);
  const TimeSeries& tgt_series = graph_->series(target);
  std::vector<double> weights;
  weights.reserve(train_length_);
  for (std::size_t i = 0; i < train_length_; ++i) {
    const double s = src_series[i];
    if (std::abs(s) < 1e-12) continue;
    weights.push_back(tgt_series[i] / s);
  }
  if (weights.size() < 2) return 1.0;  // no evidence of stability
  return CoefficientOfVariation(weights);
}

}  // namespace f2db
