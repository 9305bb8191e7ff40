#include "core/advisor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "math/stats.h"

namespace f2db {
namespace {

/// Approximate memory footprint of one local-indicator entry.
constexpr std::size_t kBytesPerIndicatorEntry = 16;

/// Deterministic hash used to break indicator-value ties so that equally
/// attractive candidates (e.g. the uncovered default) are spread across the
/// graph instead of clustering at low node ids.
std::uint32_t SpreadHash(NodeId node) {
  std::uint32_t x = node * 2654435761u;
  x ^= x >> 16;
  x *= 2246822519u;
  x ^= x >> 13;
  return x;
}

}  // namespace

ModelConfigurationAdvisor::ModelConfigurationAdvisor(
    const TimeSeriesGraph& graph, ModelFactory factory, AdvisorOptions options)
    : graph_(&graph),
      factory_(std::move(factory)),
      options_(options),
      evaluator_(graph, options.train_fraction),
      indicators_(evaluator_, options.indicator),
      global_(graph.num_nodes()),
      blacklisted_(graph.num_nodes(), false) {
  local_cache_.resize(graph.num_nodes());
  num_threads_ = options_.num_threads == 0 ? ThreadPool::DefaultConcurrency()
                                           : options_.num_threads;
  nearest_scratch_.reserve(num_threads_);
  for (std::size_t w = 0; w < num_threads_; ++w) {
    nearest_scratch_.emplace_back(graph.num_nodes());
  }
  batch_size_ = options_.models_per_iteration == 0 ? num_threads_
                                                   : options_.models_per_iteration;
  adaptive_batch_ = batch_size_;
  indicator_size_ = DetermineIndicatorSize();
  alpha_ = options_.initial_alpha;
}

std::size_t ModelConfigurationAdvisor::DetermineIndicatorSize() const {
  const std::size_t n = graph_->num_nodes();
  const std::size_t max_size = n > 1 ? n - 1 : 1;
  if (options_.indicator_size > 0) {
    return std::min(options_.indicator_size, max_size);
  }
  // Restrict |I| so that indicators for all nodes fit in the budget
  // (Section IV-C1).
  const std::size_t total_entries =
      options_.indicator_memory_budget_bytes / kBytesPerIndicatorEntry;
  std::size_t per_node = n > 0 ? total_entries / n : max_size;
  // 1024 caps the per-candidate analysis cost; beyond that the nearest-
  // node coverage gains are marginal (Figure 8(b) flattens well before).
  per_node = std::clamp<std::size_t>(
      per_node, std::min<std::size_t>(16, max_size), max_size);
  return std::min<std::size_t>(per_node, 1024);
}

const LocalIndicator& ModelConfigurationAdvisor::LocalOf(NodeId node) {
  if (!local_cache_[node].has_value()) {
    LocalIndicator& local = local_cache_[node].emplace();
    local.entries.reserve(indicator_size_ + 1);
    indicators_.ComputeLocalInto(node, indicator_size_, nearest_scratch_[0],
                                 &local);
  }
  return *local_cache_[node];
}

void ModelConfigurationAdvisor::ComputeLocals(const std::vector<NodeId>& nodes,
                                              ThreadPool& pool) {
  std::vector<LocalIndicator*> missing;
  for (NodeId node : nodes) {
    if (local_cache_[node].has_value()) continue;
    LocalIndicator& local = local_cache_[node].emplace();
    local.source = node;
    local.entries.reserve(indicator_size_ + 1);
    missing.push_back(&local);
  }
  // Task w fills every tasks-th local with scratch slot w (one slot per
  // pool worker).
  const std::size_t tasks = std::min(missing.size(), nearest_scratch_.size());
  pool.ParallelFor(tasks, [&](std::size_t w) {
    for (std::size_t i = w; i < missing.size(); i += tasks) {
      indicators_.ComputeLocalInto(missing[i]->source, indicator_size_,
                                   nearest_scratch_[w], missing[i]);
    }
  });
}

void ModelConfigurationAdvisor::RebuildGlobal(const ModelConfiguration& config) {
  std::vector<const LocalIndicator*> locals;
  for (NodeId node : config.model_nodes()) locals.push_back(&LocalOf(node));
  global_.Rebuild(locals);
}

void ModelConfigurationAdvisor::SelectCandidates(
    const ModelConfiguration& config, ThreadPool& pool,
    std::vector<NodeId>& positive, std::vector<NodeId>& negative) {
  positive.clear();
  negative.clear();

  const double mean = global_.Mean();
  const double stddev = global_.StdDev();
  const double threshold = mean + gamma_ * stddev;

  // Preselection (Eqs. 5 and 6).
  std::vector<NodeId> eligible;
  for (NodeId node = 0; node < graph_->num_nodes(); ++node) {
    if (config.HasModel(node) || blacklisted_[node]) continue;
    eligible.push_back(node);
    if (global_.value(node) > threshold) positive.push_back(node);
  }
  // Value-descending order with hashed tie-breaking, so that equal
  // indicator values (common while large parts of the graph are uncovered)
  // select spatially spread candidates instead of adjacent node ids.
  auto by_value_spread = [this](NodeId a, NodeId b) {
    const double va = global_.value(a);
    const double vb = global_.value(b);
    if (va != vb) return va > vb;
    return SpreadHash(a) < SpreadHash(b);
  };

  if (positive.empty() && !eligible.empty()) {
    // Fallback: take the highest-indicator eligible nodes so the advisor
    // keeps making progress even when the threshold filtered everything.
    std::partial_sort(
        eligible.begin(),
        eligible.begin() +
            static_cast<std::ptrdiff_t>(std::min(batch_size_, eligible.size())),
        eligible.end(), by_value_spread);
    eligible.resize(std::min(batch_size_, eligible.size()));
    positive = eligible;
  }

  // Bound the ranking work of one iteration: analyzing a candidate means
  // building its local indicator, which is the dominant selection cost.
  const std::size_t candidate_cap =
      options_.max_candidates_per_iteration > 0
          ? options_.max_candidates_per_iteration
          : 4 * batch_size_ + 16;
  if (positive.size() > candidate_cap) {
    std::partial_sort(positive.begin(),
                      positive.begin() + static_cast<std::ptrdiff_t>(candidate_cap),
                      positive.end(), by_value_spread);
    positive.resize(candidate_cap);
  }
  ComputeLocals(positive, pool);

  // Ranking of positive candidates: mean of the temporary global indicator
  // min(global, local_v), lower first (Section IV-A2). The first
  // batch_size_ ranks are assigned sequentially by *marginal* benefit —
  // after a candidate is ranked, its local indicator is merged into a
  // scratch global so overlapping candidates do not crowd one batch.
  std::vector<double> scratch = global_.values();
  const double n = static_cast<double>(scratch.size());
  std::vector<NodeId> remaining = positive;
  std::vector<NodeId> ranked;
  ranked.reserve(positive.size());
  double scratch_sum = 0.0;
  for (double v : scratch) scratch_sum += v;

  auto marginal_score = [&](NodeId v) {
    const LocalIndicator& local = LocalOf(v);
    double delta = 0.0;
    for (const auto& [target, value] : local.entries) {
      const double g = scratch[target];
      if (value < g) delta += value - g;
    }
    return (scratch_sum + delta) / n;
  };

  const std::size_t sequential = std::min(batch_size_, remaining.size());
  for (std::size_t pick = 0; pick < sequential; ++pick) {
    std::size_t best_index = 0;
    double best_score = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      const double score = marginal_score(remaining[i]);
      if (score < best_score) {
        best_score = score;
        best_index = i;
      }
    }
    const NodeId chosen = remaining[best_index];
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(best_index));
    ranked.push_back(chosen);
    // Merge into the scratch global for the next pick.
    for (const auto& [target, value] : LocalOf(chosen).entries) {
      if (value < scratch[target]) {
        scratch_sum += value - scratch[target];
        scratch[target] = value;
      }
    }
  }
  // Remaining candidates keep their one-shot score order.
  std::vector<std::pair<double, NodeId>> scored;
  scored.reserve(remaining.size());
  for (NodeId v : remaining) scored.emplace_back(marginal_score(v), v);
  std::sort(scored.begin(), scored.end());
  positive = std::move(ranked);
  for (const auto& [score, v] : scored) positive.push_back(v);

  // Negative candidates: all model nodes (their indicator is zero), ranked
  // so that the node whose removal hurts the global indicator least comes
  // first. Removing r replaces, at every entry r owns, the minimum by the
  // second-smallest local value, both kept by the global indicator (which
  // holds exactly the locals of the model nodes).
  const std::vector<NodeId> model_nodes = config.model_nodes();
  if (model_nodes.size() >= 2) {
    const std::size_t num_nodes = graph_->num_nodes();
    // Removal penalty of r: sum over owned entries of (second - first).
    std::vector<double> penalty(num_nodes, 0.0);
    for (NodeId t = 0; t < num_nodes; ++t) {
      const NodeId owner = global_.owner(t);
      if (owner != GlobalIndicator::kNoOwner) {
        penalty[owner] += global_.second(t) - global_.value(t);
      }
    }
    std::vector<std::pair<double, NodeId>> removal_scores;
    removal_scores.reserve(model_nodes.size());
    for (NodeId r : model_nodes) removal_scores.emplace_back(penalty[r], r);
    std::sort(removal_scores.begin(), removal_scores.end());
    for (const auto& [score, r] : removal_scores) negative.push_back(r);
  }
}

std::vector<ModelConfigurationAdvisor::CandidateModel>
ModelConfigurationAdvisor::CreateModels(const std::vector<NodeId>& ranked,
                                        ThreadPool& pool) {
  const std::size_t n = std::min(adaptive_batch_, ranked.size());
  std::vector<CandidateModel> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i].node = ranked[i];

  // Revive parked models first (already built and timed).
  std::vector<std::size_t> to_build;
  for (std::size_t i = 0; i < n; ++i) {
    const auto parked = parked_models_.find(out[i].node);
    if (parked != parked_models_.end()) {
      out[i].entry = std::move(parked->second);
      out[i].created = true;
      out[i].newly_built = false;
      parked_models_.erase(parked);
    } else {
      to_build.push_back(i);
    }
  }

  pool.ParallelFor(to_build.size(), [&](std::size_t j) {
    CandidateModel& cand = out[to_build[j]];
    StopWatch watch;
    auto fitted = factory_.CreateAndFit(evaluator_.TrainSeries(cand.node));
    if (!fitted.ok()) {
      F2DB_LOG(kWarning) << "model creation failed at node "
                         << graph_->NodeName(cand.node) << ": "
                         << fitted.status().ToString();
      return;
    }
    cand.entry.model = std::move(fitted).value();
    cand.entry.creation_seconds =
        options_.count_models_as_cost ? 1.0 : watch.ElapsedSeconds();
    cand.entry.test_forecast =
        cand.entry.model->Forecast(evaluator_.test_length());
    cand.created = true;
    cand.newly_built = true;
  });

  // Coverage from the (cached) local indicators; computed on the main
  // thread because LocalOf mutates the cache.
  for (CandidateModel& cand : out) {
    if (!cand.created) continue;
    if (cand.entry.coverage.empty()) {
      for (const auto& [target, value] : LocalOf(cand.node).entries) {
        if (target != cand.node) cand.entry.coverage.push_back(target);
      }
    }
    if (cand.entry.creation_seconds > 0.0) {
      avg_creation_seconds_ =
          (avg_creation_seconds_ * static_cast<double>(creation_samples_) +
           cand.entry.creation_seconds) /
          static_cast<double>(creation_samples_ + 1);
      ++creation_samples_;
    }
  }
  return out;
}

double ModelConfigurationAdvisor::NormalizeCost(double cost_seconds) const {
  // Eq. 8 "requires a normalization so that error and costs are
  // comparable". We express cost in model-equivalents (seconds divided by
  // the average creation time) and price one model at the running average
  // error improvement a candidate model achieves. At alpha = 0.5 this
  // accepts exactly the above-average models; alpha -> 1 accepts any
  // improving model (Eq. 7), matching Figures 8(e)/(f).
  if (creation_samples_ == 0 || improvement_samples_ == 0 ||
      avg_creation_seconds_ <= 0.0) {
    return 0.0;  // no scale information yet: decide on error alone
  }
  const double model_equivalents = cost_seconds / avg_creation_seconds_;
  return model_equivalents * avg_improvement_;
}

bool ModelConfigurationAdvisor::Accept(double err_new, double cost_new,
                                       double err_old, double cost_old) const {
  const double lhs =
      alpha_ * err_new + (1.0 - alpha_) * NormalizeCost(cost_new);
  const double rhs =
      alpha_ * err_old + (1.0 - alpha_) * NormalizeCost(cost_old);
  return lhs < rhs;
}

Result<AdvisorResult> ModelConfigurationAdvisor::Run() {
  if (graph_->series_length() < 5) {
    return Status::FailedPrecondition(
        "advisor: graph series too short (need >= 5 observations)");
  }
  StopWatch total_watch;
  AdvisorResult result{ModelConfiguration(graph_->num_nodes()), {}};
  ModelConfiguration& config = result.configuration;
  result.indicator_size_used = indicator_size_;
  if (!options_.node_weights.empty()) {
    F2DB_RETURN_IF_ERROR(config.SetNodeWeights(options_.node_weights));
  }

  global_ = GlobalIndicator(graph_->num_nodes());
  // One worker pool for the whole run, shared by the local-indicator
  // batches and model creation; joined before Run returns.
  ThreadPool pool(num_threads_);
  MultiSourceOptimizer multi_source(evaluator_, options_.multi_source,
                                    options_.seed);
  if (options_.async_multi_source &&
      options_.multi_source_probes_per_iteration > 0) {
    multi_source.StartAsync();
  }

  // Initialize gamma so that roughly num_threads_ candidates are selected
  // under a normality assumption (Section IV-C1).
  {
    const double n = static_cast<double>(batch_size_);
    const double total = static_cast<double>(graph_->num_nodes());
    const double p = std::clamp(1.0 - n / total, 0.5, 1.0 - 1e-9);
    gamma_ = InverseNormalCdf(p);
  }

  // Optional seed model at the top node (Figure 4 starts this way).
  if (options_.start_with_top_model) {
    const NodeId top = graph_->top_node();
    StopWatch watch;
    auto fitted = factory_.CreateAndFit(evaluator_.TrainSeries(top));
    if (fitted.ok()) {
      ModelEntry entry;
      entry.model = std::move(fitted).value();
      entry.creation_seconds =
          options_.count_models_as_cost ? 1.0 : watch.ElapsedSeconds();
      entry.test_forecast = entry.model->Forecast(evaluator_.test_length());
      for (const auto& [target, value] : LocalOf(top).entries) {
        if (target != top) entry.coverage.push_back(target);
      }
      avg_creation_seconds_ = entry.creation_seconds;
      creation_samples_ = 1;
      config.AddModel(top, std::move(entry));
      config.ApplyModelSchemes(evaluator_, top);
      global_.Merge(LocalOf(top));
      ++result.models_created;
      ++result.models_accepted;
    } else {
      F2DB_LOG(kWarning) << "advisor: could not seed top-node model: "
                         << fitted.status().ToString();
    }
  }

  double best_error_seen = config.MeanError();
  std::size_t consecutive_rejects = 0;
  std::size_t iterations_at_alpha = 0;
  bool stop = false;

  while (!stop) {
    ++result.iterations;
    const std::size_t iteration = result.iterations;

    // ---------------------------------------------- candidate selection
    StopWatch selection_watch;
    std::vector<NodeId> positive;
    std::vector<NodeId> negative;
    SelectCandidates(config, pool, positive, negative);
    const double selection_seconds = selection_watch.ElapsedSeconds();

    if (positive.empty() && negative.empty()) break;  // nothing left to do

    // ------------------------------------------------------- evaluation
    StopWatch evaluation_watch;
    double error_before_iteration = config.MeanError();

    std::vector<CandidateModel> candidates = CreateModels(positive, pool);
    for (CandidateModel& cand : candidates) {
      if (!cand.created) continue;
      if (cand.newly_built) ++result.models_created;
      const double err_old = config.MeanError();
      const double cost_old = config.TotalCostSeconds();

      // The assignments the model improves, kept for rollback.
      std::vector<std::pair<NodeId, NodeAssignment>> saved;
      const NodeId node = cand.node;
      config.AddModel(node, std::move(cand.entry));
      config.ApplyModelSchemes(evaluator_, node, &saved);
      const double err_new = config.MeanError();
      const double cost_new = config.TotalCostSeconds();

      // Track the per-candidate improvement scale (the Eq. 8 cost unit).
      const double improvement = std::max(0.0, err_old - err_new);
      avg_improvement_ =
          (avg_improvement_ * static_cast<double>(improvement_samples_) +
           improvement) /
          static_cast<double>(improvement_samples_ + 1);
      ++improvement_samples_;

      if (Accept(err_new, cost_new, err_old, cost_old)) {
        global_.Merge(LocalOf(node));
        ++result.models_accepted;
        consecutive_rejects = 0;
      } else {
        ModelEntry removed = config.RemoveModel(node);
        // Restoring the saved assignments undoes exactly the improvements
        // ApplyModelSchemes made (it never worsens other assignments).
        for (auto& [target, assignment] : saved) {
          config.set_assignment(target, std::move(assignment));
        }
        ++result.models_rejected;
        ++consecutive_rejects;
        if (err_new >= err_old - 1e-12) {
          blacklisted_[node] = true;  // no error improvement: never again
        } else {
          parked_models_[node] = std::move(removed);  // retry at higher alpha
        }
      }
    }

    // Deletion of the lowest-benefit negative candidate (Section IV-B2).
    if (!negative.empty() && config.num_models() >= 2) {
      const NodeId victim = negative.front();
      const double err_old = config.MeanError();
      const double cost_old = config.TotalCostSeconds();

      // Only nodes whose current scheme uses the victim can change.
      std::vector<NodeId> affected;
      for (NodeId t = 0; t < graph_->num_nodes(); ++t) {
        const auto& sources = config.assignment(t).scheme.sources;
        if (std::find(sources.begin(), sources.end(), victim) !=
            sources.end()) {
          affected.push_back(t);
        }
      }
      std::vector<std::pair<NodeId, NodeAssignment>> saved;
      saved.reserve(affected.size());
      for (NodeId t : affected) saved.emplace_back(t, config.assignment(t));

      ModelEntry removed = config.RemoveModel(victim);
      config.RecomputeNodes(evaluator_, affected);
      const double err_new = config.MeanError();
      const double cost_new = config.TotalCostSeconds();
      if (Accept(err_new, cost_new, err_old, cost_old)) {
        ++result.models_deleted;
        RebuildGlobal(config);
      } else {
        config.AddModel(victim, std::move(removed));
        for (auto& [t, assignment] : saved) {
          config.set_assignment(t, std::move(assignment));
        }
      }
    }
    const double evaluation_seconds = evaluation_watch.ElapsedSeconds();

    // ---------------------------------------------------------- control
    // The gamma / batch-width adjustments react to measured phase times;
    // under count_models_as_cost (the reproducibility mode) they are
    // frozen so wall-clock noise cannot change any decision.
    if (!options_.count_models_as_cost) {
      // Gamma: balance candidate-selection time against evaluation time.
      if (selection_seconds > evaluation_seconds) {
        gamma_ = std::min(gamma_ + 0.25, 6.0);  // fewer candidates
      } else {
        gamma_ = std::max(gamma_ - 0.25, -1.0);  // analyze more candidates
      }

      // Batch width: when model creation dominates the iteration cost,
      // build fewer (but better-ranked) models per iteration and let the
      // candidate selection phase absorb the analysis work instead
      // (Section IV-C1: "the candidate selection phase should not be more
      // expensive than the evaluation phase" — and vice versa).
      const double creation_cost =
          avg_creation_seconds_ * static_cast<double>(adaptive_batch_);
      if (creation_cost > std::max(4.0 * selection_seconds, 0.05)) {
        adaptive_batch_ = std::max<std::size_t>(1, adaptive_batch_ / 2);
      } else if (adaptive_batch_ < batch_size_ &&
                 creation_cost < std::max(2.0 * selection_seconds, 0.025)) {
        ++adaptive_batch_;
      }
    }

    // Multi-source optimizer (Section IV-C2).
    if (options_.multi_source_probes_per_iteration > 0) {
      if (options_.async_multi_source) {
        multi_source.PublishModelNodes(config.model_nodes());
        result.multi_source_adopted += multi_source.DrainSuggestions(config);
      } else {
        result.multi_source_adopted += multi_source.RunProbes(
            config, options_.multi_source_probes_per_iteration);
      }
    }

    // Alpha schedule. While alpha is still rising the per-alpha iteration
    // cap keeps the advisor moving; once alpha has reached its final value
    // only genuine stalls (reject streaks or negligible improvement) end
    // the run — Figure 8(e)/(f) show alpha = 1 as "the best possible
    // configuration", which requires running improvements to exhaustion.
    ++iterations_at_alpha;
    const double error_now = config.MeanError();
    const double relative_improvement =
        error_before_iteration > 1e-12
            ? (error_before_iteration - error_now) / error_before_iteration
            : 0.0;
    const bool at_final_alpha = alpha_ >= options_.final_alpha - 1e-9;
    const bool stalled =
        consecutive_rejects >= options_.max_rejects_per_alpha ||
        relative_improvement < options_.min_relative_improvement;
    const bool bump_alpha =
        stalled ||
        (!at_final_alpha &&
         iterations_at_alpha >= options_.max_iterations_per_alpha);
    if (bump_alpha) {
      alpha_ += options_.alpha_step;
      consecutive_rejects = 0;
      iterations_at_alpha = 0;
      if (alpha_ > options_.final_alpha + 1e-9) stop = true;
    }
    best_error_seen = std::min(best_error_seen, error_now);

    // ----------------------------------------------------------- output
    AdvisorSnapshot snapshot;
    snapshot.iteration = iteration;
    snapshot.error = error_now;
    snapshot.cost_seconds = config.TotalCostSeconds();
    snapshot.num_models = config.num_models();
    snapshot.alpha = std::min(alpha_, options_.final_alpha);
    snapshot.gamma = gamma_;
    snapshot.selection_seconds = selection_seconds;
    snapshot.evaluation_seconds = evaluation_seconds;
    result.history.push_back(snapshot);

    if (options_.verbose) {
      F2DB_LOG(kInfo) << "advisor iter " << iteration << ": error="
                      << snapshot.error << " models=" << snapshot.num_models
                      << " cost=" << snapshot.cost_seconds
                      << "s alpha=" << snapshot.alpha << " gamma=" << gamma_;
    }
    if (callback_ && !callback_(snapshot)) break;

    // Stop criteria (Section IV-D).
    const StopCriteria& criteria = options_.stop;
    if (criteria.target_error.has_value() &&
        snapshot.error <= *criteria.target_error) {
      break;
    }
    if (criteria.target_relative_error.has_value() &&
        result.history.front().error > 1e-12 &&
        snapshot.error / result.history.front().error <=
            *criteria.target_relative_error) {
      break;
    }
    if (criteria.max_cost_seconds.has_value() &&
        snapshot.cost_seconds >= *criteria.max_cost_seconds) {
      break;
    }
    if (criteria.max_models.has_value() &&
        snapshot.num_models >= *criteria.max_models) {
      break;
    }
    if (criteria.max_iterations.has_value() &&
        iteration >= *criteria.max_iterations) {
      break;
    }
  }

  if (options_.async_multi_source) multi_source.StopAsync();

  result.final_error = config.MeanError();
  result.final_cost_seconds = config.TotalCostSeconds();
  result.total_runtime_seconds = total_watch.ElapsedSeconds();
  return result;
}

}  // namespace f2db
