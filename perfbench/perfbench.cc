// One benchmark command for the three users of the system:
//
//   advise  the offline model configuration advisor on GenX-5000 (paper
//           Fig. 9a): core and ts work while engine, storage and server idle.
//   serve   an in-process F2dbServer over loopback answering raw QUERY and
//           prepared EXECUTE requests on GenX-1000: server, wire and the
//           plan cache, with a working set larger than the cache (QUERY)
//           and one that fits (EXECUTE).
//   ingest  a durable F2dbEngine streaming 96 periods of GenX-5000 facts
//           with forecast queries before every period, compactions every
//           8 periods, then close and reopen: engine maintenance, lazy
//           refits and storage (WAL, segments, recovery).
//
// Every workload is seeded by --seed, checks every answer it gets, and
// prints one `metric <name> <value> <unit> n=<samples>` line per metric.
// With --trace 1 the run also records spans around each call it makes into
// a layer (name, start, end, parent span, request id), writes them to
// --spans at the end, and derives the per-layer metrics from them. Nothing
// inside the library is instrumented. See perfbench/README.md.
//
// Usage: perfbench --workload advise|serve|ingest [--seed N] [--seconds S]
//                  [--trace 0|1] [--work-dir DIR] [--spans PATH]

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/advisor_builder.h"
#include "common/rng.h"
#include "core/advisor.h"
#include "core/evaluator.h"
#include "core/indicators.h"
#include "data/datasets.h"
#include "engine/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "ts/accuracy.h"
#include "ts/model_factory.h"

namespace f2db::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// ------------------------------------------------------------ fixed sizes
//
// The sizes below define the benchmark; changing one changes every number
// it reports, so they are constants rather than flags.

// Every workload runs on the same GenX instances (the generator's default
// data seed, as in bench_scalability): the advisor's cost and configuration
// change by up to 15% (GenX-5000) and 50x (GenX-1000) between instances, so
// a per-seed cube would swamp any bound. --seed draws what the workloads
// send: the request streams, prepared statement sets and timed node samples.
constexpr std::uint64_t kDataSeed = 4;
constexpr std::uint64_t kAdvisorSeed = 2013;
constexpr std::size_t kSeason = 12;
constexpr std::size_t kModelsPerIteration = 8;
constexpr std::size_t kMaxIterations = 150;
constexpr std::size_t kAdvisorThreads = 2;
constexpr std::size_t kHistory = 48;  // observations every cube starts with
constexpr std::size_t kHorizon = 4;

constexpr std::size_t kAdviseBase = 5000;
constexpr std::size_t kAdviseSetups = 15;
constexpr std::size_t kAdviseMinBuilds = 3;
constexpr std::size_t kLayerSample = 64;  // nodes timed per layer call

constexpr std::size_t kServeBase = 1000;
constexpr std::size_t kServeSetups = 15;
constexpr std::size_t kReactors = 1;
constexpr std::size_t kWorkers = 1;
constexpr std::size_t kClients = 2;
constexpr std::size_t kPreparedPerClient = 64;
constexpr std::size_t kWarmupOpsPerClient = 4000;
constexpr std::size_t kInprocSamples = 4096;

constexpr std::size_t kIngestBase = 5000;
constexpr std::size_t kIngestSetups = 5;
constexpr std::size_t kIngestPeriods = 96;
constexpr std::size_t kQueriesPerPeriod = 128;
constexpr std::size_t kCompactEvery = 8;
constexpr std::size_t kReopens = 3;
constexpr std::size_t kMaintenanceThreads = 2;
constexpr std::size_t kWalBatchRecords = 64;
constexpr std::size_t kReestimateAfterUpdates = 16;

// Traced runs trace one block of ops in every kTraceEvery (a block is
// kTraceBlock requests on serve, one period on ingest, one build on advise).
// The overhead of tracing is measured against the untraced blocks of the
// same run, and the span dump stays at a few hundred thousand spans.
constexpr std::size_t kTraceBlock = 64;
constexpr std::size_t kTraceEvery = 8;

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string spans_path;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload != "advise" && args.workload != "serve" &&
      args.workload != "ingest") {
    Die("--workload must be advise, serve or ingest");
  }
  if (!(args.seconds > 0)) Die("--seconds must be positive");
  return args;
}

// ------------------------------------------------------------ measurement

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Process CPU time (user + system, all threads) in microseconds.
double ProcessCpuMicros() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

double PeakRssMib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Linear-interpolated quantile (numpy's default); 0 for no samples.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// num / den, or 0 when nothing was counted.
double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

unsigned Nproc() {
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  return online > 0 ? static_cast<unsigned>(online) : 1u;
}

/// Collects metrics and the run's op accounting, then prints them.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    rows_.push_back({name, value, unit, samples});
  }
  /// A count read once per run.
  void Count(const std::string& name, std::size_t value) {
    Add(name, static_cast<double>(value), "count", 1);
  }
  void Config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, value);
  }
  void Config(const std::string& key, std::size_t value) {
    Config(key, std::to_string(value));
  }
  /// One op attempted; `ok` false counts it failed (error or wrong answer).
  void Op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Records why an op failed (after Op(false)); the first few are printed.
  void Note(const std::string& why) {
    if (failures_.size() < 8) failures_.push_back(why);
  }
  /// One failed op.
  void Fail(const std::string& why) {
    Op(false);
    Note(why);
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

  void Print() const {
    std::printf("config");
    for (const auto& [key, value] : config_) {
      std::printf(" %s=%s", key.c_str(), value.c_str());
    }
    std::printf("\n");
    for (const std::string& why : failures_) {
      std::printf("failure %s\n", why.c_str());
    }
    for (const Row& row : rows_) {
      std::printf("metric %s %.17g %s n=%zu\n", row.name.c_str(), row.value,
                  row.unit.c_str(), row.samples);
    }
    std::printf("ops attempted=%zu failed=%zu\n", attempted_, failed_);
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::vector<Row> rows_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::string> failures_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// ------------------------------------------------------------ tracing

/// One timed call into a layer. `name` is "<layer>.<call>"; `parent` is the
/// index of the enclosing span in the same tracer, or -1.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t parent;
  std::uint64_t request;
};

/// Per-thread span recorder. Spans stay in memory until WriteSpans. A
/// disabled tracer records nothing; `active` lets a traced run alternate
/// traced and untraced blocks of ops.
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {
    if (enabled_) spans_.reserve(1u << 16);
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  bool recording() const { return enabled_ && active_; }
  void set_active(bool active) { active_ = active; }
  /// Starts a new request id; spans opened afterwards carry it.
  void NewRequest() { ++request_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// RAII span around one call.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer.recording() ? &tracer : nullptr) {
      if (tracer_ != nullptr) index_ = tracer_->Open(name);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  /// Median duration in microseconds of the spans with this name.
  double MedianMicros(const std::string& name) const {
    std::vector<double> us;
    for (const Span& span : spans_) {
      if (name == span.name) {
        us.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      }
    }
    return Median(us);
  }

 private:
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  std::size_t Open(const char* name) {
    const std::int64_t parent =
        stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    spans_.push_back({name, Now(), 0, parent, request_});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void Close(std::size_t index) {
    spans_[index].end_ns = Now();
    stack_.pop_back();
  }

  bool enabled_;
  bool active_ = true;
  Clock::time_point epoch_;
  std::uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Self time per layer: a span's duration minus what its child spans cover
/// (children of one span are sequential, so their durations add up).
std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, double> self;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::string name = spans[i].name;
      const std::string layer = name.substr(0, name.find('.'));
      self[layer] += static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                         child_ns[i]) /
                     1e9;
    }
  }
  return self;
}

/// Writes every span as one JSON line.
bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<Span>& spans = tracers[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out,
                   "{\"thread\":%zu,\"id\":%zu,\"name\":\"%s\","
                   "\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64
                   ",\"parent\":%" PRId64 ",\"request\":%" PRIu64 "}\n",
                   t, i, s.name, s.start_ns, s.end_ns, s.parent, s.request);
    }
  }
  return std::fclose(out) == 0;
}

/// Per-layer parts of set-up: generation and aggregation from the spans,
/// configuration load and advisor build from the timings taken around them.
void ReportSetupLayer(Report& report, const Tracer& tracer,
                      std::size_t setups, const std::vector<double>& load_s,
                      const std::vector<double>& build_s) {
  report.Add("data.generate_s", tracer.MedianMicros("data.generate") / 1e6,
             "s", setups);
  report.Add("cube.aggregate_s", tracer.MedianMicros("cube.aggregate") / 1e6,
             "s", setups);
  if (!load_s.empty()) {
    report.Add("engine.load_config_s", Median(load_s), "s", load_s.size());
  }
  if (!build_s.empty()) {
    report.Add("core.setup_build_s", Median(build_s), "s", build_s.size());
  }
}

/// Adds the per-layer self times of a traced run to the report.
void ReportSelfTimes(Report& report, const std::vector<const Tracer*>& tracers,
                     const Args& args) {
  const auto self = SelfSecondsByLayer(tracers);
  for (const char* layer :
       {"bench", "data", "cube", "core", "ts", "engine", "server"}) {
    const auto it = self.find(layer);
    report.Add(std::string(layer) + ".self_s",
               it == self.end() ? 0.0 : it->second, "s", 1);
  }
  std::size_t count = 0;
  for (const Tracer* tracer : tracers) count += tracer->spans().size();
  report.Add("trace.spans", static_cast<double>(count), "count", 1);
  if (!args.spans_path.empty() && !WriteSpans(args.spans_path, tracers)) {
    report.Fail("could not write spans to " + args.spans_path);
  }
}

/// Overhead of tracing: traced p50 over untraced p50 of the same op kind,
/// measured in alternating blocks of one run.
double OverheadPct(const std::vector<double>& traced,
                   const std::vector<double>& untraced) {
  if (traced.empty() || untraced.empty()) return 0.0;
  return (Median(traced) / Median(untraced) - 1.0) * 100.0;
}

// ------------------------------------------------------------ shared set-up

AdvisorOptions MakeAdvisorOptions() {
  AdvisorOptions options;
  options.seed = kAdvisorSeed;
  options.num_threads = kAdvisorThreads;
  options.models_per_iteration = kModelsPerIteration;
  options.stop.max_iterations = kMaxIterations;
  // Price models by count: measured creation time would feed wall-clock
  // noise into the acceptance test and make runs diverge.
  options.count_models_as_cost = true;
  return options;
}

ModelFactory MakeFactory() {
  return ModelFactory(ModelSpec::TripleExponentialSmoothing(kSeason));
}

/// Generates GenX with `length` observations, then (re)builds aggregates
/// over its first `keep` observations.
struct Cube {
  std::unique_ptr<DataSet> full;
  std::unique_ptr<TimeSeriesGraph> graph;  // first `keep` observations
};

Result<Cube> MakeCube(std::size_t num_base, std::uint64_t seed,
                      std::size_t length, std::size_t keep, Tracer& tracer) {
  Result<DataSet> generated = [&] {
    Tracer::Scope span(tracer, "data.generate");
    return MakeGenX(num_base, seed, length);
  }();
  if (!generated.ok()) return generated.status();
  Cube cube;
  cube.full = std::make_unique<DataSet>(std::move(generated).value());
  cube.graph = std::make_unique<TimeSeriesGraph>(cube.full->graph);
  if (keep < length) {
    for (NodeId node : cube.graph->base_nodes()) {
      F2DB_RETURN_IF_ERROR(cube.graph->SetBaseSeries(
          node, cube.full->graph.series(node).Head(keep)));
    }
  }
  Tracer::Scope span(tracer, "cube.aggregate");
  F2DB_RETURN_IF_ERROR(cube.graph->BuildAggregates());
  return cube;
}

/// One forecast statement per graph node, in node order.
std::vector<std::string> NodeStatements(const TimeSeriesGraph& graph,
                                        const std::string& horizon) {
  std::vector<std::string> out;
  out.reserve(graph.num_nodes());
  for (NodeId node = 0; node < graph.num_nodes(); ++node) {
    std::string sql = "SELECT time, amount FROM facts";
    const NodeAddress address = graph.AddressOf(node);
    const char* joiner = " WHERE ";
    for (std::size_t d = 0; d < address.coords.size(); ++d) {
      const Hierarchy& h = graph.schema().hierarchy(d);
      const auto& c = address.coords[d];
      if (c.level >= h.num_levels()) continue;  // ALL
      sql += joiner;
      sql += h.level_name(c.level) + " = '" + h.value_name(c.level, c.value) +
             "'";
      joiner = " AND ";
    }
    sql += " AS OF now() + " + horizon;
    out.push_back(std::move(sql));
  }
  return out;
}

std::size_t DrawIndex(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
}

/// `count` distinct node ids drawn uniformly.
std::vector<NodeId> SampleNodes(Rng& rng, std::size_t num_nodes,
                                std::size_t count) {
  std::vector<NodeId> all(num_nodes);
  for (NodeId i = 0; i < num_nodes; ++i) all[i] = i;
  for (std::size_t i = 0; i < count && i < num_nodes; ++i) {
    std::swap(all[i], all[i + DrawIndex(rng, num_nodes - i)]);
  }
  all.resize(std::min(count, num_nodes));
  return all;
}

/// Phase totals of advisor builds: selection and evaluation from the
/// advisor's own per-iteration timings, control as the rest of each build's
/// wall time, so the three add up to the build.
struct BuildPhases {
  std::vector<double> select_s, evaluate_s, control_s, iteration_us;
  std::size_t iterations = 0, created = 0, accepted = 0, indicator_size = 0;

  void Add(const AdvisorResult& result, double wall_s) {
    double sel = 0, eval = 0;
    for (const AdvisorSnapshot& snap : result.history) {
      sel += snap.selection_seconds;
      eval += snap.evaluation_seconds;
      iteration_us.push_back(
          (snap.selection_seconds + snap.evaluation_seconds) * 1e6);
    }
    select_s.push_back(sel);
    evaluate_s.push_back(eval);
    control_s.push_back(wall_s - sel - eval);
    iterations = result.iterations;
    created = result.models_created;
    accepted = result.models_accepted;
    indicator_size = result.indicator_size_used;
  }
};

/// The core per-layer metrics of a run's advisor builds, plus timed
/// IndicatorComputer::ComputeLocal and ModelFactory::CreateAndFit calls on a
/// node sample of the advised cube.
void ReportCoreLayer(Report& report, Tracer& tracer, const BuildPhases& builds,
                     const ConfigurationEvaluator& evaluator,
                     const AdvisorOptions& options,
                     const ModelFactory& factory, std::uint64_t seed) {
  report.Add("core.select_s", Median(builds.select_s), "s",
             builds.select_s.size());
  report.Add("core.evaluate_s", Median(builds.evaluate_s), "s",
             builds.evaluate_s.size());
  report.Add("core.control_s", Median(builds.control_s), "s",
             builds.control_s.size());
  report.Count("core.iterations", builds.iterations);
  report.Count("core.models_created", builds.created);
  report.Add("core.accept_ratio",
             Ratio(static_cast<double>(builds.accepted),
                   static_cast<double>(builds.created)),
             "ratio", 1);
  Rng rng(seed ^ 0x5eed);
  const std::vector<NodeId> sample =
      SampleNodes(rng, evaluator.graph().num_nodes(), kLayerSample);
  IndicatorComputer indicators(evaluator, options.indicator);
  for (NodeId node : sample) {
    tracer.NewRequest();
    Tracer::Scope span(tracer, "core.indicator");
    const LocalIndicator local =
        indicators.ComputeLocal(node, builds.indicator_size);
    report.Op(!local.entries.empty());
  }
  for (NodeId node : sample) {
    tracer.NewRequest();
    Tracer::Scope span(tracer, "ts.fit");
    report.Op(factory.CreateAndFit(evaluator.TrainSeries(node)).ok());
  }
  report.Add("core.indicator_us", tracer.MedianMicros("core.indicator"), "us",
             sample.size());
  report.Add("ts.fit_us", tracer.MedianMicros("ts.fit"), "us", sample.size());
}

// ------------------------------------------------------------ advise

struct AdviseSetup {
  Cube cube;
  std::unique_ptr<ConfigurationEvaluator> evaluator;
};

void RunAdvise(const Args& args, Report& report) {
  const Clock::time_point epoch = Clock::now();
  Tracer tracer(args.trace, epoch);
  const AdvisorOptions options = MakeAdvisorOptions();
  const ModelFactory factory = MakeFactory();

  std::vector<double> setup_s;
  AdviseSetup setup;
  for (std::size_t i = 0; i < kAdviseSetups; ++i) {
    setup.evaluator.reset();
    setup = AdviseSetup{};
    tracer.NewRequest();
    Tracer::Scope span(tracer, "bench.setup");
    const Clock::time_point start = Clock::now();
    auto cube = MakeCube(kAdviseBase, kDataSeed, kHistory, kHistory, tracer);
    if (!cube.ok()) Die(cube.status().ToString());
    setup.cube = std::move(cube).value();
    setup.evaluator =
        std::make_unique<ConfigurationEvaluator>(*setup.cube.graph, 0.8);
    setup_s.push_back(SecondsSince(start));
  }

  std::vector<double> build_us, traced_us, untraced_us, cpu_us;
  BuildPhases phases;
  // One untimed build first: it warms caches and the allocator, and its
  // configuration is the one every timed build must reproduce (models are
  // priced by count, so the advisor is deterministic).
  Result<BuildOutcome> reference =
      AdvisorBuilder(options).Build(*setup.evaluator, factory);
  if (!reference.ok()) Die("advisor: " + reference.status().ToString());
  const double error = reference.value().configuration.MeanError();
  const std::size_t models = reference.value().configuration.num_models();
  const Clock::time_point begin = Clock::now();
  for (std::size_t b = 0;
       b < kAdviseMinBuilds || SecondsSince(begin) < args.seconds; ++b) {
    tracer.set_active(b % kTraceEvery == 0);
    tracer.NewRequest();
    AdvisorBuilder builder(options);
    const double cpu0 = ProcessCpuMicros();
    const Clock::time_point start = Clock::now();
    Result<BuildOutcome> outcome = [&] {
      Tracer::Scope span(tracer, "core.build");
      return builder.Build(*setup.evaluator, factory);
    }();
    const double wall = Micros(start, Clock::now());
    cpu_us.push_back(ProcessCpuMicros() - cpu0);
    if (!outcome.ok() || builder.last_result() == nullptr) {
      report.Fail("advisor build: " + outcome.status().ToString());
      continue;
    }
    const AdvisorResult& result = *builder.last_result();
    const bool same =
        outcome.value().configuration.MeanError() == error &&
        outcome.value().configuration.num_models() == models;
    report.Op(same);
    if (!same) report.Note("a build reached a different configuration");
    build_us.push_back(wall);
    (tracer.recording() ? traced_us : untraced_us).push_back(wall);
    phases.Add(result, wall / 1e6);
  }
  tracer.set_active(true);

  report.Config("advisor_threads", kAdvisorThreads);
  report.Config("models_per_iteration", kModelsPerIteration);
  report.Config("max_iterations", kMaxIterations);
  report.Config("base_series", kAdviseBase);
  report.Config("nodes", setup.cube.graph->num_nodes());
  report.Config("count_models_as_cost", "1");

  const double advise_s = Median(build_us) / 1e6;
  report.Add("setup_s", Median(setup_s), "s", setup_s.size());
  report.Add("advise_s", advise_s, "s", build_us.size());
  report.Add("advise_error", error, "smape", build_us.size());
  report.Add("advise_models", static_cast<double>(models), "count",
             build_us.size());
  // The gated names every workload reports (README.md, "Gated metrics").
  report.Add("op_p50_us", Median(build_us), "us", build_us.size());
  report.Add("op2_p50_us", Median(phases.iteration_us), "us",
             phases.iteration_us.size());
  report.Add("cpu_us_per_op", Median(cpu_us), "us", cpu_us.size());
  report.Add("error", error, "smape", build_us.size());
  report.Add("models", static_cast<double>(models), "count", build_us.size());
  report.Add("rss_mib", PeakRssMib(), "MiB", 1);

  if (!args.trace) return;
  ReportSetupLayer(report, tracer, kAdviseSetups, {}, {});
  report.Add("trace.overhead_pct", OverheadPct(traced_us, untraced_us), "%",
             traced_us.size());
  ReportCoreLayer(report, tracer, phases, *setup.evaluator, options, factory,
                  args.seed);
  ReportSelfTimes(report, {&tracer}, args);
}

// ------------------------------------------------------------ serve

struct ServeSetup {
  Cube cube;
  std::unique_ptr<ConfigurationEvaluator> evaluator;
  std::unique_ptr<F2dbEngine> engine;
  std::unique_ptr<F2dbServer> server;
  double error = 0.0;
  std::size_t models = 0;
};

/// Per-client results of the closed loop.
struct ClientLoop {
  std::vector<double> query_us, execute_us;
  std::vector<double> query_untraced_us;
  std::size_t attempted = 0, failed = 0;
  std::string first_failure;
};

void RunServe(const Args& args, Report& report) {
  const Clock::time_point epoch = Clock::now();
  Tracer tracer(args.trace, epoch);
  const AdvisorOptions options = MakeAdvisorOptions();
  const ModelFactory factory = MakeFactory();

  std::vector<double> setup_s, load_s, build_s;
  BuildPhases phases;
  ServeSetup setup;
  double first_error = -1.0;
  for (std::size_t i = 0; i < kServeSetups; ++i) {
    if (setup.server) setup.server->Shutdown();
    setup.server.reset();
    setup.engine.reset();
    setup = ServeSetup{};
    tracer.NewRequest();
    Tracer::Scope outer(tracer, "bench.setup");
    const Clock::time_point start = Clock::now();
    auto cube = MakeCube(kServeBase, kDataSeed, kHistory, kHistory, tracer);
    if (!cube.ok()) Die(cube.status().ToString());
    setup.cube = std::move(cube).value();
    setup.evaluator =
        std::make_unique<ConfigurationEvaluator>(*setup.cube.graph, 0.8);
    AdvisorBuilder builder(options);
    const Clock::time_point advise_start = Clock::now();
    Result<BuildOutcome> built = [&] {
      Tracer::Scope span(tracer, "core.build");
      return builder.Build(*setup.evaluator, factory);
    }();
    build_s.push_back(SecondsSince(advise_start));
    if (!built.ok()) Die("advisor: " + built.status().ToString());
    phases.Add(*builder.last_result(), build_s.back());
    setup.error = built.value().configuration.MeanError();
    setup.models = built.value().configuration.num_models();
    EngineOptions engine_options;
    engine_options.maintenance_threads = 1;
    setup.engine =
        std::make_unique<F2dbEngine>(*setup.cube.graph, engine_options);
    const Clock::time_point load_start = Clock::now();
    {
      Tracer::Scope span(tracer, "engine.load_config");
      const Status loaded = setup.engine->LoadConfiguration(
          built.value().configuration, *setup.evaluator);
      if (!loaded.ok()) Die("load configuration: " + loaded.ToString());
    }
    load_s.push_back(SecondsSince(load_start));
    ServerOptions server_options;
    server_options.reactor_threads = kReactors;
    server_options.worker_threads = kWorkers;
    setup.server = std::make_unique<F2dbServer>(*setup.engine, server_options);
    {
      Tracer::Scope span(tracer, "server.start");
      const Status started = setup.server->Start();
      if (!started.ok()) Die("server start: " + started.ToString());
    }
    setup_s.push_back(SecondsSince(start));
    if (first_error < 0) first_error = setup.error;
    report.Op(setup.error == first_error);
    if (setup.error != first_error) {
      report.Note("a set-up advised a different configuration");
    }
  }

  // The expected body of every statement, rendered in process. Serve never
  // writes, so the expected answers hold for the whole run.
  const std::vector<std::string> queries =
      NodeStatements(*setup.cube.graph, "'" + std::to_string(kHorizon) + "'");
  const std::vector<std::string> templates =
      NodeStatements(*setup.cube.graph, "?");
  std::vector<std::string> expected(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto result = setup.engine->ExecuteSql(queries[i]);
    if (!result.ok()) Die("in-process query: " + result.status().ToString());
    RenderQueryResultInto(result.value(), &expected[i]);
  }

  const std::uint16_t port = setup.server->port();
  const std::vector<std::string> binds{std::to_string(kHorizon)};
  std::vector<ClientLoop> loops(kClients);
  std::vector<std::unique_ptr<Tracer>> client_tracers;
  for (std::size_t c = 0; c < kClients; ++c) {
    client_tracers.push_back(std::make_unique<Tracer>(args.trace, epoch));
  }
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  EngineStats engine_before;
  double cpu_before = 0.0;
  double rss_mib = 0.0;
  Clock::time_point timed_start;

  // Client 0 runs on the main thread and keeps time, so the timed phase
  // uses kReactors + kWorkers + kClients threads in total.
  const auto client_main = [&](std::size_t c) {
    ClientLoop& loop = loops[c];
    Tracer& ctracer = *client_tracers[c];
    const auto fail = [&](const std::string& why) {
      ++loop.failed;
      if (loop.first_failure.empty()) loop.first_failure = why;
    };
    Rng rng(args.seed * 7919 + c + 1);
    auto connected = F2dbClient::Connect("127.0.0.1", port);
    std::vector<std::uint32_t> stmt_ids;
    std::vector<NodeId> stmt_nodes;
    if (connected.ok()) {
      stmt_nodes = SampleNodes(rng, queries.size(), kPreparedPerClient);
      for (NodeId node : stmt_nodes) {
        auto prepared = connected.value().Prepare(templates[node]);
        if (!prepared.ok()) {
          fail("prepare: " + prepared.status().ToString());
          break;
        }
        stmt_ids.push_back(prepared.value().stmt_id);
      }
    } else {
      fail("connect: " + connected.status().ToString());
    }
    F2dbClient* client =
        connected.ok() && stmt_ids.size() == stmt_nodes.size()
            ? &connected.value()
            : nullptr;

    // One request of the 50/50 mix. Timed requests are counted and their
    // latency kept by op type (QUERY latencies split by traced block).
    const auto one_op = [&](bool timed, bool traced) {
      const bool execute = rng.NextBernoulli(0.5);
      const std::size_t pick = execute ? DrawIndex(rng, stmt_ids.size())
                                       : DrawIndex(rng, queries.size());
      const std::size_t node = execute ? stmt_nodes[pick] : pick;
      ctracer.NewRequest();
      const Clock::time_point sent = Clock::now();
      Result<WireResponse> response = [&] {
        Tracer::Scope span(ctracer,
                           execute ? "server.execute" : "server.query");
        return execute ? client->ExecutePrepared(stmt_ids[pick], binds)
                       : client->Query(queries[pick]);
      }();
      const double us = Micros(sent, Clock::now());
      const bool ok = response.ok() &&
                      response.value().status == StatusCode::kOk &&
                      response.value().body == expected[node];
      if (timed) ++loop.attempted;
      if (!ok) {
        fail(std::string(execute ? "EXECUTE " : "QUERY ") + queries[node] +
             (response.ok() ? " answered a different body"
                            : ": " + response.status().ToString()));
        return false;
      }
      if (!timed) return true;
      if (execute) {
        loop.execute_us.push_back(us);
      } else if (traced || !ctracer.enabled()) {
        loop.query_us.push_back(us);
      } else {
        loop.query_untraced_us.push_back(us);
      }
      return true;
    };

    // Warm-up: plan cache, prepared statements and connection buffers.
    ctracer.set_active(false);
    for (std::size_t i = 0; client != nullptr && i < kWarmupOpsPerClient; ++i) {
      if (!one_op(false, false)) break;
    }
    ready.fetch_add(1);
    if (c == 0) {
      while (ready.load() < kClients) std::this_thread::yield();
      // Peak RSS once set-up and warm-up are done: after this only the
      // harness's own latency buffers grow, with the request count.
      rss_mib = PeakRssMib();
      engine_before = setup.engine->stats();
      cpu_before = ProcessCpuMicros();
      timed_start = Clock::now();
      go.store(true);
    } else {
      while (!go.load()) std::this_thread::yield();
    }
    for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      if (c == 0 && SecondsSince(timed_start) >= args.seconds) {
        stop.store(true);
        break;
      }
      if (client == nullptr || loop.failed > 0) continue;
      const bool traced =
          ctracer.enabled() && (i / kTraceBlock) % kTraceEvery == 0;
      ctracer.set_active(traced);
      one_op(true, traced);
    }
    ctracer.set_active(true);
  };

  std::thread helper(client_main, 1);
  client_main(0);
  helper.join();
  const double elapsed = SecondsSince(timed_start);
  const double cpu_us = ProcessCpuMicros() - cpu_before;
  const EngineStats engine_after = setup.engine->stats();
  const ServerStats server_stats = setup.server->stats();

  std::vector<double> query_us, execute_us, query_untraced_us;
  std::size_t completed = 0;
  for (const ClientLoop& loop : loops) {
    query_us.insert(query_us.end(), loop.query_us.begin(), loop.query_us.end());
    query_untraced_us.insert(query_untraced_us.end(),
                             loop.query_untraced_us.begin(),
                             loop.query_untraced_us.end());
    execute_us.insert(execute_us.end(), loop.execute_us.begin(),
                      loop.execute_us.end());
    // A failure before the timed phase still counts as one failed op.
    const std::size_t attempted = std::max(loop.attempted, loop.failed);
    for (std::size_t i = 0; i < attempted; ++i) report.Op(i >= loop.failed);
    if (!loop.first_failure.empty()) report.Note(loop.first_failure);
    completed += attempted - loop.failed;
  }
  if (server_stats.requests_shed > 0 || server_stats.protocol_errors > 0) {
    report.Fail("server shed or rejected requests");
  }

  report.Config("reactor_threads", kReactors);
  report.Config("worker_threads", kWorkers);
  report.Config("client_threads", kClients);
  report.Config("engine_maintenance_threads", 1);
  report.Config("advisor_threads", kAdvisorThreads);
  report.Config("base_series", kServeBase);
  report.Config("nodes", setup.cube.graph->num_nodes());
  report.Config("prepared_per_client", kPreparedPerClient);
  report.Config("plan_cache_capacity",
                setup.engine->options().plan_cache_capacity);

  const double cpu_per_op = Ratio(cpu_us, static_cast<double>(completed));
  report.Add("setup_s", Median(setup_s), "s", setup_s.size());
  report.Add("query_p50_us", Median(query_us), "us", query_us.size());
  report.Add("query_p90_us", Quantile(query_us, 0.9), "us", query_us.size());
  report.Add("execute_p50_us", Median(execute_us), "us", execute_us.size());
  report.Add("cpu_us_per_op", cpu_per_op, "us", completed);
  report.Add("op_p50_us", Median(query_us), "us", query_us.size());
  report.Add("op2_p50_us", Median(execute_us), "us", execute_us.size());
  report.Add("error", setup.error, "smape", setup_s.size());
  report.Add("models", static_cast<double>(setup.models), "count",
             setup_s.size());
  report.Add("rss_mib", rss_mib, "MiB", 1);

  if (args.trace) {
    const std::size_t hits =
        engine_after.plan_cache_hits - engine_before.plan_cache_hits;
    const std::size_t misses =
        engine_after.plan_cache_misses - engine_before.plan_cache_misses;
    ReportSetupLayer(report, tracer, setup_s.size(), load_s, build_s);
    report.Add("engine.plan_hit_ratio",
               Ratio(static_cast<double>(hits),
                     static_cast<double>(hits + misses)),
               "ratio", hits + misses);
    report.Add("server.ops_per_s", static_cast<double>(completed) / elapsed,
               "1/s", completed);
    report.Add("server.query_p90_us", Quantile(query_us, 0.9), "us",
               query_us.size());
    report.Add("server.query_p99_us", Quantile(query_us, 0.99), "us",
               query_us.size());
    report.Add("server.execute_p99_us", Quantile(execute_us, 0.99), "us",
               execute_us.size());
    report.Count("server.requests_shed", server_stats.requests_shed);
    report.Count("server.protocol_errors", server_stats.protocol_errors);
    report.Add("trace.overhead_pct", OverheadPct(query_us, query_untraced_us),
               "%", query_us.size());

    // Timed calls into the engine on the same statements, in process: the
    // share of a round trip that is parse and forecast work.
    Rng rng(args.seed ^ 0xfeed);
    QueryResult scratch;
    for (std::size_t i = 0; i < kInprocSamples; ++i) {
      const std::size_t node = DrawIndex(rng, queries.size());
      tracer.NewRequest();
      Tracer::Scope parent(tracer, "bench.inproc_query");
      Result<PlanPtr> plan = [&] {
        Tracer::Scope span(tracer, "engine.parse");
        return setup.engine->ParsePlan(queries[node]);
      }();
      if (!plan.ok()) {
        report.Fail("ParsePlan: " + plan.status().ToString());
        continue;
      }
      Status executed;
      {
        Tracer::Scope span(tracer, "engine.execute");
        executed = setup.engine->ExecutePlanInto(
            *plan.value(), plan.value()->tmpl.statement.forecast, &scratch);
      }
      std::string body;
      if (executed.ok()) RenderQueryResultInto(scratch, &body);
      report.Op(executed.ok() && body == expected[node]);
    }
    const double parse_us = tracer.MedianMicros("engine.parse");
    const double exec_us = tracer.MedianMicros("engine.execute");
    report.Add("engine.parse_us", parse_us, "us", kInprocSamples);
    report.Add("engine.execute_us", exec_us, "us", kInprocSamples);
    report.Add("server.query_overhead_us",
               Median(query_us) - parse_us - exec_us, "us", query_us.size());
    report.Add("server.execute_overhead_us", Median(execute_us) - exec_us,
               "us", execute_us.size());
    ReportCoreLayer(report, tracer, phases, *setup.evaluator, options, factory,
                    args.seed);
    std::vector<const Tracer*> all{&tracer};
    for (const auto& t : client_tracers) all.push_back(t.get());
    ReportSelfTimes(report, all, args);
  }
  setup.server->Shutdown();
}

// ------------------------------------------------------------ ingest

struct IngestSetup {
  Cube cube;
  std::unique_ptr<ConfigurationEvaluator> evaluator;
  ModelConfiguration configuration{0};
  std::unique_ptr<F2dbEngine> engine;
};

/// Counts of one ingest cycle; they repeat exactly for one seed.
struct CycleCounts {
  std::size_t queries = 0, reestimates = 0, advances = 0, inserts = 0;
  double served_smape = 0.0;
  bool operator==(const CycleCounts&) const = default;
};

std::uint64_t DirectoryBytes(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

EngineOptions IngestEngineOptions(const std::string& data_dir) {
  EngineOptions options;
  options.data_dir = data_dir;
  options.fsync_policy = FsyncPolicy::kBatch;
  options.wal_batch_records = kWalBatchRecords;
  options.maintenance_threads = kMaintenanceThreads;
  options.reestimate_after_updates = kReestimateAfterUpdates;
  // No time-triggered background work: compaction is driven by period count
  // below, so every run does the same work in the same order.
  options.checkpoint_interval_seconds = 0.0;
  options.compaction_interval_seconds = 0.0;
  options.scrub_interval_seconds = 0.0;
  options.disk_probe_interval_seconds = 0.0;
  return options;
}

/// Opens a fresh data directory and loads the configuration.
Result<std::unique_ptr<F2dbEngine>> OpenFresh(const IngestSetup& setup,
                                              const std::string& dir,
                                              Tracer& tracer) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  std::unique_ptr<F2dbEngine> engine;
  {
    Tracer::Scope span(tracer, "engine.open");
    F2DB_ASSIGN_OR_RETURN(
        engine, F2dbEngine::Open(*setup.cube.graph, IngestEngineOptions(dir)));
  }
  Tracer::Scope span(tracer, "engine.load_config");
  F2DB_RETURN_IF_ERROR(
      engine->LoadConfiguration(setup.configuration, *setup.evaluator));
  return engine;
}

void RunIngest(const Args& args, Report& report) {
  const Clock::time_point epoch = Clock::now();
  Tracer tracer(args.trace, epoch);
  const AdvisorOptions options = MakeAdvisorOptions();
  const ModelFactory factory = MakeFactory();
  const std::string dir =
      (fs::path(args.work_dir) / ("ingest-data-" + std::to_string(::getpid())))
          .string();

  std::vector<double> setup_s, load_s, build_s;
  BuildPhases phases;
  IngestSetup setup;
  for (std::size_t i = 0; i < kIngestSetups; ++i) {
    setup.engine.reset();
    setup = IngestSetup{};
    tracer.NewRequest();
    Tracer::Scope outer(tracer, "bench.setup");
    const Clock::time_point start = Clock::now();
    auto cube = MakeCube(kIngestBase, kDataSeed, kHistory + kIngestPeriods,
                         kHistory, tracer);
    if (!cube.ok()) Die(cube.status().ToString());
    setup.cube = std::move(cube).value();
    setup.evaluator =
        std::make_unique<ConfigurationEvaluator>(*setup.cube.graph, 0.8);
    AdvisorBuilder builder(options);
    const Clock::time_point build_start = Clock::now();
    Result<BuildOutcome> built = [&] {
      Tracer::Scope span(tracer, "core.build");
      return builder.Build(*setup.evaluator, factory);
    }();
    build_s.push_back(SecondsSince(build_start));
    if (!built.ok()) Die("advisor: " + built.status().ToString());
    phases.Add(*builder.last_result(), build_s.back());
    setup.configuration = std::move(built.value().configuration);
    const Clock::time_point load_start = Clock::now();
    auto engine = OpenFresh(setup, dir, tracer);
    if (!engine.ok()) Die("open: " + engine.status().ToString());
    load_s.push_back(SecondsSince(load_start));
    setup.engine = std::move(engine).value();
    setup_s.push_back(SecondsSince(start));
  }

  const TimeSeriesGraph& full = setup.cube.full->graph;
  const std::vector<NodeId> bases = full.base_nodes();
  const std::size_t num_nodes = full.num_nodes();
  const std::vector<std::string> queries =
      NodeStatements(full, "'" + std::to_string(kHorizon) + "'");

  std::vector<double> query_us, query_untraced_us, insert_us, advance_us,
      compact_ms, recover_s, facts_per_s, cpu_per_fact;
  std::vector<CycleCounts> cycles;
  double rss_mib = 0.0;
  EngineStats last_stats, reopened_stats;
  std::uint64_t disk_bytes = 0;
  std::size_t facts_per_cycle = 0;
  const Clock::time_point begin = Clock::now();
  for (std::size_t cycle = 0; cycle == 0 || SecondsSince(begin) < args.seconds;
       ++cycle) {
    if (cycle > 0) {
      setup.engine.reset();
      auto engine = OpenFresh(setup, dir, tracer);
      if (!engine.ok()) Die("open: " + engine.status().ToString());
      setup.engine = std::move(engine).value();
    }
    F2dbEngine* engine = setup.engine.get();
    Rng rng(args.seed * 104729 + 17);
    std::vector<double> actual, served;
    std::size_t facts = 0;
    const EngineStats before = engine->stats();
    const double cpu0 = ProcessCpuMicros();
    const Clock::time_point start = Clock::now();
    for (std::size_t p = 0; p < kIngestPeriods; ++p) {
      const bool traced = p % kTraceEvery == 0;
      tracer.set_active(traced);
      const auto t = static_cast<std::int64_t>(kHistory + p);
      for (std::size_t q = 0; q < kQueriesPerPeriod; ++q) {
        const std::size_t node = DrawIndex(rng, num_nodes);
        tracer.NewRequest();
        const Clock::time_point sent = Clock::now();
        Result<QueryResult> result = [&] {
          Tracer::Scope span(tracer, "engine.query");
          return engine->ExecuteSql(queries[node]);
        }();
        const double us = Micros(sent, Clock::now());
        const bool ok = result.ok() && result.value().rows.size() == kHorizon &&
                        result.value().rows[0].time == t &&
                        result.value().degradation == DegradationLevel::kNone;
        report.Op(ok);
        if (!ok) {
          report.Note("query " + queries[node] + ": " +
                      (result.ok() ? "wrong shape or degraded"
                                   : result.status().ToString()));
          continue;
        }
        (traced || !tracer.enabled() ? query_us : query_untraced_us)
            .push_back(us);
        served.push_back(result.value().rows[0].value);
        actual.push_back(full.series(static_cast<NodeId>(node))[kHistory + p]);
      }
      for (std::size_t i = 0; i < bases.size(); ++i) {
        const bool closes = i + 1 == bases.size();
        tracer.NewRequest();
        const Clock::time_point sent = Clock::now();
        Status inserted;
        {
          Tracer::Scope span(tracer,
                             closes ? "engine.advance" : "engine.insert");
          inserted = engine->InsertFact(
              bases[i], t, full.series(bases[i])[kHistory + p]);
        }
        const double us = Micros(sent, Clock::now());
        report.Op(inserted.ok());
        if (!inserted.ok()) {
          report.Note("insert: " + inserted.ToString());
          continue;
        }
        ++facts;
        (closes ? advance_us : insert_us).push_back(us);
      }
      if ((p + 1) % kCompactEvery == 0) {
        tracer.NewRequest();
        const Clock::time_point c0 = Clock::now();
        Status compacted;
        {
          Tracer::Scope span(tracer, "engine.compact");
          compacted = engine->CompactNow();
        }
        compact_ms.push_back(Micros(c0, Clock::now()) / 1e3);
        report.Op(compacted.ok());
        if (!compacted.ok()) report.Note("compact: " + compacted.ToString());
      }
    }
    tracer.set_active(true);
    const double wall = SecondsSince(start);
    facts_per_s.push_back(static_cast<double>(facts) / wall);
    cpu_per_fact.push_back((ProcessCpuMicros() - cpu0) /
                           static_cast<double>(facts));
    facts_per_cycle = facts;
    last_stats = engine->stats();
    disk_bytes = DirectoryBytes(dir);
    CycleCounts counts;
    counts.queries = last_stats.queries - before.queries;
    counts.reestimates = last_stats.reestimates - before.reestimates;
    counts.advances = last_stats.time_advances - before.time_advances;
    counts.inserts = last_stats.inserts - before.inserts;
    counts.served_smape = Smape(actual, served);
    // One thread interleaves every op, so the work of a cycle repeats
    // exactly.
    const bool repeats = cycles.empty() || counts == cycles.front();
    report.Op(repeats);
    if (!repeats) report.Note("cycle counts differ from the first cycle");
    cycles.push_back(counts);

    // Close and reopen: every node's forecast must survive bit-identically.
    std::vector<std::vector<double>> before_close(num_nodes);
    for (NodeId node = 0; node < num_nodes; ++node) {
      auto forecast = engine->ForecastNode(node, kHorizon);
      report.Op(forecast.ok());
      if (!forecast.ok()) {
        report.Note("forecast before close: " + forecast.status().ToString());
        continue;
      }
      before_close[node] = std::move(forecast).value();
    }
    for (std::size_t r = 0; r < kReopens; ++r) {
      {
        Tracer::Scope span(tracer, "engine.close");
        setup.engine.reset();
      }
      tracer.NewRequest();
      const Clock::time_point open0 = Clock::now();
      Result<std::unique_ptr<F2dbEngine>> reopened = [&] {
        Tracer::Scope span(tracer, "engine.recover");
        return F2dbEngine::Open(*setup.cube.graph, IngestEngineOptions(dir));
      }();
      recover_s.push_back(SecondsSince(open0));
      if (!reopened.ok()) Die("reopen: " + reopened.status().ToString());
      setup.engine = std::move(reopened).value();
      reopened_stats = setup.engine->stats();
      std::size_t mismatched = 0;
      for (NodeId node = 0; node < num_nodes; ++node) {
        auto forecast = setup.engine->ForecastNode(node, kHorizon);
        const bool same =
            forecast.ok() && forecast.value() == before_close[node];
        report.Op(same);
        if (!same) ++mismatched;
      }
      if (mismatched > 0) {
        report.Note(std::to_string(mismatched) +
                    " forecasts differ after reopen");
      }
    }
    engine = nullptr;
    // Peak RSS after the first cycle: later cycles only repeat its work, so
    // the figure does not depend on how many cycles fit into the run.
    if (cycles.size() == 1) rss_mib = PeakRssMib();
  }
  setup.engine.reset();
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (last_stats.refit_failures > 0) {
    report.Fail(std::to_string(last_stats.refit_failures) + " refits failed");
  }

  report.Config("maintenance_threads", kMaintenanceThreads);
  report.Config("advisor_threads", kAdvisorThreads);
  report.Config("client_threads", 1);
  report.Config("fsync_policy", FsyncPolicyName(FsyncPolicy::kBatch));
  report.Config("wal_batch_records", kWalBatchRecords);
  report.Config("base_series", kIngestBase);
  report.Config("nodes", num_nodes);
  report.Config("periods", kIngestPeriods);
  report.Config("queries_per_period", kQueriesPerPeriod);
  report.Config("compact_every", kCompactEvery);
  report.Config("reestimate_after_updates", kReestimateAfterUpdates);
  report.Config("cycles", cycles.size());

  const CycleCounts& counts = cycles.front();
  const double fact_total = static_cast<double>(facts_per_cycle);
  report.Add("setup_s", Median(setup_s), "s", setup_s.size());
  report.Add("query_p50_us", Median(query_us), "us", query_us.size());
  report.Add("query_p90_us", Quantile(query_us, 0.9), "us", query_us.size());
  report.Add("insert_p50_us", Median(insert_us), "us", insert_us.size());
  report.Add("advance_ms", Median(advance_us) / 1e3, "ms", advance_us.size());
  report.Add("facts_per_s", Median(facts_per_s), "1/s", facts_per_s.size());
  report.Add("served_smape", counts.served_smape, "smape", counts.queries);
  report.Add("recover_s", Median(recover_s), "s", recover_s.size());
  report.Add("op_p50_us", Median(query_us), "us", query_us.size());
  report.Add("op2_p50_us", Median(advance_us), "us", advance_us.size());
  report.Add("cpu_us_per_op", Median(cpu_per_fact), "us", cpu_per_fact.size());
  report.Add("error", counts.served_smape, "smape", counts.queries);
  report.Count("models", setup.configuration.num_models());
  report.Add("rss_mib", rss_mib, "MiB", 1);

  if (!args.trace) return;
  const auto per_fact = [&](std::size_t bytes) {
    return static_cast<double>(bytes) / fact_total;
  };
  ReportSetupLayer(report, tracer, setup_s.size(), load_s, build_s);
  report.Add("engine.refit_share",
             Ratio(static_cast<double>(counts.reestimates),
                   static_cast<double>(counts.queries)),
             "ratio", counts.queries);
  report.Add("engine.compact_ms", Median(compact_ms), "ms", compact_ms.size());
  report.Add("engine.recovery_ms", reopened_stats.recovery_duration_ms, "ms",
             1);
  report.Count("engine.wal_records_replayed",
               reopened_stats.wal_records_replayed);
  report.Count("engine.segment_records_loaded",
               reopened_stats.segment_records_recovered);
  report.Count("engine.refit_failures", last_stats.refit_failures);
  report.Count("engine.degraded_rows", last_stats.degraded_rows_stale +
                                           last_stats.degraded_rows_derived +
                                           last_stats.degraded_rows_naive);
  report.Add("storage.wal_bytes_per_fact", per_fact(last_stats.wal_bytes), "B",
             1);
  report.Add("storage.segment_bytes_per_fact",
             per_fact(last_stats.segment_live_bytes), "B", 1);
  report.Add("storage.disk_bytes_per_fact", per_fact(disk_bytes), "B", 1);
  report.Count("storage.compactions", last_stats.compactions_completed);
  report.Count("storage.segments_sealed", last_stats.segments_sealed);
  report.Add("ingest.query_p90_us", Quantile(query_us, 0.9), "us",
             query_us.size());
  report.Add("ingest.insert_p50_us", Median(insert_us), "us",
             insert_us.size());
  report.Add("ingest.insert_p99_us", Quantile(insert_us, 0.99), "us",
             insert_us.size());
  report.Add("ingest.facts_per_s", Median(facts_per_s), "1/s",
             facts_per_s.size());
  report.Add("ingest.recover_s", Median(recover_s), "s", recover_s.size());
  report.Add("trace.overhead_pct", OverheadPct(query_us, query_untraced_us),
             "%", query_us.size());

  // Timed calls into ts on the configuration's own models.
  std::size_t sampled = 0;
  for (NodeId node : setup.configuration.model_nodes()) {
    if (sampled == kLayerSample) break;
    ++sampled;
    const ForecastModel* model = setup.configuration.model(node);
    std::unique_ptr<ForecastModel> copy = model->Clone();
    tracer.NewRequest();
    {
      Tracer::Scope span(tracer, "ts.forecast");
      const std::vector<double> values = copy->Forecast(kHorizon);
      report.Op(values.size() == kHorizon);
    }
    {
      Tracer::Scope span(tracer, "ts.update");
      copy->Update(full.series(node)[kHistory]);
    }
  }
  report.Add("ts.forecast_us", tracer.MedianMicros("ts.forecast"), "us",
             sampled);
  report.Add("ts.update_us", tracer.MedianMicros("ts.update"), "us", sampled);
  ReportCoreLayer(report, tracer, phases, *setup.evaluator, options, factory,
                  args.seed);
  ReportSelfTimes(report, {&tracer}, args);
}

}  // namespace
}  // namespace f2db::perfbench

int main(int argc, char** argv) {
  using namespace f2db::perfbench;
  const Args args = ParseArgs(argc, argv);
  Report report;
  report.Config("workload", args.workload);
  report.Config("seed", std::to_string(args.seed));
  report.Config("seconds", std::to_string(args.seconds));
  report.Config("trace", args.trace ? "1" : "0");
  report.Config("nproc", Nproc());
  if (args.workload == "advise") {
    RunAdvise(args, report);
  } else if (args.workload == "serve") {
    RunServe(args, report);
  } else {
    RunIngest(args, report);
  }
  report.Add("fail_ratio",
             report.attempted() == 0
                 ? 1.0
                 : static_cast<double>(report.failed()) /
                       static_cast<double>(report.attempted()),
             "ratio", report.attempted());
  report.Print();
  return 0;
}
