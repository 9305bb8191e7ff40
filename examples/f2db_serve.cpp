// Standalone F2DB server.
//
// Boots the Tourism demo cube, advises a configuration, and serves the
// statement dialect over TCP until SIGTERM/SIGINT (graceful drain):
//
//   build/examples/f2db_serve [port] [--data-dir DIR] [--fsync POLICY]
//                             [--compaction-interval SECONDS]
//                             [--retention-window PERIODS]
//                             [--scrub-interval SECONDS]
//                             [--scrub-rate-bytes BYTES_PER_SECOND]
//                             [--reactors N] [--shards M]
//
//   port                  listen port; default 2113, 0 = ephemeral
//   --data-dir DIR        run durably: WAL + sealed segments in DIR. On
//                         boot an existing DIR is recovered (segments + WAL
//                         tail) and the advised configuration is NOT
//                         re-applied; an empty DIR starts fresh. SIGTERM
//                         compacts after the drain. With --shards M > 1
//                         each shard keeps its own WAL and segment chain in
//                         DIR/shard-<k> and recovery runs per shard in
//                         parallel.
//   --fsync POLICY        none | batch | always (default batch)
//   --compaction-interval background compaction cadence in seconds: closed
//                         WAL history is sealed into compressed segments
//                         under DIR/segments (per shard with --shards) and
//                         the sealed WAL prefix deleted (default 300;
//                         0 = shutdown compaction only). Requires
//                         --data-dir.
//   --scrub-interval      background integrity-scrub cadence in seconds:
//                         every pass re-reads and CRC-verifies the sealed
//                         segments and the manifest, quarantines
//                         corrupt files as *.corrupt, and reseals the
//                         chain from memory (DESIGN.md §15). 0 (default)
//                         disables the scrubber. Requires --data-dir.
//   --scrub-rate-bytes    scrub read budget in bytes/second (default
//                         4 MiB/s; 0 = unthrottled) so a large chain
//                         cannot starve live queries of disk bandwidth.
//   --retention-window    drop raw history sealed more than PERIODS behind
//                         the time frontier at compaction time; model
//                         state, aggregates, and derivation sums survive.
//                         Size it to at least the model warm-up window
//                         (default 0 = keep everything).
//   --reactors N          epoll reactor threads (default 1). Each reactor
//                         owns its connections exclusively; with N > 1 the
//                         listener uses SO_REUSEPORT per-reactor sockets,
//                         falling back to a single accept thread with
//                         round-robin hand-off where unavailable.
//   --shards M            hash-partition the cube across M independent
//                         engine shards (default 1 = unsharded). Sharded
//                         serving loads the shardable configuration (one
//                         model per base cell, covering schemes) instead
//                         of the advisor's, because advised models at
//                         aggregate nodes span shards. Cross-shard
//                         aggregates answer by scatter-gather.
//
// Talk to it with build/examples/f2db_client, or any client that speaks
// the length-prefixed wire protocol (see DESIGN.md §8; sharding §11).

#include <signal.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "baselines/advisor_builder.h"
#include "common/failpoint.h"
#include "data/datasets.h"
#include "engine/engine.h"
#include "engine/sharded_engine.h"
#include "server/server.h"

int main(int argc, char** argv) {
  using namespace f2db;

  std::uint16_t port = 2113;
  std::size_t reactors = 1;
  std::size_t shards = 1;
  EngineOptions engine_options;
  engine_options.compaction_interval_seconds = 300.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--data-dir") {
      engine_options.data_dir = value();
    } else if (arg == "--fsync") {
      auto policy = ParseFsyncPolicy(value());
      if (!policy.ok()) {
        std::fprintf(stderr, "%s\n", policy.status().ToString().c_str());
        return 2;
      }
      engine_options.fsync_policy = policy.value();
    } else if (arg == "--compaction-interval") {
      engine_options.compaction_interval_seconds = std::atof(value());
    } else if (arg == "--retention-window") {
      const int periods = std::atoi(value());
      if (periods < 0) {
        std::fprintf(stderr, "--retention-window must be >= 0\n");
        return 2;
      }
      engine_options.retention_window = static_cast<std::size_t>(periods);
    } else if (arg == "--scrub-interval") {
      const double seconds = std::atof(value());
      if (seconds < 0.0) {
        std::fprintf(stderr, "--scrub-interval must be >= 0\n");
        return 2;
      }
      engine_options.scrub_interval_seconds = seconds;
    } else if (arg == "--scrub-rate-bytes") {
      const long long rate = std::atoll(value());
      if (rate < 0) {
        std::fprintf(stderr, "--scrub-rate-bytes must be >= 0\n");
        return 2;
      }
      engine_options.scrub_rate_bytes_per_second =
          static_cast<std::size_t>(rate);
    } else if (arg == "--reactors") {
      reactors = static_cast<std::size_t>(std::atoi(value()));
      if (reactors == 0) {
        std::fprintf(stderr, "--reactors must be >= 1\n");
        return 2;
      }
    } else if (arg == "--shards") {
      shards = static_cast<std::size_t>(std::atoi(value()));
      if (shards == 0) {
        std::fprintf(stderr, "--shards must be >= 1\n");
        return 2;
      }
    } else if (!arg.empty() && arg[0] != '-') {
      port = static_cast<std::uint16_t>(std::atoi(arg.c_str()));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  // Arm fault injection when F2DB_FAILPOINTS is set (DESIGN.md §7, §15) so
  // operators can rehearse engine and disk-failure drills against the real
  // serving binary.
  const std::string failpoints = failpoint::InitFromEnv();
  if (!failpoints.empty()) {
    std::fprintf(stderr, "f2db_serve: failpoints armed: %s\n",
                 failpoints.c_str());
  }

  auto data = MakeTourism();
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }

  std::unique_ptr<F2dbEngine> engine;
  std::unique_ptr<ShardedEngine> sharded;
  EngineInterface* serving = nullptr;
  std::size_t num_models = 0;
  auto engine_data = MakeTourism();

  if (shards > 1) {
    ShardedEngineOptions sharded_options;
    sharded_options.num_shards = shards;
    sharded_options.engine = engine_options;
    auto opened =
        ShardedEngine::Open(engine_data.value().graph, sharded_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "sharded open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    sharded = std::move(opened.value());
    const auto count_models = [&] {
      std::size_t total = 0;
      for (const std::size_t p : sharded->active_partitions()) {
        total += sharded->shard(p)->num_models();
      }
      return total;
    };
    num_models = count_models();
    if (num_models == 0) {
      // Fresh shards: the advisor's configuration places models at
      // aggregate nodes, which span shards — load the canonical
      // shardable layout (one model per base cell, covering schemes).
      auto config = BuildShardableConfiguration(
          data.value().graph,
          ModelSpec::TripleExponentialSmoothing(data.value().season), 0.8);
      if (!config.ok()) {
        std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
        return 1;
      }
      if (!sharded->LoadConfiguration(config.value(), 0.8).ok()) {
        std::fprintf(stderr, "sharded load failed\n");
        return 1;
      }
      num_models = count_models();
    } else {
      const EngineStats stats = sharded->stats();
      std::printf("f2db_serve: recovered %zu models across %zu shards "
                  "from %s (%zu WAL records replayed)\n",
                  num_models, sharded->num_active_shards(),
                  engine_options.data_dir.c_str(),
                  stats.wal_records_replayed);
    }
    serving = sharded.get();
  } else {
    ConfigurationEvaluator evaluator(data.value().graph, 0.8);
    ModelFactory factory(
        ModelSpec::TripleExponentialSmoothing(data.value().season));
    if (engine_options.data_dir.empty()) {
      engine = std::make_unique<F2dbEngine>(
          std::move(engine_data.value().graph));
    } else {
      auto opened = F2dbEngine::Open(std::move(engine_data.value().graph),
                                     engine_options);
      if (!opened.ok()) {
        std::fprintf(stderr, "recovery failed: %s\n",
                     opened.status().ToString().c_str());
        return 1;
      }
      engine = std::move(opened.value());
    }

    // A recovered engine already carries its configuration (replayed from
    // the WAL); only a fresh engine needs the advisor's.
    if (engine->num_models() == 0) {
      AdvisorOptions advisor_options;
      advisor_options.models_per_iteration = 8;
      AdvisorBuilder advisor(advisor_options);
      auto built = advisor.Build(evaluator, factory);
      if (!built.ok()) {
        std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
        return 1;
      }
      if (!engine->LoadConfiguration(built.value().configuration, evaluator)
               .ok()) {
        std::fprintf(stderr, "engine load failed\n");
        return 1;
      }
    } else {
      const EngineStats stats = engine->stats();
      std::printf("f2db_serve: recovered %zu models from %s "
                  "(%zu WAL records replayed in %.1f ms)\n",
                  engine->num_models(), engine_options.data_dir.c_str(),
                  stats.wal_records_replayed, stats.recovery_duration_ms);
    }
    num_models = engine->num_models();
    serving = engine.get();
  }

  ServerOptions options;
  options.port = port;
  options.reactor_threads = reactors;
  F2dbServer server(*serving, options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  if (!F2dbServer::InstallSigtermShutdown(&server).ok()) {
    std::fprintf(stderr, "could not install SIGTERM handler\n");
    return 1;
  }
  ::signal(SIGINT, [](int) { ::raise(SIGTERM); });

  std::printf("f2db_serve: tourism cube (%zu models, %zu reactor%s, "
              "%zu shard%s%s) on 127.0.0.1:%u%s%s — SIGTERM drains and "
              "exits\n",
              num_models, reactors, reactors == 1 ? "" : "s", shards,
              shards == 1 ? "" : "s",
              server.accept_handoff_active() ? ", accept hand-off" : "",
              server.port(), serving->durable() ? ", durable in " : "",
              serving->durable() ? engine_options.data_dir.c_str() : "");
  while (server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Shutdown();
  std::printf("f2db_serve: drained, bye\n");
  return 0;
}
