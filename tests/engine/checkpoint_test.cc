// The durable cut: a compaction is the engine's only snapshot of state
// the sealed history does not hold, so its rewritten WAL tail must carry
// every model's refit bookkeeping. These tests pin the kBookkeeping record
// (round trip, determinism, golden bytes, corruption and size checks) and
// the cut's write/load/failure semantics end to end.

#include <unistd.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/advisor_builder.h"
#include "common/failpoint.h"
#include "core/evaluator.h"
#include "engine/engine.h"
#include "engine/sharded_engine.h"
#include "engine/wal.h"
#include "storage/fsio.h"
#include "storage/manifest.h"
#include "storage/store.h"
#include "testing/crash.h"
#include "testing/test_cubes.h"
#include "gtest/gtest.h"

namespace f2db {
namespace {

std::string ToHex(const std::string& bytes) {
  std::string out;
  char buf[3];
  for (const unsigned char c : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", c);
    out += buf;
  }
  return out;
}

/// The body (type byte + payload) of a framed record.
std::string Body(const WalRecord& record) {
  return EncodeWalRecord(record).substr(8);
}

/// The refit bookkeeping of one model, as the compaction tail logs it.
struct Bookkeeping {
  NodeId node = 0;
  bool invalid = false;
  std::size_t updates = 0;
  std::size_t failures = 0;
  bool quarantined = false;
  bool operator==(const Bookkeeping&) const = default;
};

std::vector<Bookkeeping> BookkeepingOf(const F2dbEngine& engine) {
  std::vector<Bookkeeping> out;
  for (const ModelView live : engine.snapshot()->models) {
    out.push_back({live.node, live.record->invalid,
                   live.record->updates_since_estimate,
                   live.record->refit_failures, live.record->quarantined});
  }
  return out;
}

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest()
      : evaluator_graph_(testing::MakeRegionCube(48, 0.0)),
        evaluator_(evaluator_graph_, 0.8),
        factory_(ModelSpec::TripleExponentialSmoothing(4)) {
    AdvisorOptions options;
    options.stop.max_iterations = 8;
    options.seed = 123;
    AdvisorBuilder builder(options);
    auto outcome = builder.Build(evaluator_, factory_);
    EXPECT_TRUE(outcome.ok());
    config_ = std::move(outcome.value().configuration);
  }

  void SetUp() override {
    char tmpl[] = "/tmp/f2db_cut_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    failpoint::DisableAll();
    testing::RemoveDirectoryTree(dir_);
  }

  EngineOptions DurableOptions() const {
    EngineOptions options;
    options.maintenance_threads = 1;
    options.data_dir = dir_;
    options.fsync_policy = FsyncPolicy::kAlways;
    options.reestimate_after_updates = 2;
    options.quarantine_after_refit_failures = 1;
    return options;
  }

  std::unique_ptr<F2dbEngine> Open() {
    auto engine =
        F2dbEngine::Open(testing::MakeRegionCube(48, 0.0), DurableOptions());
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return engine.ok() ? std::move(engine).value() : nullptr;
  }

  void LoadConfig(F2dbEngine& engine) {
    const Status loaded = engine.LoadConfiguration(config_, evaluator_);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  }

  static void Advance(F2dbEngine& engine, int periods) {
    const std::vector<NodeId> bases = engine.graph().base_nodes();
    for (int period = 0; period < periods; ++period) {
      const std::int64_t t =
          engine.snapshot()->graph->series(bases[0]).end_time();
      for (std::size_t i = 0; i < bases.size(); ++i) {
        const Status status =
            engine.InsertFact(bases[i], t, 10.0 + static_cast<double>(i));
        ASSERT_TRUE(status.ok()) << status.message();
      }
    }
  }

  std::string ManifestPath() const {
    return storage::SegmentsDirFor(dir_) + "/" + storage::kManifestFileName;
  }

  TimeSeriesGraph evaluator_graph_;
  ConfigurationEvaluator evaluator_;
  ModelFactory factory_;
  ModelConfiguration config_;
  std::string dir_;
};

TEST_F(CheckpointTest, SerializeParseRoundTrip) {
  for (const WalRecord& record :
       {WalRecord::Bookkeeping(7, true, 3, 0, false),
        WalRecord::Bookkeeping(0, false, 0, 2, true),
        WalRecord::Bookkeeping(0xfffffffeu, true, ~std::uint64_t{0}, 9,
                               true)}) {
    auto decoded = DecodeWalRecordBody(Body(record));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().kind, WalRecord::Kind::kBookkeeping);
    EXPECT_EQ(decoded.value().node, record.node);
    EXPECT_EQ(decoded.value().invalid, record.invalid);
    EXPECT_EQ(decoded.value().updates, record.updates);
    EXPECT_EQ(decoded.value().count, record.count);
    EXPECT_EQ(decoded.value().quarantined, record.quarantined);
  }
}

TEST_F(CheckpointTest, SerializationIsDeterministic) {
  EXPECT_EQ(EncodeWalRecord(WalRecord::Bookkeeping(4, true, 2, 1, false)),
            EncodeWalRecord(WalRecord::Bookkeeping(4, true, 2, 1, false)));
  // Every field reaches the bytes.
  const std::string base =
      EncodeWalRecord(WalRecord::Bookkeeping(4, true, 2, 1, false));
  for (const WalRecord& other :
       {WalRecord::Bookkeeping(5, true, 2, 1, false),
        WalRecord::Bookkeeping(4, false, 2, 1, false),
        WalRecord::Bookkeeping(4, true, 3, 1, false),
        WalRecord::Bookkeeping(4, true, 2, 0, false),
        WalRecord::Bookkeeping(4, true, 2, 1, true)}) {
    EXPECT_NE(base, EncodeWalRecord(other));
  }
}

TEST_F(CheckpointTest, GoldenTextPinsTheV1Layout) {
  // Any change to these strings is an on-disk format change: bump
  // kWalFormatVersion and provide a migration story before repinning.
  // Layout: u32 length | u32 crc | u8 kind 5 | u32 node | u8 flags
  // (1 invalid, 2 quarantined) | u64 updates | u64 refit failures.
  EXPECT_EQ(ToHex(EncodeWalRecord(WalRecord::Bookkeeping(3, true, 2, 1,
                                                         false))),
            "16000000f21eecfb05030000000102000000000000000100000000000000");
  EXPECT_EQ(ToHex(EncodeWalRecord(WalRecord::Bookkeeping(9, false, 0, 4,
                                                         true))),
            "16000000e6fc53e005090000000200000000000000000400000000000000");
}

TEST_F(CheckpointTest, DetectsCorruption) {
  {
    auto writer = WalWriter::Create(dir_, 1, FsyncPolicy::kAlways, 1);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer.value().Append(WalRecord::Insert(1, 10, 1.0)).ok());
    ASSERT_TRUE(
        writer.value().Append(WalRecord::Bookkeeping(2, true, 5, 0, false))
            .ok());
  }
  // Flip the updates field of the bookkeeping record (the last byte of the
  // file is the top byte of its refit-failure count; the updates field
  // sits 8 bytes earlier).
  const std::string path = WalPath(dir_, 1);
  auto raw = storage::ReadFileToString(path);
  ASSERT_TRUE(raw.ok());
  std::string tampered = raw.value();
  tampered[tampered.size() - 9] =
      static_cast<char>(tampered[tampered.size() - 9] ^ 0x01);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << tampered;
  }
  auto read = ReadWalSegment(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read.value().torn_tail) << "the CRC must reject the flip";
  ASSERT_EQ(read.value().records.size(), 1u);
  EXPECT_EQ(read.value().records[0].kind, WalRecord::Kind::kInsert);

  // Flag bits outside {invalid, quarantined} are rejected, not ignored.
  std::string body = Body(WalRecord::Bookkeeping(2, false, 0, 0, false));
  body[5] = 4;
  EXPECT_EQ(DecodeWalRecordBody(body).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, RejectsVersionMismatch) {
  // A bookkeeping body of any other size is a layout this build does not
  // know; it must fail loudly instead of misparsing.
  const std::string body = Body(WalRecord::Bookkeeping(2, true, 5, 1, false));
  ASSERT_TRUE(DecodeWalRecordBody(body).ok());
  EXPECT_EQ(DecodeWalRecordBody(body.substr(0, body.size() - 1))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeWalRecordBody(body + '\0').status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, WriteLoadRoundTripAndNotFound) {
  // Each reopen loads the cut: segments plus the rewritten tail, whose
  // bookkeeping records restore every model's record and move no counter.
  const auto expect_restored = [](const F2dbEngine& engine,
                                  const std::vector<Bookkeeping>& want,
                                  const EngineStats& counters) {
    const EngineStats stats = engine.stats();
    EXPECT_GT(stats.segment_records_recovered, 0u);
    EXPECT_EQ(stats.wal_records_replayed, 1u + want.size());
    EXPECT_EQ(BookkeepingOf(engine), want);
    EXPECT_EQ(stats.inserts, counters.inserts);
    EXPECT_EQ(stats.time_advances, counters.time_advances);
    EXPECT_EQ(stats.reestimates, counters.reestimates);
    EXPECT_EQ(stats.quarantines, counters.quarantines);
    EXPECT_EQ(stats.refit_failures, counters.refit_failures);
  };
  std::vector<Bookkeeping> before;
  EngineStats counters;
  {
    auto engine = Open();
    // No compaction yet: there is no durable cut to load.
    EXPECT_EQ(storage::ReadManifestFile(storage::SegmentsDirFor(dir_))
                  .status()
                  .code(),
              StatusCode::kNotFound);
    LoadConfig(*engine);
    Advance(*engine, 3);  // every model invalid, 3 updates since estimate
    before = BookkeepingOf(*engine);
    ASSERT_FALSE(before.empty());
    for (const Bookkeeping& model : before) {
      ASSERT_TRUE(model.invalid) << "node " << model.node;
      ASSERT_EQ(model.updates, 3u) << "node " << model.node;
      ASSERT_FALSE(model.quarantined) << "node " << model.node;
    }
    counters = engine->stats();
    ASSERT_TRUE(engine->CompactNow().ok());
  }
  {
    auto engine = Open();
    expect_restored(*engine, before, counters);
    // A failing refit of the top node's sources quarantines them (the
    // threshold is 1): their records now also carry failures and the flag.
    failpoint::Enable(kFailpointEngineRefit, failpoint::Policy::Always());
    ASSERT_TRUE(engine->ForecastNode(engine->graph().top_node(), 1).ok());
    failpoint::DisableAll();
    before = BookkeepingOf(*engine);
    counters = engine->stats();
    ASSERT_GE(counters.quarantines, 1u);
    ASSERT_TRUE(engine->CompactNow().ok());
  }
  auto engine = Open();
  expect_restored(*engine, before, counters);
}

TEST_F(CheckpointTest, BookkeepingTailReplaysAsOnePublication) {
  // A reopen publishes one snapshot for the whole run of bookkeeping
  // records in a compaction's tail, not one per record: each publication
  // would copy the record table, making the replay O(models^2).
  // One model per base cell, so the tail holds a run of several records.
  auto per_cell = BuildShardableConfiguration(
      evaluator_graph_, ModelSpec::TripleExponentialSmoothing(4), 0.8);
  ASSERT_TRUE(per_cell.ok()) << per_cell.status().ToString();
  std::uint64_t catalog_only_version = 0;
  {
    auto engine = Open();
    ASSERT_TRUE(engine->LoadConfiguration(per_cell.value(), evaluator_).ok());
    ASSERT_TRUE(engine->CompactNow().ok());  // every model at its defaults
  }
  {
    auto engine = Open();
    EXPECT_EQ(engine->stats().wal_records_replayed, 1u);  // the catalog
    catalog_only_version = engine->snapshot()->version;
    Advance(*engine, 3);  // every model invalid
    ASSERT_TRUE(engine->CompactNow().ok());
  }
  auto engine = Open();
  const std::size_t models = BookkeepingOf(*engine).size();
  ASSERT_GE(models, 2u);
  EXPECT_EQ(engine->stats().wal_records_replayed, 1u + models);
  EXPECT_EQ(engine->snapshot()->version, catalog_only_version + 1);
  for (const Bookkeeping& model : BookkeepingOf(*engine)) {
    EXPECT_TRUE(model.invalid) << "node " << model.node;
    EXPECT_EQ(model.updates, 3u) << "node " << model.node;
  }
}

TEST_F(CheckpointTest, FailedWriteLeavesThePreviousCheckpointIntact) {
  std::vector<Bookkeeping> before;
  {
    auto engine = Open();
    LoadConfig(*engine);
    Advance(*engine, 1);
    ASSERT_TRUE(engine->CompactNow().ok());
    Advance(*engine, 2);

    failpoint::Enable(storage::kIoSiteManifestCommit,
                      failpoint::Policy::Always());
    EXPECT_FALSE(engine->CompactNow().ok());
    failpoint::Disable(storage::kIoSiteManifestCommit);
    EXPECT_EQ(engine->stats().compaction_failures, 1u);
    EXPECT_EQ(engine->stats().compactions_completed, 1u);

    // The previous manifest still names epoch 2, and both the epoch it
    // names and the one the failed compaction rotated to survive.
    auto manifest = storage::ReadManifestFile(storage::SegmentsDirFor(dir_));
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    EXPECT_EQ(manifest.value().wal_epoch, 2u);
    auto epochs = ListWalEpochs(dir_);
    ASSERT_TRUE(epochs.ok());
    EXPECT_EQ(epochs.value(), (std::vector<std::uint64_t>{2, 3}));

    before = BookkeepingOf(*engine);
  }

  // The reopen replays both epochs on the previous cut; the failed
  // compaction's tail restores the same bookkeeping it found.
  auto engine = Open();
  EXPECT_EQ(BookkeepingOf(*engine), before);
  // ...so the pending refit happens exactly where a never-closed engine
  // does it.
  EngineOptions options = DurableOptions();
  options.data_dir.clear();
  F2dbEngine control(testing::MakeRegionCube(48, 0.0), options);
  LoadConfig(control);
  Advance(control, 3);
  auto got = engine->ForecastNode(engine->graph().top_node(), 3);
  auto want = control.ForecastNode(control.graph().top_node(), 3);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(got.value(), want.value());
  EXPECT_EQ(engine->stats().reestimates, control.stats().reestimates);
}

TEST_F(CheckpointTest, LoadRejectsTruncatedFile) {
  {
    auto engine = Open();
    LoadConfig(*engine);
    Advance(*engine, 2);
    ASSERT_TRUE(engine->CompactNow().ok());
  }
  // A truncated manifest fails its CRC. Recovery then falls back to a full
  // WAL replay — but the compaction deleted the sealed WAL prefix, so the
  // open must fail loudly instead of serving a shorter history.
  auto raw = storage::ReadFileToString(ManifestPath());
  ASSERT_TRUE(raw.ok());
  {
    std::ofstream out(ManifestPath(), std::ios::binary | std::ios::trunc);
    out << raw.value().substr(0, raw.value().size() / 2);
  }
  auto engine =
      F2dbEngine::Open(testing::MakeRegionCube(48, 0.0), DurableOptions());
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInternal);
  EXPECT_NE(engine.status().message().find("WAL history is missing"),
            std::string::npos)
      << engine.status().ToString();
}

}  // namespace
}  // namespace f2db
