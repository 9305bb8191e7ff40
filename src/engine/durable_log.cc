#include "engine/durable_log.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "engine/engine.h"
#include "storage/fsio.h"

namespace f2db {

DurableLog::DurableLog(const EngineOptions& options, DurableState& state)
    : options_(options),
      state_(state),
      health_(options.disk_failure_threshold) {}

DurableLog::~DurableLog() {
  {
    std::lock_guard<std::mutex> lock(background_mutex_);
    stopping_ = true;
  }
  background_cv_.notify_all();
  if (background_thread_.joinable()) background_thread_.join();
}

Result<std::unique_ptr<DurableLog>> DurableLog::Open(
    const EngineOptions& options, DurableState& state) {
  // Recovery runs single-threaded: the engine exists but no other thread
  // can reach it yet, and it has no log yet, so the replay goes through
  // the regular maintenance paths without logging the records again.
  RecoveryCallbacks callbacks;
  callbacks.apply_segments =
      std::bind_front(&DurableState::ApplySegmentState, &state);
  callbacks.apply_record =
      std::bind_front(&DurableState::ApplyWalRecord, &state);
  F2DB_ASSIGN_OR_RETURN(RecoveryInfo info,
                        RunRecovery(options.data_dir, callbacks));
  state.EndRecovery();

  std::unique_ptr<DurableLog> log(new DurableLog(options, state));
  log->recovery_ = info;
  log->reseal_segments_ = info.segment_fallback;
  F2DB_ASSIGN_OR_RETURN(
      log->wal_,
      info.create_segment
          ? WalWriter::Create(options.data_dir, info.append_epoch,
                              options.fsync_policy, options.wal_batch_records)
          : WalWriter::Reopen(options.data_dir, info.append_epoch,
                              info.append_valid_bytes, options.fsync_policy,
                              options.wal_batch_records));

  // The segment store opens AFTER recovery: recovery reads the manifest
  // and chain straight from disk, then the store cleans up whatever a
  // crash orphaned (half-written segments, retention leftovers).
  F2DB_ASSIGN_OR_RETURN(log->store_,
                        storage::SegmentStore::Open(options.data_dir));

  if (options.compaction_interval_seconds > 0.0 ||
      options.disk_probe_interval_seconds > 0.0 ||
      options.scrub_interval_seconds > 0.0) {
    log->background_thread_ =
        std::thread([raw = log.get()] { raw->BackgroundLoop(); });
  }
  return log;
}

void DurableLog::StatsInto(EngineStats& out) const {
  const DiskHealthCounters disk = health_.counters();
  F2DB_DURABLE_LOG_METRICS(F2DB_METRIC_COPY_ROW, F2DB_METRIC_SWALLOW,
                           F2DB_METRIC_COPY_ROW)
}

double DurableLog::LastCompactionAgeSeconds() const {
  const double last = last_compaction_seconds_.load(std::memory_order_relaxed);
  return last < 0.0 ? -1.0 : uptime_.ElapsedSeconds() - last;
}

Status DurableLog::Append(std::span<const WalRecord> records) {
  if (!wal_.open()) {
    return Status::Unavailable(
        "WAL writer is broken (an earlier fsync rollback failed); "
        "mutations are refused until the engine is reopened");
  }
  const std::uint64_t before = wal_.bytes_appended();
  F2DB_RETURN_IF_ERROR(wal_.AppendAll(records));
  stats_.wal_records_appended.Add(records.size());
  stats_.wal_bytes.Add(static_cast<std::size_t>(wal_.bytes_appended() - before));
  return Status::OK();
}

// ------------------------------------------------------ disk-fault policy

bool DurableLog::RetryAfter(Status& status, std::size_t tries) {
  // Only statuses carrying an fsio errno marker are disk trouble;
  // validation refusals and failpoint injections pass through untouched.
  const int err = storage::ErrnoFromStatus(status);
  if (err == 0) return false;
  const std::size_t retries = options_.disk_retry_attempts;
  if (tries <= retries) {
    // Bounded in-line retry with linear backoff, off the writer lock — a
    // failed append buffered nothing, so the re-run is a clean mutation.
    health_.RecordRetry();
    if (options_.disk_retry_backoff_ms > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          options_.disk_retry_backoff_ms * static_cast<double>(tries)));
    }
    return true;
  }
  // A full disk may be self-inflicted: once the retries are spent, spend
  // the one-shot emergency retention pass (phase C of the cut reclaims
  // aged sealed history) before giving up on this mutation.
  if (tries == retries + 1 && err == ENOSPC && options_.retention_window > 0 &&
      health_.TakeEmergencyRetentionToken()) {
    stats_.emergency_retentions.Add();
    (void)CompactNow();  // best effort; its failures classify below
    return true;
  }
  if (health_.RecordFailure(err) == DiskHealthState::kReadOnly) {
    F2DB_LOG(kError) << "disk failure streak crossed threshold; engine is "
                        "read-only until the health probe succeeds: "
                     << status.message();
    status = ReadOnlyRejection();
  }
  return false;
}

Status DurableLog::ReadOnlyRejection() const {
  const auto hint = static_cast<long long>(
      std::max(0.0, options_.read_only_retry_after_ms));
  return Status::Unavailable(
      "retry-after-ms=" + std::to_string(hint) +
      "; engine is read-only: disk unhealthy, writes resume after the "
      "health probe succeeds");
}

// ------------------------------------------------------------- the cut

Status DurableLog::RotateLocked(std::span<const WalRecord> tail) {
  if (!wal_.open()) {
    return Status::Unavailable("WAL writer is broken; cannot rotate");
  }
  F2DB_RETURN_IF_ERROR(wal_.Sync());
  auto rotated = WalWriter::Create(options_.data_dir, wal_.epoch() + 1,
                                   options_.fsync_policy,
                                   options_.wal_batch_records);
  if (!rotated.ok()) return rotated.status();
  wal_.Close();
  wal_ = std::move(rotated.value());
  // The tail goes out in one append: one write(2), one sync.
  F2DB_RETURN_IF_ERROR(Append(tail));
  F2DB_RETURN_IF_ERROR(wal_.Sync());
  return storage::SyncDir(options_.data_dir);
}

Status DurableLog::CompactNow() {
  std::lock_guard<std::mutex> serial(compaction_serial_mutex_);

  const Status status = [&]() -> Status {
    const bool has_base = store_->has_manifest();
    storage::ManifestData base = store_->manifest();
    // When recovery fell back because the sealed chain failed validation,
    // extending that chain would commit a higher-epoch manifest over the
    // invalid segments and then delete the WAL epochs the fallback still
    // needs — the next restart would lose acknowledged writes. Instead,
    // reseal the full retained history from memory into a fresh chain
    // (offsets and drop counters survive) and truncate only once that
    // chain is durable.
    const bool reseal = reseal_segments_;
    std::vector<storage::ManifestSegment> invalid_chain;
    if (reseal) {
      invalid_chain = std::move(base.segments);
      base.segments.clear();
    }

    // ---- Phase A, under the writer lock: rotate the WAL and rewrite the
    // live tail into the fresh epoch. After the manifest commits, replay
    // starts HERE — these records carry everything the sealed history
    // does not: the configuration, each model's refit bookkeeping (lazy
    // re-estimation and quarantine state), and the pending insert buffer.
    DurableState::Cut cut;
    F2DB_RETURN_IF_ERROR(
        state_.CaptureCut(&cut, [&] { return RotateLocked(cut.tail); }));
    // Read off the writer lock: only a cut changes the epoch, and this
    // thread holds compaction_serial_mutex_.
    const std::uint64_t new_epoch = wal_.epoch();

    // The cut: everything strictly before the frontier is closed (its
    // batches completed) and gets sealed; [sealed_from, sealed_to).
    const TimeSeriesGraph& graph = *cut.graph;
    const std::vector<NodeId>& base_nodes = graph.base_nodes();
    const TimeSeries& first = graph.series(base_nodes[0]);
    const std::int64_t sealed_from =
        (has_base && !reseal) ? base.sealed_to : first.start_time();
    const std::int64_t sealed_to = first.end_time();

    // The chain, the retention offsets and the drop count carry over.
    storage::ManifestData next = std::move(base);
    next.wal_epoch = new_epoch;
    if (!has_base) next.sealed_from = sealed_from;
    next.sealed_to = sealed_to;
    next.inserts = cut.inserts;
    next.time_advances = cut.time_advances;
    next.reestimates = cut.reestimates;
    next.quarantines = cut.quarantines;
    next.refit_failures = cut.refit_failures;

    // ---- Phase B, off the writer lock: seal, commit, truncate. The
    // manifest rename is the commit point — until it lands, recovery uses
    // the previous artifact and the old (still-undeleted) WAL epochs.
    const std::uint64_t count =
        static_cast<std::uint64_t>(sealed_to - sealed_from);
    if (count > 0) {
      storage::SegmentData segment;
      segment.seq = store_->next_seq();
      segment.start_time = sealed_from;
      segment.count = count;
      segment.series.reserve(base_nodes.size());
      for (NodeId node : base_nodes) {
        const TimeSeries& series = graph.series(node);
        if (series.start_time() > sealed_from) {
          return Status::Internal(
              "series history no longer covers the seal range");
        }
        const std::size_t begin =
            static_cast<std::size_t>(sealed_from - series.start_time());
        storage::SegmentSeries out;
        out.node = node;
        const std::span<const double> sealed =
            series.values().subspan(begin, count);
        out.values.assign(sealed.begin(), sealed.end());
        segment.series.push_back(std::move(out));
      }
      F2DB_ASSIGN_OR_RETURN(const std::uint64_t bytes,
                            store_->WriteSegment(segment));
      storage::ManifestSegment entry;
      entry.seq = segment.seq;
      entry.start_time = segment.start_time;
      entry.count = segment.count;
      entry.num_series = static_cast<std::uint32_t>(segment.series.size());
      entry.bytes = bytes;
      next.segments.push_back(entry);
    }
    F2DB_RETURN_IF_ERROR(store_->CommitManifest(next));
    if (reseal) {
      // The fresh chain is durable and the manifest no longer references
      // the invalidated segments; their files can go (best effort — the
      // next store open sweeps unreferenced leftovers anyway).
      for (const storage::ManifestSegment& seg : invalid_chain) {
        (void)store_->DeleteSegmentFile(seg.seq);
      }
      reseal_segments_ = false;
    }
    if (count > 0) {
      stats_.segments_sealed.Add();
      stats_.segment_records_sealed.Add(
          static_cast<std::size_t>(count * graph.num_base_nodes()));
    }
    storage::FireStorageCrashHook("before_wal_delete");
    // The manifest is durable — WAL epochs below its epoch are redundant.
    // A failed unlink merely leaves a stale segment for the next recovery
    // (or compaction) to clean up.
    auto epochs = ListWalEpochs(options_.data_dir);
    if (epochs.ok()) {
      for (const std::uint64_t epoch : epochs.value()) {
        if (epoch < new_epoch) {
          ::unlink(WalPath(options_.data_dir, epoch).c_str());
        }
      }
    }
    stats_.compactions_completed.Add();
    last_compaction_seconds_.store(uptime_.ElapsedSeconds(),
                                   std::memory_order_relaxed);

    // ---- Phase C: retention. Whole segments entirely older than the
    // window are dropped — their per-series sums fold into the manifest
    // offsets (keeping history sums, and with them derivation weights,
    // exact), the pruned manifest commits, and only then do the files go.
    // The newest segment always survives so the chain stays anchored.
    if (options_.retention_window == 0 || next.segments.size() < 2) {
      return Status::OK();
    }
    const std::int64_t cutoff =
        sealed_to - static_cast<std::int64_t>(options_.retention_window);
    std::vector<storage::ManifestSegment> doomed;
    std::vector<storage::ManifestSegment> kept;
    for (std::size_t i = 0; i < next.segments.size(); ++i) {
      const storage::ManifestSegment& seg = next.segments[i];
      const bool last = (i + 1 == next.segments.size());
      if (!last &&
          seg.start_time + static_cast<std::int64_t>(seg.count) <= cutoff) {
        doomed.push_back(seg);
      } else {
        kept.push_back(seg);
      }
    }
    if (doomed.empty()) return Status::OK();

    std::map<std::uint32_t, double> offset_map(next.offsets.begin(),
                                               next.offsets.end());
    std::uint64_t dropped_records = 0;
    for (const storage::ManifestSegment& seg : doomed) {
      // Decode the doomed file to accumulate the exact sums being
      // forgotten — the values on disk, not a re-derivation.
      F2DB_ASSIGN_OR_RETURN(
          const storage::SegmentData data,
          storage::ReadSegmentFile(
              storage::SegmentPath(store_->dir(), seg.seq)));
      for (const storage::SegmentSeries& series : data.series) {
        double sum = 0.0;
        for (const double v : series.values) sum += v;
        offset_map[series.node] += sum;
      }
      dropped_records += seg.count * seg.num_series;
    }
    storage::ManifestData pruned = next;
    pruned.segments = kept;
    pruned.records_dropped += dropped_records;
    pruned.offsets.assign(offset_map.begin(), offset_map.end());
    F2DB_RETURN_IF_ERROR(store_->CommitManifest(pruned));
    for (const storage::ManifestSegment& seg : doomed) {
      F2DB_RETURN_IF_ERROR(store_->DeleteSegmentFile(seg.seq));
    }
    stats_.retention_segments_deleted.Add(doomed.size());
    stats_.retention_records_dropped.Add(
        static_cast<std::size_t>(dropped_records));

    // In-memory half: forget the same prefix from every series, base and
    // aggregate alike. History sums stay untouched — the offsets now
    // carry the forgotten mass. No other compaction can cut between the
    // pruned manifest commit above and this drop: compactions serialize on
    // compaction_serial_mutex_, so none rewrites a tail over undropped
    // series alongside the pruned offsets.
    return state_.DropHistoryBefore(kept.front().start_time);
  }();

  // Failures only feed disk health: a maintenance success must NOT reset
  // the insert-path failure streak (or re-arm the emergency-retention
  // token), else a working segment path would mask a dead WAL forever and
  // the engine would never reach read-only.
  if (!status.ok()) {
    stats_.compaction_failures.Add();
    const int err = storage::ErrnoFromStatus(status);
    if (err != 0) health_.RecordFailure(err);
  }
  return status;
}

// ------------------------------------------------------ background work

/// A scrub pass in progress: the chain as the pass began (compaction and
/// retention may reshape the live one mid-pass) and how far it got.
struct DurableLog::ScrubPass {
  explicit ScrubPass(storage::ManifestData chain)
      : manifest(std::move(chain)) {}

  storage::ManifestData manifest;
  std::size_t next = 0;  ///< next segment; segments.size(): the manifest
  /// When the next step may run (the last file paced at the read budget).
  std::chrono::steady_clock::time_point resume_at;
  bool finished = false;
  ScrubReport report;
};

bool DurableLog::WaitUntil(std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(background_mutex_);
  return !background_cv_.wait_until(lock, deadline,
                                    [this] { return stopping_; });
}

void DurableLog::BackgroundLoop() {
  using Clock = std::chrono::steady_clock;
  // When a task with cadence `seconds` is next due; a disabled task never.
  const auto after = [](double seconds) {
    if (seconds <= 0.0) return Clock::time_point::max();
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  };
  Clock::time_point compact_due = after(options_.compaction_interval_seconds);
  Clock::time_point probe_due = after(options_.disk_probe_interval_seconds);
  Clock::time_point scrub_due = after(options_.scrub_interval_seconds);
  const std::string sentinel = options_.data_dir + "/.f2db-health-probe";
  std::optional<ScrubPass> pass;

  while (WaitUntil(std::min({compact_due, probe_due, scrub_due}))) {
    if (Clock::now() >= compact_due) {
      // Park while read-only: sealing would only churn the failing device.
      if (!health_.read_only()) {
        const Status status = CompactNow();
        if (!status.ok()) {
          F2DB_LOG(kWarning) << "background compaction failed: "
                             << status.message();
        }
      }
      compact_due = after(options_.compaction_interval_seconds);
    }
    if (Clock::now() >= probe_due) {
      if (health_.read_only()) {
        // One durable sentinel write proves the device accepts writes
        // again; it exercises the same open/write/fsync/rename path the
        // WAL and the manifest depend on.
        const Status probed = storage::WriteFileDurably(
            sentinel, "ok\n", /*hook_before_rename=*/nullptr,
            /*hook_after_rename=*/nullptr, storage::kIoSiteProbeWrite);
        if (probed.ok()) {
          (void)storage::RemoveFile(sentinel);
          if (health_.ExitReadOnly()) {
            F2DB_LOG(kWarning) << "health probe succeeded; leaving read-only";
          }
        }
      }
      probe_due = after(options_.disk_probe_interval_seconds);
    }
    // Park the scrub while read-only: a reseal could not land anyway.
    if (Clock::now() >= scrub_due && health_.read_only()) {
      scrub_due = after(options_.scrub_interval_seconds);
    } else if (Clock::now() >= scrub_due) {
      if (!pass) pass.emplace(store_->manifest());
      const Status status = ScrubStep(*pass);
      if (!status.ok()) {
        F2DB_LOG(kWarning) << "background scrub failed: " << status.message();
      }
      scrub_due = pass->finished ? after(options_.scrub_interval_seconds)
                                 : pass->resume_at;
      if (pass->finished) pass.reset();
    }
  }
}

Status DurableLog::ScrubOnce(ScrubReport* report) {
  ScrubPass pass(store_->manifest());
  Status status;
  do {
    status = ScrubStep(pass);
  } while (status.ok() && !pass.finished && WaitUntil(pass.resume_at));
  if (report != nullptr) *report = pass.report;
  return status;
}

Status DurableLog::ScrubStep(ScrubPass& pass) {
  ScrubReport& out = pass.report;
  bool reseal = false;
  // Each file is verified OFF the serial lock: a missing file is a benign
  // race with compaction or retention (skipped), and corruption is
  // re-checked against the CURRENT manifest before anything is
  // quarantined.
  if (pass.next < pass.manifest.segments.size()) {
    const storage::ManifestSegment& seg = pass.manifest.segments[pass.next++];
    const std::string path = storage::SegmentPath(store_->dir(), seg.seq);
    const auto data = storage::ReadSegmentFile(path);
    if (data.ok()) {
      ++out.segments_verified;
      out.bytes_verified += seg.bytes;
      stats_.scrub_bytes.Add(static_cast<std::size_t>(seg.bytes));
      const double rate =
          static_cast<double>(options_.scrub_rate_bytes_per_second);
      pass.resume_at =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(
                  rate > 0.0 ? static_cast<double>(seg.bytes) / rate : 0.0));
      return Status::OK();
    }
    if (data.status().code() == StatusCode::kNotFound) {
      return Status::OK();  // retention won
    }

    ++out.corruptions;
    stats_.scrub_corruptions.Add();
    F2DB_LOG(kError) << "scrub: corrupt sealed segment " << path << ": "
                     << data.status().message();

    bool still_live = false;
    bool can_reseal = false;
    {
      std::lock_guard<std::mutex> serial(compaction_serial_mutex_);
      const storage::ManifestData current = store_->manifest();
      still_live = std::any_of(
          current.segments.begin(), current.segments.end(),
          [&](const storage::ManifestSegment& live) {
            return live.seq == seg.seq;
          });
      if (still_live) {
        // Quarantine first: recovery and later scrubs must never read the
        // bad bytes again. The file is renamed, not deleted — the evidence
        // stays available for offline repair.
        (void)::rename(path.c_str(), (path + ".corrupt").c_str());
        // A reseal can replace the whole chain only while the in-memory
        // history still reaches back to the chain's first sealed tick
        // (retention forgets the disk-only past in lockstep, so normally
        // it does; the guard protects torn intermediate states).
        can_reseal = !current.segments.empty() &&
                     state_.HistoryReaches(current.segments.front().start_time);
        if (can_reseal) reseal_segments_ = true;
      }
    }
    if (!still_live) return Status::OK();  // compaction already replaced it
    if (!can_reseal) {
      pass.finished = true;
      health_.EnterReadOnly();
      out.entered_read_only = true;
      return Status::Internal("scrub: sealed history at " + path +
                              " is corrupt and no longer reconstructible "
                              "from memory; engine is read-only");
    }
    reseal = true;  // rewrites the manifest too; the pass ends with it
  } else if (store_->has_manifest()) {
    // Manifest: re-read and re-verify its CRC. A corrupt manifest is
    // quarantined and (the cached copy being authoritative) healed by a
    // reseal, which rewrites it wholesale.
    const std::string manifest_path =
        store_->dir() + "/" + storage::kManifestFileName;
    const auto text = storage::ReadFileToString(manifest_path);
    if (text.ok()) {
      out.bytes_verified += text.value().size();
      stats_.scrub_bytes.Add(text.value().size());
      if (!storage::ParseManifest(text.value()).ok()) {
        ++out.corruptions;
        stats_.scrub_corruptions.Add();
        F2DB_LOG(kError) << "scrub: corrupt manifest " << manifest_path;
        std::lock_guard<std::mutex> serial(compaction_serial_mutex_);
        (void)::rename(manifest_path.c_str(),
                       (manifest_path + ".corrupt").c_str());
        reseal_segments_ = true;
        reseal = true;
      }
    }
  }

  pass.finished = true;
  if (reseal) {
    const Status resealed = CompactNow();
    if (!resealed.ok()) {
      out.entered_read_only = health_.EnterReadOnly();
      return resealed;
    }
    out.resealed = true;
    stats_.scrub_reseals.Add();
    F2DB_LOG(kWarning) << "scrub: resealed the segment chain and manifest "
                          "from memory after quarantining a corrupt file";
  }
  stats_.scrub_cycles.Add();
  return Status::OK();
}

}  // namespace f2db
