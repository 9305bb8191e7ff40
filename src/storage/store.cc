#include "storage/store.h"

#include <dirent.h>
#include <stdio.h>

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "storage/fsio.h"

namespace f2db::storage {
namespace {

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("segment chain: " + what);
}

}  // namespace

std::string SegmentsDirFor(const std::string& data_dir) {
  return data_dir + "/segments";
}

Result<std::vector<SegmentData>> ReadSegmentChain(
    const std::string& segments_dir, const ManifestData& manifest) {
  std::vector<SegmentData> chain;
  chain.reserve(manifest.segments.size());
  const ManifestSegment* prev = nullptr;
  for (const ManifestSegment& entry : manifest.segments) {
    F2DB_ASSIGN_OR_RETURN(
        const std::string bytes,
        ReadFileToString(SegmentPath(segments_dir, entry.seq)));
    if (bytes.size() != entry.bytes) {
      return Corrupt(SegmentFileName(entry.seq) + " is " +
                     std::to_string(bytes.size()) + " bytes; manifest says " +
                     std::to_string(entry.bytes));
    }
    F2DB_ASSIGN_OR_RETURN(SegmentData segment, DecodeSegment(bytes));
    if (segment.seq != entry.seq ||
        segment.start_time != entry.start_time ||
        segment.count != entry.count ||
        segment.series.size() != entry.num_series) {
      return Corrupt(SegmentFileName(entry.seq) +
                     " disagrees with its manifest entry");
    }
    if (prev != nullptr) {
      if (entry.seq <= prev->seq) return Corrupt("non-ascending seq");
      if (entry.start_time !=
          prev->start_time + static_cast<std::int64_t>(prev->count)) {
        return Corrupt("gap between " + SegmentFileName(prev->seq) + " and " +
                       SegmentFileName(entry.seq));
      }
      if (!chain.empty()) {
        const SegmentData& first = chain.front();
        if (segment.series.size() != first.series.size()) {
          return Corrupt("series set differs across the chain");
        }
        for (std::size_t i = 0; i < segment.series.size(); ++i) {
          if (segment.series[i].node != first.series[i].node) {
            return Corrupt("series set differs across the chain");
          }
        }
      }
    }
    prev = &entry;
    chain.push_back(std::move(segment));
  }
  return chain;
}

Result<std::unique_ptr<SegmentStore>> SegmentStore::Open(
    const std::string& data_dir) {
  const std::string dir = SegmentsDirFor(data_dir);
  F2DB_RETURN_IF_ERROR(EnsureDir(data_dir));
  F2DB_RETURN_IF_ERROR(EnsureDir(dir));
  std::unique_ptr<SegmentStore> store(new SegmentStore(dir));

  auto manifest = ReadManifestFile(dir);
  bool manifest_corrupt = false;
  if (manifest.ok()) {
    store->manifest_ = std::move(manifest).value();
    store->has_manifest_ = true;
  } else if (manifest.status().code() != StatusCode::kNotFound) {
    // An unparsable manifest is treated as absent for serving — recovery
    // has already fallen back to a full WAL replay, and the next
    // compaction reseals from scratch — but its bytes and the segments it
    // referenced are evidence, not garbage: a single flipped bit in the
    // manifest must not turn every sealed segment into a deletable
    // "orphan". Quarantine them as *.corrupt instead so the retention
    // offsets only the manifest records can still be repaired offline.
    // (NotFound simply means no compaction has run yet.)
    manifest_corrupt = true;
    F2DB_LOG(kError) << "segment manifest " << dir << "/" << kManifestFileName
                     << " is unreadable (" << manifest.status().ToString()
                     << "); quarantining it and unreferenced segments as"
                        " *.corrupt — retention offsets may be understated"
                        " until repaired";
    const std::string path = dir + "/" + kManifestFileName;
    if (::rename(path.c_str(), (path + ".corrupt").c_str()) != 0) {
      F2DB_LOG(kWarning) << "cannot quarantine " << path;
    }
  }

  // Remove stale temp files and segments the manifest does not reference
  // (left by a crash between a segment write and the manifest commit, or
  // between a retention commit and the file unlink). With a corrupt
  // manifest the referenced set is unknowable, so segments are
  // quarantined rather than removed.
  std::set<std::string> referenced;
  for (const ManifestSegment& entry : store->manifest_.segments) {
    referenced.insert(SegmentFileName(entry.seq));
  }
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return Status::Internal("opendir " + dir);
  std::vector<std::string> doomed;
  std::vector<std::string> quarantined;
  while (dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    const bool tmp = name.size() > 4 && name.ends_with(".tmp");
    const bool seg = name.starts_with("seg-") && name.ends_with(".f2ds");
    if (tmp) {
      doomed.push_back(name);
    } else if (seg && referenced.find(name) == referenced.end()) {
      (manifest_corrupt ? quarantined : doomed).push_back(name);
    }
  }
  ::closedir(handle);
  for (const std::string& name : doomed) {
    F2DB_RETURN_IF_ERROR(RemoveFile(dir + "/" + name));
  }
  for (const std::string& name : quarantined) {
    const std::string path = dir + "/" + name;
    if (::rename(path.c_str(), (path + ".corrupt").c_str()) != 0) {
      F2DB_LOG(kWarning) << "cannot quarantine " << path;
    }
  }
  return store;
}

bool SegmentStore::has_manifest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return has_manifest_;
}

ManifestData SegmentStore::manifest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return manifest_;
}

std::uint64_t SegmentStore::next_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return manifest_.segments.empty() ? 1 : manifest_.segments.back().seq + 1;
}

Result<std::uint64_t> SegmentStore::WriteSegment(const SegmentData& segment) {
  std::uint64_t bytes = 0;
  F2DB_RETURN_IF_ERROR(WriteSegmentFile(dir_, segment, &bytes));
  return bytes;
}

Status SegmentStore::CommitManifest(ManifestData next) {
  F2DB_RETURN_IF_ERROR(WriteManifestFile(dir_, next));
  std::lock_guard<std::mutex> lock(mutex_);
  manifest_ = std::move(next);
  has_manifest_ = true;
  return Status::OK();
}

Result<std::vector<SegmentData>> SegmentStore::ReadChain() const {
  return ReadSegmentChain(dir_, manifest());
}

Status SegmentStore::DeleteSegmentFile(std::uint64_t seq) {
  return RemoveFile(SegmentPath(dir_, seq));
}

std::uint64_t SegmentStore::live_segments() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return manifest_.segments.size();
}

std::uint64_t SegmentStore::live_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const ManifestSegment& entry : manifest_.segments) {
    total += entry.bytes;
  }
  return total;
}

}  // namespace f2db::storage
