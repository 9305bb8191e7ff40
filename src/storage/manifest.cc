#include "storage/manifest.h"

#include <cinttypes>
#include <cstdio>

#include "common/crc32c.h"
#include "storage/fsio.h"

namespace f2db::storage {
namespace {

/// %.17g round-trips every double exactly.
std::string RenderDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("manifest: ") + what);
}

/// Pops the next '\n'-terminated line; false when the text is exhausted.
bool NextLine(std::string_view* text, std::string* line) {
  if (text->empty()) return false;
  const std::size_t eol = text->find('\n');
  if (eol == std::string_view::npos) {
    line->assign(text->data(), text->size());
    text->remove_prefix(text->size());
  } else {
    line->assign(text->data(), eol);
    text->remove_prefix(eol + 1);
  }
  return true;
}

}  // namespace

std::string SerializeManifest(const ManifestData& manifest) {
  std::string body = "f2db-manifest v1\n";
  char line[256];
  std::snprintf(line, sizeof(line), "epoch %" PRIu64 "\n", manifest.wal_epoch);
  body += line;
  std::snprintf(line, sizeof(line), "sealed %" PRId64 " %" PRId64 "\n",
                manifest.sealed_from, manifest.sealed_to);
  body += line;
  std::snprintf(line, sizeof(line),
                "counters %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                " %" PRIu64 "\n",
                manifest.inserts, manifest.time_advances, manifest.reestimates,
                manifest.quarantines, manifest.refit_failures);
  body += line;
  std::snprintf(line, sizeof(line), "dropped %" PRIu64 "\n",
                manifest.records_dropped);
  body += line;
  std::snprintf(line, sizeof(line), "offsets %zu\n", manifest.offsets.size());
  body += line;
  for (const auto& [node, sum] : manifest.offsets) {
    std::snprintf(line, sizeof(line), "%" PRIu32 " ", node);
    body += line;
    body += RenderDouble(sum);
    body += '\n';
  }
  std::snprintf(line, sizeof(line), "segments %zu\n",
                manifest.segments.size());
  body += line;
  for (const ManifestSegment& seg : manifest.segments) {
    std::snprintf(line, sizeof(line),
                  "%" PRIu64 " %" PRId64 " %" PRIu64 " %" PRIu32 " %" PRIu64
                  "\n",
                  seg.seq, seg.start_time, seg.count, seg.num_series,
                  seg.bytes);
    body += line;
  }
  std::snprintf(line, sizeof(line), "crc %08x\n",
                Crc32c(body.data(), body.size()));
  body += line;
  return body;
}

Result<ManifestData> ParseManifest(std::string_view text) {
  const std::size_t trailer = text.rfind("crc ");
  if (trailer == std::string_view::npos || trailer == 0 ||
      text[trailer - 1] != '\n' || text.back() != '\n' ||
      text.find('\n', trailer) != text.size() - 1) {
    return Malformed("missing crc trailer");
  }
  std::uint32_t stored_crc = 0;
  if (std::sscanf(text.data() + trailer, "crc %8" SCNx32, &stored_crc) != 1) {
    return Malformed("unparsable crc trailer");
  }
  std::string_view body = text.substr(0, trailer);
  if (stored_crc != Crc32c(body.data(), body.size())) {
    return Malformed("crc mismatch");
  }

  ManifestData manifest;
  std::string line;
  if (!NextLine(&body, &line) || line != "f2db-manifest v1") {
    return Malformed("bad header");
  }
  if (!NextLine(&body, &line) ||
      std::sscanf(line.c_str(), "epoch %" SCNu64, &manifest.wal_epoch) != 1) {
    return Malformed("bad epoch line");
  }
  if (!NextLine(&body, &line) ||
      std::sscanf(line.c_str(), "sealed %" SCNd64 " %" SCNd64,
                  &manifest.sealed_from, &manifest.sealed_to) != 2) {
    return Malformed("bad sealed line");
  }
  if (!NextLine(&body, &line) ||
      std::sscanf(line.c_str(),
                  "counters %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                  " %" SCNu64,
                  &manifest.inserts, &manifest.time_advances,
                  &manifest.reestimates, &manifest.quarantines,
                  &manifest.refit_failures) != 5) {
    return Malformed("bad counters line");
  }
  if (!NextLine(&body, &line) ||
      std::sscanf(line.c_str(), "dropped %" SCNu64,
                  &manifest.records_dropped) != 1) {
    return Malformed("bad dropped line");
  }
  std::size_t num_offsets = 0;
  if (!NextLine(&body, &line) ||
      std::sscanf(line.c_str(), "offsets %zu", &num_offsets) != 1) {
    return Malformed("bad offsets line");
  }
  manifest.offsets.reserve(num_offsets);
  for (std::size_t i = 0; i < num_offsets; ++i) {
    std::uint32_t node = 0;
    double sum = 0.0;
    if (!NextLine(&body, &line) ||
        std::sscanf(line.c_str(), "%" SCNu32 " %lg", &node, &sum) != 2) {
      return Malformed("bad offset entry");
    }
    manifest.offsets.emplace_back(node, sum);
  }
  std::size_t num_segments = 0;
  if (!NextLine(&body, &line) ||
      std::sscanf(line.c_str(), "segments %zu", &num_segments) != 1) {
    return Malformed("bad segments line");
  }
  manifest.segments.reserve(num_segments);
  for (std::size_t i = 0; i < num_segments; ++i) {
    ManifestSegment seg;
    if (!NextLine(&body, &line) ||
        std::sscanf(line.c_str(),
                    "%" SCNu64 " %" SCNd64 " %" SCNu64 " %" SCNu32 " %" SCNu64,
                    &seg.seq, &seg.start_time, &seg.count, &seg.num_series,
                    &seg.bytes) != 5) {
      return Malformed("bad segment entry");
    }
    manifest.segments.push_back(seg);
  }
  if (NextLine(&body, &line) && !line.empty()) {
    return Malformed("trailing content");
  }
  return manifest;
}

Status WriteManifestFile(const std::string& dir,
                         const ManifestData& manifest) {
  return WriteFileDurably(dir + "/" + kManifestFileName,
                          SerializeManifest(manifest),
                          "before_manifest_rename", "after_manifest_rename",
                          kIoSiteManifestCommit);
}

Result<ManifestData> ReadManifestFile(const std::string& dir) {
  F2DB_ASSIGN_OR_RETURN(const std::string text,
                        ReadFileToString(dir + "/" + kManifestFileName));
  auto parsed = ParseManifest(text);
  if (!parsed.ok()) {
    return Status(parsed.status().code(),
                  dir + "/" + kManifestFileName + ": " +
                      parsed.status().message());
  }
  return parsed;
}

}  // namespace f2db::storage
