#include "engine/checkpoint.h"

#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <string.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/crc32c.h"
#include "engine/wal.h"
#include "storage/fsio.h"

namespace f2db {
namespace {

/// %.17g round-trips every finite double through text exactly.
std::string RenderDouble(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::string CheckpointPath(const std::string& dir) {
  return dir + "/checkpoint.f2db";
}

std::string SerializeCheckpoint(const CheckpointState& state) {
  std::string body;
  body.reserve(4096);
  body += "f2db-checkpoint v";
  body += std::to_string(kCheckpointFormatVersion);
  body += "\n";
  body += "epoch " + std::to_string(state.wal_epoch) + "\n";
  body += "counters " + std::to_string(state.inserts) + " " +
          std::to_string(state.time_advances) + " " +
          std::to_string(state.reestimates) + " " +
          std::to_string(state.quarantines) + " " +
          std::to_string(state.refit_failures) + "\n";

  const std::size_t length =
      state.base_series.empty() ? 0 : state.base_series.front().second.size();
  body += "base " + std::to_string(state.base_series.size()) + " " +
          std::to_string(state.base_start_time) + " " +
          std::to_string(length) + "\n";
  for (const auto& [node, values] : state.base_series) {
    body += std::to_string(node);
    for (const double v : values) {
      body += " ";
      body += RenderDouble(v);
    }
    body += "\n";
  }

  body += "schemes " + std::to_string(state.schemes.size()) + "\n";
  for (const auto& [target, sources] : state.schemes) {
    body += std::to_string(target) + " " + std::to_string(sources.size());
    for (const std::uint32_t s : sources) body += " " + std::to_string(s);
    body += "\n";
  }

  body += "models " + std::to_string(state.models.size()) + "\n";
  for (const CheckpointModel& model : state.models) {
    body += std::to_string(model.node);
    body += model.invalid ? " 1 " : " 0 ";
    body += std::to_string(model.updates_since_estimate) + " " +
            std::to_string(model.refit_failures) +
            (model.quarantined ? " 1 " : " 0 ") +
            RenderDouble(model.creation_seconds) + " " + model.payload + "\n";
  }

  body += "pending " + std::to_string(state.pending.size()) + "\n";
  for (const auto& [time, slot, value] : state.pending) {
    body += std::to_string(time) + " " + std::to_string(slot) + " " +
            RenderDouble(value) + "\n";
  }

  char trailer[24];
  std::snprintf(trailer, sizeof(trailer), "crc %08" PRIx32 "\n", Crc32c(body));
  return body + trailer;
}

Result<CheckpointState> ParseCheckpoint(const std::string& text) {
  // Split the CRC trailer off and verify it covers everything above.
  const std::size_t trailer_at = text.rfind("crc ");
  if (trailer_at == std::string::npos ||
      (trailer_at != 0 && text[trailer_at - 1] != '\n')) {
    return Status::Internal("checkpoint: missing crc trailer");
  }
  std::uint32_t stored_crc = 0;
  if (std::sscanf(text.c_str() + trailer_at, "crc %8" SCNx32, &stored_crc) !=
      1) {
    return Status::Internal("checkpoint: unparsable crc trailer");
  }
  const std::string_view body(text.data(), trailer_at);
  if (Crc32c(body) != stored_crc) {
    return Status::Internal("checkpoint: crc mismatch (corrupt file)");
  }

  std::istringstream in{std::string(body)};
  std::string line;
  if (!std::getline(in, line)) {
    return Status::Internal("checkpoint: empty file");
  }
  unsigned version = 0;
  if (std::sscanf(line.c_str(), "f2db-checkpoint v%u", &version) != 1) {
    return Status::Internal("checkpoint: bad header line: " + line);
  }
  if (version != kCheckpointFormatVersion) {
    return Status::Internal(
        "checkpoint format version mismatch: file has v" +
        std::to_string(version) + ", this build reads v" +
        std::to_string(kCheckpointFormatVersion));
  }

  CheckpointState state;
  std::string tag;
  if (!(in >> tag >> state.wal_epoch) || tag != "epoch") {
    return Status::Internal("checkpoint: missing epoch");
  }
  if (!(in >> tag >> state.inserts >> state.time_advances >>
        state.reestimates >> state.quarantines >> state.refit_failures) ||
      tag != "counters") {
    return Status::Internal("checkpoint: missing counters");
  }

  std::size_t num_base = 0, length = 0;
  if (!(in >> tag >> num_base >> state.base_start_time >> length) ||
      tag != "base") {
    return Status::Internal("checkpoint: missing base section");
  }
  state.base_series.reserve(num_base);
  for (std::size_t i = 0; i < num_base; ++i) {
    std::uint32_t node = 0;
    if (!(in >> node)) return Status::Internal("checkpoint: truncated base");
    std::vector<double> values(length);
    for (std::size_t t = 0; t < length; ++t) {
      if (!(in >> values[t])) {
        return Status::Internal("checkpoint: truncated base series");
      }
    }
    state.base_series.emplace_back(node, std::move(values));
  }

  std::size_t count = 0;
  if (!(in >> tag >> count) || tag != "schemes") {
    return Status::Internal("checkpoint: missing schemes section");
  }
  state.schemes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t target = 0;
    std::size_t num_sources = 0;
    if (!(in >> target >> num_sources)) {
      return Status::Internal("checkpoint: truncated scheme row");
    }
    std::vector<std::uint32_t> sources(num_sources);
    for (std::size_t j = 0; j < num_sources; ++j) {
      if (!(in >> sources[j])) {
        return Status::Internal("checkpoint: truncated scheme sources");
      }
    }
    state.schemes.emplace_back(target, std::move(sources));
  }

  if (!(in >> tag >> count) || tag != "models") {
    return Status::Internal("checkpoint: missing models section");
  }
  state.models.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    CheckpointModel model;
    int invalid = 0, quarantined = 0;
    if (!(in >> model.node >> invalid >> model.updates_since_estimate >>
          model.refit_failures >> quarantined >> model.creation_seconds >>
          model.payload)) {
      return Status::Internal("checkpoint: truncated model row");
    }
    model.invalid = invalid != 0;
    model.quarantined = quarantined != 0;
    state.models.push_back(std::move(model));
  }

  if (!(in >> tag >> count) || tag != "pending") {
    return Status::Internal("checkpoint: missing pending section");
  }
  state.pending.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::int64_t time = 0;
    std::uint64_t slot = 0;
    double value = 0.0;
    if (!(in >> time >> slot >> value)) {
      return Status::Internal("checkpoint: truncated pending row");
    }
    state.pending.emplace_back(time, slot, value);
  }
  return state;
}

Status WriteCheckpoint(const std::string& dir, const CheckpointState& state) {
  // Routed through the storage choke point: tmp + fsync + rename + dir
  // fsync, with the io.checkpoint_write fault site armed on the tmp-file
  // write and fsync. The rename is the commit point — before it the old
  // checkpoint is intact, after it the new one is complete.
  return storage::WriteFileDurably(CheckpointPath(dir),
                                   SerializeCheckpoint(state),
                                   /*hook_before_rename=*/nullptr,
                                   /*hook_after_rename=*/nullptr,
                                   storage::kIoSiteCheckpointWrite);
}

Result<CheckpointState> LoadCheckpoint(const std::string& dir) {
  const std::string path = CheckpointPath(dir);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no checkpoint in " + dir);
    }
    return Status::Unavailable("cannot open checkpoint " + path + ": " +
                               ::strerror(errno));
  }
  std::string text;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n > 0) {
      text.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const Status status = Status::Unavailable(
          std::string("checkpoint read(): ") + ::strerror(errno));
      ::close(fd);
      return status;
    }
    break;
  }
  ::close(fd);
  return ParseCheckpoint(text);
}

}  // namespace f2db
