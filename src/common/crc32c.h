// CRC32C (Castagnoli): the checksum framing the durability files.
//
// Every write-ahead-log record, sealed segment block and the manifest
// trailer carry a CRC32C over their payload so recovery can tell a torn or
// corrupted write from a valid record (see DESIGN.md §10, "Durability and
// recovery"). The
// Castagnoli polynomial (0x1EDC6F41, reflected 0x82F63B78) is the storage
// and networking standard (iSCSI, ext4, LevelDB/RocksDB logs); this is the
// portable table-driven software implementation — no SSE4.2 dependency.

#ifndef F2DB_COMMON_CRC32C_H_
#define F2DB_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace f2db {

/// CRC32C of `data`, starting from `init` (pass a previous Crc32c result to
/// checksum data arriving in chunks). The returned value is the final CRC
/// (pre- and post-inversion are handled internally).
std::uint32_t Crc32c(const void* data, std::size_t size,
                     std::uint32_t init = 0);

inline std::uint32_t Crc32c(std::string_view data, std::uint32_t init = 0) {
  return Crc32c(data.data(), data.size(), init);
}

}  // namespace f2db

#endif  // F2DB_COMMON_CRC32C_H_
