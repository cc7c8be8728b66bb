#include "src/core/trim_summary.h"

#include <string>

#include "src/common/logging.h"
#include "src/common/serde.h"

namespace iosnap {

std::vector<uint8_t> EncodeTrimSummary(const std::vector<TrimEntry>& entries, size_t begin,
                                       size_t count) {
  IOSNAP_CHECK(begin + count <= entries.size());
  std::vector<uint8_t> out;
  out.reserve(4 + count * kTrimEntryBytes);
  PutU32(&out, static_cast<uint32_t>(count));
  for (size_t i = begin; i < begin + count; ++i) {
    PutU64(&out, entries[i].lba);
    PutU32(&out, entries[i].count);
    PutU32(&out, entries[i].epoch);
    PutU64(&out, entries[i].seq);
  }
  return out;
}

StatusOr<std::vector<TrimEntry>> DecodeTrimSummary(const std::vector<uint8_t>& payload) {
  size_t offset = 0;
  uint32_t count = 0;
  RETURN_IF_ERROR(GetU32(payload, &offset, &count));
  // The count is untrusted: bound it by the entries the payload holds before reserving.
  if (count > (payload.size() - offset) / kTrimEntryBytes) {
    return DataLoss("trim summary: entry count " + std::to_string(count) +
                    " exceeds payload size " + std::to_string(payload.size()));
  }
  std::vector<TrimEntry> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    TrimEntry entry;
    RETURN_IF_ERROR(GetU64(payload, &offset, &entry.lba));
    RETURN_IF_ERROR(GetU32(payload, &offset, &entry.count));
    RETURN_IF_ERROR(GetU32(payload, &offset, &entry.epoch));
    RETURN_IF_ERROR(GetU64(payload, &offset, &entry.seq));
    entries.push_back(entry);
  }
  return entries;
}

}  // namespace iosnap
