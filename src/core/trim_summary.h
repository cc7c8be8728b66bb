// Compact on-log representation of many trim notes (cleaner consolidation).
//
// Single-page trim notes would recycle through the cleaner forever 1:1 — an all-note
// segment is always the emptiest victim, and copying its notes forward recreates another
// all-note segment. Instead, the cleaner gathers a victim's still-needed trim records and
// rewrites them as dense kTrimSummary pages (~170 entries per 4K page), shrinking the
// trim-metadata footprint multiplicatively on every pass. Entries keep their original
// (epoch, seq) identity, so recovery replays them exactly like the original notes and
// de-duplicates by sequence number if both forms survive a crash.

#ifndef SRC_CORE_TRIM_SUMMARY_H_
#define SRC_CORE_TRIM_SUMMARY_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"

namespace iosnap {

struct TrimEntry {
  uint64_t lba = 0;
  uint32_t count = 0;
  uint32_t epoch = 0;
  uint64_t seq = 0;

  bool operator==(const TrimEntry&) const = default;
};

// Serialized size of one entry.
inline constexpr uint64_t kTrimEntryBytes = 24;

// How many entries fit in one page payload.
inline uint64_t TrimEntriesPerPage(uint64_t page_bytes) {
  return (page_bytes - 4) / kTrimEntryBytes;
}

// Encodes up to TrimEntriesPerPage entries into one self-contained payload.
std::vector<uint8_t> EncodeTrimSummary(const std::vector<TrimEntry>& entries, size_t begin,
                                       size_t count);

// Decodes a payload produced by EncodeTrimSummary. The bytes are untrusted: truncation
// and an entry count the payload cannot hold are kDataLoss.
StatusOr<std::vector<TrimEntry>> DecodeTrimSummary(const std::vector<uint8_t>& payload);

}  // namespace iosnap

#endif  // SRC_CORE_TRIM_SUMMARY_H_
