// The out-of-band (OOB) metadata written alongside every page.
//
// ioSnap's central trick (§5.3.2) is that snapshot membership is *embedded in the log*:
// every page carries the epoch in which it was written plus a global sequence number, so
// snapshot state can be reconstructed by scanning headers alone — no per-snapshot map is
// maintained online.

#ifndef SRC_NAND_PAGE_HEADER_H_
#define SRC_NAND_PAGE_HEADER_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace iosnap {

// Record types that can appear on the log.
enum class RecordType : uint8_t {
  kInvalid = 0,
  kData,            // User block write; lba/epoch/seq valid.
  kTrim,            // TRIM note: lba range discarded; lba + trim_count valid.
  kSnapCreate,      // Snapshot-create note (§5.8): snap_id, epoch = frozen epoch,
                    // lba = id of the successor epoch.
  kSnapDelete,      // Snapshot-delete note; snap_id valid.
  kSnapActivate,    // Snapshot-activate note: snap_id, lba = id of the view's epoch.
  kSnapDeactivate,  // Snapshot-deactivate note; snap_id + epoch (view epoch) valid.
  kRollback,        // Primary rolled back to a snapshot: snap_id, epoch = the snapshot's
                    // epoch, lba = the primary's fresh epoch id.
  kTreeSummary,     // Consolidated snapshot-tree record written by the cleaner; payload
                    // holds the serialized tree. Supersedes all earlier snapshot notes
                    // (and earlier summaries), which lets the cleaner drop them instead
                    // of copying them forward forever. snap_id = group id, lba = page
                    // index within the group, trim_count = group page count.
  kTrimSummary,     // Dense batch of trim entries (src/core/trim_summary.h) written by
                    // the cleaner in place of copying single-page trim notes 1:1.
  kCheckpoint,      // Retired: earlier builds wrote a clean-shutdown checkpoint as a
                    // run of these. Never written now; recovery replays nothing from
                    // one and the cleaner drops it. Kept so later values stay put.
  kPad,             // Filler written to close out a segment.
  kParity,          // Intra-segment XOR parity page (src/nand/parity.h). lba = paddr of
                    // the stripe's first member slot, trim_count = member count (0 when
                    // the accumulator was poisoned by an unreadable reopen), payload =
                    // the XOR image over the members' stored bytes. Never carries user
                    // identity: recovery and activation skip it like kPad.
};

const char* RecordTypeName(RecordType type);

// Record types whose payload is stored verbatim even when NandConfig::store_data is
// false: their bytes *are* the record (summaries, snapshot names, parity images), not a
// shadow of host data the simulator can elide.
inline constexpr bool PayloadAlwaysStored(RecordType type) {
  return type == RecordType::kTreeSummary || type == RecordType::kTrimSummary ||
         type == RecordType::kSnapCreate || type == RecordType::kParity;
}

// Fixed-size header stored in each page's OOB area. The member order only sets the
// in-memory layout (epoch sits beside type, so the struct has no padding past the type
// byte); every serialization writes the fields one by one in a fixed order.
struct PageHeader {
  RecordType type = RecordType::kInvalid;
  uint32_t epoch = 0;       // Epoch the record logically belongs to (survives GC moves).
  uint64_t lba = 0;         // Logical block address (kData), or range start (kTrim).
  uint64_t seq = 0;         // Global write sequence number; preserved by copy-forward.
  uint32_t snap_id = 0;     // Snapshot id for snapshot notes.
  uint32_t trim_count = 0;  // Number of LBAs trimmed (kTrim).
  uint32_t payload_len = 0; // Bytes of payload stored in the page (summary chaining).
  uint32_t crc = 0;         // CRC-32 of (header fields above + stored payload). Stamped
                            // by the device at program time, verified on every read and
                            // header scan, so silent corruption and torn tails surface
                            // as kDataLoss / dropped pages instead of bad data.

  bool IsSnapshotNote() const {
    return type == RecordType::kSnapCreate || type == RecordType::kSnapDelete ||
           type == RecordType::kSnapActivate || type == RecordType::kSnapDeactivate ||
           type == RecordType::kRollback;
  }
};
// The device keeps one header per physical page, so its size is most of the NAND
// model's memory.
static_assert(sizeof(PageHeader) == 40);

// Serialized OOB footprint charged by the device model (bytes per page of header traffic).
inline constexpr uint64_t kPageHeaderBytes = 44;

// Bytes of the fixed little-endian serialization of the header's logical fields
// (everything except `crc`): type(1) + lba(8) + epoch(4) + seq(8) + snap_id(4) +
// trim_count(4) + payload_len(4).
inline constexpr size_t kPageHeaderCrcFieldBytes = 33;

// Serializes the CRC-covered header fields into `out` in the fixed layout above. Both
// ComputePageCrc and the parity member image (src/nand/parity.h) are defined over this
// one serialization, so a header XOR-recovered from parity re-verifies against the
// same CRC the device stamped.
inline void SerializePageHeaderFields(const PageHeader& header,
                                      uint8_t out[kPageHeaderCrcFieldBytes]) {
  const auto le32 = [](uint8_t* dst, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      dst[i] = static_cast<uint8_t>(v >> (8 * i));
    }
  };
  const auto le64 = [](uint8_t* dst, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      dst[i] = static_cast<uint8_t>(v >> (8 * i));
    }
  };
  out[0] = static_cast<uint8_t>(header.type);
  le64(out + 1, header.lba);
  le32(out + 9, header.epoch);
  le64(out + 13, header.seq);
  le32(out + 21, header.snap_id);
  le32(out + 25, header.trim_count);
  le32(out + 29, header.payload_len);
}

// CRC-32 over the header's logical fields (everything except `crc` itself)
// extended with the payload bytes as stored on the page.
uint32_t ComputePageCrc(const PageHeader& header, std::span<const uint8_t> data);

}  // namespace iosnap

#endif  // SRC_NAND_PAGE_HEADER_H_
