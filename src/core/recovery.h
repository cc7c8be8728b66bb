// Crash recovery and restart (§5.5).
//
// Every open, after a crash or a clean shutdown alike, scans the whole log's OOB headers
// and adopts the newest complete tree summary. Then the two-pass reconstruction runs:
//   Pass 1 replays snapshot notes in sequence order, rebuilding the epoch tree and the
//          snapshot tree (and re-deriving the deterministic epoch numbering).
//   Pass 2 replays, for each live epoch, the data/trim records of the epochs on its
//          root path, root first, into one array indexed by LBA (the paper's root-to-leaf
//          merge). An epoch never receives writes after it has children, so root-first
//          epoch order is sequence order. Walking the array in LBA order yields the
//          epoch's valid pages and, for the active epoch, the forward map in key order.
//
// Blocks relocated by the cleaner keep their original (lba, epoch, seq) identity, so the
// replay is position-independent; duplicate records (copy-forward raced a crash before
// the source segment erase) are de-duplicated by sequence number.

#ifndef SRC_CORE_RECOVERY_H_
#define SRC_CORE_RECOVERY_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/core/snapshot_tree.h"
#include "src/nand/nand_device.h"

namespace iosnap {

// A record the header scan found: where it lies and what its header says.
struct ScanRecord {
  uint64_t paddr;
  PageHeader header;
};

struct RecoveredState {
  uint64_t seq_counter = 0;
  uint32_t active_epoch = kRootEpoch;
  SnapshotTree tree;
  // Primary forward map, key-sorted (ready for BulkLoad).
  std::vector<std::pair<uint64_t, uint64_t>> primary_map;
  // Live epoch -> valid physical pages, ascending.
  std::map<uint32_t, std::vector<uint64_t>> validity;
  // Every record the scan kept, seq-sorted and de-duplicated, with trim summaries
  // expanded into their trims. Ftl::Open restores segment accounting from the data
  // records of epochs the tree knows.
  std::vector<ScanRecord> records;
  // Virtual time when recovery I/O finished.
  uint64_t finish_ns = 0;
};

// Scans `device` and reconstructs FTL state, starting device I/O at `issue_ns`. A data
// or trim record whose LBA is at or beyond `lba_count` is skipped, and a trim range is
// clamped to it.
StatusOr<RecoveredState> RecoverFromDevice(NandDevice* device, uint64_t lba_count,
                                           uint64_t issue_ns);

}  // namespace iosnap

#endif  // SRC_CORE_RECOVERY_H_
