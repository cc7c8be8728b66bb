// Crash recovery and restart (§5.5).
//
// Every open, after a crash or a clean shutdown alike, scans the whole log's OOB headers
// and adopts the newest complete tree summary. Then the two-pass reconstruction runs:
//   Pass 1 replays snapshot notes in sequence order, rebuilding the epoch tree and the
//          snapshot tree (and re-deriving the deterministic epoch numbering).
//   Pass 2 walks the epoch tree root-to-leaf, overlaying each epoch's data/trim records
//          on its parent's state (the paper's breadth-first merge), capturing the active
//          forward map and a validity set for every live epoch.
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

struct RecoveredState {
  uint64_t seq_counter = 0;
  uint32_t active_epoch = kRootEpoch;
  SnapshotTree tree;
  // Primary forward map, key-sorted (ready for BulkLoad).
  std::vector<std::pair<uint64_t, uint64_t>> primary_map;
  // Live epoch -> valid physical pages.
  std::map<uint32_t, std::vector<uint64_t>> validity;
  // Surviving data records (paddr, epoch, seq) for segment accounting.
  struct DataRecord {
    uint64_t paddr;
    uint32_t epoch;
    uint64_t seq;
  };
  std::vector<DataRecord> data_records;
  // Virtual time when recovery I/O finished.
  uint64_t finish_ns = 0;
};

// Scans `device` and reconstructs FTL state, starting device I/O at `issue_ns`.
StatusOr<RecoveredState> RecoverFromDevice(NandDevice* device, uint64_t issue_ns);

}  // namespace iosnap

#endif  // SRC_CORE_RECOVERY_H_
