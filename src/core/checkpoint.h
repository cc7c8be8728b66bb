// Clean-shutdown checkpoint format (§5.5: "the device state is fully checkpointed only on
// a clean shutdown"). The checkpoint serializes everything needed to resume without a log
// scan: sequence/epoch counters, the snapshot tree, the primary forward map, and the
// per-live-epoch validity sets. It is written as a run of kCheckpoint pages at the log
// head; a checkpoint is honoured on open only if it is complete and nothing was written
// after it (otherwise full recovery runs).

#ifndef SRC_CORE_CHECKPOINT_H_
#define SRC_CORE_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/core/snapshot_tree.h"

namespace iosnap {

struct CheckpointState {
  uint64_t seq_counter = 0;
  uint32_t active_epoch = kRootEpoch;
  SnapshotTree tree;
  // Primary forward map, key-sorted.
  std::vector<std::pair<uint64_t, uint64_t>> primary_map;
  // Live epoch -> sorted valid physical pages.
  std::map<uint32_t, std::vector<uint64_t>> validity;
};

std::vector<uint8_t> SerializeCheckpoint(const CheckpointState& state);

// The bytes are untrusted. Besides framing errors, kDataLoss names the first map entry
// whose lba does not strictly increase (the map bulk-loads as-is) and the first map or
// validity paddr at or beyond `total_pages`, the device's page count.
StatusOr<CheckpointState> ParseCheckpoint(const std::vector<uint8_t>& bytes,
                                          uint64_t total_pages);

}  // namespace iosnap

#endif  // SRC_CORE_CHECKPOINT_H_
