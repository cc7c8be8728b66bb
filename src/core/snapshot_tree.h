// The snapshot tree and epoch lineage (§5.3.2, Figure 4).
//
// Epochs divide log time: the epoch counter increments on every snapshot create or
// activate, and every block written carries its epoch. Epochs form a tree:
//   * snapshot create freezes the device's current epoch E as snapshot S and continues
//     the device on a fresh child epoch of E;
//   * snapshot activate forks a fresh child epoch off S's (long-frozen) epoch for the
//     activated view.
// An epoch therefore never receives writes after it has children, which gives the clean
// visibility rule used throughout this codebase: the state seen by epoch E is the
// highest-sequence write per LBA among all records whose epoch lies on E's root path
// (minus later TRIMs on that path).
//
// Snapshots reference epochs 1:1. Deleting a snapshot marks it deleted — the epoch node
// must survive because descendants' lineage runs through it — and its blocks are
// reclaimed lazily by the segment cleaner once no live epoch's validity references them.

#ifndef SRC_CORE_SNAPSHOT_TREE_H_
#define SRC_CORE_SNAPSHOT_TREE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace iosnap {

inline constexpr uint32_t kNoEpoch = 0xffffffffu;
inline constexpr uint32_t kRootEpoch = 0;

struct SnapshotInfo {
  uint32_t snap_id = 0;
  uint32_t epoch = kNoEpoch;  // The epoch this snapshot froze.
  uint64_t create_seq = 0;    // Global sequence number at creation.
  bool deleted = false;
  std::string name;
};

class SnapshotTree {
 public:
  SnapshotTree();

  // --- Epochs ---

  // Allocates the next epoch id as a child of `parent`.
  uint32_t NewEpoch(uint32_t parent);
  // The id NewEpoch will hand out next (written into snapshot notes so that crash
  // recovery re-derives identical numbering even when old notes have been consolidated).
  uint32_t NextEpochId() const { return next_epoch_; }
  uint32_t ParentOf(uint32_t epoch) const;
  bool EpochExists(uint32_t epoch) const { return parents_.contains(epoch); }
  uint32_t EpochCount() const { return static_cast<uint32_t>(parents_.size()); }

  // Root path of `epoch`, leaf first: {epoch, parent, ..., kRootEpoch}.
  std::vector<uint32_t> Lineage(uint32_t epoch) const;

  // True if `ancestor` lies on `epoch`'s root path (inclusive).
  bool InLineage(uint32_t epoch, uint32_t ancestor) const;

  // Children of an epoch, in creation order (used by recovery's BFS rebuild).
  std::vector<uint32_t> ChildrenOf(uint32_t epoch) const;

  // --- Snapshots ---

  // Registers a snapshot freezing `epoch` at `create_seq`. Returns the snapshot id.
  uint32_t AddSnapshot(uint32_t epoch, uint64_t create_seq, std::string name);

  Status MarkDeleted(uint32_t snap_id);
  bool Exists(uint32_t snap_id) const;
  StatusOr<SnapshotInfo> Get(uint32_t snap_id) const;
  // Snapshot ids that have not been deleted, ascending.
  std::vector<uint32_t> LiveSnapshotIds() const;
  // Epochs of live snapshots, ascending (validity-merge input).
  std::vector<uint32_t> LiveSnapshotEpochs() const;

  // Number of live snapshot ancestors of this snapshot's epoch, *excluding* itself —
  // activation cost grows with this depth (Figure 8).
  int SnapshotDepth(uint32_t snap_id) const;

  // --- Recovery support ---

  // Re-registers state with explicit ids; used when rebuilding from notes.
  void RestoreEpoch(uint32_t epoch, uint32_t parent);
  void RestoreSnapshot(const SnapshotInfo& info);

  void SerializeTo(std::vector<uint8_t>* out) const;
  static StatusOr<SnapshotTree> Deserialize(const std::vector<uint8_t>& bytes, size_t* offset);

 private:
  // parents_[e] = parent epoch of e (kNoEpoch for the root). Sparse: epoch ids are
  // allocated monotonically but restored explicitly by recovery.
  std::map<uint32_t, uint32_t> parents_;
  std::map<uint32_t, SnapshotInfo> snapshots_;
  // epoch -> snapshot id freezing it (at most one).
  std::map<uint32_t, uint32_t> snapshot_by_epoch_;
  uint32_t next_snap_id_ = 1;
  uint32_t next_epoch_ = 1;
};

}  // namespace iosnap

#endif  // SRC_CORE_SNAPSHOT_TREE_H_
