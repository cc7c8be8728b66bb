#include "src/core/snapshot_tree.h"

#include <algorithm>
#include <set>

#include "src/common/logging.h"
#include "src/common/serde.h"

namespace iosnap {

SnapshotTree::SnapshotTree() { parents_.emplace(kRootEpoch, kNoEpoch); }

uint32_t SnapshotTree::NewEpoch(uint32_t parent) {
  IOSNAP_CHECK(EpochExists(parent));
  const uint32_t epoch = next_epoch_++;
  parents_.emplace(epoch, parent);
  return epoch;
}

uint32_t SnapshotTree::ParentOf(uint32_t epoch) const {
  auto it = parents_.find(epoch);
  IOSNAP_CHECK(it != parents_.end());
  return it->second;
}

std::vector<uint32_t> SnapshotTree::Lineage(uint32_t epoch) const {
  IOSNAP_CHECK(EpochExists(epoch));
  std::vector<uint32_t> out;
  for (uint32_t e = epoch; e != kNoEpoch; e = parents_.at(e)) {
    out.push_back(e);
  }
  return out;
}

bool SnapshotTree::InLineage(uint32_t epoch, uint32_t ancestor) const {
  IOSNAP_CHECK(EpochExists(epoch));
  for (uint32_t e = epoch; e != kNoEpoch; e = parents_.at(e)) {
    if (e == ancestor) {
      return true;
    }
  }
  return false;
}

uint32_t SnapshotTree::AddSnapshot(uint32_t epoch, uint64_t create_seq, std::string name) {
  IOSNAP_CHECK(EpochExists(epoch));
  IOSNAP_CHECK(!snapshot_by_epoch_.contains(epoch));
  SnapshotInfo info;
  info.snap_id = next_snap_id_++;
  info.epoch = epoch;
  info.create_seq = create_seq;
  info.name = std::move(name);
  snapshot_by_epoch_[epoch] = info.snap_id;
  const uint32_t id = info.snap_id;
  snapshots_.emplace(id, std::move(info));
  return id;
}

Status SnapshotTree::MarkDeleted(uint32_t snap_id) {
  auto it = snapshots_.find(snap_id);
  if (it == snapshots_.end()) {
    return NotFound("snapshot " + std::to_string(snap_id) + " does not exist");
  }
  if (it->second.deleted) {
    return FailedPrecondition("snapshot " + std::to_string(snap_id) + " already deleted");
  }
  it->second.deleted = true;
  return OkStatus();
}

bool SnapshotTree::Exists(uint32_t snap_id) const { return snapshots_.contains(snap_id); }

StatusOr<SnapshotInfo> SnapshotTree::Get(uint32_t snap_id) const {
  auto it = snapshots_.find(snap_id);
  if (it == snapshots_.end()) {
    return NotFound("snapshot " + std::to_string(snap_id) + " does not exist");
  }
  return it->second;
}

std::vector<uint32_t> SnapshotTree::LiveSnapshotIds() const {
  std::vector<uint32_t> out;
  for (const auto& [id, info] : snapshots_) {
    if (!info.deleted) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<uint32_t> SnapshotTree::LiveSnapshotEpochs() const {
  std::vector<uint32_t> out;
  for (const auto& [id, info] : snapshots_) {
    if (!info.deleted) {
      out.push_back(info.epoch);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

int SnapshotTree::SnapshotDepth(uint32_t snap_id) const {
  auto it = snapshots_.find(snap_id);
  IOSNAP_CHECK(it != snapshots_.end());
  int depth = 0;
  for (uint32_t e = ParentOf(it->second.epoch); e != kNoEpoch; e = parents_.at(e)) {
    auto snap_it = snapshot_by_epoch_.find(e);
    if (snap_it != snapshot_by_epoch_.end()) {
      auto info_it = snapshots_.find(snap_it->second);
      if (info_it != snapshots_.end() && !info_it->second.deleted) {
        ++depth;
      }
    }
  }
  return depth;
}

void SnapshotTree::RestoreEpoch(uint32_t epoch, uint32_t parent) {
  IOSNAP_CHECK(parent == kNoEpoch || EpochExists(parent));
  IOSNAP_CHECK(!parents_.contains(epoch));
  parents_.emplace(epoch, parent);
  next_epoch_ = std::max(next_epoch_, epoch + 1);
}

void SnapshotTree::RestoreSnapshot(const SnapshotInfo& info) {
  IOSNAP_CHECK(EpochExists(info.epoch));
  IOSNAP_CHECK(!snapshots_.contains(info.snap_id));
  snapshots_.emplace(info.snap_id, info);
  snapshot_by_epoch_[info.epoch] = info.snap_id;
  next_snap_id_ = std::max(next_snap_id_, info.snap_id + 1);
}

void SnapshotTree::SerializeTo(std::vector<uint8_t>* out) const {
  PutU32(out, static_cast<uint32_t>(parents_.size()));
  for (const auto& [epoch, parent] : parents_) {
    PutU32(out, epoch);
    PutU32(out, parent);
  }
  PutU32(out, next_epoch_);
  PutU32(out, static_cast<uint32_t>(snapshots_.size()));
  for (const auto& [id, info] : snapshots_) {
    PutU32(out, info.snap_id);
    PutU32(out, info.epoch);
    PutU64(out, info.create_seq);
    PutU8(out, info.deleted ? 1 : 0);
    PutString(out, info.name);
  }
  PutU32(out, next_snap_id_);
}

StatusOr<SnapshotTree> SnapshotTree::Deserialize(const std::vector<uint8_t>& bytes,
                                                 size_t* offset) {
  SnapshotTree tree;
  tree.parents_.clear();

  uint32_t epoch_count = 0;
  RETURN_IF_ERROR(GetU32(bytes, offset, &epoch_count));
  if (epoch_count == 0) {
    return DataLoss("snapshot tree: no epochs");
  }
  for (uint32_t i = 0; i < epoch_count; ++i) {
    uint32_t epoch = 0;
    uint32_t parent = 0;
    RETURN_IF_ERROR(GetU32(bytes, offset, &epoch));
    RETURN_IF_ERROR(GetU32(bytes, offset, &parent));
    if (!tree.parents_.emplace(epoch, parent).second) {
      return DataLoss("snapshot tree: epoch " + std::to_string(epoch) + " listed twice");
    }
  }
  RETURN_IF_ERROR(GetU32(bytes, offset, &tree.next_epoch_));
  if (tree.next_epoch_ <= tree.parents_.rbegin()->first) {
    return DataLoss("snapshot tree: next epoch id does not exceed every listed epoch");
  }
  // The parent map must be one tree under the root: the root has no parent, every other
  // epoch names a listed parent, and every parent chain ends at the root. A walk stops at
  // the first epoch already known to reach the root, so each epoch is walked once; a walk
  // longer than the epoch count has gone round a cycle.
  const auto root = tree.parents_.find(kRootEpoch);
  if (root == tree.parents_.end()) {
    return DataLoss("snapshot tree: missing root epoch");
  }
  if (root->second != kNoEpoch) {
    return DataLoss("snapshot tree: root epoch names parent " + std::to_string(root->second));
  }
  for (const auto& [epoch, parent] : tree.parents_) {
    if (epoch != kRootEpoch && !tree.parents_.contains(parent)) {
      return DataLoss("snapshot tree: epoch " + std::to_string(epoch) +
                      " names unknown parent " + std::to_string(parent));
    }
  }
  std::set<uint32_t> rooted = {kRootEpoch};
  std::vector<uint32_t> chain;
  for (const auto& [epoch, parent] : tree.parents_) {
    chain.clear();
    for (uint32_t e = epoch; !rooted.contains(e); e = tree.parents_.at(e)) {
      if (chain.size() == tree.parents_.size()) {
        return DataLoss("snapshot tree: epoch " + std::to_string(epoch) +
                        " has a cyclic lineage");
      }
      chain.push_back(e);
    }
    rooted.insert(chain.begin(), chain.end());
  }

  uint32_t snap_count = 0;
  RETURN_IF_ERROR(GetU32(bytes, offset, &snap_count));
  for (uint32_t i = 0; i < snap_count; ++i) {
    SnapshotInfo info;
    uint8_t deleted = 0;
    RETURN_IF_ERROR(GetU32(bytes, offset, &info.snap_id));
    RETURN_IF_ERROR(GetU32(bytes, offset, &info.epoch));
    RETURN_IF_ERROR(GetU64(bytes, offset, &info.create_seq));
    RETURN_IF_ERROR(GetU8(bytes, offset, &deleted));
    RETURN_IF_ERROR(GetString(bytes, offset, &info.name));
    info.deleted = deleted != 0;
    if (!tree.parents_.contains(info.epoch)) {
      return DataLoss("snapshot tree: snapshot references unknown epoch");
    }
    if (tree.snapshots_.contains(info.snap_id)) {
      return DataLoss("snapshot tree: snapshot " + std::to_string(info.snap_id) +
                      " listed twice");
    }
    if (tree.snapshot_by_epoch_.contains(info.epoch)) {
      return DataLoss("snapshot tree: epoch " + std::to_string(info.epoch) +
                      " frozen by two snapshots");
    }
    tree.snapshot_by_epoch_[info.epoch] = info.snap_id;
    tree.snapshots_.emplace(info.snap_id, std::move(info));
  }
  RETURN_IF_ERROR(GetU32(bytes, offset, &tree.next_snap_id_));
  if (!tree.snapshots_.empty() && tree.next_snap_id_ <= tree.snapshots_.rbegin()->first) {
    return DataLoss("snapshot tree: next snapshot id does not exceed every listed id");
  }
  return tree;
}

}  // namespace iosnap
