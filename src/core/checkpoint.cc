#include "src/core/checkpoint.h"

#include <string>

#include "src/common/serde.h"

namespace iosnap {

namespace {
constexpr uint64_t kMagic = 0x494f534e41504b31ULL;  // "IOSNAPK1"
constexpr uint32_t kVersion = 1;
}  // namespace

std::vector<uint8_t> SerializeCheckpoint(const CheckpointState& state) {
  std::vector<uint8_t> out;
  PutU64(&out, kMagic);
  PutU32(&out, kVersion);
  PutU64(&out, state.seq_counter);
  PutU32(&out, state.active_epoch);
  state.tree.SerializeTo(&out);

  PutU64(&out, state.primary_map.size());
  for (const auto& [lba, paddr] : state.primary_map) {
    PutU64(&out, lba);
    PutU64(&out, paddr);
  }

  // One valid-paddr set per live epoch. Open replays these through SetValid, which also
  // rebuilds the incremental utilization counters — no counter state is serialized.
  PutU32(&out, static_cast<uint32_t>(state.validity.size()));
  for (const auto& [epoch, paddrs] : state.validity) {
    PutU32(&out, epoch);
    PutU64(&out, paddrs.size());
    for (uint64_t paddr : paddrs) {
      PutU64(&out, paddr);
    }
  }
  return out;
}

StatusOr<CheckpointState> ParseCheckpoint(const std::vector<uint8_t>& bytes,
                                          uint64_t total_pages) {
  size_t offset = 0;
  uint64_t magic = 0;
  uint32_t version = 0;
  RETURN_IF_ERROR(GetU64(bytes, &offset, &magic));
  if (magic != kMagic) {
    return DataLoss("checkpoint: bad magic");
  }
  RETURN_IF_ERROR(GetU32(bytes, &offset, &version));
  if (version != kVersion) {
    return DataLoss("checkpoint: unsupported version");
  }

  CheckpointState state;
  RETURN_IF_ERROR(GetU64(bytes, &offset, &state.seq_counter));
  RETURN_IF_ERROR(GetU32(bytes, &offset, &state.active_epoch));
  ASSIGN_OR_RETURN(state.tree, SnapshotTree::Deserialize(bytes, &offset));

  // Counts are untrusted: bound each by the bytes its entries would occupy before
  // reserving (16 per map entry, 8 per paddr).
  uint64_t map_count = 0;
  RETURN_IF_ERROR(GetU64(bytes, &offset, &map_count));
  if (map_count > (bytes.size() - offset) / 16) {
    return DataLoss("checkpoint: map count exceeds checkpoint size");
  }
  state.primary_map.reserve(map_count);
  for (uint64_t i = 0; i < map_count; ++i) {
    uint64_t lba = 0;
    uint64_t paddr = 0;
    RETURN_IF_ERROR(GetU64(bytes, &offset, &lba));
    RETURN_IF_ERROR(GetU64(bytes, &offset, &paddr));
    if (i > 0 && lba <= state.primary_map.back().first) {
      return DataLoss("checkpoint: map entry " + std::to_string(i) + ": lba " +
                      std::to_string(lba) + " does not increase");
    }
    if (paddr >= total_pages) {
      return DataLoss("checkpoint: map entry " + std::to_string(i) + ": paddr " +
                      std::to_string(paddr) + " >= " + std::to_string(total_pages) +
                      " device pages");
    }
    state.primary_map.emplace_back(lba, paddr);
  }

  uint32_t epoch_count = 0;
  RETURN_IF_ERROR(GetU32(bytes, &offset, &epoch_count));
  for (uint32_t i = 0; i < epoch_count; ++i) {
    uint32_t epoch = 0;
    uint64_t count = 0;
    RETURN_IF_ERROR(GetU32(bytes, &offset, &epoch));
    RETURN_IF_ERROR(GetU64(bytes, &offset, &count));
    if (count > (bytes.size() - offset) / 8) {
      return DataLoss("checkpoint: validity count exceeds checkpoint size");
    }
    std::vector<uint64_t> paddrs;
    paddrs.reserve(count);
    for (uint64_t j = 0; j < count; ++j) {
      uint64_t paddr = 0;
      RETURN_IF_ERROR(GetU64(bytes, &offset, &paddr));
      if (paddr >= total_pages) {
        return DataLoss("checkpoint: epoch " + std::to_string(epoch) +
                        " validity entry " + std::to_string(j) + ": paddr " +
                        std::to_string(paddr) + " >= " + std::to_string(total_pages) +
                        " device pages");
      }
      paddrs.push_back(paddr);
    }
    state.validity.emplace(epoch, std::move(paddrs));
  }
  return state;
}

}  // namespace iosnap
