#include "src/core/recovery.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/common/logging.h"
#include "src/common/serde.h"
#include "src/core/trim_summary.h"

namespace iosnap {

namespace {

// Attempts per page read during recovery before a transient failure is treated as
// permanent. Recovery is the last line of defense, so it retries a little harder
// than the foreground path.
constexpr uint32_t kRecoveryReadAttempts = 4;

struct ScanRecord {
  uint64_t paddr;
  PageHeader header;
};

// Per-LBA winning record while overlaying an epoch chain.
struct MapEntry {
  uint64_t paddr;
  uint64_t seq;
};

using StateMap = std::unordered_map<uint64_t, MapEntry>;

// Applies one epoch's records (already seq-sorted) on top of `state`.
void ApplyEpochRecords(const std::vector<ScanRecord>& records, StateMap* state) {
  for (const ScanRecord& r : records) {
    if (r.header.type == RecordType::kData) {
      (*state)[r.header.lba] = MapEntry{r.paddr, r.header.seq};
    } else if (r.header.type == RecordType::kTrim) {
      for (uint64_t i = 0; i < r.header.trim_count; ++i) {
        state->erase(r.header.lba + i);
      }
    }
  }
}

std::vector<uint64_t> ValidSetOf(const StateMap& state) {
  std::vector<uint64_t> out;
  out.reserve(state.size());
  for (const auto& [lba, entry] : state) {
    out.push_back(entry.paddr);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<uint64_t, uint64_t>> SortedMapOf(const StateMap& state) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(state.size());
  for (const auto& [lba, entry] : state) {
    out.emplace_back(lba, entry.paddr);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

StatusOr<RecoveredState> RecoverFromDevice(NandDevice* device, uint64_t issue_ns) {
  RecoveredState out;
  uint64_t clock_ns = issue_ns;

  // --- Scan every segment's OOB headers ---
  // Each segment's headers land in one reused buffer and fold straight into `records`,
  // so the scan never holds a second copy of every header. Trim summaries are read after
  // the scan, in scan order. A programmed page yields at most one record, so `records`
  // is sized once; only trim-summary expansion can grow it again.
  uint64_t programmed_pages = 0;
  for (uint64_t seg = 0; seg < device->config().num_segments; ++seg) {
    programmed_pages += device->ProgrammedPages(seg);
  }
  std::vector<ScanRecord> records;
  records.reserve(programmed_pages);
  std::vector<uint64_t> trim_summaries;
  std::vector<std::pair<uint64_t, PageHeader>> segment_headers;
  for (uint64_t seg = 0; seg < device->config().num_segments; ++seg) {
    segment_headers.clear();
    ASSIGN_OR_RETURN(NandOp op,
                     device->ScanSegmentHeaders(seg, clock_ns, &segment_headers));
    clock_ns = op.finish_ns;
    for (const auto& [paddr, header] : segment_headers) {
      if (header.type == RecordType::kPad || header.type == RecordType::kInvalid ||
          header.type == RecordType::kParity) {
        // Parity pages carry placement, not identity (seq = 0); replaying them would
        // corrupt the seq-ordered dedup. The rebuild path finds them positionally.
        continue;
      }
      if (header.type == RecordType::kTrimSummary) {
        trim_summaries.push_back(paddr);
        continue;
      }
      records.push_back(ScanRecord{paddr, header});
    }
  }

  // Expand the cleaner's compacted trim batches back into individual trim records (each
  // with its original epoch/seq identity).
  for (const uint64_t paddr : trim_summaries) {
    std::vector<uint8_t> payload;
    StatusOr<NandOp> op = device->ReadPageWithRetry(paddr, clock_ns, nullptr, &payload,
                                                    kRecoveryReadAttempts);
    if (!op.ok()) {
      IOSNAP_LOG(kWarning) << "[recovery] unreadable trim summary ignored: "
                           << op.status();
      continue;
    }
    clock_ns = op->finish_ns;
    auto entries = DecodeTrimSummary(payload);
    if (!entries.ok()) {
      IOSNAP_LOG(kWarning) << "[recovery] unreadable trim summary ignored: "
                           << entries.status();
      continue;
    }
    for (const TrimEntry& entry : *entries) {
      PageHeader trim;
      trim.type = RecordType::kTrim;
      trim.lba = entry.lba;
      trim.trim_count = entry.count;
      trim.epoch = entry.epoch;
      trim.seq = entry.seq;
      records.push_back(ScanRecord{paddr, trim});
    }
  }

  // Sort by sequence number; de-duplicate records that survived twice because a crash
  // interrupted copy-forward before the source erase.
  std::sort(records.begin(), records.end(), [](const ScanRecord& a, const ScanRecord& b) {
    if (a.header.seq != b.header.seq) {
      return a.header.seq < b.header.seq;
    }
    return a.paddr < b.paddr;
  });
  records.erase(std::unique(records.begin(), records.end(),
                            [](const ScanRecord& a, const ScanRecord& b) {
                              return a.header.seq == b.header.seq;
                            }),
                records.end());

  for (const ScanRecord& r : records) {
    out.seq_counter = std::max(out.seq_counter, r.header.seq + 1);
  }

  // --- Pass 0: adopt the newest complete tree summary (cleaner-consolidated notes) ---
  // Snapshot notes older than that summary may have been dropped by cleaning; everything
  // they said is contained in the summary.
  uint64_t summary_seq = 0;
  {
    // Group kTreeSummary pages by group id; a group is usable if complete.
    std::map<uint32_t, std::vector<const ScanRecord*>> groups;
    for (const ScanRecord& r : records) {
      if (r.header.type == RecordType::kTreeSummary) {
        groups[r.header.snap_id].push_back(&r);
      }
    }
    const ScanRecord* best = nullptr;
    std::vector<const ScanRecord*> best_group;
    for (auto& [id, group] : groups) {
      if (group.size() != group.front()->header.trim_count) {
        continue;  // Torn summary: ignore.
      }
      uint64_t max_seq = 0;
      for (const ScanRecord* r : group) {
        max_seq = std::max(max_seq, r->header.seq);
      }
      if (best == nullptr || max_seq > summary_seq) {
        best = group.front();
        best_group = group;
        summary_seq = max_seq;
      }
    }
    if (best != nullptr) {
      std::sort(best_group.begin(), best_group.end(),
                [](const ScanRecord* a, const ScanRecord* b) {
                  return a->header.lba < b->header.lba;
                });
      std::vector<uint8_t> bytes;
      bool intact = true;
      for (size_t i = 0; i < best_group.size() && intact; ++i) {
        if (best_group[i]->header.lba != i) {
          intact = false;
          break;
        }
        std::vector<uint8_t> payload;
        StatusOr<NandOp> op = device->ReadPageWithRetry(
            best_group[i]->paddr, clock_ns, nullptr, &payload, kRecoveryReadAttempts);
        if (!op.ok()) {
          intact = false;
          break;
        }
        clock_ns = op->finish_ns;
        if (payload.size() < best_group[i]->header.payload_len) {
          intact = false;
          break;
        }
        bytes.insert(bytes.end(), payload.begin(),
                     payload.begin() + best_group[i]->header.payload_len);
      }
      size_t offset = 0;
      if (intact) {
        auto tree_or = SnapshotTree::Deserialize(bytes, &offset);
        uint32_t summary_active = kRootEpoch;
        if (tree_or.ok() && GetU32(bytes, &offset, &summary_active).ok() &&
            tree_or->EpochExists(summary_active)) {
          out.tree = std::move(tree_or).value();
          out.active_epoch = summary_active;
        } else {
          // Also a well-formed tree that does not list the summary's active epoch.
          IOSNAP_LOG(kWarning) << "[recovery] unreadable tree summary ignored: "
                               << (tree_or.ok() ? "no listed active epoch"
                                                : tree_or.status().ToString());
          summary_seq = 0;
        }
      } else {
        summary_seq = 0;
      }
    }
  }

  // --- Pass 1: replay snapshot notes newer than the summary ---
  // Notes carry explicit epoch ids (lba field), so numbering matches the runtime's
  // regardless of which older notes were consolidated away.
  for (const ScanRecord& r : records) {
    if (r.header.seq <= summary_seq) {
      continue;  // Already reflected in the summary.
    }
    switch (r.header.type) {
      case RecordType::kSnapCreate: {
        if (!out.tree.EpochExists(r.header.epoch)) {
          // The parent epoch's defining record was lost (torn tail or dropped corrupt
          // page). Skipping loses the snapshot but keeps every other lineage intact.
          IOSNAP_LOG(kWarning)
              << "[recovery] skipping create note for unknown epoch " << r.header.epoch;
          break;
        }
        SnapshotInfo info;
        info.snap_id = r.header.snap_id;
        info.epoch = r.header.epoch;
        info.create_seq = r.header.seq;
        if (r.header.payload_len > 0) {
          std::vector<uint8_t> payload;
          StatusOr<NandOp> op = device->ReadPageWithRetry(r.paddr, clock_ns, nullptr,
                                                          &payload,
                                                          kRecoveryReadAttempts);
          if (op.ok()) {
            clock_ns = op->finish_ns;
            if (payload.size() >= r.header.payload_len) {
              info.name.assign(reinterpret_cast<const char*>(payload.data()),
                               r.header.payload_len);
            }
          } else {
            // The snapshot itself survives; only its human-readable name is lost.
            IOSNAP_LOG(kWarning) << "[recovery] snapshot name unreadable: "
                                 << op.status();
          }
        }
        out.tree.RestoreSnapshot(info);
        out.tree.RestoreEpoch(static_cast<uint32_t>(r.header.lba), r.header.epoch);
        out.active_epoch = static_cast<uint32_t>(r.header.lba);
        break;
      }
      case RecordType::kSnapDelete: {
        // Tolerate unknown snapshots: the pairing create note may have been consolidated
        // together with an already-applied summary.
        Status status = out.tree.MarkDeleted(r.header.snap_id);
        if (!status.ok()) {
          IOSNAP_LOG(kDebug) << "[recovery] ignoring delete note: " << status;
        }
        break;
      }
      case RecordType::kSnapActivate: {
        auto info = out.tree.Get(r.header.snap_id);
        if (info.ok() && !out.tree.EpochExists(static_cast<uint32_t>(r.header.lba))) {
          out.tree.RestoreEpoch(static_cast<uint32_t>(r.header.lba), info->epoch);
        }
        // View epochs do not survive a crash; nothing is captured for them.
        break;
      }
      case RecordType::kRollback: {
        // The primary re-parented onto the snapshot's epoch.
        auto info = out.tree.Get(r.header.snap_id);
        if (!info.ok()) {
          IOSNAP_LOG(kWarning) << "[recovery] skipping rollback note for unknown "
                                  "snapshot "
                               << r.header.snap_id;
          break;
        }
        if (!out.tree.EpochExists(static_cast<uint32_t>(r.header.lba))) {
          out.tree.RestoreEpoch(static_cast<uint32_t>(r.header.lba), info->epoch);
        }
        out.active_epoch = static_cast<uint32_t>(r.header.lba);
        break;
      }
      case RecordType::kSnapDeactivate:
      default:
        break;
    }
  }

  // --- Pass 2: overlay data/trim records along the epoch tree ---
  std::unordered_map<uint32_t, std::vector<ScanRecord>> by_epoch;
  for (const ScanRecord& r : records) {
    if (r.header.type == RecordType::kData || r.header.type == RecordType::kTrim) {
      if (!out.tree.EpochExists(r.header.epoch)) {
        // Garbage from a dead branch whose defining notes were consolidated away.
        IOSNAP_LOG(kDebug) << "[recovery] skipping record in unknown epoch "
                           << r.header.epoch;
        continue;
      }
      by_epoch[r.header.epoch].push_back(r);
    }
    if (r.header.type == RecordType::kData && out.tree.EpochExists(r.header.epoch)) {
      out.data_records.push_back({r.paddr, r.header.epoch, r.header.seq});
    }
  }

  // Exactly the live epochs get a validity set: Ftl::Open replays them through
  // ValidityMap::SetValid, which both reconstructs the per-epoch bitmaps and rebuilds
  // the incremental per-segment utilization counters (the counters cover the map's
  // registered epoch set, which must equal the FTL's live-epoch set).
  std::unordered_set<uint32_t> capture_epochs;
  for (uint32_t epoch : out.tree.LiveSnapshotEpochs()) {
    capture_epochs.insert(epoch);
  }
  capture_epochs.insert(out.active_epoch);

  // Iterative DFS from the root, carrying the inherited state. The state map is copied
  // per extra child — the in-memory analogue of the paper's breadth-first merge.
  struct Frame {
    uint32_t epoch;
    StateMap state;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{kRootEpoch, StateMap{}});
  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    auto rec_it = by_epoch.find(frame.epoch);
    if (rec_it != by_epoch.end()) {
      ApplyEpochRecords(rec_it->second, &frame.state);
    }
    if (capture_epochs.contains(frame.epoch)) {
      out.validity[frame.epoch] = ValidSetOf(frame.state);
      if (frame.epoch == out.active_epoch) {
        out.primary_map = SortedMapOf(frame.state);
      }
    }
    const std::vector<uint32_t> children = out.tree.ChildrenOf(frame.epoch);
    for (size_t i = 0; i < children.size(); ++i) {
      if (i + 1 == children.size()) {
        stack.push_back(Frame{children[i], std::move(frame.state)});
      } else {
        stack.push_back(Frame{children[i], frame.state});
      }
    }
  }

  out.finish_ns = clock_ns;
  return out;
}

}  // namespace iosnap
