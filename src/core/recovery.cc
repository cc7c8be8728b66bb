#include "src/core/recovery.h"

#include <algorithm>
#include <limits>
#include <tuple>

#include "src/common/bitmap.h"
#include "src/common/logging.h"
#include "src/common/serde.h"
#include "src/core/trim_summary.h"

namespace iosnap {

namespace {

// Attempts per page read during recovery before a transient failure is treated as
// permanent. Recovery is the last line of defense, so it retries a little harder
// than the foreground path.
constexpr uint32_t kRecoveryReadAttempts = 4;

// The replay array's entry for an LBA that no replayed record maps.
constexpr uint64_t kUnmapped = ~uint64_t{0};

}  // namespace

StatusOr<RecoveredState> RecoverFromDevice(NandDevice* device, uint64_t lba_count,
                                           uint64_t issue_ns) {
  RecoveredState out;
  uint64_t clock_ns = issue_ns;
  // Reads a page's payload with retries; a successful read advances the clock.
  const auto read_payload = [&](uint64_t paddr, std::vector<uint8_t>* payload) -> Status {
    ASSIGN_OR_RETURN(const NandOp op, device->ReadPageWithRetry(paddr, clock_ns, nullptr,
                                                                payload,
                                                                kRecoveryReadAttempts));
    clock_ns = op.finish_ns;
    return OkStatus();
  };

  // --- Scan every segment's OOB headers ---
  // Each segment's headers land in one reused buffer and fold straight into `records`,
  // so the scan never holds a second copy of every header. Trim summaries are read after
  // the scan, in scan order. A programmed page yields at most one record, so `records`
  // is sized once; only trim-summary expansion can grow it again.
  uint64_t programmed_pages = 0;
  for (uint64_t seg = 0; seg < device->config().num_segments; ++seg) {
    programmed_pages += device->ProgrammedPages(seg);
  }
  std::vector<ScanRecord>& records = out.records;
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
    if (Status read = read_payload(paddr, &payload); !read.ok()) {
      IOSNAP_LOG(kWarning) << "[recovery] unreadable trim summary ignored: " << read;
      continue;
    }
    auto entries = DecodeTrimSummary(payload);
    if (!entries.ok()) {
      IOSNAP_LOG(kWarning) << "[recovery] unreadable trim summary ignored: "
                           << entries.status();
      continue;
    }
    for (const TrimEntry& entry : *entries) {
      records.push_back({paddr, PageHeader{.type = RecordType::kTrim, .epoch = entry.epoch,
                                           .lba = entry.lba, .seq = entry.seq,
                                           .trim_count = entry.count}});
    }
  }

  // Sort by sequence number; de-duplicate records that survived twice because a crash
  // interrupted copy-forward before the source erase.
  std::sort(records.begin(), records.end(), [](const ScanRecord& a, const ScanRecord& b) {
    return std::tie(a.header.seq, a.paddr) < std::tie(b.header.seq, b.paddr);
  });
  records.erase(std::unique(records.begin(), records.end(),
                            [](const ScanRecord& a, const ScanRecord& b) {
                              return a.header.seq == b.header.seq;
                            }),
                records.end());

  if (!records.empty()) {
    out.seq_counter = records.back().header.seq + 1;
  }

  // --- Pass 0: adopt the newest complete tree summary (cleaner-consolidated notes) ---
  // Snapshot notes older than that summary may have been dropped by cleaning; everything
  // they said is contained in the summary.
  uint64_t summary_seq = 0;
  {
    // Group kTreeSummary pages by group id; a group is usable if complete. Each group
    // is in sequence order, so its last page carries its newest seq.
    std::map<uint32_t, std::vector<const ScanRecord*>> groups;
    for (const ScanRecord& r : records) {
      if (r.header.type == RecordType::kTreeSummary) {
        groups[r.header.snap_id].push_back(&r);
      }
    }
    std::vector<const ScanRecord*>* best = nullptr;
    for (auto& [id, group] : groups) {
      if (group.size() != group.front()->header.trim_count) {
        continue;  // Torn summary: ignore.
      }
      if (best == nullptr || group.back()->header.seq > summary_seq) {
        best = &group;
        summary_seq = group.back()->header.seq;
      }
    }
    if (best != nullptr) {
      std::sort(best->begin(), best->end(), [](const ScanRecord* a, const ScanRecord* b) {
        return a->header.lba < b->header.lba;
      });
      std::vector<uint8_t> bytes;
      bool intact = true;
      for (size_t i = 0; i < best->size() && intact; ++i) {
        const ScanRecord& page = *(*best)[i];
        std::vector<uint8_t> payload;
        intact = page.header.lba == i && read_payload(page.paddr, &payload).ok() &&
                 payload.size() >= page.header.payload_len;
        if (intact) {
          bytes.insert(bytes.end(), payload.begin(),
                       payload.begin() + page.header.payload_len);
        }
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
          if (Status read = read_payload(r.paddr, &payload); read.ok()) {
            if (payload.size() >= r.header.payload_len) {
              info.name.assign(reinterpret_cast<const char*>(payload.data()),
                               r.header.payload_len);
            }
          } else {
            // The snapshot itself survives; only its human-readable name is lost.
            IOSNAP_LOG(kWarning) << "[recovery] snapshot name unreadable: " << read;
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

  // --- Pass 2: replay each live epoch's root path over one LBA-indexed array ---
  // Data and trim records are grouped by epoch once, as indices into `records`, so each
  // group stays in sequence order.
  if (records.size() > std::numeric_limits<uint32_t>::max()) {
    return ResourceExhausted("recovery: more records than a 32-bit index holds");
  }
  std::map<uint32_t, std::vector<uint32_t>> by_epoch;
  for (uint32_t i = 0; i < records.size(); ++i) {
    const PageHeader& header = records[i].header;
    if (header.type != RecordType::kData && header.type != RecordType::kTrim) {
      continue;
    }
    if (!out.tree.EpochExists(header.epoch)) {
      // Garbage from a dead branch whose defining notes were consolidated away.
      IOSNAP_LOG(kDebug) << "[recovery] skipping record in unknown epoch " << header.epoch;
    } else if (header.lba >= lba_count) {
      IOSNAP_LOG(kWarning) << "[recovery] skipping record with lba " << header.lba
                           << " beyond the LBA space";
    } else {
      by_epoch[header.epoch].push_back(i);
    }
  }

  // Exactly the live epochs get a validity set: Ftl::Open replays them through
  // ValidityMap::SetValidBatch, which both reconstructs the per-epoch bitmaps and
  // rebuilds the incremental per-segment utilization counters (the counters cover the
  // map's registered epoch set, which must equal the FTL's live-epoch set).
  std::vector<uint32_t> live = out.tree.LiveSnapshotEpochs();
  live.push_back(out.active_epoch);
  std::sort(live.begin(), live.end());
  live.erase(std::unique(live.begin(), live.end()), live.end());

  // An epoch's id exceeds its ancestors', so along a chain of snapshots each live epoch
  // continues from the state the array holds for the one before it.
  std::vector<uint64_t> paddr_of(lba_count, kUnmapped);
  const uint64_t total_pages = device->config().TotalPages();
  Bitmap valid_pages(total_pages);
  uint32_t replayed = kNoEpoch;  // The epoch whose state the array holds.
  for (const uint32_t epoch : live) {
    const std::vector<uint32_t> lineage = out.tree.Lineage(epoch);  // Leaf first.
    const auto held = std::find(lineage.begin(), lineage.end(), replayed);
    if (held == lineage.end()) {  // Not an ancestor: start over from the root.
      std::fill(paddr_of.begin(), paddr_of.end(), kUnmapped);
    }
    for (auto e = std::make_reverse_iterator(held); e != lineage.rend(); ++e) {
      for (const uint32_t i : by_epoch[*e]) {
        const PageHeader& header = records[i].header;
        if (header.type == RecordType::kData) {
          paddr_of[header.lba] = records[i].paddr;
        } else {  // A trim, clamped to the LBA space (header.lba < lba_count).
          std::fill_n(paddr_of.begin() + header.lba,
                      std::min<uint64_t>(header.trim_count, lba_count - header.lba),
                      kUnmapped);
        }
      }
    }
    replayed = epoch;

    // The valid pages go out in physical order, through a page bitmap: the validity
    // replay in Ftl::Open then fills one chunk at a time.
    const size_t mapped =
        lba_count - std::count(paddr_of.begin(), paddr_of.end(), kUnmapped);
    if (epoch == out.active_epoch) {
      out.primary_map.reserve(mapped);
    }
    for (uint64_t lba = 0; lba < lba_count; ++lba) {
      if (paddr_of[lba] != kUnmapped) {
        valid_pages.Set(paddr_of[lba]);
        if (epoch == out.active_epoch) {
          out.primary_map.emplace_back(lba, paddr_of[lba]);
        }
      }
    }
    std::vector<uint64_t>& valid = out.validity[epoch];
    valid.reserve(mapped);
    for (uint64_t p = valid_pages.FindFirstSet(); p < total_pages;
         p = valid_pages.FindFirstSet(p + 1)) {
      valid.push_back(p);
    }
    valid_pages.Reset();
  }

  out.finish_ns = clock_ns;
  return out;
}

}  // namespace iosnap
