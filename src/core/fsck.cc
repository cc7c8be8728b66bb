#include "src/core/fsck.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "src/core/recovery.h"
#include "src/core/snapshot_tree.h"
#include "src/nand/page_header.h"
#include "src/nand/parity.h"

namespace iosnap {

namespace {

// Bound on per-error descriptions so a badly damaged image cannot balloon the report;
// the counters always cover everything.
constexpr size_t kMaxErrorDescriptions = 32;

void AddError(FsckReport* report, std::string msg) {
  if (report->errors.size() < kMaxErrorDescriptions) {
    report->errors.push_back(std::move(msg));
  }
}

// True when the corrupt page at `paddr` can be reconstructed offline from its XOR
// parity stripe: the covering parity page and every other member slot must be
// programmed and intact, the parity page must actually cover this stripe (record type
// and member count both match; a poisoned accumulator writes member count 0 and so
// always fails here), and the fully-XORed image must decode to a CRC-clean member.
bool OfflineRebuildable(const NandDevice& device, uint64_t paddr, uint64_t stripe) {
  const uint64_t pages_per_segment = device.config().pages_per_segment;
  const uint64_t page_size = device.config().page_size_bytes;
  const uint64_t seg_first = paddr - paddr % pages_per_segment;
  const uint64_t index = paddr - seg_first;
  if (stripe == 0 || IsParitySlot(index, stripe, pages_per_segment)) {
    return false;
  }
  const uint64_t pslot = ParitySlotFor(index, stripe, pages_per_segment);
  const NandDevice::PageInspection pinsp = device.InspectPage(seg_first + pslot);
  if (!pinsp.programmed || !pinsp.crc_ok ||
      pinsp.header.type != RecordType::kParity ||
      pinsp.header.trim_count != pslot - StripeStartIndex(pslot, stripe)) {
    return false;
  }
  const std::span<const uint8_t> pdata = device.PeekPageData(seg_first + pslot);
  if (pdata.size() != ParityImageSize(page_size)) {
    return false;
  }
  std::vector<uint8_t> image(pdata.begin(), pdata.end());
  for (uint64_t i = StripeStartIndex(pslot, stripe); i < pslot; ++i) {
    const uint64_t member = seg_first + i;
    if (member == paddr) {
      continue;
    }
    const NandDevice::PageInspection minsp = device.InspectPage(member);
    if (!minsp.programmed || !minsp.crc_ok ||
        !XorMemberImage(image, minsp.header, device.PeekPageData(member), page_size)
             .ok()) {
      return false;  // Second fault in the stripe: XOR cannot separate them.
    }
  }
  return DecodeMemberImage(image, page_size).ok();
}

}  // namespace

StatusOr<FsckReport> FsckDevice(NandDevice* device, uint64_t parity_stripe) {
  if (device == nullptr) {
    return InvalidArgument("fsck: no device");
  }
  FsckReport report;

  // Pass 1 — raw media scan. Unlike recovery's header scan this sees CRC-failing
  // pages; the per-(epoch, lba) max intact seq is the supersession bound used to
  // decide whether a corrupt page still mattered.
  const uint64_t total_pages = device->config().TotalPages();
  std::map<std::pair<uint32_t, uint64_t>, uint64_t> max_intact_seq;
  std::map<uint64_t, PageHeader> intact_data;  // paddr -> header of intact kData pages.
  std::vector<std::pair<uint64_t, PageHeader>> corrupt;
  // Stripe-width inference when the caller passed 0: the first regular parity slot
  // sits at in-segment index == stripe width, so the smallest intact parity index
  // recovers it with no metadata (see src/nand/parity.h).
  uint64_t inferred_stripe = 0;
  for (uint64_t paddr = 0; paddr < total_pages; ++paddr) {
    const NandDevice::PageInspection insp = device->InspectPage(paddr);
    if (!insp.programmed) {
      continue;
    }
    ++report.pages_scanned;
    if (!insp.crc_ok) {
      ++report.crc_failures;
      corrupt.emplace_back(paddr, insp.header);
      continue;
    }
    if (insp.header.type == RecordType::kParity) {
      const uint64_t index = paddr % device->config().pages_per_segment;
      if (inferred_stripe == 0 || index < inferred_stripe) {
        inferred_stripe = index;
      }
    }
    if (insp.header.type == RecordType::kData) {
      intact_data.emplace(paddr, insp.header);
      const std::pair<uint32_t, uint64_t> key(insp.header.epoch, insp.header.lba);
      auto [it, inserted] = max_intact_seq.emplace(key, insp.header.seq);
      if (!inserted && insp.header.seq > it->second) {
        it->second = insp.header.seq;
      }
    }
  }

  const uint64_t stripe = parity_stripe > 0 ? parity_stripe : inferred_stripe;
  report.parity_stripe = stripe;

  // Pass 2 — full crash recovery, the same reconstruction a restart would run. The image
  // does not record its LBA space, so LBAs are bounded by the device's page count.
  StatusOr<RecoveredState> recovered =
      RecoverFromDevice(device, device->config().TotalPages(), 0);
  if (!recovered.ok()) {
    report.recovery_ok = false;
    AddError(&report, "recovery failed: " + recovered.status().ToString());
    // With no epoch tree every corrupt data page must be assumed lost.
    for (const auto& [paddr, header] : corrupt) {
      if (header.type == RecordType::kData) {
        ++report.lost_data_pages;
      } else {
        ++report.corrupt_metadata_pages;
      }
    }
    return report;
  }
  report.recovery_ok = true;
  const RecoveredState& state = *recovered;

  std::vector<uint32_t> live_epochs = state.tree.LiveSnapshotEpochs();
  live_epochs.push_back(state.active_epoch);
  std::sort(live_epochs.begin(), live_epochs.end());
  live_epochs.erase(std::unique(live_epochs.begin(), live_epochs.end()),
                    live_epochs.end());

  // Triage every CRC failure: lost data iff some live epoch's lineage reaches the
  // record's epoch AND no intact on-media record of the same (epoch, lba) carries an
  // equal-or-higher seq. (An equal seq means a GC/patrol copy-forward of this very
  // record survives intact.) Note: a page that stores no payload takes the corruption
  // in its header (the device flips a bit of its LBA), and iosnap_sim's images hold
  // only such data pages (its workloads write no payload). The garbled LBA has no
  // intact successor, so the page counts as lost even when its true LBA has a newer
  // intact copy: the triage of such a page is conservative. (A garbled epoch the tree
  // never saw would fail the lineage test instead.) A page with a stored payload keeps
  // an intact header and triages exactly.
  for (const auto& [paddr, header] : corrupt) {
    if (header.type != RecordType::kData) {
      ++report.corrupt_metadata_pages;
      continue;
    }
    bool on_live_lineage = false;
    for (uint32_t epoch : live_epochs) {
      if (state.tree.InLineage(epoch, header.epoch)) {
        on_live_lineage = true;
        break;
      }
    }
    const auto it = max_intact_seq.find({header.epoch, header.lba});
    const bool superseded = it != max_intact_seq.end() && it->second >= header.seq;
    if (on_live_lineage && !superseded) {
      // Would be lost — unless the stripe can reconstruct it, in which case the page
      // is merely dirty: --repair (the online scrub, which runs the same rebuild)
      // brings the media back to clean.
      if (OfflineRebuildable(*device, paddr, stripe)) {
        ++report.rebuilt_data_pages;
        continue;
      }
      ++report.lost_data_pages;
      AddError(&report, "lost data: paddr " + std::to_string(paddr) + " (lba " +
                            std::to_string(header.lba) + ", epoch " +
                            std::to_string(header.epoch) + ", seq " +
                            std::to_string(header.seq) +
                            ") fails CRC with no intact successor");
    } else {
      ++report.superseded_corrupt_pages;
    }
  }

  // Validity cross-check: every referenced page must be an intact data page, once.
  std::set<uint64_t> referenced;
  report.epochs_checked = state.validity.size();
  for (const auto& [epoch, paddrs] : state.validity) {
    std::set<uint64_t> seen_in_epoch;
    for (uint64_t paddr : paddrs) {
      referenced.insert(paddr);
      if (!seen_in_epoch.insert(paddr).second) {
        ++report.doubly_claimed_pages;
        AddError(&report, "epoch " + std::to_string(epoch) +
                              " claims paddr " + std::to_string(paddr) + " twice");
        continue;
      }
      if (!intact_data.contains(paddr)) {
        ++report.dangling_validity_refs;
        AddError(&report, "epoch " + std::to_string(epoch) + " validity references paddr " +
                              std::to_string(paddr) + " which is missing or corrupt");
      }
    }
  }

  // Forward-map cross-check: each entry must resolve to an intact page recorded for
  // that LBA, and no physical page may back two LBAs.
  std::map<uint64_t, uint64_t> claimed_by;  // paddr -> lba.
  for (const auto& [lba, paddr] : state.primary_map) {
    const auto it = intact_data.find(paddr);
    if (it == intact_data.end() || it->second.lba != lba) {
      ++report.map_mismatches;
      AddError(&report, "map: lba " + std::to_string(lba) + " -> paddr " +
                            std::to_string(paddr) +
                            (it == intact_data.end() ? " (missing or corrupt)"
                                                     : " (header names another lba)"));
    }
    const auto [cit, inserted] = claimed_by.emplace(paddr, lba);
    if (!inserted) {
      ++report.doubly_claimed_pages;
      AddError(&report, "map: paddr " + std::to_string(paddr) + " claimed by lba " +
                            std::to_string(cit->second) + " and lba " +
                            std::to_string(lba));
    }
  }

  // Orphans (informational): intact data pages no live epoch references — ordinary
  // garbage awaiting the cleaner on a log-structured device.
  for (const auto& [paddr, header] : intact_data) {
    if (!referenced.contains(paddr)) {
      ++report.orphaned_pages;
    }
  }
  return report;
}

std::string FormatFsckReport(const FsckReport& report) {
  std::ostringstream out;
  out << "fsck: " << (report.Clean() ? "clean" : "DIRTY") << "\n"
      << "  pages_scanned            " << report.pages_scanned << "\n"
      << "  crc_failures             " << report.crc_failures << "\n"
      << "  lost_data_pages          " << report.lost_data_pages << "\n"
      << "  rebuilt_data_pages       " << report.rebuilt_data_pages << "\n"
      << "  superseded_corrupt_pages " << report.superseded_corrupt_pages << "\n"
      << "  corrupt_metadata_pages   " << report.corrupt_metadata_pages << "\n"
      << "  dangling_validity_refs   " << report.dangling_validity_refs << "\n"
      << "  map_mismatches           " << report.map_mismatches << "\n"
      << "  doubly_claimed_pages     " << report.doubly_claimed_pages << "\n"
      << "  orphaned_pages           " << report.orphaned_pages << "\n"
      << "  epochs_checked           " << report.epochs_checked << "\n"
      << "  recovery_ok              " << (report.recovery_ok ? "yes" : "no") << "\n";
  for (const std::string& error : report.errors) {
    out << "  error: " << error << "\n";
  }
  return out.str();
}

}  // namespace iosnap
