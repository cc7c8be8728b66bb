// Offline consistency checker for ioSnap media (the iosnap_fsck library).
//
// The online FTL deliberately *hides* media corruption: ScanSegmentHeaders (the
// primitive under crash recovery and activation) silently drops CRC-failing pages, so
// a recovered FTL simply never references them. That is the right availability
// trade-off online, but it means "recovery succeeded" proves nothing about whether
// data was lost. FsckDevice answers the stronger question by combining two views:
//
//   1. A raw scan (NandDevice::InspectPage) of every programmed page, including the
//      ones the timed read path would reject — per-(epoch, lba) it tracks the highest
//      sequence number among *intact* data records.
//   2. A full crash recovery (RecoverFromDevice), yielding the epoch tree, the live
//      validity sets of every snapshot epoch, and the primary forward map.
//
// Cross-checks:
//   * Every validity-referenced page must exist, verify, and be a data record
//     (dangling_validity_refs).
//   * Every primary-map entry must point at an intact data page for that LBA
//     (map_mismatches).
//   * No physical page may be claimed by two LBAs (doubly_claimed_pages).
//   * A CRC-failed data page is *lost data* — an error — exactly when no intact
//     on-media record of the same (epoch, lba) carries an equal-or-higher seq (i.e.
//     neither an overwrite nor a patrol/GC copy-forward superseded it) AND its epoch
//     lies on a live epoch's lineage. Superseded or dead-epoch corruption and corrupt
//     non-data records are counted but are not errors: recovery provably does not
//     need them.
//
// Known limitations: a page that was trimmed *and* later corrupted is still flagged as
// lost — trim notes kill map entries, not the supersession bound. Repair (the patrol
// scrubber's ScrubAllBlocking) resolves either way by expunging the page. And the image
// does not record the FTL's LBA space, so a record whose LBA lies in the overprovision
// (below the device's page count) passes; Ftl::Open, which knows the space, skips it.

#ifndef SRC_CORE_FSCK_H_
#define SRC_CORE_FSCK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/nand/nand_device.h"

namespace iosnap {

struct FsckReport {
  // Raw-scan totals.
  uint64_t pages_scanned = 0;   // Programmed pages inspected.
  uint64_t crc_failures = 0;    // Programmed pages whose stored CRC does not verify.
  // CRC-failure triage.
  uint64_t lost_data_pages = 0;          // Corrupt, live lineage, not superseded. ERROR.
  uint64_t rebuilt_data_pages = 0;       // Would be lost, but offline XOR-parity
                                         // reconstruction succeeds: recoverable by
                                         // --repair, so dirty rather than lost.
  uint64_t superseded_corrupt_pages = 0; // Corrupt but out-written / dead epoch.
  uint64_t corrupt_metadata_pages = 0;   // Corrupt non-data records (notes, summaries).
  // Metadata cross-check failures (all errors).
  uint64_t dangling_validity_refs = 0;  // Validity bit with no intact data page under it.
  uint64_t map_mismatches = 0;          // Forward-map entry not backed by its LBA's page.
  uint64_t doubly_claimed_pages = 0;    // One physical page claimed by two LBAs.
  // Informational.
  uint64_t orphaned_pages = 0;  // Intact data pages no live epoch references (garbage
                                // awaiting GC; normal for a log-structured device).
  uint64_t epochs_checked = 0;  // Live epochs whose validity sets were verified.
  // Stripe width the check ran with: the caller's flag, or (when that was 0) the
  // width inferred from the media. 0 = no parity found, reconstruction disabled.
  uint64_t parity_stripe = 0;
  bool recovery_ok = false;     // RecoverFromDevice succeeded.
  // Human-readable descriptions of the first errors found (bounded).
  std::vector<std::string> errors;

  bool Clean() const {
    return recovery_ok && lost_data_pages == 0 && rebuilt_data_pages == 0 &&
           dangling_validity_refs == 0 && map_mismatches == 0 &&
           doubly_claimed_pages == 0;
  }
};

// Checks `device` as described above. The device is inspected read-only (untimed raw
// scans plus one recovery header scan); run it on a loaded image (LoadNandImage) or a
// quiesced device. Returns a report even when the media is dirty — a non-OK status
// means the check itself could not run (e.g. recovery crashed so badly no cross-check
// was possible is still reported via recovery_ok=false, not an error status).
//
// `parity_stripe` enables re-triaging corrupt data pages that an offline XOR-stripe
// reconstruction (src/nand/parity.h) can recover: they count as rebuilt_data_pages
// (dirty, repairable) instead of lost_data_pages. 0 infers the stripe width from the
// media — the smallest in-segment index of any intact parity page — and disables the
// re-triage when the media carries no parity pages at all.
StatusOr<FsckReport> FsckDevice(NandDevice* device, uint64_t parity_stripe = 0);

// Renders the report as a short human-readable block (one line per counter plus the
// collected error descriptions).
std::string FormatFsckReport(const FsckReport& report);

}  // namespace iosnap

#endif  // SRC_CORE_FSCK_H_
