// Background patrol scrubber (media reliability).
//
// Read disturb and retention loss (src/nand wear model) corrupt pages *in place*; once
// a page's stored CRC no longer verifies the data is gone — the only remaining options
// are dropping the references and erasing the media. The patrol scrubber's job is to
// act *before* that happens and to contain the damage when it does:
//
//   * It sweeps closed segments at a paced background rate, CRC-verifying every
//     programmed page (a timed OOB header read, charged like any other background op —
//     patrol interference shows up in foreground bg_wait_ns attribution exactly like
//     GC traffic does).
//   * Live pages whose read traffic or age crossed a refresh threshold — or that
//     needed a read retry to come back — are rewritten to a fresh segment via the GC
//     head. The copy resets both wear-model terms (new segment, new program timestamp)
//     while preserving the record's logical identity (lba, epoch, seq), exactly like a
//     cleaner copy-forward.
//   * Pages that already fail CRC are expunged: live references are dropped (validity
//     bits in every live epoch, forward-map entries) and the whole segment is evacuated
//     through SegmentCleaner::CleanSegmentBlocking so the corrupt page is physically
//     erased — the property iosnap_fsck's clean verdict depends on.
//
// Pacing mirrors the idle GC path: Ftl::PumpBackground calls Step under a RateLimiter
// built from FtlConfig::patrol_sleep_ms, budgeted at patrol_pages_per_step pages per
// burst. ScrubAllBlocking runs one full unpaced sweep (iosnap_fsck --repair).

#ifndef SRC_CORE_PATROL_SCRUBBER_H_
#define SRC_CORE_PATROL_SCRUBBER_H_

#include <cstdint>

#include "src/common/status.h"

namespace iosnap {

class Ftl;

class PatrolScrubber {
 public:
  explicit PatrolScrubber(Ftl* ftl);

  // Scans up to `max_pages` programmed pages starting at the persistent cursor,
  // rewriting / dropping / evacuating as described above. Segments that are not
  // closed (open heads, free, retired) are skipped without charge. Returns the device
  // finish time of the work performed (== now_ns when nothing was scanned). The cursor
  // survives across calls; completing a full pass over the device increments
  // FtlStats::patrol_sweeps.
  StatusOr<uint64_t> Step(uint64_t now_ns, uint64_t max_pages);

  // Resets the cursor and runs one complete sweep with no pacing. Returns the finish
  // time. This is the offline repair entry point (iosnap_fsck --repair).
  StatusOr<uint64_t> ScrubAllBlocking(uint64_t now_ns);

 private:
  // Scans one page; returns the device finish time. `paddr` must be programmed and its
  // segment closed. Sets *segment_dirty when the page failed CRC (the segment must be
  // evacuated at end of pass).
  StatusOr<uint64_t> ScanPage(uint64_t paddr, uint64_t now_ns, bool* segment_dirty);

  // Reads `paddr` in full and re-appends it through the GC head, then performs the
  // copy-forward fix-ups (Ftl::MovePage). Falls back to RebuildOrDrop when the full
  // read reveals the page is corrupt. Returns the device finish time.
  StatusOr<uint64_t> RewritePage(uint64_t paddr, uint64_t now_ns, bool* segment_dirty);

  // Handles a CRC-failed page and sets *segment_dirty: salvages it (Ftl::SalvagePage:
  // a rebuild from its stripe, else a drop of every reference, so nothing resolves to
  // it once its segment is evacuated) and counts a drop of a live page in
  // patrol_pages_dropped. Returns the rebuild's finish time, or `now_ns` after a drop;
  // a rebuild error other than kDataLoss propagates.
  StatusOr<uint64_t> RebuildOrDrop(uint64_t paddr, uint64_t now_ns, bool* segment_dirty);

  // True when the live page at `paddr` crossed a refresh threshold (segment read
  // count / page age; a zero threshold disables that trigger).
  bool NeedsRefresh(uint64_t paddr, uint64_t now_ns) const;

  Ftl* ftl_;
  uint64_t cursor_segment_ = 0;
  uint64_t cursor_page_ = 0;
  // True when the current cursor segment was found to hold a CRC-failed page; forces
  // evacuation when the cursor leaves the segment.
  bool segment_dirty_ = false;
};

}  // namespace iosnap

#endif  // SRC_CORE_PATROL_SCRUBBER_H_
