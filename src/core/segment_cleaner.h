// Snapshot-aware segment cleaner (§5.4).
//
// Cleaning a segment with snapshots present differs from vanilla cleaning in three ways
// (Figure 6):
//   1. Liveness is the OR ("merge") of every live epoch's validity bitmap — a block
//      invalid in the active view may still belong to a snapshot. Epochs of deleted
//      snapshots drop out of the merge, which is how deletion reclaims space lazily.
//   2. Copy-forward preserves the block's logical identity (lba, epoch, seq) so that
//      later activations and crash recovery still attribute it correctly.
//   3. After a move, the validity bit must be cleared/set in *every* epoch that
//      referenced the old location ("move and reset validity bits").
//
// Snapshot notes and trim notes are always copied forward: they are the only persistent
// record of the epoch tree and of discards, and recovery needs them.
//
// The cleaner runs either incrementally (Step, paced by the write path / idle pump) or
// synchronously (CleanOneBlocking, the emergency path when the free pool is exhausted —
// the source of the paper's Figure 10 latency spikes under the vanilla rate policy).

#ifndef SRC_CORE_SEGMENT_CLEANER_H_
#define SRC_CORE_SEGMENT_CLEANER_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/bitmap.h"
#include "src/common/status.h"
#include "src/core/trim_summary.h"
#include "src/ftl/log_manager.h"
#include "src/nand/page_header.h"

namespace iosnap {

class Ftl;

class SegmentCleaner {
 public:
  explicit SegmentCleaner(Ftl* ftl);

  // Selects a victim (policy from FtlConfig), scans its headers, and merges validity.
  // Returns false when no cleanable segment exists. No-op if a victim is in progress.
  bool StartVictim(uint64_t now_ns);

  bool HasVictim() const { return victim_.has_value(); }

  // True when static wear leveling wants to recycle a cold segment (drives idle-time
  // cleaning even when the free pool is healthy).
  bool WearImbalanced() const;

  // Pages the *pacing policy* believes remain to be copied for the current victim.
  // Under the vanilla rate policy this counts only the active epoch's valid pages and so
  // under-estimates when snapshots hold extra live data (Fig 10b); the snapshot-aware
  // policy counts the merged validity (Fig 10c).
  uint64_t PacingEstimateRemaining() const;

  // Copies up to `max_pages` live pages (plus any interleaved notes); erases and frees
  // the victim when finished. Returns the device finish time of the work performed
  // (== now_ns when there was nothing to do).
  StatusOr<uint64_t> Step(uint64_t now_ns, uint64_t max_pages);

  // Selects a victim if needed and cleans it to completion synchronously.
  // Returns the finish time; no-op returning now_ns when nothing is cleanable.
  StatusOr<uint64_t> CleanOneBlocking(uint64_t now_ns);

  // Cleans one *specific* closed segment to completion (the patrol scrubber's
  // evacuation path: relocate every live page, then erase, so corrupt pages are
  // physically removed from the media). Any in-flight victim is finished first.
  // No-op returning the current time when the segment is not cleanable.
  StatusOr<uint64_t> CleanSegmentBlocking(uint64_t segment, uint64_t now_ns);

 private:
  struct Victim {
    uint64_t segment = 0;
    // All programmed pages of the segment at scan time (paddr, header).
    std::vector<std::pair<uint64_t, PageHeader>> entries;
    size_t cursor = 0;             // Next entry to process.
    uint64_t pacing_estimate = 0;  // See PacingEstimateRemaining().
    uint64_t pacing_done = 0;      // Pages copied so far.
    // Trim notes with seq below this bound predate every surviving data record: they can
    // kill nothing at recovery and are dropped instead of copied forward. Snapshotted at
    // victim start (the bound is monotone, so a stale value is merely conservative).
    uint64_t trim_retention_seq = 0;
    // Still-needed trim records gathered from the victim (single notes and entries of
    // older kTrimSummary pages); compacted into fresh summary pages at completion.
    std::vector<TrimEntry> live_trims;
    // Copyback-mode processing order (FtlConfig::gc_copyback; empty otherwise).
    // Non-data entries drain first in scan order; data entries are bucketed by source
    // channel and drained chasing the destination head's next-append channel, so
    // relocations line up with the on-die copyback fast path. Reordering is safe:
    // copy-forward preserves each record's logical identity (lba, epoch, seq).
    std::vector<size_t> meta_order;
    size_t meta_cursor = 0;
    std::vector<std::deque<size_t>> channel_queues;
    size_t data_remaining = 0;
    // Programmed pages the victim scan excluded because their stored CRC failed. A
    // page corrupted at rest would otherwise ride the victim's erase while forward maps
    // still point at it; these get a rebuild-or-drop pass at victim completion, before
    // the segment is released (a drop when parity is off).
    std::vector<uint64_t> corrupt_paddrs;
  };

  // True if a trim record must be kept (see Victim::trim_retention_seq).
  bool TrimStillNeeded(uint32_t epoch, uint64_t seq);

  // Writes the victim's gathered trims as dense summary pages. Returns device finish.
  StatusOr<uint64_t> FlushTrimSummaries(uint64_t now_ns);

  std::optional<uint64_t> SelectVictim(uint64_t now_ns);

  // Scans `segment` and installs it as the current victim (shared tail of
  // StartVictim / StartVictimAt). Returns false if the scan or the tree-summary
  // consolidation failed.
  bool BeginVictim(uint64_t segment, uint64_t now_ns);
  // StartVictim for a caller-chosen closed segment (evacuation). Returns false when
  // the segment is not closed or another victim is mid-flight on a different segment.
  bool StartVictimAt(uint64_t segment, uint64_t now_ns);

  // The coldest cleanable segment if its wear lags the most-worn by >= threshold.
  std::optional<uint64_t> WearLevelingCandidate() const;

  // Processes one entry; returns the device finish time (now_ns if entry was dropped).
  StatusOr<uint64_t> ProcessEntry(const std::pair<uint64_t, PageHeader>& entry,
                                  uint64_t now_ns, bool* copied_data_page);

  // Stands in for the relocation of a permanently unreadable data page: salvages it
  // (Ftl::SalvagePage: a rebuild from its stripe, else a drop of every reference, so
  // nothing points at it once the victim is erased). A rebuild counts as a copied page;
  // a drop counts in gc_pages_lost. Returns the rebuild's finish time, or `now_ns`
  // after a drop; a rebuild error other than kDataLoss propagates.
  StatusOr<uint64_t> RebuildOrDrop(uint64_t paddr, uint64_t now_ns, bool* copied_data_page);

  // Post-relocation bookkeeping shared by the classic read+append path and the
  // copyback path: Ftl::MovePage, stats, and the copy-forward trace event.
  // `via_copyback` additionally records a kGcCopy latency span breakdown
  // (copyback-only so default runs carry no extra records).
  uint64_t FinishRelocation(uint64_t paddr, const PageHeader& header,
                            const AppendResult& ar, uint64_t now_ns, bool via_copyback,
                            bool* copied_data_page);

  // Channel queue holding the next data entry to relocate in copyback mode: one whose
  // front entry's relocation would land on-die if such a queue exists, else the first
  // non-empty queue. Peek only — the caller pops the front (and decrements
  // data_remaining) after the relocation succeeds, so a propagating error leaves the
  // entry queued for retry on the next Step. nullopt when all data entries are drained.
  std::optional<uint32_t> PickCopybackChannel();

  // True when every entry of the current victim has been processed.
  bool VictimExhausted() const;

  // Destination append head for a copy-forwarded record.
  int HeadForEpoch(uint32_t epoch) const;

  Ftl* ftl_;
  std::optional<Victim> victim_;
};

}  // namespace iosnap

#endif  // SRC_CORE_SEGMENT_CLEANER_H_
