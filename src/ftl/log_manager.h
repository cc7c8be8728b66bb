// Log-structured space management on top of the NAND device (§5.2.1).
//
// The LogManager owns segment lifecycle: segments move free -> open -> closed -> (cleaned)
// -> free. Appends go to a *head*; the user write path and the segment cleaner use
// different heads so copy-forwarded cold data does not intermix with fresh writes, and the
// epoch-colocating cleaner policy (§5.4.2 extension) can maintain one head per epoch class.
//
// The LogManager assigns physical placement only; logical identity (lba/epoch/seq) lives
// in the PageHeader supplied by the caller, and validity is tracked by ValidityMap.

#ifndef SRC_FTL_LOG_MANAGER_H_
#define SRC_FTL_LOG_MANAGER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/nand/nand_device.h"

namespace iosnap {

// kRetired marks grown bad blocks pulled out of circulation: never opened, never
// offered to the cleaner, never freed. Their accounting (min_data_seq in particular)
// is retained because their un-erasable pages are still scanned by recovery, so trim
// retention must stay conservative with respect to them.
enum class SegmentState : uint8_t { kFree, kOpen, kClosed, kRetired };

// Degraded-mode counters maintained by the LogManager.
struct LogStats {
  uint64_t append_reroutes = 0;   // Appends re-driven to a fresh segment after program failure.
  uint64_t segments_retired = 0;  // Segments permanently retired after erase failure/wear-out.
  uint64_t parity_pages_written = 0;  // XOR parity pages emitted at stripe boundaries.
};

struct SegmentInfo {
  SegmentState state = SegmentState::kFree;
  uint64_t use_order = 0;    // Monotonic counter stamped when the segment is opened.
  uint64_t min_data_seq = ~uint64_t{0};  // Smallest *data* record seq (trim retention).
  // Data pages per epoch ever appended to this segment since its last erase — a
  // conservative superset of what is still valid. Used by the epoch-colocation policy and
  // the activation segment index (ablation A3), both of which tolerate over-counting.
  // Exact per-segment *valid* counts live in ValidityMap's utilization accounting
  // (MergedValidCount/EpochValidCount, segment-sized ranges), not here: validity flips on
  // overwrite/trim/GC-move without any log append, so the bitmap layer is the only place
  // that can maintain them incrementally.
  std::map<uint32_t, uint32_t> epoch_pages;
};

struct AppendResult {
  uint64_t paddr = 0;
  NandOp op;
};

class LogManager {
 public:
  // Well-known append heads.
  static constexpr int kActiveHead = 0;  // Foreground user writes + notes.
  static constexpr int kGcHead = 1;      // Segment-cleaner copy-forward.
  // The epoch-colocation policy derives additional head ids >= kFirstDynamicHead.
  static constexpr int kFirstDynamicHead = 2;

  // `gc_reserve_segments`: segments the user head may never consume, so the cleaner always
  // has room to copy into (classic log-structured deadlock avoidance).
  // `parity_stripe` > 0 enables intra-segment XOR parity (src/nand/parity.h): every
  // head keeps a running XOR over its open segment's appended pages and writes one
  // parity page whenever the next free slot is a parity slot (every parity_stripe
  // member pages, plus the segment's final page). 0 writes no parity pages and is
  // bit-identical to the pre-parity log.
  LogManager(NandDevice* device, uint64_t gc_reserve_segments,
             uint64_t parity_stripe = 0);

  // Bound on fresh segments a record tries when its programs keep failing. Each
  // failure retires a whole segment, so consecutive failures are ppm^n-rare;
  // exhausting the bound surfaces the device's kDataLoss to the caller.
  static constexpr int kMaxAppendReroutes = 3;

  // Every append runs through one loop (AppendRun). It closes a full segment, acquires
  // a fresh one, writes parity due before and after the records, keeps each segment's
  // accounting and its parity accumulator, and reroutes program failures. It fails
  // with kResourceExhausted when the head may not take another segment: the signal
  // that cleaning must run. (Free segments are always pre-erased: factory-fresh or
  // erased by ReleaseSegment.) A program failure retires the segment (kDataLoss from
  // the device); the loop abandons it and re-drives the failed record and the rest
  // into a fresh one. Only a record's own failed programs spend its budget of
  // kMaxAppendReroutes reroutes; a record that lands gives the next one a fresh budget.

  // Appends one record through `head`.
  StatusOr<AppendResult> Append(int head, const PageHeader& header,
                                std::span<const uint8_t> data, uint64_t issue_ns);

  // One record of a vectored append: a header and its optional payload, programmed as
  // they are.
  using AppendRequest = NandDevice::ProgramRequest;

  // Appends a batch through `head`, every record issued at `issue_ns` so the device
  // schedules the whole batch in one virtual-clock pass. Records are grouped into
  // maximal segment runs, each one NandDevice::ProgramBatch. The caller should size
  // the batch to fit the head's allowance (see ActiveHeadFreePages); a batch is not
  // atomic. On any error, `results_out` holds one entry per record that WAS durably
  // appended (a prefix of `requests`); the caller must apply that prefix's effects
  // before propagating the error. A mid-batch crash returns kUnavailable with the torn
  // prefix in place.
  // `issue_at` (empty, or one non-decreasing time per record with issue_at[0] >=
  // issue_ns) staggers the records' issue times — the multi-queue path, where ops
  // admitted at different times commit as one batch.
  Status AppendBatch(int head, std::span<const AppendRequest> requests, uint64_t issue_ns,
                     std::vector<AppendResult>* results_out,
                     std::span<const uint64_t> issue_at = {});

  // Appends one record through `head` by on-die copyback from `src_paddr` instead of a
  // host-supplied payload (NandDevice::CopybackPage; the stored bytes move verbatim).
  // `header` must be the source page's header — it is used only for segment accounting
  // (min_data_seq/epoch), never re-programmed. A kDataLoss that did NOT retire the
  // destination segment is a scrub-detected unreadable source and propagates at once
  // (rerouting cannot fix the source). kUnavailable (transient read failure) also
  // propagates — the caller owns retry policy.
  StatusOr<AppendResult> AppendCopyback(int head, uint64_t src_paddr,
                                        const PageHeader& header, uint64_t issue_ns);

  // Channel of the page the next Append through `head` would program: the open
  // segment's next free page, else page 0 of the segment that would be acquired.
  // nullopt when no open segment and no free segments. The cleaner uses this to order
  // relocations so copybacks land on their source channel (the on-die fast path).
  std::optional<uint32_t> NextAppendChannel(int head) const;

  // True if `head` can accept a record without violating the GC reserve.
  bool CanAppend(int head) const;

  // --- Cleaner support ---

  // Closed segments eligible for cleaning (never open heads).
  std::vector<uint64_t> ClosedSegments() const;

  // Erases `segment` and returns it to the free pool. It must be closed. If the erase
  // fails permanently (grown bad block or wear-out) the segment is retired instead of
  // freed and an instant (zero-duration) op is returned: retirement is a handled
  // degraded-mode outcome, not an error the cleaner needs to unwind.
  StatusOr<NandOp> ReleaseSegment(uint64_t segment, uint64_t issue_ns);

  // --- Introspection ---

  uint64_t FreeSegmentCount() const { return free_segments_.size(); }
  uint64_t TotalSegments() const;
  // Free pages remaining for the active head before it hits the reserve (pacing input).
  uint64_t ActiveHeadFreePages() const;
  // Smallest data-record sequence number still present on the log (max u64 when no data).
  // A trim note older than every surviving data record can kill nothing and is dead —
  // the retention bound the cleaner uses for trim-note consolidation.
  uint64_t GlobalMinDataSeq() const;
  const SegmentInfo& segment_info(uint64_t segment) const;
  // The segment currently open under `head`, if any.
  std::optional<uint64_t> OpenSegment(int head) const;

  const LogStats& stats() const { return stats_; }

  // Optional flight-recorder hook for retirement/reroute events.
  void SetTraceRecorder(TraceRecorder* trace) { trace_ = trace; }

  // --- Recovery bootstrap ---

  // Rebuilds segment states by inspecting the device: partially-programmed segments are
  // re-opened under the active head, full segments are closed, erased-empty and
  // never-used segments are free. Epoch accounting and min_data_seq are rebuilt by the
  // caller replaying data headers via RestoreAccounting.
  void RebuildFromDevice();
  void RestoreAccounting(uint64_t segment, uint32_t epoch, uint64_t seq);

  uint64_t parity_stripe() const { return parity_stripe_; }

 private:
  struct Head {
    std::optional<uint64_t> open_segment;
    // Running XOR of the open segment's member images since the last parity slot
    // (src/nand/parity.h). Sized when the head opens a segment; unused when
    // parity_stripe is 0.
    std::vector<uint8_t> parity_xor;
    // True when the accumulator cannot be trusted (a reopened partial stripe held an
    // unreadable member): the stripe's parity page is written with trim_count = 0 so
    // rebuild honestly refuses it.
    bool parity_poisoned = false;
  };

  // The append loop behind Append, AppendBatch and AppendCopyback. Each record is a
  // host payload, programmed as one NandDevice::ProgramBatch per segment run, or, with
  // `copyback_src`, the one record is the header of the page CopybackPage moves from
  // there.
  Status AppendRun(int head, std::span<const AppendRequest> requests,
                   std::optional<uint64_t> copyback_src, uint64_t issue_ns,
                   std::span<const uint64_t> issue_at,
                   std::vector<AppendResult>* results_out);
  // AppendRun for one record, into member scratch so that it allocates nothing.
  StatusOr<AppendResult> AppendOne(int head, const AppendRequest& request,
                                   std::optional<uint64_t> copyback_src,
                                   uint64_t issue_ns);

  // Takes the next free segment for a head.
  StatusOr<uint64_t> AcquireSegment(int head);

  Head& HeadFor(int head);

  // Closes the head's open segment once its last page is programmed.
  void CloseIfFull(Head& h);
  // Closes the open segment of `head` after a program failure so it is never appended
  // to again; the cleaner will later copy its live records off and retire it.
  void AbandonOpenSegment(int head);

  // --- Parity (all no-ops when parity_stripe_ == 0) ---

  // Clears the running XOR (start of a fresh stripe or segment).
  void ResetParity(Head& h);
  // XORs a record's member image, as the device stores it, into the accumulator. A
  // host payload's stored form and CRC stamp are recomputed host-side with the rules
  // the device applies, so the accumulator reflects programmed *intent*: parity is
  // taken in the controller's buffer, before any cell-level corruption, which is
  // exactly what lets a later rebuild reproduce clean bytes. A copyback's host never
  // sees the payload, so the accumulator taps `copyback_src`'s stored bytes (the
  // modeled on-die XOR engine). A member with no image (XorMemberImage's kDataLoss)
  // poisons the accumulator.
  void AccumulateParity(Head& h, const AppendRequest& record,
                        std::optional<uint64_t> copyback_src);
  // Writes parity pages while the head's next free slot is a parity slot (at most two
  // in a row: a regular slot adjacent to the segment-final slot). A parity program
  // failure abandons the segment — positional parity cannot be re-driven elsewhere —
  // leaving the tail stripe unprotected but the members durable.
  Status EmitParityIfDue(int head, uint64_t issue_ns);

  NandDevice* device_;
  uint64_t gc_reserve_segments_;
  uint64_t parity_stripe_;
  std::vector<SegmentInfo> segments_;
  std::deque<uint64_t> free_segments_;
  std::map<int, Head> heads_;
  uint64_t use_counter_ = 0;
  LogStats stats_;
  TraceRecorder* trace_ = nullptr;
  // AppendRun scratch, reused so a one-record append allocates nothing.
  std::vector<uint64_t> batch_paddrs_;
  std::vector<NandOp> batch_ops_;
  std::vector<AppendResult> one_result_;
};

}  // namespace iosnap

#endif  // SRC_FTL_LOG_MANAGER_H_
