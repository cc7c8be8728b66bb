// The ioSnap FTL: a log-structured flash translation layer with flash-native snapshots.
//
// This is the paper's primary contribution assembled over the substrates in src/nand and
// src/ftl. One class serves as both the "vanilla" baseline FTL (snapshots_enabled=false)
// and ioSnap. The design follows §5 of the paper:
//
//   * Remap-on-Write: every write appends to the log; the forward map (a B+tree in host
//     memory) translates LBAs to physical pages; validity bitmaps drive cleaning.
//   * Snapshot create/delete are O(1): a note on the log, an epoch increment, a snapshot
//     tree entry, and CoW-freezing of the validity chunk set. No map copies, no change to
//     the foreground data path no matter how many snapshots exist.
//   * Snapshot access is deferred to *activation*: a rate-limited scan of log headers
//     filtered through the snapshot's frozen validity bitmap, bulk-loaded into a compact
//     forward map, yielding a readable (and, as a design extension, writable) view.
//   * The segment cleaner is snapshot-aware: block liveness is the OR of every live
//     epoch's validity, copy-forward preserves the original (lba, epoch, seq) identity,
//     and validity bits move in every epoch that referenced the block.
//
// Time: all operations take the caller's virtual issue time (ns) and report completion
// through IoResult. Background work (cleaning, activation) is advanced by PumpBackground
// and by pacing hooks inside the write path; its device traffic delays foreground I/O via
// the NAND channel model, which is how the paper's interference figures arise here.

#ifndef SRC_CORE_FTL_H_
#define SRC_CORE_FTL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/activation.h"
#include "src/core/ftl_config.h"
#include "src/core/ftl_stats.h"
#include "src/core/segment_cleaner.h"
#include "src/core/snapshot_tree.h"
#include "src/ftl/btree.h"
#include "src/ftl/log_manager.h"
#include "src/ftl/rate_limiter.h"
#include "src/ftl/validity_map.h"
#include "src/nand/nand_device.h"
#include "src/obs/latency.h"
#include "src/obs/trace.h"

namespace iosnap {

class PatrolScrubber;

// Completion record for one FTL operation: device-time window plus host CPU time.
// `host_map_ns`/`host_cow_ns` break host_ns down for latency attribution: they are
// accumulated from the same terms that are summed into host_ns at each charge site,
// so host_map_ns + host_cow_ns <= host_ns always holds exactly (the remainder is the
// op's other host work: trim notes, bitmap flips, ...). The device-side breakdown
// rides on `op` (see NandOp).
struct IoResult {
  NandOp op;            // Device window (issue -> finish). finish==issue for cache-only ops.
  uint64_t host_ns = 0; // Host CPU time charged to this op.
  uint64_t host_map_ns = 0;  // Forward-map share of host_ns (lookup + update).
  uint64_t host_cow_ns = 0;  // Validity-CoW share of host_ns.
  // Device time spent XOR-rebuilding an unreadable page from its parity stripe. When
  // set, `op` is a synthetic window (issue -> rebuild finish) with zero per-span
  // components — the rebuild's member reads and corrective append occupied the device
  // instead — so the span-sum invariant below still holds bit-exactly.
  uint64_t rebuild_ns = 0;

  uint64_t LatencyNs() const { return (op.finish_ns - op.issue_ns) + host_ns; }
  uint64_t CompletionNs() const { return op.finish_ns + host_ns; }

  // The span attribution of LatencyNs(); components sum to it bit-exactly.
  LatencySpans Spans() const {
    LatencySpans s;
    s[LatencySpan::kQueueWait] = op.FgWaitNs();
    s[LatencySpan::kGcWait] = op.bg_wait_ns;
    s[LatencySpan::kBus] = op.bus_ns;
    s[LatencySpan::kCell] = op.cell_ns;
    s[LatencySpan::kMap] = host_map_ns;
    s[LatencySpan::kCow] = host_cow_ns;
    s[LatencySpan::kHostOther] = host_ns - host_map_ns - host_cow_ns;
    s[LatencySpan::kRebuild] = rebuild_ns;
    return s;
  }
};

struct SnapshotOpResult {
  uint32_t snap_id = 0;
  IoResult io;
};

// The id of the always-present primary (active) view.
inline constexpr uint32_t kPrimaryView = 0;

// One page write in a vectored submission.
struct WriteRequest {
  uint64_t lba = 0;
  std::span<const uint8_t> data;
};

// One trim range in a vectored submission.
struct TrimRequest {
  uint64_t lba = 0;
  uint64_t count = 0;
};

class Ftl {
 public:
  // Creates an FTL on a factory-fresh device.
  static StatusOr<std::unique_ptr<Ftl>> Create(const FtlConfig& config);

  // Re-attaches an existing device (restart) through full recovery (§5.5): the same
  // header scan and replay after a crash and after a clean shutdown.
  // `recovery_finish_ns` (optional) reports the virtual time when recovery completed.
  // `trace` (optional) is attached before recovery so the recovery phase is recorded.
  static StatusOr<std::unique_ptr<Ftl>> Open(const FtlConfig& config,
                                             std::unique_ptr<NandDevice> device,
                                             uint64_t issue_ns,
                                             uint64_t* recovery_finish_ns = nullptr,
                                             TraceRecorder* trace = nullptr);

  ~Ftl();
  Ftl(const Ftl&) = delete;
  Ftl& operator=(const Ftl&) = delete;

  const FtlConfig& config() const { return config_; }
  const FtlStats& stats() const { return stats_; }
  // Attaches (or detaches, with nullptr) a flight recorder. Propagates to every
  // instrumented component (device, validity map, pacing limiters). Tracing is purely
  // observational: all event timestamps ride the virtual clock the instrumented code
  // already computed, so behaviour and reported latencies are unchanged.
  void SetTraceRecorder(TraceRecorder* trace);
  TraceRecorder* trace_recorder() const { return trace_; }
  // Attaches (or detaches, with nullptr) a latency attributor. Same discipline as the
  // trace recorder: a nullptr-guarded sink fed values the data path already computed,
  // so runs are bit-identical with attribution on or off. Every completed user data op
  // (write/read/trim, scalar or vectored, any view) records exactly one SpanRecord.
  void SetLatencyAttributor(LatencyAttributor* attributor) { attributor_ = attributor; }
  LatencyAttributor* latency_attributor() const { return attributor_; }
  const NandDevice& device() const { return *device_; }
  // Test-only mutable hook: fault campaigns corrupt pages in place (the device's own
  // CorruptPageForTesting) on a live FTL to exercise scrub/drop paths mid-run.
  NandDevice& MutableDeviceForTesting() { return *device_; }
  const SnapshotTree& snapshot_tree() const { return tree_; }
  const ValidityMap& validity() const { return validity_; }
  const LogManager& log_manager() const { return log_; }
  uint64_t LbaCount() const { return lba_count_; }

  // --- Block-device I/O (see DESIGN.md "Vectored I/O and batching") ---
  //
  // One implementation per op kind (WritePages, ReadPages, TrimRanges) serves every
  // entry point below; the one-request forms are thin wrappers that keep their result
  // on the stack. Requests apply in submission order and later requests observe
  // earlier requests' effects (duplicate LBAs behave as if issued back-to-back). A
  // vectored call is not atomic: an error mid-batch leaves earlier requests applied and
  // returns only the status. Its requests are issued at `issue_ns`, or request i at
  // issue_at[i] when `issue_at` is given (one non-decreasing time per request, else
  // kInvalidArgument; issue_ns must not exceed issue_at[0]) — the io_queue layer uses
  // that so ops admitted by different queues at different times share one ordered
  // commit pass. State, stats and per-request results are bit-identical to issuing the
  // same requests one by one at the same times; only a vectored call records a
  // kUserBatch trace event.
  //
  // Reads: each mapped page is read once with bounded retry (config.read_retry_limit
  // attempts in total). A CRC failure (kDataLoss) goes to a parity rebuild when
  // config.parity_stripe is set; otherwise, or when the rebuild fails, the read fails
  // with the device's status. Unmapped LBAs read as zeroes without device work.

  StatusOr<IoResult> Write(uint64_t lba, std::span<const uint8_t> data, uint64_t issue_ns) {
    return WriteView(kPrimaryView, lba, data, issue_ns);
  }
  StatusOr<IoResult> Read(uint64_t lba, uint64_t issue_ns, std::vector<uint8_t>* data_out) {
    return ReadView(kPrimaryView, lba, issue_ns, data_out);
  }
  // Discards [lba, lba + count). Logged as a single trim note.
  StatusOr<IoResult> Trim(uint64_t lba, uint64_t count, uint64_t issue_ns) {
    const TrimRequest request{lba, count};
    IoResult result;
    RETURN_IF_ERROR(TrimRanges({&request, 1}, issue_ns, {}, &result));
    return result;
  }
  bool IsMapped(uint64_t lba) const;

  StatusOr<std::vector<IoResult>> WriteV(std::span<const WriteRequest> requests,
                                         uint64_t issue_ns,
                                         std::span<const uint64_t> issue_at = {}) {
    return WriteViewV(kPrimaryView, requests, issue_ns, issue_at);
  }
  // `data_out` (optional) receives one page buffer per lba, in submission order.
  StatusOr<std::vector<IoResult>> ReadV(std::span<const uint64_t> lbas, uint64_t issue_ns,
                                        std::vector<std::vector<uint8_t>>* data_out,
                                        std::span<const uint64_t> issue_at = {}) {
    return ReadViewV(kPrimaryView, lbas, issue_ns, data_out, issue_at);
  }
  // One trim note per request.
  StatusOr<std::vector<IoResult>> TrimV(std::span<const TrimRequest> requests,
                                        uint64_t issue_ns,
                                        std::span<const uint64_t> issue_at = {});

  // --- Snapshot operations (§5.8) ---

  StatusOr<SnapshotOpResult> CreateSnapshot(std::string name, uint64_t issue_ns);
  StatusOr<IoResult> DeleteSnapshot(uint32_t snap_id, uint64_t issue_ns);

  // Rolls the primary volume back to `snap_id` in place: the primary forks a fresh epoch
  // off the snapshot and adopts its forward map (built by a normal activation scan, so
  // the cost profile matches activation). Writes made since the snapshot become garbage
  // for the cleaner; the snapshot itself remains intact and can be rolled back to again.
  // Requires that no other views are active. Returns the device finish time.
  StatusOr<uint64_t> RollbackToSnapshot(uint32_t snap_id, uint64_t issue_ns);

  // Starts a rate-limited activation; returns the new view id immediately. The view
  // becomes readable once activation completes (pump via PumpBackground). `writable`
  // enables the writable-snapshot design extension (§5.6).
  StatusOr<uint32_t> BeginActivation(uint32_t snap_id, RateLimit limit, uint64_t issue_ns,
                                     bool writable = false);
  bool ActivationDone(uint32_t view_id) const;
  // Runs an activation to completion with no pacing; reports the finish time.
  StatusOr<uint32_t> ActivateBlocking(uint32_t snap_id, uint64_t issue_ns, bool writable,
                                      uint64_t* finish_ns);
  Status Deactivate(uint32_t view_id, uint64_t issue_ns);
  std::vector<uint32_t> ActiveViewIds() const;

  // --- View I/O (activated snapshots; kPrimaryView aliases Read/Write) ---
  //
  // Same contract as the primary forms above; an unknown view is kNotFound.

  StatusOr<IoResult> ReadView(uint32_t view_id, uint64_t lba, uint64_t issue_ns,
                              std::vector<uint8_t>* data_out) {
    IoResult result;
    RETURN_IF_ERROR(ReadPages(view_id, {&lba, 1}, issue_ns, {}, &result, data_out));
    return result;
  }
  StatusOr<IoResult> WriteView(uint32_t view_id, uint64_t lba, std::span<const uint8_t> data,
                               uint64_t issue_ns) {
    const WriteRequest request{lba, data};
    IoResult result;
    RETURN_IF_ERROR(WritePages(view_id, {&request, 1}, issue_ns, {}, &result));
    return result;
  }
  StatusOr<std::vector<IoResult>> ReadViewV(uint32_t view_id, std::span<const uint64_t> lbas,
                                            uint64_t issue_ns,
                                            std::vector<std::vector<uint8_t>>* data_out,
                                            std::span<const uint64_t> issue_at = {});
  StatusOr<std::vector<IoResult>> WriteViewV(uint32_t view_id,
                                             std::span<const WriteRequest> requests,
                                             uint64_t issue_ns,
                                             std::span<const uint64_t> issue_at = {});

  // --- Background machinery ---

  // Advances due background work (activation bursts; idle cleaning) up to `now_ns`.
  void PumpBackground(uint64_t now_ns);

  // Forces a full cleaning pass over one victim segment (Table 4 experiments). Returns
  // the device finish time, or issue_ns when no victim exists.
  StatusOr<uint64_t> ForceCleanSegment(uint64_t issue_ns);

  // Runs one complete patrol-scrubber sweep over the device with no pacing: every
  // closed segment is CRC-verified page by page, decayed live pages are rewritten, and
  // segments holding corrupt pages are evacuated and erased. Works whether or not
  // config.patrol_enabled — this is the offline-repair entry point (iosnap_fsck
  // --repair) and the test hook. Returns the device finish time.
  StatusOr<uint64_t> ScrubAllBlocking(uint64_t issue_ns);

  // True while the FTL is in degraded read-only mode (see FtlConfig degraded_* knobs):
  // writes and trims fail fast with kResourceExhausted; reads, snapshot activation,
  // and snapshot deletion (the space-reclaim path) keep working.
  bool degraded() const { return degraded_; }

  // --- Shutdown / restart ---

  // Detaches the "media" and closes the FTL: the shutdown, clean or crash alike. Open a
  // new Ftl over the returned device. Activated views do not survive it.
  std::unique_ptr<NandDevice> ReleaseDevice();

  // --- Introspection for experiments ---

  uint32_t active_epoch() const { return active_epoch_; }
  // Forward-map memory of a view (Table 3).
  StatusOr<uint64_t> ViewMapMemoryBytes(uint32_t view_id) const;
  StatusOr<uint64_t> ViewMapEntryCount(uint32_t view_id) const;
  // All (lba, paddr) pairs of a ready view in LBA order (snapshot diffing, archival).
  StatusOr<std::vector<std::pair<uint64_t, uint64_t>>> ViewMapEntries(
      uint32_t view_id) const;
  // Epochs whose validity participates in cleaning right now.
  std::vector<uint32_t> LiveEpochs() const;

  // Space accounting for one snapshot: how many physical pages it references in total,
  // and how many it *retains exclusively* (valid in it and in no other live epoch —
  // i.e. the space the cleaner would reclaim if this snapshot were deleted).
  struct SnapshotSpace {
    uint64_t referenced_pages = 0;
    uint64_t exclusive_pages = 0;
  };
  StatusOr<SnapshotSpace> SnapshotSpaceReport(uint32_t snap_id) const;

 private:
  friend class SegmentCleaner;
  friend class ActivationTask;
  friend class PatrolScrubber;

  // Erase every forward-map entry (in any view) still pointing at paddr. Used when a
  // page is dropped as unreadable: a corrupt stored header cannot be trusted to name
  // the right lba, so the maps are swept by physical address instead — otherwise a
  // dangling entry survives the segment erase and a later read of the real lba hits
  // an unprogrammed page.
  void DetachPaddrFromMaps(uint64_t paddr);

  struct View {
    uint32_t view_id = 0;
    uint32_t snap_id = 0;  // 0 for the primary view.
    uint32_t epoch = 0;
    bool writable = false;
    bool ready = false;    // False while activation is still running.
    BPlusTree map;
  };

  Ftl(const FtlConfig& config, std::unique_ptr<NandDevice> device);

  // The one implementation per op kind behind every I/O entry point. Request i is
  // issued at issue_at[i] (or at issue_ns when issue_at is empty) and its completion is
  // written to results[i]; `results` (and `data_out`, when non-null) hold one element
  // per request. On error the status is returned and the results are unspecified.
  Status WritePages(uint32_t view_id, std::span<const WriteRequest> requests,
                    uint64_t issue_ns, std::span<const uint64_t> issue_at,
                    IoResult* results);
  Status ReadPages(uint32_t view_id, std::span<const uint64_t> lbas, uint64_t issue_ns,
                   std::span<const uint64_t> issue_at, IoResult* results,
                   std::vector<uint8_t>* data_out);
  // Primary view only: one trim note per request.
  Status TrimRanges(std::span<const TrimRequest> requests, uint64_t issue_ns,
                    std::span<const uint64_t> issue_at, IoResult* results);
  // The vectored entry points' common tail: passes the core's status through, and on
  // success records the submission's kUserBatch trace event.
  StatusOr<std::vector<IoResult>> FinishBatch(const Status& status,
                                              std::vector<IoResult> results,
                                              uint64_t issue_ns, uint32_t view_id);

  // Ensures the active head can append, running synchronous emergency cleaning if the
  // free pool is exhausted. Returns the device-time horizon the caller must wait behind.
  Status EnsureAppendSpace(uint64_t issue_ns);

  // Write-path GC pacing (§5.7): lets the cleaner copy a budgeted number of pages.
  void PaceCleanerOnWrite(uint64_t now_ns);

  // Re-evaluates the degraded-mode state machine against the free pool and the
  // retired-segment count. Called at write/trim admission and from PumpBackground;
  // transitions emit kDegradedEnter/kDegradedExit trace events and bump the
  // ftl.degraded_* counters. No-op when both floors are 0.
  void UpdateDegradedState(uint64_t now_ns);

  // Shared write/trim admission gate: kResourceExhausted while degraded.
  Status CheckWritable(uint64_t issue_ns);

  // Rebuilds the unreadable page at `old_paddr` from its XOR parity stripe
  // (src/nand/parity.h): reads the stripe's parity page and every surviving member,
  // XORs out the missing member's image, verifies the reconstruction against the CRC
  // the device originally stamped, re-appends it through the GC head preserving its
  // (lba, epoch, seq) identity, and repairs validity + every view map that still
  // pointed at the dead page. Returns the rebuilt page's append result (its payload in
  // `data_out` if non-null); fails with kDataLoss when the stripe cannot help —
  // parity off, a second fault among the members, a poisoned (0-member) parity page,
  // or a CRC mismatch on the reconstruction. Bumps pages_rebuilt /
  // pages_rebuild_failed and emits kPageRebuilt / kRebuildFailed accordingly; on
  // failure the caller still owns the expunge-and-account path.
  StatusOr<AppendResult> RebuildPage(uint64_t old_paddr, uint64_t issue_ns,
                                     std::vector<uint8_t>* data_out);

  // Appends a snapshot note record. `aux_epoch` rides in the header's lba field: the
  // successor/view epoch id for create/activate notes (explicit, so recovery does not
  // depend on notes that a later tree summary consolidated away).
  StatusOr<AppendResult> AppendNote(RecordType type, uint32_t snap_id, uint32_t epoch,
                                    uint32_t aux_epoch, uint64_t issue_ns);

  // Writes a consolidated snapshot-tree summary through `head` (§7-style checkpointed
  // metadata). All snapshot notes and summaries with lower sequence numbers become
  // droppable. Returns the device finish time.
  StatusOr<uint64_t> AppendTreeSummary(int head, uint64_t issue_ns);

  View* FindView(uint32_t view_id);
  const View* FindView(uint32_t view_id) const;

  uint64_t NextSeq() { return seq_counter_++; }

  FtlConfig config_;
  std::unique_ptr<NandDevice> device_;
  LogManager log_;
  ValidityMap validity_;
  SnapshotTree tree_;
  FtlStats stats_;

  uint64_t lba_count_;
  uint64_t seq_counter_ = 0;
  uint32_t active_epoch_ = kRootEpoch;
  uint32_t next_view_id_ = 1;
  // Bumped whenever the live-epoch set changes (snapshot create/delete, activation
  // begin/end, rollback). The cleaner keys its per-victim caches (live-epoch list,
  // lineage-filtered view lists) off this so they refresh exactly when stale.
  uint64_t epoch_set_version_ = 0;
  std::map<uint32_t, View> views_;

  std::unique_ptr<SegmentCleaner> cleaner_;
  bool gc_cycle_active_ = false;
  double gc_budget_accum_ = 0.0;
  RateLimiter gc_idle_limiter_;

  std::unique_ptr<PatrolScrubber> patrol_;
  RateLimiter patrol_limiter_;
  // Degraded read-only mode (media reliability). Entered/left by UpdateDegradedState;
  // always false when both degraded_* floors are 0 (the default), so the gate in the
  // write path is a single always-false branch on default configs.
  bool degraded_ = false;

  // Scratch reused across write and trim calls, so a one-request call allocates none.
  struct WriteScratch {
    std::vector<LogManager::AppendRequest> appends;
    std::vector<AppendResult> appended;
    std::vector<std::pair<uint64_t, uint64_t>> entries;
    std::vector<std::optional<uint64_t>> old_paddrs;
    std::vector<ValidityMap::BitOp> bit_ops;
    std::vector<size_t> op_begin;
  };
  WriteScratch scratch_;

  std::vector<std::unique_ptr<ActivationTask>> activations_;
  // Relocation journal: (lba, new_paddr) for every data page the cleaner copy-forwards
  // while an activation scan is in flight. Activations apply it when building their map,
  // so blocks that emergency cleaning moved out from under the scan are still found.
  // Cleared whenever no activation is pending.
  std::vector<std::pair<uint64_t, uint64_t>> gc_relocations_;
  bool closed_ = false;
  TraceRecorder* trace_ = nullptr;
  LatencyAttributor* attributor_ = nullptr;

  // One call per completed user data op, at the IoResult construction site. Tick()
  // runs before Spans() so a stride-sampled attributor skips span assembly too.
  void RecordLatency(LatencyOpKind kind, uint64_t lba, const IoResult& result) {
    if (attributor_ != nullptr && attributor_->Tick()) {
      attributor_->Record(kind, lba, result.op.issue_ns, result.CompletionNs(),
                          result.Spans());
    }
  }

  void MaybeClearRelocations() {
    if (activations_.empty()) {
      gc_relocations_.clear();
    }
  }
};

}  // namespace iosnap

#endif  // SRC_CORE_FTL_H_
