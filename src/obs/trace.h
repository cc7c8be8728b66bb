// Flight-recorder tracing for the FTL: a bounded ring buffer of typed events stamped
// with the virtual clock.
//
// Every paper figure is a story about *when* foreground I/O, snapshot machinery, and the
// cleaner interfere; cumulative counters cannot tell which GC victim or CoW chunk copy
// caused a latency spike. The TraceRecorder captures per-event visibility at near-zero
// cost:
//
//   * Producers hold a `TraceRecorder*` that defaults to nullptr; every emission site is
//     guarded by a single pointer test, so an untraced run executes no tracing code
//     beyond that branch. Tracing never changes simulated behaviour: events carry
//     virtual-clock timestamps that the instrumented code already computed, so latency
//     columns are bit-identical with tracing on or off.
//   * Events are fixed-size PODs in a preallocated ring; recording is a bump + store.
//     When the ring wraps, the oldest events are overwritten (dropped() reports how
//     many) — the recorder keeps the most recent window, like a flight recorder.
//
// Exporters (trace_export.h) render the ring as Chrome trace-event JSON (Perfetto /
// chrome://tracing, virtual ns shown as µs) or CSV.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace iosnap {

// One enumerator per instrumented site. Arg meanings are documented here and named in
// the Chrome exporter (trace_export.cc must stay in sync).
enum class TraceEventType : uint8_t {
  // Foreground I/O (args: lba, view_id / trim count).
  kUserWrite = 0,
  kUserRead,
  kUserTrim,   // args: lba, count
  kUserBatch,  // One per vectored submission (WriteV/ReadV/TrimV). args: batch_ops, view_id
  // Snapshot operations (args: snap_id, epoch).
  kSnapCreate,      // args: snap_id, frozen_epoch
  kSnapDelete,      // args: snap_id, epoch
  kSnapRollback,    // args: snap_id, new_epoch
  kSnapDeactivate,  // args: snap_id, view_id
  // Activation (rate-limited snapshot map reconstruction).
  kActivateBegin,    // args: snap_id, view_id
  kActivationBurst,  // args: view_id, segments_scanned_so_far
  kActivateEnd,      // args: view_id, map_entries
  // Segment cleaning.
  kGcVictimSelect,  // args: segment, merged_valid_pages, free_segments
  kGcCopyForward,   // args: lba, old_paddr, new_paddr
  kGcSegmentErase,  // args: segment
  kGcInlineStall,   // args: stall_round
  // Validity-bitmap copy-on-write (Fig 7 spikes). args: chunk_index, bytes, epoch.
  kValidityCowChunk,
  // Rate limiting: a mandatory sleep window after a background burst. args: sleep_ns.
  kRateLimiterSleep,
  // NAND device. args: segment, erase_count.
  kNandErase,
  // Lifecycle phases.
  kCheckpointWrite,  // Retired: earlier builds wrote a checkpoint at clean shutdown.
                     // Never emitted; kept so later enumerators keep their values.
  kRecoveryRun,      // args: map_entries
  // Fault injection & degraded-mode handling.
  kFaultInjected,    // args: kind (0=program 1=erase 2=read 3=corrupt 4=read-disturb
                     //            5=retention), where, op_index / wear input
  kSegmentRetired,   // args: segment, erase_count
  kReadRetry,        // args: paddr, attempt
  // Multi-queue submission layer (src/core/io_queue).
  kQueueSubmit,      // args: queue, ops, submission_id
  kQueueFlush,       // args: pending_ops, merged_runs
  kQueueComplete,    // args: queue, op_id, lba
  // On-die copyback relocation (GC copy-forward off the bus).
  kNandCopyback,     // args: src_paddr, dst_paddr, on_die (1 = same-channel, 0 = fallback)
  // Patrol scrubber (media reliability).
  kPatrolRewrite,    // args: lba, old_paddr, new_paddr
  kPatrolDrop,       // args: lba, paddr (unreadable live page expunged)
  // Degraded read-only mode transitions.
  kDegradedEnter,    // args: free_segments, segments_retired
  kDegradedExit,     // args: free_segments, segments_retired
  // Parity stripes & rebuild (src/nand/parity.h).
  kParityWrite,      // args: segment, paddr, members (0 = poisoned accumulator)
  kPageRebuilt,      // args: lba, old_paddr, new_paddr
  kRebuildFailed,    // args: lba, paddr (unrebuildable: double fault / parity off-media)

  kNumTypes,  // Sentinel; keep last.
};

inline constexpr size_t kNumTraceEventTypes =
    static_cast<size_t>(TraceEventType::kNumTypes);

// Fixed-size record. `start_ns == end_ns` renders as an instant event; otherwise as a
// duration span. The three args are typed per event (see TraceEventType).
struct TraceEvent {
  TraceEventType type = TraceEventType::kUserWrite;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
  uint64_t arg2 = 0;
};

class TraceRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 18;  // 256Ki events (~12 MiB).

  explicit TraceRecorder(size_t capacity = kDefaultCapacity);

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  void Record(TraceEventType type, uint64_t start_ns, uint64_t end_ns, uint64_t arg0 = 0,
              uint64_t arg1 = 0, uint64_t arg2 = 0) {
    if (!enabled_) {
      return;
    }
    // Branch-wrapped write index: a 64-bit modulo here costs more than the stores.
    TraceEvent& slot = ring_[head_];
    slot.type = type;
    slot.start_ns = start_ns;
    slot.end_ns = end_ns;
    slot.arg0 = arg0;
    slot.arg1 = arg1;
    slot.arg2 = arg2;
    if (++head_ == ring_.size()) {
      head_ = 0;
    }
    ++next_;
  }

  size_t capacity() const { return ring_.size(); }
  // Events currently held (<= capacity).
  size_t size() const { return next_ < ring_.size() ? next_ : ring_.size(); }
  // Events ever recorded, including overwritten ones.
  uint64_t total_recorded() const { return next_; }
  // Events lost to ring wraparound.
  uint64_t dropped() const { return next_ - size(); }

  // The retained events, oldest first (unwraps the ring).
  std::vector<TraceEvent> Events() const;

  // Count of retained events of one type.
  size_t CountType(TraceEventType type) const;

  void Clear() {
    next_ = 0;
    head_ = 0;
  }

 private:
  std::vector<TraceEvent> ring_;
  uint64_t next_ = 0;  // Total events recorded.
  size_t head_ = 0;    // Write slot; always next_ % capacity.
  bool enabled_ = true;
};

// RAII guard that pauses recording for a scope and restores the prior state on exit.
// Benches use it around prefill phases: prefill emits millions of events that only
// rotate out of the ring before anything interesting happens, and the streaming
// stores evict the simulator's working set from cache for no observability gain.
class TracePauseGuard {
 public:
  explicit TracePauseGuard(TraceRecorder* trace) : trace_(trace) {
    if (trace_ != nullptr) {
      was_enabled_ = trace_->enabled();
      trace_->set_enabled(false);
    }
  }
  ~TracePauseGuard() {
    if (trace_ != nullptr) {
      trace_->set_enabled(was_enabled_);
    }
  }
  TracePauseGuard(const TracePauseGuard&) = delete;
  TracePauseGuard& operator=(const TracePauseGuard&) = delete;

 private:
  TraceRecorder* trace_;
  bool was_enabled_ = false;
};

}  // namespace iosnap

#endif  // SRC_OBS_TRACE_H_
