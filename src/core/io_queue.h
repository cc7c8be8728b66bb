// NVMe-style multi-queue submission layer over the Ftl.
//
// N submission/completion queue pairs admit ops asynchronously: Submit() copies the
// ops into a pending set and returns a submission id immediately (or
// kResourceExhausted when the queue already has `iodepth` submissions in flight).
// Actual device work happens at Flush(), which commits every pending op in global
// submission order — maximal same-kind runs, possibly spanning submissions from
// different queues, collapse into single WriteV/ReadV/TrimV calls whose per-op issue
// times (`issue_at`) are the ops' own admission times. Completions surface out of
// order through PollCompletions() (everything whose virtual completion time has
// passed, ordered by (completion time, op id)) or Drain(). Undelivered completions sit
// in a min-heap on that key, so delivering one costs O(log n) in the ops in flight.
//
// Ordering invariants (see DESIGN.md "Multi-queue submission"):
//   * Commit order == global submission order, independent of queue count and depth.
//     Out-of-orderness affects only *when completions are delivered*, never the order
//     log appends, map updates, or validity flips apply. The final logical state of
//     any run equals the same ops applied sequentially in submission order.
//   * queues=1, iodepth=1 degenerates to one Flush per Submit with a uniform issue
//     time — bit-identical to calling WriteV/ReadV/TrimV directly.
//   * Forward-map updates, validity-map CoW and segment allocation all happen inside
//     the ordered commit pass, on the one simulation thread.
//
// Error model: the vectored FTL calls report an error for a whole run (the durably
// appended prefix is applied internally but its per-op results are not returned), so
// a failed run fails every op in it, and every later pending op fails with
// kUnavailable. Failed completions carry completion time == their issue time. Crash
// consistency is unchanged: recovery replays the log, which holds exactly the
// committed prefix.

#ifndef SRC_CORE_IO_QUEUE_H_
#define SRC_CORE_IO_QUEUE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/core/ftl.h"

namespace iosnap {

enum class QueueOpKind : uint8_t { kWrite = 0, kRead, kTrim };

// One operation handed to a submission queue. Write payloads are copied at Submit:
// the device does not consume them until a later Flush, when the caller's buffer may
// be gone.
struct QueueOp {
  QueueOpKind kind = QueueOpKind::kWrite;
  uint64_t lba = 0;
  uint64_t count = 0;             // Trim page count; ignored for writes/reads.
  std::span<const uint8_t> data;  // Write payload.
};

// Completion context for one op, delivered (possibly out of submission order) by
// PollCompletions/Drain.
struct IoCompletion {
  uint64_t op_id = 0;          // Global submission order, dense from 0.
  uint64_t submission_id = 0;
  uint32_t queue = 0;
  QueueOpKind kind = QueueOpKind::kWrite;
  uint64_t lba = 0;
  uint64_t count = 0;          // Trim page count.
  Status status;               // Failed ops: result holds issue==finish, no data.
  IoResult result;
  std::vector<uint8_t> data;   // Read payload.

  uint64_t CompletionNs() const { return result.CompletionNs(); }
};

// Cumulative counters (every field uint64_t; obs/metrics_bindings.h registers each).
// `inflight_ops` is a gauge: ops submitted but not yet delivered.
// `completions_examined` counts the undelivered completions NextCompletionNs and
// PollCompletions read to decide what is due: the heap top, once per NextCompletionNs
// call and once per due-check in a poll (at most deliveries + 1). A return to scanning
// every op in flight shows up in this deterministic counter.
struct IoQueueStats {
  uint64_t submissions = 0;
  uint64_t ops_submitted = 0;
  uint64_t ops_completed = 0;
  uint64_t ops_failed = 0;
  uint64_t flushes = 0;
  uint64_t merged_runs = 0;
  uint64_t queue_full_rejections = 0;
  uint64_t inflight_ops = 0;
  uint64_t max_inflight_ops = 0;
  uint64_t completions_examined = 0;
};

// Process-wide aggregates, fed by every IoQueueLayer instance, so BenchDumpMetrics
// can expose queue metrics without per-bench wiring.
IoQueueStats& GlobalIoQueueStats();
LatencyHistogram& GlobalQueueCompletionHistogram();

class IoQueueLayer {
 public:
  struct Options {
    uint32_t queues = 1;
    uint32_t iodepth = 1;  // Max in-flight submissions per queue.
  };

  // Per-queue counters for the stats dump (tools/iosnap_sim --queues).
  struct PerQueueStats {
    uint64_t submissions = 0;
    uint64_t ops_submitted = 0;
    uint64_t ops_completed = 0;
    uint64_t max_inflight_subs = 0;
  };

  // `ftl` must outlive the layer. The layer only drives the primary view.
  IoQueueLayer(Ftl* ftl, const Options& options);

  uint32_t queue_count() const { return static_cast<uint32_t>(per_queue_.size()); }
  uint32_t iodepth() const { return options_.iodepth; }
  const IoQueueStats& stats() const { return stats_; }
  const std::vector<PerQueueStats>& per_queue() const { return per_queue_; }

  // Admits `ops` on `queue` at `issue_ns` and returns the submission id. Issue times
  // must be non-decreasing across Submit calls (the log is append-ordered). Fails
  // with kResourceExhausted — rejecting, not blocking — when the queue already holds
  // `iodepth` undelivered submissions.
  StatusOr<uint64_t> Submit(uint32_t queue, std::span<const QueueOp> ops,
                            uint64_t issue_ns);

  // True if `queue` can accept another submission.
  bool CanSubmit(uint32_t queue) const;

  // Commits all pending ops in submission order (see file comment). FTL errors become
  // failed completions rather than a return value.
  void Flush();

  // Earliest undelivered completion time, after flushing pending work. nullopt when
  // nothing is in flight.
  std::optional<uint64_t> NextCompletionNs();

  // Delivers every completion with CompletionNs() <= now_ns, ordered by
  // (CompletionNs, op_id). Flushes first so pending ops can complete.
  std::vector<IoCompletion> PollCompletions(uint64_t now_ns);

  // Flushes and delivers everything in flight.
  std::vector<IoCompletion> Drain();

  uint64_t InflightOps() const { return stats_.inflight_ops; }

 private:
  struct PendingOp {
    uint64_t op_id = 0;
    uint64_t submission_id = 0;
    uint32_t queue = 0;
    QueueOpKind kind = QueueOpKind::kWrite;
    uint64_t lba = 0;
    uint64_t count = 0;
    std::vector<uint8_t> data;
    uint64_t issue_ns = 0;
  };

  // An undelivered completion's delivery key and its slot in completed_.
  struct DueKey {
    uint64_t completion_ns = 0;
    uint64_t op_id = 0;
    size_t slot = 0;

    // Delivered later; std::greater<> over this makes due_ a min-heap.
    bool operator>(const DueKey& o) const {
      return completion_ns != o.completion_ns ? completion_ns > o.completion_ns
                                              : op_id > o.op_id;
    }
  };

  // Commits pending_[begin, begin+len) — one maximal same-kind run — queues the run's
  // completions for delivery, and returns the run's status.
  Status CommitRun(size_t begin, size_t len);
  void FailOp(const PendingOp& op, const Status& status);
  void PushCompletion(IoCompletion&& c);
  // The earliest undelivered completion's key (the heap top), or nullptr; counts one
  // completions_examined per non-null read.
  const DueKey* Earliest();
  void DeliverOne(IoCompletion&& c, std::vector<IoCompletion>* out);

  Ftl* ftl_;
  Options options_;
  IoQueueStats stats_;
  std::vector<PerQueueStats> per_queue_;

  std::vector<PendingOp> pending_;  // In submission order.
  // Committed, not yet delivered. Completions sit in reusable slots of completed_
  // (free ones listed in free_slots_); due_ is a min-heap of their (CompletionNs,
  // op_id) keys, the delivery order, so heap moves shift 24-byte keys, not 192-byte
  // completions.
  std::vector<IoCompletion> completed_;
  std::vector<size_t> free_slots_;
  std::vector<DueKey> due_;
  // Undelivered op count per in-flight submission; a queue slot frees when its
  // submission's last completion is delivered.
  std::unordered_map<uint64_t, uint64_t> sub_remaining_;
  std::vector<uint32_t> queue_inflight_subs_;

  uint64_t next_op_id_ = 0;
  uint64_t next_submission_id_ = 0;
  uint64_t last_issue_ns_ = 0;
};

}  // namespace iosnap

#endif  // SRC_CORE_IO_QUEUE_H_
