// Per-op latency attribution: span records and histograms.
//
// Every figure in the paper is ultimately a question of *where* a foreground op's
// latency went when snapshot machinery and the cleaner interfere. The attribution
// layer decomposes each completed user op's end-to-end virtual-clock latency into
// seven named spans:
//
//   queue_wait  — foreground contention: queued behind other user ops on the op's
//                 NAND channel or the shared transfer bus.
//   gc_wait     — background interference: the share of that wait spent behind GC,
//                 snapshot-activation scans, or rate-limited background bursts
//                 (NandDevice background horizons, see NandOp::bg_wait_ns).
//   bus         — actual bus transfer time.
//   cell        — cell program/read time (plus scan/erase time for metadata ops).
//   map         — host-side forward-map time (B+tree lookup + update).
//   cow         — host-side validity-bitmap copy-on-write time.
//   host_other  — remaining host CPU charge (trim notes, bitmap flips, ...).
//   rebuild     — time spent XOR-reconstructing an unreadable page from its parity
//                 stripe (surviving-member reads + the corrective re-append). Zero
//                 unless FtlConfig::parity_stripe > 0 and the op hit an
//                 uncorrectable page; when set it replaces the failed op's device
//                 spans (the synthetic NandOp carries none).
//
// Exactness guarantee: the spans are computed from the same arithmetic that produced
// the op's completion time — the device fills the first four inside Occupy(), the FTL
// fills the host three from the terms it sums into host_ns — so for every record
//
//   sum(spans) == complete_ns - issue_ns == IoResult::LatencyNs()
//
// holds bit-exactly, not approximately. And like TraceRecorder, the attributor hangs
// off a pointer defaulting to nullptr: with attribution off no span is ever read and
// runs are bit-identical; with it on, only already-computed values are copied, so
// timing is unchanged either way.

#ifndef SRC_OBS_LATENCY_H_
#define SRC_OBS_LATENCY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/obs/metrics.h"

namespace iosnap {

enum class LatencySpan : uint8_t {
  kQueueWait = 0,
  kGcWait,
  kBus,
  kCell,
  kMap,
  kCow,
  kHostOther,
  kRebuild,

  kNumSpans,  // Sentinel; keep last.
};

inline constexpr size_t kNumLatencySpans = static_cast<size_t>(LatencySpan::kNumSpans);

// Short snake_case span name ("queue_wait", ...) used in metric names and CSV columns.
const char* LatencySpanName(LatencySpan span);

enum class LatencyOpKind : uint8_t {
  kWrite = 0,
  kRead,
  kTrim,
  // GC copy-forward relocations done via on-die copyback (recorded by the cleaner
  // only when FtlConfig::gc_copyback is on; default runs carry no such records).
  kGcCopy,

  kNumKinds,  // Sentinel; keep last.
};

inline constexpr size_t kNumLatencyOpKinds =
    static_cast<size_t>(LatencyOpKind::kNumKinds);

const char* LatencyOpKindName(LatencyOpKind kind);

// One op's span vector. Indexable by LatencySpan.
struct LatencySpans {
  uint64_t ns[kNumLatencySpans] = {};

  uint64_t& operator[](LatencySpan span) { return ns[static_cast<size_t>(span)]; }
  uint64_t operator[](LatencySpan span) const { return ns[static_cast<size_t>(span)]; }

  uint64_t TotalNs() const {
    uint64_t total = 0;
    for (uint64_t v : ns) {
      total += v;
    }
    return total;
  }
};

// One completed op with its breakdown. `seq` is a per-attributor monotonic id;
// (lba, issue_ns, complete_ns) is the join key against kQueueComplete trace events,
// which carry the op's queue and op_id for per-queue analysis.
struct SpanRecord {
  uint64_t seq = 0;
  LatencyOpKind kind = LatencyOpKind::kWrite;
  uint64_t lba = 0;
  uint64_t issue_ns = 0;
  uint64_t complete_ns = 0;  // finish_ns + host_ns, i.e. IoResult::CompletionNs().
  LatencySpans spans;

  uint64_t TotalNs() const { return complete_ns - issue_ns; }
};

// Sink for completed-op breakdowns: per-span and per-kind histograms, per-span running
// totals, and a bounded flight-recorder ring of full SpanRecords for CSV export.
class LatencyAttributor {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 18;  // 256Ki records (~22 MiB).

  // `sample_stride` thins the recording to one op in every `stride` at the call site
  // (see Tick()): per-record span sums stay bit-exact, only coverage is sampled.
  // Stride 1 (the default) records every completed op.
  explicit LatencyAttributor(size_t record_capacity = kDefaultCapacity,
                             uint64_t sample_stride = 1);

  // Call-site sampling gate: returns true when the next completed op should be
  // recorded. Producers call this BEFORE assembling the span vector so a skipped op
  // costs one predictable branch, not a Record. At stride 1 this is always true.
  bool Tick() {
    if (++tick_ < stride_) {
      return false;
    }
    tick_ = 0;
    return true;
  }

  uint64_t stride() const { return stride_; }

  void Record(LatencyOpKind kind, uint64_t lba, uint64_t issue_ns, uint64_t complete_ns,
              const LatencySpans& spans);

  uint64_t ops() const { return next_; }
  size_t size() const { return next_ < ring_.size() ? next_ : ring_.size(); }
  uint64_t dropped() const { return next_ - size(); }

  const LatencyHistogram& SpanHistogram(LatencySpan span) const {
    return span_hist_[static_cast<size_t>(span)];
  }
  const LatencyHistogram& EndToEndHistogram(LatencyOpKind kind) const {
    return e2e_hist_[static_cast<size_t>(kind)];
  }
  // Running sum of one span over every recorded op (not just the retained ring).
  uint64_t SpanTotalNs(LatencySpan span) const {
    return span_total_ns_[static_cast<size_t>(span)];
  }

  // The retained records, oldest first (unwraps the ring).
  std::vector<SpanRecord> Records() const;

  // Registers the histograms and span totals under `prefix`:
  //   <prefix>span.<name>        (histogram -> .count/.mean_ns/.p50/.p90/.p99/.p999/.max)
  //   <prefix>span.<name>.total_ns (counter)
  //   <prefix>e2e.<kind>         (histogram)
  //   <prefix>ops / <prefix>records_dropped (counters)
  // The attributor must outlive the registry snapshots.
  void RegisterMetrics(MetricsRegistry* registry, const std::string& prefix = "lat.");

  // CSV with one row per retained record:
  //   seq,kind,lba,issue_ns,complete_ns,total_ns,queue_wait_ns,gc_wait_ns,bus_ns,
  //   cell_ns,map_ns,cow_ns,host_other_ns,rebuild_ns
  std::string ToCsv() const;
  // Writes ToCsv() to `path`. Returns false on I/O failure.
  bool WriteCsvFile(const std::string& path) const;

  void Clear();

 private:
  std::vector<SpanRecord> ring_;
  uint64_t next_ = 0;  // Total records ever recorded.
  size_t head_ = 0;    // Write slot; always next_ % capacity.
  uint64_t stride_ = 1;
  uint64_t tick_ = 0;
  LatencyHistogram span_hist_[kNumLatencySpans];
  LatencyHistogram e2e_hist_[kNumLatencyOpKinds];
  uint64_t span_total_ns_[kNumLatencySpans] = {};
  uint64_t records_dropped_ = 0;  // Mirror of dropped() for counter registration.
};

}  // namespace iosnap

#endif  // SRC_OBS_LATENCY_H_
