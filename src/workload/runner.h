// Closed-loop workload runner on the virtual clock.
//
// The runner is the "foreground application" of the paper's experiments: it issues
// groups of operations at one virtual instant (fio-style jobs at a fixed queue depth),
// gives the FTL's background machinery a chance to run between groups, advances the
// shared SimClock to each completion, and records per-op latency timelines — the raw
// material of Figures 7 and 9-12. It drives the FTL's primary view.

#ifndef SRC_WORKLOAD_RUNNER_H_
#define SRC_WORKLOAD_RUNNER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/sim_clock.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/core/ftl.h"
#include "src/core/io_queue.h"
#include "src/obs/metrics_sampler.h"
#include "src/workload/workload.h"

namespace iosnap {

struct RunOptions {
  // Ops issued at one shared virtual time per group. A group goes to the FTL as one
  // WriteV/ReadV per run of same-kind ops, which is bit-identical to issuing its ops
  // one by one at that time; after_op runs for each of its ops once the whole group
  // has completed.
  uint64_t batch = 1;
  // Multi-queue submission: queues > 0 drives the FTL through an IoQueueLayer with
  // that many queue pairs, `iodepth` in-flight submissions per queue, and `batch` ops
  // per submission. queues=1, iodepth=1 reproduces the queues=0 run bit for bit;
  // deeper settings pipeline submissions so ops admitted at different times share one
  // ordered commit.
  uint32_t queues = 0;
  uint32_t iodepth = 1;
  bool record_timeline = false;
  // Invoked after each completed op with (op index, virtual now). Benchmarks use this to
  // create snapshots on a cadence, start activations, etc.
  std::function<void(uint64_t index, uint64_t now_ns)> after_op;
  // Optional periodic metric sampler, offered each op's completion time (virtual
  // clock); nullptr (the default) disables time-series sampling.
  MetricsSampler* sampler = nullptr;
};

struct RunResult {
  uint64_t ops = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;           // Clock when the last op completed.
  uint64_t drain_end_ns = 0;     // Device fully idle (>= end_ns).
  LatencyHistogram latency;
  Timeline timeline;             // (issue time, latency in usec) when recorded.
  uint64_t bytes = 0;
  // Multi-queue runs only: the layer's counters and per-queue breakdown.
  IoQueueStats queue_stats;
  std::vector<IoQueueLayer::PerQueueStats> per_queue;

  uint64_t ElapsedNs() const { return drain_end_ns > start_ns ? drain_end_ns - start_ns : 0; }
};

class Runner {
 public:
  Runner(Ftl* ftl, SimClock* clock)
      : ftl_(ftl), clock_(clock), page_bytes_(ftl->config().nand.page_size_bytes) {}

  // Runs `ops` operations from `workload` (or fewer if it is exhausted).
  StatusOr<RunResult> Run(Workload* workload, uint64_t ops, const RunOptions& options);

 private:
  Status RunGroups(Workload* workload, uint64_t ops, const RunOptions& options,
                   RunResult* result);
  Status RunQueued(Workload* workload, uint64_t ops, const RunOptions& options,
                   RunResult* result);
  // Accounts one completed op; `hook_ns` is the virtual time handed to after_op.
  void Record(const IoResult& io, uint64_t hook_ns, const RunOptions& options,
              RunResult* result) const;

  Ftl* ftl_;
  SimClock* clock_;
  uint64_t page_bytes_;
};

}  // namespace iosnap

#endif  // SRC_WORKLOAD_RUNNER_H_
