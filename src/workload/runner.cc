#include "src/workload/runner.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "src/common/units.h"

namespace iosnap {
namespace {

// Refills `group` with up to `n` ops from `workload`; false once it is exhausted.
bool NextGroup(Workload* workload, uint64_t n, std::vector<IoOp>* group) {
  group->clear();
  while (group->size() < n) {
    const std::optional<IoOp> op = workload->Next();
    if (!op.has_value()) {
      return false;
    }
    group->push_back(*op);
  }
  return true;
}

}  // namespace

StatusOr<RunResult> Runner::Run(Workload* workload, uint64_t ops, const RunOptions& options) {
  RunResult result;
  result.start_ns = clock_->NowNs();
  RETURN_IF_ERROR(options.queues > 0 ? RunQueued(workload, ops, options, &result)
                                     : RunGroups(workload, ops, options, &result));
  result.end_ns = clock_->NowNs();
  result.drain_end_ns = std::max(result.end_ns, ftl_->device().DrainTimeNs());
  return result;
}

void Runner::Record(const IoResult& io, uint64_t hook_ns, const RunOptions& options,
                    RunResult* result) const {
  const uint64_t latency = io.LatencyNs();
  result->latency.Add(latency);
  if (options.record_timeline) {
    result->timeline.Add(io.op.issue_ns, NsToUs(latency));
  }
  result->bytes += page_bytes_;
  ++result->ops;
  if (options.after_op) {
    options.after_op(result->ops - 1, hook_ns);
  }
  if (options.sampler != nullptr) {
    options.sampler->MaybeSample(io.CompletionNs());
  }
}

Status Runner::RunGroups(Workload* workload, uint64_t ops, const RunOptions& options,
                         RunResult* result) {
  const uint64_t batch = std::max<uint64_t>(1, options.batch);
  std::vector<IoOp> group;
  std::vector<WriteRequest> writes;
  std::vector<uint64_t> lbas;
  std::vector<IoResult> ios;
  bool more = true;
  while (more && result->ops < ops) {
    const uint64_t now = clock_->NowNs();
    ftl_->PumpBackground(now);
    more = NextGroup(workload, std::min(batch, ops - result->ops), &group);

    // One vectored call per maximal run of same-kind ops, all issued at `now`.
    ios.clear();
    for (size_t i = 0, j = 0; i < group.size(); i = j) {
      const IoKind kind = group[i].kind;
      writes.clear();
      lbas.clear();
      for (j = i; j < group.size() && group[j].kind == kind; ++j) {
        if (kind == IoKind::kWrite) {
          writes.push_back({group[j].lba, {}});
        } else {
          lbas.push_back(group[j].lba);
        }
      }
      ASSIGN_OR_RETURN(std::vector<IoResult> run,
                       kind == IoKind::kWrite ? ftl_->WriteV(writes, now)
                                              : ftl_->ReadV(lbas, now, nullptr));
      ios.insert(ios.end(), run.begin(), run.end());
    }

    uint64_t group_end = now;
    for (const IoResult& io : ios) {
      group_end = std::max(group_end, io.CompletionNs());
      Record(io, group_end, options, result);
    }
    clock_->AdvanceTo(group_end);
  }
  return OkStatus();
}

Status Runner::RunQueued(Workload* workload, uint64_t ops, const RunOptions& options,
                         RunResult* result) {
  IoQueueLayer::Options qopts;
  qopts.queues = options.queues;
  qopts.iodepth = std::max<uint32_t>(1, options.iodepth);
  IoQueueLayer layer(ftl_, qopts);
  const uint64_t batch = std::max<uint64_t>(1, options.batch);

  Status io_error;
  const auto account = [&](const IoCompletion& c) {
    if (!c.status.ok()) {
      if (io_error.ok()) {
        io_error = c.status;
      }
      return;
    }
    Record(c.result, c.CompletionNs(), options, result);
  };

  uint64_t issued = 0;
  bool exhausted = false;
  uint32_t rr = 0;  // Round-robin queue cursor.
  std::vector<IoOp> group;
  std::vector<QueueOp> sub;
  const auto any_free_slot = [&] {
    for (uint32_t q = 0; q < qopts.queues; ++q) {
      if (layer.CanSubmit(q)) {
        return true;
      }
    }
    return false;
  };
  while (io_error.ok()) {
    const uint64_t now = clock_->NowNs();
    // Pump only when about to admit work, mirroring the group loop's cadence:
    // completions delivered mid-submission do not trigger background work on their own.
    if (!exhausted && issued < ops && any_free_slot()) {
      ftl_->PumpBackground(now);
    }
    // Fill every free slot round-robin with `batch`-op submissions at `now`.
    while (!exhausted && issued < ops) {
      uint32_t queue = 0;
      bool found = false;
      for (uint32_t k = 0; k < qopts.queues; ++k) {
        const uint32_t cand = (rr + k) % qopts.queues;
        if (layer.CanSubmit(cand)) {
          queue = cand;
          found = true;
          break;
        }
      }
      if (!found) {
        break;
      }
      exhausted = !NextGroup(workload, std::min(batch, ops - issued), &group);
      if (group.empty()) {
        break;
      }
      sub.resize(group.size());
      for (size_t i = 0; i < group.size(); ++i) {
        sub[i].kind = group[i].kind == IoKind::kWrite ? QueueOpKind::kWrite
                                                      : QueueOpKind::kRead;
        sub[i].lba = group[i].lba;
      }
      RETURN_IF_ERROR(layer.Submit(queue, sub, now).status());
      issued += sub.size();
      rr = (queue + 1) % qopts.queues;
    }

    const std::optional<uint64_t> next = layer.NextCompletionNs();
    if (!next.has_value()) {
      break;  // Nothing in flight and nothing left to admit.
    }
    clock_->AdvanceTo(*next);
    for (const IoCompletion& c : layer.PollCompletions(clock_->NowNs())) {
      account(c);
    }
  }
  for (const IoCompletion& c : layer.Drain()) {
    account(c);
    clock_->AdvanceTo(c.CompletionNs());
  }
  RETURN_IF_ERROR(io_error);
  result->queue_stats = layer.stats();
  result->per_queue = layer.per_queue();
  return OkStatus();
}

}  // namespace iosnap
