#include "src/core/io_queue.h"

#include <algorithm>
#include <functional>

#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace iosnap {

IoQueueStats& GlobalIoQueueStats() {
  static IoQueueStats stats;
  return stats;
}

LatencyHistogram& GlobalQueueCompletionHistogram() {
  static LatencyHistogram hist;
  return hist;
}

IoQueueLayer::IoQueueLayer(Ftl* ftl, const Options& options)
    : ftl_(ftl), options_(options) {
  IOSNAP_CHECK(ftl_ != nullptr);
  IOSNAP_CHECK(options_.queues > 0);
  IOSNAP_CHECK(options_.iodepth > 0);
  per_queue_.resize(options_.queues);
  queue_inflight_subs_.assign(options_.queues, 0);
}

bool IoQueueLayer::CanSubmit(uint32_t queue) const {
  return queue < queue_inflight_subs_.size() &&
         queue_inflight_subs_[queue] < options_.iodepth;
}

StatusOr<uint64_t> IoQueueLayer::Submit(uint32_t queue, std::span<const QueueOp> ops,
                                        uint64_t issue_ns) {
  if (queue >= queue_inflight_subs_.size()) {
    return OutOfRange("io_queue: queue " + std::to_string(queue) + " out of range");
  }
  if (ops.empty()) {
    return InvalidArgument("io_queue: empty submission");
  }
  if (issue_ns < last_issue_ns_) {
    return InvalidArgument("io_queue: issue times must be non-decreasing");
  }
  if (queue_inflight_subs_[queue] >= options_.iodepth) {
    ++stats_.queue_full_rejections;
    ++GlobalIoQueueStats().queue_full_rejections;
    return ResourceExhausted("io_queue: queue " + std::to_string(queue) +
                             " at iodepth " + std::to_string(options_.iodepth));
  }
  last_issue_ns_ = issue_ns;

  const uint64_t submission_id = next_submission_id_++;
  for (const QueueOp& op : ops) {
    PendingOp p;
    p.op_id = next_op_id_++;
    p.submission_id = submission_id;
    p.queue = queue;
    p.kind = op.kind;
    p.lba = op.lba;
    p.count = op.count;
    p.data.assign(op.data.begin(), op.data.end());
    p.issue_ns = issue_ns;
    pending_.push_back(std::move(p));
  }
  ++queue_inflight_subs_[queue];
  sub_remaining_[submission_id] = ops.size();

  ++stats_.submissions;
  stats_.ops_submitted += ops.size();
  stats_.inflight_ops += ops.size();
  stats_.max_inflight_ops = std::max(stats_.max_inflight_ops, stats_.inflight_ops);
  IoQueueStats& g = GlobalIoQueueStats();
  ++g.submissions;
  g.ops_submitted += ops.size();
  g.inflight_ops += ops.size();
  g.max_inflight_ops = std::max(g.max_inflight_ops, g.inflight_ops);
  PerQueueStats& q = per_queue_[queue];
  ++q.submissions;
  q.ops_submitted += ops.size();
  q.max_inflight_subs =
      std::max<uint64_t>(q.max_inflight_subs, queue_inflight_subs_[queue]);

  if (TraceRecorder* trace = ftl_->trace_recorder(); trace != nullptr) {
    trace->Record(TraceEventType::kQueueSubmit, issue_ns, issue_ns, queue, ops.size(),
                  submission_id);
  }
  return submission_id;
}

void IoQueueLayer::FailOp(const PendingOp& op, const Status& status) {
  IoCompletion c;
  c.op_id = op.op_id;
  c.submission_id = op.submission_id;
  c.queue = op.queue;
  c.kind = op.kind;
  c.lba = op.lba;
  c.count = op.count;
  c.status = status;
  c.result.op.issue_ns = op.issue_ns;
  c.result.op.finish_ns = op.issue_ns;
  PushCompletion(std::move(c));
}

void IoQueueLayer::PushCompletion(IoCompletion&& c) {
  size_t slot = completed_.size();
  if (free_slots_.empty()) {
    completed_.push_back(std::move(c));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    completed_[slot] = std::move(c);
  }
  due_.push_back({completed_[slot].CompletionNs(), completed_[slot].op_id, slot});
  std::push_heap(due_.begin(), due_.end(), std::greater<>());
}

Status IoQueueLayer::CommitRun(size_t begin, size_t len) {
  const QueueOpKind kind = pending_[begin].kind;
  std::vector<uint64_t> issue_at(len);
  for (size_t i = 0; i < len; ++i) {
    issue_at[i] = pending_[begin + i].issue_ns;
  }
  const uint64_t issue_ns = issue_at[0];

  Status run_status;
  std::vector<IoResult> results;
  std::vector<std::vector<uint8_t>> read_data;
  switch (kind) {
    case QueueOpKind::kWrite: {
      std::vector<WriteRequest> reqs(len);
      for (size_t i = 0; i < len; ++i) {
        reqs[i].lba = pending_[begin + i].lba;
        reqs[i].data = pending_[begin + i].data;
      }
      auto r = ftl_->WriteV(reqs, issue_ns, issue_at);
      if (r.ok()) {
        results = std::move(*r);
      } else {
        run_status = r.status();
      }
      break;
    }
    case QueueOpKind::kRead: {
      std::vector<uint64_t> lbas(len);
      for (size_t i = 0; i < len; ++i) {
        lbas[i] = pending_[begin + i].lba;
      }
      auto r = ftl_->ReadV(lbas, issue_ns, &read_data, issue_at);
      if (r.ok()) {
        results = std::move(*r);
      } else {
        run_status = r.status();
      }
      break;
    }
    case QueueOpKind::kTrim: {
      std::vector<TrimRequest> reqs(len);
      for (size_t i = 0; i < len; ++i) {
        reqs[i].lba = pending_[begin + i].lba;
        reqs[i].count = pending_[begin + i].count;
      }
      auto r = ftl_->TrimV(reqs, issue_ns, issue_at);
      if (r.ok()) {
        results = std::move(*r);
      } else {
        run_status = r.status();
      }
      break;
    }
  }

  if (!run_status.ok()) {
    for (size_t i = 0; i < len; ++i) {
      FailOp(pending_[begin + i], run_status);
    }
    return run_status;
  }
  IOSNAP_CHECK(results.size() == len);
  for (size_t i = 0; i < len; ++i) {
    PendingOp& op = pending_[begin + i];
    IoCompletion c;
    c.op_id = op.op_id;
    c.submission_id = op.submission_id;
    c.queue = op.queue;
    c.kind = op.kind;
    c.lba = op.lba;
    c.count = op.count;
    c.result = results[i];
    if (kind == QueueOpKind::kRead && !read_data.empty()) {
      c.data = std::move(read_data[i]);
    }
    PushCompletion(std::move(c));
  }
  return OkStatus();
}

void IoQueueLayer::Flush() {
  if (pending_.empty()) {
    return;
  }
  ++stats_.flushes;
  ++GlobalIoQueueStats().flushes;

  // Commit maximal same-kind runs in submission order. A failed run also fails every
  // later pending op: its log position was consumed by an error and replaying the
  // remainder could reorder effects relative to submission order.
  size_t begin = 0;
  uint64_t runs = 0;
  while (begin < pending_.size()) {
    size_t end = begin + 1;
    while (end < pending_.size() && pending_[end].kind == pending_[begin].kind) {
      ++end;
    }
    ++runs;
    if (!CommitRun(begin, end - begin).ok()) {
      for (size_t i = end; i < pending_.size(); ++i) {
        FailOp(pending_[i],
               Unavailable("io_queue: aborted after earlier run failed"));
      }
      break;
    }
    begin = end;
  }
  stats_.merged_runs += runs;
  GlobalIoQueueStats().merged_runs += runs;

  if (TraceRecorder* trace = ftl_->trace_recorder(); trace != nullptr) {
    trace->Record(TraceEventType::kQueueFlush, pending_.front().issue_ns,
                  pending_.front().issue_ns, pending_.size(), runs);
  }
  pending_.clear();
}

const IoQueueLayer::DueKey* IoQueueLayer::Earliest() {
  if (due_.empty()) {
    return nullptr;
  }
  ++stats_.completions_examined;
  ++GlobalIoQueueStats().completions_examined;
  return &due_.front();
}

std::optional<uint64_t> IoQueueLayer::NextCompletionNs() {
  Flush();
  const DueKey* earliest = Earliest();
  if (earliest == nullptr) {
    return std::nullopt;
  }
  return earliest->completion_ns;
}

void IoQueueLayer::DeliverOne(IoCompletion&& c, std::vector<IoCompletion>* out) {
  ++stats_.ops_completed;
  --stats_.inflight_ops;
  IoQueueStats& g = GlobalIoQueueStats();
  ++g.ops_completed;
  --g.inflight_ops;
  ++per_queue_[c.queue].ops_completed;
  if (c.status.ok()) {
    GlobalQueueCompletionHistogram().Add(c.result.LatencyNs());
  } else {
    ++stats_.ops_failed;
    ++g.ops_failed;
  }

  auto it = sub_remaining_.find(c.submission_id);
  IOSNAP_CHECK(it != sub_remaining_.end());
  if (--it->second == 0) {
    sub_remaining_.erase(it);
    IOSNAP_CHECK(queue_inflight_subs_[c.queue] > 0);
    --queue_inflight_subs_[c.queue];
  }

  if (TraceRecorder* trace = ftl_->trace_recorder(); trace != nullptr) {
    trace->Record(TraceEventType::kQueueComplete, c.result.op.issue_ns,
                  c.CompletionNs(), c.queue, c.op_id, c.lba);
  }
  out->push_back(std::move(c));
}

std::vector<IoCompletion> IoQueueLayer::PollCompletions(uint64_t now_ns) {
  Flush();
  std::vector<IoCompletion> delivered;
  for (const DueKey* earliest = Earliest();
       earliest != nullptr && earliest->completion_ns <= now_ns; earliest = Earliest()) {
    std::pop_heap(due_.begin(), due_.end(), std::greater<>());
    const size_t slot = due_.back().slot;
    due_.pop_back();
    DeliverOne(std::move(completed_[slot]), &delivered);
    free_slots_.push_back(slot);
  }
  return delivered;
}

std::vector<IoCompletion> IoQueueLayer::Drain() {
  return PollCompletions(~uint64_t{0});
}

}  // namespace iosnap
