#include "src/core/ftl.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/serde.h"
#include "src/core/patrol_scrubber.h"
#include "src/core/recovery.h"
#include "src/nand/parity.h"

namespace iosnap {

namespace {
// Pacing slack: budget slightly more copy work than the estimate so cleaning finishes
// before the free pool does even under mild estimate error.
constexpr double kPacingSlack = 1.3;
// Give up on emergency cleaning after this many rounds: the device is full. Generous
// because one round's net gain can be fractional — a nearly-full victim frees one
// segment while the copy-forward heads consume most of one — and because the
// epoch-colocating policy must first warm up its per-class heads.
constexpr int kMaxInlineCleanRounds = 64;

// Per-request issue times must cover the batch exactly and never go backwards —
// the log is append-ordered, so an earlier-issued request cannot follow a later one.
Status CheckIssueAt(size_t n, std::span<const uint64_t> issue_at) {
  if (issue_at.empty()) {
    return OkStatus();
  }
  if (issue_at.size() != n) {
    return InvalidArgument("issue_at: size does not match request count");
  }
  for (size_t i = 1; i < issue_at.size(); ++i) {
    if (issue_at[i] < issue_at[i - 1]) {
      return InvalidArgument("issue_at: times must be non-decreasing");
    }
  }
  return OkStatus();
}
}  // namespace

Ftl::Ftl(const FtlConfig& config, std::unique_ptr<NandDevice> device)
    : config_(config),
      device_(std::move(device)),
      log_(device_.get(), config.gc_reserve_segments, config.parity_stripe),
      validity_(config.nand.TotalPages(), config.validity_chunk_bits,
                config.naive_validity_copy, config.nand.pages_per_segment),
      lba_count_(config.LbaCount()),
      gc_idle_limiter_(RateLimit::Of(100, 5)),
      patrol_limiter_(RateLimit::Of(100, config.patrol_sleep_ms)) {}

Ftl::~Ftl() = default;

StatusOr<std::unique_ptr<Ftl>> Ftl::Create(const FtlConfig& config) {
  if (config.LbaCount() == 0) {
    return InvalidArgument("ftl: overprovision leaves no LBA space");
  }
  if (config.gc_reserve_segments + 1 >= config.nand.num_segments) {
    return InvalidArgument("ftl: GC reserve consumes the whole device");
  }
  if (config.map_update_threads != 0) {
    return InvalidArgument("ftl: map_update_threads must be 0");
  }
  if (config.parity_stripe > 0 &&
      config.parity_stripe + 1 > config.nand.pages_per_segment) {
    return InvalidArgument("ftl: parity_stripe leaves no member slots in a segment");
  }
  auto device = std::make_unique<NandDevice>(config.nand);
  std::unique_ptr<Ftl> ftl(new Ftl(config, std::move(device)));
  ftl->validity_.CreateEpoch(kRootEpoch);
  View primary;
  primary.view_id = kPrimaryView;
  primary.epoch = kRootEpoch;
  primary.writable = true;
  primary.ready = true;
  ftl->views_.emplace(kPrimaryView, std::move(primary));
  ftl->cleaner_ = std::make_unique<SegmentCleaner>(ftl.get());
  ftl->patrol_ = std::make_unique<PatrolScrubber>(ftl.get());
  return ftl;
}

StatusOr<std::unique_ptr<Ftl>> Ftl::Open(const FtlConfig& config,
                                         std::unique_ptr<NandDevice> device,
                                         uint64_t issue_ns, uint64_t* recovery_finish_ns,
                                         TraceRecorder* trace) {
  if (device == nullptr) {
    return InvalidArgument("ftl: no device");
  }
  if (config.map_update_threads != 0) {
    return InvalidArgument("ftl: map_update_threads must be 0");
  }
  if (config.parity_stripe > 0 &&
      config.parity_stripe + 1 > config.nand.pages_per_segment) {
    return InvalidArgument("ftl: parity_stripe leaves no member slots in a segment");
  }
  ASSIGN_OR_RETURN(RecoveredState state, RecoverFromDevice(device.get(), issue_ns));
  if (trace != nullptr) {
    trace->Record(TraceEventType::kRecoveryRun, issue_ns, state.finish_ns,
                  state.primary_map.size());
  }

  std::unique_ptr<Ftl> ftl(new Ftl(config, std::move(device)));
  ftl->seq_counter_ = state.seq_counter;
  ftl->active_epoch_ = state.active_epoch;
  ftl->tree_ = std::move(state.tree);

  for (const auto& [epoch, paddrs] : state.validity) {
    ftl->validity_.CreateEpoch(epoch);
    // Recovered paddr lists are chunk-dense, so the batched path resolves each CoW
    // chunk once instead of once per bit.
    ftl->validity_.SetValidBatch(epoch, paddrs);
  }
  if (!ftl->validity_.HasEpoch(ftl->active_epoch_)) {
    ftl->validity_.CreateEpoch(ftl->active_epoch_);
  }

  View primary;
  primary.view_id = kPrimaryView;
  primary.epoch = ftl->active_epoch_;
  primary.writable = true;
  primary.ready = true;
  primary.map = BPlusTree::BulkLoad(state.primary_map);
  ftl->views_.emplace(kPrimaryView, std::move(primary));

  ftl->log_.RebuildFromDevice();
  for (const RecoveredState::DataRecord& r : state.data_records) {
    ftl->log_.RestoreAccounting(ftl->device_->SegmentOf(r.paddr), r.epoch, r.seq);
  }

  ftl->cleaner_ = std::make_unique<SegmentCleaner>(ftl.get());
  ftl->patrol_ = std::make_unique<PatrolScrubber>(ftl.get());
  ftl->SetTraceRecorder(trace);
#ifndef NDEBUG
  // The per-segment utilization counters were rebuilt implicitly by the SetValid replay
  // above; cross-check them against a from-scratch recount in debug builds.
  IOSNAP_CHECK(ftl->validity_.VerifyCounters());
#endif
  if (recovery_finish_ns != nullptr) {
    *recovery_finish_ns = state.finish_ns;
  }
  return ftl;
}

void Ftl::SetTraceRecorder(TraceRecorder* trace) {
  trace_ = trace;
  validity_.SetTraceRecorder(trace);
  gc_idle_limiter_.SetTraceRecorder(trace);
  log_.SetTraceRecorder(trace);
  if (device_ != nullptr) {
    device_->SetTraceRecorder(trace);
  }
}

Ftl::View* Ftl::FindView(uint32_t view_id) {
  auto it = views_.find(view_id);
  return it == views_.end() ? nullptr : &it->second;
}

const Ftl::View* Ftl::FindView(uint32_t view_id) const {
  auto it = views_.find(view_id);
  return it == views_.end() ? nullptr : &it->second;
}

std::vector<uint32_t> Ftl::LiveEpochs() const {
  std::vector<uint32_t> epochs = tree_.LiveSnapshotEpochs();
  for (const auto& [id, view] : views_) {
    epochs.push_back(view.epoch);
  }
  std::sort(epochs.begin(), epochs.end());
  epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());
  return epochs;
}

Status Ftl::EnsureAppendSpace(uint64_t issue_ns) {
  int rounds = 0;
  uint64_t t = issue_ns;
  while (!log_.CanAppend(LogManager::kActiveHead)) {
    if (++rounds > kMaxInlineCleanRounds) {
      return ResourceExhausted("ftl: device full (no reclaimable space)");
    }
    ++stats_.gc_inline_stalls;
    ASSIGN_OR_RETURN(uint64_t finish, cleaner_->CleanOneBlocking(t));
    if (finish == t) {
      return ResourceExhausted("ftl: device full (no victim segment)");
    }
    if (trace_ != nullptr) {
      trace_->Record(TraceEventType::kGcInlineStall, t, finish,
                     static_cast<uint64_t>(rounds));
    }
    t = finish;
  }
  return OkStatus();
}

void Ftl::PaceCleanerOnWrite(uint64_t now_ns) {
  // GC is deferred while an activation scan is in flight so the scan's view of block
  // placement stays stable (activations are rare; see §4.2).
  if (!activations_.empty()) {
    return;
  }
  const uint64_t free = log_.FreeSegmentCount();
  if (!gc_cycle_active_) {
    if (free >= config_.gc_low_free_segments) {
      return;
    }
    gc_cycle_active_ = true;
    gc_budget_accum_ = 0.0;
  }
  if (free >= config_.gc_high_free_segments) {
    gc_cycle_active_ = false;
    return;
  }
  if (!cleaner_->HasVictim() && !cleaner_->StartVictim(now_ns)) {
    return;
  }

  // Budget copy work per user write so the victim (and the segments after it) finish
  // before the free pool drains. The estimate source is the Fig 10 knob: merged validity
  // (snapshot-aware) or the active epoch only (vanilla), which under-counts copy work
  // when snapshots pin cold data.
  const uint64_t remaining = cleaner_->PacingEstimateRemaining();
  const uint64_t segments_needed =
      std::max<uint64_t>(1, config_.gc_high_free_segments - free);
  const uint64_t user_pages_left = std::max<uint64_t>(1, log_.ActiveHeadFreePages());
  const double per_write =
      kPacingSlack * static_cast<double>((remaining + 1) * segments_needed) /
      static_cast<double>(user_pages_left);
  gc_budget_accum_ += per_write;

  const uint64_t pages = std::min<uint64_t>(static_cast<uint64_t>(gc_budget_accum_),
                                            config_.gc_pages_per_step);
  if (pages > 0) {
    auto result = cleaner_->Step(now_ns, pages);
    if (result.ok()) {
      gc_budget_accum_ -= static_cast<double>(pages);
    } else {
      IOSNAP_LOG(kWarning) << "[cleaner] paced GC step failed: " << result.status();
    }
  }
}

void Ftl::UpdateDegradedState(uint64_t now_ns) {
  if (config_.degraded_free_floor == 0 && config_.degraded_retired_floor == 0) {
    return;
  }
  const uint64_t free = log_.FreeSegmentCount();
  const uint64_t retired = log_.stats().segments_retired;
  const bool free_low =
      config_.degraded_free_floor > 0 && free < config_.degraded_free_floor;
  const bool retired_high = config_.degraded_retired_floor > 0 &&
                            retired >= config_.degraded_retired_floor;
  if (!degraded_) {
    if (free_low || retired_high) {
      degraded_ = true;
      ++stats_.degraded_entries;
      if (trace_ != nullptr) {
        trace_->Record(TraceEventType::kDegradedEnter, now_ns, now_ns, free, retired);
      }
    }
    return;
  }
  // Exit with hysteresis: the free pool must recover to degraded_exit_free (at least
  // the entry floor) so the FTL does not flap at the boundary. A tripped retired-floor
  // condition never clears — retirement is permanent.
  const uint64_t exit_free = std::max(config_.degraded_exit_free,
                                      config_.degraded_free_floor);
  const bool free_ok = config_.degraded_free_floor == 0 || free >= exit_free;
  if (free_ok && !retired_high) {
    degraded_ = false;
    ++stats_.degraded_exits;
    if (trace_ != nullptr) {
      trace_->Record(TraceEventType::kDegradedExit, now_ns, now_ns, free, retired);
    }
  }
}

Status Ftl::CheckWritable(uint64_t issue_ns) {
  UpdateDegradedState(issue_ns);
  if (degraded_) {
    ++stats_.degraded_writes_rejected;
    return ResourceExhausted("ftl: degraded read-only mode (reclaim space to resume)");
  }
  return OkStatus();
}

Status Ftl::WritePages(uint32_t view_id, std::span<const WriteRequest> requests,
                       uint64_t issue_ns, std::span<const uint64_t> issue_at,
                       IoResult* results) {
  const auto IssueAt = [&](size_t i) {
    return issue_at.empty() ? issue_ns : issue_at[i];
  };
  RETURN_IF_ERROR(CheckIssueAt(requests.size(), issue_at));
  View* view = FindView(view_id);
  if (view == nullptr) {
    return NotFound("view " + std::to_string(view_id) + " does not exist");
  }
  if (closed_) {
    return FailedPrecondition("ftl: closed");
  }
  RETURN_IF_ERROR(CheckWritable(issue_ns));
  if (!view->ready) {
    return FailedPrecondition("write: view still activating");
  }
  if (!view->writable) {
    return FailedPrecondition("write: view is read-only");
  }
  for (const WriteRequest& r : requests) {
    if (r.lba >= lba_count_) {
      return OutOfRange("write: lba " + std::to_string(r.lba) + " out of range");
    }
  }

  WriteScratch& s = scratch_;
  size_t next = 0;
  while (next < requests.size()) {
    RETURN_IF_ERROR(EnsureAppendSpace(IssueAt(next)));
    const uint64_t remaining = requests.size() - next;

    // Run sizing: the longest prefix for which one-by-one writes would provably keep
    // EnsureAppendSpace and PaceCleanerOnWrite no-ops between writes, so batching the
    // device work cannot reorder cleaner traffic relative to sequential execution.
    // Outside those regimes runs are one page long — exactly one-by-one writes.
    uint64_t run = 1;
    const uint64_t head_pages = std::max<uint64_t>(1, log_.ActiveHeadFreePages());
    if (!activations_.empty()) {
      // Pacing defers to the activation scan; only append room limits the run.
      run = std::min(remaining, head_pages);
    } else if (!gc_cycle_active_ &&
               log_.FreeSegmentCount() >= config_.gc_low_free_segments) {
      // Writes may consume the open segment plus every whole segment above the low
      // watermark before pacing engages. Clamp by append room: the low watermark is not
      // guaranteed to sit above the GC reserve.
      const uint64_t pages_per_segment = config_.nand.pages_per_segment;
      uint64_t open_rem = 0;
      const std::optional<uint64_t> open = log_.OpenSegment(LogManager::kActiveHead);
      if (open.has_value()) {
        open_rem = pages_per_segment - device_->NextFreePage(*open);
      }
      const uint64_t safe =
          open_rem +
          (log_.FreeSegmentCount() - config_.gc_low_free_segments) * pages_per_segment;
      run = std::min(remaining, std::max<uint64_t>(1, std::min(safe, head_pages)));
    }

    validity_.NoteTimeNs(IssueAt(next));
    s.appends.clear();
    for (uint64_t i = 0; i < run; ++i) {
      PageHeader header;
      header.type = RecordType::kData;
      header.lba = requests[next + i].lba;
      header.epoch = view->epoch;
      header.seq = NextSeq();
      s.appends.push_back({header, requests[next + i].data});
    }
    s.appended.clear();
    const Status append_status =
        log_.AppendBatch(LogManager::kActiveHead, s.appends, IssueAt(next), &s.appended,
                         issue_at.empty() ? std::span<const uint64_t>{}
                                          : issue_at.subspan(next, run));
    // On error `appended` holds the durably appended prefix (possibly torn mid-batch by
    // a fault); apply exactly that prefix to the map/validity so in-memory state
    // matches the log, then propagate the error below.
    run = s.appended.size();

    // Forward map: one batched descent for the run. `old_paddrs` matches what
    // per-record lookups would have returned (duplicate LBAs resolve in submission
    // order).
    s.entries.clear();
    for (uint64_t i = 0; i < run; ++i) {
      s.entries.emplace_back(requests[next + i].lba, s.appended[i].paddr);
    }
    view->map.InsertBatch(s.entries, &s.old_paddrs);

    // Validity: per record, clear-old then set-new. ApplyBatch groups the flips by
    // chunk; per-op CoW attribution is identical to the sequential calls.
    s.bit_ops.clear();
    s.op_begin.clear();
    for (uint64_t i = 0; i < run; ++i) {
      s.op_begin.push_back(s.bit_ops.size());
      if (s.old_paddrs[i].has_value()) {
        s.bit_ops.push_back({*s.old_paddrs[i], false, 0});
      }
      s.bit_ops.push_back({s.appended[i].paddr, true, 0});
    }
    validity_.ApplyBatch(view->epoch, s.bit_ops);

    for (uint64_t i = 0; i < run; ++i) {
      const size_t ops_end = i + 1 < run ? s.op_begin[i + 1] : s.bit_ops.size();
      uint64_t cow_bytes = 0;
      for (size_t o = s.op_begin[i]; o < ops_end; ++o) {
        cow_bytes += s.bit_ops[o].cow_bytes;
      }
      if (cow_bytes > 0) {
        ++stats_.validity_cow_events;
        stats_.validity_cow_bytes += cow_bytes;
      }
      ++stats_.user_writes;
      stats_.user_bytes_written += config_.nand.page_size_bytes;
      ++stats_.total_pages_programmed;

      PaceCleanerOnWrite(s.appended[i].op.finish_ns);

      IoResult& result = results[next + i];
      result = IoResult{};
      result.op = s.appended[i].op;
      result.host_ns = config_.host_map_lookup_ns + config_.host_map_update_ns +
                       2 * config_.host_bitmap_update_ns +
                       cow_bytes * config_.host_cow_ns_per_byte;
      result.host_map_ns = config_.host_map_lookup_ns + config_.host_map_update_ns;
      result.host_cow_ns = cow_bytes * config_.host_cow_ns_per_byte;
      RecordLatency(LatencyOpKind::kWrite, requests[next + i].lba, result);
      if (trace_ != nullptr) {
        trace_->Record(TraceEventType::kUserWrite, IssueAt(next + i), result.CompletionNs(),
                       requests[next + i].lba, view->view_id);
      }
    }
    next += run;
    RETURN_IF_ERROR(append_status);
  }
  return OkStatus();
}

Status Ftl::ReadPages(uint32_t view_id, std::span<const uint64_t> lbas, uint64_t issue_ns,
                      std::span<const uint64_t> issue_at, IoResult* results,
                      std::vector<uint8_t>* data_out) {
  const auto IssueAt = [&](size_t i) {
    return issue_at.empty() ? issue_ns : issue_at[i];
  };
  RETURN_IF_ERROR(CheckIssueAt(lbas.size(), issue_at));
  const View* view = FindView(view_id);
  if (view == nullptr) {
    return NotFound("view " + std::to_string(view_id) + " does not exist");
  }
  if (closed_) {
    return FailedPrecondition("ftl: closed");
  }
  if (!view->ready) {
    return FailedPrecondition("read: view still activating");
  }
  for (uint64_t lba : lbas) {
    if (lba >= lba_count_) {
      return OutOfRange("read: lba " + std::to_string(lba) + " out of range");
    }
  }

  stats_.user_reads += lbas.size();
  stats_.user_bytes_read += lbas.size() * config_.nand.page_size_bytes;
  for (size_t i = 0; i < lbas.size(); ++i) {
    const uint64_t t = IssueAt(i);
    std::vector<uint8_t>* page = data_out == nullptr ? nullptr : &data_out[i];
    IoResult& result = results[i];
    result = IoResult{};
    result.host_ns = config_.host_map_lookup_ns;
    result.host_map_ns = config_.host_map_lookup_ns;
    const std::optional<uint64_t> paddr = view->map.Lookup(lbas[i]);
    if (!paddr.has_value()) {
      // Unwritten LBAs read as zeroes without touching the device.
      if (page != nullptr) {
        page->assign(config_.nand.page_size_bytes, 0);
      }
      result.op.issue_ns = t;
      result.op.finish_ns = t;
      continue;
    }
    StatusOr<NandOp> op =
        device_->ReadPageWithRetry(*paddr, t, nullptr, page, config_.read_retry_limit);
    if (op.ok()) {
      result.op = *op;
      continue;
    }
    if (op.status().code() == StatusCode::kDataLoss && config_.parity_stripe > 0) {
      // Permanent CRC failure with parity on: rebuild the page from its stripe before
      // admitting data loss. The synthetic op window covers the whole rebuild (member
      // reads + corrective append) and is attributed to the kRebuild span.
      StatusOr<AppendResult> rebuilt = RebuildPage(*paddr, t, page);
      if (rebuilt.ok()) {
        result.op.issue_ns = t;
        result.op.finish_ns = rebuilt->op.finish_ns;
        result.rebuild_ns = rebuilt->op.finish_ns - t;
        continue;
      }
    }
    // Retries exhausted (transient) or the page failed its CRC (permanent): surface
    // the typed status instead of aborting; the rest of the device stays readable.
    ++stats_.user_read_errors;
    return op.status();
  }
  for (size_t i = 0; i < lbas.size(); ++i) {
    RecordLatency(LatencyOpKind::kRead, lbas[i], results[i]);
    if (trace_ != nullptr) {
      trace_->Record(TraceEventType::kUserRead, IssueAt(i), results[i].CompletionNs(),
                     lbas[i], view_id);
    }
  }
  return OkStatus();
}

Status Ftl::TrimRanges(std::span<const TrimRequest> requests, uint64_t issue_ns,
                       std::span<const uint64_t> issue_at, IoResult* results) {
  const auto IssueAt = [&](size_t i) {
    return issue_at.empty() ? issue_ns : issue_at[i];
  };
  RETURN_IF_ERROR(CheckIssueAt(requests.size(), issue_at));
  if (closed_) {
    return FailedPrecondition("ftl: closed");
  }
  for (const TrimRequest& r : requests) {
    if (r.count == 0 || r.lba + r.count > lba_count_ || r.count > 0xffffffffULL) {
      return OutOfRange("trim: bad range");
    }
  }
  RETURN_IF_ERROR(CheckWritable(issue_ns));
  View* view = FindView(kPrimaryView);

  WriteScratch& s = scratch_;
  size_t next = 0;
  while (next < requests.size()) {
    RETURN_IF_ERROR(EnsureAppendSpace(IssueAt(next)));
    validity_.NoteTimeNs(IssueAt(next));
    // Trims never pace the cleaner, so only append room limits the note run.
    const uint64_t run = std::min<uint64_t>(
        requests.size() - next, std::max<uint64_t>(1, log_.ActiveHeadFreePages()));
    s.appends.clear();
    for (uint64_t i = 0; i < run; ++i) {
      const TrimRequest& r = requests[next + i];
      PageHeader header;
      header.type = RecordType::kTrim;
      header.lba = r.lba;
      header.epoch = view->epoch;
      header.seq = NextSeq();
      header.trim_count = static_cast<uint32_t>(r.count);
      s.appends.push_back({header, {}});
    }
    s.appended.clear();
    const Status append_status =
        log_.AppendBatch(LogManager::kActiveHead, s.appends, IssueAt(next), &s.appended,
                         issue_at.empty() ? std::span<const uint64_t>{}
                                          : issue_at.subspan(next, run));
    // Apply only the durably appended prefix (see WritePages).
    const uint64_t done = s.appended.size();

    for (uint64_t i = 0; i < done; ++i) {
      const TrimRequest& r = requests[next + i];
      ++stats_.total_pages_programmed;
      uint64_t host_ns = config_.host_note_ns;
      uint64_t map_ns = 0;
      uint64_t cow_ns = 0;
      for (uint64_t j = 0; j < r.count; ++j) {
        const std::optional<uint64_t> old_paddr = view->map.Lookup(r.lba + j);
        if (old_paddr.has_value()) {
          const uint64_t cow = validity_.ClearValid(view->epoch, *old_paddr);
          view->map.Erase(r.lba + j);
          host_ns += config_.host_map_update_ns + config_.host_bitmap_update_ns +
                     cow * config_.host_cow_ns_per_byte;
          map_ns += config_.host_map_update_ns;
          cow_ns += cow * config_.host_cow_ns_per_byte;
        }
      }
      ++stats_.user_trims;

      IoResult& result = results[next + i];
      result = IoResult{};
      result.op = s.appended[i].op;
      result.host_ns = host_ns;
      result.host_map_ns = map_ns;
      result.host_cow_ns = cow_ns;
      RecordLatency(LatencyOpKind::kTrim, r.lba, result);
      if (trace_ != nullptr) {
        trace_->Record(TraceEventType::kUserTrim, IssueAt(next + i), result.CompletionNs(),
                       r.lba, r.count);
      }
    }
    next += done;
    RETURN_IF_ERROR(append_status);
  }
  return OkStatus();
}

StatusOr<std::vector<IoResult>> Ftl::FinishBatch(const Status& status,
                                                 std::vector<IoResult> results,
                                                 uint64_t issue_ns, uint32_t view_id) {
  RETURN_IF_ERROR(status);
  if (trace_ != nullptr && !results.empty()) {
    trace_->Record(TraceEventType::kUserBatch, issue_ns, issue_ns, results.size(), view_id);
  }
  return results;
}

StatusOr<std::vector<IoResult>> Ftl::WriteViewV(uint32_t view_id,
                                                std::span<const WriteRequest> requests,
                                                uint64_t issue_ns,
                                                std::span<const uint64_t> issue_at) {
  std::vector<IoResult> results(requests.size());
  const Status status = WritePages(view_id, requests, issue_ns, issue_at, results.data());
  return FinishBatch(status, std::move(results), issue_ns, view_id);
}

StatusOr<std::vector<IoResult>> Ftl::ReadViewV(uint32_t view_id,
                                               std::span<const uint64_t> lbas,
                                               uint64_t issue_ns,
                                               std::vector<std::vector<uint8_t>>* data_out,
                                               std::span<const uint64_t> issue_at) {
  std::vector<IoResult> results(lbas.size());
  if (data_out != nullptr) {
    data_out->assign(lbas.size(), {});
  }
  const Status status =
      ReadPages(view_id, lbas, issue_ns, issue_at, results.data(),
                data_out != nullptr ? data_out->data() : nullptr);
  return FinishBatch(status, std::move(results), issue_ns, view_id);
}

StatusOr<std::vector<IoResult>> Ftl::TrimV(std::span<const TrimRequest> requests,
                                           uint64_t issue_ns,
                                           std::span<const uint64_t> issue_at) {
  std::vector<IoResult> results(requests.size());
  const Status status = TrimRanges(requests, issue_ns, issue_at, results.data());
  return FinishBatch(status, std::move(results), issue_ns, kPrimaryView);
}

bool Ftl::IsMapped(uint64_t lba) const {
  const View* view = FindView(kPrimaryView);
  return view->map.Lookup(lba).has_value();
}

StatusOr<SnapshotOpResult> Ftl::CreateSnapshot(std::string name, uint64_t issue_ns) {
  if (closed_) {
    return FailedPrecondition("ftl: closed");
  }
  if (!config_.snapshots_enabled) {
    return Unimplemented("snapshots are disabled on this device");
  }
  RETURN_IF_ERROR(EnsureAppendSpace(issue_ns));

  // §5.8: (writes are quiesced by the single-threaded simulation), write a create note,
  // increment the epoch, record the snapshot in the tree. The note carries the successor
  // epoch id explicitly and the snapshot name as payload (so names survive a crash).
  const uint32_t frozen_epoch = active_epoch_;
  if (name.size() > config_.nand.page_size_bytes) {
    return InvalidArgument("snapshot name exceeds one page");
  }
  const uint32_t snap_id = tree_.AddSnapshot(frozen_epoch, seq_counter_, name);

  PageHeader note;
  note.type = RecordType::kSnapCreate;
  note.snap_id = snap_id;
  note.epoch = frozen_epoch;
  note.lba = tree_.NextEpochId();
  note.seq = NextSeq();
  note.payload_len = static_cast<uint32_t>(name.size());
  const std::span<const uint8_t> payload(reinterpret_cast<const uint8_t*>(name.data()),
                                         name.size());
  ASSIGN_OR_RETURN(AppendResult ar,
                   log_.Append(LogManager::kActiveHead, note, payload, issue_ns));
  ++stats_.total_pages_programmed;

  const uint32_t new_epoch = tree_.NewEpoch(frozen_epoch);
  validity_.NoteTimeNs(issue_ns);
  const uint64_t cow_bytes = validity_.ForkEpoch(new_epoch, frozen_epoch);
  active_epoch_ = new_epoch;
  FindView(kPrimaryView)->epoch = new_epoch;
  ++epoch_set_version_;

  ++stats_.snapshots_created;

  SnapshotOpResult result;
  result.snap_id = snap_id;
  result.io.op = ar.op;
  result.io.host_ns = config_.host_note_ns + cow_bytes * config_.host_cow_ns_per_byte;
  if (trace_ != nullptr) {
    trace_->Record(TraceEventType::kSnapCreate, issue_ns, result.io.CompletionNs(), snap_id,
                   frozen_epoch, new_epoch);
  }
  return result;
}

StatusOr<IoResult> Ftl::DeleteSnapshot(uint32_t snap_id, uint64_t issue_ns) {
  if (closed_) {
    return FailedPrecondition("ftl: closed");
  }
  ASSIGN_OR_RETURN(SnapshotInfo info, tree_.Get(snap_id));
  if (info.deleted) {
    return FailedPrecondition("snapshot " + std::to_string(snap_id) + " already deleted");
  }
  for (const auto& [id, view] : views_) {
    if (id != kPrimaryView && view.snap_id == snap_id) {
      return FailedPrecondition("snapshot " + std::to_string(snap_id) +
                                " has an active view; deactivate it first");
    }
  }
  RETURN_IF_ERROR(EnsureAppendSpace(issue_ns));
  ASSIGN_OR_RETURN(AppendResult ar,
                   AppendNote(RecordType::kSnapDelete, snap_id, info.epoch, 0, issue_ns));
  RETURN_IF_ERROR(tree_.MarkDeleted(snap_id));
  // The frozen validity view goes away; shared chunks survive via their other refs and
  // the epoch's exclusive blocks become garbage at the next clean of their segments.
  validity_.DropEpoch(info.epoch);
  ++epoch_set_version_;
  ++stats_.snapshots_deleted;

  IoResult result;
  result.op = ar.op;
  result.host_ns = config_.host_note_ns;
  if (trace_ != nullptr) {
    trace_->Record(TraceEventType::kSnapDelete, issue_ns, result.CompletionNs(), snap_id,
                   info.epoch);
  }
  return result;
}

StatusOr<uint64_t> Ftl::RollbackToSnapshot(uint32_t snap_id, uint64_t issue_ns) {
  if (closed_) {
    return FailedPrecondition("ftl: closed");
  }
  if (!config_.snapshots_enabled) {
    return Unimplemented("snapshots are disabled on this device");
  }
  ASSIGN_OR_RETURN(SnapshotInfo info, tree_.Get(snap_id));
  if (info.deleted) {
    return FailedPrecondition("snapshot " + std::to_string(snap_id) + " is deleted");
  }
  if (views_.size() != 1 || !activations_.empty()) {
    return FailedPrecondition("rollback requires all views deactivated");
  }
  RETURN_IF_ERROR(EnsureAppendSpace(issue_ns));

  // Persist the re-parenting, then fork the primary off the snapshot. Everything written
  // since the snapshot (the old primary epoch's exclusive blocks) becomes garbage.
  const uint32_t new_epoch_id = tree_.NextEpochId();
  ASSIGN_OR_RETURN(AppendResult ar, AppendNote(RecordType::kRollback, snap_id, info.epoch,
                                               new_epoch_id, issue_ns));
  const uint32_t new_epoch = tree_.NewEpoch(info.epoch);
  IOSNAP_CHECK(new_epoch == new_epoch_id);
  validity_.NoteTimeNs(issue_ns);
  validity_.ForkEpoch(new_epoch, info.epoch);

  View* primary = FindView(kPrimaryView);
  validity_.DropEpoch(primary->epoch);
  primary->epoch = new_epoch;
  primary->ready = false;
  active_epoch_ = new_epoch;
  ++epoch_set_version_;

  // Rebuild the primary forward map with the standard activation scan (same cost
  // profile, same compact bulk-loaded result).
  auto task = std::make_unique<ActivationTask>(this, kPrimaryView, info.epoch,
                                               RateLimit::Unlimited(), ar.op.finish_ns);
  ActivationTask* raw = task.get();
  activations_.push_back(std::move(task));
  ASSIGN_OR_RETURN(uint64_t finish, raw->RunToCompletion(ar.op.finish_ns));
  std::erase_if(activations_,
                [raw](const std::unique_ptr<ActivationTask>& t) { return t.get() == raw; });
  MaybeClearRelocations();
  ++stats_.rollbacks;
  if (trace_ != nullptr) {
    trace_->Record(TraceEventType::kSnapRollback, issue_ns, finish, snap_id, info.epoch,
                   new_epoch);
  }
  return finish;
}

StatusOr<Ftl::SnapshotSpace> Ftl::SnapshotSpaceReport(uint32_t snap_id) const {
  ASSIGN_OR_RETURN(SnapshotInfo info, tree_.Get(snap_id));
  if (info.deleted) {
    return FailedPrecondition("snapshot " + std::to_string(snap_id) + " is deleted");
  }
  std::vector<uint32_t> others;
  for (uint32_t epoch : LiveEpochs()) {
    if (epoch != info.epoch) {
      others.push_back(epoch);
    }
  }
  SnapshotSpace space;
  validity_.ForEachValid(info.epoch, [&](uint64_t paddr) {
    ++space.referenced_pages;
    if (!validity_.TestAny(others, paddr)) {
      ++space.exclusive_pages;
    }
  });
  return space;
}

StatusOr<uint32_t> Ftl::BeginActivation(uint32_t snap_id, RateLimit limit, uint64_t issue_ns,
                                        bool writable) {
  if (closed_) {
    return FailedPrecondition("ftl: closed");
  }
  if (!config_.snapshots_enabled) {
    return Unimplemented("snapshots are disabled on this device");
  }
  ASSIGN_OR_RETURN(SnapshotInfo info, tree_.Get(snap_id));
  if (info.deleted) {
    return FailedPrecondition("snapshot " + std::to_string(snap_id) + " is deleted");
  }
  RETURN_IF_ERROR(EnsureAppendSpace(issue_ns));
  ASSIGN_OR_RETURN(AppendResult ar,
                   AppendNote(RecordType::kSnapActivate, snap_id, info.epoch,
                              tree_.NextEpochId(), issue_ns));

  // The activated view lives on a fresh epoch forked off the snapshot (§5.6): writes to
  // the view never disturb the snapshot itself.
  const uint32_t view_epoch = tree_.NewEpoch(info.epoch);
  validity_.NoteTimeNs(issue_ns);
  validity_.ForkEpoch(view_epoch, info.epoch);
  ++epoch_set_version_;

  View view;
  view.view_id = next_view_id_++;
  view.snap_id = snap_id;
  view.epoch = view_epoch;
  view.writable = writable;
  view.ready = false;
  const uint32_t view_id = view.view_id;
  views_.emplace(view_id, std::move(view));

  activations_.push_back(std::make_unique<ActivationTask>(this, view_id, info.epoch, limit,
                                                          ar.op.finish_ns));
  ++stats_.activations;
  if (trace_ != nullptr) {
    trace_->Record(TraceEventType::kActivateBegin, issue_ns, ar.op.finish_ns, snap_id,
                   view_id, view_epoch);
  }
  return view_id;
}

bool Ftl::ActivationDone(uint32_t view_id) const {
  const View* view = FindView(view_id);
  return view != nullptr && view->ready;
}

StatusOr<uint32_t> Ftl::ActivateBlocking(uint32_t snap_id, uint64_t issue_ns, bool writable,
                                         uint64_t* finish_ns) {
  ASSIGN_OR_RETURN(uint32_t view_id,
                   BeginActivation(snap_id, RateLimit::Unlimited(), issue_ns, writable));
  ActivationTask* task = activations_.back().get();
  ASSIGN_OR_RETURN(uint64_t finish, task->RunToCompletion(issue_ns));
  if (finish_ns != nullptr) {
    *finish_ns = finish;
  }
  std::erase_if(activations_,
                [task](const std::unique_ptr<ActivationTask>& t) { return t.get() == task; });
  MaybeClearRelocations();
  return view_id;
}

Status Ftl::Deactivate(uint32_t view_id, uint64_t issue_ns) {
  if (view_id == kPrimaryView) {
    return InvalidArgument("cannot deactivate the primary view");
  }
  View* view = FindView(view_id);
  if (view == nullptr) {
    return NotFound("view " + std::to_string(view_id) + " does not exist");
  }
  RETURN_IF_ERROR(EnsureAppendSpace(issue_ns));
  RETURN_IF_ERROR(
      AppendNote(RecordType::kSnapDeactivate, view->snap_id, view->epoch, 0, issue_ns)
          .status());
  // Abandon any in-flight activation of this view.
  std::erase_if(activations_, [view_id](const std::unique_ptr<ActivationTask>& t) {
    return t->view_id() == view_id;
  });
  MaybeClearRelocations();
  if (trace_ != nullptr) {
    trace_->Record(TraceEventType::kSnapDeactivate, issue_ns, issue_ns, view->snap_id,
                   view_id);
  }
  validity_.DropEpoch(view->epoch);
  views_.erase(view_id);
  ++epoch_set_version_;
  ++stats_.deactivations;
  return OkStatus();
}

std::vector<uint32_t> Ftl::ActiveViewIds() const {
  std::vector<uint32_t> out;
  for (const auto& [id, view] : views_) {
    out.push_back(id);
  }
  return out;
}

void Ftl::PumpBackground(uint64_t now_ns) {
  if (closed_) {
    return;
  }
  // Activations first (they also suppress cleaning while in flight).
  for (auto& task : activations_) {
    if (!task->done()) {
      auto result = task->Pump(now_ns);
      if (!result.ok()) {
        IOSNAP_LOG(kWarning) << "[activation] activation pump failed: " << result.status();
      }
    }
  }
  std::erase_if(activations_,
                [](const std::unique_ptr<ActivationTask>& t) { return t->done(); });
  MaybeClearRelocations();

  if (!activations_.empty()) {
    return;
  }
  // Idle catch-up cleaning (free pool low) and static wear leveling, lightly paced.
  // While degraded with a free-pool floor configured, the idle cleaner chases the
  // degraded *exit* threshold instead of gc_low: writes are rejected in that state,
  // so write-path GC pacing cannot run — background reclaim is the only way back
  // to writable.
  uint64_t idle_low = config_.gc_low_free_segments;
  if (degraded_ && config_.degraded_free_floor > 0) {
    idle_low = std::max(idle_low, std::max(config_.degraded_exit_free,
                                           config_.degraded_free_floor));
  }
  if ((log_.FreeSegmentCount() < idle_low || cleaner_->WearImbalanced()) &&
      gc_idle_limiter_.CanRun(now_ns)) {
    if (cleaner_->HasVictim() || cleaner_->StartVictim(now_ns)) {
      auto result = cleaner_->Step(now_ns, config_.gc_pages_per_step);
      if (result.ok()) {
        gc_idle_limiter_.OnBurstComplete(*result);
      }
    }
  }
  // Patrol scrubbing, paced on its own limiter (patrol_sleep_ms between bursts).
  if (config_.patrol_enabled && patrol_limiter_.CanRun(now_ns)) {
    auto result = patrol_->Step(now_ns, config_.patrol_pages_per_step);
    if (result.ok()) {
      patrol_limiter_.OnBurstComplete(*result);
    } else {
      IOSNAP_LOG(kWarning) << "[patrol] scrub step failed: " << result.status();
    }
  }
  // Idle cleaning / patrol evacuation may have recovered (or drained) the free pool.
  UpdateDegradedState(now_ns);
}

StatusOr<uint64_t> Ftl::ForceCleanSegment(uint64_t issue_ns) {
  if (closed_) {
    return FailedPrecondition("ftl: closed");
  }
  return cleaner_->CleanOneBlocking(issue_ns);
}

StatusOr<uint64_t> Ftl::ScrubAllBlocking(uint64_t issue_ns) {
  if (closed_) {
    return FailedPrecondition("ftl: closed");
  }
  ASSIGN_OR_RETURN(uint64_t finish, patrol_->ScrubAllBlocking(issue_ns));
  UpdateDegradedState(finish);
  return finish;
}

std::unique_ptr<NandDevice> Ftl::ReleaseDevice() {
  closed_ = true;
  return std::move(device_);
}

StatusOr<uint64_t> Ftl::ViewMapMemoryBytes(uint32_t view_id) const {
  const View* view = FindView(view_id);
  if (view == nullptr) {
    return NotFound("view " + std::to_string(view_id) + " does not exist");
  }
  return static_cast<uint64_t>(view->map.MemoryBytes());
}

StatusOr<uint64_t> Ftl::ViewMapEntryCount(uint32_t view_id) const {
  const View* view = FindView(view_id);
  if (view == nullptr) {
    return NotFound("view " + std::to_string(view_id) + " does not exist");
  }
  return static_cast<uint64_t>(view->map.size());
}

StatusOr<std::vector<std::pair<uint64_t, uint64_t>>> Ftl::ViewMapEntries(
    uint32_t view_id) const {
  const View* view = FindView(view_id);
  if (view == nullptr) {
    return NotFound("view " + std::to_string(view_id) + " does not exist");
  }
  if (!view->ready) {
    return FailedPrecondition("view still activating");
  }
  return view->map.ToSortedVector();
}

void Ftl::DetachPaddrFromMaps(uint64_t paddr) {
  // Full map sweep — O(mapped blocks) per view, but only ever run on a data-loss
  // event (a page dropped as unreadable), so correctness beats speed here.
  for (auto& [id, view] : views_) {
    std::vector<uint64_t> stale;
    view.map.ForEach([&](uint64_t lba, uint64_t mapped) {
      if (mapped == paddr) {
        stale.push_back(lba);
      }
    });
    for (uint64_t lba : stale) {
      view.map.Erase(lba);
    }
  }
}

StatusOr<AppendResult> Ftl::RebuildPage(uint64_t old_paddr, uint64_t issue_ns,
                                        std::vector<uint8_t>* data_out) {
  const uint64_t stripe = config_.parity_stripe;
  const uint64_t pages_per_segment = config_.nand.pages_per_segment;
  // Failure bookkeeping shared by every bail-out below.
  const auto Fail = [&](uint64_t lba, const std::string& why) -> Status {
    ++stats_.pages_rebuild_failed;
    if (trace_ != nullptr) {
      trace_->Record(TraceEventType::kRebuildFailed, issue_ns, issue_ns, lba, old_paddr);
    }
    return DataLoss("rebuild: " + why);
  };
  if (stripe == 0) {
    return Fail(0, "parity disabled");
  }
  const uint64_t segment = device_->SegmentOf(old_paddr);
  const uint64_t index = old_paddr - device_->FirstPageOf(segment);
  if (IsParitySlot(index, stripe, pages_per_segment)) {
    return Fail(0, "page is a parity slot");
  }
  const uint64_t pslot = ParitySlotFor(index, stripe, pages_per_segment);
  const uint64_t parity_paddr = device_->FirstPageOf(segment) + pslot;
  if (!device_->IsProgrammed(parity_paddr)) {
    // The stripe never closed (crash or abandoned segment): its members were written
    // but the covering parity page was not.
    return Fail(0, "stripe has no parity page");
  }

  // Read the parity page, then every surviving member, chaining device time.
  uint64_t t = issue_ns;
  PageHeader pheader;
  std::vector<uint8_t> image;
  StatusOr<NandOp> pread = device_->ReadPageWithRetry(parity_paddr, t, &pheader, &image,
                                                      config_.read_retry_limit);
  if (!pread.ok()) {
    return Fail(0, "parity page unreadable");
  }
  t = pread->finish_ns;
  const uint64_t members = pslot - StripeStartIndex(pslot, stripe);
  if (pheader.type != RecordType::kParity || pheader.trim_count != members ||
      image.size() != ParityImageSize(config_.nand.page_size_bytes)) {
    // trim_count == 0 is the poisoned-accumulator marker (a reopened partial stripe
    // held an unreadable member); any other mismatch means the slot holds something
    // that is not this stripe's parity.
    return Fail(0, "parity page unusable (poisoned or mismatched)");
  }
  for (uint64_t i = StripeStartIndex(pslot, stripe); i < pslot; ++i) {
    const uint64_t member_paddr = device_->FirstPageOf(segment) + i;
    if (member_paddr == old_paddr) {
      continue;
    }
    PageHeader mheader;
    std::vector<uint8_t> mdata;
    StatusOr<NandOp> mread = device_->ReadPageWithRetry(member_paddr, t, &mheader, &mdata,
                                                        config_.read_retry_limit);
    if (!mread.ok()) {
      // Two faults in one stripe: XOR parity cannot recover either. Honest loss.
      return Fail(0, "second unreadable member in stripe");
    }
    t = mread->finish_ns;
    XorMemberImage(image, mheader, mdata, config_.nand.page_size_bytes);
  }

  StatusOr<DecodedMember> decoded =
      DecodeMemberImage(image, config_.nand.page_size_bytes);
  if (!decoded.ok()) {
    return Fail(0, "reconstruction failed CRC");
  }

  // Re-append through the GC head preserving the record's (lba, epoch, seq) identity —
  // the copy-forward contract, so recovery and activations still attribute it.
  ASSIGN_OR_RETURN(AppendResult ar, log_.Append(LogManager::kGcHead, decoded->header,
                                                decoded->payload, t));
  ++stats_.total_pages_programmed;

  if (decoded->header.type == RecordType::kData) {
    validity_.NoteTimeNs(ar.op.finish_ns);
    validity_.MoveBit(LiveEpochs(), old_paddr, ar.paddr);
    if (!activations_.empty()) {
      gc_relocations_.emplace_back(decoded->header.lba, ar.paddr);
    }
    for (auto& [id, view] : views_) {
      if (!tree_.InLineage(view.epoch, decoded->header.epoch)) {
        continue;
      }
      const std::optional<uint64_t> mapped = view.map.Lookup(decoded->header.lba);
      if (mapped.has_value() && *mapped == old_paddr) {
        view.map.Insert(decoded->header.lba, ar.paddr);
      }
    }
  }

  ++stats_.pages_rebuilt;
  if (trace_ != nullptr) {
    trace_->Record(TraceEventType::kPageRebuilt, issue_ns, ar.op.finish_ns,
                   decoded->header.lba, old_paddr, ar.paddr);
  }
  if (data_out != nullptr) {
    *data_out = std::move(decoded->payload);
  }
  return ar;
}

StatusOr<AppendResult> Ftl::AppendNote(RecordType type, uint32_t snap_id, uint32_t epoch,
                                       uint32_t aux_epoch, uint64_t issue_ns) {
  PageHeader header;
  header.type = type;
  header.snap_id = snap_id;
  header.epoch = epoch;
  header.lba = aux_epoch;
  header.seq = NextSeq();
  auto result = log_.Append(LogManager::kActiveHead, header, {}, issue_ns);
  if (result.ok()) {
    ++stats_.total_pages_programmed;
  }
  return result;
}

StatusOr<uint64_t> Ftl::AppendTreeSummary(int head, uint64_t issue_ns) {
  std::vector<uint8_t> bytes;
  tree_.SerializeTo(&bytes);
  PutU32(&bytes, active_epoch_);

  const uint64_t page_bytes = config_.nand.page_size_bytes;
  const uint64_t total_pages = (bytes.size() + page_bytes - 1) / page_bytes;
  const uint32_t summary_id = static_cast<uint32_t>(seq_counter_ & 0xffffffffu);
  uint64_t finish = issue_ns;
  for (uint64_t i = 0; i < total_pages; ++i) {
    PageHeader header;
    header.type = RecordType::kTreeSummary;
    header.lba = i;
    header.snap_id = summary_id;
    header.trim_count = static_cast<uint32_t>(total_pages);
    header.seq = NextSeq();
    const uint64_t begin = i * page_bytes;
    const uint64_t len = std::min<uint64_t>(page_bytes, bytes.size() - begin);
    header.payload_len = static_cast<uint32_t>(len);
    std::span<const uint8_t> payload(bytes.data() + begin, len);
    ASSIGN_OR_RETURN(AppendResult ar, log_.Append(head, header, payload, finish));
    finish = ar.op.finish_ns;
    ++stats_.total_pages_programmed;
  }
  ++stats_.gc_summaries_written;
  return finish;
}

}  // namespace iosnap
