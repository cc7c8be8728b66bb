#include "src/ftl/log_manager.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/nand/parity.h"

namespace iosnap {

LogManager::LogManager(NandDevice* device, uint64_t gc_reserve_segments,
                       uint64_t parity_stripe)
    : device_(device),
      gc_reserve_segments_(gc_reserve_segments),
      parity_stripe_(parity_stripe),
      segments_(device->config().num_segments) {
  IOSNAP_CHECK(device != nullptr);
  IOSNAP_CHECK(gc_reserve_segments_ < device->config().num_segments);
  IOSNAP_CHECK(parity_stripe_ == 0 ||
               parity_stripe_ + 1 <= device->config().pages_per_segment);
  for (uint64_t s = 0; s < device->config().num_segments; ++s) {
    free_segments_.push_back(s);
  }
}

void LogManager::ResetParity(Head& h) {
  if (parity_stripe_ == 0) {
    return;
  }
  h.parity_xor.assign(ParityImageSize(device_->config().page_size_bytes), 0);
  h.parity_poisoned = false;
}

void LogManager::AccumulateParity(Head& h, const AppendRequest& record,
                                  std::optional<uint64_t> copyback_src) {
  if (parity_stripe_ == 0 || h.parity_poisoned) {
    return;
  }
  PageHeader stored;
  std::span<const uint8_t> payload;
  if (copyback_src.has_value()) {
    stored = device_->PeekHeader(*copyback_src);
    payload = device_->PeekPageData(*copyback_src);
  } else {
    stored = record.header;
    if (device_->config().store_data || PayloadAlwaysStored(record.header.type)) {
      payload = record.data;
    }
    stored.crc = ComputePageCrc(stored, payload);
  }
  if (!XorMemberImage(h.parity_xor, stored, payload, device_->config().page_size_bytes)
           .ok()) {
    h.parity_poisoned = true;
  }
}

Status LogManager::EmitParityIfDue(int head, uint64_t issue_ns) {
  if (parity_stripe_ == 0) {
    return OkStatus();
  }
  Head& h = HeadFor(head);
  const uint64_t pages_per_segment = device_->config().pages_per_segment;
  while (h.open_segment.has_value()) {
    const uint64_t seg = *h.open_segment;
    const uint64_t next = device_->NextFreePage(seg);
    if (next >= pages_per_segment ||
        !IsParitySlot(next, parity_stripe_, pages_per_segment)) {
      return OkStatus();
    }
    const uint64_t start = StripeStartIndex(next, parity_stripe_);
    PageHeader header;
    header.type = RecordType::kParity;
    header.lba = device_->FirstPageOf(seg) + start;
    header.trim_count =
        h.parity_poisoned ? 0 : static_cast<uint32_t>(next - start);
    header.payload_len = static_cast<uint32_t>(h.parity_xor.size());
    // A poisoned stripe writes an all-zero image under trim_count = 0: a parity page
    // that verifies (the log stays scannable) but that rebuild refuses to use.
    if (h.parity_poisoned) {
      std::fill(h.parity_xor.begin(), h.parity_xor.end(), 0);
    }
    uint64_t paddr = 0;
    StatusOr<NandOp> op = device_->ProgramPage(seg, header, h.parity_xor, issue_ns, &paddr);
    if (!op.ok()) {
      if (op.status().code() == StatusCode::kDataLoss) {
        // The parity program retired the block. Positional parity cannot be re-driven
        // into another segment, so the members stay durable but uncovered; abandon
        // the segment and let the cleaner migrate them off later.
        IOSNAP_LOG(kWarning) << "log: parity program failed in segment " << seg
                             << "; stripe left unprotected: " << op.status();
        AbandonOpenSegment(head);
        return OkStatus();
      }
      return op.status();
    }
    ++stats_.parity_pages_written;
    if (trace_ != nullptr) {
      trace_->Record(TraceEventType::kParityWrite, issue_ns, op->finish_ns, seg, paddr,
                     header.trim_count);
    }
    ResetParity(h);
    CloseIfFull(h);
  }
  return OkStatus();
}

LogManager::Head& LogManager::HeadFor(int head) { return heads_[head]; }

bool LogManager::CanAppend(int head) const {
  auto it = heads_.find(head);
  if (it != heads_.end() && it->second.open_segment.has_value()) {
    const uint64_t seg = *it->second.open_segment;
    if (device_->NextFreePage(seg) < device_->config().pages_per_segment) {
      return true;
    }
  }
  // Needs a fresh segment.
  if (head == kActiveHead) {
    return free_segments_.size() > gc_reserve_segments_;
  }
  return !free_segments_.empty();
}

StatusOr<uint64_t> LogManager::AcquireSegment(int head) {
  if (free_segments_.empty()) {
    return ResourceExhausted("log: no free segments");
  }
  if (head == kActiveHead && free_segments_.size() <= gc_reserve_segments_) {
    return ResourceExhausted("log: active head blocked by GC reserve");
  }
  const uint64_t seg = free_segments_.front();
  free_segments_.pop_front();

  SegmentInfo& info = segments_[seg];
  IOSNAP_CHECK(info.state == SegmentState::kFree);
  info.state = SegmentState::kOpen;
  info.use_order = ++use_counter_;
  return seg;
}

void LogManager::CloseIfFull(Head& h) {
  if (h.open_segment.has_value() &&
      device_->NextFreePage(*h.open_segment) >= device_->config().pages_per_segment) {
    segments_[*h.open_segment].state = SegmentState::kClosed;
    h.open_segment.reset();
  }
}

void LogManager::AbandonOpenSegment(int head) {
  Head& h = HeadFor(head);
  if (!h.open_segment.has_value()) {
    return;
  }
  segments_[*h.open_segment].state = SegmentState::kClosed;
  h.open_segment.reset();
  ResetParity(h);
}

StatusOr<AppendResult> LogManager::Append(int head, const PageHeader& header,
                                          std::span<const uint8_t> data, uint64_t issue_ns) {
  return AppendOne(head, {header, data}, std::nullopt, issue_ns);
}

StatusOr<AppendResult> LogManager::AppendCopyback(int head, uint64_t src_paddr,
                                                  const PageHeader& header,
                                                  uint64_t issue_ns) {
  return AppendOne(head, {header, {}}, src_paddr, issue_ns);
}

Status LogManager::AppendBatch(int head, std::span<const AppendRequest> requests,
                               uint64_t issue_ns, std::vector<AppendResult>* results_out,
                               std::span<const uint64_t> issue_at) {
  return AppendRun(head, requests, std::nullopt, issue_ns, issue_at, results_out);
}

StatusOr<AppendResult> LogManager::AppendOne(int head, const AppendRequest& request,
                                             std::optional<uint64_t> copyback_src,
                                             uint64_t issue_ns) {
  one_result_.clear();
  RETURN_IF_ERROR(AppendRun(head, std::span<const AppendRequest>(&request, 1), copyback_src,
                            issue_ns, {}, &one_result_));
  return one_result_.front();
}

Status LogManager::AppendRun(int head, std::span<const AppendRequest> requests,
                             std::optional<uint64_t> copyback_src, uint64_t issue_ns,
                             std::span<const uint64_t> issue_at,
                             std::vector<AppendResult>* results_out) {
  IOSNAP_CHECK(issue_at.empty() || issue_at.size() == requests.size());
  IOSNAP_CHECK(!copyback_src.has_value() || requests.size() == 1);
  IOSNAP_CHECK(results_out != nullptr);
  const uint64_t pages_per_segment = device_->config().pages_per_segment;
  Head& h = HeadFor(head);
  results_out->reserve(results_out->size() + requests.size());

  size_t next = 0;
  int reroutes = 0;  // Spent by the record that leads the remainder.
  while (next < requests.size()) {
    CloseIfFull(h);
    if (!h.open_segment.has_value()) {
      ASSIGN_OR_RETURN(uint64_t acquired, AcquireSegment(head));
      h.open_segment = acquired;
      ResetParity(h);
    }
    // A reopened partial segment may sit exactly on a parity slot: cover the pending
    // stripe before the next member lands.
    RETURN_IF_ERROR(EmitParityIfDue(head, issue_ns));
    if (!h.open_segment.has_value()) {
      continue;  // Parity emission closed or abandoned the segment; take a fresh one.
    }
    const uint64_t seg = *h.open_segment;
    const uint64_t next_free = device_->NextFreePage(seg);
    uint64_t room = pages_per_segment - next_free;
    if (parity_stripe_ > 0) {
      // Stop the run at the next parity slot so the stripe's parity page interleaves
      // at its positional slot (EmitParityIfDue writes it on the next pass).
      room = std::min(room,
                      ParitySlotFor(next_free, parity_stripe_, pages_per_segment) -
                          next_free);
    }
    const size_t run_len = std::min<uint64_t>(requests.size() - next, room);

    batch_paddrs_.clear();
    batch_ops_.clear();
    Status status;
    if (copyback_src.has_value()) {
      uint64_t paddr = 0;
      StatusOr<NandOp> op = device_->CopybackPage(*copyback_src, seg, issue_ns, &paddr);
      if (op.ok()) {
        batch_paddrs_.push_back(paddr);
        batch_ops_.push_back(*op);
      } else {
        status = op.status();
      }
    } else {
      status = device_->ProgramBatch(seg, requests.subspan(next, run_len), issue_ns,
                                     &batch_paddrs_, &batch_ops_,
                                     issue_at.empty() ? std::span<const uint64_t>{}
                                                      : issue_at.subspan(next, run_len));
    }
    // A torn run committed `batch_ops_.size()` pages before failing; account exactly
    // those.
    const size_t done = batch_ops_.size();
    SegmentInfo& info = segments_[seg];
    for (size_t i = 0; i < done; ++i) {
      const PageHeader& header = requests[next + i].header;
      if (header.type == RecordType::kData) {
        info.min_data_seq = std::min(info.min_data_seq, header.seq);
        ++info.epoch_pages[header.epoch];
      }
      AccumulateParity(h, requests[next + i], copyback_src);
      results_out->push_back(AppendResult{batch_paddrs_[i], batch_ops_[i]});
    }
    next += done;
    if (done > 0) {
      reroutes = 0;  // A new record leads the remainder; its budget starts fresh.
    }
    if (!status.ok()) {
      // The reroute rule: only a failed program of the record itself spends its
      // budget, and a kDataLoss reroutes only when the destination segment is now bad.
      // Every program failure retires its block, so that is every kDataLoss from
      // ProgramBatch; a copyback kDataLoss that leaves the destination good is a
      // scrub-detected unreadable source, which no reroute can fix.
      if (status.code() == StatusCode::kDataLoss && device_->IsBadSegment(seg) &&
          reroutes < kMaxAppendReroutes) {
        // Abandon the bad segment (the cleaner copies its earlier records off later)
        // and re-drive the remainder into a fresh one.
        AbandonOpenSegment(head);
        ++stats_.append_reroutes;
        ++reroutes;
        continue;
      }
      return status;
    }
    // Cover a just-completed stripe immediately (not lazily at the next append): a
    // crash between the run and its parity page must cost at most one stripe's cover.
    // The run is durable, so an emission failure (say the device went offline mid
    // parity program) must not fail it: the stripe stays uncovered until a later
    // append retries the slot, and if records remain, the next pass's leading emission
    // surfaces the fault anyway.
    if (const Status parity = EmitParityIfDue(head, issue_ns); !parity.ok()) {
      IOSNAP_LOG(kWarning) << "log: trailing parity emission failed: " << parity;
    }
    CloseIfFull(h);
  }
  return OkStatus();
}

std::optional<uint32_t> LogManager::NextAppendChannel(int head) const {
  const uint64_t pages_per_segment = device_->config().pages_per_segment;
  const uint32_t channels = device_->config().num_channels;
  auto it = heads_.find(head);
  if (it != heads_.end() && it->second.open_segment.has_value()) {
    const uint64_t seg = *it->second.open_segment;
    const uint64_t next = device_->NextFreePage(seg);
    if (next < pages_per_segment) {
      return static_cast<uint32_t>((device_->FirstPageOf(seg) + next) % channels);
    }
  }
  if (!free_segments_.empty()) {
    return static_cast<uint32_t>(device_->FirstPageOf(free_segments_.front()) % channels);
  }
  return std::nullopt;
}

std::vector<uint64_t> LogManager::ClosedSegments() const {
  std::vector<uint64_t> out;
  for (uint64_t s = 0; s < segments_.size(); ++s) {
    if (segments_[s].state == SegmentState::kClosed) {
      out.push_back(s);
    }
  }
  return out;
}

StatusOr<NandOp> LogManager::ReleaseSegment(uint64_t segment, uint64_t issue_ns) {
  IOSNAP_CHECK(segment < segments_.size());
  SegmentInfo& info = segments_[segment];
  if (info.state != SegmentState::kClosed) {
    return FailedPrecondition("release: segment " + std::to_string(segment) +
                              " is not closed");
  }
  StatusOr<NandOp> op = device_->EraseSegment(segment, issue_ns);
  if (!op.ok()) {
    const StatusCode code = op.status().code();
    if (code == StatusCode::kDataLoss || code == StatusCode::kResourceExhausted) {
      // Permanent erase failure (grown bad block) or wear-out: retire the segment.
      // Its pages were not erased, so recovery will still scan them — keep the
      // accounting (min_data_seq especially) so GlobalMinDataSeq stays conservative
      // and trim notes that kill those stale records are never dropped.
      info.state = SegmentState::kRetired;
      ++stats_.segments_retired;
      IOSNAP_LOG(kWarning) << "log: retiring segment " << segment
                          << " after erase failure: " << op.status();
      if (trace_ != nullptr) {
        trace_->Record(TraceEventType::kSegmentRetired, issue_ns, issue_ns, segment,
                       device_->EraseCount(segment));
      }
      return NandOp{issue_ns, issue_ns};
    }
    return op.status();  // Transient (crash) or structural errors propagate.
  }
  info.state = SegmentState::kFree;
  info.epoch_pages.clear();
  info.min_data_seq = ~uint64_t{0};
  free_segments_.push_back(segment);
  return *op;
}

uint64_t LogManager::TotalSegments() const { return segments_.size(); }

uint64_t LogManager::GlobalMinDataSeq() const {
  uint64_t min_seq = ~uint64_t{0};
  for (const SegmentInfo& info : segments_) {
    if (info.state != SegmentState::kFree) {
      min_seq = std::min(min_seq, info.min_data_seq);
    }
  }
  return min_seq;
}

uint64_t LogManager::ActiveHeadFreePages() const {
  const uint64_t pages_per_segment = device_->config().pages_per_segment;
  uint64_t pages = 0;
  if (free_segments_.size() > gc_reserve_segments_) {
    pages += (free_segments_.size() - gc_reserve_segments_) * pages_per_segment;
  }
  auto it = heads_.find(kActiveHead);
  if (it != heads_.end() && it->second.open_segment.has_value()) {
    pages += pages_per_segment - device_->NextFreePage(*it->second.open_segment);
  }
  return pages;
}

const SegmentInfo& LogManager::segment_info(uint64_t segment) const {
  IOSNAP_CHECK(segment < segments_.size());
  return segments_[segment];
}

std::optional<uint64_t> LogManager::OpenSegment(int head) const {
  auto it = heads_.find(head);
  if (it == heads_.end()) {
    return std::nullopt;
  }
  return it->second.open_segment;
}

void LogManager::RebuildFromDevice() {
  free_segments_.clear();
  heads_.clear();
  use_counter_ = 0;
  for (uint64_t s = 0; s < segments_.size(); ++s) {
    SegmentInfo& info = segments_[s];
    info.epoch_pages.clear();
    info.min_data_seq = ~uint64_t{0};
    const uint64_t next = device_->NextFreePage(s);
    if (device_->IsBadSegment(s)) {
      // Grown bad block. If it still holds records, treat it as closed so the cleaner
      // copies the live ones off and re-retires it; an empty bad block is retired
      // outright. Either way it must never be re-opened or offered as free.
      if (next == 0) {
        info.state = SegmentState::kRetired;
      } else {
        info.state = SegmentState::kClosed;
        info.use_order = ++use_counter_;
      }
    } else if (next == 0) {
      info.state = SegmentState::kFree;
      free_segments_.push_back(s);
    } else if (next < device_->config().pages_per_segment &&
               !heads_[kActiveHead].open_segment.has_value()) {
      // A segment that was open at crash time: resume appending into it. If several heads
      // were open at the crash, the first partial segment becomes the active head and the
      // rest are treated as closed (their free tail is reclaimed at their next clean).
      info.state = SegmentState::kOpen;
      info.use_order = ++use_counter_;
      heads_[kActiveHead].open_segment = s;
    } else {
      info.state = SegmentState::kClosed;
      info.use_order = ++use_counter_;
    }
  }

  if (parity_stripe_ == 0) {
    return;
  }
  // Restore the reopened head's parity accumulator from the partial stripe already on
  // media. An unreadable member poisons it: the XOR could never reproduce a
  // verifiable image, so the stripe's parity page will honestly declare 0 members.
  Head& h = heads_[kActiveHead];
  ResetParity(h);
  if (!h.open_segment.has_value()) {
    return;
  }
  const uint64_t seg = *h.open_segment;
  const uint64_t next = device_->NextFreePage(seg);
  for (uint64_t i = StripeStartIndex(next, parity_stripe_); i < next; ++i) {
    const uint64_t paddr = device_->FirstPageOf(seg) + i;
    const NandDevice::PageInspection insp = device_->InspectPage(paddr);
    if (!insp.programmed || !insp.crc_ok ||
        !XorMemberImage(h.parity_xor, insp.header, device_->PeekPageData(paddr),
                        device_->config().page_size_bytes)
             .ok()) {
      h.parity_poisoned = true;
      break;
    }
  }
}

void LogManager::RestoreAccounting(uint64_t segment, uint32_t epoch, uint64_t seq) {
  IOSNAP_CHECK(segment < segments_.size());
  SegmentInfo& info = segments_[segment];
  info.min_data_seq = std::min(info.min_data_seq, seq);
  ++info.epoch_pages[epoch];
}

}  // namespace iosnap
