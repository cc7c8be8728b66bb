#include "src/nand/nand_device.h"

#include <algorithm>

#include "src/common/crc32.h"
#include "src/common/logging.h"
#include "src/nand/parity.h"

namespace iosnap {

namespace {

// kind codes for kFaultInjected trace events.
constexpr uint64_t kFaultKindProgram = 0;
constexpr uint64_t kFaultKindErase = 1;
constexpr uint64_t kFaultKindRead = 2;
constexpr uint64_t kFaultKindCorrupt = 3;
constexpr uint64_t kFaultKindReadDisturb = 4;
constexpr uint64_t kFaultKindRetention = 5;

}  // namespace

uint32_t ComputePageCrc(const PageHeader& header, std::span<const uint8_t> data) {
  uint8_t buf[kPageHeaderCrcFieldBytes];
  SerializePageHeaderFields(header, buf);
  return Crc32Extend(Crc32(std::span<const uint8_t>(buf, sizeof(buf))), data);
}

const char* RecordTypeName(RecordType type) {
  switch (type) {
    case RecordType::kInvalid:
      return "invalid";
    case RecordType::kData:
      return "data";
    case RecordType::kTrim:
      return "trim";
    case RecordType::kSnapCreate:
      return "snap-create";
    case RecordType::kSnapDelete:
      return "snap-delete";
    case RecordType::kSnapActivate:
      return "snap-activate";
    case RecordType::kSnapDeactivate:
      return "snap-deactivate";
    case RecordType::kRollback:
      return "rollback";
    case RecordType::kTreeSummary:
      return "tree-summary";
    case RecordType::kTrimSummary:
      return "trim-summary";
    case RecordType::kCheckpoint:
      return "checkpoint";
    case RecordType::kPad:
      return "pad";
    case RecordType::kParity:
      return "parity";
  }
  return "?";
}

NandDevice::NandDevice(const NandConfig& config)
    : config_(config),
      fault_(config.fault),
      pages_(config.TotalPages()),
      segments_(config.num_segments),
      channel_busy_until_(config.num_channels, 0),
      bus_busy_until_(config.buses, 0),
      channel_bg_until_(config.num_channels, 0),
      bus_bg_until_(config.buses, 0),
      bus_active_ns_(config.buses, 0) {
  IOSNAP_CHECK(config.num_channels > 0);
  IOSNAP_CHECK(config.buses > 0);
  IOSNAP_CHECK(config.pages_per_segment > 0);
  IOSNAP_CHECK(config.num_segments > 0);
  // NAND ships factory-erased: first programs need no erase. (Erases after that are
  // charged wherever they happen — normally in the cleaner's release path.)
  for (SegmentState& seg : segments_) {
    seg.erased = true;
  }
}

NandOp NandDevice::Occupy(uint32_t channel, uint64_t issue_ns, uint64_t bus_ns,
                          uint64_t cell_ns) {
  NandOp op;
  op.issue_ns = issue_ns;
  op.bus_ns = bus_ns;
  op.cell_ns = cell_ns;

  const uint64_t chan_start = std::max(issue_ns, channel_busy_until_[channel]);
  op.chan_wait_ns = chan_start - issue_ns;
  // Background share of the channel wait: time spent before the channel's
  // background horizon passed. Clamped arithmetic only — timing is untouched.
  op.bg_wait_ns =
      std::min(chan_start, std::max(issue_ns, channel_bg_until_[channel])) - issue_ns;

  uint64_t start = chan_start;
  if (bus_ns > 0) {
    const uint32_t bus = BusOfChannel(channel);
    const uint64_t bus_start = std::max(start, bus_busy_until_[bus]);
    op.bus_wait_ns = bus_start - start;
    op.bg_wait_ns +=
        std::min(bus_start, std::max(start, bus_bg_until_[bus])) - start;
    bus_busy_until_[bus] = bus_start + bus_ns;
    bus_active_ns_[bus] += bus_ns;
    if (background_depth_ > 0) {
      bus_bg_until_[bus] = bus_busy_until_[bus];
    }
    start = bus_start + bus_ns;
  }
  const uint64_t finish = start + cell_ns;
  channel_busy_until_[channel] = finish;
  if (background_depth_ > 0) {
    channel_bg_until_[channel] = finish;
  }
  op.finish_ns = finish;
  return op;
}

StatusOr<NandOp> NandDevice::ProgramPage(uint64_t segment, const PageHeader& header,
                                         std::span<const uint8_t> data, uint64_t issue_ns,
                                         uint64_t* paddr_out) {
  if (segment >= config_.num_segments) {
    return OutOfRange("program: segment " + std::to_string(segment) + " out of range");
  }
  SegmentState& seg = segments_[segment];
  if (seg.bad) {
    return DataLoss("program: segment " + std::to_string(segment) +
                    " is a grown bad block");
  }
  if (!seg.erased) {
    return FailedPrecondition("program: segment " + std::to_string(segment) +
                              " was never erased");
  }
  if (seg.next_page >= config_.pages_per_segment) {
    return ResourceExhausted("program: segment " + std::to_string(segment) + " is full");
  }
  if (!data.empty() && data.size() > MaxPayloadBytes(header.type)) {
    return InvalidArgument("program: payload larger than a page");
  }
  return ProgramCommit(segment, header, data, issue_ns, paddr_out);
}

StatusOr<NandOp> NandDevice::ProgramCommit(uint64_t segment, const PageHeader& header,
                                           std::span<const uint8_t> data, uint64_t issue_ns,
                                           uint64_t* paddr_out) {
  RETURN_IF_ERROR(fault_.BeginOp());
  SegmentState& seg = segments_[segment];
  const uint64_t paddr = FirstPageOf(segment) + seg.next_page;
  ++seg.next_page;

  if (fault_.DrawProgramFail()) {
    // The failed attempt consumes the page slot (it is left unprogrammed) and the
    // whole block is retired, matching how real flash reports program failures.
    MarkBad(segment);
    ++stats_.program_failures;
    Occupy(ChannelOfPage(paddr), issue_ns, config_.bus_ns_per_page, config_.program_ns);
    if (trace_ != nullptr) {
      trace_->Record(TraceEventType::kFaultInjected, issue_ns, issue_ns,
                     kFaultKindProgram, segment, fault_.ops());
    }
    return DataLoss("program: injected failure in segment " + std::to_string(segment));
  }

  PageState& page = pages_[paddr];
  IOSNAP_CHECK(!page.programmed);
  page.programmed = true;
  page.programmed_at_ns = issue_ns;
  page.header = header;
  // Metadata payloads (summaries, snapshot names, parity images) are always retained:
  // header-only benchmarking mode must still support restarts, note consolidation, and
  // stripe rebuilds.
  if ((config_.store_data || PayloadAlwaysStored(header.type)) && !data.empty()) {
    page.data.assign(data.begin(), data.end());
  } else {
    page.data.clear();
  }
  // The CRC covers the payload as actually stored, so header-only mode stays
  // self-consistent on read-back.
  page.header.crc = ComputePageCrc(page.header, page.data);

  if (fault_.DrawCorrupt()) {
    FlipStoredBit(paddr);
    ++stats_.pages_corrupted;
    if (trace_ != nullptr) {
      trace_->Record(TraceEventType::kFaultInjected, issue_ns, issue_ns,
                     kFaultKindCorrupt, paddr, fault_.ops());
    }
  }

  ++stats_.pages_programmed;
  stats_.bytes_programmed += config_.page_size_bytes;

  const NandOp op =
      Occupy(ChannelOfPage(paddr), issue_ns, config_.bus_ns_per_page, config_.program_ns);
  if (paddr_out != nullptr) {
    *paddr_out = paddr;
  }
  return op;
}

Status NandDevice::ProgramBatch(uint64_t segment, std::span<const ProgramRequest> requests,
                                uint64_t issue_ns, std::vector<uint64_t>* paddrs_out,
                                std::vector<NandOp>* ops_out,
                                std::span<const uint64_t> issue_at) {
  IOSNAP_CHECK(issue_at.empty() || issue_at.size() == requests.size());
  if (segment >= config_.num_segments) {
    return OutOfRange("program-batch: segment " + std::to_string(segment) +
                      " out of range");
  }
  const SegmentState& seg = segments_[segment];
  if (seg.bad) {
    return DataLoss("program-batch: segment " + std::to_string(segment) +
                    " is a grown bad block");
  }
  if (!seg.erased) {
    return FailedPrecondition("program-batch: segment " + std::to_string(segment) +
                              " was never erased");
  }
  if (seg.next_page + requests.size() > config_.pages_per_segment) {
    return ResourceExhausted("program-batch: batch of " +
                             std::to_string(requests.size()) + " overflows segment " +
                             std::to_string(segment));
  }
  for (const ProgramRequest& request : requests) {
    if (!request.data.empty() &&
        request.data.size() > MaxPayloadBytes(request.header.type)) {
      return InvalidArgument("program-batch: payload larger than a page");
    }
  }

  if (paddrs_out != nullptr) {
    paddrs_out->reserve(paddrs_out->size() + requests.size());
  }
  if (ops_out != nullptr) {
    ops_out->reserve(ops_out->size() + requests.size());
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    const ProgramRequest& request = requests[i];
    uint64_t paddr = 0;
    // A fault or crash mid-batch tears the batch: the prefix already pushed to the
    // out-vectors is durable, the rest was never programmed.
    StatusOr<NandOp> op = ProgramCommit(segment, request.header, request.data,
                                        issue_at.empty() ? issue_ns : issue_at[i],
                                        &paddr);
    if (!op.ok()) {
      return op.status();
    }
    if (paddrs_out != nullptr) {
      paddrs_out->push_back(paddr);
    }
    if (ops_out != nullptr) {
      ops_out->push_back(*op);
    }
  }
  return OkStatus();
}

StatusOr<NandOp> NandDevice::ReadPage(uint64_t paddr, uint64_t issue_ns,
                                      PageHeader* header_out, std::vector<uint8_t>* data_out) {
  if (paddr >= config_.TotalPages()) {
    return OutOfRange("read: paddr out of range");
  }
  if (!pages_[paddr].programmed) {
    return FailedPrecondition("read: page " + std::to_string(paddr) + " is not programmed");
  }
  return ReadCommit(paddr, issue_ns, header_out, data_out);
}

StatusOr<NandOp> NandDevice::ReadCommit(uint64_t paddr, uint64_t issue_ns,
                                        PageHeader* header_out,
                                        std::vector<uint8_t>* data_out) {
  RETURN_IF_ERROR(fault_.BeginOp());
  // The sense itself wears the media: count it against the segment and roll the
  // state-dependent corruption dice before any verification below.
  ApplyReadWear(paddr, issue_ns);
  const PageState& page = pages_[paddr];

  if (fault_.DrawReadFail()) {
    ++stats_.read_failures;
    // The failed attempt still occupied the channel and bus.
    Occupy(ChannelOfPage(paddr), issue_ns, config_.bus_ns_per_page, config_.read_ns);
    if (trace_ != nullptr) {
      trace_->Record(TraceEventType::kFaultInjected, issue_ns, issue_ns, kFaultKindRead,
                     paddr, fault_.ops());
    }
    return Unavailable("read: transient failure at paddr " + std::to_string(paddr));
  }
  if (!PageCrcOk(page)) {
    ++stats_.crc_errors;
    Occupy(ChannelOfPage(paddr), issue_ns, config_.bus_ns_per_page, config_.read_ns);
    return DataLoss("read: CRC mismatch at paddr " + std::to_string(paddr));
  }

  if (header_out != nullptr) {
    *header_out = page.header;
  }
  if (data_out != nullptr) {
    *data_out = page.data;
  }

  ++stats_.pages_read;
  stats_.bytes_read += config_.page_size_bytes;

  // Read: cell sense first, then bus transfer; modeled as serialized occupancy.
  return Occupy(ChannelOfPage(paddr), issue_ns, config_.bus_ns_per_page, config_.read_ns);
}

StatusOr<NandOp> NandDevice::CopybackPage(uint64_t src_paddr, uint64_t dst_segment,
                                          uint64_t issue_ns, uint64_t* paddr_out) {
  if (src_paddr >= config_.TotalPages()) {
    return OutOfRange("copyback: src paddr out of range");
  }
  if (!pages_[src_paddr].programmed) {
    return FailedPrecondition("copyback: page " + std::to_string(src_paddr) +
                              " is not programmed");
  }
  if (dst_segment >= config_.num_segments) {
    return OutOfRange("copyback: segment " + std::to_string(dst_segment) +
                      " out of range");
  }
  const SegmentState& seg = segments_[dst_segment];
  if (seg.bad) {
    return DataLoss("copyback: segment " + std::to_string(dst_segment) +
                    " is a grown bad block");
  }
  if (!seg.erased) {
    return FailedPrecondition("copyback: segment " + std::to_string(dst_segment) +
                              " was never erased");
  }
  if (seg.next_page >= config_.pages_per_segment) {
    return ResourceExhausted("copyback: segment " + std::to_string(dst_segment) +
                             " is full");
  }
  return CopybackCommit(src_paddr, dst_segment, issue_ns, paddr_out);
}

StatusOr<NandOp> NandDevice::CopybackCommit(uint64_t src_paddr, uint64_t dst_segment,
                                            uint64_t issue_ns, uint64_t* paddr_out) {
  RETURN_IF_ERROR(fault_.BeginOp());
  SegmentState& seg = segments_[dst_segment];
  const uint64_t dst_paddr = FirstPageOf(dst_segment) + seg.next_page;
  const uint32_t src_chan = ChannelOfPage(src_paddr);
  const uint32_t dst_chan = ChannelOfPage(dst_paddr);
  const bool on_die = src_chan == dst_chan;
  const uint64_t leg_bus_ns = on_die ? 0 : config_.bus_ns_per_page;

  // The internal source sense is still a data read: it disturbs the source segment.
  ApplyReadWear(src_paddr, issue_ns);
  const PageState& src = pages_[src_paddr];
  if (fault_.DrawReadFail()) {
    // The failed internal read still occupied the source channel (and, on the
    // cross-channel fallback, its bus). Retryable; the destination slot survives.
    ++stats_.read_failures;
    Occupy(src_chan, issue_ns, leg_bus_ns, config_.read_ns);
    if (trace_ != nullptr) {
      trace_->Record(TraceEventType::kFaultInjected, issue_ns, issue_ns, kFaultKindRead,
                     src_paddr, fault_.ops());
    }
    return Unavailable("copyback: transient read failure at paddr " +
                       std::to_string(src_paddr));
  }
  if (config_.copyback_scrub && !PageCrcOk(src)) {
    // Scrub-on-copyback: the on-die move would otherwise relocate corruption without
    // any host CRC check. Caught here, the page is dropped by the caller's normal
    // unreadable-page path and nothing is programmed.
    ++stats_.crc_errors;
    Occupy(src_chan, issue_ns, leg_bus_ns, config_.read_ns);
    return DataLoss("copyback: CRC mismatch at paddr " + std::to_string(src_paddr));
  }

  ++seg.next_page;
  if (fault_.DrawProgramFail()) {
    MarkBad(dst_segment);
    ++stats_.program_failures;
    if (on_die) {
      Occupy(src_chan, issue_ns, 0, config_.read_ns + config_.program_ns);
    } else {
      const NandOp read_op = Occupy(src_chan, issue_ns, leg_bus_ns, config_.read_ns);
      Occupy(dst_chan, read_op.finish_ns, leg_bus_ns, config_.program_ns);
    }
    if (trace_ != nullptr) {
      trace_->Record(TraceEventType::kFaultInjected, issue_ns, issue_ns,
                     kFaultKindProgram, dst_segment, fault_.ops());
    }
    return DataLoss("copyback: injected program failure in segment " +
                    std::to_string(dst_segment));
  }

  PageState& dst = pages_[dst_paddr];
  IOSNAP_CHECK(!dst.programmed);
  dst.programmed = true;
  dst.programmed_at_ns = issue_ns;
  // The stored bytes move verbatim — header with its original CRC plus payload — so a
  // corruption that slipped past a disabled scrub still fails verification at the new
  // address instead of being laundered by a recomputed checksum.
  dst.header = src.header;
  dst.data = src.data;

  if (fault_.DrawCorrupt()) {
    FlipStoredBit(dst_paddr);
    ++stats_.pages_corrupted;
    if (trace_ != nullptr) {
      trace_->Record(TraceEventType::kFaultInjected, issue_ns, issue_ns,
                     kFaultKindCorrupt, dst_paddr, fault_.ops());
    }
  }

  ++stats_.pages_programmed;
  stats_.bytes_programmed += config_.page_size_bytes;
  ++stats_.copyback_pages;

  NandOp op;
  if (on_die) {
    // The move never leaves the die: one channel occupancy covering sense + program,
    // zero bus time.
    op = Occupy(src_chan, issue_ns, 0, config_.read_ns + config_.program_ns);
  } else {
    // Cross-channel fallback: an internal read on the source channel chained into a
    // program on the destination channel. Reported as one combined op; because the
    // program is issued exactly at the read's finish, summing the two legs' spans
    // preserves the chan_wait+bus_wait+bus+cell == finish-issue invariant bit-exactly.
    ++stats_.copyback_fallbacks;
    const NandOp read_op = Occupy(src_chan, issue_ns, leg_bus_ns, config_.read_ns);
    const NandOp prog_op =
        Occupy(dst_chan, read_op.finish_ns, leg_bus_ns, config_.program_ns);
    op.issue_ns = issue_ns;
    op.finish_ns = prog_op.finish_ns;
    op.chan_wait_ns = read_op.chan_wait_ns + prog_op.chan_wait_ns;
    op.bus_wait_ns = read_op.bus_wait_ns + prog_op.bus_wait_ns;
    op.bus_ns = read_op.bus_ns + prog_op.bus_ns;
    op.cell_ns = read_op.cell_ns + prog_op.cell_ns;
    op.bg_wait_ns = read_op.bg_wait_ns + prog_op.bg_wait_ns;
  }
  if (trace_ != nullptr) {
    trace_->Record(TraceEventType::kNandCopyback, op.issue_ns, op.finish_ns, src_paddr,
                   dst_paddr, on_die ? 1 : 0);
  }
  if (paddr_out != nullptr) {
    *paddr_out = dst_paddr;
  }
  return op;
}

Status NandDevice::CopybackBatch(std::span<const uint64_t> src_paddrs,
                                 uint64_t dst_segment, uint64_t issue_ns,
                                 std::vector<uint64_t>* paddrs_out,
                                 std::vector<NandOp>* ops_out) {
  if (dst_segment >= config_.num_segments) {
    return OutOfRange("copyback-batch: segment " + std::to_string(dst_segment) +
                      " out of range");
  }
  const SegmentState& seg = segments_[dst_segment];
  if (seg.bad) {
    return DataLoss("copyback-batch: segment " + std::to_string(dst_segment) +
                    " is a grown bad block");
  }
  if (!seg.erased) {
    return FailedPrecondition("copyback-batch: segment " + std::to_string(dst_segment) +
                              " was never erased");
  }
  if (seg.next_page + src_paddrs.size() > config_.pages_per_segment) {
    return ResourceExhausted("copyback-batch: batch of " +
                             std::to_string(src_paddrs.size()) + " overflows segment " +
                             std::to_string(dst_segment));
  }
  for (uint64_t src_paddr : src_paddrs) {
    if (src_paddr >= config_.TotalPages()) {
      return OutOfRange("copyback-batch: src paddr out of range");
    }
    if (!pages_[src_paddr].programmed) {
      return FailedPrecondition("copyback-batch: page " + std::to_string(src_paddr) +
                                " is not programmed");
    }
  }

  if (paddrs_out != nullptr) {
    paddrs_out->reserve(paddrs_out->size() + src_paddrs.size());
  }
  if (ops_out != nullptr) {
    ops_out->reserve(ops_out->size() + src_paddrs.size());
  }
  for (uint64_t src_paddr : src_paddrs) {
    uint64_t dst_paddr = 0;
    StatusOr<NandOp> op = CopybackCommit(src_paddr, dst_segment, issue_ns, &dst_paddr);
    if (!op.ok()) {
      // Torn batch: the committed prefix stays in the out-vectors.
      return op.status();
    }
    if (paddrs_out != nullptr) {
      paddrs_out->push_back(dst_paddr);
    }
    if (ops_out != nullptr) {
      ops_out->push_back(*op);
    }
  }
  return OkStatus();
}

StatusOr<NandOp> NandDevice::ReadPageWithRetry(uint64_t paddr, uint64_t issue_ns,
                                               PageHeader* header_out,
                                               std::vector<uint8_t>* data_out,
                                               uint32_t max_attempts) {
  if (max_attempts == 0) {
    max_attempts = 1;
  }
  StatusOr<NandOp> result = ReadPage(paddr, issue_ns, header_out, data_out);
  for (uint32_t attempt = 1; attempt < max_attempts; ++attempt) {
    if (result.ok() || result.status().code() != StatusCode::kUnavailable) {
      break;  // Success, or a permanent error retries cannot fix.
    }
    ++stats_.read_retries;
    if (trace_ != nullptr) {
      trace_->Record(TraceEventType::kReadRetry, issue_ns, issue_ns, paddr, attempt);
    }
    result = ReadPage(paddr, issue_ns, header_out, data_out);
  }
  return result;
}

StatusOr<NandOp> NandDevice::ReadHeader(uint64_t paddr, uint64_t issue_ns,
                                        PageHeader* header_out) {
  if (paddr >= config_.TotalPages()) {
    return OutOfRange("read-header: paddr out of range");
  }
  const PageState& page = pages_[paddr];
  if (!page.programmed) {
    return FailedPrecondition("read-header: page not programmed");
  }
  RETURN_IF_ERROR(fault_.BeginOp());
  if (fault_.DrawReadFail()) {
    ++stats_.read_failures;
    Occupy(ChannelOfPage(paddr), issue_ns, 0, config_.read_ns);
    if (trace_ != nullptr) {
      trace_->Record(TraceEventType::kFaultInjected, issue_ns, issue_ns, kFaultKindRead,
                     paddr, fault_.ops());
    }
    return Unavailable("read-header: transient failure at paddr " + std::to_string(paddr));
  }
  if (!PageCrcOk(page)) {
    ++stats_.crc_errors;
    Occupy(ChannelOfPage(paddr), issue_ns, 0, config_.read_ns);
    return DataLoss("read-header: CRC mismatch at paddr " + std::to_string(paddr));
  }
  if (header_out != nullptr) {
    *header_out = page.header;
  }
  ++stats_.headers_scanned;

  // A single OOB read still pays a cell sense but no page-size bus transfer.
  return Occupy(ChannelOfPage(paddr), issue_ns, 0, config_.read_ns);
}

StatusOr<NandOp> NandDevice::ScanSegmentHeaders(
    uint64_t segment, uint64_t issue_ns, std::vector<std::pair<uint64_t, PageHeader>>* out) {
  if (segment >= config_.num_segments) {
    return OutOfRange("scan: segment out of range");
  }
  RETURN_IF_ERROR(fault_.BeginOp());
  const SegmentState& seg = segments_[segment];
  const uint64_t first = FirstPageOf(segment);
  uint64_t scanned = 0;
  for (uint64_t i = 0; i < seg.next_page; ++i) {
    const PageState& page = pages_[first + i];
    if (!page.programmed) {
      continue;
    }
    ++scanned;
    if (!PageCrcOk(page)) {
      // Torn or corrupted page: the scan read it (time is charged) but drops it, so
      // recovery and activation never see a record that fails its checksum.
      ++stats_.crc_errors;
      continue;
    }
    if (out != nullptr) {
      out->emplace_back(first + i, page.header);
    }
  }
  stats_.headers_scanned += scanned;

  return Occupy(ChannelOfSegment(segment), issue_ns, 0,
                scanned * config_.header_scan_ns_per_page);
}

StatusOr<NandOp> NandDevice::EraseSegment(uint64_t segment, uint64_t issue_ns) {
  if (segment >= config_.num_segments) {
    return OutOfRange("erase: segment out of range");
  }
  SegmentState& seg = segments_[segment];
  if (seg.bad) {
    return DataLoss("erase: segment " + std::to_string(segment) +
                    " is a grown bad block");
  }
  RETURN_IF_ERROR(fault_.BeginOp());
  if (seg.erase_count >= config_.max_erase_count) {
    // Worn out: the block can no longer hold charge reliably; retire it.
    MarkBad(segment);
    ++stats_.erase_failures;
    return ResourceExhausted("erase: segment " + std::to_string(segment) + " is worn out");
  }
  if (fault_.EraseScheduledToFail(segment, seg.erase_count + 1) || fault_.DrawEraseFail()) {
    // Grown bad block: the erase fails and the pages keep their old contents.
    MarkBad(segment);
    ++stats_.erase_failures;
    Occupy(ChannelOfSegment(segment), issue_ns, 0, config_.erase_ns);
    if (trace_ != nullptr) {
      trace_->Record(TraceEventType::kFaultInjected, issue_ns, issue_ns, kFaultKindErase,
                     segment, fault_.ops());
    }
    return DataLoss("erase: injected failure in segment " + std::to_string(segment));
  }

  const uint64_t first = FirstPageOf(segment);
  for (uint64_t i = 0; i < config_.pages_per_segment; ++i) {
    PageState& page = pages_[first + i];
    page.programmed = false;
    page.data.clear();
    page.header = PageHeader{};
    page.programmed_at_ns = 0;
  }
  seg.erased = true;
  seg.next_page = 0;
  // Erase resets both wear-model terms: a fresh block carries no read disturb and
  // its pages restart their retention clocks at the next program.
  seg.read_count = 0;
  ++seg.erase_count;
  max_erase_count_ = std::max(max_erase_count_, seg.erase_count);
  ++stats_.segments_erased;

  const NandOp op = Occupy(ChannelOfSegment(segment), issue_ns, 0, config_.erase_ns);
  if (trace_ != nullptr) {
    trace_->Record(TraceEventType::kNandErase, op.issue_ns, op.finish_ns, segment,
                   seg.erase_count);
  }
  return op;
}

void NandDevice::ApplyReadWear(uint64_t paddr, uint64_t now_ns) {
  SegmentState& seg = segments_[SegmentOf(paddr)];
  // The counter advances unconditionally (pure state, no RNG), so enabling the
  // knobs mid-run sees the true accumulated read traffic.
  ++seg.read_count;
  const FaultConfig& fc = fault_.config();
  if (fc.read_disturb_ppm_per_k_reads == 0 && fc.retention_ppm_per_sec == 0) {
    return;
  }
  PageState& page = pages_[paddr];
  if (!page.programmed) {
    return;
  }
  if (fc.read_disturb_ppm_per_k_reads != 0) {
    const uint64_t effective_ppm =
        fc.read_disturb_ppm_per_k_reads * (seg.read_count / 1000);
    if (fault_.DrawWear(effective_ppm)) {
      FlipStoredBit(paddr);
      ++stats_.read_disturb_corruptions;
      if (trace_ != nullptr) {
        trace_->Record(TraceEventType::kFaultInjected, now_ns, now_ns,
                       kFaultKindReadDisturb, paddr, seg.read_count);
      }
    }
  }
  if (fc.retention_ppm_per_sec != 0) {
    const uint64_t age_sec =
        (now_ns > page.programmed_at_ns ? now_ns - page.programmed_at_ns : 0) /
        1000000000ull;
    const uint64_t effective_ppm = fc.retention_ppm_per_sec * age_sec;
    if (fault_.DrawWear(effective_ppm)) {
      FlipStoredBit(paddr);
      ++stats_.retention_corruptions;
      if (trace_ != nullptr) {
        trace_->Record(TraceEventType::kFaultInjected, now_ns, now_ns,
                       kFaultKindRetention, paddr, age_sec);
      }
    }
  }
}

void NandDevice::MarkBad(uint64_t segment) {
  SegmentState& seg = segments_[segment];
  if (seg.bad) {
    return;
  }
  seg.bad = true;
  if (seg.erase_count >= max_erase_count_) {
    // The retired block may have been holding the maximum; re-derive it over the
    // usable segments only so wear-leveling never anchors on an unusable block.
    max_erase_count_ = 0;
    for (const SegmentState& other : segments_) {
      if (!other.bad) {
        max_erase_count_ = std::max(max_erase_count_, other.erase_count);
      }
    }
  }
}

bool NandDevice::PageCrcOk(const PageState& page) const {
  return page.header.crc == ComputePageCrc(page.header, page.data);
}

void NandDevice::FlipStoredBit(uint64_t paddr) {
  PageState& page = pages_[paddr];
  if (!page.data.empty()) {
    const uint64_t bit = fault_.PickBit(page.data.size() * 8);
    page.data[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  } else {
    // Header-only page: corrupt an OOB field instead.
    page.header.lba ^= uint64_t{1} << fault_.PickBit(48);
  }
}

void NandDevice::CorruptPageForTesting(uint64_t paddr) {
  IOSNAP_CHECK(paddr < config_.TotalPages());
  IOSNAP_CHECK(pages_[paddr].programmed);
  FlipStoredBit(paddr);
  ++stats_.pages_corrupted;
}

bool NandDevice::IsBadSegment(uint64_t segment) const {
  IOSNAP_CHECK(segment < config_.num_segments);
  return segments_[segment].bad;
}

bool NandDevice::PageCrcIntact(uint64_t paddr) const {
  IOSNAP_CHECK(paddr < config_.TotalPages());
  IOSNAP_CHECK(pages_[paddr].programmed);
  return PageCrcOk(pages_[paddr]);
}

bool NandDevice::IsProgrammed(uint64_t paddr) const {
  IOSNAP_CHECK(paddr < config_.TotalPages());
  return pages_[paddr].programmed;
}

const PageHeader& NandDevice::PeekHeader(uint64_t paddr) const {
  IOSNAP_CHECK(paddr < config_.TotalPages());
  IOSNAP_CHECK(pages_[paddr].programmed);
  return pages_[paddr].header;
}

std::span<const uint8_t> NandDevice::PeekPageData(uint64_t paddr) const {
  IOSNAP_CHECK(paddr < config_.TotalPages());
  IOSNAP_CHECK(pages_[paddr].programmed);
  return pages_[paddr].data;
}

uint64_t NandDevice::MaxPayloadBytes(RecordType type) const {
  return config_.page_size_bytes +
         (type == RecordType::kParity ? kParityImagePrefixBytes : 0);
}

uint64_t NandDevice::ProgrammedPages(uint64_t segment) const {
  IOSNAP_CHECK(segment < config_.num_segments);
  const uint64_t first = FirstPageOf(segment);
  uint64_t count = 0;
  for (uint64_t i = 0; i < segments_[segment].next_page; ++i) {
    if (pages_[first + i].programmed) {
      ++count;
    }
  }
  return count;
}

uint64_t NandDevice::NextFreePage(uint64_t segment) const {
  IOSNAP_CHECK(segment < config_.num_segments);
  return segments_[segment].next_page;
}

bool NandDevice::SegmentErased(uint64_t segment) const {
  IOSNAP_CHECK(segment < config_.num_segments);
  return segments_[segment].erased;
}

uint64_t NandDevice::EraseCount(uint64_t segment) const {
  IOSNAP_CHECK(segment < config_.num_segments);
  return segments_[segment].erase_count;
}

uint64_t NandDevice::SegmentReadCount(uint64_t segment) const {
  IOSNAP_CHECK(segment < config_.num_segments);
  return segments_[segment].read_count;
}

uint64_t NandDevice::PageProgrammedAtNs(uint64_t paddr) const {
  IOSNAP_CHECK(paddr < config_.TotalPages());
  return pages_[paddr].programmed_at_ns;
}

NandDevice::PageInspection NandDevice::InspectPage(uint64_t paddr) const {
  IOSNAP_CHECK(paddr < config_.TotalPages());
  const PageState& page = pages_[paddr];
  PageInspection out;
  out.programmed = page.programmed;
  if (page.programmed) {
    out.crc_ok = PageCrcOk(page);
    out.header = page.header;
  }
  return out;
}

uint64_t NandDevice::DrainTimeNs() const {
  uint64_t t = 0;
  for (uint64_t busy : bus_busy_until_) {
    t = std::max(t, busy);
  }
  for (uint64_t busy : channel_busy_until_) {
    t = std::max(t, busy);
  }
  return t;
}

double NandDevice::BusBusyFrac(uint32_t bus) const {
  IOSNAP_CHECK(bus < bus_active_ns_.size());
  const uint64_t span = DrainTimeNs();
  if (span == 0) {
    return 0.0;
  }
  return static_cast<double>(bus_active_ns_[bus]) / static_cast<double>(span);
}

}  // namespace iosnap
