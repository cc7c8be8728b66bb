#include "src/nand/nand_device.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

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
      headers_(config.TotalPages()),
      programmed_(config.TotalPages()),
      programmed_at_ns_(config.TotalPages(), 0),
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
  IOSNAP_CHECK(ArenaOffsetsFit(config));
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
  const ProgramRequest request{header, data};
  RETURN_IF_ERROR(ValidateProgram(segment, std::span<const ProgramRequest>(&request, 1)));
  return ProgramCommit(segment, header, data, issue_ns, paddr_out);
}

Status NandDevice::ValidateProgram(uint64_t segment,
                                   std::span<const ProgramRequest> requests) const {
  if (segment >= config_.num_segments) {
    return OutOfRange("program: segment " + std::to_string(segment) + " out of range");
  }
  const SegmentState& seg = segments_[segment];
  if (seg.bad) {
    return DataLoss("program: segment " + std::to_string(segment) +
                    " is a grown bad block");
  }
  if (!seg.erased) {
    return FailedPrecondition("program: segment " + std::to_string(segment) +
                              " was never erased");
  }
  if (seg.next_page + requests.size() > config_.pages_per_segment) {
    return ResourceExhausted("program: " + std::to_string(requests.size()) +
                             " pages overflow segment " + std::to_string(segment));
  }
  for (const ProgramRequest& request : requests) {
    if (!request.data.empty() &&
        request.data.size() > MaxPayloadBytes(request.header.type)) {
      return InvalidArgument("program: payload larger than a page");
    }
  }
  return OkStatus();
}

StatusOr<NandOp> NandDevice::ProgramCommit(uint64_t segment, const PageHeader& header,
                                           std::span<const uint8_t> data, uint64_t issue_ns,
                                           uint64_t* paddr_out) {
  RETURN_IF_ERROR(fault_.BeginOp());
  SegmentState& seg = segments_[segment];
  const uint64_t slot = seg.next_page++;
  const uint64_t paddr = FirstPageOf(segment) + slot;

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

  IOSNAP_CHECK(!programmed_.Test(paddr));
  programmed_.Set(paddr);
  programmed_at_ns_[paddr] = issue_ns;
  // Metadata payloads (summaries, snapshot names, parity images) are always retained:
  // header-only benchmarking mode must still support restarts, note consolidation, and
  // stripe rebuilds.
  const bool keep_payload =
      (config_.store_data || PayloadAlwaysStored(header.type)) && !data.empty();
  if (keep_payload) {
    AppendPayload(seg, slot, data);
  }
  // The CRC covers the payload as actually stored, so header-only mode stays
  // self-consistent on read-back.
  headers_[paddr] = header;
  headers_[paddr].crc =
      ComputePageCrc(header, keep_payload ? data : std::span<const uint8_t>{});

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
  IOSNAP_CHECK(paddrs_out != nullptr && ops_out != nullptr);
  RETURN_IF_ERROR(ValidateProgram(segment, requests));

  paddrs_out->reserve(paddrs_out->size() + requests.size());
  ops_out->reserve(ops_out->size() + requests.size());
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
    paddrs_out->push_back(paddr);
    ops_out->push_back(*op);
  }
  return OkStatus();
}

StatusOr<NandOp> NandDevice::ReadPage(uint64_t paddr, uint64_t issue_ns,
                                      PageHeader* header_out, std::vector<uint8_t>* data_out) {
  if (paddr >= config_.TotalPages()) {
    return OutOfRange("read: paddr out of range");
  }
  if (!programmed_.Test(paddr)) {
    return FailedPrecondition("read: page " + std::to_string(paddr) + " is not programmed");
  }
  RETURN_IF_ERROR(fault_.BeginOp());
  // The sense itself wears the media: count it against the segment and roll the
  // state-dependent corruption dice before any verification below.
  ApplyReadWear(paddr, issue_ns);

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
  const std::span<const uint8_t> payload = StoredPayload(paddr);
  if (!PageCrcOk(paddr, payload)) {
    ++stats_.crc_errors;
    Occupy(ChannelOfPage(paddr), issue_ns, config_.bus_ns_per_page, config_.read_ns);
    return DataLoss("read: CRC mismatch at paddr " + std::to_string(paddr));
  }

  if (header_out != nullptr) {
    *header_out = headers_[paddr];
  }
  if (data_out != nullptr) {
    data_out->assign(payload.begin(), payload.end());
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
  if (!programmed_.Test(src_paddr)) {
    return FailedPrecondition("copyback: page " + std::to_string(src_paddr) +
                              " is not programmed");
  }
  // The destination takes a program's checks; the payload is already on the device.
  const ProgramRequest copy{};
  RETURN_IF_ERROR(ValidateProgram(dst_segment, std::span<const ProgramRequest>(&copy, 1)));
  SegmentState& seg = segments_[dst_segment];
  RETURN_IF_ERROR(fault_.BeginOp());
  const uint64_t dst_slot = seg.next_page;
  const uint64_t dst_paddr = FirstPageOf(dst_segment) + dst_slot;
  const uint32_t src_chan = ChannelOfPage(src_paddr);
  const uint32_t dst_chan = ChannelOfPage(dst_paddr);
  const bool on_die = src_chan == dst_chan;
  const uint64_t leg_bus_ns = on_die ? 0 : config_.bus_ns_per_page;
  // The move's occupancy, failed or not. On-die it never leaves the die: one channel
  // occupancy covering sense + program, zero bus time. Across channels it is an
  // internal read on the source channel chained into a program on the destination
  // channel, reported as one combined op; because the program is issued exactly at the
  // read's finish, summing the two legs' spans preserves the
  // chan_wait+bus_wait+bus+cell == finish-issue invariant bit-exactly.
  const auto occupy_move = [&]() {
    if (on_die) {
      return Occupy(src_chan, issue_ns, 0, config_.read_ns + config_.program_ns);
    }
    const NandOp read_op = Occupy(src_chan, issue_ns, leg_bus_ns, config_.read_ns);
    const NandOp prog_op =
        Occupy(dst_chan, read_op.finish_ns, leg_bus_ns, config_.program_ns);
    NandOp op;
    op.issue_ns = issue_ns;
    op.finish_ns = prog_op.finish_ns;
    op.chan_wait_ns = read_op.chan_wait_ns + prog_op.chan_wait_ns;
    op.bus_wait_ns = read_op.bus_wait_ns + prog_op.bus_wait_ns;
    op.bus_ns = read_op.bus_ns + prog_op.bus_ns;
    op.cell_ns = read_op.cell_ns + prog_op.cell_ns;
    op.bg_wait_ns = read_op.bg_wait_ns + prog_op.bg_wait_ns;
    return op;
  };

  // The internal source sense is still a data read: it disturbs the source segment.
  ApplyReadWear(src_paddr, issue_ns);
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
  if (config_.copyback_scrub && !PageCrcOk(src_paddr)) {
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
    occupy_move();
    if (trace_ != nullptr) {
      trace_->Record(TraceEventType::kFaultInjected, issue_ns, issue_ns,
                     kFaultKindProgram, dst_segment, fault_.ops());
    }
    return DataLoss("copyback: injected program failure in segment " +
                    std::to_string(dst_segment));
  }

  IOSNAP_CHECK(!programmed_.Test(dst_paddr));
  programmed_.Set(dst_paddr);
  programmed_at_ns_[dst_paddr] = issue_ns;
  // The stored bytes move verbatim — header with its original CRC plus payload — so a
  // corruption that slipped past a disabled scrub still fails verification at the new
  // address instead of being laundered by a recomputed checksum.
  headers_[dst_paddr] = headers_[src_paddr];
  std::span<const uint8_t> payload = StoredPayload(src_paddr);
  if (!payload.empty()) {
    // A source in the destination segment lives in the arena the append may move:
    // copy its bytes out first.
    std::vector<uint8_t> own_segment;
    if (SegmentOf(src_paddr) == dst_segment) {
      own_segment.assign(payload.begin(), payload.end());
      payload = own_segment;
    }
    AppendPayload(seg, dst_slot, payload);
  }

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

  if (!on_die) {
    ++stats_.copyback_fallbacks;
  }
  const NandOp op = occupy_move();
  if (trace_ != nullptr) {
    trace_->Record(TraceEventType::kNandCopyback, op.issue_ns, op.finish_ns, src_paddr,
                   dst_paddr, on_die ? 1 : 0);
  }
  if (paddr_out != nullptr) {
    *paddr_out = dst_paddr;
  }
  return op;
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
  if (!programmed_.Test(paddr)) {
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
  if (!PageCrcOk(paddr)) {
    ++stats_.crc_errors;
    Occupy(ChannelOfPage(paddr), issue_ns, 0, config_.read_ns);
    return DataLoss("read-header: CRC mismatch at paddr " + std::to_string(paddr));
  }
  if (header_out != nullptr) {
    *header_out = headers_[paddr];
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
    const uint64_t paddr = first + i;
    if (!programmed_.Test(paddr)) {
      continue;
    }
    ++scanned;
    if (!PageCrcOk(paddr, seg.Payload(i))) {
      // Torn or corrupted page: the scan read it (time is charged) but drops it, so
      // recovery and activation never see a record that fails its checksum.
      ++stats_.crc_errors;
      continue;
    }
    if (out != nullptr) {
      out->emplace_back(paddr, headers_[paddr]);
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

  // Slots at or past next_page were never programmed since the last erase.
  const uint64_t first = FirstPageOf(segment);
  for (uint64_t paddr = first; paddr < first + seg.next_page; ++paddr) {
    programmed_.Clear(paddr);
    headers_[paddr] = PageHeader{};
    programmed_at_ns_[paddr] = 0;
  }
  seg.payload.clear();
  seg.payload_end.clear();
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
  if (!programmed_.Test(paddr)) {
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
    const uint64_t programmed_at = programmed_at_ns_[paddr];
    const uint64_t age_sec =
        (now_ns > programmed_at ? now_ns - programmed_at : 0) / 1000000000ull;
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

void NandDevice::AppendPayload(SegmentState& seg, uint64_t slot,
                               std::span<const uint8_t> bytes) {
  std::vector<uint8_t>& arena = seg.payload;
  const uint64_t need = arena.size() + bytes.size();
  if (need > arena.capacity()) {
    // Double as vector would, but never past the most this segment can hold, so a
    // full segment of parity-striped pages does not strand a second arena's worth.
    const uint64_t most = config_.pages_per_segment * MaxPayloadBytes(RecordType::kParity);
    arena.reserve(std::min<uint64_t>(std::max<uint64_t>(2 * arena.capacity(), need), most));
  }
  seg.payload_end.resize(slot, static_cast<uint32_t>(arena.size()));
  arena.insert(arena.end(), bytes.begin(), bytes.end());
  seg.payload_end.push_back(static_cast<uint32_t>(arena.size()));
}

void NandDevice::FlipStoredBit(uint64_t paddr) {
  SegmentState& seg = segments_[SegmentOf(paddr)];
  const auto [begin, end] = seg.PayloadRange(PageInSegment(paddr));
  if (begin != end) {
    const uint64_t bit = fault_.PickBit(uint64_t{end - begin} * 8);
    seg.payload[begin + bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  } else {
    // Header-only page: corrupt an OOB field instead.
    headers_[paddr].lba ^= uint64_t{1} << fault_.PickBit(48);
  }
}

void NandDevice::CorruptPageForTesting(uint64_t paddr) {
  IOSNAP_CHECK(paddr < config_.TotalPages());
  IOSNAP_CHECK(programmed_.Test(paddr));
  FlipStoredBit(paddr);
  ++stats_.pages_corrupted;
}

bool NandDevice::IsBadSegment(uint64_t segment) const {
  IOSNAP_CHECK(segment < config_.num_segments);
  return segments_[segment].bad;
}

bool NandDevice::PageCrcIntact(uint64_t paddr) const {
  IOSNAP_CHECK(paddr < config_.TotalPages());
  IOSNAP_CHECK(programmed_.Test(paddr));
  return PageCrcOk(paddr);
}

bool NandDevice::IsProgrammed(uint64_t paddr) const {
  IOSNAP_CHECK(paddr < config_.TotalPages());
  return programmed_.Test(paddr);
}

const PageHeader& NandDevice::PeekHeader(uint64_t paddr) const {
  IOSNAP_CHECK(paddr < config_.TotalPages());
  IOSNAP_CHECK(programmed_.Test(paddr));
  return headers_[paddr];
}

std::span<const uint8_t> NandDevice::PeekPageData(uint64_t paddr) const {
  IOSNAP_CHECK(paddr < config_.TotalPages());
  IOSNAP_CHECK(programmed_.Test(paddr));
  return StoredPayload(paddr);
}

uint64_t NandDevice::MaxPayloadBytes(RecordType type) const {
  return config_.page_size_bytes +
         (type == RecordType::kParity ? kParityImagePrefixBytes : 0);
}

Status NandDevice::ValidateGeometry(const NandConfig& config) {
  // Unprogrammed pages take no image bytes, so the total page count needs a fixed cap:
  // 2^24 pages (64 GiB of 4 KiB pages) is 16x the largest device the benches
  // configure. Channel and bus counts size per-channel arrays.
  constexpr uint64_t kMaxPages = uint64_t{1} << 24;
  constexpr uint32_t kMaxChannels = 1 << 16;
  const std::pair<const char*, uint64_t> dimensions[] = {
      {"page_size_bytes", config.page_size_bytes},
      {"pages_per_segment", config.pages_per_segment},
      {"num_segments", config.num_segments},
      {"num_channels", config.num_channels},
      {"buses", config.buses}};
  for (const auto& [name, value] : dimensions) {
    if (value == 0) {
      return InvalidArgument(std::string("degenerate geometry: ") + name + " is 0");
    }
  }
  if (config.pages_per_segment > kMaxPages / config.num_segments) {
    return InvalidArgument("page count exceeds " + std::to_string(kMaxPages));
  }
  if (config.num_channels > kMaxChannels || config.buses > kMaxChannels) {
    return InvalidArgument("channel or bus count exceeds " + std::to_string(kMaxChannels));
  }
  if (!ArenaOffsetsFit(config)) {
    return InvalidArgument("a segment could hold 4 GiB of payload");
  }
  return OkStatus();
}

bool NandDevice::ArenaOffsetsFit(const NandConfig& config) {
  constexpr uint64_t kMaxArenaBytes = std::numeric_limits<uint32_t>::max();
  return config.page_size_bytes < kMaxArenaBytes &&
         config.pages_per_segment <=
             kMaxArenaBytes / (config.page_size_bytes + kParityImagePrefixBytes);
}

uint64_t NandDevice::ProgrammedPages(uint64_t segment) const {
  IOSNAP_CHECK(segment < config_.num_segments);
  const uint64_t first = FirstPageOf(segment);
  return programmed_.CountOnesInRange(first, first + segments_[segment].next_page);
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
  return programmed_at_ns_[paddr];
}

NandDevice::PageInspection NandDevice::InspectPage(uint64_t paddr) const {
  IOSNAP_CHECK(paddr < config_.TotalPages());
  PageInspection out;
  out.programmed = programmed_.Test(paddr);
  if (out.programmed) {
    out.crc_ok = PageCrcOk(paddr);
    out.header = headers_[paddr];
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
