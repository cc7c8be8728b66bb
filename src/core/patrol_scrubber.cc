#include "src/core/patrol_scrubber.h"

#include <optional>
#include <utility>
#include <vector>

#include "src/core/ftl.h"

namespace iosnap {

PatrolScrubber::PatrolScrubber(Ftl* ftl) : ftl_(ftl) {}

bool PatrolScrubber::NeedsRefresh(uint64_t paddr, uint64_t now_ns) const {
  const FtlConfig& cfg = ftl_->config_;
  if (cfg.patrol_refresh_reads > 0 &&
      ftl_->device_->SegmentReadCount(ftl_->device_->SegmentOf(paddr)) >=
          cfg.patrol_refresh_reads) {
    return true;
  }
  if (cfg.patrol_refresh_age_ms > 0) {
    const uint64_t programmed = ftl_->device_->PageProgrammedAtNs(paddr);
    const uint64_t age_ns = now_ns > programmed ? now_ns - programmed : 0;
    if (age_ns >= cfg.patrol_refresh_age_ms * 1000000ull) {
      return true;
    }
  }
  return false;
}

StatusOr<uint64_t> PatrolScrubber::RebuildOrDrop(uint64_t paddr, uint64_t now_ns,
                                                 bool* segment_dirty) {
  // The corrupt original is expunged only when its segment is erased.
  *segment_dirty = true;
  ASSIGN_OR_RETURN(const Ftl::Salvage salvage, ftl_->SalvagePage(paddr, now_ns));
  if (salvage.was_live) {
    ++ftl_->stats_.patrol_pages_dropped;
    if (ftl_->trace_ != nullptr) {
      ftl_->trace_->Record(TraceEventType::kPatrolDrop, now_ns, now_ns,
                           ftl_->device_->InspectPage(paddr).header.lba, paddr);
    }
  }
  return salvage.finish_ns;
}

StatusOr<uint64_t> PatrolScrubber::RewritePage(uint64_t paddr, uint64_t now_ns,
                                               bool* segment_dirty) {
  PageHeader header;
  std::vector<uint8_t> data;
  StatusOr<NandOp> read = ftl_->device_->ReadPageWithRetry(
      paddr, now_ns, &header, &data, ftl_->config_.read_retry_limit);
  if (!read.ok()) {
    if (read.status().code() == StatusCode::kDataLoss) {
      // The full read found what the header scan could not fix: the page is corrupt
      // (possibly disturbed by this very sense).
      return RebuildOrDrop(paddr, now_ns, segment_dirty);
    }
    if (read.status().code() == StatusCode::kUnavailable) {
      return now_ns;  // Retries exhausted this burst; the next sweep tries again.
    }
    return read.status();
  }

  // Re-append through the GC head, preserving the record's (lba, epoch, seq) identity —
  // the same contract as a cleaner copy-forward, so recovery and activations still
  // attribute the page correctly.
  ASSIGN_OR_RETURN(AppendResult ar,
                   ftl_->log_.Append(LogManager::kGcHead, header, data, read->finish_ns));
  ftl_->MovePage(header.lba, paddr, ar.paddr, now_ns);

  ++ftl_->stats_.patrol_pages_rewritten;
  ++ftl_->stats_.total_pages_programmed;
  if (ftl_->trace_ != nullptr) {
    ftl_->trace_->Record(TraceEventType::kPatrolRewrite, now_ns, ar.op.finish_ns,
                         header.lba, paddr, ar.paddr);
  }
  return ar.op.finish_ns;
}

StatusOr<uint64_t> PatrolScrubber::ScanPage(uint64_t paddr, uint64_t now_ns,
                                            bool* segment_dirty) {
  ++ftl_->stats_.patrol_pages_scanned;
  PageHeader header;
  StatusOr<NandOp> verify = ftl_->device_->ReadHeader(paddr, now_ns, &header);
  if (verify.ok()) {
    if (header.type == RecordType::kData && ftl_->validity_.MergedTest(paddr) &&
        NeedsRefresh(paddr, now_ns)) {
      return RewritePage(paddr, verify->finish_ns, segment_dirty);
    }
    return verify->finish_ns;
  }
  const StatusCode code = verify.status().code();
  if (code == StatusCode::kUnavailable) {
    // The page needed a retry to come back at all — the classic preemptive-refresh
    // trigger. Rewrite it now if anything still references it.
    if (ftl_->validity_.MergedTest(paddr)) {
      return RewritePage(paddr, now_ns, segment_dirty);
    }
    return now_ns;
  }
  if (code == StatusCode::kDataLoss) {
    return RebuildOrDrop(paddr, now_ns, segment_dirty);
  }
  return verify.status();
}

StatusOr<uint64_t> PatrolScrubber::Step(uint64_t now_ns, uint64_t max_pages) {
  const uint64_t num_segments = ftl_->config_.nand.num_segments;
  const uint64_t pages_per_segment = ftl_->config_.nand.pages_per_segment;
  if (max_pages == 0 || num_segments == 0) {
    return now_ns;
  }
  // Everything below is media-maintenance traffic: charge it to the background
  // horizons so foreground ops attribute patrol interference as bg_wait_ns.
  NandDevice::BackgroundScope bg(ftl_->device_.get());

  uint64_t t = now_ns;
  uint64_t scanned = 0;
  uint64_t segments_visited = 0;
  while (scanned < max_pages && segments_visited <= num_segments) {
    if (ftl_->log_.segment_info(cursor_segment_).state != SegmentState::kClosed) {
      // Open heads, free, and retired segments are not patrolled (open segments are
      // too young to have decayed; retired ones cannot be erased anyway).
      segment_dirty_ = false;
      cursor_page_ = 0;
      ++segments_visited;
      if (++cursor_segment_ == num_segments) {
        cursor_segment_ = 0;
        ++ftl_->stats_.patrol_sweeps;
      }
      continue;
    }
    const uint64_t scan_end = ftl_->device_->NextFreePage(cursor_segment_);
    while (cursor_page_ < scan_end && scanned < max_pages) {
      const uint64_t paddr = cursor_segment_ * pages_per_segment + cursor_page_;
      ++cursor_page_;
      if (!ftl_->device_->InspectPage(paddr).programmed) {
        continue;
      }
      ++scanned;
      ASSIGN_OR_RETURN(t, ScanPage(paddr, t, &segment_dirty_));
    }
    if (cursor_page_ < scan_end) {
      break;  // Budget exhausted mid-segment; resume here next burst.
    }
    if (segment_dirty_) {
      // A CRC-failed page is expunged only when its segment is erased: evacuate the
      // survivors through the cleaner and release the segment.
      ASSIGN_OR_RETURN(t, ftl_->cleaner_->CleanSegmentBlocking(cursor_segment_, t));
      ++ftl_->stats_.patrol_segments_evacuated;
      segment_dirty_ = false;
    }
    cursor_page_ = 0;
    ++segments_visited;
    if (++cursor_segment_ == num_segments) {
      cursor_segment_ = 0;
      ++ftl_->stats_.patrol_sweeps;
    }
  }
  return t;
}

StatusOr<uint64_t> PatrolScrubber::ScrubAllBlocking(uint64_t now_ns) {
  cursor_segment_ = 0;
  cursor_page_ = 0;
  segment_dirty_ = false;
  const uint64_t sweeps_before = ftl_->stats_.patrol_sweeps;
  uint64_t t = now_ns;
  // The cursor advances monotonically every Step, so one wrap == full coverage.
  while (ftl_->stats_.patrol_sweeps == sweeps_before) {
    ASSIGN_OR_RETURN(t, Step(t, ftl_->config_.nand.pages_per_segment));
  }
  return t;
}

}  // namespace iosnap
