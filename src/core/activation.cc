#include "src/core/activation.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/core/ftl.h"

namespace iosnap {

ActivationTask::ActivationTask(Ftl* ftl, uint32_t view_id, uint32_t filter_epoch,
                               RateLimit limit, uint64_t start_ns)
    : ftl_(ftl), view_id_(view_id), filter_epoch_(filter_epoch), limiter_(limit) {
  IOSNAP_CHECK(ftl != nullptr);
  limiter_.SetTraceRecorder(ftl_->trace_);
  // First burst may not start before the activate note hit the log.
  limiter_.OnBurstComplete(start_ns > limit.sleep_ns ? start_ns - limit.sleep_ns : 0);
  lineage_ = ftl_->tree_.Lineage(filter_epoch_);
  // The frozen bitmap already knows how many entries the scan will collect (one per
  // valid page); size the buffer once instead of growing it across segments.
  uint64_t expected = 0;
  for (uint64_t r = 0; r < ftl_->validity_.NumRanges(); ++r) {
    expected += ftl_->validity_.EpochValidCount(filter_epoch_, r);
  }
  entries_.reserve(expected);
}

StatusOr<uint64_t> ActivationTask::ScanOneSegment(uint64_t now_ns) {
  const uint64_t seg = next_segment_;
  ++next_segment_;

  const SegmentInfo& info = ftl_->log_.segment_info(seg);
  if (info.state == SegmentState::kFree) {
    return now_ns;  // Nothing programmed.
  }

  if (ftl_->config_.activation_segment_index) {
    // Extension (ablation A3): the per-segment epoch summary proves some segments hold no
    // data from this snapshot's lineage; they need not be read at all.
    bool may_hold_lineage_data = false;
    for (uint32_t epoch : lineage_) {
      if (info.epoch_pages.contains(epoch)) {
        may_hold_lineage_data = true;
        break;
      }
    }
    if (!may_hold_lineage_data) {
      ++ftl_->stats_.activation_segments_skipped;
      return now_ns;
    }
  }

  std::vector<std::pair<uint64_t, PageHeader>> headers;
  // Activation scans are background device traffic for latency attribution.
  NandDevice::BackgroundScope bg(ftl_->device_.get());
  ASSIGN_OR_RETURN(NandOp op, ftl_->device_->ScanSegmentHeaders(seg, now_ns, &headers));
  ++ftl_->stats_.activation_segments_scanned;
  // The scan walks the segment in paddr order, so a chunk-caching cursor resolves the
  // filter epoch's chunk once per chunk instead of once per page. No validity mutation
  // can interleave within this scan, so the cursor's cached chunk stays valid.
  ValidityMap::EpochReader reader(ftl_->validity_, filter_epoch_);
  for (const auto& [paddr, header] : headers) {
    if (header.type != RecordType::kData) {
      continue;
    }
    // The snapshot's frozen validity bitmap is the exact membership test (§5.6): one
    // valid physical page per LBA, wherever the cleaner may have moved it.
    if (reader.Test(paddr)) {
      if (entries_.size() == entries_.capacity()) {
        // The cleaner moved a collected page into a segment not yet scanned, so the
        // scan meets it twice. Before growing, drop the entries whose page is no longer
        // valid (BuildMap would drop them anyway): the valid ones fit the reserve.
        std::erase_if(entries_, [this](const std::pair<uint64_t, uint64_t>& e) {
          return !ftl_->validity_.Test(filter_epoch_, e.second);
        });
      }
      entries_.emplace_back(header.lba, paddr);
    }
  }
  return op.finish_ns;
}

uint64_t ActivationTask::BuildMap(uint64_t now_ns) {
  // Emergency cleaning may have relocated blocks while the scan was in flight. The
  // snapshot's frozen validity bitmap only ever changes through such moves, so it is the
  // authority: drop collected entries whose page is no longer the valid copy, and apply
  // the cleaner's relocation journal (which covers moves into already-scanned segments).
  std::erase_if(entries_, [this](const std::pair<uint64_t, uint64_t>& e) {
    return !ftl_->validity_.Test(filter_epoch_, e.second);
  });
  // The scan collects in paddr order, so within each LBA the (lba, paddr) order is the
  // scan order.
  std::sort(entries_.begin(), entries_.end());
  if (!ftl_->gc_relocations_.empty()) {
    ApplyRelocations();
  }
  for (size_t i = 1; i < entries_.size(); ++i) {
    IOSNAP_CHECK(entries_[i].first != entries_[i - 1].first);
  }
  const uint64_t host_ns = entries_.size() * kHostBuildNsPerEntry;

  Ftl::View* view = ftl_->FindView(view_id_);
  IOSNAP_CHECK(view != nullptr);
  view->map = BPlusTree::BulkLoad(entries_);
  view->ready = true;
  ftl_->stats_.activation_entries += entries_.size();
  entries_.clear();
  entries_.shrink_to_fit();
  return now_ns + host_ns;
}

void ActivationTask::ApplyRelocations() {
  using Entry = std::pair<uint64_t, uint64_t>;
  const auto by_lba = [](const Entry& a, const Entry& b) { return a.first < b.first; };
  const auto same_lba = [](const Entry& a, const Entry& b) { return a.first == b.first; };
  // A page the cleaner moved away from a scanned address, whose segment was then reused
  // for another page of the snapshot, leaves a stale entry that still passes the
  // validity test: its LBA can appear twice. The first one scanned stands, and the
  // journal, which holds every move made during the scan, overrides it below.
  entries_.erase(std::unique(entries_.begin(), entries_.end(), same_lba), entries_.end());
  // (lba, journal index) of every move whose new page is still the valid copy. Journal
  // order is time order, so once sorted, each LBA's last move is the one that wins: the
  // order a stable sort by LBA gives, without its temporary buffer. A collected LBA
  // takes that move in place; the other LBAs' moves are packed to the front.
  const std::vector<Entry>& journal = ftl_->gc_relocations_;
  std::vector<std::pair<uint64_t, size_t>> moves;
  for (size_t j = 0; j < journal.size(); ++j) {
    if (ftl_->validity_.Test(filter_epoch_, journal[j].second)) {
      moves.emplace_back(journal[j].first, j);
    }
  }
  std::sort(moves.begin(), moves.end());
  size_t extra = 0;
  for (size_t i = 0; i < moves.size(); ++i) {
    if (i + 1 < moves.size() && moves[i + 1].first == moves[i].first) {
      continue;
    }
    const Entry& move = journal[moves[i].second];
    auto it = std::lower_bound(entries_.begin(), entries_.end(), move, by_lba);
    if (it != entries_.end() && it->first == move.first) {
      it->second = move.second;
    } else {
      moves[extra++] = moves[i];
    }
  }
  // Merge the new LBAs in from the back, in place: the entries do not outnumber the
  // snapshot's valid pages, which the constructor reserved room for.
  size_t old_end = entries_.size();
  entries_.resize(old_end + extra);
  for (size_t out = entries_.size(); extra > 0;) {
    if (old_end > 0 && entries_[old_end - 1].first > moves[extra - 1].first) {
      entries_[--out] = entries_[--old_end];
    } else {
      entries_[--out] = journal[moves[--extra].second];
    }
  }
}

StatusOr<uint64_t> ActivationTask::Burst(uint64_t now_ns) {
  const uint64_t quantum = limiter_.limit().work_quantum_ns;
  const uint64_t first_segment = next_segment_;
  uint64_t t = now_ns;
  while (phase_ == Phase::kScan && t - now_ns < quantum) {
    if (next_segment_ >= ftl_->config_.nand.num_segments) {
      phase_ = Phase::kBuild;
      break;
    }
    ASSIGN_OR_RETURN(t, ScanOneSegment(t));
  }
  if (ftl_->trace_ != nullptr && next_segment_ > first_segment) {
    ftl_->trace_->Record(TraceEventType::kActivationBurst, now_ns, t, view_id_,
                         first_segment, next_segment_ - first_segment);
  }
  if (phase_ == Phase::kBuild) {
    const uint64_t build_start = t;
    const size_t entry_count = entries_.size();
    t = BuildMap(t);
    phase_ = Phase::kDone;
    finish_ns_ = t;
    if (ftl_->trace_ != nullptr) {
      ftl_->trace_->Record(TraceEventType::kActivateEnd, build_start, t, view_id_,
                           entry_count);
    }
  }
  return t;
}

StatusOr<uint64_t> ActivationTask::Pump(uint64_t now_ns) {
  uint64_t t = now_ns;
  while (!done() && limiter_.CanRun(now_ns)) {
    const uint64_t burst_start = std::max(now_ns, limiter_.NextAllowedNs());
    ASSIGN_OR_RETURN(t, Burst(burst_start));
    limiter_.OnBurstComplete(t);
    if (limiter_.limit().sleep_ns == 0 && t <= now_ns) {
      // Zero-length burst with no pacing: avoid spinning.
      break;
    }
  }
  return t;
}

StatusOr<uint64_t> ActivationTask::RunToCompletion(uint64_t now_ns) {
  uint64_t t = now_ns;
  while (!done()) {
    ASSIGN_OR_RETURN(t, Burst(t));
  }
  return t;
}

}  // namespace iosnap
