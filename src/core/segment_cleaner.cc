#include "src/core/segment_cleaner.h"

#include <algorithm>
#include <limits>

#include "src/common/logging.h"
#include "src/core/ftl.h"
#include "src/obs/latency.h"

namespace iosnap {

namespace {
// Number of distinct copy-forward heads used by the epoch-colocation policy.
constexpr int kColocateHeads = 4;
}  // namespace

SegmentCleaner::SegmentCleaner(Ftl* ftl) : ftl_(ftl) { IOSNAP_CHECK(ftl != nullptr); }

int SegmentCleaner::HeadForEpoch(uint32_t epoch) const {
  if (ftl_->config_.cleaner_policy == CleanerPolicy::kEpochColocate) {
    return LogManager::kFirstDynamicHead + static_cast<int>(epoch % kColocateHeads);
  }
  return LogManager::kGcHead;
}

std::optional<uint64_t> SegmentCleaner::SelectVictim(uint64_t now_ns) {
  const std::vector<uint64_t> candidates = ftl_->log_.ClosedSegments();
  if (candidates.empty()) {
    return std::nullopt;
  }
  const uint64_t pages_per_segment = ftl_->config_.nand.pages_per_segment;
  ++ftl_->stats_.gc_victim_selections;

  // Utilization reads below are O(1) counter lookups; the delta still charges the
  // residual merge work (lazy range recounts after epoch drops) as host time.
  const uint64_t merge_visits_before = ftl_->validity_.stats().merge_chunk_visits;

  uint64_t newest_use_order = 0;
  for (uint64_t seg : candidates) {
    newest_use_order = std::max(newest_use_order, ftl_->log_.segment_info(seg).use_order);
  }

  // Static wear leveling: if some cleanable segment has fallen far behind the most-worn
  // one (it holds cold data and never gets erased), recycle it now — even when it is
  // fully valid and frees no space — so its low-wear cells re-enter rotation. Only done
  // with a healthy free pool: under space pressure a full-valid victim makes no headway.
  if (ftl_->config_.wear_leveling_threshold > 0 &&
      ftl_->log_.FreeSegmentCount() >= ftl_->config_.gc_low_free_segments) {
    const std::optional<uint64_t> coldest = WearLevelingCandidate();
    if (coldest.has_value()) {
      ++ftl_->stats_.gc_wear_level_cleans;
      return coldest;
    }
  }

  std::optional<uint64_t> best;
  double best_score = -std::numeric_limits<double>::infinity();
  for (uint64_t seg : candidates) {
    // Counter ranges are segment-sized, so range index == segment index.
    const uint64_t valid = ftl_->validity_.MergedValidCount(seg);
    if (valid >= pages_per_segment) {
      continue;  // Nothing reclaimable here.
    }
    const SegmentInfo& info = ftl_->log_.segment_info(seg);
    double score = 0.0;
    switch (ftl_->config_.cleaner_policy) {
      case CleanerPolicy::kGreedy:
        score = -static_cast<double>(valid);
        break;
      case CleanerPolicy::kCostBenefit: {
        // Classic LFS benefit/cost with segment age proxied by how long ago the segment
        // was opened relative to the newest candidate.
        const double u = static_cast<double>(valid) / static_cast<double>(pages_per_segment);
        const double age =
            static_cast<double>(newest_use_order - info.use_order + 1);
        score = (1.0 - u) * age / (1.0 + u);
        break;
      }
      case CleanerPolicy::kEpochColocate:
        // Prefer epoch-pure segments, then fewest valid pages: cleaning a single-epoch
        // segment never intermixes snapshots (§5.4.2).
        score = -static_cast<double>(info.epoch_pages.size()) * 1e9 -
                static_cast<double>(valid);
        break;
    }
    if (score > best_score) {
      best_score = score;
      best = seg;
    }
  }

  const uint64_t merge_visits =
      ftl_->validity_.stats().merge_chunk_visits - merge_visits_before;
  const uint64_t merge_ns = merge_visits * kHostMergeNsPerChunk;
  ftl_->stats_.gc_merge_host_ns += merge_ns;
  ftl_->stats_.gc_total_host_ns += merge_ns;
  return best;
}

std::optional<uint64_t> SegmentCleaner::WearLevelingCandidate() const {
  const uint64_t max_erase = ftl_->device_->MaxEraseCount();
  std::optional<uint64_t> coldest;
  uint64_t coldest_erase = ~uint64_t{0};
  for (uint64_t seg : ftl_->log_.ClosedSegments()) {
    const uint64_t erase_count = ftl_->device_->EraseCount(seg);
    if (erase_count < coldest_erase) {
      coldest_erase = erase_count;
      coldest = seg;
    }
  }
  if (!coldest.has_value() ||
      max_erase - coldest_erase < ftl_->config_.wear_leveling_threshold) {
    return std::nullopt;
  }
  return coldest;
}

bool SegmentCleaner::WearImbalanced() const {
  return ftl_->config_.wear_leveling_threshold > 0 &&
         WearLevelingCandidate().has_value();
}

bool SegmentCleaner::StartVictim(uint64_t now_ns) {
  if (victim_.has_value()) {
    return true;
  }
  // Everything the victim scan touches on the device (header scan, tree-summary
  // append) is background traffic for latency attribution.
  NandDevice::BackgroundScope bg(ftl_->device_.get());
  const std::optional<uint64_t> seg = SelectVictim(now_ns);
  if (!seg.has_value()) {
    return false;
  }
  return BeginVictim(*seg, now_ns);
}

bool SegmentCleaner::StartVictimAt(uint64_t segment, uint64_t now_ns) {
  if (victim_.has_value()) {
    return victim_->segment == segment;
  }
  // Only closed segments are cleanable: open heads, free, and retired segments are
  // off-limits exactly as in SelectVictim's candidate set.
  if (ftl_->log_.segment_info(segment).state != SegmentState::kClosed) {
    return false;
  }
  NandDevice::BackgroundScope bg(ftl_->device_.get());
  return BeginVictim(segment, now_ns);
}

bool SegmentCleaner::BeginVictim(uint64_t seg_index, uint64_t now_ns) {
  Victim victim;
  victim.segment = seg_index;
  victim.trim_retention_seq = ftl_->log_.GlobalMinDataSeq();
  auto scan = ftl_->device_->ScanSegmentHeaders(seg_index, now_ns, &victim.entries);
  if (!scan.ok()) {
    IOSNAP_LOG(kWarning) << "[cleaner] victim scan failed: " << scan.status();
    return false;
  }

  // The header scan silently drops CRC-failing pages, so a page corrupted at rest
  // never reaches ProcessEntry. Collect them for a rebuild-or-drop pass at victim
  // completion (see Step); the scan above already charged the read time for every
  // page, so the raw re-inspection here is untimed.
  if (victim.entries.size() < ftl_->device_->NextFreePage(seg_index)) {
    const uint64_t first = ftl_->device_->FirstPageOf(seg_index);
    for (uint64_t i = 0; i < ftl_->device_->NextFreePage(seg_index); ++i) {
      const NandDevice::PageInspection insp = ftl_->device_->InspectPage(first + i);
      if (insp.programmed && !insp.crc_ok) {
        victim.corrupt_paddrs.push_back(first + i);
      }
    }
  }

  // If the victim holds snapshot notes or an old tree summary, consolidate: write one
  // fresh tree summary (whose sequence number supersedes them all), then the victim's
  // copies can simply be dropped instead of accumulating forever on the log.
  bool has_tree_records = false;
  for (const auto& [paddr, header] : victim.entries) {
    if (header.IsSnapshotNote() || header.type == RecordType::kTreeSummary) {
      has_tree_records = true;
      break;
    }
  }
  if (has_tree_records) {
    auto summary = ftl_->AppendTreeSummary(LogManager::kGcHead, now_ns);
    if (!summary.ok()) {
      IOSNAP_LOG(kWarning) << "[cleaner] tree summary failed: " << summary.status();
      return false;
    }
  }

  // Pacing estimate (Fig 10 knob): merged validity when snapshot-aware, the active
  // epoch's validity only under the vanilla rate policy. Both are now counter reads
  // over the victim's segment-sized range.
  const uint64_t merge_visits_before = ftl_->validity_.stats().merge_chunk_visits;
  if (ftl_->config_.snapshot_aware_gc_rate) {
    victim.pacing_estimate = ftl_->validity_.MergedValidCount(seg_index);
  } else {
    victim.pacing_estimate =
        ftl_->validity_.EpochValidCount(ftl_->FindView(kPrimaryView)->epoch, seg_index);
  }
  const uint64_t merge_visits =
      ftl_->validity_.stats().merge_chunk_visits - merge_visits_before;
  const uint64_t merge_ns = merge_visits * kHostMergeNsPerChunk;
  ftl_->stats_.gc_merge_host_ns += merge_ns;
  ftl_->stats_.gc_total_host_ns += merge_ns;

  if (ftl_->config_.gc_copyback) {
    // Bucket data entries by source channel for channel-matched draining (see Step);
    // everything else keeps scan order.
    victim.channel_queues.assign(ftl_->config_.nand.num_channels, {});
    for (size_t i = 0; i < victim.entries.size(); ++i) {
      if (victim.entries[i].second.type == RecordType::kData) {
        const uint32_t channel = static_cast<uint32_t>(
            victim.entries[i].first % ftl_->config_.nand.num_channels);
        victim.channel_queues[channel].push_back(i);
        ++victim.data_remaining;
      } else {
        victim.meta_order.push_back(i);
      }
    }
  }

  victim_ = std::move(victim);
  if (ftl_->trace_ != nullptr) {
    ftl_->trace_->Record(TraceEventType::kGcVictimSelect, now_ns, now_ns, victim_->segment,
                         victim_->pacing_estimate, ftl_->log_.FreeSegmentCount());
  }
  return true;
}

bool SegmentCleaner::TrimStillNeeded(uint32_t epoch, uint64_t seq) {
  // A trim record must survive only while a data record it kills might still be
  // replayed. Two drop conditions: (1) the record is older than every surviving data
  // record (it kills nothing); (2) its epoch is on no live epoch's lineage (dead
  // branch). Without these, discard-heavy workloads accumulate immortal trim metadata.
  if (seq < victim_->trim_retention_seq) {
    return false;
  }
  for (uint32_t live : ftl_->validity_.Epochs()) {
    if (ftl_->tree_.InLineage(live, epoch)) {
      return true;
    }
  }
  return false;
}

StatusOr<uint64_t> SegmentCleaner::FlushTrimSummaries(uint64_t now_ns) {
  std::vector<TrimEntry>& trims = victim_->live_trims;
  if (trims.empty()) {
    return now_ns;
  }
  const uint64_t per_page = TrimEntriesPerPage(ftl_->config_.nand.page_size_bytes);
  uint64_t t = now_ns;
  for (size_t begin = 0; begin < trims.size(); begin += per_page) {
    const size_t count = std::min<size_t>(per_page, trims.size() - begin);
    const std::vector<uint8_t> payload = EncodeTrimSummary(trims, begin, count);
    PageHeader header;
    header.type = RecordType::kTrimSummary;
    header.seq = ftl_->NextSeq();
    header.payload_len = static_cast<uint32_t>(payload.size());
    ASSIGN_OR_RETURN(AppendResult ar,
                     ftl_->log_.Append(LogManager::kGcHead, header, payload, t));
    t = ar.op.finish_ns;
    ++ftl_->stats_.gc_notes_copied;
    ++ftl_->stats_.total_pages_programmed;
  }
  trims.clear();
  return t;
}

StatusOr<uint64_t> SegmentCleaner::RebuildOrDrop(uint64_t paddr, uint64_t now_ns,
                                                 bool* copied_data_page) {
  ASSIGN_OR_RETURN(const Ftl::Salvage salvage, ftl_->SalvagePage(paddr, now_ns));
  if (salvage.rebuilt) {
    ++victim_->pacing_done;
    *copied_data_page = true;
  } else {
    IOSNAP_LOG(kWarning) << "[cleaner] dropping unreadable page " << paddr;
    ++ftl_->stats_.gc_pages_lost;
  }
  return salvage.finish_ns;
}

uint64_t SegmentCleaner::FinishRelocation(uint64_t paddr, const PageHeader& header,
                                          const AppendResult& ar, uint64_t now_ns,
                                          bool via_copyback, bool* copied_data_page) {
  const uint64_t cow_bytes = ftl_->MovePage(header.lba, paddr, ar.paddr, now_ns);
  const uint64_t cow_ns = cow_bytes * kHostCowNsPerByte;
  const uint64_t host_ns = ftl_->validity_.Epochs().size() * kHostBitmapUpdateNs + cow_ns;
  ftl_->stats_.gc_total_host_ns += host_ns;

  ++ftl_->stats_.gc_pages_copied;
  ++ftl_->stats_.total_pages_programmed;
  ++victim_->pacing_done;
  *copied_data_page = true;
  if (ftl_->trace_ != nullptr) {
    ftl_->trace_->Record(TraceEventType::kGcCopyForward, now_ns, ar.op.finish_ns,
                         header.lba, paddr, ar.paddr);
  }
  if (via_copyback && ftl_->attributor_ != nullptr && ftl_->attributor_->Tick()) {
    // Copyback relocations never reach the host, so the classic write/read span
    // producers never see them; record them as their own kind. The span sum stays
    // bit-exact: device spans cover finish-issue, host terms cover the rest.
    LatencySpans spans;
    spans[LatencySpan::kQueueWait] = ar.op.FgWaitNs();
    spans[LatencySpan::kGcWait] = ar.op.bg_wait_ns;
    spans[LatencySpan::kBus] = ar.op.bus_ns;
    spans[LatencySpan::kCell] = ar.op.cell_ns;
    spans[LatencySpan::kCow] = cow_ns;
    spans[LatencySpan::kHostOther] = host_ns - cow_ns;
    ftl_->attributor_->Record(LatencyOpKind::kGcCopy, header.lba, ar.op.issue_ns,
                              ar.op.finish_ns + host_ns, spans);
  }
  return ar.op.finish_ns;
}

std::optional<uint32_t> SegmentCleaner::PickCopybackChannel() {
  const std::vector<std::deque<size_t>>& queues = victim_->channel_queues;
  // First choice: a queue whose source channel equals the channel its relocation
  // would be programmed on — that copyback stays on-die. The destination head
  // depends on the entry's epoch (colocation), so each queue is checked against its
  // own front entry's head.
  for (uint32_t c = 0; c < queues.size(); ++c) {
    if (queues[c].empty()) {
      continue;
    }
    const PageHeader& header = victim_->entries[queues[c].front()].second;
    const std::optional<uint32_t> want =
        ftl_->log_.NextAppendChannel(HeadForEpoch(header.epoch));
    if (want.has_value() && *want == c) {
      return c;
    }
  }
  for (uint32_t c = 0; c < queues.size(); ++c) {
    if (!queues[c].empty()) {
      return c;
    }
  }
  return std::nullopt;
}

bool SegmentCleaner::VictimExhausted() const {
  if (ftl_->config_.gc_copyback) {
    return victim_->meta_cursor >= victim_->meta_order.size() &&
           victim_->data_remaining == 0;
  }
  return victim_->cursor >= victim_->entries.size();
}

uint64_t SegmentCleaner::PacingEstimateRemaining() const {
  if (!victim_.has_value()) {
    return 0;
  }
  if (victim_->pacing_done >= victim_->pacing_estimate) {
    return 0;
  }
  return victim_->pacing_estimate - victim_->pacing_done;
}

StatusOr<uint64_t> SegmentCleaner::ProcessEntry(
    const std::pair<uint64_t, PageHeader>& entry, uint64_t now_ns, bool* copied_data_page) {
  *copied_data_page = false;
  const uint64_t paddr = entry.first;
  const PageHeader& header = entry.second;

  switch (header.type) {
    case RecordType::kData: {
      // Liveness under the merged view, served from the cached merge plane (the
      // ValidityMap's epoch set is exactly the live-epoch set).
      if (!ftl_->validity_.MergedTest(paddr)) {
        return now_ns;  // Invalid in every live epoch: drop.
      }

      if (ftl_->config_.gc_copyback) {
        // On-die relocation: the stored bytes move inside the device without a host
        // read, so no DMA crosses a transfer bus when source and destination share a
        // channel. The device's scrub-on-copyback stands in for the CRC verification
        // the classic host read performed.
        const int head = HeadForEpoch(header.epoch);
        StatusOr<AppendResult> ar =
            ftl_->log_.AppendCopyback(head, paddr, header, now_ns);
        for (uint32_t attempt = 1; !ar.ok() &&
                                   ar.status().code() == StatusCode::kUnavailable &&
                                   attempt < ftl_->config_.read_retry_limit;
             ++attempt) {
          ar = ftl_->log_.AppendCopyback(head, paddr, header, now_ns);
        }
        if (!ar.ok()) {
          if (ar.status().code() == StatusCode::kDataLoss &&
              !ftl_->device_->PageCrcIntact(paddr)) {
            // Scrub-on-copyback caught a corrupted source: the page cannot be copied
            // forward as-is.
            return RebuildOrDrop(paddr, now_ns, copied_data_page);
          }
          return ar.status();
        }
        return FinishRelocation(paddr, header, *ar, now_ns, /*via_copyback=*/true,
                                copied_data_page);
      }

      // Copy-forward with the original identity (lba, epoch, seq).
      std::vector<uint8_t> data;
      StatusOr<NandOp> read = ftl_->device_->ReadPageWithRetry(
          paddr, now_ns, nullptr, &data, ftl_->config_.read_retry_limit);
      if (!read.ok() && read.status().code() == StatusCode::kDataLoss) {
        // The page is permanently unreadable (CRC failure): its contents cannot be
        // copied forward as-is. (An activation scan already in flight over this
        // segment can still surface the dead paddr; its reads then fail with a typed
        // error rather than returning corrupt data.)
        return RebuildOrDrop(paddr, now_ns, copied_data_page);
      }
      ASSIGN_OR_RETURN(NandOp read_op, std::move(read));
      ASSIGN_OR_RETURN(AppendResult ar,
                       ftl_->log_.Append(HeadForEpoch(header.epoch), header, data,
                                         read_op.finish_ns));
      return FinishRelocation(paddr, header, ar, now_ns, /*via_copyback=*/false,
                              copied_data_page);
    }
    case RecordType::kTrim: {
      if (!TrimStillNeeded(header.epoch, header.seq)) {
        ++ftl_->stats_.gc_notes_dropped;
        return now_ns;
      }
      // Gathered now, rewritten in compacted form when the victim completes.
      victim_->live_trims.push_back(
          TrimEntry{header.lba, header.trim_count, header.epoch, header.seq});
      return now_ns;
    }
    case RecordType::kTrimSummary: {
      // Re-filter the batched entries and carry the survivors into the new compaction.
      std::vector<uint8_t> payload;
      StatusOr<NandOp> read = ftl_->device_->ReadPageWithRetry(
          paddr, now_ns, nullptr, &payload, ftl_->config_.read_retry_limit);
      if (!read.ok() && read.status().code() == StatusCode::kDataLoss) {
        // The batched trim entries are gone; data they killed may resurrect at the next
        // recovery scan. Genuine data loss — count it and keep the device running.
        IOSNAP_LOG(kWarning) << "[cleaner] dropping unreadable trim summary " << paddr
                             << ": " << read.status();
        ++ftl_->stats_.gc_pages_lost;
        ++ftl_->stats_.pages_lost_forever;
        return now_ns;
      }
      ASSIGN_OR_RETURN(NandOp read_op, std::move(read));
      StatusOr<std::vector<TrimEntry>> decoded = DecodeTrimSummary(payload);
      if (!decoded.ok()) {
        IOSNAP_LOG(kWarning) << "[cleaner] undecodable trim summary " << paddr << ": "
                             << decoded.status();
        ++ftl_->stats_.gc_pages_lost;
        ++ftl_->stats_.pages_lost_forever;
        return read_op.finish_ns;
      }
      const std::vector<TrimEntry>& entries = *decoded;
      for (const TrimEntry& trim : entries) {
        if (TrimStillNeeded(trim.epoch, trim.seq)) {
          victim_->live_trims.push_back(trim);
        } else {
          ++ftl_->stats_.gc_notes_dropped;
        }
      }
      return read_op.finish_ns;
    }
    case RecordType::kSnapCreate:
    case RecordType::kSnapDelete:
    case RecordType::kSnapActivate:
    case RecordType::kSnapDeactivate:
    case RecordType::kRollback:
    case RecordType::kTreeSummary:
      // Superseded by the fresh tree summary StartVictim wrote.
      ++ftl_->stats_.gc_notes_dropped;
      return now_ns;
    case RecordType::kCheckpoint:  // Retired record kind from earlier builds.
    case RecordType::kPad:
    case RecordType::kInvalid:
      return now_ns;
    case RecordType::kParity:
      // Positional: a parity page protects its own segment's stripes and means nothing
      // anywhere else. Relocated members get fresh parity at the destination head.
      return now_ns;
  }
  return now_ns;
}

StatusOr<uint64_t> SegmentCleaner::Step(uint64_t now_ns, uint64_t max_pages) {
  if (!victim_.has_value()) {
    return now_ns;
  }
  // Copy-forward reads/appends, trim-summary flushes, and the release erase are all
  // background device traffic for latency attribution.
  NandDevice::BackgroundScope bg(ftl_->device_.get());
  uint64_t t = now_ns;
  uint64_t copied = 0;
  if (ftl_->config_.gc_copyback) {
    // Copyback order: notes first (scan order), then data entries chasing the
    // destination head's next-append channel so relocations stay on-die. Both loops
    // share one per-Step budget of max_pages entries so note rewrites stay paced
    // across Steps like classic mode's interleaving instead of bursting up front.
    uint64_t processed = 0;
    while (victim_->meta_cursor < victim_->meta_order.size() && processed < max_pages) {
      bool copied_data = false;
      ASSIGN_OR_RETURN(
          t, ProcessEntry(victim_->entries[victim_->meta_order[victim_->meta_cursor]], t,
                          &copied_data));
      ++victim_->meta_cursor;
      ++processed;
      if (copied_data) {
        ++copied;
      }
    }
    while (copied < max_pages && processed < max_pages) {
      const std::optional<uint32_t> channel = PickCopybackChannel();
      if (!channel.has_value()) {
        break;
      }
      std::deque<size_t>& queue = victim_->channel_queues[*channel];
      bool copied_data = false;
      // Pop (and account) only after the relocation succeeds: a propagating error —
      // exhausted read retries, program-failure reroute limit, no free segment —
      // leaves the entry at its queue front so the next Step retries it, matching the
      // classic path's cursor-advance-on-success semantics.
      ASSIGN_OR_RETURN(t, ProcessEntry(victim_->entries[queue.front()], t, &copied_data));
      queue.pop_front();
      --victim_->data_remaining;
      ++processed;
      if (copied_data) {
        ++copied;
      }
    }
  } else {
    while (victim_->cursor < victim_->entries.size() && copied < max_pages) {
      bool copied_data = false;
      ASSIGN_OR_RETURN(t,
                       ProcessEntry(victim_->entries[victim_->cursor], t, &copied_data));
      ++victim_->cursor;
      if (copied_data) {
        ++copied;
      }
    }
  }
  if (VictimExhausted()) {
    // Rebuild-or-drop the scan-excluded corrupt pages before the segment is erased
    // out from under them. A successful rebuild repairs every map itself; a page no
    // stripe can rebuild (parity off, or a double fault) is honest loss and gets every
    // reference scrubbed so nothing dangles past the erase. Popping per page keeps a
    // mid-sweep error (e.g. device offline) resumable without reprocessing.
    while (!victim_->corrupt_paddrs.empty()) {
      const uint64_t corrupt_paddr = victim_->corrupt_paddrs.back();
      if (!ftl_->validity_.MergedTest(corrupt_paddr)) {
        // No live epoch references these bytes — either a rebuild already moved them
        // (read path or patrol) or they were garbage all along. The erase disposes of
        // them; corrupt notes (which carry no validity) land here too, exactly as the
        // scan has always dropped them.
        victim_->corrupt_paddrs.pop_back();
        continue;
      }
      bool rebuilt = false;
      ASSIGN_OR_RETURN(t, RebuildOrDrop(corrupt_paddr, t, &rebuilt));
      victim_->corrupt_paddrs.pop_back();
    }
    ASSIGN_OR_RETURN(t, FlushTrimSummaries(t));
    const uint64_t release_start_ns = t;
    ASSIGN_OR_RETURN(NandOp erase_op, ftl_->log_.ReleaseSegment(victim_->segment, t));
    t = erase_op.finish_ns;
    ++ftl_->stats_.gc_segments_cleaned;
    if (ftl_->trace_ != nullptr) {
      ftl_->trace_->Record(TraceEventType::kGcSegmentErase, release_start_ns, t,
                           victim_->segment, victim_->pacing_done);
    }
    victim_.reset();
  }
  ftl_->stats_.gc_device_busy_ns += t - now_ns;
  return t;
}

StatusOr<uint64_t> SegmentCleaner::CleanOneBlocking(uint64_t now_ns) {
  if (!victim_.has_value() && !StartVictim(now_ns)) {
    return now_ns;
  }
  uint64_t t = now_ns;
  while (victim_.has_value()) {
    ASSIGN_OR_RETURN(t, Step(t, ftl_->config_.nand.pages_per_segment));
  }
  return t;
}

StatusOr<uint64_t> SegmentCleaner::CleanSegmentBlocking(uint64_t segment,
                                                        uint64_t now_ns) {
  uint64_t t = now_ns;
  // A victim mid-flight cannot be preempted (its scan snapshot and pacing state are
  // segment-bound); finish it first, then clean the requested segment.
  while (victim_.has_value()) {
    ASSIGN_OR_RETURN(t, Step(t, ftl_->config_.nand.pages_per_segment));
  }
  if (!StartVictimAt(segment, t)) {
    return t;
  }
  while (victim_.has_value()) {
    ASSIGN_OR_RETURN(t, Step(t, ftl_->config_.nand.pages_per_segment));
  }
  return t;
}

}  // namespace iosnap
