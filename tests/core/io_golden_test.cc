// Golden I/O corpus: pins the FTL's user data paths against history.
//
// Each named config runs the same fixed-seed mix of writes, reads and trims on
// SmallConfig — GC active, two snapshots — through one submission style: scalar calls,
// WriteV/ReadV/TrimV groups, an IoQueueLayer, or a writable activated view. The fault
// configs run once through scalar calls and once through vectored calls. Every op's
// status and completion record, the final stats, the primary map, each live epoch's
// valid pages, the device drain time and the per-type trace counts fold into one
// digest per config, compared with a constant recorded from an earlier commit. A second
// digest covers the NAND image saved at the end of the run, and that image must load
// back into a device that saves the same bytes, and no two records on it may share a
// sequence number unless one is a copy of the other. Every primary-map entry must name
// a programmed page whose header, where its CRC verifies, holds the entry's LBA. Three
// configs vary the device or the background instead of the submission style:
// header-only storage, copyback GC under program faults and corruption, and patrol with
// idle gaps and retention wear. Three more vary the snapshot lifecycle: a rate-limited
// activation that inline cleaning races, a writable view that is deactivated, and a
// rollback. Three pin the log's append paths: copyback GC with parity, program failures
// with parity, and the epoch-colocate cleaner's dynamic heads. The last two reopen right
// after a rollback or a view's deactivation, so recovery replays a log that holds data
// records of a dead epoch.
//
// A digest changes only when its constant is edited, together with a CHANGES.md line
// that says why.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/ftl.h"
#include "src/core/io_queue.h"
#include "src/ftl/rate_limiter.h"
#include "src/obs/trace.h"
#include "tests/test_util.h"

namespace iosnap {
namespace {

enum class Path : uint8_t {
  kScalar,    // Write/Read/Trim, one op per call.
  kVectored,  // WriteV/ReadV/TrimV over same-kind runs of each group.
  kQueued,    // IoQueueLayer: `group`-op submissions into every free slot.
  kView,      // ReadView/WriteView and ReadViewV/WriteViewV, alternating per group;
              // a writable activation of the first snapshot after the second.
};

struct GoldenCase {
  const char* name;
  Path path;
  uint32_t group;  // Ops per vectored group or per queue submission.
  uint32_t read_fail_ppm = 0;
  uint32_t corrupt_ppm = 0;
  uint32_t program_fail_ppm = 0;
  uint32_t parity_stripe = 0;
  uint32_t degraded_free_floor = 0;
  uint64_t crash_after_op = 0;  // Crash, then Ftl::Open on the disarmed device.
  bool clean_reopen = false;    // ReleaseDevice + Ftl::Open after the third phase.
  bool store_data = true;       // false: a header-only device, as the benchmarks run.
  bool gc_copyback = false;     // The cleaner relocates through CopybackPage.
  bool patrol = false;          // Patrol with its read-count and age refresh triggers.
  uint32_t retention_ppm = 0;   // Wear model: bit flips per second of page age.
  uint64_t idle_ms = 0;  // Idle gap after each phase, with the background pumped.
  // After phase 2, a rate-limited activation of the first snapshot runs through phase 3.
  // Background cleaning waits for it, so inline cleaning races its scan and its map is
  // built with the cleaner's relocation journal.
  bool race_activation = false;
  bool deactivate_view = false;  // kView: deactivate after phase 2; phase 3 uses the primary.
  bool rollback = false;         // Roll the primary back to the first snapshot after phase 2.
  // The epoch-colocate cleaner, which copies forward through one dynamic head per epoch
  // class, with the larger GC reserve (6/8/10 free segments) those heads need.
  bool colocate = false;
  uint64_t digest = 0;
  // The saved NAND image at the end of the run: every stored header, CRC, payload,
  // program time and failed-program hole.
  uint64_t image_digest = 0;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

struct DataOp {
  enum Kind : uint8_t { kWrite, kRead, kTrim };
  Kind kind = kWrite;
  uint64_t lba = 0;
  uint64_t count = 1;
  uint64_t version = 0;
};

constexpr int kPhases = 4;
constexpr uint64_t kOpsPerPhase = 800;

// Four phases of 60% writes, 30% reads and 10% short trims over a quarter of the LBA
// space, so two snapshots plus the active epoch fit while GC keeps running.
std::vector<std::vector<DataOp>> MakePhases(uint64_t lba_count) {
  Rng rng(2016);
  const uint64_t hot = lba_count / 4;
  uint64_t version = 0;
  std::vector<std::vector<DataOp>> phases(kPhases);
  for (std::vector<DataOp>& phase : phases) {
    for (uint64_t i = 0; i < kOpsPerPhase; ++i) {
      const uint64_t roll = rng.Next() % 10;
      DataOp op;
      op.lba = rng.Next() % hot;
      if (roll < 6) {
        op.kind = DataOp::kWrite;
        op.version = ++version;
      } else if (roll < 9) {
        op.kind = DataOp::kRead;
      } else {
        op.kind = DataOp::kTrim;
        op.count = 1 + rng.Next() % std::min<uint64_t>(8, hot - op.lba);
      }
      phase.push_back(op);
    }
  }
  return phases;
}

class GoldenRun {
 public:
  explicit GoldenRun(const GoldenCase& c) : case_(c), config_(SmallConfig()) {
    config_.parity_stripe = c.parity_stripe;
    config_.degraded_free_floor = c.degraded_free_floor;
    config_.nand.store_data = c.store_data;
    config_.gc_copyback = c.gc_copyback;
    if (c.colocate) {
      config_.cleaner_policy = CleanerPolicy::kEpochColocate;
      config_.gc_reserve_segments = 6;
      config_.gc_low_free_segments = 8;
      config_.gc_high_free_segments = 10;
    }
    if (c.patrol) {
      config_.patrol_enabled = true;
      config_.patrol_sleep_ms = 1;
      config_.patrol_refresh_reads = 24;
      config_.patrol_refresh_age_ms = 1500;
    }
    FaultPlan plan;
    plan.read_fail_ppm = c.read_fail_ppm;
    plan.corrupt_ppm = c.corrupt_ppm;
    plan.program_fail_ppm = c.program_fail_ppm;
    plan.retention_ppm_per_sec = c.retention_ppm;
    plan.crash_after_op = c.crash_after_op;
    plan.ApplyTo(&config_);
    auto ftl_or = Ftl::Create(config_);
    IOSNAP_CHECK(ftl_or.ok());
    ftl_ = std::move(ftl_or).value();
    ftl_->SetTraceRecorder(&trace_);
  }

  ::testing::AssertionResult Run() {
    const std::vector<std::vector<DataOp>> phases = MakePhases(config_.LbaCount());
    std::vector<uint32_t> snaps;
    for (int p = 0; p < kPhases; ++p) {
      if (case_.path == Path::kQueued) {
        RunQueued(phases[p]);
      } else {
        for (size_t i = 0; i < phases[p].size(); i += case_.group) {
          const size_t n = std::min<size_t>(case_.group, phases[p].size() - i);
          RunGroup(&phases[p][i], n);
          FoldRaceView();
          if (ftl_->device().fault().crashed()) {
            auto reopened = Reopen();
            if (!reopened) {
              return reopened;
            }
          }
        }
      }
      Idle();
      if (p < 2) {
        auto snap = ftl_->CreateSnapshot(p == 0 ? "a" : "b", now_);
        Fold(snap.status());
        if (!snap.ok()) {
          return ::testing::AssertionFailure() << snap.status().ToString();
        }
        FoldIo(snap->io);
        snaps.push_back(snap->snap_id);
      }
      if (p == 2 && case_.race_activation) {
        auto view = ftl_->BeginActivation(snaps[0], RateLimit::Of(20, 1), now_);
        Fold(view.status());
        if (!view.ok()) {
          return ::testing::AssertionFailure() << view.status().ToString();
        }
        race_view_ = *view;
      }
      if (p == 1 && case_.path == Path::kView) {
        uint64_t finish = now_;
        auto view = ftl_->ActivateBlocking(snaps[0], now_, /*writable=*/true, &finish);
        if (!view.ok()) {
          return ::testing::AssertionFailure() << view.status().ToString();
        }
        view_ = *view;
        digest_.Add(finish);
        now_ = std::max(now_, finish);
      }
      const std::vector<uint32_t> live_before = ftl_->LiveEpochs();
      if (p == 2 && case_.deactivate_view) {
        Fold(ftl_->Deactivate(view_, now_));
        view_ = kPrimaryView;
      }
      if (p == 2 && case_.rollback) {
        auto finish = ftl_->RollbackToSnapshot(snaps[0], now_);
        Fold(finish.status());
        if (!finish.ok()) {
          return ::testing::AssertionFailure() << finish.status().ToString();
        }
        digest_.Add(*finish);
        now_ = std::max(now_, *finish);
      }
      if (p == 2) {
        const std::vector<uint32_t> live_after = ftl_->LiveEpochs();
        for (uint32_t epoch : live_before) {
          if (std::find(live_after.begin(), live_after.end(), epoch) == live_after.end()) {
            dead_epochs_.push_back(epoch);
          }
        }
      }
      if (p == 2 && case_.clean_reopen) {
        auto reopened = Reopen();
        if (!reopened) {
          return reopened;
        }
        const LogManager& log = ftl_->log_manager();
        for (uint32_t epoch : dead_epochs_) {
          for (uint64_t s = 0; s < log.TotalSegments(); ++s) {
            if (log.segment_info(s).epoch_pages.contains(epoch)) {
              ++dead_epochs_counted_;
              break;
            }
          }
        }
      }
    }
    if (race_view_ != kPrimaryView && !race_folded_) {
      return ::testing::AssertionFailure() << "the raced activation never finished";
    }
    return ::testing::AssertionSuccess();
  }

  // Journal moves the raced activation's map was built with: the cleaner's data-page
  // copies recorded between its begin and end events.
  uint64_t RaceRelocations() const {
    uint64_t moves = 0;
    bool in_flight = false;
    for (const TraceEvent& e : trace_.Events()) {
      if (e.type == TraceEventType::kActivateBegin && e.arg1 == race_view_) {
        in_flight = true;
      } else if (e.type == TraceEventType::kActivateEnd && e.arg0 == race_view_) {
        in_flight = false;
      } else if (e.type == TraceEventType::kGcCopyForward && in_flight) {
        ++moves;
      }
    }
    return moves;
  }

  // Folds the end state into the digest and returns it. Also checks that every primary
  // map entry names a programmed page and, where the page's stored CRC verifies, a page
  // whose header holds the entry's LBA: a map entry that outlived its page's erase
  // would read an unprogrammed page or, once the segment is reused, another LBA's data.
  uint64_t Finish() {
    digest_.AddWords(ftl_->stats());
    digest_.AddWords(ftl_->device().stats());
    digest_.AddWords(ftl_->log_manager().stats());
    digest_.AddWords(ftl_->validity().stats());
    auto map = ftl_->ViewMapEntries(kPrimaryView);
    IOSNAP_CHECK(map.ok());
    digest_.Add(map->size());
    for (const auto& [lba, paddr] : *map) {
      digest_.Add(lba);
      digest_.Add(paddr);
      const NandDevice::PageInspection page = ftl_->device().InspectPage(paddr);
      EXPECT_TRUE(page.programmed) << case_.name << ": lba " << lba << " maps to paddr "
                                   << paddr << ", which is not programmed";
      EXPECT_TRUE(!page.crc_ok || page.header.lba == lba)
          << case_.name << ": lba " << lba << " maps to paddr " << paddr
          << ", which holds lba " << page.header.lba;
    }
    for (uint32_t epoch : ftl_->LiveEpochs()) {
      digest_.Add(~uint64_t{0});
      digest_.Add(epoch);
      ftl_->validity().ForEachValid(epoch, [&](uint64_t paddr) { digest_.Add(paddr); });
    }
    digest_.Add(ftl_->device().DrainTimeNs());
    for (size_t t = 0; t < kNumTraceEventTypes; ++t) {
      digest_.Add(trace_.CountType(static_cast<TraceEventType>(t)));
    }
    return digest_.value();
  }

  const Ftl& ftl() const { return *ftl_; }
  const TraceRecorder& trace() const { return trace_; }
  // An FtlStats counter over the whole run: a reopened Ftl's stats start at zero.
  uint64_t RunTotal(uint64_t FtlStats::*counter) const {
    return stats_before_reopen_.*counter + ftl_->stats().*counter;
  }
  int reopens() const { return reopens_; }
  // Ops that failed with kResourceExhausted.
  uint64_t exhausted() const { return exhausted_; }
  // Epochs a rollback or a deactivation took out of the live set.
  const std::vector<uint32_t>& dead_epochs() const { return dead_epochs_; }
  // Dead epochs that some segment's accounting still counted right after the reopen.
  size_t dead_epochs_counted_at_reopen() const { return dead_epochs_counted_; }

 private:
  void Fold(const Status& status) {
    digest_.Add(static_cast<uint64_t>(status.code()));
    exhausted_ += status.code() == StatusCode::kResourceExhausted ? 1 : 0;
  }

  // The case's idle gap: the clock moves on in 10 ms steps, pumping the background at
  // each, so pages age and patrol sweeps run with no foreground traffic.
  void Idle() {
    const uint64_t end = now_ + case_.idle_ms * 1000000;
    while (now_ < end) {
      now_ = std::min(end, now_ + 10000000);
      ftl_->PumpBackground(now_);
    }
  }

  void FoldIo(const IoResult& r) {
    digest_.Add(r.op.issue_ns);
    digest_.Add(r.op.finish_ns);
    digest_.Add(r.host_ns);
    digest_.Add(r.host_map_ns);
    digest_.Add(r.host_cow_ns);
    digest_.Add(r.rebuild_ns);
  }

  // One op's result; returns its completion time (the issue time on failure).
  uint64_t Fold(const StatusOr<IoResult>& r, uint64_t t) {
    Fold(r.status());
    if (!r.ok()) {
      return t;
    }
    FoldIo(*r);
    return r->CompletionNs();
  }

  uint64_t Fold(const StatusOr<std::vector<IoResult>>& r, uint64_t t) {
    Fold(r.status());
    uint64_t end = t;
    if (r.ok()) {
      for (const IoResult& io : *r) {
        FoldIo(io);
        end = std::max(end, io.CompletionNs());
      }
    }
    return end;
  }

  // Scalar or vectored calls for `n` ops, all issued at the current time.
  void RunGroup(const DataOp* ops, size_t n) {
    const uint64_t t = now_;
    ftl_->PumpBackground(t);
    const bool vectored = case_.path == Path::kVectored ||
                          (case_.path == Path::kView && groups_run_ % 2 == 1);
    ++groups_run_;
    const uint64_t page = config_.nand.page_size_bytes;
    uint64_t end = t;
    size_t i = 0;
    while (i < n) {
      size_t j = i + 1;
      while (vectored && j < n && ops[j].kind == ops[i].kind) {
        ++j;
      }
      switch (ops[i].kind) {
        case DataOp::kWrite: {
          std::vector<std::vector<uint8_t>> payloads;
          for (size_t k = i; k < j; ++k) {
            payloads.push_back(PageData(page, ops[k].lba, ops[k].version));
          }
          if (!vectored) {
            const std::vector<uint8_t>& data = payloads[0];
            end = std::max(end, Fold(case_.path == Path::kView
                                         ? ftl_->WriteView(view_, ops[i].lba, data, t)
                                         : ftl_->Write(ops[i].lba, data, t),
                                     t));
            break;
          }
          std::vector<WriteRequest> requests;
          for (size_t k = i; k < j; ++k) {
            requests.push_back({ops[k].lba, payloads[k - i]});
          }
          end = std::max(end, Fold(case_.path == Path::kView
                                       ? ftl_->WriteViewV(view_, requests, t)
                                       : ftl_->WriteV(requests, t),
                                   t));
          break;
        }
        case DataOp::kRead: {
          if (!vectored) {
            std::vector<uint8_t> data;
            end = std::max(end, Fold(case_.path == Path::kView
                                         ? ftl_->ReadView(view_, ops[i].lba, t, &data)
                                         : ftl_->Read(ops[i].lba, t, &data),
                                     t));
            break;
          }
          std::vector<uint64_t> lbas;
          for (size_t k = i; k < j; ++k) {
            lbas.push_back(ops[k].lba);
          }
          std::vector<std::vector<uint8_t>> data;
          end = std::max(end, Fold(case_.path == Path::kView
                                       ? ftl_->ReadViewV(view_, lbas, t, &data)
                                       : ftl_->ReadV(lbas, t, &data),
                                   t));
          break;
        }
        case DataOp::kTrim: {
          if (!vectored) {
            end = std::max(end, Fold(ftl_->Trim(ops[i].lba, ops[i].count, t), t));
            break;
          }
          std::vector<TrimRequest> requests;
          for (size_t k = i; k < j; ++k) {
            requests.push_back({ops[k].lba, ops[k].count});
          }
          end = std::max(end, Fold(ftl_->TrimV(requests, t), t));
          break;
        }
      }
      i = j;
    }
    now_ = std::max(now_, end);
  }

  // Streams a phase through a 4-queue x iodepth-8 layer: every free slot takes the
  // next `group` ops at the current time, then the clock jumps to the next completion.
  void RunQueued(const std::vector<DataOp>& ops) {
    constexpr uint32_t kQueues = 4;
    IoQueueLayer layer(ftl_.get(), {.queues = kQueues, .iodepth = 8});
    const uint64_t page = config_.nand.page_size_bytes;
    size_t next = 0;
    std::vector<std::vector<uint8_t>> payloads;
    std::vector<QueueOp> batch;
    while (next < ops.size() || layer.InflightOps() > 0) {
      if (next < ops.size()) {
        ftl_->PumpBackground(now_);
      }
      for (uint32_t q = 0; q < kQueues; ++q) {
        while (next < ops.size() && layer.CanSubmit(q)) {
          const size_t n = std::min<size_t>(case_.group, ops.size() - next);
          payloads.clear();
          batch.clear();
          for (size_t k = next; k < next + n; ++k) {
            QueueOp op;
            op.lba = ops[k].lba;
            op.count = ops[k].count;
            op.kind = ops[k].kind == DataOp::kWrite  ? QueueOpKind::kWrite
                      : ops[k].kind == DataOp::kRead ? QueueOpKind::kRead
                                                     : QueueOpKind::kTrim;
            if (op.kind == QueueOpKind::kWrite) {
              payloads.push_back(PageData(page, ops[k].lba, ops[k].version));
            }
            batch.push_back(op);
          }
          size_t p = 0;
          for (QueueOp& op : batch) {
            if (op.kind == QueueOpKind::kWrite) {
              op.data = payloads[p++];
            }
          }
          IOSNAP_CHECK(layer.Submit(q, batch, now_).ok());
          next += n;
        }
      }
      const std::optional<uint64_t> due = layer.NextCompletionNs();
      if (!due.has_value()) {
        break;
      }
      now_ = std::max(now_, *due);
      for (const IoCompletion& c : layer.PollCompletions(now_)) {
        digest_.Add(c.op_id);
        Fold(c.status);
        FoldIo(c.result);
      }
    }
  }

  // Releases the device, disarms its faults and opens a new Ftl over it.
  ::testing::AssertionResult Reopen() {
    IOSNAP_CHECK(reopens_ == 0);
    stats_before_reopen_ = ftl_->stats();
    std::unique_ptr<NandDevice> device = ftl_->ReleaseDevice();
    device->ClearFaults();
    uint64_t finish = now_;
    auto reopened = Ftl::Open(config_, std::move(device), now_, &finish, &trace_);
    if (!reopened.ok()) {
      return ::testing::AssertionFailure() << "open: " << reopened.status().ToString();
    }
    ftl_ = std::move(reopened).value();
    digest_.Add(finish);
    now_ = std::max(now_, finish);
    ++reopens_;
    return ::testing::AssertionSuccess();
  }

  // Folds the raced activation's built map once it is ready.
  void FoldRaceView() {
    if (race_view_ == kPrimaryView || race_folded_ || !ftl_->ActivationDone(race_view_)) {
      return;
    }
    race_folded_ = true;
    auto map = ftl_->ViewMapEntries(race_view_);
    IOSNAP_CHECK(map.ok());
    digest_.Add(map->size());
    for (const auto& [lba, paddr] : *map) {
      digest_.Add(lba);
      digest_.Add(paddr);
    }
  }

  const GoldenCase case_;
  FtlConfig config_;
  TraceRecorder trace_{1 << 15};  // Three times the busiest config's event count.
  std::unique_ptr<Ftl> ftl_;
  Digest digest_;
  uint64_t now_ = 0;
  uint32_t view_ = kPrimaryView;
  uint32_t race_view_ = kPrimaryView;  // kPrimaryView: no raced activation.
  bool race_folded_ = false;
  uint64_t groups_run_ = 0;
  FtlStats stats_before_reopen_;
  int reopens_ = 0;
  std::vector<uint32_t> dead_epochs_;
  size_t dead_epochs_counted_ = 0;
  uint64_t exhausted_ = 0;
};

class IoGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(IoGoldenTest, MatchesPinnedDigest) {
  const GoldenCase& c = GetParam();
  GoldenRun run(c);
  ASSERT_TRUE(run.Run());
  const uint64_t digest = run.Finish();

  // Each config must exercise what it names.
  const NandStats& nand = run.ftl().device().stats();
  const LogStats& log = run.ftl().log_manager().stats();
  EXPECT_GT(run.RunTotal(&FtlStats::gc_segments_cleaned), 0u) << "GC never ran";
  EXPECT_EQ(run.trace().dropped(), 0u) << run.trace().total_recorded();
  if (c.read_fail_ppm > 0) {
    EXPECT_GT(nand.read_retries, 0u);
  }
  if (c.corrupt_ppm > 0) {
    EXPECT_GT(nand.crc_errors, 0u);
  }
  if (c.program_fail_ppm > 0) {
    EXPECT_GT(nand.program_failures, 0u);
    EXPECT_GT(log.append_reroutes, 0u);
  }
  if (c.parity_stripe > 0) {
    EXPECT_GT(log.parity_pages_written, 0u);
  }
  if (c.program_fail_ppm > 0 && c.parity_stripe > 0) {
    // A failed parity program abandons its segment without rerouting anything.
    EXPECT_GT(nand.program_failures, log.append_reroutes);
  }
  if (c.degraded_free_floor > 0) {
    EXPECT_GT(run.ftl().stats().degraded_writes_rejected, 0u);
  } else {
    // Without a degraded floor, the FTL cleans before it refuses an op for space.
    EXPECT_EQ(run.exhausted(), 0u);
  }
  if (c.crash_after_op > 0 || c.clean_reopen) {
    EXPECT_EQ(run.reopens(), 1);
  }
  if (!c.store_data) {
    auto map = run.ftl().ViewMapEntries(kPrimaryView);
    ASSERT_TRUE(map.ok());
    ASSERT_FALSE(map->empty());
    for (const auto& [lba, paddr] : *map) {
      ASSERT_TRUE(run.ftl().device().PeekPageData(paddr).empty()) << "lba " << lba;
    }
  }
  if (c.gc_copyback) {
    EXPECT_GT(nand.copyback_pages, 0u);
  }
  if (c.patrol) {
    EXPECT_GT(run.ftl().stats().patrol_pages_rewritten, 0u);
  }
  if (c.retention_ppm > 0) {
    EXPECT_GT(nand.retention_corruptions, 0u);
  }
  if (c.race_activation) {
    EXPECT_GT(run.RaceRelocations(), 0u) << "the journal was empty at the map build";
  }
  if (c.deactivate_view) {
    EXPECT_EQ(run.RunTotal(&FtlStats::deactivations), 1u);
  }
  if (c.rollback) {
    EXPECT_GT(run.RunTotal(&FtlStats::rollbacks), 0u);
  }
  if (c.clean_reopen && (c.deactivate_view || c.rollback)) {
    // The dead epoch's data records are still on the log at the reopen: recovery
    // counts them in their segments' accounting but replays them into no live epoch.
    EXPECT_FALSE(run.dead_epochs().empty());
    EXPECT_EQ(run.dead_epochs_counted_at_reopen(), run.dead_epochs().size());
  }
  if (c.colocate) {
    int dynamic_heads_open = 0;
    // The cleaner keeps four epoch-class heads.
    for (int head = LogManager::kFirstDynamicHead; head < LogManager::kFirstDynamicHead + 4;
         ++head) {
      dynamic_heads_open += run.ftl().log_manager().OpenSegment(head).has_value() ? 1 : 0;
    }
    EXPECT_GT(dynamic_heads_open, 0);
  }
  // A sequence number names one record: pages that share it must be copies of that
  // record, since recovery de-duplicates on the number alone. An append the log failed
  // or refused leaves a gap in the sequence instead.
  std::map<uint64_t, PageHeader> record_of_seq;
  const NandDevice& device = run.ftl().device();
  for (uint64_t paddr = 0; paddr < device.config().TotalPages(); ++paddr) {
    const NandDevice::PageInspection page = device.InspectPage(paddr);
    const RecordType type = page.header.type;
    if (!page.programmed || !page.crc_ok || type == RecordType::kPad ||
        type == RecordType::kInvalid || type == RecordType::kParity) {
      continue;
    }
    const auto [it, first] = record_of_seq.emplace(page.header.seq, page.header);
    const PageHeader& other = it->second;
    EXPECT_TRUE(first || std::tie(page.header.type, page.header.epoch, page.header.lba,
                                  page.header.snap_id, page.header.trim_count) ==
                             std::tie(other.type, other.epoch, other.lba, other.snap_id,
                                      other.trim_count))
        << c.name << ": two records share seq " << page.header.seq << " (paddr " << paddr
        << ")";
  }
  EXPECT_EQ(digest, c.digest) << c.name << ": actual digest 0x" << std::hex << digest;

  // The image pins the media itself, and loading it must give back the same bytes.
  std::vector<uint8_t> image;
  run.ftl().device().SerializeTo(&image);
  Digest image_digest;
  image_digest.AddBytes(image);
  EXPECT_EQ(image_digest.value(), c.image_digest)
      << c.name << ": actual image digest 0x" << std::hex << image_digest.value();
  auto loaded = NandDevice::Deserialize(image);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::vector<uint8_t> reloaded;
  (*loaded)->SerializeTo(&reloaded);
  EXPECT_TRUE(reloaded == image) << c.name << ": image does not survive a load";
}

// The fault configs run once through scalar calls and once through WriteV/ReadV/TrimV
// groups of 7.
INSTANTIATE_TEST_SUITE_P(
    Golden, IoGoldenTest,
    ::testing::Values(
        GoldenCase{.name = "scalar", .path = Path::kScalar, .group = 1,
                   .digest = 0x66a6a6de6460fa46ULL,
                   .image_digest = 0x7a9e628db52670daULL},
        GoldenCase{.name = "vec7", .path = Path::kVectored, .group = 7,
                   .digest = 0x743a9a877a7176e6ULL,
                   .image_digest = 0xd5d6d933bdbe502eULL},
        GoldenCase{.name = "vec32", .path = Path::kVectored, .group = 32,
                   .digest = 0xfed8a29d352cb3f2ULL,
                   .image_digest = 0x555c00db2fcbd3faULL},
        GoldenCase{.name = "queued_q4d8", .path = Path::kQueued, .group = 8,
                   .digest = 0x3fde156124d90c1aULL,
                   .image_digest = 0x81df3b2de46a329bULL},
        GoldenCase{.name = "view", .path = Path::kView, .group = 7,
                   .digest = 0x190e1794960d0fb1ULL,
                   .image_digest = 0x57ece9d2c80ee89fULL},
        GoldenCase{.name = "read_fail_scalar", .path = Path::kScalar, .group = 1,
                   .read_fail_ppm = 200000, .digest = 0xbe08eddfb686a491ULL,
                   .image_digest = 0x7b4649928d3df19aULL},
        // The three vectored configs that read under faults were re-recorded when
        // vectored reads moved onto the scalar read rule: one retry budget per page
        // and no second sense of a corrupt page (CHANGES.md lists the deltas).
        GoldenCase{.name = "read_fail_vec7", .path = Path::kVectored, .group = 7,
                   .read_fail_ppm = 200000, .digest = 0x2ce4a2106c9ad745ULL,
                   .image_digest = 0x12592fb925fbf35fULL},
        // The two corrupt configs, copyback_faults_vec7 and patrol_wear_scalar were
        // re-recorded when the cleaner began to drop, with parity off, the corrupt pages
        // its victim scan leaves out (before, their map entries outlived the erase).
        GoldenCase{.name = "corrupt_scalar", .path = Path::kScalar, .group = 1,
                   .corrupt_ppm = 20000, .digest = 0x6544f20a4a84dbb7ULL,
                   .image_digest = 0x319c054f973030abULL},
        GoldenCase{.name = "corrupt_vec7", .path = Path::kVectored, .group = 7,
                   .corrupt_ppm = 20000, .digest = 0xb1ef35779d6bd7ecULL,
                   .image_digest = 0xd536bc826d85a1acULL},
        GoldenCase{.name = "corrupt_parity7_scalar", .path = Path::kScalar, .group = 1,
                   .corrupt_ppm = 20000, .parity_stripe = 7,
                   .digest = 0x9599f8a8c45d4591ULL,
                   .image_digest = 0xc5944a78fa34faf5ULL},
        GoldenCase{.name = "corrupt_parity7_vec7", .path = Path::kVectored, .group = 7,
                   .corrupt_ppm = 20000, .parity_stripe = 7,
                   .digest = 0x0f6ffa4e9586101eULL,
                   .image_digest = 0xc17ff9a114053344ULL},
        GoldenCase{.name = "program_fail_scalar", .path = Path::kScalar, .group = 1,
                   .program_fail_ppm = 2000, .digest = 0x92647ecda87d4c2ULL,
                   .image_digest = 0x86209e35d7fe5072ULL},
        GoldenCase{.name = "program_fail_vec7", .path = Path::kVectored, .group = 7,
                   .program_fail_ppm = 2000, .digest = 0x117d909fbcc10f15ULL,
                   .image_digest = 0xab2506d764d2ec80ULL},
        GoldenCase{.name = "degraded_scalar", .path = Path::kScalar, .group = 1,
                   .degraded_free_floor = 4, .digest = 0x2358f5d305d512dcULL,
                   .image_digest = 0xc1fe78c19028ed4bULL},
        GoldenCase{.name = "degraded_vec7", .path = Path::kVectored, .group = 7,
                   .degraded_free_floor = 4, .digest = 0xdb18da9b11cbe8b8ULL,
                   .image_digest = 0x970a088cbdf14d49ULL},
        GoldenCase{.name = "crash_scalar", .path = Path::kScalar, .group = 1,
                   .crash_after_op = 2000, .digest = 0x87355cce5d14cd0dULL,
                   .image_digest = 0xb1009d5eea99e8c1ULL},
        GoldenCase{.name = "crash_vec7", .path = Path::kVectored, .group = 7,
                   .crash_after_op = 2000, .digest = 0xe230492122871532ULL,
                   .image_digest = 0x87a272583e64dfa5ULL},
        GoldenCase{.name = "clean_reopen_scalar", .path = Path::kScalar, .group = 1,
                   .clean_reopen = true, .digest = 0xc26f737b63226ff8ULL,
                   .image_digest = 0x6f3b66684b31957aULL},
        GoldenCase{.name = "clean_reopen_vec7", .path = Path::kVectored, .group = 7,
                   .clean_reopen = true, .digest = 0x114a73f49cbff335ULL,
                   .image_digest = 0xd2b8cfb6e45ae8e5ULL},
        // Header-only storage moves no timing, stat or map entry, so this digest is
        // vec7's; only the image tells the two apart.
        GoldenCase{.name = "header_only_vec7", .path = Path::kVectored, .group = 7,
                   .store_data = false, .digest = 0x743a9a877a7176e6ULL,
                   .image_digest = 0xdb1f886400478bdcULL},
        // This config and program_fail_parity7_vec7 were re-recorded when a write whose
        // program-failure reroute the GC reserve refused began to clean and re-drive
        // instead of failing with kResourceExhausted (two writes here, one there).
        GoldenCase{.name = "copyback_faults_vec7", .path = Path::kVectored, .group = 7,
                   .corrupt_ppm = 20000, .program_fail_ppm = 2000, .gc_copyback = true,
                   .digest = 0x4e1ee453c9a1b7c6ULL,
                   .image_digest = 0x85a35f3a83f505efULL},
        // Two-second idle gaps age pages past the patrol's age trigger and into the
        // retention model. Read disturb stays off: no segment of this device absorbs
        // the 1,000 reads since erase that its rate needs before it applies.
        GoldenCase{.name = "patrol_wear_scalar", .path = Path::kScalar, .group = 1,
                   .patrol = true, .retention_ppm = 5000,
                   .idle_ms = 2000, .digest = 0xf0113fa457ea92e8ULL,
                   .image_digest = 0x02f092b80e04ed98ULL},
        GoldenCase{.name = "race_activation_vec7", .path = Path::kVectored, .group = 7,
                   .race_activation = true, .digest = 0x4ac2037e9450c0c9ULL,
                   .image_digest = 0xccac7ca137bd7e59ULL},
        GoldenCase{.name = "view_deactivate", .path = Path::kView, .group = 7,
                   .deactivate_view = true, .digest = 0x578982c8149afb4bULL,
                   .image_digest = 0x4507e74da244bd41ULL},
        GoldenCase{.name = "rollback_vec7", .path = Path::kVectored, .group = 7,
                   .rollback = true, .digest = 0x626f92ddbeff7eddULL,
                   .image_digest = 0xecc80c742cf22c74ULL},
        // Copyback GC with parity and no faults: the accumulator taps the source page's
        // stored bytes instead of a host payload.
        GoldenCase{.name = "copyback_parity7_vec7", .path = Path::kVectored, .group = 7,
                   .parity_stripe = 7, .gc_copyback = true,
                   .digest = 0x453d7a47bc96a440ULL,
                   .image_digest = 0xdc7037aa83c72ba4ULL},
        // Program failures with parity: records reroute, and a failed parity program
        // abandons its segment.
        GoldenCase{.name = "program_fail_parity7_vec7", .path = Path::kVectored,
                   .group = 7, .program_fail_ppm = 2000, .parity_stripe = 7,
                   .digest = 0x489098ae81276b1aULL,
                   .image_digest = 0x83e0bbbe23c71cadULL},
        GoldenCase{.name = "colocate_vec7", .path = Path::kVectored, .group = 7,
                   .colocate = true, .digest = 0x6deb176c50ca5c62ULL,
                   .image_digest = 0xf40fdafb329dd0d8ULL},
        // A reopen right after the rollback or the deactivation: the rolled-back
        // primary epoch's or the view epoch's records are on a dead branch.
        GoldenCase{.name = "rollback_reopen_vec7", .path = Path::kVectored, .group = 7,
                   .clean_reopen = true, .rollback = true,
                   .digest = 0x61f90df119f4775cULL,
                   .image_digest = 0xb17ab37351a19915ULL},
        GoldenCase{.name = "view_deactivate_reopen", .path = Path::kView, .group = 7,
                   .clean_reopen = true, .deactivate_view = true,
                   .digest = 0x77085df5cf17b86dULL,
                   .image_digest = 0x9e7e395345f4dcd1ULL}),
    [](const ::testing::TestParamInfo<GoldenCase>& golden) {
      return std::string(golden.param.name);
    });

}  // namespace
}  // namespace iosnap
