// Golden I/O corpus: pins the FTL's user data paths against history.
//
// Each named config runs the same fixed-seed mix of writes, reads and trims on
// SmallConfig — GC active, two snapshots — through one submission style: scalar calls,
// WriteV/ReadV/TrimV groups, an IoQueueLayer, or a writable activated view. The fault
// configs run once through scalar calls and once through vectored calls. Every op's
// status and completion record, the final stats, the primary map, each live epoch's
// valid pages, the device drain time and the per-type trace counts fold into one
// digest per config, compared with a constant recorded from an earlier commit.
//
// A digest changes only when its constant is edited, together with a CHANGES.md line
// that says why.

#include <algorithm>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/ftl.h"
#include "src/core/io_queue.h"
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
  uint64_t digest = 0;
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
    FaultPlan plan;
    plan.read_fail_ppm = c.read_fail_ppm;
    plan.corrupt_ppm = c.corrupt_ppm;
    plan.program_fail_ppm = c.program_fail_ppm;
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
          if (ftl_->device().fault().crashed()) {
            auto reopened = Reopen();
            if (!reopened) {
              return reopened;
            }
          }
        }
      }
      if (p < 2) {
        auto snap = ftl_->CreateSnapshot(p == 0 ? "a" : "b", now_);
        Fold(snap.status());
        if (!snap.ok()) {
          return ::testing::AssertionFailure() << snap.status().ToString();
        }
        FoldIo(snap->io);
        snaps.push_back(snap->snap_id);
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
      if (p == 2 && case_.clean_reopen) {
        auto reopened = Reopen();
        if (!reopened) {
          return reopened;
        }
      }
    }
    return ::testing::AssertionSuccess();
  }

  // Folds the end state into the digest and returns it.
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
  uint64_t gc_segments_cleaned() const {
    return gc_before_reopen_ + ftl_->stats().gc_segments_cleaned;
  }
  int reopens() const { return reopens_; }

 private:
  void Fold(const Status& status) { digest_.Add(static_cast<uint64_t>(status.code())); }

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
    gc_before_reopen_ += ftl_->stats().gc_segments_cleaned;
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

  const GoldenCase case_;
  FtlConfig config_;
  TraceRecorder trace_{1 << 15};  // Three times the busiest config's event count.
  std::unique_ptr<Ftl> ftl_;
  Digest digest_;
  uint64_t now_ = 0;
  uint32_t view_ = kPrimaryView;
  uint64_t groups_run_ = 0;
  uint64_t gc_before_reopen_ = 0;
  int reopens_ = 0;
};

class IoGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(IoGoldenTest, MatchesPinnedDigest) {
  const GoldenCase& c = GetParam();
  GoldenRun run(c);
  ASSERT_TRUE(run.Run());
  const uint64_t digest = run.Finish();

  // Each config must exercise what it names.
  const NandStats& nand = run.ftl().device().stats();
  EXPECT_GT(run.gc_segments_cleaned(), 0u) << "GC never ran";
  EXPECT_EQ(run.trace().dropped(), 0u) << run.trace().total_recorded();
  if (c.read_fail_ppm > 0) {
    EXPECT_GT(nand.read_retries, 0u);
  }
  if (c.corrupt_ppm > 0) {
    EXPECT_GT(nand.crc_errors, 0u);
  }
  if (c.program_fail_ppm > 0) {
    EXPECT_GT(nand.program_failures, 0u);
  }
  if (c.degraded_free_floor > 0) {
    EXPECT_GT(run.ftl().stats().degraded_writes_rejected, 0u);
  }
  if (c.crash_after_op > 0 || c.clean_reopen) {
    EXPECT_EQ(run.reopens(), 1);
  }
  EXPECT_EQ(digest, c.digest) << c.name << ": actual digest 0x" << std::hex << digest;
}

// The fault configs run once through scalar calls and once through WriteV/ReadV/TrimV
// groups of 7.
INSTANTIATE_TEST_SUITE_P(
    Golden, IoGoldenTest,
    ::testing::Values(
        GoldenCase{.name = "scalar", .path = Path::kScalar, .group = 1,
                   .digest = 0x66a6a6de6460fa46ULL},
        GoldenCase{.name = "vec7", .path = Path::kVectored, .group = 7,
                   .digest = 0x743a9a877a7176e6ULL},
        GoldenCase{.name = "vec32", .path = Path::kVectored, .group = 32,
                   .digest = 0xfed8a29d352cb3f2ULL},
        GoldenCase{.name = "queued_q4d8", .path = Path::kQueued, .group = 8,
                   .digest = 0x3fde156124d90c1aULL},
        GoldenCase{.name = "view", .path = Path::kView, .group = 7,
                   .digest = 0x190e1794960d0fb1ULL},
        GoldenCase{.name = "read_fail_scalar", .path = Path::kScalar, .group = 1,
                   .read_fail_ppm = 200000, .digest = 0xbe08eddfb686a491ULL},
        // The three vectored configs that read under faults were re-recorded when
        // vectored reads moved onto the scalar read rule: one retry budget per page
        // and no second sense of a corrupt page (CHANGES.md lists the deltas).
        GoldenCase{.name = "read_fail_vec7", .path = Path::kVectored, .group = 7,
                   .read_fail_ppm = 200000, .digest = 0x2ce4a2106c9ad745ULL},
        GoldenCase{.name = "corrupt_scalar", .path = Path::kScalar, .group = 1,
                   .corrupt_ppm = 20000, .digest = 0xb74f5e244f8f9c47ULL},
        GoldenCase{.name = "corrupt_vec7", .path = Path::kVectored, .group = 7,
                   .corrupt_ppm = 20000, .digest = 0xc5b41987e5091f0eULL},
        GoldenCase{.name = "corrupt_parity7_scalar", .path = Path::kScalar, .group = 1,
                   .corrupt_ppm = 20000, .parity_stripe = 7,
                   .digest = 0x9599f8a8c45d4591ULL},
        GoldenCase{.name = "corrupt_parity7_vec7", .path = Path::kVectored, .group = 7,
                   .corrupt_ppm = 20000, .parity_stripe = 7,
                   .digest = 0x0f6ffa4e9586101eULL},
        GoldenCase{.name = "program_fail_scalar", .path = Path::kScalar, .group = 1,
                   .program_fail_ppm = 2000, .digest = 0x92647ecda87d4c2ULL},
        GoldenCase{.name = "program_fail_vec7", .path = Path::kVectored, .group = 7,
                   .program_fail_ppm = 2000, .digest = 0x117d909fbcc10f15ULL},
        GoldenCase{.name = "degraded_scalar", .path = Path::kScalar, .group = 1,
                   .degraded_free_floor = 4, .digest = 0x2358f5d305d512dcULL},
        GoldenCase{.name = "degraded_vec7", .path = Path::kVectored, .group = 7,
                   .degraded_free_floor = 4, .digest = 0xdb18da9b11cbe8b8ULL},
        GoldenCase{.name = "crash_scalar", .path = Path::kScalar, .group = 1,
                   .crash_after_op = 2000, .digest = 0x87355cce5d14cd0dULL},
        GoldenCase{.name = "crash_vec7", .path = Path::kVectored, .group = 7,
                   .crash_after_op = 2000, .digest = 0xe230492122871532ULL},
        GoldenCase{.name = "clean_reopen_scalar", .path = Path::kScalar, .group = 1,
                   .clean_reopen = true, .digest = 0xc26f737b63226ff8ULL},
        GoldenCase{.name = "clean_reopen_vec7", .path = Path::kVectored, .group = 7,
                   .clean_reopen = true, .digest = 0x114a73f49cbff335ULL}),
    [](const ::testing::TestParamInfo<GoldenCase>& golden) {
      return std::string(golden.param.name);
    });

}  // namespace
}  // namespace iosnap
