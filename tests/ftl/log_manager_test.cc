#include "src/ftl/log_manager.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace iosnap {
namespace {

NandConfig TestNand() {
  NandConfig config;
  config.page_size_bytes = 512;
  config.pages_per_segment = 4;
  config.num_segments = 6;
  config.num_channels = 2;
  return config;
}

PageHeader DataHeader(uint64_t lba, uint32_t epoch, uint64_t seq) {
  PageHeader h;
  h.type = RecordType::kData;
  h.lba = lba;
  h.epoch = epoch;
  h.seq = seq;
  return h;
}

TEST(LogManagerTest, AppendsFillSegmentsInOrder) {
  NandDevice dev(TestNand());
  LogManager log(&dev, /*gc_reserve_segments=*/1);
  uint64_t seq = 0;
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_OK_AND_ASSIGN(AppendResult r,
                         log.Append(LogManager::kActiveHead, DataHeader(i, 0, seq++), {}, 0));
    EXPECT_EQ(r.paddr, i);  // Segments 0 then 1, sequential pages.
  }
  EXPECT_EQ(log.segment_info(0).state, SegmentState::kClosed);
  EXPECT_EQ(log.segment_info(1).state, SegmentState::kClosed);
  EXPECT_EQ(log.FreeSegmentCount(), 4u);
}

TEST(LogManagerTest, FactoryFreshSegmentsNeedNoErase) {
  NandDevice dev(TestNand());
  LogManager log(&dev, 1);
  ASSERT_OK_AND_ASSIGN(AppendResult r,
                       log.Append(LogManager::kActiveHead, DataHeader(0, 0, 0), {}, 0));
  // NAND ships erased: the first append pays only bus + program, no 2 ms erase.
  EXPECT_LT(r.op.finish_ns, dev.config().erase_ns);
  EXPECT_EQ(dev.stats().segments_erased, 0u);
}

TEST(LogManagerTest, ReservePreventsActiveHeadFromStarvingGc) {
  NandDevice dev(TestNand());
  LogManager log(&dev, /*gc_reserve_segments=*/2);
  uint64_t seq = 0;
  // 6 segments, reserve 2: the active head may consume 4 segments = 16 pages.
  for (uint64_t i = 0; i < 16; ++i) {
    ASSERT_OK(
        log.Append(LogManager::kActiveHead, DataHeader(i, 0, seq++), {}, 0).status());
  }
  EXPECT_FALSE(log.CanAppend(LogManager::kActiveHead));
  auto blocked = log.Append(LogManager::kActiveHead, DataHeader(99, 0, seq++), {}, 0);
  EXPECT_EQ(blocked.status().code(), StatusCode::kResourceExhausted);

  // The GC head still can.
  EXPECT_TRUE(log.CanAppend(LogManager::kGcHead));
  ASSERT_OK(log.Append(LogManager::kGcHead, DataHeader(99, 0, seq++), {}, 0).status());
}

TEST(LogManagerTest, HeadsUseDistinctSegments) {
  NandDevice dev(TestNand());
  LogManager log(&dev, 1);
  ASSERT_OK_AND_ASSIGN(AppendResult a,
                       log.Append(LogManager::kActiveHead, DataHeader(1, 0, 0), {}, 0));
  ASSERT_OK_AND_ASSIGN(AppendResult b,
                       log.Append(LogManager::kGcHead, DataHeader(2, 0, 1), {}, 0));
  EXPECT_NE(dev.SegmentOf(a.paddr), dev.SegmentOf(b.paddr));
}

TEST(LogManagerTest, ReleaseSegmentReturnsToFreePool) {
  NandDevice dev(TestNand());
  LogManager log(&dev, 1);
  uint64_t seq = 0;
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_OK(
        log.Append(LogManager::kActiveHead, DataHeader(i, 0, seq++), {}, 0).status());
  }
  ASSERT_EQ(log.ClosedSegments().size(), 1u);
  const uint64_t free_before = log.FreeSegmentCount();
  ASSERT_OK(log.ReleaseSegment(0, 0).status());
  EXPECT_EQ(log.FreeSegmentCount(), free_before + 1);
  EXPECT_EQ(log.segment_info(0).state, SegmentState::kFree);
  EXPECT_TRUE(log.ClosedSegments().empty());
  // The release itself carried the erase: the pool segment is immediately programmable.
  EXPECT_EQ(dev.EraseCount(0), 1u);
}

TEST(LogManagerTest, ReleaseRejectsOpenSegment) {
  NandDevice dev(TestNand());
  LogManager log(&dev, 1);
  ASSERT_OK(log.Append(LogManager::kActiveHead, DataHeader(0, 0, 0), {}, 0).status());
  const uint64_t open_seg = *log.OpenSegment(LogManager::kActiveHead);
  EXPECT_EQ(log.ReleaseSegment(open_seg, 0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(LogManagerTest, EpochAccountingPerSegment) {
  NandDevice dev(TestNand());
  LogManager log(&dev, 1);
  ASSERT_OK(log.Append(LogManager::kActiveHead, DataHeader(0, 3, 10), {}, 0).status());
  ASSERT_OK(log.Append(LogManager::kActiveHead, DataHeader(1, 3, 11), {}, 0).status());
  ASSERT_OK(log.Append(LogManager::kActiveHead, DataHeader(2, 4, 12), {}, 0).status());
  const SegmentInfo& info = log.segment_info(0);
  EXPECT_EQ(info.epoch_pages.at(3), 2u);
  EXPECT_EQ(info.epoch_pages.at(4), 1u);
  EXPECT_EQ(info.min_data_seq, 10u);
}

TEST(LogManagerTest, ActiveHeadFreePagesAccounting) {
  NandDevice dev(TestNand());
  LogManager log(&dev, /*gc_reserve_segments=*/2);
  // 4 usable segments x 4 pages = 16.
  EXPECT_EQ(log.ActiveHeadFreePages(), 16u);
  ASSERT_OK(log.Append(LogManager::kActiveHead, DataHeader(0, 0, 0), {}, 0).status());
  EXPECT_EQ(log.ActiveHeadFreePages(), 15u);
}

TEST(LogManagerTest, RebuildFromDeviceClassifiesSegments) {
  NandDevice dev(TestNand());
  {
    LogManager log(&dev, 1);
    uint64_t seq = 0;
    for (uint64_t i = 0; i < 6; ++i) {  // Fill segment 0, half of segment 1.
      ASSERT_OK(
          log.Append(LogManager::kActiveHead, DataHeader(i, 2, seq++), {}, 0).status());
    }
  }
  // "Crash": build a fresh manager over the same device.
  LogManager log(&dev, 1);
  log.RebuildFromDevice();
  EXPECT_EQ(log.segment_info(0).state, SegmentState::kClosed);
  EXPECT_EQ(log.segment_info(1).state, SegmentState::kOpen);
  EXPECT_EQ(*log.OpenSegment(LogManager::kActiveHead), 1u);
  EXPECT_EQ(log.segment_info(2).state, SegmentState::kFree);
  EXPECT_EQ(log.FreeSegmentCount(), 4u);

  // Appends continue into the partially written segment.
  ASSERT_OK_AND_ASSIGN(AppendResult r,
                       log.Append(LogManager::kActiveHead, DataHeader(9, 2, 100), {}, 0));
  EXPECT_EQ(r.paddr, 6u);

  log.RestoreAccounting(0, 2, 0);
  EXPECT_EQ(log.segment_info(0).epoch_pages.at(2), 1u);
}

uint64_t BadSegments(const NandDevice& dev) {
  uint64_t bad = 0;
  for (uint64_t s = 0; s < dev.config().num_segments; ++s) {
    bad += dev.IsBadSegment(s) ? 1 : 0;
  }
  return bad;
}

// Every program fails, so a record spends its whole reroute budget, one fresh segment
// per reroute, and then surfaces the device's kDataLoss.
NandConfig EveryProgramFails() {
  NandConfig config = TestNand();
  config.fault.program_fail_ppm = 1000000;
  return config;
}

// At 500,000 ppm, fault seed 10 draws one good program and then five failed ones.
NandConfig OneProgramThenFailures() {
  NandConfig config = TestNand();
  config.fault.seed = 10;
  config.fault.program_fail_ppm = 500000;
  return config;
}

constexpr uint64_t kBudget = LogManager::kMaxAppendReroutes;

TEST(LogManagerTest, AppendEndsInDataLossAfterItsRerouteBudget) {
  NandDevice dev(EveryProgramFails());
  LogManager log(&dev, 1);
  EXPECT_EQ(log.Append(LogManager::kActiveHead, DataHeader(0, 0, 0), {}, 0).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(log.stats().append_reroutes, kBudget);
  EXPECT_EQ(BadSegments(dev), kBudget + 1);
}

TEST(LogManagerTest, AppendBatchEndsInDataLossAfterItsRerouteBudget) {
  NandDevice dev(EveryProgramFails());
  LogManager log(&dev, 1);
  std::vector<LogManager::AppendRequest> requests;
  for (uint64_t i = 0; i < 3; ++i) {
    requests.push_back({DataHeader(i, 0, i), {}});
  }
  std::vector<AppendResult> results;
  EXPECT_EQ(log.AppendBatch(LogManager::kActiveHead, requests, 0, &results).code(),
            StatusCode::kDataLoss);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(log.stats().append_reroutes, kBudget);
  EXPECT_EQ(BadSegments(dev), kBudget + 1);
}

TEST(LogManagerTest, CopybackEndsInDataLossAfterItsRerouteBudget) {
  NandDevice dev(OneProgramThenFailures());
  LogManager log(&dev, 1);
  const PageHeader header = DataHeader(0, 0, 0);
  ASSERT_OK_AND_ASSIGN(AppendResult src, log.Append(LogManager::kActiveHead, header, {}, 0));
  EXPECT_EQ(log.AppendCopyback(LogManager::kGcHead, src.paddr, header, 0).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(log.stats().append_reroutes, kBudget);
  EXPECT_EQ(dev.stats().program_failures, kBudget + 1);
  EXPECT_EQ(BadSegments(dev), kBudget + 1);
}

// A head reopened on a parity slot: the parity program fails and abandons the segment,
// but only the record's own failed programs spend its budget.
TEST(LogManagerTest, FailedLeadingParitySpendsNoReroute) {
  NandDevice dev(OneProgramThenFailures());
  // The one good program leaves segment 0's next free slot on a parity slot (stripe
  // width 1 puts parity at slots 1 and 3).
  ASSERT_OK(dev.ProgramPage(0, DataHeader(0, 0, 0), {}, 0, nullptr).status());
  LogManager log(&dev, 1, /*parity_stripe=*/1);
  log.RebuildFromDevice();
  ASSERT_EQ(log.OpenSegment(LogManager::kActiveHead), std::optional<uint64_t>(0));
  EXPECT_EQ(log.Append(LogManager::kActiveHead, DataHeader(1, 0, 1), {}, 0).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(log.stats().append_reroutes, kBudget);
  EXPECT_EQ(log.stats().parity_pages_written, 0u);
  EXPECT_EQ(dev.stats().program_failures, kBudget + 2);
  EXPECT_EQ(BadSegments(dev), kBudget + 2);
}

}  // namespace
}  // namespace iosnap
