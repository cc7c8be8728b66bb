#include "src/nand/nand_device.h"

#include <bit>
#include <cstring>
#include <tuple>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "tests/test_util.h"

namespace iosnap {
namespace {

NandConfig TestNand() {
  NandConfig config;
  config.page_size_bytes = 512;
  config.pages_per_segment = 8;
  config.num_segments = 4;
  config.num_channels = 2;
  config.store_data = true;
  return config;
}

TEST(NandDeviceTest, FactoryFreshSegmentsAreProgrammable) {
  NandDevice dev(TestNand());
  PageHeader header;
  header.type = RecordType::kData;
  uint64_t paddr = 0;
  // NAND ships erased: programming works immediately, with no erase on record.
  ASSERT_OK(dev.ProgramPage(0, header, {}, 0, &paddr).status());
  EXPECT_EQ(dev.stats().segments_erased, 0u);
  EXPECT_TRUE(dev.SegmentErased(0));
}

TEST(NandDeviceTest, ProgramReadRoundTrip) {
  NandDevice dev(TestNand());
  ASSERT_OK(dev.EraseSegment(0, 0).status());

  PageHeader header;
  header.type = RecordType::kData;
  header.lba = 42;
  header.epoch = 3;
  header.seq = 99;
  const std::vector<uint8_t> data = PageData(512, 42, 1);
  uint64_t paddr = 0;
  ASSERT_OK_AND_ASSIGN(NandOp op, dev.ProgramPage(0, header, data, 0, &paddr));
  EXPECT_EQ(paddr, 0u);
  EXPECT_GT(op.finish_ns, op.issue_ns);

  PageHeader read_header;
  std::vector<uint8_t> read_data;
  ASSERT_OK(dev.ReadPage(paddr, op.finish_ns, &read_header, &read_data).status());
  EXPECT_EQ(read_header.lba, 42u);
  EXPECT_EQ(read_header.epoch, 3u);
  EXPECT_EQ(read_header.seq, 99u);
  EXPECT_EQ(read_data, data);
}

TEST(NandDeviceTest, PagesProgramSequentiallyWithinSegment) {
  NandDevice dev(TestNand());
  ASSERT_OK(dev.EraseSegment(1, 0).status());
  PageHeader header;
  header.type = RecordType::kData;
  for (uint64_t i = 0; i < 8; ++i) {
    uint64_t paddr = 0;
    ASSERT_OK(dev.ProgramPage(1, header, {}, 0, &paddr).status());
    EXPECT_EQ(paddr, dev.FirstPageOf(1) + i);
  }
  uint64_t paddr = 0;
  EXPECT_EQ(dev.ProgramPage(1, header, {}, 0, &paddr).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(NandDeviceTest, EraseFreesPages) {
  NandDevice dev(TestNand());
  ASSERT_OK(dev.EraseSegment(0, 0).status());
  PageHeader header;
  header.type = RecordType::kData;
  uint64_t paddr = 0;
  ASSERT_OK(dev.ProgramPage(0, header, {}, 0, &paddr).status());
  EXPECT_TRUE(dev.IsProgrammed(paddr));
  ASSERT_OK(dev.EraseSegment(0, 0).status());
  EXPECT_FALSE(dev.IsProgrammed(paddr));
  EXPECT_EQ(dev.NextFreePage(0), 0u);
  EXPECT_EQ(dev.EraseCount(0), 2u);
}

TEST(NandDeviceTest, ReadOfFreePageFails) {
  NandDevice dev(TestNand());
  ASSERT_OK(dev.EraseSegment(0, 0).status());
  EXPECT_EQ(dev.ReadPage(3, 0, nullptr, nullptr).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(NandDeviceTest, OutOfRangeAddressesRejected) {
  NandDevice dev(TestNand());
  EXPECT_EQ(dev.EraseSegment(99, 0).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dev.ReadPage(1 << 20, 0, nullptr, nullptr).status().code(),
            StatusCode::kOutOfRange);
  PageHeader header;
  uint64_t paddr = 0;
  EXPECT_EQ(dev.ProgramPage(99, header, {}, 0, &paddr).status().code(),
            StatusCode::kOutOfRange);
}

TEST(NandDeviceTest, ScanSegmentHeadersReturnsProgrammedPages) {
  NandDevice dev(TestNand());
  ASSERT_OK(dev.EraseSegment(2, 0).status());
  PageHeader header;
  header.type = RecordType::kData;
  for (uint64_t i = 0; i < 3; ++i) {
    header.lba = 10 + i;
    header.seq = i;
    uint64_t paddr = 0;
    ASSERT_OK(dev.ProgramPage(2, header, {}, 0, &paddr).status());
  }
  std::vector<std::pair<uint64_t, PageHeader>> out;
  const uint64_t idle = dev.DrainTimeNs();  // Wait out the erase/program backlog.
  ASSERT_OK_AND_ASSIGN(NandOp op, dev.ScanSegmentHeaders(2, idle, &out));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].second.lba, 10u);
  EXPECT_EQ(out[2].second.lba, 12u);
  // Scan cost: 3 pages * header_scan_ns.
  EXPECT_EQ(op.finish_ns - op.issue_ns, 3 * dev.config().header_scan_ns_per_page);
}

// Recovery scans every segment into one vector, so appending must keep geometric
// growth: a reserve of exactly the segment's pages would reallocate (and copy every
// header scanned so far) once per segment.
TEST(NandDeviceTest, ScanningManySegmentsIntoOneVectorReallocatesLogarithmically) {
  NandConfig config = TestNand();
  config.num_segments = 64;
  NandDevice dev(config);
  PageHeader header;
  header.type = RecordType::kData;
  for (uint64_t seg = 0; seg < config.num_segments; ++seg) {
    for (uint64_t page = 0; page < config.pages_per_segment; ++page) {
      uint64_t paddr = 0;
      ASSERT_OK(dev.ProgramPage(seg, header, {}, 0, &paddr).status());
    }
  }
  std::vector<std::pair<uint64_t, PageHeader>> out;
  uint64_t reallocations = 0;
  for (uint64_t seg = 0; seg < config.num_segments; ++seg) {
    const auto* before = out.data();
    ASSERT_OK(dev.ScanSegmentHeaders(seg, dev.DrainTimeNs(), &out).status());
    reallocations += out.data() != before ? 1 : 0;
  }
  const uint64_t records = config.num_segments * config.pages_per_segment;
  ASSERT_EQ(out.size(), records);
  const uint64_t log2_records = std::bit_width(records) - 1;
  EXPECT_LE(reallocations, 2 + log2_records);
}

TEST(NandDeviceTest, ChannelContentionSerializes) {
  NandConfig config = TestNand();
  config.num_channels = 1;
  config.bus_ns_per_page = 0;
  NandDevice dev(config);
  ASSERT_OK(dev.EraseSegment(0, 0).status());
  PageHeader header;
  header.type = RecordType::kData;
  uint64_t paddr = 0;
  // Two programs issued at the same instant on one channel: the second waits for the
  // first (both also queue behind the preceding erase on that channel).
  const uint64_t idle = dev.DrainTimeNs();
  ASSERT_OK_AND_ASSIGN(NandOp op1, dev.ProgramPage(0, header, {}, idle, &paddr));
  ASSERT_OK_AND_ASSIGN(NandOp op2, dev.ProgramPage(0, header, {}, idle, &paddr));
  EXPECT_EQ(op1.finish_ns, idle + config.program_ns);
  EXPECT_EQ(op2.finish_ns, idle + 2 * config.program_ns);
}

TEST(NandDeviceTest, BusCapsParallelism) {
  NandConfig config = TestNand();
  config.num_channels = 2;
  NandDevice dev(config);
  ASSERT_OK(dev.EraseSegment(0, 0).status());
  ASSERT_OK(dev.EraseSegment(1, 0).status());
  PageHeader header;
  header.type = RecordType::kData;
  uint64_t paddr = 0;
  // Pages 0 (channel 0) and first page of segment 1 (channel depends on stripe); both
  // must serialize their bus transfer even on distinct channels.
  ASSERT_OK_AND_ASSIGN(NandOp op1, dev.ProgramPage(0, header, {}, 0, &paddr));
  ASSERT_OK_AND_ASSIGN(NandOp op2, dev.ProgramPage(1, header, {}, 0, &paddr));
  EXPECT_GE(op2.finish_ns, op1.issue_ns + 2 * config.bus_ns_per_page);
}

TEST(NandDeviceTest, WearOutReported) {
  NandConfig config = TestNand();
  config.max_erase_count = 3;
  NandDevice dev(config);
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(dev.EraseSegment(0, 0).status());
  }
  EXPECT_EQ(dev.EraseSegment(0, 0).status().code(), StatusCode::kResourceExhausted);
}

TEST(NandDeviceTest, HeaderOnlyModeDropsPayload) {
  NandConfig config = TestNand();
  config.store_data = false;
  NandDevice dev(config);
  ASSERT_OK(dev.EraseSegment(0, 0).status());
  PageHeader header;
  header.type = RecordType::kData;
  const std::vector<uint8_t> data = PageData(512, 1, 1);
  uint64_t paddr = 0;
  ASSERT_OK(dev.ProgramPage(0, header, data, 0, &paddr).status());
  std::vector<uint8_t> read_data;
  ASSERT_OK(dev.ReadPage(paddr, 0, nullptr, &read_data).status());
  EXPECT_TRUE(read_data.empty());

  // ... but tree summaries keep payloads even in header-only mode.
  header.type = RecordType::kTreeSummary;
  ASSERT_OK(dev.ProgramPage(0, header, data, 0, &paddr).status());
  ASSERT_OK(dev.ReadPage(paddr, 0, nullptr, &read_data).status());
  EXPECT_EQ(read_data, data);
}

TEST(NandDeviceTest, DrainTimeTracksBusiestChannel) {
  NandDevice dev(TestNand());
  ASSERT_OK(dev.EraseSegment(0, 0).status());
  EXPECT_GT(dev.DrainTimeNs(), 0u);
  PageHeader header;
  header.type = RecordType::kData;
  uint64_t paddr = 0;
  ASSERT_OK_AND_ASSIGN(NandOp op, dev.ProgramPage(0, header, {}, 0, &paddr));
  EXPECT_GE(dev.DrainTimeNs(), op.finish_ns);
}

TEST(NandDeviceTest, ProgramBatchMatchesSequentialProgramsAtSharedIssueTime) {
  NandDevice batched(TestNand());
  NandDevice scalar(TestNand());

  std::vector<std::vector<uint8_t>> payloads;
  std::vector<NandDevice::ProgramRequest> requests;
  for (uint64_t i = 0; i < 6; ++i) {
    payloads.push_back(PageData(512, i, 1));
  }
  for (uint64_t i = 0; i < 6; ++i) {
    PageHeader header;
    header.type = RecordType::kData;
    header.lba = i;
    header.seq = i;
    requests.push_back({header, payloads[i]});
  }
  constexpr uint64_t kIssue = 1000;
  std::vector<uint64_t> paddrs;
  std::vector<NandOp> ops;
  ASSERT_OK(batched.ProgramBatch(0, requests, kIssue, &paddrs, &ops));
  ASSERT_EQ(paddrs.size(), 6u);
  ASSERT_EQ(ops.size(), 6u);

  for (uint64_t i = 0; i < 6; ++i) {
    uint64_t paddr = 0;
    ASSERT_OK_AND_ASSIGN(NandOp op,
                         scalar.ProgramPage(0, requests[i].header, payloads[i], kIssue,
                                            &paddr));
    EXPECT_EQ(paddrs[i], paddr) << i;
    EXPECT_EQ(ops[i].issue_ns, op.issue_ns) << i;
    EXPECT_EQ(ops[i].finish_ns, op.finish_ns) << i;
  }
  EXPECT_EQ(batched.DrainTimeNs(), scalar.DrainTimeNs());

  // Consecutive pages round-robin channels, so with 2 channels the batch overlaps:
  // page 2 shares a channel with page 0 and must start after it, but pages 0 and 1
  // proceed in parallel.
  EXPECT_EQ(ops[0].issue_ns, kIssue);
  EXPECT_LT(ops[1].finish_ns, ops[2].finish_ns);
}

TEST(NandDeviceTest, ProgramBatchRejectsOverflowUpFront) {
  NandDevice dev(TestNand());  // 8 pages per segment.
  std::vector<NandDevice::ProgramRequest> requests(9);
  for (auto& r : requests) {
    r.header.type = RecordType::kData;
  }
  std::vector<uint64_t> paddrs;
  std::vector<NandOp> ops;
  EXPECT_FALSE(dev.ProgramBatch(0, requests, 0, &paddrs, &ops).ok());
  // Nothing was programmed: validation happens before any commit.
  EXPECT_EQ(dev.NextFreePage(0), 0u);
  EXPECT_TRUE(paddrs.empty());

  requests.resize(8);
  ASSERT_OK(dev.ProgramBatch(0, requests, 0, &paddrs, &ops));
  EXPECT_EQ(dev.NextFreePage(0), 8u);
}

TEST(NandDeviceTest, CopybackSameChannelStaysOffBus) {
  NandConfig config = TestNand();
  NandDevice dev(config);
  PageHeader header;
  header.type = RecordType::kData;
  header.lba = 21;
  header.epoch = 2;
  header.seq = 5;
  const std::vector<uint8_t> data = PageData(512, 21, 4);
  uint64_t src = 0;
  ASSERT_OK(dev.ProgramPage(0, header, data, 0, &src).status());
  ASSERT_EQ(src % config.num_channels, 0u);

  // Segment 2's first free page is paddr 16 — channel 0, same as the source, so the
  // copy happens inside the die: no bus occupancy at all.
  const uint64_t idle = dev.DrainTimeNs();
  uint64_t dst = 0;
  ASSERT_OK_AND_ASSIGN(NandOp op, dev.CopybackPage(src, 2, idle, &dst));
  EXPECT_EQ(dst, dev.FirstPageOf(2));
  EXPECT_EQ(op.bus_ns, 0u);
  EXPECT_EQ(op.cell_ns, config.read_ns + config.program_ns);
  EXPECT_EQ(op.finish_ns, idle + config.read_ns + config.program_ns);
  EXPECT_EQ(dev.stats().copyback_pages, 1u);
  EXPECT_EQ(dev.stats().copyback_fallbacks, 0u);
  // Copyback is not a host read: only the program side of the ledger moves.
  EXPECT_EQ(dev.stats().pages_read, 0u);
  EXPECT_EQ(dev.stats().pages_programmed, 2u);

  // The stored bytes travelled verbatim.
  PageHeader out;
  std::vector<uint8_t> out_data;
  ASSERT_OK(dev.ReadPage(dst, op.finish_ns, &out, &out_data).status());
  EXPECT_EQ(out.lba, 21u);
  EXPECT_EQ(out.epoch, 2u);
  EXPECT_EQ(out.seq, 5u);
  EXPECT_EQ(out_data, data);
}

TEST(NandDeviceTest, CopybackCrossChannelFallsBackToReadProgram) {
  NandConfig config = TestNand();
  NandDevice dev(config);
  PageHeader header;
  header.type = RecordType::kData;
  uint64_t paddr = 0;
  ASSERT_OK(dev.ProgramPage(0, header, {}, 0, &paddr).status());
  uint64_t src = 0;
  ASSERT_OK(dev.ProgramPage(0, header, {}, 0, &src).status());
  ASSERT_EQ(src % config.num_channels, 1u);  // Source on channel 1.

  // Destination (segment 2, page 16) is channel 0: the same-channel constraint fails
  // and the device pays an internal read + program, bus transfers on both legs,
  // reported as one combined op whose spans still sum to its latency.
  const uint64_t idle = dev.DrainTimeNs();
  uint64_t dst = 0;
  ASSERT_OK_AND_ASSIGN(NandOp op, dev.CopybackPage(src, 2, idle, &dst));
  EXPECT_EQ(op.bus_ns, 2 * config.bus_ns_per_page);
  EXPECT_EQ(op.cell_ns, config.read_ns + config.program_ns);
  EXPECT_EQ(op.finish_ns - op.issue_ns,
            op.chan_wait_ns + op.bus_wait_ns + op.bus_ns + op.cell_ns);
  EXPECT_EQ(op.finish_ns,
            idle + 2 * config.bus_ns_per_page + config.read_ns + config.program_ns);
  EXPECT_EQ(dev.stats().copyback_pages, 1u);
  EXPECT_EQ(dev.stats().copyback_fallbacks, 1u);
}

TEST(NandDeviceTest, CopybackBatchMatchesSequentialCopybacks) {
  NandDevice batched(TestNand());
  NandDevice scalar(TestNand());
  std::vector<uint64_t> srcs;
  for (uint64_t i = 0; i < 6; ++i) {
    PageHeader header;
    header.type = RecordType::kData;
    header.lba = i;
    header.seq = i;
    const std::vector<uint8_t> data = PageData(512, i, 7);
    uint64_t paddr = 0;
    ASSERT_OK(batched.ProgramPage(0, header, data, 0, &paddr).status());
    ASSERT_OK(scalar.ProgramPage(0, header, data, 0, &paddr).status());
    srcs.push_back(paddr);
  }

  constexpr uint64_t kIssue = 1000000;
  std::vector<uint64_t> dsts;
  std::vector<NandOp> ops;
  ASSERT_OK(batched.CopybackBatch(srcs, 2, kIssue, &dsts, &ops));
  ASSERT_EQ(dsts.size(), 6u);
  ASSERT_EQ(ops.size(), 6u);
  for (uint64_t i = 0; i < 6; ++i) {
    uint64_t dst = 0;
    ASSERT_OK_AND_ASSIGN(NandOp op, scalar.CopybackPage(srcs[i], 2, kIssue, &dst));
    EXPECT_EQ(dsts[i], dst) << i;
    EXPECT_EQ(ops[i].issue_ns, op.issue_ns) << i;
    EXPECT_EQ(ops[i].finish_ns, op.finish_ns) << i;
    EXPECT_EQ(ops[i].bus_ns, op.bus_ns) << i;
  }
  EXPECT_EQ(batched.DrainTimeNs(), scalar.DrainTimeNs());
  EXPECT_EQ(0, std::memcmp(&batched.stats(), &scalar.stats(), sizeof(NandStats)));

  // Overflow is rejected up front: nothing is copied.
  std::vector<uint64_t> too_many(9, srcs[0]);
  EXPECT_FALSE(batched.CopybackBatch(too_many, 3, kIssue, &dsts, &ops).ok());
  EXPECT_EQ(batched.NextFreePage(3), 0u);
}

TEST(NandDeviceTest, MultipleBusesLiftTransferSerialization) {
  // Two pages on distinct channels issued at the same instant: with one shared bus the
  // transfers serialize; with buses == channels each channel owns a bus and neither
  // transfer waits.
  NandConfig shared = TestNand();
  NandConfig striped = TestNand();
  striped.buses = 2;
  NandDevice one(shared);
  NandDevice two(striped);
  PageHeader header;
  header.type = RecordType::kData;
  for (NandDevice* dev : {&one, &two}) {
    uint64_t paddr = 0;
    ASSERT_OK_AND_ASSIGN(NandOp op1, dev->ProgramPage(0, header, {}, 0, &paddr));
    ASSERT_OK_AND_ASSIGN(NandOp op2, dev->ProgramPage(0, header, {}, 0, &paddr));
    EXPECT_EQ(op1.bus_wait_ns, 0u);
    if (dev == &one) {
      EXPECT_EQ(op2.bus_wait_ns, shared.bus_ns_per_page);
    } else {
      EXPECT_EQ(op2.bus_wait_ns, 0u);
      EXPECT_EQ(op2.finish_ns, op1.finish_ns);
    }
  }
  EXPECT_EQ(two.NumBuses(), 2u);
  EXPECT_EQ(two.BusActiveNs(0), shared.bus_ns_per_page);
  EXPECT_EQ(two.BusActiveNs(1), shared.bus_ns_per_page);
}

// buses=1 must reproduce the pre-multi-bus scalar-bus arithmetic bit for bit. The
// reference model below *is* that arithmetic (single bus horizon shared by every
// channel); a randomized schedule of programs, reads, scans, and erases must match
// it on every completion time and span.
TEST(NandDeviceTest, SingleBusMatchesScalarReferenceModel) {
  NandConfig config = TestNand();
  config.num_channels = 4;
  config.num_segments = 8;
  NandDevice dev(config);

  std::vector<uint64_t> chan_busy(config.num_channels, 0);
  uint64_t bus_busy = 0;
  auto reference = [&](uint32_t channel, uint64_t issue, uint64_t bus_ns,
                       uint64_t cell_ns) {
    uint64_t start = std::max(issue, chan_busy[channel]);
    const uint64_t chan_wait = start - issue;
    uint64_t bus_wait = 0;
    if (bus_ns > 0) {
      const uint64_t bus_start = std::max(start, bus_busy);
      bus_wait = bus_start - start;
      bus_busy = bus_start + bus_ns;
      start = bus_start + bus_ns;
    }
    const uint64_t finish = start + cell_ns;
    chan_busy[channel] = finish;
    return std::tuple<uint64_t, uint64_t, uint64_t>(finish, chan_wait, bus_wait);
  };

  Rng rng(2026);
  std::vector<uint64_t> programmed;
  uint64_t now = 0;
  PageHeader header;
  header.type = RecordType::kData;
  for (int i = 0; i < 400; ++i) {
    now += rng.NextBelow(40000);  // Issue times drift so horizons stay contended.
    const uint64_t pick = rng.NextBelow(programmed.empty() ? 2 : 4);
    if (pick <= 1) {
      const uint64_t segment = rng.NextBelow(config.num_segments);
      header.lba = i;
      uint64_t paddr = 0;
      auto op = dev.ProgramPage(segment, header, {}, now, &paddr);
      if (!op.ok()) {
        continue;  // Full segment: no device time consumed, model unchanged.
      }
      auto [finish, chan_wait, bus_wait] = reference(
          (uint32_t)(paddr % config.num_channels), now, config.bus_ns_per_page,
          config.program_ns);
      ASSERT_EQ(op->finish_ns, finish) << "op " << i;
      ASSERT_EQ(op->chan_wait_ns, chan_wait) << "op " << i;
      ASSERT_EQ(op->bus_wait_ns, bus_wait) << "op " << i;
      programmed.push_back(paddr);
    } else if (pick == 2) {
      const uint64_t paddr = programmed[rng.NextBelow(programmed.size())];
      if (!dev.IsProgrammed(paddr)) {
        continue;
      }
      ASSERT_OK_AND_ASSIGN(NandOp op, dev.ReadPage(paddr, now, nullptr, nullptr));
      auto [finish, chan_wait, bus_wait] = reference(
          (uint32_t)(paddr % config.num_channels), now, config.bus_ns_per_page,
          config.read_ns);
      ASSERT_EQ(op.finish_ns, finish) << "op " << i;
      ASSERT_EQ(op.chan_wait_ns, chan_wait) << "op " << i;
      ASSERT_EQ(op.bus_wait_ns, bus_wait) << "op " << i;
    } else {
      const uint64_t segment = rng.NextBelow(config.num_segments);
      ASSERT_OK_AND_ASSIGN(NandOp op, dev.EraseSegment(segment, now));
      auto [finish, chan_wait, bus_wait] = reference(
          (uint32_t)(segment % config.num_channels), now, 0, config.erase_ns);
      ASSERT_EQ(op.finish_ns, finish) << "op " << i;
      ASSERT_EQ(op.chan_wait_ns, chan_wait) << "op " << i;
      ASSERT_EQ(op.bus_wait_ns, bus_wait) << "op " << i;
    }
  }
  ASSERT_GT(programmed.size(), 100u);
}

TEST(NandFaultTest, CrcDetectsSilentCorruption) {
  NandDevice dev(TestNand());
  PageHeader header;
  header.type = RecordType::kData;
  header.lba = 7;
  header.seq = 1;
  const std::vector<uint8_t> data = PageData(512, 7, 3);
  uint64_t paddr = 0;
  ASSERT_OK(dev.ProgramPage(0, header, data, 0, &paddr).status());

  // Clean read first: the CRC stamped at program time verifies.
  std::vector<uint8_t> read_data;
  ASSERT_OK(dev.ReadPage(paddr, 0, nullptr, &read_data).status());
  EXPECT_EQ(read_data, data);
  EXPECT_EQ(dev.stats().crc_errors, 0u);

  dev.CorruptPageForTesting(paddr);
  EXPECT_EQ(dev.ReadPage(paddr, 0, nullptr, &read_data).status().code(),
            StatusCode::kDataLoss);
  EXPECT_GE(dev.stats().crc_errors, 1u);
  EXPECT_EQ(dev.stats().pages_corrupted, 1u);

  // A permanent error never improves with retries.
  EXPECT_EQ(dev.ReadPageWithRetry(paddr, 0, nullptr, &read_data, 5).status().code(),
            StatusCode::kDataLoss);
}

TEST(NandFaultTest, HeaderScanDropsCorruptPages) {
  NandDevice dev(TestNand());
  PageHeader header;
  header.type = RecordType::kData;
  std::vector<uint64_t> paddrs;
  for (uint64_t i = 0; i < 4; ++i) {
    header.lba = i;
    header.seq = i;
    uint64_t paddr = 0;
    ASSERT_OK(dev.ProgramPage(0, header, PageData(512, i, 1), 0, &paddr).status());
    paddrs.push_back(paddr);
  }
  dev.CorruptPageForTesting(paddrs[2]);

  std::vector<std::pair<uint64_t, PageHeader>> out;
  ASSERT_OK(dev.ScanSegmentHeaders(0, dev.DrainTimeNs(), &out).status());
  ASSERT_EQ(out.size(), 3u);
  for (const auto& [paddr, h] : out) {
    EXPECT_NE(paddr, paddrs[2]);
  }
  // The corrupt page still costs scan time and is counted.
  EXPECT_EQ(dev.stats().headers_scanned, 4u);
  EXPECT_GE(dev.stats().crc_errors, 1u);
}

TEST(NandFaultTest, CorruptionInHeaderOnlyModeIsDetected) {
  NandConfig config = TestNand();
  config.store_data = false;  // No payload stored: corruption flips a header bit.
  NandDevice dev(config);
  PageHeader header;
  header.type = RecordType::kData;
  header.lba = 11;
  uint64_t paddr = 0;
  ASSERT_OK(dev.ProgramPage(0, header, PageData(512, 11, 1), 0, &paddr).status());
  dev.CorruptPageForTesting(paddr);
  EXPECT_EQ(dev.ReadPage(paddr, 0, nullptr, nullptr).status().code(),
            StatusCode::kDataLoss);
}

TEST(NandFaultTest, TransientReadFailuresRetryAndSurface) {
  NandConfig config = TestNand();
  config.fault.read_fail_ppm = 1000000;  // Every read op fails.
  NandDevice dev(config);
  PageHeader header;
  header.type = RecordType::kData;
  uint64_t paddr = 0;
  ASSERT_OK(dev.ProgramPage(0, header, {}, 0, &paddr).status());

  auto read = dev.ReadPageWithRetry(paddr, 0, nullptr, nullptr, 3);
  EXPECT_EQ(read.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(dev.stats().read_failures, 3u);
  EXPECT_EQ(dev.stats().read_retries, 2u);

  // Disarming restores normal reads; the media itself is undamaged.
  dev.ClearFaults();
  ASSERT_OK(dev.ReadPage(paddr, 0, nullptr, nullptr).status());
}

TEST(NandFaultTest, ProgramFailureConsumesSlotAndRetiresSegment) {
  NandConfig config = TestNand();
  config.fault.program_fail_ppm = 1000000;  // Every program op fails.
  NandDevice dev(config);
  PageHeader header;
  header.type = RecordType::kData;
  uint64_t paddr = 0;
  EXPECT_EQ(dev.ProgramPage(0, header, {}, 0, &paddr).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(dev.stats().program_failures, 1u);
  EXPECT_TRUE(dev.IsBadSegment(0));
  EXPECT_EQ(dev.NextFreePage(0), 1u);  // The failed program consumed the slot.
  EXPECT_FALSE(dev.IsProgrammed(dev.FirstPageOf(0)));

  // Further programs to a grown bad block are rejected outright.
  EXPECT_EQ(dev.ProgramPage(0, header, {}, 0, &paddr).status().code(),
            StatusCode::kDataLoss);
}

TEST(NandFaultTest, CrashAfterOpTakesDeviceOffline) {
  NandConfig config = TestNand();
  config.fault.crash_after_op = 2;
  NandDevice dev(config);
  PageHeader header;
  header.type = RecordType::kData;
  uint64_t paddr = 0;
  ASSERT_OK(dev.ProgramPage(0, header, {}, 0, &paddr).status());
  ASSERT_OK(dev.ProgramPage(0, header, {}, 0, &paddr).status());
  EXPECT_FALSE(dev.fault().crashed());
  EXPECT_EQ(dev.ProgramPage(0, header, {}, 0, &paddr).status().code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(dev.fault().crashed());
  // Offline means *everything* fails, with no state change.
  EXPECT_EQ(dev.ReadPage(0, 0, nullptr, nullptr).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(dev.EraseSegment(1, 0).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(dev.NextFreePage(0), 2u);

  // Power cycle: ClearFaults brings the device back with its contents intact.
  dev.ClearFaults();
  ASSERT_OK(dev.ReadPage(0, 0, nullptr, nullptr).status());
  ASSERT_OK(dev.ProgramPage(0, header, {}, 0, &paddr).status());
}

TEST(NandFaultTest, TornBatchKeepsCommittedPrefix) {
  NandConfig config = TestNand();
  config.fault.crash_after_op = 3;
  NandDevice dev(config);
  std::vector<NandDevice::ProgramRequest> requests(6);
  for (uint64_t i = 0; i < requests.size(); ++i) {
    requests[i].header.type = RecordType::kData;
    requests[i].header.lba = i;
  }
  std::vector<uint64_t> paddrs;
  std::vector<NandOp> ops;
  EXPECT_EQ(dev.ProgramBatch(0, requests, 0, &paddrs, &ops).code(),
            StatusCode::kUnavailable);
  // Exactly the pre-crash prefix is durable.
  EXPECT_EQ(paddrs.size(), 3u);
  EXPECT_EQ(dev.NextFreePage(0), 3u);
  for (uint64_t p : paddrs) {
    EXPECT_TRUE(dev.IsProgrammed(p));
  }
}

TEST(NandFaultTest, MaxEraseCountExcludesBadSegments) {
  NandConfig config = TestNand();
  config.fault.bad_block_schedule = {{0, 6}};  // Segment 0 dies on its 6th erase.
  NandDevice dev(config);
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(dev.EraseSegment(0, 0).status());
  }
  ASSERT_OK(dev.EraseSegment(1, 0).status());
  EXPECT_EQ(dev.MaxEraseCount(), 5u);

  EXPECT_EQ(dev.EraseSegment(0, 0).status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(dev.IsBadSegment(0));
  EXPECT_EQ(dev.stats().erase_failures, 1u);
  // The retired segment no longer dominates the wear statistic.
  EXPECT_EQ(dev.MaxEraseCount(), 1u);
}

TEST(NandFaultTest, CopybackScrubCatchesCorruptSource) {
  NandDevice dev(TestNand());  // copyback_scrub defaults on.
  PageHeader header;
  header.type = RecordType::kData;
  header.lba = 9;
  uint64_t src = 0;
  ASSERT_OK(dev.ProgramPage(0, header, PageData(512, 9, 1), 0, &src).status());
  dev.CorruptPageForTesting(src);

  uint64_t dst = 0;
  EXPECT_EQ(dev.CopybackPage(src, 2, 0, &dst).status().code(), StatusCode::kDataLoss);
  EXPECT_GE(dev.stats().crc_errors, 1u);
  // The scrub fires before the destination slot is consumed: nothing was relocated.
  EXPECT_EQ(dev.NextFreePage(2), 0u);
  EXPECT_EQ(dev.stats().copyback_pages, 0u);
  EXPECT_FALSE(dev.PageCrcIntact(src));
}

TEST(NandFaultTest, CopybackWithoutScrubRelocatesCorruptionDetectably) {
  NandConfig config = TestNand();
  config.copyback_scrub = false;
  NandDevice dev(config);
  PageHeader header;
  header.type = RecordType::kData;
  header.lba = 9;
  uint64_t src = 0;
  ASSERT_OK(dev.ProgramPage(0, header, PageData(512, 9, 1), 0, &src).status());
  dev.CorruptPageForTesting(src);

  // Without the scrub the corrupt bytes are copied verbatim — but because the stored
  // CRC travels with them, the next host read of the copy still reports the damage
  // instead of laundering it behind a freshly computed checksum.
  uint64_t dst = 0;
  ASSERT_OK(dev.CopybackPage(src, 2, 0, &dst).status());
  EXPECT_EQ(dev.stats().copyback_pages, 1u);
  EXPECT_EQ(dev.ReadPage(dst, 0, nullptr, nullptr).status().code(),
            StatusCode::kDataLoss);
}

TEST(NandFaultTest, ReadDisturbCorruptsAfterRepeatedReads) {
  NandConfig config = TestNand();
  config.fault.read_disturb_ppm_per_k_reads = 1000000;
  NandDevice dev(config);
  PageHeader header;
  header.type = RecordType::kData;
  header.lba = 5;
  uint64_t paddr = 0;
  ASSERT_OK(dev.ProgramPage(0, header, PageData(512, 5, 1), 0, &paddr).status());

  // The effective rate is rate * (segment_reads / 1000): reads 1..999 draw at zero
  // ppm; the 1000th read of the segment reaches certainty and fails its own CRC
  // check (wear is applied before verification).
  for (uint64_t i = 0; i < 999; ++i) {
    ASSERT_OK(dev.ReadPage(paddr, 0, nullptr, nullptr).status()) << "read " << i;
  }
  EXPECT_EQ(dev.ReadPage(paddr, 0, nullptr, nullptr).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(dev.stats().read_disturb_corruptions, 1u);
  EXPECT_EQ(dev.stats().retention_corruptions, 0u);
  EXPECT_EQ(dev.SegmentReadCount(0), 1000u);
  EXPECT_FALSE(dev.PageCrcIntact(paddr));
}

TEST(NandFaultTest, RetentionCorruptsOldPages) {
  NandConfig config = TestNand();
  config.fault.retention_ppm_per_sec = 1000000;
  NandDevice dev(config);
  PageHeader header;
  header.type = RecordType::kData;
  header.lba = 3;
  uint64_t paddr = 0;
  ASSERT_OK(dev.ProgramPage(0, header, PageData(512, 3, 1), 0, &paddr).status());

  // Young page: age < 1 virtual second draws at zero ppm.
  ASSERT_OK(dev.ReadPage(paddr, 500000000, nullptr, nullptr).status());
  // Old page: at 1e6 ppm/sec one second of age reaches certainty.
  EXPECT_EQ(dev.ReadPage(paddr, 2000000000, nullptr, nullptr).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(dev.stats().retention_corruptions, 1u);
  EXPECT_EQ(dev.stats().read_disturb_corruptions, 0u);
}

TEST(NandFaultTest, EraseResetsWearState) {
  NandConfig config = TestNand();
  config.fault.read_disturb_ppm_per_k_reads = 1000000;
  config.fault.retention_ppm_per_sec = 1000000;
  NandDevice dev(config);
  PageHeader header;
  header.type = RecordType::kData;
  uint64_t paddr = 0;
  ASSERT_OK(dev.ProgramPage(0, header, PageData(512, 0, 1), 0, &paddr).status());
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_OK(dev.ReadPage(paddr, 0, nullptr, nullptr).status());
  }
  EXPECT_EQ(dev.SegmentReadCount(0), 500u);

  // Erase: fresh oxide. The read counter restarts and a page programmed after the
  // erase is young again — a read a long virtual time after the *first* program
  // draws on the new page's age, not the segment's history.
  ASSERT_OK(dev.EraseSegment(0, 0).status());
  EXPECT_EQ(dev.SegmentReadCount(0), 0u);
  const uint64_t reprogram_ns = 3000000000;
  ASSERT_OK(dev.ProgramPage(0, header, PageData(512, 0, 2), reprogram_ns, &paddr)
                .status());
  EXPECT_EQ(dev.PageProgrammedAtNs(paddr), reprogram_ns);
  ASSERT_OK(dev.ReadPage(paddr, reprogram_ns + 500000000, nullptr, nullptr).status());
  EXPECT_EQ(dev.stats().read_disturb_corruptions, 0u);
  EXPECT_EQ(dev.stats().retention_corruptions, 0u);
}

TEST(NandFaultTest, DisarmKeepsCorruptedMedia) {
  // ClearFaults() stops future *draws*; it must not heal damage already done.
  // Wear decay is physical: a page corrupted by retention loss still fails its
  // CRC after the injection schedule is disarmed (e.g. across a power cycle).
  NandConfig config = TestNand();
  config.fault.retention_ppm_per_sec = 1000000;
  NandDevice dev(config);
  PageHeader header;
  header.type = RecordType::kData;
  header.lba = 8;
  uint64_t paddr = 0;
  ASSERT_OK(dev.ProgramPage(0, header, PageData(512, 8, 1), 0, &paddr).status());
  EXPECT_EQ(dev.ReadPage(paddr, 5000000000, nullptr, nullptr).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(dev.stats().retention_corruptions, 1u);

  dev.ClearFaults();
  EXPECT_EQ(dev.ReadPage(paddr, 9000000000, nullptr, nullptr).status().code(),
            StatusCode::kDataLoss);
  // No new wear draw happened; only the original flip is on record.
  EXPECT_EQ(dev.stats().retention_corruptions, 1u);
  EXPECT_FALSE(dev.PageCrcIntact(paddr));
}

TEST(NandFaultTest, WearCorruptionIsDeterministicPerSeed) {
  // Same seed + same op sequence => identical corruption sites and counters; the
  // basis for replayable media-reliability campaigns.
  NandConfig config = TestNand();
  config.fault.seed = 777;
  config.fault.read_disturb_ppm_per_k_reads = 400000;  // p = 0.4 past 1000 reads.
  auto run = [&config]() {
    NandDevice dev(config);
    PageHeader header;
    header.type = RecordType::kData;
    std::vector<uint64_t> paddrs;
    for (uint64_t i = 0; i < 4; ++i) {
      header.lba = i;
      uint64_t paddr = 0;
      IOSNAP_CHECK(dev.ProgramPage(0, header, PageData(512, i, 1), 0, &paddr).ok());
      paddrs.push_back(paddr);
    }
    std::vector<uint64_t> failing_reads;
    for (uint64_t i = 0; i < 1200; ++i) {
      auto read = dev.ReadPage(paddrs[i % paddrs.size()], 0, nullptr, nullptr);
      if (read.status().code() == StatusCode::kDataLoss) {
        failing_reads.push_back(i);
      }
    }
    return std::make_pair(failing_reads, dev.stats());
  };
  const auto [fails_a, stats_a] = run();
  const auto [fails_b, stats_b] = run();
  EXPECT_EQ(fails_a, fails_b);
  EXPECT_EQ(0, std::memcmp(&stats_a, &stats_b, sizeof(NandStats)));
  EXPECT_GT(stats_a.read_disturb_corruptions, 0u);
}

TEST(NandFaultTest, ZeroRatesLeaveTimingAndStateUntouched) {
  // Same ops on a default device and on one with an armed-but-zero fault config
  // must produce identical timing and stats.
  NandConfig armed = TestNand();
  armed.fault.seed = 12345;
  armed.fault.read_disturb_ppm_per_k_reads = 0;  // Wear knobs at zero must draw
  armed.fault.retention_ppm_per_sec = 0;         // no randomness on reads either.
  NandDevice a(TestNand());
  NandDevice b(armed);
  PageHeader header;
  header.type = RecordType::kData;
  for (uint64_t i = 0; i < 8; ++i) {
    header.lba = i;
    uint64_t pa = 0;
    uint64_t pb = 0;
    ASSERT_OK_AND_ASSIGN(NandOp oa, a.ProgramPage(0, header, PageData(512, i, 1), 0, &pa));
    ASSERT_OK_AND_ASSIGN(NandOp ob, b.ProgramPage(0, header, PageData(512, i, 1), 0, &pb));
    EXPECT_EQ(pa, pb);
    EXPECT_EQ(oa.finish_ns, ob.finish_ns);
    ASSERT_OK_AND_ASSIGN(NandOp ra, a.ReadPage(pa, oa.finish_ns, nullptr, nullptr));
    ASSERT_OK_AND_ASSIGN(NandOp rb, b.ReadPage(pb, ob.finish_ns, nullptr, nullptr));
    EXPECT_EQ(ra.finish_ns, rb.finish_ns);
  }
  ASSERT_OK_AND_ASSIGN(NandOp ea, a.EraseSegment(1, 0));
  ASSERT_OK_AND_ASSIGN(NandOp eb, b.EraseSegment(1, 0));
  EXPECT_EQ(ea.finish_ns, eb.finish_ns);
  EXPECT_EQ(a.DrainTimeNs(), b.DrainTimeNs());
  EXPECT_EQ(0, std::memcmp(&a.stats(), &b.stats(), sizeof(NandStats)));
}

// Image geometry is untrusted: a count the image bytes cannot back, a page count above
// the 2^24 cap, or an absurd channel/bus count ends in kDataLoss before the device is
// built from it, instead of aborting inside the NandDevice constructor.
TEST(NandImageTest, HostileGeometryIsDataLoss) {
  NandDevice dev(TestNand());
  PageHeader header;
  header.type = RecordType::kData;
  uint64_t paddr = 0;
  ASSERT_OK(dev.ProgramPage(0, header, PageData(512, 1, 1), 0, &paddr).status());
  std::vector<uint8_t> image;
  dev.SerializeTo(&image);
  ASSERT_OK(NandDevice::Deserialize(image).status());

  // Image header offsets: pages_per_segment u64 @20, num_segments u64 @28,
  // num_channels u32 @36, buses u32 @72.
  const auto load_with = [&](size_t offset, uint64_t value, size_t width) {
    std::vector<uint8_t> bytes = image;
    for (size_t i = 0; i < width; ++i) {
      bytes[offset + i] = static_cast<uint8_t>(value >> (8 * i));
    }
    return NandDevice::Deserialize(bytes).status();
  };
  // The 8-byte 0xff overwrite at offset 35 that a mutation campaign found aborting
  // iosnap_fsck: num_segments' top byte plus all of num_channels.
  std::vector<uint8_t> mutated = image;
  std::memset(mutated.data() + 35, 0xff, 8);
  const Status s = NandDevice::Deserialize(mutated).status();
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s;

  EXPECT_EQ(load_with(28, uint64_t{1} << 40, 8).code(), StatusCode::kDataLoss);
  EXPECT_EQ(load_with(28, image.size() / 26 + 1, 8).code(), StatusCode::kDataLoss);
  EXPECT_EQ(load_with(20, uint64_t{1} << 40, 8).code(), StatusCode::kDataLoss);
  // 4 segments x 2^62 pages wraps to 0 in 64 bits.
  EXPECT_EQ(load_with(20, uint64_t{1} << 62, 8).code(), StatusCode::kDataLoss);
  EXPECT_EQ(load_with(20, (uint64_t{1} << 22) + 1, 8).code(), StatusCode::kDataLoss);
  EXPECT_EQ(load_with(36, 0xffffffffu, 4).code(), StatusCode::kDataLoss);
  EXPECT_EQ(load_with(72, 0xffffffffu, 4).code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace iosnap
