// Basic block-device behaviour of the FTL: reads, writes, overwrites, trims, bounds,
// garbage collection under pressure, write amplification sanity, and allocation-free
// one-request calls.

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/ftl.h"
#include "tests/test_util.h"

namespace iosnap {
namespace {

// Heap allocations made by this test binary (see the replaced operator new below).
std::atomic<uint64_t> g_allocations{0};

}  // namespace
}  // namespace iosnap

void* operator new(std::size_t size) {
  iosnap::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
// Out of line, so GCC does not pair an inlined free() with the operator new call at
// the use site and report a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace iosnap {
namespace {

TEST(FtlBasicTest, CreateValidatesConfig) {
  FtlConfig config = SmallConfig();
  config.overprovision = 1.0;
  EXPECT_FALSE(Ftl::Create(config).ok());

  config = SmallConfig();
  config.gc_reserve_segments = config.nand.num_segments;
  EXPECT_FALSE(Ftl::Create(config).ok());
}

// The forward map is one tree on the simulation thread: a request for map-update
// threads is a config error on both the create and the reopen path.
TEST(FtlBasicTest, MapUpdateThreadsMustBeZero) {
  FtlConfig config = SmallConfig();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Ftl> ftl, Ftl::Create(config));
  config.map_update_threads = 2;
  EXPECT_EQ(Ftl::Create(config).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Ftl::Open(config, ftl->ReleaseDevice(), 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FtlBasicTest, UnwrittenLbaReadsZeroes) {
  FtlHarness h(SmallConfig());
  EXPECT_TRUE(h.CheckLba(kPrimaryView, 0, 0));
  EXPECT_TRUE(h.CheckLba(kPrimaryView, h.ftl().LbaCount() - 1, 0));
  EXPECT_FALSE(h.ftl().IsMapped(0));
}

TEST(FtlBasicTest, WriteReadRoundTrip) {
  FtlHarness h(SmallConfig());
  ASSERT_OK(h.Write(10, 1));
  ASSERT_OK(h.Write(11, 2));
  EXPECT_TRUE(h.CheckLba(kPrimaryView, 10, 1));
  EXPECT_TRUE(h.CheckLba(kPrimaryView, 11, 2));
  EXPECT_TRUE(h.ftl().IsMapped(10));
  EXPECT_EQ(h.ftl().stats().user_writes, 2u);
  EXPECT_EQ(h.ftl().stats().user_reads, 2u);
}

TEST(FtlBasicTest, OverwriteReplacesContent) {
  FtlHarness h(SmallConfig());
  ASSERT_OK(h.Write(5, 1));
  ASSERT_OK(h.Write(5, 2));
  ASSERT_OK(h.Write(5, 3));
  EXPECT_TRUE(h.CheckLba(kPrimaryView, 5, 3));
}

TEST(FtlBasicTest, OutOfRangeRejected) {
  FtlHarness h(SmallConfig());
  const uint64_t lba_count = h.ftl().LbaCount();
  auto write = h.ftl().Write(lba_count, {}, 0);
  EXPECT_EQ(write.status().code(), StatusCode::kOutOfRange);
  auto read = h.ftl().Read(lba_count, 0, nullptr);
  EXPECT_EQ(read.status().code(), StatusCode::kOutOfRange);
  auto trim = h.ftl().Trim(lba_count - 1, 2, 0);
  EXPECT_EQ(trim.status().code(), StatusCode::kOutOfRange);
  auto trim0 = h.ftl().Trim(0, 0, 0);
  EXPECT_EQ(trim0.status().code(), StatusCode::kOutOfRange);
}

TEST(FtlBasicTest, TrimUnmapsRange) {
  FtlHarness h(SmallConfig());
  for (uint64_t lba = 0; lba < 10; ++lba) {
    ASSERT_OK(h.Write(lba, 7));
  }
  ASSERT_OK(h.Trim(2, 5));
  for (uint64_t lba = 0; lba < 10; ++lba) {
    const bool trimmed = lba >= 2 && lba < 7;
    EXPECT_EQ(h.ftl().IsMapped(lba), !trimmed) << lba;
    EXPECT_TRUE(h.CheckLba(kPrimaryView, lba, trimmed ? 0 : 7));
  }
  EXPECT_EQ(h.ftl().stats().user_trims, 1u);
}

TEST(FtlBasicTest, TrimOfUnmappedRangeIsHarmless) {
  FtlHarness h(SmallConfig());
  ASSERT_OK(h.Trim(100, 10));
  EXPECT_TRUE(h.CheckLba(kPrimaryView, 100, 0));
}

TEST(FtlBasicTest, LatencyIncludesHostAndDeviceTime) {
  FtlConfig config = SmallConfig();
  FtlHarness h(config);
  const auto data = PageData(config.nand.page_size_bytes, 0, 1);
  ASSERT_OK_AND_ASSIGN(IoResult io, h.ftl().Write(0, data, 0));
  // At minimum: program + bus + map costs (first write also pays a segment erase).
  EXPECT_GE(io.LatencyNs(), config.nand.program_ns);
  EXPECT_GE(io.host_ns, config.host_map_lookup_ns + config.host_map_update_ns);
}

TEST(FtlBasicTest, SustainedOverwriteTriggersCleaningAndPreservesData) {
  // Write far more than the device capacity over a small LBA working set: the cleaner
  // must run (inline or paced) and the latest contents must survive.
  FtlConfig config = SmallConfig();
  FtlHarness h(config);
  const uint64_t lba_space = 64;
  std::map<uint64_t, uint64_t> latest;
  uint64_t version = 0;
  Rng rng(5);
  const uint64_t total_pages = config.nand.TotalPages();
  for (uint64_t i = 0; i < total_pages * 3; ++i) {
    const uint64_t lba = rng.NextBelow(lba_space);
    ++version;
    ASSERT_OK(h.Write(lba, version));
    latest[lba] = version;
    h.ftl().PumpBackground(h.now());
  }
  // A small hot working set leaves most victim segments fully invalid, so cleaning may
  // not need to copy anything — but it must have cleaned, and content must be intact.
  EXPECT_GT(h.ftl().stats().gc_segments_cleaned, 0u);
  EXPECT_TRUE(h.CheckView(kPrimaryView, latest, lba_space));
}

TEST(FtlBasicTest, DeviceFullReportedWhenLbaSpaceExceedsCapacity) {
  // With every LBA holding live data and no overwrites, the cleaner cannot reclaim
  // anything once the log is full; the device must fail cleanly, not livelock.
  FtlConfig config = TinyConfig();
  config.overprovision = 0.0;  // LBA space == physical capacity: guaranteed to jam.
  FtlHarness h(config);
  Status status = OkStatus();
  for (uint64_t lba = 0; lba < h.ftl().LbaCount(); ++lba) {
    status = h.Write(lba, 1);
    if (!status.ok()) {
      break;
    }
  }
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST(FtlBasicTest, WriteAmplificationIsBoundedUnderUniformOverwrite) {
  FtlConfig config = SmallConfig();
  FtlHarness h(config);
  const uint64_t lba_space = h.ftl().LbaCount() / 2;
  Rng rng(11);
  const uint64_t writes = config.nand.TotalPages() * 2;
  for (uint64_t i = 0; i < writes; ++i) {
    ASSERT_OK(h.Write(rng.NextBelow(lba_space), i + 1));
    h.ftl().PumpBackground(h.now());
  }
  const FtlStats& stats = h.ftl().stats();
  const double wa = static_cast<double>(stats.total_pages_programmed) /
                    static_cast<double>(stats.user_writes);
  EXPECT_GE(wa, 1.0);
  EXPECT_LT(wa, 4.0);
}

TEST(FtlBasicTest, ClosedFtlRejectsOperations) {
  FtlHarness h(SmallConfig());
  ASSERT_OK(h.Write(1, 1));
  ASSERT_NE(h.ftl().ReleaseDevice(), nullptr);
  EXPECT_EQ(h.ftl().Write(1, {}, h.now()).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.ftl().Read(1, h.now(), nullptr).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.ftl().ReleaseDevice(), nullptr);
}

TEST(FtlBasicTest, VanillaModeRejectsSnapshotOps) {
  FtlConfig config = SmallConfig();
  config.snapshots_enabled = false;
  FtlHarness h(config);
  ASSERT_OK(h.Write(1, 1));
  EXPECT_EQ(h.ftl().CreateSnapshot("x", h.now()).status().code(),
            StatusCode::kUnimplemented);
}

TEST(FtlBasicTest, ViewApiRejectsUnknownViews) {
  FtlHarness h(SmallConfig());
  EXPECT_EQ(h.ftl().ReadView(42, 0, 0, nullptr).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(h.ftl().WriteView(42, 0, {}, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(h.ftl().Deactivate(42, 0).code(), StatusCode::kNotFound);
  EXPECT_EQ(h.ftl().Deactivate(kPrimaryView, 0).code(), StatusCode::kInvalidArgument);
}

// Scalar calls run the shared vectored core on caller storage and reused scratch: once
// the open segment, map entries and validity chunks exist, a write, read or trim of
// one page performs no heap allocation.
TEST(FtlBasicTest, OneRequestCallsAllocateNothing) {
  FtlConfig config = SmallConfig();
  config.nand.store_data = false;
  FtlHarness h(config);
  for (uint64_t lba = 0; lba < 8; ++lba) {
    ASSERT_OK(h.Write(lba, 1));
    ASSERT_OK(h.Write(lba, 2));  // An overwrite sizes the scratch for two bit flips.
    ASSERT_OK(h.Trim(lba, 1));
    ASSERT_OK(h.Write(lba, 3));
  }
  const uint64_t before = g_allocations.load();
  uint64_t t = h.now();
  bool ok = true;
  for (uint64_t lba = 0; lba < 8; ++lba) {
    ok = ok && h.ftl().Write(lba, {}, t).ok();
    ok = ok && h.ftl().Read(lba, t, nullptr).ok();
    ok = ok && h.ftl().Trim(lba, 1, t).ok();
    ok = ok && h.ftl().Write(lba, {}, t).ok();
    t += 1000000;
  }
  const uint64_t allocations = g_allocations.load() - before;
  ASSERT_TRUE(ok);
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace iosnap
