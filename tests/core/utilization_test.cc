// Invariant tests for the incremental utilization accounting (per-segment merged and
// per-epoch valid-page counters) and the cached merge planes in ValidityMap.
//
// The counters are updated inside every SetValid/ClearValid/MoveBit/ForkEpoch/DropEpoch;
// these tests drive randomized write/trim/snapshot/GC/rollback sequences through the full
// FTL and cross-check every counter against a from-scratch CountValidInRange recount,
// plus a restart test proving the counters rebuild identically through recovery.

#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/ftl.h"
#include "tests/test_util.h"

namespace iosnap {
namespace {

// Cross-checks every incremental structure against brute force: the registered epoch set
// vs LiveEpochs, per-range merged and per-epoch counters vs CountValidInRange, MergedTest
// vs TestAny, and ValidityMap's own internal audit.
::testing::AssertionResult CheckCounters(Ftl& ftl) {
  const ValidityMap& validity = ftl.validity();
  const std::vector<uint32_t> live = ftl.LiveEpochs();

  // The counters cover the map's registered epoch set; the cleaner treats its counter
  // reads as "merged over live epochs", which is only sound if the sets coincide.
  if (validity.Epochs() != live) {
    return ::testing::AssertionFailure() << "validity epoch set != LiveEpochs()";
  }

  const uint64_t range_pages = validity.range_pages();
  if (range_pages != ftl.config().nand.pages_per_segment) {
    return ::testing::AssertionFailure() << "counter ranges are not segment-sized";
  }
  for (uint64_t r = 0; r < validity.NumRanges(); ++r) {
    const uint64_t begin = r * range_pages;
    const uint64_t end = std::min(begin + range_pages, validity.total_pages());
    const uint64_t expect = validity.CountValidInRange(live, begin, end);
    if (validity.MergedValidCount(r) != expect) {
      return ::testing::AssertionFailure()
             << "segment " << r << ": merged counter " << validity.MergedValidCount(r)
             << " != recount " << expect;
    }
    for (uint32_t epoch : live) {
      const uint64_t epoch_expect = validity.CountValidInRange(epoch, begin, end);
      if (validity.EpochValidCount(epoch, r) != epoch_expect) {
        return ::testing::AssertionFailure()
               << "segment " << r << " epoch " << epoch << ": counter "
               << validity.EpochValidCount(epoch, r) << " != recount " << epoch_expect;
      }
    }
  }

  for (uint64_t paddr = 0; paddr < validity.total_pages(); ++paddr) {
    if (validity.MergedTest(paddr) != validity.TestAny(live, paddr)) {
      return ::testing::AssertionFailure()
             << "paddr " << paddr << ": MergedTest disagrees with TestAny over live epochs";
    }
  }

  if (!validity.VerifyCounters()) {
    return ::testing::AssertionFailure() << "ValidityMap::VerifyCounters failed";
  }
  return ::testing::AssertionSuccess();
}

TEST(UtilizationTest, CountersMatchRecountAfterRandomizedOps) {
  FtlHarness h(SmallConfig());
  // A quarter of the LBA space: up to three divergent snapshot generations plus the
  // active set must fit the 2048-page device with room for GC headway.
  const uint64_t lba_space = h.ftl().LbaCount() / 4;
  std::mt19937 rng(1234);
  std::vector<uint32_t> snaps;
  uint64_t version = 1;

  for (int step = 0; step < 60; ++step) {
    const int op = static_cast<int>(rng() % 100);
    if (op < 55) {
      // A burst of writes (also drives paced/inline GC under space pressure).
      const int count = 10 + static_cast<int>(rng() % 40);
      for (int i = 0; i < count; ++i) {
        ASSERT_OK(h.Write(rng() % lba_space, version++));
      }
    } else if (op < 70) {
      const uint64_t lba = rng() % lba_space;
      ASSERT_OK(h.Trim(lba, 1 + rng() % std::min<uint64_t>(8, lba_space - lba)));
    } else if (op < 80 && snaps.size() < 3) {
      uint32_t id = 0;
      ASSERT_OK_AND_ASSIGN(id, h.Snapshot("s" + std::to_string(step)));
      snaps.push_back(id);
    } else if (op < 88 && !snaps.empty()) {
      const size_t pick = rng() % snaps.size();
      ASSERT_OK(h.Delete(snaps[pick]));
      snaps.erase(snaps.begin() + pick);
    } else if (op < 94) {
      auto finish = h.ftl().ForceCleanSegment(h.now());
      ASSERT_OK(finish.status());
      h.AdvanceTo(*finish);
    } else if (!snaps.empty()) {
      auto finish = h.ftl().RollbackToSnapshot(snaps[rng() % snaps.size()], h.now());
      ASSERT_OK(finish.status());
      h.AdvanceTo(*finish);
    }
    ASSERT_TRUE(CheckCounters(h.ftl())) << "after step " << step;
  }
}

TEST(UtilizationTest, CountersTrackActivatedViews) {
  FtlHarness h(SmallConfig());
  const uint64_t lba_space = h.ftl().LbaCount() / 2;
  uint64_t version = 1;
  for (uint64_t lba = 0; lba < lba_space; ++lba) {
    ASSERT_OK(h.Write(lba, version++));
  }
  uint32_t snap = 0;
  ASSERT_OK_AND_ASSIGN(snap, h.Snapshot("base"));
  for (uint64_t lba = 0; lba < lba_space; lba += 2) {
    ASSERT_OK(h.Write(lba, version++));
  }

  // A writable view adds a forked epoch to the set; its writes must land in the view
  // epoch's counters.
  uint32_t view = 0;
  ASSERT_OK_AND_ASSIGN(view, h.Activate(snap, /*writable=*/true));
  ASSERT_TRUE(CheckCounters(h.ftl()));
  for (uint64_t lba = 1; lba < lba_space; lba += 4) {
    auto io = h.ftl().WriteView(view, lba, PageData(4096, lba, version), h.now());
    ASSERT_OK(io.status());
    h.AdvanceTo(io->CompletionNs());
    ++version;
  }
  ASSERT_TRUE(CheckCounters(h.ftl()));
  ASSERT_OK(h.ftl().Deactivate(view, h.now()));
  ASSERT_TRUE(CheckCounters(h.ftl()));
}

// Shared state builder for the restart tests: several snapshots with churn between them,
// a deleted snapshot, and forced cleaning so validity bits have moved segments.
void BuildRestartState(FtlHarness* h, uint64_t lba_space) {
  uint64_t version = 1;
  std::mt19937 rng(99);
  std::vector<uint32_t> snaps;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 150; ++i) {
      ASSERT_OK(h->Write(rng() % lba_space, version++));
    }
    ASSERT_OK(h->Trim(rng() % (lba_space - 4), 4));
    uint32_t id = 0;
    ASSERT_OK_AND_ASSIGN(id, h->Snapshot("r" + std::to_string(round)));
    snaps.push_back(id);
  }
  ASSERT_OK(h->Delete(snaps[1]));
  for (int i = 0; i < 2; ++i) {
    auto finish = h->ftl().ForceCleanSegment(h->now());
    ASSERT_OK(finish.status());
    h->AdvanceTo(*finish);
  }
  ASSERT_TRUE(CheckCounters(h->ftl()));
}

// Captures every counter the cleaner consumes, for before/after comparison.
std::vector<std::vector<uint64_t>> CounterSnapshot(Ftl& ftl) {
  const ValidityMap& validity = ftl.validity();
  std::vector<std::vector<uint64_t>> out;
  std::vector<uint64_t> merged;
  for (uint64_t r = 0; r < validity.NumRanges(); ++r) {
    merged.push_back(validity.MergedValidCount(r));
  }
  out.push_back(std::move(merged));
  for (uint32_t epoch : ftl.LiveEpochs()) {
    std::vector<uint64_t> per_epoch{epoch};
    for (uint64_t r = 0; r < validity.NumRanges(); ++r) {
      per_epoch.push_back(validity.EpochValidCount(epoch, r));
    }
    out.push_back(std::move(per_epoch));
  }
  return out;
}

TEST(UtilizationTest, CountersRebuildAcrossCrashRecovery) {
  FtlHarness h(SmallConfig());
  BuildRestartState(&h, h.ftl().LbaCount() / 2);
  const auto before = CounterSnapshot(h.ftl());
  ASSERT_OK(h.CrashAndReopen());
  ASSERT_TRUE(CheckCounters(h.ftl()));
  EXPECT_EQ(before, CounterSnapshot(h.ftl()));
}

}  // namespace
}  // namespace iosnap
