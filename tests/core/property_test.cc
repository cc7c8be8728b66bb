// Randomized end-to-end property tests: long arbitrary operation sequences — writes,
// trims, snapshot create/delete/activate, crashes, clean restarts — checked against the
// brute-force ReferenceModel after every phase. Parameterized over configurations that
// stress different mechanisms (chunk sizes, cleaner policies, naive bitmap mode, the
// activation segment index).

#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/ftl.h"
#include "tests/test_util.h"

namespace iosnap {
namespace {

struct PropertyParam {
  std::string name;
  FtlConfig config;
  bool allow_restarts;
};

// Prints just the name. Without a printer gtest byte-dumps the struct, heap pointers
// included, into every ctest name, and the names change with allocation order.
void PrintTo(const PropertyParam& param, std::ostream* os) { *os << param.name; }

FtlConfig WithChunkBits(FtlConfig config, uint64_t bits) {
  config.validity_chunk_bits = bits;
  return config;
}

FtlConfig WithPolicy(FtlConfig config, CleanerPolicy policy) {
  config.cleaner_policy = policy;
  if (policy == CleanerPolicy::kEpochColocate) {
    config.gc_reserve_segments = 6;
    config.gc_low_free_segments = 8;
    config.gc_high_free_segments = 10;
  }
  return config;
}

FtlConfig WithNaive(FtlConfig config) {
  config.naive_validity_copy = true;
  return config;
}

FtlConfig WithIndex(FtlConfig config) {
  config.activation_segment_index = true;
  return config;
}

FtlConfig WithVanillaRate(FtlConfig config) {
  config.snapshot_aware_gc_rate = false;
  return config;
}

std::vector<PropertyParam> Params() {
  return {
      {"Default", SmallConfig(), true},
      {"TinyChunks", WithChunkBits(SmallConfig(), 64), true},
      {"BigChunks", WithChunkBits(SmallConfig(), 4096), true},
      {"CostBenefit", WithPolicy(SmallConfig(), CleanerPolicy::kCostBenefit), true},
      {"EpochColocate", WithPolicy(SmallConfig(), CleanerPolicy::kEpochColocate), true},
      {"NaiveBitmapCopy", WithNaive(SmallConfig()), true},
      {"SegmentIndex", WithIndex(SmallConfig()), true},
      {"VanillaGcRate", WithVanillaRate(SmallConfig()), true},
  };
}

class SnapshotPropertyTest : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(SnapshotPropertyTest, RandomOpsMatchReferenceModel) {
  const PropertyParam& param = GetParam();
  FtlHarness h(param.config);
  ReferenceModel model;
  Rng rng(0xC0FFEE);

  const uint64_t lba_space = 48;
  uint64_t version = 0;
  std::vector<uint32_t> live_snaps;
  int restarts_left = 3;

  for (int step = 0; step < 2500; ++step) {
    const uint64_t dice = rng.NextBelow(1000);
    if (dice < 880) {
      // Write.
      const uint64_t lba = rng.NextBelow(lba_space);
      ++version;
      ASSERT_OK(h.Write(lba, version));
      model.Write(lba, version);
    } else if (dice < 920) {
      // Trim a small range.
      const uint64_t lba = rng.NextBelow(lba_space - 4);
      const uint64_t count = 1 + rng.NextBelow(4);
      ASSERT_OK(h.Trim(lba, count));
      model.Trim(lba, count);
    } else if (dice < 960) {
      // Snapshot create. Retire the oldest first when too many accumulate: snapshots pin
      // physical space, and this device is tiny ("limits snapshot count only to the
      // capacity available to hold the deltas", §4.1).
      while (live_snaps.size() >= 5) {
        const uint32_t oldest = live_snaps.front();
        ASSERT_OK(h.Delete(oldest));
        model.DeleteSnapshot(oldest);
        live_snaps.erase(live_snaps.begin());
      }
      ASSERT_OK_AND_ASSIGN(uint32_t snap, h.Snapshot("p"));
      model.Snapshot(snap);
      live_snaps.push_back(snap);
    } else if (dice < 980 && !live_snaps.empty()) {
      // Snapshot delete.
      const size_t pick = rng.NextBelow(live_snaps.size());
      const uint32_t snap = live_snaps[pick];
      ASSERT_OK(h.Delete(snap));
      model.DeleteSnapshot(snap);
      live_snaps.erase(live_snaps.begin() + static_cast<ptrdiff_t>(pick));
    } else if (dice < 992 && !live_snaps.empty()) {
      // Activate a random snapshot and spot-check a few LBAs.
      const uint32_t snap = live_snaps[rng.NextBelow(live_snaps.size())];
      ASSERT_OK_AND_ASSIGN(uint32_t view, h.Activate(snap));
      for (int probe = 0; probe < 8; ++probe) {
        const uint64_t lba = rng.NextBelow(lba_space);
        ASSERT_TRUE(h.CheckLba(view, lba, model.InSnapshot(snap, lba)))
            << param.name << " step " << step << " snap " << snap;
      }
      ASSERT_OK(h.ftl().Deactivate(view, h.now()));
    } else if (param.allow_restarts && restarts_left > 0) {
      // Restart: release the device and reopen it through full recovery.
      --restarts_left;
      ASSERT_OK(h.CrashAndReopen());
      ASSERT_TRUE(h.CheckView(kPrimaryView, model.current_state(), lba_space))
          << param.name << " after restart at step " << step;
    }
    h.ftl().PumpBackground(h.now());
  }

  // Final full verification: active view and every live snapshot.
  ASSERT_TRUE(h.CheckView(kPrimaryView, model.current_state(), lba_space)) << param.name;
  for (uint32_t snap : live_snaps) {
    ASSERT_OK_AND_ASSIGN(uint32_t view, h.Activate(snap));
    ASSERT_TRUE(h.CheckView(view, model.snapshot_state(snap), lba_space))
        << param.name << " snapshot " << snap;
    ASSERT_OK(h.ftl().Deactivate(view, h.now()));
  }
  // The device did real cleaning during the run (the workload overwrites heavily).
  EXPECT_GT(h.ftl().stats().gc_segments_cleaned, 0u) << param.name;
}

INSTANTIATE_TEST_SUITE_P(Configs, SnapshotPropertyTest, ::testing::ValuesIn(Params()),
                         [](const ::testing::TestParamInfo<PropertyParam>& property) {
                           return property.param.name;
                         });

TEST(CrashPropertyTest, CrashAtEveryPhaseOfSnapshotLifecycle) {
  // Deterministic scenario, crashing between each pair of lifecycle steps.
  for (int crash_point = 0; crash_point < 6; ++crash_point) {
    FtlHarness h(SmallConfig());
    ReferenceModel model;
    uint32_t snap = 0;
    int phase = 0;
    auto maybe_crash = [&]() -> bool {
      if (phase++ == crash_point) {
        IOSNAP_CHECK(h.CrashAndReopen().ok());
        return true;
      }
      return false;
    };

    ASSERT_OK(h.Write(1, 11));
    model.Write(1, 11);
    maybe_crash();
    ASSERT_OK_AND_ASSIGN(snap, h.Snapshot("x"));
    model.Snapshot(snap);
    maybe_crash();
    ASSERT_OK(h.Write(1, 22));
    model.Write(1, 22);
    maybe_crash();
    ASSERT_OK(h.Trim(1, 1));
    model.Trim(1, 1);
    maybe_crash();
    ASSERT_OK(h.Write(2, 33));
    model.Write(2, 33);
    maybe_crash();

    ASSERT_TRUE(h.CheckView(kPrimaryView, model.current_state(), 5))
        << "crash point " << crash_point;
    ASSERT_OK_AND_ASSIGN(uint32_t view, h.Activate(snap));
    ASSERT_TRUE(h.CheckView(view, model.snapshot_state(snap), 5))
        << "crash point " << crash_point;
  }
}

}  // namespace
}  // namespace iosnap
