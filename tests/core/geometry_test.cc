// Device-geometry sweeps: the snapshot semantics must hold across page sizes, segment
// sizes and channel counts (the paper runs both 4 KiB and 512 B sector formats).

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/ftl.h"
#include "tests/test_util.h"

namespace iosnap {
namespace {

// A plain value with no padding and no heap pointer. gtest prints a parameter that has
// no operator<< as a byte dump, and that dump is part of each test's listed name; a
// std::string member put a heap address there, so the names changed from run to run.
struct Geometry {
  char name[32];
  uint64_t page_bytes;
  uint64_t pages_per_segment;
  uint64_t num_segments;
  uint64_t channels;
};
static_assert(sizeof(Geometry) == 32 + 4 * sizeof(uint64_t), "Geometry must have no padding");

std::vector<Geometry> Geometries() {
  return {
      {"Sectors512B", 512, 64, 32, 4},
      {"Pages4K", 4096, 32, 24, 4},
      {"Pages16K", 16384, 16, 24, 8},
      {"SingleChannel", 4096, 32, 24, 1},
      {"TinySegments", 4096, 8, 64, 4},
      {"WideDevice", 4096, 16, 48, 32},
  };
}

class GeometryTest : public ::testing::TestWithParam<Geometry> {
 protected:
  FtlConfig Config() const {
    FtlConfig config;
    config.nand.page_size_bytes = GetParam().page_bytes;
    config.nand.pages_per_segment = GetParam().pages_per_segment;
    config.nand.num_segments = GetParam().num_segments;
    config.nand.num_channels = static_cast<uint32_t>(GetParam().channels);
    config.nand.store_data = true;
    config.validity_chunk_bits = 128;
    config.gc_reserve_segments = 2;
    config.gc_low_free_segments = 4;
    config.gc_high_free_segments = 6;
    return config;
  }
};

TEST_P(GeometryTest, SnapshotLifecycleUnderChurn) {
  FtlHarness h(Config());
  ReferenceModel model;
  Rng rng(GetParam().page_bytes);
  const uint64_t lba_space = std::min<uint64_t>(h.ftl().LbaCount() / 3, 48);
  uint64_t version = 0;

  std::vector<uint32_t> snaps;
  const uint64_t total = Config().nand.TotalPages();
  for (uint64_t i = 0; i < total * 2; ++i) {
    const uint64_t lba = rng.NextBelow(lba_space);
    ++version;
    ASSERT_OK(h.Write(lba, version)) << GetParam().name << " write " << i;
    model.Write(lba, version);
    h.ftl().PumpBackground(h.now());
    if (i == total / 2 || i == total) {
      while (snaps.size() >= 2) {
        ASSERT_OK(h.Delete(snaps.front()));
        model.DeleteSnapshot(snaps.front());
        snaps.erase(snaps.begin());
      }
      ASSERT_OK_AND_ASSIGN(uint32_t snap, h.Snapshot("geo"));
      model.Snapshot(snap);
      snaps.push_back(snap);
    }
  }

  EXPECT_TRUE(h.CheckView(kPrimaryView, model.current_state(), lba_space))
      << GetParam().name;
  for (uint32_t snap : snaps) {
    ASSERT_OK_AND_ASSIGN(uint32_t view, h.Activate(snap));
    EXPECT_TRUE(h.CheckView(view, model.snapshot_state(snap), lba_space))
        << GetParam().name << " snapshot " << snap;
    ASSERT_OK(h.ftl().Deactivate(view, h.now()));
  }
}

TEST_P(GeometryTest, CrashRecoveryHoldsAcrossGeometry) {
  FtlHarness h(Config());
  ReferenceModel model;
  Rng rng(GetParam().channels);
  const uint64_t lba_space = std::min<uint64_t>(h.ftl().LbaCount() / 3, 32);
  uint64_t version = 0;
  for (int i = 0; i < 120; ++i) {
    const uint64_t lba = rng.NextBelow(lba_space);
    ++version;
    ASSERT_OK(h.Write(lba, version));
    model.Write(lba, version);
  }
  ASSERT_OK_AND_ASSIGN(uint32_t snap, h.Snapshot("geo"));
  model.Snapshot(snap);
  for (int i = 0; i < 60; ++i) {
    const uint64_t lba = rng.NextBelow(lba_space);
    ++version;
    ASSERT_OK(h.Write(lba, version));
    model.Write(lba, version);
  }
  ASSERT_OK(h.CrashAndReopen());
  EXPECT_TRUE(h.CheckView(kPrimaryView, model.current_state(), lba_space))
      << GetParam().name;
  ASSERT_OK_AND_ASSIGN(uint32_t view, h.Activate(snap));
  EXPECT_TRUE(h.CheckView(view, model.snapshot_state(snap), lba_space))
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(Geometries, GeometryTest, ::testing::ValuesIn(Geometries()),
                         [](const ::testing::TestParamInfo<Geometry>& param_info) {
                           return param_info.param.name;
                         });

}  // namespace
}  // namespace iosnap
