// Crash recovery and checkpoint restart (§5.5), including torn checkpoints and crashes
// that race the segment cleaner.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/checkpoint.h"
#include "src/core/ftl.h"
#include "src/core/recovery.h"
#include "tests/test_util.h"

namespace iosnap {
namespace {

TEST(RecoveryTest, CrashRecoversActiveState) {
  FtlHarness h(SmallConfig());
  ReferenceModel model;
  for (uint64_t lba = 0; lba < 30; ++lba) {
    ASSERT_OK(h.Write(lba, lba + 1));
    model.Write(lba, lba + 1);
  }
  ASSERT_OK(h.Trim(5, 3));
  model.Trim(5, 3);
  ASSERT_OK(h.Write(5, 99));
  model.Write(5, 99);

  ASSERT_OK(h.CrashAndReopen());
  EXPECT_TRUE(h.CheckView(kPrimaryView, model.current_state(), 30));

  // The device keeps working after recovery.
  ASSERT_OK(h.Write(0, 1000));
  EXPECT_TRUE(h.CheckLba(kPrimaryView, 0, 1000));
}

TEST(RecoveryTest, CrashRecoversSnapshotsAndLineage) {
  FtlHarness h(SmallConfig());
  ReferenceModel model;
  uint64_t version = 0;
  std::vector<uint32_t> snaps;
  Rng rng(1);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 40; ++i) {
      const uint64_t lba = rng.NextBelow(30);
      ++version;
      ASSERT_OK(h.Write(lba, version));
      model.Write(lba, version);
    }
    ASSERT_OK_AND_ASSIGN(uint32_t snap, h.Snapshot("r"));
    model.Snapshot(snap);
    snaps.push_back(snap);
  }
  // Delete the middle snapshot before the crash.
  ASSERT_OK(h.Delete(snaps[1]));
  model.DeleteSnapshot(snaps[1]);

  ASSERT_OK(h.CrashAndReopen());
  EXPECT_TRUE(h.CheckView(kPrimaryView, model.current_state(), 30));

  EXPECT_EQ(h.Activate(snaps[1]).status().code(), StatusCode::kFailedPrecondition);
  for (uint32_t snap : {snaps[0], snaps[2]}) {
    ASSERT_OK_AND_ASSIGN(uint32_t view, h.Activate(snap));
    EXPECT_TRUE(h.CheckView(view, model.snapshot_state(snap), 30)) << "snapshot " << snap;
    ASSERT_OK(h.ftl().Deactivate(view, h.now()));
  }
}

TEST(RecoveryTest, SnapshotNamesSurviveCrash) {
  FtlHarness h(SmallConfig());
  ASSERT_OK(h.Write(0, 1));
  ASSERT_OK_AND_ASSIGN(uint32_t snap, h.Snapshot("nightly-backup"));
  ASSERT_OK(h.CrashAndReopen());
  ASSERT_OK_AND_ASSIGN(SnapshotInfo info, h.ftl().snapshot_tree().Get(snap));
  EXPECT_EQ(info.name, "nightly-backup");
}

TEST(RecoveryTest, SnapshotIdsContinueAfterCrash) {
  FtlHarness h(SmallConfig());
  ASSERT_OK(h.Write(0, 1));
  ASSERT_OK_AND_ASSIGN(uint32_t s1, h.Snapshot("a"));
  ASSERT_OK(h.CrashAndReopen());
  ASSERT_OK(h.Write(0, 2));
  ASSERT_OK_AND_ASSIGN(uint32_t s2, h.Snapshot("b"));
  EXPECT_EQ(s2, s1 + 1);
}

TEST(RecoveryTest, CleanRestartUsesCheckpoint) {
  FtlHarness h(SmallConfig());
  ReferenceModel model;
  for (uint64_t lba = 0; lba < 25; ++lba) {
    ASSERT_OK(h.Write(lba, lba + 7));
    model.Write(lba, lba + 7);
  }
  ASSERT_OK_AND_ASSIGN(uint32_t snap, h.Snapshot("kept"));
  model.Snapshot(snap);
  ASSERT_OK(h.Write(3, 1234));
  model.Write(3, 1234);

  ASSERT_OK(h.CleanRestart());
  EXPECT_TRUE(h.CheckView(kPrimaryView, model.current_state(), 25));
  ASSERT_OK_AND_ASSIGN(uint32_t view, h.Activate(snap));
  EXPECT_TRUE(h.CheckView(view, model.snapshot_state(snap), 25));
  // Snapshot names survive a clean restart (they live in the checkpoint).
  ASSERT_OK_AND_ASSIGN(SnapshotInfo info, h.ftl().snapshot_tree().Get(snap));
  EXPECT_EQ(info.name, "kept");
}

TEST(RecoveryTest, CheckpointIsDetectedAsCheckpoint) {
  FtlHarness h(SmallConfig());
  ASSERT_OK(h.Write(0, 1));
  ASSERT_OK(h.ftl().CheckpointAndClose(h.now()));
  std::unique_ptr<NandDevice> device = h.ftl().ReleaseDevice();
  ASSERT_OK_AND_ASSIGN(RecoveredState state, RecoverFromDevice(device.get(), 0));
  EXPECT_TRUE(state.from_checkpoint);
  EXPECT_EQ(state.primary_map.size(), 1u);
}

TEST(RecoveryTest, WritesAfterCheckpointForceFullRecovery) {
  // Clean restart, then crash: the stale checkpoint must not shadow newer writes.
  FtlHarness h(SmallConfig());
  ReferenceModel model;
  ASSERT_OK(h.Write(0, 1));
  model.Write(0, 1);
  ASSERT_OK(h.CleanRestart());
  ASSERT_OK(h.Write(0, 2));
  model.Write(0, 2);
  ASSERT_OK(h.Write(1, 3));
  model.Write(1, 3);
  ASSERT_OK(h.CrashAndReopen());
  EXPECT_TRUE(h.CheckView(kPrimaryView, model.current_state(), 5));
}

TEST(RecoveryTest, EmptyDeviceRecovers) {
  FtlHarness h(SmallConfig());
  ASSERT_OK(h.CrashAndReopen());
  EXPECT_TRUE(h.CheckLba(kPrimaryView, 0, 0));
  ASSERT_OK(h.Write(0, 1));
  EXPECT_TRUE(h.CheckLba(kPrimaryView, 0, 1));
}

TEST(RecoveryTest, CrashAfterHeavyCleaningRecovers) {
  // Copy-forwarded blocks carry original identities; recovery must handle relocated and
  // duplicated records.
  FtlConfig config = SmallConfig();
  FtlHarness h(config);
  ReferenceModel model;
  uint64_t version = 0;
  Rng rng(2);
  const uint64_t lba_space = 40;
  for (uint64_t i = 0; i < config.nand.TotalPages() * 2; ++i) {
    const uint64_t lba = rng.NextBelow(lba_space);
    ++version;
    ASSERT_OK(h.Write(lba, version));
    model.Write(lba, version);
    h.ftl().PumpBackground(h.now());
  }
  ASSERT_GT(h.ftl().stats().gc_segments_cleaned, 0u);
  ASSERT_OK(h.CrashAndReopen());
  EXPECT_TRUE(h.CheckView(kPrimaryView, model.current_state(), lba_space));
}

TEST(RecoveryTest, ActivatedViewsDoNotSurviveCrash) {
  FtlHarness h(SmallConfig());
  ASSERT_OK(h.Write(0, 1));
  ASSERT_OK_AND_ASSIGN(uint32_t snap, h.Snapshot("s"));
  ASSERT_OK_AND_ASSIGN(uint32_t view, h.Activate(snap, /*writable=*/true));
  const auto data = PageData(SmallConfig().nand.page_size_bytes, 0, 42);
  ASSERT_OK(h.ftl().WriteView(view, 0, data, h.now()).status());

  ASSERT_OK(h.CrashAndReopen());
  EXPECT_EQ(h.ftl().ActiveViewIds().size(), 1u);  // Only the primary.
  // The view's divergent write is gone; the snapshot is intact.
  ASSERT_OK_AND_ASSIGN(uint32_t view2, h.Activate(snap));
  EXPECT_TRUE(h.CheckLba(view2, 0, 1));
}

TEST(RecoveryTest, RepeatedCrashesAreIdempotent) {
  FtlHarness h(SmallConfig());
  ReferenceModel model;
  for (int round = 0; round < 4; ++round) {
    for (uint64_t lba = 0; lba < 10; ++lba) {
      const uint64_t v = static_cast<uint64_t>(round) * 100 + lba + 1;
      ASSERT_OK(h.Write(lba, v));
      model.Write(lba, v);
    }
    ASSERT_OK(h.CrashAndReopen());
    ASSERT_TRUE(h.CheckView(kPrimaryView, model.current_state(), 10)) << "round " << round;
  }
}

TEST(RecoveryTest, TornTailPageIsSkippedAndPriorStateSurvives) {
  // A page half-programmed at the moment of a crash fails its CRC on the scan.
  // Recovery must drop just that record: the LBA falls back to its previous
  // version, and every snapshot is still reconstructed.
  const FtlConfig config = SmallConfig();
  FtlHarness h(config);
  ReferenceModel model;
  for (uint64_t lba = 0; lba < 20; ++lba) {
    ASSERT_OK(h.Write(lba, lba + 1));
    model.Write(lba, lba + 1);
  }
  ASSERT_OK_AND_ASSIGN(uint32_t snap, h.Snapshot("pre-crash"));
  model.Snapshot(snap);
  ASSERT_OK(h.Write(7, 41));
  model.Write(7, 41);
  // The tail write: torn by the crash below.
  ASSERT_OK(h.Write(7, 42));

  ASSERT_OK_AND_ASSIGN(auto entries, h.ftl().ViewMapEntries(kPrimaryView));
  uint64_t tail_paddr = ~uint64_t{0};
  for (const auto& [lba, paddr] : entries) {
    if (lba == 7) {
      tail_paddr = paddr;
    }
  }
  ASSERT_NE(tail_paddr, ~uint64_t{0});

  std::unique_ptr<NandDevice> device = h.ftl().ReleaseDevice();
  device->CorruptPageForTesting(tail_paddr);
  uint64_t finish = h.now();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Ftl> ftl,
                       Ftl::Open(config, std::move(device), h.now(), &finish));

  EXPECT_GE(ftl->device().stats().crc_errors, 1u);
  // The torn write is gone; the previous version of the LBA is visible again.
  std::vector<uint8_t> data;
  ASSERT_OK(ftl->Read(7, finish, &data).status());
  EXPECT_EQ(data, PageData(config.nand.page_size_bytes, 7, 41));

  // All snapshots were reconstructed, contents intact.
  ASSERT_OK_AND_ASSIGN(SnapshotInfo info, ftl->snapshot_tree().Get(snap));
  EXPECT_EQ(info.name, "pre-crash");
  uint64_t view_done = finish;
  ASSERT_OK_AND_ASSIGN(uint32_t view,
                       ftl->ActivateBlocking(snap, finish, false, &view_done));
  for (uint64_t lba = 0; lba < 20; ++lba) {
    ASSERT_OK(ftl->ReadView(view, lba, view_done, &data).status());
    EXPECT_EQ(data, PageData(config.nand.page_size_bytes, lba,
                             model.InSnapshot(snap, lba)))
        << "lba " << lba;
  }
  ASSERT_OK(ftl->Deactivate(view, view_done));

  // The recovered device still takes writes.
  ASSERT_OK(ftl->Write(7, PageData(config.nand.page_size_bytes, 7, 43), view_done)
                .status());
}

// Device page count the format tests parse against; every paddr they store is below it.
constexpr uint64_t kCheckpointPages = 1024;

TEST(CheckpointFormatTest, SerializeParseRoundTrip) {
  CheckpointState state;
  state.seq_counter = 777;
  state.active_epoch = 2;
  state.tree.AddSnapshot(kRootEpoch, 10, "s1");
  state.tree.NewEpoch(kRootEpoch);
  state.tree.NewEpoch(1);
  state.primary_map = {{1, 100}, {2, 200}};
  state.validity[0] = {100, 101};
  state.validity[2] = {200};

  const std::vector<uint8_t> bytes = SerializeCheckpoint(state);
  ASSERT_OK_AND_ASSIGN(CheckpointState parsed,
                       ParseCheckpoint(bytes, kCheckpointPages));
  EXPECT_EQ(parsed.seq_counter, 777u);
  EXPECT_EQ(parsed.active_epoch, 2u);
  EXPECT_EQ(parsed.primary_map, state.primary_map);
  EXPECT_EQ(parsed.validity, state.validity);
  EXPECT_EQ(parsed.tree.EpochCount(), 3u);
}

TEST(CheckpointFormatTest, CorruptionDetected) {
  CheckpointState state;
  std::vector<uint8_t> bytes = SerializeCheckpoint(state);
  bytes[0] ^= 0xff;  // Break the magic.
  EXPECT_EQ(ParseCheckpoint(bytes, kCheckpointPages).status().code(),
            StatusCode::kDataLoss);

  std::vector<uint8_t> truncated = SerializeCheckpoint(state);
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(ParseCheckpoint(truncated, kCheckpointPages).ok());
}

// Entry counts are untrusted: one the remaining bytes cannot hold is kDataLoss, not a
// reserve() that throws.
TEST(CheckpointFormatTest, HostileCountsAreDataLoss) {
  CheckpointState state;
  state.primary_map = {{1, 100}, {2, 200}};
  state.validity[0] = {100, 200};
  const std::vector<uint8_t> bytes = SerializeCheckpoint(state);
  ASSERT_OK(ParseCheckpoint(bytes, kCheckpointPages).status());

  // Layout: magic u64, version u32, seq u64, epoch u32, tree, map_count u64, entries,
  // epoch_count u32, then per epoch: epoch u32, count u64, paddrs.
  std::vector<uint8_t> tree;
  state.tree.SerializeTo(&tree);
  const size_t map_count_at = 24 + tree.size();
  const size_t paddr_count_at = map_count_at + 8 + 16 * state.primary_map.size() + 8;
  const auto parse_with = [&](size_t offset, uint64_t value) {
    std::vector<uint8_t> mutated = bytes;
    for (size_t i = 0; i < 8; ++i) {
      mutated[offset + i] = static_cast<uint8_t>(value >> (8 * i));
    }
    return ParseCheckpoint(mutated, kCheckpointPages).status();
  };
  ASSERT_OK(parse_with(map_count_at, state.primary_map.size()));
  ASSERT_OK(parse_with(paddr_count_at, state.validity[0].size()));
  for (const uint64_t count : {uint64_t{1} << 61, ~uint64_t{0}, uint64_t{1} << 20}) {
    EXPECT_EQ(parse_with(map_count_at, count).code(), StatusCode::kDataLoss) << count;
    EXPECT_EQ(parse_with(paddr_count_at, count).code(), StatusCode::kDataLoss) << count;
  }
}

// Map and validity entries are untrusted too: the map bulk-loads as stored, so its lbas
// must strictly increase, and every paddr must name a page of the device.
TEST(CheckpointFormatTest, HostileEntriesAreDataLoss) {
  const auto parse = [](std::vector<std::pair<uint64_t, uint64_t>> map,
                        std::vector<uint64_t> valid) {
    CheckpointState state;
    state.primary_map = std::move(map);
    state.validity[0] = std::move(valid);
    return ParseCheckpoint(SerializeCheckpoint(state), kCheckpointPages);
  };
  const uint64_t last = kCheckpointPages - 1;
  ASSERT_OK_AND_ASSIGN(CheckpointState parsed, parse({{1, 10}, {2, last}}, {10, last}));
  EXPECT_EQ(parsed.primary_map.back().second, last);
  EXPECT_EQ(parsed.validity[0].back(), last);

  const struct {
    const char* what;
    StatusOr<CheckpointState> result;
    const char* names;
  } cases[] = {
      {"descending lbas", parse({{2, 10}, {1, 11}}, {10, 11}), "map entry 1"},
      {"duplicate lba", parse({{1, 10}, {1, 11}}, {10, 11}), "map entry 1"},
      {"map paddr", parse({{1, 10}, {2, kCheckpointPages}}, {10}), "map entry 1"},
      {"validity paddr", parse({{1, 10}}, {10, kCheckpointPages}), "validity entry 1"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(c.result.status().code(), StatusCode::kDataLoss) << c.what;
    EXPECT_NE(c.result.status().message().find(c.names), std::string::npos)
        << c.what << ": " << c.result.status();
  }
}

}  // namespace
}  // namespace iosnap
