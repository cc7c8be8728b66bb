// Recovery on restart (§5.5): crashes, torn tails, crashes that race the segment
// cleaner, and on-media records recovery must ignore.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/fsck.h"
#include "src/core/ftl.h"
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

// Programs a page into the segment of `newest_paddr`, the newest record on a released
// device: the log tail, where a shutdown or a hostile image leaves pages.
Status ProgramAtTail(NandDevice* device, uint64_t newest_paddr, PageHeader header,
                     const std::vector<uint8_t>& payload, uint64_t issue_ns) {
  header.payload_len = static_cast<uint32_t>(payload.size());
  uint64_t paddr = 0;
  return device
      ->ProgramPage(device->SegmentOf(newest_paddr), header, payload, issue_ns, &paddr)
      .status();
}

// Earlier builds shut down cleanly by writing the map, validity sets and snapshot tree
// as a run of kCheckpoint pages at the log tail. Such a device reopens through full
// recovery to the state it held before the shutdown, fsck accepts it, and the stale
// pages never shadow writes made after the reopen.
TEST(RecoveryTest, RetiredCheckpointPagesAreIgnored) {
  const FtlConfig config = SmallConfig();
  FtlHarness h(config);
  ReferenceModel model;
  for (uint64_t lba = 0; lba < 25; ++lba) {
    ASSERT_OK(h.Write(lba, lba + 7));
    model.Write(lba, lba + 7);
  }
  ASSERT_OK_AND_ASSIGN(uint32_t snap, h.Snapshot("kept"));
  model.Snapshot(snap);
  ASSERT_OK(h.Write(3, 1234));
  model.Write(3, 1234);
  ASSERT_OK_AND_ASSIGN(auto map_before, h.ftl().ViewMapEntries(kPrimaryView));
  ASSERT_EQ(map_before[3].first, 3u);
  const uint64_t newest = map_before[3].second;

  std::unique_ptr<NandDevice> device = h.ftl().ReleaseDevice();
  constexpr uint32_t kPages = 3;
  ASSERT_LE(device->NextFreePage(device->SegmentOf(newest)) + kPages,
            config.nand.pages_per_segment);
  for (uint32_t i = 0; i < kPages; ++i) {
    PageHeader header;
    header.type = RecordType::kCheckpoint;
    header.lba = i;              // Page index within the checkpoint.
    header.snap_id = 0x1234;     // Checkpoint id.
    header.trim_count = kPages;  // Pages in the checkpoint.
    header.seq = device->PeekHeader(newest).seq + 1 + i;
    ASSERT_OK(ProgramAtTail(device.get(), newest, header,
                            PageData(config.nand.page_size_bytes, i, 1), h.now()));
  }
  ASSERT_OK_AND_ASSIGN(FsckReport report, FsckDevice(device.get()));
  EXPECT_TRUE(report.recovery_ok);
  EXPECT_TRUE(report.Clean()) << FormatFsckReport(report);

  ASSERT_OK(h.Reopen(std::move(device)));
  ASSERT_OK_AND_ASSIGN(auto map_after, h.ftl().ViewMapEntries(kPrimaryView));
  EXPECT_EQ(map_after, map_before);
  EXPECT_TRUE(h.CheckView(kPrimaryView, model.current_state(), 25));
  ASSERT_OK_AND_ASSIGN(SnapshotInfo info, h.ftl().snapshot_tree().Get(snap));
  EXPECT_EQ(info.name, "kept");
  ASSERT_OK_AND_ASSIGN(uint32_t view, h.Activate(snap));
  EXPECT_TRUE(h.CheckView(view, model.snapshot_state(snap), 25));
  ASSERT_OK(h.ftl().Deactivate(view, h.now()));

  // Writes after the reopen follow the stale pages in the log and win.
  ASSERT_OK(h.Write(0, 2));
  model.Write(0, 2);
  ASSERT_OK(h.Write(1, 3));
  model.Write(1, 3);
  ASSERT_OK(h.CrashAndReopen());
  EXPECT_TRUE(h.CheckView(kPrimaryView, model.current_state(), 25));
}

// A trim summary is untrusted bytes: one whose entry count its payload cannot hold is
// skipped with a warning, and both Ftl::Open and fsck keep going.
TEST(RecoveryTest, HostileTrimSummaryIsSkipped) {
  const FtlConfig config = SmallConfig();
  FtlHarness h(config);
  ReferenceModel model;
  for (uint64_t lba = 0; lba < 10; ++lba) {
    ASSERT_OK(h.Write(lba, lba + 1));
    model.Write(lba, lba + 1);
  }
  ASSERT_OK_AND_ASSIGN(auto map, h.ftl().ViewMapEntries(kPrimaryView));
  const uint64_t newest = map.back().second;  // lba 9.
  std::unique_ptr<NandDevice> device = h.ftl().ReleaseDevice();
  PageHeader header;
  header.type = RecordType::kTrimSummary;
  header.seq = device->PeekHeader(newest).seq + 1;
  ASSERT_OK(
      ProgramAtTail(device.get(), newest, header, {0xff, 0xff, 0xff, 0xff}, h.now()));

  ASSERT_OK_AND_ASSIGN(FsckReport report, FsckDevice(device.get()));
  EXPECT_TRUE(report.recovery_ok);
  ASSERT_OK(h.Reopen(std::move(device)));
  EXPECT_TRUE(h.CheckView(kPrimaryView, model.current_state(), 10));
}

}  // namespace
}  // namespace iosnap
