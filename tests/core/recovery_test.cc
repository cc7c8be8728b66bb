// Recovery on restart (§5.5): crashes, torn tails, crashes that race the segment
// cleaner, and on-media records recovery must ignore.

#include <algorithm>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/fsck.h"
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

// A tree summary is untrusted bytes too. One whose parent map is not a tree under the
// root, or whose active epoch its tree does not list, is skipped with a warning like any
// unreadable summary; recovery then replays the notes, so no data page is orphaned.
TEST(RecoveryTest, HostileTreeSummaryIsSkipped) {
  const std::pair<const char*, EncodedTree> cases[] = {
      {"dangling parent", {{{0, kNoEpoch}, {5, 9}}, 10}},
      {"cycle", {{{0, kNoEpoch}, {5, 6}, {6, 5}}, 7}},
      {"unknown active epoch", {{{0, kNoEpoch}}, 1}},
  };
  for (const auto& [what, tree] : cases) {
    SCOPED_TRACE(what);
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

    std::vector<uint8_t> summary = tree.Bytes();
    PutU32(&summary, 5);  // The summary's trailing active epoch.
    PageHeader header;
    header.type = RecordType::kTreeSummary;
    header.seq = device->PeekHeader(newest).seq + 1;
    header.snap_id = 0x77;   // Summary group id.
    header.lba = 0;          // Page index within the group.
    header.trim_count = 1;   // Pages in the group.
    ASSERT_OK(ProgramAtTail(device.get(), newest, header, summary, h.now()));

    ASSERT_OK_AND_ASSIGN(FsckReport report, FsckDevice(device.get()));
    EXPECT_TRUE(report.recovery_ok);
    EXPECT_TRUE(report.Clean()) << FormatFsckReport(report);
    EXPECT_EQ(report.orphaned_pages, 0u);
    ASSERT_OK(h.Reopen(std::move(device)));
    EXPECT_TRUE(h.CheckView(kPrimaryView, model.current_state(), 10));
  }
}

// Writes lbas 0..9 and releases the device; `newest_seq` receives the sequence number
// of the newest record the primary map names (lba 9's, unless the caller wrote later).
std::unique_ptr<NandDevice> TenWritesReleased(FtlHarness* h, ReferenceModel* model,
                                              uint64_t* newest_seq) {
  for (uint64_t lba = 0; lba < 10; ++lba) {
    EXPECT_OK(h->Write(lba, lba + 1));
    model->Write(lba, lba + 1);
  }
  const auto map = h->ftl().ViewMapEntries(kPrimaryView);
  EXPECT_TRUE(map.ok());
  std::unique_ptr<NandDevice> device = h->ftl().ReleaseDevice();
  *newest_seq = 0;
  for (const auto& [lba, paddr] : *map) {
    *newest_seq = std::max(*newest_seq, device->PeekHeader(paddr).seq);
  }
  return device;
}

// Programs a CRC-valid record into the first free segment, where a hostile image may
// hold one, and returns its physical address.
StatusOr<uint64_t> ProgramIntoFreeSegment(NandDevice* device, const PageHeader& header,
                                          uint64_t issue_ns) {
  for (uint64_t seg = 0; seg < device->config().num_segments; ++seg) {
    if (device->NextFreePage(seg) == 0 && !device->IsBadSegment(seg)) {
      uint64_t paddr = 0;
      RETURN_IF_ERROR(device->ProgramPage(seg, header, {}, issue_ns, &paddr).status());
      return paddr;
    }
  }
  return ResourceExhausted("no free segment");
}

// A data record whose LBA lies beyond the LBA space is skipped: past the device's last
// page, or in its overprovision, where no read, write or trim could reach it. It never
// reaches the forward map, its page is valid in no epoch, and every other LBA recovers.
TEST(RecoveryTest, RecordBeyondTheLbaSpaceIsSkipped) {
  const FtlConfig config = SmallConfig();
  ASSERT_LT(config.LbaCount(), config.nand.TotalPages());
  FtlHarness h(config);
  ReferenceModel model;
  uint64_t newest_seq = 0;
  std::unique_ptr<NandDevice> device = TenWritesReleased(&h, &model, &newest_seq);
  std::vector<uint64_t> paddrs;
  for (const uint64_t lba : {uint64_t{1} << 40, config.nand.TotalPages() - 1}) {
    PageHeader header;
    header.type = RecordType::kData;
    header.epoch = kRootEpoch;
    header.lba = lba;
    header.seq = ++newest_seq;
    ASSERT_OK_AND_ASSIGN(const uint64_t paddr,
                         ProgramIntoFreeSegment(device.get(), header, h.now()));
    paddrs.push_back(paddr);
  }

  ASSERT_OK(h.Reopen(std::move(device)));
  ASSERT_OK_AND_ASSIGN(auto map, h.ftl().ViewMapEntries(kPrimaryView));
  EXPECT_EQ(map.size(), 10u);
  ASSERT_FALSE(map.empty());
  EXPECT_LT(map.back().first, h.ftl().LbaCount());
  for (const uint64_t paddr : paddrs) {
    EXPECT_FALSE(h.ftl().validity().MergedTest(paddr)) << "paddr " << paddr;
  }
  EXPECT_TRUE(h.CheckView(kPrimaryView, model.current_state(), 10));
}

// A trim whose range runs past the LBA space is clamped to it, so the replay ends after
// one page instead of four billion; one that starts past the space is skipped.
TEST(RecoveryTest, TrimPastTheLbaSpaceIsClamped) {
  const FtlConfig config = SmallConfig();
  FtlHarness h(config);
  ReferenceModel model;
  const uint64_t last_lba = config.LbaCount() - 1;
  ASSERT_OK(h.Write(last_lba, 100));
  uint64_t newest_seq = 0;
  std::unique_ptr<NandDevice> device = TenWritesReleased(&h, &model, &newest_seq);
  for (const uint64_t lba : {config.nand.TotalPages() - 1, last_lba}) {
    PageHeader header;
    header.type = RecordType::kTrim;
    header.epoch = kRootEpoch;
    header.lba = lba;
    header.trim_count = 0xffffffffu;
    header.seq = ++newest_seq;
    ASSERT_OK(ProgramIntoFreeSegment(device.get(), header, h.now()).status());
  }

  ASSERT_OK(h.Reopen(std::move(device)));
  EXPECT_TRUE(h.CheckLba(kPrimaryView, last_lba, 0));  // Trimmed by the clamped range.
  EXPECT_TRUE(h.CheckView(kPrimaryView, model.current_state(), 10));
}

// The scan sizes its record vector once: on a log with no trim summary to expand, its
// capacity is the programmed-page count, at most one record per page.
TEST(RecoveryTest, ScanReservesOneRecordPerProgrammedPage) {
  FtlHarness h(SmallConfig());
  for (uint64_t lba = 0; lba < 200; ++lba) {
    ASSERT_OK(h.Write(lba % 50, lba));
    if (lba % 40 == 0) {
      ASSERT_OK(h.Trim(lba % 50, 3));
      ASSERT_OK(h.Snapshot("s").status());
    }
  }
  ASSERT_EQ(h.ftl().stats().gc_segments_cleaned, 0u);  // So no trim summary exists.
  std::unique_ptr<NandDevice> device = h.ftl().ReleaseDevice();
  uint64_t programmed = 0;
  for (uint64_t seg = 0; seg < device->config().num_segments; ++seg) {
    programmed += device->ProgrammedPages(seg);
  }
  ASSERT_OK_AND_ASSIGN(RecoveredState state,
                       RecoverFromDevice(device.get(), SmallConfig().LbaCount(), 0));
  EXPECT_EQ(state.records.capacity(), programmed);
  EXPECT_EQ(state.records.size(), programmed);
}

}  // namespace
}  // namespace iosnap
