// Parity-protected segments: stripe geometry, the member-image XOR encoding, and the
// end-to-end rebuild paths — host read, GC copy-forward, patrol scrub, and offline
// fsck triage/repair. A single unreadable page in a stripe must come back bit-exact
// (the parity image carries the member's original CRC, so a reconstruction is
// re-verified before anyone trusts it); a second fault in the same stripe must stay
// an honest, typed data loss.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/fsck.h"
#include "src/core/ftl.h"
#include "src/nand/page_header.h"
#include "src/nand/parity.h"
#include "tests/test_util.h"

namespace iosnap {
namespace {

constexpr uint64_t kStripe = 3;  // (kStripe + 1) divides both test geometries.

FtlConfig ParityConfig() {
  FtlConfig config = SmallConfig();
  config.parity_stripe = kStripe;
  return config;
}

void Pump(FtlHarness* h, int times, uint64_t step_ns = 1000000) {
  for (int i = 0; i < times; ++i) {
    h->AdvanceTo(h->now() + step_ns);
    h->ftl().PumpBackground(h->now());
  }
}

uint64_t PaddrOf(Ftl* ftl, uint64_t lba) {
  auto entries = ftl->ViewMapEntries(kPrimaryView);
  IOSNAP_CHECK(entries.ok());
  for (const auto& [entry_lba, paddr] : *entries) {
    if (entry_lba == lba) {
      return paddr;
    }
  }
  IOSNAP_CHECK(false);
  return 0;
}

// Some (lba, paddr) whose backing page sits in a *closed* segment and belongs to a
// full-width stripe (so stripe-membership tests have kStripe members to play with).
std::pair<uint64_t, uint64_t> VictimInClosedSegment(Ftl* ftl, uint64_t stripe) {
  auto entries = ftl->ViewMapEntries(kPrimaryView);
  IOSNAP_CHECK(entries.ok());
  const uint64_t pages_per_segment = ftl->device().config().pages_per_segment;
  for (const auto& [lba, paddr] : *entries) {
    const uint64_t segment = ftl->device().SegmentOf(paddr);
    if (ftl->log_manager().segment_info(segment).state != SegmentState::kClosed) {
      continue;
    }
    const uint64_t index = paddr % pages_per_segment;
    const uint64_t pslot = ParitySlotFor(index, stripe, pages_per_segment);
    if (pslot - StripeStartIndex(pslot, stripe) == stripe) {
      return {lba, paddr};
    }
  }
  IOSNAP_CHECK(false);
  return {0, 0};
}

// Programs a CRC-valid kParity-typed page whose payload is longer than a page into the
// next slot of `segment`. The device and the image loader accept a parity payload of
// up to a page plus the member-image prefix, but no member image can hold it.
Status ProgramOversizeParityPage(NandDevice* device, uint64_t segment) {
  const uint64_t page_size = device->config().page_size_bytes;
  const std::vector<uint8_t> payload(page_size + 8, 0x5a);
  PageHeader header;
  header.type = RecordType::kParity;
  header.payload_len = static_cast<uint32_t>(payload.size());
  return device->ProgramPage(segment, header, payload, 0, nullptr).status();
}

// Programs a parity page for the stripe starting at `first_member` that passes every
// shape check the rebuild paths make (type, member count, image size).
Status ProgramWellFormedParityPage(NandDevice* device, uint64_t segment,
                                   uint64_t first_member) {
  const std::vector<uint8_t> image(ParityImageSize(device->config().page_size_bytes), 0);
  PageHeader header;
  header.type = RecordType::kParity;
  header.lba = first_member;
  header.trim_count = kStripe;
  header.payload_len = static_cast<uint32_t>(image.size());
  return device->ProgramPage(segment, header, image, 0, nullptr).status();
}

TEST(ParityGeometryTest, SlotClassification) {
  // stripe 4, 16 pages: regular parity at 4, 9, 14; the final page is always parity.
  for (uint64_t i = 0; i < 16; ++i) {
    const bool expect = i == 4 || i == 9 || i == 14 || i == 15;
    EXPECT_EQ(IsParitySlot(i, 4, 16), expect) << "index " << i;
    EXPECT_FALSE(IsParitySlot(i, 0, 16)) << "index " << i;  // Parity off: never.
  }
  EXPECT_EQ(StripeStartIndex(4, 4), 0u);
  EXPECT_EQ(StripeStartIndex(6, 4), 5u);
  EXPECT_EQ(StripeStartIndex(15, 4), 15u);  // Final slot: a zero-member stripe.
  for (uint64_t i = 0; i <= 3; ++i) {
    EXPECT_EQ(ParitySlotFor(i, 4, 16), 4u);
  }
  for (uint64_t i = 5; i <= 8; ++i) {
    EXPECT_EQ(ParitySlotFor(i, 4, 16), 9u);
  }
  for (uint64_t i = 10; i <= 13; ++i) {
    EXPECT_EQ(ParitySlotFor(i, 4, 16), 14u);
  }
  // Clamping: with 12 pages the regular slot for member 10 (14) is past the end, so
  // the segment-final page covers the short tail stripe.
  EXPECT_TRUE(IsParitySlot(11, 4, 12));
  EXPECT_EQ(ParitySlotFor(10, 4, 12), 11u);
  EXPECT_EQ(ParityImageSize(4096), kParityImagePrefixBytes + 4096u);
}

TEST(ParityGeometryTest, MemberImageXorRoundTrip) {
  const uint64_t kPage = 256;
  PageHeader a;
  a.type = RecordType::kData;
  a.lba = 7;
  a.epoch = 2;
  a.seq = 41;
  std::vector<uint8_t> pa(kPage, 0xA5);
  a.crc = ComputePageCrc(a, pa);
  PageHeader b;
  b.type = RecordType::kData;
  b.lba = 9;
  b.epoch = 3;
  b.seq = 99;
  std::vector<uint8_t> pb(kPage);
  for (size_t i = 0; i < pb.size(); ++i) {
    pb[i] = static_cast<uint8_t>(i * 31);
  }
  b.crc = ComputePageCrc(b, pb);

  // XOR both members in, then peel one back out: linearity leaves exactly the other.
  std::vector<uint8_t> image(ParityImageSize(kPage), 0);
  ASSERT_OK(XorMemberImage(image, a, pa, kPage));
  ASSERT_OK(XorMemberImage(image, b, pb, kPage));
  ASSERT_OK(XorMemberImage(image, a, pa, kPage));
  ASSERT_OK_AND_ASSIGN(DecodedMember decoded, DecodeMemberImage(image, kPage));
  EXPECT_EQ(decoded.header.type, RecordType::kData);
  EXPECT_EQ(decoded.header.lba, 9u);
  EXPECT_EQ(decoded.header.epoch, 3u);
  EXPECT_EQ(decoded.header.seq, 99u);
  EXPECT_EQ(decoded.header.crc, b.crc);
  EXPECT_EQ(decoded.payload, pb);

  // A stray bit anywhere in the image (a second fault leaking into the XOR) must
  // fail the decoded member's CRC check, not produce plausible garbage.
  image[kParityImagePrefixBytes + 5] ^= 0x10;
  EXPECT_EQ(DecodeMemberImage(image, kPage).status().code(), StatusCode::kDataLoss);
}

TEST(ParityRebuildTest, HostReadRebuildsSingleFault) {
  FtlHarness h(ParityConfig());
  const uint64_t kLbas = 256;
  for (uint64_t lba = 0; lba < kLbas; ++lba) {
    ASSERT_OK(h.Write(lba, 1));
  }
  ASSERT_GT(h.ftl().log_manager().stats().parity_pages_written, 0u);
  const auto [victim_lba, victim_paddr] = VictimInClosedSegment(&h.ftl(), kStripe);
  h.ftl().MutableDeviceForTesting().CorruptPageForTesting(victim_paddr);

  // The read succeeds anyway, returns the original bytes, and reports the detour.
  std::vector<uint8_t> data;
  ASSERT_OK_AND_ASSIGN(IoResult io,
                       h.ftl().ReadView(kPrimaryView, victim_lba, h.now(), &data));
  h.AdvanceTo(io.CompletionNs());
  EXPECT_EQ(data, PageData(h.ftl().device().config().page_size_bytes, victim_lba, 1));
  EXPECT_GT(io.rebuild_ns, 0u);
  const FtlStats& s = h.ftl().stats();
  EXPECT_EQ(s.pages_rebuilt, 1u);
  EXPECT_EQ(s.pages_rebuild_failed, 0u);
  EXPECT_EQ(s.user_read_errors, 0u);
  // The map now points at the rebuilt copy: later reads take the normal path.
  EXPECT_NE(PaddrOf(&h.ftl(), victim_lba), victim_paddr);
  ASSERT_TRUE(h.CheckLba(kPrimaryView, victim_lba, 1));
  EXPECT_EQ(h.ftl().stats().pages_rebuilt, 1u);
  ASSERT_TRUE(h.ftl().validity().VerifyCounters());
  // The corrupt original is superseded by the rebuilt copy (same lba/epoch/seq), so
  // the offline checker already calls the media consistent.
  ASSERT_OK_AND_ASSIGN(FsckReport report,
                       FsckDevice(&h.ftl().MutableDeviceForTesting()));
  EXPECT_TRUE(report.Clean()) << FormatFsckReport(report);
  EXPECT_EQ(report.superseded_corrupt_pages, 1u);
  EXPECT_EQ(report.parity_stripe, kStripe);  // Inferred, no flag passed.
}

TEST(ParityRebuildTest, DoubleFaultInStripeIsHonestLoss) {
  FtlHarness h(ParityConfig());
  for (uint64_t lba = 0; lba < 256; ++lba) {
    ASSERT_OK(h.Write(lba, 1));
  }
  const auto [victim_lba, victim_paddr] = VictimInClosedSegment(&h.ftl(), kStripe);
  const uint64_t pages_per_segment = h.ftl().device().config().pages_per_segment;
  const uint64_t seg_first = victim_paddr - victim_paddr % pages_per_segment;
  const uint64_t index = victim_paddr % pages_per_segment;
  // Corrupt the victim plus a second member of the same stripe: XOR cannot separate
  // two unknowns, so the rebuild must refuse rather than fabricate bytes.
  const uint64_t start = StripeStartIndex(index, kStripe);
  const uint64_t other = start + (index == start ? 1 : 0);
  ASSERT_NE(other, index);
  h.ftl().MutableDeviceForTesting().CorruptPageForTesting(victim_paddr);
  h.ftl().MutableDeviceForTesting().CorruptPageForTesting(seg_first + other);

  std::vector<uint8_t> data;
  auto result = h.ftl().ReadView(kPrimaryView, victim_lba, h.now(), &data);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  const FtlStats& s = h.ftl().stats();
  EXPECT_EQ(s.pages_rebuilt, 0u);
  EXPECT_GE(s.pages_rebuild_failed, 1u);
  EXPECT_EQ(s.user_read_errors, 1u);
  // The device stays usable: a fresh write to the lost lba sticks.
  ASSERT_OK(h.Write(victim_lba, 2));
  ASSERT_TRUE(h.CheckLba(kPrimaryView, victim_lba, 2));
}

TEST(ParityRebuildTest, CleanerRebuildsInsteadOfDropping) {
  FtlConfig config = TinyConfig();
  config.parity_stripe = kStripe;
  FtlHarness h(config);
  const uint64_t kLbas = 36;
  // Version 1 everywhere, then overwrite all but lba 3: the v1 segments end up nearly
  // dead, greedy victim selection reaches them first, and lba 3's v1 page is the lone
  // live — and corrupt — survivor the copy-forward trips over.
  for (uint64_t lba = 0; lba < kLbas; ++lba) {
    ASSERT_OK(h.Write(lba, 1));
  }
  for (uint64_t lba = 0; lba < kLbas; ++lba) {
    if (lba != 3) {
      ASSERT_OK(h.Write(lba, 2));
    }
  }
  const uint64_t victim_paddr = PaddrOf(&h.ftl(), 3);
  h.ftl().MutableDeviceForTesting().CorruptPageForTesting(victim_paddr);

  for (int round = 0; round < 8 && h.ftl().stats().pages_rebuilt == 0; ++round) {
    auto finish = h.ftl().ForceCleanSegment(h.now());
    if (!finish.ok()) {
      break;
    }
    h.AdvanceTo(*finish);
  }
  const FtlStats& s = h.ftl().stats();
  EXPECT_EQ(s.pages_rebuilt, 1u);
  EXPECT_EQ(s.gc_pages_lost, 0u);
  EXPECT_EQ(s.pages_lost_forever, 0u);
  // Rebuilt, not dropped: lba 3 still serves version 1 after its segment was cleaned.
  ASSERT_TRUE(h.CheckLba(kPrimaryView, 3, 1));
  for (uint64_t lba = 0; lba < kLbas; ++lba) {
    if (lba != 3) {
      ASSERT_TRUE(h.CheckLba(kPrimaryView, lba, 2));
    }
  }
  ASSERT_TRUE(h.ftl().validity().VerifyCounters());
}

TEST(ParityRebuildTest, PatrolRebuildsBeforeExpunging) {
  FtlConfig config = ParityConfig();
  config.patrol_enabled = true;
  config.patrol_pages_per_step = 4096;
  config.patrol_sleep_ms = 0;
  FtlHarness h(config);
  const uint64_t kLbas = 256;
  for (uint64_t lba = 0; lba < kLbas; ++lba) {
    ASSERT_OK(h.Write(lba, 1));
  }
  const auto [victim_lba, victim_paddr] = VictimInClosedSegment(&h.ftl(), kStripe);
  h.ftl().MutableDeviceForTesting().CorruptPageForTesting(victim_paddr);

  Pump(&h, 8);
  const FtlStats& s = h.ftl().stats();
  EXPECT_EQ(s.pages_rebuilt, 1u);
  EXPECT_EQ(s.patrol_pages_dropped, 0u);
  EXPECT_EQ(s.pages_lost_forever, 0u);
  EXPECT_GE(s.patrol_segments_evacuated, 1u);  // The corrupt original is expunged.
  // Nothing was lost: the victim still reads its data, the media is clean.
  ASSERT_TRUE(h.CheckLba(kPrimaryView, victim_lba, 1));
  ASSERT_OK_AND_ASSIGN(FsckReport report,
                       FsckDevice(&h.ftl().MutableDeviceForTesting()));
  EXPECT_TRUE(report.Clean()) << FormatFsckReport(report);
  EXPECT_EQ(report.crc_failures, 0u);
}

TEST(FsckParityTest, RebuildableCorruptionIsDirtyNotLostAndRepairs) {
  FtlHarness h(ParityConfig());  // Patrol disabled: nothing heals on its own.
  const uint64_t kLbas = 200;
  for (uint64_t lba = 0; lba < kLbas; ++lba) {
    ASSERT_OK(h.Write(lba, 1));
  }
  const auto [victim_lba, victim_paddr] = VictimInClosedSegment(&h.ftl(), kStripe);
  h.ftl().MutableDeviceForTesting().CorruptPageForTesting(victim_paddr);

  // Dirty, but triaged as rebuildable: the stripe can still produce the page.
  ASSERT_OK_AND_ASSIGN(FsckReport dirty,
                       FsckDevice(&h.ftl().MutableDeviceForTesting()));
  EXPECT_FALSE(dirty.Clean());
  EXPECT_EQ(dirty.crc_failures, 1u);
  EXPECT_EQ(dirty.rebuilt_data_pages, 1u);
  EXPECT_EQ(dirty.lost_data_pages, 0u);
  EXPECT_EQ(dirty.parity_stripe, kStripe);  // Inferred from the media.

  // Repair (the fsck --repair hook) rebuilds rather than drops, and the data is
  // still there afterwards — the whole point of the parity layer.
  ASSERT_OK(h.ftl().ScrubAllBlocking(h.now()).status());
  ASSERT_OK_AND_ASSIGN(FsckReport clean,
                       FsckDevice(&h.ftl().MutableDeviceForTesting()));
  EXPECT_TRUE(clean.Clean()) << FormatFsckReport(clean);
  EXPECT_EQ(clean.crc_failures, 0u);
  EXPECT_EQ(h.ftl().stats().pages_rebuilt, 1u);
  EXPECT_EQ(h.ftl().stats().patrol_pages_dropped, 0u);
  ASSERT_TRUE(h.CheckLba(kPrimaryView, victim_lba, 1));
}

TEST(ParityRebuildTest, AccumulatorSurvivesCrashReopen) {
  // A stripe that straddles a crash: members programmed before the reopen, parity
  // emitted after. RebuildFromDevice must restore the running XOR bit-exactly or the
  // eventual reconstruction fails its CRC check.
  FtlConfig config = TinyConfig();
  config.parity_stripe = kStripe;
  FtlHarness h(config);
  ASSERT_OK(h.Write(0, 1));
  ASSERT_OK(h.Write(1, 1));
  const uint64_t paddr_before = PaddrOf(&h.ftl(), 0);
  ASSERT_OK(h.CrashAndReopen());
  // Fill past several stripe boundaries so paddr_before's parity slot is written.
  for (uint64_t lba = 2; lba < 30; ++lba) {
    ASSERT_OK(h.Write(lba, 1));
  }
  ASSERT_GT(h.ftl().log_manager().stats().parity_pages_written, 0u);

  h.ftl().MutableDeviceForTesting().CorruptPageForTesting(paddr_before);
  ASSERT_TRUE(h.CheckLba(kPrimaryView, 0, 1));
  EXPECT_EQ(h.ftl().stats().pages_rebuilt, 1u);
  EXPECT_EQ(h.ftl().stats().pages_rebuild_failed, 0u);
}

TEST(ParityRebuildTest, OversizeMemberIsNotRebuildable) {
  // A stripe member whose stored payload is longer than a page cannot be XORed into
  // a stripe image. Each path that reads members from media treats it as unreadable.

  // fsck: slot 0 is the oversize page, slots 1-2 hold data, slot 3 the stripe's
  // parity. Corrupt slot 1 is lost, not rebuildable, with the stripe given or inferred.
  {
    NandConfig nand;
    nand.page_size_bytes = 512;
    nand.pages_per_segment = 16;
    nand.num_segments = 2;
    nand.num_channels = 2;
    NandDevice device(nand);
    ASSERT_OK(ProgramOversizeParityPage(&device, 0));
    for (uint64_t lba = 1; lba <= 2; ++lba) {
      PageHeader header;
      header.type = RecordType::kData;
      header.lba = lba;
      header.seq = lba;
      const std::vector<uint8_t> data = PageData(nand.page_size_bytes, lba, 1);
      ASSERT_OK(device.ProgramPage(0, header, data, 0, nullptr).status());
    }
    ASSERT_OK(ProgramWellFormedParityPage(&device, 0, 0));
    device.CorruptPageForTesting(1);
    for (const uint64_t stripe : {kStripe, uint64_t{0}}) {
      ASSERT_OK_AND_ASSIGN(FsckReport report, FsckDevice(&device, stripe));
      EXPECT_EQ(report.parity_stripe, kStripe);
      EXPECT_EQ(report.crc_failures, 1u);
      EXPECT_EQ(report.lost_data_pages, 1u) << FormatFsckReport(report);
      EXPECT_EQ(report.rebuilt_data_pages, 0u);
    }
  }

  // Reopen: the oversize page lands in the open segment's partial stripe (slot 4), so
  // the re-accumulated parity is poisoned and the stripe's parity page covers nothing.
  {
    FtlHarness h(ParityConfig());
    for (uint64_t lba = 0; lba < kStripe; ++lba) {
      ASSERT_OK(h.Write(lba, 1));
    }
    const uint64_t segment = h.ftl().device().SegmentOf(PaddrOf(&h.ftl(), 0));
    std::unique_ptr<NandDevice> device = h.ftl().ReleaseDevice();
    ASSERT_EQ(device->NextFreePage(segment), kStripe + 1);
    ASSERT_OK(ProgramOversizeParityPage(device.get(), segment));
    ASSERT_OK(h.Reopen(std::move(device)));
    for (uint64_t lba = kStripe; lba < 2 * kStripe; ++lba) {
      ASSERT_OK(h.Write(lba, 1));
    }
    const uint64_t parity_paddr = h.ftl().device().FirstPageOf(segment) + 2 * kStripe + 1;
    ASSERT_TRUE(h.ftl().device().IsProgrammed(parity_paddr));
    const PageHeader& parity = h.ftl().device().PeekHeader(parity_paddr);
    EXPECT_EQ(parity.type, RecordType::kParity);
    EXPECT_EQ(parity.trim_count, 0u);
  }

  // Online read: the stripe holds the victim (slot 4), the oversize page (slot 5), a
  // pad (slot 6) and a well-formed parity page (slot 7). Reading the corrupt victim
  // fails as a typed loss.
  {
    FtlHarness h(ParityConfig());
    for (uint64_t lba = 0; lba <= kStripe; ++lba) {
      ASSERT_OK(h.Write(lba, 1));
    }
    const uint64_t victim = PaddrOf(&h.ftl(), kStripe);
    const uint64_t segment = h.ftl().device().SegmentOf(victim);
    ASSERT_EQ(victim - h.ftl().device().FirstPageOf(segment), kStripe + 1);
    std::unique_ptr<NandDevice> device = h.ftl().ReleaseDevice();
    ASSERT_OK(ProgramOversizeParityPage(device.get(), segment));
    PageHeader pad;
    pad.type = RecordType::kPad;
    ASSERT_OK(device->ProgramPage(segment, pad, {}, 0, nullptr).status());
    ASSERT_OK(ProgramWellFormedParityPage(device.get(), segment, victim));
    ASSERT_OK(h.Reopen(std::move(device)));
    h.ftl().MutableDeviceForTesting().CorruptPageForTesting(victim);
    std::vector<uint8_t> data;
    auto read = h.ftl().Read(kStripe, h.now(), &data);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(h.ftl().stats().pages_rebuilt, 0u);
    EXPECT_EQ(h.ftl().stats().pages_rebuild_failed, 1u);
  }
}

TEST(ParityRebuildTest, ParityOffWritesNoParityAndOnIsHostTransparent) {
  // Same workload with the stripe off and on: identical logical contents, identical
  // snapshot sets; the off run leaves zero parity artifacts anywhere (stats, media,
  // rebuild counters), the on run pays only parity pages.
  auto run = [](uint64_t stripe) {
    FtlConfig config = TinyConfig();
    config.parity_stripe = stripe;
    auto h = std::make_unique<FtlHarness>(config);
    for (uint64_t lba = 0; lba < 36; ++lba) {
      IOSNAP_CHECK(h->Write(lba, 1).ok());
    }
    auto snap = h->Snapshot("mid");
    IOSNAP_CHECK(snap.ok());
    for (uint64_t lba = 0; lba < 24; ++lba) {
      IOSNAP_CHECK(h->Write(lba, 2).ok());
    }
    IOSNAP_CHECK(h->Trim(30, 4).ok());
    return std::make_pair(std::move(h), *snap);
  };
  auto [off, snap_off] = run(0);
  auto [on, snap_on] = run(kStripe);

  const FtlStats& so = off->ftl().stats();
  EXPECT_EQ(off->ftl().log_manager().stats().parity_pages_written, 0u);
  EXPECT_EQ(so.pages_rebuilt + so.pages_rebuild_failed + so.pages_lost_forever +
                so.pages_superseded,
            0u);
  EXPECT_GT(on->ftl().log_manager().stats().parity_pages_written, 0u);
  // No parity page on the off media: fsck finds nothing to infer a stripe from.
  ASSERT_OK_AND_ASSIGN(FsckReport off_report,
                       FsckDevice(&off->ftl().MutableDeviceForTesting()));
  EXPECT_TRUE(off_report.Clean()) << FormatFsckReport(off_report);
  EXPECT_EQ(off_report.parity_stripe, 0u);
  ASSERT_OK_AND_ASSIGN(FsckReport on_report,
                       FsckDevice(&on->ftl().MutableDeviceForTesting()));
  EXPECT_TRUE(on_report.Clean()) << FormatFsckReport(on_report);
  EXPECT_EQ(on_report.parity_stripe, kStripe);

  EXPECT_EQ(snap_off, snap_on);
  for (uint64_t lba = 0; lba < 36; ++lba) {
    const uint64_t version = lba < 24 ? 2 : (lba >= 30 && lba < 34 ? 0 : 1);
    ASSERT_TRUE(off->CheckLba(kPrimaryView, lba, version));
    ASSERT_TRUE(on->CheckLba(kPrimaryView, lba, version));
  }
  ASSERT_OK_AND_ASSIGN(uint32_t view_off, off->Activate(snap_off));
  ASSERT_OK_AND_ASSIGN(uint32_t view_on, on->Activate(snap_on));
  for (uint64_t lba = 0; lba < 36; ++lba) {
    ASSERT_TRUE(off->CheckLba(view_off, lba, 1));
    ASSERT_TRUE(on->CheckLba(view_on, lba, 1));
  }
}

TEST(ParityRebuildTest, SeededCorruptionCampaignRebuildsWithZeroSilentCorruption) {
  // Silent program-time bit flips under a fixed seed: parity is accumulated from the
  // controller buffer *before* the cell corrupts, so the rebuild reproduces the bytes
  // the host wrote. Every read must return either exactly those bytes or a typed
  // kDataLoss — never plausible garbage.
  FtlConfig config = ParityConfig();
  FaultPlan plan;
  plan.seed = 11;
  plan.corrupt_ppm = 20000;  // ~2% of programs flip a stored bit.
  plan.ApplyTo(&config);
  FtlHarness h(config);
  const uint64_t kLbas = 400;
  std::map<uint64_t, uint64_t> version;
  for (uint64_t lba = 0; lba < kLbas; ++lba) {
    ASSERT_OK(h.Write(lba, 1));
    version[lba] = 1;
  }
  for (uint64_t lba = 0; lba < kLbas; lba += 3) {
    ASSERT_OK(h.Write(lba, 2));
    version[lba] = 2;
  }
  ASSERT_GT(h.ftl().device().stats().pages_corrupted, 0u);

  uint64_t typed_losses = 0;
  const uint64_t page_size = h.ftl().device().config().page_size_bytes;
  for (int round = 0; round < 2; ++round) {
    for (uint64_t lba = 0; lba < kLbas; ++lba) {
      std::vector<uint8_t> data;
      auto result = h.ftl().ReadView(kPrimaryView, lba, h.now(), &data);
      if (result.ok()) {
        h.AdvanceTo(result->CompletionNs());
        ASSERT_EQ(data, PageData(page_size, lba, version[lba]))
            << "silent corruption at lba " << lba;
      } else {
        ASSERT_EQ(result.status().code(), StatusCode::kDataLoss);
        ++typed_losses;
      }
    }
  }
  const FtlStats& s = h.ftl().stats();
  EXPECT_GT(s.pages_rebuilt, 0u) << "campaign never exercised a rebuild";
  EXPECT_EQ(s.user_read_errors, typed_losses);
  ASSERT_TRUE(h.ftl().validity().VerifyCounters());
}

}  // namespace
}  // namespace iosnap
