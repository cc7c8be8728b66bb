// Rate-limited snapshot activation (§5.6-5.7): correctness of the deferred map build,
// pacing behaviour, interference with foreground reads, and the segment-index extension.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/ftl.h"
#include "src/obs/trace.h"
#include "tests/test_util.h"

namespace iosnap {
namespace {

TEST(ActivationTest, BackgroundActivationCompletesViaPump) {
  FtlHarness h(SmallConfig());
  for (uint64_t lba = 0; lba < 20; ++lba) {
    ASSERT_OK(h.Write(lba, 1));
  }
  ASSERT_OK_AND_ASSIGN(uint32_t snap, h.Snapshot("s"));
  ASSERT_OK_AND_ASSIGN(uint32_t view,
                       h.ftl().BeginActivation(snap, RateLimit::Unlimited(), h.now()));
  EXPECT_FALSE(h.ftl().ActivationDone(view));
  // Reads against an in-flight activation are refused.
  EXPECT_EQ(h.ftl().ReadView(view, 0, h.now(), nullptr).status().code(),
            StatusCode::kFailedPrecondition);

  uint64_t t = h.now();
  for (int i = 0; i < 10000 && !h.ftl().ActivationDone(view); ++i) {
    t += UsToNs(100);
    h.ftl().PumpBackground(t);
  }
  ASSERT_TRUE(h.ftl().ActivationDone(view));
  h.AdvanceTo(t);
  EXPECT_TRUE(h.CheckLba(view, 5, 1));
}

TEST(ActivationTest, RateLimitStretchesActivationTime) {
  // Fig 9's trade-off: stricter pacing -> longer activation.
  auto activation_time = [](RateLimit limit) {
    FtlConfig config = SmallConfig();
    config.nand.num_segments = 128;  // A longer log makes the scan phase substantial.
    FtlHarness h(config);
    for (uint64_t lba = 0; lba < 2000; ++lba) {
      IOSNAP_CHECK(h.Write(lba, 1).ok());
    }
    auto snap = h.Snapshot("s");
    IOSNAP_CHECK(snap.ok());
    const uint64_t start = h.now();
    auto view = h.ftl().BeginActivation(*snap, limit, start);
    IOSNAP_CHECK(view.ok());
    uint64_t t = start;
    while (!h.ftl().ActivationDone(*view)) {
      t += UsToNs(10);
      h.ftl().PumpBackground(t);
    }
    return t - start;
  };

  const uint64_t unlimited = activation_time(RateLimit::Unlimited());
  const uint64_t limited = activation_time(RateLimit::Of(50, 5));
  const uint64_t strict = activation_time(RateLimit::Of(5, 5));
  EXPECT_LT(unlimited, limited);
  EXPECT_LT(limited, strict);
}

TEST(ActivationTest, ActivationScansWholeDeviceByDefault) {
  FtlConfig config = SmallConfig();
  FtlHarness h(config);
  ASSERT_OK(h.Write(0, 1));
  ASSERT_OK_AND_ASSIGN(uint32_t snap, h.Snapshot("s"));
  ASSERT_OK(h.Activate(snap).status());
  // Every non-free segment was scanned; none skipped without the index extension.
  EXPECT_EQ(h.ftl().stats().activation_segments_skipped, 0u);
  EXPECT_GT(h.ftl().stats().activation_segments_scanned, 0u);
}

TEST(ActivationTest, SegmentIndexSkipsForeignSegments) {
  // Ablation A3: with the per-segment epoch summary, activation skips segments that hold
  // no lineage data. Write a lot after the snapshot so most segments are post-snapshot.
  FtlConfig config = SmallConfig();
  config.activation_segment_index = true;
  FtlHarness h(config);
  ReferenceModel model;
  for (uint64_t lba = 0; lba < 10; ++lba) {
    ASSERT_OK(h.Write(lba, 1));
    model.Write(lba, 1);
  }
  ASSERT_OK_AND_ASSIGN(uint32_t snap, h.Snapshot("s"));
  model.Snapshot(snap);
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_OK(h.Write(i % 10, i + 100));
  }
  ASSERT_OK_AND_ASSIGN(uint32_t view, h.Activate(snap));
  EXPECT_GT(h.ftl().stats().activation_segments_skipped, 0u);
  EXPECT_TRUE(h.CheckView(view, model.snapshot_state(snap), 10));
}

TEST(ActivationTest, ActivationInterferesWithForegroundReadsWhenUnthrottled) {
  // The Fig 9a effect: during an unthrottled activation, foreground read latency rises
  // well above the uncontended baseline.
  FtlConfig config = SmallConfig();
  config.nand.num_segments = 64;
  FtlHarness h(config);
  Rng rng(1);
  for (uint64_t i = 0; i < 1500; ++i) {
    ASSERT_OK(h.Write(rng.NextBelow(1000), i + 1));
  }
  ASSERT_OK_AND_ASSIGN(uint32_t snap, h.Snapshot("s"));

  // Baseline read latency.
  uint64_t base_total = 0;
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK_AND_ASSIGN(IoResult io, h.ftl().Read(rng.NextBelow(1000), h.now(), nullptr));
    h.AdvanceTo(io.CompletionNs());
    base_total += io.LatencyNs();
  }

  ASSERT_OK(h.ftl().BeginActivation(snap, RateLimit::Unlimited(), h.now()).status());
  uint64_t contended_total = 0;
  for (int i = 0; i < 20; ++i) {
    h.ftl().PumpBackground(h.now());
    ASSERT_OK_AND_ASSIGN(IoResult io, h.ftl().Read(rng.NextBelow(1000), h.now(), nullptr));
    h.AdvanceTo(io.CompletionNs());
    contended_total += io.LatencyNs();
  }
  EXPECT_GT(contended_total, base_total * 2);
}

TEST(ActivationTest, DeactivateDuringActivationCancelsCleanly) {
  FtlHarness h(SmallConfig());
  ASSERT_OK(h.Write(0, 1));
  ASSERT_OK_AND_ASSIGN(uint32_t snap, h.Snapshot("s"));
  ASSERT_OK_AND_ASSIGN(uint32_t view,
                       h.ftl().BeginActivation(snap, RateLimit::Of(1, 250), h.now()));
  ASSERT_OK(h.ftl().Deactivate(view, h.now()));
  EXPECT_EQ(h.ftl().ActiveViewIds().size(), 1u);
  // The snapshot can be activated again afterwards.
  ASSERT_OK_AND_ASSIGN(uint32_t view2, h.Activate(snap));
  EXPECT_TRUE(h.CheckLba(view2, 0, 1));
}

TEST(ActivationTest, ActivationSurvivesConcurrentEmergencyCleaning) {
  // Foreground writes during a slow activation force inline cleaning, which copies
  // pages into segments the scan has already passed. Only the relocation journal finds
  // those, so the built map must take them from it.
  FtlConfig config = SmallConfig();
  FtlHarness h(config);
  TraceRecorder trace(1 << 16);
  h.ftl().SetTraceRecorder(&trace);
  ReferenceModel model;
  Rng rng(11);
  uint64_t version = 0;
  const uint64_t lba_space = 200;
  auto write_one = [&] {
    const uint64_t lba = rng.NextBelow(lba_space);
    ++version;
    ASSERT_OK(h.Write(lba, version));
    model.Write(lba, version);
  };
  // Several device overwrites first, so erased low segments sit in the free pool.
  for (uint64_t i = 0; i < config.nand.TotalPages() * 4; ++i) {
    write_one();
  }
  ASSERT_OK_AND_ASSIGN(uint32_t snap, h.Snapshot("s"));
  model.Snapshot(snap);
  trace.Clear();

  ASSERT_OK_AND_ASSIGN(uint32_t view,
                       h.ftl().BeginActivation(snap, RateLimit::Of(20, 10), h.now()));
  for (uint64_t i = 0; !h.ftl().ActivationDone(view); ++i) {
    ASSERT_LT(i, config.nand.TotalPages() * 16) << "activation never finished";
    write_one();
    h.ftl().PumpBackground(h.now());
  }
  EXPECT_TRUE(h.CheckView(view, model.snapshot_state(snap), lba_space));

  // Copies the cleaner made into already-scanned segments that the map now points at.
  ASSERT_OK_AND_ASSIGN(auto entries, h.ftl().ViewMapEntries(view));
  const std::map<uint64_t, uint64_t> map(entries.begin(), entries.end());
  uint64_t scanned = 0;
  uint64_t behind_scan = 0;
  for (const TraceEvent& e : trace.Events()) {
    if (e.type == TraceEventType::kActivationBurst && e.arg0 == view) {
      scanned = e.arg1 + e.arg2;
    } else if (e.type == TraceEventType::kGcCopyForward &&
               e.arg2 / config.nand.pages_per_segment < scanned) {
      auto it = map.find(e.arg0);
      behind_scan += it != map.end() && it->second == e.arg2;
    }
  }
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_GT(behind_scan, 0u);
}

}  // namespace
}  // namespace iosnap
