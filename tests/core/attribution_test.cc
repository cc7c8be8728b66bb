// Latency-attribution invariants on the full FTL.
//
// Two guarantees are under test (see src/obs/latency.h):
//  * Exactness — every recorded op's spans sum bit-exactly to its end-to-end latency,
//    on every submission path (groups of one and more ops, multi-queue at several
//    depths), with the cleaner active, with snapshot CoW in the path, and with faults
//    injected.
//  * Non-perturbation — attaching the attributor changes no simulation outcome: stats,
//    completion times, and the full per-op latency timeline are identical with
//    attribution on and off.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/sim_clock.h"
#include "src/core/ftl.h"
#include "src/obs/latency.h"
#include "src/workload/runner.h"
#include "src/workload/workload.h"

namespace iosnap {
namespace {

// Small enough that overwrite churn forces steady GC, large enough that the multi-queue
// pipeline has channels to fill.
FtlConfig TestConfig() {
  FtlConfig config;
  config.nand.page_size_bytes = 4096;
  config.nand.pages_per_segment = 64;
  config.nand.num_segments = 64;
  config.nand.num_channels = 4;
  config.nand.store_data = false;
  config.overprovision = 0.25;
  config.validity_chunk_bits = 1024;
  return config;
}

struct RunSetup {
  uint32_t queues = 0;    // 0 = the group loop.
  uint32_t iodepth = 1;
  uint64_t batch = 1;
  bool faults = false;
  uint32_t buses = 1;
  bool copyback = false;  // Cleaner copy-forward via on-die copyback.

  std::string Label() const {
    return "queues=" + std::to_string(queues) + " iodepth=" + std::to_string(iodepth) +
           " batch=" + std::to_string(batch) + " buses=" + std::to_string(buses) +
           (copyback ? " copyback" : "") + (faults ? " faults" : "");
  }
};

struct RunOutput {
  FtlStats stats;
  uint64_t pages_programmed = 0;
  uint64_t copyback_pages = 0;
  uint64_t end_ns = 0;
  uint64_t drain_end_ns = 0;
  uint64_t ops = 0;
  std::string timeline_csv;  // Per-op (issue, latency) series: the bit-identity probe.
  LatencyHistogram latency;
};

// Runs overwrite churn with a mid-run snapshot (so validity CoW lands in the write
// path) and returns the outcome. `attributor` may be nullptr: attribution off.
RunOutput RunChurn(const RunSetup& setup, LatencyAttributor* attributor) {
  FtlConfig config = TestConfig();
  config.nand.buses = setup.buses;
  config.gc_copyback = setup.copyback;
  if (setup.faults) {
    config.nand.fault.seed = 17;
    config.nand.fault.program_fail_ppm = 400;
    config.nand.fault.read_fail_ppm = 400;
    config.nand.fault.erase_fail_ppm = 200;
  }
  auto ftl_or = Ftl::Create(config);
  IOSNAP_CHECK(ftl_or.ok());
  std::unique_ptr<Ftl> ftl = std::move(ftl_or).value();
  ftl->SetLatencyAttributor(attributor);

  SimClock clock;
  const uint64_t lba_space = ftl->LbaCount() * 3 / 4;
  const uint64_t ops = lba_space * 4;  // ~4x overwrite: steady GC.
  RandomWorkload workload(IoKind::kWrite, lba_space, /*seed=*/99);
  Runner runner(ftl.get(), &clock);

  RunOptions options;
  options.queues = setup.queues;
  options.iodepth = setup.iodepth;
  options.batch = setup.batch;
  options.record_timeline = true;
  // Snapshot held over the middle third of the run: long enough that overwrites hit
  // the frozen epoch's validity CoW path, deleted before pinned pages exhaust the
  // small device.
  bool snapped = false;
  bool deleted = false;
  uint32_t snap_id = 0;
  options.after_op = [&](uint64_t index, uint64_t now_ns) {
    if (!snapped && index >= ops / 3) {
      snapped = true;
      auto snap = ftl->CreateSnapshot("mid", now_ns);
      IOSNAP_CHECK(snap.ok());
      snap_id = snap->snap_id;
    } else if (snapped && !deleted && index >= ops / 2) {
      deleted = true;
      IOSNAP_CHECK(ftl->DeleteSnapshot(snap_id, now_ns).ok());
    }
  };
  auto result = runner.Run(&workload, ops, options);
  IOSNAP_CHECK(result.ok());

  RunOutput out;
  out.stats = ftl->stats();
  out.pages_programmed = ftl->device().stats().pages_programmed;
  out.copyback_pages = ftl->device().stats().copyback_pages;
  out.end_ns = result->end_ns;
  out.drain_end_ns = result->drain_end_ns;
  out.ops = result->ops;
  out.timeline_csv = result->timeline.ToCsv(1000000, "t", "lat");
  out.latency = result->latency;
  return out;
}

void ExpectExactSums(const LatencyAttributor& attributor, const std::string& label) {
  const std::vector<SpanRecord> records = attributor.Records();
  ASSERT_FALSE(records.empty()) << label;
  for (const SpanRecord& record : records) {
    ASSERT_EQ(record.spans.TotalNs(), record.complete_ns - record.issue_ns)
        << label << " seq=" << record.seq << " lba=" << record.lba;
  }
}

// The tentpole matrix: queues {1,2,4} x iodepth {1,8,32}, GC active throughout.
TEST(AttributionExactnessTest, QueuedPathsSumExactly) {
  for (uint32_t queues : {1u, 2u, 4u}) {
    for (uint32_t iodepth : {1u, 8u, 32u}) {
      RunSetup setup;
      setup.queues = queues;
      setup.iodepth = iodepth;
      setup.batch = 8;
      LatencyAttributor attributor;
      const RunOutput out = RunChurn(setup, &attributor);
      ASSERT_GT(out.stats.gc_segments_cleaned, 0u) << setup.Label();
      // Every completed op produced exactly one record.
      EXPECT_EQ(attributor.ops(), out.ops) << setup.Label();
      ExpectExactSums(attributor, setup.Label());
      // The cleaner ran concurrently with the workload, so some foreground waits must
      // be attributed to background interference.
      EXPECT_GT(attributor.SpanTotalNs(LatencySpan::kGcWait), 0u) << setup.Label();
      // Snapshot CoW charged host-side time on post-snapshot overwrites.
      EXPECT_GT(attributor.SpanTotalNs(LatencySpan::kCow), 0u) << setup.Label();
      EXPECT_GT(attributor.SpanTotalNs(LatencySpan::kMap), 0u) << setup.Label();
    }
  }
}

// ISSUE 8 matrix: buses {1,2,4} x copyback on/off, forced GC throughout. Exactness
// must survive multi-bus striping (bus_wait computed against per-bus horizons) and
// the gc_copy records the cleaner emits for copyback relocations (whose on-die form
// carries bus == 0 legitimately).
TEST(AttributionExactnessTest, MultiBusAndCopybackSumExactly) {
  for (uint32_t buses : {1u, 2u, 4u}) {
    for (bool copyback : {false, true}) {
      RunSetup setup;
      setup.queues = 2;
      setup.iodepth = 8;
      setup.batch = 8;
      setup.buses = buses;
      setup.copyback = copyback;
      LatencyAttributor attributor;
      const RunOutput out = RunChurn(setup, &attributor);
      ASSERT_GT(out.stats.gc_segments_cleaned, 0u) << setup.Label();
      ExpectExactSums(attributor, setup.Label());
      // One record per host op, plus — with copyback on — exactly one gc_copy record
      // per relocated page; without it, no gc_copy records at all.
      const uint64_t gc_copies =
          attributor.EndToEndHistogram(LatencyOpKind::kGcCopy).count();
      EXPECT_EQ(attributor.ops(), out.ops + gc_copies) << setup.Label();
      if (copyback) {
        EXPECT_GT(out.copyback_pages, 0u) << setup.Label();
        EXPECT_EQ(gc_copies, out.copyback_pages) << setup.Label();
      } else {
        EXPECT_EQ(out.copyback_pages, 0u) << setup.Label();
        EXPECT_EQ(gc_copies, 0u) << setup.Label();
      }
    }
  }
}

TEST(AttributionExactnessTest, ScalarAndBatchPathsSumExactly) {
  for (const RunSetup& setup :
       {RunSetup{.batch = 1}, RunSetup{.batch = 8}, RunSetup{.batch = 16},
        RunSetup{.batch = 32}}) {
    LatencyAttributor attributor;
    const RunOutput out = RunChurn(setup, &attributor);
    ASSERT_GT(out.stats.gc_segments_cleaned, 0u) << setup.Label();
    EXPECT_EQ(attributor.ops(), out.ops) << setup.Label();
    ExpectExactSums(attributor, setup.Label());
  }
}

TEST(AttributionExactnessTest, HoldsUnderFaultInjection) {
  for (uint32_t queues : {0u, 2u}) {
    RunSetup setup;
    setup.queues = queues;
    setup.iodepth = queues > 0 ? 8 : 1;
    setup.batch = 8;
    setup.faults = true;
    LatencyAttributor attributor;
    const RunOutput out = RunChurn(setup, &attributor);
    // Program failures force rerouted commits and read retries re-occupy channels;
    // the final attempt's spans must still sum to its latency.
    EXPECT_EQ(attributor.ops(), out.ops) << setup.Label();
    ExpectExactSums(attributor, setup.Label());
  }
}

// Per-path span composition on handmade ops: write, mapped read, unmapped read
// (never touches the device), and trim.
TEST(AttributionExactnessTest, ScalarOpKindsDecomposeAsDocumented) {
  auto ftl_or = Ftl::Create(TestConfig());
  ASSERT_TRUE(ftl_or.ok());
  std::unique_ptr<Ftl> ftl = std::move(ftl_or).value();
  LatencyAttributor attributor;
  ftl->SetLatencyAttributor(&attributor);

  auto write = ftl->Write(5, {}, 0);
  ASSERT_TRUE(write.ok());
  auto read = ftl->Read(5, write->CompletionNs(), nullptr);
  ASSERT_TRUE(read.ok());
  auto unmapped = ftl->Read(6, read->CompletionNs(), nullptr);
  ASSERT_TRUE(unmapped.ok());
  auto trim = ftl->Trim(5, 1, unmapped->CompletionNs());
  ASSERT_TRUE(trim.ok());

  const std::vector<SpanRecord> records = attributor.Records();
  ASSERT_EQ(records.size(), 4u);
  for (const SpanRecord& record : records) {
    EXPECT_EQ(record.spans.TotalNs(), record.complete_ns - record.issue_ns);
  }
  EXPECT_EQ(records[0].kind, LatencyOpKind::kWrite);
  EXPECT_EQ(records[0].spans[LatencySpan::kMap], kHostMapLookupNs + kHostMapUpdateNs);
  EXPECT_GT(records[0].spans[LatencySpan::kCell], 0u);
  EXPECT_EQ(records[1].kind, LatencyOpKind::kRead);
  EXPECT_EQ(records[1].spans[LatencySpan::kMap], kHostMapLookupNs);
  EXPECT_GT(records[1].spans[LatencySpan::kCell], 0u);
  // Unmapped read: zero device time, the map lookup is the whole latency.
  EXPECT_EQ(records[2].TotalNs(), kHostMapLookupNs);
  EXPECT_EQ(records[2].spans[LatencySpan::kCell], 0u);
  EXPECT_EQ(records[3].kind, LatencyOpKind::kTrim);
  EXPECT_GT(records[3].spans[LatencySpan::kHostOther], 0u);  // Trim note charge.
}

// Attribution off == attribution on, bit for bit: same counters, same completion
// times, same per-op latency series.
TEST(AttributionIdentityTest, DetachedRunsAreBitIdentical) {
  for (uint32_t queues : {0u, 2u}) {
    RunSetup setup;
    setup.queues = queues;
    setup.iodepth = queues > 0 ? 8 : 1;
    setup.batch = 8;
    LatencyAttributor attributor;
    const RunOutput with = RunChurn(setup, &attributor);
    const RunOutput without = RunChurn(setup, nullptr);
    EXPECT_GT(attributor.ops(), 0u);

    EXPECT_EQ(with.ops, without.ops) << setup.Label();
    EXPECT_EQ(with.end_ns, without.end_ns) << setup.Label();
    EXPECT_EQ(with.drain_end_ns, without.drain_end_ns) << setup.Label();
    EXPECT_EQ(with.pages_programmed, without.pages_programmed) << setup.Label();
    EXPECT_EQ(with.stats.user_writes, without.stats.user_writes) << setup.Label();
    EXPECT_EQ(with.stats.gc_segments_cleaned, without.stats.gc_segments_cleaned)
        << setup.Label();
    EXPECT_EQ(with.stats.gc_pages_copied, without.stats.gc_pages_copied)
        << setup.Label();
    EXPECT_EQ(with.stats.validity_cow_bytes, without.stats.validity_cow_bytes)
        << setup.Label();
    EXPECT_EQ(with.latency.count(), without.latency.count()) << setup.Label();
    EXPECT_EQ(with.latency.MaxNs(), without.latency.MaxNs()) << setup.Label();
    EXPECT_EQ(with.latency.PercentileNs(50), without.latency.PercentileNs(50))
        << setup.Label();
    EXPECT_EQ(with.latency.PercentileNs(99.9), without.latency.PercentileNs(99.9))
        << setup.Label();
    // The full per-op (issue time, latency) series matches sample for sample.
    EXPECT_EQ(with.timeline_csv, without.timeline_csv) << setup.Label();
  }
}

// The attributor's aggregate view agrees with the runner's own accounting: per-kind
// end-to-end histograms see the same population.
TEST(AttributionConsistencyTest, EndToEndHistogramMatchesRunner) {
  RunSetup setup;
  setup.queues = 2;
  setup.iodepth = 8;
  setup.batch = 8;
  LatencyAttributor attributor;
  const RunOutput out = RunChurn(setup, &attributor);
  const LatencyHistogram& e2e = attributor.EndToEndHistogram(LatencyOpKind::kWrite);
  EXPECT_EQ(e2e.count(), out.latency.count());
  EXPECT_EQ(e2e.MaxNs(), out.latency.MaxNs());
  EXPECT_EQ(e2e.PercentileNs(50), out.latency.PercentileNs(50));
}

}  // namespace
}  // namespace iosnap
