#include "src/workload/runner.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/workload/workload.h"
#include "tests/test_util.h"

namespace iosnap {
namespace {

TEST(RunnerTest, RunsRequestedOps) {
  FtlConfig config = SmallConfig();
  config.nand.store_data = false;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Ftl> ftl, Ftl::Create(config));
  SimClock clock;
  Runner runner(ftl.get(), &clock);

  RandomWorkload workload(IoKind::kWrite, 100, 1);
  ASSERT_OK_AND_ASSIGN(RunResult result, runner.Run(&workload, 500, RunOptions{}));
  EXPECT_EQ(result.ops, 500u);
  EXPECT_EQ(result.latency.count(), 500u);
  EXPECT_EQ(result.bytes, 500 * config.nand.page_size_bytes);
  EXPECT_GT(result.ElapsedNs(), 0u);
  EXPECT_GE(result.drain_end_ns, result.end_ns);
  EXPECT_EQ(ftl->stats().user_writes, 500u);
}

TEST(RunnerTest, WorkloadExhaustionStopsEarly) {
  FtlConfig config = SmallConfig();
  config.nand.store_data = false;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Ftl> ftl, Ftl::Create(config));
  SimClock clock;
  Runner runner(ftl.get(), &clock);

  SequentialWorkload workload(IoKind::kWrite, 0, 10);
  ASSERT_OK_AND_ASSIGN(RunResult result, runner.Run(&workload, 500, RunOptions{}));
  EXPECT_EQ(result.ops, 10u);
}

TEST(RunnerTest, TimelineRecordsWhenEnabled) {
  FtlConfig config = SmallConfig();
  config.nand.store_data = false;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Ftl> ftl, Ftl::Create(config));
  SimClock clock;
  Runner runner(ftl.get(), &clock);

  RandomWorkload workload(IoKind::kWrite, 100, 2);
  RunOptions options;
  options.record_timeline = true;
  ASSERT_OK_AND_ASSIGN(RunResult result, runner.Run(&workload, 50, options));
  EXPECT_EQ(result.timeline.samples().size(), 50u);
}

TEST(RunnerTest, QueueDepthImprovesReadThroughput) {
  auto throughput = [](uint64_t batch) {
    FtlConfig config = SmallConfig();
    config.nand.store_data = false;
    auto ftl_or = Ftl::Create(config);
    IOSNAP_CHECK(ftl_or.ok());
    std::unique_ptr<Ftl> ftl = std::move(ftl_or).value();
    SimClock clock;
    Runner runner(ftl.get(), &clock);

    // Preload, then random reads.
    SequentialWorkload fill(IoKind::kWrite, 0, 512);
    IOSNAP_CHECK(runner.Run(&fill, 512, RunOptions{}).ok());
    const uint64_t start = clock.NowNs();
    RandomWorkload reads(IoKind::kRead, 512, 3);
    RunOptions options;
    options.batch = batch;
    auto result = runner.Run(&reads, 400, options);
    IOSNAP_CHECK(result.ok());
    return static_cast<double>(result->bytes) /
           static_cast<double>(clock.NowNs() - start);
  };
  EXPECT_GT(throughput(8), throughput(1) * 1.5);
}

// The group loop and a one-queue, depth-1 IoQueueLayer are the two submission models;
// with the same grouping they must land the FTL in the same state, GC included.
TEST(RunnerTest, GroupLoopMatchesSingleQueueRun) {
  struct Outcome {
    RunResult run;
    FtlStats stats;
    NandStats nand;
    std::vector<std::pair<uint64_t, uint64_t>> map;
  };
  auto run = [](uint64_t batch, uint32_t queues) {
    FtlConfig config = SmallConfig();
    config.nand.store_data = false;
    auto ftl_or = Ftl::Create(config);
    IOSNAP_CHECK(ftl_or.ok());
    std::unique_ptr<Ftl> ftl = std::move(ftl_or).value();
    SimClock clock;
    Runner runner(ftl.get(), &clock);

    MixedWorkload workload(/*read_fraction=*/0.3, ftl->LbaCount(), 7);
    RunOptions options;
    options.batch = batch;
    options.queues = queues;
    options.record_timeline = true;
    auto result = runner.Run(&workload, 6000, options);
    IOSNAP_CHECK(result.ok());
    auto map = ftl->ViewMapEntries(kPrimaryView);
    IOSNAP_CHECK(map.ok());
    return Outcome{std::move(result).value(), ftl->stats(), ftl->device().stats(),
                   std::move(map).value()};
  };
  // Completions arrive in time order from the queue but in submission order from the
  // group loop, so timelines compare as sorted multisets.
  auto sorted_samples = [](const Timeline& timeline) {
    std::vector<std::pair<uint64_t, double>> samples;
    for (const Timeline::Sample& s : timeline.samples()) {
      samples.emplace_back(s.t_ns, s.value);
    }
    std::sort(samples.begin(), samples.end());
    return samples;
  };
  for (uint64_t batch : {1u, 8u}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    const Outcome group = run(batch, /*queues=*/0);
    const Outcome queued = run(batch, /*queues=*/1);
    ASSERT_GT(group.stats.gc_segments_cleaned, 0u);
    EXPECT_EQ(group.run.ops, queued.run.ops);
    EXPECT_EQ(group.run.bytes, queued.run.bytes);
    EXPECT_EQ(group.run.end_ns, queued.run.end_ns);
    EXPECT_EQ(group.run.drain_end_ns, queued.run.drain_end_ns);
    EXPECT_EQ(0, std::memcmp(&group.stats, &queued.stats, sizeof(FtlStats)));
    EXPECT_EQ(0, std::memcmp(&group.nand, &queued.nand, sizeof(NandStats)));
    EXPECT_EQ(group.map, queued.map);
    for (double p : {0.0, 50.0, 99.0, 99.9, 100.0}) {
      EXPECT_EQ(group.run.latency.PercentileNs(p), queued.run.latency.PercentileNs(p)) << p;
    }
    EXPECT_EQ(group.run.latency.MaxNs(), queued.run.latency.MaxNs());
    EXPECT_EQ(sorted_samples(group.run.timeline), sorted_samples(queued.run.timeline));
  }
}

// after_op runs once the whole group has completed, so a hook inside a group sees every
// op of that group applied.
TEST(RunnerTest, AfterOpSeesWholeGroup) {
  FtlConfig config = SmallConfig();
  config.nand.store_data = false;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Ftl> ftl, Ftl::Create(config));
  SimClock clock;
  Runner runner(ftl.get(), &clock);

  std::optional<uint32_t> snap_id;
  RunOptions options;
  options.batch = 8;
  options.after_op = [&](uint64_t index, uint64_t now_ns) {
    if (index == 3) {
      auto snap = ftl->CreateSnapshot("mid-group", now_ns);
      IOSNAP_CHECK(snap.ok());
      snap_id = snap->snap_id;
    }
  };
  SequentialWorkload workload(IoKind::kWrite, 0, 16);
  ASSERT_OK(runner.Run(&workload, 16, options).status());
  ASSERT_TRUE(snap_id.has_value());
  ASSERT_OK_AND_ASSIGN(Ftl::SnapshotSpace space, ftl->SnapshotSpaceReport(*snap_id));
  EXPECT_EQ(space.referenced_pages, 8u);
}

TEST(RunnerTest, BatchModeMixedKindsAndExhaustion) {
  FtlConfig config = SmallConfig();
  config.nand.store_data = false;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Ftl> ftl, Ftl::Create(config));
  SimClock clock;
  Runner runner(ftl.get(), &clock);

  // 30 ops against a 30-op budget of 64-sized batches: exhaustion mid-batch.
  MixedWorkload workload(/*read_fraction=*/0.3, 64, 11);
  RunOptions options;
  options.batch = 64;
  ASSERT_OK_AND_ASSIGN(RunResult result, runner.Run(&workload, 30, options));
  EXPECT_EQ(result.ops, 30u);
  EXPECT_EQ(result.latency.count(), 30u);
  EXPECT_EQ(ftl->stats().user_writes + ftl->stats().user_reads, 30u);
}

TEST(RunnerTest, AfterOpCallbackFires) {
  FtlConfig config = SmallConfig();
  config.nand.store_data = false;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Ftl> ftl, Ftl::Create(config));
  SimClock clock;
  Runner runner(ftl.get(), &clock);

  uint64_t calls = 0;
  uint64_t last_index = 0;
  RunOptions options;
  options.after_op = [&](uint64_t index, uint64_t now_ns) {
    ++calls;
    last_index = index;
  };
  RandomWorkload workload(IoKind::kWrite, 10, 4);
  ASSERT_OK(runner.Run(&workload, 25, options).status());
  EXPECT_EQ(calls, 25u);
  EXPECT_EQ(last_index, 24u);
}

}  // namespace
}  // namespace iosnap
