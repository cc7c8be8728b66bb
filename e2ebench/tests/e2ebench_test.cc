#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "e2ebench/harness.h"
#include "e2ebench/span_tracer.h"

namespace e2ebench {
namespace {

TEST(SpanTracerTest, SelfTimeSubtractsDirectChildren) {
  SpanTracer tracer(16);
  const uint32_t root = tracer.Name("root");
  const uint32_t a = tracer.Name("a");
  const uint32_t b = tracer.Name("b");
  const uint32_t c = tracer.Name("c");
  EXPECT_EQ(tracer.Name("a"), a);

  tracer.Begin(root, 0, 0);
  tracer.Begin(a, 1, 10);
  tracer.Begin(b, 1, 15);
  EXPECT_EQ(tracer.End(25), 10u);
  EXPECT_EQ(tracer.End(40), 30u);
  tracer.Begin(c, 2, 50);
  tracer.End(60);
  tracer.Begin(b, 3, 70);
  tracer.End(75);
  EXPECT_EQ(tracer.End(100), 100u);
  EXPECT_EQ(tracer.open_spans(), 0u);

  EXPECT_EQ(tracer.totals(root).self_ns, 55u);  // 100 - a(30) - c(10) - b(5)
  EXPECT_EQ(tracer.totals(a).self_ns, 20u);     // 30 - nested b(10)
  EXPECT_EQ(tracer.totals(b).calls, 2u);
  EXPECT_EQ(tracer.totals(b).total_ns, 15u);
  EXPECT_EQ(tracer.totals(b).self_ns, 15u);
  EXPECT_EQ(tracer.totals(c).self_ns, 10u);
  uint64_t self_sum = 0;
  for (const SpanTracer::Totals& t : tracer.totals()) {
    self_sum += t.self_ns;
  }
  EXPECT_EQ(self_sum, tracer.totals(root).total_ns);

  // Records close innermost first and carry their parent's id.
  ASSERT_EQ(tracer.records().size(), 5u);
  const SpanTracer::Record& nested_b = tracer.records()[0];
  const SpanTracer::Record& span_a = tracer.records()[1];
  const SpanTracer::Record& span_root = tracer.records()[4];
  EXPECT_EQ(nested_b.parent, span_a.id);
  EXPECT_EQ(span_a.parent, span_root.id);
  EXPECT_EQ(span_root.parent, kNoParent);
  EXPECT_EQ(nested_b.op_id, 1u);
  EXPECT_EQ(tracer.TotalsOf("missing").calls, 0u);
}

TEST(SpanTracerTest, KeepsRootSpansPastTheRecordLimit) {
  SpanTracer tracer(1);
  const uint32_t root = tracer.Name("root");
  const uint32_t child = tracer.Name("child");
  tracer.Begin(root, 0, 0);
  for (uint64_t t = 1; t < 10; t += 2) {
    tracer.Begin(child, t, t);
    tracer.End(t + 1);
  }
  tracer.End(20);
  ASSERT_EQ(tracer.records().size(), 2u);
  EXPECT_EQ(tracer.records().back().name, root);
  EXPECT_EQ(tracer.totals(child).calls, 5u);
  EXPECT_EQ(tracer.totals(root).self_ns, 15u);
}

TEST(ExactPercentileTest, NearestRankOnKnownInputs) {
  std::vector<uint64_t> v(1000);
  std::iota(v.begin(), v.end(), 1);
  EXPECT_EQ(ExactPercentile(v, 50), 500u);
  EXPECT_EQ(ExactPercentile(v, 99), 990u);
  EXPECT_EQ(ExactPercentile(v, 99.9), 999u);
  EXPECT_EQ(ExactPercentile(v, 100), 1000u);
  EXPECT_EQ(ExactPercentile(v, 0), 1u);
  EXPECT_EQ(ExactPercentile(std::vector<uint64_t>{}, 50), 0u);
  const Latencies three = {10, 20, 30};
  EXPECT_EQ(ExactPercentile(three, 50), 20u);
  EXPECT_EQ(ExactPercentile(three, 99.9), 30u);
  EXPECT_EQ(ExactPercentile(three, 1), 10u);
  const Latencies ties = {5, 5, 5, 7};
  EXPECT_EQ(ExactPercentile(ties, 75), 5u);
  EXPECT_EQ(ExactPercentile(ties, 76), 7u);
}

// A workload shrunk to a 256 MiB device and a short measured phase.
WorkloadSpec Small(const std::string& name) {
  WorkloadSpec spec = MakeSpec(name, 0.1).value();
  spec.config.nand.num_segments = 64;
  spec.age_writes = spec.age_writes > 0 ? spec.config.nand.TotalPages() : 0;
  spec.measured_ops = 20000;
  if (spec.snapshot_every > 0) {
    spec.snapshot_every = 4096;
    spec.activate_every = 2;
    spec.readback_pages = 256;
    spec.activation_limit = iosnap::RateLimit::Unlimited();
  }
  return spec;
}

PhaseResult RunOnce(const WorkloadSpec& spec, uint64_t seed, std::vector<std::string>* gate) {
  auto bench = Bench::Setup(spec, seed);
  EXPECT_TRUE(bench.ok()) << bench.status();
  if (!bench.ok()) {
    return {};
  }
  PhaseResult r = (*bench)->Run(nullptr, nullptr);
  *gate = (*bench)->Gate();
  return r;
}

TEST(DeterminismTest, SameSeedSameVirtualResultsOtherSeedOtherStream) {
  for (const std::string& name : WorkloadNames()) {
    SCOPED_TRACE(name);
    const WorkloadSpec spec = Small(name);
    std::vector<std::string> gate_a, gate_b, gate_c;
    const PhaseResult a = RunOnce(spec, 7, &gate_a);
    const PhaseResult b = RunOnce(spec, 7, &gate_b);
    const PhaseResult c = RunOnce(spec, 8, &gate_c);
    EXPECT_TRUE(gate_a.empty()) << gate_a.front();
    EXPECT_TRUE(gate_c.empty()) << gate_c.front();
    EXPECT_EQ(a.failed, 0u);
    EXPECT_GE(a.user_ops, spec.measured_ops);
    EXPECT_TRUE(a.VirtualEquals(b));
    EXPECT_EQ(a.map_digest, b.map_digest);
    EXPECT_NE(a.op_stream_digest, c.op_stream_digest);
    // The slices cover the whole phase, final drain included.
    EXPECT_EQ(a.slice_wall_ns.size(), kSlices);
    EXPECT_EQ(std::accumulate(a.slice_wall_ns.begin(), a.slice_wall_ns.end(), uint64_t{0}),
              a.wall_ns);
    EXPECT_GT(a.peak_rss_bytes, a.harness_bytes);
    if (spec.snapshot_every > 0) {
      EXPECT_GT(a.snap_create_ns.size(), 0u);
      EXPECT_GT(a.activate_ns.size(), 0u);
    }
  }
}

TEST(DeterminismTest, TracingDoesNotChangeVirtualResults) {
  const WorkloadSpec spec = Small("snapshot_churn");
  auto untraced = Bench::Setup(spec, 3);
  auto traced = Bench::Setup(spec, 3);
  ASSERT_TRUE(untraced.ok() && traced.ok());
  SpanTracer tracer(1000);
  iosnap::LatencyAttributor attributor;
  const PhaseResult a = (*untraced)->Run(nullptr, nullptr);
  const PhaseResult b = (*traced)->Run(&tracer, &attributor);
  EXPECT_TRUE(a.VirtualEquals(b));
  EXPECT_GT(attributor.ops(), 0u);
  uint64_t self_sum = 0;
  for (const SpanTracer::Totals& t : tracer.totals()) {
    self_sum += t.self_ns;
  }
  EXPECT_EQ(self_sum, tracer.TotalsOf("harness").total_ns);
}

TEST(SetupTest, ScalarPathRejectsBatchesTrimsAndSnapshots) {
  const WorkloadSpec scalar = Small("read_mostly");
  ASSERT_EQ(scalar.path, Path::kScalar);
  WorkloadSpec batched = scalar;
  batched.batch = 2;
  WorkloadSpec trims = scalar;
  trims.trim_frac = 0.1;
  WorkloadSpec snapshots = scalar;
  snapshots.snapshot_every = 100;
  for (const WorkloadSpec& spec : {batched, trims, snapshots}) {
    EXPECT_EQ(Bench::Setup(spec, 1).status().code(), iosnap::StatusCode::kInvalidArgument);
  }
}

TEST(FailureTest, OverfullSnapshotConfigurationCountsFailedOps) {
  // 16 MiB of 64-page segments, 90% of its LBAs live and 64 snapshots kept: pinned
  // data fills the device, and every later write fails after bounded inline cleaning.
  WorkloadSpec spec = Small("snapshot_churn");
  spec.config.nand.pages_per_segment = 64;
  spec.working_set_frac = 0.9;
  spec.zipf_theta = 0.0;
  spec.age_writes = 0;
  spec.snapshot_every = 256;
  spec.keep_snapshots = 64;
  spec.activate_every = 0;
  spec.measured_ops = 6000;
  auto bench = Bench::Setup(spec, 1);
  ASSERT_TRUE(bench.ok()) << bench.status();
  const PhaseResult r = (*bench)->Run(nullptr, nullptr);
  EXPECT_GT(r.failed, 0u);
  EXPECT_LT(r.failed, r.attempted);
  EXPECT_FALSE((*bench)->first_failure().empty());
}

}  // namespace
}  // namespace e2ebench
