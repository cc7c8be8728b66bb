// Figure 9: Random-read latency during snapshot activation, with and without
// rate-limiting.
//
// Setup mirrors the paper: data spread across two snapshots, 4K random foreground reads;
// ~0.5 s into the workload the first snapshot is activated. Unthrottled activation
// saturates the device and multiplies read latency; rate-limiting ("x usec work / y msec
// sleep") trades activation time for foreground latency.
//
// Scaling: the paper has 1 GB in two snapshots on 1.2 TB and shows 100 us reads spiking
// ~10x for 0.3 s (no limit), vs ~2x spikes with activation stretched to ~3.5 s. We place
// 256 MiB across two snapshots on a 1 GiB device.

#include "bench/bench_common.h"

namespace iosnap {
namespace {

struct LimitCase {
  const char* name;
  RateLimit limit;
};

void RunCase(const LimitCase& c, bool print_timeline) {
  FtlConfig config = BenchConfigSmall();
  std::unique_ptr<Ftl> ftl = MustCreate(config);
  SimClock clock;
  const uint64_t half = 32 * 1024;       // 128 MiB per snapshot.
  const uint64_t lba_space = 2 * half;   // Foreground reads stay on mapped blocks.

  // Half the data before each snapshot, covering [0, 2*half) so foreground reads always
  // hit mapped blocks.
  auto fill_range = [&](uint64_t start) {
    Runner runner(ftl.get(), &clock);
    SequentialWorkload fill(IoKind::kWrite, start, half);
    RunOptions options;
    options.batch = 16;
    auto result = runner.Run(&fill, half, options);
    IOSNAP_CHECK(result.ok());
    clock.AdvanceTo(result->drain_end_ns);
  };
  fill_range(0);
  auto s1 = ftl->CreateSnapshot("fig9-a", clock.NowNs());
  IOSNAP_CHECK(s1.ok());
  clock.AdvanceTo(s1->io.CompletionNs());
  fill_range(half);
  auto s2 = ftl->CreateSnapshot("fig9-b", clock.NowNs());
  IOSNAP_CHECK(s2.ok());
  clock.AdvanceTo(s2->io.CompletionNs());

  Timeline latency;
  Rng rng(33);
  const uint64_t t0 = clock.NowNs();
  OnlineStats before;
  OnlineStats during;

  bool activation_started = false;
  bool activation_done = false;
  uint64_t activation_start = 0;
  uint64_t activation_end = 0;
  uint32_t view_id = 0;

  // Foreground reads for 4 virtual seconds (or until activation completes if longer).
  while (true) {
    const uint64_t now = clock.NowNs();
    const uint64_t elapsed = now - t0;
    if (!activation_started && elapsed >= MsToNs(500)) {
      auto view = ftl->BeginActivation(*&s1->snap_id, c.limit, now);
      IOSNAP_CHECK(view.ok());
      view_id = *view;
      activation_started = true;
      activation_start = now;
    }
    if (activation_started && !activation_done && ftl->ActivationDone(view_id)) {
      activation_done = true;
      activation_end = now;
    }
    if (elapsed > SecToNs(4) && (!activation_started || activation_done)) {
      break;
    }
    ftl->PumpBackground(now);
    auto io = ftl->Read(rng.NextBelow(lba_space), clock.NowNs(), nullptr);
    IOSNAP_CHECK(io.ok());
    clock.AdvanceTo(io->CompletionNs());
    const double lat_us = NsToUs(io->LatencyNs());
    latency.Add(now - t0, lat_us);
    if (!activation_started) {
      before.Add(lat_us);
    } else if (!activation_done) {
      during.Add(lat_us);
    }
  }

  std::printf("%-18s baseline %7.1f us | during activation mean %8.1f us"
              " max %8.1f us | activation took %7.2f s\n",
              c.name, before.mean(), during.mean(), during.max(),
              NsToSec(activation_end - activation_start));
  if (print_timeline) {
    std::printf("  timeline (50 ms buckets):\n%s\n",
                latency.ToCsv(MsToNs(50), "t_sec", "read_lat_us").c_str());
  }
}

}  // namespace
}  // namespace iosnap

int main(int argc, char** argv) {
  using namespace iosnap;
  Flags flags = BenchInit(argc, argv, {"timeline"});
  const bool timelines = flags.GetBool("timeline", false);
  PrintHeader("Figure 9: random-read latency during activation, by rate limit",
              "no limit: ~10x latency, short activation; stricter limits: small spikes,"
              " activation stretched by an order of magnitude");
  RunCase({"(a) no limit", RateLimit::Unlimited()}, timelines);
  RunCase({"(b) 600us/10ms", RateLimit::Of(600, 10)}, timelines);
  RunCase({"(c) 200us/25ms", RateLimit::Of(200, 25)}, timelines);
  PrintRule();
  std::printf("(paper: 100 us baseline; 10x spikes for 0.3 s unthrottled; 2x spikes with\n"
              " activation stretched to ~3.5 s under 50usec/250msec pacing)\n");
  BenchFinish();
  return 0;
}
