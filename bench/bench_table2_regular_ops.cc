// Table 2: Regular operations — vanilla FTL vs ioSnap.
//
// The paper's headline sanity check: with no snapshot activity, ioSnap's sequential and
// random read/write throughput is indistinguishable from the vanilla driver. The paper
// issued 16 GB of 4K I/O with two threads on a 1.2 TB device; we issue a scaled volume
// on the 3 GiB simulated device at the same queue depths and repeat 5 times.

#include "bench/bench_common.h"

namespace iosnap {
namespace {

constexpr uint64_t kRepeats = 5;
constexpr uint64_t kIoPages = 64 * 1024;  // 256 MiB of 4K I/O per measurement.
constexpr uint64_t kWriteQd = 64;         // Async writes (paper: 2 threads, async).
constexpr uint64_t kSeqReadQd = 64;       // Prefetch-friendly sequential reads.
constexpr uint64_t kRandReadQd = 2;       // Paper: two reader threads, sync reads.

// `batch` = 0 runs the paper's job for the pattern: one group of ops per queue depth.
double RunCase(bool snapshots_enabled, const std::string& pattern, IoKind kind,
               uint64_t seed, uint64_t batch = 0) {
  FtlConfig config = BenchConfig();
  config.snapshots_enabled = snapshots_enabled;
  std::unique_ptr<Ftl> ftl = MustCreate(config);
  SimClock clock;

  const uint64_t lba_space = ftl->LbaCount() * 3 / 4;
  if (kind == IoKind::kRead) {
    Prefill(ftl.get(), &clock, lba_space);
  }

  Runner runner(ftl.get(), &clock);
  std::unique_ptr<Workload> workload;
  if (pattern == "seq") {
    workload = std::make_unique<SequentialWorkload>(kind, 0, lba_space, /*wrap=*/true);
  } else {
    workload = std::make_unique<RandomWorkload>(kind, lba_space, seed);
  }

  RunOptions options;
  if (batch > 0) {
    options.batch = batch;
  } else if (kind == IoKind::kWrite) {
    options.batch = kWriteQd;
  } else {
    options.batch = pattern == "seq" ? kSeqReadQd : kRandReadQd;
  }
  const uint64_t start = clock.NowNs();
  auto result = runner.Run(workload.get(), kIoPages, options);
  IOSNAP_CHECK(result.ok());
  const uint64_t end = std::max(result->drain_end_ns, clock.NowNs());
  // With --metrics_out the file reflects the last case measured (each case rebuilds
  // the device, so a shared registry would dangle).
  BenchDumpMetrics(*ftl);
  return MbPerSec(result->bytes, end - start);
}

void Row(const char* label, const std::string& pattern, IoKind kind) {
  Measurement vanilla;
  Measurement iosnap;
  for (uint64_t rep = 0; rep < kRepeats; ++rep) {
    vanilla.Add(RunCase(false, pattern, kind, 1000 + rep));
    iosnap.Add(RunCase(true, pattern, kind, 1000 + rep));
  }
  std::printf("%-18s %s   %s\n", label, vanilla.Format("MB/s").c_str(),
              iosnap.Format("MB/s").c_str());
  // Virtual-time MB/s is deterministic across hosts: the regression-gate anchor.
  BenchRecord("table2." + BenchSlug(label) + ".vanilla_mbps", vanilla.stats.mean());
  BenchRecord("table2." + BenchSlug(label) + ".iosnap_mbps", iosnap.stats.mean());
}

// Same patterns on ioSnap at fixed group sizes (--batch), one column per size.
void BatchRow(const char* label, const std::string& pattern, IoKind kind,
              const std::vector<uint64_t>& batches) {
  std::printf("%-18s", label);
  for (uint64_t batch : batches) {
    Measurement m;
    for (uint64_t rep = 0; rep < kRepeats; ++rep) {
      m.Add(RunCase(true, pattern, kind, 1000 + rep, batch));
    }
    std::printf("  %9.2f", m.stats.mean());
    BenchRecord("table2." + BenchSlug(label) + ".batch" + std::to_string(batch) +
                    "_mbps",
                m.stats.mean());
  }
  std::printf("  MB/s\n");
}

}  // namespace
}  // namespace iosnap

int main(int argc, char** argv) {
  using namespace iosnap;
  BenchInit(argc, argv);
  PrintHeader("Table 2: Regular operations (4K I/O, 256 MiB per run, 5 runs)",
              "ioSnap within noise of vanilla on all four patterns");
  std::printf("%-18s %-24s %-24s\n", "", "Vanilla", "ioSnap");
  PrintRule();
  Row("Sequential Write", "seq", IoKind::kWrite);
  Row("Random Write", "rand", IoKind::kWrite);
  Row("Sequential Read", "seq", IoKind::kRead);
  Row("Random Read", "rand", IoKind::kRead);
  PrintRule();
  std::printf("(paper, 1.2TB testbed: seq write 1617 vs 1615; rand write 1375 vs 1380;\n"
              " seq read 1238 vs 1240; rand read 312 vs 310 MB/s)\n");

  const std::vector<uint64_t> batches = {1, 8, 32};
  std::printf("\nioSnap, vectored submission (--batch):\n");
  std::printf("%-18s", "");
  for (uint64_t b : batches) {
    std::printf("  batch=%-4llu", static_cast<unsigned long long>(b));
  }
  std::printf("\n");
  PrintRule();
  BatchRow("Sequential Write", "seq", IoKind::kWrite, batches);
  BatchRow("Random Write", "rand", IoKind::kWrite, batches);
  BatchRow("Sequential Read", "seq", IoKind::kRead, batches);
  BatchRow("Random Read", "rand", IoKind::kRead, batches);
  BenchFinish();
  return 0;
}
