// Multi-queue submission scaling: throughput vs --queues ∈ {1, 2, 4, 8}.
//
// Measures what the NVMe-style IoQueueLayer (src/core/io_queue) buys over a single
// synchronous submitter on the same device. The sweep holds iodepth=1 per queue, so
// total in-flight submissions == queue count: at queues=1 every submission drains
// before the next is admitted (the vectored path's cadence, and its regression
// anchor), while at queues=N new submissions are admitted at earlier completions'
// times and keep the channel/bus pipeline full across batch boundaries.
//
// Flags: --queue_counts=1,2,4,8 overrides the sweep; --iodepth=N the per-queue depth
// (raising it saturates even a single queue — the sweep then measures nothing);
// --batch=N the ops per submission; --pages=N the per-run volume.

#include "bench/bench_common.h"

namespace iosnap {
namespace {

constexpr uint64_t kDefaultPages = 64 * 1024;  // 256 MiB of 4K I/O per measurement.
constexpr uint64_t kDefaultBatch = 32;
constexpr uint64_t kDefaultIodepth = 1;
constexpr uint64_t kRepeats = 3;

double RunCase(const std::string& pattern, IoKind kind, uint32_t queues,
               uint32_t iodepth, uint64_t batch, uint64_t pages, uint64_t seed,
               uint32_t buses = 1, bool copyback = false, uint64_t parity_stripe = 0,
               double* parity_space_frac = nullptr) {
  FtlConfig config = BenchConfig();
  config.parity_stripe = parity_stripe;
  // 32 channels instead of BenchConfig's 16: at 16, the per-channel cycle
  // (50us program + 3us transfer) exceeds the 16-slot bus rotation (48us), so the
  // channel array — not the shared bus — caps pipelined throughput and flattens the
  // sweep. At 32 the bus is the binding resource, which is the contention this
  // experiment is about.
  config.nand.num_channels = 32;
  config.nand.buses = buses;
  config.gc_copyback = copyback;
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
  options.queues = queues;
  options.iodepth = iodepth;
  options.batch = batch;
  const uint64_t start = clock.NowNs();
  auto result = runner.Run(workload.get(), pages, options);
  IOSNAP_CHECK(result.ok());
  const uint64_t end = std::max(result->drain_end_ns, clock.NowNs());
  if (parity_space_frac != nullptr) {
    const uint64_t programmed = ftl->device().stats().pages_programmed;
    const uint64_t parity = ftl->log_manager().stats().parity_pages_written;
    *parity_space_frac =
        programmed > 0 ? static_cast<double>(parity) / static_cast<double>(programmed)
                       : 0.0;
  }
  BenchDumpMetrics(*ftl);
  return MbPerSec(result->bytes, end - start);
}

void Row(const char* label, const std::string& pattern, IoKind kind,
         const std::vector<uint32_t>& queue_counts, uint32_t iodepth, uint64_t batch,
         uint64_t pages) {
  std::printf("%-18s", label);
  double base = 0;
  for (uint32_t queues : queue_counts) {
    Measurement m;
    for (uint64_t rep = 0; rep < kRepeats; ++rep) {
      m.Add(RunCase(pattern, kind, queues, iodepth, batch, pages, 4000 + rep));
    }
    if (base == 0) {
      base = m.stats.mean();
    }
    std::printf("  %8.1f (%4.2fx)", m.stats.mean(),
                base > 0 ? m.stats.mean() / base : 0);
    BenchRecord("queue_scaling." + BenchSlug(label) + ".q" + std::to_string(queues) +
                    "_mbps",
                m.stats.mean());
  }
  std::printf("  MB/s\n");
}

// Multi-bus sweep: same workload at a fixed queue count, buses ∈ `bus_counts`.
// buses=1 is the single-shared-bus ceiling (≈1365 MB/s at 4 KiB / 3 µs); more buses
// stripe the channels across independent transfer paths until the channel array
// itself becomes the binding resource.
void BusRow(const char* label, const std::string& pattern, IoKind kind,
            const std::vector<uint32_t>& bus_counts, uint32_t queues, uint32_t iodepth,
            uint64_t batch, uint64_t pages, bool copyback) {
  std::printf("%-18s", label);
  double base = 0;
  for (uint32_t buses : bus_counts) {
    Measurement m;
    for (uint64_t rep = 0; rep < kRepeats; ++rep) {
      m.Add(RunCase(pattern, kind, queues, iodepth, batch, pages, 5000 + rep, buses,
                    copyback));
    }
    if (base == 0) {
      base = m.stats.mean();
    }
    std::printf("  %8.1f (%4.2fx)", m.stats.mean(),
                base > 0 ? m.stats.mean() / base : 0);
    BenchRecord("queue_scaling." + BenchSlug(label) + ".buses" + std::to_string(buses) +
                    "_mbps",
                m.stats.mean());
  }
  std::printf("  MB/s\n");
}

// Parity overhead sweep: same workload at a fixed queue count, parity_stripe ∈
// `stripes` (0 = protection off, the baseline column). Each cell reports bandwidth,
// the ratio to the parity-off column, and the measured space overhead — the fraction
// of all page programs that were parity pages (≈ 1/(stripe+1) of data traffic, minus
// segment-boundary clamping).
void ParityRow(const char* label, const std::string& pattern, IoKind kind,
               const std::vector<uint64_t>& stripes, uint32_t queues, uint32_t iodepth,
               uint64_t batch, uint64_t pages) {
  std::printf("%-18s", label);
  double base = 0;
  for (uint64_t stripe : stripes) {
    Measurement m;
    double space_frac = 0;
    for (uint64_t rep = 0; rep < kRepeats; ++rep) {
      m.Add(RunCase(pattern, kind, queues, iodepth, batch, pages, 6000 + rep,
                    /*buses=*/1, /*copyback=*/false, stripe, &space_frac));
    }
    if (base == 0) {
      base = m.stats.mean();
    }
    std::printf("  %8.1f (%4.2fx, %4.1f%%)", m.stats.mean(),
                base > 0 ? m.stats.mean() / base : 0, 100.0 * space_frac);
    BenchRecord("queue_scaling." + BenchSlug(label) + ".parity" +
                    std::to_string(stripe) + "_mbps",
                m.stats.mean());
  }
  std::printf("  MB/s\n");
}

}  // namespace
}  // namespace iosnap

int main(int argc, char** argv) {
  using namespace iosnap;
  Flags flags = BenchInit(argc, argv,
                          {"queue_counts", "bus_counts", "parity_stripes", "iodepth",
                           "batch", "pages", "copyback"});
  std::vector<uint32_t> queue_counts;
  const std::string counts_str = flags.GetString("queue_counts", "1,2,4,8");
  for (size_t pos = 0; pos < counts_str.size();) {
    const size_t comma = counts_str.find(',', pos);
    const std::string tok = counts_str.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const uint64_t q = std::strtoull(tok.c_str(), nullptr, 10);
    IOSNAP_CHECK(q > 0);
    queue_counts.push_back((uint32_t)q);
    pos = comma == std::string::npos ? counts_str.size() : comma + 1;
  }
  const uint32_t iodepth = (uint32_t)flags.GetInt("iodepth", kDefaultIodepth);
  const uint64_t batch = (uint64_t)flags.GetInt("batch", kDefaultBatch);
  const uint64_t pages = (uint64_t)flags.GetInt("pages", kDefaultPages);

  PrintHeader("Multi-queue submission: virtual-time throughput vs queue count",
              "one deep queue is bus-limited; more queues pipeline admissions "
              "across flushes");
  std::printf("(iodepth=%u, batch=%llu per submission)\n", iodepth,
              (unsigned long long)batch);
  std::printf("%-18s", "");
  for (uint32_t q : queue_counts) {
    std::printf("  queues=%-10u", q);
  }
  std::printf("\n");
  PrintRule();
  Row("Sequential Write", "seq", IoKind::kWrite, queue_counts, iodepth, batch, pages);
  Row("Random Write", "rand", IoKind::kWrite, queue_counts, iodepth, batch, pages);
  Row("Sequential Read", "seq", IoKind::kRead, queue_counts, iodepth, batch, pages);
  Row("Random Read", "rand", IoKind::kRead, queue_counts, iodepth, batch, pages);
  PrintRule();
  std::printf("(speedup in parentheses is relative to the first queue count listed)\n");

  std::vector<uint32_t> bus_counts;
  const std::string buses_str = flags.GetString("bus_counts", "1,2,4");
  for (size_t pos = 0; pos < buses_str.size();) {
    const size_t comma = buses_str.find(',', pos);
    const std::string tok = buses_str.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const uint64_t b = std::strtoull(tok.c_str(), nullptr, 10);
    IOSNAP_CHECK(b > 0);
    bus_counts.push_back((uint32_t)b);
    pos = comma == std::string::npos ? buses_str.size() : comma + 1;
  }
  const bool copyback = flags.GetBool("copyback", false);
  const uint32_t bus_sweep_queues = 4;

  PrintHeader("Per-channel buses: virtual-time throughput vs bus count",
              "buses=1 is the shared-bus ceiling; striping channels across buses "
              "lifts it until the channel array binds");
  std::printf("(queues=%u, iodepth=%u, batch=%llu, copyback=%s)\n", bus_sweep_queues,
              iodepth, (unsigned long long)batch, copyback ? "on" : "off");
  std::printf("%-18s", "");
  for (uint32_t b : bus_counts) {
    std::printf("  buses=%-11u", b);
  }
  std::printf("\n");
  PrintRule();
  BusRow("Sequential Write", "seq", IoKind::kWrite, bus_counts, bus_sweep_queues,
         iodepth, batch, pages, copyback);
  BusRow("Random Write", "rand", IoKind::kWrite, bus_counts, bus_sweep_queues, iodepth,
         batch, pages, copyback);
  BusRow("Sequential Read", "seq", IoKind::kRead, bus_counts, bus_sweep_queues, iodepth,
         batch, pages, copyback);
  PrintRule();
  std::printf("(speedup in parentheses is relative to the first bus count listed)\n");

  std::vector<uint64_t> parity_stripes;
  const std::string stripes_str = flags.GetString("parity_stripes", "0,7,3");
  for (size_t pos = 0; pos < stripes_str.size();) {
    const size_t comma = stripes_str.find(',', pos);
    const std::string tok = stripes_str.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    parity_stripes.push_back(std::strtoull(tok.c_str(), nullptr, 10));
    pos = comma == std::string::npos ? stripes_str.size() : comma + 1;
  }

  PrintHeader("Segment parity: virtual-time throughput vs parity stripe width",
              "one parity program per `stripe` data pages costs ~1/(stripe+1) of "
              "bandwidth and space; stripe=0 is the unprotected baseline");
  std::printf("(queues=%u, iodepth=%u, batch=%llu; cell = MB/s (vs stripe=%llu, "
              "parity space share))\n",
              bus_sweep_queues, iodepth, (unsigned long long)batch,
              (unsigned long long)parity_stripes.front());
  std::printf("%-18s", "");
  for (uint64_t s : parity_stripes) {
    std::printf("  stripe=%-17llu", (unsigned long long)s);
  }
  std::printf("\n");
  PrintRule();
  ParityRow("Sequential Write", "seq", IoKind::kWrite, parity_stripes, bus_sweep_queues,
            iodepth, batch, pages);
  ParityRow("Random Write", "rand", IoKind::kWrite, parity_stripes, bus_sweep_queues,
            iodepth, batch, pages);
  PrintRule();
  BenchFinish();
  return 0;
}
