// Shared helpers for the paper-reproduction benchmarks.
//
// Every benchmark binary regenerates one table or figure from the ioSnap paper's
// evaluation (§6) on the simulated device, printing the same rows/series the paper
// reports. Absolute numbers differ from the paper's Fusion-io testbed (see DESIGN.md's
// substitution table); the *shapes* — which system wins, by what factor, where the
// crossovers sit — are the reproduction target.
//
// Scaling: the paper's device is 1.2 TB; the default bench device is 3 GiB (x410 smaller)
// so that runs complete in seconds of wall time. Per-experiment data volumes are scaled
// by the same factor and noted in each binary's output and in EXPERIMENTS.md.

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/sim_clock.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/core/ftl.h"
#include "src/obs/latency.h"
#include "src/obs/metrics.h"
#include "src/obs/metrics_bindings.h"
#include "src/obs/trace.h"
#include "src/obs/trace_export.h"
#include "src/workload/runner.h"
#include "src/workload/workload.h"

namespace iosnap {

// Bench default trace window: smaller than TraceRecorder::kDefaultCapacity because the
// bench overhead budget is tight — the end-to-end cost of --trace_out is dominated by
// the one-time export write (~120 bytes/event of JSON), and a 32Ki-event window keeps
// that under ~2% of a multi-second bench while still covering the measured phase
// (prefill is untraced, see Prefill below). Override with --trace_capacity=N.
inline constexpr size_t kBenchTraceCapacity = 1 << 15;

// Shared observability state for one bench binary. Every FTL built through MustCreate
// gets the recorder attached, so a single --trace_out captures the whole run even when
// the bench constructs several devices back to back.
struct BenchEnv {
  std::string trace_out;
  std::string metrics_out;
  std::string bench_out;
  std::unique_ptr<TraceRecorder> trace;
  // Per-op latency attribution across every FTL the bench constructs (--attribution).
  // Off by default: the bench overhead budget treats attribution like tracing — a
  // feature under test, not ambient cost.
  std::unique_ptr<LatencyAttributor> attributor;
  // Deterministic virtual-time results (BenchRecord): these depend only on the
  // simulation, never on host speed, so they are the metrics the CI regression gate
  // may compare commit-over-commit.
  std::vector<std::pair<std::string, double>> gauges;
};

inline BenchEnv& GlobalBenchEnv() {
  static BenchEnv env;
  return env;
}

// Parses the shared bench flags (--trace_out=, --trace_capacity=, --metrics_out=,
// --bench_out=, --attribution, --attribution_stride=, --log_level=) plus any
// bench-specific `extra_known` flags, rejecting typos. Call first in main(); the
// returned Flags serves the bench's own lookups.
inline Flags BenchInit(int argc, char** argv,
                       const std::vector<std::string>& extra_known = {}) {
  Flags flags = Flags::Parse(argc, argv);
  std::vector<std::string> known = {"trace_out",   "trace_capacity",
                                    "metrics_out", "bench_out",
                                    "attribution", "attribution_stride",
                                    "log_level"};
  known.insert(known.end(), extra_known.begin(), extra_known.end());
  const auto unknown = flags.UnknownFlags(known);
  if (!unknown.empty()) {
    for (const auto& name : unknown) {
      std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
    }
    std::exit(2);
  }
  const std::string log_level = flags.GetString("log_level", "info");
  const std::optional<LogLevel> parsed_level = ParseLogLevel(log_level);
  if (!parsed_level.has_value()) {
    std::fprintf(stderr, "unknown --log_level=%s\n", log_level.c_str());
    std::exit(2);
  }
  SetLogLevel(*parsed_level);

  BenchEnv& env = GlobalBenchEnv();
  env.trace_out = flags.GetString("trace_out", "");
  env.metrics_out = flags.GetString("metrics_out", "");
  env.bench_out = flags.GetString("bench_out", "");
  if (!env.trace_out.empty()) {
    env.trace = std::make_unique<TraceRecorder>(
        (size_t)flags.GetInt("trace_capacity", kBenchTraceCapacity));
  }
  if (flags.GetBool("attribution", false)) {
    // Benches only read the aggregates (span shares + histograms), so keep the cost
    // off the measured loop: a small ring (the default 24 MiB one streams through the
    // cache once per op) and a 1-in-16 sampling stride. Full recording costs ~30 ns
    // per op — ~9% of bench_table2's wall clock — while stride 16 keeps the overhead
    // under 1% and still sees >1M sampled ops per bench run. Span shares from the
    // sample are unbiased; pass --attribution_stride=1 to record every op.
    const uint64_t stride =
        (uint64_t)std::max<int64_t>(1, flags.GetInt("attribution_stride", 16));
    env.attributor = std::make_unique<LatencyAttributor>(4096, stride);
  }
  return flags;
}

// Records one deterministic virtual-time result under "bench.<name>". These land in
// --bench_out (BenchFinish) and feed tools/bench_trajectory.py --check, so record only
// values that are a pure function of the simulation (MB/s over the virtual clock,
// virtual latencies) — never wall-clock measurements.
inline void BenchRecord(const std::string& name, double value) {
  GlobalBenchEnv().gauges.emplace_back("bench." + name, value);
}

// "Sequential Write" -> "sequential_write": row labels as gauge-name components.
inline std::string BenchSlug(const std::string& label) {
  std::string slug;
  for (char c : label) {
    slug += c == ' ' ? '_' : (char)std::tolower((unsigned char)c);
  }
  return slug;
}

// Dumps every FtlStats/NandStats/ValidityStats/LogStats counter of `ftl` to
// --metrics_out. No-op when the flag is unset. Registers against the live ftl, so call
// it while the device of interest still exists (typically on the last configuration
// measured).
inline void BenchDumpMetrics(const Ftl& ftl) {
  BenchEnv& env = GlobalBenchEnv();
  if (env.metrics_out.empty()) {
    return;
  }
  MetricsRegistry registry;
  RegisterFtlStats(&registry, ftl.stats());
  RegisterNandStats(&registry, ftl.device().stats());
  RegisterNandBusGauges(&registry, ftl.device());
  RegisterValidityStats(&registry, ftl.validity().stats());
  RegisterLogStats(&registry, ftl.log_manager().stats());
  // Multi-queue layer: process-wide aggregates (queue-depth gauge, completion-latency
  // histogram), so benches that never construct an IoQueueLayer still dump zeros and
  // queue-scaling benches need no extra wiring.
  RegisterIoQueueStats(&registry, GlobalIoQueueStats());
  registry.RegisterHistogram("io_queue.completion_latency",
                             &GlobalQueueCompletionHistogram());
  if (env.attributor != nullptr) {
    env.attributor->RegisterMetrics(&registry);
  }
  if (registry.WriteFile(env.metrics_out)) {
    std::printf("metrics: %zu metrics to %s\n", registry.MetricCount(),
                env.metrics_out.c_str());
  } else {
    std::fprintf(stderr, "failed to write --metrics_out=%s\n", env.metrics_out.c_str());
  }
}

// Writes the accumulated trace to --trace_out, the BenchRecord gauges to --bench_out
// (flat {"bench.<name>": value} JSON — the shape bench_trajectory.py collects), and
// prints an aggregate span-share table when --attribution is on. Call once at the end
// of main.
inline void BenchFinish() {
  BenchEnv& env = GlobalBenchEnv();
  if (env.attributor != nullptr && env.attributor->ops() > 0) {
    std::printf("\nlatency attribution over %llu ops (share of total latency):\n",
                (unsigned long long)env.attributor->ops());
    uint64_t grand_total = 0;
    for (size_t i = 0; i < kNumLatencySpans; ++i) {
      grand_total += env.attributor->SpanTotalNs(static_cast<LatencySpan>(i));
    }
    for (size_t i = 0; i < kNumLatencySpans; ++i) {
      const LatencySpan span = static_cast<LatencySpan>(i);
      const uint64_t total = env.attributor->SpanTotalNs(span);
      std::printf("  %-11s %10.2f ms  %5.1f%%\n", LatencySpanName(span), NsToMs(total),
                  grand_total > 0 ? 100.0 * (double)total / (double)grand_total : 0.0);
    }
  }
  if (!env.bench_out.empty()) {
    std::string json = "{\n";
    for (size_t i = 0; i < env.gauges.size(); ++i) {
      char line[256];
      std::snprintf(line, sizeof(line), "  \"%s\": %.6f%s\n",
                    env.gauges[i].first.c_str(), env.gauges[i].second,
                    i + 1 < env.gauges.size() ? "," : "");
      json += line;
    }
    json += "}\n";
    std::FILE* f = std::fopen(env.bench_out.c_str(), "wb");
    if (f != nullptr && std::fwrite(json.data(), 1, json.size(), f) == json.size()) {
      std::printf("bench gauges: %zu to %s\n", env.gauges.size(), env.bench_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write --bench_out=%s\n", env.bench_out.c_str());
    }
    if (f != nullptr) {
      std::fclose(f);
    }
  }
  if (env.trace == nullptr) {
    return;
  }
  if (WriteTraceFile(*env.trace, env.trace_out)) {
    std::printf("trace: %llu events to %s (%llu recorded, %llu dropped)\n",
                (unsigned long long)env.trace->size(), env.trace_out.c_str(),
                (unsigned long long)env.trace->total_recorded(),
                (unsigned long long)env.trace->dropped());
  } else {
    std::fprintf(stderr, "failed to write --trace_out=%s\n", env.trace_out.c_str());
  }
}

// Default bench device: 3 GiB, 4 KiB pages, 4 MiB segments, 16 channels, header-only.
inline FtlConfig BenchConfig() {
  FtlConfig config;
  config.nand.page_size_bytes = 4 * kKiB;
  config.nand.pages_per_segment = 1024;
  config.nand.num_segments = 768;
  config.nand.num_channels = 16;
  config.nand.store_data = false;
  config.overprovision = 0.25;
  config.validity_chunk_bits = 8192;
  config.gc_reserve_segments = 4;
  config.gc_low_free_segments = 16;
  config.gc_high_free_segments = 32;
  return config;
}

// A smaller 1 GiB device for latency-timeline experiments.
inline FtlConfig BenchConfigSmall() {
  FtlConfig config = BenchConfig();
  config.nand.num_segments = 256;
  return config;
}

inline std::unique_ptr<Ftl> MustCreate(const FtlConfig& config) {
  auto ftl_or = Ftl::Create(config);
  IOSNAP_CHECK(ftl_or.ok());
  std::unique_ptr<Ftl> ftl = std::move(ftl_or).value();
  ftl->SetTraceRecorder(GlobalBenchEnv().trace.get());
  ftl->SetLatencyAttributor(GlobalBenchEnv().attributor.get());
  return ftl;
}

// Writes `pages` ops from `fill` in groups of 16 and drains the device.
inline void RunPrefill(Ftl* ftl, SimClock* clock, Workload* fill, uint64_t pages) {
  // Prefill traffic would only be overwritten in the ring before the measured phase;
  // pause tracing so it costs nothing and the ring holds the interesting window.
  TracePauseGuard pause(GlobalBenchEnv().trace.get());
  Runner runner(ftl, clock);
  RunOptions options;
  options.batch = 16;
  auto result = runner.Run(fill, pages, options);
  IOSNAP_CHECK(result.ok());
  clock->AdvanceTo(result->drain_end_ns);
}

// Sequentially prefills `pages` pages starting at LBA 0 and drains the device.
inline void Prefill(Ftl* ftl, SimClock* clock, uint64_t pages) {
  SequentialWorkload fill(IoKind::kWrite, 0, pages);
  RunPrefill(ftl, clock, &fill, pages);
}

// Randomly prefills `pages` writes over [0, lba_space) and drains.
inline void PrefillRandom(Ftl* ftl, SimClock* clock, uint64_t pages, uint64_t lba_space,
                          uint64_t seed) {
  RandomWorkload fill(IoKind::kWrite, lba_space, seed);
  RunPrefill(ftl, clock, &fill, pages);
}

// Pretty-printing helpers.
inline void PrintHeader(const std::string& title, const std::string& paper_expectation) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Paper expectation: %s\n", paper_expectation.c_str());
  std::printf("==============================================================\n");
}

inline void PrintRule() {
  std::printf("--------------------------------------------------------------\n");
}

inline std::string HumanBytes(uint64_t bytes) {
  char buf[64];
  if (bytes >= kGiB) {
    std::snprintf(buf, sizeof(buf), "%.1fG", static_cast<double>(bytes) / kGiB);
  } else if (bytes >= kMiB) {
    std::snprintf(buf, sizeof(buf), "%.0fM", static_cast<double>(bytes) / kMiB);
  } else if (bytes >= kKiB) {
    std::snprintf(buf, sizeof(buf), "%.0fK", static_cast<double>(bytes) / kKiB);
  } else {
    std::snprintf(buf, sizeof(buf), "%lluB", static_cast<unsigned long long>(bytes));
  }
  return buf;
}

// Mean +- sample stddev over repeated measurements.
struct Measurement {
  OnlineStats stats;
  void Add(double x) { stats.Add(x); }
  std::string Format(const char* unit) const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%9.2f +- %-7.2f %s", stats.mean(), stats.stddev(),
                  unit);
    return buf;
  }
};

}  // namespace iosnap

#endif  // BENCH_BENCH_COMMON_H_
