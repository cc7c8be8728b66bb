// iosnap_sim — interactive exploration of the ioSnap FTL from the command line.
//
// Builds a simulated device from flags, runs a workload with optional snapshot cadence,
// and prints a full statistics report: throughput, latency percentiles, GC and
// snapshot-machinery counters, write amplification, wear, and memory footprints.
//
// Examples:
//   iosnap_sim --workload=randwrite --ops=500000 --snapshot_every=50000
//   iosnap_sim --device_mib=1024 --workload=zipf --policy=colocate --timeline
//   iosnap_sim --workload=mixed --read_frac=0.7 --crash_and_recover
//   iosnap_sim --vanilla --workload=seqwrite      # snapshots compiled out of the path

#include <algorithm>
#include <cstdio>
#include <string>
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
#include "src/obs/metrics_sampler.h"
#include "src/nand/nand_image.h"
#include "src/obs/trace.h"
#include "src/obs/trace_export.h"
#include "src/workload/runner.h"
#include "src/workload/workload.h"

using namespace iosnap;

namespace {

constexpr const char* kUsage = R"(iosnap_sim: drive the ioSnap FTL simulator

Device:
  --device_mib=N         device capacity in MiB               (default 1024)
  --page_kib=N           page size in KiB                     (default 4)
  --segment_pages=N      pages per erase segment              (default 1024)
  --channels=N           flash channels                       (default 16)
  --buses=N              independent transfer buses; channels
                         stripe across them (1 = the classic
                         single shared bus)                   (default 1)
  --copyback=0|1         GC copy-forward via on-die copyback  (default 0)
  --copyback_scrub=0|1   verify source CRC inside copyback    (default 1)
  --overprovision=F      reserved physical fraction           (default 0.25)
  --chunk_bits=N         validity chunk granularity           (default 8192)
  --policy=NAME          greedy | costbenefit | colocate      (default greedy)
  --parity_stripe=N      XOR-parity stripe width: one parity page per N appended
                         pages; unreadable pages are rebuilt from the stripe
                         instead of dropped                   (default 0 = off)
  --wear_leveling_threshold=N  recycle a cold segment once its erase count falls
                         N behind the most-worn segment       (default 0 = off)
  --vanilla              disable the snapshot machinery
  --vanilla_gc_rate      use the snapshot-unaware GC pacing estimate

Workload:
  --workload=NAME        seqwrite | randwrite | randread | mixed | zipf (default randwrite)
  --ops=N                operations to run                    (default 200000)
  --lba_frac=F           fraction of the LBA space used       (default 0.75)
  --read_frac=F          read fraction for mixed              (default 0.5)
  --zipf_theta=F         skew for zipf                        (default 0.9)
  --qd=N                 queue depth                          (default 1)
  --batch=N              ops per vectored submission; 1 = scalar path (default 1)
  --queues=N             multi-queue mode: N submission queues (default 0 = off)
  --iodepth=N            in-flight submissions per queue      (default 1)
  --seed=N               workload RNG seed                    (default 42)

Snapshots:
  --snapshot_every=N     create a snapshot every N ops        (default 0 = never)
  --snapshots=N          spread N snapshots evenly over the run
  --keep_snapshots=N     live-snapshot rotation window        (default 4)
  --activate_last        activate + verify the newest snapshot at the end

Lifecycle:
  --crash_and_recover    release the device and reopen it through full recovery
                         at the end (a crash and a clean shutdown are the same)
  --timeline             print a latency timeline CSV (100 ms buckets)

Fault injection (all rates in failures per million ops; 0 = disabled):
  --fault_seed=N         RNG seed for fault draws              (default 1)
  --fault_program_ppm=N  page program failure rate             (default 0)
  --fault_erase_ppm=N    segment erase failure rate            (default 0)
  --fault_read_ppm=N     transient read failure rate           (default 0)
  --fault_corrupt_ppm=N  silent bit-corruption rate            (default 0)
  --crash_after_op=N     device goes offline after the Nth op  (default 0 = never)
  --read_retry_limit=N   total attempts per page read before a transient failure
                         surfaces to the caller                (default 3)

Media reliability (wear model rates 0 = disabled):
  --read_disturb_ppm_per_k_reads=N  per-read corruption rate scaled by the segment's
                         reads-since-erase / 1000               (default 0)
  --retention_ppm_per_sec=N  per-read corruption rate scaled by page age in
                         virtual seconds since program          (default 0)
  --patrol               enable the background patrol scrubber
  --patrol_pages_per_step=N  pages verified per patrol burst    (default 8)
  --patrol_sleep_ms=N    sleep between patrol bursts            (default 10)
  --patrol_refresh_reads=N   preemptively rewrite live pages once their segment
                         absorbed N reads since erase           (default 0 = off)
  --patrol_refresh_age_ms=N  ... or once the page is older than N virtual ms
                                                                (default 0 = off)
  --degraded_free_floor=N    enter read-only mode below N free segments (0 = off)
  --degraded_retired_floor=N ... or at N retired segments       (default 0 = off)
  --degraded_exit_free=N     free segments needed to exit       (default 0 = floor)
  --image_out=PATH       save the at-rest media image for iosnap_fsck; implies
                         --store_data=1
  --store_data=0|1       simulate page payloads (slower; lets wear corruption land
                         in payloads so fsck triage is exact)   (default 0)

Observability:
  --trace_out=PATH       write a flight-recorder trace; .csv for CSV, anything
                         else for Chrome trace-event JSON (load in Perfetto)
  --trace_capacity=N     trace ring-buffer capacity in events    (default 262144)
  --metrics_out=PATH     dump every FTL/NAND/validity counter; .csv or JSON
  --spans_out=PATH       write per-op latency attribution CSV (one row per op with
                         queue_wait/gc_wait/bus/cell/map/cow/host_other spans that
                         sum exactly to the end-to-end latency); also adds lat.*
                         span histograms to --metrics_out
  --metrics_interval_ns=N  sample every registered counter each N virtual ns
                         during the measured run (default 0 = off)
  --metrics_series_out=PATH  write the sampled time series as wide CSV
  --log_level=NAME       debug | info | warning | error          (default info)
  --help                 this text
)";

const std::vector<std::string> kKnownFlags = {
    "device_mib", "page_kib", "segment_pages", "channels", "buses", "copyback",
    "copyback_scrub", "overprovision",
    "chunk_bits", "policy", "vanilla", "vanilla_gc_rate", "workload", "ops",
    "lba_frac", "read_frac", "zipf_theta", "qd", "batch", "queues", "iodepth", "seed",
    "snapshot_every",
    "snapshots",
    "keep_snapshots", "activate_last", "crash_and_recover", "timeline",
    "parity_stripe", "wear_leveling_threshold",
    "fault_seed", "fault_program_ppm", "fault_erase_ppm", "fault_read_ppm",
    "fault_corrupt_ppm", "crash_after_op", "read_retry_limit",
    "read_disturb_ppm_per_k_reads", "retention_ppm_per_sec",
    "patrol", "patrol_pages_per_step", "patrol_sleep_ms", "patrol_refresh_reads",
    "patrol_refresh_age_ms",
    "degraded_free_floor", "degraded_retired_floor", "degraded_exit_free",
    "image_out", "store_data",
    "trace_out", "trace_capacity", "metrics_out", "spans_out", "metrics_interval_ns",
    "metrics_series_out", "log_level", "help"};

void PrintFaultStats(const Ftl& ftl) {
  const NandStats& n = ftl.device().stats();
  const LogStats& l = ftl.log_manager().stats();
  if (n.program_failures + n.erase_failures + n.read_failures + n.crc_errors +
          n.pages_corrupted + n.read_disturb_corruptions + n.retention_corruptions +
          l.segments_retired ==
      0) {
    return;
  }
  std::printf("--- faults -----------------------------------------------\n");
  std::printf("program/erase/read fail %llu / %llu / %llu\n",
              (unsigned long long)n.program_failures,
              (unsigned long long)n.erase_failures,
              (unsigned long long)n.read_failures);
  std::printf("crc errors / corrupted  %llu / %llu (retries %llu)\n",
              (unsigned long long)n.crc_errors, (unsigned long long)n.pages_corrupted,
              (unsigned long long)n.read_retries);
  if (n.read_disturb_corruptions + n.retention_corruptions > 0) {
    std::printf("wear: disturb/retention %llu / %llu pages corrupted\n",
                (unsigned long long)n.read_disturb_corruptions,
                (unsigned long long)n.retention_corruptions);
  }
  std::printf("segments retired        %12llu (append reroutes %llu)\n",
              (unsigned long long)l.segments_retired,
              (unsigned long long)l.append_reroutes);
}

void PrintStats(const Ftl& ftl, const RunResult& result) {
  const FtlStats& s = ftl.stats();
  const NandStats& n = ftl.device().stats();
  std::printf("\n--- run summary ------------------------------------------\n");
  std::printf("ops                     %12llu\n", (unsigned long long)result.ops);
  std::printf("virtual elapsed         %12.3f s\n", NsToSec(result.ElapsedNs()));
  std::printf("throughput              %12.1f MB/s\n",
              MbPerSec(result.bytes, result.ElapsedNs()));
  std::printf("latency mean/p50/p99    %9.1f / %.1f / %.1f us\n",
              result.latency.MeanNs() / 1000.0, NsToUs(result.latency.PercentileNs(50)),
              NsToUs(result.latency.PercentileNs(99)));
  std::printf("latency max             %12.1f us\n", NsToUs(result.latency.MaxNs()));
  std::printf("--- ftl --------------------------------------------------\n");
  std::printf("user writes/reads/trims %llu / %llu / %llu\n",
              (unsigned long long)s.user_writes, (unsigned long long)s.user_reads,
              (unsigned long long)s.user_trims);
  if (s.user_writes > 0) {
    std::printf("write amplification     %12.3f\n",
                (double)s.total_pages_programmed / (double)s.user_writes);
  }
  std::printf("snapshots create/del    %llu / %llu (rollbacks %llu, activations %llu)\n",
              (unsigned long long)s.snapshots_created,
              (unsigned long long)s.snapshots_deleted, (unsigned long long)s.rollbacks,
              (unsigned long long)s.activations);
  std::printf("validity CoW            %llu events, %llu bytes\n",
              (unsigned long long)s.validity_cow_events,
              (unsigned long long)s.validity_cow_bytes);
  std::printf("--- cleaner ----------------------------------------------\n");
  std::printf("segments cleaned        %12llu\n", (unsigned long long)s.gc_segments_cleaned);
  std::printf("pages copied forward    %12llu\n", (unsigned long long)s.gc_pages_copied);
  std::printf("notes copied/dropped    %llu / %llu (summaries %llu)\n",
              (unsigned long long)s.gc_notes_copied,
              (unsigned long long)s.gc_notes_dropped,
              (unsigned long long)s.gc_summaries_written);
  std::printf("inline write stalls     %12llu\n", (unsigned long long)s.gc_inline_stalls);
  std::printf("validity merge host     %12.2f ms\n", NsToMs(s.gc_merge_host_ns));
  if (s.patrol_pages_scanned > 0) {
    std::printf("--- patrol -----------------------------------------------\n");
    std::printf("pages scanned           %12llu (%llu full sweeps)\n",
                (unsigned long long)s.patrol_pages_scanned,
                (unsigned long long)s.patrol_sweeps);
    std::printf("rewritten / dropped     %llu / %llu (segments evacuated %llu)\n",
                (unsigned long long)s.patrol_pages_rewritten,
                (unsigned long long)s.patrol_pages_dropped,
                (unsigned long long)s.patrol_segments_evacuated);
  }
  const LogStats& l = ftl.log_manager().stats();
  if (l.parity_pages_written + s.pages_rebuilt + s.pages_rebuild_failed +
          s.pages_lost_forever + s.pages_superseded >
      0) {
    std::printf("--- parity & rebuild -------------------------------------\n");
    std::printf("parity pages written    %12llu\n",
                (unsigned long long)l.parity_pages_written);
    std::printf("rebuilt / failed        %llu / %llu\n",
                (unsigned long long)s.pages_rebuilt,
                (unsigned long long)s.pages_rebuild_failed);
    std::printf("lost forever/superseded %llu / %llu\n",
                (unsigned long long)s.pages_lost_forever,
                (unsigned long long)s.pages_superseded);
  }
  if (s.degraded_entries + s.degraded_writes_rejected > 0 || ftl.degraded()) {
    std::printf("--- degraded mode ----------------------------------------\n");
    std::printf("state                   %12s\n",
                ftl.degraded() ? "READ-ONLY" : "writable");
    std::printf("entries / exits         %llu / %llu (writes rejected %llu)\n",
                (unsigned long long)s.degraded_entries,
                (unsigned long long)s.degraded_exits,
                (unsigned long long)s.degraded_writes_rejected);
  }
  std::printf("--- device -----------------------------------------------\n");
  std::printf("pages programmed/read   %llu / %llu\n",
              (unsigned long long)n.pages_programmed, (unsigned long long)n.pages_read);
  std::printf("segments erased         %12llu\n", (unsigned long long)n.segments_erased);
  if (n.copyback_pages > 0) {
    std::printf("copyback pages          %12llu (%llu cross-channel fallbacks)\n",
                (unsigned long long)n.copyback_pages,
                (unsigned long long)n.copyback_fallbacks);
  }
  for (uint32_t bus = 0; bus < ftl.device().NumBuses(); ++bus) {
    std::printf("bus %u busy fraction     %12.3f\n", bus, ftl.device().BusBusyFrac(bus));
  }
  PrintFaultStats(ftl);
  uint64_t max_wear = 0;
  uint64_t total_wear = 0;
  for (uint64_t seg = 0; seg < ftl.config().nand.num_segments; ++seg) {
    const uint64_t wear = ftl.device().EraseCount(seg);
    max_wear = std::max(max_wear, wear);
    total_wear += wear;
  }
  std::printf("wear mean/max           %.2f / %llu erases per segment\n",
              (double)total_wear / (double)ftl.config().nand.num_segments,
              (unsigned long long)max_wear);
  std::printf("--- memory -----------------------------------------------\n");
  std::printf("forward map             %12llu bytes (%llu entries)\n",
              (unsigned long long)*ftl.ViewMapMemoryBytes(kPrimaryView),
              (unsigned long long)*ftl.ViewMapEntryCount(kPrimaryView));
  std::printf("validity maps           %12llu bytes (%zu distinct chunks)\n",
              (unsigned long long)ftl.validity().MemoryBytes(),
              ftl.validity().DistinctChunkCount());
  if (result.queue_stats.submissions > 0) {
    const IoQueueStats& q = result.queue_stats;
    std::printf("--- queues -----------------------------------------------\n");
    std::printf("submissions / ops       %llu / %llu (flushes %llu, merged runs %llu)\n",
                (unsigned long long)q.submissions, (unsigned long long)q.ops_submitted,
                (unsigned long long)q.flushes, (unsigned long long)q.merged_runs);
    std::printf("completed / failed      %llu / %llu (max inflight ops %llu)\n",
                (unsigned long long)q.ops_completed, (unsigned long long)q.ops_failed,
                (unsigned long long)q.max_inflight_ops);
    for (size_t i = 0; i < result.per_queue.size(); ++i) {
      const IoQueueLayer::PerQueueStats& pq = result.per_queue[i];
      std::printf("  queue %zu: %llu subs, %llu ops, %llu completed, max depth %llu\n", i,
                  (unsigned long long)pq.submissions,
                  (unsigned long long)pq.ops_submitted,
                  (unsigned long long)pq.ops_completed,
                  (unsigned long long)pq.max_inflight_subs);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }
  const auto unknown = flags.UnknownFlags(kKnownFlags);
  if (!unknown.empty()) {
    for (const auto& name : unknown) {
      std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
    }
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  const std::string log_level = flags.GetString("log_level", "info");
  const std::optional<LogLevel> parsed_level = ParseLogLevel(log_level);
  if (!parsed_level.has_value()) {
    std::fprintf(stderr, "unknown --log_level=%s\n", log_level.c_str());
    return 2;
  }
  SetLogLevel(*parsed_level);

  const std::string trace_out = flags.GetString("trace_out", "");
  const std::string metrics_out = flags.GetString("metrics_out", "");
  std::unique_ptr<TraceRecorder> trace;
  if (!trace_out.empty()) {
    trace = std::make_unique<TraceRecorder>(
        (size_t)flags.GetInt("trace_capacity", TraceRecorder::kDefaultCapacity));
  }

  FtlConfig config;
  config.nand.page_size_bytes = (uint64_t)flags.GetInt("page_kib", 4) * kKiB;
  config.nand.pages_per_segment = (uint64_t)flags.GetInt("segment_pages", 1024);
  const uint64_t device_bytes = (uint64_t)flags.GetInt("device_mib", 1024) * kMiB;
  config.nand.num_segments = std::max<uint64_t>(
      8, device_bytes / (config.nand.page_size_bytes * config.nand.pages_per_segment));
  config.nand.num_channels = (uint32_t)flags.GetInt("channels", 16);
  config.nand.buses = (uint32_t)flags.GetInt("buses", 1);
  config.nand.copyback_scrub = flags.GetBool("copyback_scrub", true);
  config.gc_copyback = flags.GetBool("copyback", false);
  // Payloads are not simulated by default (headers alone carry the FTL state).
  // Saving an image turns them on so wear corruption lands in payloads, keeping
  // headers parseable for iosnap_fsck's exact lost-data triage.
  const std::string image_out = flags.GetString("image_out", "");
  config.nand.store_data = flags.GetBool("store_data", !image_out.empty());
  config.overprovision = flags.GetDouble("overprovision", 0.25);
  config.validity_chunk_bits = (uint64_t)flags.GetInt("chunk_bits", 8192);
  config.snapshots_enabled = !flags.GetBool("vanilla", false);
  config.snapshot_aware_gc_rate = !flags.GetBool("vanilla_gc_rate", false);
  config.nand.fault.seed = (uint64_t)flags.GetInt("fault_seed", 1);
  config.nand.fault.program_fail_ppm = (uint32_t)flags.GetInt("fault_program_ppm", 0);
  config.nand.fault.erase_fail_ppm = (uint32_t)flags.GetInt("fault_erase_ppm", 0);
  config.nand.fault.read_fail_ppm = (uint32_t)flags.GetInt("fault_read_ppm", 0);
  config.nand.fault.corrupt_ppm = (uint32_t)flags.GetInt("fault_corrupt_ppm", 0);
  config.nand.fault.crash_after_op = (uint64_t)flags.GetInt("crash_after_op", 0);
  config.nand.fault.read_disturb_ppm_per_k_reads =
      (uint32_t)flags.GetInt("read_disturb_ppm_per_k_reads", 0);
  config.nand.fault.retention_ppm_per_sec =
      (uint32_t)flags.GetInt("retention_ppm_per_sec", 0);
  config.patrol_enabled = flags.GetBool("patrol", false);
  config.patrol_pages_per_step = (uint64_t)flags.GetInt("patrol_pages_per_step", 8);
  config.patrol_sleep_ms = (uint64_t)flags.GetInt("patrol_sleep_ms", 10);
  config.patrol_refresh_reads = (uint64_t)flags.GetInt("patrol_refresh_reads", 0);
  config.patrol_refresh_age_ms = (uint64_t)flags.GetInt("patrol_refresh_age_ms", 0);
  config.degraded_free_floor = (uint64_t)flags.GetInt("degraded_free_floor", 0);
  config.degraded_retired_floor = (uint64_t)flags.GetInt("degraded_retired_floor", 0);
  config.degraded_exit_free = (uint64_t)flags.GetInt("degraded_exit_free", 0);
  config.parity_stripe = (uint64_t)flags.GetInt("parity_stripe", 0);
  config.wear_leveling_threshold =
      (uint64_t)flags.GetInt("wear_leveling_threshold", 0);
  config.read_retry_limit = (uint32_t)flags.GetInt("read_retry_limit", 3);
  const bool faults_armed = config.nand.fault.AnyFaultConfigured();

  const std::string policy = flags.GetString("policy", "greedy");
  if (policy == "costbenefit") {
    config.cleaner_policy = CleanerPolicy::kCostBenefit;
  } else if (policy == "colocate") {
    config.cleaner_policy = CleanerPolicy::kEpochColocate;
    config.gc_reserve_segments = 8;
    config.gc_low_free_segments = 20;
    config.gc_high_free_segments = 36;
  } else if (policy != "greedy") {
    std::fprintf(stderr, "unknown --policy=%s\n", policy.c_str());
    return 2;
  }

  auto ftl_or = Ftl::Create(config);
  if (!ftl_or.ok()) {
    std::fprintf(stderr, "Ftl::Create: %s\n", ftl_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Ftl> ftl = std::move(ftl_or).value();
  ftl->SetTraceRecorder(trace.get());
  SimClock clock;

  const uint64_t lba_space = std::max<uint64_t>(
      1, (uint64_t)((double)ftl->LbaCount() * flags.GetDouble("lba_frac", 0.75)));
  const uint64_t ops = (uint64_t)flags.GetInt("ops", 200000);
  const uint64_t seed = (uint64_t)flags.GetInt("seed", 42);
  const std::string workload_name = flags.GetString("workload", "randwrite");

  std::unique_ptr<Workload> workload;
  if (workload_name == "seqwrite") {
    workload = std::make_unique<SequentialWorkload>(IoKind::kWrite, 0, lba_space, true);
  } else if (workload_name == "randwrite") {
    workload = std::make_unique<RandomWorkload>(IoKind::kWrite, lba_space, seed);
  } else if (workload_name == "randread") {
    workload = std::make_unique<RandomWorkload>(IoKind::kRead, lba_space, seed);
  } else if (workload_name == "mixed") {
    workload = std::make_unique<MixedWorkload>(flags.GetDouble("read_frac", 0.5),
                                               lba_space, seed);
  } else if (workload_name == "zipf") {
    workload = std::make_unique<ZipfWorkload>(IoKind::kWrite, lba_space,
                                              flags.GetDouble("zipf_theta", 0.9), seed);
  } else {
    std::fprintf(stderr, "unknown --workload=%s\n", workload_name.c_str());
    return 2;
  }

  if (workload_name == "randread" || workload_name == "mixed") {
    std::printf("prefilling %llu blocks for reads...\n", (unsigned long long)lba_space);
    FtlTarget target(ftl.get());
    Runner prefill(&target, &clock, config.nand.page_size_bytes);
    SequentialWorkload fill(IoKind::kWrite, 0, lba_space);
    RunOptions fill_options;
    fill_options.queue_depth = 16;
    auto filled = prefill.Run(&fill, lba_space, fill_options);
    IOSNAP_CHECK(filled.ok());
    clock.AdvanceTo(filled->drain_end_ns);
  }

  // Latency attribution records per-op span breakdowns; attached after the prefill so
  // the CSV covers only the measured workload. The attributor outlives the ftl (it is
  // a passive sink), so a crash/reopen at the end leaves the records intact.
  const std::string spans_out = flags.GetString("spans_out", "");
  std::unique_ptr<LatencyAttributor> attributor;
  if (!spans_out.empty()) {
    attributor = std::make_unique<LatencyAttributor>();
    ftl->SetLatencyAttributor(attributor.get());
  }

  // Periodic time-series sampling: the registry binds pointers into this ftl's stats
  // structs, so it is built before the run and only sampled while this ftl is alive
  // (samples copy the values out, so writing the CSV after a reopen is safe).
  const uint64_t metrics_interval_ns = (uint64_t)flags.GetInt("metrics_interval_ns", 0);
  const std::string metrics_series_out = flags.GetString("metrics_series_out", "");
  MetricsRegistry live_registry;
  std::unique_ptr<MetricsSampler> sampler;
  if (metrics_interval_ns > 0) {
    RegisterFtlStats(&live_registry, ftl->stats());
    RegisterNandStats(&live_registry, ftl->device().stats());
    RegisterNandBusGauges(&live_registry, ftl->device());
    RegisterValidityStats(&live_registry, ftl->validity().stats());
    RegisterLogStats(&live_registry, ftl->log_manager().stats());
    sampler = std::make_unique<MetricsSampler>(&live_registry, metrics_interval_ns);
  }

  // Snapshot cadence + rotation via the runner's per-op hook. --snapshots=N is
  // shorthand for "spread N snapshots evenly over the run".
  uint64_t snapshot_every = (uint64_t)flags.GetInt("snapshot_every", 0);
  const uint64_t snapshot_count = (uint64_t)flags.GetInt("snapshots", 0);
  if (snapshot_count > 0) {
    if (snapshot_every != 0) {
      std::fprintf(stderr, "pass either --snapshots or --snapshot_every, not both\n");
      return 2;
    }
    snapshot_every = std::max<uint64_t>(1, ops / snapshot_count);
  }
  const size_t keep = (size_t)flags.GetInt("keep_snapshots", 4);
  std::vector<uint32_t> live_snaps;
  RunOptions options;
  options.queue_depth = (uint64_t)flags.GetInt("qd", 1);
  options.batch = (uint64_t)flags.GetInt("batch", 1);
  options.queues = (uint32_t)flags.GetInt("queues", 0);
  options.iodepth = (uint32_t)flags.GetInt("iodepth", 1);
  options.record_timeline = flags.GetBool("timeline", false);
  options.sampler = sampler.get();
  if (snapshot_every > 0 && config.snapshots_enabled) {
    options.after_op = [&](uint64_t index, uint64_t now_ns) {
      if ((index + 1) % snapshot_every != 0) {
        return;
      }
      while (live_snaps.size() >= keep) {
        auto deleted = ftl->DeleteSnapshot(live_snaps.front(), now_ns);
        if (!deleted.ok()) {
          if (!faults_armed) {
            IOSNAP_CHECK_OK(deleted.status());
          }
          return;  // Injected fault; leave the rotation as-is.
        }
        live_snaps.erase(live_snaps.begin());
      }
      auto snap = ftl->CreateSnapshot("auto-" + std::to_string(index + 1), now_ns);
      if (!snap.ok()) {
        if (!faults_armed) {
          IOSNAP_CHECK_OK(snap.status());
        }
        return;
      }
      live_snaps.push_back(snap->snap_id);
    };
  }

  FtlTarget target(ftl.get());
  Runner runner(&target, &clock, config.nand.page_size_bytes);
  auto result = runner.Run(workload.get(), ops, options);
  if (!result.ok()) {
    if (!faults_armed) {
      std::fprintf(stderr, "run failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    // With injection armed, a mid-run abort is an expected outcome: report what
    // happened and continue to recovery / stats so the degraded path is exercised.
    std::printf("workload aborted by injected fault: %s\n",
                result.status().ToString().c_str());
  }

  if (result.ok()) {
    PrintStats(*ftl, *result);
  } else {
    // The per-run latency summary needs a completed RunResult, but the fault
    // counters are most interesting on exactly the runs that aborted.
    PrintFaultStats(*ftl);
  }
  if (!live_snaps.empty()) {
    std::printf("--- live snapshots ---------------------------------------\n");
    for (uint32_t snap : live_snaps) {
      auto space = ftl->SnapshotSpaceReport(snap);
      auto info = ftl->snapshot_tree().Get(snap);
      IOSNAP_CHECK(space.ok() && info.ok());
      std::printf("  %u (\"%s\"): %llu referenced, %llu exclusive pages\n", snap,
                  info->name.c_str(), (unsigned long long)space->referenced_pages,
                  (unsigned long long)space->exclusive_pages);
    }
  }

  if (flags.GetBool("activate_last", false) && !live_snaps.empty()) {
    const uint64_t start = clock.NowNs();
    uint64_t finish = start;
    auto view = ftl->ActivateBlocking(live_snaps.back(), start, false, &finish);
    if (!view.ok()) {
      if (!faults_armed) {
        IOSNAP_CHECK_OK(view.status());
      }
      std::printf("activation failed under injected faults: %s\n",
                  view.status().ToString().c_str());
    } else {
      clock.AdvanceTo(finish);
      std::printf("activated snapshot %u in %.2f ms (%llu map entries)\n",
                  live_snaps.back(), NsToMs(finish - start),
                  (unsigned long long)*ftl->ViewMapEntryCount(*view));
      IOSNAP_CHECK_OK(ftl->Deactivate(*view, clock.NowNs()));
    }
  }

  if (flags.GetBool("timeline", false) && result.ok()) {
    std::printf("\nlatency timeline (100 ms buckets):\n%s",
                result->timeline.ToCsv(MsToNs(100), "t_sec", "lat_us").c_str());
  }

  if (flags.GetBool("crash_and_recover", false)) {
    std::printf("\nsimulating crash + reopen...\n");
    std::unique_ptr<NandDevice> media = ftl->ReleaseDevice();
    // A power cycle brings the device back online; media damage (bad blocks,
    // corrupted pages) persists but the injection schedule is disarmed.
    media->ClearFaults();
    const uint64_t start = clock.NowNs();
    uint64_t finish = start;
    auto reopened = Ftl::Open(config, std::move(media), start, &finish, trace.get());
    IOSNAP_CHECK(reopened.ok());
    ftl = std::move(reopened).value();
    std::printf("recovered in %.2f ms: %llu mapped blocks, %zu live snapshots\n",
                NsToMs(finish - start),
                (unsigned long long)*ftl->ViewMapEntryCount(kPrimaryView),
                ftl->snapshot_tree().LiveSnapshotIds().size());
  }

  if (trace != nullptr) {
    if (WriteTraceFile(*trace, trace_out)) {
      std::printf("\ntrace: %llu events to %s (%llu recorded, %llu dropped)\n",
                  (unsigned long long)trace->size(), trace_out.c_str(),
                  (unsigned long long)trace->total_recorded(),
                  (unsigned long long)trace->dropped());
    } else {
      std::fprintf(stderr, "failed to write --trace_out=%s\n", trace_out.c_str());
      return 1;
    }
  }
  if (attributor != nullptr) {
    if (attributor->WriteCsvFile(spans_out)) {
      std::printf("spans: %zu ops to %s (%llu dropped)\n", attributor->size(),
                  spans_out.c_str(), (unsigned long long)attributor->dropped());
    } else {
      std::fprintf(stderr, "failed to write --spans_out=%s\n", spans_out.c_str());
      return 1;
    }
  }
  if (sampler != nullptr && !metrics_series_out.empty()) {
    if (sampler->WriteCsvFile(metrics_series_out)) {
      std::printf("metrics series: %zu samples to %s\n", sampler->samples(),
                  metrics_series_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write --metrics_series_out=%s\n",
                   metrics_series_out.c_str());
      return 1;
    }
  }
  if (!metrics_out.empty()) {
    MetricsRegistry registry;
    RegisterFtlStats(&registry, ftl->stats());
    RegisterNandStats(&registry, ftl->device().stats());
    RegisterNandBusGauges(&registry, ftl->device());
    RegisterValidityStats(&registry, ftl->validity().stats());
    RegisterLogStats(&registry, ftl->log_manager().stats());
    RegisterIoQueueStats(&registry, GlobalIoQueueStats());
    registry.RegisterHistogram("io_queue.completion_latency",
                               &GlobalQueueCompletionHistogram());
    if (result.ok()) {
      registry.RegisterHistogram("run.latency", &result->latency);
    }
    if (attributor != nullptr) {
      attributor->RegisterMetrics(&registry);
    }
    if (registry.WriteFile(metrics_out)) {
      std::printf("metrics: %zu metrics to %s\n", registry.MetricCount(),
                  metrics_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write --metrics_out=%s\n", metrics_out.c_str());
      return 1;
    }
  }
  if (!image_out.empty()) {
    // At-rest media snapshot for iosnap_fsck: taken after any reopen above, so the
    // image reflects exactly what a restarted host would see.
    Status saved = SaveNandImage(ftl->device(), image_out);
    if (!saved.ok()) {
      std::fprintf(stderr, "failed to write --image_out=%s: %s\n", image_out.c_str(),
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("image: media saved to %s\n", image_out.c_str());
  }
  return 0;
}
