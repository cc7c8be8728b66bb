// Bindings that register the FTL's cumulative stat structs into a MetricsRegistry.
//
// Every field of FtlStats, NandStats, and ValidityStats is registered by const pointer
// under a dotted name ("ftl.user_writes", "nand.pages_read", ...). tests/obs checks the
// field counts, so a newly added stat field that is not bound here fails the build's
// test suite rather than silently vanishing from metric dumps.

#ifndef SRC_OBS_METRICS_BINDINGS_H_
#define SRC_OBS_METRICS_BINDINGS_H_

#include "src/core/ftl_stats.h"
#include "src/core/io_queue.h"
#include "src/ftl/log_manager.h"
#include "src/ftl/validity_map.h"
#include "src/nand/nand_device.h"
#include "src/obs/metrics.h"

namespace iosnap {

// Number of fields each binding registers; keep in sync with the structs (test-checked).
inline constexpr size_t kFtlStatsMetricCount = 41;
inline constexpr size_t kNandStatsMetricCount = 16;
inline constexpr size_t kValidityStatsMetricCount = 7;
inline constexpr size_t kLogStatsMetricCount = 3;
inline constexpr size_t kIoQueueStatsMetricCount = 10;

inline void RegisterFtlStats(MetricsRegistry* registry, const FtlStats& s,
                             const std::string& prefix = "ftl.") {
  const auto add = [&](const char* name, const uint64_t* v) {
    registry->RegisterCounter(prefix + name, v);
  };
  add("user_writes", &s.user_writes);
  add("user_reads", &s.user_reads);
  add("user_trims", &s.user_trims);
  add("user_bytes_written", &s.user_bytes_written);
  add("user_bytes_read", &s.user_bytes_read);
  add("snapshots_created", &s.snapshots_created);
  add("snapshots_deleted", &s.snapshots_deleted);
  add("activations", &s.activations);
  add("deactivations", &s.deactivations);
  add("rollbacks", &s.rollbacks);
  add("gc_segments_cleaned", &s.gc_segments_cleaned);
  add("gc_pages_copied", &s.gc_pages_copied);
  add("gc_notes_copied", &s.gc_notes_copied);
  add("gc_notes_dropped", &s.gc_notes_dropped);
  add("gc_summaries_written", &s.gc_summaries_written);
  add("gc_inline_stalls", &s.gc_inline_stalls);
  add("gc_wear_level_cleans", &s.gc_wear_level_cleans);
  add("gc_victim_selections", &s.gc_victim_selections);
  add("gc_merge_host_ns", &s.gc_merge_host_ns);
  add("gc_total_host_ns", &s.gc_total_host_ns);
  add("gc_device_busy_ns", &s.gc_device_busy_ns);
  add("validity_cow_events", &s.validity_cow_events);
  add("validity_cow_bytes", &s.validity_cow_bytes);
  add("activation_segments_scanned", &s.activation_segments_scanned);
  add("activation_segments_skipped", &s.activation_segments_skipped);
  add("activation_entries", &s.activation_entries);
  add("total_pages_programmed", &s.total_pages_programmed);
  add("user_read_errors", &s.user_read_errors);
  add("gc_pages_lost", &s.gc_pages_lost);
  add("pages_rebuilt", &s.pages_rebuilt);
  add("pages_rebuild_failed", &s.pages_rebuild_failed);
  add("pages_lost_forever", &s.pages_lost_forever);
  add("pages_superseded", &s.pages_superseded);
  add("patrol_sweeps", &s.patrol_sweeps);
  add("patrol_pages_scanned", &s.patrol_pages_scanned);
  add("patrol_pages_rewritten", &s.patrol_pages_rewritten);
  add("patrol_pages_dropped", &s.patrol_pages_dropped);
  add("patrol_segments_evacuated", &s.patrol_segments_evacuated);
  add("degraded_entries", &s.degraded_entries);
  add("degraded_exits", &s.degraded_exits);
  add("degraded_writes_rejected", &s.degraded_writes_rejected);
}

inline void RegisterNandStats(MetricsRegistry* registry, const NandStats& s,
                              const std::string& prefix = "nand.") {
  const auto add = [&](const char* name, const uint64_t* v) {
    registry->RegisterCounter(prefix + name, v);
  };
  add("pages_programmed", &s.pages_programmed);
  add("pages_read", &s.pages_read);
  add("headers_scanned", &s.headers_scanned);
  add("segments_erased", &s.segments_erased);
  add("bytes_programmed", &s.bytes_programmed);
  add("bytes_read", &s.bytes_read);
  add("program_failures", &s.program_failures);
  add("erase_failures", &s.erase_failures);
  add("read_failures", &s.read_failures);
  add("crc_errors", &s.crc_errors);
  add("pages_corrupted", &s.pages_corrupted);
  add("read_retries", &s.read_retries);
  add("copyback_pages", &s.copyback_pages);
  add("copyback_fallbacks", &s.copyback_fallbacks);
  add("read_disturb_corruptions", &s.read_disturb_corruptions);
  add("retention_corruptions", &s.retention_corruptions);
}

// Per-bus utilization gauges: "nand.bus_busy_frac.<i>" for each transfer bus. These
// need the device itself (busy horizons live outside NandStats), so they are a
// separate registration from RegisterNandStats; `device` must outlive the registry.
inline void RegisterNandBusGauges(MetricsRegistry* registry, const NandDevice& device,
                                  const std::string& prefix = "nand.") {
  for (uint32_t bus = 0; bus < device.NumBuses(); ++bus) {
    const NandDevice* d = &device;
    registry->RegisterGauge(prefix + "bus_busy_frac." + std::to_string(bus),
                            [d, bus] { return d->BusBusyFrac(bus); });
  }
}

inline void RegisterValidityStats(MetricsRegistry* registry, const ValidityStats& s,
                                  const std::string& prefix = "validity.") {
  const auto add = [&](const char* name, const uint64_t* v) {
    registry->RegisterCounter(prefix + name, v);
  };
  add("cow_chunk_copies", &s.cow_chunk_copies);
  add("cow_bytes_copied", &s.cow_bytes_copied);
  add("chunk_allocations", &s.chunk_allocations);
  add("merge_chunk_visits", &s.merge_chunk_visits);
  add("merge_plane_rebuilds", &s.merge_plane_rebuilds);
  add("merge_plane_hits", &s.merge_plane_hits);
  add("range_recounts", &s.range_recounts);
}

inline void RegisterLogStats(MetricsRegistry* registry, const LogStats& s,
                             const std::string& prefix = "log.") {
  const auto add = [&](const char* name, const uint64_t* v) {
    registry->RegisterCounter(prefix + name, v);
  };
  add("append_reroutes", &s.append_reroutes);
  add("segments_retired", &s.segments_retired);
  add("parity_pages_written", &s.parity_pages_written);
}

// `inflight_ops` registers as a gauge (it rises and falls); the rest as counters.
inline void RegisterIoQueueStats(MetricsRegistry* registry, const IoQueueStats& s,
                                 const std::string& prefix = "io_queue.") {
  const auto add = [&](const char* name, const uint64_t* v) {
    registry->RegisterCounter(prefix + name, v);
  };
  add("submissions", &s.submissions);
  add("ops_submitted", &s.ops_submitted);
  add("ops_completed", &s.ops_completed);
  add("ops_failed", &s.ops_failed);
  add("flushes", &s.flushes);
  add("merged_runs", &s.merged_runs);
  add("queue_full_rejections", &s.queue_full_rejections);
  add("max_inflight_ops", &s.max_inflight_ops);
  add("completions_examined", &s.completions_examined);
  const uint64_t* inflight = &s.inflight_ops;
  registry->RegisterGauge(prefix + "inflight_ops",
                          [inflight] { return static_cast<double>(*inflight); });
}

}  // namespace iosnap

#endif  // SRC_OBS_METRICS_BINDINGS_H_
