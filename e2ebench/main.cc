// iosnap_e2e: one workload of the end-to-end benchmark, in one process, on one thread.
//
//   iosnap_e2e --workload=NAME --seed=N --seconds=S --trace=0|1 [--trace_out=PATH]
//
// Prints every metric by name and unit, then, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with --trace=0
// (kRounds identical measured rounds), the per-layer metrics with --trace=1 (an untraced
// and a traced round, whose virtual-clock results must be bit-identical). Exits 1 when
// the correctness gate fails and 2 on bad arguments or a set-up error. See README.md in
// this directory.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "e2ebench/harness.h"
#include "e2ebench/span_tracer.h"
#include "src/common/flags.h"
#include "src/common/units.h"
#include "src/obs/latency.h"

namespace e2ebench {
namespace {

using iosnap::LatencySpan;

// The untraced run splits --seconds of measured work into this many rounds, each on its
// own fresh set-up, and all with the same op stream. Other tenants of a shared host only
// ever slow the program down, in stretches from a fraction of a second to tens of
// seconds, so the fastest of several timings of the same work, spread over the run,
// tracks the program where one timing tracks the host. Set-ups and rounds are timed in
// pieces of identical work (set-up chunks, phase slices); setup_s and sim_ops_per_s sum
// each piece's fastest time. An untimed warm-up set-up runs first, as a process starting
// from idle runs its first second markedly slower (clock ramp, cold allocator).
constexpr int kRounds = 6;
// Spans kept whole for the Chrome trace (the per-name totals cover every span).
constexpr size_t kKeptSpans = 50000;

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::optional<uint64_t> samples = {};  // Sample count behind an order statistic.
};

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Sum over pieces k of the fastest timings[i][k]: the time of the whole with every piece
// at its fastest.
uint64_t SumOfFastest(const std::vector<std::vector<uint64_t>>& timings) {
  uint64_t sum = 0;
  for (size_t k = 0; k < timings.front().size(); ++k) {
    uint64_t fastest = timings.front()[k];
    for (const std::vector<uint64_t>& t : timings) {
      fastest = std::min(fastest, k < t.size() ? t[k] : fastest);
    }
    sum += fastest;
  }
  return sum;
}

double MedianNs(const std::vector<uint64_t>& sorted) {
  return static_cast<double>(ExactPercentile(sorted, 50));
}

uint64_t Delta(uint64_t after, uint64_t before) { return after - before; }

// Metrics every workload exercises; gated by BENCHMARK.json bounds.
std::vector<Metric> EndToEndMetrics(const PhaseResult& r, double setup_s, double ops_per_s) {
  const uint64_t elapsed = r.end_ns - r.start_ns;
  const uint64_t user_writes = Delta(r.ftl_after.user_writes, r.ftl_before.user_writes);
  const uint64_t programmed =
      Delta(r.nand_after.pages_programmed, r.nand_before.pages_programmed);
  return {
      {"setup_s", setup_s, "s"},
      {"sim_ops_per_s", ops_per_s, "ops/s"},
      {"peak_rss_mib",
       (static_cast<double>(r.peak_rss_bytes) - static_cast<double>(r.harness_bytes)) /
           (1 << 20),
       "MiB"},
      {"write_mbps", iosnap::MbPerSec(r.write_bytes, elapsed), "MB/s"},
      {"write_p50_us", iosnap::NsToUs(ExactPercentile(r.write_lat_ns, 50)), "us",
       r.write_lat_ns.size()},
      {"write_p999_us", iosnap::NsToUs(ExactPercentile(r.write_lat_ns, 99.9)), "us",
       r.write_lat_ns.size()},
      {"write_amp", Ratio(programmed, user_writes), "ratio"},
      {"space_amp", Ratio(r.merged_valid_pages, r.primary_entries), "ratio"},
  };
}

// Virtual-clock end-to-end metrics that only some workloads exercise (0 elsewhere).
// They are bit-identical in the traced run, so they are reported with the per-layer set.
std::vector<Metric> WorkloadSpecificMetrics(const PhaseResult& r) {
  return {
      {"read_mbps", iosnap::MbPerSec(r.read_bytes, r.end_ns - r.start_ns), "MB/s"},
      {"read_p50_us", iosnap::NsToUs(ExactPercentile(r.read_lat_ns, 50)), "us",
       r.read_lat_ns.size()},
      {"read_p999_us", iosnap::NsToUs(ExactPercentile(r.read_lat_ns, 99.9)), "us",
       r.read_lat_ns.size()},
      {"snap_create_us", MedianNs(r.snap_create_ns) / 1e3, "us", r.snap_create_ns.size()},
      {"activate_ms", MedianNs(r.activate_ns) / 1e6, "ms", r.activate_ns.size()},
      {"failed_op_frac", Ratio(r.failed, r.attempted), "fraction"},
  };
}

std::vector<Metric> PerLayerMetrics(const WorkloadSpec& spec, const PhaseResult& r,
                                    const SpanTracer& tracer,
                                    const iosnap::LatencyAttributor& attributor,
                                    uint64_t untraced_wall_ns) {
  const auto total = [&](const char* name) {
    return static_cast<double>(tracer.TotalsOf(name).total_ns);
  };
  const double wall = total("harness");
  const iosnap::FtlStats& f0 = r.ftl_before;
  const iosnap::FtlStats& f1 = r.ftl_after;
  const double user_writes = Delta(f1.user_writes, f0.user_writes);
  const double user_reads = Delta(f1.user_reads, f0.user_reads);
  const double user_trims = Delta(f1.user_trims, f0.user_trims);
  const double queue_ops = r.queue.ops_submitted;
  const double cleaned = Delta(f1.gc_segments_cleaned, f0.gc_segments_cleaned);
  const double copied = Delta(f1.gc_pages_copied, f0.gc_pages_copied);
  const double elapsed = static_cast<double>(r.end_ns - r.start_ns);
  const double io_queue_ns =
      total("io_queue.submit") + total("io_queue.next_completion") + total("io_queue.poll");

  // Virtual latency shares over the ops the attributor recorded.
  double span_sum = 0.0;
  for (size_t i = 0; i < iosnap::kNumLatencySpans; ++i) {
    span_sum += static_cast<double>(attributor.SpanTotalNs(static_cast<LatencySpan>(i)));
  }
  const auto share = [&](LatencySpan s) {
    return Ratio(static_cast<double>(attributor.SpanTotalNs(s)), span_sum);
  };
  // gc_wait share over the recorded ops slower than the recorded p99.
  const std::vector<iosnap::SpanRecord> records = attributor.Records();
  std::vector<uint64_t> totals;
  totals.reserve(records.size());
  for (const iosnap::SpanRecord& rec : records) {
    totals.push_back(rec.TotalNs());
  }
  std::sort(totals.begin(), totals.end());
  const uint64_t p99 = ExactPercentile(totals, 99);
  double tail_gc = 0.0;
  double tail_total = 0.0;
  for (const iosnap::SpanRecord& rec : records) {
    if (rec.TotalNs() > p99) {
      tail_gc += static_cast<double>(rec.spans[LatencySpan::kGcWait]);
      tail_total += static_cast<double>(rec.TotalNs());
    }
  }

  const double pages_per_segment = static_cast<double>(spec.config.nand.pages_per_segment);
  const double snapshots = static_cast<double>(r.snap_create_ns.size());
  std::vector<Metric> m = {
      {"io_queue.submit_ns_per_op", Ratio(total("io_queue.submit"), queue_ops), "ns/op"},
      {"io_queue.next_completion_ns_per_op",
       Ratio(total("io_queue.next_completion"), queue_ops), "ns/op"},
      {"io_queue.poll_ns_per_op", Ratio(total("io_queue.poll"), queue_ops), "ns/op"},
      {"io_queue.wall_share", Ratio(io_queue_ns, wall), "fraction"},
      {"io_queue.inflight_at_poll", Ratio(r.inflight_at_poll_sum, r.queue_polls), "ops"},
      {"io_queue.completions_per_poll", Ratio(r.completions_delivered, r.poll_calls), "ops"},
      {"io_queue.ops_per_flush", Ratio(queue_ops, r.queue.flushes), "ops"},
      {"io_queue.flush_ns_per_op", Ratio(total("io_queue.flush"), queue_ops), "ns/op"},
      {"ftl.write_ns_per_op", Ratio(total("ftl.write"), user_writes), "ns/op"},
      {"ftl.read_ns_per_op", Ratio(total("ftl.read"), user_reads), "ns/op"},
      {"ftl.trim_ns_per_op", Ratio(total("ftl.trim"), user_trims), "ns/op"},
      {"ftl.pump_ns_per_call", Ratio(total("ftl.pump"), r.pump_calls), "ns"},
      {"ftl.pump_wall_share", Ratio(total("ftl.pump"), wall), "fraction"},
      {"forward_map.entries", static_cast<double>(r.primary_entries), "count"},
      {"forward_map.bytes", static_cast<double>(r.map_bytes), "bytes"},
      {"forward_map.bytes_per_entry", Ratio(r.map_bytes, r.primary_entries), "bytes"},
      {"lat.map_share", share(LatencySpan::kMap), "fraction"},
      {"validity_map.bytes", static_cast<double>(r.validity_bytes), "bytes"},
      {"validity_map.cow_chunk_copies",
       static_cast<double>(Delta(r.validity_after.cow_chunk_copies,
                                 r.validity_before.cow_chunk_copies)),
       "count"},
      {"validity_map.cow_bytes_per_snapshot",
       Ratio(Delta(r.validity_after.cow_bytes_copied, r.validity_before.cow_bytes_copied),
             snapshots),
       "bytes"},
      {"validity_map.merge_chunk_visits",
       static_cast<double>(Delta(r.validity_after.merge_chunk_visits,
                                 r.validity_before.merge_chunk_visits)),
       "count"},
      {"validity_map.merge_plane_rebuilds",
       static_cast<double>(Delta(r.validity_after.merge_plane_rebuilds,
                                 r.validity_before.merge_plane_rebuilds)),
       "count"},
      {"validity_map.range_recounts",
       static_cast<double>(
           Delta(r.validity_after.range_recounts, r.validity_before.range_recounts)),
       "count"},
      {"lat.cow_share", share(LatencySpan::kCow), "fraction"},
      {"segment_cleaner.segments_cleaned", cleaned, "count"},
      {"segment_cleaner.pages_copied_per_user_page", Ratio(copied, user_writes), "ratio"},
      {"segment_cleaner.live_frac_per_victim", Ratio(copied, cleaned * pages_per_segment),
       "fraction"},
      {"segment_cleaner.victim_selections_per_clean",
       Ratio(Delta(f1.gc_victim_selections, f0.gc_victim_selections), cleaned), "ratio"},
      {"segment_cleaner.inline_stalls",
       static_cast<double>(Delta(f1.gc_inline_stalls, f0.gc_inline_stalls)), "count"},
      {"segment_cleaner.device_busy_frac",
       Ratio(Delta(f1.gc_device_busy_ns, f0.gc_device_busy_ns),
             elapsed * spec.config.nand.num_channels),
       "fraction"},
      {"segment_cleaner.notes_copied",
       static_cast<double>(Delta(f1.gc_notes_copied, f0.gc_notes_copied)), "count"},
      {"segment_cleaner.summaries_written",
       static_cast<double>(Delta(f1.gc_summaries_written, f0.gc_summaries_written)),
       "count"},
      {"lat.gc_wait_share", share(LatencySpan::kGcWait), "fraction"},
      {"lat.tail.gc_wait_share", Ratio(tail_gc, tail_total), "fraction"},
      {"snapshot.create_host_us",
       Ratio(total("snapshot.create"), tracer.TotalsOf("snapshot.create").calls) / 1e3,
       "us"},
      {"snapshot.delete_host_us",
       Ratio(total("snapshot.delete"), tracer.TotalsOf("snapshot.delete").calls) / 1e3,
       "us"},
      {"activation.host_ms", Ratio(r.activation_pump_wall_ns, r.activations_done) / 1e6,
       "ms"},
      {"activation.segments_scanned",
       static_cast<double>(
           Delta(f1.activation_segments_scanned, f0.activation_segments_scanned)),
       "count"},
      {"activation.entries",
       static_cast<double>(Delta(f1.activation_entries, f0.activation_entries)), "count"},
      {"activation.fg_write_p99_us",
       iosnap::NsToUs(ExactPercentile(r.activation_write_lat_ns, 99)), "us",
       r.activation_write_lat_ns.size()},
      {"nand.headers_scanned",
       static_cast<double>(
           Delta(r.nand_after.headers_scanned, r.nand_before.headers_scanned)),
       "count"},
      {"nand.pages_read_per_user_read",
       Ratio(Delta(r.nand_after.pages_read, r.nand_before.pages_read), user_reads), "ratio"},
      {"nand.segments_erased",
       static_cast<double>(
           Delta(r.nand_after.segments_erased, r.nand_before.segments_erased)),
       "count"},
      {"nand.bus_busy_frac", Ratio(r.bus_active_ns, elapsed * r.buses), "fraction"},
      {"lat.queue_wait_share", share(LatencySpan::kQueueWait), "fraction"},
      {"lat.bus_share", share(LatencySpan::kBus), "fraction"},
      {"lat.cell_share", share(LatencySpan::kCell), "fraction"},
      {"lat.host_other_share", share(LatencySpan::kHostOther), "fraction"},
      {"workload.gen_ns_per_op", Ratio(total("workload.gen"), r.user_ops), "ns/op"},
      {"harness.self_share",
       Ratio(static_cast<double>(tracer.TotalsOf("harness").self_ns), wall), "fraction"},
      {"obs.trace_overhead_frac",
       Ratio(static_cast<double>(r.wall_ns) - static_cast<double>(untraced_wall_ns),
             static_cast<double>(untraced_wall_ns)),
       "fraction"},
  };
  for (Metric& extra : WorkloadSpecificMetrics(r)) {
    m.push_back(std::move(extra));
  }
  return m;
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-44s %18.6f %-9s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples.has_value()) {
      std::printf(" n=%llu", static_cast<unsigned long long>(*m.samples));
    }
    std::printf("\n");
  }
}

// Self time per span name; the rows (harness = the loop's own code) sum to the measured
// wall time of the traced phase.
void PrintSelfTimes(const SpanTracer& tracer) {
  const double wall = static_cast<double>(tracer.TotalsOf("harness").total_ns);
  std::vector<size_t> order(tracer.names().size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return tracer.totals()[a].self_ns > tracer.totals()[b].self_ns;
  });
  std::printf("self time per layer (traced phase, wall clock)\n");
  std::printf("  %-28s %12s %14s %14s %8s\n", "span", "calls", "total_ms", "self_ms",
              "share");
  uint64_t self_sum = 0;
  for (size_t i : order) {
    const SpanTracer::Totals& t = tracer.totals()[i];
    self_sum += t.self_ns;
    std::printf("  %-28s %12llu %14.3f %14.3f %7.2f%%\n", tracer.names()[i].c_str(),
                static_cast<unsigned long long>(t.calls), t.total_ns / 1e6, t.self_ns / 1e6,
                100.0 * Ratio(t.self_ns, wall));
  }
  std::printf("  sum of self times %.3f ms = measured wall %.3f ms\n", self_sum / 1e6,
              wall / 1e6);
}

void PrintPhase(const PhaseResult& r) {
  std::printf("phase: %llu user ops, %llu attempted, %llu failed, virtual %.3f s, wall "
              "%.3f s, map digest %016llx, op stream digest %016llx, peak RSS %.1f MiB "
              "(benchmark buffers %.1f MiB)\n",
              static_cast<unsigned long long>(r.user_ops),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), (r.end_ns - r.start_ns) / 1e9,
              r.wall_ns / 1e9, static_cast<unsigned long long>(r.map_digest),
              static_cast<unsigned long long>(r.op_stream_digest),
              r.peak_rss_bytes / 1048576.0, r.harness_bytes / 1048576.0);
}

void PrintJson(bool correct, const PhaseResult& r, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  const iosnap::Flags flags = iosnap::Flags::Parse(argc, argv);
  const std::vector<std::string> unknown =
      flags.UnknownFlags({"workload", "seed", "seconds", "trace", "trace_out"});
  if (!unknown.empty() || !flags.Has("workload")) {
    std::fprintf(stderr,
                 "usage: iosnap_e2e --workload=NAME --seed=N --seconds=S --trace=0|1 "
                 "[--trace_out=PATH]\n");
    return 2;
  }
  const std::string workload = flags.GetString("workload", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const bool trace = flags.GetInt("trace", 0) != 0;
  const int rounds = trace ? 1 : kRounds;
  auto spec = MakeSpec(workload, flags.GetDouble("seconds", 10) / kRounds);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 2;
  }
  std::printf("workload %s seed %llu: %d x %llu measured ops (%s)\n", workload.c_str(),
              static_cast<unsigned long long>(seed), rounds,
              static_cast<unsigned long long>(spec->measured_ops),
              trace ? "untraced, then a traced round" : "untraced rounds");

  std::vector<std::vector<uint64_t>> setup_chunks;
  const auto set_up = [&](bool timed) -> std::unique_ptr<Bench> {
    auto made = Bench::Setup(*spec, seed);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", made.status().ToString().c_str());
      return nullptr;
    }
    if (timed) {
      setup_chunks.push_back((*made)->setup_chunk_ns());
    }
    return std::move(*made);
  };
  if (!trace && set_up(false) == nullptr) {
    return 2;
  }

  // Round 0 is reported and gated; every later round must reproduce its virtual results.
  PhaseResult untraced;
  std::vector<std::string> errors;
  std::vector<std::vector<uint64_t>> slices;
  std::vector<double> round_ops_per_s;
  for (int round = 0; round < rounds; ++round) {
    const std::unique_ptr<Bench> bench = set_up(true);
    if (bench == nullptr) {
      return 2;
    }
    PhaseResult r = bench->Run(nullptr, nullptr);
    round_ops_per_s.push_back(Ratio(static_cast<double>(r.user_ops) * 1e9, r.wall_ns));
    slices.push_back(r.slice_wall_ns);
    if (round == 0) {
      if (r.failed > 0) {
        std::fprintf(stderr, "first failure: %s\n", bench->first_failure().c_str());
      }
      errors = bench->Gate();
      untraced = std::move(r);
    } else if (!r.VirtualEquals(untraced)) {
      errors.push_back("round " + std::to_string(round) +
                       "'s virtual-clock results differ from round 0's");
    }
  }
  PrintPhase(untraced);

  if (!trace) {
    const double setup_s = static_cast<double>(SumOfFastest(setup_chunks)) / 1e9;
    const double ops_per_s = Ratio(static_cast<double>(untraced.user_ops) * 1e9,
                                   static_cast<double>(SumOfFastest(slices)));
    std::printf("whole set-up s:");
    for (const std::vector<uint64_t>& chunks : setup_chunks) {
      std::printf(" %.4f", std::accumulate(chunks.begin(), chunks.end(), 0.0) / 1e9);
    }
    std::printf("; per-chunk fastest of %d: %.4f\nwhole-round ops/s:", rounds, setup_s);
    for (double rate : round_ops_per_s) {
      std::printf(" %.0f", rate);
    }
    std::printf("; per-slice fastest of %d: %.0f\n", rounds, ops_per_s);
    const std::vector<Metric> metrics = EndToEndMetrics(untraced, setup_s, ops_per_s);
    PrintMetrics("end-to-end metrics (untraced)", metrics);
    PrintMetrics("workload-specific virtual metrics", WorkloadSpecificMetrics(untraced));
    for (const std::string& e : errors) {
      std::printf("GATE FAILURE: %s\n", e.c_str());
    }
    PrintJson(errors.empty(), untraced, metrics);
    return errors.empty() ? 0 : 1;
  }

  // Traced round on an identical fresh set-up.
  std::unique_ptr<Bench> bench = set_up(false);
  if (bench == nullptr) {
    return 2;
  }
  SpanTracer tracer(kKeptSpans);
  const uint64_t stride = std::max<uint64_t>(
      1, (spec->measured_ops + iosnap::LatencyAttributor::kDefaultCapacity - 1) /
             iosnap::LatencyAttributor::kDefaultCapacity);
  iosnap::LatencyAttributor attributor(iosnap::LatencyAttributor::kDefaultCapacity, stride);
  const PhaseResult traced = bench->Run(&tracer, &attributor);
  bench.reset();
  PrintPhase(traced);
  if (!traced.VirtualEquals(untraced)) {
    errors.push_back("the traced run's virtual-clock results differ from the untraced run's");
  }
  if (tracer.open_spans() != 0) {
    errors.push_back("span stack not empty at the end of the traced phase");
  }
  PrintSelfTimes(tracer);
  const std::string trace_out = flags.GetString("trace_out", "");
  if (!trace_out.empty()) {
    if (tracer.WriteChromeTrace(trace_out)) {
      std::printf("chrome trace: %zu of %llu spans to %s\n", tracer.records().size(),
                  static_cast<unsigned long long>(tracer.spans()), trace_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
    }
  }
  const std::vector<Metric> metrics =
      PerLayerMetrics(*spec, traced, tracer, attributor, untraced.wall_ns);
  PrintMetrics("per-layer metrics (traced)", metrics);
  for (const std::string& e : errors) {
    std::printf("GATE FAILURE: %s\n", e.c_str());
  }
  PrintJson(errors.empty(), traced, metrics);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
