// iosnap_analyze — offline tail-latency attribution reports.
//
// Reads the per-op span CSV written by --spans_out (iosnap_sim / attribution tests)
// and, optionally, the CSV flight-recorder trace written by --trace_out=*.csv, and
// prints where the latency went:
//
//   * a hard re-check of the exactness invariant (every row's spans sum to total_ns),
//   * end-to-end percentiles per op kind,
//   * aggregate span shares over the foreground ops (gc_copy rows — cleaner copyback
//     relocations, whose on-die variant legitimately carries bus=0 — are reported in
//     their own section so they don't skew the foreground shares),
//   * GC/background interference share (ops affected, tail among affected),
//   * the top-K slowest foreground ops with their full breakdowns,
//   * with --trace: per-queue aggregation (spans joined to queue_complete events on
//     (lba, issue_ns, complete_ns)) and overlap buckets against GC / activation
//     windows from the trace,
//   * with --metrics: per-bus utilization (nand.bus_busy_frac.*) and copyback
//     counters from a --metrics_out JSON dump.
//
// Exit codes: 0 report printed; 1 I/O or invariant failure; 2 bad flags.
//
// Examples:
//   iosnap_sim --ops=200000 --spans_out=spans.csv --trace_out=trace.csv
//   iosnap_analyze --spans=spans.csv --trace=trace.csv --top=10

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/flags.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/obs/latency.h"

using namespace iosnap;

namespace {

constexpr const char* kUsage = R"(iosnap_analyze: tail-latency attribution reports

  --spans=PATH   per-op span CSV from --spans_out            (required)
  --trace=PATH   CSV trace from --trace_out=*.csv            (optional)
  --metrics=PATH flat metrics JSON from --metrics_out; adds
                 per-bus utilization + copyback counters     (optional)
  --top=N        slowest ops to list with breakdowns         (default 10)
  --help         this text
)";

const std::vector<std::string> kKnownFlags = {"spans", "trace", "metrics", "top",
                                              "help"};

// RFC 4180 field splitter (the trace CSV quotes fields containing , " or newlines;
// the span CSV never needs quoting but parses identically).
std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"' && field.empty()) {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c != '\r') {
      field += c;
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

// Reads a CSV field that must be an unsigned decimal filling the whole field. Anything
// else (empty, a sign, trailing text, overflow) prints "path:line: bad <column> '<text>'"
// and returns false, so a damaged file is an error rather than a silent 0.
bool ReadU64Field(const std::string& path, size_t lineno, const std::string& column,
                  const std::string& text, uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  if (ec == std::errc() && ptr == end) {
    return true;
  }
  std::fprintf(stderr, "%s:%zu: bad %s '%s'\n", path.c_str(), lineno, column.c_str(),
               text.c_str());
  return false;
}

struct SpanRow {
  uint64_t seq = 0;
  std::string kind;
  uint64_t lba = 0;
  uint64_t issue_ns = 0;
  uint64_t complete_ns = 0;
  uint64_t total_ns = 0;
  uint64_t span[kNumLatencySpans] = {};
};

bool ParseSpansCsv(const std::string& path, std::vector<SpanRow>* rows) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open --spans=%s\n", path.c_str());
    return false;
  }
  std::string line;
  if (!std::getline(in, line)) {
    std::fprintf(stderr, "%s: empty file\n", path.c_str());
    return false;
  }
  const std::vector<std::string> header = SplitCsvLine(line);
  std::vector<std::string> expected = {"seq",         "kind",     "lba",
                                       "issue_ns",    "complete_ns", "total_ns"};
  // One column per span after the six id columns, named as LatencyAttributor::ToCsv
  // names them.
  for (size_t s = 0; s < kNumLatencySpans; ++s) {
    expected.push_back(std::string(LatencySpanName(static_cast<LatencySpan>(s))) + "_ns");
  }
  if (header != expected) {
    std::fprintf(stderr, "%s: unexpected header (not a --spans_out file?)\n",
                 path.c_str());
    return false;
  }
  size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) {
      continue;
    }
    const std::vector<std::string> f = SplitCsvLine(line);
    if (f.size() != expected.size()) {
      std::fprintf(stderr, "%s:%zu: %zu fields, want %zu\n", path.c_str(), lineno,
                   f.size(), expected.size());
      return false;
    }
    SpanRow row;
    row.kind = f[1];
    uint64_t* const id_fields[] = {&row.seq,      nullptr,          &row.lba,
                                   &row.issue_ns, &row.complete_ns, &row.total_ns};
    for (size_t c = 0; c < f.size(); ++c) {
      uint64_t* out = c < 6 ? id_fields[c] : &row.span[c - 6];
      if (out != nullptr && !ReadU64Field(path, lineno, expected[c], f[c], out)) {
        return false;
      }
    }
    rows->push_back(std::move(row));
  }
  return true;
}

struct TraceRow {
  std::string type;
  std::string category;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
  uint64_t arg2 = 0;
};

bool ParseTraceCsv(const std::string& path, std::vector<TraceRow>* rows) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open --trace=%s\n", path.c_str());
    return false;
  }
  const std::vector<std::string> header = {"type", "category", "start_ns", "end_ns",
                                           "arg0", "arg1",     "arg2",     "arg_names"};
  std::string line;
  if (!std::getline(in, line) || SplitCsvLine(line) != header) {
    std::fprintf(stderr, "%s: not a --trace_out=*.csv file\n", path.c_str());
    return false;
  }
  size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) {
      continue;
    }
    const std::vector<std::string> f = SplitCsvLine(line);
    if (f.size() != header.size()) {
      std::fprintf(stderr, "%s:%zu: malformed row\n", path.c_str(), lineno);
      return false;
    }
    TraceRow row;
    row.type = f[0];
    row.category = f[1];
    uint64_t* const numeric[] = {&row.start_ns, &row.end_ns, &row.arg0, &row.arg1,
                                 &row.arg2};
    for (size_t c = 2; c < 7; ++c) {
      if (!ReadU64Field(path, lineno, header[c], f[c], numeric[c - 2])) {
        return false;
      }
    }
    rows->push_back(std::move(row));
  }
  return true;
}

// Flat {"name":number,...} JSON as written by --metrics_out. Not a general JSON
// parser: names never contain escapes and values are bare numbers, so scanning
// quoted-string/colon/number triples is exact for this producer.
bool ParseMetricsJson(const std::string& path, std::map<std::string, double>* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open --metrics=%s\n", path.c_str());
    return false;
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const size_t name_end = text.find('"', pos + 1);
    if (name_end == std::string::npos) {
      break;
    }
    const std::string name = text.substr(pos + 1, name_end - pos - 1);
    size_t colon = name_end + 1;
    while (colon < text.size() && (text[colon] == ' ' || text[colon] == ':')) {
      ++colon;
    }
    (*out)[name] = std::strtod(text.c_str() + colon, nullptr);
    pos = name_end + 1;
  }
  if (out->empty()) {
    std::fprintf(stderr, "%s: no metrics parsed (not a --metrics_out file?)\n",
                 path.c_str());
    return false;
  }
  return true;
}

void PrintPercentileLine(const char* label, const LatencyHistogram& h) {
  std::printf("  %-7s %8llu ops  mean %8.1f  p50 %8.1f  p90 %8.1f  p99 %8.1f  "
              "p99.9 %8.1f  max %8.1f us\n",
              label, (unsigned long long)h.count(), h.MeanNs() / 1000.0,
              NsToUs(h.PercentileNs(50)), NsToUs(h.PercentileNs(90)),
              NsToUs(h.PercentileNs(99)), NsToUs(h.PercentileNs(99.9)),
              NsToUs(h.MaxNs()));
}

// Merged, sorted busy windows from trace events of one category; Overlaps() then
// answers "did this op's [issue, complete) intersect any of them".
class WindowSet {
 public:
  void Add(uint64_t start_ns, uint64_t end_ns) {
    if (end_ns > start_ns) {
      raw_.emplace_back(start_ns, end_ns);
    }
  }
  void Seal() {
    std::sort(raw_.begin(), raw_.end());
    for (const auto& [s, e] : raw_) {
      if (!merged_.empty() && s <= merged_.back().second) {
        merged_.back().second = std::max(merged_.back().second, e);
      } else {
        merged_.emplace_back(s, e);
      }
    }
    raw_.clear();
  }
  bool Overlaps(uint64_t start_ns, uint64_t end_ns) const {
    auto it = std::upper_bound(merged_.begin(), merged_.end(),
                               std::make_pair(end_ns, UINT64_MAX));
    if (it == merged_.begin()) {
      return false;
    }
    --it;
    return it->second > start_ns;
  }
  size_t size() const { return merged_.size(); }
  uint64_t TotalNs() const {
    uint64_t total = 0;
    for (const auto& [s, e] : merged_) {
      total += e - s;
    }
    return total;
  }

 private:
  std::vector<std::pair<uint64_t, uint64_t>> raw_;
  std::vector<std::pair<uint64_t, uint64_t>> merged_;
};

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
  const std::string spans_path = flags.GetString("spans", "");
  if (spans_path.empty()) {
    std::fprintf(stderr, "--spans=PATH is required\n%s", kUsage);
    return 2;
  }
  const std::string trace_path = flags.GetString("trace", "");
  const std::string metrics_path = flags.GetString("metrics", "");
  const size_t top_k = (size_t)flags.GetInt("top", 10);

  std::vector<SpanRow> rows;
  if (!ParseSpansCsv(spans_path, &rows)) {
    return 1;
  }
  if (rows.empty()) {
    std::printf("%s: no span records\n", spans_path.c_str());
    return 0;
  }

  // The invariant the attribution layer promises: spans sum bit-exactly to the
  // end-to-end latency. A violation means the producer is broken — fail hard so CI
  // catches it.
  size_t violations = 0;
  for (const SpanRow& row : rows) {
    uint64_t sum = 0;
    for (uint64_t s : row.span) {
      sum += s;
    }
    if (sum != row.total_ns || row.total_ns != row.complete_ns - row.issue_ns) {
      if (++violations <= 5) {
        std::fprintf(stderr,
                     "span-sum violation at seq=%llu: spans sum %llu, total %llu\n",
                     (unsigned long long)row.seq, (unsigned long long)sum,
                     (unsigned long long)row.total_ns);
      }
    }
  }
  std::printf("== span-sum check: %zu records, %zu violations ==\n", rows.size(),
              violations);
  if (violations > 0) {
    return 1;
  }

  // gc_copy rows are cleaner copyback relocations, not host ops. Their on-die
  // variant carries bus=0 by design (the transfer never leaves the die), so folding
  // them into the foreground aggregates would both dilute the bus share and count
  // device-side background work as host latency. They get their own section below.
  std::vector<const SpanRow*> fg;
  std::vector<const SpanRow*> copyback;
  for (const SpanRow& row : rows) {
    (row.kind == "gc_copy" ? copyback : fg).push_back(&row);
  }

  uint64_t first_issue = UINT64_MAX;
  uint64_t last_complete = 0;
  uint64_t grand_total = 0;
  uint64_t span_total[kNumLatencySpans] = {};
  std::map<std::string, LatencyHistogram> by_kind;
  for (const SpanRow& row : rows) {
    first_issue = std::min(first_issue, row.issue_ns);
    last_complete = std::max(last_complete, row.complete_ns);
    by_kind[row.kind].Add(row.total_ns);
  }
  for (const SpanRow* row : fg) {
    grand_total += row->total_ns;
    for (size_t s = 0; s < kNumLatencySpans; ++s) {
      span_total[s] += row->span[s];
    }
  }

  std::printf("\n== end-to-end latency (%zu ops over %.3f virtual s) ==\n", rows.size(),
              NsToSec(last_complete - first_issue));
  for (const auto& [kind, hist] : by_kind) {
    PrintPercentileLine(kind.c_str(), hist);
  }

  std::printf("\n== where the latency went (foreground span shares, %zu ops) ==\n",
              fg.size());
  for (size_t s = 0; s < kNumLatencySpans; ++s) {
    std::printf("  %-11s %12.2f ms  %5.1f%%\n",
                LatencySpanName(static_cast<LatencySpan>(s)), NsToMs(span_total[s]),
                grand_total > 0 ? 100.0 * (double)span_total[s] / (double)grand_total
                                : 0.0);
  }

  // GC interference: kGcWait is the share of device wait spent behind background
  // work (cleaner copies/erases, activation scans) rather than other foreground ops.
  const size_t gc_idx = static_cast<size_t>(LatencySpan::kGcWait);
  size_t gc_affected = 0;
  LatencyHistogram gc_wait_hist;
  for (const SpanRow* row : fg) {
    if (row->span[gc_idx] > 0) {
      ++gc_affected;
      gc_wait_hist.Add(row->span[gc_idx]);
    }
  }
  std::printf("\n== background (GC/activation) interference ==\n");
  std::printf("  ops delayed by background work  %zu / %zu (%.2f%%)\n", gc_affected,
              fg.size(), fg.empty() ? 0.0 : 100.0 * (double)gc_affected / (double)fg.size());
  std::printf("  share of foreground latency     %.2f%%\n",
              grand_total > 0 ? 100.0 * (double)span_total[gc_idx] / (double)grand_total
                              : 0.0);
  if (gc_affected > 0) {
    PrintPercentileLine("gc_wait", gc_wait_hist);
  }

  // Copyback relocations: bus=0 means the copy stayed on-die; bus>0 means the
  // same-channel constraint failed and the copy fell back to read+program across
  // the bus. The split shows how well the cleaner's channel-matched ordering works.
  if (!copyback.empty()) {
    size_t on_die = 0;
    uint64_t cb_bus_ns = 0;
    uint64_t cb_device_ns = 0;
    LatencyHistogram cb_hist;
    for (const SpanRow* row : copyback) {
      if (row->span[static_cast<size_t>(LatencySpan::kBus)] == 0) {
        ++on_die;
      }
      cb_bus_ns += row->span[static_cast<size_t>(LatencySpan::kBus)];
      cb_device_ns += row->total_ns;
      cb_hist.Add(row->total_ns);
    }
    std::printf("\n== copyback relocations (gc_copy, reported separately) ==\n");
    std::printf("  pages relocated                 %zu (on-die %zu, cross-channel "
                "fallback %zu)\n",
                copyback.size(), on_die, copyback.size() - on_die);
    std::printf("  bus time consumed               %.2f ms (fallbacks only)\n",
                NsToMs(cb_bus_ns));
    std::printf("  device time consumed            %.2f ms\n", NsToMs(cb_device_ns));
    PrintPercentileLine("gc_copy", cb_hist);
  }

  std::vector<size_t> order(fg.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  const size_t k = std::min(top_k, fg.size());
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](size_t a, size_t b) { return fg[a]->total_ns > fg[b]->total_ns; });
  std::printf("\n== top %zu slowest foreground ops ==\n", k);
  std::printf("  %-5s %-10s %10s %9s | %9s %9s %9s %9s %7s %7s %7s %9s (us)\n", "kind",
              "lba", "issue_us", "total_us", "q_wait", "gc_wait", "bus", "cell", "map",
              "cow", "other", "rebuild");
  for (size_t i = 0; i < k; ++i) {
    const SpanRow& r = *fg[order[i]];
    std::printf("  %-5s %-10llu %10.1f %9.1f | %9.1f %9.1f %9.1f %9.1f %7.1f %7.1f "
                "%7.1f %9.1f\n",
                r.kind.c_str(), (unsigned long long)r.lba, NsToUs(r.issue_ns),
                NsToUs(r.total_ns), NsToUs(r.span[0]), NsToUs(r.span[1]),
                NsToUs(r.span[2]), NsToUs(r.span[3]), NsToUs(r.span[4]),
                NsToUs(r.span[5]), NsToUs(r.span[6]), NsToUs(r.span[7]));
  }

  if (!metrics_path.empty()) {
    std::map<std::string, double> metrics;
    if (!ParseMetricsJson(metrics_path, &metrics)) {
      return 1;
    }
    std::map<uint64_t, double> bus_frac;
    for (const auto& [name, value] : metrics) {
      constexpr const char* kPrefix = "nand.bus_busy_frac.";
      if (name.rfind(kPrefix, 0) == 0) {
        bus_frac[std::strtoull(name.c_str() + std::strlen(kPrefix), nullptr, 10)] =
            value;
      }
    }
    std::printf("\n== per-bus utilization (%s) ==\n", metrics_path.c_str());
    if (bus_frac.empty()) {
      std::printf("  no nand.bus_busy_frac.* gauges in the metrics dump\n");
    }
    for (const auto& [bus, frac] : bus_frac) {
      std::printf("  bus %-3llu busy %5.1f%%  |%-40s|\n", (unsigned long long)bus,
                  100.0 * frac,
                  std::string((size_t)std::min(40.0, 40.0 * frac), '#').c_str());
    }
    const auto cb_pages = metrics.find("nand.copyback_pages");
    const auto cb_fallbacks = metrics.find("nand.copyback_fallbacks");
    if (cb_pages != metrics.end()) {
      std::printf("  copyback pages %.0f (cross-channel fallbacks %.0f)\n",
                  cb_pages->second,
                  cb_fallbacks != metrics.end() ? cb_fallbacks->second : 0.0);
    }
  }

  if (trace_path.empty()) {
    return 0;
  }
  std::vector<TraceRow> trace;
  if (!ParseTraceCsv(trace_path, &trace)) {
    return 1;
  }

  // Per-queue aggregation: queue_complete events carry (queue, op_id, lba) and span the
  // op's [issue, complete) window — (lba, issue_ns, complete_ns) is the join key back
  // to span rows. The trace ring may have dropped older events, so a partial join is
  // expected; the unmatched count says how partial.
  struct QueueAgg {
    LatencyHistogram latency;
    uint64_t span_total[kNumLatencySpans] = {};
    uint64_t total_ns = 0;
  };
  std::map<std::tuple<uint64_t, uint64_t, uint64_t>, uint64_t> complete_to_queue;
  for (const TraceRow& e : trace) {
    if (e.type == "queue_complete") {
      complete_to_queue[{e.arg2, e.start_ns, e.end_ns}] = e.arg0;
    }
  }
  if (!complete_to_queue.empty()) {
    std::map<uint64_t, QueueAgg> queues;
    size_t joined = 0;
    for (const SpanRow& row : rows) {
      const auto it = complete_to_queue.find({row.lba, row.issue_ns, row.complete_ns});
      if (it == complete_to_queue.end()) {
        continue;
      }
      ++joined;
      QueueAgg& agg = queues[it->second];
      agg.latency.Add(row.total_ns);
      agg.total_ns += row.total_ns;
      for (size_t s = 0; s < kNumLatencySpans; ++s) {
        agg.span_total[s] += row.span[s];
      }
    }
    std::printf("\n== per-queue attribution (%zu of %zu ops joined to %zu "
                "queue_complete events) ==\n",
                joined, rows.size(), complete_to_queue.size());
    for (const auto& [queue, agg] : queues) {
      char label[32];
      std::snprintf(label, sizeof(label), "queue %llu", (unsigned long long)queue);
      PrintPercentileLine(label, agg.latency);
      std::printf("          shares:");
      for (size_t s = 0; s < kNumLatencySpans; ++s) {
        std::printf(" %s %.1f%%", LatencySpanName(static_cast<LatencySpan>(s)),
                    agg.total_ns > 0
                        ? 100.0 * (double)agg.span_total[s] / (double)agg.total_ns
                        : 0.0);
      }
      std::printf("\n");
    }
  }

  // Phase overlap: bucket ops by whether they ran while the cleaner (gc category) or
  // an activation scan had the device busy.
  WindowSet gc_windows;
  WindowSet activation_windows;
  for (const TraceRow& e : trace) {
    if (e.category == "gc") {
      gc_windows.Add(e.start_ns, e.end_ns);
    } else if (e.category == "activation") {
      activation_windows.Add(e.start_ns, e.end_ns);
    }
  }
  gc_windows.Seal();
  activation_windows.Seal();
  struct PhaseAgg {
    const char* label;
    LatencyHistogram latency;
    uint64_t gc_wait_ns = 0;
    uint64_t total_ns = 0;
  };
  PhaseAgg phases[3] = {{"quiet", {}}, {"gc", {}}, {"activation", {}}};
  for (const SpanRow* row : fg) {
    const bool in_gc = gc_windows.Overlaps(row->issue_ns, row->complete_ns);
    const bool in_act = activation_windows.Overlaps(row->issue_ns, row->complete_ns);
    PhaseAgg& agg = phases[in_act ? 2 : (in_gc ? 1 : 0)];
    agg.latency.Add(row->total_ns);
    agg.gc_wait_ns += row->span[gc_idx];
    agg.total_ns += row->total_ns;
  }
  std::printf("\n== phase overlap (gc: %zu windows, %.2f ms busy; activation: %zu "
              "windows, %.2f ms busy) ==\n",
              gc_windows.size(), NsToMs(gc_windows.TotalNs()), activation_windows.size(),
              NsToMs(activation_windows.TotalNs()));
  for (const PhaseAgg& agg : phases) {
    if (agg.latency.count() == 0) {
      continue;
    }
    PrintPercentileLine(agg.label, agg.latency);
    std::printf("          gc_wait share %.2f%%\n",
                agg.total_ns > 0 ? 100.0 * (double)agg.gc_wait_ns / (double)agg.total_ns
                                 : 0.0);
  }
  return 0;
}
