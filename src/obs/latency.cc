#include "src/obs/latency.h"

#include <charconv>
#include <fstream>

#include "src/common/logging.h"

namespace iosnap {

namespace {

const char* const kSpanNames[kNumLatencySpans] = {
    "queue_wait", "gc_wait", "bus", "cell", "map", "cow", "host_other", "rebuild",
};

const char* const kKindNames[kNumLatencyOpKinds] = {"write", "read", "trim", "gc_copy"};

void AppendU64(std::string* out, uint64_t v) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

}  // namespace

const char* LatencySpanName(LatencySpan span) {
  const size_t index = static_cast<size_t>(span);
  IOSNAP_CHECK(index < kNumLatencySpans);
  return kSpanNames[index];
}

const char* LatencyOpKindName(LatencyOpKind kind) {
  const size_t index = static_cast<size_t>(kind);
  IOSNAP_CHECK(index < kNumLatencyOpKinds);
  return kKindNames[index];
}

LatencyAttributor::LatencyAttributor(size_t record_capacity, uint64_t sample_stride)
    : ring_(record_capacity > 0 ? record_capacity : 1),
      stride_(sample_stride > 0 ? sample_stride : 1) {}

void LatencyAttributor::Record(LatencyOpKind kind, uint64_t lba, uint64_t issue_ns,
                               uint64_t complete_ns, const LatencySpans& spans) {
  SpanRecord& slot = ring_[head_];
  slot.seq = next_;
  slot.kind = kind;
  slot.lba = lba;
  slot.issue_ns = issue_ns;
  slot.complete_ns = complete_ns;
  slot.spans = spans;
  if (++head_ == ring_.size()) {
    head_ = 0;
  }
  if (next_ >= ring_.size()) {
    ++records_dropped_;
  }
  ++next_;

  for (size_t s = 0; s < kNumLatencySpans; ++s) {
    span_hist_[s].Add(spans.ns[s]);
    span_total_ns_[s] += spans.ns[s];
  }
  e2e_hist_[static_cast<size_t>(kind)].Add(complete_ns - issue_ns);
}

std::vector<SpanRecord> LatencyAttributor::Records() const {
  std::vector<SpanRecord> out;
  const size_t n = size();
  out.reserve(n);
  const size_t start = next_ < ring_.size() ? 0 : head_;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void LatencyAttributor::RegisterMetrics(MetricsRegistry* registry,
                                        const std::string& prefix) {
  IOSNAP_CHECK(registry != nullptr);
  for (size_t s = 0; s < kNumLatencySpans; ++s) {
    const std::string base = prefix + "span." + kSpanNames[s];
    registry->RegisterHistogram(base, &span_hist_[s]);
    registry->RegisterCounter(base + ".total_ns", &span_total_ns_[s]);
  }
  for (size_t k = 0; k < kNumLatencyOpKinds; ++k) {
    registry->RegisterHistogram(prefix + "e2e." + kKindNames[k], &e2e_hist_[k]);
  }
  registry->RegisterCounter(prefix + "ops", &next_);
  registry->RegisterCounter(prefix + "records_dropped", &records_dropped_);
}

std::string LatencyAttributor::ToCsv() const {
  std::string out;
  out.reserve(size() * 96 + 256);
  out += "seq,kind,lba,issue_ns,complete_ns,total_ns";
  for (size_t s = 0; s < kNumLatencySpans; ++s) {
    out += ",";
    out += LatencySpanName(static_cast<LatencySpan>(s));
    out += "_ns";
  }
  out += "\n";
  for (const SpanRecord& r : Records()) {
    AppendU64(&out, r.seq);
    out += ",";
    out += kKindNames[static_cast<size_t>(r.kind)];
    out += ",";
    AppendU64(&out, r.lba);
    out += ",";
    AppendU64(&out, r.issue_ns);
    out += ",";
    AppendU64(&out, r.complete_ns);
    out += ",";
    AppendU64(&out, r.TotalNs());
    for (uint64_t v : r.spans.ns) {
      out += ",";
      AppendU64(&out, v);
    }
    out += "\n";
  }
  return out;
}

bool LatencyAttributor::WriteCsvFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  const std::string csv = ToCsv();
  out.write(csv.data(), static_cast<std::streamsize>(csv.size()));
  out.flush();
  return static_cast<bool>(out);
}

void LatencyAttributor::Clear() {
  next_ = 0;
  head_ = 0;
  records_dropped_ = 0;
  for (auto& h : span_hist_) {
    h = LatencyHistogram();
  }
  for (auto& h : e2e_hist_) {
    h = LatencyHistogram();
  }
  for (auto& t : span_total_ns_) {
    t = 0;
  }
}

}  // namespace iosnap
