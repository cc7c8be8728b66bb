#include "e2ebench/span_tracer.h"

#include <algorithm>
#include <cstdio>

namespace e2ebench {

uint32_t SpanTracer::Name(const std::string& name) {
  for (uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return i;
    }
  }
  names_.push_back(name);
  totals_.emplace_back();
  return static_cast<uint32_t>(names_.size() - 1);
}

void SpanTracer::Begin(uint32_t name, uint64_t op_id, uint64_t start_ns) {
  stack_.push_back({next_id_++, name, op_id, start_ns, 0});
}

uint64_t SpanTracer::End(uint64_t end_ns) {
  const Open span = stack_.back();
  stack_.pop_back();
  const uint64_t duration = end_ns - span.start_ns;
  Totals& totals = totals_[span.name];
  ++totals.calls;
  totals.total_ns += duration;
  totals.self_ns += duration - span.child_ns;
  uint64_t parent = kNoParent;
  if (!stack_.empty()) {
    parent = stack_.back().id;
    stack_.back().child_ns += duration;
  }
  if (records_.size() < keep_records_ || parent == kNoParent) {
    records_.push_back({span.id, parent, span.name, span.op_id, span.start_ns, end_ns});
  }
  return duration;
}

SpanTracer::Totals SpanTracer::TotalsOf(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return totals_[i];
    }
  }
  return Totals{};
}

bool SpanTracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  uint64_t origin = ~uint64_t{0};
  for (const Record& r : records_) {
    origin = std::min(origin, r.start_ns);
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"span\":%llu,\"parent\":%lld,\"op\":%llu,"
                 "\"start_ns\":%llu,\"end_ns\":%llu}}",
                 i == 0 ? "" : ",", names_[r.name].c_str(),
                 static_cast<double>(r.start_ns - origin) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                 static_cast<unsigned long long>(r.id),
                 r.parent == kNoParent ? -1LL : static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.op_id),
                 static_cast<unsigned long long>(r.start_ns - origin),
                 static_cast<unsigned long long>(r.end_ns - origin));
  }
  std::fprintf(f, "\n]}\n");
  const bool write_ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && write_ok;
}

}  // namespace e2ebench
