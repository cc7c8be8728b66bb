// Wall-clock span recorder for the benchmark's traced run.
//
// The benchmark times every public simulator call it makes from its own files; nothing
// inside src/ is instrumented. Spans nest: a span opened while another is open becomes
// its child, and a span's self time is its duration minus the durations of its direct
// children. Every span feeds per-name totals (calls, total and self time); the first
// `keep_records` spans to close, plus every root span, are also kept whole in memory and
// written once, at exit, as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// Self-time exactness: all times are integer nanoseconds, so the self times of all spans
// under one root sum to the root's duration exactly.

#ifndef E2EBENCH_SPAN_TRACER_H_
#define E2EBENCH_SPAN_TRACER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

// Steady-clock nanoseconds.
inline uint64_t WallNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

inline constexpr uint64_t kNoParent = ~uint64_t{0};

class SpanTracer {
 public:
  explicit SpanTracer(size_t keep_records) : keep_records_(keep_records) {}

  // Interns a span name and returns its id.
  uint32_t Name(const std::string& name);

  // Opens a span at `start_ns`; it nests under the innermost open span.
  void Begin(uint32_t name, uint64_t op_id, uint64_t start_ns);
  // Closes the innermost open span at `end_ns` and returns its duration.
  uint64_t End(uint64_t end_ns);

  struct Totals {
    uint64_t calls = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };
  const std::vector<std::string>& names() const { return names_; }
  const std::vector<Totals>& totals() const { return totals_; }
  const Totals& totals(uint32_t name) const { return totals_[name]; }
  // Totals of a span name; all zero when no span of that name was recorded.
  Totals TotalsOf(const std::string& name) const;

  struct Record {
    uint64_t id = 0;
    uint64_t parent = kNoParent;
    uint32_t name = 0;
    uint64_t op_id = 0;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };
  const std::vector<Record>& records() const { return records_; }
  uint64_t spans() const { return next_id_; }
  size_t open_spans() const { return stack_.size(); }

  // Chrome trace-event JSON of the kept records, times relative to the earliest kept
  // span. Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Open {
    uint64_t id;
    uint32_t name;
    uint64_t op_id;
    uint64_t start_ns;
    uint64_t child_ns;
  };

  size_t keep_records_;
  uint64_t next_id_ = 0;
  std::vector<Open> stack_;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Record> records_;
};

// Scoped span on the steady clock. A null tracer makes it a no-op, which is how the
// untraced run pays nothing for the instrumentation.
class Span {
 public:
  Span(SpanTracer* tracer, uint32_t name, uint64_t op_id = 0) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(name, op_id, WallNs());
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End(WallNs());
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTracer* tracer_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_SPAN_TRACER_H_
