#include "src/obs/trace_export.h"

#include <charconv>
#include <fstream>
#include <string>

#include "src/common/logging.h"

namespace iosnap {

namespace {

// Track ids (synthetic "threads" in the Chrome model). One per subsystem so Perfetto
// renders foreground I/O, snapshot ops, activation, and GC on separate swimlanes.
enum Track {
  kTrackIo = 0,
  kTrackSnapshot = 1,
  kTrackActivation = 2,
  kTrackGc = 3,
  kTrackValidity = 4,
  kTrackPacing = 5,
  kTrackDevice = 6,
  kTrackLifecycle = 7,
  kNumTracks = 8,
};

const char* const kTrackNames[kNumTracks] = {
    "foreground io", "snapshot ops",  "activation", "segment cleaner",
    "validity cow",  "rate limiting", "nand device", "lifecycle",
};

// Indexed by TraceEventType. Each entry leads with the enumerator it describes;
// EventInfoTableInSync() below proves at compile time that the table is complete, in
// enum order, and well-formed.
constexpr TraceEventInfo kEventInfo[kNumTraceEventTypes] = {
    {TraceEventType::kUserWrite, "user_write", "io", kTrackIo,
     {"lba", "view_id", nullptr}},
    {TraceEventType::kUserRead, "user_read", "io", kTrackIo,
     {"lba", "view_id", nullptr}},
    {TraceEventType::kUserTrim, "user_trim", "io", kTrackIo, {"lba", "count", nullptr}},
    {TraceEventType::kUserBatch, "user_batch", "io", kTrackIo,
     {"batch_ops", "view_id", nullptr}},
    {TraceEventType::kSnapCreate, "snap_create", "snapshot", kTrackSnapshot,
     {"snap_id", "frozen_epoch", nullptr}},
    {TraceEventType::kSnapDelete, "snap_delete", "snapshot", kTrackSnapshot,
     {"snap_id", "epoch", nullptr}},
    {TraceEventType::kSnapRollback, "snap_rollback", "snapshot", kTrackSnapshot,
     {"snap_id", "new_epoch", nullptr}},
    {TraceEventType::kSnapDeactivate, "snap_deactivate", "snapshot", kTrackSnapshot,
     {"snap_id", "view_id", nullptr}},
    {TraceEventType::kActivateBegin, "activate_begin", "activation", kTrackActivation,
     {"snap_id", "view_id", nullptr}},
    {TraceEventType::kActivationBurst, "activation_burst", "activation",
     kTrackActivation, {"view_id", "segments_scanned", nullptr}},
    {TraceEventType::kActivateEnd, "activate_end", "activation", kTrackActivation,
     {"view_id", "map_entries", nullptr}},
    {TraceEventType::kGcVictimSelect, "gc_victim_select", "gc", kTrackGc,
     {"segment", "merged_valid_pages", "free_segments"}},
    {TraceEventType::kGcCopyForward, "gc_copy_forward", "gc", kTrackGc,
     {"lba", "old_paddr", "new_paddr"}},
    {TraceEventType::kGcSegmentErase, "gc_segment_erase", "gc", kTrackGc,
     {"segment", nullptr, nullptr}},
    {TraceEventType::kGcInlineStall, "gc_inline_stall", "gc", kTrackGc,
     {"stall_round", nullptr, nullptr}},
    {TraceEventType::kValidityCowChunk, "validity_cow_chunk", "validity", kTrackValidity,
     {"chunk_index", "bytes", "epoch"}},
    {TraceEventType::kRateLimiterSleep, "rate_limit_sleep", "pacing", kTrackPacing,
     {"sleep_ns", nullptr, nullptr}},
    {TraceEventType::kNandErase, "nand_erase", "device", kTrackDevice,
     {"segment", "erase_count", nullptr}},
    {TraceEventType::kCheckpointWrite, "checkpoint_write", "lifecycle", kTrackLifecycle,
     {"pages", nullptr, nullptr}},
    {TraceEventType::kRecoveryRun, "recovery", "lifecycle", kTrackLifecycle,
     {"map_entries", nullptr, nullptr}},
    {TraceEventType::kFaultInjected, "fault_injected", "device", kTrackDevice,
     {"kind", "where", "op_index"}},
    {TraceEventType::kSegmentRetired, "segment_retired", "device", kTrackDevice,
     {"segment", "erase_count", nullptr}},
    {TraceEventType::kReadRetry, "read_retry", "device", kTrackDevice,
     {"paddr", "attempt", nullptr}},
    {TraceEventType::kQueueSubmit, "queue_submit", "io", kTrackIo,
     {"queue", "ops", "submission_id"}},
    {TraceEventType::kQueueFlush, "queue_flush", "io", kTrackIo,
     {"pending_ops", "merged_runs", nullptr}},
    {TraceEventType::kQueueComplete, "queue_complete", "io", kTrackIo,
     {"queue", "op_id", "lba"}},
    {TraceEventType::kNandCopyback, "copyback", "device", kTrackDevice,
     {"src_paddr", "dst_paddr", "on_die"}},
    {TraceEventType::kPatrolRewrite, "patrol_rewrite", "gc", kTrackGc,
     {"lba", "old_paddr", "new_paddr"}},
    {TraceEventType::kPatrolDrop, "patrol_drop", "gc", kTrackGc,
     {"lba", "paddr", nullptr}},
    {TraceEventType::kDegradedEnter, "degraded_enter", "lifecycle", kTrackLifecycle,
     {"free_segments", "segments_retired", nullptr}},
    {TraceEventType::kDegradedExit, "degraded_exit", "lifecycle", kTrackLifecycle,
     {"free_segments", "segments_retired", nullptr}},
    {TraceEventType::kParityWrite, "parity_write", "device", kTrackDevice,
     {"segment", "paddr", "members"}},
    {TraceEventType::kPageRebuilt, "page_rebuilt", "device", kTrackDevice,
     {"lba", "old_paddr", "new_paddr"}},
    {TraceEventType::kRebuildFailed, "rebuild_failed", "device", kTrackDevice,
     {"lba", "paddr", nullptr}},
};

// Compile-time proof that every enumerator has a well-formed table entry: self-id
// matches the index (enum order), non-empty name, a category, a known track, and arg
// labels that are contiguous (no hole before a later label).
consteval bool EventInfoTableInSync() {
  for (size_t i = 0; i < kNumTraceEventTypes; ++i) {
    const TraceEventInfo& info = kEventInfo[i];
    if (info.type != static_cast<TraceEventType>(i)) return false;
    if (info.name == nullptr || info.name[0] == '\0') return false;
    if (info.category == nullptr || info.category[0] == '\0') return false;
    if (info.track < 0 || info.track >= kNumTracks) return false;
    bool ended = false;
    for (int a = 0; a < 3; ++a) {
      if (info.arg_names[a] == nullptr) {
        ended = true;
      } else if (ended || info.arg_names[a][0] == '\0') {
        return false;
      }
    }
  }
  return true;
}
static_assert(EventInfoTableInSync(),
              "kEventInfo is out of sync with TraceEventType: every enumerator needs "
              "an in-order entry with a name, category, track, and contiguous arg "
              "labels");

void AppendU64(std::string* out, uint64_t v) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

// Virtual ns -> Chrome's microsecond timebase, keeping ns precision as fractions.
void AppendMicros(std::string* out, uint64_t ns) {
  AppendU64(out, ns / 1000);
  const unsigned frac = static_cast<unsigned>(ns % 1000);
  const char digits[4] = {'.', static_cast<char>('0' + frac / 100),
                          static_cast<char>('0' + frac / 10 % 10),
                          static_cast<char>('0' + frac % 10)};
  out->append(digits, 4);
}

// A full ring is ~260Ki events; per-token ostream << was the bottleneck (slower than
// the whole recording phase). Everything constant for an event type is precomputed
// once into string fragments, so the per-event work is a handful of appends plus
// std::to_chars for the numbers, flushed to the stream in one write.
struct JsonPerType {
  std::string prefix;        // ,{"name":"...","cat":"...","pid":0,"tid":N,"ts":
  std::string arg_open[3];   // {"lba":  /  ,"view_id":  / ...
  int num_args = 0;
};

struct CsvPerType {
  std::string prefix;  // user_write,io,
  std::string names;   // lba;view_id
};

}  // namespace

const TraceEventInfo& TraceEventInfoFor(TraceEventType type) {
  const size_t index = static_cast<size_t>(type);
  IOSNAP_CHECK(index < kNumTraceEventTypes);
  return kEventInfo[index];
}

std::string CsvEscape(std::string_view field) {
  if (field.find_first_of(",\"\r\n") == std::string_view::npos) {
    return std::string(field);
  }
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (char c : field) {
    if (c == '"') {
      out += '"';
    }
    out += c;
  }
  out += '"';
  return out;
}

void ExportChromeTrace(const TraceRecorder& recorder, std::ostream& os) {
  JsonPerType per_type[kNumTraceEventTypes];
  for (size_t i = 0; i < kNumTraceEventTypes; ++i) {
    const TraceEventInfo& info = kEventInfo[i];
    JsonPerType& pt = per_type[i];
    pt.prefix = ",{\"name\":\"" + std::string(info.name) + "\",\"cat\":\"" +
                info.category + "\",\"pid\":0,\"tid\":";
    AppendU64(&pt.prefix, static_cast<uint64_t>(info.track));
    pt.prefix += ",\"ts\":";
    for (int a = 0; a < 3 && info.arg_names[a] != nullptr; ++a) {
      pt.arg_open[a] = std::string(a == 0 ? "{\"" : ",\"") + info.arg_names[a] + "\":";
      pt.num_args = a + 1;
    }
  }

  std::string out;
  out.reserve(recorder.size() * 140 + 4096);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  // Track-name metadata events give the swimlanes human names in Perfetto. They also
  // guarantee the array is non-empty, so every real event's prefix starts with ','.
  for (int track = 0; track < kNumTracks; ++track) {
    if (track != 0) {
      out += ",";
    }
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
    AppendU64(&out, static_cast<uint64_t>(track));
    out += ",\"args\":{\"name\":\"";
    out += kTrackNames[track];
    out += "\"}}";
  }
  for (const TraceEvent& e : recorder.Events()) {
    const JsonPerType& pt = per_type[static_cast<size_t>(e.type)];
    out += pt.prefix;
    AppendMicros(&out, e.start_ns);
    if (e.end_ns > e.start_ns) {
      out += ",\"ph\":\"X\",\"dur\":";
      AppendMicros(&out, e.end_ns - e.start_ns);
    } else {
      out += ",\"ph\":\"i\",\"s\":\"t\"";
    }
    out += ",\"args\":";
    if (pt.num_args == 0) {
      out += "{}";
    } else {
      const uint64_t args[3] = {e.arg0, e.arg1, e.arg2};
      for (int a = 0; a < pt.num_args; ++a) {
        out += pt.arg_open[a];
        AppendU64(&out, args[a]);
      }
      out += "}";
    }
    out += "}";
  }
  out += "],\"otherData\":{\"dropped_events\":";
  AppendU64(&out, recorder.dropped());
  out += ",\"clock\":\"virtual\"}}";
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

void ExportTraceCsv(const TraceRecorder& recorder, std::ostream& os) {
  CsvPerType per_type[kNumTraceEventTypes];
  for (size_t i = 0; i < kNumTraceEventTypes; ++i) {
    const TraceEventInfo& info = kEventInfo[i];
    per_type[i].prefix = CsvEscape(info.name) + "," + CsvEscape(info.category) + ",";
    std::string names;
    for (int a = 0; a < 3 && info.arg_names[a] != nullptr; ++a) {
      names += (a > 0 ? ";" : "");
      names += info.arg_names[a];
    }
    // The ';' join is the column's own sub-separator; escaping guards the CSV framing
    // (commas/quotes/newlines) around it.
    per_type[i].names = CsvEscape(names);
  }

  std::string out;
  out.reserve(recorder.size() * 80 + 256);
  out += "type,category,start_ns,end_ns,arg0,arg1,arg2,arg_names\n";
  for (const TraceEvent& e : recorder.Events()) {
    const CsvPerType& pt = per_type[static_cast<size_t>(e.type)];
    out += pt.prefix;
    AppendU64(&out, e.start_ns);
    out += ",";
    AppendU64(&out, e.end_ns);
    out += ",";
    AppendU64(&out, e.arg0);
    out += ",";
    AppendU64(&out, e.arg1);
    out += ",";
    AppendU64(&out, e.arg2);
    out += ",";
    out += pt.names;
    out += "\n";
  }
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

bool WriteTraceFile(const TraceRecorder& recorder, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
    ExportTraceCsv(recorder, out);
  } else {
    ExportChromeTrace(recorder, out);
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace iosnap
