#include "src/obs/trace.h"

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/sim_clock.h"
#include "src/core/ftl.h"
#include "src/obs/trace_export.h"

namespace iosnap {
namespace {

// Minimal JSON syntax validator — enough to catch unbalanced structure, bad string
// escaping, and trailing commas in the exporter output without a JSON dependency.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (Peek() != ':') {
        return false;
      }
      ++pos_;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) {
          return false;
        }
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) {
      return false;
    }
    ++pos_;  // closing '"'
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) {
      return false;
    }
    pos_ += w.size();
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(TraceRecorderTest, RecordsInOrder) {
  TraceRecorder trace(16);
  trace.Record(TraceEventType::kUserWrite, 100, 200, 7);
  trace.Record(TraceEventType::kUserRead, 300, 400, 9);
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.total_recorded(), 2u);
  EXPECT_EQ(trace.dropped(), 0u);
  const auto events = trace.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, TraceEventType::kUserWrite);
  EXPECT_EQ(events[0].start_ns, 100u);
  EXPECT_EQ(events[0].end_ns, 200u);
  EXPECT_EQ(events[0].arg0, 7u);
  EXPECT_EQ(events[1].type, TraceEventType::kUserRead);
  EXPECT_EQ(trace.CountType(TraceEventType::kUserWrite), 1u);
  EXPECT_EQ(trace.CountType(TraceEventType::kGcCopyForward), 0u);
}

TEST(TraceRecorderTest, RingWraparoundKeepsNewest) {
  TraceRecorder trace(8);
  for (uint64_t i = 0; i < 20; ++i) {
    trace.Record(TraceEventType::kUserWrite, i, i, i);
  }
  EXPECT_EQ(trace.capacity(), 8u);
  EXPECT_EQ(trace.size(), 8u);
  EXPECT_EQ(trace.total_recorded(), 20u);
  EXPECT_EQ(trace.dropped(), 12u);
  const auto events = trace.Events();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first unwrap: events 12..19 survive.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg0, 12 + i);
  }
}

TEST(TraceRecorderTest, DisabledRecordsNothing) {
  TraceRecorder trace(8);
  trace.set_enabled(false);
  trace.Record(TraceEventType::kUserWrite, 1, 2);
  EXPECT_EQ(trace.size(), 0u);
  trace.set_enabled(true);
  trace.Record(TraceEventType::kUserWrite, 1, 2);
  EXPECT_EQ(trace.size(), 1u);
}

TEST(TraceRecorderTest, ClearResets) {
  TraceRecorder trace(4);
  for (int i = 0; i < 6; ++i) {
    trace.Record(TraceEventType::kNandErase, 1, 2);
  }
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.total_recorded(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_TRUE(trace.Events().empty());
}

TEST(TraceExportTest, EveryTypeHasInfo) {
  for (size_t i = 0; i < kNumTraceEventTypes; ++i) {
    const TraceEventInfo& info = TraceEventInfoFor(static_cast<TraceEventType>(i));
    EXPECT_NE(info.name, nullptr);
    EXPECT_STRNE(info.name, "");
    EXPECT_NE(info.category, nullptr);
  }
}

// Runtime mirror of the consteval EventInfoTableInSync() proof in trace_export.cc:
// every enumerator's entry self-identifies (catches reordered rows), names are unique
// (catches copy-paste duplicates, which the compile-time check can't see), and arg
// labels are contiguous.
TEST(TraceExportTest, EventInfoTableMatchesEnum) {
  std::set<std::string> names;
  for (size_t i = 0; i < kNumTraceEventTypes; ++i) {
    const TraceEventType type = static_cast<TraceEventType>(i);
    const TraceEventInfo& info = TraceEventInfoFor(type);
    EXPECT_EQ(info.type, type) << "entry " << i << " (" << info.name
                               << ") is out of order";
    EXPECT_TRUE(names.insert(info.name).second) << "duplicate name " << info.name;
    bool ended = false;
    for (int a = 0; a < 3; ++a) {
      if (info.arg_names[a] == nullptr) {
        ended = true;
      } else {
        EXPECT_FALSE(ended) << info.name << ": hole in arg labels at " << a;
        EXPECT_STRNE(info.arg_names[a], "");
      }
    }
  }
}

// Downstream tooling (trace greps, dashboards) keys on these exact strings; the
// generic table-sync checks above cannot catch a silent rename.
TEST(TraceExportTest, MediaReliabilityEventNamesArePinned) {
  EXPECT_STREQ(TraceEventInfoFor(TraceEventType::kPatrolRewrite).name,
               "patrol_rewrite");
  EXPECT_STREQ(TraceEventInfoFor(TraceEventType::kPatrolDrop).name, "patrol_drop");
  EXPECT_STREQ(TraceEventInfoFor(TraceEventType::kDegradedEnter).name,
               "degraded_enter");
  EXPECT_STREQ(TraceEventInfoFor(TraceEventType::kDegradedExit).name,
               "degraded_exit");
}

// Same pin for the parity/rebuild events added with parity-protected segments.
TEST(TraceExportTest, ParityRebuildEventNamesArePinned) {
  EXPECT_STREQ(TraceEventInfoFor(TraceEventType::kParityWrite).name, "parity_write");
  EXPECT_STREQ(TraceEventInfoFor(TraceEventType::kPageRebuilt).name, "page_rebuilt");
  EXPECT_STREQ(TraceEventInfoFor(TraceEventType::kRebuildFailed).name,
               "rebuild_failed");
}

TEST(CsvEscapeTest, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("has space"), "has space");
  EXPECT_EQ(CsvEscape("a;b"), "a;b");  // Sub-separator needs no framing quote.
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(CsvEscape("cr\rhere"), "\"cr\rhere\"");
  EXPECT_EQ(CsvEscape(""), "");
}

// RFC 4180 field splitter for the round-trip check below.
std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
        field += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        field += c;
      }
    } else if (c == '"' && field.empty()) {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(field);
      field.clear();
    } else {
      field += c;
    }
  }
  fields.push_back(field);
  return fields;
}

// The multi-queue events are the analyzer's join targets: their CSV rows must parse
// back to exactly the recorded values, arg labels included, through a standard
// RFC 4180 reader.
TEST(TraceExportTest, CsvRoundTripsQueueEvents) {
  TraceRecorder trace(8);
  trace.Record(TraceEventType::kQueueSubmit, 1000, 1000, /*queue=*/3, /*ops=*/32,
               /*submission_id=*/41);
  trace.Record(TraceEventType::kQueueFlush, 2000, 2500, /*pending_ops=*/7,
               /*merged_runs=*/2);
  trace.Record(TraceEventType::kQueueComplete, 3000, 4500, /*queue=*/1, /*op_id=*/99,
               /*lba=*/123456789);
  std::ostringstream os;
  ExportTraceCsv(trace, os);

  std::vector<std::vector<std::string>> rows;
  std::istringstream in(os.str());
  std::string line;
  while (std::getline(in, line)) {
    rows.push_back(SplitCsv(line));
  }
  ASSERT_EQ(rows.size(), 4u);  // Header + three events.
  const std::vector<std::string> header = {"type", "category", "start_ns", "end_ns",
                                           "arg0", "arg1", "arg2", "arg_names"};
  EXPECT_EQ(rows[0], header);
  const std::vector<std::string> submit = {"queue_submit", "io",  "1000", "1000",
                                           "3",            "32",  "41",
                                           "queue;ops;submission_id"};
  const std::vector<std::string> flush = {"queue_flush", "io", "2000", "2500",
                                          "7",           "2",  "0",
                                          "pending_ops;merged_runs"};
  const std::vector<std::string> complete = {"queue_complete", "io",        "3000",
                                             "4500",           "1",         "99",
                                             "123456789",      "queue;op_id;lba"};
  EXPECT_EQ(rows[1], submit);
  EXPECT_EQ(rows[2], flush);
  EXPECT_EQ(rows[3], complete);
}

// Every exported CSV row must survive an RFC 4180 round trip even if a future event
// name or label ever contains a delimiter; exercise the full table.
TEST(TraceExportTest, CsvEveryTypeParsesToEightFields) {
  TraceRecorder trace(64);
  for (size_t i = 0; i < kNumTraceEventTypes; ++i) {
    trace.Record(static_cast<TraceEventType>(i), i * 10, i * 10 + 5, i, i + 1, i + 2);
  }
  std::ostringstream os;
  ExportTraceCsv(trace, os);
  std::istringstream in(os.str());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(SplitCsv(line).size(), 8u) << line;
  }
  EXPECT_EQ(lines, 1 + kNumTraceEventTypes);
}

TEST(TraceExportTest, ChromeJsonIsSyntacticallyValid) {
  TraceRecorder trace(64);
  // One of each type, mixing spans and instants, to exercise every code path.
  for (size_t i = 0; i < kNumTraceEventTypes; ++i) {
    trace.Record(static_cast<TraceEventType>(i), i * 1000, i * 1000 + (i % 2) * 500, i,
                 i + 1, i + 2);
  }
  std::ostringstream os;
  ExportChromeTrace(trace, os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"user_write\""), std::string::npos);
  EXPECT_NE(json.find("\"gc_copy_forward\""), std::string::npos);
  EXPECT_NE(json.find("\"fault_injected\""), std::string::npos);
  EXPECT_NE(json.find("\"segment_retired\""), std::string::npos);
  EXPECT_NE(json.find("\"read_retry\""), std::string::npos);
  // ns 1000 renders as 1 µs exactly.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
}

TEST(TraceExportTest, EmptyTraceStillValidJson) {
  TraceRecorder trace(4);
  std::ostringstream os;
  ExportChromeTrace(trace, os);
  EXPECT_TRUE(JsonValidator(os.str()).Valid()) << os.str();
}

TEST(TraceExportTest, CsvHasHeaderAndRows) {
  TraceRecorder trace(4);
  trace.Record(TraceEventType::kGcCopyForward, 10, 20, 1, 2, 3);
  std::ostringstream os;
  ExportTraceCsv(trace, os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("type,category,start_ns,end_ns"), std::string::npos);
  EXPECT_NE(csv.find("gc_copy_forward"), std::string::npos);
}

// --- FTL integration -------------------------------------------------------------

FtlConfig SmallConfig() {
  FtlConfig config;
  config.nand.page_size_bytes = 4096;
  config.nand.pages_per_segment = 64;
  config.nand.num_segments = 32;
  config.nand.num_channels = 4;
  config.nand.store_data = false;
  config.overprovision = 0.3;
  return config;
}

// Drives overwrite churn plus a snapshot so GC, CoW, and snapshot events all fire.
FtlStats RunChurn(TraceRecorder* trace) {
  auto ftl_or = Ftl::Create(SmallConfig());
  IOSNAP_CHECK(ftl_or.ok());
  std::unique_ptr<Ftl> ftl = std::move(ftl_or).value();
  ftl->SetTraceRecorder(trace);

  SimClock clock;
  const uint64_t lba_space = ftl->LbaCount() / 2;
  uint32_t snap_id = 0;
  for (uint64_t i = 0; i < lba_space * 6; ++i) {
    auto io = ftl->Write(i % lba_space, {}, clock.NowNs());
    IOSNAP_CHECK(io.ok());
    clock.AdvanceTo(io->CompletionNs());
    if (i == lba_space) {
      auto snap = ftl->CreateSnapshot("churn", clock.NowNs());
      IOSNAP_CHECK(snap.ok());
      clock.AdvanceTo(snap->io.CompletionNs());
      snap_id = snap->snap_id;
    }
  }
  IOSNAP_CHECK_OK(ftl->DeleteSnapshot(snap_id, clock.NowNs()).status());
  return ftl->stats();
}

TEST(TraceFtlIntegrationTest, CapturesGcCowAndSnapshotEvents) {
  TraceRecorder trace;
  const FtlStats stats = RunChurn(&trace);
  EXPECT_GT(trace.CountType(TraceEventType::kUserWrite), 0u);
  EXPECT_EQ(trace.CountType(TraceEventType::kSnapCreate), 1u);
  EXPECT_EQ(trace.CountType(TraceEventType::kSnapDelete), 1u);
  EXPECT_GT(trace.CountType(TraceEventType::kGcVictimSelect), 0u);
  EXPECT_GT(trace.CountType(TraceEventType::kGcCopyForward), 0u);
  EXPECT_GT(trace.CountType(TraceEventType::kGcSegmentErase), 0u);
  EXPECT_GT(trace.CountType(TraceEventType::kNandErase), 0u);
  EXPECT_GT(trace.CountType(TraceEventType::kValidityCowChunk), 0u);
  // Trace counts agree with the cumulative counters they mirror.
  EXPECT_EQ(trace.CountType(TraceEventType::kUserWrite), stats.user_writes);
  EXPECT_EQ(trace.CountType(TraceEventType::kGcCopyForward), stats.gc_pages_copied);
  EXPECT_EQ(trace.CountType(TraceEventType::kGcSegmentErase), stats.gc_segments_cleaned);
}

TEST(TraceFtlIntegrationTest, TracingDoesNotPerturbBehaviour) {
  TraceRecorder trace;
  const FtlStats traced = RunChurn(&trace);
  const FtlStats untraced = RunChurn(nullptr);
  EXPECT_EQ(traced.user_writes, untraced.user_writes);
  EXPECT_EQ(traced.total_pages_programmed, untraced.total_pages_programmed);
  EXPECT_EQ(traced.gc_pages_copied, untraced.gc_pages_copied);
  EXPECT_EQ(traced.gc_segments_cleaned, untraced.gc_segments_cleaned);
  EXPECT_EQ(traced.validity_cow_events, untraced.validity_cow_events);
  EXPECT_EQ(traced.gc_total_host_ns, untraced.gc_total_host_ns);
}

TEST(TraceFaultEventsTest, DeviceFaultsAreRecorded) {
  NandConfig config;
  config.page_size_bytes = 512;
  config.pages_per_segment = 8;
  config.num_segments = 4;
  config.num_channels = 2;
  config.fault.read_fail_ppm = 1000000;  // Every read fails.
  NandDevice dev(config);
  TraceRecorder trace;
  dev.SetTraceRecorder(&trace);

  PageHeader header;
  header.type = RecordType::kData;
  uint64_t paddr = 0;
  IOSNAP_CHECK(dev.ProgramPage(0, header, {}, 0, &paddr).ok());
  IOSNAP_CHECK(!dev.ReadPageWithRetry(paddr, 0, nullptr, nullptr, 3).ok());
  EXPECT_EQ(trace.CountType(TraceEventType::kFaultInjected), 3u);
  EXPECT_EQ(trace.CountType(TraceEventType::kReadRetry), 2u);
  const auto events = trace.Events();
  // Fault events carry (kind, where, op_index); kind 2 = read.
  bool saw_read_fault = false;
  for (const auto& e : events) {
    if (e.type == TraceEventType::kFaultInjected) {
      EXPECT_EQ(e.arg0, 2u);
      saw_read_fault = true;
    }
  }
  EXPECT_TRUE(saw_read_fault);
}

TEST(TraceFaultEventsTest, SegmentRetirementIsRecorded) {
  FtlConfig config = SmallConfig();
  config.nand.fault.bad_block_schedule = {{3, 1}};  // First erase of segment 3 fails.
  auto ftl_or = Ftl::Create(config);
  IOSNAP_CHECK(ftl_or.ok());
  std::unique_ptr<Ftl> ftl = std::move(ftl_or).value();
  TraceRecorder trace;
  ftl->SetTraceRecorder(&trace);

  SimClock clock;
  const uint64_t lba_space = ftl->LbaCount() / 2;
  for (uint64_t i = 0; i < lba_space * 4 && trace.CountType(TraceEventType::kSegmentRetired) == 0;
       ++i) {
    auto io = ftl->Write(i % lba_space, {}, clock.NowNs());
    IOSNAP_CHECK(io.ok());
    clock.AdvanceTo(io->CompletionNs());
  }
  EXPECT_GE(trace.CountType(TraceEventType::kFaultInjected), 1u);
  EXPECT_GE(trace.CountType(TraceEventType::kSegmentRetired), 1u);
}

TEST(TraceFtlIntegrationTest, RecoveryRunIsRecorded) {
  auto ftl_or = Ftl::Create(SmallConfig());
  IOSNAP_CHECK(ftl_or.ok());
  std::unique_ptr<Ftl> ftl = std::move(ftl_or).value();
  SimClock clock;
  for (uint64_t lba = 0; lba < 32; ++lba) {
    auto io = ftl->Write(lba, {}, clock.NowNs());
    IOSNAP_CHECK(io.ok());
    clock.AdvanceTo(io->CompletionNs());
  }
  std::unique_ptr<NandDevice> media = ftl->ReleaseDevice();

  TraceRecorder trace;
  auto reopened = Ftl::Open(SmallConfig(), std::move(media), clock.NowNs(), nullptr,
                            &trace);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(trace.CountType(TraceEventType::kRecoveryRun), 1u);
  EXPECT_EQ((*reopened)->trace_recorder(), &trace);
}

}  // namespace
}  // namespace iosnap
