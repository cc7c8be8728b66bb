// The end-to-end benchmark's workloads, measured phase and correctness gate.
//
// Each workload is a closed loop on the simulator's virtual clock with a fixed number of
// ops in flight, driven only through public simulator interfaces: Ftl, IoQueueLayer, the
// const NandDevice / ValidityMap / stats accessors, and FsckDevice. Virtual-clock results
// are a pure function of (workload, seed, seconds); wall-clock results measure what the
// simulator costs whoever runs it. See README.md in this directory.

#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "e2ebench/span_tracer.h"
#include "src/common/status.h"
#include "src/core/ftl.h"
#include "src/core/io_queue.h"
#include "src/obs/latency.h"

namespace e2ebench {

// How a workload submits its ops.
enum class Path : uint8_t {
  kQueued,    // IoQueueLayer submissions of `batch` ops into queues x iodepth slots.
  kVectored,  // One Ftl::WriteV/ReadV/TrimV/ReadViewV call of `batch` ops per client step.
  kScalar,    // One Ftl::Read or Ftl::Write call per client step: batch 1, no trims or
              // snapshots.
};

struct WorkloadSpec {
  std::string name;
  iosnap::FtlConfig config;
  double working_set_frac = 0.0;  // Ops touch LBAs [0, frac * LbaCount()).
  uint64_t age_writes = 0;        // Set-up overwrites after the sequential prefill.
  uint64_t measured_ops = 0;      // User data ops issued in the measured phase.
  Path path = Path::kVectored;
  uint32_t clients = 1;           // Closed-loop clients (vectored and scalar paths).
  // Mean of each client's exponentially distributed think time between ops. It puts
  // issue times off the device model's timing lattice, so latency order statistics
  // vary with the seed instead of sitting on one lattice point.
  double think_ns = 0.0;
  uint32_t batch = 1;
  uint32_t queues = 0;
  uint32_t iodepth = 0;
  double read_frac = 0.0;
  double trim_frac = 0.0;
  double zipf_theta = 0.0;        // 0 draws LBAs uniformly.
  bool stamp_payloads = false;    // Write (lba, version) payloads; check every read.
  uint64_t snapshot_every = 0;    // User writes between snapshots; 0 = no snapshots.
  uint32_t keep_snapshots = 0;    // Live snapshots kept; the oldest is then deleted.
  uint32_t activate_every = 0;    // Activate every Nth snapshot (measured phase only).
  uint32_t readback_pages = 0;    // View pages read back per activation.
  iosnap::RateLimit activation_limit;
};

// The measured phase is timed in this many slices of equal issued-op count; the last also
// covers the final drain (see sim_ops_per_s).
inline constexpr uint64_t kSlices = 50;
// Set-up is timed in this many chunks of equal set-up writes; the first also covers
// construction and the last the final drain (see setup_s).
inline constexpr uint64_t kSetupChunks = 16;

// The benchmark's workloads, by name.
const std::vector<std::string>& WorkloadNames();
// Sizes the named workload so its measured phase runs for about `seconds` of wall time
// on a 4-core x86 host.
iosnap::StatusOr<WorkloadSpec> MakeSpec(const std::string& name, double seconds);

// Nearest-rank order statistic of an ascending sample: the smallest value with at least
// p percent of the sample at or below it. 0 for an empty sample.
template <typename T>
T ExactPercentile(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  // The epsilon keeps p * n on an integer (99.9% of 1000) from rounding up a rank.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()) - 1e-9);
  const size_t index =
      rank < 1.0 ? 0 : std::min(sorted.size(), static_cast<size_t>(rank)) - 1;
  return sorted[index];
}

// Per-op latencies are kept as 32-bit nanoseconds (saturating at 4.29 s) so that the
// benchmark's own memory stays small next to the simulator's in peak_rss_mib.
using Latencies = std::vector<uint32_t>;

// Everything one measured phase observed.
struct PhaseResult {
  // Host clock and memory.
  uint64_t wall_ns = 0;
  std::vector<uint64_t> slice_wall_ns;  // kSlices entries that sum to wall_ns.
  // At the end of the measured loop: the process's peak resident set, and the bytes the
  // benchmark's own per-op latency vectors and shadows hold then.
  uint64_t peak_rss_bytes = 0;
  uint64_t harness_bytes = 0;

  // Virtual clock and counts: bit-identical for a given (workload, seed, seconds).
  uint64_t attempted = 0;  // Data ops plus snapshot and activation calls attempted.
  uint64_t failed = 0;     // ...that returned (or completed with) a non-OK Status.
  uint64_t user_ops = 0;   // Data ops (writes, reads, trims, view reads) completed OK.
  uint64_t write_bytes = 0;
  uint64_t read_bytes = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;  // Last completion or device drain, whichever is later.
  // Per-op issue-to-completion latencies, sorted ascending.
  Latencies write_lat_ns;
  Latencies read_lat_ns;
  std::vector<uint64_t> snap_create_ns;
  std::vector<uint64_t> activate_ns;  // BeginActivation to observed ActivationDone.
  Latencies activation_write_lat_ns;  // Writes issued while an activation runs.
  iosnap::FtlStats ftl_before, ftl_after;
  iosnap::NandStats nand_before, nand_after;
  iosnap::ValidityStats validity_before, validity_after;
  iosnap::IoQueueStats queue;
  uint64_t bus_active_ns = 0;  // Summed over buses.
  uint32_t buses = 0;
  uint64_t merged_valid_pages = 0;  // Pages valid in any live epoch, at the end.
  uint64_t primary_entries = 0;
  uint64_t map_bytes = 0;
  uint64_t validity_bytes = 0;
  uint64_t map_digest = 0;        // Hash of the primary map's (lba, paddr) pairs.
  uint64_t op_stream_digest = 0;  // Hash of every generated (kind, lba).
  // Counts of the calls the harness made.
  uint64_t pump_calls = 0;
  uint64_t queue_polls = 0;  // NextCompletionNs plus PollCompletions calls.
  uint64_t inflight_at_poll_sum = 0;
  uint64_t poll_calls = 0;   // PollCompletions calls alone.
  uint64_t completions_delivered = 0;
  uint64_t activations_done = 0;

  // Host clock, traced run only: PumpBackground time while an activation is in flight.
  uint64_t activation_pump_wall_ns = 0;

  // True when every virtual-clock result equals `other`'s.
  bool VirtualEquals(const PhaseResult& other) const;
};

// One workload instance: an aged FTL plus the benchmark's shadow of what it should hold.
class Bench {
 public:
  // Builds the device and FTL, then runs the workload's set-up: sequential prefill,
  // ageing overwrites and the initial snapshots. Deterministic in (spec, seed).
  static iosnap::StatusOr<std::unique_ptr<Bench>> Setup(const WorkloadSpec& spec,
                                                         uint64_t seed);

  // Runs the measured phase. `tracer` and `attributor` are null in the untraced run.
  PhaseResult Run(SpanTracer* tracer, iosnap::LatencyAttributor* attributor);

  // Untimed checks after the measured phase (README.md, "Correctness gate"); crashes
  // and reopens the FTL. Returns one line per failure, including every wrong read the
  // measured phase saw; empty when everything holds.
  std::vector<std::string> Gate();

  // The first non-OK Status a call returned, for diagnostics.
  const std::string& first_failure() const { return first_failure_; }
  // Wall time of each of the kSetupChunks set-up chunks; they sum to the set-up's.
  const std::vector<uint64_t>& setup_chunk_ns() const { return setup_chunk_ns_; }

 private:
  enum class Kind : uint8_t { kWrite, kRead, kTrim, kViewRead };
  struct Names;

  // Deterministic xoshiro256** stream. The benchmark owns its generators rather than
  // using src/common/rng.h and src/workload, so that no change to the program can
  // change the op stream the benchmark measures it with.
  class Rng {
   public:
    explicit Rng(uint64_t seed);
    uint64_t Next();
    uint64_t Below(uint64_t bound);  // Uniform in [0, bound).
    double Unit();                   // Uniform in [0, 1).

   private:
    uint64_t s_[4];
  };

  // Uniform or Zipf(theta) LBAs over [0, n). Zipf ranks are scattered over the space by
  // a bijective multiplicative hash, so hot blocks do not cluster in a few segments.
  class LbaGen {
   public:
    LbaGen(uint64_t n, double theta);
    uint64_t Next(Rng* rng);

   private:
    uint64_t n_;
    double theta_;
    double zetan_ = 0.0;
    double alpha_ = 0.0;
    double eta_ = 0.0;
    double half_pow_theta_ = 0.0;
  };

  Bench(const WorkloadSpec& spec, uint64_t seed, std::unique_ptr<iosnap::Ftl> ftl);

  iosnap::Status Prefill();
  iosnap::Status Age();
  // One direct WriteV of set-up writes at now, advancing now to its completion.
  iosnap::Status SetupWrite(const std::vector<uint64_t>& lbas);
  // Closes every set-up chunk but the last whose writes have all been issued.
  void TickSetupChunks();

  void RunClients(PhaseResult* r, SpanTracer* tracer, const Names& names);
  void RunQueued(PhaseResult* r, SpanTracer* tracer, const Names& names);
  void Pump(PhaseResult* r, SpanTracer* tracer, const Names& names);
  // Snapshot cadence, activation progress and view retirement; returns the latest
  // completion of the calls it made.
  uint64_t SnapshotStep(PhaseResult* r, SpanTracer* tracer, const Names& names);
  // Draws the next client batch into kind_/lbas_.
  void NextBatch();
  // Issues kind_/lbas_ at now; returns the latest completion.
  uint64_t IssueBatch(PhaseResult* r, SpanTracer* tracer, const Names& names);
  // Closes every slice but the last whose ops have all been issued.
  void TickSlices(PhaseResult* r, uint64_t issued);
  // Bytes held by the latency vectors of `r` and by the shadows.
  uint64_t HarnessBytes(const PhaseResult& r) const;

  void NoteFailure(PhaseResult* r, uint64_t ops, const iosnap::Status& status);
  // Records a read whose result disagrees with the shadow.
  void Mismatch(const std::string& what);
  // Checks one read against the shadow `version`: its payload when `data` is given,
  // otherwise whether it went to the device exactly when the LBA is mapped.
  void CheckRead(const char* what, uint64_t lba, uint32_t version,
                 const iosnap::IoResult& io, const std::vector<uint8_t>* data);

  WorkloadSpec spec_;
  std::unique_ptr<iosnap::Ftl> ftl_;
  uint64_t working_set_;
  uint64_t page_bytes_;
  Rng setup_rng_;
  Rng rng_;
  LbaGen gen_;
  uint64_t now_ns_ = 0;
  bool measuring_ = false;

  // Shadow: per LBA, 0 = unmapped, kUnknown after a failed write or trim, else the
  // version of the last write.
  std::vector<uint32_t> shadow_;
  uint32_t next_version_ = 1;
  std::deque<uint32_t> live_snaps_;
  std::map<uint32_t, std::vector<uint32_t>> snap_shadow_;
  uint64_t writes_since_snap_ = 0;
  uint64_t snaps_created_ = 0;

  // The activated view, if any (view_ == 0: none).
  uint32_t view_ = 0;
  uint32_t view_snap_ = 0;
  uint64_t view_begin_ns_ = 0;
  bool view_ready_ = false;
  uint64_t readback_left_ = 0;

  Kind kind_ = Kind::kWrite;
  std::vector<uint64_t> lbas_;
  uint64_t next_op_id_ = 0;
  uint64_t slice_ops_ = 1;
  uint64_t slice_wall_start_ = 0;
  uint64_t setup_writes_ = 0;
  uint64_t setup_total_writes_ = 1;
  uint64_t chunk_wall_start_ = 0;
  std::vector<uint64_t> setup_chunk_ns_;
  uint64_t op_digest_ = 0;

  uint64_t mismatches_ = 0;
  std::vector<std::string> errors_;
  std::string first_failure_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_H_
