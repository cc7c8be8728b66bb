#include "e2ebench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <optional>
#include <queue>
#include <span>
#include <type_traits>
#include <utility>

#include "src/core/fsck.h"

namespace e2ebench {
namespace {

using iosnap::Ftl;
using iosnap::IoResult;
using iosnap::Status;
using iosnap::StatusOr;

constexpr uint32_t kUnknown = ~uint32_t{0};
constexpr size_t kStampBytes = 16;
constexpr uint64_t kSetupBatch = 32;
constexpr size_t kMaxErrors = 20;

// Measured-phase ops per requested wall second, calibrated on a 4-core x86 host.
constexpr double kQueuedRandwriteOpsPerSec = 37000;
constexpr double kSnapshotChurnOpsPerSec = 440000;
constexpr double kReadMostlyOpsPerSec = 800000;

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdULL;
}

std::array<uint8_t, kStampBytes> Stamp(uint64_t lba, uint64_t version) {
  std::array<uint8_t, kStampBytes> out{};
  std::memcpy(out.data(), &lba, 8);
  std::memcpy(out.data() + 8, &version, 8);
  return out;
}

bool StampMatches(const std::vector<uint8_t>& data, uint64_t lba, uint32_t version) {
  if (version == 0) {
    return std::all_of(data.begin(), data.end(), [](uint8_t b) { return b == 0; });
  }
  return data.size() == kStampBytes && std::memcmp(data.data(), Stamp(lba, version).data(),
                                                   kStampBytes) == 0;
}

bool Known(uint32_t version) { return version != kUnknown; }

// One batch of writes: a fresh version per write and, when stamping, its payload.
// `requests` point into `stamps`, whose buffer moves with the struct.
struct WriteBatch {
  std::vector<std::array<uint8_t, kStampBytes>> stamps;
  std::vector<uint32_t> versions;
  std::vector<iosnap::WriteRequest> requests;
};

WriteBatch PrepareWrites(const std::vector<uint64_t>& lbas, bool stamp,
                         uint32_t* next_version) {
  WriteBatch batch;
  batch.stamps.resize(lbas.size());
  batch.versions.resize(lbas.size());
  batch.requests.resize(lbas.size());
  for (size_t i = 0; i < lbas.size(); ++i) {
    batch.versions[i] = (*next_version)++;
    batch.requests[i].lba = lbas[i];
    if (stamp) {
      batch.stamps[i] = Stamp(lbas[i], batch.versions[i]);
      batch.requests[i].data = batch.stamps[i];
    }
  }
  return batch;
}

uint32_t Saturate(uint64_t ns) {
  return static_cast<uint32_t>(std::min<uint64_t>(ns, ~uint32_t{0}));
}

// Device geometry over the default FtlConfig knobs: 4 MiB segments of 4 KiB pages.
iosnap::FtlConfig Geometry(uint64_t segments, uint32_t channels, bool store_data) {
  iosnap::FtlConfig config;
  config.nand.num_segments = segments;
  config.nand.num_channels = channels;
  config.nand.store_data = store_data;
  config.map_update_threads = 0;
  return config;
}

uint64_t PeakRssBytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // ru_maxrss is in KiB.
}

template <typename T>
bool SameWords(const T& a, const T& b) {
  static_assert(sizeof(T) % sizeof(uint64_t) == 0, "stats structs hold only uint64_t");
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"queued_randwrite", "snapshot_churn",
                                                 "read_mostly"};
  return names;
}

StatusOr<WorkloadSpec> MakeSpec(const std::string& name, double seconds) {
  if (!(seconds > 0.0) || seconds > 600.0) {
    return iosnap::InvalidArgument("seconds must be in (0, 600]");
  }
  const auto ops = [seconds](double per_second) {
    return std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(per_second * seconds)));
  };
  WorkloadSpec s;
  s.name = name;
  if (name == "queued_randwrite") {
    s.config = Geometry(256, 32, false);
    s.working_set_frac = 0.75;
    s.age_writes = s.config.nand.TotalPages();
    s.measured_ops = ops(kQueuedRandwriteOpsPerSec);
    s.path = Path::kQueued;
    s.batch = 32;
    s.queues = 4;
    s.iodepth = 8;
  } else if (name == "snapshot_churn") {
    s.config = Geometry(256, 16, true);
    s.working_set_frac = 0.30;
    s.age_writes = s.config.nand.TotalPages();
    s.measured_ops = ops(kSnapshotChurnOpsPerSec);
    s.path = Path::kVectored;
    s.clients = 4;
    s.think_ns = 5000;
    s.batch = 8;
    s.read_frac = 0.10;
    s.trim_frac = 0.04;
    s.zipf_theta = 0.9;
    s.stamp_payloads = true;
    s.snapshot_every = 65536;
    s.keep_snapshots = 4;
    s.activate_every = 2;
    s.readback_pages = 4096;
    s.activation_limit = iosnap::RateLimit::Of(600, 10);
  } else if (name == "read_mostly") {
    s.config = Geometry(1024, 16, false);
    s.working_set_frac = 0.75;
    s.measured_ops = ops(kReadMostlyOpsPerSec);
    s.path = Path::kScalar;
    s.clients = 8;
    s.think_ns = 2000;
    s.batch = 1;
    s.read_frac = 0.90;
  } else {
    return iosnap::NotFound("unknown workload: " + name);
  }
  return s;
}

bool PhaseResult::VirtualEquals(const PhaseResult& o) const {
  return attempted == o.attempted && failed == o.failed && user_ops == o.user_ops &&
         write_bytes == o.write_bytes && read_bytes == o.read_bytes &&
         start_ns == o.start_ns && end_ns == o.end_ns && write_lat_ns == o.write_lat_ns &&
         read_lat_ns == o.read_lat_ns && snap_create_ns == o.snap_create_ns &&
         activate_ns == o.activate_ns &&
         activation_write_lat_ns == o.activation_write_lat_ns &&
         SameWords(ftl_before, o.ftl_before) && SameWords(ftl_after, o.ftl_after) &&
         SameWords(nand_before, o.nand_before) && SameWords(nand_after, o.nand_after) &&
         SameWords(validity_before, o.validity_before) &&
         SameWords(validity_after, o.validity_after) && SameWords(queue, o.queue) &&
         bus_active_ns == o.bus_active_ns && buses == o.buses &&
         merged_valid_pages == o.merged_valid_pages && primary_entries == o.primary_entries &&
         map_bytes == o.map_bytes && validity_bytes == o.validity_bytes &&
         map_digest == o.map_digest && op_stream_digest == o.op_stream_digest &&
         pump_calls == o.pump_calls && queue_polls == o.queue_polls &&
         inflight_at_poll_sum == o.inflight_at_poll_sum && poll_calls == o.poll_calls &&
         completions_delivered == o.completions_delivered &&
         activations_done == o.activations_done;
}

// --- Bench::Rng / Bench::LbaGen ---

Bench::Rng::Rng(uint64_t seed) {
  for (uint64_t& s : s_) {  // splitmix64 expansion of the seed
    uint64_t z = (seed += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    s = z ^ (z >> 31);
  }
}

uint64_t Bench::Rng::Next() {
  const auto rotl = [](uint64_t x, int k) { return (x << k) | (x >> (64 - k)); };
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

uint64_t Bench::Rng::Below(uint64_t bound) {
  return static_cast<uint64_t>((static_cast<unsigned __int128>(Next()) * bound) >> 64);
}

double Bench::Rng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

// Gray et al., "Quickly generating billion-record synthetic databases" (SIGMOD '94).
Bench::LbaGen::LbaGen(uint64_t n, double theta) : n_(n), theta_(theta) {
  if (theta_ <= 0.0) {
    return;
  }
  for (uint64_t i = 1; i <= n_; ++i) {
    zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
  }
  alpha_ = 1.0 / (1.0 - theta_);
  half_pow_theta_ = std::pow(0.5, theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - (1.0 + half_pow_theta_) / zetan_);
}

uint64_t Bench::LbaGen::Next(Rng* rng) {
  if (theta_ <= 0.0) {
    return rng->Below(n_);
  }
  const double u = rng->Unit();
  const double uz = u * zetan_;
  uint64_t rank = 0;
  if (uz >= 1.0 + half_pow_theta_) {
    rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                 std::pow(eta_ * u - eta_ + 1.0, alpha_));
    rank = std::min(rank, n_ - 1);
  } else if (uz >= 1.0) {
    rank = 1;
  }
  // 2654435761 is prime, so rank -> rank * k mod n is a bijection for n < 2^32.
  return (rank * 2654435761ULL) % n_;
}

// --- Set-up ---

// Span name ids; all zero (and unused) in the untraced run.
struct Bench::Names {
  uint32_t harness = 0, gen = 0, pump = 0, write = 0, read = 0, trim = 0, submit = 0,
           flush = 0, next_completion = 0, poll = 0, snap_create = 0, snap_delete = 0,
           act_begin = 0, act_end = 0;

  explicit Names(SpanTracer* t) {
    if (t == nullptr) {
      return;
    }
    harness = t->Name("harness");
    gen = t->Name("workload.gen");
    pump = t->Name("ftl.pump");
    write = t->Name("ftl.write");
    read = t->Name("ftl.read");
    trim = t->Name("ftl.trim");
    submit = t->Name("io_queue.submit");
    flush = t->Name("io_queue.flush");
    next_completion = t->Name("io_queue.next_completion");
    poll = t->Name("io_queue.poll");
    snap_create = t->Name("snapshot.create");
    snap_delete = t->Name("snapshot.delete");
    act_begin = t->Name("activation.begin");
    act_end = t->Name("activation.deactivate");
  }
};

Bench::Bench(const WorkloadSpec& spec, uint64_t seed, std::unique_ptr<Ftl> ftl)
    : spec_(spec),
      ftl_(std::move(ftl)),
      working_set_(std::max<uint64_t>(
          1, static_cast<uint64_t>(spec.working_set_frac *
                                   static_cast<double>(ftl_->LbaCount())))),
      page_bytes_(spec.config.nand.page_size_bytes),
      setup_rng_(Mix(seed, 0x5e7u)),
      rng_(Mix(seed, 0x3ea5u)),
      gen_(working_set_, spec.zipf_theta),
      shadow_(working_set_, 0) {}

StatusOr<std::unique_ptr<Bench>> Bench::Setup(const WorkloadSpec& spec, uint64_t seed) {
  if (spec.batch == 0 || spec.clients == 0 ||
      (spec.path == Path::kQueued && (spec.queues == 0 || spec.iodepth == 0))) {
    return iosnap::InvalidArgument("workload needs batch, clients, queues and iodepth > 0");
  }
  if (spec.path == Path::kScalar &&
      (spec.batch != 1 || spec.trim_frac > 0.0 || spec.snapshot_every > 0)) {
    return iosnap::InvalidArgument("the scalar path issues single reads and writes only");
  }
  const uint64_t wall_start = WallNs();
  ASSIGN_OR_RETURN(std::unique_ptr<Ftl> ftl, Ftl::Create(spec.config));
  std::unique_ptr<Bench> bench(new Bench(spec, seed, std::move(ftl)));
  bench->chunk_wall_start_ = wall_start;
  bench->setup_total_writes_ = std::max<uint64_t>(1, bench->working_set_ + spec.age_writes);
  RETURN_IF_ERROR(bench->Prefill());
  RETURN_IF_ERROR(bench->Age());
  bench->now_ns_ = std::max(bench->now_ns_, bench->ftl_->device().DrainTimeNs());
  bench->setup_chunk_ns_.push_back(WallNs() - bench->chunk_wall_start_);
  return bench;
}

void Bench::TickSetupChunks() {
  while (setup_chunk_ns_.size() + 1 < kSetupChunks &&
         setup_writes_ * kSetupChunks >= (setup_chunk_ns_.size() + 1) * setup_total_writes_) {
    const uint64_t now = WallNs();
    setup_chunk_ns_.push_back(now - chunk_wall_start_);
    chunk_wall_start_ = now;
  }
}

Status Bench::SetupWrite(const std::vector<uint64_t>& lbas) {
  ftl_->PumpBackground(now_ns_);
  const WriteBatch batch = PrepareWrites(lbas, spec_.stamp_payloads, &next_version_);
  ASSIGN_OR_RETURN(std::vector<IoResult> results, ftl_->WriteV(batch.requests, now_ns_));
  uint64_t done = now_ns_;
  for (size_t i = 0; i < lbas.size(); ++i) {
    done = std::max(done, results[i].CompletionNs());
    shadow_[lbas[i]] = batch.versions[i];
  }
  now_ns_ = done;
  writes_since_snap_ += lbas.size();
  setup_writes_ += lbas.size();
  TickSetupChunks();
  return iosnap::OkStatus();
}

Status Bench::Prefill() {
  std::vector<uint64_t> lbas;
  for (uint64_t lba = 0; lba < working_set_; lba += kSetupBatch) {
    lbas.clear();
    for (uint64_t i = lba; i < std::min(working_set_, lba + kSetupBatch); ++i) {
      lbas.push_back(i);
    }
    RETURN_IF_ERROR(SetupWrite(lbas));
  }
  return iosnap::OkStatus();
}

Status Bench::Age() {
  PhaseResult unmeasured;
  const Names names(nullptr);
  std::vector<uint64_t> lbas;
  for (uint64_t written = 0; written < spec_.age_writes; written += kSetupBatch) {
    if (spec_.snapshot_every > 0) {
      now_ns_ = std::max(now_ns_, SnapshotStep(&unmeasured, nullptr, names));
    }
    lbas.clear();
    for (uint64_t i = 0; i < kSetupBatch; ++i) {
      lbas.push_back(gen_.Next(&setup_rng_));
    }
    RETURN_IF_ERROR(SetupWrite(lbas));
  }
  if (unmeasured.failed > 0) {
    return iosnap::Internal("set-up snapshot call failed: " + first_failure_);
  }
  return iosnap::OkStatus();
}

// --- Measured phase ---

void Bench::NoteFailure(PhaseResult* r, uint64_t ops, const Status& status) {
  r->failed += ops;
  if (first_failure_.empty()) {
    first_failure_ = status.ToString();
  }
}

void Bench::Mismatch(const std::string& what) {
  if (++mismatches_ <= kMaxErrors) {
    errors_.push_back(what);
  }
}

void Bench::CheckRead(const char* what, uint64_t lba, uint32_t version, const IoResult& io,
                      const std::vector<uint8_t>* data) {
  if (!Known(version)) {
    return;
  }
  const bool ok = data != nullptr ? StampMatches(*data, lba, version)
                                  : (io.op.finish_ns > io.op.issue_ns) == (version != 0);
  if (!ok) {
    Mismatch(std::string(what) + " of lba " + std::to_string(lba) +
             " disagrees with the shadow (version " + std::to_string(version) + ")");
  }
}

void Bench::Pump(PhaseResult* r, SpanTracer* tracer, const Names& names) {
  ++r->pump_calls;
  if (tracer == nullptr) {
    ftl_->PumpBackground(now_ns_);
    return;
  }
  tracer->Begin(names.pump, next_op_id_, WallNs());
  ftl_->PumpBackground(now_ns_);
  const uint64_t ns = tracer->End(WallNs());
  if (view_ != 0 && !view_ready_) {
    r->activation_pump_wall_ns += ns;
  }
}

uint64_t Bench::SnapshotStep(PhaseResult* r, SpanTracer* tracer, const Names& names) {
  uint64_t done = now_ns_;
  if (view_ != 0 && !view_ready_ && ftl_->ActivationDone(view_)) {
    view_ready_ = true;
    readback_left_ = spec_.readback_pages;
    r->activate_ns.push_back(now_ns_ - view_begin_ns_);
    ++r->activations_done;
  }
  if (view_ != 0 && view_ready_ && readback_left_ == 0) {
    ++r->attempted;
    const Status st = [&] {
      Span span(tracer, names.act_end);
      return ftl_->Deactivate(view_, now_ns_);
    }();
    if (!st.ok()) {
      NoteFailure(r, 1, st);
    }
    view_ = 0;
  }
  if (writes_since_snap_ < spec_.snapshot_every) {
    return done;
  }
  writes_since_snap_ = 0;
  ++r->attempted;
  auto created = [&] {
    Span span(tracer, names.snap_create);
    return ftl_->CreateSnapshot(std::to_string(snaps_created_), now_ns_);
  }();
  if (!created.ok()) {
    NoteFailure(r, 1, created.status());
    return done;
  }
  ++snaps_created_;
  const uint32_t snap = created->snap_id;
  r->snap_create_ns.push_back(created->io.LatencyNs());
  done = std::max(done, created->io.CompletionNs());
  live_snaps_.push_back(snap);
  snap_shadow_[snap] = shadow_;
  if (live_snaps_.size() > spec_.keep_snapshots &&
      !(view_ != 0 && view_snap_ == live_snaps_.front())) {
    const uint32_t oldest = live_snaps_.front();
    ++r->attempted;
    auto deleted = [&] {
      Span span(tracer, names.snap_delete);
      return ftl_->DeleteSnapshot(oldest, now_ns_);
    }();
    if (deleted.ok()) {
      live_snaps_.pop_front();
      snap_shadow_.erase(oldest);
      done = std::max(done, deleted->CompletionNs());
    } else {
      NoteFailure(r, 1, deleted.status());
    }
  }
  if (measuring_ && spec_.activate_every > 0 && snaps_created_ % spec_.activate_every == 0 &&
      view_ == 0) {
    ++r->attempted;
    auto view = [&] {
      Span span(tracer, names.act_begin);
      return ftl_->BeginActivation(snap, spec_.activation_limit, now_ns_);
    }();
    if (view.ok()) {
      view_ = *view;
      view_snap_ = snap;
      view_begin_ns_ = now_ns_;
      view_ready_ = false;
    } else {
      NoteFailure(r, 1, view.status());
    }
  }
  return done;
}

void Bench::NextBatch() {
  lbas_.clear();
  if (view_ != 0 && view_ready_ && readback_left_ > 0) {
    kind_ = Kind::kViewRead;
    const uint64_t n = std::min<uint64_t>(spec_.batch, readback_left_);
    for (uint64_t i = 0; i < n; ++i) {
      lbas_.push_back(rng_.Below(working_set_));
    }
    readback_left_ -= n;
  } else {
    const double u = rng_.Unit();
    kind_ = u < spec_.read_frac                     ? Kind::kRead
            : u < spec_.read_frac + spec_.trim_frac ? Kind::kTrim
                                                    : Kind::kWrite;
    for (uint32_t i = 0; i < spec_.batch; ++i) {
      lbas_.push_back(gen_.Next(&rng_));
    }
  }
  for (uint64_t lba : lbas_) {
    op_digest_ = Mix(op_digest_, (lba << 2) | static_cast<uint64_t>(kind_));
  }
}

uint64_t Bench::IssueBatch(PhaseResult* r, SpanTracer* tracer, const Names& names) {
  const uint64_t t = now_ns_;
  const uint64_t first_op = next_op_id_;
  const size_t n = lbas_.size();
  next_op_id_ += n;
  r->attempted += n;
  uint64_t done = t;
  const bool scalar = spec_.path == Path::kScalar;
  const bool activating = view_ != 0 && !view_ready_;

  // Results land in `results`; a failed call fails every op it carried.
  std::vector<IoResult> results;
  std::vector<std::vector<uint8_t>> data;
  Status status;
  const auto collect = [&](auto&& call) {
    auto result = call();
    if (result.ok()) {
      if constexpr (std::is_same_v<std::decay_t<decltype(*result)>, IoResult>) {
        results.push_back(*result);
      } else {
        results = std::move(*result);
      }
    } else {
      status = result.status();
    }
  };

  switch (kind_) {
    case Kind::kWrite: {
      const WriteBatch batch = PrepareWrites(lbas_, spec_.stamp_payloads, &next_version_);
      const std::vector<iosnap::WriteRequest>& requests = batch.requests;
      {
        Span span(tracer, names.write, first_op);
        if (scalar) {
          collect([&] { return ftl_->Write(requests[0].lba, requests[0].data, t); });
        } else {
          collect([&] { return ftl_->WriteV(requests, t); });
        }
      }
      for (size_t i = 0; i < results.size(); ++i) {
        const uint32_t latency = Saturate(results[i].LatencyNs());
        r->write_lat_ns.push_back(latency);
        if (activating) {
          r->activation_write_lat_ns.push_back(latency);
        }
        done = std::max(done, results[i].CompletionNs());
        shadow_[lbas_[i]] = batch.versions[i];
      }
      r->write_bytes += results.size() * page_bytes_;
      writes_since_snap_ += results.size();
      if (!status.ok()) {
        for (size_t i = results.size(); i < n; ++i) {
          shadow_[lbas_[i]] = kUnknown;
        }
      }
      break;
    }
    case Kind::kTrim: {
      std::vector<iosnap::TrimRequest> requests(n);
      for (size_t i = 0; i < n; ++i) {
        requests[i] = {lbas_[i], 1};
      }
      {
        Span span(tracer, names.trim, first_op);
        collect([&] { return ftl_->TrimV(requests, t); });
      }
      for (size_t i = 0; i < results.size(); ++i) {
        done = std::max(done, results[i].CompletionNs());
        shadow_[lbas_[i]] = 0;
      }
      if (!status.ok()) {
        for (size_t i = results.size(); i < n; ++i) {
          shadow_[lbas_[i]] = kUnknown;
        }
      }
      break;
    }
    case Kind::kRead:
    case Kind::kViewRead: {
      const bool view = kind_ == Kind::kViewRead;
      std::vector<std::vector<uint8_t>>* data_out = spec_.stamp_payloads ? &data : nullptr;
      {
        Span span(tracer, names.read, first_op);
        if (scalar) {
          if (data_out != nullptr) {
            data.resize(1);
          }
          collect([&] { return ftl_->Read(lbas_[0], t, data_out ? data.data() : nullptr); });
        } else {
          collect([&] {
            return view ? ftl_->ReadViewV(view_, lbas_, t, data_out)
                        : ftl_->ReadV(lbas_, t, data_out);
          });
        }
      }
      const std::vector<uint32_t>& expected = view ? snap_shadow_[view_snap_] : shadow_;
      for (size_t i = 0; i < results.size(); ++i) {
        r->read_lat_ns.push_back(Saturate(results[i].LatencyNs()));
        done = std::max(done, results[i].CompletionNs());
        CheckRead(view ? "view read" : "read", lbas_[i], expected[lbas_[i]], results[i],
                  data_out != nullptr ? &data[i] : nullptr);
      }
      r->read_bytes += results.size() * page_bytes_;
      break;
    }
  }
  r->user_ops += results.size();
  if (!status.ok()) {
    NoteFailure(r, n - results.size(), status);
  }
  return done;
}

void Bench::TickSlices(PhaseResult* r, uint64_t issued) {
  while (r->slice_wall_ns.size() + 1 < kSlices &&
         issued >= (r->slice_wall_ns.size() + 1) * slice_ops_) {
    const uint64_t now = WallNs();
    r->slice_wall_ns.push_back(now - slice_wall_start_);
    slice_wall_start_ = now;
  }
}

uint64_t Bench::HarnessBytes(const PhaseResult& r) const {
  uint64_t words = r.write_lat_ns.size() + r.read_lat_ns.size() +
                   r.activation_write_lat_ns.size() + shadow_.size();
  for (const auto& [snap, shadow] : snap_shadow_) {
    words += shadow.size();
  }
  return words * sizeof(uint32_t);
}

void Bench::RunClients(PhaseResult* r, SpanTracer* tracer, const Names& names) {
  using Ready = std::pair<uint64_t, uint32_t>;  // (virtual ready time, client)
  std::priority_queue<Ready, std::vector<Ready>, std::greater<>> ready;
  for (uint32_t c = 0; c < spec_.clients; ++c) {
    ready.push({now_ns_, c});
  }
  uint64_t issued = 0;
  while (issued < spec_.measured_ops) {
    const auto [t, client] = ready.top();
    ready.pop();
    now_ns_ = std::max(now_ns_, t);
    Pump(r, tracer, names);
    uint64_t done = now_ns_;
    if (spec_.snapshot_every > 0) {
      done = SnapshotStep(r, tracer, names);
    }
    {
      Span span(tracer, names.gen, next_op_id_);
      NextBatch();
    }
    done = std::max(done, IssueBatch(r, tracer, names));
    issued += lbas_.size();
    TickSlices(r, issued);
    const double think = -spec_.think_ns * std::log1p(-rng_.Unit());
    ready.push({done + static_cast<uint64_t>(think), client});
  }
  while (!ready.empty()) {
    now_ns_ = std::max(now_ns_, ready.top().first);
    ready.pop();
  }
}

void Bench::RunQueued(PhaseResult* r, SpanTracer* tracer, const Names& names) {
  iosnap::IoQueueLayer layer(ftl_.get(), {spec_.queues, spec_.iodepth});
  std::vector<iosnap::QueueOp> ops;
  uint64_t issued = 0;
  uint32_t cursor = 0;  // Round-robin queue cursor.
  const auto free_queue = [&]() -> int64_t {
    for (uint32_t k = 0; k < spec_.queues; ++k) {
      const uint32_t q = (cursor + k) % spec_.queues;
      if (layer.CanSubmit(q)) {
        return q;
      }
    }
    return -1;
  };
  while (true) {
    if (issued < spec_.measured_ops && free_queue() >= 0) {
      Pump(r, tracer, names);
    }
    // Fill every free slot at the current virtual time.
    for (int64_t q = free_queue(); issued < spec_.measured_ops && q >= 0; q = free_queue()) {
      const uint64_t first_op = next_op_id_;
      {
        Span span(tracer, names.gen, first_op);
        lbas_.clear();
        ops.clear();
        const uint64_t n = std::min<uint64_t>(spec_.batch, spec_.measured_ops - issued);
        for (uint64_t i = 0; i < n; ++i) {
          const uint64_t lba = gen_.Next(&rng_);
          lbas_.push_back(lba);
          ops.push_back({iosnap::QueueOpKind::kWrite, lba, 0, {}});
          op_digest_ = Mix(op_digest_, lba << 2);
        }
      }
      next_op_id_ += ops.size();
      issued += ops.size();
      TickSlices(r, issued);
      auto submitted = [&] {
        Span span(tracer, names.submit, first_op);
        return layer.Submit(static_cast<uint32_t>(q), ops, now_ns_);
      }();
      if (!submitted.ok()) {
        r->attempted += ops.size();
        NoteFailure(r, ops.size(), submitted.status());
        for (uint64_t lba : lbas_) {
          shadow_[lba] = kUnknown;
        }
        break;
      }
      for (uint64_t lba : lbas_) {
        shadow_[lba] = next_version_++;
      }
      cursor = (static_cast<uint32_t>(q) + 1) % spec_.queues;
    }
    {
      Span span(tracer, names.flush, next_op_id_);
      layer.Flush();
    }
    r->inflight_at_poll_sum += layer.InflightOps();
    ++r->queue_polls;
    const std::optional<uint64_t> next = [&] {
      Span span(tracer, names.next_completion, next_op_id_);
      return layer.NextCompletionNs();
    }();
    if (!next.has_value()) {
      if (issued >= spec_.measured_ops) {
        break;  // Nothing in flight and nothing left to admit.
      }
      continue;
    }
    now_ns_ = std::max(now_ns_, *next);
    r->inflight_at_poll_sum += layer.InflightOps();
    ++r->queue_polls;
    ++r->poll_calls;
    const std::vector<iosnap::IoCompletion> completions = [&] {
      Span span(tracer, names.poll, next_op_id_);
      return layer.PollCompletions(now_ns_);
    }();
    for (const iosnap::IoCompletion& c : completions) {
      ++r->attempted;
      ++r->completions_delivered;
      if (!c.status.ok()) {
        NoteFailure(r, 1, c.status);
        shadow_[c.lba] = kUnknown;
        continue;
      }
      r->write_lat_ns.push_back(Saturate(c.result.LatencyNs()));
      r->write_bytes += page_bytes_;
      ++r->user_ops;
    }
  }
  r->queue = layer.stats();
}

PhaseResult Bench::Run(SpanTracer* tracer, iosnap::LatencyAttributor* attributor) {
  const Names names(tracer);
  const iosnap::NandDevice& device = ftl_->device();
  const auto bus_active = [&device] {
    uint64_t sum = 0;
    for (uint32_t b = 0; b < device.NumBuses(); ++b) {
      sum += device.BusActiveNs(b);
    }
    return sum;
  };
  PhaseResult r;
  r.write_lat_ns.reserve(spec_.measured_ops);
  r.read_lat_ns.reserve(spec_.read_frac > 0 || spec_.readback_pages > 0 ? spec_.measured_ops : 0);
  r.start_ns = now_ns_;
  r.ftl_before = ftl_->stats();
  r.nand_before = device.stats();
  r.validity_before = ftl_->validity().stats();
  const uint64_t bus_before = bus_active();
  measuring_ = true;
  ftl_->SetLatencyAttributor(attributor);
  const uint64_t wall_start = WallNs();
  slice_ops_ = std::max<uint64_t>(1, spec_.measured_ops / kSlices);
  slice_wall_start_ = wall_start;
  {
    Span root(tracer, names.harness);
    if (spec_.path == Path::kQueued) {
      RunQueued(&r, tracer, names);
    } else {
      RunClients(&r, tracer, names);
    }
  }
  const uint64_t wall_end = WallNs();
  r.wall_ns = wall_end - wall_start;
  r.slice_wall_ns.push_back(wall_end - slice_wall_start_);
  r.peak_rss_bytes = PeakRssBytes();
  r.harness_bytes = HarnessBytes(r);
  ftl_->SetLatencyAttributor(nullptr);
  measuring_ = false;

  r.end_ns = std::max(now_ns_, device.DrainTimeNs());
  r.ftl_after = ftl_->stats();
  r.nand_after = device.stats();
  r.validity_after = ftl_->validity().stats();
  r.bus_active_ns = bus_active() - bus_before;
  r.buses = device.NumBuses();
  for (Latencies* v : {&r.write_lat_ns, &r.read_lat_ns, &r.activation_write_lat_ns}) {
    std::sort(v->begin(), v->end());
  }
  std::sort(r.snap_create_ns.begin(), r.snap_create_ns.end());
  std::sort(r.activate_ns.begin(), r.activate_ns.end());
  // Read after the counter snapshot: MergedValidCount may lazily recount a range.
  const iosnap::ValidityMap& validity = ftl_->validity();
  for (uint64_t range = 0; range < validity.NumRanges(); ++range) {
    r.merged_valid_pages += validity.MergedValidCount(range);
  }
  r.validity_bytes = validity.MemoryBytes();
  r.primary_entries = ftl_->ViewMapEntryCount(iosnap::kPrimaryView).value();
  r.map_bytes = ftl_->ViewMapMemoryBytes(iosnap::kPrimaryView).value();
  const std::vector<std::pair<uint64_t, uint64_t>> entries =
      ftl_->ViewMapEntries(iosnap::kPrimaryView).value();
  for (const auto& [lba, paddr] : entries) {
    r.map_digest = Mix(Mix(r.map_digest, lba), paddr);
  }
  r.op_stream_digest = op_digest_;
  return r;
}

// --- Correctness gate ---

std::vector<std::string> Bench::Gate() {
  std::vector<std::string> errors = errors_;
  if (mismatches_ > errors_.size()) {
    errors.push_back(std::to_string(mismatches_ - errors_.size()) + " more wrong reads");
  }
  auto entries_or = ftl_->ViewMapEntries(iosnap::kPrimaryView);
  if (!entries_or.ok()) {
    errors.push_back("primary map: " + entries_or.status().ToString());
    return errors;
  }
  const std::vector<std::pair<uint64_t, uint64_t>>& entries = *entries_or;

  // The primary map's LBA set equals the shadow's, and every entry's page header names
  // its LBA (and, with payloads, carries the shadow's stamp).
  const iosnap::NandDevice& device = ftl_->device();
  std::vector<uint8_t> mapped(working_set_, 0);
  uint64_t outside = 0;
  uint64_t bad_pages = 0;
  for (const auto& [lba, paddr] : entries) {
    if (lba >= working_set_) {
      ++outside;
      continue;
    }
    mapped[lba] = 1;
    if (!device.IsProgrammed(paddr)) {
      ++bad_pages;
      continue;
    }
    const iosnap::PageHeader& header = device.PeekHeader(paddr);
    bool ok = header.type == iosnap::RecordType::kData && header.lba == lba;
    if (ok && spec_.stamp_payloads && Known(shadow_[lba]) && shadow_[lba] != 0) {
      const std::span<const uint8_t> stored = device.PeekPageData(paddr);
      ok = StampMatches(std::vector<uint8_t>(stored.begin(), stored.end()), lba, shadow_[lba]);
    }
    bad_pages += ok ? 0 : 1;
  }
  uint64_t set_diff = outside;
  for (uint64_t lba = 0; lba < working_set_; ++lba) {
    if (Known(shadow_[lba]) && (shadow_[lba] != 0) != (mapped[lba] != 0)) {
      ++set_diff;
    }
  }
  if (set_diff > 0) {
    errors.push_back("primary map LBA set differs from the shadow at " +
                     std::to_string(set_diff) + " LBAs");
  }
  if (bad_pages > 0) {
    errors.push_back(std::to_string(bad_pages) +
                     " map entries point at pages that do not hold their LBA");
  }
  if (!ftl_->validity().VerifyCounters()) {
    errors.push_back("ValidityMap::VerifyCounters failed");
  }

  // Crash: drop the FTL without a checkpoint, check the media offline, and recover.
  std::unique_ptr<iosnap::NandDevice> media = ftl_->ReleaseDevice();
  ftl_.reset();
  auto report = iosnap::FsckDevice(media.get());
  if (!report.ok()) {
    errors.push_back("fsck could not run: " + report.status().ToString());
  } else if (!report->Clean()) {
    errors.push_back("fsck after crash is not clean:\n" + iosnap::FormatFsckReport(*report));
  }
  auto reopened = Ftl::Open(spec_.config, std::move(media), now_ns_);
  if (!reopened.ok()) {
    errors.push_back("Ftl::Open after crash failed: " + reopened.status().ToString());
    return errors;
  }
  ftl_ = std::move(*reopened);
  // A page the cleaner copied forward but whose source segment was not yet erased exists
  // twice with one (lba, epoch, seq) identity; recovery may map either copy.
  const iosnap::NandDevice& reopened_device = ftl_->device();
  const auto same_record = [&](uint64_t a, uint64_t b) {
    if (!reopened_device.IsProgrammed(a) || !reopened_device.IsProgrammed(b)) {
      return false;
    }
    const iosnap::PageHeader& x = reopened_device.PeekHeader(a);
    const iosnap::PageHeader& y = reopened_device.PeekHeader(b);
    return x.lba == y.lba && x.epoch == y.epoch && x.seq == y.seq;
  };
  auto recovered = ftl_->ViewMapEntries(iosnap::kPrimaryView);
  uint64_t differing = 0;
  if (!recovered.ok() || recovered->size() != entries.size()) {
    differing = entries.size();
  } else {
    for (size_t i = 0; i < entries.size(); ++i) {
      const auto& [lba, paddr] = entries[i];
      const auto& [new_lba, new_paddr] = (*recovered)[i];
      if (lba != new_lba || (paddr != new_paddr && !same_record(paddr, new_paddr))) {
        ++differing;
      }
    }
  }
  if (differing > 0) {
    errors.push_back("recovered primary map differs from the map before the crash at " +
                     std::to_string(differing) + " entries");
  }
  return errors;
}

}  // namespace e2ebench
