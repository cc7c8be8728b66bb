// Systematic fault-injection campaign: equivalence of the disabled fault layer,
// a crash-consistency sweep over every scheduled device-op boundary, a
// random-fault soak with bad-block retirement, and the one read rule that scalar
// and vectored reads share.
//
// The sweep replays one deterministic snapshot-heavy script against a fresh
// device per crash point K (the device goes offline after its Kth op), then
// recovers and checks the forward map, validity counters, snapshot set, and
// snapshot contents against a brute-force reference model. Single-page writes,
// trims, and snapshot notes are atomic (one program op), so their effects are
// all-or-nothing; only vectored writes may land a torn prefix.

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/fsck.h"
#include "src/core/ftl.h"
#include "tests/test_util.h"

namespace iosnap {
namespace {

constexpr uint64_t kLbaSpace = 36;

struct OpSpec {
  enum Kind { kWrite, kWriteV, kTrim, kSnap, kDelete, kClean } kind;
  uint64_t lba = 0;
  uint64_t count = 0;
  uint64_t version = 0;
  size_t snap_slot = 0;  // 1-based creation order for kDelete.
};

// One snapshot-heavy script: overwrites across snapshots, trims, vectored
// batches (torn-prefix candidates), and forced cleans (mid-copy-forward
// candidates). Small enough that a full sweep over every device op is cheap.
std::vector<OpSpec> BuildScript() {
  std::vector<OpSpec> script;
  const auto writes = [&](uint64_t lo, uint64_t hi, uint64_t version) {
    for (uint64_t lba = lo; lba < hi; ++lba) {
      script.push_back({OpSpec::kWrite, lba, 0, version, 0});
    }
  };
  script.push_back({OpSpec::kWriteV, 0, 12, 1, 0});
  script.push_back({OpSpec::kWriteV, 12, 12, 1, 0});
  script.push_back({OpSpec::kWriteV, 24, 12, 1, 0});
  script.push_back({OpSpec::kSnap});
  writes(0, 24, 2);
  script.push_back({OpSpec::kTrim, 30, 6, 0, 0});
  script.push_back({OpSpec::kSnap});
  script.push_back({OpSpec::kWriteV, 0, 8, 3, 0});
  script.push_back({OpSpec::kWriteV, 8, 8, 3, 0});
  script.push_back({OpSpec::kDelete, 0, 0, 0, 1});
  writes(0, 20, 4);
  script.push_back({OpSpec::kClean});
  script.push_back({OpSpec::kSnap});
  writes(8, 28, 5);
  script.push_back({OpSpec::kClean});
  script.push_back({OpSpec::kTrim, 0, 4, 0, 0});
  script.push_back({OpSpec::kWriteV, 4, 12, 6, 0});
  writes(16, 24, 7);
  script.push_back({OpSpec::kWriteV, 0, 12, 8, 0});
  script.push_back({OpSpec::kWriteV, 12, 12, 8, 0});
  script.push_back({OpSpec::kWriteV, 24, 12, 8, 0});
  script.push_back({OpSpec::kDelete, 0, 0, 0, 2});
  script.push_back({OpSpec::kSnap});
  writes(0, 30, 9);
  script.push_back({OpSpec::kClean});
  writes(10, 30, 10);
  script.push_back({OpSpec::kTrim, 32, 4, 0, 0});
  writes(0, 12, 11);
  return script;
}

// Effects the op in flight at the crash may or may not have made durable.
struct PendingEffect {
  bool stopped = false;                          // Replay hit a failing op.
  std::map<uint64_t, uint64_t> maybe_writes;     // lba -> version (torn WriteV prefix).
};

// Runs `script` against `h`, mirroring every *successful* op into `model`.
// Returns the pending effect of the first failing op (replay stops there).
PendingEffect Replay(FtlHarness* h, const FtlConfig& config,
                     const std::vector<OpSpec>& script, ReferenceModel* model,
                     std::vector<uint32_t>* snap_ids) {
  PendingEffect pending;
  for (const OpSpec& op : script) {
    switch (op.kind) {
      case OpSpec::kWrite: {
        if (!h->Write(op.lba, op.version).ok()) {
          pending.stopped = true;  // Atomic: not durable.
          return pending;
        }
        model->Write(op.lba, op.version);
        break;
      }
      case OpSpec::kWriteV: {
        std::vector<std::vector<uint8_t>> bufs;
        std::vector<WriteRequest> reqs;
        bufs.reserve(op.count);
        for (uint64_t i = 0; i < op.count; ++i) {
          bufs.push_back(
              PageData(config.nand.page_size_bytes, op.lba + i, op.version));
          reqs.push_back({op.lba + i, bufs.back()});
        }
        auto result = h->ftl().WriteV(reqs, h->now());
        if (!result.ok()) {
          pending.stopped = true;
          // An unknown prefix of the batch is durable.
          for (uint64_t i = 0; i < op.count; ++i) {
            pending.maybe_writes[op.lba + i] = op.version;
          }
          return pending;
        }
        for (const IoResult& io : *result) {
          h->AdvanceTo(io.CompletionNs());
        }
        for (uint64_t i = 0; i < op.count; ++i) {
          model->Write(op.lba + i, op.version);
        }
        break;
      }
      case OpSpec::kTrim: {
        if (!h->Trim(op.lba, op.count).ok()) {
          pending.stopped = true;  // One trim note: atomic.
          return pending;
        }
        model->Trim(op.lba, op.count);
        break;
      }
      case OpSpec::kSnap: {
        auto snap = h->Snapshot("sweep-" + std::to_string(snap_ids->size() + 1));
        if (!snap.ok()) {
          pending.stopped = true;  // One create note: atomic.
          return pending;
        }
        snap_ids->push_back(*snap);
        model->Snapshot(*snap);
        break;
      }
      case OpSpec::kDelete: {
        const uint32_t snap_id = (*snap_ids)[op.snap_slot - 1];
        if (!h->Delete(snap_id).ok()) {
          pending.stopped = true;  // One delete note: atomic.
          return pending;
        }
        model->DeleteSnapshot(snap_id);
        break;
      }
      case OpSpec::kClean: {
        auto finish = h->ftl().ForceCleanSegment(h->now());
        if (!finish.ok()) {
          pending.stopped = true;  // Copy-forward preserves logical state.
          return pending;
        }
        h->AdvanceTo(*finish);
        break;
      }
    }
  }
  return pending;
}

// Checks `lba` against the model, accepting the pending torn-prefix version too.
::testing::AssertionResult CheckLbaWithPending(FtlHarness* h, uint64_t lba,
                                               const ReferenceModel& model,
                                               const PendingEffect& pending) {
  const uint64_t before = model.Current(lba);
  auto check = h->CheckLba(kPrimaryView, lba, before);
  if (check) {
    return check;
  }
  auto it = pending.maybe_writes.find(lba);
  if (it != pending.maybe_writes.end()) {
    auto alt = h->CheckLba(kPrimaryView, lba, it->second);
    if (alt) {
      return alt;
    }
  }
  return ::testing::AssertionFailure()
         << "lba " << lba << " matches neither pre-crash version " << before
         << " nor a pending in-flight write";
}

TEST(FaultCampaign, NoFaultEquivalenceWhenDisabled) {
  // A fault config with every rate at zero must be bit-identical to the default
  // build, regardless of seed: no RNG draw may happen on the hot path.
  FtlConfig plain = TinyConfig();
  FtlConfig armed = TinyConfig();
  FaultPlan zero;
  zero.seed = 0xDEADBEEFCAFEF00DULL;
  zero.read_disturb_ppm_per_k_reads = 0;  // Wear knobs at zero are also covered
  zero.retention_ppm_per_sec = 0;         // by the bit-identity guarantee.
  zero.ApplyTo(&armed);

  FtlHarness a(plain);
  FtlHarness b(armed);
  ReferenceModel model_a;
  ReferenceModel model_b;
  std::vector<uint32_t> snaps_a;
  std::vector<uint32_t> snaps_b;
  const std::vector<OpSpec> script = BuildScript();
  ASSERT_FALSE(Replay(&a, plain, script, &model_a, &snaps_a).stopped);
  ASSERT_FALSE(Replay(&b, armed, script, &model_b, &snaps_b).stopped);

  EXPECT_EQ(a.now(), b.now());
  EXPECT_EQ(a.ftl().device().fault().ops(), b.ftl().device().fault().ops());
  const FtlStats& fa = a.ftl().stats();
  const FtlStats& fb = b.ftl().stats();
  EXPECT_EQ(0, std::memcmp(&fa, &fb, sizeof(FtlStats)));
  const NandStats& na = a.ftl().device().stats();
  const NandStats& nb = b.ftl().device().stats();
  EXPECT_EQ(0, std::memcmp(&na, &nb, sizeof(NandStats)));
  EXPECT_EQ(na.program_failures + na.erase_failures + na.read_failures +
                na.crc_errors + na.pages_corrupted,
            0u);

  auto entries_a = a.ftl().ViewMapEntries(kPrimaryView);
  auto entries_b = b.ftl().ViewMapEntries(kPrimaryView);
  ASSERT_OK(entries_a.status());
  ASSERT_OK(entries_b.status());
  EXPECT_EQ(*entries_a, *entries_b);
  EXPECT_EQ(a.ftl().snapshot_tree().LiveSnapshotIds(),
            b.ftl().snapshot_tree().LiveSnapshotIds());

  // Content identical as well (same snapshot hashes, by construction of PageData).
  for (uint64_t lba = 0; lba < kLbaSpace; ++lba) {
    EXPECT_TRUE(a.CheckLba(kPrimaryView, lba, model_a.Current(lba)));
    EXPECT_TRUE(b.CheckLba(kPrimaryView, lba, model_b.Current(lba)));
  }
}

TEST(FaultCampaign, CrashConsistencySweep) {
  const std::vector<OpSpec> script = BuildScript();

  // Baseline: run to completion on a healthy device to learn the op horizon.
  FtlConfig base_config = TinyConfig();
  uint64_t total_ops = 0;
  {
    FtlHarness h(base_config);
    ReferenceModel model;
    std::vector<uint32_t> snaps;
    ASSERT_FALSE(Replay(&h, base_config, script, &model, &snaps).stopped);
    total_ops = h.ftl().device().fault().ops();
  }
  ASSERT_GT(total_ops, 200u) << "script too small for a meaningful sweep";

  const uint64_t stride = std::max<uint64_t>(1, total_ops / 400);
  uint64_t points = 0;
  for (uint64_t k = 1; k < total_ops; k += stride) {
    ++points;
    SCOPED_TRACE("crash_after_op=" + std::to_string(k));

    FtlConfig config = TinyConfig();
    FaultPlan plan;
    plan.crash_after_op = k;
    plan.ApplyTo(&config);
    FtlHarness h(config);
    ReferenceModel model;
    std::vector<uint32_t> snaps;
    const PendingEffect pending = Replay(&h, config, script, &model, &snaps);
    if (pending.stopped) {
      ASSERT_TRUE(h.ftl().device().fault().crashed());
    }
    // Else the crash landed in the tail (e.g. inside a swallowed paced-GC
    // step): the full script is durable and the model is complete.

    // Power-cycle: the device comes back, the injection schedule does not.
    ASSERT_OK(h.CrashAndReopen(/*clear_faults=*/true));

    // Invariant: validity utilization counters reconstruct exactly.
    ASSERT_TRUE(h.ftl().validity().VerifyCounters());

    // Invariant: primary contents are the pre-crash state plus possibly the
    // in-flight op's torn prefix.
    for (uint64_t lba = 0; lba < kLbaSpace; ++lba) {
      ASSERT_TRUE(CheckLbaWithPending(&h, lba, model, pending));
    }

    // Invariant: exactly the durably-created, not-durably-deleted snapshots
    // survive, with their captured contents intact.
    std::vector<uint32_t> live = h.ftl().snapshot_tree().LiveSnapshotIds();
    std::set<uint32_t> live_set(live.begin(), live.end());
    std::set<uint32_t> expected;
    for (uint32_t id : snaps) {
      if (model.HasSnapshot(id)) {
        expected.insert(id);
      }
    }
    EXPECT_EQ(live_set, expected);
    for (uint32_t id : live) {
      auto view = h.Activate(id);
      ASSERT_OK(view.status());
      ASSERT_TRUE(h.CheckView(*view, model.snapshot_state(id), kLbaSpace));
      ASSERT_OK(h.ftl().Deactivate(*view, h.now()));
    }

    // The recovered device is usable: a fresh write sticks.
    ASSERT_OK(h.Write(0, 1000 + k));
    ASSERT_TRUE(h.CheckLba(kPrimaryView, 0, 1000 + k));
  }
  EXPECT_GE(points, 200u);
}

// The same crash sweep with XOR parity armed: every crash point now also lands
// around parity emissions and segment closes (where EmitParityIfDue programs one or
// two extra pages), and recovery must treat a torn stripe — members durable, parity
// not — as ordinary unprotected data, never as corruption. Each recovered image must
// also pass the offline checker with the stripe width inferred from the media.
TEST(FaultCampaign, CrashConsistencySweepWithParity) {
  const std::vector<OpSpec> script = BuildScript();

  FtlConfig base_config = TinyConfig();
  base_config.parity_stripe = 3;
  uint64_t total_ops = 0;
  {
    FtlHarness h(base_config);
    ReferenceModel model;
    std::vector<uint32_t> snaps;
    ASSERT_FALSE(Replay(&h, base_config, script, &model, &snaps).stopped);
    total_ops = h.ftl().device().fault().ops();
    ASSERT_GT(h.ftl().log_manager().stats().parity_pages_written, 0u);
  }

  const uint64_t stride = std::max<uint64_t>(1, total_ops / 150);
  for (uint64_t k = 1; k < total_ops; k += stride) {
    SCOPED_TRACE("crash_after_op=" + std::to_string(k));
    FtlConfig config = TinyConfig();
    config.parity_stripe = 3;
    FaultPlan plan;
    plan.crash_after_op = k;
    plan.ApplyTo(&config);
    FtlHarness h(config);
    ReferenceModel model;
    std::vector<uint32_t> snaps;
    const PendingEffect pending = Replay(&h, config, script, &model, &snaps);
    if (pending.stopped) {
      ASSERT_TRUE(h.ftl().device().fault().crashed());
    }
    ASSERT_OK(h.CrashAndReopen(/*clear_faults=*/true));
    ASSERT_TRUE(h.ftl().validity().VerifyCounters());
    for (uint64_t lba = 0; lba < kLbaSpace; ++lba) {
      ASSERT_TRUE(CheckLbaWithPending(&h, lba, model, pending));
    }
    std::vector<uint32_t> live = h.ftl().snapshot_tree().LiveSnapshotIds();
    std::set<uint32_t> live_set(live.begin(), live.end());
    std::set<uint32_t> expected;
    for (uint32_t id : snaps) {
      if (model.HasSnapshot(id)) {
        expected.insert(id);
      }
    }
    EXPECT_EQ(live_set, expected);
    // No crash point may leave a half-trusted stripe: the media always checks clean.
    ASSERT_OK_AND_ASSIGN(FsckReport report,
                         FsckDevice(&h.ftl().MutableDeviceForTesting()));
    EXPECT_TRUE(report.Clean()) << FormatFsckReport(report);
    // The recovered log keeps striping where it left off: fresh writes still land
    // behind parity and read back.
    ASSERT_OK(h.Write(0, 1000 + k));
    ASSERT_TRUE(h.CheckLba(kPrimaryView, 0, 1000 + k));
  }
}

TEST(FaultCampaign, RandomFaultSoak) {
  FtlConfig config = SmallConfig();
  FaultPlan plan;
  plan.seed = 7;
  plan.program_fail_ppm = 400;
  plan.erase_fail_ppm = 800;
  plan.read_fail_ppm = 2500;
  plan.bad_block_schedule = {{5, 1}};  // Segment 5 dies on its first erase.
  plan.ApplyTo(&config);

  FtlHarness h(config);
  ReferenceModel model;
  std::map<uint64_t, uint64_t> version;
  std::vector<uint32_t> live_snaps;
  constexpr uint64_t kSoakLbaSpace = 400;
  for (uint64_t i = 0; i < 6000; ++i) {
    const uint64_t lba = (i * 37) % kSoakLbaSpace;
    const uint64_t v = ++version[lba];
    if (h.Write(lba, v).ok()) {
      model.Write(lba, v);
    } else {
      --version[lba];  // Failed single write is not durable.
    }
    if (i % 997 == 499) {
      const uint64_t t = (i * 13) % (kSoakLbaSpace - 5);
      if (h.Trim(t, 5).ok()) {
        model.Trim(t, 5);
      }
    }
    if (i % 500 == 250) {
      while (live_snaps.size() >= 3) {
        if (!h.Delete(live_snaps.front()).ok()) {
          break;
        }
        model.DeleteSnapshot(live_snaps.front());
        live_snaps.erase(live_snaps.begin());
      }
      auto snap = h.Snapshot("soak-" + std::to_string(i));
      if (snap.ok()) {
        live_snaps.push_back(*snap);
        model.Snapshot(*snap);
      }
    }
  }

  const NandStats& n = h.ftl().device().stats();
  const LogStats& l = h.ftl().log_manager().stats();
  EXPECT_GT(n.read_retries, 0u);
  EXPECT_GT(n.program_failures + n.erase_failures + n.read_failures, 0u);
  EXPECT_GE(l.segments_retired, 1u);
  EXPECT_TRUE(h.ftl().device().IsBadSegment(5));
  EXPECT_TRUE(h.ftl().validity().VerifyCounters());

  // Everything the model says succeeded must read back (transient read faults
  // are absorbed by bounded retry).
  for (const auto& [lba, v] : model.current_state()) {
    ASSERT_TRUE(h.CheckLba(kPrimaryView, lba, v));
  }

  // Survives a crash on the damaged media.
  ASSERT_OK(h.CrashAndReopen(/*clear_faults=*/true));
  ASSERT_TRUE(h.ftl().validity().VerifyCounters());
  for (const auto& [lba, v] : model.current_state()) {
    ASSERT_TRUE(h.CheckLba(kPrimaryView, lba, v));
  }
  std::vector<uint32_t> live = h.ftl().snapshot_tree().LiveSnapshotIds();
  std::set<uint32_t> live_set(live.begin(), live.end());
  std::set<uint32_t> expected(live_snaps.begin(), live_snaps.end());
  EXPECT_EQ(live_set, expected);
}

// A live page corrupted at rest never reaches the copyback scrub: the victim's header
// scan fails its CRC (counting a crc error) and leaves it out of the victim's entries.
// The cleaner salvages such a page before the erase; with parity off that is a drop of
// every reference to it. Corrupt one live page in place, force the clean, and check the
// page is dropped and accounted as lost while every other live page relocates via
// copyback.
TEST(FaultCampaign, CopybackScrubDropsCorruptSourceDuringClean) {
  FtlConfig config = TinyConfig();
  config.gc_copyback = true;  // copyback_scrub defaults on.
  FtlHarness h(config);

  // Version 1 everywhere, then version 2 everywhere except lba 3: the v1 segment(s)
  // end up nearly empty of live data, so greedy victim selection reaches them first,
  // and lba 3's v1 page is the lone live (and corrupt) survivor.
  for (uint64_t lba = 0; lba < kLbaSpace; ++lba) {
    ASSERT_OK(h.Write(lba, 1));
  }
  for (uint64_t lba = 0; lba < kLbaSpace; ++lba) {
    if (lba != 3) {
      ASSERT_OK(h.Write(lba, 2));
    }
  }
  ASSERT_OK_AND_ASSIGN(auto entries, h.ftl().ViewMapEntries(kPrimaryView));
  uint64_t victim_paddr = ~uint64_t{0};
  for (const auto& [lba, paddr] : entries) {
    if (lba == 3) {
      victim_paddr = paddr;
    }
  }
  ASSERT_NE(victim_paddr, ~uint64_t{0});
  h.ftl().MutableDeviceForTesting().CorruptPageForTesting(victim_paddr);

  for (int round = 0; round < 8 && h.ftl().device().stats().crc_errors == 0; ++round) {
    auto finish = h.ftl().ForceCleanSegment(h.now());
    if (!finish.ok()) {
      break;  // No eligible victim left; the EXPECTs below report what was missed.
    }
    h.AdvanceTo(*finish);
  }
  const NandStats& n = h.ftl().device().stats();
  EXPECT_GE(n.crc_errors, 1u);  // The victim scan met the corrupt page.
  // Keep cleaning until a victim with healthy live pages comes up: those relocate
  // via copyback (the corrupt page's victim may have held no other live data).
  for (int round = 0; round < 8 && n.copyback_pages == 0; ++round) {
    auto finish = h.ftl().ForceCleanSegment(h.now());
    if (!finish.ok()) {
      break;
    }
    h.AdvanceTo(*finish);
  }
  EXPECT_GT(n.copyback_pages, 0u);
  // The corrupt page was dropped, not relocated, and counted as lost: lba 3 reads
  // zeroes.
  EXPECT_EQ(h.ftl().stats().gc_pages_lost, 1u);
  EXPECT_EQ(h.ftl().stats().pages_lost_forever, 1u);
  EXPECT_TRUE(h.CheckLba(kPrimaryView, 3, 0));
  // Everything else survived the copyback clean intact.
  for (uint64_t lba = 0; lba < kLbaSpace; ++lba) {
    if (lba != 3) {
      ASSERT_TRUE(h.CheckLba(kPrimaryView, lba, 2));
    }
  }
  ASSERT_TRUE(h.ftl().validity().VerifyCounters());
  ASSERT_OK(h.Write(3, 5));
  ASSERT_TRUE(h.CheckLba(kPrimaryView, 3, 5));
}

// With parity off, a live page that fails its CRC at rest has no copy to rebuild from,
// so cleaning its segment must drop every reference to it before the erase. A forward
// map entry left behind would name an erased page, and once the segment is reused,
// another LBA's data, which a read would then return with an OK status. Both GC modes
// take the same salvage step.
TEST(FaultCampaign, CleanerDropsScanExcludedCorruptPageWithParityOff) {
  for (const bool copyback : {false, true}) {
    SCOPED_TRACE(copyback ? "copyback GC" : "classic GC");
    FtlConfig config = TinyConfig();
    config.gc_copyback = copyback;
    ASSERT_EQ(config.parity_stripe, 0u);
    FtlHarness h(config);
    constexpr uint64_t kLbas = 64;
    for (uint64_t lba = 0; lba < kLbas; ++lba) {
      ASSERT_OK(h.Write(lba, 1));
    }
    for (uint64_t lba = 0; lba < kLbas; ++lba) {
      if (lba != 3) {
        ASSERT_OK(h.Write(lba, 2));
      }
    }
    ASSERT_OK_AND_ASSIGN(auto entries, h.ftl().ViewMapEntries(kPrimaryView));
    const auto it = std::find_if(entries.begin(), entries.end(),
                                 [](const auto& entry) { return entry.first == 3; });
    ASSERT_NE(it, entries.end());
    const uint64_t corrupt_paddr = it->second;
    h.ftl().MutableDeviceForTesting().CorruptPageForTesting(corrupt_paddr);

    // Clean until the corrupt page's segment has been erased.
    const NandDevice& device = h.ftl().device();
    const uint64_t segment = device.SegmentOf(corrupt_paddr);
    const uint64_t erases = device.EraseCount(segment);
    for (int round = 0; round < 16 && device.EraseCount(segment) == erases; ++round) {
      ASSERT_OK_AND_ASSIGN(const uint64_t finish, h.ftl().ForceCleanSegment(h.now()));
      h.AdvanceTo(finish);
    }
    ASSERT_GT(device.EraseCount(segment), erases);

    // Rewrite the other LBAs five more times, so the erased segment is reused.
    for (uint64_t version = 3; version < 8; ++version) {
      for (uint64_t lba = 0; lba < kLbas; ++lba) {
        if (lba != 3) {
          ASSERT_OK(h.Write(lba, version));
        }
      }
    }

    EXPECT_TRUE(h.CheckLba(kPrimaryView, 3, 0));
    for (uint64_t lba = 0; lba < kLbas; ++lba) {
      if (lba != 3) {
        ASSERT_TRUE(h.CheckLba(kPrimaryView, lba, 7));
      }
    }
    EXPECT_EQ(h.ftl().stats().gc_pages_lost, 1u);
    EXPECT_EQ(h.ftl().stats().pages_lost_forever, 1u);
    EXPECT_TRUE(h.ftl().validity().VerifyCounters());
  }
}

// A propagating error mid-clean (here: the device goes offline, so every copyback
// fails kUnavailable until retries are exhausted) must not lose the data entry the
// copyback loop was processing: a channel queue pops an entry only after its
// relocation succeeds, so the interrupted entry is retried when cleaning resumes.
// A no-fault baseline run finds an op count inside the forced clean; the replay
// schedules the crash gate there, disarms it, finishes the clean, and checks that
// every live page still reads back.
TEST(FaultCampaign, CopybackCleanRetriesEntriesAfterMidCleanError) {
  FtlConfig config = TinyConfig();
  config.gc_copyback = true;

  auto setup = [](FtlHarness& h) {
    for (uint64_t lba = 0; lba < kLbaSpace; ++lba) {
      ASSERT_OK(h.Write(lba, 1));
    }
    // Overwrite every other lba so victims hold a mix of live and dead pages.
    for (uint64_t lba = 0; lba < kLbaSpace; lba += 2) {
      ASSERT_OK(h.Write(lba, 2));
    }
  };

  uint64_t ops_before = 0;
  uint64_t ops_after = 0;
  {
    FtlHarness h(config);
    setup(h);
    ops_before = h.ftl().device().fault().ops();
    ASSERT_OK_AND_ASSIGN(uint64_t finish, h.ftl().ForceCleanSegment(h.now()));
    h.AdvanceTo(finish);
    ops_after = h.ftl().device().fault().ops();
  }
  ASSERT_GT(ops_after, ops_before + 2);  // The clean performed real device work.

  config.nand.fault.crash_after_op = ops_before + (ops_after - ops_before) / 2;
  FtlHarness h(config);
  setup(h);
  auto interrupted = h.ftl().ForceCleanSegment(h.now());
  ASSERT_FALSE(interrupted.ok());
  EXPECT_EQ(interrupted.status().code(), StatusCode::kUnavailable);

  // Power restored: the same victim resumes and every entry — including the one the
  // error interrupted — must relocate.
  h.ftl().MutableDeviceForTesting().ClearFaults();
  ASSERT_OK_AND_ASSIGN(uint64_t finish, h.ftl().ForceCleanSegment(h.now()));
  h.AdvanceTo(finish);
  EXPECT_GT(h.ftl().stats().gc_segments_cleaned, 0u);
  EXPECT_EQ(h.ftl().stats().gc_pages_lost, 0u);
  for (uint64_t lba = 0; lba < kLbaSpace; ++lba) {
    ASSERT_TRUE(h.CheckLba(kPrimaryView, lba, lba % 2 == 0 ? 2 : 1));
  }
  ASSERT_TRUE(h.ftl().validity().VerifyCounters());
}

// The RandomFaultSoak invariants must hold unchanged when GC relocates via copyback
// on a multi-bus device: program failures reroute copyback appends, transient read
// failures retry the internal read leg, and retired segments stay off the free list.
TEST(FaultCampaign, CopybackRandomFaultSoak) {
  FtlConfig config = SmallConfig();
  config.gc_copyback = true;
  config.nand.buses = 2;
  FaultPlan plan;
  plan.seed = 7;
  plan.program_fail_ppm = 400;
  plan.erase_fail_ppm = 800;
  plan.read_fail_ppm = 2500;
  plan.bad_block_schedule = {{5, 1}};
  plan.ApplyTo(&config);

  FtlHarness h(config);
  ReferenceModel model;
  std::map<uint64_t, uint64_t> version;
  constexpr uint64_t kSoakLbaSpace = 400;
  // Random (not striding) overwrites: victims then hold a mix of live and dead
  // pages, so every clean exercises copyback relocation rather than pure drops.
  Rng rng(123);
  for (uint64_t i = 0; i < 6000; ++i) {
    const uint64_t lba = rng.NextBelow(kSoakLbaSpace);
    const uint64_t v = ++version[lba];
    if (h.Write(lba, v).ok()) {
      model.Write(lba, v);
    } else {
      --version[lba];
    }
    if (i % 997 == 499) {
      const uint64_t t = (i * 13) % (kSoakLbaSpace - 5);
      if (h.Trim(t, 5).ok()) {
        model.Trim(t, 5);
      }
    }
  }

  const NandStats& n = h.ftl().device().stats();
  EXPECT_GT(n.copyback_pages, 0u);
  EXPECT_GT(n.program_failures + n.erase_failures + n.read_failures, 0u);
  EXPECT_TRUE(h.ftl().device().IsBadSegment(5));
  EXPECT_TRUE(h.ftl().validity().VerifyCounters());
  for (const auto& [lba, v] : model.current_state()) {
    ASSERT_TRUE(h.CheckLba(kPrimaryView, lba, v));
  }

  ASSERT_OK(h.CrashAndReopen(/*clear_faults=*/true));
  ASSERT_TRUE(h.ftl().validity().VerifyCounters());
  for (const auto& [lba, v] : model.current_state()) {
    ASSERT_TRUE(h.CheckLba(kPrimaryView, lba, v));
  }
}

// Crash-mid-patrol regression: the device goes offline while the patrol scrubber
// is rewriting pages (an aggressive refresh threshold turns every scanned live
// page into a rewrite). A patrol rewrite is a GC-style copy-forward — the old copy
// stays valid until the new program lands — so a crash at *any* point inside the
// sweep must recover to exactly the pre-patrol logical state, and the recovered
// media must pass the offline checker.
TEST(FaultCampaign, CrashMidPatrolRecoversConsistently) {
  constexpr uint64_t kPatrolLbas = 180;
  FtlConfig base = SmallConfig();
  base.patrol_enabled = true;
  base.patrol_pages_per_step = 64;
  base.patrol_sleep_ms = 0;
  base.patrol_refresh_reads = 1;  // Everything scanned is "due": maximal rewrites.

  // Learn the op horizon: how many device ops the write phase takes, and how many
  // more a patrol-heavy pump phase adds.
  uint64_t ops_before_patrol = 0;
  uint64_t ops_after_patrol = 0;
  {
    FtlHarness h(base);
    for (uint64_t lba = 0; lba < kPatrolLbas; ++lba) {
      ASSERT_OK(h.Write(lba, 1));
    }
    // One read per LBA arms the read-count trigger.
    for (uint64_t lba = 0; lba < kPatrolLbas; ++lba) {
      ASSERT_TRUE(h.CheckLba(kPrimaryView, lba, 1));
    }
    ops_before_patrol = h.ftl().device().fault().ops();
    for (int i = 0; i < 12; ++i) {
      h.AdvanceTo(h.now() + 1000000);
      h.ftl().PumpBackground(h.now());
    }
    ops_after_patrol = h.ftl().device().fault().ops();
    ASSERT_GT(h.ftl().stats().patrol_pages_rewritten, 0u);
    ASSERT_GT(ops_after_patrol, ops_before_patrol);
  }

  // Sweep crash points across the patrol phase (strided to keep runtime sane).
  const uint64_t span = ops_after_patrol - ops_before_patrol;
  const uint64_t stride = std::max<uint64_t>(1, span / 24);
  for (uint64_t k = ops_before_patrol + 1; k <= ops_after_patrol; k += stride) {
    FtlConfig config = base;
    FaultPlan plan;
    plan.crash_after_op = k;
    plan.ApplyTo(&config);
    FtlHarness h(config);
    for (uint64_t lba = 0; lba < kPatrolLbas; ++lba) {
      ASSERT_OK(h.Write(lba, 1));
    }
    for (uint64_t lba = 0; lba < kPatrolLbas; ++lba) {
      ASSERT_TRUE(h.CheckLba(kPrimaryView, lba, 1));
    }
    // Patrol runs until the injected crash takes the device offline; Step errors
    // are swallowed by PumpBackground (logged, not fatal).
    for (int i = 0; i < 12; ++i) {
      h.AdvanceTo(h.now() + 1000000);
      h.ftl().PumpBackground(h.now());
    }
    ASSERT_OK(h.CrashAndReopen(/*clear_faults=*/true)) << "crash at op " << k;
    ASSERT_TRUE(h.ftl().validity().VerifyCounters()) << "crash at op " << k;
    for (uint64_t lba = 0; lba < kPatrolLbas; ++lba) {
      ASSERT_TRUE(h.CheckLba(kPrimaryView, lba, 1)) << "crash at op " << k;
    }
    ASSERT_OK_AND_ASSIGN(FsckReport report,
                         FsckDevice(&h.ftl().MutableDeviceForTesting()));
    EXPECT_TRUE(report.Clean())
        << "crash at op " << k << "\n" << FormatFsckReport(report);
  }
}

// Wear-model determinism at FTL level: two identical runs with the same seed and
// live disturb/retention rates end in bit-identical device and FTL state — the
// property the media-reliability campaign (and any bug repro) depends on.
TEST(FaultCampaign, WearCampaignIsReproducible) {
  auto run = []() {
    FtlConfig config = SmallConfig();
    FaultPlan plan;
    plan.seed = 99;
    plan.read_disturb_ppm_per_k_reads = 1000000;
    plan.retention_ppm_per_sec = 2000;
    plan.ApplyTo(&config);
    auto h = std::make_unique<FtlHarness>(config);
    constexpr uint64_t kWearLbas = 160;
    for (uint64_t lba = 0; lba < kWearLbas; ++lba) {
      IOSNAP_CHECK(h->Write(lba, 1).ok());
    }
    uint64_t failed_reads = 0;
    for (int round = 0; round < 20; ++round) {
      for (uint64_t lba = 0; lba < kWearLbas; ++lba) {
        std::vector<uint8_t> data;
        auto result = h->ftl().ReadView(kPrimaryView, lba, h->now(), &data);
        if (result.ok()) {
          h->AdvanceTo(result->CompletionNs());
        } else {
          IOSNAP_CHECK(result.status().code() == StatusCode::kDataLoss);
          ++failed_reads;
        }
      }
    }
    return std::make_tuple(std::move(h), failed_reads);
  };
  auto [a, fails_a] = run();
  auto [b, fails_b] = run();
  EXPECT_EQ(fails_a, fails_b);
  EXPECT_GT(fails_a, 0u);  // The campaign actually bit something.
  EXPECT_EQ(a->now(), b->now());
  const NandStats& na = a->ftl().device().stats();
  const NandStats& nb = b->ftl().device().stats();
  EXPECT_EQ(0, std::memcmp(&na, &nb, sizeof(NandStats)));
  const FtlStats& fa = a->ftl().stats();
  const FtlStats& fb = b->ftl().stats();
  EXPECT_EQ(0, std::memcmp(&fa, &fb, sizeof(FtlStats)));
  auto entries_a = a->ftl().ViewMapEntries(kPrimaryView);
  auto entries_b = b->ftl().ViewMapEntries(kPrimaryView);
  ASSERT_OK(entries_a.status());
  ASSERT_OK(entries_b.status());
  EXPECT_EQ(*entries_a, *entries_b);
}

// The read rule, whichever entry point reads: each mapped page is read once with
// ReadPageWithRetry (at most read_retry_limit attempts), and a CRC failure is
// reported, not re-read. A corrupt page costs Read and a one-element ReadV the same
// single sense.
TEST(ReadRule, CorruptPageIsReadOnceByReadAndReadV) {
  FtlHarness scalar(SmallConfig());
  FtlHarness vectored(SmallConfig());
  for (FtlHarness* h : {&scalar, &vectored}) {
    for (uint64_t lba = 0; lba < 16; ++lba) {
      ASSERT_OK(h->Write(lba, 1));
    }
    auto entries = h->ftl().ViewMapEntries(kPrimaryView);
    ASSERT_OK(entries.status());
    h->ftl().MutableDeviceForTesting().CorruptPageForTesting((*entries)[5].second);
  }
  ASSERT_EQ(scalar.now(), vectored.now());
  const uint64_t t = scalar.now();
  const uint64_t crc_before = scalar.ftl().device().stats().crc_errors;
  const uint64_t drain_before = scalar.ftl().device().DrainTimeNs();
  ASSERT_EQ(vectored.ftl().device().stats().crc_errors, crc_before);
  ASSERT_EQ(vectored.ftl().device().DrainTimeNs(), drain_before);

  const uint64_t lba = 5;
  EXPECT_EQ(scalar.ftl().Read(lba, t, nullptr).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(vectored.ftl().ReadV({&lba, 1}, t, nullptr).status().code(),
            StatusCode::kDataLoss);

  EXPECT_EQ(scalar.ftl().device().stats().crc_errors, crc_before + 1);
  EXPECT_EQ(vectored.ftl().device().stats().crc_errors, crc_before + 1);
  EXPECT_GT(scalar.ftl().device().DrainTimeNs(), drain_before);
  EXPECT_EQ(vectored.ftl().device().DrainTimeNs() - drain_before,
            scalar.ftl().device().DrainTimeNs() - drain_before);
}

// Under a 50% transient read-failure rate, Read and a one-element ReadV draw the same
// fault dice in the same order, so every seed gives both the same status and the same
// device counters, and neither makes more than read_retry_limit attempts.
TEST(ReadRule, TransientFailuresRetryIdenticallyUpToTheLimit) {
  constexpr uint64_t kLba = 3;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    FtlConfig config = TinyConfig();
    config.read_retry_limit = 3;
    FaultPlan plan;
    plan.seed = seed;
    plan.read_fail_ppm = 500000;
    plan.ApplyTo(&config);
    FtlHarness scalar(config);
    FtlHarness vectored(config);
    ASSERT_OK(scalar.Write(kLba, 1));
    ASSERT_OK(vectored.Write(kLba, 1));
    const uint64_t t = scalar.now();
    const StatusCode read = scalar.ftl().Read(kLba, t, nullptr).status().code();
    const StatusCode readv =
        vectored.ftl().ReadV({&kLba, 1}, t, nullptr).status().code();

    const NandStats& a = scalar.ftl().device().stats();
    const NandStats& b = vectored.ftl().device().stats();
    ASSERT_EQ(read, readv) << "seed " << seed;
    ASSERT_EQ(a.read_failures, b.read_failures) << "seed " << seed;
    ASSERT_EQ(a.read_retries, b.read_retries) << "seed " << seed;
    ASSERT_EQ(a.pages_read, b.pages_read) << "seed " << seed;
    // One page, so every attempt either failed or read it.
    ASSERT_LE(a.read_failures + a.pages_read, config.read_retry_limit) << "seed " << seed;
    ASSERT_LE(b.read_failures + b.pages_read, config.read_retry_limit) << "seed " << seed;
  }
}

}  // namespace
}  // namespace iosnap
