// Vectored I/O equivalence: driving the FTL through WriteV/ReadV/TrimV in batches of N
// must be bit-identical to issuing the same N ops one-by-one at the same shared issue
// time — forward map, per-epoch validity, cumulative stats, device drain time, and
// snapshot contents all match, across GC pressure, snapshot churn, and two reopens
// through recovery.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/ftl.h"
#include "tests/test_util.h"

namespace iosnap {
namespace {

// One scripted step. Data ops stream through the batching machinery; the others are
// group boundaries executed identically in both modes.
struct Step {
  enum Kind { kWrite, kRead, kTrim, kSnapshot, kDeleteSnapshot, kReopen };
  Kind kind = kWrite;
  uint64_t lba = 0;
  uint64_t count = 1;
  uint64_t version = 0;  // Payload seed for writes.
};

// Deterministic script exercising overwrites (validity CoW), trims, enough churn to
// engage the cleaner, snapshot create/delete, and two reopens.
std::vector<Step> MakeScript(uint64_t lba_space) {
  std::vector<Step> script;
  Rng rng(2014);
  const uint64_t hot_space = lba_space / 2;  // Force overwrites.
  uint64_t version = 0;
  auto data_ops = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const uint64_t roll = rng.Next() % 10;
      Step step;
      if (roll < 6) {
        step.kind = Step::kWrite;
        step.lba = rng.Next() % hot_space;
        step.version = ++version;
      } else if (roll < 9) {
        step.kind = Step::kRead;
        step.lba = rng.Next() % hot_space;
      } else {
        step.kind = Step::kTrim;
        step.lba = rng.Next() % hot_space;
        step.count = 1 + rng.Next() % std::min<uint64_t>(8, hot_space - step.lba);
      }
      script.push_back(step);
    }
  };
  data_ops(400);
  script.push_back({Step::kSnapshot});
  data_ops(300);
  script.push_back({Step::kSnapshot});
  data_ops(200);
  script.push_back({Step::kReopen});
  data_ops(200);
  script.push_back({Step::kDeleteSnapshot});  // Deletes the oldest live snapshot.
  data_ops(150);
  script.push_back({Step::kReopen});
  data_ops(250);
  return script;
}

struct Fingerprint {
  FtlStats stats;
  uint64_t now = 0;
  uint64_t drain_ns = 0;
  std::vector<std::pair<uint64_t, uint64_t>> primary_map;
  std::map<uint32_t, std::vector<uint64_t>> validity;  // epoch -> valid paddrs.
  // Per live snapshot: full-volume content hash read through an activated view.
  std::vector<std::pair<uint32_t, uint64_t>> snapshot_hashes;
};

uint64_t HashBytes(uint64_t h, const std::vector<uint8_t>& bytes) {
  for (uint8_t b : bytes) {
    h = (h ^ b) * 0x100000001b3ULL;
  }
  return h;
}

class ScriptDriver {
 public:
  ScriptDriver(const FtlConfig& config, size_t group, bool vectored)
      : config_(config), group_(group), vectored_(vectored) {
    auto ftl_or = Ftl::Create(config);
    IOSNAP_CHECK(ftl_or.ok());
    ftl_ = std::move(ftl_or).value();
  }

  // Runs the script; returns false on any unexpected error or data mismatch.
  ::testing::AssertionResult Run(const std::vector<Step>& script) {
    size_t i = 0;
    while (i < script.size()) {
      const Step& step = script[i];
      if (step.kind == Step::kWrite || step.kind == Step::kRead ||
          step.kind == Step::kTrim) {
        size_t j = i;
        while (j < script.size() && j - i < group_ &&
               (script[j].kind == Step::kWrite || script[j].kind == Step::kRead ||
                script[j].kind == Step::kTrim)) {
          ++j;
        }
        auto result = RunGroup(script.data() + i, j - i);
        if (!result) {
          return result;
        }
        i = j;
        continue;
      }
      switch (step.kind) {
        case Step::kSnapshot: {
          auto result = ftl_->CreateSnapshot("s" + std::to_string(snap_ids_.size()), now_);
          if (!result.ok()) {
            return ::testing::AssertionFailure() << result.status().ToString();
          }
          snap_ids_.push_back(result->snap_id);
          now_ = std::max(now_, result->io.CompletionNs());
          break;
        }
        case Step::kDeleteSnapshot: {
          IOSNAP_CHECK(!snap_ids_.empty());
          const uint32_t id = snap_ids_.front();
          snap_ids_.erase(snap_ids_.begin());
          auto result = ftl_->DeleteSnapshot(id, now_);
          if (!result.ok()) {
            return ::testing::AssertionFailure() << result.status().ToString();
          }
          now_ = std::max(now_, result->CompletionNs());
          break;
        }
        case Step::kReopen: {
          std::unique_ptr<NandDevice> device = ftl_->ReleaseDevice();
          uint64_t finish = now_;
          auto reopened = Ftl::Open(config_, std::move(device), now_, &finish);
          if (!reopened.ok()) {
            return ::testing::AssertionFailure() << reopened.status().ToString();
          }
          ftl_ = std::move(reopened).value();
          now_ = std::max(now_, finish);
          // Satellite check: recovery replays validity through SetValidBatch; the
          // incremental counters must survive it.
          if (!ftl_->validity().VerifyCounters()) {
            return ::testing::AssertionFailure() << "VerifyCounters failed after reopen";
          }
          break;
        }
        default:
          break;
      }
      ++i;
    }
    return ::testing::AssertionSuccess();
  }

  Fingerprint Capture() {
    Fingerprint fp;
    fp.stats = ftl_->stats();
    fp.now = now_;
    fp.drain_ns = ftl_->device().DrainTimeNs();
    auto map_or = ftl_->ViewMapEntries(kPrimaryView);
    IOSNAP_CHECK(map_or.ok());
    fp.primary_map = std::move(map_or).value();
    for (uint32_t epoch : ftl_->LiveEpochs()) {
      std::vector<uint64_t>& paddrs = fp.validity[epoch];
      ftl_->validity().ForEachValid(epoch, [&paddrs](uint64_t p) { paddrs.push_back(p); });
    }
    // Snapshot contents via activation + scalar reads (identical in both modes; runs
    // after the stats snapshot above so it cannot mask a divergence).
    for (uint32_t snap_id : snap_ids_) {
      uint64_t finish = now_;
      auto view_or = ftl_->ActivateBlocking(snap_id, now_, /*writable=*/false, &finish);
      IOSNAP_CHECK(view_or.ok());
      now_ = std::max(now_, finish);
      uint64_t hash = 0xcbf29ce484222325ULL;
      for (uint64_t lba = 0; lba < ftl_->LbaCount(); ++lba) {
        std::vector<uint8_t> data;
        auto read = ftl_->ReadView(*view_or, lba, now_, &data);
        IOSNAP_CHECK(read.ok());
        now_ = std::max(now_, read->CompletionNs());
        hash = HashBytes(hash, data);
      }
      fp.snapshot_hashes.emplace_back(snap_id, hash);
      IOSNAP_CHECK(ftl_->Deactivate(*view_or, now_).ok());
    }
    return fp;
  }

 private:
  ::testing::AssertionResult RunGroup(const Step* steps, size_t n) {
    const uint64_t t = now_;
    ftl_->PumpBackground(t);
    uint64_t group_end = t;
    if (vectored_) {
      // Maximal same-kind runs, like FtlTarget::DoOpV, but with real payloads.
      size_t i = 0;
      while (i < n) {
        size_t j = i;
        while (j < n && steps[j].kind == steps[i].kind) {
          ++j;
        }
        switch (steps[i].kind) {
          case Step::kWrite: {
            std::vector<std::vector<uint8_t>> payloads;
            std::vector<WriteRequest> requests;
            for (size_t k = i; k < j; ++k) {
              payloads.push_back(PageData(config_.nand.page_size_bytes, steps[k].lba,
                                          steps[k].version));
            }
            for (size_t k = i; k < j; ++k) {
              requests.push_back({steps[k].lba, payloads[k - i]});
            }
            auto ios = ftl_->WriteV(requests, t);
            if (!ios.ok()) {
              return ::testing::AssertionFailure() << ios.status().ToString();
            }
            for (size_t k = 0; k < ios->size(); ++k) {
              group_end = std::max(group_end, (*ios)[k].CompletionNs());
              model_[steps[i + k].lba] = steps[i + k].version;
            }
            break;
          }
          case Step::kRead: {
            std::vector<uint64_t> lbas;
            for (size_t k = i; k < j; ++k) {
              lbas.push_back(steps[k].lba);
            }
            std::vector<std::vector<uint8_t>> data;
            auto ios = ftl_->ReadV(lbas, t, &data);
            if (!ios.ok()) {
              return ::testing::AssertionFailure() << ios.status().ToString();
            }
            for (size_t k = 0; k < ios->size(); ++k) {
              group_end = std::max(group_end, (*ios)[k].CompletionNs());
              auto check = CheckPayload(lbas[k], data[k]);
              if (!check) {
                return check;
              }
            }
            break;
          }
          case Step::kTrim: {
            std::vector<TrimRequest> requests;
            for (size_t k = i; k < j; ++k) {
              requests.push_back({steps[k].lba, steps[k].count});
            }
            auto ios = ftl_->TrimV(requests, t);
            if (!ios.ok()) {
              return ::testing::AssertionFailure() << ios.status().ToString();
            }
            for (size_t k = 0; k < ios->size(); ++k) {
              group_end = std::max(group_end, (*ios)[k].CompletionNs());
              for (uint64_t c = 0; c < steps[i + k].count; ++c) {
                model_.erase(steps[i + k].lba + c);
              }
            }
            break;
          }
          default:
            break;
        }
        i = j;
      }
    } else {
      // Scalar ops, every one issued at the group's shared time t.
      for (size_t k = 0; k < n; ++k) {
        const Step& step = steps[k];
        switch (step.kind) {
          case Step::kWrite: {
            const auto data =
                PageData(config_.nand.page_size_bytes, step.lba, step.version);
            auto io = ftl_->Write(step.lba, data, t);
            if (!io.ok()) {
              return ::testing::AssertionFailure() << io.status().ToString();
            }
            group_end = std::max(group_end, io->CompletionNs());
            model_[step.lba] = step.version;
            break;
          }
          case Step::kRead: {
            std::vector<uint8_t> data;
            auto io = ftl_->Read(step.lba, t, &data);
            if (!io.ok()) {
              return ::testing::AssertionFailure() << io.status().ToString();
            }
            group_end = std::max(group_end, io->CompletionNs());
            auto check = CheckPayload(step.lba, data);
            if (!check) {
              return check;
            }
            break;
          }
          case Step::kTrim: {
            auto io = ftl_->Trim(step.lba, step.count, t);
            if (!io.ok()) {
              return ::testing::AssertionFailure() << io.status().ToString();
            }
            group_end = std::max(group_end, io->CompletionNs());
            for (uint64_t c = 0; c < step.count; ++c) {
              model_.erase(step.lba + c);
            }
            break;
          }
          default:
            break;
        }
      }
    }
    now_ = std::max(now_, group_end);
    return ::testing::AssertionSuccess();
  }

  ::testing::AssertionResult CheckPayload(uint64_t lba, const std::vector<uint8_t>& data) {
    auto it = model_.find(lba);
    const std::vector<uint8_t> expected =
        it == model_.end() ? std::vector<uint8_t>(config_.nand.page_size_bytes, 0)
                           : PageData(config_.nand.page_size_bytes, lba, it->second);
    if (data != expected) {
      return ::testing::AssertionFailure() << "payload mismatch at lba " << lba;
    }
    return ::testing::AssertionSuccess();
  }

  FtlConfig config_;
  size_t group_;
  bool vectored_;
  std::unique_ptr<Ftl> ftl_;
  uint64_t now_ = 0;
  std::vector<uint32_t> snap_ids_;
  std::map<uint64_t, uint64_t> model_;  // lba -> version, duplicates in submission order.
};

void ExpectStatsEqual(const FtlStats& a, const FtlStats& b) {
#define IOSNAP_EXPECT_STAT_EQ(field) EXPECT_EQ(a.field, b.field) << #field
  IOSNAP_EXPECT_STAT_EQ(user_writes);
  IOSNAP_EXPECT_STAT_EQ(user_reads);
  IOSNAP_EXPECT_STAT_EQ(user_trims);
  IOSNAP_EXPECT_STAT_EQ(user_bytes_written);
  IOSNAP_EXPECT_STAT_EQ(user_bytes_read);
  IOSNAP_EXPECT_STAT_EQ(snapshots_created);
  IOSNAP_EXPECT_STAT_EQ(snapshots_deleted);
  IOSNAP_EXPECT_STAT_EQ(activations);
  IOSNAP_EXPECT_STAT_EQ(deactivations);
  IOSNAP_EXPECT_STAT_EQ(rollbacks);
  IOSNAP_EXPECT_STAT_EQ(gc_segments_cleaned);
  IOSNAP_EXPECT_STAT_EQ(gc_pages_copied);
  IOSNAP_EXPECT_STAT_EQ(gc_notes_copied);
  IOSNAP_EXPECT_STAT_EQ(gc_notes_dropped);
  IOSNAP_EXPECT_STAT_EQ(gc_summaries_written);
  IOSNAP_EXPECT_STAT_EQ(gc_inline_stalls);
  IOSNAP_EXPECT_STAT_EQ(gc_wear_level_cleans);
  IOSNAP_EXPECT_STAT_EQ(gc_victim_selections);
  IOSNAP_EXPECT_STAT_EQ(gc_merge_host_ns);
  IOSNAP_EXPECT_STAT_EQ(gc_total_host_ns);
  IOSNAP_EXPECT_STAT_EQ(gc_device_busy_ns);
  IOSNAP_EXPECT_STAT_EQ(validity_cow_events);
  IOSNAP_EXPECT_STAT_EQ(validity_cow_bytes);
  IOSNAP_EXPECT_STAT_EQ(activation_segments_scanned);
  IOSNAP_EXPECT_STAT_EQ(activation_segments_skipped);
  IOSNAP_EXPECT_STAT_EQ(activation_entries);
  IOSNAP_EXPECT_STAT_EQ(total_pages_programmed);
#undef IOSNAP_EXPECT_STAT_EQ
}

class BatchEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BatchEquivalenceTest, VectoredMatchesSequentialBitForBit) {
  const size_t batch = GetParam();
  FtlConfig config = SmallConfig();
  const uint64_t lba_space = config.LbaCount();
  const std::vector<Step> script = MakeScript(lba_space);

  ScriptDriver sequential(config, batch, /*vectored=*/false);
  ScriptDriver vectored(config, batch, /*vectored=*/true);
  ASSERT_TRUE(sequential.Run(script));
  ASSERT_TRUE(vectored.Run(script));

  Fingerprint a = sequential.Capture();
  Fingerprint b = vectored.Capture();
  ExpectStatsEqual(a.stats, b.stats);
  EXPECT_EQ(a.now, b.now);
  EXPECT_EQ(a.drain_ns, b.drain_ns);
  EXPECT_EQ(a.primary_map, b.primary_map);
  EXPECT_EQ(a.validity, b.validity);
  EXPECT_EQ(a.snapshot_hashes, b.snapshot_hashes);
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchEquivalenceTest,
                         ::testing::Values<size_t>(1, 7, 32, 257));

}  // namespace
}  // namespace iosnap
