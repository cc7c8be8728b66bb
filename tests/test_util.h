// Shared helpers for the ioSnap test suite: small device configurations, a result
// digest, deterministic page payloads, a brute-force reference model of snapshot
// semantics, and gtest glue for Status/StatusOr.

#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/status.h"
#include "src/core/ftl.h"
#include "src/core/ftl_config.h"

namespace iosnap {

#define ASSERT_OK(expr) ASSERT_TRUE((expr).ok()) << (expr).ToString()
#define EXPECT_OK(expr) EXPECT_TRUE((expr).ok()) << (expr).ToString()

#define ASSERT_OK_AND_ASSIGN(lhs, expr)            \
  ASSERT_OK_AND_ASSIGN_IMPL_(                      \
      IOSNAP_CONCAT_(test_statusor_, __LINE__), lhs, expr)

#define ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, expr)   \
  auto tmp = (expr);                                 \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();  \
  lhs = std::move(tmp).value()

// A small device: 32 segments x 64 pages x 4 KiB = 8 MiB, 4 channels.
inline FtlConfig SmallConfig() {
  FtlConfig config;
  config.nand.page_size_bytes = 4096;
  config.nand.pages_per_segment = 64;
  config.nand.num_segments = 32;
  config.nand.num_channels = 4;
  config.nand.store_data = true;
  config.overprovision = 0.25;
  config.validity_chunk_bits = 256;
  config.gc_reserve_segments = 2;
  config.gc_low_free_segments = 4;
  config.gc_high_free_segments = 6;
  return config;
}

// An even smaller device for exhaustive property tests.
inline FtlConfig TinyConfig() {
  FtlConfig config = SmallConfig();
  config.nand.pages_per_segment = 16;
  config.nand.num_segments = 16;
  config.validity_chunk_bits = 64;
  return config;
}

// Reusable description of a fault-injection scenario for crash/fault campaigns.
// ApplyTo() arms a config; individual fields mirror FaultConfig.
struct FaultPlan {
  uint64_t seed = 1;
  uint32_t program_fail_ppm = 0;
  uint32_t erase_fail_ppm = 0;
  uint32_t read_fail_ppm = 0;
  uint32_t corrupt_ppm = 0;
  uint32_t read_disturb_ppm_per_k_reads = 0;  // Wear model: read-disturb rate.
  uint32_t retention_ppm_per_sec = 0;         // Wear model: retention-loss rate.
  uint64_t crash_after_op = 0;  // Device goes offline after this many ops (0 = never).
  std::vector<std::pair<uint64_t, uint64_t>> bad_block_schedule;  // (segment, erase ordinal)

  void ApplyTo(FtlConfig* config) const {
    config->nand.fault.seed = seed;
    config->nand.fault.program_fail_ppm = program_fail_ppm;
    config->nand.fault.erase_fail_ppm = erase_fail_ppm;
    config->nand.fault.read_fail_ppm = read_fail_ppm;
    config->nand.fault.corrupt_ppm = corrupt_ppm;
    config->nand.fault.read_disturb_ppm_per_k_reads = read_disturb_ppm_per_k_reads;
    config->nand.fault.retention_ppm_per_sec = retention_ppm_per_sec;
    config->nand.fault.crash_after_op = crash_after_op;
    config->nand.fault.bad_block_schedule = bad_block_schedule;
  }
};

// FNV-1a over little-endian 64-bit words: folds a run's observable results into one
// value that tests pin against digests recorded from an earlier commit.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  // Stats structs hold only uint64_t fields (obs_tests pins their sizes).
  template <typename T>
  void AddWords(const T& s) {
    static_assert(sizeof(T) % sizeof(uint64_t) == 0);
    for (size_t i = 0; i < sizeof(T); i += sizeof(uint64_t)) {
      uint64_t w = 0;
      std::memcpy(&w, reinterpret_cast<const char*>(&s) + i, sizeof(w));
      Add(w);
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Deterministic page payload derived from (lba, version).
inline std::vector<uint8_t> PageData(uint64_t page_bytes, uint64_t lba, uint64_t version) {
  std::vector<uint8_t> data(page_bytes);
  uint64_t x = lba * 0x9e3779b97f4a7c15ULL + version * 0xbf58476d1ce4e5b9ULL + 1;
  for (size_t i = 0; i < data.size(); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    data[i] = static_cast<uint8_t>(x);
  }
  return data;
}

// Brute-force model of device + snapshot semantics: the oracle every integration test
// compares the real FTL against. State is lba -> version (0 = never written / trimmed).
class ReferenceModel {
 public:
  void Write(uint64_t lba, uint64_t version) { state_[lba] = version; }

  void Trim(uint64_t lba, uint64_t count) {
    for (uint64_t i = 0; i < count; ++i) {
      state_.erase(lba + i);
    }
  }

  // Captures the current state under a snapshot id.
  void Snapshot(uint32_t snap_id) { snapshots_[snap_id] = state_; }

  void DeleteSnapshot(uint32_t snap_id) { snapshots_.erase(snap_id); }

  bool HasSnapshot(uint32_t snap_id) const { return snapshots_.contains(snap_id); }

  // Version visible at `lba` now (0 if unmapped).
  uint64_t Current(uint64_t lba) const {
    auto it = state_.find(lba);
    return it == state_.end() ? 0 : it->second;
  }

  // Version visible at `lba` in a snapshot (0 if unmapped).
  uint64_t InSnapshot(uint32_t snap_id, uint64_t lba) const {
    auto snap_it = snapshots_.find(snap_id);
    if (snap_it == snapshots_.end()) {
      return 0;
    }
    auto it = snap_it->second.find(lba);
    return it == snap_it->second.end() ? 0 : it->second;
  }

  const std::map<uint64_t, uint64_t>& current_state() const { return state_; }
  const std::map<uint64_t, uint64_t>& snapshot_state(uint32_t snap_id) const {
    static const std::map<uint64_t, uint64_t> kEmpty;
    auto it = snapshots_.find(snap_id);
    return it == snapshots_.end() ? kEmpty : it->second;
  }

 private:
  std::map<uint64_t, uint64_t> state_;
  std::map<uint32_t, std::map<uint64_t, uint64_t>> snapshots_;
};

// Convenience wrapper: an Ftl plus a virtual clock and versioned-payload helpers, so
// integration tests read as sequences of logical operations.
class FtlHarness {
 public:
  explicit FtlHarness(const FtlConfig& config) : config_(config) {
    auto ftl_or = Ftl::Create(config);
    IOSNAP_CHECK(ftl_or.ok());
    ftl_ = std::move(ftl_or).value();
  }

  Ftl& ftl() { return *ftl_; }
  uint64_t now() const { return now_; }
  void AdvanceTo(uint64_t t) { now_ = std::max(now_, t); }

  // Writes the deterministic payload for (lba, version) and advances the clock.
  Status Write(uint64_t lba, uint64_t version) {
    const auto data = PageData(config_.nand.page_size_bytes, lba, version);
    auto result = ftl_->Write(lba, data, now_);
    if (!result.ok()) {
      return result.status();
    }
    now_ = std::max(now_, result->CompletionNs());
    return OkStatus();
  }

  Status Trim(uint64_t lba, uint64_t count) {
    auto result = ftl_->Trim(lba, count, now_);
    if (!result.ok()) {
      return result.status();
    }
    now_ = std::max(now_, result->CompletionNs());
    return OkStatus();
  }

  StatusOr<uint32_t> Snapshot(const std::string& name) {
    auto result = ftl_->CreateSnapshot(name, now_);
    if (!result.ok()) {
      return result.status();
    }
    now_ = std::max(now_, result->io.CompletionNs());
    return result->snap_id;
  }

  Status Delete(uint32_t snap_id) {
    auto result = ftl_->DeleteSnapshot(snap_id, now_);
    if (!result.ok()) {
      return result.status();
    }
    now_ = std::max(now_, result->CompletionNs());
    return OkStatus();
  }

  StatusOr<uint32_t> Activate(uint32_t snap_id, bool writable = false) {
    uint64_t finish = now_;
    auto view_or = ftl_->ActivateBlocking(snap_id, now_, writable, &finish);
    if (!view_or.ok()) {
      return view_or.status();
    }
    now_ = std::max(now_, finish);
    return *view_or;
  }

  // Verifies that `view_id` reads version `version` at `lba` (0 = expect zeroes).
  ::testing::AssertionResult CheckLba(uint32_t view_id, uint64_t lba, uint64_t version) {
    std::vector<uint8_t> data;
    auto result = ftl_->ReadView(view_id, lba, now_, &data);
    if (!result.ok()) {
      return ::testing::AssertionFailure()
             << "read lba " << lba << " failed: " << result.status().ToString();
    }
    now_ = std::max(now_, result->CompletionNs());
    const std::vector<uint8_t> expected =
        version == 0 ? std::vector<uint8_t>(config_.nand.page_size_bytes, 0)
                     : PageData(config_.nand.page_size_bytes, lba, version);
    if (data != expected) {
      return ::testing::AssertionFailure()
             << "lba " << lba << " content mismatch (expected version " << version << ")";
    }
    return ::testing::AssertionSuccess();
  }

  // Verifies a whole view against a reference state over [0, lba_space).
  ::testing::AssertionResult CheckView(uint32_t view_id,
                                       const std::map<uint64_t, uint64_t>& state,
                                       uint64_t lba_space) {
    for (uint64_t lba = 0; lba < lba_space; ++lba) {
      auto it = state.find(lba);
      const uint64_t version = it == state.end() ? 0 : it->second;
      auto check = CheckLba(view_id, lba, version);
      if (!check) {
        return check;
      }
    }
    return ::testing::AssertionSuccess();
  }

  // Releases the device (a crash or a clean shutdown: the two are the same) and reopens
  // it through full recovery. With `clear_faults`, the power cycle also disarms any
  // fault-injection schedule (media damage persists) so recovery itself runs on a
  // working device.
  Status CrashAndReopen(bool clear_faults = false) {
    std::unique_ptr<NandDevice> device = ftl_->ReleaseDevice();
    if (clear_faults) {
      device->ClearFaults();
    }
    return Reopen(std::move(device));
  }

  // Opens a new Ftl over a device released from this harness's Ftl.
  Status Reopen(std::unique_ptr<NandDevice> device) {
    uint64_t finish = now_;
    auto reopened = Ftl::Open(config_, std::move(device), now_, &finish);
    if (!reopened.ok()) {
      return reopened.status();
    }
    ftl_ = std::move(reopened).value();
    now_ = std::max(now_, finish);
    return OkStatus();
  }

 private:
  FtlConfig config_;
  std::unique_ptr<Ftl> ftl_;
  uint64_t now_ = 0;
};

}  // namespace iosnap

#endif  // TESTS_TEST_UTIL_H_
