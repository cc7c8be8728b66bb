// Wall-clock microbenchmarks (google-benchmark) of the host-side data structures on the
// FTL's critical path: the B+tree forward map, the page CRC, the NAND model's read
// path, the bitmap primitives, and the per-epoch CoW validity map. These are the only
// benchmarks in the suite that measure real CPU time — everything device-related runs
// on the virtual clock.

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/common/bitmap.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/ftl/btree.h"
#include "src/ftl/validity_map.h"
#include "src/nand/nand_device.h"
#include "src/nand/page_header.h"

namespace iosnap {
namespace {

void BM_BPlusTreeInsert(benchmark::State& state) {
  const auto n = static_cast<uint64_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    BPlusTree tree;
    state.ResumeTiming();
    for (uint64_t i = 0; i < n; ++i) {
      tree.Insert(rng.NextBelow(1u << 30), i);
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_BPlusTreeInsert)->Arg(1 << 12)->Arg(1 << 16);

// Batched map updates: the forward-map half of the vectored write path. Random keys are
// the adversarial case (every probe a fresh descent); the run-of-8 variant mimics an FTL
// absorbing mostly-sequential user writes, where the memoized descent amortizes best.
void BM_BPlusTreeInsertBatch(benchmark::State& state) {
  const auto n = static_cast<uint64_t>(state.range(0));
  const auto batch = static_cast<uint64_t>(state.range(1));
  const bool runs = state.range(2) != 0;
  Rng rng(1);
  std::vector<std::pair<uint64_t, uint64_t>> entries(batch);
  for (auto _ : state) {
    state.PauseTiming();
    BPlusTree tree;
    state.ResumeTiming();
    uint64_t i = 0;
    while (i < n) {
      for (uint64_t j = 0; j < batch; ++j) {
        uint64_t key;
        if (runs) {
          // Runs of 8 consecutive LBAs at random offsets.
          key = (j % 8 == 0) ? rng.NextBelow(1u << 30) : entries[j - 1].first + 1;
        } else {
          key = rng.NextBelow(1u << 30);
        }
        entries[j] = {key, i + j};
      }
      tree.InsertBatch(entries, nullptr);
      i += batch;
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_BPlusTreeInsertBatch)
    ->ArgsProduct({{1 << 16}, {1, 8, 32, 256}, {0}})
    ->ArgsProduct({{1 << 16}, {32}, {1}});

void BM_BPlusTreeLookup(benchmark::State& state) {
  const auto n = static_cast<uint64_t>(state.range(0));
  BPlusTree tree;
  Rng rng(2);
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t k = rng.NextBelow(1u << 30);
    keys.push_back(k);
    tree.Insert(k, i);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Lookup(keys[i++ % keys.size()]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BPlusTreeLookup)->Arg(1 << 16)->Arg(1 << 20);

// The e2e benchmark's read_mostly map: its 589,824-LBA working set written once in
// ascending 32-LBA batches, as its prefill does. Leaves split half full, so the tree is
// about 20 MB and a random lookup misses cache on most levels.
void BM_BPlusTreeLookupSequentialPrefill(benchmark::State& state) {
  constexpr uint64_t kKeys = 589824;
  static const BPlusTree tree = [] {
    BPlusTree t;
    std::vector<std::pair<uint64_t, uint64_t>> batch;
    for (uint64_t lba = 0; lba < kKeys; lba += 32) {
      batch.clear();
      for (uint64_t k = lba; k < lba + 32; ++k) {
        batch.emplace_back(k, k);
      }
      t.InsertBatch(batch);
    }
    return t;
  }();
  Rng rng(7);
  std::vector<uint64_t> keys(1 << 16);
  for (uint64_t& key : keys) {
    key = rng.NextBelow(kKeys);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Lookup(keys[i++ % keys.size()]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BPlusTreeLookupSequentialPrefill);

void BM_BPlusTreeBulkLoad(benchmark::State& state) {
  const auto n = static_cast<uint64_t>(state.range(0));
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  for (uint64_t i = 0; i < n; ++i) {
    pairs.emplace_back(i * 3, i);
  }
  for (auto _ : state) {
    BPlusTree tree = BPlusTree::BulkLoad(pairs);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_BPlusTreeBulkLoad)->Arg(1 << 16);

// The CRC every program, read and header scan computes: the 33 header bytes plus the
// stored payload (none for notes, a few bytes for summaries, a page for user data).
void BM_PageCrc(benchmark::State& state) {
  const std::vector<uint8_t> payload(static_cast<size_t>(state.range(0)), 0x5a);
  PageHeader header;
  header.type = RecordType::kData;
  header.lba = 42;
  header.seq = 7;
  header.payload_len = static_cast<uint32_t>(payload.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputePageCrc(header, payload));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kPageHeaderCrcFieldBytes + payload.size()));
}
BENCHMARK(BM_PageCrc)->Arg(0)->Arg(16)->Arg(4096);

// A fully programmed device of 4 KiB pages, built once per payload size: with no
// payload, a header-only 4 GiB device (the e2e benchmark's read_mostly); with one, a
// 1 GiB device storing that many bytes per page (its snapshot_churn).
NandDevice& FullDevice(size_t payload_bytes) {
  static std::map<size_t, std::unique_ptr<NandDevice>> devices;
  std::unique_ptr<NandDevice>& device = devices[payload_bytes];
  if (device == nullptr) {
    NandConfig config;
    config.num_segments = payload_bytes == 0 ? 1024 : 256;
    config.store_data = payload_bytes > 0;
    device = std::make_unique<NandDevice>(config);
    const std::vector<uint8_t> payload(payload_bytes, 0x5a);
    PageHeader header;
    header.type = RecordType::kData;
    header.payload_len = static_cast<uint32_t>(payload_bytes);
    for (uint64_t s = 0; s < config.num_segments; ++s) {
      for (uint64_t i = 0; i < config.pages_per_segment; ++i) {
        header.lba = header.seq = s * config.pages_per_segment + i;
        IOSNAP_CHECK(device->ProgramPage(s, header, payload, 0, nullptr).ok());
      }
    }
  }
  return *device;
}

// Random page reads, the device half of every user read: the header alone on the
// header-only device (arg 0), header plus payload copy otherwise (arg 16).
void BM_NandReadPage(benchmark::State& state) {
  const auto payload_bytes = static_cast<size_t>(state.range(0));
  NandDevice& device = FullDevice(payload_bytes);
  Rng rng(8);
  std::vector<uint64_t> paddrs(1 << 16);
  for (uint64_t& paddr : paddrs) {
    paddr = rng.NextBelow(device.config().TotalPages());
  }
  PageHeader header;
  std::vector<uint8_t> data;
  std::vector<uint8_t>* data_out = payload_bytes > 0 ? &data : nullptr;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        device.ReadPage(paddrs[i++ % paddrs.size()], 0, &header, data_out));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_NandReadPage)->Arg(0)->Arg(16);

void BM_BitmapCountRange(benchmark::State& state) {
  Bitmap bitmap(1 << 20);
  Rng rng(3);
  for (int i = 0; i < (1 << 18); ++i) {
    bitmap.Set(rng.NextBelow(1 << 20));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bitmap.CountOnesInRange(1000, (1 << 20) - 1000));
  }
}
BENCHMARK(BM_BitmapCountRange);

void BM_ValidityMergeRange(benchmark::State& state) {
  const auto epochs = static_cast<uint32_t>(state.range(0));
  ValidityMap vm(1 << 20, 8192);
  vm.CreateEpoch(0);
  Rng rng(4);
  for (int i = 0; i < (1 << 16); ++i) {
    vm.SetValid(0, rng.NextBelow(1 << 20));
  }
  std::vector<uint32_t> all = {0};
  for (uint32_t e = 1; e < epochs; ++e) {
    vm.ForkEpoch(e, e - 1);
    for (int i = 0; i < 1024; ++i) {
      vm.SetValid(e, rng.NextBelow(1 << 20));
    }
    all.push_back(e);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.CountValidInRange(all, 0, 1 << 14));
  }
}
BENCHMARK(BM_ValidityMergeRange)->Arg(1)->Arg(4)->Arg(16);

// Batched bit flips: the validity half of the vectored write path. Each batch clears one
// random bit and sets another (the overwrite pattern), grouped by chunk inside
// ApplyBatch so per-chunk CoW resolution runs once per touched chunk, not once per bit.
void BM_ValidityApplyBatch(benchmark::State& state) {
  const auto batch = static_cast<size_t>(state.range(0));
  ValidityMap vm(1 << 20, 8192);
  vm.CreateEpoch(0);
  Rng rng(6);
  for (int i = 0; i < (1 << 16); ++i) {
    vm.SetValid(0, rng.NextBelow(1 << 20));
  }
  std::vector<ValidityMap::BitOp> ops(2 * batch);
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      ops[2 * i] = {rng.NextBelow(1 << 20), false, 0};
      ops[2 * i + 1] = {rng.NextBelow(1 << 20), true, 0};
    }
    vm.ApplyBatch(0, ops);
    benchmark::DoNotOptimize(ops.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * batch));
}
BENCHMARK(BM_ValidityApplyBatch)->Arg(1)->Arg(8)->Arg(32)->Arg(256);

// The cleaner's copy-forward fix-up with `range(0)` live epochs: a chain of forks that
// each diverge a little, and one page valid in all of them moved back and forth.
// MoveBit probes every registered epoch, so this is linear in the live epochs.
void BM_ValidityMoveBit(benchmark::State& state) {
  const auto epochs = static_cast<uint32_t>(state.range(0));
  ValidityMap vm(1 << 20, 8192);
  vm.CreateEpoch(0);
  Rng rng(7);
  for (int i = 0; i < (1 << 16); ++i) {
    vm.SetValid(0, rng.NextBelow(1 << 20));
  }
  uint64_t from = 12345;
  uint64_t to = (1 << 19) + 6789;
  vm.SetValid(0, from);
  vm.ClearValid(0, to);
  for (uint32_t e = 1; e < epochs; ++e) {
    vm.ForkEpoch(e, e - 1);
    for (int i = 0; i < 64; ++i) {
      const uint64_t p = rng.NextBelow(1 << 20);
      if (p != from && p != to) {
        vm.SetValid(e, p);
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.MoveBit(from, to));
    std::swap(from, to);
  }
}
BENCHMARK(BM_ValidityMoveBit)->Arg(4)->Arg(64)->Arg(256);

void BM_ValidityCowFork(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    ValidityMap vm(1 << 20, 8192);
    vm.CreateEpoch(0);
    Rng rng(5);
    for (int i = 0; i < (1 << 14); ++i) {
      vm.SetValid(0, rng.NextBelow(1 << 20));
    }
    state.ResumeTiming();
    vm.ForkEpoch(1, 0);  // The snapshot-create critical-path cost.
    benchmark::DoNotOptimize(vm.HasEpoch(1));
  }
}
BENCHMARK(BM_ValidityCowFork);

}  // namespace
}  // namespace iosnap

BENCHMARK_MAIN();
