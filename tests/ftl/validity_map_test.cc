#include "src/ftl/validity_map.h"

#include <algorithm>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/obs/trace.h"

namespace iosnap {
namespace {

TEST(ValidityMapTest, RootEpochSetClearTest) {
  ValidityMap vm(1024, 64);
  vm.CreateEpoch(0);
  EXPECT_FALSE(vm.Test(0, 5));
  EXPECT_EQ(vm.SetValid(0, 5), 0u);  // Fresh chunk: no CoW.
  EXPECT_TRUE(vm.Test(0, 5));
  EXPECT_EQ(vm.ClearValid(0, 5), 0u);
  EXPECT_FALSE(vm.Test(0, 5));
  EXPECT_EQ(vm.stats().cow_chunk_copies, 0u);
}

TEST(ValidityMapTest, ClearOnMissingChunkIsNoop) {
  ValidityMap vm(1024, 64);
  vm.CreateEpoch(0);
  EXPECT_EQ(vm.ClearValid(0, 999), 0u);
  EXPECT_EQ(vm.DistinctChunkCount(), 0u);
}

TEST(ValidityMapTest, ForkSharesChunksUntilWrite) {
  ValidityMap vm(1024, 64);
  vm.CreateEpoch(0);
  vm.SetValid(0, 10);
  vm.SetValid(0, 100);

  EXPECT_EQ(vm.ForkEpoch(1, 0), 0u);  // CoW fork copies nothing.
  EXPECT_TRUE(vm.Test(1, 10));
  EXPECT_TRUE(vm.Test(1, 100));
  EXPECT_EQ(vm.DistinctChunkCount(), 2u);  // Shared.

  // Modifying the child's chunk triggers exactly one chunk copy; the parent's frozen
  // view is untouched (the Fig 5 scenario).
  const uint64_t cow = vm.ClearValid(1, 10);
  EXPECT_EQ(cow, 64 / 8u);
  EXPECT_FALSE(vm.Test(1, 10));
  EXPECT_TRUE(vm.Test(0, 10));
  EXPECT_EQ(vm.DistinctChunkCount(), 3u);
  EXPECT_EQ(vm.stats().cow_chunk_copies, 1u);

  // Second write to the same chunk in the same epoch: no further copy.
  EXPECT_EQ(vm.SetValid(1, 11), 0u);
  EXPECT_EQ(vm.stats().cow_chunk_copies, 1u);
}

TEST(ValidityMapTest, NaiveModeCopiesEverythingAtFork) {
  ValidityMap vm(4096, 64, /*naive_full_copy=*/true);
  vm.CreateEpoch(0);
  for (uint64_t p = 0; p < 4096; p += 64) {
    vm.SetValid(0, p);
  }
  const uint64_t copied = vm.ForkEpoch(1, 0);
  EXPECT_EQ(copied, 64u * (64 / 8));  // 64 chunks x 8 bytes.
  EXPECT_EQ(vm.DistinctChunkCount(), 128u);
}

TEST(ValidityMapTest, DroppedEpochLeavesSharedChunksIntact) {
  ValidityMap vm(1024, 64);
  vm.CreateEpoch(0);
  vm.SetValid(0, 7);
  vm.ForkEpoch(1, 0);
  vm.DropEpoch(0);
  EXPECT_FALSE(vm.HasEpoch(0));
  EXPECT_TRUE(vm.Test(1, 7));
  // The surviving epoch now owns the chunk exclusively: mutation needs no copy.
  EXPECT_EQ(vm.ClearValid(1, 7), 0u);
  EXPECT_EQ(vm.stats().cow_chunk_copies, 0u);
}

TEST(ValidityMapTest, MergedRangeOrsEpochs) {
  ValidityMap vm(1024, 64);
  vm.CreateEpoch(0);
  vm.SetValid(0, 1);
  vm.ForkEpoch(1, 0);
  vm.ClearValid(1, 1);
  vm.SetValid(1, 2);

  const Bitmap merged = vm.MergedRange({0, 1}, 0, 64);
  EXPECT_TRUE(merged.Test(1));  // Valid in epoch 0 (snapshot).
  EXPECT_TRUE(merged.Test(2));  // Valid in epoch 1 (active).
  EXPECT_EQ(merged.CountOnes(), 2u);

  // A deleted (missing) epoch silently drops out of the merge — Fig 6C.
  const Bitmap merged2 = vm.MergedRange({0, 1, 99}, 0, 64);
  EXPECT_EQ(merged2.CountOnes(), 2u);

  EXPECT_EQ(vm.CountValidInRange({0, 1}, 0, 64), 2u);
  EXPECT_EQ(vm.CountValidInRange(1u, 0, 64), 1u);
}

TEST(ValidityMapTest, MergedRangeUnalignedWindow) {
  ValidityMap vm(1024, 64);
  vm.CreateEpoch(0);
  vm.SetValid(0, 63);
  vm.SetValid(0, 64);
  vm.SetValid(0, 200);
  const Bitmap merged = vm.MergedRange({0}, 60, 130);
  EXPECT_TRUE(merged.Test(63 - 60));
  EXPECT_TRUE(merged.Test(64 - 60));
  EXPECT_EQ(merged.CountOnes(), 2u);
}

TEST(ValidityMapTest, TestAnyAcrossEpochs) {
  ValidityMap vm(1024, 64);
  vm.CreateEpoch(0);
  vm.SetValid(0, 5);
  vm.ForkEpoch(1, 0);
  vm.ClearValid(1, 5);
  EXPECT_TRUE(vm.TestAny({0, 1}, 5));
  EXPECT_FALSE(vm.TestAny({1}, 5));
  EXPECT_FALSE(vm.TestAny({42}, 5));  // Unknown epoch.
}

TEST(ValidityMapTest, MoveBitUpdatesEveryReferencingEpoch) {
  ValidityMap vm(1024, 64);
  vm.CreateEpoch(0);
  vm.SetValid(0, 30);
  vm.ForkEpoch(1, 0);
  vm.ForkEpoch(2, 1);
  vm.ClearValid(2, 30);  // Epoch 2 no longer references page 30.

  vm.MoveBit(30, 500);
  EXPECT_FALSE(vm.Test(0, 30));
  EXPECT_TRUE(vm.Test(0, 500));
  EXPECT_FALSE(vm.Test(1, 30));
  EXPECT_TRUE(vm.Test(1, 500));
  EXPECT_FALSE(vm.Test(2, 30));
  EXPECT_FALSE(vm.Test(2, 500));  // Was not referencing: stays clear.
}

// Epochs() is the registered set in ascending order whatever the order of creation,
// forks and drops.
TEST(ValidityMapTest, EpochsListsRegisteredIdsAscending) {
  ValidityMap vm(1024, 64);
  EXPECT_TRUE(vm.Epochs().empty());
  vm.CreateEpoch(7);
  vm.ForkEpoch(2, 7);
  vm.ForkEpoch(9, 2);
  vm.CreateEpoch(4);
  EXPECT_EQ(vm.Epochs(), (std::vector<uint32_t>{2, 4, 7, 9}));
  vm.DropEpoch(7);
  vm.DropEpoch(2);
  EXPECT_EQ(vm.Epochs(), (std::vector<uint32_t>{4, 9}));
  vm.ForkEpoch(5, 9);
  EXPECT_EQ(vm.Epochs(), (std::vector<uint32_t>{4, 5, 9}));
}

TEST(ValidityMapTest, ForEachValidVisitsAscending) {
  ValidityMap vm(4096, 64);
  vm.CreateEpoch(0);
  const std::vector<uint64_t> pages = {3, 64, 65, 1000, 4000};
  for (uint64_t p : pages) {
    vm.SetValid(0, p);
  }
  std::vector<uint64_t> seen;
  vm.ForEachValid(0, [&seen](uint64_t p) { seen.push_back(p); });
  EXPECT_EQ(seen, pages);
}

TEST(ValidityMapTest, CowForksFarCheaperThanNaiveCopies) {
  // The §5.4.1 memory argument: dormant snapshots must not multiply bitmap memory.
  // Non-diverging CoW forks add only per-epoch chunk *references*; naive forks add full
  // chunk copies.
  auto fork_cost = [](bool naive) {
    ValidityMap vm(1 << 20, 4096, naive);
    vm.CreateEpoch(0);
    for (uint64_t p = 0; p < (1 << 20); p += 4096) {
      vm.SetValid(0, p);
    }
    const size_t base = vm.MemoryBytes();
    for (uint32_t e = 1; e <= 10; ++e) {
      vm.ForkEpoch(e, e - 1);
    }
    return vm.MemoryBytes() - base;
  };
  const size_t cow_growth = fork_cost(false);
  const size_t naive_growth = fork_cost(true);
  EXPECT_LT(cow_growth * 3, naive_growth);
}

TEST(ValidityMapTest, RandomizedTwoEpochSemantics) {
  // Active epoch diverges from a frozen snapshot; both views must match brute-force sets.
  ValidityMap vm(512, 32);
  vm.CreateEpoch(0);
  Rng rng(77);
  std::vector<bool> frozen(512, false);
  for (int i = 0; i < 300; ++i) {
    const uint64_t p = rng.NextBelow(512);
    if (rng.NextBool(0.7)) {
      vm.SetValid(0, p);
      frozen[p] = true;
    } else {
      vm.ClearValid(0, p);
      frozen[p] = false;
    }
  }
  vm.ForkEpoch(1, 0);
  std::vector<bool> active = frozen;
  for (int i = 0; i < 300; ++i) {
    const uint64_t p = rng.NextBelow(512);
    if (rng.NextBool(0.5)) {
      vm.SetValid(1, p);
      active[p] = true;
    } else {
      vm.ClearValid(1, p);
      active[p] = false;
    }
  }
  for (uint64_t p = 0; p < 512; ++p) {
    EXPECT_EQ(vm.Test(0, p), frozen[p]) << "frozen page " << p;
    EXPECT_EQ(vm.Test(1, p), active[p]) << "active page " << p;
  }
}

void ExpectSameStats(const ValidityStats& a, const ValidityStats& b) {
  EXPECT_EQ(a.cow_chunk_copies, b.cow_chunk_copies);
  EXPECT_EQ(a.cow_bytes_copied, b.cow_bytes_copied);
  EXPECT_EQ(a.chunk_allocations, b.chunk_allocations);
  EXPECT_EQ(a.merge_chunk_visits, b.merge_chunk_visits);
  EXPECT_EQ(a.merge_plane_rebuilds, b.merge_plane_rebuilds);
  EXPECT_EQ(a.merge_plane_hits, b.merge_plane_hits);
  EXPECT_EQ(a.range_recounts, b.range_recounts);
}

std::vector<uint64_t> ValidPages(const ValidityMap& vm, uint32_t epoch) {
  std::vector<uint64_t> pages;
  vm.ForEachValid(epoch, [&pages](uint64_t p) { pages.push_back(p); });
  return pages;
}

TEST(ValidityMapTest, ApplyBatchMatchesSequentialCalls) {
  // One map takes each batch through ApplyBatch, the other takes the same ops one by
  // one through SetValid/ClearValid, over forks and drops of several epochs. Counter
  // ranges span two chunks, batches repeat paddrs, and early clears hit absent chunks.
  constexpr uint64_t kPages = 4096;
  ValidityMap batched(kPages, 64, /*naive_full_copy=*/false, 128);
  ValidityMap sequential(kPages, 64, /*naive_full_copy=*/false, 128);
  TraceRecorder batched_trace(1 << 16);
  TraceRecorder sequential_trace(1 << 16);
  batched.SetTraceRecorder(&batched_trace);
  sequential.SetTraceRecorder(&sequential_trace);
  batched.CreateEpoch(0);
  sequential.CreateEpoch(0);
  std::vector<uint32_t> live = {0};
  uint32_t next_epoch = 1;
  Rng rng(2022);
  for (uint64_t round = 0; round < 400; ++round) {
    batched.NoteTimeNs(round);
    sequential.NoteTimeNs(round);
    const uint64_t roll = rng.NextBelow(10);
    if (roll == 0 && live.size() < 6) {
      const uint32_t parent = live[rng.NextBelow(live.size())];
      batched.ForkEpoch(next_epoch, parent);
      sequential.ForkEpoch(next_epoch, parent);
      live.push_back(next_epoch++);
    } else if (roll == 1 && live.size() > 1) {
      const size_t victim = rng.NextBelow(live.size());
      batched.DropEpoch(live[victim]);
      sequential.DropEpoch(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }

    const uint32_t epoch = live[rng.NextBelow(live.size())];
    std::vector<ValidityMap::BitOp> ops(1 + rng.NextBelow(40));
    for (size_t i = 0; i < ops.size(); ++i) {
      const bool repeat = i > 0 && rng.NextBool(0.25);
      ops[i].paddr = repeat ? ops[rng.NextBelow(i)].paddr : rng.NextBelow(kPages);
      ops[i].set = rng.NextBool(0.6);
    }
    batched.ApplyBatch(epoch, ops);
    for (const ValidityMap::BitOp& op : ops) {
      const uint64_t cow = op.set ? sequential.SetValid(epoch, op.paddr)
                                  : sequential.ClearValid(epoch, op.paddr);
      ASSERT_EQ(op.cow_bytes, cow) << "round " << round << " paddr " << op.paddr;
    }
    // Cleaner-side reads rebuild planes and recount dirty ranges on both maps alike.
    for (int i = 0; i < 4; ++i) {
      const uint64_t paddr = rng.NextBelow(kPages);
      ASSERT_EQ(batched.MergedTest(paddr), sequential.MergedTest(paddr));
    }
    for (uint64_t r = 0; r < batched.NumRanges(); ++r) {
      ASSERT_EQ(batched.MergedValidCount(r), sequential.MergedValidCount(r)) << r;
      for (uint32_t e : live) {
        ASSERT_EQ(batched.EpochValidCount(e, r), sequential.EpochValidCount(e, r));
      }
    }
    ExpectSameStats(batched.stats(), sequential.stats());
  }
  EXPECT_GT(batched.stats().cow_chunk_copies, 0u);
  EXPECT_GT(batched.stats().range_recounts, 0u);
  for (uint32_t e : live) {
    EXPECT_EQ(ValidPages(batched, e), ValidPages(sequential, e)) << "epoch " << e;
  }
  EXPECT_TRUE(batched.VerifyCounters());
  EXPECT_TRUE(sequential.VerifyCounters());

  const std::vector<TraceEvent> a = batched_trace.Events();
  const std::vector<TraceEvent> b = sequential_trace.Events();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(batched_trace.dropped(), 0u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, TraceEventType::kValidityCowChunk);
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].start_ns, b[i].start_ns);
    EXPECT_EQ(a[i].arg0, b[i].arg0) << "event " << i;
    EXPECT_EQ(a[i].arg1, b[i].arg1);
    EXPECT_EQ(a[i].arg2, b[i].arg2);
  }
}

TEST(ValidityMapTest, CountEpochPagesMatchesPerPageReference) {
  // Forked epochs that diverge, share chunk objects and drop out; every epoch's
  // word-wise count must equal a per-page probe of all the other epochs.
  constexpr uint64_t kPages = 2048;
  ValidityMap vm(kPages, 128);
  vm.CreateEpoch(0);
  std::vector<uint32_t> live = {0};
  uint32_t next_epoch = 1;
  Rng rng(31);
  for (int round = 0; round < 300; ++round) {
    const uint64_t roll = rng.NextBelow(8);
    if (roll == 0 && live.size() < 8) {
      vm.ForkEpoch(next_epoch, live[rng.NextBelow(live.size())]);
      live.push_back(next_epoch++);
    } else if (roll == 1 && live.size() > 2) {
      const size_t victim = rng.NextBelow(live.size());
      vm.DropEpoch(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    const uint32_t epoch = live[rng.NextBelow(live.size())];
    for (int i = 0; i < 16; ++i) {
      const uint64_t paddr = rng.NextBelow(kPages);
      if (rng.NextBool(0.7)) {
        vm.SetValid(epoch, paddr);
      } else {
        vm.ClearValid(epoch, paddr);
      }
    }
    if (round % 10 != 9) {
      continue;
    }
    for (uint32_t e : live) {
      std::vector<uint32_t> others;
      std::copy_if(live.begin(), live.end(), std::back_inserter(others),
                   [e](uint32_t o) { return o != e; });
      ValidityMap::EpochPages expect;
      vm.ForEachValid(e, [&](uint64_t paddr) {
        ++expect.referenced;
        expect.exclusive += !vm.TestAny(others, paddr);
      });
      const ValidityMap::EpochPages got = vm.CountEpochPages(e);
      ASSERT_EQ(got.referenced, expect.referenced) << "round " << round << " epoch " << e;
      ASSERT_EQ(got.exclusive, expect.exclusive) << "round " << round << " epoch " << e;
    }
  }
  EXPECT_GT(vm.DistinctChunkCount(), 16u);  // Forks diverged into distinct versions.
}

}  // namespace
}  // namespace iosnap
