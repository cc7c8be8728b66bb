#include "src/ftl/btree.h"

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace iosnap {
namespace {

// What the reference map holds for key, in the form Lookup() and Erase() report it.
std::optional<uint64_t> RefValue(const std::map<uint64_t, uint64_t>& ref, uint64_t key) {
  const auto it = ref.find(key);
  return it == ref.end() ? std::nullopt : std::optional<uint64_t>(it->second);
}

TEST(BPlusTreeTest, EmptyTree) {
  BPlusTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_FALSE(tree.Lookup(5).has_value());
  EXPECT_EQ(tree.LeafNodeCount(), 1u);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BPlusTreeTest, InsertAndLookup) {
  BPlusTree tree;
  EXPECT_TRUE(tree.Insert(10, 100));
  EXPECT_TRUE(tree.Insert(20, 200));
  EXPECT_TRUE(tree.Insert(5, 50));
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.Lookup(10).value(), 100u);
  EXPECT_EQ(tree.Lookup(20).value(), 200u);
  EXPECT_EQ(tree.Lookup(5).value(), 50u);
  EXPECT_FALSE(tree.Lookup(15).has_value());
}

TEST(BPlusTreeTest, OverwriteReplacesInPlace) {
  BPlusTree tree;
  EXPECT_TRUE(tree.Insert(7, 70));
  EXPECT_FALSE(tree.Insert(7, 71));  // Not a new key.
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.Lookup(7).value(), 71u);
}

TEST(BPlusTreeTest, SplitsKeepOrder) {
  BPlusTree tree;
  for (uint64_t i = 0; i < 1000; ++i) {
    tree.Insert(i, i * 10);
  }
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_GT(tree.Height(), 1);
  EXPECT_TRUE(tree.CheckInvariants());
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(tree.Lookup(i).value(), i * 10) << i;
  }
}

TEST(BPlusTreeTest, ReverseAndZigZagInserts) {
  BPlusTree tree;
  for (uint64_t i = 1000; i-- > 0;) {
    tree.Insert(i, i);
  }
  EXPECT_TRUE(tree.CheckInvariants());
  BPlusTree zigzag;
  for (uint64_t i = 0; i < 500; ++i) {
    zigzag.Insert(i, i);
    zigzag.Insert(10000 - i, i);
  }
  EXPECT_TRUE(zigzag.CheckInvariants());
  EXPECT_EQ(zigzag.size(), 1000u);
}

TEST(BPlusTreeTest, EraseRemovesKeys) {
  BPlusTree tree;
  for (uint64_t i = 0; i < 200; ++i) {
    tree.Insert(i, i * 7);
  }
  for (uint64_t i = 0; i < 200; i += 2) {
    EXPECT_EQ(tree.Erase(i), std::optional<uint64_t>(i * 7));  // The removed value.
  }
  EXPECT_EQ(tree.Erase(0), std::nullopt);  // Already gone.
  EXPECT_EQ(tree.Erase(1000), std::nullopt);  // Never present.
  EXPECT_EQ(tree.size(), 100u);
  for (uint64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(tree.Lookup(i).has_value(), i % 2 == 1);
  }
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BPlusTreeTest, ForEachVisitsInOrder) {
  BPlusTree tree;
  Rng rng(1);
  std::map<uint64_t, uint64_t> ref;
  for (int i = 0; i < 500; ++i) {
    const uint64_t k = rng.NextBelow(100000);
    ref[k] = static_cast<uint64_t>(i);
    tree.Insert(k, static_cast<uint64_t>(i));
  }
  auto it = ref.begin();
  tree.ForEach([&](uint64_t k, uint64_t v) {
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  });
  EXPECT_EQ(it, ref.end());
}

TEST(BPlusTreeTest, BulkLoadMatchesContents) {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  for (uint64_t i = 0; i < 5000; ++i) {
    pairs.emplace_back(i * 3, i);
  }
  BPlusTree tree = BPlusTree::BulkLoad(pairs);
  EXPECT_EQ(tree.size(), pairs.size());
  EXPECT_TRUE(tree.CheckInvariants());
  for (const auto& [k, v] : pairs) {
    ASSERT_EQ(tree.Lookup(k).value(), v);
  }
  EXPECT_FALSE(tree.Lookup(1).has_value());
}

TEST(BPlusTreeTest, BulkLoadEmptyAndSingle) {
  BPlusTree empty = BPlusTree::BulkLoad({});
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty.CheckInvariants());
  BPlusTree one = BPlusTree::BulkLoad({{9, 90}});
  EXPECT_EQ(one.Lookup(9).value(), 90u);
  EXPECT_TRUE(one.CheckInvariants());
}

// How a view's map is rebuilt (reopen, activation, rollback): assigning a bulk-loaded
// tree drops every old entry, and the result takes scalar and batched updates.
TEST(BPlusTreeTest, BulkLoadAssignmentReplacesContents) {
  BPlusTree tree;
  for (uint64_t k = 0; k < 1000; ++k) {
    tree.Insert(k * 2 + 1, k);
  }
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  for (uint64_t k = 0; k < 500; ++k) {
    pairs.emplace_back(k * 4, k + 7);
  }
  tree = BPlusTree::BulkLoad(pairs);
  EXPECT_EQ(tree.ToSortedVector(), pairs);
  EXPECT_FALSE(tree.Lookup(1).has_value());
  EXPECT_TRUE(tree.Insert(1, 11));
  const std::vector<std::pair<uint64_t, uint64_t>> batch = {{4, 44}, {3, 33}, {4, 45}};
  EXPECT_EQ(tree.InsertBatch(batch), 1u);
  EXPECT_EQ(tree.Lookup(4).value(), 45u);
  EXPECT_EQ(tree.size(), pairs.size() + 2);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BPlusTreeTest, BulkLoadIsMoreCompactThanRandomInserts) {
  // The Table 3 effect: an organically grown tree is fragmented; a bulk-loaded tree with
  // identical content packs its nodes full.
  Rng rng(2);
  BPlusTree grown;
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  std::map<uint64_t, uint64_t> ref;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t k = rng.NextBelow(1u << 30);
    ref[k] = k + 1;
    grown.Insert(k, k + 1);
  }
  pairs.assign(ref.begin(), ref.end());
  BPlusTree packed = BPlusTree::BulkLoad(pairs);
  EXPECT_EQ(packed.size(), grown.size());
  EXPECT_LT(packed.MemoryBytes(), grown.MemoryBytes());
  EXPECT_TRUE(packed.CheckInvariants());
}

TEST(BPlusTreeTest, RandomizedAgainstStdMap) {
  Rng rng(3);
  BPlusTree tree;
  std::map<uint64_t, uint64_t> ref;
  for (int i = 0; i < 30000; ++i) {
    const uint64_t k = rng.NextBelow(5000);
    const int action = static_cast<int>(rng.NextBelow(3));
    if (action == 0) {
      const bool inserted = tree.Insert(k, static_cast<uint64_t>(i));
      EXPECT_EQ(inserted, !ref.contains(k));
      ref[k] = static_cast<uint64_t>(i);
    } else if (action == 1) {
      EXPECT_EQ(tree.Erase(k), RefValue(ref, k));
      ref.erase(k);
    } else {
      const auto got = tree.Lookup(k);
      const auto it = ref.find(k);
      EXPECT_EQ(got.has_value(), it != ref.end());
      if (got.has_value() && it != ref.end()) {
        EXPECT_EQ(*got, it->second);
      }
    }
  }
  EXPECT_EQ(tree.size(), ref.size());
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(BPlusTreeTest, MoveTransfersOwnership) {
  BPlusTree a;
  a.Insert(1, 10);
  BPlusTree b = std::move(a);
  EXPECT_EQ(b.Lookup(1).value(), 10u);
  BPlusTree c;
  c = std::move(b);
  EXPECT_EQ(c.Lookup(1).value(), 10u);
  EXPECT_EQ(c.size(), 1u);
}

TEST(BPlusTreeTest, BoundaryKeys) {
  BPlusTree tree;
  tree.Insert(0, 1);
  tree.Insert(~uint64_t{0}, 2);
  EXPECT_EQ(tree.Lookup(0).value(), 1u);
  EXPECT_EQ(tree.Lookup(~uint64_t{0}).value(), 2u);
  EXPECT_TRUE(tree.CheckInvariants());

  // Ascending batches that run up to the largest key on the rightmost path of a
  // multi-level tree, where ~0 is also the memoized descent's "no bound" value: first
  // overwriting ~0, then inserting ~0 - 1 and ~0 afresh at the end of the batch.
  constexpr uint64_t kMax = ~uint64_t{0};
  std::map<uint64_t, uint64_t> ref = {{0, 1}, {kMax, 2}};
  for (uint64_t k = 0; k < 2000; ++k) {
    tree.Insert(kMax - 4000 + 2 * k, k);
    ref[kMax - 4000 + 2 * k] = k;
  }
  for (int round = 0; round < 2; ++round) {
    if (round == 1) {
      for (const uint64_t key : {kMax - 1, kMax}) {
        EXPECT_EQ(tree.Erase(key), RefValue(ref, key));
        ref.erase(key);
      }
    }
    std::vector<std::pair<uint64_t, uint64_t>> batch;
    size_t want_fresh = 0;
    for (uint64_t key = kMax - 40; key != 0; ++key) {  // Ends after kMax wraps to 0.
      batch.emplace_back(key, key + static_cast<uint64_t>(round));
      want_fresh += ref.contains(key) ? 0 : 1;
    }
    EXPECT_EQ(tree.InsertBatch(batch), want_fresh);
    for (const auto& [key, value] : batch) {
      ref[key] = value;
    }
    ASSERT_TRUE(tree.CheckInvariants());
    const std::vector<std::pair<uint64_t, uint64_t>> want(ref.begin(), ref.end());
    EXPECT_EQ(tree.ToSortedVector(), want);
  }
}

// Insert() is a one-entry batch, so this checks the memoized descent and run splicing of
// multi-entry batches against one-at-a-time inserts.
TEST(BPlusTreeTest, InsertBatchMatchesScalarInserts) {
  BPlusTree batched;
  BPlusTree scalar;
  std::map<uint64_t, uint64_t> ref;
  Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    const size_t batch = 1 + rng.Next() % 64;
    std::vector<std::pair<uint64_t, uint64_t>> entries;
    // Random keys, ascending runs and descending runs, so the memoized descent both
    // continues and restarts.
    const uint64_t start = rng.Next() % 4096;
    for (size_t i = 0; i < batch; ++i) {
      uint64_t key = rng.Next() % 4096;
      if (round % 3 == 1) {
        key = (start + i) % 4096;
      } else if (round % 3 == 2) {
        key = (start + 4096 - i) % 4096;
      }
      entries.emplace_back(key, rng.Next());
    }
    std::vector<std::optional<uint64_t>> old_values;
    const size_t fresh = batched.InsertBatch(entries, &old_values);

    size_t scalar_fresh = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      auto it = ref.find(entries[i].first);
      if (it == ref.end()) {
        ++scalar_fresh;
        EXPECT_FALSE(old_values[i].has_value());
      } else {
        ASSERT_TRUE(old_values[i].has_value());
        EXPECT_EQ(*old_values[i], it->second);
      }
      scalar.Insert(entries[i].first, entries[i].second);
      ref[entries[i].first] = entries[i].second;
    }
    ASSERT_EQ(fresh, scalar_fresh);
    ASSERT_EQ(batched.size(), ref.size());
    ASSERT_TRUE(batched.CheckInvariants());
    // Same node layout as the scalar inserts, not just the same contents.
    ASSERT_EQ(batched.LeafNodeCount(), scalar.LeafNodeCount()) << "round " << round;
    ASSERT_EQ(batched.InternalNodeCount(), scalar.InternalNodeCount()) << "round " << round;
    ASSERT_EQ(batched.MemoryBytes(), scalar.MemoryBytes()) << "round " << round;
  }
  EXPECT_EQ(batched.ToSortedVector(), scalar.ToSortedVector());
  for (const auto& [key, value] : ref) {
    ASSERT_EQ(batched.Lookup(key).value(), value) << key;
  }
}

TEST(BPlusTreeTest, InsertBatchDuplicateKeysResolveInSubmissionOrder) {
  BPlusTree tree;
  tree.Insert(5, 50);
  std::vector<std::pair<uint64_t, uint64_t>> entries = {
      {5, 51}, {9, 90}, {5, 52}, {9, 91}, {5, 53}};
  std::vector<std::optional<uint64_t>> old_values;
  EXPECT_EQ(tree.InsertBatch(entries, &old_values), 1u);  // Only key 9 is new.
  ASSERT_EQ(old_values.size(), 5u);
  EXPECT_EQ(old_values[0].value(), 50u);  // Pre-batch value.
  EXPECT_FALSE(old_values[1].has_value());
  EXPECT_EQ(old_values[2].value(), 51u);  // Sees the earlier duplicate's write.
  EXPECT_EQ(old_values[3].value(), 90u);
  EXPECT_EQ(old_values[4].value(), 52u);
  EXPECT_EQ(tree.Lookup(5).value(), 53u);
  EXPECT_EQ(tree.Lookup(9).value(), 91u);
  EXPECT_EQ(tree.size(), 2u);
}

TEST(BPlusTreeTest, InsertBatchAfterErasesAndClears) {
  // Interleave batches with erases (which leave underfull/empty leaves behind) and
  // Clear() (which recycles the whole arena) to fuzz the batch descent over fragmented
  // and recycled trees.
  BPlusTree tree;
  std::map<uint64_t, uint64_t> ref;
  Rng rng(11);
  for (int round = 0; round < 120; ++round) {
    const int action = static_cast<int>(rng.Next() % 10);
    if (action < 6) {
      std::vector<std::pair<uint64_t, uint64_t>> entries;
      const size_t batch = 1 + rng.Next() % 96;
      for (size_t i = 0; i < batch; ++i) {
        entries.emplace_back(rng.Next() % 2048, rng.Next());
      }
      tree.InsertBatch(entries);
      for (const auto& [key, value] : entries) {
        ref[key] = value;
      }
    } else if (action < 9) {
      for (int i = 0; i < 40; ++i) {
        const uint64_t key = rng.Next() % 2048;
        EXPECT_EQ(tree.Erase(key), RefValue(ref, key));
        ref.erase(key);
      }
    } else {
      tree.Clear();
      ref.clear();
    }
    ASSERT_EQ(tree.size(), ref.size());
    ASSERT_TRUE(tree.CheckInvariants());
  }
  const auto pairs = tree.ToSortedVector();
  ASSERT_EQ(pairs.size(), ref.size());
  EXPECT_TRUE(std::equal(pairs.begin(), pairs.end(), ref.begin(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first && a.second == b.second;
                         }));
}

TEST(BPlusTreeTest, InsertBatchEmptyAndSingle) {
  BPlusTree tree;
  std::vector<std::optional<uint64_t>> old_values = {std::nullopt};
  EXPECT_EQ(tree.InsertBatch({}, &old_values), 0u);
  EXPECT_TRUE(old_values.empty());

  const std::vector<std::pair<uint64_t, uint64_t>> one = {{3, 30}};
  EXPECT_EQ(tree.InsertBatch(one), 1u);
  EXPECT_EQ(tree.Lookup(3).value(), 30u);
}

TEST(BPlusTreeTest, ArenaRecyclesFreedNodes) {
  // Fill, Clear() and refill: the refill rebuilds the first generation's layout in the
  // recycled arena, so the node-count footprint (MemoryBytes) comes out the same.
  BPlusTree tree;
  for (uint64_t i = 0; i < 5000; ++i) {
    tree.Insert(i, i);
  }
  const size_t first_bytes = tree.MemoryBytes();
  tree.Clear();
  for (uint64_t i = 0; i < 5000; ++i) {
    tree.Insert(i, i);
  }
  EXPECT_EQ(tree.MemoryBytes(), first_bytes);
  EXPECT_TRUE(tree.CheckInvariants());
}

enum class KeyPattern { kRandom, kAscendingRuns, kDescendingRuns };

// Drives one fixed-seed stream of rounds of 1-64 keys into a tree, either through
// Insert() one key at a time or through InsertBatch() with old_values, with erases
// interleaved (scattered keys, and now and then a run of 256 keys, which empties whole
// leaves). Folds every call's result and, after each round, the tree's shape counters
// into an FNV-1a digest; the final contents go in last.
uint64_t LayoutDigest(KeyPattern pattern, bool batched) {
  constexpr uint64_t kKeySpace = 1 << 16;
  Rng rng(41 + static_cast<uint64_t>(pattern));
  BPlusTree tree;
  uint64_t digest = 0xcbf29ce484222325ULL;
  const auto fold = [&digest](uint64_t v) { digest = (digest ^ v) * 0x100000001b3ULL; };
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  std::vector<std::optional<uint64_t>> old_values;
  for (int round = 0; round < 3000; ++round) {
    const size_t batch = 1 + rng.Next() % 64;
    const uint64_t start = rng.Next() % kKeySpace;
    entries.clear();
    for (size_t i = 0; i < batch; ++i) {
      uint64_t key = rng.Next() % kKeySpace;
      if (pattern == KeyPattern::kAscendingRuns) {
        key = (start + i) % kKeySpace;
      } else if (pattern == KeyPattern::kDescendingRuns) {
        key = (start + kKeySpace - i) % kKeySpace;
      }
      entries.emplace_back(key, rng.Next());
    }
    if (batched) {
      fold(tree.InsertBatch(entries, &old_values));
      for (const std::optional<uint64_t>& old : old_values) {
        fold(old.has_value() ? 1 : 0);
        fold(old.value_or(0));
      }
    } else {
      for (const auto& [key, value] : entries) {
        fold(tree.Insert(key, value) ? 1 : 0);
      }
    }
    if (round % 4 == 3) {
      for (int i = 0; i < 16; ++i) {
        fold(tree.Erase(rng.Next() % kKeySpace) ? 1 : 0);
      }
    }
    if (round % 250 == 249) {
      const uint64_t from = rng.Next() % (kKeySpace - 256);
      for (uint64_t key = from; key < from + 256; ++key) {
        fold(tree.Erase(key) ? 1 : 0);
      }
    }
    fold(tree.size());
    fold(tree.LeafNodeCount());
    fold(tree.InternalNodeCount());
    fold(static_cast<uint64_t>(tree.Height()));
    fold(tree.MemoryBytes());
  }
  EXPECT_TRUE(tree.CheckInvariants());
  tree.ForEach([&fold](uint64_t key, uint64_t value) {
    fold(key);
    fold(value);
  });
  return digest;
}

// Pins the node layout that inserts build, against history rather than against a second
// insert routine in the same binary: split points, separator placement and root growth
// all move size, node counts, height or MemoryBytes (Table 3's figure) at some round.
TEST(BPlusTreeTest, LayoutMatchesPinnedDigest) {
  struct Pinned {
    KeyPattern pattern;
    bool batched;
    uint64_t digest;
  };
  const Pinned kPinned[] = {
      {KeyPattern::kRandom, false, 0x9df1b2e2b19969b7ULL},
      {KeyPattern::kRandom, true, 0x0275880b0e7a34a1ULL},
      {KeyPattern::kAscendingRuns, false, 0x7c588a857fa9e79aULL},
      {KeyPattern::kAscendingRuns, true, 0x95ee73fdcae70f79ULL},
      {KeyPattern::kDescendingRuns, false, 0x49a01263c931e9bcULL},
      {KeyPattern::kDescendingRuns, true, 0x24069c1dd7bd6deaULL},
  };
  for (const Pinned& p : kPinned) {
    const uint64_t got = LayoutDigest(p.pattern, p.batched);
    EXPECT_EQ(got, p.digest) << "pattern " << static_cast<int>(p.pattern) << " batched "
                             << p.batched << ": got 0x" << std::hex << got;
  }
}

}  // namespace
}  // namespace iosnap
