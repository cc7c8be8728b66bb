#include "src/core/snapshot_tree.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace iosnap {
namespace {

TEST(SnapshotTreeTest, RootEpochExists) {
  SnapshotTree tree;
  EXPECT_TRUE(tree.EpochExists(kRootEpoch));
  EXPECT_EQ(tree.EpochCount(), 1u);
  EXPECT_EQ(tree.ParentOf(kRootEpoch), kNoEpoch);
}

TEST(SnapshotTreeTest, NewEpochsChain) {
  SnapshotTree tree;
  const uint32_t e1 = tree.NewEpoch(kRootEpoch);
  const uint32_t e2 = tree.NewEpoch(e1);
  EXPECT_EQ(e1, 1u);
  EXPECT_EQ(e2, 2u);
  EXPECT_EQ(tree.ParentOf(e2), e1);
  const std::vector<uint32_t> lineage = tree.Lineage(e2);
  EXPECT_EQ(lineage, (std::vector<uint32_t>{2, 1, 0}));
  EXPECT_TRUE(tree.InLineage(e2, kRootEpoch));
  EXPECT_TRUE(tree.InLineage(e2, e2));
  EXPECT_FALSE(tree.InLineage(e1, e2));
}

TEST(SnapshotTreeTest, ForkedLineagesAreDisjoint) {
  // The Figure 4 scenario: S1, S2, S4 on one path; activating S1 forks S3's branch.
  SnapshotTree tree;
  const uint32_t e1 = tree.NewEpoch(kRootEpoch);  // After S1 (froze epoch 0).
  const uint32_t e2 = tree.NewEpoch(e1);          // After S2 (froze epoch 1).
  const uint32_t e3 = tree.NewEpoch(kRootEpoch);  // Activation of S1 forks off epoch 0.
  EXPECT_TRUE(tree.InLineage(e3, kRootEpoch));
  EXPECT_FALSE(tree.InLineage(e3, e1));
  EXPECT_FALSE(tree.InLineage(e2, e3));
}

TEST(SnapshotTreeTest, SnapshotLifecycle) {
  SnapshotTree tree;
  const uint32_t s1 = tree.AddSnapshot(kRootEpoch, 100, "first");
  EXPECT_EQ(s1, 1u);
  EXPECT_TRUE(tree.Exists(s1));
  ASSERT_OK_AND_ASSIGN(SnapshotInfo info, tree.Get(s1));
  EXPECT_EQ(info.epoch, kRootEpoch);
  EXPECT_EQ(info.create_seq, 100u);
  EXPECT_EQ(info.name, "first");
  EXPECT_FALSE(info.deleted);

  EXPECT_OK(tree.MarkDeleted(s1));
  EXPECT_EQ(tree.MarkDeleted(s1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(tree.MarkDeleted(99).code(), StatusCode::kNotFound);
  EXPECT_TRUE(tree.LiveSnapshotIds().empty());
}

TEST(SnapshotTreeTest, LiveEpochsExcludeDeleted) {
  SnapshotTree tree;
  const uint32_t s1 = tree.AddSnapshot(kRootEpoch, 1, "a");
  const uint32_t e1 = tree.NewEpoch(kRootEpoch);
  tree.AddSnapshot(e1, 2, "b");
  tree.NewEpoch(e1);
  EXPECT_EQ(tree.LiveSnapshotEpochs(), (std::vector<uint32_t>{0, 1}));
  EXPECT_OK(tree.MarkDeleted(s1));
  EXPECT_EQ(tree.LiveSnapshotEpochs(), (std::vector<uint32_t>{1}));
}

TEST(SnapshotTreeTest, SnapshotDepthCountsLiveAncestors) {
  SnapshotTree tree;
  // Chain: S1 freezes e0; S2 freezes e1; S3 freezes e2.
  const uint32_t s1 = tree.AddSnapshot(kRootEpoch, 1, "s1");
  const uint32_t e1 = tree.NewEpoch(kRootEpoch);
  const uint32_t s2 = tree.AddSnapshot(e1, 2, "s2");
  const uint32_t e2 = tree.NewEpoch(e1);
  const uint32_t s3 = tree.AddSnapshot(e2, 3, "s3");
  tree.NewEpoch(e2);
  EXPECT_EQ(tree.SnapshotDepth(s1), 0);
  EXPECT_EQ(tree.SnapshotDepth(s2), 1);
  EXPECT_EQ(tree.SnapshotDepth(s3), 2);
  EXPECT_OK(tree.MarkDeleted(s2));
  EXPECT_EQ(tree.SnapshotDepth(s3), 1);
}

TEST(SnapshotTreeTest, SerializeRoundTrip) {
  SnapshotTree tree;
  tree.AddSnapshot(kRootEpoch, 10, "alpha");
  const uint32_t e1 = tree.NewEpoch(kRootEpoch);
  const uint32_t s2 = tree.AddSnapshot(e1, 20, "beta");
  tree.NewEpoch(e1);
  EXPECT_OK(tree.MarkDeleted(s2));

  std::vector<uint8_t> bytes;
  tree.SerializeTo(&bytes);
  size_t offset = 0;
  ASSERT_OK_AND_ASSIGN(SnapshotTree copy, SnapshotTree::Deserialize(bytes, &offset));
  EXPECT_EQ(offset, bytes.size());
  EXPECT_EQ(copy.EpochCount(), tree.EpochCount());
  EXPECT_EQ(copy.LiveSnapshotIds(), tree.LiveSnapshotIds());
  ASSERT_OK_AND_ASSIGN(SnapshotInfo beta, copy.Get(s2));
  EXPECT_TRUE(beta.deleted);
  EXPECT_EQ(beta.name, "beta");
  // New snapshot ids continue where the original left off (epoch 2 is still unfrozen).
  const uint32_t s3 = copy.AddSnapshot(2, 30, "gamma");
  EXPECT_EQ(s3, 3u);
}

TEST(SnapshotTreeTest, DeserializeRejectsGarbage) {
  std::vector<uint8_t> bytes = {1, 2, 3};
  size_t offset = 0;
  EXPECT_FALSE(SnapshotTree::Deserialize(bytes, &offset).ok());
}

// Tree summaries are untrusted bytes: a parent map that is not one tree under the root,
// or ids that NewEpoch/AddSnapshot would hand out again, is kDataLoss. (No test walks a
// rejected tree's lineage: a cyclic one never ends.)
TEST(SnapshotTreeTest, HostileParentMapsAreDataLoss) {
  const EncodedTree valid{{{0, kNoEpoch}, {1, 0}, {2, 1}, {3, 0}}, 4, {{1, 0}, {2, 1}}, 3};
  {
    size_t offset = 0;
    ASSERT_OK_AND_ASSIGN(SnapshotTree tree, SnapshotTree::Deserialize(valid.Bytes(), &offset));
    EXPECT_EQ(tree.Lineage(2), (std::vector<uint32_t>{2, 1, 0}));
  }
  const std::vector<std::pair<const char*, EncodedTree>> hostile = {
      {"root has a parent", {{{0, 3}, {3, 0}}, 4}},
      {"root is its own parent", {{{0, 0}}, 1}},
      {"dangling parent", {{{0, kNoEpoch}, {5, 9}}, 10}},
      {"two-epoch cycle", {{{0, kNoEpoch}, {5, 6}, {6, 5}}, 7}},
      {"self parent", {{{0, kNoEpoch}, {5, 5}}, 6}},
      {"cycle beside a rooted chain", {{{0, kNoEpoch}, {1, 0}, {5, 7}, {6, 5}, {7, 6}}, 8}},
      {"epoch listed twice", {{{0, kNoEpoch}, {1, 0}, {1, 0}}, 2}},
      {"next epoch reuses an id", {{{0, kNoEpoch}, {1, 0}}, 1}},
      {"epoch id kNoEpoch", {{{0, kNoEpoch}, {kNoEpoch, 0}}, 0}},
      {"snapshot listed twice", {{{0, kNoEpoch}, {1, 0}}, 2, {{1, 0}, {1, 1}}, 2}},
      {"epoch frozen twice", {{{0, kNoEpoch}, {1, 0}}, 2, {{1, 0}, {2, 0}}, 3}},
      {"next snapshot reuses an id", {{{0, kNoEpoch}, {1, 0}}, 2, {{1, 0}, {4, 1}}, 4}},
  };
  for (const auto& [what, tree] : hostile) {
    size_t offset = 0;
    EXPECT_EQ(SnapshotTree::Deserialize(tree.Bytes(), &offset).status().code(),
              StatusCode::kDataLoss)
        << what;
  }
}

TEST(SnapshotTreeTest, RestoreRebuildsDeterministically) {
  SnapshotTree tree;
  tree.RestoreEpoch(1, 0);
  tree.RestoreEpoch(2, 1);
  SnapshotInfo info;
  info.snap_id = 5;
  info.epoch = 1;
  info.create_seq = 50;
  tree.RestoreSnapshot(info);
  EXPECT_EQ(tree.Lineage(2), (std::vector<uint32_t>{2, 1, 0}));
  ASSERT_OK_AND_ASSIGN(SnapshotInfo got, tree.Get(5));
  EXPECT_EQ(got.epoch, 1u);
  // Next id continues beyond the restored one.
  EXPECT_EQ(tree.AddSnapshot(2, 60, ""), 6u);
}

}  // namespace
}  // namespace iosnap
