#include "src/ftl/btree.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"

namespace iosnap {
namespace {

// In-node search. A node's keys strictly increase, so the number of keys <= key is
// std::upper_bound's index (the child that covers key) and the number of keys < key is
// std::lower_bound's (key's slot in a leaf). Counting has no data-dependent branch: all
// of a cold node's key loads are in flight at once, where a binary search waits for each
// probe's cache miss before it can pick the next one.
int CountLessEqual(const uint64_t* keys, int count, uint64_t key) {
  int n = 0;
  for (int i = 0; i < count; ++i) {
    n += keys[i] <= key ? 1 : 0;
  }
  return n;
}

int CountLess(const uint64_t* keys, int count, uint64_t key) {
  int n = 0;
  for (int i = 0; i < count; ++i) {
    n += keys[i] < key ? 1 : 0;
  }
  return n;
}

}  // namespace

BPlusTree::BPlusTree() { root_ = NewLeaf(); }

BPlusTree::BPlusTree(BPlusTree&& other) noexcept
    : arena_(std::move(other.arena_)),
      root_(other.root_),
      size_(other.size_),
      leaf_count_(other.leaf_count_),
      internal_count_(other.internal_count_) {
  other.root_ = nullptr;
  other.size_ = 0;
  other.leaf_count_ = 0;
  other.internal_count_ = 0;
}

BPlusTree& BPlusTree::operator=(BPlusTree&& other) noexcept {
  if (this != &other) {
    // Dropping the arena releases every node of the old tree wholesale.
    arena_ = std::move(other.arena_);
    root_ = other.root_;
    size_ = other.size_;
    leaf_count_ = other.leaf_count_;
    internal_count_ = other.internal_count_;
    other.root_ = nullptr;
    other.size_ = 0;
    other.leaf_count_ = 0;
    other.internal_count_ = 0;
  }
  return *this;
}

void BPlusTree::Clear() {
  arena_.Reset();
  size_ = 0;
  leaf_count_ = 0;
  internal_count_ = 0;
  root_ = NewLeaf();
}

BPlusTree::LeafNode* BPlusTree::FindLeaf(uint64_t key) const {
  Node* node = root_;
  while (!node->is_leaf) {
    const auto* internal = static_cast<const InternalNode*>(node);
    node = internal->children[CountLessEqual(internal->keys, internal->count, key)];
  }
  return static_cast<LeafNode*>(node);
}

std::optional<uint64_t> BPlusTree::Lookup(uint64_t key) const {
  const LeafNode* leaf = FindLeaf(key);
  const int pos = CountLess(leaf->keys, leaf->count, key);
  if (pos < leaf->count && leaf->keys[pos] == key) {
    return leaf->values[pos];
  }
  return std::nullopt;
}

bool BPlusTree::InsertRec(Node* node, uint64_t key, uint64_t value, uint64_t* split_key,
                          Node** new_node) {
  *new_node = nullptr;
  if (node->is_leaf) {
    auto* leaf = static_cast<LeafNode*>(node);
    const int pos = CountLess(leaf->keys, leaf->count, key);
    if (pos < leaf->count && leaf->keys[pos] == key) {
      leaf->values[pos] = value;  // In-place overwrite: the common FTL remap.
      return false;
    }
    for (int i = leaf->count; i > pos; --i) {
      leaf->keys[i] = leaf->keys[i - 1];
      leaf->values[i] = leaf->values[i - 1];
    }
    leaf->keys[pos] = key;
    leaf->values[pos] = value;
    ++leaf->count;
    ++size_;

    if (leaf->count > kCapacity) {
      auto* right = NewLeaf();
      const int move = leaf->count / 2;
      const int keep = leaf->count - move;
      for (int i = 0; i < move; ++i) {
        right->keys[i] = leaf->keys[keep + i];
        right->values[i] = leaf->values[keep + i];
      }
      right->count = move;
      leaf->count = keep;
      right->next = leaf->next;
      leaf->next = right;
      *split_key = right->keys[0];
      *new_node = right;
    }
    return true;
  }

  auto* internal = static_cast<InternalNode*>(node);
  const int child_index = CountLessEqual(internal->keys, internal->count, key);

  uint64_t child_split_key = 0;
  Node* child_new = nullptr;
  const bool inserted =
      InsertRec(internal->children[child_index], key, value, &child_split_key, &child_new);

  if (child_new != nullptr) {
    // Insert separator child_split_key and the new right child after child_index.
    for (int i = internal->count; i > child_index; --i) {
      internal->keys[i] = internal->keys[i - 1];
      internal->children[i + 1] = internal->children[i];
    }
    internal->keys[child_index] = child_split_key;
    internal->children[child_index + 1] = child_new;
    ++internal->count;

    if (internal->count > kCapacity) {
      auto* right = NewInternal();
      // Promote the middle separator; left keeps [0, mid), right takes (mid, count).
      const int mid = internal->count / 2;
      *split_key = internal->keys[mid];
      const int move = internal->count - mid - 1;
      for (int i = 0; i < move; ++i) {
        right->keys[i] = internal->keys[mid + 1 + i];
        right->children[i] = internal->children[mid + 1 + i];
      }
      right->children[move] = internal->children[internal->count];
      right->count = move;
      internal->count = mid;
      *new_node = right;
    }
  }
  return inserted;
}

bool BPlusTree::Insert(uint64_t key, uint64_t value) {
  uint64_t split_key = 0;
  Node* new_node = nullptr;
  const bool inserted = InsertRec(root_, key, value, &split_key, &new_node);
  if (new_node != nullptr) {
    auto* new_root = NewInternal();
    new_root->keys[0] = split_key;
    new_root->children[0] = root_;
    new_root->children[1] = new_node;
    new_root->count = 1;
    root_ = new_root;
  }
  return inserted;
}

size_t BPlusTree::InsertBatch(std::span<const std::pair<uint64_t, uint64_t>> entries,
                              std::vector<std::optional<uint64_t>>* old_values) {
  if (old_values != nullptr) {
    old_values->assign(entries.size(), std::nullopt);
  }
  if (entries.empty()) {
    return 0;
  }
  if (entries.size() == 1) {
    // A batch of one is the scalar insert; skip the memoized-descent machinery.
    const uint64_t key = entries[0].first;
    const uint64_t value = entries[0].second;
    if (old_values != nullptr) {
      LeafNode* leaf = FindLeaf(key);
      const int pos = CountLess(leaf->keys, leaf->count, key);
      if (pos < leaf->count && leaf->keys[pos] == key) {
        (*old_values)[0] = leaf->values[pos];
        leaf->values[pos] = value;
        return 0;
      }
    }
    return Insert(key, value) ? 1 : 0;
  }
  // Entries apply in submission order, so splits happen exactly where entry-by-entry
  // Insert would put them and the tree's layout does not depend on the batching.
  //
  // Memoized descent: while keys ascend, consecutive keys usually land in the same
  // subtree. The path stack records, per level, the chosen child and the *effective*
  // upper separator bound (the tightest ancestor separator above it). A new key pops
  // only the suffix of levels whose range it has left, then re-descends from the
  // surviving ancestor — same-leaf keys cost one comparison, not a full descent.
  // Bounds nest (each child's effective bound <= its parent's), so checking the deepest
  // surviving entry is enough. The path tracks no lower bounds, so a key smaller than
  // its predecessor restarts the descent from the root.
  struct PathEntry {
    InternalNode* node;
    Node* child;
    uint64_t eff_hi;  // Valid iff has_hi; keys >= eff_hi have left this child's range.
    bool has_hi;
  };
  PathEntry path[64];
  int depth = 0;
  const auto find_leaf = [&](uint64_t key) -> LeafNode* {
    while (depth > 0 && path[depth - 1].has_hi && key >= path[depth - 1].eff_hi) {
      --depth;
    }
    Node* node = depth == 0 ? root_ : path[depth - 1].child;
    while (!node->is_leaf) {
      auto* internal = static_cast<InternalNode*>(node);
      const int ci = CountLessEqual(internal->keys, internal->count, key);
      PathEntry& e = path[depth];
      e.node = internal;
      e.child = internal->children[ci];
      if (ci < internal->count) {
        e.eff_hi = internal->keys[ci];
        e.has_hi = true;
      } else if (depth > 0) {
        e.eff_hi = path[depth - 1].eff_hi;
        e.has_hi = path[depth - 1].has_hi;
      } else {
        e.eff_hi = 0;
        e.has_hi = false;
      }
      ++depth;
      node = e.child;
    }
    return static_cast<LeafNode*>(node);
  };

  size_t inserted = 0;
  size_t i = 0;
  const size_t n = entries.size();
  while (i < n) {
    const auto [key, value] = entries[i];
    if (i > 0 && key < entries[i - 1].first) {
      depth = 0;
    }
    LeafNode* leaf = find_leaf(key);
    const int pos = CountLess(leaf->keys, leaf->count, key);
    if (pos < leaf->count && leaf->keys[pos] == key) {
      if (old_values != nullptr) {
        (*old_values)[i] = leaf->values[pos];
      }
      leaf->values[pos] = value;
      ++i;
      continue;
    }
    if (leaf->count >= kCapacity) {
      // Full leaf: insert the overflow entry, split, and push the separator up the
      // memoized path — the same midpoint math as InsertRec, without re-descending.
      // (The separator lands after the keys <= split_key, which is the split child's slot
      // because the child's keys all sit between its bracketing separators.)
      const size_t tail0 = static_cast<size_t>(leaf->count - pos);
      std::memmove(leaf->keys + pos + 1, leaf->keys + pos, tail0 * sizeof(uint64_t));
      std::memmove(leaf->values + pos + 1, leaf->values + pos, tail0 * sizeof(uint64_t));
      leaf->keys[pos] = key;
      leaf->values[pos] = value;
      ++leaf->count;
      ++size_;
      auto* right = NewLeaf();
      const int move = leaf->count / 2;
      const int keep = leaf->count - move;
      std::memcpy(right->keys, leaf->keys + keep, move * sizeof(uint64_t));
      std::memcpy(right->values, leaf->values + keep, move * sizeof(uint64_t));
      right->count = move;
      leaf->count = keep;
      right->next = leaf->next;
      leaf->next = right;
      uint64_t split_key = right->keys[0];
      Node* new_node = right;
      for (int lvl = depth - 1; lvl >= 0 && new_node != nullptr; --lvl) {
        InternalNode* internal = path[lvl].node;
        const int ci = CountLessEqual(internal->keys, internal->count, split_key);
        for (int j = internal->count; j > ci; --j) {
          internal->keys[j] = internal->keys[j - 1];
          internal->children[j + 1] = internal->children[j];
        }
        internal->keys[ci] = split_key;
        internal->children[ci + 1] = new_node;
        ++internal->count;
        if (internal->count > kCapacity) {
          auto* iright = NewInternal();
          const int mid = internal->count / 2;
          split_key = internal->keys[mid];
          const int imove = internal->count - mid - 1;
          for (int j = 0; j < imove; ++j) {
            iright->keys[j] = internal->keys[mid + 1 + j];
            iright->children[j] = internal->children[mid + 1 + j];
          }
          iright->children[imove] = internal->children[internal->count];
          iright->count = imove;
          internal->count = mid;
          new_node = iright;
        } else {
          new_node = nullptr;
        }
      }
      if (new_node != nullptr) {
        auto* new_root = NewInternal();
        new_root->keys[0] = split_key;
        new_root->children[0] = root_;
        new_root->children[1] = new_node;
        new_root->count = 1;
        root_ = new_root;
      }
      depth = 0;  // Splits restructured the path; rebuild for the next key.
      ++inserted;
      ++i;
      continue;
    }
    // Fresh key with room. Extend to the longest run of next batch keys that ascend
    // strictly, stay inside this leaf's separator range and this inter-key gap, and fit —
    // then splice the whole run in with one shift. This is where sequential LBA bursts
    // (the FTL's common case) collapse k per-key searches and shifts into one.
    const bool gap_bounded = pos < leaf->count;  // Run must stay below keys[pos]...
    const bool hi_bounded =                      // ...or below the leaf's separator.
        !gap_bounded && depth > 0 && path[depth - 1].has_hi;
    const uint64_t hi = hi_bounded ? path[depth - 1].eff_hi : 0;
    size_t run = 1;
    uint64_t prev_key = key;
    while (i + run < n && leaf->count + static_cast<int>(run) < kCapacity) {
      const uint64_t k = entries[i + run].first;
      if (k <= prev_key || (gap_bounded && k >= leaf->keys[pos]) ||
          (hi_bounded && k >= hi)) {
        break;
      }
      prev_key = k;
      ++run;
    }
    const size_t tail = static_cast<size_t>(leaf->count - pos);
    std::memmove(leaf->keys + pos + run, leaf->keys + pos, tail * sizeof(uint64_t));
    std::memmove(leaf->values + pos + run, leaf->values + pos, tail * sizeof(uint64_t));
    for (size_t r = 0; r < run; ++r) {
      leaf->keys[pos + r] = entries[i + r].first;
      leaf->values[pos + r] = entries[i + r].second;
    }
    leaf->count += static_cast<int>(run);
    size_ += run;
    inserted += run;
    i += run;
  }
  return inserted;
}

bool BPlusTree::Erase(uint64_t key) {
  LeafNode* leaf = FindLeaf(key);
  const int pos = CountLess(leaf->keys, leaf->count, key);
  if (pos == leaf->count || leaf->keys[pos] != key) {
    return false;
  }
  for (int i = pos; i < leaf->count - 1; ++i) {
    leaf->keys[i] = leaf->keys[i + 1];
    leaf->values[i] = leaf->values[i + 1];
  }
  --leaf->count;
  --size_;
  return true;
}

std::vector<std::pair<uint64_t, uint64_t>> BPlusTree::ToSortedVector() const {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(size_);
  ForEach([&out](uint64_t k, uint64_t v) { out.emplace_back(k, v); });
  return out;
}

BPlusTree BPlusTree::BulkLoad(const std::vector<std::pair<uint64_t, uint64_t>>& sorted_pairs) {
  BPlusTree tree;
  if (sorted_pairs.empty()) {
    return tree;
  }
  // Recycle the default empty leaf.
  tree.arena_.Reset();
  tree.root_ = nullptr;
  tree.leaf_count_ = 0;

  // Build fully packed leaves.
  std::vector<Node*> level;
  std::vector<uint64_t> level_min_keys;
  LeafNode* prev = nullptr;
  size_t i = 0;
  while (i < sorted_pairs.size()) {
    auto* leaf = tree.NewLeaf();
    int n = 0;
    while (i < sorted_pairs.size() && n < kCapacity) {
      leaf->keys[n] = sorted_pairs[i].first;
      leaf->values[n] = sorted_pairs[i].second;
      ++n;
      ++i;
    }
    leaf->count = n;
    if (prev != nullptr) {
      prev->next = leaf;
    }
    prev = leaf;
    level.push_back(leaf);
    level_min_keys.push_back(leaf->keys[0]);
  }
  tree.size_ = sorted_pairs.size();

  // Build internal levels bottom-up, packing kCapacity+1 children per node.
  while (level.size() > 1) {
    std::vector<Node*> next_level;
    std::vector<uint64_t> next_min_keys;
    size_t j = 0;
    while (j < level.size()) {
      auto* internal = tree.NewInternal();
      size_t take = std::min<size_t>(kCapacity + 1, level.size() - j);
      // Avoid leaving a singleton group: a node with one child has no separator keys.
      if (level.size() - j - take == 1) {
        --take;
      }
      internal->children[0] = level[j];
      for (size_t c = 1; c < take; ++c) {
        internal->keys[c - 1] = level_min_keys[j + c];
        internal->children[c] = level[j + c];
      }
      internal->count = static_cast<int>(take) - 1;
      next_level.push_back(internal);
      next_min_keys.push_back(level_min_keys[j]);
      j += take;
    }
    level = std::move(next_level);
    level_min_keys = std::move(next_min_keys);
  }
  tree.root_ = level.front();
  return tree;
}

size_t BPlusTree::MemoryBytes() const {
  return leaf_count_ * sizeof(LeafNode) + internal_count_ * sizeof(InternalNode);
}

int BPlusTree::LeafDepth() const {
  int depth = 0;
  const Node* node = root_;
  while (!node->is_leaf) {
    node = static_cast<const InternalNode*>(node)->children[0];
    ++depth;
  }
  return depth;
}

int BPlusTree::Height() const { return LeafDepth() + 1; }

bool BPlusTree::CheckRec(const Node* node, __int128 lower, __int128 upper, int depth,
                         int leaf_depth) const {
  // Keys must be strictly increasing and within [lower, upper).
  for (int i = 0; i < node->count; ++i) {
    if (i > 0 && node->keys[i] <= node->keys[i - 1]) {
      return false;
    }
    const __int128 k = node->keys[i];
    if (k < lower || k >= upper) {
      return false;
    }
  }
  if (node->is_leaf) {
    return depth == leaf_depth;
  }
  const auto* internal = static_cast<const InternalNode*>(node);
  if (internal->count < 1 && root_ != node) {
    return false;
  }
  for (int i = 0; i <= internal->count; ++i) {
    const __int128 lo = (i == 0) ? lower : static_cast<__int128>(internal->keys[i - 1]);
    const __int128 hi = (i == internal->count) ? upper : static_cast<__int128>(internal->keys[i]);
    if (internal->children[i] == nullptr) {
      return false;
    }
    if (!CheckRec(internal->children[i], lo, hi, depth + 1, leaf_depth)) {
      return false;
    }
  }
  return true;
}

bool BPlusTree::CheckInvariants() const {
  if (root_ == nullptr) {
    return false;
  }
  const __int128 upper = (static_cast<__int128>(1) << 64);
  if (!CheckRec(root_, 0, upper, 0, LeafDepth())) {
    return false;
  }
  // Leaf chain must yield sorted keys and exactly size_ entries.
  uint64_t prev_key = 0;
  bool first = true;
  size_t seen = 0;
  bool ok = true;
  ForEach([&](uint64_t k, uint64_t) {
    if (!first && k <= prev_key) {
      ok = false;
    }
    prev_key = k;
    first = false;
    ++seen;
  });
  return ok && seen == size_;
}

}  // namespace iosnap
