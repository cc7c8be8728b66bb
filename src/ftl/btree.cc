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

size_t BPlusTree::InsertBatch(std::span<const std::pair<uint64_t, uint64_t>> entries,
                              std::vector<std::optional<uint64_t>>* old_values) {
  if (old_values != nullptr) {
    old_values->assign(entries.size(), std::nullopt);
  }
  // Entries apply in submission order, so splits happen exactly where one-entry batches
  // would put them and the tree's layout does not depend on how entries are grouped.
  //
  // Memoized descent: while keys ascend, consecutive keys usually land in the same
  // subtree. The path stack records, per level, the chosen child and the *effective*
  // upper separator bound (the tightest ancestor separator above it). A new key pops
  // only the suffix of levels whose range it has left, then re-descends from the
  // surviving ancestor — same-leaf keys cost one comparison, not a full descent.
  // Bounds nest (each child's effective bound <= its parent's), so checking the deepest
  // surviving entry is enough. The path tracks no lower bounds, so a key smaller than
  // its predecessor restarts the descent from the root. The rightmost spine has no upper
  // separator; kNoBound stands in for it, and the one key that compares >= to it (~0)
  // merely re-descends and ends its run early.
  constexpr uint64_t kNoBound = ~uint64_t{0};
  struct PathEntry {
    InternalNode* node;
    Node* child;
    uint64_t eff_hi;  // Keys >= eff_hi have left this child's range.
  };
  PathEntry path[64];
  int depth = 0;
  const auto find_leaf = [&](uint64_t key) -> LeafNode* {
    while (depth > 0 && key >= path[depth - 1].eff_hi) {
      --depth;
    }
    Node* node = depth == 0 ? root_ : path[depth - 1].child;
    while (!node->is_leaf) {
      auto* internal = static_cast<InternalNode*>(node);
      const int ci = CountLessEqual(internal->keys, internal->count, key);
      PathEntry& e = path[depth];
      e.node = internal;
      e.child = internal->children[ci];
      e.eff_hi = ci < internal->count ? internal->keys[ci]
                 : depth > 0          ? path[depth - 1].eff_hi
                                      : kNoBound;
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
    // Fresh key. Extend to the longest run of next batch keys that ascend strictly, stay
    // inside this leaf's separator range and this inter-key gap, and fit without a split
    // — then splice the whole run in with one shift. This is where sequential LBA bursts
    // (the FTL's common case) collapse k per-key searches and shifts into one. A full
    // leaf takes a run of one: its overflow entry.
    const uint64_t hi = pos < leaf->count ? leaf->keys[pos]
                        : depth > 0       ? path[depth - 1].eff_hi
                                          : kNoBound;
    size_t run = 1;
    uint64_t prev_key = key;
    while (i + run < n && leaf->count + static_cast<int>(run) < kCapacity) {
      const uint64_t k = entries[i + run].first;
      if (k <= prev_key || k >= hi) {
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
    if (leaf->count <= kCapacity) {
      continue;
    }
    // Overflow: move the upper half to a new right sibling and push the separator up the
    // memoized path without re-descending. An internal node that overflows promotes its
    // middle separator the same way, and a root that overflows grows the tree by one
    // level. (The separator lands after the keys <= split_key, which is the split child's
    // slot because the child's keys all sit between its bracketing separators.)
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
  }
  return inserted;
}

std::optional<uint64_t> BPlusTree::Erase(uint64_t key) {
  LeafNode* leaf = FindLeaf(key);
  const int pos = CountLess(leaf->keys, leaf->count, key);
  if (pos == leaf->count || leaf->keys[pos] != key) {
    return std::nullopt;
  }
  const uint64_t value = leaf->values[pos];
  for (int i = pos; i < leaf->count - 1; ++i) {
    leaf->keys[i] = leaf->keys[i + 1];
    leaf->values[i] = leaf->values[i + 1];
  }
  --leaf->count;
  --size_;
  return value;
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
