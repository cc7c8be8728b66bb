// In-memory B+tree mapping uint64 keys to uint64 values.
//
// This is the FTL's forward map structure — "a variant of a B+tree, running in host
// memory" (§5.2.2). A custom tree (rather than std::map) matters for two reasons:
//   1. Table 3 of the paper measures forward-map *node memory*, contrasting a fragmented
//     incrementally-built tree against the compact tree produced by snapshot activation.
//     This implementation exposes node counts and byte footprints, and supports a packed
//     BulkLoad used by activation.
//   2. Point updates (LBA overwrites) replace the value in place with no structural
//     churn, matching FTL behaviour.
//
// Deletions (TRIM) remove keys without rebalancing; emptied leaves stay linked until the
// tree is rebuilt. This mirrors production FTL maps, which tolerate fragmentation on the
// hot path, and is precisely the fragmentation Table 3 observes.
//
// Nodes live in a slab arena with a pooled freelist: node allocation on the write path
// is a bump (or freelist pop) instead of a malloc, Clear() recycles every slab, and the
// whole map releases in O(slabs) at destruction. Node counts (and thus MemoryBytes(),
// Table 3) are unchanged by the allocator.

#ifndef SRC_FTL_BTREE_H_
#define SRC_FTL_BTREE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace iosnap {

class BPlusTree {
 public:
  BPlusTree();
  ~BPlusTree() = default;

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&& other) noexcept;
  BPlusTree& operator=(BPlusTree&& other) noexcept;

  // Inserts or overwrites. Returns true if the key was new.
  bool Insert(uint64_t key, uint64_t value);

  // Inserts or overwrites a batch, equivalent to calling Insert() entry by entry in
  // submission order (duplicate keys chain: a later duplicate overwrites the earlier
  // one's value). Returns the number of keys that were new. When `old_values` is
  // non-null it receives, per input entry, the value that entry replaced — nullopt when
  // the key was absent at that point.
  //
  // The batch is sorted, then applied with a memoized root-to-leaf path: consecutive
  // keys that stay inside the current subtree skip the descent, runs of ascending keys
  // landing in one leaf gap are spliced with a single shift, and leaf splits push their
  // separator up the memoized path instead of re-descending. Sequential LBA bursts —
  // the FTL's common case — approach one tree search per leaf rather than per key.
  size_t InsertBatch(std::span<const std::pair<uint64_t, uint64_t>> entries,
                     std::vector<std::optional<uint64_t>>* old_values = nullptr);

  // Returns the mapped value, if present.
  std::optional<uint64_t> Lookup(uint64_t key) const;

  // Removes a key. Returns true if it was present. No rebalancing (see file comment).
  bool Erase(uint64_t key);

  void Clear();

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // In-order visit of all (key, value) pairs. Templated so hot callers (activation,
  // space accounting) pay a direct call, not a std::function dispatch.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    // Leftmost leaf, then walk the chain.
    const Node* node = root_;
    while (!node->is_leaf) {
      node = static_cast<const InternalNode*>(node)->children[0];
    }
    for (const auto* leaf = static_cast<const LeafNode*>(node); leaf != nullptr;
         leaf = leaf->next) {
      for (int i = 0; i < leaf->count; ++i) {
        fn(leaf->keys[i], leaf->values[i]);
      }
    }
  }

  // Extracts all pairs in key order (snapshot diffing, archival).
  std::vector<std::pair<uint64_t, uint64_t>> ToSortedVector() const;

  // Builds a maximally packed tree from key-sorted unique pairs — the activation path.
  static BPlusTree BulkLoad(const std::vector<std::pair<uint64_t, uint64_t>>& sorted_pairs);

  // --- Introspection (Table 3) ---
  size_t LeafNodeCount() const { return leaf_count_; }
  size_t InternalNodeCount() const { return internal_count_; }
  size_t NodeCount() const { return leaf_count_ + internal_count_; }
  size_t MemoryBytes() const;
  int Height() const;

  // Verifies structural invariants (sorted keys, separator consistency, leaf chain).
  // Used by tests; returns false and stops at the first violation.
  bool CheckInvariants() const;

 private:
  // Maximum keys per node; nodes split when they would exceed this.
  static constexpr int kCapacity = 32;

  struct Node {
    bool is_leaf;
    int count = 0;  // Number of keys.
    // Room for one overflow entry before a split resolves it.
    uint64_t keys[kCapacity + 1];

    explicit Node(bool leaf) : is_leaf(leaf) {}
  };

  struct LeafNode : Node {
    uint64_t values[kCapacity + 1];
    LeafNode* next = nullptr;

    LeafNode() : Node(/*leaf=*/true) {}
  };

  struct InternalNode : Node {
    // children[i] covers keys < keys[i]; children[count] covers the rest.
    Node* children[kCapacity + 2] = {nullptr};

    InternalNode() : Node(/*leaf=*/false) {}
  };

  // Slab allocator for tree nodes. Every cell is sized for the larger node type so the
  // freelist is shared; nodes are trivially destructible, so freeing is a list push and
  // Reset() can recycle all slabs without walking the tree.
  class NodeArena {
   public:
    static constexpr size_t kCellBytes =
        sizeof(LeafNode) > sizeof(InternalNode) ? sizeof(LeafNode) : sizeof(InternalNode);
    static constexpr size_t kCellsPerSlab = 128;

    NodeArena() = default;
    NodeArena(NodeArena&& other) noexcept
        : slabs_(std::move(other.slabs_)), used_(other.used_), free_(other.free_) {
      other.slabs_.clear();
      other.used_ = 0;
      other.free_ = nullptr;
    }
    NodeArena& operator=(NodeArena&& other) noexcept {
      if (this != &other) {
        slabs_ = std::move(other.slabs_);
        used_ = other.used_;
        free_ = other.free_;
        other.slabs_.clear();
        other.used_ = 0;
        other.free_ = nullptr;
      }
      return *this;
    }

    void* Allocate() {
      if (free_ != nullptr) {
        FreeCell* cell = free_;
        free_ = cell->next;
        return cell;
      }
      const size_t slab = used_ / kCellsPerSlab;
      if (slab == slabs_.size()) {
        slabs_.push_back(std::make_unique<Cell[]>(kCellsPerSlab));
      }
      return &slabs_[slab][used_++ % kCellsPerSlab];
    }

    void Free(void* p) { free_ = new (p) FreeCell{free_}; }

    // Recycles every cell; keeps the slabs for reuse.
    void Reset() {
      used_ = 0;
      free_ = nullptr;
    }

   private:
    struct alignas(alignof(std::max_align_t)) Cell {
      unsigned char bytes[kCellBytes];
    };
    struct FreeCell {
      FreeCell* next;
    };

    std::vector<std::unique_ptr<Cell[]>> slabs_;
    size_t used_ = 0;     // Cells bump-allocated so far (freelist aside).
    FreeCell* free_ = nullptr;
  };

  LeafNode* NewLeaf() {
    ++leaf_count_;
    return new (arena_.Allocate()) LeafNode();
  }
  InternalNode* NewInternal() {
    ++internal_count_;
    return new (arena_.Allocate()) InternalNode();
  }

  LeafNode* FindLeaf(uint64_t key) const;
  // Recursive insert; on split, *split_key / *new_node describe the new right sibling.
  bool InsertRec(Node* node, uint64_t key, uint64_t value, uint64_t* split_key,
                 Node** new_node);
  bool CheckRec(const Node* node, __int128 lower, __int128 upper, int depth,
                int leaf_depth) const;
  int LeafDepth() const;

  NodeArena arena_;
  Node* root_ = nullptr;
  size_t size_ = 0;
  size_t leaf_count_ = 0;
  size_t internal_count_ = 0;
};

}  // namespace iosnap

#endif  // SRC_FTL_BTREE_H_
