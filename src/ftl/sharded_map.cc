#include "src/ftl/sharded_map.h"

#include <algorithm>

#include "src/common/logging.h"

namespace iosnap {

void ShardedMap::Configure(uint32_t num_shards, uint64_t key_span, WorkerPool* pool) {
  IOSNAP_CHECK(num_shards > 0);
  IOSNAP_CHECK(shards_.empty() || size() == 0);
  shards_.clear();
  shards_.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (num_shards == 1 || key_span == 0) {
    keys_per_shard_ = ~uint64_t{0};
  } else {
    keys_per_shard_ = std::max<uint64_t>(1, (key_span + num_shards - 1) / num_shards);
  }
  pool_ = pool;
}

bool ShardedMap::Insert(uint64_t key, uint64_t value) {
  return shards_[ShardOf(key)]->tree.Insert(key, value);
}

size_t ShardedMap::InsertBatch(std::span<const std::pair<uint64_t, uint64_t>> entries,
                               std::vector<std::optional<uint64_t>>* old_values) {
  if (shards_.size() == 1) {
    return shards_[0]->tree.InsertBatch(entries, old_values);
  }
  if (entries.size() == 1) {
    // A one-entry batch (a scalar write) touches one shard: skip the partitioning.
    Shard& shard = *shards_[ShardOf(entries[0].first)];
    std::lock_guard<std::mutex> lock(shard.mu);
    return shard.tree.InsertBatch(entries, old_values);
  }
  if (old_values != nullptr) {
    old_values->assign(entries.size(), std::nullopt);
  }
  if (entries.empty()) {
    return 0;
  }

  // Partition by shard, preserving submission order within each shard (duplicate keys
  // route identically, so per-shard order is all the ordering that matters).
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> shard_entries(shards_.size());
  std::vector<std::vector<size_t>> shard_index(shards_.size());
  std::vector<size_t> touched;
  for (size_t i = 0; i < entries.size(); ++i) {
    const size_t s = ShardOf(entries[i].first);
    if (shard_entries[s].empty()) {
      touched.push_back(s);
    }
    shard_entries[s].push_back(entries[i]);
    shard_index[s].push_back(i);
  }
  if (touched.size() == 1) {
    const size_t s = touched[0];
    std::lock_guard<std::mutex> lock(shards_[s]->mu);
    return shards_[s]->tree.InsertBatch(entries, old_values);
  }

  std::vector<size_t> inserted(touched.size(), 0);
  const auto apply_shard = [&](size_t t) {
    const size_t s = touched[t];
    Shard& shard = *shards_[s];
    std::vector<std::optional<uint64_t>> old_local;
    std::lock_guard<std::mutex> lock(shard.mu);
    inserted[t] = shard.tree.InsertBatch(shard_entries[s],
                                         old_values != nullptr ? &old_local : nullptr);
    if (old_values != nullptr) {
      // Scatter back by original index; ranges are disjoint across shards.
      for (size_t k = 0; k < old_local.size(); ++k) {
        (*old_values)[shard_index[s][k]] = old_local[k];
      }
    }
  };
  if (pool_ != nullptr && pool_->thread_count() > 0) {
    pool_->ParallelFor(touched.size(), apply_shard);
  } else {
    for (size_t t = 0; t < touched.size(); ++t) {
      apply_shard(t);
    }
  }
  size_t total = 0;
  for (size_t n : inserted) {
    total += n;
  }
  return total;
}

std::optional<uint64_t> ShardedMap::Lookup(uint64_t key) const {
  return shards_[ShardOf(key)]->tree.Lookup(key);
}

bool ShardedMap::Erase(uint64_t key) { return shards_[ShardOf(key)]->tree.Erase(key); }

void ShardedMap::Clear() {
  for (auto& shard : shards_) {
    shard->tree.Clear();
  }
}

size_t ShardedMap::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->tree.size();
  }
  return total;
}

std::vector<std::pair<uint64_t, uint64_t>> ShardedMap::ToSortedVector() const {
  if (shards_.size() == 1) {
    return shards_[0]->tree.ToSortedVector();
  }
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(size());
  ForEach([&out](uint64_t key, uint64_t value) { out.emplace_back(key, value); });
  return out;
}

void ShardedMap::BulkLoadReplace(
    const std::vector<std::pair<uint64_t, uint64_t>>& sorted_pairs) {
  if (shards_.size() == 1) {
    shards_[0]->tree = BPlusTree::BulkLoad(sorted_pairs);
    return;
  }
  size_t begin = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    size_t end = sorted_pairs.size();
    if (s + 1 < shards_.size()) {
      const uint64_t bound = (s + 1) * keys_per_shard_;
      end = static_cast<size_t>(
          std::lower_bound(sorted_pairs.begin() + begin, sorted_pairs.end(),
                           std::make_pair(bound, uint64_t{0})) -
          sorted_pairs.begin());
    }
    shards_[s]->tree = BPlusTree::BulkLoad(std::vector<std::pair<uint64_t, uint64_t>>(
        sorted_pairs.begin() + begin, sorted_pairs.begin() + end));
    begin = end;
  }
}

size_t ShardedMap::LeafNodeCount() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->tree.LeafNodeCount();
  }
  return total;
}

size_t ShardedMap::InternalNodeCount() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->tree.InternalNodeCount();
  }
  return total;
}

size_t ShardedMap::MemoryBytes() const {
  size_t total = 0;
  for (uint32_t s = 0; s < ShardCount(); ++s) {
    total += ShardMemoryBytes(s);
  }
  return total;
}

size_t ShardedMap::ShardMemoryBytes(uint32_t shard) const {
  IOSNAP_CHECK(shard < shards_.size());
  return shards_[shard]->tree.MemoryBytes();
}

size_t ShardedMap::ShardEntryCount(uint32_t shard) const {
  IOSNAP_CHECK(shard < shards_.size());
  return shards_[shard]->tree.size();
}

bool ShardedMap::CheckInvariants() const {
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s]->tree.CheckInvariants()) {
      return false;
    }
    bool routed_ok = true;
    shards_[s]->tree.ForEach([&](uint64_t key, uint64_t) {
      if (ShardOf(key) != s) {
        routed_ok = false;
      }
    });
    if (!routed_ok) {
      return false;
    }
  }
  return true;
}

}  // namespace iosnap
