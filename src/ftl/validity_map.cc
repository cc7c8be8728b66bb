#include "src/ftl/validity_map.h"

#include <algorithm>
#include <unordered_set>

#include "src/common/logging.h"

namespace iosnap {

ValidityMap::ValidityMap(uint64_t total_pages, uint64_t chunk_bits, bool naive_full_copy,
                         uint64_t counter_range_pages)
    : total_pages_(total_pages),
      chunk_bits_(chunk_bits),
      naive_full_copy_(naive_full_copy),
      range_pages_(counter_range_pages != 0 ? counter_range_pages
                                            : std::max<uint64_t>(total_pages, 1)) {
  IOSNAP_CHECK(chunk_bits_ > 0);
  merged_count_.assign(NumRanges(), 0);
  range_dirty_.assign(NumRanges(), 0);
}

void ValidityMap::CreateEpoch(uint32_t epoch) {
  IOSNAP_CHECK(epochs_.find(epoch) == epochs_.end());
  epochs_.emplace(epoch, ChunkTable{});
  epoch_count_.emplace(epoch, std::vector<uint64_t>(NumRanges(), 0));
}

uint64_t ValidityMap::ForkEpoch(uint32_t child, uint32_t parent) {
  IOSNAP_CHECK(epochs_.find(child) == epochs_.end());
  auto parent_it = epochs_.find(parent);
  IOSNAP_CHECK(parent_it != epochs_.end());

  // A fork never changes the merged view or any plane: the child's chunks are either the
  // parent's own objects (CoW) or byte-identical copies of them (naive mode), so the OR
  // over distinct chunks is unchanged. Only registry refcounts and the child's per-epoch
  // counters (a copy of the parent's) need updating.
  epoch_count_.emplace(child, epoch_count_.at(parent));

  uint64_t copied_bytes = 0;
  if (naive_full_copy_) {
    // The paper's rejected design: a full private copy of every chunk per snapshot.
    ChunkTable table;
    for (const auto& [index, chunk] : parent_it->second) {
      auto copy = std::make_shared<Chunk>(*chunk);
      copy->owner_epoch = child;
      RegistryAddRef(index, copy.get());
      table.emplace(index, std::move(copy));
      copied_bytes += ChunkBytes();
      ++stats_.cow_chunk_copies;
      if (trace_ != nullptr) {
        trace_->Record(TraceEventType::kValidityCowChunk, trace_time_ns_, trace_time_ns_,
                       index, ChunkBytes(), child);
      }
    }
    stats_.cow_bytes_copied += copied_bytes;
    epochs_.emplace(child, std::move(table));
    return copied_bytes;
  }

  // CoW design: the child shares every chunk reference with the parent.
  for (const auto& [index, chunk] : parent_it->second) {
    RegistryAddRef(index, chunk.get());
  }
  epochs_.emplace(child, parent_it->second);
  return 0;
}

void ValidityMap::DropEpoch(uint32_t epoch) {
  auto it = epochs_.find(epoch);
  IOSNAP_CHECK(it != epochs_.end());
  // Drop registry references while the table still keeps the chunks alive: the last
  // reference to a chunk with live bits invalidates its plane and dirties the counter
  // ranges it overlaps (the merged view may shrink).
  for (const auto& [index, chunk] : it->second) {
    RegistryDropRef(index, chunk.get());
  }
  epochs_.erase(it);
  epoch_count_.erase(epoch);
}

bool ValidityMap::HasEpoch(uint32_t epoch) const { return epochs_.contains(epoch); }

std::vector<uint32_t> ValidityMap::Epochs() const {
  std::vector<uint32_t> out;
  out.reserve(epochs_.size());
  for (const auto& [epoch, table] : epochs_) {
    out.push_back(epoch);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ValidityMap::RegistryAddRef(uint64_t chunk_index, const Chunk* chunk) {
  // Adding a reference never changes the merged OR: a chunk entering the registry is
  // either already present (fork share), freshly zero-filled, or a byte-identical copy
  // of a chunk that remains referenced (CoW / naive fork). Planes stay valid.
  ++registry_[chunk_index].refs[chunk];
}

void ValidityMap::RegistryDropRef(uint64_t chunk_index, const Chunk* chunk) {
  auto reg_it = registry_.find(chunk_index);
  IOSNAP_CHECK(reg_it != registry_.end());
  RegistryEntry& entry = reg_it->second;
  auto ref_it = entry.refs.find(chunk);
  IOSNAP_CHECK(ref_it != entry.refs.end() && ref_it->second > 0);
  if (--ref_it->second > 0) {
    return;
  }
  entry.refs.erase(ref_it);
  // `chunk` is guaranteed alive here (callers drop refs before releasing the owning
  // shared_ptr). If it carried live bits, the merged view over this chunk may shrink:
  // invalidate the cached plane and lazily recount the overlapping ranges.
  if (chunk->bits.FindFirstSet(0) < chunk->bits.size()) {
    entry.plane_valid = false;
    MarkRangesDirty(chunk_index);
  }
  if (entry.refs.empty()) {
    registry_.erase(reg_it);
  }
}

void ValidityMap::MarkRangesDirty(uint64_t chunk_index) {
  const uint64_t first_page = chunk_index * chunk_bits_;
  const uint64_t last_page = std::min(first_page + chunk_bits_, total_pages_) - 1;
  for (uint64_t r = RangeOf(first_page); r <= RangeOf(last_page); ++r) {
    range_dirty_[r] = 1;
  }
}

bool ValidityMap::ScanChunksForBit(uint64_t chunk_index, uint64_t bit) const {
  auto reg_it = registry_.find(chunk_index);
  if (reg_it == registry_.end()) {
    return false;
  }
  for (const auto& [chunk, refs] : reg_it->second.refs) {
    if (chunk->bits.Test(bit)) {
      return true;
    }
  }
  return false;
}

bool ValidityMap::AnyChunkHasBit(uint64_t chunk_index, uint64_t bit) const {
  auto reg_it = registry_.find(chunk_index);
  if (reg_it == registry_.end()) {
    return false;
  }
  const RegistryEntry& entry = reg_it->second;
  if (entry.plane_valid) {
    return entry.plane.Test(bit);
  }
  for (const auto& [chunk, refs] : entry.refs) {
    if (chunk->bits.Test(bit)) {
      return true;
    }
  }
  return false;
}

void ValidityMap::RebuildPlane(RegistryEntry* entry) const {
  entry->plane = Bitmap(chunk_bits_);
  for (const auto& [chunk, refs] : entry->refs) {
    entry->plane.OrWith(chunk->bits);
    ++stats_.merge_chunk_visits;
  }
  entry->plane_valid = true;
  ++stats_.merge_plane_rebuilds;
}

ValidityMap::Chunk* ValidityMap::MutableChunk(uint32_t epoch, uint64_t chunk_index,
                                              bool create_if_absent, uint64_t* cow_bytes) {
  auto epoch_it = epochs_.find(epoch);
  IOSNAP_CHECK(epoch_it != epochs_.end());
  ChunkTable& table = epoch_it->second;

  auto chunk_it = table.find(chunk_index);
  if (chunk_it == table.end()) {
    if (!create_if_absent) {
      return nullptr;
    }
    auto chunk = std::make_shared<Chunk>();
    chunk->owner_epoch = epoch;
    chunk->bits = Bitmap(chunk_bits_);
    ++stats_.chunk_allocations;
    Chunk* raw = chunk.get();
    RegistryAddRef(chunk_index, raw);
    table.emplace(chunk_index, std::move(chunk));
    return raw;
  }

  ChunkRef& ref = chunk_it->second;
  if (ref.use_count() == 1) {
    // Exclusive: mutate in place; adopt ownership if inherited from a dropped epoch.
    ref->owner_epoch = epoch;
    return ref.get();
  }

  // Shared with at least one other epoch: copy-on-write. The old chunk remains
  // registered through its other epoch references and the copy is byte-identical, so
  // planes and counters are untouched by the swap itself.
  ChunkRef old_ref = ref;  // Keeps the original alive across the registry update.
  auto copy = std::make_shared<Chunk>(*old_ref);
  copy->owner_epoch = epoch;
  ref = std::move(copy);
  RegistryDropRef(chunk_index, old_ref.get());
  RegistryAddRef(chunk_index, ref.get());
  ++stats_.cow_chunk_copies;
  stats_.cow_bytes_copied += ChunkBytes();
  if (cow_bytes != nullptr) {
    *cow_bytes += ChunkBytes();
  }
  if (trace_ != nullptr) {
    trace_->Record(TraceEventType::kValidityCowChunk, trace_time_ns_, trace_time_ns_,
                   chunk_index, ChunkBytes(), epoch);
  }
  return ref.get();
}

uint64_t ValidityMap::SetValid(uint32_t epoch, uint64_t paddr) {
  IOSNAP_CHECK(paddr < total_pages_);
  const uint64_t ci = ChunkIndex(paddr);
  const uint64_t bit = BitInChunk(paddr);

  // Pre-mutation state drives the counter deltas: whether this epoch had the bit (epoch
  // counter) and whether any epoch had it (merged counter).
  const bool was_merged = AnyChunkHasBit(ci, bit);

  uint64_t cow_bytes = 0;
  Chunk* chunk = MutableChunk(epoch, ci, /*create_if_absent=*/true, &cow_bytes);
  const bool was_epoch = chunk->bits.Test(bit);
  chunk->bits.Set(bit);

  const uint64_t r = RangeOf(paddr);
  if (!was_epoch) {
    ++epoch_count_.at(epoch)[r];
  }
  if (!was_merged && !range_dirty_[r]) {
    ++merged_count_[r];
  }
  // A set bit always joins the OR: the cached plane can be updated in place.
  auto reg_it = registry_.find(ci);
  if (reg_it != registry_.end() && reg_it->second.plane_valid) {
    reg_it->second.plane.Set(bit);
  }
  return cow_bytes;
}

uint64_t ValidityMap::ClearValid(uint32_t epoch, uint64_t paddr) {
  IOSNAP_CHECK(paddr < total_pages_);
  const uint64_t ci = ChunkIndex(paddr);
  const uint64_t bit = BitInChunk(paddr);

  uint64_t cow_bytes = 0;
  Chunk* chunk = MutableChunk(epoch, ci, /*create_if_absent=*/false, &cow_bytes);
  if (chunk == nullptr) {
    return 0;  // Bit is implicitly clear.
  }
  const bool was_epoch = chunk->bits.Test(bit);
  chunk->bits.Clear(bit);
  if (!was_epoch) {
    return cow_bytes;  // No bit flipped; counters and planes are unchanged.
  }

  const uint64_t r = RangeOf(paddr);
  --epoch_count_.at(epoch)[r];
  // The bit may survive the merge through another epoch's chunk version. The cached
  // plane is stale for this decision (it still carries the old OR), so consult the
  // chunk objects directly.
  if (!ScanChunksForBit(ci, bit)) {
    if (!range_dirty_[r]) {
      --merged_count_[r];
    }
    auto reg_it = registry_.find(ci);
    if (reg_it != registry_.end() && reg_it->second.plane_valid) {
      reg_it->second.plane.Clear(bit);
    }
  }
  return cow_bytes;
}

void ValidityMap::ApplyBatch(uint32_t epoch, std::span<BitOp> ops) {
  if (ops.empty()) {
    return;
  }
  IOSNAP_CHECK(epochs_.contains(epoch));
  // Stable sort groups ops by chunk while preserving submission order within each chunk;
  // ops on different chunks touch disjoint state (no epoch or range can appear or vanish
  // mid-batch: a CoW leaves the old chunk referenced by its other epochs, so no
  // RegistryDropRef here ever retires live bits or dirties a range). Reordering across
  // chunks therefore cannot change any counter, plane, or per-op CoW charge.
  // The index tiebreak makes std::sort produce the stable order without stable_sort's
  // temporary buffer; `order` is reused across calls, so a small batch allocates nothing.
  std::vector<uint32_t>& order = batch_order_;
  order.resize(ops.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [this, &ops](uint32_t a, uint32_t b) {
    const uint64_t ca = ChunkIndex(ops[a].paddr);
    const uint64_t cb = ChunkIndex(ops[b].paddr);
    return ca < cb || (ca == cb && a < b);
  });
  std::vector<uint64_t>& epoch_counts = epoch_count_.at(epoch);

  size_t g = 0;
  while (g < order.size()) {
    const uint64_t ci = ChunkIndex(ops[order[g]].paddr);
    size_t g_end = g;
    while (g_end < order.size() && ChunkIndex(ops[order[g_end]].paddr) == ci) {
      ++g_end;
    }

    // Resolve this chunk once for the whole group. A leading clear resolves without
    // creating (clear on an absent chunk stays a no-op); the first set allocates if
    // still absent — the same allocation sequential calls would perform.
    Chunk* chunk = nullptr;
    bool resolved = false;            // MutableChunk(create=false) already consulted.
    RegistryEntry* entry = nullptr;   // Cached plane holder; stable once chunk exists.
    for (size_t k = g; k < g_end; ++k) {
      BitOp& op = ops[order[k]];
      IOSNAP_CHECK(op.paddr < total_pages_);
      const uint64_t bit = BitInChunk(op.paddr);
      const uint64_t r = RangeOf(op.paddr);
      if (op.set) {
        const bool was_merged = AnyChunkHasBit(ci, bit);
        if (chunk == nullptr) {
          chunk = MutableChunk(epoch, ci, /*create_if_absent=*/true, &op.cow_bytes);
          auto reg_it = registry_.find(ci);
          entry = reg_it != registry_.end() ? &reg_it->second : nullptr;
        }
        const bool was_epoch = chunk->bits.Test(bit);
        chunk->bits.Set(bit);
        if (!was_epoch) {
          ++epoch_counts[r];
        }
        if (!was_merged && !range_dirty_[r]) {
          ++merged_count_[r];
        }
        if (entry != nullptr && entry->plane_valid) {
          entry->plane.Set(bit);
        }
      } else {
        if (chunk == nullptr && !resolved) {
          chunk = MutableChunk(epoch, ci, /*create_if_absent=*/false, &op.cow_bytes);
          resolved = true;
          auto reg_it = registry_.find(ci);
          entry = reg_it != registry_.end() ? &reg_it->second : nullptr;
        }
        if (chunk == nullptr) {
          continue;  // Bit is implicitly clear.
        }
        const bool was_epoch = chunk->bits.Test(bit);
        chunk->bits.Clear(bit);
        if (!was_epoch) {
          continue;
        }
        --epoch_counts[r];
        if (!ScanChunksForBit(ci, bit)) {
          if (!range_dirty_[r]) {
            --merged_count_[r];
          }
          if (entry != nullptr && entry->plane_valid) {
            entry->plane.Clear(bit);
          }
        }
      }
    }
    g = g_end;
  }
}

uint64_t ValidityMap::SetValidBatch(uint32_t epoch, std::span<const uint64_t> paddrs) {
  std::vector<BitOp> ops;
  ops.reserve(paddrs.size());
  for (uint64_t paddr : paddrs) {
    ops.push_back(BitOp{paddr, /*set=*/true, 0});
  }
  ApplyBatch(epoch, ops);
  uint64_t total_cow = 0;
  for (const BitOp& op : ops) {
    total_cow += op.cow_bytes;
  }
  return total_cow;
}

bool ValidityMap::Test(uint32_t epoch, uint64_t paddr) const {
  IOSNAP_CHECK(paddr < total_pages_);
  auto epoch_it = epochs_.find(epoch);
  IOSNAP_CHECK(epoch_it != epochs_.end());
  auto chunk_it = epoch_it->second.find(ChunkIndex(paddr));
  if (chunk_it == epoch_it->second.end()) {
    return false;
  }
  return chunk_it->second->bits.Test(BitInChunk(paddr));
}

bool ValidityMap::TestAny(const std::vector<uint32_t>& epochs, uint64_t paddr) const {
  for (uint32_t epoch : epochs) {
    auto epoch_it = epochs_.find(epoch);
    if (epoch_it == epochs_.end()) {
      continue;
    }
    auto chunk_it = epoch_it->second.find(ChunkIndex(paddr));
    if (chunk_it != epoch_it->second.end() &&
        chunk_it->second->bits.Test(BitInChunk(paddr))) {
      return true;
    }
  }
  return false;
}

bool ValidityMap::MergedTest(uint64_t paddr) const {
  IOSNAP_CHECK(paddr < total_pages_);
  auto reg_it = registry_.find(ChunkIndex(paddr));
  if (reg_it == registry_.end()) {
    return false;
  }
  RegistryEntry& entry = reg_it->second;
  if (!entry.plane_valid) {
    RebuildPlane(&entry);
  } else {
    ++stats_.merge_plane_hits;
  }
  return entry.plane.Test(BitInChunk(paddr));
}

Bitmap ValidityMap::MergedRange(const std::vector<uint32_t>& epochs, uint64_t begin,
                                uint64_t end) const {
  IOSNAP_CHECK(begin <= end && end <= total_pages_);
  Bitmap merged(end - begin);
  for (uint32_t epoch : epochs) {
    auto epoch_it = epochs_.find(epoch);
    if (epoch_it == epochs_.end()) {
      continue;  // Deleted epochs simply drop out of the merge (Fig 6C).
    }
    const ChunkTable& table = epoch_it->second;
    const uint64_t first_chunk = begin / chunk_bits_;
    const uint64_t last_chunk = (end == begin) ? first_chunk : (end - 1) / chunk_bits_;
    for (auto it = table.lower_bound(first_chunk); it != table.end() && it->first <= last_chunk;
         ++it) {
      ++stats_.merge_chunk_visits;
      const uint64_t chunk_base = it->first * chunk_bits_;
      const uint64_t lo = std::max(begin, chunk_base);
      const uint64_t hi = std::min(end, chunk_base + chunk_bits_);
      for (uint64_t p = lo; p < hi; ++p) {
        if (it->second->bits.Test(p - chunk_base)) {
          merged.Set(p - begin);
        }
      }
    }
  }
  return merged;
}

size_t ValidityMap::CountValidInRange(const std::vector<uint32_t>& epochs, uint64_t begin,
                                      uint64_t end) const {
  return MergedRange(epochs, begin, end).CountOnes();
}

size_t ValidityMap::CountValidInRange(uint32_t epoch, uint64_t begin, uint64_t end) const {
  return CountValidInRange(std::vector<uint32_t>{epoch}, begin, end);
}

uint64_t ValidityMap::RecountRange(uint64_t range_index) const {
  const uint64_t begin = range_index * range_pages_;
  const uint64_t end = std::min(begin + range_pages_, total_pages_);
  if (begin >= end) {
    return 0;
  }
  uint64_t count = 0;
  const uint64_t first_chunk = begin / chunk_bits_;
  const uint64_t last_chunk = (end - 1) / chunk_bits_;
  for (uint64_t ci = first_chunk; ci <= last_chunk; ++ci) {
    auto reg_it = registry_.find(ci);
    if (reg_it == registry_.end()) {
      continue;
    }
    RegistryEntry& entry = reg_it->second;
    if (!entry.plane_valid) {
      RebuildPlane(&entry);
    }
    const uint64_t chunk_base = ci * chunk_bits_;
    const uint64_t lo = std::max(begin, chunk_base) - chunk_base;
    const uint64_t hi = std::min(end, chunk_base + chunk_bits_) - chunk_base;
    count += entry.plane.CountOnesInRange(lo, hi);
  }
  ++stats_.range_recounts;
  return count;
}

uint64_t ValidityMap::MergedValidCount(uint64_t range_index) const {
  IOSNAP_CHECK(range_index < NumRanges());
  if (range_dirty_[range_index]) {
    merged_count_[range_index] = RecountRange(range_index);
    range_dirty_[range_index] = 0;
  }
  return merged_count_[range_index];
}

uint64_t ValidityMap::EpochValidCount(uint32_t epoch, uint64_t range_index) const {
  IOSNAP_CHECK(range_index < NumRanges());
  auto it = epoch_count_.find(epoch);
  if (it == epoch_count_.end()) {
    return 0;
  }
  return it->second[range_index];
}

bool ValidityMap::VerifyCounters() const {
  bool ok = true;

  // Per-epoch counters against a from-scratch recount of that epoch's chunks.
  for (const auto& [epoch, table] : epochs_) {
    std::vector<uint64_t> expect(NumRanges(), 0);
    for (const auto& [index, chunk] : table) {
      const uint64_t base = index * chunk_bits_;
      for (uint64_t bit = chunk->bits.FindFirstSet(0); bit < chunk->bits.size();
           bit = chunk->bits.FindFirstSet(bit + 1)) {
        ++expect[RangeOf(base + bit)];
      }
    }
    auto count_it = epoch_count_.find(epoch);
    if (count_it == epoch_count_.end() || count_it->second != expect) {
      IOSNAP_LOG(kError) << "[validity] VerifyCounters: epoch " << epoch << " per-range counts mismatch";
      ok = false;
    }
  }
  if (epoch_count_.size() != epochs_.size()) {
    IOSNAP_LOG(kError) << "[validity] VerifyCounters: stale per-epoch counter tables";
    ok = false;
  }

  // Registry against the epoch tables: every (index, chunk) pair with its multiplicity.
  std::unordered_map<uint64_t, std::unordered_map<const Chunk*, uint32_t>> expect_refs;
  for (const auto& [epoch, table] : epochs_) {
    for (const auto& [index, chunk] : table) {
      ++expect_refs[index][chunk.get()];
    }
  }
  if (expect_refs.size() != registry_.size()) {
    IOSNAP_LOG(kError) << "[validity] VerifyCounters: registry has " << registry_.size()
                       << " entries, expected " << expect_refs.size();
    ok = false;
  }
  for (const auto& [index, refs] : expect_refs) {
    auto reg_it = registry_.find(index);
    if (reg_it == registry_.end() || reg_it->second.refs != refs) {
      IOSNAP_LOG(kError) << "[validity] VerifyCounters: registry refs mismatch at chunk " << index;
      ok = false;
    }
  }

  // Valid planes against the OR of their distinct chunks.
  for (const auto& [index, entry] : registry_) {
    if (!entry.plane_valid) {
      continue;
    }
    Bitmap expect_plane(chunk_bits_);
    for (const auto& [chunk, refs] : entry.refs) {
      expect_plane.OrWith(chunk->bits);
    }
    if (!(entry.plane == expect_plane)) {
      IOSNAP_LOG(kError) << "[validity] VerifyCounters: stale merge plane at chunk " << index;
      ok = false;
    }
  }

  // Merged per-range counters against a registry-independent recount over all epochs.
  std::vector<uint32_t> all_epochs = Epochs();
  for (uint64_t r = 0; r < NumRanges(); ++r) {
    const uint64_t begin = r * range_pages_;
    const uint64_t end = std::min(begin + range_pages_, total_pages_);
    const uint64_t expect = CountValidInRange(all_epochs, begin, end);
    if (MergedValidCount(r) != expect) {
      IOSNAP_LOG(kError) << "[validity] VerifyCounters: range " << r << " merged count "
                         << merged_count_[r] << " != recount " << expect;
      ok = false;
    }
  }
  return ok;
}

uint64_t ValidityMap::MoveBit(const std::vector<uint32_t>& epochs, uint64_t from, uint64_t to) {
  uint64_t cow_bytes = 0;
  for (uint32_t epoch : epochs) {
    auto epoch_it = epochs_.find(epoch);
    if (epoch_it == epochs_.end()) {
      continue;
    }
    auto chunk_it = epoch_it->second.find(ChunkIndex(from));
    if (chunk_it == epoch_it->second.end() ||
        !chunk_it->second->bits.Test(BitInChunk(from))) {
      continue;
    }
    // Clear+Set via the counting paths keeps every counter and plane exact.
    cow_bytes += ClearValid(epoch, from);
    cow_bytes += SetValid(epoch, to);
  }
  return cow_bytes;
}

size_t ValidityMap::MemoryBytes() const {
  std::unordered_set<const Chunk*> seen;
  size_t bytes = 0;
  for (const auto& [epoch, table] : epochs_) {
    bytes += table.size() * (sizeof(uint64_t) + sizeof(ChunkRef) + 3 * sizeof(void*));
    for (const auto& [index, chunk] : table) {
      if (seen.insert(chunk.get()).second) {
        bytes += sizeof(Chunk) + chunk->bits.MemoryBytes();
      }
    }
  }
  return bytes;
}

size_t ValidityMap::DistinctChunkCount() const {
  std::unordered_set<const Chunk*> seen;
  for (const auto& [epoch, table] : epochs_) {
    for (const auto& [index, chunk] : table) {
      seen.insert(chunk.get());
    }
  }
  return seen.size();
}

bool ValidityMap::EpochReader::Test(uint64_t paddr) {
  IOSNAP_CHECK(paddr < map_.total_pages_);
  const uint64_t ci = map_.ChunkIndex(paddr);
  if (!cached_ || ci != cached_index_) {
    cached_ = true;
    cached_index_ = ci;
    cached_bits_ = nullptr;
    auto epoch_it = map_.epochs_.find(epoch_);
    IOSNAP_CHECK(epoch_it != map_.epochs_.end());
    auto chunk_it = epoch_it->second.find(ci);
    if (chunk_it != epoch_it->second.end()) {
      cached_bits_ = &chunk_it->second->bits;
    }
  }
  return cached_bits_ != nullptr && cached_bits_->Test(map_.BitInChunk(paddr));
}

}  // namespace iosnap
