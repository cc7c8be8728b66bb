#include "src/ftl/validity_map.h"

#include <algorithm>
#include <map>

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
  num_chunks_ = (total_pages_ + chunk_bits_ - 1) / chunk_bits_;
  registry_.resize(num_chunks_);
  merged_count_.assign(NumRanges(), 0);
  range_dirty_.assign(NumRanges(), 0);
}

ValidityMap::EpochTable& ValidityMap::TableOf(uint32_t epoch) {
  auto it = epochs_.find(epoch);
  IOSNAP_CHECK(it != epochs_.end());
  return it->second;
}

const ValidityMap::EpochTable& ValidityMap::TableOf(uint32_t epoch) const {
  auto it = epochs_.find(epoch);
  IOSNAP_CHECK(it != epochs_.end());
  return it->second;
}

void ValidityMap::CreateEpoch(uint32_t epoch) {
  IOSNAP_CHECK(!epochs_.contains(epoch));
  epochs_.emplace(epoch, EpochTable{std::vector<ChunkRef>(num_chunks_),
                                    std::vector<uint64_t>(NumRanges(), 0)});
  epoch_ids_.insert(std::upper_bound(epoch_ids_.begin(), epoch_ids_.end(), epoch), epoch);
}

uint64_t ValidityMap::ForkEpoch(uint32_t child, uint32_t parent) {
  IOSNAP_CHECK(!epochs_.contains(child));
  const EpochTable& parent_table = TableOf(parent);

  // A fork never changes the merged view or any plane: the child's chunks are either the
  // parent's own objects (CoW) or byte-identical copies of them (naive mode), so the OR
  // over distinct chunks is unchanged. Only registry refcounts and the child's per-epoch
  // counters (a copy of the parent's) need updating.
  EpochTable table{parent_table.chunks, parent_table.counts};
  uint64_t copied_bytes = 0;
  for (uint64_t index = 0; index < num_chunks_; ++index) {
    ChunkRef& ref = table.chunks[index];
    if (ref == nullptr) {
      continue;
    }
    if (naive_full_copy_) {
      // The paper's rejected design: a full private copy of every chunk per snapshot.
      ref = std::make_shared<Chunk>(*ref);
      ref->owner_epoch = child;
      copied_bytes += ChunkBytes();
      ++stats_.cow_chunk_copies;
      if (trace_ != nullptr) {
        trace_->Record(TraceEventType::kValidityCowChunk, trace_time_ns_, trace_time_ns_,
                       index, ChunkBytes(), child);
      }
    }
    RegistryAddRef(index, ref.get());
  }
  stats_.cow_bytes_copied += copied_bytes;
  epochs_.emplace(child, std::move(table));
  epoch_ids_.insert(std::upper_bound(epoch_ids_.begin(), epoch_ids_.end(), child), child);
  return copied_bytes;
}

void ValidityMap::DropEpoch(uint32_t epoch) {
  auto it = epochs_.find(epoch);
  IOSNAP_CHECK(it != epochs_.end());
  // Drop registry references while the table still keeps the chunks alive: the last
  // reference to a chunk with live bits invalidates its plane and dirties the counter
  // ranges it overlaps (the merged view may shrink).
  const std::vector<ChunkRef>& chunks = it->second.chunks;
  for (uint64_t index = 0; index < num_chunks_; ++index) {
    if (chunks[index] != nullptr) {
      RegistryDropRef(index, chunks[index].get());
    }
  }
  epochs_.erase(it);
  epoch_ids_.erase(std::lower_bound(epoch_ids_.begin(), epoch_ids_.end(), epoch));
}

bool ValidityMap::HasEpoch(uint32_t epoch) const { return epochs_.contains(epoch); }

void ValidityMap::RegistryAddRef(uint64_t chunk_index, const Chunk* chunk) {
  // Adding a reference never changes the merged OR: a chunk entering the registry is
  // either already present (fork share), freshly zero-filled, or a byte-identical copy
  // of a chunk that remains referenced (CoW / naive fork). Planes stay valid.
  std::vector<std::pair<const Chunk*, uint32_t>>& refs = registry_[chunk_index].refs;
  for (auto& [known, count] : refs) {
    if (known == chunk) {
      ++count;
      return;
    }
  }
  refs.emplace_back(chunk, 1);
}

void ValidityMap::RegistryDropRef(uint64_t chunk_index, const Chunk* chunk) {
  RegistryEntry& entry = registry_[chunk_index];
  auto ref_it = std::find_if(entry.refs.begin(), entry.refs.end(),
                             [chunk](const auto& ref) { return ref.first == chunk; });
  IOSNAP_CHECK(ref_it != entry.refs.end() && ref_it->second > 0);
  if (--ref_it->second > 0) {
    return;
  }
  *ref_it = entry.refs.back();
  entry.refs.pop_back();
  // `chunk` is guaranteed alive here (callers drop refs before releasing the owning
  // shared_ptr). If it carried live bits, the merged view over this chunk may shrink:
  // invalidate the cached plane and lazily recount the overlapping ranges.
  if (chunk->bits.FindFirstSet(0) < chunk->bits.size()) {
    entry.plane_valid = false;
    MarkRangesDirty(chunk_index);
  }
  if (entry.refs.empty()) {
    entry.plane_valid = false;  // An index that gains a chunk again starts unplaned.
  }
}

void ValidityMap::MarkRangesDirty(uint64_t chunk_index) {
  const uint64_t first_page = chunk_index * chunk_bits_;
  const uint64_t last_page = std::min(first_page + chunk_bits_, total_pages_) - 1;
  for (uint64_t r = RangeOf(first_page); r <= RangeOf(last_page); ++r) {
    range_dirty_[r] = 1;
  }
}

bool ValidityMap::ScanChunksForBit(const RegistryEntry& entry, uint64_t bit) {
  for (const auto& [chunk, refs] : entry.refs) {
    if (chunk->bits.Test(bit)) {
      return true;
    }
  }
  return false;
}

bool ValidityMap::AnyChunkHasBit(const RegistryEntry& entry, uint64_t bit) {
  return entry.plane_valid ? entry.plane.Test(bit) : ScanChunksForBit(entry, bit);
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

ValidityMap::Chunk* ValidityMap::MutableChunk(uint32_t epoch, EpochTable* table,
                                              uint64_t chunk_index, bool create_if_absent,
                                              uint64_t* cow_bytes) {
  ChunkRef& ref = table->chunks[chunk_index];
  if (ref == nullptr) {
    if (!create_if_absent) {
      return nullptr;
    }
    ref = std::make_shared<Chunk>(Chunk{epoch, Bitmap(chunk_bits_)});
    ++stats_.chunk_allocations;
    RegistryAddRef(chunk_index, ref.get());
    return ref.get();
  }

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
  *cow_bytes += ChunkBytes();
  if (trace_ != nullptr) {
    trace_->Record(TraceEventType::kValidityCowChunk, trace_time_ns_, trace_time_ns_,
                   chunk_index, ChunkBytes(), epoch);
  }
  return ref.get();
}

uint64_t ValidityMap::SetBit(uint32_t epoch, EpochTable* table, uint64_t paddr) {
  IOSNAP_CHECK(paddr < total_pages_);
  const uint64_t ci = ChunkIndex(paddr);
  const uint64_t bit = BitInChunk(paddr);
  RegistryEntry& entry = registry_[ci];

  // Pre-mutation state drives the counter deltas: whether this epoch had the bit (epoch
  // counter) and whether any epoch had it (merged counter).
  const bool was_merged = AnyChunkHasBit(entry, bit);

  uint64_t cow_bytes = 0;
  Chunk* chunk = MutableChunk(epoch, table, ci, /*create_if_absent=*/true, &cow_bytes);
  const bool was_epoch = chunk->bits.Test(bit);
  chunk->bits.Set(bit);

  const uint64_t r = RangeOf(paddr);
  if (!was_epoch) {
    ++table->counts[r];
  }
  if (!was_merged && !range_dirty_[r]) {
    ++merged_count_[r];
  }
  // A set bit always joins the OR: the cached plane can be updated in place.
  if (entry.plane_valid) {
    entry.plane.Set(bit);
  }
  return cow_bytes;
}

uint64_t ValidityMap::ClearBit(uint32_t epoch, EpochTable* table, uint64_t paddr) {
  IOSNAP_CHECK(paddr < total_pages_);
  const uint64_t ci = ChunkIndex(paddr);
  const uint64_t bit = BitInChunk(paddr);

  uint64_t cow_bytes = 0;
  Chunk* chunk = MutableChunk(epoch, table, ci, /*create_if_absent=*/false, &cow_bytes);
  if (chunk == nullptr) {
    return 0;  // Bit is implicitly clear.
  }
  const bool was_epoch = chunk->bits.Test(bit);
  chunk->bits.Clear(bit);
  if (!was_epoch) {
    return cow_bytes;  // No bit flipped; counters and planes are unchanged.
  }

  const uint64_t r = RangeOf(paddr);
  --table->counts[r];
  // The bit may survive the merge through another epoch's chunk version. The cached
  // plane is stale for this decision (it still carries the old OR), so consult the
  // chunk objects directly.
  RegistryEntry& entry = registry_[ci];
  if (!ScanChunksForBit(entry, bit)) {
    if (!range_dirty_[r]) {
      --merged_count_[r];
    }
    if (entry.plane_valid) {
      entry.plane.Clear(bit);
    }
  }
  return cow_bytes;
}

uint64_t ValidityMap::SetValid(uint32_t epoch, uint64_t paddr) {
  return SetBit(epoch, &TableOf(epoch), paddr);
}

uint64_t ValidityMap::ClearValid(uint32_t epoch, uint64_t paddr) {
  return ClearBit(epoch, &TableOf(epoch), paddr);
}

void ValidityMap::ApplyBatch(uint32_t epoch, std::span<BitOp> ops) {
  if (ops.empty()) {
    return;
  }
  EpochTable* table = &TableOf(epoch);
  for (BitOp& op : ops) {
    op.cow_bytes += op.set ? SetBit(epoch, table, op.paddr) : ClearBit(epoch, table, op.paddr);
  }
}

uint64_t ValidityMap::SetValidBatch(uint32_t epoch, std::span<const uint64_t> paddrs) {
  EpochTable* table = &TableOf(epoch);
  uint64_t total_cow = 0;
  for (uint64_t paddr : paddrs) {
    total_cow += SetBit(epoch, table, paddr);
  }
  return total_cow;
}

bool ValidityMap::Test(uint32_t epoch, uint64_t paddr) const {
  IOSNAP_CHECK(paddr < total_pages_);
  const Chunk* chunk = TableOf(epoch).chunks[ChunkIndex(paddr)].get();
  return chunk != nullptr && chunk->bits.Test(BitInChunk(paddr));
}

bool ValidityMap::TestAny(const std::vector<uint32_t>& epochs, uint64_t paddr) const {
  IOSNAP_CHECK(paddr < total_pages_);
  const uint64_t ci = ChunkIndex(paddr);
  const uint64_t bit = BitInChunk(paddr);
  for (uint32_t epoch : epochs) {
    auto epoch_it = epochs_.find(epoch);
    if (epoch_it == epochs_.end()) {
      continue;
    }
    const Chunk* chunk = epoch_it->second.chunks[ci].get();
    if (chunk != nullptr && chunk->bits.Test(bit)) {
      return true;
    }
  }
  return false;
}

ValidityMap::EpochPages ValidityMap::CountEpochPages(uint32_t epoch) const {
  const std::vector<ChunkRef>& chunks = TableOf(epoch).chunks;
  EpochPages pages;
  Bitmap others(chunk_bits_);
  for (uint64_t index = 0; index < num_chunks_; ++index) {
    const Chunk* mine = chunks[index].get();
    if (mine == nullptr) {
      continue;
    }
    pages.referenced += mine->bits.CountOnes();
    const std::vector<std::pair<const Chunk*, uint32_t>>& refs = registry_[index].refs;
    const bool shared = std::any_of(refs.begin(), refs.end(), [mine](const auto& ref) {
      return ref.first == mine && ref.second > 1;
    });
    if (shared) {
      continue;  // Another epoch holds this very object, so it holds every page in it.
    }
    others.Reset();
    for (const auto& [chunk, count] : refs) {
      if (chunk != mine) {
        others.OrWith(chunk->bits);
      }
    }
    pages.exclusive += mine->bits.CountAndNot(others);
  }
  return pages;
}

bool ValidityMap::MergedTest(uint64_t paddr) const {
  IOSNAP_CHECK(paddr < total_pages_);
  RegistryEntry& entry = registry_[ChunkIndex(paddr)];
  if (entry.refs.empty()) {
    return false;
  }
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
  const uint64_t first_chunk = begin / chunk_bits_;
  const uint64_t last_chunk = (end == begin) ? first_chunk : (end - 1) / chunk_bits_;
  for (uint32_t epoch : epochs) {
    auto epoch_it = epochs_.find(epoch);
    if (epoch_it == epochs_.end()) {
      continue;  // Deleted epochs simply drop out of the merge (Fig 6C).
    }
    const std::vector<ChunkRef>& chunks = epoch_it->second.chunks;
    for (uint64_t index = first_chunk; index <= last_chunk && index < num_chunks_; ++index) {
      const Chunk* chunk = chunks[index].get();
      if (chunk == nullptr) {
        continue;
      }
      ++stats_.merge_chunk_visits;
      const uint64_t chunk_base = index * chunk_bits_;
      const uint64_t lo = std::max(begin, chunk_base);
      const uint64_t hi = std::min(end, chunk_base + chunk_bits_);
      for (uint64_t p = lo; p < hi; ++p) {
        if (chunk->bits.Test(p - chunk_base)) {
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
    RegistryEntry& entry = registry_[ci];
    if (entry.refs.empty()) {
      continue;
    }
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
  auto it = epochs_.find(epoch);
  if (it == epochs_.end()) {
    return 0;
  }
  return it->second.counts[range_index];
}

bool ValidityMap::VerifyCounters() const {
  bool ok = true;

  // Per-epoch counters against a from-scratch recount of that epoch's chunks.
  for (const auto& [epoch, table] : epochs_) {
    std::vector<uint64_t> expect(NumRanges(), 0);
    ForEachValid(epoch, [&](uint64_t paddr) { ++expect[RangeOf(paddr)]; });
    if (table.counts != expect) {
      IOSNAP_LOG(kError) << "[validity] VerifyCounters: epoch " << epoch << " per-range counts mismatch";
      ok = false;
    }
  }

  // Registry against the epoch tables: every (index, chunk) pair with its multiplicity,
  // each distinct chunk listed once.
  for (uint64_t index = 0; index < num_chunks_; ++index) {
    std::map<const Chunk*, uint32_t> expect_refs;
    for (const auto& [epoch, table] : epochs_) {
      if (table.chunks[index] != nullptr) {
        ++expect_refs[table.chunks[index].get()];
      }
    }
    const std::vector<std::pair<const Chunk*, uint32_t>>& refs = registry_[index].refs;
    const std::map<const Chunk*, uint32_t> have_refs(refs.begin(), refs.end());
    if (have_refs.size() != refs.size() || have_refs != expect_refs) {
      IOSNAP_LOG(kError) << "[validity] VerifyCounters: registry refs mismatch at chunk " << index;
      ok = false;
    }
  }

  // Valid planes against the OR of their distinct chunks; an empty entry has no plane.
  for (uint64_t index = 0; index < num_chunks_; ++index) {
    const RegistryEntry& entry = registry_[index];
    if (!entry.plane_valid) {
      continue;
    }
    Bitmap expect_plane(chunk_bits_);
    for (const auto& [chunk, refs] : entry.refs) {
      expect_plane.OrWith(chunk->bits);
    }
    if (entry.refs.empty() || !(entry.plane == expect_plane)) {
      IOSNAP_LOG(kError) << "[validity] VerifyCounters: stale merge plane at chunk " << index;
      ok = false;
    }
  }

  // Merged per-range counters against a registry-independent recount over all epochs.
  for (uint64_t r = 0; r < NumRanges(); ++r) {
    const uint64_t begin = r * range_pages_;
    const uint64_t end = std::min(begin + range_pages_, total_pages_);
    const uint64_t expect = CountValidInRange(epoch_ids_, begin, end);
    if (MergedValidCount(r) != expect) {
      IOSNAP_LOG(kError) << "[validity] VerifyCounters: range " << r << " merged count "
                         << merged_count_[r] << " != recount " << expect;
      ok = false;
    }
  }
  return ok;
}

uint64_t ValidityMap::MoveBit(uint64_t from, uint64_t to) {
  IOSNAP_CHECK(from < total_pages_ && to < total_pages_);
  const uint64_t ci = ChunkIndex(from);
  const uint64_t bit = BitInChunk(from);
  uint64_t cow_bytes = 0;
  for (uint32_t epoch : epoch_ids_) {
    EpochTable* table = &TableOf(epoch);
    const Chunk* chunk = table->chunks[ci].get();
    if (chunk == nullptr || !chunk->bits.Test(bit)) {
      continue;
    }
    // Clear+Set via the counting paths keeps every counter and plane exact.
    cow_bytes += ClearBit(epoch, table, from);
    cow_bytes += SetBit(epoch, table, to);
  }
  return cow_bytes;
}

size_t ValidityMap::MemoryBytes() const {
  constexpr size_t kPerReference = sizeof(uint64_t) + sizeof(ChunkRef) + 3 * sizeof(void*);
  size_t bytes = 0;
  for (const auto& [epoch, table] : epochs_) {
    bytes += kPerReference * static_cast<size_t>(std::count_if(
                                 table.chunks.begin(), table.chunks.end(),
                                 [](const ChunkRef& ref) { return ref != nullptr; }));
  }
  for (const RegistryEntry& entry : registry_) {
    for (const auto& [chunk, refs] : entry.refs) {
      bytes += sizeof(Chunk) + chunk->bits.MemoryBytes();
    }
  }
  return bytes;
}

size_t ValidityMap::DistinctChunkCount() const {
  size_t count = 0;
  for (const RegistryEntry& entry : registry_) {
    count += entry.refs.size();
  }
  return count;
}

bool ValidityMap::EpochReader::Test(uint64_t paddr) {
  IOSNAP_CHECK(paddr < map_.total_pages_);
  const uint64_t ci = map_.ChunkIndex(paddr);
  if (!cached_ || ci != cached_index_) {
    cached_ = true;
    cached_index_ = ci;
    const Chunk* chunk = map_.TableOf(epoch_).chunks[ci].get();
    cached_bits_ = chunk != nullptr ? &chunk->bits : nullptr;
  }
  return cached_bits_ != nullptr && cached_bits_->Test(map_.BitInChunk(paddr));
}

}  // namespace iosnap
