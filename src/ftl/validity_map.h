// Per-epoch copy-on-write validity bitmaps (§5.4.1).
//
// The validity bitmap records which physical pages hold live data. With snapshots, a page
// overwritten in the active view may still be live in an older snapshot, so ioSnap keeps
// one *logical* bitmap per epoch. Copying the whole bitmap at snapshot create would cost
// e.g. 512 MB per snapshot on a 2 TB drive (the paper's "naive design"); instead the bitmap
// is split into chunks and epochs share chunks copy-on-write:
//
//   * Creating a snapshot freezes the current epoch's chunk set; the successor epoch
//     starts with shallow references to the same chunks.
//   * The first modification of a shared chunk in an epoch copies it (a "CoW event" —
//     what Figure 7 counts) and the copy cost is charged to the triggering write.
//   * The segment cleaner and activation merge chunk sets across epochs with bitwise OR.
//
// Mutation rule: a chunk may be modified in place only if this epoch holds the unique
// reference; otherwise the chunk is copied first. A uniquely-held chunk inherited from a
// since-dropped epoch is safely adopted without copying.
//
// Layout. A device has few chunk indices (total_pages / chunk_bits: 32 for 1 GiB of 4 KiB
// pages at the default 8192 bits), so every per-chunk structure is a dense vector
// indexed by chunk and a bit flip costs array indexing only:
//
//   * Each epoch's table holds one chunk reference per chunk index (nullptr: the epoch
//     has no chunk there and every bit is clear) and, beside it, its per-range counters.
//     Epochs are found by id in a hash map, once per call (once per ApplyBatch).
//   * The distinct-chunk registry has one entry per chunk index: a short flat list of
//     (chunk object, number of epoch tables referencing it) pairs and the cached merge
//     plane.
//
// Cleaner-side queries are O(1)-amortised via two cooperating structures maintained
// incrementally by every mutation (see DESIGN.md "Cleaner liveness in O(1)"):
//
//   * Per-range utilization counters. The device is divided into fixed page ranges
//     (the FTL uses one range per NAND segment). For every range we keep the number of
//     pages valid under the *merged* view (OR of all registered epochs — the epoch set
//     here is exactly the FTL's live-epoch set) and, per epoch, the number of pages valid
//     in that epoch alone. Victim selection and GC pacing read these counters instead of
//     merging bitmaps. DropEpoch may retire the last reference to a chunk whose bits then
//     leave the merged view; rather than recomputing eagerly, the overlapping ranges are
//     marked dirty and lazily recounted from the distinct-chunk registry on next read.
//
//   * The distinct-chunk registry + cached merge planes. Merged point queries cost
//     O(distinct versions) — typically 1 — instead of O(epochs). On top of it, each index
//     caches a "merge plane": the OR of all distinct chunks, kept up to date in place by
//     bit flips and invalidated only when a chunk object leaves the registry with live
//     bits (epoch drop). MergedTest — the cleaner's per-page liveness test — is a
//     cached-plane bit test.
//
// Counters and registry are exact at all times; VerifyCounters() cross-checks them
// against a from-scratch recount (used by tests and debug builds).

#ifndef SRC_FTL_VALIDITY_MAP_H_
#define SRC_FTL_VALIDITY_MAP_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/bitmap.h"
#include "src/common/logging.h"
#include "src/common/status.h"
#include "src/obs/trace.h"

namespace iosnap {

struct ValidityStats {
  uint64_t cow_chunk_copies = 0;   // Number of chunk copies triggered by CoW.
  uint64_t cow_bytes_copied = 0;   // Total bytes those copies moved.
  uint64_t chunk_allocations = 0;  // Fresh (zero-filled) chunks allocated.
  uint64_t merge_chunk_visits = 0; // Chunk visits performed by merge queries (Table 4).
  uint64_t merge_plane_rebuilds = 0;  // Cached merge planes recomputed from chunks.
  uint64_t merge_plane_hits = 0;      // MergedTest answered from a cached plane.
  uint64_t range_recounts = 0;        // Dirty utilization ranges lazily recounted.
};

class ValidityMap {
 public:
  // `total_pages`: physical pages covered. `chunk_bits`: pages covered per chunk.
  // `naive_full_copy`: reproduce the paper's rejected design — deep-copy every chunk at
  // fork time (ablation A4). `counter_range_pages`: granularity of the per-range
  // utilization counters (the FTL passes pages_per_segment; 0 = one range for the whole
  // device).
  ValidityMap(uint64_t total_pages, uint64_t chunk_bits, bool naive_full_copy = false,
              uint64_t counter_range_pages = 0);

  uint64_t total_pages() const { return total_pages_; }
  uint64_t chunk_bits() const { return chunk_bits_; }
  uint64_t range_pages() const { return range_pages_; }
  uint64_t NumRanges() const { return (total_pages_ + range_pages_ - 1) / range_pages_; }

  // --- Epoch lifecycle ---

  // Registers a brand-new epoch with an empty validity view (the root epoch).
  void CreateEpoch(uint32_t epoch);

  // Registers `child` sharing all of `parent`'s chunks (snapshot create / activate).
  // Returns the number of bytes deep-copied (non-zero only in naive mode).
  uint64_t ForkEpoch(uint32_t child, uint32_t parent);

  // Removes an epoch's view. Chunks shared with other epochs survive via refcounting.
  void DropEpoch(uint32_t epoch);

  bool HasEpoch(uint32_t epoch) const;
  // The registered epoch ids, ascending. The FTL registers exactly its live epochs.
  const std::vector<uint32_t>& Epochs() const { return epoch_ids_; }

  // --- Bit operations ---

  // Marks `paddr` valid in `epoch`. Returns bytes CoW-copied to perform the update
  // (0 when the chunk was exclusively owned); the caller charges this as host time.
  uint64_t SetValid(uint32_t epoch, uint64_t paddr);

  // Marks `paddr` invalid in `epoch`. Same CoW-copy return convention.
  uint64_t ClearValid(uint32_t epoch, uint64_t paddr);

  // One bit mutation in a vectored update; `cow_bytes` is an out-field receiving the
  // bytes CoW-copied on this op's behalf (what SetValid/ClearValid would have returned).
  struct BitOp {
    uint64_t paddr = 0;
    bool set = true;
    uint64_t cow_bytes = 0;  // Out.
  };

  // Applies the ops in submission order, exactly as SetValid/ClearValid called one by
  // one would (counters, planes, stats, per-op CoW charges and CoW trace events), but
  // looks the epoch up once for the whole batch.
  void ApplyBatch(uint32_t epoch, std::span<BitOp> ops);

  // Marks a batch of paddrs valid in `epoch`, looking the epoch up once (the recovery
  // replay path). Returns total bytes CoW-copied.
  uint64_t SetValidBatch(uint32_t epoch, std::span<const uint64_t> paddrs);

  bool Test(uint32_t epoch, uint64_t paddr) const;

  // True if the bit is set in any of the listed epochs (missing epochs are skipped).
  bool TestAny(const std::vector<uint32_t>& epochs, uint64_t paddr) const;

  // Pages valid in `epoch`, and how many of them are valid in no other registered epoch.
  struct EpochPages {
    uint64_t referenced = 0;
    uint64_t exclusive = 0;
  };

  // Counted per chunk index from the registry, a popcount per word instead of a
  // per-page probe of every other epoch: a chunk object another epoch also references
  // holds no exclusive page; otherwise the exclusive pages are its bits outside the OR
  // of the index's other distinct chunks. O(distinct chunks), not O(pages x epochs).
  EpochPages CountEpochPages(uint32_t epoch) const;

  // True if the bit is set in *any registered epoch* (the merged live view). Served from
  // the cached merge plane of the page's chunk — the segment cleaner's per-page liveness
  // test (§5.4.3) without per-epoch chunk walks.
  bool MergedTest(uint64_t paddr) const;

  // --- Merge queries (segment cleaner, activation) ---

  // OR of the given epochs' validity over physical pages [begin, end); result bit i
  // corresponds to page begin + i.
  Bitmap MergedRange(const std::vector<uint32_t>& epochs, uint64_t begin, uint64_t end) const;

  size_t CountValidInRange(const std::vector<uint32_t>& epochs, uint64_t begin,
                           uint64_t end) const;
  size_t CountValidInRange(uint32_t epoch, uint64_t begin, uint64_t end) const;

  // --- Utilization counters (O(1)-amortised cleaner accounting) ---

  // Pages valid under the merged view in counter range `range_index`. Counter read;
  // lazily recounts the range only if an epoch drop dirtied it.
  uint64_t MergedValidCount(uint64_t range_index) const;

  // Pages valid in `epoch` alone within the range (vanilla GC rate policy). Exact
  // counter read; returns 0 for unknown epochs.
  uint64_t EpochValidCount(uint32_t epoch, uint64_t range_index) const;

  // Cross-checks every incremental structure (per-epoch counters, merged counters,
  // distinct-chunk registry, cached planes) against a from-scratch recount. Returns
  // false and logs details on any mismatch. O(epochs x chunks); debug/test use only.
  bool VerifyCounters() const;

  // Moves a valid bit from `from` to `to` in every registered epoch that has it set, in
  // ascending epoch order (segment cleaner copy-forward fix-up, §5.4.3 "move and reset
  // validity bits"). Returns bytes CoW-copied in the process.
  uint64_t MoveBit(uint64_t from, uint64_t to);

  // --- Accounting ---

  const ValidityStats& stats() const { return stats_; }

  // Optional flight-recorder hook; records a kValidityCowChunk event per chunk copy.
  // nullptr (the default) disables it.
  void SetTraceRecorder(TraceRecorder* trace) { trace_ = trace; }

  // Virtual-clock hint for trace events. Bit operations are untimed (the caller charges
  // host time), so the FTL notes the current operation's issue time before mutating; CoW
  // events recorded during the mutation carry this stamp.
  void NoteTimeNs(uint64_t now_ns) { trace_time_ns_ = now_ns; }

  // Bitmap memory as an accounting model, not a heap measurement: the bytes of every
  // distinct chunk plus a fixed overhead per chunk reference (the node of the per-epoch
  // ordered map an earlier layout used). The model is kept so that ablations A2/A4 and
  // the sim's "validity maps" line stay comparable across layouts; the dense tables'
  // own 16 bytes per chunk index per epoch are not in it.
  size_t MemoryBytes() const;

  // Number of distinct chunk objects currently alive (shared chunks counted once).
  size_t DistinctChunkCount() const;

  // Enumerates the set bits of one epoch, visiting ascending paddrs (the chunk table
  // iterates in index order). Templated so a caller pays a direct call, not
  // std::function dispatch, per page.
  template <typename Fn>
  void ForEachValid(uint32_t epoch, Fn&& fn) const {
    const std::vector<ChunkRef>& chunks = TableOf(epoch).chunks;
    for (uint64_t index = 0; index < chunks.size(); ++index) {
      const Chunk* chunk = chunks[index].get();
      if (chunk == nullptr) {
        continue;
      }
      const uint64_t base = index * chunk_bits_;
      for (uint64_t bit = chunk->bits.FindFirstSet(0); bit < chunk->bits.size();
           bit = chunk->bits.FindFirstSet(bit + 1)) {
        fn(base + bit);
      }
    }
  }

  // Chunk-caching membership cursor over a single epoch: consecutive Test calls with
  // nearby addresses (activation's sequential segment scans) reuse the resolved chunk
  // instead of finding the epoch's table per page. The cursor caches a raw chunk
  // pointer, so it must not outlive any mutation of the map — create one per scan.
  class EpochReader {
   public:
    EpochReader(const ValidityMap& map, uint32_t epoch) : map_(map), epoch_(epoch) {}
    bool Test(uint64_t paddr);

   private:
    const ValidityMap& map_;
    uint32_t epoch_;
    bool cached_ = false;
    uint64_t cached_index_ = 0;
    const Bitmap* cached_bits_ = nullptr;  // nullptr: epoch has no chunk at the index.
  };

 private:
  struct Chunk {
    uint32_t owner_epoch;
    Bitmap bits;
  };
  using ChunkRef = std::shared_ptr<Chunk>;

  // One epoch's view: a chunk reference per chunk index (nullptr: absent, every bit
  // clear) and its valid-page counter per range.
  struct EpochTable {
    std::vector<ChunkRef> chunks;
    std::vector<uint64_t> counts;
  };

  // The distinct chunk objects referenced at one chunk index, each with the number of
  // epoch tables referencing it (no entry: no epoch has a chunk here), plus the cached
  // merge plane.
  struct RegistryEntry {
    std::vector<std::pair<const Chunk*, uint32_t>> refs;
    Bitmap plane;             // OR of all chunks in `refs` when plane_valid.
    bool plane_valid = false;  // Always false while `refs` is empty.
  };

  uint64_t ChunkIndex(uint64_t paddr) const { return paddr / chunk_bits_; }
  uint64_t BitInChunk(uint64_t paddr) const { return paddr % chunk_bits_; }
  uint64_t RangeOf(uint64_t paddr) const { return paddr / range_pages_; }

  EpochTable& TableOf(uint32_t epoch);
  const EpochTable& TableOf(uint32_t epoch) const;

  // The counting bit flips behind SetValid/ClearValid/ApplyBatch/MoveBit. Return the
  // bytes CoW-copied to perform the update.
  uint64_t SetBit(uint32_t epoch, EpochTable* table, uint64_t paddr);
  uint64_t ClearBit(uint32_t epoch, EpochTable* table, uint64_t paddr);

  // Returns a mutable chunk for (epoch, chunk_index), performing CoW or allocation as
  // needed. `create_if_absent` controls behaviour for missing chunks (Clear on a missing
  // chunk is a no-op). Adds copied bytes to *cow_bytes.
  Chunk* MutableChunk(uint32_t epoch, EpochTable* table, uint64_t chunk_index,
                      bool create_if_absent, uint64_t* cow_bytes);

  // Registry bookkeeping: called for every epoch-table reference created or destroyed.
  void RegistryAddRef(uint64_t chunk_index, const Chunk* chunk);
  void RegistryDropRef(uint64_t chunk_index, const Chunk* chunk);

  // True if any distinct chunk of `entry` has `bit` set, scanning chunk objects (never
  // the plane — used mid-mutation when the plane may be stale).
  static bool ScanChunksForBit(const RegistryEntry& entry, uint64_t bit);

  // Plane-accelerated variant for pre-mutation queries (plane is accurate if valid).
  static bool AnyChunkHasBit(const RegistryEntry& entry, uint64_t bit);

  // Recomputes entry's plane as the OR of its distinct chunks. Meters chunk visits.
  void RebuildPlane(RegistryEntry* entry) const;

  // Marks every counter range overlapping `chunk_index` dirty.
  void MarkRangesDirty(uint64_t chunk_index);

  // From-registry recount of one range's merged-valid pages (lazy repair path).
  uint64_t RecountRange(uint64_t range_index) const;

  uint64_t ChunkBytes() const { return (chunk_bits_ + 7) / 8; }

  uint64_t total_pages_;
  uint64_t chunk_bits_;
  bool naive_full_copy_;
  uint64_t range_pages_;
  uint64_t num_chunks_;
  std::unordered_map<uint32_t, EpochTable> epochs_;
  std::vector<uint32_t> epoch_ids_;  // The keys of epochs_, ascending.
  // Distinct-chunk registry + cached merge planes, by chunk index. Mutable: planes are
  // rebuilt lazily from const queries.
  mutable std::vector<RegistryEntry> registry_;
  // Per-range merged-valid counters with lazy dirty repair (see header comment).
  mutable std::vector<uint64_t> merged_count_;
  mutable std::vector<uint8_t> range_dirty_;
  // Mutable: merge queries from const contexts still meter their chunk visits (Table 4).
  mutable ValidityStats stats_;
  TraceRecorder* trace_ = nullptr;
  uint64_t trace_time_ns_ = 0;
};

}  // namespace iosnap

#endif  // SRC_FTL_VALIDITY_MAP_H_
