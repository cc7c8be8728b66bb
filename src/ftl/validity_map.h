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
// Cleaner-side queries are O(1)-amortised via two cooperating structures maintained
// incrementally by every mutation (see DESIGN.md "Utilization accounting"):
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
//   * A distinct-chunk registry + cached merge planes. For each chunk index the registry
//     tracks the set of distinct chunk objects referenced by any epoch (with reference
//     counts), so merged point queries cost O(distinct versions) — typically 1 — instead
//     of O(epochs). On top of it, each index caches a "merge plane": the OR of all
//     distinct chunks, kept up to date in place by bit flips and invalidated only when a
//     chunk object leaves the registry with live bits (epoch drop). MergedTest — the
//     cleaner's per-page liveness test — is a cached-plane bit test.
//
// Counters and registry are exact at all times; VerifyCounters() cross-checks them
// against a from-scratch recount (used by tests and debug builds).

#ifndef SRC_FTL_VALIDITY_MAP_H_
#define SRC_FTL_VALIDITY_MAP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
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
  std::vector<uint32_t> Epochs() const;

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

  // Applies the ops exactly as if SetValid/ClearValid were called one by one in
  // submission order, but groups them by chunk so each CoW chunk (and its registry
  // entry) is resolved once per batch instead of once per bit. Ops on different chunks
  // commute, and within a chunk submission order is preserved, so counters, planes,
  // stats, and per-op CoW attribution are bit-identical to the sequential calls.
  void ApplyBatch(uint32_t epoch, std::span<BitOp> ops);

  // Marks a batch of paddrs valid in `epoch` via ApplyBatch (the recovery replay path).
  // Returns total bytes CoW-copied.
  uint64_t SetValidBatch(uint32_t epoch, std::span<const uint64_t> paddrs);

  bool Test(uint32_t epoch, uint64_t paddr) const;

  // True if the bit is set in any of the listed epochs (missing epochs are skipped).
  bool TestAny(const std::vector<uint32_t>& epochs, uint64_t paddr) const;

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

  // Moves a valid bit from `from` to `to` in every listed epoch that has it set (segment
  // cleaner copy-forward fix-up, §5.4.3 "move and reset validity bits"). Returns bytes
  // CoW-copied in the process.
  uint64_t MoveBit(const std::vector<uint32_t>& epochs, uint64_t from, uint64_t to);

  // --- Accounting ---

  const ValidityStats& stats() const { return stats_; }

  // Optional flight-recorder hook; records a kValidityCowChunk event per chunk copy.
  // nullptr (the default) disables it.
  void SetTraceRecorder(TraceRecorder* trace) { trace_ = trace; }

  // Virtual-clock hint for trace events. Bit operations are untimed (the caller charges
  // host time), so the FTL notes the current operation's issue time before mutating; CoW
  // events recorded during the mutation carry this stamp.
  void NoteTimeNs(uint64_t now_ns) { trace_time_ns_ = now_ns; }

  // Heap footprint of all distinct chunks plus per-epoch tables.
  size_t MemoryBytes() const;

  // Number of distinct chunk objects currently alive (shared chunks counted once).
  size_t DistinctChunkCount() const;

  // Enumerates the set bits of one epoch, visiting ascending paddrs (the chunk table
  // iterates in index order). Templated so the hot caller (snapshot space accounting)
  // pays a direct call, not std::function dispatch.
  template <typename Fn>
  void ForEachValid(uint32_t epoch, Fn&& fn) const {
    auto epoch_it = epochs_.find(epoch);
    IOSNAP_CHECK(epoch_it != epochs_.end());
    for (const auto& [index, chunk] : epoch_it->second) {
      const uint64_t base = index * chunk_bits_;
      for (uint64_t bit = chunk->bits.FindFirstSet(0); bit < chunk->bits.size();
           bit = chunk->bits.FindFirstSet(bit + 1)) {
        fn(base + bit);
      }
    }
  }

  // Chunk-caching membership cursor over a single epoch: consecutive Test calls with
  // nearby addresses (activation's sequential segment scans) reuse the resolved chunk
  // instead of re-walking the chunk table per page. The cursor caches a raw chunk
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
  // chunk index -> chunk. std::map keeps deterministic iteration for serialization.
  using ChunkTable = std::map<uint64_t, ChunkRef>;

  // Per-chunk-index registry of distinct chunk objects (keyed by identity, valued by the
  // number of epoch tables referencing each) plus the cached merge plane.
  struct RegistryEntry {
    std::unordered_map<const Chunk*, uint32_t> refs;
    Bitmap plane;             // OR of all chunks in `refs` when plane_valid.
    bool plane_valid = false;
  };

  uint64_t ChunkIndex(uint64_t paddr) const { return paddr / chunk_bits_; }
  uint64_t BitInChunk(uint64_t paddr) const { return paddr % chunk_bits_; }
  uint64_t RangeOf(uint64_t paddr) const { return paddr / range_pages_; }

  // Returns a mutable chunk for (epoch, chunk_index), performing CoW or allocation as
  // needed. `create_if_absent` controls behaviour for missing chunks (Clear on a missing
  // chunk is a no-op). Adds copied bytes to *cow_bytes.
  Chunk* MutableChunk(uint32_t epoch, uint64_t chunk_index, bool create_if_absent,
                      uint64_t* cow_bytes);

  // Registry bookkeeping: called for every epoch-table reference created or destroyed.
  void RegistryAddRef(uint64_t chunk_index, const Chunk* chunk);
  void RegistryDropRef(uint64_t chunk_index, const Chunk* chunk);

  // True if any distinct chunk at `chunk_index` has `bit` set, scanning chunk objects
  // (never the plane — used mid-mutation when the plane may be stale).
  bool ScanChunksForBit(uint64_t chunk_index, uint64_t bit) const;

  // Plane-accelerated variant for pre-mutation queries (plane is accurate if valid).
  bool AnyChunkHasBit(uint64_t chunk_index, uint64_t bit) const;

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
  std::unordered_map<uint32_t, ChunkTable> epochs_;
  // Distinct-chunk registry + cached merge planes, by chunk index. Mutable: planes are
  // rebuilt lazily from const queries.
  mutable std::unordered_map<uint64_t, RegistryEntry> registry_;
  // Per-range merged-valid counters with lazy dirty repair (see header comment).
  mutable std::vector<uint64_t> merged_count_;
  mutable std::vector<uint8_t> range_dirty_;
  // Per-epoch per-range valid counters (always exact).
  std::unordered_map<uint32_t, std::vector<uint64_t>> epoch_count_;
  // Mutable: merge queries from const contexts still meter their chunk visits (Table 4).
  mutable ValidityStats stats_;
  TraceRecorder* trace_ = nullptr;
  uint64_t trace_time_ns_ = 0;
  std::vector<uint32_t> batch_order_;  // ApplyBatch scratch.
};

}  // namespace iosnap

#endif  // SRC_FTL_VALIDITY_MAP_H_
