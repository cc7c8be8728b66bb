// Configuration of the ioSnap FTL. One struct covers both the "vanilla" baseline
// (snapshots_enabled = false: the Table 2 / Fig 10a comparison device) and ioSnap proper,
// plus the knobs for the paper's rate-limiting experiments and this repo's ablations.

#ifndef SRC_CORE_FTL_CONFIG_H_
#define SRC_CORE_FTL_CONFIG_H_

#include <cstdint>

#include "src/nand/nand_config.h"

namespace iosnap {

// Victim-selection policy for the segment cleaner.
enum class CleanerPolicy : uint8_t {
  kGreedy,        // Fewest valid pages first.
  kCostBenefit,   // Classic LFS benefit/cost: (1 - u) * age / (1 + u).
  kEpochColocate, // Greedy, tie-broken to prefer epoch-pure segments; copy-forward
                  // segregates epochs onto per-class heads (§5.4.2 extension, ablation A1).
};

// Host CPU cost model: fixed costs, in ns, that the FTL charges on top of device time.
inline constexpr uint64_t kHostMapLookupNs = 300;
inline constexpr uint64_t kHostMapUpdateNs = 400;
inline constexpr uint64_t kHostBitmapUpdateNs = 100;
inline constexpr uint64_t kHostCowNsPerByte = 60;      // Validity-chunk CoW copy (Fig 7 spikes).
inline constexpr uint64_t kHostMergeNsPerChunk = 500;  // Cleaner validity merge (Table 4).
inline constexpr uint64_t kHostNoteNs = 2000;          // Snapshot-note bookkeeping.
inline constexpr uint64_t kHostBuildNsPerEntry = 150;  // Activation map sort + bulk-load.

struct FtlConfig {
  NandConfig nand;

  // --- Capacity ---
  // Fraction of physical pages withheld from the LBA space (log-structured headroom).
  double overprovision = 0.25;

  // --- Snapshots ---
  bool snapshots_enabled = true;
  // Pages covered per validity chunk; chunk byte size is chunk_bits / 8 (ablation A2).
  uint64_t validity_chunk_bits = 8192;
  // Reproduce the paper's rejected full-bitmap-copy-per-snapshot design (ablation A4).
  bool naive_validity_copy = false;

  // --- Segment cleaning ---
  uint64_t gc_reserve_segments = 2;    // Segments only the cleaner may consume.
  uint64_t gc_low_free_segments = 6;   // Background cleaning starts below this.
  uint64_t gc_high_free_segments = 12; // ... and stops at or above this.
  CleanerPolicy cleaner_policy = CleanerPolicy::kGreedy;
  // Fig 10 knob: pace the cleaner by the *merged* validity estimate (snapshot-aware) vs
  // the active epoch's estimate only (the vanilla rate policy, which under-budgets when
  // snapshotted cold data must move and causes foreground stalls).
  bool snapshot_aware_gc_rate = true;
  // Relocate live pages via on-die copyback (NandDevice::CopybackPage) instead of a
  // host read + append: the data never crosses a transfer bus when source and
  // destination share a channel, so cleaning stops competing with foreground I/O for
  // bus time. The cleaner also reorders a victim's live pages to chase the GC head's
  // next-append channel (maximizing the on-die hit rate). Host-side CRC verification
  // is replaced by the device's scrub-on-copyback (NandConfig::copyback_scrub).
  // Default off: the classic read+append path, bit-identical to prior behavior.
  bool gc_copyback = false;
  // Static wear leveling: when the erase-count gap between the most-worn segment and a
  // cleanable cold segment reaches this threshold, the cleaner picks the cold segment
  // regardless of its valid count, recycling it into the rotation. 0 disables.
  uint64_t wear_leveling_threshold = 0;

  // --- Forward map ---
  // Each view's forward map is one BPlusTree, updated on the simulation thread. This
  // field is kept only so configs that set it to 0 still compile: Create and Open
  // reject any other value with kInvalidArgument.
  uint32_t map_update_threads = 0;

  // --- Error handling ---
  // Total attempts per page read before a transient failure (kUnavailable) is surfaced
  // to the caller. Permanent errors (CRC mismatch) are never retried.
  uint32_t read_retry_limit = 3;

  // --- Parity & rebuild (src/nand/parity.h) ---
  // Intra-segment XOR stripe width: the log writes one parity page after every
  // `parity_stripe` appended pages (and at the segment's final page), and every path
  // that hits an uncorrectable page — foreground reads, cleaner copy-forward, patrol,
  // fsck --repair — XOR-rebuilds it from the surviving stripe members instead of
  // dropping it. Costs 1/(parity_stripe+1) of log bandwidth and capacity. Choose a
  // value such that (parity_stripe + 1) divides nand.pages_per_segment. 0 disables:
  // no parity pages are written and every code path is bit-identical to prior
  // behavior.
  uint64_t parity_stripe = 0;

  // --- Patrol scrubbing (media reliability; src/core/patrol_scrubber.h) ---
  // Background sweep over closed segments that CRC-verifies live pages, preemptively
  // rewrites pages whose wear exposure crossed the refresh thresholds (or that needed
  // a read retry), drops unreadable live pages, and evacuates segments holding
  // corrupt pages so the damage is physically erased. Default off: bit-identical.
  bool patrol_enabled = false;
  // Pages inspected per paced patrol burst.
  uint64_t patrol_pages_per_step = 8;
  // Mandatory sleep between patrol bursts (the patrol analogue of the cleaner's idle
  // limiter; keeps patrol interference off the foreground latency tail).
  uint64_t patrol_sleep_ms = 10;
  // Refresh a live page once its segment has absorbed this many reads since erase.
  // 0 disables the read-count trigger.
  uint64_t patrol_refresh_reads = 0;
  // Refresh a live page once it is older than this (virtual-clock ms since program).
  // 0 disables the age trigger.
  uint64_t patrol_refresh_age_ms = 0;

  // --- Degraded read-only mode ---
  // When free-pool headroom sinks below degraded_free_floor segments, or
  // log.segments_retired reaches degraded_retired_floor, the FTL enters a degraded
  // read-only mode: writes and trims fail fast with kResourceExhausted while reads,
  // snapshot activation, and snapshot deletion (the space-reclaim path) keep working.
  // It exits once free headroom recovers to degraded_exit_free (>= the floor;
  // 0 = no hysteresis, exit at the floor itself) and the retired-count condition is
  // clear. Both floors default to 0 = disabled, preserving bit-identity.
  uint64_t degraded_free_floor = 0;
  uint64_t degraded_retired_floor = 0;
  uint64_t degraded_exit_free = 0;

  // --- Activation ---
  // Skip segments whose epoch summary proves they hold no lineage data (§7 future work:
  // precomputed metadata; ablation A3).
  bool activation_segment_index = false;

  uint64_t LbaCount() const {
    return static_cast<uint64_t>(static_cast<double>(nand.TotalPages()) *
                                 (1.0 - overprovision));
  }
};

}  // namespace iosnap

#endif  // SRC_CORE_FTL_CONFIG_H_
