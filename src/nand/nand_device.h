// In-memory NAND flash device model.
//
// This substitutes for the paper's Fusion-io ioMemory hardware. It models:
//   * segment (erase-block) geometry with erase-before-program and strictly sequential
//     page programming within a segment — the constraints that force log structuring;
//   * per-channel busy horizons plus one or more transfer buses (channels stripe
//     across NandConfig::buses; buses=1 is the classic single shared bus), on a
//     virtual clock, so that background traffic (GC, snapshot activation) visibly
//     delays foreground I/O exactly as device-bandwidth contention does in the
//     paper's Figures 9 and 10;
//   * an on-die copyback path (CopybackPage) that relocates a page without crossing a
//     bus when source and destination share a channel — the GC copy-forward primitive
//     that keeps cleaning traffic off the transfer path;
//   * wear accounting per segment;
//   * cheap bulk header scans (the OOB area) used by activation and crash recovery.
//
// The device never touches the global clock: callers pass the issue time and receive the
// completion time, then decide how to advance their own notion of time (the workload
// runner advances for foreground ops; background tasks track a private horizon).

#ifndef SRC_NAND_NAND_DEVICE_H_
#define SRC_NAND_NAND_DEVICE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/common/bitmap.h"
#include "src/common/status.h"
#include "src/nand/fault_injector.h"
#include "src/nand/nand_config.h"
#include "src/nand/page_header.h"
#include "src/obs/trace.h"

namespace iosnap {

// Completion report for a single device operation. Besides the issue/finish pair the
// device decomposes where the time went; the four span fields are filled inside
// Occupy() from the same arithmetic that produces finish_ns, so
//   chan_wait_ns + bus_wait_ns + bus_ns + cell_ns == finish_ns - issue_ns
// holds bit-exactly for every op. `bg_wait_ns` is the portion of the two wait spans
// that was spent behind background traffic (GC, activation, rate-limited bursts); it
// is always <= chan_wait_ns + bus_wait_ns. Synthetic ops (issue == finish) carry
// all-zero spans.
struct NandOp {
  uint64_t issue_ns = 0;   // When the caller issued the op.
  uint64_t finish_ns = 0;  // When the device completed it.

  uint64_t chan_wait_ns = 0;  // Queued behind earlier ops on the same channel.
  uint64_t bus_wait_ns = 0;   // Queued for the shared transfer bus.
  uint64_t bus_ns = 0;        // Actual bus transfer time.
  uint64_t cell_ns = 0;       // Cell program/read/erase/scan time.
  uint64_t bg_wait_ns = 0;    // Share of the waits caused by background occupancy.

  uint64_t LatencyNs() const { return finish_ns - issue_ns; }
  // Foreground contention share of the wait (other user ops on the channel/bus).
  uint64_t FgWaitNs() const { return chan_wait_ns + bus_wait_ns - bg_wait_ns; }
};

// Cumulative device counters.
struct NandStats {
  uint64_t pages_programmed = 0;
  uint64_t pages_read = 0;
  uint64_t headers_scanned = 0;
  uint64_t segments_erased = 0;
  uint64_t bytes_programmed = 0;
  uint64_t bytes_read = 0;
  // Fault-path counters; all stay zero when injection is disabled.
  uint64_t program_failures = 0;  // Injected program failures (block retired).
  uint64_t erase_failures = 0;    // Injected/scheduled/wear-out erase failures.
  uint64_t read_failures = 0;     // Injected transient read failures.
  uint64_t crc_errors = 0;        // Pages whose stored CRC failed verification.
  uint64_t pages_corrupted = 0;   // Pages silently corrupted at program time.
  uint64_t read_retries = 0;      // Extra attempts made by ReadPageWithRetry.
  // Copyback path (on-die GC copy-forward). Zero unless CopybackPage is used.
  uint64_t copyback_pages = 0;      // Pages relocated via CopybackPage.
  uint64_t copyback_fallbacks = 0;  // Copybacks that crossed channels (read+program).
  // Wear model (read-disturb / retention-age corruption). Zero unless the
  // read_disturb_ppm_per_k_reads / retention_ppm_per_sec knobs are live.
  uint64_t read_disturb_corruptions = 0;  // Bit flips injected by read disturb.
  uint64_t retention_corruptions = 0;     // Bit flips injected by retention loss.
};

class NandDevice {
 public:
  explicit NandDevice(const NandConfig& config);

  const NandConfig& config() const { return config_; }

  // --- Address helpers ---
  uint64_t SegmentOf(uint64_t paddr) const { return paddr / config_.pages_per_segment; }
  uint64_t PageInSegment(uint64_t paddr) const { return paddr % config_.pages_per_segment; }
  uint64_t FirstPageOf(uint64_t segment) const { return segment * config_.pages_per_segment; }

  // --- Timed operations ---

  // One page of a vectored program: header plus optional payload.
  struct ProgramRequest {
    PageHeader header;
    std::span<const uint8_t> data;
  };

  // ProgramBatch's one-request case. Pages within a segment must be programmed in
  // order, so the device (not the caller) picks the page; the chosen physical address is
  // returned through `paddr_out`. `data` may be empty (header-only benchmarking mode).
  // Fails with kResourceExhausted if the segment is full and kFailedPrecondition if it has
  // never been erased.
  StatusOr<NandOp> ProgramPage(uint64_t segment, const PageHeader& header,
                               std::span<const uint8_t> data, uint64_t issue_ns,
                               uint64_t* paddr_out);

  // Programs `requests.size()` consecutive next-free pages of `segment`, all issued at
  // `issue_ns` in one virtual-clock pass: consecutive paddrs round-robin the channels,
  // so the batch overlaps across them exactly as the same pages issued independently at
  // the same instant would. Appends one chosen paddr and one completion op per request.
  // The whole batch is validated up front, so a validation error programs nothing; an
  // injected fault or crash mid-batch, however, leaves the committed prefix behind (a
  // torn batch) — the out-vectors then hold exactly the pages that were programmed.
  // `issue_at` (empty, or one non-decreasing time per request) issues request i at
  // issue_at[i] instead of the shared `issue_ns` — the multi-queue staggered path.
  Status ProgramBatch(uint64_t segment, std::span<const ProgramRequest> requests,
                      uint64_t issue_ns, std::vector<uint64_t>* paddrs_out,
                      std::vector<NandOp>* ops_out,
                      std::span<const uint64_t> issue_at = {});

  // Reads a programmed page. `data_out` may be nullptr to skip payload copying.
  StatusOr<NandOp> ReadPage(uint64_t paddr, uint64_t issue_ns, PageHeader* header_out,
                            std::vector<uint8_t>* data_out);

  // On-die copyback: relocates the stored bytes of `src_paddr` (header + payload,
  // verbatim — the stored CRC travels with the page, so latent corruption stays
  // detectable) into the next free page of `dst_segment` without a host DMA. When
  // source and destination land on the same channel the move happens inside the die
  // and occupies only that channel (bus_ns == 0); across channels the device falls
  // back to an internal read + program that pays both bus transfers, reported as one
  // combined NandOp (the span invariant still holds bit-exactly). With
  // `config.copyback_scrub` the source CRC is re-verified first and a mismatch
  // returns kDataLoss without programming anything. Fault gates mirror ReadPage and
  // ProgramCommit: transient read failures return kUnavailable (retryable), program
  // failures retire the destination block and return kDataLoss.
  StatusOr<NandOp> CopybackPage(uint64_t src_paddr, uint64_t dst_segment,
                                uint64_t issue_ns, uint64_t* paddr_out);

  // ReadPage with bounded retry: transient failures (kUnavailable) are retried up to
  // `max_attempts` total attempts; permanent errors (CRC mismatch -> kDataLoss,
  // structural errors) return immediately. Each retry re-charges device time.
  StatusOr<NandOp> ReadPageWithRetry(uint64_t paddr, uint64_t issue_ns,
                                     PageHeader* header_out,
                                     std::vector<uint8_t>* data_out,
                                     uint32_t max_attempts);

  // Reads just the OOB header of one page (used by targeted metadata lookups).
  StatusOr<NandOp> ReadHeader(uint64_t paddr, uint64_t issue_ns, PageHeader* header_out);

  // Bulk-scans the OOB headers of every programmed page in `segment`, appending
  // (paddr, header) pairs to `out`. This is the primitive behind snapshot activation and
  // crash recovery; it costs header_scan_ns_per_page per programmed page.
  StatusOr<NandOp> ScanSegmentHeaders(uint64_t segment, uint64_t issue_ns,
                                      std::vector<std::pair<uint64_t, PageHeader>>* out);

  // Erases a whole segment, freeing all of its pages.
  StatusOr<NandOp> EraseSegment(uint64_t segment, uint64_t issue_ns);

  // --- Untimed inspection (tests, internal bookkeeping; not part of the device timing) ---

  bool IsProgrammed(uint64_t paddr) const;
  // Header of a programmed page without charging device time. CHECK-fails on free pages.
  const PageHeader& PeekHeader(uint64_t paddr) const;
  // Stored payload bytes of a programmed page, untimed and fault-free. Models the
  // on-die data path parity accumulation taps during copyback (the bytes never cross
  // the transfer bus) and backs fsck's offline stripe reconstruction. CHECK-fails on
  // free pages. May return corrupted bytes — callers that need integrity must check
  // PageCrcIntact first. The span points into the segment's payload arena: it stays
  // valid only until the next program or erase of that segment, so use or copy it
  // before programming anything.
  std::span<const uint8_t> PeekPageData(uint64_t paddr) const;
  // Number of programmed pages in a segment (failed-program holes excluded).
  uint64_t ProgrammedPages(uint64_t segment) const;
  // Next page index to be programmed in a segment (== pages_per_segment when full).
  uint64_t NextFreePage(uint64_t segment) const;
  bool SegmentErased(uint64_t segment) const;
  uint64_t EraseCount(uint64_t segment) const;
  // Highest per-segment erase count among *usable* segments, maintained incrementally
  // so wear checks need not rescan every segment. Grown bad blocks are excluded: their
  // frozen erase counts must not anchor wear-leveling decisions.
  uint64_t MaxEraseCount() const { return max_erase_count_; }
  // True once the segment has become a grown bad block (failed program/erase, scheduled
  // bad block, or wear-out). Bad segments refuse further programs and erases.
  bool IsBadSegment(uint64_t segment) const;
  // Untimed CRC verification of a programmed page. Error-path triage (e.g. deciding
  // whether a copyback kDataLoss blamed the source or the destination); charges no
  // device time.
  bool PageCrcIntact(uint64_t paddr) const;
  // Data reads a segment has absorbed since its last erase (read-disturb input; also
  // the patrol scrubber's refresh trigger).
  uint64_t SegmentReadCount(uint64_t segment) const;
  // Virtual-clock instant the page was programmed (retention-age input). 0 for free
  // pages.
  uint64_t PageProgrammedAtNs(uint64_t paddr) const;

  // Raw page inspection for offline checking (iosnap_fsck). Unlike the timed read
  // path and ScanSegmentHeaders — which silently drop CRC-failing pages — this
  // surfaces the stored header of *every* programmed page together with its CRC
  // verdict, charges no device time, and draws no faults.
  struct PageInspection {
    bool programmed = false;
    bool crc_ok = false;
    PageHeader header;  // Raw stored header (may itself be the corrupted part).
  };
  PageInspection InspectPage(uint64_t paddr) const;

  const NandStats& stats() const { return stats_; }

  // --- Fault injection ---

  const FaultInjector& fault() const { return fault_; }
  // Disables all future fault behavior while preserving media damage already done
  // (bad blocks, corrupted pages) and the running op counter. Crash-recovery harnesses
  // call this between the simulated power loss and reopening the FTL.
  void ClearFaults() { fault_.Disarm(); }
  // Flips one bit of a programmed page (payload if stored, header otherwise) so its
  // CRC no longer verifies. Test hook for torn-tail / corruption scenarios.
  void CorruptPageForTesting(uint64_t paddr);

  // Optional flight-recorder hook (erase events); nullptr (the default) disables it.
  void SetTraceRecorder(TraceRecorder* trace) { trace_ = trace; }

  // --- Image serialization (offline inspection; see src/nand/nand_image.h) ---

  // Serializes the at-rest media state: geometry/timing config, per-segment wear
  // counters, and every programmed page with its stored header (including the stored
  // CRC, so latent corruption survives a save/load round trip) and payload. Busy
  // horizons are not captured — an image is powered-off media.
  void SerializeTo(std::vector<uint8_t>* out) const;
  // Rebuilds a device from SerializeTo() bytes. The loaded device has all fault
  // injection disarmed: images are inspected and repaired on a healthy host, and
  // latent damage is already baked into the stored bits. Untrusted bytes end in a
  // Status: geometry that ValidateGeometry rejects or that is larger than the image
  // can hold is kDataLoss before anything is allocated.
  static StatusOr<std::unique_ptr<NandDevice>> Deserialize(
      const std::vector<uint8_t>& bytes);

  // The geometries a device can be built from: every dimension non-zero, at most 2^24
  // pages in total and 2^16 channels or buses, and no segment whose payload could
  // reach 4 GiB. Returns kInvalidArgument naming the first bound broken. Image loading,
  // Ftl::Create and Ftl::Open check it before anything is sized from the geometry.
  static Status ValidateGeometry(const NandConfig& config);

  // --- Background-op classification (latency attribution) ---
  //
  // While a BackgroundScope is alive, every op the device serves is classified as
  // background traffic: its occupancy extends per-channel and bus *background* busy
  // horizons (shadow copies of the real horizons — they never influence timing).
  // Foreground ops later split their waits against those horizons into a
  // GC/activation-interference share (NandOp::bg_wait_ns). Pure bookkeeping: issue
  // and finish times are identical whether or not any scope was ever opened.
  class BackgroundScope {
   public:
    explicit BackgroundScope(NandDevice* device) : device_(device) {
      if (device_ != nullptr) ++device_->background_depth_;
    }
    ~BackgroundScope() {
      if (device_ != nullptr) --device_->background_depth_;
    }
    BackgroundScope(const BackgroundScope&) = delete;
    BackgroundScope& operator=(const BackgroundScope&) = delete;

   private:
    NandDevice* device_;
  };
  bool InBackgroundScope() const { return background_depth_ > 0; }

  // Earliest time at which the whole device is idle (max over channels and bus). Workload
  // drivers use this to convert a stream of async writes into sustained bandwidth.
  uint64_t DrainTimeNs() const;

  // --- Per-bus utilization (metrics) ---

  uint32_t NumBuses() const { return static_cast<uint32_t>(bus_busy_until_.size()); }
  // Cumulative transfer time carried by one bus over the whole run.
  uint64_t BusActiveNs(uint32_t bus) const { return bus_active_ns_[bus]; }
  // Fraction of the run (up to DrainTimeNs) the bus spent transferring; the quantity
  // whose saturation at ~1.0 marks the transfer-path throughput ceiling.
  double BusBusyFrac(uint32_t bus) const;

 private:
  struct SegmentState {
    bool erased = false;          // True after first erase; programming requires it.
    bool bad = false;             // Grown bad block: no further programs or erases.
    uint64_t next_page = 0;       // Next in-order page to program.
    uint64_t erase_count = 0;
    uint64_t read_count = 0;      // Data reads since last erase (read-disturb input).
    // Payload arena: the stored payloads of this segment's pages appended in program
    // order, and the end offset of each slot's bytes. Slot i holds
    // [payload_end[i - 1], payload_end[i]) (from 0 for slot 0); slots at or past
    // payload_end.size() store nothing, so a segment that never stores a payload
    // allocates nothing. Erase clears both and keeps their capacity.
    std::vector<uint8_t> payload;
    std::vector<uint32_t> payload_end;

    // [begin, end) offsets of `slot`'s payload in `payload`.
    std::pair<uint32_t, uint32_t> PayloadRange(uint64_t slot) const {
      if (slot >= payload_end.size()) {
        return {0, 0};
      }
      return {slot == 0 ? 0 : payload_end[slot - 1], payload_end[slot]};
    }
    std::span<const uint8_t> Payload(uint64_t slot) const {
      const auto [begin, end] = PayloadRange(slot);
      return std::span<const uint8_t>(payload).subspan(begin, end - begin);
    }
  };

  uint32_t ChannelOfPage(uint64_t paddr) const {
    return static_cast<uint32_t>(paddr % config_.num_channels);
  }
  uint32_t ChannelOfSegment(uint64_t segment) const {
    return static_cast<uint32_t>(segment % config_.num_channels);
  }
  // Channels stripe across the transfer buses.
  uint32_t BusOfChannel(uint32_t channel) const {
    return channel % static_cast<uint32_t>(bus_busy_until_.size());
  }

  // Serializes an op through a channel and (optionally) that channel's transfer bus.
  // Returns the completed NandOp with its span decomposition filled in (see NandOp).
  NandOp Occupy(uint32_t channel, uint64_t issue_ns, uint64_t bus_ns, uint64_t cell_ns);

  // The program checks, run once per batch before anything is programmed: the segment
  // exists, is neither bad nor unerased, has room for every request, and each payload
  // fits a page.
  Status ValidateProgram(uint64_t segment, std::span<const ProgramRequest> requests) const;
  // Post-validation single-page program body shared by ProgramPage and ProgramBatch.
  // It runs the fault gates: crash check, injected program failures and silent
  // corruption.
  StatusOr<NandOp> ProgramCommit(uint64_t segment, const PageHeader& header,
                                 std::span<const uint8_t> data, uint64_t issue_ns,
                                 uint64_t* paddr_out);

  // Wear model: counts a data read against `paddr`'s segment and, when the
  // read-disturb / retention knobs are live, rolls their corruption dice (rates
  // scale with the segment's read count and the page's age at `now_ns`). Called
  // from the data-read paths only — header scans never disturb the media. With
  // both knobs zero this touches no RNG state, preserving bit-identity.
  void ApplyReadWear(uint64_t paddr, uint64_t now_ns);

  // Marks a segment as a grown bad block and re-derives MaxEraseCount if the segment
  // was holding the maximum.
  void MarkBad(uint64_t segment);
  void FlipStoredBit(uint64_t paddr);
  // Stored payload of a page (empty when it stores none); see PeekPageData for how
  // long the span stays valid.
  std::span<const uint8_t> StoredPayload(uint64_t paddr) const {
    return segments_[SegmentOf(paddr)].Payload(PageInSegment(paddr));
  }
  bool PageCrcOk(uint64_t paddr, std::span<const uint8_t> payload) const {
    return headers_[paddr].crc == ComputePageCrc(headers_[paddr], payload);
  }
  bool PageCrcOk(uint64_t paddr) const { return PageCrcOk(paddr, StoredPayload(paddr)); }
  // Appends `bytes` as the payload of `slot`, the segment's newest programmed slot.
  // `bytes` must not point into this segment's arena, which the append may move.
  void AppendPayload(SegmentState& seg, uint64_t slot, std::span<const uint8_t> bytes);
  // Payload-size ceiling per record type: parity pages carry the member-image prefix
  // on top of a full page of XORed payload bytes.
  uint64_t MaxPayloadBytes(RecordType type) const;
  // True when a segment of `config` cannot hold 4 GiB of payload, so the arena's 32-bit
  // offsets cannot wrap: every slot at the per-type maximum stays below 2^32 bytes.
  static bool ArenaOffsetsFit(const NandConfig& config);

  NandConfig config_;
  FaultInjector fault_;
  // Per-page state, one structure per reader: the OOB header of every page (a default
  // header on free pages), the programmed bit (a failed program leaves an unprogrammed
  // hole below next_page, so it is not implied by the segment), and the virtual clock
  // at program time, which only the retention model and the patrol's age trigger read.
  // Payloads live in each segment's arena.
  std::vector<PageHeader> headers_;
  Bitmap programmed_;
  std::vector<uint64_t> programmed_at_ns_;
  std::vector<SegmentState> segments_;
  std::vector<uint64_t> channel_busy_until_;
  // One busy horizon per transfer bus (config.buses entries; buses=1 reproduces the
  // single shared bus bit-identically).
  std::vector<uint64_t> bus_busy_until_;
  // Shadow horizons advanced only by ops served under a BackgroundScope; read-only
  // inputs to the bg_wait_ns attribution of foreground ops. Never affect timing.
  std::vector<uint64_t> channel_bg_until_;
  std::vector<uint64_t> bus_bg_until_;
  // Cumulative transfer time per bus; feeds the nand.bus_busy_frac gauges.
  std::vector<uint64_t> bus_active_ns_;
  uint64_t background_depth_ = 0;
  uint64_t max_erase_count_ = 0;
  NandStats stats_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace iosnap

#endif  // SRC_NAND_NAND_DEVICE_H_
