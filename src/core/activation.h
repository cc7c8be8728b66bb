// Snapshot activation (§5.6): building a snapshot's forward map on demand.
//
// ioSnap maintains no per-snapshot forward map online; activation reconstructs one by
// scanning the log's OOB headers and keeping exactly the pages set in the snapshot's
// frozen validity bitmap. Because the segment cleaner may have relocated blocks anywhere,
// every used segment must be scanned (the paper's constant scan phase). The collected
// (lba, paddr) pairs are sorted and bulk-loaded, which is why the activated tree is more
// compact than the organically grown active tree (Table 3).
//
// The scan is the background work that interferes with foreground I/O in Figure 9; it is
// paced by a RateLimiter with the paper's "x usec work / y msec sleep" knob.

#ifndef SRC_CORE_ACTIVATION_H_
#define SRC_CORE_ACTIVATION_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/ftl/rate_limiter.h"

namespace iosnap {

class Ftl;

class ActivationTask {
 public:
  // `view_id` must already exist in the Ftl (ready=false); `filter_epoch` is the
  // snapshot's frozen epoch whose validity selects pages.
  ActivationTask(Ftl* ftl, uint32_t view_id, uint32_t filter_epoch, RateLimit limit,
                 uint64_t start_ns);

  uint32_t view_id() const { return view_id_; }
  bool done() const { return phase_ == Phase::kDone; }
  uint64_t finish_ns() const { return finish_ns_; }

  const RateLimiter& limiter() const { return limiter_; }

  // Runs rate-limited bursts that are due at `now_ns`. Returns the device finish time of
  // the last burst (now_ns if none ran).
  StatusOr<uint64_t> Pump(uint64_t now_ns);

  // Ignores pacing and runs to completion; returns the finish time.
  StatusOr<uint64_t> RunToCompletion(uint64_t now_ns);

 private:
  enum class Phase { kScan, kBuild, kDone };

  // One burst of up to work_quantum_ns of device time. Returns its finish time.
  StatusOr<uint64_t> Burst(uint64_t now_ns);

  // Scans one segment (or skips it via the segment index). Returns device finish time.
  StatusOr<uint64_t> ScanOneSegment(uint64_t now_ns);

  // Sorts entries and bulk-loads the view's map; marks the view ready.
  uint64_t BuildMap(uint64_t now_ns);

  // Applies the cleaner's relocation journal to the sorted entries: for every LBA, its
  // last journaled move whose new page is still the snapshot's valid copy wins.
  void ApplyRelocations();

  Ftl* ftl_;
  uint32_t view_id_;
  uint32_t filter_epoch_;
  RateLimiter limiter_;
  Phase phase_ = Phase::kScan;
  uint64_t next_segment_ = 0;
  std::vector<std::pair<uint64_t, uint64_t>> entries_;  // (lba, paddr)
  std::vector<uint32_t> lineage_;                       // Root path of filter_epoch_.
  uint64_t finish_ns_ = 0;
};

}  // namespace iosnap

#endif  // SRC_CORE_ACTIVATION_H_
