// Workload generators: streams of block-level operations used by benchmarks, examples and
// integration tests. Generators are deterministic given an Rng seed.

#ifndef SRC_WORKLOAD_WORKLOAD_H_
#define SRC_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "src/common/rng.h"

namespace iosnap {

enum class IoKind : uint8_t { kRead, kWrite };

struct IoOp {
  IoKind kind = IoKind::kWrite;
  uint64_t lba = 0;
};

// A (possibly infinite) stream of operations.
class Workload {
 public:
  virtual ~Workload() = default;
  // Next operation, or nullopt when the workload is exhausted.
  virtual std::optional<IoOp> Next() = 0;
};

// lba, lba+1, ..., lba+count-1 (wrapping if wrap=true), as reads or writes.
class SequentialWorkload : public Workload {
 public:
  SequentialWorkload(IoKind kind, uint64_t start_lba, uint64_t count, bool wrap = false);
  std::optional<IoOp> Next() override;

 private:
  IoKind kind_;
  uint64_t start_lba_;
  uint64_t count_;
  bool wrap_;
  uint64_t issued_ = 0;
};

// Uniformly random LBAs in [0, lba_space).
class RandomWorkload : public Workload {
 public:
  RandomWorkload(IoKind kind, uint64_t lba_space, uint64_t seed);
  std::optional<IoOp> Next() override;

 private:
  IoKind kind_;
  uint64_t lba_space_;
  Rng rng_;
};

// Random mix of reads and writes (read_fraction in [0,1]) over [0, lba_space).
class MixedWorkload : public Workload {
 public:
  MixedWorkload(double read_fraction, uint64_t lba_space, uint64_t seed);
  std::optional<IoOp> Next() override;

 private:
  double read_fraction_;
  uint64_t lba_space_;
  Rng rng_;
};

// Zipfian-skewed writes/reads over [0, lba_space): a hot subset of blocks dominates, the
// classic "hot/cold" pattern that segment-cleaning policies care about.
class ZipfWorkload : public Workload {
 public:
  ZipfWorkload(IoKind kind, uint64_t lba_space, double theta, uint64_t seed);
  std::optional<IoOp> Next() override;

 private:
  uint64_t Sample();

  IoKind kind_;
  uint64_t lba_space_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
  Rng rng_;
};

}  // namespace iosnap

#endif  // SRC_WORKLOAD_WORKLOAD_H_
