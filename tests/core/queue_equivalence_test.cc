// Multi-queue submission equivalence (src/core/io_queue):
//
//   1. queues=1, iodepth=1 is bit-identical to the vectored WriteV/ReadV/TrimV path —
//      same stats, same forward map, same virtual clock, same drain time — across GC
//      pressure, snapshot churn, a crash recovery, and a checkpoint restart.
//   2. Any (queues, iodepth) combination produces the same *logical* state as a
//      brute-force reference model applied in submission order: commit order is
//      submission order, out-of-orderness only reorders completion delivery.
//   3. A mid-run device crash under multi-queue load recovers to a state that is
//      exactly a submission-order prefix of the write stream (log replay).
//   4. Completion delivery order, per poll, matches digests recorded from the
//      linear-scan layer the completion heap replaced; finding what is due reads a
//      few entries per delivered op; a failed run aborts every later pending op.

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/ftl.h"
#include "src/core/io_queue.h"
#include "tests/test_util.h"

namespace iosnap {
namespace {

struct Step {
  enum Kind { kWrite, kRead, kTrim, kSnapshot, kDeleteSnapshot, kCrash, kRestart };
  Kind kind = kWrite;
  uint64_t lba = 0;
  uint64_t count = 1;
  uint64_t version = 0;
};

std::vector<Step> MakeScript(uint64_t lba_space, uint64_t seed) {
  std::vector<Step> script;
  Rng rng(seed);
  const uint64_t hot_space = lba_space / 2;
  uint64_t version = 0;
  auto data_ops = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const uint64_t roll = rng.Next() % 10;
      Step step;
      if (roll < 6) {
        step.kind = Step::kWrite;
        step.lba = rng.Next() % hot_space;
        step.version = ++version;
      } else if (roll < 9) {
        step.kind = Step::kRead;
        step.lba = rng.Next() % hot_space;
      } else {
        step.kind = Step::kTrim;
        step.lba = rng.Next() % hot_space;
        step.count = 1 + rng.Next() % std::min<uint64_t>(8, hot_space - step.lba);
      }
      script.push_back(step);
    }
  };
  data_ops(350);
  script.push_back({Step::kSnapshot});
  data_ops(250);
  script.push_back({Step::kCrash});
  data_ops(200);
  script.push_back({Step::kDeleteSnapshot});
  data_ops(100);
  script.push_back({Step::kRestart});
  data_ops(200);
  return script;
}

// Drives a script against one Ftl. Data-op groups of up to `group` steps go either
// through the vectored calls directly or through an IoQueueLayer at queues=1,
// iodepth=1; everything else (snapshots, restarts) runs identically in both modes.
class Driver {
 public:
  Driver(const FtlConfig& config, size_t group, bool queued)
      : config_(config), group_(group), queued_(queued) {
    auto ftl_or = Ftl::Create(config);
    IOSNAP_CHECK(ftl_or.ok());
    ftl_ = std::move(ftl_or).value();
  }

  ::testing::AssertionResult Run(const std::vector<Step>& script) {
    size_t i = 0;
    while (i < script.size()) {
      const Step& step = script[i];
      if (step.kind == Step::kWrite || step.kind == Step::kRead ||
          step.kind == Step::kTrim) {
        size_t j = i;
        while (j < script.size() && j - i < group_ &&
               (script[j].kind == Step::kWrite || script[j].kind == Step::kRead ||
                script[j].kind == Step::kTrim)) {
          ++j;
        }
        auto result = queued_ ? RunGroupQueued(script.data() + i, j - i)
                              : RunGroupVectored(script.data() + i, j - i);
        if (!result) {
          return result;
        }
        i = j;
        continue;
      }
      switch (step.kind) {
        case Step::kSnapshot: {
          auto result =
              ftl_->CreateSnapshot("s" + std::to_string(snap_ids_.size()), now_);
          if (!result.ok()) {
            return ::testing::AssertionFailure() << result.status().ToString();
          }
          snap_ids_.push_back(result->snap_id);
          now_ = std::max(now_, result->io.CompletionNs());
          break;
        }
        case Step::kDeleteSnapshot: {
          IOSNAP_CHECK(!snap_ids_.empty());
          const uint32_t id = snap_ids_.front();
          snap_ids_.erase(snap_ids_.begin());
          auto result = ftl_->DeleteSnapshot(id, now_);
          if (!result.ok()) {
            return ::testing::AssertionFailure() << result.status().ToString();
          }
          now_ = std::max(now_, result->CompletionNs());
          break;
        }
        case Step::kCrash:
        case Step::kRestart: {
          if (step.kind == Step::kRestart) {
            Status closed = ftl_->CheckpointAndClose(now_);
            if (!closed.ok()) {
              return ::testing::AssertionFailure() << closed.ToString();
            }
          }
          std::unique_ptr<NandDevice> device = ftl_->ReleaseDevice();
          uint64_t finish = now_;
          auto reopened = Ftl::Open(config_, std::move(device), now_, &finish);
          if (!reopened.ok()) {
            return ::testing::AssertionFailure() << reopened.status().ToString();
          }
          ftl_ = std::move(reopened).value();
          now_ = std::max(now_, finish);
          break;
        }
        default:
          break;
      }
      ++i;
    }
    return ::testing::AssertionSuccess();
  }

  const Ftl& ftl() const { return *ftl_; }
  uint64_t now() const { return now_; }
  const std::vector<uint32_t>& snap_ids() const { return snap_ids_; }

 private:
  ::testing::AssertionResult RunGroupVectored(const Step* steps, size_t n) {
    const uint64_t t = now_;
    ftl_->PumpBackground(t);
    uint64_t group_end = t;
    size_t i = 0;
    while (i < n) {
      size_t j = i;
      while (j < n && steps[j].kind == steps[i].kind) {
        ++j;
      }
      switch (steps[i].kind) {
        case Step::kWrite: {
          std::vector<std::vector<uint8_t>> payloads;
          std::vector<WriteRequest> requests;
          for (size_t k = i; k < j; ++k) {
            payloads.push_back(
                PageData(config_.nand.page_size_bytes, steps[k].lba, steps[k].version));
          }
          for (size_t k = i; k < j; ++k) {
            requests.push_back({steps[k].lba, payloads[k - i]});
          }
          auto ios = ftl_->WriteV(requests, t);
          if (!ios.ok()) {
            return ::testing::AssertionFailure() << ios.status().ToString();
          }
          for (const IoResult& io : *ios) {
            group_end = std::max(group_end, io.CompletionNs());
          }
          break;
        }
        case Step::kRead: {
          std::vector<uint64_t> lbas;
          for (size_t k = i; k < j; ++k) {
            lbas.push_back(steps[k].lba);
          }
          auto ios = ftl_->ReadV(lbas, t, nullptr);
          if (!ios.ok()) {
            return ::testing::AssertionFailure() << ios.status().ToString();
          }
          for (const IoResult& io : *ios) {
            group_end = std::max(group_end, io.CompletionNs());
          }
          break;
        }
        case Step::kTrim: {
          std::vector<TrimRequest> requests;
          for (size_t k = i; k < j; ++k) {
            requests.push_back({steps[k].lba, steps[k].count});
          }
          auto ios = ftl_->TrimV(requests, t);
          if (!ios.ok()) {
            return ::testing::AssertionFailure() << ios.status().ToString();
          }
          for (const IoResult& io : *ios) {
            group_end = std::max(group_end, io.CompletionNs());
          }
          break;
        }
        default:
          break;
      }
      i = j;
    }
    now_ = std::max(now_, group_end);
    return ::testing::AssertionSuccess();
  }

  ::testing::AssertionResult RunGroupQueued(const Step* steps, size_t n) {
    const uint64_t t = now_;
    ftl_->PumpBackground(t);
    // A fresh layer per group: iodepth=1 drains fully between groups anyway, and the
    // Ftl instance changes across restart boundaries.
    IoQueueLayer layer(ftl_.get(), {.queues = 1, .iodepth = 1});
    std::vector<std::vector<uint8_t>> payloads;
    std::vector<QueueOp> ops;
    for (size_t k = 0; k < n; ++k) {
      QueueOp op;
      switch (steps[k].kind) {
        case Step::kWrite:
          op.kind = QueueOpKind::kWrite;
          payloads.push_back(
              PageData(config_.nand.page_size_bytes, steps[k].lba, steps[k].version));
          break;
        case Step::kRead:
          op.kind = QueueOpKind::kRead;
          break;
        case Step::kTrim:
          op.kind = QueueOpKind::kTrim;
          op.count = steps[k].count;
          break;
        default:
          break;
      }
      op.lba = steps[k].lba;
      ops.push_back(op);
    }
    // Attach payload spans after the payload vector stopped reallocating.
    size_t p = 0;
    for (size_t k = 0; k < n; ++k) {
      if (ops[k].kind == QueueOpKind::kWrite) {
        ops[k].data = payloads[p++];
      }
    }
    auto sub = layer.Submit(0, ops, t);
    if (!sub.ok()) {
      return ::testing::AssertionFailure() << sub.status().ToString();
    }
    uint64_t group_end = t;
    for (const IoCompletion& c : layer.Drain()) {
      if (!c.status.ok()) {
        return ::testing::AssertionFailure() << c.status.ToString();
      }
      group_end = std::max(group_end, c.CompletionNs());
    }
    now_ = std::max(now_, group_end);
    return ::testing::AssertionSuccess();
  }

  FtlConfig config_;
  size_t group_;
  bool queued_;
  std::unique_ptr<Ftl> ftl_;
  uint64_t now_ = 0;
  std::vector<uint32_t> snap_ids_;
};

class QueueBitIdentityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(QueueBitIdentityTest, SingleQueueDepthOneMatchesVectoredBitForBit) {
  const size_t group = GetParam();
  FtlConfig config = SmallConfig();
  const std::vector<Step> script = MakeScript(config.LbaCount(), 2014);

  Driver vectored(config, group, /*queued=*/false);
  Driver queued(config, group, /*queued=*/true);
  ASSERT_TRUE(vectored.Run(script));
  ASSERT_TRUE(queued.Run(script));

  EXPECT_EQ(vectored.now(), queued.now());
  EXPECT_EQ(vectored.ftl().device().DrainTimeNs(), queued.ftl().device().DrainTimeNs());
  const FtlStats& a = vectored.ftl().stats();
  const FtlStats& b = queued.ftl().stats();
  EXPECT_EQ(0, std::memcmp(&a, &b, sizeof(FtlStats)));
  const NandStats& na = vectored.ftl().device().stats();
  const NandStats& nb = queued.ftl().device().stats();
  EXPECT_EQ(0, std::memcmp(&na, &nb, sizeof(NandStats)));
  auto map_a = vectored.ftl().ViewMapEntries(kPrimaryView);
  auto map_b = queued.ftl().ViewMapEntries(kPrimaryView);
  ASSERT_OK(map_a.status());
  ASSERT_OK(map_b.status());
  EXPECT_EQ(*map_a, *map_b);
  EXPECT_EQ(vectored.snap_ids(), queued.snap_ids());
}

INSTANTIATE_TEST_SUITE_P(Groups, QueueBitIdentityTest,
                         ::testing::Values<size_t>(1, 8, 32));

// (queues, iodepth)
class MultiQueueModelTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(MultiQueueModelTest, LogicalStateMatchesSubmissionOrderModel) {
  const auto [queues, iodepth] = GetParam();
  FtlConfig config = SmallConfig();
  auto ftl_or = Ftl::Create(config);
  ASSERT_OK(ftl_or.status());
  std::unique_ptr<Ftl> ftl = std::move(ftl_or).value();

  IoQueueLayer layer(ftl.get(), {.queues = queues, .iodepth = iodepth});
  const uint64_t lba_space = config.LbaCount() / 2;
  constexpr uint64_t kTotalOps = 3000;
  constexpr uint64_t kBatch = 8;

  ReferenceModel model;
  // model state *at submission time* of each read op, keyed by global op id (dense,
  // assigned in submission order — mirror it with our own counter).
  std::vector<std::optional<uint64_t>> expected_read(kTotalOps);
  Rng rng(4242);
  uint64_t submitted = 0;
  uint64_t version = 0;
  uint64_t now = 0;
  uint64_t delivered = 0;

  std::vector<std::vector<uint8_t>> payloads;  // Alive until Submit copies them.
  std::vector<QueueOp> ops;
  while (submitted < kTotalOps || layer.InflightOps() > 0) {
    if (submitted < kTotalOps) {
      ftl->PumpBackground(now);
    }
    for (uint32_t q = 0; q < queues && submitted < kTotalOps; ++q) {
      while (layer.CanSubmit(q) && submitted < kTotalOps) {
        payloads.clear();
        ops.clear();
        const uint64_t n = std::min(kBatch, kTotalOps - submitted);
        for (uint64_t k = 0; k < n; ++k) {
          const uint64_t op_id = submitted + k;
          const uint64_t roll = rng.Next() % 10;
          QueueOp op;
          if (roll < 6) {
            op.kind = QueueOpKind::kWrite;
            op.lba = rng.Next() % lba_space;
            payloads.push_back(
                PageData(config.nand.page_size_bytes, op.lba, ++version));
            model.Write(op.lba, version);
          } else if (roll < 9) {
            op.kind = QueueOpKind::kRead;
            op.lba = rng.Next() % lba_space;
            expected_read[op_id] = model.Current(op.lba);
          } else {
            op.kind = QueueOpKind::kTrim;
            op.lba = rng.Next() % lba_space;
            op.count = 1 + rng.Next() % std::min<uint64_t>(4, lba_space - op.lba);
            model.Trim(op.lba, op.count);
          }
          ops.push_back(op);
        }
        size_t p = 0;
        for (QueueOp& op : ops) {
          if (op.kind == QueueOpKind::kWrite) {
            op.data = payloads[p++];
          }
        }
        ASSERT_OK(layer.Submit(q, ops, now).status());
        submitted += n;
      }
    }
    const std::optional<uint64_t> next = layer.NextCompletionNs();
    if (!next.has_value()) {
      break;
    }
    now = std::max(now, *next);
    for (const IoCompletion& c : layer.PollCompletions(now)) {
      ASSERT_OK(c.status);
      ++delivered;
      if (c.kind == QueueOpKind::kRead) {
        // The read must observe the model state at its *submission* point: commit
        // order is submission order even when delivery is not.
        ASSERT_LT(c.op_id, kTotalOps);
        const uint64_t v = expected_read[c.op_id].value_or(0);
        const std::vector<uint8_t> expected =
            v == 0 ? std::vector<uint8_t>(config.nand.page_size_bytes, 0)
                   : PageData(config.nand.page_size_bytes, c.lba, v);
        ASSERT_EQ(c.data, expected) << "op " << c.op_id << " lba " << c.lba;
      }
    }
  }
  EXPECT_EQ(delivered, kTotalOps);
  EXPECT_EQ(layer.InflightOps(), 0u);
  EXPECT_GE(layer.stats().merged_runs, layer.stats().flushes);

  // Final volume == model, via scalar reads outside the layer.
  for (uint64_t lba = 0; lba < lba_space; ++lba) {
    std::vector<uint8_t> data;
    auto io = ftl->Read(lba, now, &data);
    ASSERT_OK(io.status());
    now = std::max(now, io->CompletionNs());
    const uint64_t v = model.Current(lba);
    const std::vector<uint8_t> expected =
        v == 0 ? std::vector<uint8_t>(config.nand.page_size_bytes, 0)
               : PageData(config.nand.page_size_bytes, lba, v);
    ASSERT_EQ(data, expected) << "lba " << lba;
  }
  EXPECT_TRUE(ftl->validity().VerifyCounters());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MultiQueueModelTest,
    ::testing::Values(std::make_tuple(1u, 8u), std::make_tuple(2u, 8u),
                      std::make_tuple(2u, 32u), std::make_tuple(4u, 8u),
                      std::make_tuple(4u, 32u)));

// Crash mid-run under multi-queue load; recovery must land on an exact
// submission-order prefix of the write stream (single-page programs are atomic, runs
// commit in submission order, so the durable set is ops [0, C) for some C).
TEST(QueueCrashTest, RecoversToSubmissionOrderPrefix) {
  constexpr uint64_t kLbaSpace = 48;
  constexpr uint64_t kWrites = 400;
  for (const uint64_t crash_after : {5ull, 17ull, 64ull, 150ull, 333ull}) {
    SCOPED_TRACE("crash_after_op=" + std::to_string(crash_after));
    FtlConfig config = SmallConfig();
    FaultPlan plan;
    plan.crash_after_op = crash_after;
    plan.ApplyTo(&config);
    FtlHarness h(config);

    {
      IoQueueLayer layer(&h.ftl(), {.queues = 4, .iodepth = 4});
      std::vector<std::vector<uint8_t>> payloads;
      std::vector<QueueOp> ops;
      uint64_t submitted = 0;
      uint64_t now = h.now();
      bool dead = false;
      while (!dead && (submitted < kWrites || layer.InflightOps() > 0)) {
        for (uint32_t q = 0; q < 4 && submitted < kWrites; ++q) {
          while (layer.CanSubmit(q) && submitted < kWrites) {
            payloads.clear();
            ops.clear();
            const uint64_t n = std::min<uint64_t>(8, kWrites - submitted);
            for (uint64_t k = 0; k < n; ++k) {
              const uint64_t i = submitted + k;
              QueueOp op;
              op.kind = QueueOpKind::kWrite;
              op.lba = i % kLbaSpace;  // Round-robin; op i writes version i+1.
              payloads.push_back(
                  PageData(config.nand.page_size_bytes, op.lba, i + 1));
              ops.push_back(op);
            }
            size_t p = 0;
            for (QueueOp& op : ops) {
              op.data = payloads[p++];
            }
            ASSERT_OK(layer.Submit(q, ops, now).status());
            submitted += n;
          }
        }
        const std::optional<uint64_t> next = layer.NextCompletionNs();
        if (!next.has_value()) {
          break;
        }
        now = std::max(now, *next);
        for (const IoCompletion& c : layer.PollCompletions(now)) {
          if (!c.status.ok()) {
            dead = true;  // Device went offline; stop admitting, drain the rest.
          }
        }
      }
      layer.Drain();
      ASSERT_TRUE(dead || !h.ftl().device().fault().crashed());
      h.AdvanceTo(now);
    }

    ASSERT_OK(h.CrashAndReopen(/*clear_faults=*/true));
    ASSERT_TRUE(h.ftl().validity().VerifyCounters());

    // Recover each LBA's version: op i (version i+1) wrote lba i % kLbaSpace, so the
    // candidates for `lba` are {lba+1, lba+1+kLbaSpace, ...} plus "never written".
    std::vector<uint64_t> recovered(kLbaSpace, 0);
    for (uint64_t lba = 0; lba < kLbaSpace; ++lba) {
      std::vector<uint8_t> data;
      auto io = h.ftl().Read(lba, h.now(), &data);
      ASSERT_OK(io.status());
      h.AdvanceTo(io->CompletionNs());
      bool matched =
          data == std::vector<uint8_t>(config.nand.page_size_bytes, 0);
      for (uint64_t v = lba + 1; !matched && v <= kWrites; v += kLbaSpace) {
        if (data == PageData(config.nand.page_size_bytes, lba, v)) {
          recovered[lba] = v;
          matched = true;
        }
      }
      ASSERT_TRUE(matched) << "lba " << lba << " holds a never-submitted payload";
    }

    // Prefix property: with C = max recovered version, every LBA must hold exactly
    // the last version the first C submitted ops gave it.
    const uint64_t c = *std::max_element(recovered.begin(), recovered.end());
    for (uint64_t lba = 0; lba < kLbaSpace; ++lba) {
      uint64_t expect = 0;
      if (c >= lba + 1) {
        expect = c - ((c - (lba + 1)) % kLbaSpace);
      }
      ASSERT_EQ(recovered[lba], expect) << "lba " << lba << " prefix C=" << c;
    }

    // The recovered device is usable.
    ASSERT_OK(h.Write(0, 9999));
    ASSERT_TRUE(h.CheckLba(kPrimaryView, 0, 9999));
  }
}

// Submits fixed-seed `batch`-op mixes of writes, reads and trims into every free queue
// slot at the current virtual time, then advances to NextCompletionNs() and polls.
// Returns the polls' deliveries in order, each NextCompletionNs() answer, and the
// layer's final stats.
struct PollLog {
  std::vector<uint64_t> next_ns;                 // One per NextCompletionNs() call.
  std::vector<uint64_t> poll_now;                // The `now` each poll ran at.
  std::vector<std::vector<IoCompletion>> polls;  // Each poll's deliveries, in order.
  std::vector<size_t> first_call;                // Per op: first call after its Submit.
  IoQueueStats stats;
};

PollLog RunMixedQueued(Ftl* ftl, const FtlConfig& config, uint32_t queues,
                       uint32_t iodepth, uint64_t batch, uint64_t total_ops) {
  IoQueueLayer layer(ftl, {.queues = queues, .iodepth = iodepth});
  const uint64_t lba_space = config.LbaCount() / 2;
  Rng rng(1515);
  PollLog log;
  log.first_call.resize(total_ops);
  uint64_t submitted = 0;
  uint64_t version = 0;
  uint64_t now = 0;
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<QueueOp> ops;
  while (submitted < total_ops || layer.InflightOps() > 0) {
    if (submitted < total_ops) {
      ftl->PumpBackground(now);
    }
    for (uint32_t q = 0; q < queues && submitted < total_ops; ++q) {
      while (layer.CanSubmit(q) && submitted < total_ops) {
        payloads.clear();
        ops.clear();
        const uint64_t n = std::min(batch, total_ops - submitted);
        for (uint64_t k = 0; k < n; ++k) {
          const uint64_t roll = rng.Next() % 10;
          QueueOp op;
          op.lba = rng.Next() % lba_space;
          if (roll < 6) {
            op.kind = QueueOpKind::kWrite;
            payloads.push_back(PageData(config.nand.page_size_bytes, op.lba, ++version));
          } else if (roll < 9) {
            op.kind = QueueOpKind::kRead;
          } else {
            op.kind = QueueOpKind::kTrim;
            op.count = 1 + rng.Next() % std::min<uint64_t>(4, lba_space - op.lba);
          }
          ops.push_back(op);
          log.first_call[submitted + k] = log.next_ns.size();
        }
        size_t p = 0;
        for (QueueOp& op : ops) {
          if (op.kind == QueueOpKind::kWrite) {
            op.data = payloads[p++];
          }
        }
        IOSNAP_CHECK(layer.Submit(q, ops, now).ok());
        submitted += n;
      }
    }
    const std::optional<uint64_t> next = layer.NextCompletionNs();
    if (!next.has_value()) {
      break;
    }
    log.next_ns.push_back(*next);
    now = std::max(now, *next);
    log.poll_now.push_back(now);
    log.polls.push_back(layer.PollCompletions(now));
  }
  log.stats = layer.stats();
  return log;
}

struct OrderShape {
  uint32_t queues;
  uint32_t iodepth;
  uint64_t digest;  // Computed by the linear-scan layer the completion heap replaced.
};

class DeliveryOrderTest : public ::testing::TestWithParam<OrderShape> {};

// Pins completion delivery against history: every delivered (op_id, submission_id,
// queue, CompletionNs, status code) in delivery order, each poll's boundary, and the
// final FtlStats/NandStats fold into one digest per shape. Alongside, per poll: each
// delivery is due, deliveries come sorted by (CompletionNs, op_id), and
// NextCompletionNs() was the minimum over the ops still undelivered at that call.
TEST_P(DeliveryOrderTest, MatchesPinnedDigest) {
  const OrderShape shape = GetParam();
  constexpr uint64_t kTotalOps = 6000;
  const FtlConfig config = SmallConfig();
  auto ftl_or = Ftl::Create(config);
  ASSERT_OK(ftl_or.status());
  std::unique_ptr<Ftl> ftl = std::move(ftl_or).value();

  const PollLog log = RunMixedQueued(ftl.get(), config, shape.queues, shape.iodepth,
                                     /*batch=*/8, kTotalOps);
  ASSERT_EQ(log.polls.size(), log.next_ns.size());

  Digest digest;
  std::vector<uint64_t> completion_ns(kTotalOps, 0);
  std::vector<size_t> delivered_at(kTotalOps, 0);
  std::vector<bool> delivered(kTotalOps, false);
  for (size_t k = 0; k < log.polls.size(); ++k) {
    const std::vector<IoCompletion>& poll = log.polls[k];
    ASSERT_FALSE(poll.empty()) << "poll " << k << " at its own NextCompletionNs";
    digest.Add(~uint64_t{0});  // Poll boundary.
    digest.Add(log.poll_now[k]);
    digest.Add(poll.size());
    for (size_t i = 0; i < poll.size(); ++i) {
      const IoCompletion& c = poll[i];
      ASSERT_LE(c.CompletionNs(), log.poll_now[k]) << "op " << c.op_id;
      if (i > 0) {
        const IoCompletion& prev = poll[i - 1];
        ASSERT_TRUE(prev.CompletionNs() < c.CompletionNs() ||
                    (prev.CompletionNs() == c.CompletionNs() && prev.op_id < c.op_id))
            << "poll " << k << " delivered op " << c.op_id << " after " << prev.op_id;
      }
      ASSERT_LT(c.op_id, kTotalOps);
      ASSERT_FALSE(delivered[c.op_id]) << "op " << c.op_id << " delivered twice";
      delivered[c.op_id] = true;
      completion_ns[c.op_id] = c.CompletionNs();
      delivered_at[c.op_id] = k;
      digest.Add(c.op_id);
      digest.Add(c.submission_id);
      digest.Add(c.queue);
      digest.Add(c.CompletionNs());
      digest.Add(static_cast<uint64_t>(c.status.code()));
    }
  }
  ASSERT_EQ(std::count(delivered.begin(), delivered.end(), true),
            static_cast<std::ptrdiff_t>(kTotalOps));

  // Completion times are fixed at commit (the Flush inside NextCompletionNs), so the
  // shadow minimum can be rebuilt after the fact: op i was undelivered at every call
  // from the first one after its Submit through the one before the poll delivering it.
  std::vector<uint64_t> shadow_min(log.next_ns.size(), ~uint64_t{0});
  for (uint64_t op = 0; op < kTotalOps; ++op) {
    for (size_t k = log.first_call[op]; k <= delivered_at[op]; ++k) {
      shadow_min[k] = std::min(shadow_min[k], completion_ns[op]);
    }
  }
  for (size_t k = 0; k < log.next_ns.size(); ++k) {
    ASSERT_EQ(log.next_ns[k], shadow_min[k]) << "NextCompletionNs call " << k;
  }

  EXPECT_GT(ftl->stats().gc_segments_cleaned, 0u) << "GC never ran";
  digest.AddWords(ftl->stats());
  digest.AddWords(ftl->device().stats());
  EXPECT_EQ(digest.value(), shape.digest)
      << "delivery digest 0x" << std::hex << digest.value() << " (queues="
      << std::dec << shape.queues << " iodepth=" << shape.iodepth << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DeliveryOrderTest,
    ::testing::Values(OrderShape{1, 1, 0xd07c3e266291de02ULL},
                      OrderShape{4, 8, 0x1c532d30064469a6ULL},
                      OrderShape{4, 32, 0x9a34eb1c9da0d88bULL}),
    [](const ::testing::TestParamInfo<OrderShape>& shape) {
      return "q" + std::to_string(shape.param.queues) + "d" +
             std::to_string(shape.param.iodepth);
    });

// Finding what is due reads the earliest undelivered completion, not every op in
// flight: at 1024 ops in flight (4 queues x iodepth 8 x 32-op submissions) a scan of
// the in-flight set would read about a thousand entries per delivered op.
TEST(QueueCostTest, ExaminesAtMostFourCompletionsPerDeliveredOp) {
  constexpr uint64_t kTotalOps = 8192;
  const FtlConfig config = SmallConfig();
  auto ftl_or = Ftl::Create(config);
  ASSERT_OK(ftl_or.status());
  std::unique_ptr<Ftl> ftl = std::move(ftl_or).value();
  const uint64_t global_before = GlobalIoQueueStats().completions_examined;

  const PollLog log = RunMixedQueued(ftl.get(), config, /*queues=*/4, /*iodepth=*/8,
                                     /*batch=*/32, kTotalOps);
  const IoQueueStats& s = log.stats;
  ASSERT_EQ(s.ops_completed, kTotalOps);
  EXPECT_EQ(s.max_inflight_ops, 1024u);
  EXPECT_GT(s.completions_examined, 0u);
  EXPECT_LE(s.completions_examined, 4 * s.ops_completed);
  EXPECT_EQ(GlobalIoQueueStats().completions_examined - global_before,
            s.completions_examined);
}

// A failed run fails its own ops with the FTL's error and every later pending op with
// kUnavailable, without any of those later ops reaching the FTL; the queue slots all
// come back. An earlier flush's completions are partly delivered and partly still
// queued when the run fails, so its failed completion (due at its issue time) is
// neither the last one queued nor in the last storage position.
TEST(QueueAbortTest, FailedRunAbortsLaterRunsWithoutReachingFtl) {
  constexpr uint64_t kRunOps = 8;
  FtlConfig config = SmallConfig();
  FaultPlan plan;
  plan.crash_after_op = kRunOps;  // The first write run succeeds; the next op fails.
  plan.ApplyTo(&config);

  std::vector<std::vector<uint8_t>> payloads;
  for (uint64_t lba = 0; lba < 3 * kRunOps; ++lba) {
    payloads.push_back(PageData(config.nand.page_size_bytes, lba, 1));
  }
  auto make_run = [&](QueueOpKind kind, uint64_t first, uint64_t n) {
    std::vector<QueueOp> ops(n);
    for (uint64_t i = 0; i < n; ++i) {
      ops[i].kind = kind;
      ops[i].lba = first + i;
      ops[i].count = 1;
      if (kind == QueueOpKind::kWrite) {
        ops[i].data = payloads[first + i];
      }
    }
    return ops;
  };
  auto write_reqs = [&](uint64_t first, uint64_t n) {
    std::vector<WriteRequest> reqs;
    for (uint64_t lba = first; lba < first + n; ++lba) {
      reqs.push_back({lba, payloads[lba]});
    }
    return reqs;
  };

  auto ftl_or = Ftl::Create(config);
  ASSERT_OK(ftl_or.status());
  std::unique_ptr<Ftl> ftl = std::move(ftl_or).value();
  IoQueueLayer layer(ftl.get(), {.queues = 2, .iodepth = 3});
  // Ops 0-7: a write run, committed; the earliest completions are delivered.
  ASSERT_OK(layer.Submit(0, make_run(QueueOpKind::kWrite, 0, kRunOps), 0).status());
  const std::optional<uint64_t> t1 = layer.NextCompletionNs();
  ASSERT_TRUE(t1.has_value());
  const std::vector<IoCompletion> early = layer.PollCompletions(*t1);
  ASSERT_FALSE(early.empty());
  ASSERT_LT(early.size(), kRunOps);
  // One Flush: a one-op write run (op 8, fails), then read, trim and write runs.
  ASSERT_OK(layer.Submit(1, make_run(QueueOpKind::kWrite, kRunOps, 1), *t1).status());
  ASSERT_OK(layer.Submit(0, make_run(QueueOpKind::kRead, 0, kRunOps), *t1).status());
  ASSERT_OK(layer.Submit(1, make_run(QueueOpKind::kTrim, 0, kRunOps), *t1).status());
  ASSERT_OK(layer.Submit(0, make_run(QueueOpKind::kWrite, 2 * kRunOps, kRunOps), *t1)
                .status());

  // Control: the two write runs alone, straight through the vectored path.
  auto control_or = Ftl::Create(config);
  ASSERT_OK(control_or.status());
  std::unique_ptr<Ftl> control = std::move(control_or).value();
  ASSERT_OK(control->WriteV(write_reqs(0, kRunOps), 0).status());
  const Status ftl_error = control->WriteV(write_reqs(kRunOps, 1), *t1).status();
  ASSERT_FALSE(ftl_error.ok()) << "the crash point must fail the one-op write run";

  const std::vector<IoCompletion> rest = layer.Drain();
  ASSERT_EQ(early.size() + rest.size(), 4 * kRunOps + 1);
  const Status aborted = Unavailable("io_queue: aborted after earlier run failed");
  for (const IoCompletion& c : rest) {
    if (c.op_id < kRunOps) {
      EXPECT_OK(c.status);
      continue;
    }
    if (c.op_id == kRunOps) {
      EXPECT_EQ(c.status, ftl_error);
    } else {
      EXPECT_EQ(c.status, aborted) << "op " << c.op_id;
    }
    EXPECT_EQ(c.CompletionNs(), *t1) << "op " << c.op_id;
  }
  EXPECT_EQ(layer.stats().ops_failed, 3 * kRunOps + 1);

  // The later runs never reached the FTL: its stats match the two write runs alone.
  const FtlStats& got = ftl->stats();
  const FtlStats& want = control->stats();
  EXPECT_EQ(0, std::memcmp(&got, &want, sizeof(FtlStats)));
  EXPECT_EQ(got.user_reads, 0u);
  EXPECT_EQ(got.user_trims, 0u);

  EXPECT_EQ(layer.InflightOps(), 0u);
  for (uint32_t q = 0; q < layer.queue_count(); ++q) {
    EXPECT_TRUE(layer.CanSubmit(q)) << "queue " << q;
  }
}

}  // namespace
}  // namespace iosnap
