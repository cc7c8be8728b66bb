#include "src/core/trim_summary.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace iosnap {
namespace {

TEST(TrimSummaryTest, RoundTrip) {
  std::vector<TrimEntry> entries = {
      {10, 2, 0, 100},
      {500, 1, 3, 2000},
      {~uint64_t{0} - 5, 4, 7, ~uint64_t{0}},
  };
  const std::vector<uint8_t> payload = EncodeTrimSummary(entries, 0, entries.size());
  ASSERT_OK_AND_ASSIGN(std::vector<TrimEntry> decoded, DecodeTrimSummary(payload));
  EXPECT_EQ(decoded, entries);
}

TEST(TrimSummaryTest, SubrangeEncoding) {
  std::vector<TrimEntry> entries;
  for (uint32_t i = 0; i < 10; ++i) {
    entries.push_back({i, 1, 0, i});
  }
  const std::vector<uint8_t> payload = EncodeTrimSummary(entries, 4, 3);
  ASSERT_OK_AND_ASSIGN(std::vector<TrimEntry> decoded, DecodeTrimSummary(payload));
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[0].lba, 4u);
  EXPECT_EQ(decoded[2].lba, 6u);
}

TEST(TrimSummaryTest, EmptyAndTruncated) {
  const std::vector<uint8_t> payload = EncodeTrimSummary({}, 0, 0);
  ASSERT_OK_AND_ASSIGN(std::vector<TrimEntry> decoded, DecodeTrimSummary(payload));
  EXPECT_TRUE(decoded.empty());

  std::vector<uint8_t> truncated = EncodeTrimSummary({{1, 1, 1, 1}}, 0, 1);
  truncated.resize(truncated.size() - 3);
  EXPECT_FALSE(DecodeTrimSummary(truncated).ok());
}

// The entry count is untrusted: one the payload cannot hold is kDataLoss before anything
// is reserved for it.
TEST(TrimSummaryTest, HostileCountIsDataLoss) {
  EXPECT_EQ(DecodeTrimSummary({0xff, 0xff, 0xff, 0xff}).status().code(),
            StatusCode::kDataLoss);

  std::vector<uint8_t> payload = EncodeTrimSummary({{1, 1, 1, 1}, {2, 1, 1, 2}}, 0, 2);
  payload[0] = 3;  // One entry more than the payload holds.
  EXPECT_EQ(DecodeTrimSummary(payload).status().code(), StatusCode::kDataLoss);
  payload[0] = 2;
  ASSERT_OK_AND_ASSIGN(std::vector<TrimEntry> decoded, DecodeTrimSummary(payload));
  EXPECT_EQ(decoded.size(), 2u);
}

TEST(TrimSummaryTest, EntriesPerPageLeavesRoomForHeader) {
  EXPECT_EQ(TrimEntriesPerPage(4096), (4096u - 4) / 24);
  EXPECT_GT(TrimEntriesPerPage(512), 20u);
}

}  // namespace
}  // namespace iosnap
