#include "src/common/crc32.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace iosnap {
namespace {

// Bit-at-a-time CRC-32 over the reflected polynomial: the definition the table-driven
// implementation must reproduce for every length, alignment and split.
uint32_t ReferenceCrc32(std::span<const uint8_t> data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) != 0 ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> Pattern(size_t n) {
  std::vector<uint8_t> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  return data;
}

TEST(Crc32Test, KnownVector) {
  // The standard IEEE CRC-32 check value.
  const std::string s = "123456789";
  EXPECT_EQ(Crc32({reinterpret_cast<const uint8_t*>(s.data()), s.size()}), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInput) {
  EXPECT_EQ(Crc32({}), 0u);
}

// Every length 0-72 (nine 8-byte steps plus every tail) at every start offset 0-7.
TEST(Crc32Test, MatchesReferenceAtEveryLengthAndOffset) {
  const std::vector<uint8_t> buffer = Pattern(72 + 8);
  const std::span<const uint8_t> all(buffer);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 72; ++len) {
      const std::span<const uint8_t> data = all.subspan(offset, len);
      EXPECT_EQ(Crc32(data), ReferenceCrc32(data)) << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32Test, MatchesReferenceOnAPage) {
  const std::vector<uint8_t> page = Pattern(4096);
  EXPECT_EQ(Crc32(page), ReferenceCrc32(page));
}

TEST(Crc32Test, ExtendMatchesReferenceAtEverySplit) {
  const std::vector<uint8_t> buffer = Pattern(72);
  const std::span<const uint8_t> all(buffer);
  const uint32_t expected = ReferenceCrc32(all);
  for (size_t split = 0; split <= all.size(); ++split) {
    EXPECT_EQ(Crc32Extend(Crc32(all.first(split)), all.subspan(split)), expected)
        << "split " << split;
  }
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::vector<uint8_t> data = Pattern(300);
  const uint32_t whole = Crc32(data);
  const uint32_t split =
      Crc32Extend(Crc32(std::span<const uint8_t>(data).subspan(0, 100)),
                  std::span<const uint8_t>(data).subspan(100));
  EXPECT_EQ(whole, split);
}

TEST(Crc32Test, SingleBitFlipChangesValue) {
  std::vector<uint8_t> data(64, 0x5a);
  const uint32_t before = Crc32(data);
  for (size_t byte = 0; byte < data.size(); byte += 13) {
    data[byte] ^= 0x10;
    EXPECT_NE(Crc32(data), before);
    data[byte] ^= 0x10;
  }
  EXPECT_EQ(Crc32(data), before);
}

}  // namespace
}  // namespace iosnap
