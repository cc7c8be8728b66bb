#include "src/common/serde.h"

#include <gtest/gtest.h>

namespace iosnap {
namespace {

TEST(SerdeTest, RoundTripScalars) {
  std::vector<uint8_t> buf;
  PutU8(&buf, 0xab);
  PutU32(&buf, 0xdeadbeef);
  PutU64(&buf, 0x0123456789abcdefULL);
  PutString(&buf, "hello");

  size_t offset = 0;
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::string s;
  ASSERT_TRUE(GetU8(buf, &offset, &u8).ok());
  ASSERT_TRUE(GetU32(buf, &offset, &u32).ok());
  ASSERT_TRUE(GetU64(buf, &offset, &u64).ok());
  ASSERT_TRUE(GetString(buf, &offset, &s).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(offset, buf.size());
}

TEST(SerdeTest, TruncationIsDataLoss) {
  std::vector<uint8_t> buf;
  PutU32(&buf, 7);
  buf.pop_back();
  size_t offset = 0;
  uint32_t v = 0;
  EXPECT_EQ(GetU32(buf, &offset, &v).code(), StatusCode::kDataLoss);
}

TEST(SerdeTest, TruncatedStringBody) {
  std::vector<uint8_t> buf;
  PutString(&buf, "abcdef");
  buf.resize(buf.size() - 2);
  size_t offset = 0;
  std::string s;
  EXPECT_EQ(GetString(buf, &offset, &s).code(), StatusCode::kDataLoss);
}

TEST(SerdeTest, EmptyString) {
  std::vector<uint8_t> buf;
  PutString(&buf, "");
  size_t offset = 0;
  std::string s = "junk";
  ASSERT_TRUE(GetString(buf, &offset, &s).ok());
  EXPECT_EQ(s, "");
}

}  // namespace
}  // namespace iosnap
