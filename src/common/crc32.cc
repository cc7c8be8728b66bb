#include "src/common/crc32.h"

#include <array>
#include <cstddef>

namespace iosnap {
namespace {

// Slice-by-8 tables. kCrc32Tables[0] is the classic byte table; kCrc32Tables[k][b] is
// the CRC contribution of byte b followed by k zero bytes, so one step folds eight input
// bytes with eight independent lookups instead of a chain of eight dependent ones.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

// Little-endian load assembled from bytes: no alignment or aliasing assumptions, and the
// same value on any host byte order (compilers fold it to one load on x86).
uint64_t LoadLe64(const uint8_t* p) {
  uint64_t word = 0;
  for (int i = 0; i < 8; ++i) {
    word |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return word;
}

uint32_t Crc32Raw(uint32_t state, std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  const auto& t = kCrc32Tables;
  for (; n >= 8; p += 8, n -= 8) {
    const uint64_t word = LoadLe64(p) ^ state;
    state = t[7][word & 0xFFu] ^ t[6][(word >> 8) & 0xFFu] ^ t[5][(word >> 16) & 0xFFu] ^
            t[4][(word >> 24) & 0xFFu] ^ t[3][(word >> 32) & 0xFFu] ^
            t[2][(word >> 40) & 0xFFu] ^ t[1][(word >> 48) & 0xFFu] ^ t[0][word >> 56];
  }
  for (; n > 0; ++p, --n) {
    state = t[0][(state ^ *p) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

}  // namespace

uint32_t Crc32(std::span<const uint8_t> data) {
  return Crc32Raw(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

uint32_t Crc32Extend(uint32_t crc, std::span<const uint8_t> data) {
  return Crc32Raw(crc ^ 0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

}  // namespace iosnap
