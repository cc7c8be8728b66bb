// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) used to checksum page
// headers + payloads on the simulated NAND device so silent corruption is
// detectable instead of silently served back to the host. Computed slice-by-8
// (eight bytes per table step); the values are those of the classic byte-at-a-time
// table loop, independent of host byte order.

#ifndef SRC_COMMON_CRC32_H_
#define SRC_COMMON_CRC32_H_

#include <cstdint>
#include <span>

namespace iosnap {

// One-shot CRC-32 of `data`.
uint32_t Crc32(std::span<const uint8_t> data);

// Extends a previously computed CRC with more bytes, such that
//   Crc32Extend(Crc32(a), b) == Crc32(a || b).
uint32_t Crc32Extend(uint32_t crc, std::span<const uint8_t> data);

}  // namespace iosnap

#endif  // SRC_COMMON_CRC32_H_
