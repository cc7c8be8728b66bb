#include "src/nand/parity.h"

#include <string>

#include "src/common/logging.h"

namespace iosnap {

namespace {

uint32_t GetLe32(const uint8_t* src) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(src[i]) << (8 * i);
  }
  return v;
}

uint64_t GetLe64(const uint8_t* src) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(src[i]) << (8 * i);
  }
  return v;
}

void PutLe32(uint8_t* dst, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    dst[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

}  // namespace

Status XorMemberImage(std::span<uint8_t> image, const PageHeader& header,
                      std::span<const uint8_t> stored_payload, uint64_t page_size_bytes) {
  IOSNAP_CHECK(image.size() == ParityImageSize(page_size_bytes));
  if (stored_payload.size() > page_size_bytes) {
    return DataLoss("parity: member payload of " + std::to_string(stored_payload.size()) +
                    " bytes exceeds the page size");
  }
  uint8_t prefix[kParityImagePrefixBytes];
  SerializePageHeaderFields(header, prefix);
  PutLe32(prefix + kPageHeaderCrcFieldBytes, header.crc);
  PutLe32(prefix + kPageHeaderCrcFieldBytes + 4,
          static_cast<uint32_t>(stored_payload.size()));
  for (size_t i = 0; i < kParityImagePrefixBytes; ++i) {
    image[i] ^= prefix[i];
  }
  // The payload region past stored_payload.size() stays untouched: XOR with the
  // implicit zero padding is the identity.
  for (size_t i = 0; i < stored_payload.size(); ++i) {
    image[kParityImagePrefixBytes + i] ^= stored_payload[i];
  }
  return OkStatus();
}

StatusOr<DecodedMember> DecodeMemberImage(std::span<const uint8_t> image,
                                          uint64_t page_size_bytes) {
  if (image.size() != ParityImageSize(page_size_bytes)) {
    return DataLoss("parity rebuild: image size " + std::to_string(image.size()) +
                    " does not match geometry");
  }
  DecodedMember out;
  out.header.type = static_cast<RecordType>(image[0]);
  out.header.lba = GetLe64(image.data() + 1);
  out.header.epoch = GetLe32(image.data() + 9);
  out.header.seq = GetLe64(image.data() + 13);
  out.header.snap_id = GetLe32(image.data() + 21);
  out.header.trim_count = GetLe32(image.data() + 25);
  out.header.payload_len = GetLe32(image.data() + 29);
  out.header.crc = GetLe32(image.data() + kPageHeaderCrcFieldBytes);
  const uint32_t stored_len = GetLe32(image.data() + kPageHeaderCrcFieldBytes + 4);
  if (stored_len > page_size_bytes) {
    return DataLoss("parity rebuild: decoded payload length " +
                    std::to_string(stored_len) + " exceeds page size");
  }
  out.payload.assign(image.begin() + kParityImagePrefixBytes,
                     image.begin() + kParityImagePrefixBytes + stored_len);
  if (ComputePageCrc(out.header, out.payload) != out.header.crc) {
    return DataLoss("parity rebuild: reconstructed page fails CRC (second fault in "
                    "stripe?)");
  }
  return out;
}

}  // namespace iosnap
