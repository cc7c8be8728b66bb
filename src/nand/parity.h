// Intra-segment XOR parity: stripe geometry and the member-image encoding.
//
// Every open segment is divided into stripes of `parity_stripe` data-page slots
// followed by one parity slot; the parity page's payload is the XOR of its members'
// *member images* (header fields + stored CRC + stored payload length + zero-padded
// payload). XOR is linear, so a single unreadable member is exactly the XOR of the
// parity image with the surviving members' images — including the member's own header,
// CRC, and payload length, which is what lets the rebuild path re-verify the
// reconstructed page against the CRC the device originally stamped before trusting it.
//
// Geometry is a pure function of the in-segment page index (no on-media stripe map):
// with stripe width s, slot i is a parity slot iff i % (s+1) == s, and additionally
// the segment's final page is always a parity slot so a closing segment never leaves
// a tail of unprotected members. A parity slot covers exactly the member slots from
// the preceding stripe boundary up to itself. Because the mapping is positional it
// survives crashes and reopens with no metadata, and fsck can re-infer the stripe
// width from the smallest parity-page index it finds on the media.
//
// Choose `parity_stripe` so (s+1) divides pages_per_segment: otherwise the final
// stripe is short (fine) or — when pages_per_segment % (s+1) == 1 — the last page is
// a parity slot with zero members, written with trim_count = 0 and an all-zero image.

#ifndef SRC_NAND_PARITY_H_
#define SRC_NAND_PARITY_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/nand/page_header.h"

namespace iosnap {

// Member-image prefix: the 33 CRC-covered header field bytes, the stored CRC (4), and
// the stored payload length (4). The payload follows, zero-padded to page_size.
inline constexpr size_t kParityImagePrefixBytes = kPageHeaderCrcFieldBytes + 4 + 4;

// Bytes in a parity page's payload (uniform for every stripe, so short tail stripes
// XOR the same-sized images).
inline constexpr size_t ParityImageSize(uint64_t page_size_bytes) {
  return kParityImagePrefixBytes + static_cast<size_t>(page_size_bytes);
}

// True iff in-segment slot `index` holds parity under stripe width `stripe`.
inline constexpr bool IsParitySlot(uint64_t index, uint64_t stripe,
                                   uint64_t pages_per_segment) {
  if (stripe == 0) {
    return false;
  }
  return index % (stripe + 1) == stripe || index == pages_per_segment - 1;
}

// First member slot of the stripe containing `index` (member or parity slot alike).
inline constexpr uint64_t StripeStartIndex(uint64_t index, uint64_t stripe) {
  return index - index % (stripe + 1);
}

// The parity slot covering member slot `index`. `index` must not itself be a parity
// slot. The result is the next regular parity position, clamped to the segment's
// final page (which is always a parity slot).
inline constexpr uint64_t ParitySlotFor(uint64_t index, uint64_t stripe,
                                        uint64_t pages_per_segment) {
  const uint64_t regular = StripeStartIndex(index, stripe) + stripe;
  return regular < pages_per_segment ? regular : pages_per_segment - 1;
}

// XORs the member image of (header, stored_payload) into `image`, which must be
// ParityImageSize(page_size) bytes. `stored_payload` is the payload exactly as stored
// on the page (empty when the device elided it). A payload longer than a page has no
// member image: that is kDataLoss with `image` untouched, and every caller treats the
// member as unreadable (a kParity-typed page on media may legally hold one).
Status XorMemberImage(std::span<uint8_t> image, const PageHeader& header,
                      std::span<const uint8_t> stored_payload, uint64_t page_size_bytes);

// A member page decoded back out of a fully-XORed image (parity XOR all surviving
// members): its header (with the originally stamped CRC) and stored payload.
struct DecodedMember {
  PageHeader header;
  std::vector<uint8_t> payload;
};

// Decodes `image` into the missing member and verifies the reconstruction: the stored
// payload length must fit the page and ComputePageCrc over the decoded header +
// payload must equal the decoded stored CRC. A mismatch means a second corrupt member
// leaked into the XOR — the stripe cannot be rebuilt (kDataLoss).
StatusOr<DecodedMember> DecodeMemberImage(std::span<const uint8_t> image,
                                          uint64_t page_size_bytes);

}  // namespace iosnap

#endif  // SRC_NAND_PARITY_H_
