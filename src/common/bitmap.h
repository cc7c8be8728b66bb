// Dense bitset over 64-bit words. This is the raw storage primitive underneath the FTL's
// per-epoch copy-on-write validity maps (src/ftl/validity_map.h); it knows nothing about
// epochs or chunks itself.

#ifndef SRC_COMMON_BITMAP_H_
#define SRC_COMMON_BITMAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace iosnap {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(size_t num_bits);

  size_t size() const { return num_bits_; }

  // Inline: the device's programmed bitset and the validity chunks test and flip bits
  // on every page operation.
  void Set(size_t index) {
    assert(index < num_bits_);
    words_[index / kBitsPerWord] |= (uint64_t{1} << (index % kBitsPerWord));
  }
  void Clear(size_t index) {
    assert(index < num_bits_);
    words_[index / kBitsPerWord] &= ~(uint64_t{1} << (index % kBitsPerWord));
  }
  bool Test(size_t index) const {
    assert(index < num_bits_);
    return (words_[index / kBitsPerWord] >> (index % kBitsPerWord)) & 1;
  }

  // Number of set bits in the whole map.
  size_t CountOnes() const;

  // Number of set bits in [begin, end).
  size_t CountOnesInRange(size_t begin, size_t end) const;

  // Index of the first set bit at or after `from`, or size() if none.
  size_t FindFirstSet(size_t from = 0) const;

  // Sets all bits to zero without changing the size.
  void Reset();

  // In-place bitwise OR with another bitmap of identical size.
  void OrWith(const Bitmap& other);

  // Number of bits set here and clear in `other` (of identical size).
  size_t CountAndNot(const Bitmap& other) const;

  bool operator==(const Bitmap& other) const {
    return num_bits_ == other.num_bits_ && words_ == other.words_;
  }

  // Approximate heap footprint, used by memory-overhead experiments.
  size_t MemoryBytes() const { return words_.capacity() * sizeof(uint64_t); }

 private:
  static constexpr size_t kBitsPerWord = 64;

  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace iosnap

#endif  // SRC_COMMON_BITMAP_H_
