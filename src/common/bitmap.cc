#include "src/common/bitmap.h"

#include <bit>
#include <cassert>

namespace iosnap {

Bitmap::Bitmap(size_t num_bits)
    : num_bits_(num_bits), words_((num_bits + kBitsPerWord - 1) / kBitsPerWord, 0) {}

size_t Bitmap::CountOnes() const {
  size_t count = 0;
  for (uint64_t word : words_) {
    count += static_cast<size_t>(std::popcount(word));
  }
  return count;
}

size_t Bitmap::CountOnesInRange(size_t begin, size_t end) const {
  assert(begin <= end && end <= num_bits_);
  if (begin == end) {
    return 0;
  }
  // Masked popcounts: the first word from `begin` up, the last word below `end`.
  const size_t first = begin / kBitsPerWord;
  const size_t last = (end - 1) / kBitsPerWord;
  const uint64_t head = ~uint64_t{0} << (begin % kBitsPerWord);
  const uint64_t tail = ~uint64_t{0} >> (kBitsPerWord - 1 - (end - 1) % kBitsPerWord);
  if (first == last) {
    return static_cast<size_t>(std::popcount(words_[first] & head & tail));
  }
  size_t count = static_cast<size_t>(std::popcount(words_[first] & head));
  for (size_t w = first + 1; w < last; ++w) {
    count += static_cast<size_t>(std::popcount(words_[w]));
  }
  return count + static_cast<size_t>(std::popcount(words_[last] & tail));
}

size_t Bitmap::FindFirstSet(size_t from) const {
  if (from >= num_bits_) {
    return num_bits_;
  }
  size_t word_index = from / kBitsPerWord;
  uint64_t word = words_[word_index] & (~uint64_t{0} << (from % kBitsPerWord));
  while (true) {
    if (word != 0) {
      size_t bit = word_index * kBitsPerWord + static_cast<size_t>(std::countr_zero(word));
      return bit < num_bits_ ? bit : num_bits_;
    }
    ++word_index;
    if (word_index >= words_.size()) {
      return num_bits_;
    }
    word = words_[word_index];
  }
}

void Bitmap::Reset() {
  for (uint64_t& word : words_) {
    word = 0;
  }
}

void Bitmap::OrWith(const Bitmap& other) {
  assert(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) {
    words_[i] |= other.words_[i];
  }
}

size_t Bitmap::CountAndNot(const Bitmap& other) const {
  assert(num_bits_ == other.num_bits_);
  size_t count = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    count += static_cast<size_t>(std::popcount(words_[i] & ~other.words_[i]));
  }
  return count;
}

}  // namespace iosnap
