#include "common/bit_vector.h"

#include <bit>
#include <cstdint>

#include "common/check.h"
#include "common/simd.h"

namespace freshsel {

BitVector::BitVector(std::size_t size)
    : size_(size), words_(WordCountFor(size), 0) {}

void BitVector::Set(std::size_t index) {
  FRESHSEL_DCHECK(index < size_) << "bit " << index
      << " out of range for BitVector of size " << size_;
  words_[index / kBitsPerWord] |= std::uint64_t{1} << (index % kBitsPerWord);
}

void BitVector::Reset(std::size_t index) {
  FRESHSEL_DCHECK(index < size_) << "bit " << index
      << " out of range for BitVector of size " << size_;
  words_[index / kBitsPerWord] &=
      ~(std::uint64_t{1} << (index % kBitsPerWord));
}

bool BitVector::Test(std::size_t index) const {
  FRESHSEL_DCHECK(index < size_) << "bit " << index
      << " out of range for BitVector of size " << size_;
  return (words_[index / kBitsPerWord] >>
          (index % kBitsPerWord)) & std::uint64_t{1};
}

void BitVector::Clear() {
  for (auto& word : words_) word = 0;
}

/// The dispatched word loops. Each `*Body` is the one implementation; the
/// `*Default` and `*V3` copies compile it for the build's ISA and for
/// x86-64-v3, and the member functions call the copy FRESHSEL_SIMD_PICK
/// selects (common/simd.h).
struct BitVector::Kernels {
  using Word = std::uint64_t;

  [[gnu::always_inline]] static std::size_t CountBody(const Word* a,
                                                      std::size_t n) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i) total += std::popcount(a[i]);
    return total;
  }
  [[gnu::always_inline]] static void OrWithBody(Word* dst, const Word* src,
                                                std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) dst[i] |= src[i];
  }
  [[gnu::always_inline]] static std::size_t IntersectCountBody(
      const Word* a, const Word* b, std::size_t n) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i) total += std::popcount(a[i] & b[i]);
    return total;
  }
  [[gnu::always_inline]] static std::size_t UnionCountBody(const Word* a,
                                                           const Word* b,
                                                           std::size_t n) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i) total += std::popcount(a[i] | b[i]);
    return total;
  }
  [[gnu::always_inline]] static std::size_t UnionCountOfBody(
      const std::vector<const BitVector*>& vectors) {
    if (vectors.empty()) return 0;
    const std::size_t words = vectors[0]->words_.size();
    std::size_t total = 0;
    for (std::size_t w = 0; w < words; ++w) {
      Word acc = 0;
      for (const BitVector* v : vectors) {
        FRESHSEL_DCHECK(v->words_.size() == words)
            << "BitVector word-count mismatch in UnionCountOf";
        acc |= v->words_[w];
      }
      total += std::popcount(acc);
    }
    return total;
  }

  static std::size_t CountDefault(const Word* a, std::size_t n) {
    return CountBody(a, n);
  }
  static void OrWithDefault(Word* dst, const Word* src, std::size_t n) {
    OrWithBody(dst, src, n);
  }
  static std::size_t IntersectCountDefault(const Word* a, const Word* b,
                                           std::size_t n) {
    return IntersectCountBody(a, b, n);
  }
  static std::size_t UnionCountDefault(const Word* a, const Word* b,
                                       std::size_t n) {
    return UnionCountBody(a, b, n);
  }
  static std::size_t UnionCountOfDefault(
      const std::vector<const BitVector*>& vectors) {
    return UnionCountOfBody(vectors);
  }

#if defined(FRESHSEL_SIMD_DISPATCH)
  FRESHSEL_TARGET_V3 static std::size_t CountV3(const Word* a,
                                                std::size_t n) {
    return CountBody(a, n);
  }
  FRESHSEL_TARGET_V3 static void OrWithV3(Word* dst, const Word* src,
                                          std::size_t n) {
    OrWithBody(dst, src, n);
  }
  FRESHSEL_TARGET_V3 static std::size_t IntersectCountV3(const Word* a,
                                                         const Word* b,
                                                         std::size_t n) {
    return IntersectCountBody(a, b, n);
  }
  FRESHSEL_TARGET_V3 static std::size_t UnionCountV3(const Word* a,
                                                     const Word* b,
                                                     std::size_t n) {
    return UnionCountBody(a, b, n);
  }
  FRESHSEL_TARGET_V3 static std::size_t UnionCountOfV3(
      const std::vector<const BitVector*>& vectors) {
    return UnionCountOfBody(vectors);
  }
#endif
};

std::size_t BitVector::Count() const {
  return FRESHSEL_SIMD_PICK(Kernels::CountDefault, Kernels::CountV3)(
      words_.data(), words_.size());
}

void BitVector::OrWith(const BitVector& other) {
  FRESHSEL_CHECK(other.size_ == size_)
      << "BitVector size mismatch: " << other.size_ << " vs " << size_;
  FRESHSEL_SIMD_PICK(Kernels::OrWithDefault, Kernels::OrWithV3)(
      words_.data(), other.words_.data(), words_.size());
}

void BitVector::AndNotWith(const BitVector& other) {
  FRESHSEL_CHECK(other.size_ == size_)
      << "BitVector size mismatch: " << other.size_ << " vs " << size_;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] &= ~other.words_[i];
  }
}

std::size_t BitVector::IntersectCount(const BitVector& other) const {
  FRESHSEL_CHECK(other.size_ == size_)
      << "BitVector size mismatch: " << other.size_ << " vs " << size_;
  return FRESHSEL_SIMD_PICK(Kernels::IntersectCountDefault,
                            Kernels::IntersectCountV3)(
      words_.data(), other.words_.data(), words_.size());
}

std::size_t BitVector::UnionCount(const BitVector& other) const {
  FRESHSEL_CHECK(other.size_ == size_)
      << "BitVector size mismatch: " << other.size_ << " vs " << size_;
  return FRESHSEL_SIMD_PICK(Kernels::UnionCountDefault,
                            Kernels::UnionCountV3)(
      words_.data(), other.words_.data(), words_.size());
}

std::size_t BitVector::UnionCountOf(
    const std::vector<const BitVector*>& vectors) {
  return FRESHSEL_SIMD_PICK(Kernels::UnionCountOfDefault,
                            Kernels::UnionCountOfV3)(vectors);
}

BitVector BitVector::UnionOf(const std::vector<const BitVector*>& vectors,
                             std::size_t size) {
  BitVector out(size);
  for (const BitVector* v : vectors) {
    out.OrWith(*v);
  }
  return out;
}

}  // namespace freshsel
