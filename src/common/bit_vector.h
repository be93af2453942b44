#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace freshsel {

/// Fixed-width dynamic bitset used for the paper's per-source signatures
/// (Section 4.2.1): one bit per global entity id, with fast word-wise union
/// and popcount. All signatures over the same entity dictionary share one
/// width, so unions never resize.
///
/// The word loops behind Count, OrWith, IntersectCount, UnionCount and
/// UnionCountOf are dispatched at run time to an x86-64-v3 copy (hardware
/// popcount, AVX2) when the CPU has one; both copies give the same results
/// (common/simd.h).
class BitVector {
 public:
  BitVector() = default;
  /// All-zeros vector of `size` bits.
  explicit BitVector(std::size_t size);

  BitVector(const BitVector&) = default;
  BitVector& operator=(const BitVector&) = default;
  BitVector(BitVector&&) noexcept = default;
  BitVector& operator=(BitVector&&) noexcept = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre: index < size().
  void Set(std::size_t index);
  void Reset(std::size_t index);
  bool Test(std::size_t index) const;

  /// Sets all bits to zero, keeping the width.
  void Clear();

  /// Number of set bits.
  std::size_t Count() const;

  /// Word-wise OR with `other`. Pre: other.size() == size().
  void OrWith(const BitVector& other);

  /// Word-wise AND-NOT: clears every bit set in `other`.
  /// Pre: other.size() == size().
  void AndNotWith(const BitVector& other);

  /// |this AND other| without materializing the intersection.
  std::size_t IntersectCount(const BitVector& other) const;

  /// |this OR other| without materializing the union.
  std::size_t UnionCount(const BitVector& other) const;

  /// The backing 64-bit words, for callers that walk a sparse subset of
  /// them. Bits past size() in the last word are zero and must stay zero.
  std::size_t word_count() const { return words_.size(); }
  const std::uint64_t* words() const { return words_.data(); }
  std::uint64_t* mutable_words() { return words_.data(); }

  friend bool operator==(const BitVector& a, const BitVector& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

  /// Invokes `visit(index)` for every set bit in ascending order. Word-level
  /// iteration: cost is proportional to the number of set bits, not the
  /// width.
  template <typename Visitor>
  void VisitSetBits(Visitor&& visit) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = CountTrailingZeros(word);
        visit(w * kBitsPerWord + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// |b1 OR b2 OR ...| over `vectors` (pointers, all same width; empty list
  /// gives 0).
  static std::size_t UnionCountOf(
      const std::vector<const BitVector*>& vectors);

  /// OR of `vectors` into a fresh BitVector of width `size` (pointers may be
  /// empty; all must match `size`).
  static BitVector UnionOf(const std::vector<const BitVector*>& vectors,
                           std::size_t size);

 private:
  /// Per-ISA copies of the word loops (bit_vector.cc).
  struct Kernels;

  static constexpr std::size_t kBitsPerWord = 64;
  static std::size_t WordCountFor(std::size_t bits) {
    return (bits + kBitsPerWord - 1) / kBitsPerWord;
  }
  static int CountTrailingZeros(std::uint64_t word) {
    return __builtin_ctzll(word);
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace freshsel
