// Persistently packed bit-plane storage for the streaming conv datapath.
//
// Re-binarizing every window would decompose each input value k*k times
// at stride 1 (k*k*I values per output pixel). Here each activation is
// decomposed exactly once, as its row streams in:
//
//   BitPlaneLineBuffer — per plane, the last K padded rows of the input map
//     packed one bit per value, recycled mod K exactly like the dataflow
//     window scanner's row ring (§III-B2 of the paper).
//   PackedWindow — a window's plane words, assembled from the line buffer by
//     K contiguous bit-range splices per plane (word funnel shifts, never a
//     re-pack), stored plane-major as VecOps::dot_window reads them.
//   PackedFilters — packed weights in groups of simd::kFilterLanes filters,
//     word-interleaved once at kernel construction, so one vector load
//     reads the same word of a whole group (one lane per filter).
//
// Bit layout matches FilterBank: depth-first (dy, dx, ci)
// within a window, (x, ci) within a line-buffer row. Padding is code 0,
// whose bits are zero in every plane, so cleared rows/ranges are already
// correct for padded regions.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/bitops.h"
#include "core/bitvector.h"
#include "core/error.h"
#include "core/simd/vec_ops.h"

namespace qnn {

/// Rolling packed rows: `planes` bit-planes of `rows` padded rows of
/// `row_bits` values each. Rows are recycled mod `rows` by the caller.
class BitPlaneLineBuffer {
 public:
  static constexpr int kMaxPlanes = simd::kMaxPlanes;

  BitPlaneLineBuffer(int planes, int rows, std::int64_t row_bits)
      : planes_(planes),
        rows_(rows),
        row_words_(words_for_bits(row_bits)),
        data_(static_cast<std::size_t>(planes) * static_cast<std::size_t>(rows) *
                  static_cast<std::size_t>(row_words_),
              0) {
    QNN_CHECK(planes >= 1 && planes <= kMaxPlanes,
              "line buffer plane count out of range");
    QNN_CHECK(rows >= 1 && row_bits >= 1, "empty line buffer");
  }

  [[nodiscard]] int planes() const { return planes_; }
  [[nodiscard]] std::int64_t row_words() const { return row_words_; }

  [[nodiscard]] const Word* row(int plane, int r) const {
    return data_.data() + (static_cast<std::size_t>(plane) *
                               static_cast<std::size_t>(rows_) +
                           static_cast<std::size_t>(r)) *
                              static_cast<std::size_t>(row_words_);
  }

  /// Zero row `r` in every plane (re-entering the ring: padding = all-zero).
  void clear_row(int r) {
    for (int p = 0; p < planes_; ++p) {
      std::memset(mutable_row(p, r), 0,
                  static_cast<std::size_t>(row_words_) * sizeof(Word));
    }
  }

  /// OR-pack a run of activation codes into row `r` starting at bit
  /// position `start` (one bit per value per plane). The target range must
  /// have been cleared since the row was last recycled; runs never overlap.
  void pack_run(int r, std::int64_t start, std::span<const std::int32_t> vals) {
    std::int64_t pos = start;
    std::size_t i = 0;
    while (i < vals.size()) {
      const std::int64_t wi = pos / kWordBits;
      const int off = static_cast<int>(pos % kWordBits);
      const int n = static_cast<int>(
          std::min<std::int64_t>(static_cast<std::int64_t>(vals.size() - i),
                                 kWordBits - off));
      // Accumulate the <=64-bit chunk for all planes in registers, then OR
      // each plane's word once — one pass over the values, planes_ stores.
      std::array<Word, kMaxPlanes> chunk{};
      for (int j = 0; j < n; ++j) {
        const auto v = static_cast<std::uint32_t>(vals[i + static_cast<std::size_t>(j)]);
        for (int p = 0; p < planes_; ++p) {
          chunk[static_cast<std::size_t>(p)] |=
              static_cast<Word>((v >> p) & 1u) << j;
        }
      }
      for (int p = 0; p < planes_; ++p) {
        mutable_row(p, r)[wi] |= chunk[static_cast<std::size_t>(p)] << off;
      }
      pos += n;
      i += static_cast<std::size_t>(n);
    }
  }

 private:
  [[nodiscard]] Word* mutable_row(int plane, int r) {
    return data_.data() + (static_cast<std::size_t>(plane) *
                               static_cast<std::size_t>(rows_) +
                           static_cast<std::size_t>(r)) *
                              static_cast<std::size_t>(row_words_);
  }

  int planes_;
  int rows_;
  std::int64_t row_words_;
  std::vector<Word> data_;
};

/// One window's plane words, spliced from a BitPlaneLineBuffer: plane p
/// occupies words [p*plane_words, (p+1)*plane_words) of data().
class PackedWindow {
 public:
  PackedWindow(std::int64_t values, int planes)
      : values_(values),
        planes_(planes),
        plane_words_(words_for_bits(values)),
        data_(static_cast<std::size_t>(planes) *
                  static_cast<std::size_t>(plane_words_),
              0) {
    QNN_CHECK(values >= 1 && planes >= 1, "empty packed window");
  }

  [[nodiscard]] std::int64_t values() const { return values_; }
  [[nodiscard]] int planes() const { return planes_; }
  [[nodiscard]] std::int64_t plane_words() const { return plane_words_; }
  [[nodiscard]] const Word* data() const { return data_.data(); }

  /// Splice `len` bits of line row (`plane`, `r`) starting at bit `src_bit`
  /// into this window's plane at bit `dst_bit`.
  void splice(const BitPlaneLineBuffer& lines, int p, int r,
              std::int64_t src_bit, std::int64_t dst_bit, std::int64_t len) {
    copy_bits(lines.row(p, r), src_bit, mutable_plane(p), dst_bit, len);
  }

  /// Mask the tail word of every plane. Call once after the window's
  /// splices, before the dot.
  void finalize() {
    const int tail = static_cast<int>(values_ % kWordBits);
    if (tail == 0) return;
    for (int p = 0; p < planes_; ++p) {
      mutable_plane(p)[plane_words_ - 1] &= low_mask(tail);
    }
  }

 private:
  [[nodiscard]] Word* mutable_plane(int p) {
    return data_.data() +
           static_cast<std::size_t>(p) * static_cast<std::size_t>(plane_words_);
  }

  std::int64_t values_;
  int planes_;
  std::int64_t plane_words_;
  std::vector<Word> data_;
};

/// Packed +-1 weights in the VecOps::dot_window layout: filters in groups
/// of simd::kFilterLanes, word-interleaved, so word i of filter f sits at
/// data()[((f / L) * n + i) * L + f % L], with n words per filter and
/// L = kFilterLanes. The spare lanes of the last group stay zero; their
/// dots are never emitted. The BitVector tail-zero invariant carries over,
/// so the dot needs no weight-side masking.
class PackedFilters {
 public:
  PackedFilters(std::int64_t bits_per_filter, int count)
      : words_(static_cast<std::size_t>(words_for_bits(bits_per_filter))),
        count_(count),
        groups_((static_cast<std::size_t>(count) + simd::kFilterLanes - 1) /
                simd::kFilterLanes),
        data_(groups_ * words_ * simd::kFilterLanes, 0) {
    QNN_CHECK(bits_per_filter >= 1 && count >= 1, "empty packed filters");
  }

  [[nodiscard]] std::size_t groups() const { return groups_; }
  [[nodiscard]] const Word* data() const { return data_.data(); }

  /// Scatter filter `f`'s sign bits into its lane of its group.
  void set(int f, const BitVector& bits) {
    QNN_CHECK(f >= 0 && f < count_, "packed filter index out of range");
    QNN_CHECK(static_cast<std::size_t>(bits.words()) == words_,
              "packed filter width mismatch");
    const auto uf = static_cast<std::size_t>(f);
    Word* dst = data_.data() +
                (uf / simd::kFilterLanes) * words_ * simd::kFilterLanes +
                uf % simd::kFilterLanes;
    for (std::size_t i = 0; i < words_; ++i) {
      dst[i * simd::kFilterLanes] = bits.word(static_cast<std::int64_t>(i));
    }
  }

 private:
  std::size_t words_;
  int count_;
  std::size_t groups_;
  std::vector<Word> data_;
};

}  // namespace qnn
