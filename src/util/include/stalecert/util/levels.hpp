#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <span>
#include <vector>

namespace stalecert::util {

/// The merge rule of every levelled structure (core::CertificateCorpus,
/// query::StalenessIndex), after Bentley & Saxe's logarithmic method.
/// `sizes` lists the level sizes oldest first; the last entry is the level
/// just added. The newest level absorbs its predecessor while it is at
/// least as large as that predecessor, and keeps absorbing with its grown
/// size. Returns the index of the oldest level to merge with the newest;
/// sizes.size() - 1 means no merge is due.
///
/// After the rule runs, level sizes strictly decrease from oldest to
/// newest, so equal-sized appends behave like a binary counter (O(log n)
/// levels), and a merge into the base level happens only once the levels
/// above it hold at least as many elements as the base.
[[nodiscard]] inline std::size_t merge_start(
    std::span<const std::size_t> sizes) {
  if (sizes.empty()) return 0;
  std::size_t start = sizes.size() - 1;
  std::size_t merged = sizes.back();
  while (start > 0 && merged >= sizes[start - 1]) {
    --start;
    merged += sizes[start];
  }
  return start;
}

/// One level's contribution to a flattened sequence: global positions
/// [first, first + items->size()).
template <typename T>
struct LevelChunk {
  std::size_t first = 0;
  const std::vector<T>* items = nullptr;
};

/// Read-only view of a sequence stored as consecutive level chunks, oldest
/// first: range-for, size() and operator[] as if it were one vector. The
/// view borrows its owner's chunk table and must not outlive it.
template <typename T>
class LevelView {
 public:
  using Chunk = LevelChunk<T>;

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    iterator() = default;
    iterator(const Chunk* chunk, const Chunk* end) : chunk_(chunk), end_(end) {
      skip_empty();
    }

    reference operator*() const { return (*chunk_->items)[pos_]; }
    pointer operator->() const { return &**this; }
    iterator& operator++() {
      if (++pos_ == chunk_->items->size()) {
        ++chunk_;
        pos_ = 0;
        skip_empty();
      }
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const iterator& other) const {
      return chunk_ == other.chunk_ && pos_ == other.pos_;
    }

   private:
    void skip_empty() {
      while (chunk_ != end_ && chunk_->items->empty()) ++chunk_;
    }

    const Chunk* chunk_ = nullptr;
    const Chunk* end_ = nullptr;
    std::size_t pos_ = 0;
  };
  using const_iterator = iterator;

  LevelView(std::span<const Chunk> chunks, std::size_t size)
      : chunks_(chunks), size_(size) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] iterator begin() const {
    return iterator(chunks_.data(), chunks_.data() + chunks_.size());
  }
  [[nodiscard]] iterator end() const {
    const Chunk* last = chunks_.data() + chunks_.size();
    return iterator(last, last);
  }

  /// Element at global position `i` (< size()); one chunk needs no search.
  const T& operator[](std::size_t i) const {
    const Chunk* chunk = chunks_.data();
    if (chunks_.size() > 1) {
      chunk = std::upper_bound(chunk, chunk + chunks_.size(), i,
                               [](std::size_t pos, const Chunk& c) {
                                 return pos < c.first;
                               }) -
              1;
    }
    return (*chunk->items)[i - chunk->first];
  }

 private:
  std::span<const Chunk> chunks_;
  std::size_t size_ = 0;
};

}  // namespace stalecert::util
