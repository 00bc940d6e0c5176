#include "stalecert/util/levels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <vector>

namespace stalecert::util {
namespace {

/// Appends one level of `size` and applies the merge rule, as the
/// levelled structures do.
void append(std::vector<std::size_t>& sizes, std::size_t size) {
  sizes.push_back(size);
  const std::size_t start = merge_start(sizes);
  const std::size_t merged =
      std::accumulate(sizes.begin() + static_cast<std::ptrdiff_t>(start),
                      sizes.end(), std::size_t{0});
  sizes.resize(start);
  sizes.push_back(merged);
}

TEST(MergeRuleTest, SmallerNewestLevelStaysAlone) {
  const std::vector<std::size_t> sizes{100, 10, 3};
  EXPECT_EQ(merge_start(sizes), 2u);
  EXPECT_EQ(merge_start(std::vector<std::size_t>{100}), 0u);
}

TEST(MergeRuleTest, NewestAbsorbsPredecessorsWhileAtLeastAsLarge) {
  // 4 >= 4 absorbs, 8 >= 8 absorbs, 16 < 100 stops.
  EXPECT_EQ(merge_start(std::vector<std::size_t>{100, 8, 4, 4}), 1u);
  // A level as large as everything before it merges into the base.
  EXPECT_EQ(merge_start(std::vector<std::size_t>{100, 8, 120}), 0u);
}

TEST(MergeRuleTest, EqualAppendsBehaveLikeABinaryCounter) {
  std::vector<std::size_t> sizes{1'000'000};
  for (std::size_t n = 1; n <= 200; ++n) {
    append(sizes, 1);
    // The base plus one level per set bit of n.
    EXPECT_EQ(sizes.size(), 1u + static_cast<std::size_t>(std::popcount(n)))
        << n;
    EXPECT_TRUE(std::is_sorted(sizes.rbegin(), sizes.rend())) << n;
  }
}

TEST(MergeRuleTest, BaseMergeNeedsAsManyNewElementsAsTheBase) {
  std::vector<std::size_t> sizes{64};
  std::size_t added = 0;
  do {
    append(sizes, 4);
    added += 4;
  } while (sizes.size() > 1);
  EXPECT_EQ(added, 64u);
  EXPECT_EQ(sizes.front(), 128u);
}

TEST(LevelViewTest, IteratesAndIndexesAcrossChunks) {
  const std::vector<int> a{0, 1, 2};
  const std::vector<int> b{};
  const std::vector<int> c{3, 4};
  const std::vector<LevelChunk<int>> chunks{{0, &a}, {3, &b}, {3, &c}};
  const LevelView<int> view(chunks, 5);
  std::vector<int> seen(view.begin(), view.end());
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view[i], static_cast<int>(i));
  }
  const LevelView<int> empty({}, 0);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.begin(), empty.end());
}

}  // namespace
}  // namespace stalecert::util
