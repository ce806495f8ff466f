// Tests for parallel sample sort (the Ch. VI bucket kernel) across
// distributions, input patterns and location counts.

#include "algorithms/p_algorithms.hpp"
#include "algorithms/p_sort.hpp"
#include "containers/p_array.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

namespace {

using namespace stapl;

struct sort_case {
  unsigned locations;
  std::size_t n;
  int pattern; // 0 = random, 1 = sorted, 2 = reverse, 3 = constant
};

class SampleSortTest : public ::testing::TestWithParam<sort_case> {};

TEST_P(SampleSortTest, SortsAndPreservesMultiset)
{
  auto const [p, n, pattern] = GetParam();
  execute(p, [n = n, pattern = pattern] {
    p_array<long> pa(n);
    std::vector<long> ref(n);
    for (gid1d g = 0; g < n; ++g) {
      long v = 0;
      switch (pattern) {
        case 0: v = static_cast<long>((g * 2654435761u) % 1000); break;
        case 1: v = static_cast<long>(g); break;
        case 2: v = static_cast<long>(n - g); break;
        case 3: v = 42; break;
      }
      ref[g] = v;
      if (pa.is_local(g))
        pa.local_element(g) = v;
    }
    rmi_fence();

    p_sample_sort(pa);
    EXPECT_TRUE(p_is_sorted(pa));

    std::sort(ref.begin(), ref.end());
    for (gid1d g = 0; g < n; g += std::max<std::size_t>(n / 64, 1))
      EXPECT_EQ(pa.get_element(g), ref[g]) << "index " << g;
    EXPECT_EQ(pa.get_element(n - 1), ref[n - 1]);
    rmi_fence();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SampleSortTest,
    ::testing::Values(sort_case{1, 100, 0}, sort_case{2, 128, 0},
                      sort_case{4, 1000, 0}, sort_case{8, 2048, 0},
                      sort_case{4, 777, 1}, sort_case{4, 777, 2},
                      sort_case{4, 500, 3}, sort_case{3, 97, 0}));

TEST(SampleSort, DescendingComparator)
{
  execute(4, [] {
    p_array<int> pa(256);
    p_for_each_gid(array_1d_view(pa), [](gid1d g, int& x) {
      x = static_cast<int>((g * 37) % 97);
    });
    p_sample_sort(pa, std::greater<>{});
    EXPECT_TRUE(p_is_sorted(pa, std::greater<>{}));
    rmi_fence();
  });
}

} // namespace
