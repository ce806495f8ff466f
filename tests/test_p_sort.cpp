// Tests for parallel sample sort (the Ch. VI bucket kernel) across
// distributions, input patterns and location counts.

#include "algorithms/p_algorithms.hpp"
#include "algorithms/p_sort.hpp"
#include "containers/p_array.hpp"
#include "containers/p_vector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
    for (gid1d g = 0; g < n; ++g)
      EXPECT_EQ(pa.get_element(g), ref[g]) << "index " << g;
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

// ---------------------------------------------------------------------------
// Distributions beyond the balanced pArray
// ---------------------------------------------------------------------------

/// Fills `c` with `ref` (each location writes the elements it owns),
/// sorts it, and checks every element against the sorted reference.
template <typename C>
void sort_and_check(C& c, std::vector<long> ref)
{
  ASSERT_EQ(c.size(), ref.size());
  for (gid1d g = 0; g < ref.size(); ++g)
    if (c.is_local(g))
      c.local_element(g) = ref[g];
  rmi_fence();

  p_sample_sort(c);
  EXPECT_TRUE(p_is_sorted(c));
  std::sort(ref.begin(), ref.end());
  for (gid1d g = 0; g < ref.size(); ++g)
    EXPECT_EQ(c.get_element(g), ref[g]) << "index " << g;
  rmi_fence();
}

[[nodiscard]] std::vector<long> random_values(std::size_t n)
{
  std::mt19937 gen(99);
  std::vector<long> v(n);
  for (auto& x : v)
    x = static_cast<long>(gen() % 5000);
  return v;
}

class SampleSortDistTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SampleSortDistTest, PVectorAfterInsertFlush)
{
  execute(GetParam(), [] {
    p_vector<long> pv(900);
    // Unbalanced blocks: location 0 inserts into the first block only.
    if (this_location() == 0)
      for (int k = 0; k != 40; ++k)
        pv.insert_async(3, 0);
    pv.flush();
    sort_and_check(pv, random_values(940));
  });
}

TEST_P(SampleSortDistTest, BlockedPArray)
{
  execute(GetParam(), [] {
    // Many blocks per location: runs are cut at every block boundary.
    p_array<long, blocked_partition> pa(1000, blocked_partition(37));
    sort_and_check(pa, random_values(1000));
  });
}

TEST_P(SampleSortDistTest, BlockCyclicPArray)
{
  execute(GetParam(), [] {
    // A bContainer's GIDs are not one contiguous range: a run ends at
    // every block of 6 consecutive GIDs.
    p_array<long, block_cyclic_partition> pa(
        1000, block_cyclic_partition(num_locations(), 6));
    sort_and_check(pa, random_values(1000));
  });
}

TEST_P(SampleSortDistTest, DynamicPArrayWithMigratedElements)
{
  execute(GetParam(), [] {
    std::size_t const n = 500;
    p_array<long> pa(n);
    pa.make_dynamic();
    auto const stored = pa.local_gids();
    location_id const next = (this_location() + 1) % num_locations();
    for (std::size_t k = 0; k < stored.size(); k += 7)
      pa.migrate(stored[k], next);
    rmi_fence();
    sort_and_check(pa, random_values(n));
  });
}

TEST_P(SampleSortDistTest, FewerElementsThanLocations)
{
  execute(GetParam(), [] {
    for (std::size_t n : {0u, 1u, 3u}) {
      p_array<long> pa(n);
      sort_and_check(pa, random_values(n));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Locations, SampleSortDistTest,
                         ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------------------
// sort_detail: bucket index and splitter balance
// ---------------------------------------------------------------------------

TEST(SampleSortDetail, BucketOfMatchesUpperBound)
{
  std::mt19937 gen(5);
  std::less<> cmp;
  for (std::size_t k = 0; k != 10; ++k) {
    std::vector<int> splitters(k);
    for (auto& s : splitters)
      s = static_cast<int>(gen() % 20); // duplicates likely
    std::sort(splitters.begin(), splitters.end());
    for (int x = -2; x != 23; ++x) {
      auto const expect = static_cast<std::size_t>(
          std::upper_bound(splitters.begin(), splitters.end(), x) -
          splitters.begin());
      EXPECT_EQ(sort_detail::bucket_of(splitters, x, cmp), expect)
          << k << " splitters, x = " << x;
    }
  }
}

TEST(SampleSortDetail, BucketsWithinFivePercentOfTheMean)
{
  // P=4, 1 Mi random 64-bit keys: the splitters the sort would choose put
  // every bucket within ±5% of n/P.
  execute(4, [] {
    std::size_t const n = std::size_t{1} << 20;
    std::mt19937_64 gen(1000 + this_location());
    std::vector<std::uint64_t> local(n / 4);
    for (auto& x : local)
      x = gen();
    std::less<> cmp;
    auto const splitters = sort_detail::choose_splitters(local, cmp);
    ASSERT_EQ(splitters.size(), 3u);
    std::vector<std::size_t> counts(4, 0);
    for (auto const x : local)
      ++counts[sort_detail::bucket_of(splitters, x, cmp)];
    std::vector<std::size_t> total(4, 0);
    for (auto const& c : allgather(counts))
      for (std::size_t b = 0; b != 4; ++b)
        total[b] += c[b];
    double const mean = static_cast<double>(n) / 4;
    for (std::size_t b = 0; b != 4; ++b)
      EXPECT_NEAR(static_cast<double>(total[b]) / mean, 1.0, 0.05)
          << "bucket " << b << " holds " << total[b];
  });
}

} // namespace
