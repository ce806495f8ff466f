// Tests for parallel sample sort (the Ch. VI bucket kernel) across
// distributions, input patterns and location counts.

#include "algorithms/p_algorithms.hpp"
#include "algorithms/p_sort.hpp"
#include "containers/p_array.hpp"
#include "containers/p_vector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <type_traits>
#include <utility>

namespace {

using namespace stapl;

struct sort_case {
  unsigned locations;
  std::size_t n;
  int pattern; // 0 = random, 1 = sorted, 2 = reverse, 3 = constant,
               // 4 = full range (LONG_MIN and LONG_MAX repeated)
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
        case 4:
          v = g % 7 == 0   ? LONG_MIN
              : g % 7 == 1 ? LONG_MAX
                           : static_cast<long>(g * 0x9E3779B97F4A7C15ull);
          break;
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
                      sort_case{4, 500, 3}, sort_case{3, 97, 0},
                      sort_case{1, 1000, 4}, sort_case{2, 1000, 4},
                      sort_case{4, 1000, 4}, sort_case{8, 1000, 4}));

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
// sort_detail: bucket index, splitter balance and the bucket's counting pass
// ---------------------------------------------------------------------------

// Integral keys under std::less take counting digits; every other key or
// comparator sorts its bucket as one sub-bucket.
static_assert(sort_detail::counting_digits<std::uint64_t, std::less<>>);
static_assert(
    sort_detail::counting_digits<std::uint64_t, std::less<std::uint64_t>>);
static_assert(sort_detail::counting_digits<long, std::less<>>);
static_assert(sort_detail::counting_digits<long, std::less<long>>);
static_assert(!sort_detail::counting_digits<bool, std::less<>>);
static_assert(!sort_detail::counting_digits<double, std::less<>>);
static_assert(!sort_detail::counting_digits<long, std::greater<>>);

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
    auto const splitters = sort_detail::choose_splitters(
        sort_detail::draw_samples<std::uint64_t>(local.size(),
                                                 [&](auto take) {
                                                   for (auto const x : local)
                                                     take(x);
                                                 }),
        cmp);
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

/// A uniform key in [lo, hi] (narrow types are drawn as int: the standard
/// distributions take no char-sized type).
template <typename T>
[[nodiscard]] T draw(std::mt19937_64& gen, T lo, T hi)
{
  if constexpr (std::is_floating_point_v<T>)
    return std::uniform_real_distribution<T>(lo, hi)(gen);
  else {
    using D = std::conditional_t<(sizeof(T) < sizeof(int)), int, T>;
    return static_cast<T>(std::uniform_int_distribution<D>(lo, hi)(gen));
  }
}

/// Checks sort_bucket(batches, cmp) against std::sort of the batches'
/// concatenation, `keys` cut into batches at random points (empty batches
/// included).
template <typename T, typename Compare = std::less<>>
void expect_sorted_like_std(std::vector<T> keys, std::mt19937_64& gen,
                            Compare cmp = {})
{
  std::vector<std::size_t> cuts{0, keys.size()};
  for (std::size_t k = gen() % 8; k-- > 0;)
    cuts.push_back(gen() % (keys.size() + 1));
  std::sort(cuts.begin(), cuts.end());
  std::vector<std::vector<T>> batches;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i)
    batches.emplace_back(keys.begin() + static_cast<std::ptrdiff_t>(cuts[i]),
                         keys.begin() +
                             static_cast<std::ptrdiff_t>(cuts[i + 1]));
  auto const got = sort_detail::sort_bucket(batches, cmp);
  std::sort(keys.begin(), keys.end(), cmp);
  EXPECT_EQ(got, keys) << keys.size() << " keys";
}

/// `n` random keys of [lo, hi], lo and hi among them.
template <typename T>
[[nodiscard]] std::vector<T> keys_in(T lo, T hi, std::size_t n,
                                     std::mt19937_64& gen)
{
  std::vector<T> keys{lo, hi};
  while (keys.size() < n)
    keys.push_back(draw(gen, lo, hi));
  return keys;
}

/// Buckets whose keys span the type's whole range, its bottom and top
/// ends, and a window of at most 1000003 values (the range of
/// bench_scaling's keys) around the middle; each also with all keys equal;
/// then a single key and no key.
template <typename T, typename Compare = std::less<>>
void check_ranges(std::mt19937_64& gen, Compare cmp = {})
{
  using lim = std::numeric_limits<T>;
  auto const w = static_cast<T>(
      std::min<std::uintmax_t>(lim::max() / 4, std::uintmax_t{1000002}));
  T const mid = lim::is_signed ? T{0} : static_cast<T>(lim::max() / 2);
  std::pair<T, T> const ranges[] = {
      {lim::lowest(), lim::max()},
      {lim::lowest(), static_cast<T>(lim::lowest() + w)},
      {static_cast<T>(lim::max() - w), lim::max()},
      {static_cast<T>(mid - w / 2), static_cast<T>(mid + w / 2)}};
  for (auto const& [lo, hi] : ranges) {
    expect_sorted_like_std(keys_in(lo, hi, 3000, gen), gen, cmp);
    expect_sorted_like_std(std::vector<T>(3000, hi), gen, cmp);
  }
  expect_sorted_like_std(std::vector<T>{lim::max()}, gen, cmp);
  expect_sorted_like_std(std::vector<T>{}, gen, cmp);
}

TEST(SampleSortDetail, SortBucketMatchesStdSort)
{
  std::mt19937_64 gen(24);
  check_ranges<std::uint64_t>(gen);
  check_ranges<long>(gen);
  check_ranges<std::int16_t>(gen); // x - lo promotes to int
  check_ranges<unsigned char>(gen);

  // 2^19 keys: 256 level-1 runs of about 2^11 keys.
  expect_sorted_like_std(
      keys_in<std::uint64_t>(0, UINT64_MAX, std::size_t{1} << 19, gen), gen);

  // 2^16 keys in a window of 2^10 values, plus the type's min and max: one
  // level-1 digit holds almost every key, level 2 takes its cap of 16 bits,
  // and the keys still share one level-2 digit, so std::sort finishes them.
  for (std::uint64_t const lo : {std::uint64_t{0}, std::uint64_t{1} << 40}) {
    auto keys = keys_in<std::uint64_t>(lo, lo + 1023, std::size_t{1} << 16, gen);
    keys.push_back(0);
    keys.push_back(UINT64_MAX);
    expect_sorted_like_std(std::move(keys), gen);
  }
  {
    auto keys = keys_in<long>(-512, 511, std::size_t{1} << 16, gen);
    keys.push_back(LONG_MIN);
    keys.push_back(LONG_MAX);
    expect_sorted_like_std(std::move(keys), gen);
  }

  // 2^16 keys drawn from 300 distinct values: level-2 sub-runs of about
  // 220 equal keys take the std::sort path.
  {
    auto const values = keys_in<std::uint64_t>(0, UINT64_MAX, 300, gen);
    std::vector<std::uint64_t> keys(std::size_t{1} << 16);
    for (auto& x : keys)
      x = values[gen() % values.size()];
    expect_sorted_like_std(std::move(keys), gen);
  }

  // Sizes at each edge of the level widths: b1 = clamp(bit_width(n) - 12,
  // 1, 16) is 1 at 2^12 - 1 and at 2^12 and 2 at 2^13 + 1, and the
  // level-2 width follows each run's size.
  for (std::size_t const n : {(std::size_t{1} << 12) - 1, std::size_t{1} << 12,
                              (std::size_t{1} << 13) + 1}) {
    expect_sorted_like_std(keys_in<std::uint64_t>(0, UINT64_MAX, n, gen), gen);
    expect_sorted_like_std(keys_in<long>(-1000, 1000, n, gen), gen);
    expect_sorted_like_std(keys_in<std::int16_t>(INT16_MIN, INT16_MAX, n, gen),
                           gen);
    expect_sorted_like_std(keys_in<unsigned char>(0, 255, n, gen), gen);
  }

  // One sub-bucket: a floating-point key, and a comparator other than
  // std::less.
  expect_sorted_like_std(keys_in(-1e6, 1e6, 3000, gen), gen);
  expect_sorted_like_std(std::vector<double>(3000, 2.25), gen);
  check_ranges<int>(gen, std::greater<>{});
}

} // namespace
