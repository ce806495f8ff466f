// Tests for the pView layer (Ch. III.A, Table II) and the generic
// pAlgorithms (Ch. VIII.C), validated against sequential references.

#include "algorithms/p_algorithms.hpp"
#include "containers/p_array.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <vector>

namespace {

using namespace stapl;

class ViewAlgoTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ViewAlgoTest, GenerateForEachAccumulate)
{
  execute(GetParam(), [] {
    std::size_t const n = 1000;
    p_array<long> pa(n);
    array_1d_view v(pa);

    // p_generate with a deterministic generator seeded per location.
    long counter = 0;
    p_generate(v, [&counter]() { return counter++; });
    // Each local element got 0..local_size-1; global sum is the sum of
    // per-location arithmetic series.
    auto const local_n = pa.local_size();
    long const local_expect =
        static_cast<long>(local_n * (local_n - 1) / 2);
    long const expect = allreduce(local_expect, std::plus<>{});
    EXPECT_EQ(p_accumulate(v, 0L), expect);

    // p_for_each increments every element (the Fig. 24 kernel body).
    p_for_each(v, [](long& x) { ++x; });
    EXPECT_EQ(p_accumulate(v, 0L), expect + static_cast<long>(n));
    rmi_fence();
  });
}

TEST_P(ViewAlgoTest, FillCountFind)
{
  execute(GetParam(), [] {
    p_array<int> pa(500);
    array_1d_view v(pa);
    p_fill(v, 9);
    EXPECT_EQ(p_count(v, 9), 500u);
    EXPECT_EQ(p_count(v, 1), 0u);

    if (this_location() == 0)
      pa.set_element(321, 77);
    rmi_fence();
    EXPECT_EQ(p_find(v, 77), 321u);
    EXPECT_EQ(p_find(v, 123456), invalid_gid);
    EXPECT_EQ(p_count_if(v, [](int x) { return x > 10; }), 1u);
    rmi_fence();
  });
}

TEST_P(ViewAlgoTest, MinMaxInnerProduct)
{
  execute(GetParam(), [] {
    std::size_t const n = 256;
    p_array<int> pa(n);
    p_array<int> pb(n);
    array_1d_view va(pa), vb(pb);
    // a[i] = (i*37)%101, b[i] = 2 — deterministic, computed via gid.
    p_for_each_gid(va, [](gid1d g, int& x) {
      x = static_cast<int>((g * 37) % 101);
    });
    p_fill(vb, 2);

    std::vector<int> ref(n);
    for (std::size_t i = 0; i < n; ++i)
      ref[i] = static_cast<int>((i * 37) % 101);

    auto mn = p_min_element(va);
    auto mx = p_max_element(va);
    ASSERT_TRUE(mn.has_value());
    ASSERT_TRUE(mx.has_value());
    auto ref_mn = std::min_element(ref.begin(), ref.end());
    auto ref_mx = std::max_element(ref.begin(), ref.end());
    EXPECT_EQ(mn->second, *ref_mn);
    EXPECT_EQ(mx->second, *ref_mx);
    EXPECT_EQ(mn->first, static_cast<gid1d>(ref_mn - ref.begin()));
    EXPECT_EQ(mx->first, static_cast<gid1d>(ref_mx - ref.begin()));

    long const ip = p_inner_product(va, vb, 0L);
    long const ref_ip =
        std::inner_product(ref.begin(), ref.end(), ref.begin(), 0L,
                           std::plus<>{},
                           [](int a, int) { return 2L * a; });
    EXPECT_EQ(ip, ref_ip);
    rmi_fence();
  });
}

TEST_P(ViewAlgoTest, TransformAndCopy)
{
  execute(GetParam(), [] {
    std::size_t const n = 300;
    p_array<int> pa(n), pb(n);
    array_1d_view va(pa), vb(pb);
    p_for_each_gid(va, [](gid1d g, int& x) { x = static_cast<int>(g); });
    p_transform(va, vb, [](int x) { return x * x; });
    for (gid1d g = 0; g < n; g += 37)
      EXPECT_EQ(pb.get_element(g), static_cast<int>(g * g));

    p_array<int> pc(n);
    p_copy(vb, array_1d_view(pc));
    EXPECT_EQ(p_inner_product(array_1d_view(pb), array_1d_view(pc), 0L),
              p_inner_product(vb, vb, 0L));
    rmi_fence();
  });
}

TEST_P(ViewAlgoTest, PartialSum)
{
  execute(GetParam(), [] {
    std::size_t const n = 777;
    p_array<long> pa(n), pb(n);
    p_for_each_gid(array_1d_view(pa),
                   [](gid1d g, long& x) { x = static_cast<long>(g % 7); });
    p_partial_sum(pa, pb);

    std::vector<long> ref(n);
    for (std::size_t i = 0; i < n; ++i)
      ref[i] = static_cast<long>(i % 7);
    std::partial_sum(ref.begin(), ref.end(), ref.begin());
    for (gid1d g = 0; g < n; g += 31)
      EXPECT_EQ(pb.get_element(g), ref[g]);
    EXPECT_EQ(pb.get_element(n - 1), ref[n - 1]);
    rmi_fence();
  });
}

TEST_P(ViewAlgoTest, AdjacentDifference)
{
  execute(GetParam(), [] {
    std::size_t const n = 128;
    p_array<int> pa(n), pb(n);
    p_for_each_gid(array_1d_view(pa),
                   [](gid1d g, int& x) { x = static_cast<int>(g * g); });
    p_adjacent_difference(pa, pb);
    EXPECT_EQ(pb.get_element(0), 0);
    for (gid1d g = 1; g < n; ++g)
      EXPECT_EQ(pb.get_element(g),
                static_cast<int>(g * g - (g - 1) * (g - 1)));
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Specific views
// ---------------------------------------------------------------------------

TEST_P(ViewAlgoTest, BalancedViewCoversDomainOnce)
{
  execute(GetParam(), [] {
    p_array<int> pa(101);
    balanced_view bv(pa);
    auto counts = allgather(bv.local_gids());
    if (this_location() == 0) {
      std::vector<int> seen(101, 0);
      for (auto const& gs : counts)
        for (auto g : gs)
          ++seen[g];
      for (int c : seen)
        EXPECT_EQ(c, 1);
    }
    rmi_fence();
  });
}

TEST_P(ViewAlgoTest, StridedView)
{
  execute(GetParam(), [] {
    p_array<int> pa(100);
    p_for_each_gid(array_1d_view(pa),
                   [](gid1d g, int& x) { x = static_cast<int>(g); });
    strided_1d_view sv(pa, 2); // even elements
    EXPECT_EQ(sv.size(), 50u);
    // Double every even element through the strided view.
    p_for_each(sv, [](int& x) { x *= 2; });
    for (gid1d g = 0; g < 100; ++g)
      EXPECT_EQ(pa.get_element(g),
                g % 2 == 0 ? static_cast<int>(2 * g) : static_cast<int>(g));
    rmi_fence();
  });
}

TEST_P(ViewAlgoTest, TransformView)
{
  execute(GetParam(), [] {
    p_array<int> pa(64);
    p_fill(array_1d_view(pa), 3);
    array_1d_view av(pa);
    transform_view tv(av, [](int x) { return x * 10; });
    EXPECT_EQ(p_accumulate(tv, 0), 64 * 30);
    rmi_fence();
  });
}

TEST_P(ViewAlgoTest, FilteredView)
{
  execute(GetParam(), [] {
    p_array<int> pa(60);
    p_for_each_gid(array_1d_view(pa),
                   [](gid1d g, int& x) { x = static_cast<int>(g); });
    array_1d_view av(pa);
    filtered_view fv(av, [](gid1d g) { return g % 3 == 0; });
    EXPECT_EQ(fv.size(), 20u);
    // Sum of multiples of 3 below 60.
    EXPECT_EQ(p_accumulate(fv, 0), 3 * (19 * 20 / 2));
    rmi_fence();
  });
}

TEST_P(ViewAlgoTest, CountingView)
{
  execute(GetParam(), [] {
    counting_view<long> cv(1000, 5);
    EXPECT_EQ(p_accumulate(cv, 0L), 5L * 1000 + 999L * 1000 / 2);
    rmi_fence();
  });
}

TEST(OverlapView, PaperExample)
{
  // Fig. 2: A[0,10] (11 elements), c=2, l=2, r=1 -> windows
  // A[0,4], A[2,6], A[4,8], A[6,10].
  execute(2, [] {
    p_array<int> pa(11);
    p_for_each_gid(array_1d_view(pa),
                   [](gid1d g, int& x) { x = static_cast<int>(g); });
    array_1d_view v(pa);
    overlap_view ov(v, 2, 2, 1);
    EXPECT_EQ(ov.size(), 4u);
    for (gid1d i = 0; i < 4; ++i) {
      auto w = ov.read(i);
      EXPECT_EQ(w.first(), 2 * i);
      EXPECT_EQ(w.last(), 2 * i + 4);
      EXPECT_EQ(w.size(), 5u);
      for (std::size_t k = 0; k < w.size(); ++k)
        EXPECT_EQ(w[k], static_cast<int>(2 * i + k));
    }
    rmi_fence();
  });
}

TEST(OverlapView, StringMatchingPattern)
{
  // Sliding windows of 3 with core 1: classic adjacent-triples traversal.
  execute(4, [] {
    std::size_t const n = 50;
    p_array<int> pa(n);
    p_for_each_gid(array_1d_view(pa),
                   [](gid1d g, int& x) { x = static_cast<int>(g % 5); });
    array_1d_view v(pa);
    overlap_view ov(v, 1, 0, 2);
    EXPECT_EQ(ov.size(), n - 2);
    // Count windows summing to 6 ((1,2,3) and (2,3,4) patterns, etc.).
    std::size_t local = 0;
    for (auto i : ov.local_gids()) {
      auto w = ov.read(i);
      if (w[0] + w[1] + w[2] == 6)
        ++local;
    }
    auto const total = allreduce(local, std::plus<>{});
    std::size_t expect = 0;
    for (std::size_t i = 0; i + 2 < n; ++i)
      if (static_cast<int>(i % 5) + static_cast<int>((i + 1) % 5) +
              static_cast<int>((i + 2) % 5) ==
          6)
        ++expect;
    EXPECT_EQ(total, expect);
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// map_reduce: value- and gid-arity map functors, wrapper views
// ---------------------------------------------------------------------------

TEST(MapReduce, MatchesReference)
{
  execute(4, [] {
    std::size_t const n = 3000;
    p_array<long> pa(n);
    array_1d_view v(pa);
    p_for_each_gid(v, [](gid1d g, long& x) { x = static_cast<long>(g % 97); });

    long ref = 0;
    for (std::size_t g = 0; g < n; ++g)
      ref += static_cast<long>(g % 97);

    auto const sum = map_reduce(
        v, [](long const& x) { return x; },
        [](long a, long b) { return a + b; });
    ASSERT_TRUE(sum.has_value());
    EXPECT_EQ(*sum, ref);

    // GID-arity map functor.
    auto const weighted = map_reduce(
        v, [](gid1d g, long const& x) { return static_cast<long>(g) + x; },
        [](long a, long b) { return a + b; });
    ASSERT_TRUE(weighted.has_value());
    EXPECT_EQ(*weighted, ref + static_cast<long>(n * (n - 1) / 2));
    rmi_fence();
  });
}

TEST_P(ViewAlgoTest, WrapperViewMapReduceMatchesReference)
{
  execute(GetParam(), [] {
    std::size_t const n = 120;
    p_array<int> pa(n);
    p_for_each_gid(array_1d_view(pa),
                   [](gid1d g, int& x) { x = static_cast<int>(g); });
    array_1d_view av(pa);
    transform_view tv(av, [](int x) { return x * 2; });
    auto const sum = map_reduce(
        tv, [](int x) { return static_cast<long>(x); },
        [](long a, long b) { return a + b; });
    ASSERT_TRUE(sum.has_value());
    EXPECT_EQ(*sum, static_cast<long>(n * (n - 1)));
    rmi_fence();
  });
}

TEST(NativeView, AlignedTraversalIsAllLocal)
{
  execute(4, [] {
    p_array<int> pa(128);
    native_view nv(pa);
    for (auto g : nv.local_gids())
      EXPECT_NE(nv.try_local_ref(g), nullptr);
    // The native traversal visits exactly the local elements.
    std::size_t seen = 0;
    nv.for_each_local([&](gid1d, int&) { ++seen; });
    EXPECT_EQ(seen, pa.local_size());
    rmi_fence();
  });
}

INSTANTIATE_TEST_SUITE_P(Locations, ViewAlgoTest,
                         ::testing::Values(1, 2, 4, 8));

} // namespace
