// Unit and property tests for pArray and the PCF machinery beneath it:
// domains, partitions, mappers, address resolution, the invoke skeleton,
// method categories (sync/async/split-phase) and the memory study interface
// (dissertation Ch. IV, V, IX).

#include "containers/p_array.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <vector>

namespace {

using namespace stapl;

// ---------------------------------------------------------------------------
// Domain properties (Tables V/VI)
// ---------------------------------------------------------------------------

TEST(IndexedDomain, Basics)
{
  indexed_domain d(3, 11);
  EXPECT_EQ(d.first(), 3u);
  EXPECT_EQ(d.last(), 11u);
  EXPECT_EQ(d.size(), 8u);
  EXPECT_TRUE(d.contains(3));
  EXPECT_TRUE(d.contains(10));
  EXPECT_FALSE(d.contains(11));
  EXPECT_EQ(d.next(3), 4u);
  EXPECT_EQ(d.prev(4), 3u);
  EXPECT_EQ(d.advance(3, 5), 8u);
  EXPECT_EQ(d.offset(7), 4u);
  EXPECT_EQ(d.at_offset(4), 7u);
}

TEST(IndexedDomain, EnumerationIsUnique)
{
  indexed_domain d(0, 100);
  gid1d g = d.first();
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(d.offset(g), i);
    g = d.next(g);
  }
  EXPECT_EQ(g, d.last());
}

TEST(Domain2D, RowMajorLinearization)
{
  domain2d d(3, 4);
  EXPECT_EQ(d.size(), 12u);
  EXPECT_EQ(d.offset({0, 0}), 0u);
  EXPECT_EQ(d.offset({1, 0}), 4u);
  EXPECT_EQ(d.offset({2, 3}), 11u);
  gid2d g = d.first();
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(d.offset(g), i);
    EXPECT_EQ(d.at_offset(i), g);
    g = d.next(g);
  }
}

TEST(FilteredDomain, EverySecondElement)
{
  // The Ch. IV.B.3 example: every second element of [0,10].
  filtered_domain fd(indexed_domain(0, 11),
                     [](gid1d g) { return g % 2 == 0; });
  EXPECT_EQ(fd.size(), 6u);
  EXPECT_TRUE(fd.contains(4));
  EXPECT_FALSE(fd.contains(5));
  auto gids = fd.gids();
  std::vector<gid1d> expect{0, 2, 4, 6, 8, 10};
  EXPECT_EQ(gids, expect);
}

// ---------------------------------------------------------------------------
// Partition invariants (Definition 9: cover, disjoint, ordered)
// ---------------------------------------------------------------------------

template <typename Partition>
void check_indexed_partition_invariants(Partition const& p, std::size_t n)
{
  // Each GID maps to exactly one sub-domain and round-trips through
  // (bcid, local_index) <-> gid.
  std::vector<std::size_t> counts(p.size(), 0);
  for (gid1d g = 0; g < n; ++g) {
    bcid_type const b = p.get_info(g);
    ASSERT_LT(b, p.size());
    std::size_t const li = p.local_index(g);
    ASSERT_LT(li, p.subdomain_size(b));
    EXPECT_EQ(p.gid_of(b, li), g);
    ++counts[b];
  }
  // Sub-domain sizes are consistent and cover the domain (disjointness is
  // implied by get_info being a function plus the counts matching).
  std::size_t total = 0;
  for (bcid_type b = 0; b < p.size(); ++b) {
    EXPECT_EQ(counts[b], p.subdomain_size(b));
    total += p.subdomain_size(b);
  }
  EXPECT_EQ(total, n);
}

class PartitionProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PartitionProperty, Balanced)
{
  std::size_t const n = GetParam();
  for (std::size_t parts : {1u, 2u, 3u, 7u, 16u}) {
    balanced_partition p(indexed_domain(n), parts);
    check_indexed_partition_invariants(p, n);
    // Balanced: sizes differ by at most one.
    std::size_t mn = n + 1, mx = 0;
    for (bcid_type b = 0; b < p.size(); ++b) {
      mn = std::min(mn, p.subdomain_size(b));
      mx = std::max(mx, p.subdomain_size(b));
    }
    if (n > 0) {
      EXPECT_LE(mx - mn, 1u);
    }
  }
}

TEST_P(PartitionProperty, Blocked)
{
  std::size_t const n = GetParam();
  if (n == 0)
    return;
  for (std::size_t bs : {1u, 3u, 10u, 64u}) {
    blocked_partition p(indexed_domain(n), bs);
    check_indexed_partition_invariants(p, n);
    for (bcid_type b = 0; b + 1 < p.size(); ++b)
      EXPECT_EQ(p.subdomain_size(b), bs); // all but last are full blocks
  }
}

TEST_P(PartitionProperty, BlockCyclic)
{
  std::size_t const n = GetParam();
  for (std::size_t parts : {1u, 2u, 5u}) {
    for (std::size_t bs : {1u, 3u}) {
      block_cyclic_partition p(parts, bs);
      p.set_domain(indexed_domain(n));
      check_indexed_partition_invariants(p, n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PartitionProperty,
                         ::testing::Values(0, 1, 7, 10, 100, 101, 1024));

TEST(Partition, BlockCyclicDealing)
{
  // Ch. V.D.4 example: partition_block_cyclic(D[0..10], 2, BLOCK_CYCLIC(1))
  // deals single elements alternately.
  block_cyclic_partition p(2, 1);
  p.set_domain(indexed_domain(0, 11));
  for (gid1d g = 0; g <= 10; ++g)
    EXPECT_EQ(p.get_info(g), g % 2);
}

TEST(Partition, ExplicitBlocks)
{
  // Ch. V.D.4 example: BLOCK(v{3,4,4}) over [0..10].
  explicit_partition p({3, 4, 4});
  p.set_domain(indexed_domain(0, 11));
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p.get_info(0), 0u);
  EXPECT_EQ(p.get_info(2), 0u);
  EXPECT_EQ(p.get_info(3), 1u);
  EXPECT_EQ(p.get_info(6), 1u);
  EXPECT_EQ(p.get_info(7), 2u);
  EXPECT_EQ(p.get_info(10), 2u);
  check_indexed_partition_invariants(p, 11);
}

TEST(Mapper, CyclicAndBlocked)
{
  execute(4, [] {
    cyclic_mapper cm(10, 4);
    for (bcid_type b = 0; b < 10; ++b)
      EXPECT_EQ(cm.map(b), b % 4);

    blocked_mapper bm(10, 4);
    // 10 bContainers over 4 locations: 3,3,2,2.
    std::vector<std::size_t> per_loc(4, 0);
    for (bcid_type b = 0; b < 10; ++b) {
      location_id const l = bm.map(b);
      ASSERT_LT(l, 4u);
      ++per_loc[l];
    }
    EXPECT_EQ(per_loc[0], 3u);
    EXPECT_EQ(per_loc[1], 3u);
    EXPECT_EQ(per_loc[2], 2u);
    EXPECT_EQ(per_loc[3], 2u);
    // local_bcids agrees with map.
    for (location_id l = 0; l < 4; ++l)
      for (bcid_type b : bm.local_bcids(l))
        EXPECT_EQ(bm.map(b), l);
  });
}

// ---------------------------------------------------------------------------
// pArray (Ch. IX)
// ---------------------------------------------------------------------------

class PArrayTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PArrayTest, ConstructionAndSize)
{
  execute(GetParam(), [] {
    p_array<int> pa(100);
    EXPECT_EQ(pa.size(), 100u);
    EXPECT_FALSE(pa.empty());
    // Local sizes sum to the global size.
    auto const total = allreduce(pa.local_size(), std::plus<>{});
    EXPECT_EQ(total, 100u);
    rmi_fence();
  });
}

TEST_P(PArrayTest, SetGetRoundTripAllElements)
{
  execute(GetParam(), [] {
    p_array<int> pa(123);
    // Location 0 writes every element; everyone reads every element.
    if (this_location() == 0)
      for (gid1d g = 0; g < 123; ++g)
        pa.set_element(g, static_cast<int>(3 * g + 1));
    rmi_fence();
    for (gid1d g = 0; g < 123; ++g)
      EXPECT_EQ(pa.get_element(g), static_cast<int>(3 * g + 1));
    rmi_fence();
  });
}

TEST_P(PArrayTest, EveryLocationWritesOwnSlice)
{
  execute(GetParam(), [] {
    std::size_t const n = 64 * num_locations();
    p_array<int> pa(n);
    // SPMD: each location writes the slice [me*64, me*64+64).
    gid1d const lo = 64 * this_location();
    for (gid1d g = lo; g < lo + 64; ++g)
      pa.set_element(g, static_cast<int>(g));
    rmi_fence();
    for (gid1d g = 0; g < n; ++g)
      EXPECT_EQ(pa.get_element(g), static_cast<int>(g));
    rmi_fence();
  });
}

TEST_P(PArrayTest, SplitPhaseGet)
{
  execute(GetParam(), [] {
    p_array<int> pa(50);
    if (this_location() == 0)
      for (gid1d g = 0; g < 50; ++g)
        pa.set_element(g, static_cast<int>(g * g));
    rmi_fence();
    // Issue all futures first, then harvest (the split-phase pattern).
    std::vector<pc_future<int>> futs;
    futs.reserve(50);
    for (gid1d g = 0; g < 50; ++g)
      futs.push_back(pa.split_phase_get_element(g));
    for (gid1d g = 0; g < 50; ++g)
      EXPECT_EQ(futs[g].get(), static_cast<int>(g * g));
    rmi_fence();
  });
}

TEST_P(PArrayTest, ApplyGetApplySet)
{
  execute(GetParam(), [] {
    p_array<int> pa(40, 5);
    if (this_location() == 0)
      for (gid1d g = 0; g < 40; ++g)
        pa.apply_set(g, [](int& x) { x *= 2; });
    rmi_fence();
    for (gid1d g = 0; g < 40; ++g)
      EXPECT_EQ(pa.apply_get(g, [](int const& x) { return x + 1; }), 11);
    rmi_fence();
  });
}

TEST_P(PArrayTest, OperatorBracketProxy)
{
  execute(GetParam(), [] {
    p_array<int> pa(10);
    if (this_location() == 0) {
      pa[3] = 42;
      pa[4] = pa[3]; // proxy-to-proxy assignment
    }
    rmi_fence();
    int const v3 = pa[3];
    int const v4 = pa[4];
    EXPECT_EQ(v3, 42);
    EXPECT_EQ(v4, 42);
    rmi_fence();
  });
}

TEST_P(PArrayTest, IsLocalAndLookupConsistent)
{
  execute(GetParam(), [] {
    p_array<int> pa(97);
    std::size_t local_count = 0;
    for (gid1d g = 0; g < 97; ++g) {
      location_id const owner = pa.lookup(g);
      ASSERT_LT(owner, num_locations());
      EXPECT_EQ(pa.is_local(g), owner == this_location());
      if (pa.is_local(g))
        ++local_count;
    }
    EXPECT_EQ(local_count, pa.local_size());
    // Ownership agrees across locations.
    for (gid1d g : {gid1d{0}, gid1d{48}, gid1d{96}}) {
      auto owners = allgather(pa.lookup(g));
      for (auto o : owners)
        EXPECT_EQ(o, owners[0]);
    }
    rmi_fence();
  });
}

TEST_P(PArrayTest, InitialValueConstructor)
{
  execute(GetParam(), [] {
    p_array<double> pa(30, 2.5);
    for (gid1d g = 0; g < 30; ++g)
      EXPECT_DOUBLE_EQ(pa.get_element(g), 2.5);
    rmi_fence();
  });
}

TEST_P(PArrayTest, BlockCyclicPartitionedArray)
{
  execute(GetParam(), [] {
    p_array<int, block_cyclic_partition> pa(
        60, block_cyclic_partition(2 * num_locations(), 3));
    gid1d const stride = num_locations();
    // Every location writes a strided set of elements.
    for (gid1d g = this_location(); g < 60; g += stride)
      pa.set_element(g, static_cast<int>(g + 7));
    rmi_fence();
    for (gid1d g = 0; g < 60; ++g)
      EXPECT_EQ(pa.get_element(g), static_cast<int>(g + 7));
    rmi_fence();
  });
}

TEST_P(PArrayTest, LocalElementFastPath)
{
  execute(GetParam(), [] {
    p_array<int> pa(64);
    for (gid1d g = 0; g < 64; ++g)
      if (pa.is_local(g)) {
        pa.local_element(g) = static_cast<int>(g) + 1;
      }
    rmi_fence();
    for (gid1d g = 0; g < 64; ++g)
      EXPECT_EQ(pa.get_element(g), static_cast<int>(g) + 1);
    rmi_fence();
  });
}

TEST_P(PArrayTest, RandomizedMixedReadsWrites)
{
  execute(GetParam(), [] {
    std::size_t const n = 200;
    p_array<long> pa(n, 0);
    // Each location owns a disjoint random subset (by modulo) and mirrors
    // the operations into a reference vector.
    std::mt19937 gen(42 + this_location());
    std::vector<long> expect(n, -1);
    for (int op = 0; op < 500; ++op) {
      gid1d const g =
          (gen() % (n / num_locations())) * num_locations() + this_location();
      long const v = static_cast<long>(gen() % 1000);
      pa.set_element(g, v);
      expect[g] = v;
    }
    rmi_fence();
    for (gid1d g = 0; g < n; ++g)
      if (expect[g] != -1) {
        EXPECT_EQ(pa.get_element(g), expect[g]);
      }
    rmi_fence();
  });
}

INSTANTIATE_TEST_SUITE_P(Locations, PArrayTest, ::testing::Values(1, 2, 4, 8));

TEST(PArray, MemoryReport)
{
  execute(4, [] {
    p_array<double> pa(1000);
    auto const [meta, data] = pa.global_memory_size();
    // Data: exactly 1000 doubles across locations.
    EXPECT_EQ(data, 1000 * sizeof(double));
    EXPECT_GT(meta, 0u);
    // Metadata should be small relative to data for a large container.
    EXPECT_LT(meta, data);
    rmi_fence();
  });
}

} // namespace
