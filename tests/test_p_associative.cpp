// Tests for associative pContainers (Ch. XII): pMap/pMultiMap/pHashMap and
// pSet/pMultiSet/pHashSet, value-based vs hashed partitions, and the
// map_view bridge into the generic algorithms.

#include "algorithms/p_algorithms.hpp"
#include "containers/p_associative.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>

namespace {

using namespace stapl;

class PAssocTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PAssocTest, MapInsertFindErase)
{
  execute(GetParam(), [] {
    p_map<int, std::string> pm;
    if (this_location() == 0) {
      pm.insert_async(1, "one");
      pm.insert_async(2, "two");
      pm.insert_async(42, "answer");
    }
    rmi_fence();
    EXPECT_EQ(pm.size(), 3u);
    auto [v, found] = pm.find_val(42);
    EXPECT_TRUE(found);
    EXPECT_EQ(v, "answer");
    auto [v2, found2] = pm.find_val(99);
    EXPECT_FALSE(found2);
    EXPECT_TRUE(pm.contains(1));
    rmi_fence();
    if (this_location() == 0)
      pm.erase_async(1);
    rmi_fence();
    EXPECT_FALSE(pm.contains(1));
    EXPECT_EQ(pm.size(), 2u);
    rmi_fence();
  });
}

TEST_P(PAssocTest, UniqueInsertSemantics)
{
  execute(GetParam(), [] {
    p_map<int, int> pm;
    // Everyone tries to insert the same key; exactly one wins.
    bool const mine = pm.insert(7, static_cast<int>(this_location()));
    auto const winners =
        allreduce(static_cast<int>(mine), std::plus<>{});
    EXPECT_EQ(winners, 1);
    EXPECT_EQ(pm.size(), 1u);
    rmi_fence();
  });
}

TEST_P(PAssocTest, SplitPhaseFind)
{
  execute(GetParam(), [] {
    p_hash_map<int, double> pm;
    if (this_location() == 0)
      for (int k = 0; k < 20; ++k)
        pm.insert_async(k, k * 0.5);
    rmi_fence();
    std::vector<pc_future<std::pair<double, bool>>> futs;
    for (int k = 0; k < 20; ++k)
      futs.push_back(pm.split_phase_find(k));
    for (int k = 0; k < 20; ++k) {
      auto [v, found] = futs[static_cast<std::size_t>(k)].get();
      EXPECT_TRUE(found);
      EXPECT_DOUBLE_EQ(v, k * 0.5);
    }
    rmi_fence();
  });
}

TEST_P(PAssocTest, SplitPhaseContains)
{
  execute(GetParam(), [] {
    p_hash_set<int> ps;
    if (this_location() == 0)
      for (int k = 0; k < 20; k += 2)
        ps.insert_async(k);
    rmi_fence();
    std::vector<pc_future<bool>> futs;
    for (int k = 0; k < 20; ++k)
      futs.push_back(ps.split_phase_contains(k));
    for (int k = 0; k < 20; ++k)
      EXPECT_EQ(futs[static_cast<std::size_t>(k)].get(), k % 2 == 0)
          << "key " << k;
    rmi_fence();
  });
}

TEST_P(PAssocTest, ApplyAsyncAccumulates)
{
  execute(GetParam(), [] {
    p_hash_map<std::string, int> pm;
    // Every location increments the same two words many times (the word
    // count kernel of Ch. XII.C.1).
    for (int i = 0; i < 10; ++i) {
      pm.apply_async("alpha", [](int& c) { ++c; });
      if (i % 2 == 0)
        pm.apply_async("beta", [](int& c) { ++c; });
    }
    rmi_fence();
    EXPECT_EQ(pm.find_val("alpha").first,
              10 * static_cast<int>(num_locations()));
    EXPECT_EQ(pm.find_val("beta").first,
              5 * static_cast<int>(num_locations()));
    EXPECT_EQ(pm.size(), 2u);
    rmi_fence();
  });
}

TEST_P(PAssocTest, MultimapKeepsDuplicates)
{
  execute(GetParam(), [] {
    p_multimap<int, int> pm;
    pm.insert_async(5, static_cast<int>(this_location()));
    pm.insert_async(5, static_cast<int>(this_location()) + 100);
    rmi_fence();
    EXPECT_EQ(pm.count(5), 2 * num_locations());
    EXPECT_EQ(pm.size(), 2 * num_locations());
    rmi_fence();
  });
}

TEST_P(PAssocTest, SetBasics)
{
  execute(GetParam(), [] {
    p_set<int> ps;
    // All locations insert overlapping ranges; set keeps unique keys.
    for (int k = 0; k < 30; ++k)
      ps.insert_async(k);
    rmi_fence();
    EXPECT_EQ(ps.size(), 30u);
    EXPECT_TRUE(ps.contains(17));
    EXPECT_FALSE(ps.contains(31));
    EXPECT_EQ(ps.count(3), 1u);
    rmi_fence();
    if (this_location() == 0)
      ps.erase_async(17);
    rmi_fence();
    EXPECT_FALSE(ps.contains(17));
    rmi_fence();
  });
}

TEST_P(PAssocTest, MultisetCounts)
{
  execute(GetParam(), [] {
    p_multiset<int> ps;
    ps.insert_async(9);
    ps.insert_async(9);
    rmi_fence();
    EXPECT_EQ(ps.count(9), 2 * num_locations());
    rmi_fence();
  });
}

TEST_P(PAssocTest, HashSetLargeRandom)
{
  execute(GetParam(), [] {
    p_hash_set<long> ps;
    std::mt19937 gen(7); // same stream everywhere: duplicates across locs
    std::set<long> ref;
    for (int i = 0; i < 300; ++i) {
      long const k = static_cast<long>(gen() % 500);
      ps.insert_async(k);
      ref.insert(k);
    }
    rmi_fence();
    EXPECT_EQ(ps.size(), ref.size());
    for (long k : {0L, 250L, 499L})
      EXPECT_EQ(ps.contains(k), ref.count(k) != 0);
    rmi_fence();
  });
}

TEST_P(PAssocTest, ValuePartitionRangesKeys)
{
  execute(GetParam(), [] {
    using VP = value_partition<int>;
    p_map<int, int, VP> pm(VP::uniform(0, 1000, num_locations()));
    if (this_location() == 0)
      for (int k = 0; k < 1000; k += 10)
        pm.insert_async(k, k);
    rmi_fence();
    EXPECT_EQ(pm.size(), 100u);
    // Value partition keeps key ranges together: every local key must fall
    // into this location's contiguous range (sorted associative, Fig. 58).
    auto local = pm.local_gids();
    if (!local.empty()) {
      auto const [mn, mx] = std::minmax_element(local.begin(), local.end());
      // Range width for uniform partition over [0,1000).
      int const width = 1000 / static_cast<int>(num_locations());
      EXPECT_LE(*mx - *mn, width + 1);
    }
    EXPECT_EQ(pm.find_val(500).first, 500);
    rmi_fence();
  });
}

TEST_P(PAssocTest, GenericAlgorithmsOverMapView)
{
  execute(GetParam(), [] {
    p_hash_map<int, long> pm;
    if (this_location() == 0)
      for (int k = 0; k < 64; ++k)
        pm.insert_async(k, 1);
    rmi_fence();
    map_view mv(pm);
    EXPECT_EQ(p_accumulate(mv, 0L), 64L);
    p_for_each(mv, [](long& v) { v += 2; });
    EXPECT_EQ(p_accumulate(mv, 0L), 64L * 3);
    EXPECT_EQ(p_count_if(mv, [](long v) { return v == 3; }), 64u);
    rmi_fence();
  });
}

TEST_P(PAssocTest, ClearEmptiesContainer)
{
  execute(GetParam(), [] {
    p_hash_map<int, int> pm;
    pm.insert_async(static_cast<int>(this_location()), 1);
    rmi_fence();
    EXPECT_EQ(pm.size(), num_locations());
    pm.clear();
    EXPECT_TRUE(pm.empty());
    rmi_fence();
  });
}

INSTANTIATE_TEST_SUITE_P(Locations, PAssocTest, ::testing::Values(1, 2, 4));

} // namespace
