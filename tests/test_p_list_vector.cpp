// Tests for pList (Ch. X) and pVector (Ch. V.F): sequence semantics, the
// anywhere-insertion fast path, dynamic operations and the documented
// pList/pVector performance trade-off surfaces.

#include "algorithms/p_algorithms.hpp"
#include "containers/p_list.hpp"
#include "containers/p_vector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <vector>

namespace {

using namespace stapl;

class PListTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PListTest, PushBackGlobalOrder)
{
  execute(GetParam(), [] {
    p_list<int> pl;
    // Location 0 appends 0..19 at the global tail; the sequence order must
    // be exactly the append order.
    if (this_location() == 0)
      for (int i = 0; i < 20; ++i)
        pl.push_back(i);
    rmi_fence();
    EXPECT_EQ(pl.size(), 20u);
    // Collect the global sequence: concatenation of bContainers by bCID.
    auto local = pl.local_gids();
    std::vector<int> local_vals;
    pl.for_each_local([&](dynamic_gid, int& v) { local_vals.push_back(v); });
    auto all = allgather(local_vals);
    if (this_location() == 0) {
      std::vector<int> seq;
      for (auto const& part : all)
        seq.insert(seq.end(), part.begin(), part.end());
      ASSERT_EQ(seq.size(), 20u);
      for (int i = 0; i < 20; ++i)
        EXPECT_EQ(seq[static_cast<std::size_t>(i)], i);
    }
    rmi_fence();
  });
}

TEST_P(PListTest, PushFrontReversesOrder)
{
  execute(GetParam(), [] {
    p_list<int> pl;
    if (this_location() == 0)
      for (int i = 0; i < 10; ++i)
        pl.push_front(i);
    rmi_fence();
    std::vector<int> head_vals;
    pl.for_each_local([&](dynamic_gid, int& v) { head_vals.push_back(v); });
    auto all = allgather(head_vals);
    if (this_location() == 0) {
      auto const& head = all[0]; // bCID 0 lives on location 0
      ASSERT_EQ(head.size(), 10u);
      for (int i = 0; i < 10; ++i)
        EXPECT_EQ(head[static_cast<std::size_t>(i)], 9 - i);
    }
    rmi_fence();
  });
}

TEST_P(PListTest, PushAnywhereIsLocalAndBalanced)
{
  execute(GetParam(), [] {
    p_list<int> pl;
    metrics::reset_all(); // resets location_stats and the pList's directory
    for (int i = 0; i < 50; ++i)
      pl.push_anywhere_async(i);
    // Anywhere-insertion must not communicate.
    EXPECT_EQ(metrics::snapshot().at("rmi.rmis_sent"), 0u);
    rmi_fence();
    EXPECT_EQ(pl.local_size(), 50u);
    EXPECT_EQ(pl.size(), 50u * num_locations());
    rmi_fence();
  });
}

TEST_P(PListTest, ElementAccessByGid)
{
  execute(GetParam(), [] {
    p_list<long> pl;
    std::vector<dynamic_gid> gids;
    for (int i = 0; i < 30; ++i)
      gids.push_back(pl.push_anywhere(static_cast<long>(i)));
    rmi_fence();
    for (int i = 0; i < 30; ++i)
      EXPECT_EQ(pl.get_element(gids[static_cast<std::size_t>(i)]), i);
    // Remote access: everyone reads location 0's first element.
    auto g0 = broadcast(0, gids[0]);
    EXPECT_EQ(pl.get_element(g0), 0);
    rmi_fence(); // separate the read phase from the write phase
    pl.set_element(g0, 999); // last writer wins; all write the same value
    rmi_fence();
    EXPECT_EQ(pl.get_element(g0), 999);
    // Split-phase access.
    auto fut = pl.split_phase_get_element(g0);
    EXPECT_EQ(fut.get(), 999);
    rmi_fence();
  });
}

TEST_P(PListTest, InsertBeforeAndErase)
{
  execute(GetParam(), [] {
    p_list<int> pl;
    dynamic_gid anchor;
    if (this_location() == 0) {
      anchor = pl.push_anywhere(100);
      (void)pl.push_anywhere(200);
    }
    anchor = broadcast(0, anchor);
    rmi_fence();
    // Everyone inserts one element before the anchor (on location 0).
    pl.insert_element_async(anchor, 7);
    rmi_fence();
    EXPECT_EQ(pl.size(), 2u + num_locations());
    // Sequence on location 0: all the 7s precede 100.
    if (this_location() == 0) {
      std::vector<int> vals;
      pl.for_each_local([&](dynamic_gid, int& v) { vals.push_back(v); });
      auto it100 = std::find(vals.begin(), vals.end(), 100);
      ASSERT_NE(it100, vals.end());
      EXPECT_EQ(std::count(vals.begin(), it100, 7),
                static_cast<long>(num_locations()));
    }
    rmi_fence();
    pl.erase_element(anchor);
    rmi_fence(); // idempotent erase of the same gid from all locations
    EXPECT_EQ(pl.size(), 1u + num_locations());
    rmi_fence();
  });
}

TEST_P(PListTest, SynchronousInsertReturnsUsableGid)
{
  execute(GetParam(), [] {
    p_list<int> pl;
    dynamic_gid tail_anchor;
    if (this_location() == 0)
      tail_anchor = pl.push_anywhere(-1);
    tail_anchor = broadcast(0, tail_anchor);
    rmi_fence();
    auto g = pl.insert_element(tail_anchor, static_cast<int>(this_location()));
    EXPECT_EQ(pl.get_element(g), static_cast<int>(this_location()));
    rmi_fence();
  });
}

TEST_P(PListTest, AlgorithmsOverListView)
{
  execute(GetParam(), [] {
    p_list<long> pl;
    for (int i = 0; i < 40; ++i)
      pl.push_anywhere_async(1);
    rmi_fence();
    // pList works with the generic algorithms through the view concept.
    native_view nv(pl);
    long const total = p_accumulate(nv, 0L);
    EXPECT_EQ(total, 40L * num_locations());
    p_for_each(nv, [](long& x) { x *= 3; });
    EXPECT_EQ(p_accumulate(nv, 0L), 120L * num_locations());
    rmi_fence();
  });
}

INSTANTIATE_TEST_SUITE_P(Locations, PListTest, ::testing::Values(1, 2, 4));

class PVectorTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PVectorTest, ConstructAndIndexedAccess)
{
  execute(GetParam(), [] {
    p_vector<int> pv(100);
    EXPECT_EQ(pv.size(), 100u);
    if (this_location() == 0)
      for (gid1d g = 0; g < 100; ++g)
        pv.set_element(g, static_cast<int>(g + 1));
    rmi_fence();
    for (gid1d g = 0; g < 100; g += 9)
      EXPECT_EQ(pv.get_element(g), static_cast<int>(g + 1));
    rmi_fence();
  });
}

TEST_P(PVectorTest, PushBackGrowsTail)
{
  execute(GetParam(), [] {
    p_vector<int> pv(10);
    if (this_location() == 0)
      for (int i = 0; i < 25; ++i)
        pv.push_back(100 + i);
    pv.flush();
    EXPECT_EQ(pv.size(), 35u);
    // Elements 10..34 are the appended values, in order.
    for (gid1d g = 10; g < 35; ++g)
      EXPECT_EQ(pv.get_element(g), static_cast<int>(100 + g - 10));
    rmi_fence();
  });
}

TEST_P(PVectorTest, InsertShiftsElements)
{
  execute(GetParam(), [] {
    p_vector<int> pv(8);
    if (this_location() == 0) {
      for (gid1d g = 0; g < 8; ++g)
        pv.set_element(g, static_cast<int>(g));
    }
    rmi_fence();
    if (this_location() == 0)
      pv.insert_async(3, 99); // 0 1 2 99 3 4 5 6 7
    pv.flush();
    EXPECT_EQ(pv.size(), 9u);
    std::vector<int> expect{0, 1, 2, 99, 3, 4, 5, 6, 7};
    for (gid1d g = 0; g < 9; ++g)
      EXPECT_EQ(pv.get_element(g), expect[g]);
    rmi_fence();
  });
}

TEST_P(PVectorTest, EraseRemovesElement)
{
  execute(GetParam(), [] {
    p_vector<int> pv(10);
    if (this_location() == 0)
      for (gid1d g = 0; g < 10; ++g)
        pv.set_element(g, static_cast<int>(g));
    rmi_fence();
    if (this_location() == 0)
      pv.erase_async(4); // 0 1 2 3 5 6 7 8 9
    pv.flush();
    EXPECT_EQ(pv.size(), 9u);
    std::vector<int> expect{0, 1, 2, 3, 5, 6, 7, 8, 9};
    for (gid1d g = 0; g < 9; ++g)
      EXPECT_EQ(pv.get_element(g), expect[g]);
    rmi_fence();
  });
}

TEST_P(PVectorTest, MixedPhases)
{
  execute(GetParam(), [] {
    p_vector<long> pv(0);
    // Phase 1: everyone appends (serialized through the tail owner).
    for (int i = 0; i < 10; ++i)
      pv.push_back(1);
    pv.flush();
    EXPECT_EQ(pv.size(), 10u * num_locations());
    // Phase 2: algorithms over the vector.
    array_1d_view v(pv);
    EXPECT_EQ(p_accumulate(v, 0L),
              static_cast<long>(10 * num_locations()));
    // Phase 3: erase the first 5 indices (location 0 only), then verify.
    if (this_location() == 0)
      for (int i = 0; i < 5; ++i)
        pv.erase_async(0);
    pv.flush();
    EXPECT_EQ(pv.size(), 10u * num_locations() - 5u);
    rmi_fence();
  });
}

TEST_P(PVectorTest, UnbalancedPartitionResolution)
{
  // Direct unit test of pv_unbalanced_partition invariants.
  std::vector<std::size_t> sizes{3, 0, 5, 2};
  pv_unbalanced_partition p(sizes);
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.domain().size(), 10u);
  std::size_t covered = 0;
  for (bcid_type b = 0; b < 4; ++b) {
    for (std::size_t i = 0; i < p.subdomain_size(b); ++i) {
      gid1d const g = p.gid_of(b, i);
      EXPECT_EQ(p.get_info(g), b);
      EXPECT_EQ(p.local_index(g), i);
      ++covered;
    }
  }
  EXPECT_EQ(covered, 10u);
}

INSTANTIATE_TEST_SUITE_P(Locations, PVectorTest, ::testing::Values(1, 2, 4));

} // namespace
