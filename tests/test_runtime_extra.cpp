// Additional runtime and algorithm edge-case coverage: instrumentation
// counters (the performance monitor of Fig. 1), collective edge cases,
// post_to_self retry semantics, and algorithm boundary conditions.

#include "algorithms/p_algorithms.hpp"
#include "containers/p_array.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

namespace {

using namespace stapl;

/// One counter of the calling location's metrics snapshot.
std::uint64_t counter(char const* key)
{
  return metrics::snapshot().at(key);
}

TEST(Instrumentation, CountersTrackTrafficClasses)
{
  execute(2, [] {
    p_array<int> pa(2);
    rmi_fence();
    metrics::reset_all();

    // Local op: counted as local, no messages.
    gid1d const mine = this_location();
    pa.set_element(mine, 1);
    EXPECT_EQ(counter("rmi.local_rmis"), 1u);
    EXPECT_EQ(counter("rmi.rmis_sent"), 0u);

    // Remote async: counted as sent.
    pa.set_element(1 - mine, 2);
    EXPECT_EQ(counter("rmi.rmis_sent"), 1u);

    // Remote sync read through the container: counted as a sent RMI (the
    // container's synchronous methods ride the split-phase machinery);
    // a raw sync_rmi moves the sync counter.
    auto const before_sent = counter("rmi.rmis_sent");
    (void)pa.get_element(1 - mine);
    EXPECT_GT(counter("rmi.rmis_sent"), before_sent);
    auto const before_sync = counter("rmi.sync_rmis");
    (void)sync_rmi<p_array<int>>(1 - mine, pa.get_handle(),
                                 [](p_array<int> const& c) {
                                   return c.local_size();
                                 });
    EXPECT_GT(counter("rmi.sync_rmis"), before_sync);

    auto const fences_before = counter("rmi.fences");
    rmi_fence();
    EXPECT_EQ(counter("rmi.fences"), fences_before + 1);
    rmi_fence();
  });
}

TEST(Instrumentation, AggregationBatchesCounted)
{
  runtime_config cfg;
  cfg.num_locations = 2;
  cfg.aggregation = 10;
  execute(cfg, [] {
    p_array<int> pa(2);
    rmi_fence();
    metrics::reset_all();
    for (int i = 0; i < 100; ++i)
      pa.set_element(1 - this_location(), i);
    rmi_fence();
    EXPECT_EQ(counter("rmi.rmis_sent"), 100u);
    // 100 RMIs in batches of 10 -> exactly 10 messages.
    EXPECT_EQ(counter("rmi.msgs_sent"), 10u);
    rmi_fence();
  });
}

TEST(Runtime, PostToSelfRetriesLater)
{
  execute(2, [] {
    int order = 0;
    int posted_at = -1;
    post_to_self([&] { posted_at = order++; });
    int const direct_at = order++;
    rmi_fence(); // the self-post drains here
    EXPECT_EQ(direct_at, 0); // ran before the parked request
    EXPECT_EQ(posted_at, 1);
    rmi_fence();
  });
}

TEST(Runtime, GetRegisteredObjectFindsLocalRep)
{
  execute(2, [] {
    struct holder : p_object {
      int tag = 0;
    } h;
    h.tag = 100 + static_cast<int>(this_location());
    auto* p = get_registered_object<holder>(h.get_handle());
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->tag, 100 + static_cast<int>(this_location()));
    EXPECT_EQ(p, &h);
    rmi_fence();
  });
}

TEST(Collectives, NonCommutativeScanOrder)
{
  execute(4, [] {
    // Exclusive scan with string concatenation: order must be by location.
    std::string const mine(1, static_cast<char>('a' + this_location()));
    auto const prefix = exclusive_scan(
        mine, [](std::string const& x, std::string const& y) { return x + y; },
        std::string{});
    std::string expect;
    for (location_id l = 0; l < this_location(); ++l)
      expect += static_cast<char>('a' + l);
    EXPECT_EQ(prefix, expect);
    rmi_fence();
  });
}

TEST(Collectives, AllgatherVectorsAndBroadcastNonzeroRoot)
{
  execute(3, [] {
    std::vector<int> mine(this_location() + 1, static_cast<int>(this_location()));
    auto all = allgather(mine);
    ASSERT_EQ(all.size(), 3u);
    for (location_id l = 0; l < 3; ++l) {
      EXPECT_EQ(all[l].size(), l + 1);
      for (int x : all[l])
        EXPECT_EQ(x, static_cast<int>(l));
    }
    auto const v = broadcast(2, static_cast<int>(this_location()) * 7);
    EXPECT_EQ(v, 14);
    rmi_fence();
  });
}

TEST(Collectives, LocationBarrierSynchronizes)
{
  execute(4, [] {
    std::atomic<int>* counter = nullptr;
    static std::atomic<int> shared{0};
    counter = &shared;
    if (this_location() == 0)
      shared.store(0);
    location_barrier();
    counter->fetch_add(1);
    location_barrier();
    EXPECT_EQ(counter->load(), 4);
    location_barrier();
  });
}

// ---------------------------------------------------------------------------
// Algorithm boundary conditions
// ---------------------------------------------------------------------------

TEST(AlgorithmEdges, EmptyAndSingleElementViews)
{
  execute(4, [] {
    p_array<int> empty_pa(0);
    array_1d_view ev(empty_pa);
    EXPECT_EQ(p_accumulate(ev, 42), 42);
    EXPECT_EQ(p_count(ev, 1), 0u);
    EXPECT_FALSE(p_min_element(ev).has_value());
    EXPECT_EQ(p_find(ev, 5), invalid_gid);

    p_array<int> one(1, 9);
    array_1d_view ov(one);
    EXPECT_EQ(p_accumulate(ov, 0), 9);
    auto mn = p_min_element(ov);
    ASSERT_TRUE(mn.has_value());
    EXPECT_EQ(mn->first, 0u);
    EXPECT_EQ(mn->second, 9);
    rmi_fence();
  });
}

TEST(AlgorithmEdges, FewerElementsThanLocations)
{
  execute(8, [] {
    p_array<long> pa(3, 5); // more locations than elements
    array_1d_view v(pa);
    EXPECT_EQ(p_accumulate(v, 0L), 15L);
    p_for_each(v, [](long& x) { x *= 2; });
    EXPECT_EQ(p_accumulate(v, 0L), 30L);
    EXPECT_EQ(p_count(v, 10L), 3u);
    rmi_fence();
  });
}

TEST(AlgorithmEdges, MinElementTieBreaksByLowestGid)
{
  execute(4, [] {
    p_array<int> pa(40, 7); // all equal: first gid must win
    auto mn = p_min_element(array_1d_view(pa));
    ASSERT_TRUE(mn.has_value());
    EXPECT_EQ(mn->first, 0u);
    rmi_fence();
  });
}

/// pArray traits that deal sub-domains to locations round-robin.
struct cyclic_traits : p_array_traits<long> {
  using mapper_type = cyclic_mapper;
};

TEST(AlgorithmEdges, PartialSumInterleavedBlocks)
{
  // 3·P sub-domains dealt cyclically: every location holds three blocks
  // that interleave with its peers', so each rescan offset is the fold of
  // all earlier blocks in bCID order, not of earlier locations.
  for (unsigned p : {3u, 4u}) {
    execute(p, [] {
      using A = p_array<long, balanced_partition, cyclic_traits>;
      std::size_t const n = 100;
      std::size_t const parts = 3 * num_locations();
      A in(n, balanced_partition(parts));
      A out(n, balanced_partition(parts));
      std::vector<long> ref(n);
      for (gid1d g = 0; g < n; ++g) {
        ref[g] = static_cast<long>((g * 37) % 11) - 5;
        if (in.is_local(g))
          in.local_element(g) = ref[g];
      }
      rmi_fence();

      p_partial_sum(in, out);

      std::partial_sum(ref.begin(), ref.end(), ref.begin());
      for (gid1d g = 0; g < n; ++g)
        EXPECT_EQ(out.get_element(g), ref[g]) << "P=" << num_locations()
                                              << " index " << g;
      rmi_fence();
    });
  }
}

TEST(AlgorithmEdges, PartialSumSingleBlockAndManyBlocks)
{
  execute(4, [] {
    for (std::size_t n : {1u, 2u, 16u, 17u}) {
      p_array<long> in(n, 1), out(n);
      p_partial_sum(in, out);
      for (gid1d g = 0; g < n; ++g)
        EXPECT_EQ(out.get_element(g), static_cast<long>(g + 1)) << n;
      rmi_fence();
    }
  });
}

} // namespace
