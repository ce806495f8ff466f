// Unit tests for the PARAGRAPH-style task-graph executor
// (runtime/task_graph.hpp): coarsened chunk tasks, value-carrying
// dependence edges across locations, tree reductions, and exactly-once
// chunk execution under concurrent element migration — with at least 4
// locations.

#include "algorithms/p_algorithms.hpp"
#include "containers/p_array.hpp"
#include "runtime/task_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

namespace {

using namespace stapl;

// ---------------------------------------------------------------------------
// Value-carrying dependence edges
// ---------------------------------------------------------------------------

TEST(task_graph_test, ValueChainAcrossLocations)
{
  execute(4, [] {
    task_graph<long> tg;
    using tid = task_graph<long>::task_id;
    // A 16-task chain snaking over the locations; each link adds its index.
    tid prev = 0;
    long expect = 0;
    for (int i = 0; i < 16; ++i) {
      tid const t = tg.add_task(
          static_cast<location_id>(i % num_locations()),
          [i](std::vector<long> const& ins) {
            return (ins.empty() ? 0L : ins[0]) + i;
          });
      if (i > 0)
        tg.add_dependence(prev, t);
      prev = t;
      expect += i;
    }
    // Fan the chain's result out to a sink per location.
    std::vector<tid> sinks;
    for (location_id l = 0; l < num_locations(); ++l) {
      sinks.push_back(tg.add_task(
          l, [](std::vector<long> const& ins) {
            return ins.at(0);
          }));
      tg.add_dependence(prev, sinks.back());
    }
    tg.execute();
    EXPECT_EQ(tg.result_of(sinks[this_location()]), expect);
    rmi_fence();
  });
}

TEST(task_graph_test, DiamondDeliversBothValues)
{
  execute(4, [] {
    task_graph<long> tg;
    auto const src = tg.add_task(
        0, [](std::vector<long> const&) { return 7L; });
    auto const left = tg.add_task(
        1 % num_locations(), [](std::vector<long> const& ins) {
          return ins.at(0) * 2;
        });
    auto const right = tg.add_task(
        2 % num_locations(), [](std::vector<long> const& ins) {
          return ins.at(0) * 3;
        });
    auto const join = tg.add_task(
        3 % num_locations(), [](std::vector<long> const& ins) {
          return ins.at(0) + ins.at(1);
        });
    tg.add_dependence(src, left);
    tg.add_dependence(src, right);
    tg.add_dependence(left, join);
    tg.add_dependence(right, join);
    tg.execute();
    if (this_location() == 3 % num_locations())
      EXPECT_EQ(tg.result_of(join), 7 * 2 + 7 * 3);
    EXPECT_TRUE(tg.task_done(join) ||
                this_location() != 3 % num_locations());
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Coarsened chunk tasks
// ---------------------------------------------------------------------------

TEST(task_graph_test, ChunkedMapAppliesEveryElementOnce)
{
  execute(4, [] {
    std::size_t const n = 4000;
    p_array<long> pa(n, 1);
    array_1d_view v(pa);
    // Tiny grain: many chunk tasks per location.
    exec_policy pol;
    pol.grain = 64;
    p_for_each(v, [](long& x) { x += 41; }, pol);
    EXPECT_EQ(p_accumulate(v, 0L), static_cast<long>(n) * 42);
    rmi_fence();
  });
}

TEST(task_graph_test, TreeReduceMatchesReference)
{
  execute(4, [] {
    std::size_t const n = 3000;
    p_array<long> pa(n);
    array_1d_view v(pa);
    p_for_each_gid(v, [](gid1d g, long& x) { x = static_cast<long>(g % 97); });

    long ref = 0;
    for (std::size_t g = 0; g < n; ++g)
      ref += static_cast<long>(g % 97);

    exec_policy pol;
    pol.grain = 50; // deep combine tree
    auto const sum = map_reduce(
        v, [](long const& x) { return x; },
        [](long a, long b) { return a + b; }, pol);
    ASSERT_TRUE(sum.has_value());
    EXPECT_EQ(*sum, ref);

    // GID-arity map functor.
    auto const weighted = map_reduce(
        v, [](gid1d g, long const& x) { return static_cast<long>(g) + x; },
        [](long a, long b) { return a + b; }, pol);
    ASSERT_TRUE(weighted.has_value());
    EXPECT_EQ(*weighted, ref + static_cast<long>(n * (n - 1) / 2));
    rmi_fence();
  });
}

TEST(task_graph_test, TreeReduceEmptyViewIsNullopt)
{
  execute(4, [] {
    p_array<long> pa(0);
    auto const r = map_reduce(
        array_1d_view(pa), [](long const& x) { return x; },
        [](long a, long b) { return a + b; });
    EXPECT_FALSE(r.has_value());
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Chunk tasks vs. concurrent element migration
// ---------------------------------------------------------------------------

TEST(task_graph_test, ChunkTasksExactlyOnceUnderConcurrentMigration)
{
  execute(4, [] {
    std::size_t const n = 64 * num_locations();
    p_array<long> pa(n, 0);
    pa.make_dynamic();

    // Owner-pinned chunk tasks over index ranges of this location's bView
    // snapshot increment every element through the routed apply path,
    // while a migrator task, queued among them, scatters elements between
    // locations mid-flight: a chunk may reach an element that has left.
    auto const gids = pa.local_gids();
    std::size_t const grain = 16;
    task_graph<char> tg;
    for (std::size_t i = 0; i < gids.size(); i += grain) {
      std::size_t const e = std::min(gids.size(), i + grain);
      tg.add_task(this_location(),
                  [&pa, &gids, i, e](std::vector<char> const&) {
                    for (std::size_t j = i; j != e; ++j)
                      pa.apply_set(gids[j], [](long& x) { x += 1; });
                    return char{};
                  });
      if (i == grain) {
        // Each location scatters a slice of the domain to the next one over.
        tg.add_task(this_location(), [&pa, n](std::vector<char> const&) {
          location_id const me = this_location();
          for (std::size_t g = me; g < n; g += 2 * num_locations())
            pa.migrate(g, (me + 1) % num_locations());
          return char{};
        });
      }
    }
    tg.execute();

    // Exactly once: every element was incremented exactly one time, no
    // matter where the element went while its chunk ran.
    for (std::size_t g = 0; g < n; ++g)
      EXPECT_EQ(pa.get_element(g), 1) << "gid " << g;

    // And the traversal after the dust settles covers the domain exactly.
    auto const total = allreduce(pa.local_gids().size(), std::plus<>{});
    EXPECT_EQ(total, n);
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Stress: chunked algorithms + migration churn (sized for the sanitizer CI
// job as well)
// ---------------------------------------------------------------------------

TEST(task_graph_test, StressMixedLoad)
{
  execute(4, [] {
    std::size_t const n = 96 * num_locations();
    p_array<long> pa(n, 0);
    array_1d_view v(pa);
    pa.make_dynamic();

    long expect_round = 0;
    for (int round = 0; round < 3; ++round) {
      exec_policy pol;
      pol.grain = 8 + 13 * round;
      p_for_each(v, [](long& x) { x += 2; }, pol);
      expect_round += 2;
      if (this_location() == round % num_locations())
        for (std::size_t g = round; g < n; g += 5)
          pa.migrate(g, (this_location() + 1 + round) % num_locations());
      rmi_fence(); // placement settles before the next phase snapshots it
      auto const sum = p_accumulate(v, 0L);
      EXPECT_EQ(sum, static_cast<long>(n) * expect_round);
      rmi_fence();
    }
    rmi_fence();
  });
}

} // namespace
