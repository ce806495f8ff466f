// Unit tests for the PARAGRAPH-style task-graph executor
// (runtime/task_graph.hpp): coarsened chunk tasks, value-carrying
// dependence edges across locations, cross-location work stealing
// (determinism of results, not schedules), exactly-once chunk execution
// under concurrent element migration, and the scheduler stats — with at
// least 4 locations.

#include "algorithms/p_algorithms.hpp"
#include "containers/p_array.hpp"
#include "runtime/task_graph.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <numeric>
#include <thread>
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
          [i](std::vector<long> const& ins, char const&) {
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
          l, [](std::vector<long> const& ins, char const&) {
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
        0, [](std::vector<long> const&, char const&) { return 7L; });
    auto const left = tg.add_task(
        1 % num_locations(), [](std::vector<long> const& ins, char const&) {
          return ins.at(0) * 2;
        });
    auto const right = tg.add_task(
        2 % num_locations(), [](std::vector<long> const& ins, char const&) {
          return ins.at(0) * 3;
        });
    auto const join = tg.add_task(
        3 % num_locations(), [](std::vector<long> const& ins, char const&) {
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

TEST(task_graph_test, ViewChunksRespectGrain)
{
  execute(4, [] {
    p_array<long> pa(1024);
    array_1d_view v(pa);
    auto const chunks = v.chunks(100);
    std::size_t total = 0;
    for (auto const& c : chunks) {
      EXPECT_LE(c.size(), 100u);
      EXPECT_FALSE(c.empty());
      total += c.size();
    }
    EXPECT_EQ(total, pa.local_size());
    // The heuristic grain stays within [min_grain, n].
    EXPECT_GE(default_grain(pa.size()), 1u);
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
// Work stealing
// ---------------------------------------------------------------------------

/// Builds a deliberately imbalanced graph: every stealable task is owned
/// by location 0 and simulates a latency-bound chunk (sleep), returning a
/// known value into a per-location sink.  `agg` (when given) receives the
/// run's global metrics, whose "tg.*" keys are this graph's counters.
long run_imbalanced(bool steal, metrics::counter_map* agg = nullptr,
                    int tasks = 24)
{
  metrics::reset_all();
  task_graph<long> tg;
  tg.set_stealing(steal);
  using tid = task_graph<long>::task_id;
  task_options stealable;
  stealable.stealable = true;
  std::vector<tid> work;
  for (int i = 0; i < tasks; ++i) {
    work.push_back(tg.add_task(
        0,
        [i](std::vector<long> const&, char const&) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          return static_cast<long>(i * i);
        },
        {}, stealable));
  }
  std::vector<tid> sinks;
  for (location_id l = 0; l < num_locations(); ++l) {
    tid const s = tg.add_task(
        l, [](std::vector<long> const& ins, char const&) {
          return std::accumulate(ins.begin(), ins.end(), 0L);
        });
    for (tid const t : work)
      tg.add_dependence(t, s);
    sinks.push_back(s);
  }
  tg.execute();
  if (agg)
    *agg = metrics::global_snapshot();
  return tg.result_of(sinks[this_location()]);
}

TEST(task_graph_test, StealingPreservesResultsNotSchedules)
{
  execute(4, [] {
    long expect = 0;
    for (int i = 0; i < 24; ++i)
      expect += static_cast<long>(i) * i;

    metrics::counter_map stolen;
    long const with_steal = run_imbalanced(true, &stolen);
    EXPECT_EQ(with_steal, expect);
    // Every task ran exactly once somewhere (24 work + P sinks).
    EXPECT_EQ(stolen["tg.tasks_run"], 24u + num_locations());
    // The all-on-location-0 layout with sleeping tasks gives idle peers
    // ample time to pull work over.
    EXPECT_GT(stolen["tg.tasks_stolen"], 0u)
        << "no task was stolen from the overloaded location";
    EXPECT_EQ(stolen["tg.tasks_stolen"], stolen["tg.tasks_lost"]);

    metrics::counter_map pinned;
    long const without_steal = run_imbalanced(false, &pinned);
    EXPECT_EQ(without_steal, expect) << "result depends on the schedule";
    EXPECT_EQ(pinned["tg.tasks_stolen"], 0u);
    EXPECT_EQ(pinned["tg.tasks_lost"], 0u);
    rmi_fence();
  });
}

TEST(task_graph_test, StealHalfGrantsBatchesAndPreservesResults)
{
  execute(4, [] {
    // A large all-on-location-0 backlog of sleeping tasks: steal-half
    // grants ship several tasks per probe, and the result must not depend
    // on how the batches were cut.
    long expect = 0;
    for (int i = 0; i < 32; ++i)
      expect += static_cast<long>(i) * i;
    metrics::counter_map stats;
    long const got = run_imbalanced(true, &stats, 32);
    EXPECT_EQ(got, expect);
    EXPECT_EQ(stats["tg.tasks_run"], 32u + num_locations());
    EXPECT_GT(stats["tg.tasks_stolen"], 0u);
    EXPECT_EQ(stats["tg.tasks_stolen"], stats["tg.tasks_lost"]);
    // Every grant carries at least one task, and with a 32-task backlog
    // the first grants carry many — batching is visible as more tasks
    // stolen than probe round trips that returned work.
    EXPECT_GE(stats["tg.tasks_stolen"], stats["tg.steal_grants"]);
    rmi_fence();
  });
}

// The ISSUE's constructed two-victim scenario, at the unit level: the
// victim order is computed from the replicated descriptor, so it is a pure
// function — the thief must rank the victim whose stealable chunks are
// annotated cached-at-thief above a colder, even more loaded one.
TEST(steal_victim_order, PrefersCacheWarmThenLoadedVictims)
{
  // Location 3's perspective: 0 and 2 own more tasks, but 1 owns two
  // chunks cached at 3.
  auto const order = steal_victim_order(
      3, /*owned=*/{8, 5, 8, 0}, /*warmth=*/{0, 2, 0, 0});
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u) << "cache-warm victim not probed first";
  EXPECT_EQ(order[1], 0u) << "load order (ties toward lower id) broken";
  EXPECT_EQ(order[2], 2u);

  // No warmth anywhere: pure descending-load order, lower id on ties.
  auto const cold = steal_victim_order(0, {0, 3, 7, 3}, {0, 0, 0, 0});
  ASSERT_EQ(cold.size(), 3u);
  EXPECT_EQ(cold[0], 2u);
  EXPECT_EQ(cold[1], 1u);
  EXPECT_EQ(cold[2], 3u);
}

TEST(task_graph_test, TwoVictimStealPrefersCacheWarmVictim)
{
  execute(3, [] {
    // Locations 1 and 2 each own a backlog of sleeping stealable tasks;
    // location 1's are annotated cached-at-0.  The idle location 0 must
    // drain the warm victim first.  Each task returns the location that
    // executed it, so the owners can count where their work went.
    int const per_victim = 12;
    task_graph<long> tg;
    using tid = task_graph<long>::task_id;
    std::vector<tid> warm_tasks, cold_tasks;
    task_options warm;
    warm.stealable = true;
    warm.cached_at = 0;
    task_options cold;
    cold.stealable = true;
    auto work = [](std::vector<long> const&, char const&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      return static_cast<long>(this_location());
    };
    for (int i = 0; i < per_victim; ++i) {
      warm_tasks.push_back(tg.add_task(1, work, {}, warm));
      cold_tasks.push_back(tg.add_task(2, work, {}, cold));
    }
    tg.execute();

    // Owners know where each of their tasks ran (completion records).
    int warm_to_thief = 0, cold_to_thief = 0;
    if (this_location() == 1)
      for (tid const t : warm_tasks)
        warm_to_thief += tg.result_of(t) == 0 ? 1 : 0;
    if (this_location() == 2)
      for (tid const t : cold_tasks)
        cold_to_thief += tg.result_of(t) == 0 ? 1 : 0;
    auto const warm_stolen = allreduce(warm_to_thief, std::plus<>{});
    auto const cold_stolen = allreduce(cold_to_thief, std::plus<>{});
    // The schedule is timing-dependent, but the warm victim is always
    // probed first, so it can never lose *more* work to the thief than
    // the cold one... it must lose at least as much.
    EXPECT_GE(warm_stolen, cold_stolen)
        << "thief drained the cold victim before the cache-warm one";
    rmi_fence();
  });
}

TEST(task_graph_test, NonStealableTasksStayHome)
{
  execute(4, [] {
    metrics::reset_all();
    task_graph<long> tg; // stealing on, but nothing is marked stealable
    for (int i = 0; i < 8; ++i) {
      tg.add_task(0, [](std::vector<long> const&, char const&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return 0L;
      });
    }
    tg.execute();
    auto const stats = metrics::global_snapshot();
    EXPECT_EQ(stats.at("tg.tasks_stolen"), 0u);
    EXPECT_EQ(stats.at("tg.tasks_run"), 8u);
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Adaptive grain and placement feedback (locality pipeline)
// ---------------------------------------------------------------------------

TEST(task_graph_test, AdaptiveGrainShrinksUnderStealsAndRecovers)
{
  execute(4, [] {
    p_array<long> pa(1024);
    EXPECT_DOUBLE_EQ(pa.grain_factor(), 1.0);
    std::size_t const base = 1000;
    EXPECT_EQ(pa.tuned_grain(base), base);

    // A graph that moved >= 25% of this location's tasks: chunks were too
    // coarse to balance — the factor halves (and keeps halving down to
    // the clamp across consecutive stormy graphs).
    task_graph_stats stormy;
    stormy.tasks_run = 8;
    stormy.tasks_stolen = 4;
    pa.note_task_graph_stats(stormy);
    EXPECT_DOUBLE_EQ(pa.grain_factor(), 0.5);
    EXPECT_EQ(pa.tuned_grain(base), 500u);
    for (int i = 0; i < 10; ++i)
      pa.note_task_graph_stats(stormy);
    EXPECT_DOUBLE_EQ(pa.grain_factor(), grain_tuner::min_factor);
    EXPECT_GE(pa.tuned_grain(base), 1u);

    // Quiet steal-free graphs relax the factor back up (clamped above).
    task_graph_stats quiet;
    quiet.tasks_run = 8;
    double prev = pa.grain_factor();
    pa.note_task_graph_stats(quiet);
    EXPECT_GT(pa.grain_factor(), prev);
    for (int i = 0; i < 40; ++i)
      pa.note_task_graph_stats(quiet);
    EXPECT_DOUBLE_EQ(pa.grain_factor(), grain_tuner::max_factor);

    // Both signals accumulated into the epoch's task stats (the load
    // balancer's second signal) until reset.
    EXPECT_GT(pa.epoch_task_stats().tasks_run, 0u);
    EXPECT_GT(pa.epoch_task_stats().tasks_stolen, 0u);
    pa.reset_task_stats();
    EXPECT_EQ(pa.epoch_task_stats().tasks_run, 0u);
    rmi_fence();
  });
}

TEST(task_graph_test, PlacementFeedbackWarmsChunkDescriptors)
{
  execute(4, [] {
    std::size_t const n = 64 * num_locations();
    p_array<long> pa(n, 0);
    array_1d_view v(pa);

    // Cold start: no placement has been observed, no cached-at hints.
    for (auto const& d : v.chunks(16))
      EXPECT_EQ(d.cached_at, invalid_location);

    // A deliberately skewed stealable run: location 0's elements carry all
    // the work, so thieves drag its chunks away and the lost_events()
    // feedback lands in the container's affinity table.
    exec_policy pol;
    pol.grain = 8;
    pol.stealable = true;
    p_for_each_gid(v, [n](gid1d g, long& x) {
      if (g < n / 4)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      x += 1;
    }, pol);

    // Where steals happened, the owner's next descriptors carry hints
    // (the schedule is timing-dependent, so gate on observed losses).
    if (pa.epoch_task_stats().tasks_lost > 0) {
      bool any_warm = false;
      for (auto const& d : v.chunks(16))
        any_warm |= d.cached_at != invalid_location;
      EXPECT_TRUE(any_warm)
          << "chunks were lost to thieves but no descriptor warmed up";
    }
    auto const total_lost = allreduce(pa.epoch_task_stats().tasks_lost,
                                      std::plus<>{});
    EXPECT_GT(total_lost, 0u) << "skewed sleeping chunks were never stolen";
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

    // Chunk tasks increment every element through the routed apply path
    // (stealable: correct from any location) while migrator tasks scatter
    // elements between locations mid-flight.  Chunks travel the split
    // spawn path like every chunked factory: wire forms allgathered,
    // run-encoded payloads attached owner-locally — and, with every
    // descriptor deliberately owned by the *next* location over, each
    // payload must be forwarded producer→owner while the migration churn
    // runs.
    metrics::reset_all();
    task_graph<char, gid_sequence<gid1d>> tg;
    auto local = tg_detail::make_descriptors(
        tg_detail::chunk_gids(pa.local_gids(), 16), sizeof(long));
    std::size_t const my_chunks = local.size();
    for (auto& d : local)
      d.owner = (this_location() + 1) % num_locations();
    std::uint64_t wire_bytes = 0;
    auto all = tg_detail::exchange_wire_forms(local, wire_bytes);
    tg.note_spawn_bytes(wire_bytes);
    EXPECT_GT(wire_bytes, 0u);
    auto work = [&pa](std::vector<char> const&,
                      gid_sequence<gid1d> const& gids) {
      gids.for_each(
          [&](gid1d g) { pa.apply_set(g, [](long& x) { x += 1; }); });
      return char{};
    };
    for (location_id l = 0; l < num_locations(); ++l)
      for (std::size_t k = 0; k < all[l].size(); ++k)
        tg_detail::spawn_chunk_task(tg, all[l][k], l, k, local, work, true);
    // One migrator task per location, interleaved with the increments:
    // each scatters a slice of the domain to the next location over.
    for (location_id l = 0; l < num_locations(); ++l)
      tg.add_task(l, [&pa, n](std::vector<char> const&,
                              gid_sequence<gid1d> const&) {
        location_id const me = this_location();
        for (std::size_t g = me; g < n; g += 2 * num_locations())
          pa.migrate(g, (me + 1) % num_locations());
        return char{};
      });
    tg.execute();

    // Exactly once: every element was incremented exactly one time, no
    // matter where its chunk ran, where its payload was forwarded from,
    // or where the element went.
    for (std::size_t g = 0; g < n; ++g)
      EXPECT_EQ(pa.get_element(g), 1) << "gid " << g;

    // Every chunk's payload crossed producer→owner exactly once.
    auto const stats = metrics::global_snapshot();
    auto const total_chunks = allreduce(my_chunks, std::plus<>{});
    EXPECT_EQ(stats.at("tg.payload_forwards"), total_chunks);
    EXPECT_GT(stats.at("tg.spawn_bytes"), 0u);

    // And the traversal after the dust settles covers the domain exactly.
    auto const total = allreduce(pa.local_gids().size(), std::plus<>{});
    EXPECT_EQ(total, n);
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Run-length GID serialization (the spawn path's payload encoding)
// ---------------------------------------------------------------------------

template <typename G>
std::vector<G> round_trip(stapl::gid_sequence<G> const& s)
{
  return stapl::unpack<stapl::gid_sequence<G>>(stapl::pack(s)).to_vector();
}

TEST(gid_sequence, DenseRunCompressesAndRoundTrips)
{
  std::vector<gid1d> gids(1000);
  std::iota(gids.begin(), gids.end(), 100);
  gid_sequence<gid1d> s(gids);
  EXPECT_TRUE(s.run_encoded());
  ASSERT_EQ(s.runs().size(), 1u);
  EXPECT_EQ(s.runs()[0], (gid_run{100, 1000}));
  EXPECT_EQ(s.size(), 1000u);
  EXPECT_EQ(s.front(), 100u);
  EXPECT_EQ(s.back(), 1099u);
  // O(runs) on the wire: far below the raw 8 bytes per element.
  EXPECT_LT(packed_size(s), 1000 * sizeof(gid1d) / 4);
  EXPECT_EQ(round_trip(s), gids);
}

TEST(gid_sequence, MultipleRunsPreserveOrder)
{
  std::vector<gid1d> const gids{0, 1, 2, 10, 11, 12, 13, 100};
  gid_sequence<gid1d> s(gids);
  EXPECT_TRUE(s.run_encoded());
  EXPECT_EQ(s.runs().size(), 3u);
  EXPECT_EQ(round_trip(s), gids);
}

TEST(gid_sequence, SparseSequenceFallsBackToRawVector)
{
  std::vector<gid1d> gids;
  for (gid1d g = 0; g < 500; g += 2)
    gids.push_back(g); // all runs are singletons: encoding cannot compress
  gid_sequence<gid1d> s(gids);
  EXPECT_FALSE(s.run_encoded());
  EXPECT_EQ(s.size(), gids.size());
  EXPECT_EQ(round_trip(s), gids);
}

TEST(gid_sequence, SingleElementAndEmptyRoundTrip)
{
  gid_sequence<gid1d> one(std::vector<gid1d>{42});
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(one.front(), 42u);
  EXPECT_EQ(one.back(), 42u);
  EXPECT_EQ(round_trip(one), std::vector<gid1d>{42});

  gid_sequence<gid1d> empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(round_trip(empty).empty());
}

TEST(gid_sequence, NonIntegralGidsUseRawFallback)
{
  std::vector<double> const gids{1.5, 2.5, 3.5, 10.0};
  gid_sequence<double> s(gids);
  EXPECT_FALSE(gid_sequence<double>::run_capable);
  EXPECT_FALSE(s.run_encoded());
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(round_trip(s), gids);
}

// ---------------------------------------------------------------------------
// Steal-grant hoarding guard (pure cap function; see handle_steal_request)
// ---------------------------------------------------------------------------

TEST(steal_grant_cap, CapsGrantByThiefBacklog)
{
  // Idle-handed thief: classic steal-half, down to a lone small task.
  EXPECT_EQ(steal_grant_cap(10, 0), 5u);
  EXPECT_EQ(steal_grant_cap(11, 0), 5u);
  EXPECT_EQ(steal_grant_cap(1, 0), 1u);
  // A loaded thief gets at most half the weight gap, so after the grant
  // it still holds no more than the victim keeps.
  EXPECT_EQ(steal_grant_cap(10, 4), 3u);
  EXPECT_EQ(steal_grant_cap(100, 98), 1u);
  // Backlog at or above the victim's stealable weight: nothing to grant —
  // including the half==0 gap where an idle thief would get the floor.
  EXPECT_EQ(steal_grant_cap(10, 10), 0u);
  EXPECT_EQ(steal_grant_cap(10, 20), 0u);
  EXPECT_EQ(steal_grant_cap(10, 9), 0u);
  EXPECT_EQ(steal_grant_cap(0, 0), 0u);
}

// ---------------------------------------------------------------------------
// Affinity-table splitting (partial overlaps keep their remainders)
// ---------------------------------------------------------------------------

TEST(chunk_affinity_table, SplitsEntriesOnPartialOverlap)
{
  chunk_affinity_table t(8);
  t.note(0, 100, 1);
  // A sharper observation inside the old range owns exactly [40, 60];
  // the stale whole-range hint survives only outside it.
  t.note(40, 60, 2);
  EXPECT_EQ(t.lookup(0, 10), 1u);
  EXPECT_EQ(t.lookup(45, 55), 2u);
  EXPECT_EQ(t.lookup(70, 100), 1u);
  EXPECT_EQ(t.size(), 3u);

  // One-sided overlap trims the edge instead of dropping the entry.
  t.note(90, 120, 3);
  EXPECT_EQ(t.lookup(95, 110), 3u);
  EXPECT_EQ(t.lookup(70, 80), 1u);
  EXPECT_EQ(t.lookup(200, 210), invalid_location);

  // Exact re-observation replaces in place (no remainder fragments).
  std::size_t const before = t.size();
  t.note(40, 60, 0);
  EXPECT_EQ(t.lookup(45, 55), 0u);
  EXPECT_EQ(t.size(), before);
}

TEST(chunk_affinity_table, SplittingRespectsCapacityBound)
{
  chunk_affinity_table t(4);
  t.note(0, 1000, 1);
  // Each inner observation splits the survivor into more fragments; the
  // FIFO bound must still hold.
  for (std::uint64_t k = 0; k < 10; ++k)
    t.note(10 + 50 * k, 30 + 50 * k, static_cast<location_id>(k % 3));
  EXPECT_LE(t.size(), 4u);
  // The most recent observation always survives the eviction.
  EXPECT_EQ(t.lookup(10 + 50 * 9, 30 + 50 * 9), 0u);
}

// ---------------------------------------------------------------------------
// Metadata-only spawn exchange
// ---------------------------------------------------------------------------

TEST(task_graph_test, StealableSpawnShipsWireFormNotGids)
{
  execute(4, [] {
    std::size_t const n = 512 * num_locations();
    p_array<long> pa(n, 0);
    array_1d_view v(pa);
    exec_policy pol;
    pol.grain = 64;
    pol.stealable = true;

    // What PR 4's full-descriptor allgather would have shipped to the
    // P-1 peers: raw GID vectors plus the metadata.
    std::uint64_t full = 0;
    for (auto const& d : v.chunks(pol.grain))
      full += packed_size(d.gids.to_vector()) + packed_size(d.wire());
    full *= num_locations() - 1;

    p_for_each(v, [](long& x) { x += 1; }, pol);
    EXPECT_EQ(p_accumulate(v, 0L), static_cast<long>(n));

    // feed_back_execution accumulated the executor's counters into the
    // container: the spawn path moved bytes, far fewer than the full
    // descriptors — dense integral chunks ride the >= 5x acceptance bar
    // with room to spare.
    auto const spawn = allreduce(pa.epoch_task_stats().spawn_bytes,
                                 std::plus<std::uint64_t>{});
    auto const full_total = allreduce(full, std::plus<std::uint64_t>{});
    EXPECT_GT(spawn, 0u);
    EXPECT_LT(spawn * 5, full_total)
        << "wire-form exchange is not at least 5x smaller";
    // Aligned array chunks are produced by their owners: no payload ever
    // needed forwarding.
    EXPECT_EQ(allreduce(pa.epoch_task_stats().payload_forwards,
                        std::plus<std::uint64_t>{}),
              0u);
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Stress: chunked algorithms + stealing + migration churn (sized for the
// sanitizer CI job as well)
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
