// Unit tests for the hot-element load balancer (core/load_balancer.hpp)
// and its supporting directory machinery: the bounded space-saving hot-GID
// tracker, owner-side access counting, greedy plan determinism, skewed
// workloads converging below the imbalance threshold, reachability and
// exactly-once execution through stale caches after balancer-driven
// migration, and home-driven forwarding-hint reclamation — with at least 4
// locations.

#include "containers/p_array.hpp"
#include "containers/p_associative.hpp"
#include "containers/p_graph.hpp"
#include "core/directory.hpp"
#include "core/load_balancer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <set>
#include <vector>

namespace {

using namespace stapl;

/// max/avg over per-location loads (the planner's own spread metric).
double spread_of(std::vector<std::uint64_t> const& loads)
{
  return lb_detail::imbalance_of(loads);
}

// ---------------------------------------------------------------------------
// Space-saving tracker (pure data structure, no runtime needed)
// ---------------------------------------------------------------------------

TEST(space_saving_tracker, BoundedAndKeepsHotItems)
{
  space_saving_tracker<std::size_t> t;
  t.set_capacity(8);
  // 4 hot items with 500 hits each, 1000 distinct cold items with 1 hit.
  // The space-saving guarantee keeps any item with true count > N/k
  // (3000/8 = 375) in the sketch, so the hot four must survive the flood.
  for (int r = 0; r < 500; ++r)
    for (std::size_t g = 0; g < 4; ++g)
      t.note(g);
  for (std::size_t g = 100; g < 1100; ++g)
    t.note(g);
  EXPECT_LE(t.size(), 8u) << "tracker grew past its capacity";

  auto const top = t.top();
  ASSERT_GE(top.size(), 4u);
  // The four hot items survive the cold flood, hottest first, and their
  // counts never underestimate the true frequency.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_LT(top[i].first, 4u) << "hot item evicted by cold tail";
    EXPECT_GE(top[i].second, 500u);
  }
}

TEST(space_saving_tracker, ZeroCapacityTracksNothing)
{
  space_saving_tracker<int> t;
  for (int g = 0; g < 50; ++g)
    t.note(g);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.top().empty());
}

// ---------------------------------------------------------------------------
// Greedy planner (pure function: deterministic, improves the spread)
// ---------------------------------------------------------------------------

TEST(greedy_plan, DrainsOverloadedLocationDeterministically)
{
  std::vector<std::uint64_t> const loads{1000, 0, 0, 0};
  std::vector<std::vector<lb_detail::hot_candidate<std::size_t>>> hot(4);
  for (std::size_t g = 0; g < 16; ++g)
    hot[0].push_back({g, 250 - 10 * g, 8}); // hottest first, sums ~ loads[0]

  auto const plan_a = lb_detail::greedy_plan<std::size_t>(loads, hot, 64);
  auto const plan_b = lb_detail::greedy_plan<std::size_t>(loads, hot, 64);
  ASSERT_EQ(plan_a.size(), plan_b.size());
  for (std::size_t i = 0; i < plan_a.size(); ++i) {
    EXPECT_EQ(plan_a[i].gid, plan_b[i].gid);
    EXPECT_EQ(plan_a[i].to, plan_b[i].to);
    EXPECT_EQ(plan_a[i].weight, plan_b[i].weight);
  }

  ASSERT_FALSE(plan_a.empty());
  std::vector<double> projected(loads.begin(), loads.end());
  for (auto const& mv : plan_a) {
    EXPECT_EQ(mv.from, 0u);
    projected[mv.from] -= static_cast<double>(mv.weight);
    projected[mv.to] += static_cast<double>(mv.weight);
  }
  EXPECT_LT(lb_detail::imbalance_of(projected), 4.0)
      << "plan did not improve the all-on-one-location spread";
  EXPECT_LT(lb_detail::imbalance_of(projected), 1.5);
}

TEST(greedy_plan, PrefersDenserElementsAndReportsBytes)
{
  // Two donors' worth of load on location 0; the candidates tie on count
  // but differ wildly in payload size.  The density ordering must drain
  // with the small elements first, so the same load moves for a fraction
  // of the bytes.
  std::vector<std::uint64_t> const loads{800, 0, 0, 0};
  std::vector<std::vector<lb_detail::hot_candidate<std::size_t>>> hot(4);
  hot[0].push_back({0, 200, 1 << 20}); // hot but huge (1 MiB)
  hot[0].push_back({1, 200, 16});
  hot[0].push_back({2, 200, 16});
  hot[0].push_back({3, 200, 16});

  auto const plan = lb_detail::greedy_plan<std::size_t>(loads, hot, 64);
  ASSERT_GE(plan.size(), 3u);
  // The three small elements drain first (density order), carrying their
  // byte estimates with them.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NE(plan[i].gid, 0u) << "huge element planned before small ones";
    EXPECT_EQ(plan[i].bytes, 16u);
  }
  std::uint64_t bytes = 0;
  for (auto const& mv : plan)
    bytes += mv.bytes;
  EXPECT_LT(bytes, (1u << 20))
      << "moving the huge element was not needed to reach the mean";
}

TEST(greedy_plan, WaveByteBudgetCapsTransfers)
{
  std::vector<std::uint64_t> const loads{900, 0, 0};
  std::vector<std::vector<lb_detail::hot_candidate<std::size_t>>> hot(3);
  for (std::size_t g = 0; g < 8; ++g)
    hot[0].push_back({g, 100, 100});

  auto const capped =
      lb_detail::greedy_plan<std::size_t>(loads, hot, 64, /*max_bytes=*/250);
  std::uint64_t bytes = 0;
  for (auto const& mv : capped)
    bytes += mv.bytes;
  EXPECT_LE(bytes, 250u);
  EXPECT_EQ(capped.size(), 2u);

  auto const uncapped = lb_detail::greedy_plan<std::size_t>(loads, hot, 64);
  EXPECT_GT(uncapped.size(), capped.size());
}

TEST(greedy_plan, NoMovesWhenBalancedOrIdle)
{
  std::vector<std::vector<lb_detail::hot_candidate<std::size_t>>> hot(4);
  for (auto& h : hot)
    h.push_back({1, 100, 8});
  EXPECT_TRUE(lb_detail::greedy_plan<std::size_t>({100, 100, 100, 100}, hot, 64)
                  .empty());
  EXPECT_TRUE(
      lb_detail::greedy_plan<std::size_t>({0, 0, 0, 0}, hot, 64).empty());
}

// ---------------------------------------------------------------------------
// Rebalancing a skewed pArray workload
// ---------------------------------------------------------------------------

/// All locations pound the first `hot` GIDs (location 0's closed-form
/// block) with `rounds` asynchronous increments each.
template <typename PA>
void skewed_workload(PA& pa, std::size_t hot, int rounds)
{
  for (int r = 0; r < rounds; ++r)
    for (std::size_t g = 0; g < hot; ++g)
      pa.apply_set(g, [](long& v) { v += 1; });
  rmi_fence();
}

TEST(load_balancer_test, SkewedArrayConvergesBelowThreshold)
{
  unsigned const p = 4;
  execute(p, [] {
    std::size_t const n = 16 * num_locations();
    std::size_t const hot = 16; // all on location 0 initially
    int const rounds = 25;
    p_array<long> pa(n, 0);

    load_balancer_config cfg;
    cfg.imbalance_threshold = 1.3;
    cfg.hot_k = 64;
    pa.enable_load_balancing(cfg);
    ASSERT_TRUE(pa.load_balancing_enabled());

    int waves = 0, triggered = 0;
    bool converged = false;
    while (waves < 4 && !converged) {
      skewed_workload(pa, hot, rounds);
      auto const rep = pa.rebalance();
      waves += 1;
      if (rep.triggered) {
        triggered += 1;
        EXPECT_GT(rep.imbalance_before, cfg.imbalance_threshold);
        EXPECT_GT(rep.moves, 0u);
        // Transfer cost is reported: one fixed-size long per move.
        EXPECT_EQ(rep.bytes_moved, rep.moves * sizeof(long));
      } else {
        converged = true; // measured spread within tolerance: done
      }
    }
    EXPECT_TRUE(converged) << "still above threshold after 4 waves";
    EXPECT_GE(triggered, 1) << "initial skew never tripped the balancer";

    // Re-measure the converged placement against the raw counters.
    skewed_workload(pa, hot, rounds);
    rmi_fence();
    auto const loads = allgather(pa.get_directory().epoch_accesses());
    EXPECT_LE(spread_of(loads), cfg.imbalance_threshold);

    // Exactly-once throughout: every wave (and the re-measure pass) added
    // num_locations() * rounds to every hot element.
    long const expect =
        static_cast<long>(waves + 1) * rounds * num_locations();
    for (std::size_t g = 0; g < hot; ++g)
      EXPECT_EQ(pa.get_element(g), expect);
    rmi_fence();
  });
}

// Balancer-migrated elements stay reachable through deliberately stale
// caches: every location plants a cache entry naming the *old* owner, then
// routes one increment at each hot element — each must execute exactly
// once at the element's post-rebalance location.
TEST(load_balancer_test, StaleCachesAfterRebalanceExactlyOnce)
{
  unsigned const p = 4;
  execute(p, [] {
    std::size_t const n = 8 * num_locations();
    std::size_t const hot = 8;
    int const rounds = 30;
    p_array<long> pa(n, 0);

    load_balancer_config cfg;
    cfg.imbalance_threshold = 1.3;
    pa.enable_load_balancing(cfg);

    skewed_workload(pa, hot, rounds);
    auto const rep = pa.rebalance();
    EXPECT_TRUE(rep.triggered);

    // Plant stale routing knowledge: the hot block's old closed-form owner.
    for (std::size_t g = 0; g < hot; ++g)
      pa.get_directory().handle_cache_update(g, 0);
    for (std::size_t g = 0; g < hot; ++g)
      pa.apply_set(g, [](long& v) { v += 1; });
    rmi_fence();

    long const expect = static_cast<long>(rounds + 1) * num_locations();
    for (std::size_t g = 0; g < hot; ++g)
      EXPECT_EQ(pa.get_element(g), expect)
          << "increment lost or duplicated through a stale cache";
    rmi_fence();
  });
}

TEST(load_balancer_test, AdvanceEpochHonorsInterval)
{
  unsigned const p = 4;
  execute(p, [] {
    std::size_t const n = 8 * num_locations();
    p_array<long> pa(n, 0);

    load_balancer_config cfg;
    cfg.imbalance_threshold = 1.3;
    cfg.epoch_interval = 2;
    pa.enable_load_balancing(cfg);

    skewed_workload(pa, 8, 20);
    auto const r1 = pa.advance_epoch();
    EXPECT_FALSE(r1.has_value()) << "rebalanced before the interval elapsed";
    auto const r2 = pa.advance_epoch();
    ASSERT_TRUE(r2.has_value());
    EXPECT_TRUE(r2->triggered);
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Lock-free note_access: sampled sketch, exact load counters
// ---------------------------------------------------------------------------

// The owner hot path now bumps relaxed atomic counters and only takes the
// directory mutex for sampled (1-in-N) sketch updates.  The load counters
// must match the old locked path exactly, and the weighted sketch must
// keep every genuinely hot GID on the books.
TEST(load_balancer_test, SampledNoteAccessCountsMatchLockedPath)
{
  unsigned const p = 4;
  execute(p, [] {
    std::size_t const n = 16 * num_locations();
    std::size_t const hot = 16; // location 0's closed-form block
    int const rounds = 40;

    for (unsigned sample : {1u, 4u}) {
      p_array<long> pa(n, 0);
      load_balancer_config cfg;
      cfg.hot_k = 64;
      cfg.access_sample = sample;
      pa.enable_load_balancing(cfg);
      EXPECT_EQ(pa.get_directory().access_sample_every(), sample);

      skewed_workload(pa, hot, rounds);

      // The per-epoch load counter counts *every* owner access, sampled
      // sketch or not: identical to the locked path's verdict.
      std::uint64_t const expect =
          static_cast<std::uint64_t>(hot) * rounds * num_locations();
      auto const loads = allgather(pa.get_directory().epoch_accesses());
      std::uint64_t total = 0;
      for (auto l : loads)
        total += l;
      EXPECT_EQ(total, expect)
          << "lock-free counter diverged at sample=" << sample;
      EXPECT_EQ(loads[0], expect) << "accesses counted off-owner";

      // The sketch tracks all hot GIDs (weight-compensated sampling: each
      // is expected ~rounds*P/sample times, so none can be missed), and
      // its count estimates stay within the space-saving error bound.
      if (this_location() == 0) {
        auto const top = pa.get_directory().hot_elements();
        EXPECT_GE(top.size(), hot);
        std::uint64_t sketch_total = 0;
        for (auto const& [g, count] : top) {
          EXPECT_LT(g, hot);
          sketch_total += count;
        }
        if (sample == 1) {
          EXPECT_EQ(sketch_total, expect); // exact when unsampled
        }
      }
      rmi_fence();
    }
  });
}

// ---------------------------------------------------------------------------
// advance_epoch() auto-tuning from imbalance drift
// ---------------------------------------------------------------------------

TEST(load_balancer_test, AdvanceEpochAutoTunesInterval)
{
  unsigned const p = 4;
  execute(p, [] {
    std::size_t const n = 8 * num_locations();
    p_array<long> pa(n, 0);

    load_balancer_config cfg;
    cfg.imbalance_threshold = 1.3;
    cfg.epoch_interval = 4;
    cfg.auto_epoch = true;
    cfg.min_epoch_interval = 1;
    cfg.max_epoch_interval = 8;
    pa.enable_load_balancing(cfg);
    EXPECT_EQ(pa.epoch_interval(), 4u);

    // Skewed epoch: the wave triggers -> the interval halves (placement
    // is in flux, re-measure sooner).
    skewed_workload(pa, 8, 20);
    std::optional<rebalance_report> rep;
    for (int e = 0; e < 4; ++e) {
      EXPECT_FALSE(rep.has_value());
      rep = pa.advance_epoch();
    }
    ASSERT_TRUE(rep.has_value());
    EXPECT_TRUE(rep->triggered);
    EXPECT_EQ(pa.epoch_interval(), 2u);

    // The next wave sees a big drift (skew collapsed to idle): halve
    // again to the floor.
    rep = pa.advance_epoch();
    EXPECT_FALSE(rep.has_value());
    rep = pa.advance_epoch();
    ASSERT_TRUE(rep.has_value());
    EXPECT_FALSE(rep->triggered);
    EXPECT_EQ(pa.epoch_interval(), 1u);

    // Quiet, stable epochs: the interval doubles back out toward the cap
    // (stop paying measurement fences when nothing moves).
    rep = pa.advance_epoch();
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(pa.epoch_interval(), 2u);
    rep = pa.advance_epoch();
    EXPECT_FALSE(rep.has_value());
    rep = pa.advance_epoch();
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(pa.epoch_interval(), 4u);
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Task-graph stats as the balancer's second signal
// ---------------------------------------------------------------------------

// Two locations with identical directory access counts, but the executor
// reports one of them kept losing its chunk tasks to thieves: the load
// model must rank the loser hotter and trigger a wave that plain access
// counts would not.
TEST(load_balancer_test, TaskStatsShiftTheLoadModel)
{
  unsigned const p = 4;
  execute(p, [] {
    std::size_t const n = 16 * num_locations();
    p_array<long> pa(n, 0);

    load_balancer_config cfg;
    cfg.imbalance_threshold = 1.3;
    cfg.task_stats_weight = 1.0;
    pa.enable_load_balancing(cfg);

    // Balanced element traffic: every location pounds its own block.
    for (int r = 0; r < 20; ++r)
      for (std::size_t k = 0; k < 8; ++k)
        pa.apply_set(this_location() * 16 + k, [](long& v) { v += 1; });
    rmi_fence();

    // Executor verdict: location 0 lost a task-equivalent of most of its
    // accesses; the others pulled that work in.
    task_graph_stats s;
    if (this_location() == 0) {
      s.tasks_run = 4;
      s.tasks_lost = 12;
    } else {
      s.tasks_run = 8;
      s.tasks_stolen = 4;
    }
    pa.note_task_graph_stats(s);

    auto const rep = pa.rebalance();
    EXPECT_TRUE(rep.triggered)
        << "task-graph losses did not register as load";
    EXPECT_GT(rep.imbalance_before, cfg.imbalance_threshold);

    // The wave resets both signals so the next epoch measures fresh.
    EXPECT_EQ(pa.epoch_task_stats().tasks_lost, 0u);
    EXPECT_EQ(pa.get_directory().epoch_accesses(), 0u);
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Forwarding-hint reclamation under repeated migration waves
// ---------------------------------------------------------------------------

TEST(load_balancer_test, HintsBoundedAfterMigrationWaves)
{
  unsigned const p = 4;
  execute(p, [] {
    std::size_t const n = 4 * num_locations();
    std::size_t const moving = 8; // GIDs bounced around every wave
    int const waves = 6;
    p_array<long> pa(n, 5);
    pa.make_dynamic();

    for (int w = 1; w <= waves; ++w) {
      if (this_location() == 0)
        for (std::size_t g = 0; g < moving; ++g)
          pa.migrate(g, static_cast<location_id>((g + w) % num_locations()));
      rmi_fence();
    }
    rmi_fence(); // reclamation traffic of the last wave fully retires

    // Home-driven reclamation keeps at most one live hint per migrating
    // GID system-wide (at its most recent former owner) — without it the
    // total grows toward moving * (P - 1) under ring migration.
    auto const hints = allreduce(pa.get_directory().hint_count(),
                                 std::plus<>{});
    EXPECT_LE(hints, moving);
    auto const reclaimed = allreduce(
        pa.get_directory().stats().hints_reclaimed, std::plus<>{});
    EXPECT_GT(reclaimed, 0u) << "reclamation never fired across the waves";

    // Every bounced element is still reachable and intact.
    for (std::size_t g = 0; g < n; ++g)
      EXPECT_EQ(pa.get_element(g), 5);
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Other container families
// ---------------------------------------------------------------------------

TEST(load_balancer_test, MapHotKeysRebalance)
{
  unsigned const p = 4;
  execute(p, [] {
    int const n = 32;
    int const rounds = 25;
    p_map<int, long> pm;
    pm.make_dynamic();
    if (this_location() == 0)
      for (int k = 0; k < n; ++k)
        pm.insert_async(k, 0L);
    rmi_fence();

    load_balancer_config cfg;
    cfg.imbalance_threshold = 1.3;
    pm.enable_load_balancing(cfg);

    // Location 0's keys become the hot set, hammered from every location.
    auto const mine = allgather(this_location() == 0
                                    ? pm.local_gids()
                                    : std::vector<int>{});
    auto const& hot = mine[0];
    ASSERT_FALSE(hot.empty());

    auto pound = [&] {
      for (int r = 0; r < rounds; ++r)
        for (int k : hot)
          pm.apply_async(k, [](long& v) { v += 1; });
      rmi_fence();
    };

    pound();
    auto const rep = pm.rebalance();
    EXPECT_TRUE(rep.triggered);
    EXPECT_LT(rep.imbalance_after, rep.imbalance_before);

    // Hot keys remain reachable with exactly-once semantics, and the
    // re-measured spread sits below the threshold.
    pound();
    auto const loads = allgather(pm.get_directory().epoch_accesses());
    EXPECT_LE(spread_of(loads), cfg.imbalance_threshold);
    for (int k : hot)
      EXPECT_EQ(pm.find_val(k),
                (std::pair<long, bool>{2L * rounds * num_locations(), true}));
    EXPECT_EQ(pm.size(), static_cast<std::size_t>(n));
    rmi_fence();
  });
}

// An erased key leaves its owner's hot-key sketch, so the next wave plans
// no move of a key that no longer exists: the sketch lists live keys only,
// and size()/find_val stay correct across the wave.
TEST(load_balancer_test, ErasedHotKeysLeaveSketchBeforeRebalance)
{
  execute(4, [] {
    int const n = 64;
    int const rounds = 20;
    p_hash_map<int, long> pm;
    pm.make_dynamic();
    if (this_location() == 0)
      for (int k = 0; k < n; ++k)
        pm.insert_async(k, 0L);
    rmi_fence();
    pm.enable_load_balancing();

    // Every location hammers location 0's keys; the first half of them
    // twice as hard, so at the top of the sketch, and then erases those.
    auto const mine = allgather(this_location() == 0
                                    ? pm.local_gids()
                                    : std::vector<int>{});
    std::set<int> const hot(mine[0].begin(), mine[0].end());
    ASSERT_GE(hot.size(), 2u);
    std::set<int> const erased(mine[0].begin(),
                               mine[0].begin() + mine[0].size() / 2);
    for (int r = 0; r < rounds; ++r)
      for (int k : hot)
        for (int hit = 0; hit < (erased.count(k) != 0 ? 2 : 1); ++hit)
          pm.apply_async(k, [](long& v) { v += 1; });
    rmi_fence();
    if (this_location() == 1)
      for (int k : erased)
        pm.erase_async(k);
    rmi_fence();

    if (this_location() == 0) {
      for (auto const& [g, count] : pm.get_directory().hot_elements())
        EXPECT_EQ(erased.count(g), 0u) << "erased key " << g << " in sketch";
    }

    EXPECT_TRUE(pm.rebalance().triggered);
    EXPECT_EQ(pm.size(), static_cast<std::size_t>(n) - erased.size());
    long const hits = static_cast<long>(rounds) * num_locations();
    for (int k = 0; k < n; ++k) {
      auto const found = pm.find_val(k);
      if (erased.count(k) != 0)
        EXPECT_FALSE(found.second) << "erased key " << k;
      else
        EXPECT_EQ(found, (std::pair<long, bool>{hot.count(k) != 0 ? hits : 0L,
                                                true}))
            << "key " << k;
    }
    rmi_fence();
  });
}

TEST(load_balancer_test, GraphHubVerticesSpreadAcrossLocations)
{
  unsigned const p = 4;
  execute(p, [] {
    p_graph<DIRECTED, MULTI, int> g;
    // Location 0 owns four hub vertices everyone reads; each location
    // adds one cold vertex of its own (the hubs' edge targets).
    if (this_location() == 0)
      for (vertex_descriptor v = 100; v < 104; ++v)
        g.add_vertex(v, static_cast<int>(v));
    g.add_vertex(200 + this_location(), 0);
    rmi_fence();
    if (this_location() == 0)
      for (vertex_descriptor v = 100; v < 104; ++v)
        g.add_edge_async(v, 200 + v % num_locations());
    rmi_fence();

    load_balancer_config cfg;
    cfg.imbalance_threshold = 1.3;
    g.enable_load_balancing(cfg);

    for (int r = 0; r < 25; ++r)
      for (vertex_descriptor v = 100; v < 104; ++v)
        (void)g.get_vertex_property(v);
    rmi_fence();

    auto const rep = g.rebalance();
    EXPECT_TRUE(rep.triggered);
    EXPECT_GT(rep.moves, 0u);
    EXPECT_LT(rep.imbalance_after, rep.imbalance_before);

    // The hubs spread out: location 0 no longer holds them all, every hub
    // has exactly one owner, and property/adjacency survived the moves.
    int local_hubs = 0;
    for (vertex_descriptor v = 100; v < 104; ++v)
      local_hubs += g.is_local(v) ? 1 : 0;
    auto const per_loc = allgather(local_hubs);
    int total = 0;
    for (int c : per_loc)
      total += c;
    EXPECT_EQ(total, 4);
    EXPECT_LE(per_loc[0], 2) << "hubs stayed piled on the hot location";
    for (vertex_descriptor v = 100; v < 104; ++v) {
      EXPECT_TRUE(g.find_vertex(v));
      EXPECT_EQ(g.get_vertex_property(v), static_cast<int>(v));
      EXPECT_EQ(g.out_degree(v), 1u);
    }
    EXPECT_EQ(g.get_num_edges(), 4u);

    // Methods still route correctly to a migrated hub.
    if (this_location() == 2)
      g.set_vertex_property(101, 9);
    rmi_fence();
    EXPECT_EQ(g.get_vertex_property(101), 9);
    rmi_fence();
  });
}

} // namespace
