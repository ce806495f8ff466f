// Unit tests for the distributed directory subsystem (core/directory.hpp,
// core/migration.hpp) and its container wiring: GID registration across
// home locations, request forwarding through stale caches and in-flight
// migrations, cache invalidation on ownership change, the element
// migration protocol on pArray / pMap / pGraph, the locality test of
// every container kind, and routed element methods and pAlgorithm passes
// racing migrations — with at least 4 locations.

#include "algorithms/p_algorithms.hpp"
#include "containers/p_array.hpp"
#include "containers/p_associative.hpp"
#include "containers/p_graph.hpp"
#include "containers/p_list.hpp"
#include "core/directory.hpp"
#include "core/migration.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <optional>
#include <vector>

namespace {

using namespace stapl;

// ---------------------------------------------------------------------------
// Bare directory
// ---------------------------------------------------------------------------

TEST(directory_test, RegisterAndResolve)
{
  unsigned const p = 4;
  execute(p, [] {
    directory<std::size_t> dir;
    // Every location owns the GIDs congruent to it mod P.
    for (std::size_t g = this_location(); g < 64; g += num_locations())
      dir.register_gid(g);
    rmi_fence();

    for (std::size_t g = 0; g < 64; ++g) {
      location_id const owner = dir.resolve(g);
      EXPECT_EQ(owner, g % num_locations());
      EXPECT_EQ(dir.owns(g), owner == this_location());
    }
    rmi_fence();
  });
}

TEST(directory_test, UnknownGidResolvesInvalid)
{
  execute(4, [] {
    directory<std::size_t> dir; // no default owner installed
    rmi_fence();
    EXPECT_EQ(dir.resolve(12345), invalid_location);
    rmi_fence();
  });
}

// Registration skew: location 0 registers; every other location routes work
// at the GID *before* any fence.  The work must park (post_to_self retry)
// until the registration lands, and the fence must not pass over it.
TEST(directory_test, ConcurrentRegistrationSkew)
{
  unsigned const p = 5;
  std::atomic<int> executed{0};
  std::atomic<unsigned> exec_loc{~0u};
  execute(p, [&] {
    directory<std::size_t> dir;
    std::size_t const gid = 7;
    if (this_location() == 0) {
      dir.register_gid(gid);
    } else {
      dir.invoke_where(gid, [&] {
        executed.fetch_add(1);
        exec_loc.store(this_location());
      });
    }
    rmi_fence(); // must drain every parked/forwarded request
    EXPECT_EQ(executed.load(), static_cast<int>(p) - 1);
    EXPECT_EQ(exec_loc.load(), 0u);
    rmi_fence();
  });
}

// Massive skew: every location registers a disjoint batch while every other
// location immediately routes work at all of them.
TEST(directory_test, RegistrationSkewAllToAll)
{
  unsigned const p = 4;
  std::size_t const n = 32;
  std::atomic<int> executed{0};
  std::atomic<int> misrouted{0};
  execute(p, [&] {
    directory<std::size_t> dir;
    for (std::size_t g = this_location(); g < n; g += num_locations())
      dir.register_gid(g);
    // No fence: requests race the registrations.
    for (std::size_t g = 0; g < n; ++g) {
      location_id const expect = g % num_locations();
      dir.invoke_where(g, [&, expect] {
        executed.fetch_add(1);
        if (this_location() != expect)
          misrouted.fetch_add(1);
      });
    }
    rmi_fence();
    EXPECT_EQ(executed.load(), static_cast<int>(n * num_locations()));
    EXPECT_EQ(misrouted.load(), 0);
    rmi_fence();
  });
}

TEST(directory_test, InvokeWhereUsesCache)
{
  execute(4, [] {
    directory<std::size_t> dir;
    std::size_t const gid = 3 + num_locations(); // ensure remote for loc != 3
    if (this_location() == 3)
      dir.register_gid(gid);
    rmi_fence();

    if (this_location() == 0) {
      // Cold: routes through the home.  The home piggybacks the owner, so
      // a later request forwards directly.
      std::atomic<int> ran{0};
      dir.invoke_where(gid, [&] { ran.fetch_add(1); });
      rmi_fence();
      auto const cold_cache_hits = dir.stats().cache_hits;
      EXPECT_TRUE(dir.try_resolve(gid).has_value())
          << "home lookup should have warmed the cache";
      dir.invoke_where(gid, [&] { ran.fetch_add(1); });
      rmi_fence();
      EXPECT_EQ(ran.load(), 2);
      EXPECT_GT(dir.stats().cache_hits, cold_cache_hits);
    } else {
      rmi_fence();
      rmi_fence();
    }
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Migration through the container wiring (pArray)
// ---------------------------------------------------------------------------

TEST(directory_test, ArrayMigrateAndAccess)
{
  unsigned const p = 4;
  execute(p, [] {
    std::size_t const n = 8 * num_locations();
    p_array<long> pa(n);
    for (std::size_t g = 0; g < n; ++g)
      if (pa.is_local(g))
        pa.set_element(g, static_cast<long>(g));
    pa.make_dynamic();

    // Location 0 scatters the first 2P elements round-robin.
    if (this_location() == 0)
      for (std::size_t g = 0; g < 2 * num_locations(); ++g)
        pa.migrate(g, static_cast<location_id>((g + 1) % num_locations()));
    rmi_fence();

    for (std::size_t g = 0; g < 2 * num_locations(); ++g) {
      location_id const expect = (g + 1) % num_locations();
      EXPECT_EQ(pa.is_local(g), expect == this_location());
      EXPECT_EQ(pa.get_element(g), static_cast<long>(g));
    }
    // Untouched elements kept their closed-form placement and value.
    for (std::size_t g = 2 * num_locations(); g < n; ++g)
      EXPECT_EQ(pa.get_element(g), static_cast<long>(g));
    rmi_fence(); // keep the write phase out of the verification reads

    // Writes through the directory land on the migrated copy.
    if (this_location() == 0)
      for (std::size_t g = 0; g < 2 * num_locations(); ++g)
        pa.set_element(g, static_cast<long>(100 + g));
    rmi_fence();
    for (std::size_t g = 0; g < 2 * num_locations(); ++g)
      EXPECT_EQ(pa.get_element(g), static_cast<long>(100 + g));
    rmi_fence();
  });
}

// The ISSUE acceptance scenario: a location with a stale owner cache routes
// work at a migrated element; it must execute exactly once, on the new
// owner, and rmi_fence must drain all forwarded traffic.
TEST(directory_test, StaleCacheForwardsExactlyOnce)
{
  unsigned const p = 4;
  std::atomic<int> executed{0};
  std::atomic<unsigned> exec_loc{~0u};
  execute(p, [&] {
    std::size_t const n = 4 * num_locations();
    p_array<long> pa(n, 1);
    pa.make_dynamic();
    std::size_t const gid = 0; // owned by location 0 initially

    // The element moves 0 -> 1.
    if (this_location() == 0)
      pa.migrate(gid, 1);
    rmi_fence();

    if (this_location() == 3) {
      // Plant a deliberately stale cache entry pointing at the *old*
      // owner, then route work through it: the request must chase the
      // forwarding hint at location 0 to the element's new home.
      pa.get_directory().handle_cache_update(gid, 0);
      pa.get_directory().invoke_where(gid, [&] {
        executed.fetch_add(1);
        exec_loc.store(this_location());
      });
    }
    rmi_fence(); // must drain the chase/bounce traffic

    EXPECT_EQ(executed.load(), 1);
    EXPECT_EQ(exec_loc.load(), 1u);
    if (this_location() == 3) {
      // The home's invalidation-or-update left no stale entry behind.
      auto const cached = pa.get_directory().try_resolve(gid);
      if (cached.has_value()) {
        EXPECT_EQ(*cached, 1u);
      }
      EXPECT_EQ(pa.get_directory().resolve(gid), 1u);
    }
    rmi_fence();
  });
}

TEST(directory_test, CacheInvalidationOnMigration)
{
  unsigned const p = 4;
  execute(p, [] {
    std::size_t const n = 4 * num_locations();
    p_array<long> pa(n, 7);
    pa.make_dynamic();
    std::size_t const gid = 1;

    // Everyone except the owner caches the current owner (location 0).
    if (!pa.is_local(gid)) {
      EXPECT_EQ(pa.get_directory().resolve(gid), 0u);
    }
    rmi_fence();

    if (this_location() == 0)
      pa.migrate(gid, 2);
    rmi_fence();
    rmi_fence(); // one extra round so async invalidations fully retire

    // Every cached copy was either invalidated or refreshed; a fresh
    // resolve must agree on the new owner everywhere.
    auto const cached = pa.get_directory().try_resolve(gid);
    if (this_location() != 2 && cached.has_value()) {
      EXPECT_EQ(*cached, 2u) << "stale cache entry survived migration";
    }
    EXPECT_EQ(pa.get_directory().resolve(gid), 2u);
    EXPECT_EQ(pa.get_element(gid), 7);
    rmi_fence();
  });
}

// Work pounded at an element *while* it migrates: every request must
// execute exactly once wherever the element currently is.
TEST(directory_test, ForwardingToElementMidFlight)
{
  unsigned const p = 4;
  std::atomic<long> applied{0};
  execute(p, [&] {
    std::size_t const n = 4 * num_locations();
    p_array<long> pa(n, 0);
    pa.make_dynamic();
    std::size_t const gid = 2; // starts on location 0
    int const rounds = 50;

    if (this_location() == 0) {
      // Bounce the element around the ring while others shoot at it.
      for (int r = 0; r < rounds; ++r)
        pa.migrate(gid, static_cast<location_id>((r + 1) % num_locations()));
    } else {
      for (int r = 0; r < rounds; ++r) {
        pa.apply_set(gid, [&](long& v) {
          v += 1;
          applied.fetch_add(1);
        });
        if (r % 8 == 0)
          rmi_poll();
      }
    }
    rmi_fence();

    long const expect = static_cast<long>(rounds) * (num_locations() - 1);
    EXPECT_EQ(applied.load(), expect);
    EXPECT_EQ(pa.get_element(gid), expect);
    // After the dust settles the element is wherever the last migration
    // put it, and every location agrees.
    auto const owner = pa.get_directory().resolve(gid);
    auto const owners = allgather(owner);
    for (auto o : owners)
      EXPECT_EQ(o, owner);
    rmi_fence();
  });
}

// The home's record changes while a cache fill it queued earlier is still
// in flight: location 2 looks g up (a fill naming owner 0 is queued to
// it), then g moves to 2 and on to 3.  The fill lands after both moves, so
// the move to 2 must invalidate location 2 as well, although it was the
// new owner: the copyset forgets 2 at that point, and no later record
// change would reach the stale entry.  This is the ForwardingToElementMid-
// Flight flake, scripted on the home.
TEST(directory_test, LateCacheFillAtNewOwnerIsInvalidated)
{
  execute(4, [] {
    directory<std::size_t> dir;
    dir.set_default_owner([](std::size_t) { return location_id{0}; });
    std::size_t g = 0;
    while (dir.home_of(g) == 2) // the subscriber must not be the home
      ++g;
    rmi_fence();
    if (this_location() == dir.home_of(g)) {
      (void)dir.handle_lookup(g, 2);
      dir.handle_record_owner(g, 2, 1);
      dir.handle_record_owner(g, 3, 2);
    }
    rmi_fence();
    auto const owners = allgather(dir.resolve(g));
    for (location_id l = 0; l < num_locations(); ++l)
      EXPECT_EQ(owners[l], 3u) << "location " << l << " kept a stale owner";
    rmi_fence();
  });
}

// A stale notice travels beside the home's messages.  Location 2's cached
// request can reach the old owner 1 after the element moved on to 3, while
// the home has already refilled 2's cache with 3; the old owner's notice
// lands last.  It must spare the newer entry, so the next access still
// takes one hop, and a cleared cache must be filled again.
TEST(directory_test, LateStaleNoticeSparesNewerFill)
{
  std::atomic<int> at_owner{0};
  execute(4, [&at_owner] {
    directory<std::size_t> dir;
    dir.set_default_owner([](std::size_t) { return location_id{0}; });
    std::size_t const g = 5;
    location_id const old_owner = 1, requester = 2, owner = 3;
    auto access = [&] {
      if (this_location() == requester)
        dir.invoke_where(g, [&at_owner] {
          if (this_location() == owner)
            at_owner.fetch_add(1);
        });
      rmi_fence();
    };
    rmi_fence();
    if (this_location() == owner)
      dir.migration_arrived(g, 1);
    rmi_fence();
    access(); // through the home, which fills the requester's cache
    if (this_location() == requester) {
      EXPECT_EQ(dir.try_resolve(g), std::optional<location_id>(owner));
      dir.handle_cache_invalidate(g, old_owner); // the late notice
      EXPECT_EQ(dir.try_resolve(g), std::optional<location_id>(owner));
    }
    auto const before = dir.stats();
    access();
    if (this_location() == requester) {
      EXPECT_EQ(dir.stats().cache_hits, before.cache_hits + 1);
      EXPECT_EQ(dir.stats().home_routed, before.home_routed);
      dir.clear_cache();
    }
    rmi_fence();
    access(); // cold again: the home fills the cache once more
    if (this_location() == requester) {
      EXPECT_EQ(dir.stats().home_routed, before.home_routed + 1);
      EXPECT_EQ(dir.try_resolve(g), std::optional<location_id>(owner));
      dir.handle_cache_invalidate(g, owner); // the entry's own location
      EXPECT_EQ(dir.try_resolve(g), std::nullopt);
    }
    EXPECT_EQ(dir.stats().stale_bounces, 0u);
    EXPECT_EQ(at_owner.load(), 3);
    rmi_fence();
  });
}

// Element migrated away and back: it must land in its original
// partition-assigned slot again (no overflow-store residue).
TEST(directory_test, ArrayMigrateRoundTrip)
{
  execute(4, [] {
    std::size_t const n = 4 * num_locations();
    p_array<long> pa(n, 3);
    pa.make_dynamic();
    std::size_t const gid = 0;

    if (this_location() == 0) {
      pa.migrate(gid, 1);
    }
    rmi_fence();
    if (this_location() == 1) {
      EXPECT_TRUE(pa.is_local(gid));
      pa.set_element(gid, 42);
      pa.migrate(gid, 0);
    }
    rmi_fence();

    EXPECT_EQ(pa.get_element(gid), 42);
    if (this_location() == 0) {
      EXPECT_TRUE(pa.is_local(gid));
      // Back in contiguous storage: the native local path sees it.
      EXPECT_NE(pa.local_element_ptr(gid), nullptr);
      EXPECT_EQ(*pa.local_element_ptr(gid), 42);
    }
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Associative containers
// ---------------------------------------------------------------------------

TEST(directory_test, MapDynamicInsertFindMigrate)
{
  unsigned const p = 4;
  execute(p, [] {
    p_map<int, long> pm;
    pm.make_dynamic();
    int const n = 40;

    // Dynamic inserts from every location (fresh keys adopt their
    // closed-form owner through the directory's default-owner path).
    if (this_location() == 0)
      for (int k = 0; k < n; ++k)
        pm.insert_async(k, k * 10L);
    rmi_fence();
    EXPECT_EQ(pm.size(), static_cast<std::size_t>(n));

    for (int k = this_location(); k < n; k += num_locations())
      EXPECT_EQ(pm.find_val(k), (std::pair<long, bool>{k * 10L, true}));
    EXPECT_FALSE(pm.find_val(n + 1).second);
    rmi_fence();

    // Migrate a handful of keys onto location 0 and verify access.
    if (this_location() == 1)
      for (int k = 0; k < 8; ++k)
        migrate(pm, k, 0);
    rmi_fence();

    for (int k = 0; k < 8; ++k) {
      EXPECT_EQ(pm.is_local(k), this_location() == 0);
      EXPECT_EQ(pm.find_val(k), (std::pair<long, bool>{k * 10L, true}));
    }
    EXPECT_EQ(pm.size(), static_cast<std::size_t>(n));
    rmi_fence();
  });
}

// Erasing a key from a dynamic container must also retire its directory
// state: the home record disappears and a later insert/find resolves via
// the closed-form default again.  The key is placed at location 3, moved
// to 1 and erased there, so the re-insert from location 0 comes from a
// third location and must re-create it at its placement.
TEST(directory_test, EraseRetiresDirectoryState)
{
  execute(4, [] {
    p_map<int, long> pm;
    pm.make_dynamic();
    int const k = 11;
    ASSERT_EQ(pm.resolve(k).loc, 3u);
    if (this_location() == 0) {
      pm.insert_async(k, 5L);
    }
    rmi_fence();
    // Migrate away from the key's closed-form owner, so the erase under
    // test retires a *migrated* element (leaving a forwarding hint at the
    // old owner that must not resurrect after the re-insert below).
    if (this_location() == 2)
      migrate(pm, k, 1);
    rmi_fence();
    EXPECT_EQ(pm.is_local(k), this_location() == 1);
    rmi_fence(); // ownership checks before the erase phase starts

    if (this_location() == 1) {
      EXPECT_EQ(pm.erase(k), 1u);
    }
    rmi_fence();
    rmi_fence(); // drain the unregister + invalidation traffic

    // No probes before this check: probing a missing key re-adopts it at
    // its default owner (ownership without an element), by design.
    EXPECT_FALSE(pm.get_directory().owns(k));
    rmi_fence();
    EXPECT_FALSE(pm.find_val(k).second);
    EXPECT_EQ(pm.size(), 0u);
    rmi_fence(); // keep the re-insert phase out of the emptiness checks

    // Re-insert behaves like a fresh key again.
    if (this_location() == 0)
      pm.insert_async(k, 9L);
    rmi_fence();
    EXPECT_EQ(pm.is_local(k), this_location() == pm.resolve(k).loc);
    EXPECT_EQ(pm.find_val(k), (std::pair<long, bool>{9L, true}));
    rmi_fence();
  });
}

// Migrating a multimap key moves exactly one occurrence; the remaining
// duplicates stay in place (total element count is preserved).
TEST(directory_test, MultimapMigratesEqualRangeAtomically)
{
  execute(4, [] {
    p_multimap<int, long> pm;
    pm.make_dynamic();
    int const k = 4;
    if (this_location() == 0)
      for (long v = 0; v < 3; ++v)
        pm.insert_async(k, 10 + v);
    rmi_fence();
    EXPECT_EQ(pm.size(), 3u);
    rmi_fence(); // one-sided size() queries finish before the move starts

    if (this_location() == 1)
      migrate(pm, k, 2);
    rmi_fence();

    EXPECT_EQ(pm.size(), 3u) << "migration must not destroy duplicates";
    EXPECT_EQ(pm.is_local(k), this_location() == 2);
    // The whole equal range moved with the key: the routed count sees all
    // three occurrences at the new owner, and no stranded occurrence stays
    // behind in any other location's bContainers.
    EXPECT_EQ(pm.count(k), 3u);
    std::size_t stranded = 0;
    pm.for_each_local([&](int key, long&) {
      if (key == k && this_location() != 2)
        ++stranded;
    });
    EXPECT_EQ(stranded, 0u) << "occurrences left behind at the old owner";
    // The values are the original equal range.
    if (this_location() == 2) {
      long sum = 0;
      pm.for_each_local([&](int key, long& v) {
        if (key == k)
          sum += v;
      });
      EXPECT_EQ(sum, 10 + 11 + 12);
    }
    rmi_fence();
  });
}

TEST(directory_test, MultisetMigratesEqualRangeAtomically)
{
  execute(4, [] {
    p_multiset<int> ps;
    ps.make_dynamic();
    int const k = 9;
    if (this_location() == 0)
      for (int i = 0; i < 4; ++i)
        ps.insert_async(k);
    rmi_fence();
    EXPECT_EQ(ps.size(), 4u);
    EXPECT_EQ(ps.count(k), 4u);
    rmi_fence(); // one-sided size() queries finish before the move starts

    if (this_location() == 3)
      migrate(ps, k, 1);
    rmi_fence();

    EXPECT_EQ(ps.size(), 4u) << "migration must not destroy duplicates";
    EXPECT_EQ(ps.is_local(k), this_location() == 1);
    EXPECT_EQ(ps.count(k), 4u) << "equal range must move atomically";
    rmi_fence(); // everyone observes placement before it changes again
    // And it can move again, still intact.
    if (this_location() == 0)
      migrate(ps, k, 2);
    rmi_fence();
    EXPECT_EQ(ps.is_local(k), this_location() == 2);
    EXPECT_EQ(ps.count(k), 4u);
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Native local traversals of dynamic indexed containers (ROADMAP PR-1
// follow-up): local_gids()/for_each_local must follow current ownership —
// migrated-away slots disappear, adopted overflow elements appear.
// ---------------------------------------------------------------------------

TEST(directory_test, DynamicIndexedLocalTraversalFollowsOwnership)
{
  unsigned const p = 4;
  execute(p, [] {
    std::size_t const n = 8 * num_locations();
    p_array<long> pa(n, 0);
    array_1d_view v(pa);
    p_for_each_gid(v, [](gid1d g, long& x) { x = static_cast<long>(g); });
    pa.make_dynamic();

    // Location 0's first four elements scatter over the other locations.
    if (this_location() == 0)
      for (gid1d g = 0; g < 4; ++g)
        pa.migrate(g, 1 + static_cast<location_id>(g % (num_locations() - 1)));
    rmi_fence();

    auto const gids = pa.local_gids();
    for (auto g : gids) {
      EXPECT_TRUE(pa.is_local(g)) << "local_gids listed a departed slot";
      if (g < 4) {
        EXPECT_NE(this_location(), 0u)
            << "migrated-away element still listed at the source";
      }
    }
    // Exactly-once cover: the union over locations is the whole domain.
    auto const total = allreduce(gids.size(), std::plus<>{});
    EXPECT_EQ(total, n);

    // for_each_local visits adopted elements (with their values) too.
    long local_sum = 0;
    std::size_t visited = 0;
    pa.for_each_local([&](gid1d, long& x) {
      local_sum += x;
      ++visited;
    });
    EXPECT_EQ(visited, gids.size());
    long const global_sum = allreduce(local_sum, std::plus<>{});
    EXPECT_EQ(global_sum, static_cast<long>(n * (n - 1) / 2));

    // A pAlgorithm over the native bView sees every element exactly
    // once despite the scattered placement.
    EXPECT_EQ(p_accumulate(array_1d_view(pa), 0L),
              static_cast<long>(n * (n - 1) / 2));
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Graph vertex migration
// ---------------------------------------------------------------------------

TEST(directory_test, GraphVertexMigration)
{
  unsigned const p = 4;
  execute(p, [] {
    p_graph<DIRECTED, MULTI, int> g;
    // Every location adds one vertex with a known descriptor; location 0
    // then adds vertex 110, so vertex 100 is not the last one it stores.
    vertex_descriptor const mine = 100 + this_location();
    g.add_vertex(mine, static_cast<int>(10 * this_location()));
    if (this_location() == 0)
      g.add_vertex(110, 11);
    rmi_fence();
    // A ring over the explicit descriptors.
    g.add_edge_async(mine, 100 + (this_location() + 1) % num_locations());
    if (this_location() == 0) {
      g.add_edge_async(110, 100);
      g.add_edge_async(110, 102);
    }
    rmi_fence();

    // Move vertex 100 (owned by location 0) to location 2, adjacency and
    // all.
    if (this_location() == 1)
      g.migrate(100, 2);
    rmi_fence();

    EXPECT_EQ(g.is_local(100), this_location() == 2);
    EXPECT_TRUE(g.find_vertex(100));
    EXPECT_EQ(g.get_vertex_property(100), 0);
    EXPECT_EQ(g.out_degree(100), 1u);
    EXPECT_EQ(g.get_num_edges(), num_locations() + 2u);
    // Vertex 110 filled the slot vertex 100 left and kept its record.
    EXPECT_EQ(g.is_local(110), this_location() == 0);
    EXPECT_EQ(g.get_vertex_property(110), 11);
    EXPECT_EQ(g.out_edges(110), (std::vector<vertex_descriptor>{100, 102}));

    // Methods still route correctly post-migration.
    if (this_location() == 3)
      g.set_vertex_property(100, 77);
    rmi_fence();
    EXPECT_EQ(g.get_vertex_property(100), 77);
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// The locality test of every container kind
// ---------------------------------------------------------------------------

/// On the calling location: local_element_ptr(g) is non-null exactly when
/// is_local(g) holds, and points at value(g), for each stored element, of
/// which exactly one location holds each; every absent element gives
/// nullptr.  Collective.
template <typename C, typename G, typename Value>
void expect_pointer_iff_local(C& c, std::vector<G> const& present,
                              std::vector<G> const& absent, Value value)
{
  for (std::size_t i = 0; i != present.size(); ++i) {
    G const& g = present[i];
    auto* const ptr = c.local_element_ptr(g);
    EXPECT_EQ(ptr != nullptr, c.is_local(g)) << "element " << i;
    if (ptr != nullptr) {
      EXPECT_EQ(*ptr, value(g)) << "element " << i;
    }
    std::size_t const holders = c.is_local(g) ? 1 : 0;
    EXPECT_EQ(allreduce(holders, std::plus<>{}), 1u) << "element " << i;
  }
  for (std::size_t i = 0; i != absent.size(); ++i)
    EXPECT_EQ(c.local_element_ptr(absent[i]), nullptr) << "absent " << i;
  rmi_fence();
}

TEST(locality_test, PointerExactlyWhenStoredHere)
{
  execute(4, [] {
    location_id const me = this_location();
    std::size_t const n = 4 * num_locations();
    std::vector<std::size_t> all(n);
    for (std::size_t g = 0; g != n; ++g)
      all[g] = g;
    auto const times3 = [](auto g) { return static_cast<long>(3 * g); };

    // p_array, closed-form, then directory-backed with element 0 moved
    // from location 0 into location 1's overflow store.
    p_array<long> pa(n);
    pa.for_each_local([&](gid1d g, long& x) { x = times3(g); });
    rmi_fence();
    expect_pointer_iff_local(pa, all, std::vector<std::size_t>{}, times3);
    pa.make_dynamic();
    if (me == 0)
      pa.migrate(0, 1);
    rmi_fence();
    EXPECT_EQ(pa.is_local(0), me == 1);
    expect_pointer_iff_local(pa, all, std::vector<std::size_t>{}, times3);

    // p_hash_map: even keys stored, odd keys absent; then directory-backed
    // with key 4 moved to location 3.
    std::vector<int> even, odd;
    for (int k = 0; k != 20; ++k)
      (k % 2 == 0 ? even : odd).push_back(k);
    auto const half = [](int k) { return k / 2; };
    p_hash_map<int, int> pm;
    if (me == 0)
      for (int k : even)
        pm.insert_async(k, half(k));
    rmi_fence();
    expect_pointer_iff_local(pm, even, odd, half);
    pm.make_dynamic();
    if (me == 0)
      pm.migrate(4, 3);
    rmi_fence();
    EXPECT_EQ(pm.is_local(4), me == 3);
    expect_pointer_iff_local(pm, even, odd, half);

    // p_list: one element per location; location 0's second one erased.
    p_list<long> pl;
    dynamic_gid const kept = pl.push_anywhere(static_cast<long>(me));
    dynamic_gid erased = pl.push_anywhere(-1);
    auto const kept_all = allgather(kept);
    erased = broadcast(0, erased);
    rmi_fence();
    if (me == 0)
      pl.erase_element(erased);
    rmi_fence();
    expect_pointer_iff_local(
        pl, kept_all, std::vector<dynamic_gid>{erased},
        [](dynamic_gid g) { return static_cast<long>(g.bcid()); });

    // p_graph, static over [0, n) (vertex n is absent), then dynamic with
    // vertex 100 moved from location 0 to location 2 (vertex 999 absent).
    p_graph<DIRECTED, MULTI, int> gs(n);
    for (vertex_descriptor v = 0; v != n; ++v)
      if (gs.is_local(v))
        gs.set_vertex_property(v, static_cast<int>(v) + 1);
    rmi_fence();
    std::vector<vertex_descriptor> const vs(all.begin(), all.end());
    expect_pointer_iff_local(gs, vs, std::vector<vertex_descriptor>{n},
                             [](vertex_descriptor v) {
                               return static_cast<int>(v) + 1;
                             });
    p_graph<DIRECTED, MULTI, int> gd;
    gd.add_vertex(100 + me, static_cast<int>(me));
    rmi_fence();
    if (me == 0)
      gd.migrate(100, 2);
    rmi_fence();
    EXPECT_EQ(gd.is_local(100), me == 2);
    std::vector<vertex_descriptor> dyn;
    for (location_id l = 0; l != num_locations(); ++l)
      dyn.push_back(100 + l);
    expect_pointer_iff_local(gd, dyn, std::vector<vertex_descriptor>{999},
                             [](vertex_descriptor v) {
                               return static_cast<int>(v - 100);
                             });
  });
}

// Cross-home pressure: every location concurrently cold-resolves GIDs
// homed on every other location while migrations churn the records.  This
// drives the home representatives into servicing each other
// simultaneously — a deadlock here means a handler executed inline into a
// peer while holding its own representative's lock.
TEST(directory_test, ConcurrentCrossHomeResolves)
{
  unsigned const p = 4;
  execute(p, [] {
    std::size_t const n = 16 * num_locations();
    p_array<long> pa(n, 1);
    pa.make_dynamic();
    auto& dir = pa.get_directory();

    for (int round = 0; round < 20; ++round) {
      // Everyone migrates one of its own elements around the ring...
      std::size_t const mine = 16 * this_location() + (round % 16);
      if (pa.is_local(mine))
        pa.migrate(mine, (this_location() + 1) % num_locations());
      // ...while cold-resolving everyone else's (cache dropped each round
      // so the lookups really hit the homes).
      dir.clear_cache();
      for (std::size_t g = round % 4; g < n; g += 7)
        (void)dir.resolve(g);
      if (round % 5 == 0)
        rmi_poll();
    }
    rmi_fence();

    // Every element is still reachable and worth its initial value.
    for (std::size_t g = 0; g < n; ++g)
      EXPECT_EQ(pa.get_element(g), 1);
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Routed element methods vs. concurrent element migration
// ---------------------------------------------------------------------------

TEST(directory_test, AppliesExactlyOnceUnderConcurrentMigration)
{
  execute(4, [] {
    std::size_t const n = 64 * num_locations();
    p_array<long> pa(n, 0);
    pa.make_dynamic();

    // A loop over this location's bView snapshot increments every element
    // through the routed apply path.  After the first 16 elements each
    // location scatters a slice of the domain to the next one over, so a
    // later apply may reach an element that has left.
    auto const gids = pa.local_gids();
    for (std::size_t j = 0; j < gids.size(); ++j) {
      if (j == 16) {
        location_id const me = this_location();
        for (std::size_t g = me; g < n; g += 2 * num_locations())
          pa.migrate(g, (me + 1) % num_locations());
      }
      pa.apply_set(gids[j], [](long& x) { x += 1; });
    }
    rmi_fence();

    // Exactly once: every element was incremented exactly one time, no
    // matter where the element went while the loop ran.
    for (std::size_t g = 0; g < n; ++g)
      EXPECT_EQ(pa.get_element(g), 1) << "gid " << g;

    // And the traversal after the dust settles covers the domain exactly.
    auto const total = allreduce(pa.local_gids().size(), std::plus<>{});
    EXPECT_EQ(total, n);
    rmi_fence();
  });
}

// Stress: pAlgorithm passes + migration churn (sized for the sanitizer CI
// job as well).
TEST(directory_test, StressMixedLoad)
{
  execute(4, [] {
    std::size_t const n = 96 * num_locations();
    p_array<long> pa(n, 0);
    array_1d_view v(pa);
    pa.make_dynamic();

    long expect_round = 0;
    for (int round = 0; round < 3; ++round) {
      p_for_each(v, [](long& x) { x += 2; });
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

// ---------------------------------------------------------------------------
// Directory statistics sanity
// ---------------------------------------------------------------------------

TEST(directory_test, StatsObserveMigrationTraffic)
{
  execute(4, [] {
    std::size_t const n = 4 * num_locations();
    p_array<long> pa(n, 0);
    pa.make_dynamic();

    if (this_location() == 0)
      pa.migrate(0, 1);
    rmi_fence();

    auto const& st = pa.get_directory().stats();
    auto const out = allreduce(st.migrations_out, std::plus<>{});
    auto const in = allreduce(st.migrations_in, std::plus<>{});
    EXPECT_EQ(out, 1u);
    EXPECT_EQ(in, 1u);
    rmi_fence();
  });
}

} // namespace
