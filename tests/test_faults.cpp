// Chaos suite for the deterministic fault-injection layer and the runtime
// hardening behind it (runtime/fault.hpp): same-seed replay, exactly-once
// delivery under duplication/reordering/delay storms, fence and collective
// completion under injected stalls, the hang watchdog, straggler demotion,
// and the deferred-queue / inbox-depth observability satellites.
//
// The base seed comes from STAPL_FAULT_SEED (default 42) so the CI chaos
// lane replays the whole binary under several seeds.

#include "containers/p_associative.hpp"
#include "core/migration.hpp"
#include "runtime/fault.hpp"
#include "runtime/runtime.hpp"
#include "runtime/task_graph.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace {

using namespace stapl;

[[nodiscard]] std::uint64_t base_seed()
{
  if (char const* s = std::getenv("STAPL_FAULT_SEED"))
    return std::strtoull(s, nullptr, 10);
  return 42;
}

/// RAII guard: every test leaves the fault layer disarmed and empty, with
/// the hardening knobs back at their defaults, no matter how it exits.
struct fault_guard {
  ~fault_guard()
  {
    fault::disarm();
    fault::clear_plans();
    fault::clear_events();
    fault::set_gate(0);
    fault::set_watchdog_ms(30000);
    robust::set_probe_timeout_us(100000);
    robust::set_demote_after(3);
    robust::reset_demotions();
  }
};

fault::plan make_plan(fault::site where, unsigned actions)
{
  fault::plan p;
  p.where = where;
  p.actions = actions;
  return p;
}

/// Shared log object: receivers record (src, k) pairs so the tests can
/// assert exactly-once per message, independent of arrival order.
class recorder : public p_object {
 public:
  void record(int src, int k)
  {
    std::lock_guard lock(m_mutex);
    m_seen[{src, k}] += 1;
  }

  void append(int k)
  {
    std::lock_guard lock(m_mutex);
    m_order.push_back(k);
  }

  [[nodiscard]] std::map<std::pair<int, int>, int> seen() const
  {
    std::lock_guard lock(m_mutex);
    return m_seen;
  }

  [[nodiscard]] std::vector<int> order() const
  {
    std::lock_guard lock(m_mutex);
    return m_order;
  }

 private:
  mutable std::mutex m_mutex;
  std::map<std::pair<int, int>, int> m_seen;
  std::vector<int> m_order;
};

// ---------------------------------------------------------------------------
// Deterministic replay
// ---------------------------------------------------------------------------

void run_replay_workload()
{
  execute(4, [] {
    recorder r;
    int const me = static_cast<int>(this_location());
    location_id const dest = (this_location() + 1) % num_locations();
    for (int k = 0; k < 200; ++k)
      queued_rmi<recorder>(dest, r.get_handle(), &recorder::record, me, k);
    rmi_fence();
  });
}

TEST(Faults, SameSeedReplaysIdenticalInjectionTrace)
{
  fault_guard guard;
  // Probability plans so the seed actually decides; sited only at
  // rmi.enqueue, whose per-location hit count is workload-determined
  // (poll counts are scheduling-dependent and would not replay).
  auto delay = make_plan(fault::site::rmi_enqueue, fault::act_delay);
  delay.probability = 0.10;
  delay.delay_polls = 3;
  auto dup = make_plan(fault::site::rmi_enqueue, fault::act_duplicate);
  dup.probability = 0.05;
  auto reorder = make_plan(fault::site::rmi_enqueue, fault::act_reorder);
  reorder.probability = 0.25;
  fault::add_plan(delay);
  fault::add_plan(dup);
  fault::add_plan(reorder);

  fault::arm(base_seed());
  run_replay_workload();
  std::vector<std::vector<fault::event>> first;
  for (location_id l = 0; l < 4; ++l)
    first.push_back(fault::events(l));
  fault::clear_events();

  fault::arm(base_seed());
  run_replay_workload();
  std::uint64_t total = 0;
  for (location_id l = 0; l < 4; ++l) {
    EXPECT_EQ(first[l], fault::events(l)) << "location " << l;
    total += first[l].size();
  }
  EXPECT_GT(total, 0u) << "storm injected nothing: the replay check is vacuous";
  fault::clear_events();

  // A different seed draws a different trace (0.05–0.25 hit rates over 800
  // decisions: collision probability is negligible).
  fault::arm(base_seed() + 1);
  run_replay_workload();
  bool any_diff = false;
  for (location_id l = 0; l < 4; ++l)
    any_diff = any_diff || first[l] != fault::events(l);
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------------------
// Exactly-once under duplication + reordering + delay storms
// ---------------------------------------------------------------------------

void arm_dup_reorder_delay_storm()
{
  auto dup = make_plan(fault::site::rmi_enqueue, fault::act_duplicate);
  dup.every_n = 3;
  auto delay = make_plan(fault::site::rmi_enqueue, fault::act_delay);
  delay.every_n = 5;
  delay.delay_polls = 4;
  auto reorder = make_plan(fault::site::rmi_enqueue, fault::act_reorder);
  reorder.every_n = 7;
  auto flush_reorder = make_plan(fault::site::rmi_flush, fault::act_reorder);
  flush_reorder.every_n = 4;
  fault::add_plan(dup);
  fault::add_plan(delay);
  fault::add_plan(reorder);
  fault::add_plan(flush_reorder);
  fault::arm(base_seed());
}

TEST(Faults, QueuedRmiExactlyOnceUnderStorm)
{
  fault_guard guard;
  arm_dup_reorder_delay_storm();
  for (unsigned p : {4u, 8u}) {
    auto before = metrics::process_totals()["robust.dups_suppressed"];
    execute(p, [] {
      recorder r;
      int const me = static_cast<int>(this_location());
      int const n = 150;
      for (int k = 0; k < n; ++k)
        for (location_id d = 0; d < num_locations(); ++d)
          queued_rmi<recorder>(d, r.get_handle(), &recorder::record, me, k);
      rmi_fence();
      auto const seen = r.seen();
      EXPECT_EQ(seen.size(),
                static_cast<std::size_t>(n) * num_locations());
      for (auto const& [key, count] : seen)
        EXPECT_EQ(count, 1) << "src " << key.first << " k " << key.second;
      rmi_fence();
    });
    auto after = metrics::process_totals()["robust.dups_suppressed"];
    EXPECT_GT(after, before)
        << "storm never duplicated: exactly-once was not exercised (P=" << p
        << ")";
  }
}

TEST(Faults, MigrationExactlyOnceUnderStorm)
{
  fault_guard guard;
  arm_dup_reorder_delay_storm();
  auto mig_stall = make_plan(fault::site::migration, fault::act_stall);
  mig_stall.every_n = 2;
  mig_stall.stall_us = 100;
  fault::add_plan(mig_stall);
  auto dir_stall = make_plan(fault::site::dir_forward, fault::act_stall);
  dir_stall.every_n = 3;
  dir_stall.stall_us = 100;
  fault::add_plan(dir_stall);
  fault::arm(base_seed());
  for (unsigned p : {4u, 8u}) {
    execute(p, [] {
      p_map<int, long> pm;
      pm.make_dynamic();
      int const n = 40;
      if (this_location() == 0)
        for (int k = 0; k < n; ++k)
          pm.insert_async(k, k * 10L);
      rmi_fence();
      EXPECT_EQ(pm.size(), static_cast<std::size_t>(n));
      // One-sided size() queries race against migrations: fence so no
      // element is in transit while a slower location is still counting.
      rmi_fence();

      // Every location migrates a disjoint slice onto the next location;
      // duplicated/reordered migration traffic must still move each
      // element exactly once.
      location_id const next = (this_location() + 1) % num_locations();
      for (int k = static_cast<int>(this_location()); k < n;
           k += static_cast<int>(num_locations()))
        migrate(pm, k, next);
      rmi_fence();

      EXPECT_EQ(pm.size(), static_cast<std::size_t>(n));
      for (int k = 0; k < n; ++k)
        EXPECT_EQ(pm.find_val(k), (std::pair<long, bool>{k * 10L, true}));
      rmi_fence();
    });
  }
}

// ---------------------------------------------------------------------------
// Live rebalancing under gated chaos windows
// ---------------------------------------------------------------------------

inline constexpr std::uint64_t gate_storm = 1;     ///< delay + duplicate
inline constexpr std::uint64_t gate_straggler = 2; ///< last location stalls

// A P=4 p_hash_map serves three windows of a find/apply/insert mix aimed at
// the keys location 0 holds, with one rebalance() wave in the middle of
// each window: a clean window, a message storm and a straggler.  Location
// 0 opens each window's gate between barriers, so every location serves
// the whole window under the same regime.
TEST(Faults, RebalanceUnderGatedStormAndStraggler)
{
  fault_guard guard;
  auto delay = make_plan(fault::site::rmi_enqueue, fault::act_delay);
  delay.probability = 0.05;
  delay.gate = gate_storm;
  auto dup = make_plan(fault::site::rmi_enqueue, fault::act_duplicate);
  dup.probability = 0.05;
  dup.gate = gate_storm;
  auto stall = make_plan(fault::site::rmi_poll, fault::act_stall);
  stall.every_n = 1;
  stall.stall_us = 500;
  stall.only_location = 3;
  stall.gate = gate_straggler;
  fault::add_plan(delay);
  fault::add_plan(dup);
  fault::add_plan(stall);
  fault::arm(base_seed());

  auto before = metrics::process_totals();
  execute(4, [] {
    long const keys = 512;
    long const stride = 1L << 32; // value = key * stride + applies
    int const ops = 1000;         // per location and window
    location_id const me = this_location();
    p_hash_map<long, long> kv;
    for (long k = me; k < keys; k += num_locations())
      kv.insert_async(k, k * stride);
    rmi_fence();
    kv.enable_load_balancing();

    std::uint64_t rng = base_seed() * 0x9E3779B97F4A7C15ull + me + 1;
    long applies = 0;
    long inserts = 0;
    for (std::uint64_t const gate : {std::uint64_t{0}, gate_storm,
                                     gate_straggler}) {
      if (me == 0)
        fault::set_gate(gate);
      location_barrier();
      // All traffic targets the stable keys location 0 holds at the start
      // of the window, so every wave has an overloaded owner to drain.
      auto const held =
          allgather(me == 0 ? kv.local_gids() : std::vector<long>{});
      std::vector<long> hot;
      for (long k : held[0])
        if (k < keys)
          hot.push_back(k);
      ASSERT_FALSE(hot.empty()) << "gate " << gate;
      for (int i = 0; i < ops; ++i) {
        if (i == ops / 2) {
          auto const wave = kv.rebalance();
          EXPECT_GT(wave.moves, 0u) << "gate " << gate;
        }
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        long const k = hot[(rng >> 33) % hot.size()];
        switch ((rng >> 20) % 10) {
          case 0: case 1: case 2: case 3: case 4: case 5: {
            auto const [v, found] = kv.find_val(k);
            EXPECT_TRUE(found) << "key " << k << ", gate " << gate;
            EXPECT_EQ(v / stride, k) << "gate " << gate;
            break;
          }
          case 6: case 7: case 8:
            kv.apply_async(k, [](long& v) { v += 1; });
            ++applies;
            break;
          default: {
            long const fresh =
                keys + inserts++ * static_cast<long>(num_locations()) + me;
            kv.insert_async(fresh, fresh * stride);
            break;
          }
        }
      }
      rmi_fence();
    }
    if (me == 0)
      fault::set_gate(0);

    // Exactly once: the stable keys' values hold every issued apply, and
    // no key was lost or duplicated by the waves.
    long applied = 0;
    kv.for_each_local([&](long k, long& v) {
      if (k < keys)
        applied += v - k * stride;
    });
    auto const sum = [](long a, long b) { return a + b; };
    EXPECT_EQ(allreduce(applied, sum), allreduce(applies, sum));
    EXPECT_EQ(kv.size(),
              static_cast<std::size_t>(keys + allreduce(inserts, sum)));
    rmi_fence();
  });
  auto after = metrics::process_totals();
  EXPECT_EQ(after["robust.watchdog_dumps"], before["robust.watchdog_dumps"]);
  EXPECT_GT(after["fault.dups"], before["fault.dups"])
      << "the storm window duplicated nothing";
  EXPECT_GT(after["fault.stalls"], before["fault.stalls"])
      << "the straggler window never stalled";
}

TEST(Faults, PayloadForwardExactlyOnceUnderStorm)
{
  fault_guard guard;
  arm_dup_reorder_delay_storm();
  auto payload_stall = make_plan(fault::site::tg_payload, fault::act_stall);
  payload_stall.every_n = 2;
  payload_stall.stall_us = 100;
  fault::add_plan(payload_stall);
  fault::arm(base_seed());
  for (unsigned p : {4u, 8u}) {
    execute(p, [] {
      task_graph<long, long> tg;
      using tid = task_graph<long, long>::task_id;
      task_options pending;
      pending.payload_pending = true;
      // Every location owns one payload-gated task per peer; each peer
      // produces and forwards the payload.  The owner-side results prove
      // exactly-once payload delivery.
      std::vector<std::pair<tid, long>> mine;
      for (location_id owner = 0; owner < num_locations(); ++owner)
        for (location_id src = 0; src < num_locations(); ++src) {
          tid const t = tg.add_task(
              owner,
              [](std::vector<long> const&, long const& pay) { return pay; },
              0L, src == owner ? task_options{} : pending);
          if (src != owner && owner == this_location())
            mine.emplace_back(t, static_cast<long>(owner * 1000 + src));
        }
      // Forward payloads for the tasks this location is the source of.
      tid t = 0;
      for (location_id owner = 0; owner < num_locations(); ++owner)
        for (location_id src = 0; src < num_locations(); ++src, ++t)
          if (src == this_location() && src != owner)
            tg.forward_payload(t, static_cast<long>(owner * 1000 + src));
      tg.execute();
      for (auto const& [id, expect] : mine)
        EXPECT_EQ(tg.result_of(id), expect);
      rmi_fence();
    });
  }
}

// ---------------------------------------------------------------------------
// Fences and tree collectives under stalls and delay storms
// ---------------------------------------------------------------------------

TEST(Faults, CollectivesCompleteUnderDelayStorm)
{
  fault_guard guard;
  auto delay = make_plan(fault::site::rmi_enqueue, fault::act_delay);
  delay.every_n = 2;
  delay.delay_polls = 8;
  auto poll_stall = make_plan(fault::site::rmi_poll, fault::act_stall);
  poll_stall.probability = 0.05;
  poll_stall.stall_us = 200;
  auto cell_stall = make_plan(fault::site::coll_cell, fault::act_stall);
  cell_stall.every_n = 3;
  cell_stall.stall_us = 300;
  fault::add_plan(delay);
  fault::add_plan(poll_stall);
  fault::add_plan(cell_stall);
  fault::arm(base_seed());

  coll::set_mode(coll::mode::tree);
  execute(8, [] {
    recorder r;
    long const me = static_cast<long>(this_location());
    for (int round = 0; round < 3; ++round) {
      // Background RMI traffic so the delay plan has messages to hold.
      for (int k = 0; k < 20; ++k)
        queued_rmi<recorder>((this_location() + 1) % num_locations(),
                             r.get_handle(), &recorder::record,
                             static_cast<int>(me), round * 20 + k);
      EXPECT_EQ(allreduce(me, [](long a, long b) { return a + b; }),
                static_cast<long>(num_locations() *
                                  (num_locations() - 1) / 2));
      EXPECT_EQ(broadcast(2, me), 2L);
      long const red = reduce(1, me, [](long a, long b) { return a + b; });
      if (this_location() == 1)
        EXPECT_EQ(red, static_cast<long>(num_locations() *
                                         (num_locations() - 1) / 2));
      auto const all = allgather(me);
      ASSERT_EQ(all.size(), num_locations());
      for (location_id l = 0; l < num_locations(); ++l)
        EXPECT_EQ(all[l], static_cast<long>(l));
      rmi_fence();
    }
    EXPECT_EQ(r.seen().size(), 60u);
    rmi_fence();
  });
  coll::set_mode(coll::mode::auto_select);
}

// ---------------------------------------------------------------------------
// Hang watchdog
// ---------------------------------------------------------------------------

TEST(Faults, WatchdogNamesTheBlockedSite)
{
  fault_guard guard;
  fault::set_watchdog_ms(20);
  auto before = metrics::process_totals()["robust.watchdog_dumps"];
  execute(2, [] {
    recorder r;
    rmi_fence();
    if (this_location() == 0) {
      // Location 1 naps without polling: the sync round trip blocks past
      // the 20ms deadline and the watchdog must dump, naming rmi.sync.
      auto const v = sync_rmi<recorder>(
          1, r.get_handle(),
          [](recorder& rec) { return rec.order().size(); });
      EXPECT_EQ(v, 0u);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }
    rmi_fence();
  });
  auto after = metrics::process_totals()["robust.watchdog_dumps"];
  EXPECT_GT(after, before);
  EXPECT_NE(fault::last_watchdog_report().find("rmi.sync"), std::string::npos)
      << fault::last_watchdog_report();
}

// ---------------------------------------------------------------------------
// Straggler demotion and recovery
// ---------------------------------------------------------------------------

TEST(Faults, VictimOrderRanksDemotedLast)
{
  std::vector<std::size_t> owned = {4, 9, 2, 7};
  std::vector<std::size_t> warmth = {0, 5, 0, 0};
  // Without a mask: warmth first (1), then load (3, 0), tie rules.
  auto order = steal_victim_order(2, owned, warmth, 0);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(order[2], 0u);
  // Demoting the warmth leader pushes it strictly last.
  order = steal_victim_order(2, owned, warmth, std::uint64_t{1} << 1);
  EXPECT_EQ(order[0], 3u);
  EXPECT_EQ(order[1], 0u);
  EXPECT_EQ(order[2], 1u);
}

TEST(Faults, DemotionRegistryTransitions)
{
  robust::reset_demotions();
  EXPECT_FALSE(robust::is_demoted(3));
  EXPECT_TRUE(robust::demote(3));
  EXPECT_FALSE(robust::demote(3)) << "second demotion is not a transition";
  EXPECT_TRUE(robust::is_demoted(3));
  EXPECT_EQ(robust::demoted_mask(), std::uint64_t{1} << 3);
  EXPECT_TRUE(robust::promote(3));
  EXPECT_FALSE(robust::promote(3));
  EXPECT_EQ(robust::demoted_mask(), 0u);
  // Locations past the 64-bit registry are never demoted.
  EXPECT_FALSE(robust::demote(64));
  EXPECT_FALSE(robust::is_demoted(64));
}

TEST(Faults, StragglerDemotionVisibleInStats)
{
  fault_guard guard;
  robust::set_probe_timeout_us(2000);
  robust::set_demote_after(1);
  // Location 3 stalls 5ms on every poll: probes at it time out, thieves
  // strike it, and with demote_after=1 the first timeout demotes.
  auto stall = make_plan(fault::site::rmi_poll, fault::act_stall);
  stall.every_n = 1;
  stall.stall_us = 5000;
  stall.only_location = 3;
  fault::add_plan(stall);
  fault::arm(base_seed());

  auto before = metrics::process_totals();
  execute(4, [] {
    task_graph<long> tg;
    task_options stealable;
    stealable.stealable = true;
    // All work owned by the straggler, so every thief probes it.
    for (int i = 0; i < 12; ++i)
      tg.add_task(
          3,
          [i](std::vector<long> const&, char const&) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            return static_cast<long>(i);
          },
          {}, stealable);
    tg.execute();
    rmi_fence();
  });
  auto after = metrics::process_totals();
  EXPECT_GT(after["robust.probe_timeouts"], before["robust.probe_timeouts"]);
  EXPECT_GT(after["robust.demotions"], before["robust.demotions"]);
}

// ---------------------------------------------------------------------------
// Injected allocation failure
// ---------------------------------------------------------------------------

TEST(Faults, StealAllocFailureDegradesToNacks)
{
  fault_guard guard;
  auto alloc = make_plan(fault::site::tg_steal, fault::act_alloc_fail);
  alloc.every_n = 1;
  fault::add_plan(alloc);
  fault::arm(base_seed());
  execute(4, [] {
    metrics::reset_all();
    task_graph<long> tg;
    task_options stealable;
    stealable.stealable = true;
    long expect = 0;
    std::vector<task_graph<long>::task_id> work;
    for (int i = 0; i < 16; ++i) {
      work.push_back(tg.add_task(
          0,
          [i](std::vector<long> const&, char const&) {
            return static_cast<long>(i);
          },
          {}, stealable));
      expect += i;
    }
    auto const sink = tg.add_task(
        0, [](std::vector<long> const& ins, char const&) {
          long s = 0;
          for (long v : ins)
            s += v;
          return s;
        });
    for (auto t : work)
      tg.add_dependence(t, sink);
    tg.execute();
    EXPECT_EQ(metrics::global_snapshot().at("tg.steal_grants"), 0u)
        << "every grant allocation was failed: only nacks may flow";
    if (this_location() == 0)
      EXPECT_EQ(tg.result_of(sink), expect);
    rmi_fence();
  });
}

TEST(Faults, EnqueueAllocFailureForcesFlushes)
{
  fault_guard guard;
  auto alloc = make_plan(fault::site::rmi_enqueue, fault::act_alloc_fail);
  alloc.every_n = 2;
  fault::add_plan(alloc);
  fault::arm(base_seed());
  auto before = metrics::process_totals()["fault.alloc_fails"];
  execute(4, [] {
    recorder r;
    int const me = static_cast<int>(this_location());
    for (int k = 0; k < 100; ++k)
      queued_rmi<recorder>((this_location() + 1) % num_locations(),
                           r.get_handle(), &recorder::record, me, k);
    rmi_fence();
    EXPECT_EQ(r.seen().size(), 100u);
    rmi_fence();
  });
  auto after = metrics::process_totals()["fault.alloc_fails"];
  EXPECT_GT(after, before);
}

// ---------------------------------------------------------------------------
// queued_rmi ordering (satellite)
// ---------------------------------------------------------------------------

TEST(Faults, QueuedOrderingPreservedWithoutInjection)
{
  ASSERT_FALSE(fault::armed());
  execute(4, [] {
    recorder r;
    if (this_location() == 1)
      for (int k = 0; k < 300; ++k)
        queued_rmi<recorder>(0, r.get_handle(), &recorder::append, k);
    rmi_fence();
    if (this_location() == 0) {
      auto const log = r.order();
      ASSERT_EQ(log.size(), 300u);
      for (int k = 0; k < 300; ++k)
        EXPECT_EQ(log[k], k);
    }
    rmi_fence();
  });
}

TEST(Faults, QueuedDeliveryCompleteUnderReorderStorm)
{
  fault_guard guard;
  auto reorder = make_plan(fault::site::rmi_enqueue, fault::act_reorder);
  reorder.every_n = 2;
  auto flush_reorder = make_plan(fault::site::rmi_flush, fault::act_reorder);
  flush_reorder.every_n = 3;
  fault::add_plan(reorder);
  fault::add_plan(flush_reorder);
  fault::arm(base_seed());
  execute(4, [] {
    recorder r;
    if (this_location() == 1)
      for (int k = 0; k < 300; ++k)
        queued_rmi<recorder>(0, r.get_handle(), &recorder::append, k);
    rmi_fence();
    if (this_location() == 0) {
      // Injected reordering may permute delivery, but every message
      // arrives exactly once.
      auto log = r.order();
      ASSERT_EQ(log.size(), 300u);
      std::sort(log.begin(), log.end());
      for (int k = 0; k < 300; ++k)
        EXPECT_EQ(log[k], k);
    }
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// post_to_self retryable park + depth gauges (satellites)
// ---------------------------------------------------------------------------

TEST(Faults, PostToSelfRetryParksUntilReady)
{
  execute(2, [] {
    std::atomic<int> executed{0};
    int attempts = 0;
    post_to_self([&executed, attempts]() mutable -> bool {
      if (++attempts < 5)
        return false; // park on the deferred queue, retried next poll
      executed.fetch_add(1);
      return true;
    });
    rmi_fence();
    EXPECT_EQ(executed.load(), 1);
    EXPECT_GT(metrics::snapshot().at("rmi.deferred_depth"), 0u);
    rmi_fence();
  });
}

TEST(Faults, InboxDepthGaugeObservesBacklog)
{
  EXPECT_FALSE(metrics::sums_on_merge("rmi.inbox_depth"));
  EXPECT_FALSE(metrics::sums_on_merge("rmi.deferred_depth"));
  runtime_config cfg;
  cfg.num_locations = 4;
  cfg.aggregation = 1; // every send lands in the inbox immediately
  execute(cfg, [] {
    recorder r;
    location_barrier();
    if (this_location() == 0) {
      // Let the backlog build before location 0 polls it down.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    } else {
      for (int k = 0; k < 200; ++k)
        queued_rmi<recorder>(0, r.get_handle(), &recorder::record,
                             static_cast<int>(this_location()), k);
    }
    rmi_fence();
    if (this_location() == 0) {
      EXPECT_EQ(r.seen().size(), 200u * (num_locations() - 1));
      EXPECT_GT(metrics::snapshot().at("rmi.inbox_depth"), 0u);
    }
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Disabled layer, naming, gates
// ---------------------------------------------------------------------------

TEST(Faults, DisarmedLayerRecordsNothing)
{
  fault_guard guard;
  fault::clear_events();
  ASSERT_FALSE(fault::armed());
  execute(4, [] {
    recorder r;
    for (int k = 0; k < 50; ++k)
      queued_rmi<recorder>((this_location() + 1) % num_locations(),
                           r.get_handle(), &recorder::record,
                           static_cast<int>(this_location()), k);
    rmi_fence();
  });
  EXPECT_TRUE(fault::all_events().empty());
}

TEST(Faults, SiteNamesRoundTrip)
{
  for (unsigned i = 0; i < fault::num_sites; ++i) {
    auto const s = static_cast<fault::site>(i);
    EXPECT_EQ(fault::site_from_name(fault::name_of(s)), s);
  }
  EXPECT_EQ(fault::site_from_name("no.such.site"), fault::site::site_count_);
}

TEST(Faults, GatedPlanOnlyFiresWhenGateOpen)
{
  fault_guard guard;
  auto dup = make_plan(fault::site::rmi_enqueue, fault::act_duplicate);
  dup.every_n = 1;
  dup.gate = 1;
  fault::add_plan(dup);
  fault::arm(base_seed());

  fault::set_gate(0);
  execute(2, [] {
    recorder r;
    for (int k = 0; k < 20; ++k)
      queued_rmi<recorder>(1, r.get_handle(), &recorder::record, 0, k);
    rmi_fence();
  });
  EXPECT_TRUE(fault::all_events().empty());

  fault::set_gate(1);
  execute(2, [] {
    recorder r;
    for (int k = 0; k < 20; ++k)
      queued_rmi<recorder>(1, r.get_handle(), &recorder::record, 0, k);
    rmi_fence();
  });
  EXPECT_FALSE(fault::all_events().empty());
}

TEST(Faults, DedupWindowMarksAndSuppresses)
{
  runtime_detail::dedup_window w;
  EXPECT_FALSE(w.is_dup(1));
  w.mark(1);
  EXPECT_TRUE(w.is_dup(1));
  // Out-of-order marks park in the ahead set until the gap closes.
  w.mark(4);
  EXPECT_TRUE(w.is_dup(4));
  EXPECT_FALSE(w.is_dup(2));
  EXPECT_FALSE(w.is_dup(3));
  w.mark(2);
  EXPECT_TRUE(w.is_dup(2));
  w.mark(3);
  EXPECT_TRUE(w.is_dup(3));
  EXPECT_EQ(w.contiguous, 4u);
  EXPECT_TRUE(w.ahead.empty());
}

} // namespace
