// Unit tests for the tree-structured collectives layer
// (runtime/collectives.hpp): tree vs flat result equality for every
// primitive at P=1..8 (including non-power-of-two P), deterministic
// rank-ordered folds for non-commutative associative operators,
// aggregation flush-on-fence exactly-once delivery,
// and counter plausibility (recursive doubling runs ceil(log2 P) rounds).

#include "runtime/collectives.hpp"
#include "runtime/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace {

using namespace stapl;

/// Pins the collective mode for one scope (set outside execute()).
class mode_guard {
 public:
  explicit mode_guard(coll::mode m) : m_prev(coll::get_mode())
  {
    coll::set_mode(m);
  }
  ~mode_guard() { coll::set_mode(m_prev); }

 private:
  coll::mode m_prev;
};

std::vector<unsigned> const test_ps{1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u};

TEST(Collectives, AllreduceTreeMatchesFlat)
{
  for (unsigned p : test_ps) {
    for (coll::mode m : {coll::mode::flat, coll::mode::tree}) {
      mode_guard guard(m);
      execute(p, [&] {
        long const mine = static_cast<long>(this_location()) * 7 + 3;
        long expected = 0;
        for (unsigned l = 0; l < p; ++l)
          expected += static_cast<long>(l) * 7 + 3;
        EXPECT_EQ(allreduce(mine, std::plus<>{}), expected)
            << "p=" << p << " mode=" << static_cast<int>(m);
        // min: commutative but not plus — catches order-only bugs.
        long const mn = allreduce(mine, [](long a, long b) {
          return a < b ? a : b;
        });
        EXPECT_EQ(mn, 3) << "p=" << p;
      });
    }
  }
}

TEST(Collectives, BroadcastTreeMatchesFlat)
{
  for (unsigned p : test_ps) {
    for (coll::mode m : {coll::mode::flat, coll::mode::tree}) {
      mode_guard guard(m);
      execute(p, [&] {
        // Every location takes a turn as root, back to back — also covers
        // cell/token reuse across consecutive tree collectives.
        for (unsigned root = 0; root < p; ++root) {
          std::string const mine =
              "loc" + std::to_string(this_location());
          std::string const got =
              broadcast(static_cast<location_id>(root), mine);
          EXPECT_EQ(got, "loc" + std::to_string(root))
              << "p=" << p << " root=" << root;
        }
      });
    }
  }
}

TEST(Collectives, ReduceTreeMatchesFlat)
{
  for (unsigned p : test_ps) {
    for (coll::mode m : {coll::mode::flat, coll::mode::tree}) {
      mode_guard guard(m);
      execute(p, [&] {
        for (unsigned root = 0; root < p; ++root) {
          std::uint64_t const mine = this_location() + 1;
          std::uint64_t const got =
              reduce(static_cast<location_id>(root), mine,
                     std::multiplies<>{});
          if (this_location() == root) {
            std::uint64_t expected = 1;
            for (unsigned l = 0; l < p; ++l)
              expected *= l + 1;
            EXPECT_EQ(got, expected) << "p=" << p << " root=" << root;
          }
        }
      });
    }
  }
}

TEST(Collectives, AllgatherTreeMatchesFlat)
{
  for (unsigned p : test_ps) {
    for (coll::mode m : {coll::mode::flat, coll::mode::tree}) {
      mode_guard guard(m);
      execute(p, [&] {
        auto const got =
            allgather(std::string("v") + std::to_string(this_location()));
        ASSERT_EQ(got.size(), p);
        for (unsigned l = 0; l < p; ++l)
          EXPECT_EQ(got[l], "v" + std::to_string(l)) << "p=" << p;
      });
    }
  }
}

// String concatenation: associative, emphatically not commutative.  The
// tree paths must produce the exact rank-ordered fold on every location
// and every run; the flat allreduce makes no such promise (it combines
// me-first), which is precisely why the dispatcher documents it.
TEST(Collectives, NonCommutativeFoldIsRankOrdered)
{
  // Both engines must produce the rank-ordered fold, on every location —
  // auto-select switching engines at the threshold must never change an
  // answer.
  for (coll::mode m : {coll::mode::tree, coll::mode::flat}) {
    mode_guard guard(m);
    for (unsigned p : test_ps) {
      std::string expected;
      for (unsigned l = 0; l < p; ++l)
        expected += static_cast<char>('a' + l);
      execute(p, [&] {
        std::string const mine(1, static_cast<char>('a' + this_location()));
        EXPECT_EQ(allreduce(mine, std::plus<>{}), expected) << "p=" << p;
        std::string const at_zero = reduce(0, mine, std::plus<>{});
        if (this_location() == 0) {
          EXPECT_EQ(at_zero, expected) << "p=" << p;
        }
        if (p >= 2) {
          // Root-rotated order for reduce at a non-zero root.
          std::string rotated;
          for (unsigned i = 0; i < p; ++i)
            rotated += static_cast<char>('a' + (1 + i) % p);
          std::string const at_root = reduce(1, mine, std::plus<>{});
          if (this_location() == 1) {
            EXPECT_EQ(at_root, rotated) << "p=" << p;
          }
        }
      });
    }
  }
}

// Flat and tree agree even for non-commutative ops on reduce (both fold in
// rotated rank order by construction).
TEST(Collectives, NonCommutativeReduceFlatAgreesWithTree)
{
  for (unsigned p : test_ps) {
    std::string tree_result, flat_result;
    {
      mode_guard guard(coll::mode::tree);
      execute(p, [&] {
        std::string const mine(1, static_cast<char>('A' + this_location()));
        auto const r = reduce(0, mine, std::plus<>{});
        if (this_location() == 0)
          tree_result = r;
      });
    }
    {
      mode_guard guard(coll::mode::flat);
      execute(p, [&] {
        std::string const mine(1, static_cast<char>('A' + this_location()));
        auto const r = reduce(0, mine, std::plus<>{});
        if (this_location() == 0)
          flat_result = r;
      });
    }
    EXPECT_EQ(tree_result, flat_result) << "p=" << p;
  }
}

/// Target object for the aggregation exactly-once test.
class sink_object : public p_object {
 public:
  void hit(int seq)
  {
    std::lock_guard lock(m_mutex);
    m_seen.push_back(seq);
  }
  [[nodiscard]] std::size_t count() const
  {
    std::lock_guard lock(m_mutex);
    return m_seen.size();
  }
  [[nodiscard]] std::vector<int> sorted() const
  {
    std::lock_guard lock(m_mutex);
    auto v = m_seen;
    std::sort(v.begin(), v.end());
    return v;
  }

 private:
  mutable std::mutex m_mutex;
  std::vector<int> m_seen;
};

// Messages parked in aggregation buffers below both flush thresholds must
// be delivered exactly once by the fence.
TEST(Collectives, AggregationFlushOnFenceExactlyOnce)
{
  runtime_config cfg;
  cfg.num_locations = 4;
  cfg.aggregation = 64;        // count threshold never reached
  cfg.agg_max_bytes = 1 << 20; // byte threshold never reached
  execute(cfg, [&] {
    sink_object sink;
    int const n = 10; // well below both thresholds
    location_id const dest = (this_location() + 1) % num_locations();
    for (int i = 0; i < n; ++i)
      async_rmi<sink_object>(dest, sink.get_handle(), &sink_object::hit,
                             static_cast<int>(this_location()) * 100 + i);
    rmi_fence();
    EXPECT_EQ(sink.count(), static_cast<std::size_t>(n));
    auto const seen = sink.sorted();
    location_id const src =
        (this_location() + num_locations() - 1) % num_locations();
    for (int i = 0; i < n; ++i)
      EXPECT_EQ(seen[i], static_cast<int>(src) * 100 + i);
    rmi_fence(); // sink destruction is collective
  });
}

// The byte cap flushes a buffer before the count threshold when payloads
// are large: with a tiny agg_max_bytes every remote RMI goes out solo and
// msgs_sent counts them individually.
TEST(Collectives, AggregationByteThresholdFlushes)
{
  runtime_config cfg;
  cfg.num_locations = 2;
  cfg.aggregation = 1000;
  cfg.agg_max_bytes = 1; // every enqueue trips the byte cap
  execute(cfg, [&] {
    sink_object sink;
    metrics::reset_all();
    if (this_location() == 0)
      for (int i = 0; i < 8; ++i)
        async_rmi<sink_object>(1, sink.get_handle(), &sink_object::hit, i);
    rmi_fence();
    if (this_location() == 0) {
      EXPECT_GE(metrics::snapshot().at("rmi.msgs_sent"), 8u);
    } else {
      EXPECT_EQ(sink.count(), 8u);
    }
    rmi_fence();
  });
}

// Tree allreduce at power-of-two P runs exactly ceil(log2 P) rounds on
// every location, and the depth gauge records it.
TEST(Collectives, TreeRoundsMatchLogP)
{
  mode_guard guard(coll::mode::tree);
  for (unsigned p : {2u, 4u, 8u}) {
    unsigned const logp =
        static_cast<unsigned>(std::lround(std::log2(p)));
    std::atomic<bool> ok{true};
    execute(p, [&] {
      metrics::reset_all();
      (void)allreduce(1, std::plus<>{});
      auto const after = metrics::snapshot();
      if (after.at("coll.rounds") != logp || after.at("coll.ops") != 1 ||
          after.at("coll.tree_depth") < logp)
        ok.store(false);
    });
    EXPECT_TRUE(ok.load()) << "p=" << p;
  }
}

// The auto_select dispatcher takes the flat path below the threshold and
// counts the fallback.
TEST(Collectives, AutoSelectCountsFlatFallbacks)
{
  mode_guard guard(coll::mode::auto_select);
  unsigned const thresh = coll::flat_threshold();
  ASSERT_GE(thresh, 2u);
  execute(2, [&] {
    metrics::reset_all();
    (void)allreduce(1, std::plus<>{});
    auto const after = metrics::snapshot();
    EXPECT_EQ(after.at("coll.flat_fallbacks"), 1u);
    EXPECT_EQ(after.at("coll.ops"), 0u); // flat path: no tree op
  });
  execute(thresh + 1, [&] {
    metrics::reset_all();
    (void)allreduce(1, std::plus<>{});
    auto const after = metrics::snapshot();
    EXPECT_EQ(after.at("coll.flat_fallbacks"), 0u);
    EXPECT_EQ(after.at("coll.ops"), 1u);
  });
}

// Interleaving every primitive back to back exercises token/cell reuse
// with no barrier between tree collectives (a fast location may enter
// collective N+1 while a slow one is inside N).
TEST(Collectives, BackToBackMixedPrimitives)
{
  mode_guard guard(coll::mode::tree);
  for (unsigned p : {3u, 5u, 8u}) {
    execute(p, [&] {
      long total = 0;
      for (int round = 0; round < 50; ++round) {
        long const mine = static_cast<long>(this_location()) + round;
        long const sum = allreduce(mine, std::plus<>{});
        auto const all = allgather(mine);
        long expect_sum = 0;
        for (unsigned l = 0; l < p; ++l)
          expect_sum += static_cast<long>(l) + round;
        ASSERT_EQ(sum, expect_sum) << "p=" << p << " round=" << round;
        ASSERT_EQ(all[p - 1], static_cast<long>(p - 1) + round);
        location_id const root = round % p;
        long const b = broadcast(root, mine);
        ASSERT_EQ(b, static_cast<long>(root) + round);
        total += reduce(root, mine, std::plus<>{});
      }
      (void)total;
    });
  }
}

// global_snapshot rides the tree allreduce now; sanity-check the merged
// coll.* keys surface and tree_depth merges as a gauge.
TEST(Collectives, GlobalSnapshotCarriesCollKeys)
{
  mode_guard guard(coll::mode::tree);
  execute(8, [&] {
    (void)allreduce(1, std::plus<>{});
    auto const m = metrics::global_snapshot();
    ASSERT_TRUE(m.count("coll.ops"));
    EXPECT_GE(m.at("coll.ops"), 8u);      // one per location at least
    EXPECT_EQ(m.at("coll.tree_depth"), 3u); // gauge: log2(8), not 8*3
    EXPECT_GE(m.at("coll.rounds"), 8u * 3u);
  });
}

} // namespace
