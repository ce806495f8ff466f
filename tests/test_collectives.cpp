// Unit tests for the collectives (runtime/collectives.hpp): every
// primitive at P=1..8 (including non-power-of-two P), deterministic
// rank-ordered folds for non-commutative associative operators,
// aggregation flush-on-fence exactly-once delivery, and the coll.*
// counters.

#include "runtime/collectives.hpp"
#include "runtime/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace {

using namespace stapl;

std::vector<unsigned> const test_ps{1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u};

TEST(Collectives, AllreduceCombinesEveryLocation)
{
  for (unsigned p : test_ps) {
    execute(p, [&] {
      long const mine = static_cast<long>(this_location()) * 7 + 3;
      long expected = 0;
      for (unsigned l = 0; l < p; ++l)
        expected += static_cast<long>(l) * 7 + 3;
      EXPECT_EQ(allreduce(mine, std::plus<>{}), expected) << "p=" << p;
      // min: commutative but not plus — catches order-only bugs.
      long const mn = allreduce(mine, [](long a, long b) {
        return a < b ? a : b;
      });
      EXPECT_EQ(mn, 3) << "p=" << p;
    });
  }
}

TEST(Collectives, BroadcastFromEveryRoot)
{
  for (unsigned p : test_ps) {
    execute(p, [&] {
      // Every location takes a turn as root, back to back.
      for (unsigned root = 0; root < p; ++root) {
        std::string const mine = "loc" + std::to_string(this_location());
        std::string const got = broadcast(static_cast<location_id>(root), mine);
        EXPECT_EQ(got, "loc" + std::to_string(root))
            << "p=" << p << " root=" << root;
      }
    });
  }
}

TEST(Collectives, ReduceToEveryRoot)
{
  for (unsigned p : test_ps) {
    execute(p, [&] {
      for (unsigned root = 0; root < p; ++root) {
        std::uint64_t const mine = this_location() + 1;
        std::uint64_t const got =
            reduce(static_cast<location_id>(root), mine, std::multiplies<>{});
        if (this_location() == root) {
          std::uint64_t expected = 1;
          for (unsigned l = 0; l < p; ++l)
            expected *= l + 1;
          EXPECT_EQ(got, expected) << "p=" << p << " root=" << root;
        } else {
          EXPECT_EQ(got, mine) << "p=" << p << " root=" << root;
        }
      }
    });
  }
}

TEST(Collectives, AllgatherIndexedByLocation)
{
  for (unsigned p : test_ps) {
    execute(p, [&] {
      auto const got =
          allgather(std::string("v") + std::to_string(this_location()));
      ASSERT_EQ(got.size(), p);
      for (unsigned l = 0; l < p; ++l)
        EXPECT_EQ(got[l], "v" + std::to_string(l)) << "p=" << p;
    });
  }
}

// String concatenation: associative, emphatically not commutative.  The
// allreduce folds in rank order 0..P-1 and the reduce in rank order
// rotated to start at the root, on every location and every run.
TEST(Collectives, NonCommutativeFoldIsRankOrdered)
{
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

/// Target object for the aggregation exactly-once test.
class sink_object : public p_object {
 public:
  void hit(int seq)
  {
    std::lock_guard lock(m_mutex);
    m_seen.push_back(seq);
  }
  void hit_payload(int seq, std::vector<char> /*payload*/) { hit(seq); }
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
  cfg.aggregation = 64; // count threshold never reached
  execute(cfg, [&] {
    sink_object sink;
    int const n = 10; // well below both thresholds (ten ints, not 4 KiB)
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
// are large: each RMI below carries at least agg_max_bytes (4 KiB), so
// every remote RMI goes out solo and msgs_sent counts them individually.
TEST(Collectives, AggregationByteThresholdFlushes)
{
  runtime_config cfg;
  cfg.num_locations = 2;
  cfg.aggregation = 1000;
  execute(cfg, [&] {
    sink_object sink;
    metrics::reset_all();
    if (this_location() == 0)
      for (int i = 0; i < 8; ++i)
        async_rmi<sink_object>(1, sink.get_handle(), &sink_object::hit_payload,
                               i, std::vector<char>(4096));
    rmi_fence();
    if (this_location() == 0) {
      EXPECT_GE(metrics::snapshot().at("rmi.msgs_sent"), 8u);
    } else {
      EXPECT_EQ(sink.count(), 8u);
    }
    rmi_fence();
  });
}

// Every primitive back to back, with no fence in between: each call must
// reuse the slots only after the previous call's readers are done.
TEST(Collectives, BackToBackMixedPrimitives)
{
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

// coll.ops counts one per collective call (each is one value exchange) at
// P > 1 on every location, exclusive_scan included, and the merged
// snapshot carries the coll.* keys.
TEST(Collectives, GlobalSnapshotCarriesCollKeys)
{
  execute(1, [] {
    (void)allreduce(1, std::plus<>{});
    EXPECT_EQ(metrics::snapshot().at("coll.ops"), 0u);
  });
  execute(8, [] {
    (void)allreduce(1, std::plus<>{});
    (void)broadcast(0, 1);
    (void)reduce(0, 1, std::plus<>{});
    (void)allgather(1);
    (void)exclusive_scan(1, std::plus<>{}, 0);
    auto const m = metrics::global_snapshot();
    EXPECT_EQ(m.at("coll.ops"), 8u * 5u);
    std::vector<std::string> keys;
    for (auto const& [k, v] : m)
      if (k.rfind("coll.", 0) == 0)
        keys.push_back(k);
    EXPECT_EQ(keys, (std::vector<std::string>{"coll.agg_batches",
                                              "coll.agg_bytes", "coll.ops"}));
  });
}

} // namespace
