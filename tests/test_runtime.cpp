// Unit tests for the RTS work-alike: SPMD execution, p_object registration,
// async/sync/split-phase RMI, ordering guarantees, fence termination
// detection and collectives (dissertation Ch. III.B, VII.B).

#include "runtime/runtime.hpp"
#include "runtime/serialization.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>
#include <string>
#include <vector>

namespace {

using namespace stapl;

/// Minimal shared counter object used to exercise the RMI layer.
class counter_object : public p_object {
 public:
  void add(int v) { m_value += v; }
  [[nodiscard]] int get() const { return m_value; }
  void append(int v) { m_log.push_back(v); }
  [[nodiscard]] std::vector<int> const& log() const { return m_log; }

 private:
  int m_value = 0;
  std::vector<int> m_log;
};

TEST(Runtime, SpmdLaunchAndIds)
{
  for (unsigned p : {1u, 2u, 4u, 7u}) {
    std::atomic<unsigned> seen{0};
    execute(p, [&] {
      EXPECT_LT(this_location(), p);
      EXPECT_EQ(num_locations(), p);
      seen.fetch_add(1);
    });
    EXPECT_EQ(seen.load(), p);
  }
}

TEST(Runtime, ExceptionPropagates)
{
  EXPECT_THROW(execute(2,
                       [] {
                         if (this_location() == 1)
                           throw std::runtime_error("boom");
                       }),
               std::runtime_error);
}

TEST(Runtime, CollectiveHandlesAgree)
{
  execute(4, [] {
    counter_object a;
    counter_object b;
    auto ha = allgather(a.get_handle());
    auto hb = allgather(b.get_handle());
    for (auto h : ha)
      EXPECT_EQ(h, a.get_handle());
    for (auto h : hb)
      EXPECT_EQ(h, b.get_handle());
    EXPECT_NE(a.get_handle(), b.get_handle());
    rmi_fence();
  });
}

TEST(Runtime, AsyncRmiDeliveredByFence)
{
  execute(4, [] {
    counter_object c;
    // Everyone increments the counter on location 0, ten times.
    for (int i = 0; i < 10; ++i)
      async_rmi<counter_object>(0, c.get_handle(), &counter_object::add, 1);
    rmi_fence();
    if (this_location() == 0)
      EXPECT_EQ(c.get(), 10 * static_cast<int>(num_locations()));
    rmi_fence();
  });
}

TEST(Runtime, AsyncOrderingPerSourceDestination)
{
  // Requests from one location to another execute in invocation order
  // (the RTS in-order guarantee of Ch. III.B).
  execute(3, [] {
    counter_object c;
    location_id const dest = (this_location() + 1) % num_locations();
    for (int i = 0; i < 200; ++i)
      async_rmi<counter_object>(dest, c.get_handle(), &counter_object::append,
                                i);
    rmi_fence();
    // Each location receives from exactly one source; the log must be the
    // exact sequence 0..199.
    ASSERT_EQ(c.log().size(), 200u);
    for (int i = 0; i < 200; ++i)
      EXPECT_EQ(c.log()[static_cast<std::size_t>(i)], i);
    rmi_fence();
  });
}

TEST(Runtime, SyncRmiRoundTrip)
{
  execute(4, [] {
    counter_object c;
    if (this_location() == 0)
      c.add(41);
    rmi_fence();
    int const v =
        sync_rmi<counter_object>(0, c.get_handle(), &counter_object::get);
    EXPECT_EQ(v, 41);
    rmi_fence();
  });
}

TEST(Runtime, SyncRmiConcurrentCrossTraffic)
{
  // All locations synchronously query all others simultaneously; progress
  // must be driven while blocked (no deadlock).
  execute(4, [] {
    counter_object c;
    c.add(static_cast<int>(this_location()) + 100);
    rmi_fence();
    for (location_id l = 0; l < num_locations(); ++l) {
      int const v =
          sync_rmi<counter_object>(l, c.get_handle(), &counter_object::get);
      EXPECT_EQ(v, static_cast<int>(l) + 100);
    }
    rmi_fence();
  });
}

TEST(Runtime, SplitPhaseFuture)
{
  execute(4, [] {
    counter_object c;
    c.add(static_cast<int>(this_location()));
    rmi_fence();
    location_id const dest = (this_location() + 1) % num_locations();
    auto fut =
        opaque_rmi<counter_object>(dest, c.get_handle(), &counter_object::get);
    EXPECT_TRUE(fut.valid());
    EXPECT_EQ(fut.get(), static_cast<int>(dest));
    rmi_fence();
  });
}

TEST(Runtime, SplitPhaseReadyAfterFence)
{
  // Ch. VII.B: the acknowledgment of a split-phase method is received at the
  // latest when a fence completes.
  execute(2, [] {
    counter_object c;
    c.add(7);
    rmi_fence();
    auto fut = opaque_rmi<counter_object>(1 - this_location(), c.get_handle(),
                                          &counter_object::get);
    rmi_fence();
    EXPECT_TRUE(fut.is_ready());
    EXPECT_EQ(fut.get(), 7);
    rmi_fence();
  });
}

TEST(Runtime, FenceTerminationWithCascadingMessages)
{
  // A handler that re-sends: fence must not return until the whole cascade
  // has drained (termination detection, not a plain barrier).
  struct cascade : p_object {
    void bounce(int hops)
    {
      ++received;
      if (hops > 0)
        async_rmi<cascade>((get_location_id() + 1) % get_num_locations(),
                           get_handle(), &cascade::bounce, hops - 1);
    }
    int received = 0;
  };

  execute(4, [] {
    cascade c;
    if (this_location() == 0)
      async_rmi<cascade>(1, c.get_handle(), &cascade::bounce, 25);
    rmi_fence();
    int const total = allreduce(c.received, std::plus<>{});
    EXPECT_EQ(total, 26);
    rmi_fence();
  });
}

TEST(Runtime, Collectives)
{
  for (unsigned p : {1u, 2u, 5u}) {
    execute(p, [] {
      int const me = static_cast<int>(this_location());
      int const n = static_cast<int>(num_locations());
      EXPECT_EQ(allreduce(me, std::plus<>{}), n * (n - 1) / 2);
      EXPECT_EQ(allreduce(me, [](int a, int b) { return std::max(a, b); }),
                n - 1);
      EXPECT_EQ(broadcast(0, me * 3), 0);
      if (num_locations() > 1)
        EXPECT_EQ(broadcast(1, me * 3), 3);
      EXPECT_EQ(exclusive_scan(1, std::plus<>{}, 0), me);
      auto all = allgather(me * 2);
      ASSERT_EQ(all.size(), num_locations());
      for (int l = 0; l < n; ++l)
        EXPECT_EQ(all[static_cast<std::size_t>(l)], 2 * l);
    });
  }
}

TEST(Runtime, SingleLocationObject)
{
  execute(4, [] {
    // Only location 2 owns an instance; everyone else reaches it via RMI.
    struct owner_holder : p_object {
      using p_object::p_object;
      int value = 0;
      void set(int v) { value = v; }
      int get() const { return value; }
    };

    rmi_handle h{};
    owner_holder* obj = nullptr;
    if (this_location() == 2) {
      obj = new owner_holder(single_location);
      obj->set(55);
      h = obj->get_handle();
    }
    h = broadcast(2, h);
    int const v = sync_rmi<owner_holder>(2, h, &owner_holder::get);
    EXPECT_EQ(v, 55);
    rmi_fence();
    if (this_location() == 2)
      delete obj;
    rmi_fence();
  });
}

TEST(Runtime, AggregationReducesMessageCount)
{
  std::uint64_t msgs_agg1 = 0;
  std::uint64_t msgs_agg32 = 0;
  for (unsigned agg : {1u, 32u}) {
    runtime_config cfg;
    cfg.num_locations = 2;
    cfg.aggregation = agg;
    std::atomic<std::uint64_t> msgs{0};
    execute(cfg, [&] {
      counter_object c;
      metrics::reset_all();
      if (this_location() == 0)
        for (int i = 0; i < 1000; ++i)
          async_rmi<counter_object>(1, c.get_handle(), &counter_object::add, 1);
      rmi_fence();
      if (this_location() == 0)
        msgs.fetch_add(metrics::snapshot().at("rmi.msgs_sent"));
      if (this_location() == 1)
        EXPECT_EQ(c.get(), 1000);
      rmi_fence();
    });
    (agg == 1 ? msgs_agg1 : msgs_agg32) = msgs.load();
  }
  EXPECT_GE(msgs_agg1, 1000u);
  EXPECT_LE(msgs_agg32 * 16, msgs_agg1);
}

// ---------------------------------------------------------------------------
// Serialization (typer / define_type, Ch. V.G.1)
// ---------------------------------------------------------------------------

struct inner_payload {
  int a = 0;
  double b[3] = {0, 0, 0};
  void define_type(typer& t)
  {
    t.member(a);
    t.member(b);
  }
};

struct payload {
  inner_payload inner;
  std::string name;
  std::vector<int> data;
  std::map<std::string, int> dict;
  void define_type(typer& t)
  {
    t.member(inner);
    t.member(name);
    t.member(data);
    t.member(dict);
  }
};

TEST(Serialization, RoundTripUserType)
{
  payload p;
  p.inner.a = 42;
  p.inner.b[1] = 2.5;
  p.name = "stapl";
  p.data = {1, 2, 3, 4, 5};
  p.dict = {{"x", 1}, {"yy", 22}};

  auto bytes = pack(p);
  EXPECT_EQ(bytes.size(), packed_size(p));
  auto q = unpack<payload>(bytes);
  EXPECT_EQ(q.inner.a, 42);
  EXPECT_DOUBLE_EQ(q.inner.b[1], 2.5);
  EXPECT_EQ(q.name, "stapl");
  EXPECT_EQ(q.data, p.data);
  EXPECT_EQ(q.dict, p.dict);
}

TEST(Serialization, RoundTripContainers)
{
  std::vector<std::string> v{"a", "bb", "", "dddd"};
  auto v2 = unpack<std::vector<std::string>>(pack(v));
  EXPECT_EQ(v, v2);

  std::list<std::pair<int, int>> l{{1, 2}, {3, 4}};
  auto l2 = unpack<std::list<std::pair<int, int>>>(pack(l));
  EXPECT_EQ(l, l2);

  std::unordered_map<int, std::vector<int>> m{{1, {1, 2}}, {2, {}}};
  auto m2 = unpack<std::unordered_map<int, std::vector<int>>>(pack(m));
  EXPECT_EQ(m, m2);
}

TEST(Serialization, RandomizedVectorsRoundTrip)
{
  std::mt19937 gen(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint64_t> v(gen() % 100);
    for (auto& x : v)
      x = gen();
    auto v2 = unpack<std::vector<std::uint64_t>>(pack(v));
    EXPECT_EQ(v, v2);
  }
}

} // namespace
