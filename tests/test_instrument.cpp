// Tests for the runtime instrumentation layer (runtime/instrument.hpp):
// the disabled tracer records nothing and metrics::reset_all() zeroes every
// counter; a snapshot carries every key perfbench reads; an enabled P=4
// pAlgorithm run traces one local pass per location per call, with
// monotonic timestamps per location; a full ring keeps the newest events
// with an exact drop count, and a watchdog dump names them; the Chrome
// trace-event exporter's output round-trips through a JSON parser, also for
// a traced P=4 rebalance run; and metrics::global_snapshot() surfaces the
// runtime, idle, directory and load-balancer families plus the byte
// counters in one map.

#include "algorithms/p_algorithms.hpp"
#include "containers/p_array.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

using namespace stapl;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Leaves tracing off and all rings released, whatever the test did.
struct trace_guard {
  ~trace_guard()
  {
    trace::disable();
    trace::clear();
  }
};

/// Minimal recursive-descent JSON acceptor, enough to round-trip the
/// exporter's output (no external JSON dependency in the image).
class json_parser {
 public:
  explicit json_parser(std::string_view s) : m_s(s) {}

  /// Whole input is exactly one JSON value (plus whitespace).
  [[nodiscard]] bool accept()
  {
    if (!value())
      return false;
    ws();
    return m_i == m_s.size();
  }

 private:
  void ws()
  {
    while (m_i < m_s.size() &&
           (m_s[m_i] == ' ' || m_s[m_i] == '\t' || m_s[m_i] == '\n' ||
            m_s[m_i] == '\r'))
      ++m_i;
  }

  bool eat(char c)
  {
    ws();
    if (m_i < m_s.size() && m_s[m_i] == c) {
      ++m_i;
      return true;
    }
    return false;
  }

  bool literal(std::string_view lit)
  {
    if (m_s.substr(m_i, lit.size()) != lit)
      return false;
    m_i += lit.size();
    return true;
  }

  bool string_lit()
  {
    if (!eat('"'))
      return false;
    while (m_i < m_s.size() && m_s[m_i] != '"') {
      if (m_s[m_i] == '\\')
        ++m_i; // skip the escaped character
      ++m_i;
    }
    return m_i < m_s.size() && m_s[m_i++] == '"';
  }

  bool number()
  {
    std::size_t const start = m_i;
    if (m_i < m_s.size() && m_s[m_i] == '-')
      ++m_i;
    while (m_i < m_s.size() &&
           (std::isdigit(static_cast<unsigned char>(m_s[m_i])) != 0 ||
            m_s[m_i] == '.' || m_s[m_i] == 'e' || m_s[m_i] == 'E' ||
            m_s[m_i] == '+' || m_s[m_i] == '-'))
      ++m_i;
    return m_i > start;
  }

  bool object()
  {
    if (eat('}'))
      return true;
    do {
      if (!string_lit() || !eat(':') || !value())
        return false;
    } while (eat(','));
    return eat('}');
  }

  bool array()
  {
    if (eat(']'))
      return true;
    do {
      if (!value())
        return false;
    } while (eat(','));
    return eat(']');
  }

  bool value()
  {
    ws();
    if (m_i >= m_s.size())
      return false;
    switch (m_s[m_i]) {
      case '{': ++m_i; return object();
      case '[': ++m_i; return array();
      case '"': return string_lit();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default:  return number();
    }
  }

  std::string_view m_s;
  std::size_t m_i = 0;
};

// ---------------------------------------------------------------------------
// Disabled tracer + registry reset
// ---------------------------------------------------------------------------

TEST(InstrumentTest, DisabledTracerRecordsNothing)
{
  trace_guard guard;
  ASSERT_FALSE(trace::enabled());
  execute(4, [] {
    p_array<long> pa(1'000 * num_locations());
    gid1d const remote = 1'000 * ((this_location() + 1) % num_locations());
    for (std::size_t i = 0; i < 500; ++i)
      pa.set_element(remote + i % 1'000, 1);
    rmi_fence();
  });
  EXPECT_EQ(trace::total_events(), 0u);
  EXPECT_EQ(trace::total_dropped(), 0u);
  EXPECT_TRUE(trace::traced_locations().empty());
}

TEST(InstrumentTest, ResetAllZeroesRuntimeCounters)
{
  execute(4, [] {
    p_array<long> pa(1'000 * num_locations());
    pa.enable_load_balancing(); // directory-routed, with access tracking
    gid1d const remote = 1'000 * ((this_location() + 1) % num_locations());
    for (std::size_t i = 0; i < 200; ++i)
      pa.set_element(remote + i % 1'000, 1);
    long volatile sink = pa.get_element(remote); // a sync RMI as well
    (void)sink;
    rmi_fence();
    (void)pa.rebalance(); // one balancer wave, triggered or not

    // Remote traffic, directory routing and the wave happened, so their
    // counters are live.
    auto const snap = metrics::snapshot();
    for (char const* key :
         {"rmi.rmis_sent", "rmi.rmis_executed", "rmi.msgs_sent", "rmi.fences",
          "rmi.rmi_bytes", "rmi.msg_bytes", "dir.owner_accesses", "lb.waves"})
      EXPECT_GT(snap.at(key), 0u) << key;

    // reset_all() zeroes the location's whole counter block: every key of
    // every layer reads zero afterwards.
    metrics::reset_all();
    auto const zeroed = metrics::snapshot();
    EXPECT_EQ(zeroed.size(), snap.size());
    for (auto const& [key, value] : zeroed)
      EXPECT_EQ(value, 0u) << key;
    rmi_fence();
  });
}

// perfbench derives its per-layer metrics from these keys and reads a
// missing key as 0, so a renamed key would fail nothing there.
TEST(InstrumentTest, SnapshotCarriesEveryKeyPerfbenchReads)
{
  execute(2, [] {
    auto const snap = metrics::snapshot();
    for (char const* key :
         {"rmi.rmis_sent", "rmi.local_rmis", "rmi.msgs_sent", "rmi.rmi_bytes",
          "idle.nap_us", "robust.retries", "coll.ops", "dir.local_hits",
          "dir.cache_hits", "dir.home_routed", "dir.cold_lookups",
          "dir.forwards", "dir.stale_bounces", "dir.retries",
          "dir.migrations_out"})
      EXPECT_EQ(snap.count(key), 1u) << "missing counter: " << key;
  });
}

// ---------------------------------------------------------------------------
// Enabled P=4 algorithm run: one traced pass per location per call
// ---------------------------------------------------------------------------

TEST(InstrumentTest, EnabledAlgorithmRunTracesOnePassPerLocation)
{
  trace_guard guard;
  trace::enable();
  std::size_t const n = 4000;
  execute(4, [n] {
    p_array<long> pa(n, 1);
    array_1d_view v(pa);
    p_for_each(v, [](long& x) { x += 1; });
    auto const sum = map_reduce(
        v, [](long const& x) { return x; },
        [](long a, long b) { return a + b; });
    EXPECT_EQ(sum.value_or(0), 2 * static_cast<long>(n));
  });

  auto const locs = trace::traced_locations();
  ASSERT_EQ(locs.size(), 4u);
  EXPECT_GT(trace::total_events(), 0u);
  EXPECT_EQ(trace::total_dropped(), 0u);

  for (location_id const loc : locs) {
    auto const evs = trace::events(loc);
    ASSERT_FALSE(evs.empty()) << "location " << loc << " recorded nothing";
    // Events are recorded in emission order; an event's completion time
    // (ts for instants, ts + dur for scopes) is its emission time, so the
    // completion times must be monotonic per location.
    std::uint64_t prev_end = 0;
    std::vector<std::uint64_t> passes; ///< elements visited, per pass
    for (auto const& e : evs) {
      EXPECT_EQ(e.loc, loc);
      std::uint64_t const end = e.ts_us + e.dur_us;
      EXPECT_GE(end, prev_end) << "timestamps ran backwards on location "
                               << loc << " (" << trace::name_of(e.kind)
                               << ")";
      prev_end = end;
      if (e.kind == trace::event_kind::task_run)
        passes.push_back(e.arg);
    }
    // One pass per algorithm call (p_for_each, then map_reduce), each over
    // this location's own quarter of the elements.
    ASSERT_EQ(passes.size(), 2u) << "location " << loc;
    for (std::uint64_t const visited : passes)
      EXPECT_EQ(visited, n / 4) << "location " << loc;
  }
}

// ---------------------------------------------------------------------------
// Ring overflow: the newest events stay, with exact drop counts
// ---------------------------------------------------------------------------

TEST(InstrumentTest, KeepLastRingRetainsTrailingWindowWithExactDrops)
{
  trace_guard guard;
  trace::enable(8);
  trace::attach(0);
  for (std::uint64_t i = 0; i < 20; ++i)
    trace::emit(trace::event_kind::rmi_send, i);
  trace::detach();

  // The ring keeps the *last* capacity events, oldest first; every
  // overwritten event counts as a drop.
  EXPECT_EQ(trace::events(0).size(), 8u);
  EXPECT_EQ(trace::total_events(), 8u);
  EXPECT_EQ(trace::dropped(0), 12u);
  EXPECT_EQ(trace::total_dropped(), 12u);
  auto const evs = trace::events(0);
  for (std::size_t i = 0; i < evs.size(); ++i)
    EXPECT_EQ(evs[i].arg, 12 + i);
}

TEST(InstrumentTest, KeepLastRingBelowCapacityDropsNothing)
{
  trace_guard guard;
  trace::enable(8);
  trace::attach(0);
  for (std::uint64_t i = 0; i < 5; ++i)
    trace::emit(trace::event_kind::rmi_send, i);
  trace::detach();

  EXPECT_EQ(trace::events(0).size(), 5u);
  EXPECT_EQ(trace::dropped(0), 0u);
  auto const evs = trace::events(0);
  for (std::size_t i = 0; i < evs.size(); ++i)
    EXPECT_EQ(evs[i].arg, i);
}

// A hang diagnosis needs what happened last: after the ring wrapped, the
// watchdog dump's trace tail names the newest events, not stale ones.
TEST(InstrumentTest, WatchdogDumpAfterOverflowNamesNewestEvents)
{
  trace_guard guard;
  trace::enable(8);
  execute(1, [] {
    for (std::uint64_t i = 0; i < 20; ++i)
      trace::emit(trace::event_kind::rmi_send, i);
    fault::watchdog_fire("instrument_test");
  });
  std::string const report = fault::last_watchdog_report();
  EXPECT_NE(report.find("rmi_send(19)"), std::string::npos) << report;
  EXPECT_NE(report.find("watchdog(0)"), std::string::npos) << report;
  EXPECT_EQ(report.find("rmi_send(7)"), std::string::npos) << report;
}

// ---------------------------------------------------------------------------
// Exporter output round-trips through a JSON parser
// ---------------------------------------------------------------------------

TEST(InstrumentTest, DumpRoundTripsThroughJsonParser)
{
  trace_guard guard;
  trace::enable(64);
  trace::attach(0);
  trace::emit(trace::event_kind::rmi_send, 48);
  trace::emit(trace::event_kind::migration, 1);
  trace::emit_complete(trace::event_kind::fence, 10, 25, 0);
  trace::emit_complete(trace::event_kind::task_run, 40, 5, 7);
  trace::detach();
  // A second lane, so the exporter emits multiple thread_name records.
  trace::attach(1);
  trace::emit(trace::event_kind::msg_flush, 2);
  trace::detach();

  std::string const path = "test_instrument_trace.json";
  ASSERT_TRUE(trace::dump(path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  std::string const text = buf.str();
  std::remove(path.c_str());

  EXPECT_TRUE(json_parser(text).accept()) << "exporter wrote invalid JSON";
  // Structure: the trace-event envelope, one lane per attached location,
  // scopes as complete events and instants as instants.
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(text.find("\"location 0\""), std::string::npos);
  EXPECT_NE(text.find("\"location 1\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"task_run\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// A traced P=4 rebalance run dumps its fences and waves
// ---------------------------------------------------------------------------

TEST(InstrumentTest, RebalanceRunDumpsFenceAndWaveEvents)
{
  trace_guard guard;
  trace::enable();

  execute(4, [] {
    p_array<long> pa(256 * num_locations(), 0);
    load_balancer_config lb_cfg;
    lb_cfg.imbalance_threshold = 1.05;
    pa.enable_load_balancing(lb_cfg);
    // Hammer location 0's elements so the wave migrates something.
    for (std::size_t i = 0; i < 400; ++i)
      pa.apply_set(i % 64, [](long& v) { v += 1; });
    rmi_fence();
    (void)pa.rebalance();
    rmi_fence();
  });

  std::string const path = "test_instrument_rebalance.json";
  ASSERT_TRUE(trace::dump(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  std::string const text = buf.str();
  std::remove(path.c_str());

  EXPECT_TRUE(json_parser(text).accept());
  EXPECT_NE(text.find("\"fence\""), std::string::npos);
  EXPECT_NE(text.find("\"rebalance_wave\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Global snapshot: every stats family + byte counters in one map
// ---------------------------------------------------------------------------

TEST(InstrumentTest, GlobalSnapshotSurfacesAllFamilies)
{
  execute(4, [] {
    metrics::reset_all();

    // rmi.* and dir.*: remote element traffic through a pArray.
    p_array<long> pa(1'000 * num_locations(), 0);
    load_balancer_config lb_cfg;
    pa.enable_load_balancing(lb_cfg);
    gid1d const remote = 1'000 * ((this_location() + 1) % num_locations());
    for (std::size_t i = 0; i < 200; ++i)
      pa.apply_set(remote + i % 1'000, [](long& v) { v += 1; });
    rmi_fence();

    // lb.*: one rebalance wave (triggered or not, the wave is counted).
    (void)pa.rebalance();

    auto g = metrics::global_snapshot();
    for (char const* key :
         {"rmi.rmis_sent", "rmi.rmis_executed", "rmi.msgs_sent",
          "rmi.rmi_bytes", "rmi.msg_bytes", "idle.spins", "idle.sleeps",
          "idle.nap_us", "dir.local_hits", "dir.home_routed", "dir.forwards",
          "dir.owner_accesses", "lb.waves"}) {
      EXPECT_TRUE(g.count(key) != 0) << "missing counter: " << key;
    }
    // The reduce is over all four locations: totals, not one location's
    // view, so every location counts the collective wave it took part in.
    EXPECT_EQ(g["lb.waves"], static_cast<std::uint64_t>(num_locations()));
    EXPECT_GT(g["rmi.rmis_sent"], 0u);
    EXPECT_GT(g["rmi.rmi_bytes"], 0u);
    EXPECT_GT(g["rmi.msg_bytes"], 0u); // the transport aggregates messages
    EXPECT_GT(g["dir.owner_accesses"], 0u);
    rmi_fence();
  });
}

} // namespace
