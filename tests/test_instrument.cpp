// Tests for the runtime instrumentation layer (runtime/instrument.hpp):
// the disabled tracer records nothing and metrics::reset_all() zeroes the
// runtime counters; an enabled P=4 steal run yields probe→grant→run chains
// with monotonic timestamps per location; ring overflow reports an exact
// drop count; the Chrome trace-event exporter's output round-trips through
// a JSON parser, also for a traced P=4 rebalance run; and
// metrics::global_snapshot() surfaces all four stats families plus the
// byte counters in one map.

#include "algorithms/p_algorithms.hpp"
#include "containers/p_array.hpp"
#include "runtime/task_graph.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
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

/// An imbalanced stealable graph: every work task starts on location 0 and
/// sleeps, so idle peers have ample time to pull chunks over (the same
/// regime as the task-graph stealing tests).  Callers run no other task
/// graph in the same execution, so the global tg.* keys are this graph's.
void run_imbalanced_steal_graph(int tasks)
{
  task_graph<long> tg;
  tg.set_stealing(true);
  using tid = task_graph<long>::task_id;
  task_options stealable;
  stealable.stealable = true;
  std::vector<tid> work;
  for (int i = 0; i < tasks; ++i) {
    work.push_back(tg.add_task(
        0,
        [i](std::vector<long> const&, char const&) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          return static_cast<long>(i);
        },
        {}, stealable));
  }
  tid const sink = tg.add_task(
      0, [](std::vector<long> const& ins, char const&) {
        return std::accumulate(ins.begin(), ins.end(), 0L);
      });
  for (tid const t : work)
    tg.add_dependence(t, sink);
  tg.execute();
  auto const g = metrics::global_snapshot();
  EXPECT_EQ(g.at("tg.tasks_run"), static_cast<std::uint64_t>(tasks) + 1u);
  EXPECT_GT(g.at("tg.tasks_stolen"), 0u);
}

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
    gid1d const remote = 1'000 * ((this_location() + 1) % num_locations());
    for (std::size_t i = 0; i < 200; ++i)
      pa.set_element(remote + i % 1'000, 1);
    long volatile sink = pa.get_element(remote); // a sync RMI as well
    (void)sink;
    rmi_fence();

    // Remote traffic happened, so the counters and byte counters are live.
    auto const snap = metrics::snapshot();
    EXPECT_GT(snap.at("rmi.rmis_sent"), 0u);
    EXPECT_GT(snap.at("rmi.rmis_executed"), 0u);
    EXPECT_GT(snap.at("rmi.msgs_sent"), 0u);
    EXPECT_GT(snap.at("rmi.fences"), 0u);
    EXPECT_GT(snap.at("rmi.rmi_bytes"), 0u);
    EXPECT_GT(snap.at("rmi.msg_bytes"), 0u);

    // reset_all() goes through the contributor hooks: every rmi.* key of
    // the runtime family reads zero afterwards.
    metrics::reset_all();
    std::size_t rmi_keys = 0;
    for (auto const& [key, value] : metrics::snapshot()) {
      if (key.rfind("rmi.", 0) != 0)
        continue;
      rmi_keys += 1;
      EXPECT_EQ(value, 0u) << key;
    }
    EXPECT_GE(rmi_keys, 8u);
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Enabled P=4 steal run: probe→grant→run chains, monotonic per location
// ---------------------------------------------------------------------------

TEST(InstrumentTest, EnabledStealRunHasProbeGrantRunChains)
{
  trace_guard guard;
  trace::enable();
  execute(4, [] { run_imbalanced_steal_graph(24); });

  auto const locs = trace::traced_locations();
  ASSERT_EQ(locs.size(), 4u);
  EXPECT_GT(trace::total_events(), 0u);
  EXPECT_EQ(trace::total_dropped(), 0u);

  std::uint64_t probes = 0, grants = 0, runs = 0;
  for (location_id const loc : locs) {
    auto const evs = trace::events(loc);
    ASSERT_FALSE(evs.empty()) << "location " << loc << " recorded nothing";
    // Events are recorded in emission order; an event's completion time
    // (ts for instants, ts + dur for scopes) is its emission time, so the
    // completion times must be monotonic per location.
    std::uint64_t prev_end = 0;
    std::uint64_t last_probe = 0, last_grant = 0;
    bool saw_probe = false, saw_grant = false, run_after_grant = false;
    for (auto const& e : evs) {
      EXPECT_EQ(e.loc, loc);
      std::uint64_t const end = e.ts_us + e.dur_us;
      EXPECT_GE(end, prev_end) << "timestamps ran backwards on location "
                               << loc << " (" << trace::name_of(e.kind)
                               << ")";
      prev_end = end;
      switch (e.kind) {
        case trace::event_kind::steal_probe:
          probes += 1;
          saw_probe = true;
          last_probe = end;
          break;
        case trace::event_kind::steal_grant:
          grants += 1;
          // A grant answers a probe this thief sent earlier.
          EXPECT_TRUE(saw_probe)
              << "steal_grant before any steal_probe on location " << loc;
          EXPECT_GE(end, last_probe);
          saw_grant = true;
          last_grant = end;
          break;
        case trace::event_kind::task_run:
          runs += 1;
          if (saw_grant && end >= last_grant)
            run_after_grant = true;
          break;
        default:
          break;
      }
    }
    if (saw_grant)
      EXPECT_TRUE(run_after_grant)
          << "location " << loc << " was granted work but never ran a task "
             "afterwards";
  }
  // The all-on-location-0 layout with sleeping chunks guarantees steals.
  EXPECT_GT(probes, 0u);
  EXPECT_GT(grants, 0u);
  EXPECT_EQ(runs, 25u) << "24 work tasks + 1 sink, each traced exactly once";
}

// ---------------------------------------------------------------------------
// Ring overflow: exact drop counts
// ---------------------------------------------------------------------------

TEST(InstrumentTest, RingOverflowReportsExactDropCount)
{
  trace_guard guard;
  trace::enable(8);
  trace::attach(0);
  for (std::uint64_t i = 0; i < 20; ++i)
    trace::emit(trace::event_kind::rmi_send, i);
  trace::detach();

  EXPECT_EQ(trace::events(0).size(), 8u);
  EXPECT_EQ(trace::dropped(0), 12u);
  EXPECT_EQ(trace::total_dropped(), 12u);
  // The ring keeps the *first* capacity events; the drops are the tail.
  auto const evs = trace::events(0);
  for (std::size_t i = 0; i < evs.size(); ++i)
    EXPECT_EQ(evs[i].arg, i);
}

TEST(InstrumentTest, KeepLastRingRetainsTrailingWindowWithExactDrops)
{
  trace_guard guard;
  trace::enable(8, /*keep_last=*/true);
  trace::attach(0);
  for (std::uint64_t i = 0; i < 20; ++i)
    trace::emit(trace::event_kind::rmi_send, i);
  trace::detach();

  // Circular mode keeps the *last* capacity events, oldest first; every
  // overwritten event counts as a drop — still exact.
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
  trace::enable(8, /*keep_last=*/true);
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

// ---------------------------------------------------------------------------
// Exporter output round-trips through a JSON parser
// ---------------------------------------------------------------------------

TEST(InstrumentTest, DumpRoundTripsThroughJsonParser)
{
  trace_guard guard;
  trace::enable(64);
  trace::attach(0);
  trace::emit(trace::event_kind::rmi_send, 48);
  trace::emit(trace::event_kind::steal_probe, 1);
  trace::emit_complete(trace::event_kind::fence, 10, 25, 0);
  trace::emit_complete(trace::event_kind::task_run, 40, 5, 7);
  trace::detach();
  // A second lane, so the exporter emits multiple thread_name records.
  trace::attach(1);
  trace::emit(trace::event_kind::epoch_advance, 2);
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
// Global snapshot: all four families + byte counters in one map
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

    // tg.*: an imbalanced stealable graph.
    run_imbalanced_steal_graph(24);

    // lb.*: one rebalance wave (triggered or not, the wave is counted).
    (void)pa.rebalance();

    auto g = metrics::global_snapshot();
    for (char const* key :
         {"rmi.rmis_sent", "rmi.rmis_executed", "rmi.msgs_sent",
          "rmi.rmi_bytes", "rmi.msg_bytes", "idle.spins", "idle.sleeps",
          "idle.nap_us", "tg.tasks_run", "tg.tasks_stolen", "tg.steal_grants",
          "tg.spawn_bytes", "dir.local_hits", "dir.home_routed",
          "dir.forwards", "dir.owner_accesses", "lb.waves"}) {
      EXPECT_TRUE(g.count(key) != 0) << "missing counter: " << key;
    }
    // The reduce is over all four locations: totals, not one location's view.
    EXPECT_EQ(g["tg.tasks_run"], 25u); // 24 work tasks + 1 sink
    // Every location counts the collective wave it took part in.
    EXPECT_EQ(g["lb.waves"], static_cast<std::uint64_t>(num_locations()));
    EXPECT_GT(g["rmi.rmis_sent"], 0u);
    EXPECT_GT(g["rmi.rmi_bytes"], 0u);
    EXPECT_GT(g["rmi.msg_bytes"], 0u); // the transport aggregates messages
    EXPECT_GT(g["dir.owner_accesses"], 0u);
    rmi_fence();
  });
}

} // namespace
