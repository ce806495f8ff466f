#include "fault.hpp"

#include "runtime.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

namespace stapl {
namespace fault {

namespace fault_detail {

std::atomic<bool> g_armed{false};
std::atomic<bool> g_paused{false};
std::atomic<std::uint64_t> g_seed{0};
std::atomic<std::uint64_t> g_gate_mask{0};
std::atomic<std::uint64_t> g_watchdog_ms{30000};

// Plans are swapped as an immutable snapshot so on_site never reads a
// vector another thread is mutating; the mutex only guards the swap and
// the shared_ptr copy (cold: the layer is armed in tests/benches only).
using plan_set = std::vector<plan>;
std::mutex g_plan_mutex;
std::shared_ptr<plan_set const> g_plans = std::make_shared<plan_set>();

[[nodiscard]] std::shared_ptr<plan_set const> snapshot_plans()
{
  std::lock_guard lock(g_plan_mutex);
  return g_plans;
}

// Injection event log: per-location vectors under one mutex.  Injections
// are rare relative to site hits, so the lock is off the common path.
constexpr std::size_t max_events_per_location = std::size_t{1} << 16;
std::mutex g_event_mutex;
std::map<location_id, std::vector<event>> g_events;

// Per-thread decision state: the bound location and per-site hit counters
// (reset at attach so every execution replays from hit 0).
struct tl_state_t {
  location_id loc = invalid_location;
  std::uint64_t hits[num_sites] = {};
};

[[nodiscard]] tl_state_t& tl_state() noexcept
{
  thread_local tl_state_t s;
  return s;
}

// splitmix64: the per-hit hash behind probability plans.  A pure function
// of (seed, site, location, hit count) — thread interleaving cannot change
// a decision, which is what makes same-seed replay exact.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept
{
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

[[nodiscard]] double draw(std::uint64_t seed, site s, location_id loc,
                          std::uint64_t n) noexcept
{
  std::uint64_t const h = mix64(
      seed ^ mix64(static_cast<std::uint64_t>(s) + 1) ^
      mix64((static_cast<std::uint64_t>(loc) + 1) * 0x9E3779B97F4A7C15ull) ^
      mix64(n * 0xBF58476D1CE4E5B9ull));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::mutex g_report_mutex;
std::string g_last_report;

} // namespace fault_detail

using namespace fault_detail;

char const* name_of(site s) noexcept
{
  switch (s) {
    case site::rmi_enqueue: return "rmi.enqueue";
    case site::rmi_flush:   return "rmi.flush";
    case site::rmi_poll:    return "rmi.poll";
    case site::coll_cell:   return "coll.cell";
    case site::dir_forward: return "dir.forward";
    case site::tg_steal:    return "tg.steal";
    case site::tg_payload:  return "tg.payload";
    case site::migration:   return "migration";
    case site::site_count_: break;
  }
  return "?";
}

site site_from_name(std::string const& name) noexcept
{
  for (unsigned i = 0; i < num_sites; ++i)
    if (name == name_of(static_cast<site>(i)))
      return static_cast<site>(i);
  return site::site_count_;
}

void add_plan(plan p)
{
  std::lock_guard lock(g_plan_mutex);
  auto next = std::make_shared<plan_set>(*g_plans);
  next->push_back(p);
  g_plans = std::move(next);
}

void clear_plans()
{
  std::lock_guard lock(g_plan_mutex);
  g_plans = std::make_shared<plan_set>();
}

void arm(std::uint64_t seed)
{
  g_seed.store(seed, std::memory_order_relaxed);
  g_paused.store(false, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_release);
}

void disarm()
{
  g_armed.store(false, std::memory_order_release);
}

std::uint64_t seed() noexcept
{
  return g_seed.load(std::memory_order_relaxed);
}

void pause() noexcept
{
  g_paused.store(true, std::memory_order_relaxed);
}

void resume() noexcept
{
  g_paused.store(false, std::memory_order_relaxed);
}

void set_gate(std::uint64_t mask) noexcept
{
  g_gate_mask.store(mask, std::memory_order_relaxed);
}

void attach(location_id id) noexcept
{
  auto& st = tl_state();
  st.loc = id;
  std::memset(st.hits, 0, sizeof(st.hits));
}

void detach() noexcept
{
  tl_state().loc = invalid_location;
}

outcome on_site(site s)
{
  auto& st = tl_state();
  if (st.loc == invalid_location)
    return {};
  if (g_paused.load(std::memory_order_relaxed))
    return {};
  std::uint64_t const n = ++st.hits[static_cast<unsigned>(s)];

  auto const plans = snapshot_plans();
  std::uint64_t const gate_mask = g_gate_mask.load(std::memory_order_relaxed);
  std::uint64_t const sd = seed();
  outcome o;
  for (plan const& p : *plans) {
    if (p.where != s)
      continue;
    if (p.only_location != invalid_location && p.only_location != st.loc)
      continue;
    if (p.gate != 0 && (p.gate & gate_mask) == 0)
      continue;
    bool hit = false;
    if (p.every_n != 0)
      hit = (n % p.every_n) == 0;
    else if (p.probability > 0.0)
      hit = draw(sd, s, st.loc, n) < p.probability;
    if (!hit)
      continue;
    o.actions |= p.actions;
    if ((p.actions & act_delay) && p.delay_polls > o.delay_polls)
      o.delay_polls = p.delay_polls;
    if ((p.actions & act_stall) && p.stall_us > o.stall_us)
      o.stall_us = p.stall_us;
  }
  if (o.actions == 0)
    return o;

  auto& c = tl_counters();
  c.injected += 1;
  if (o.actions & act_delay)
    c.delays += 1;
  if (o.actions & act_duplicate)
    c.dups += 1;
  if (o.actions & act_reorder)
    c.reorders += 1;
  if (o.actions & act_stall)
    c.stalls += 1;
  if (o.actions & act_alloc_fail)
    c.alloc_fails += 1;

  {
    std::lock_guard lock(g_event_mutex);
    auto& log = g_events[st.loc];
    if (log.size() < max_events_per_location)
      log.push_back({s, o.actions, n, st.loc});
  }
  STAPL_TRACE(trace::event_kind::fault_inject,
              (static_cast<std::uint64_t>(s) << 8) | o.actions);

  if ((o.actions & act_stall) && o.stall_us != 0) {
    metrics::idle().sleeps += 1;
    metrics::idle().nap_us += o.stall_us;
    std::this_thread::sleep_for(std::chrono::microseconds(o.stall_us));
  }
  return o;
}

std::vector<event> events(location_id loc)
{
  std::lock_guard lock(g_event_mutex);
  auto it = g_events.find(loc);
  return it == g_events.end() ? std::vector<event>{} : it->second;
}

std::vector<event> all_events()
{
  std::lock_guard lock(g_event_mutex);
  std::vector<event> out;
  for (auto const& [loc, log] : g_events)
    out.insert(out.end(), log.begin(), log.end());
  return out;
}

void clear_events()
{
  std::lock_guard lock(g_event_mutex);
  g_events.clear();
}

void init_from_env()
{
  static std::once_flag once;
  std::call_once(once, [] {
    if (char const* wd = std::getenv("STAPL_WATCHDOG_MS"))
      g_watchdog_ms.store(std::strtoull(wd, nullptr, 10),
                          std::memory_order_relaxed);
    char const* spec = std::getenv("STAPL_FAULTS");
    if (spec == nullptr || *spec == '\0')
      return;
    std::uint64_t seed = 1;
    if (char const* sd = std::getenv("STAPL_FAULT_SEED"))
      seed = std::strtoull(sd, nullptr, 10);
    // Syntax: site:action[:key=val[,key=val...]] entries joined by ';'.
    // Actions: delay, dup, reorder, stall, alloc_fail.  Keys: n, p,
    // polls, us, loc.  Malformed entries are skipped with a warning.
    std::stringstream ss(spec);
    std::string entry;
    while (std::getline(ss, entry, ';')) {
      if (entry.empty())
        continue;
      std::stringstream es(entry);
      std::string site_name, action_name, params;
      std::getline(es, site_name, ':');
      std::getline(es, action_name, ':');
      std::getline(es, params);
      plan p;
      p.where = site_from_name(site_name);
      if (action_name == "delay")
        p.actions = act_delay;
      else if (action_name == "dup")
        p.actions = act_duplicate;
      else if (action_name == "reorder")
        p.actions = act_reorder;
      else if (action_name == "stall")
        p.actions = act_stall;
      else if (action_name == "alloc_fail")
        p.actions = act_alloc_fail;
      if (p.where == site::site_count_ || p.actions == 0) {
        std::cerr << "STAPL_FAULTS: skipping malformed entry '" << entry
                  << "'\n";
        continue;
      }
      std::stringstream ps(params);
      std::string kv;
      while (std::getline(ps, kv, ',')) {
        auto const eq = kv.find('=');
        if (eq == std::string::npos)
          continue;
        std::string const k = kv.substr(0, eq);
        std::string const v = kv.substr(eq + 1);
        if (k == "n")
          p.every_n = static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
        else if (k == "p")
          p.probability = std::strtod(v.c_str(), nullptr);
        else if (k == "polls")
          p.delay_polls = static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
        else if (k == "us")
          p.stall_us = static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
        else if (k == "loc")
          p.only_location = static_cast<location_id>(std::strtoul(v.c_str(), nullptr, 10));
      }
      if (p.every_n == 0 && p.probability <= 0.0)
        p.every_n = 1; // bare "site:action" means every hit
      add_plan(p);
    }
    arm(seed);
  });
}

std::uint64_t watchdog_ms() noexcept
{
  return g_watchdog_ms.load(std::memory_order_relaxed);
}

void set_watchdog_ms(std::uint64_t ms) noexcept
{
  g_watchdog_ms.store(ms, std::memory_order_relaxed);
}

void watchdog_fire(char const* what)
{
  using namespace runtime_detail;
  robust::tl().watchdog_dumps += 1;
  STAPL_TRACE(trace::event_kind::watchdog);

  // Build the report from cross-thread-safe state only: atomics (fence
  // counters, inbox counts, deferred-depth gauges, collective cell seq/ack)
  // and the trace registry (its own mutex).  Other locations' plain
  // counters are theirs.
  std::ostringstream r;
  location_id const me = tl_location;
  r << "==== STAPL watchdog ====\n"
    << "location " << me << " blocked in '" << (what ? what : "?")
    << "' past " << watchdog_ms() << "ms\n";
  if (g_runtime != nullptr) {
    auto& impl = *g_runtime;
    auto const [sent, executed] = impl.rmi_totals();
    r << "pending RMIs: sent=" << sent << " executed=" << executed << "\n";
    for (location_id l = 0; l < impl.num_locations(); ++l) {
      auto& ls = impl.loc(l);
      r << "  loc " << l << ": inbox_depth=" << ls.in.size()
        << " parked=" << ls.deferred_depth.load(std::memory_order_relaxed);
      bool cells_open = false;
      for (unsigned c = 0; c < location_state::num_coll_cells; ++c) {
        auto const seq = ls.cells[c].seq.load(std::memory_order_acquire);
        auto const ack = ls.cells[c].ack.load(std::memory_order_acquire);
        if (seq != ack) {
          if (!cells_open) {
            r << " coll_cells[";
            cells_open = true;
          }
          r << " " << c << ":seq=" << seq << ",ack=" << ack;
        }
      }
      if (cells_open)
        r << " ]";
      if (trace::enabled()) {
        auto const evs = trace::events(l);
        std::size_t const n = evs.size();
        if (n != 0) {
          r << " last_trace=[";
          for (std::size_t i = n - std::min<std::size_t>(n, 3); i < n; ++i)
            r << " " << trace::name_of(evs[i].kind) << "(" << evs[i].arg
              << ")@" << evs[i].ts_us << "us";
          r << " ]";
        }
      }
      r << "\n";
    }
  } else {
    r << "(no active runtime)\n";
  }
  if (!trace::enabled())
    r << "(enable trace:: for per-location event history)\n";
  r << "========================\n";

  std::string const report = r.str();
  {
    std::lock_guard lock(g_report_mutex);
    g_last_report = report;
  }
  std::cerr << report;
}

std::string last_watchdog_report()
{
  std::lock_guard lock(g_report_mutex);
  return g_last_report;
}

} // namespace fault

namespace robust {

namespace {
std::atomic<std::uint64_t> g_demoted{0};
std::atomic<std::uint64_t> g_probe_timeout_us{100000};
std::atomic<unsigned> g_demote_after{3};

[[nodiscard]] constexpr std::uint64_t bit_of(location_id l) noexcept
{
  return l < 64 ? (std::uint64_t{1} << l) : 0;
}
} // namespace

bool demote(location_id l) noexcept
{
  std::uint64_t const b = bit_of(l);
  if (b == 0)
    return false;
  return (g_demoted.fetch_or(b, std::memory_order_acq_rel) & b) == 0;
}

bool promote(location_id l) noexcept
{
  std::uint64_t const b = bit_of(l);
  if (b == 0)
    return false;
  return (g_demoted.fetch_and(~b, std::memory_order_acq_rel) & b) != 0;
}

bool is_demoted(location_id l) noexcept
{
  return (g_demoted.load(std::memory_order_acquire) & bit_of(l)) != 0;
}

std::uint64_t demoted_mask() noexcept
{
  return g_demoted.load(std::memory_order_acquire);
}

void reset_demotions() noexcept
{
  g_demoted.store(0, std::memory_order_release);
}

std::uint64_t probe_timeout_us() noexcept
{
  return g_probe_timeout_us.load(std::memory_order_relaxed);
}

void set_probe_timeout_us(std::uint64_t us) noexcept
{
  g_probe_timeout_us.store(us, std::memory_order_relaxed);
}

unsigned demote_after() noexcept
{
  return g_demote_after.load(std::memory_order_relaxed);
}

void set_demote_after(unsigned strikes) noexcept
{
  g_demote_after.store(strikes == 0 ? 1 : strikes, std::memory_order_relaxed);
}

} // namespace robust
} // namespace stapl
