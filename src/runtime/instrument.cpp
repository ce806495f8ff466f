#include "instrument.hpp"

#include "latency.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

namespace stapl {

// ---------------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------------

namespace trace {

namespace instrument_detail {
std::atomic<bool> g_trace_enabled{false};
} // namespace instrument_detail

namespace {

/// One location's event storage.  A location is a thread, so each ring has
/// exactly one writer; `size` is released by the writer and acquired by
/// readers (dump/tests run after a fence or after execute() joined).
/// In keep-first mode `size` counts stored events (capped at capacity);
/// in keep-last (circular) mode it counts *all* events ever emitted —
/// slot `size % capacity` is the next write position and the stored
/// window is the trailing `min(size, capacity)` events.
struct ring {
  ring(location_id l, std::size_t cap, bool kl)
      : loc(l), keep_last(kl), buf(cap)
  {}

  location_id loc;
  bool keep_last;
  std::vector<event> buf;
  std::atomic<std::size_t> size{0};
  std::atomic<std::uint64_t> drops{0};

  [[nodiscard]] std::size_t stored() const
  {
    return std::min(size.load(std::memory_order_acquire), buf.size());
  }

  /// Events currently held, oldest first (callers hold g_ring_mutex and
  /// run after the writer quiesced).
  [[nodiscard]] std::vector<event> ordered() const
  {
    std::size_t const n = size.load(std::memory_order_acquire);
    if (!keep_last || n <= buf.size())
      return {buf.begin(),
              buf.begin() + static_cast<std::ptrdiff_t>(std::min(n, buf.size()))};
    std::vector<event> out;
    out.reserve(buf.size());
    std::size_t const start = n % buf.size();
    for (std::size_t i = 0; i != buf.size(); ++i)
      out.push_back(buf[(start + i) % buf.size()]);
    return out;
  }
};

std::mutex g_ring_mutex;                      // guards the registry only
std::vector<std::unique_ptr<ring>> g_rings;   // one per traced location
std::size_t g_capacity = std::size_t{1} << 16;
bool g_keep_last = false;
std::chrono::steady_clock::time_point g_epoch{};

thread_local ring* tl_ring = nullptr;

ring* find_ring(location_id id)
{
  for (auto const& r : g_rings)
    if (r->loc == id)
      return r.get();
  return nullptr;
}

} // namespace

char const* name_of(event_kind k) noexcept
{
  switch (k) {
    case event_kind::rmi_send:        return "rmi_send";
    case event_kind::rmi_execute:     return "rmi_execute";
    case event_kind::msg_flush:       return "msg_flush";
    case event_kind::fence:           return "fence";
    case event_kind::task_run:        return "task_run";
    case event_kind::steal_probe:     return "steal_probe";
    case event_kind::steal_grant:     return "steal_grant";
    case event_kind::steal_nack:      return "steal_nack";
    case event_kind::payload_forward: return "payload_forward";
    case event_kind::migration:       return "migration";
    case event_kind::rebalance_wave:  return "rebalance_wave";
    case event_kind::epoch_advance:   return "epoch_advance";
    case event_kind::tg_execute:      return "tg_execute";
    case event_kind::fault_inject:    return "fault_inject";
    case event_kind::watchdog:        return "watchdog";
    case event_kind::demotion:        return "demotion";
    case event_kind::repromotion:     return "repromotion";
    case event_kind::kind_count_:     break;
  }
  return "unknown";
}

void enable(std::size_t capacity_per_location, bool keep_last)
{
  std::lock_guard lock(g_ring_mutex);
  g_capacity = std::max<std::size_t>(1, capacity_per_location);
  g_keep_last = keep_last;
  g_epoch = std::chrono::steady_clock::now();
  instrument_detail::g_trace_enabled.store(true, std::memory_order_release);
}

void disable()
{
  instrument_detail::g_trace_enabled.store(false, std::memory_order_release);
}

void clear()
{
  std::lock_guard lock(g_ring_mutex);
  g_rings.clear();
}

void attach(location_id id)
{
  if (!enabled()) {
    tl_ring = nullptr;
    return;
  }
  std::lock_guard lock(g_ring_mutex);
  ring* r = find_ring(id);
  if (r == nullptr) {
    g_rings.push_back(std::make_unique<ring>(id, g_capacity, g_keep_last));
    r = g_rings.back().get();
  }
  tl_ring = r;
}

void detach()
{
  tl_ring = nullptr;
}

std::uint64_t now_us() noexcept
{
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - g_epoch)
          .count());
}

namespace {

void record(event const& e) noexcept
{
  ring* r = tl_ring;
  if (r == nullptr || !enabled())
    return;
  std::size_t const n = r->size.load(std::memory_order_relaxed);
  if (r->keep_last) {
    r->buf[n % r->buf.size()] = e;
    if (n >= r->buf.size())
      r->drops.fetch_add(1, std::memory_order_relaxed);
    r->size.store(n + 1, std::memory_order_release);
    return;
  }
  if (n >= r->buf.size()) {
    r->drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  r->buf[n] = e;
  r->size.store(n + 1, std::memory_order_release);
}

} // namespace

void emit(event_kind k, std::uint64_t arg) noexcept
{
  ring* r = tl_ring;
  if (r == nullptr)
    return;
  record(event{now_us(), 0, arg, r->loc, k});
}

void emit_complete(event_kind k, std::uint64_t ts_us, std::uint64_t dur_us,
                   std::uint64_t arg) noexcept
{
  ring* r = tl_ring;
  if (r == nullptr)
    return;
  record(event{ts_us, dur_us, arg, r->loc, k});
}

std::vector<location_id> traced_locations()
{
  std::lock_guard lock(g_ring_mutex);
  std::vector<location_id> out;
  out.reserve(g_rings.size());
  for (auto const& r : g_rings)
    out.push_back(r->loc);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<event> events(location_id loc)
{
  std::lock_guard lock(g_ring_mutex);
  ring const* r = find_ring(loc);
  return r == nullptr ? std::vector<event>{} : r->ordered();
}

std::uint64_t total_events()
{
  std::lock_guard lock(g_ring_mutex);
  std::uint64_t n = 0;
  for (auto const& r : g_rings)
    n += r->stored();
  return n;
}

std::uint64_t dropped(location_id loc)
{
  std::lock_guard lock(g_ring_mutex);
  ring const* r = find_ring(loc);
  return r == nullptr ? 0 : r->drops.load(std::memory_order_acquire);
}

std::uint64_t total_dropped()
{
  std::lock_guard lock(g_ring_mutex);
  std::uint64_t n = 0;
  for (auto const& r : g_rings)
    n += r->drops.load(std::memory_order_acquire);
  return n;
}

bool dump(std::string const& path)
{
  std::ofstream out(path);
  if (!out)
    return false;

  std::lock_guard lock(g_ring_mutex);
  out << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first)
      out << ",";
    first = false;
    out << "\n";
  };

  sep();
  out << R"({"name":"process_name","ph":"M","pid":1,"args":)"
      << R"({"name":"stapl"}})";

  for (auto const& r : g_rings) {
    sep();
    out << R"({"name":"thread_name","ph":"M","pid":1,"tid":)" << r->loc
        << R"(,"args":{"name":"location )" << r->loc << R"("}})";
  }

  for (auto const& r : g_rings) {
    for (event const& e : r->ordered()) {
      sep();
      out << R"({"name":")" << name_of(e.kind) << R"(","pid":1,"tid":)"
          << e.loc << R"(,"ts":)" << e.ts_us;
      if (is_scope(e.kind))
        out << R"(,"ph":"X","dur":)" << e.dur_us;
      else
        out << R"(,"ph":"i","s":"t")";
      out << R"(,"args":{"v":)" << e.arg << "}}";
    }
    std::uint64_t const drops = r->drops.load(std::memory_order_acquire);
    if (drops != 0) {
      sep();
      out << R"({"name":"dropped_events","ph":"i","s":"t","pid":1,"tid":)"
          << r->loc << R"(,"ts":)" << now_us() << R"(,"args":{"v":)" << drops
          << "}}";
    }
  }

  out << "\n]}\n";
  return static_cast<bool>(out);
}

} // namespace trace

// ---------------------------------------------------------------------------
// metrics
// ---------------------------------------------------------------------------

namespace metrics {

namespace {

struct contributor {
  contributor_id id;
  std::function<void(counter_map&)> fold;
  std::function<void()> reset;
};

/// Per-location-thread registry state.  Contributors register and fold on
/// their owning thread, so no lock is needed.
struct registry_state {
  std::vector<contributor> live;
  counter_map accumulated;  ///< finals of unregistered contributors
  contributor_id next_id = 1;
};

registry_state& tls()
{
  thread_local registry_state s;
  return s;
}

std::mutex g_process_mutex;
counter_map g_process_totals;

} // namespace

contributor_id register_contributor(std::function<void(counter_map&)> fold,
                                    std::function<void()> reset)
{
  auto& s = tls();
  contributor_id const id = s.next_id++;
  s.live.push_back({id, std::move(fold), std::move(reset)});
  return id;
}

void unregister_contributor(contributor_id id)
{
  auto& s = tls();
  auto it = std::find_if(s.live.begin(), s.live.end(),
                         [id](contributor const& c) { return c.id == id; });
  if (it == s.live.end())
    return;
  it->fold(s.accumulated);
  s.live.erase(it);
}

void add(std::string const& name, std::uint64_t delta)
{
  tls().accumulated[name] += delta;
}

counter_map snapshot()
{
  auto& s = tls();
  counter_map m = s.accumulated;
  for (auto const& c : s.live)
    c.fold(m);
  for (std::size_t i = 0; i != latency::op_count; ++i) {
    auto const o = static_cast<latency::op>(i);
    auto const h = latency::local_snapshot(o);
    if (h.empty())
      continue;
    std::string const stem = std::string("lat.") + latency::name_of(o);
    m[stem + ".count"] = h.count;
    m[stem + ".sum_ns"] = h.sum_ns;
    m[stem + ".p50_ns"] = h.p50();
    m[stem + ".p90_ns"] = h.p90();
    m[stem + ".p99_ns"] = h.p99();
    m[stem + ".p999_ns"] = h.p999();
    m[stem + ".max_ns"] = h.max();
  }
  return m;
}

void reset_all()
{
  auto& s = tls();
  for (auto const& c : s.live)
    c.reset();
  s.accumulated.clear();
  latency::reset();
}

void fold_into_process(counter_map const& m)
{
  std::lock_guard lock(g_process_mutex);
  for (auto const& [k, v] : m) {
    if (sums_on_merge(k))
      g_process_totals[k] += v;
    else if (v > g_process_totals[k])
      g_process_totals[k] = v; // gauge: keep the worst location's value
  }
}

counter_map process_totals()
{
  std::lock_guard lock(g_process_mutex);
  return g_process_totals;
}

} // namespace metrics

} // namespace stapl
