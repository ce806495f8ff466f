#ifndef STAPL_RUNTIME_FAULT_HPP
#define STAPL_RUNTIME_FAULT_HPP

// Deterministic fault injection and runtime-hardening support.
//
// The RTS guarantees (exactly-once handlers, fence termination, collective
// completion) are exercised only on perfectly reliable in-process transports
// today; the pluggable out-of-process backend will expose them to delay,
// duplication, reordering and stalls.  This header provides the adversarial
// seam at the transport boundary: a seeded, deterministic injection
// registry.  Named sites (`STAPL_FAULT(site)`) inside the RMI
// enqueue/flush/poll paths, directory forwarding and migration consult the
// registry; a `fault::plan` arms a site with an action (message delay
// through a held-then-delivered queue, duplication, reordering, allocation
// failure, or a location stall) triggered every Nth hit or with a seeded
// probability.  Decisions are a pure function of (seed, site, location,
// per-site hit count), so an identical seed + plan replays an identical
// per-location injection trace regardless of thread interleaving.
// Disabled cost is one relaxed atomic load per site, exactly like
// STAPL_TRACE.
//
// Injected actions count as "fault.*", and the hardened paths (waits whose
// park ended by timeout, receiver-side duplicate suppression, hang-watchdog
// dumps) as "robust.*": both are blocks of the location's
// `metrics::counters` (instrument.hpp).
//
// Configuration: programmatic (`fault::add_plan` + `fault::arm(seed)`,
// outside stapl::execute) or via `STAPL_FAULTS=` in the environment, e.g.
//
//   STAPL_FAULTS="rmi.enqueue:dup:n=3;rmi.enqueue:delay:p=0.1,polls=8"
//   STAPL_FAULT_SEED=17
//
// Layering: like instrument.hpp this header depends only on types.hpp and
// instrument.hpp (it is included *by* runtime.hpp); all mutable global
// state lives in fault.cpp.  The watchdog dump reads runtime internals and
// is therefore also defined in fault.cpp.

#include "instrument.hpp"
#include "types.hpp"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace stapl {

namespace fault {

/// Named injection sites.  Keep site_count_ last; names in fault.cpp.
enum class site : std::uint8_t {
  rmi_enqueue,  ///< runtime.hpp enqueue_remote: delay / dup / reorder / alloc
  rmi_flush,    ///< runtime.hpp flush_dest: batch reorder / stall
  rmi_poll,     ///< runtime.hpp poll_once: location stall (straggler nap)
  dir_forward,  ///< directory.hpp send_forward: stall
  migration,    ///< migration.hpp migrate(): stall
  site_count_   ///< sentinel, keep last
};

inline constexpr unsigned num_sites =
    static_cast<unsigned>(site::site_count_);

/// Stable display name ("rmi.enqueue", ...); also the STAPL_FAULTS= key.
[[nodiscard]] char const* name_of(site s) noexcept;

/// Inverse of name_of; site_count_ when unknown.
[[nodiscard]] site site_from_name(std::string const& name) noexcept;

/// Injected actions (bitmask — one plan may combine several).
inline constexpr unsigned act_delay = 1u;      ///< hold, deliver after k polls
inline constexpr unsigned act_duplicate = 2u;  ///< enqueue the request twice
inline constexpr unsigned act_reorder = 4u;    ///< swap with the predecessor
inline constexpr unsigned act_stall = 8u;      ///< nap the location (straggler)
inline constexpr unsigned act_alloc_fail = 16u; ///< fail an allocation path

/// One armed injection rule.  `every_n` (when nonzero) triggers on every
/// Nth hit of the site on each location; otherwise `probability` draws from
/// the seeded per-(site, location, hit) hash.  `only_location` restricts
/// the plan to one location (straggler emulation); `gate` (when nonzero)
/// additionally requires the matching bit in the global gate mask
/// (`set_gate`) — how a run scopes a storm or a straggler to one window.
struct plan {
  site where = site::rmi_enqueue;
  unsigned actions = 0;
  unsigned every_n = 0;          ///< 0 = use probability
  double probability = 0.0;
  unsigned delay_polls = 4;      ///< act_delay: polls the message is held
  unsigned stall_us = 200;       ///< act_stall: nap length
  location_id only_location = invalid_location;
  std::uint64_t gate = 0;        ///< 0 = always active while armed
};

/// Decision of one site hit (actions == 0 when nothing triggered).
struct outcome {
  unsigned actions = 0;
  unsigned delay_polls = 0;
  unsigned stall_us = 0;
};

namespace fault_detail {
extern std::atomic<bool> g_armed;
} // namespace fault_detail

/// Whether the fault layer is armed — the only cost paid at every site when
/// it is not (one relaxed atomic load, like trace::enabled()).
[[nodiscard]] inline bool armed() noexcept
{
  return fault_detail::g_armed.load(std::memory_order_relaxed);
}

/// Installs one injection rule.  Call outside (or between) executions.
void add_plan(plan p);

/// Removes every installed rule.
void clear_plans();

/// Arms the layer with `seed`.  Arm before stapl::execute(): the runtime
/// latches sequenced (dedup-protected) delivery at execution start, and
/// duplication injected without it corrupts exactly-once handlers.
void arm(std::uint64_t seed);

/// Disarms the layer (plans and recorded events survive until cleared).
void disarm();

[[nodiscard]] std::uint64_t seed() noexcept;

/// Sets the global gate mask consulted by gated plans (see plan::gate).
void set_gate(std::uint64_t mask) noexcept;

/// Evaluates one site hit on the calling location: advances the per-site
/// hit counter, applies every matching plan, records the injection event
/// and counters, performs an act_stall nap itself, and returns the outcome
/// for actions that need call-site cooperation (delay/dup/reorder/alloc).
/// Called through STAPL_FAULT only when armed().
[[nodiscard]] outcome on_site(site s);

/// Binds the calling thread to location `id` for injection decisions and
/// event logging, resetting the per-site hit counters (so every execution
/// replays from hit 0).  Called by the SPMD driver; no-op when disarmed.
void attach(location_id id) noexcept;
void detach() noexcept;

/// One recorded injection (the deterministic-replay unit).  The trace to
/// compare across runs is the *per-location* event subsequence: cross-
/// location interleaving in `all_events` order is scheduling-dependent,
/// each location's own sequence is not.
struct event {
  site where = site::site_count_;
  unsigned actions = 0;
  std::uint64_t hit = 0;  ///< per-(site, location) hit count at injection
  location_id loc = invalid_location;

  [[nodiscard]] bool operator==(event const& o) const noexcept
  {
    return where == o.where && actions == o.actions && hit == o.hit &&
           loc == o.loc;
  }
};

/// Injection events recorded on `loc`, in injection order.
[[nodiscard]] std::vector<event> events(location_id loc);

/// All recorded injection events (unspecified cross-location order).
[[nodiscard]] std::vector<event> all_events();

/// Drops all recorded injection events.
void clear_events();

/// Parses STAPL_FAULTS / STAPL_FAULT_SEED / STAPL_WATCHDOG_MS once per
/// process (idempotent); arms the layer when STAPL_FAULTS is set.  Called
/// at the start of every stapl::execute().
void init_from_env();

// ---------------------------------------------------------------------------
// Hang watchdog
// ---------------------------------------------------------------------------

/// Deadline (milliseconds a wait stays blocked without progress) past which
/// the wait dumps diagnostics; no park outlasts it.  0 disables.  Default
/// 30000, overridable with STAPL_WATCHDOG_MS.
[[nodiscard]] std::uint64_t watchdog_ms() noexcept;
void set_watchdog_ms(std::uint64_t ms) noexcept;

/// Dumps actionable diagnostics for a wait blocked past the deadline in
/// site `what`: per-location last trace events, inbox depths, parked
/// (deferred) request counts and the global sent/executed balance.
/// Written to stderr and retained for last_watchdog_report().  Defined in
/// fault.cpp (reads runtime state).
void watchdog_fire(char const* what);

/// The most recent watchdog dump (empty when none fired).
[[nodiscard]] std::string last_watchdog_report();

} // namespace fault

} // namespace stapl

/// Site hook: one relaxed atomic load when the fault layer is disarmed; a
/// registry consultation (and possibly an injected action) when armed.
#define STAPL_FAULT(s)                                                       \
  (::stapl::fault::armed() ? ::stapl::fault::on_site(s)                      \
                           : ::stapl::fault::outcome{})

/// Convenience for stall-only sites (the outcome needs no call-site
/// cooperation: on_site performs the nap itself).
#define STAPL_FAULT_POINT(s)                                                 \
  do {                                                                       \
    if (::stapl::fault::armed())                                             \
      (void)::stapl::fault::on_site(s);                                      \
  } while (0)

#endif
