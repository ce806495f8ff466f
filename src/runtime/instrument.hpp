#ifndef STAPL_RUNTIME_INSTRUMENT_HPP
#define STAPL_RUNTIME_INSTRUMENT_HPP

// Runtime instrumentation layer: structured event tracing and the
// per-location counters.
//
// Everything the runtime can *count* or *timestamp* reports through this
// header:
//
//   * trace::   — a per-location, single-writer ring-buffer event tracer
//     with typed events (RMI send/execute, aggregated message flush, fence,
//     algorithm pass, migration, rebalance wave, fault injection).
//     Disabled cost is one relaxed atomic load behind the STAPL_TRACE
//     macro; enabled cost is one ring slot write.  Each ring keeps its
//     location's newest events.  `trace::dump(path)` exports them once, at
//     the end, as Chrome trace-event JSON with one pid/tid lane per
//     location, loadable directly in Perfetto.
//
//   * metrics:: — one `counters` block per location, a field per counter
//     and a sub-struct per layer (runtime, collectives, idle time, fault
//     injection, hardening, directory, load balancer).  Each layer bumps
//     its own fields; `snapshot()` names them all, and `reset_all()` zeroes
//     the block.
//
// Layering: this header depends only on types.hpp (plus the standard
// library) because it is included *by* runtime.hpp — emit sites live in the
// runtime core itself.  Global trace state lives in instrument.cpp;
// per-location state is keyed off the calling thread (a location is a
// thread in this RTS, so each ring and each counter block is naturally
// single-writer).

#include "types.hpp"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace stapl {

// ---------------------------------------------------------------------------
// trace — typed event tracer
// ---------------------------------------------------------------------------

namespace trace {

/// Typed runtime events.  Scope kinds (see `is_scope`) are recorded as
/// Chrome "X" complete events with a duration; the rest are instants.
enum class event_kind : std::uint8_t {
  rmi_send,         ///< RMI enqueued to a remote location (arg: payload bytes)
  rmi_execute,      ///< incoming RMI executed here (arg: 0)
  msg_flush,        ///< aggregation buffer flushed (arg: requests in message)
  fence,            ///< rmi_fence, entry to exit (scope)
  task_run,         ///< one pAlgorithm local pass (scope; arg: elements)
  migration,        ///< element migration arrived here (arg: gid)
  rebalance_wave,   ///< one load-balancer wave (scope; arg: moves planned)
  fault_inject,     ///< fault-layer injection (arg: site<<8 | action bits)
  watchdog,         ///< hang watchdog fired on this location (arg: 0)
  kind_count_       ///< sentinel, keep last
};

/// Kinds recorded with a duration (Chrome "X") rather than as instants.
[[nodiscard]] constexpr bool is_scope(event_kind k) noexcept
{
  return k == event_kind::fence || k == event_kind::task_run ||
         k == event_kind::rebalance_wave;
}

/// Stable display name of an event kind (used by the exporter and tests).
[[nodiscard]] char const* name_of(event_kind k) noexcept;

/// One recorded event.  32 bytes; rings are arrays of these.
struct event {
  std::uint64_t ts_us = 0;   ///< microseconds since the trace epoch
  std::uint64_t dur_us = 0;  ///< scope duration (0 for instants)
  std::uint64_t arg = 0;     ///< event-specific payload
  location_id loc = invalid_location;
  event_kind kind = event_kind::rmi_send;
};

namespace instrument_detail {
extern std::atomic<bool> g_trace_enabled;
} // namespace instrument_detail

/// Whether tracing is on.  This is the only cost paid at every emit site
/// when tracing is disabled.
[[nodiscard]] inline bool enabled() noexcept
{
  return instrument_detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Turns tracing on.  Rings are created lazily at `attach` with
/// `capacity_per_location` slots each; call outside (or between) SPMD
/// executions so every location attaches with tracing visible.
///
/// Overflow policy: a ring is circular.  A new event overwrites the oldest,
/// so a ring holds its location's newest `capacity` events — what a
/// watchdog dump and the end of a long run need.  Every overwritten event
/// counts as dropped, so drop counts are exact.
void enable(std::size_t capacity_per_location = std::size_t{1} << 16);

/// Turns tracing off.  Recorded events remain readable until `clear()`.
void disable();

/// Drops all recorded events, rings and drop counts.
void clear();

/// Binds the calling thread to location `id`'s ring (creating it on first
/// attach).  Called by the SPMD driver when a location thread starts; a
/// no-op when tracing is disabled.
void attach(location_id id);

/// Unbinds the calling thread from its ring (the ring itself persists for
/// dumping).
void detach();

/// Microseconds since the trace epoch (set at `enable`).
[[nodiscard]] std::uint64_t now_us() noexcept;

/// Records an instant event on the calling location's ring.  No-op when the
/// thread is not attached.  On a full ring it overwrites the oldest event.
void emit(event_kind k, std::uint64_t arg = 0) noexcept;

/// Records a scope (complete) event with an explicit start and duration.
void emit_complete(event_kind k, std::uint64_t ts_us, std::uint64_t dur_us,
                   std::uint64_t arg = 0) noexcept;

/// Locations that have recorded (or attached) rings, ascending.
[[nodiscard]] std::vector<location_id> traced_locations();

/// Copy of the events currently held by `loc`'s ring, oldest first: the
/// most recent `capacity` (overwritten events are gone and counted in
/// `dropped`).
[[nodiscard]] std::vector<event> events(location_id loc);

/// Total events recorded across all rings.
[[nodiscard]] std::uint64_t total_events();

/// Events on `loc`'s ring overwritten because it was full.
[[nodiscard]] std::uint64_t dropped(location_id loc);

/// Total drops across all rings.
[[nodiscard]] std::uint64_t total_dropped();

/// Writes all recorded events as Chrome trace-event JSON ("traceEvents"
/// array; one pid/tid lane per location) — loadable in Perfetto or
/// chrome://tracing.  Returns false if the file cannot be written.
bool dump(std::string const& path);

/// RAII timer emitting one scope event from construction to destruction.
/// Near-zero cost when tracing is disabled (one relaxed load).
class trace_scope {
 public:
  explicit trace_scope(event_kind k, std::uint64_t arg = 0) noexcept
      : m_kind(k), m_arg(arg), m_active(enabled())
  {
    if (m_active)
      m_start = now_us();
  }

  trace_scope(trace_scope const&) = delete;
  trace_scope& operator=(trace_scope const&) = delete;

  /// Updates the argument recorded at scope exit (e.g. moves planned).
  void set_arg(std::uint64_t arg) noexcept { m_arg = arg; }

  ~trace_scope()
  {
    if (m_active)
      emit_complete(m_kind, m_start, now_us() - m_start, m_arg);
  }

 private:
  event_kind m_kind;
  std::uint64_t m_arg;
  std::uint64_t m_start = 0;
  bool m_active;
};

} // namespace trace

/// Emit hook used at every instrumented site: one relaxed atomic load when
/// tracing is disabled, a ring write when enabled.
#define STAPL_TRACE(...)                                                     \
  do {                                                                       \
    if (::stapl::trace::enabled())                                           \
      ::stapl::trace::emit(__VA_ARGS__);                                     \
  } while (0)

// ---------------------------------------------------------------------------
// metrics — one counter block per location
// ---------------------------------------------------------------------------

namespace metrics {

/// Ordered so snapshots print and compare deterministically.
using counter_map = std::map<std::string, std::uint64_t>;

/// Every counter a location keeps, one block per layer.  A location is a
/// thread, so each has one instance (`local()`) and each layer bumps its
/// own fields with plain increments.  The runtime's fence counters are not
/// here: other threads read those (see `location_state`).
struct counters {
  struct {
    std::uint64_t rmis_sent = 0;      ///< RMIs sent to remote locations
    std::uint64_t rmis_executed = 0;  ///< incoming RMIs executed here
    std::uint64_t local_rmis = 0;     ///< RMIs resolved locally (inline)
    std::uint64_t msgs_sent = 0;      ///< aggregated network messages sent
    std::uint64_t sync_rmis = 0;      ///< synchronous round trips
    std::uint64_t fences = 0;         ///< rmi_fence invocations
    std::uint64_t rmi_bytes = 0;      ///< marshaled payload bytes of sent RMIs
    std::uint64_t msg_bytes = 0;      ///< payload bytes of flushed messages
    std::uint64_t inbox_depth = 0;    ///< deepest inbox seen (gauge)
    std::uint64_t deferred_depth = 0; ///< deepest deferred queue (gauge)
  } rmi;
  struct {
    std::uint64_t ops = 0;            ///< collective calls (P > 1)
    std::uint64_t agg_batches = 0;    ///< flushed messages carrying >1 RMI
    std::uint64_t agg_bytes = 0;      ///< payload bytes of those batches
  } coll;
  /// Idle time of the blocking waits (runtime.hpp's wait_until): each idle
  /// step spins on the location's doorbell, then parks on it until a ring.
  struct {
    std::uint64_t spins = 0;          ///< spin windows on the doorbell
    std::uint64_t sleeps = 0;         ///< timer sleeps: fault stalls, and
                                      ///< parks that ended by timeout
    std::uint64_t nap_us = 0;         ///< microseconds of those timer sleeps
    std::uint64_t park_us = 0;        ///< microseconds parked on the doorbell
  } idle;
  struct {
    std::uint64_t injected = 0;       ///< site hits with at least one action
    std::uint64_t delays = 0;
    std::uint64_t dups = 0;
    std::uint64_t reorders = 0;
    std::uint64_t stalls = 0;
    std::uint64_t alloc_fails = 0;
  } fault;
  struct {
    std::uint64_t retries = 0;        ///< parks ended by timeout, not a ring
    std::uint64_t dups_suppressed = 0; ///< duplicate deliveries suppressed
    std::uint64_t watchdog_dumps = 0;
  } robust;
  struct {
    std::uint64_t local_hits = 0;     ///< resolved on the owner, no traffic
    std::uint64_t cache_hits = 0;     ///< resolved from the owner cache
    std::uint64_t home_routed = 0;    ///< requests routed through the home
    std::uint64_t cold_lookups = 0;   ///< synchronous home lookups
    std::uint64_t forwards = 0;       ///< forwarding hops taken by work items
    std::uint64_t stale_bounces = 0;  ///< work that hit a stale owner
    std::uint64_t invalidations = 0;  ///< cache entries dropped on update
    std::uint64_t retries = 0;        ///< requests parked for metadata
    std::uint64_t migrations_in = 0;  ///< elements that arrived here
    std::uint64_t migrations_out = 0; ///< elements that departed from here
    std::uint64_t owner_accesses = 0; ///< accesses executed here as owner
    std::uint64_t hints_reclaimed = 0; ///< forwarding hints retired by the home
  } dir;
  struct {
    std::uint64_t waves = 0;          ///< rebalance() waves taken part in
    std::uint64_t triggered = 0;      ///< waves that planned moves
    std::uint64_t moves = 0;          ///< planned moves, summed over waves
    std::uint64_t bytes_moved = 0;    ///< planned payload bytes
  } lb;
};

/// The calling location's counters.
[[nodiscard]] inline counters& local() noexcept
{
  thread_local counters c;
  return c;
}

/// Whether a snapshot key is additive across locations and executions.
/// The two depth keys are high-water gauges, so merges keep the deepest
/// backlog instead of a sum.
[[nodiscard]] inline bool sums_on_merge(std::string const& key) noexcept
{
  return key != "rmi.inbox_depth" && key != "rmi.deferred_depth";
}

/// The calling location's counters by key — the one place a key is
/// spelled.  Latency families are read through their histograms
/// (`latency::global_histograms`, `latency::process_histogram`).
[[nodiscard]] counter_map snapshot();

/// Zeroes the calling location's counters, and every location's latency
/// recorders (lazily, see latency::reset), so back-to-back bench sections
/// don't bleed quantiles into each other.
void reset_all();

/// Folds a (usually end-of-execution) snapshot into the process-wide
/// accumulator.  Called once per location at the end of every
/// `stapl::execute`; safe from any thread.
void fold_into_process(counter_map const& m);

/// Process-wide counter totals across all completed executions — what
/// bench_common embeds into every BENCH_*.json.
[[nodiscard]] counter_map process_totals();

} // namespace metrics

} // namespace stapl

#endif
