#ifndef STAPL_RUNTIME_INSTRUMENT_HPP
#define STAPL_RUNTIME_INSTRUMENT_HPP

// Runtime instrumentation layer: structured event tracing and a unified
// metrics registry.
//
// Everything the runtime can *count* or *timestamp* reports through this
// header so that later transport/collective backends observe through one
// pipe instead of growing yet another ad-hoc stats family:
//
//   * trace::   — a per-location, single-writer ring-buffer event tracer
//     with typed events (RMI send/execute, aggregated message flush, fence,
//     algorithm pass, migration, rebalance wave, epoch advance).  Disabled
//     cost is one relaxed atomic load behind the STAPL_TRACE macro; enabled
//     cost is one ring slot write.  Rings stay in memory;
//     `trace::dump(path)` exports them once, at the end, as Chrome
//     trace-event JSON with one pid/tid lane per location, loadable
//     directly in Perfetto.
//
//   * metrics:: — a named-counter registry.  Stats producers (the RTS
//     location counters, directories, the load balancer) register
//     fold/reset contributor callbacks on their owning location thread;
//     `metrics::snapshot()` folds all of them plus the finals of
//     already-destroyed contributors into one map, and
//     `metrics::reset_all()` resets every family through the same hooks.
//
// Layering: this header depends only on types.hpp (plus the standard
// library) because it is included *by* runtime.hpp — emit sites live in the
// runtime core itself.  All mutable global state lives in instrument.cpp;
// per-location state is keyed off the calling thread (a location is a
// thread in this RTS, so each ring and each contributor list is naturally
// single-writer).

#include "types.hpp"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
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
/// Overflow policy: with `keep_last == false` (default) a full ring keeps
/// the *first* `capacity` events and drops the tail; with `keep_last ==
/// true` the ring is circular — new events overwrite the oldest, so long
/// steady-state runs (scaling sweeps) retain the most recent window
/// instead of the warm-up.  Drop counts are exact in both modes: a
/// keep-last overwrite counts the displaced event as dropped.
void enable(std::size_t capacity_per_location = std::size_t{1} << 16,
            bool keep_last = false);

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
/// thread is not attached.  On a full ring the event is dropped and counted.
void emit(event_kind k, std::uint64_t arg = 0) noexcept;

/// Records a scope (complete) event with an explicit start and duration.
void emit_complete(event_kind k, std::uint64_t ts_us, std::uint64_t dur_us,
                   std::uint64_t arg = 0) noexcept;

/// Locations that have recorded (or attached) rings, ascending.
[[nodiscard]] std::vector<location_id> traced_locations();

/// Copy of the events currently held by `loc`'s ring, oldest first.  In
/// keep-first mode these are the first `capacity` events; in keep-last
/// mode the most recent `capacity` (overwritten events are gone and
/// counted in `dropped`).
[[nodiscard]] std::vector<event> events(location_id loc);

/// Total events recorded across all rings.
[[nodiscard]] std::uint64_t total_events();

/// Events dropped on `loc`'s ring because it was full.
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
// metrics — unified named-counter registry
// ---------------------------------------------------------------------------

namespace metrics {

/// Ordered so snapshots print and compare deterministically.
using counter_map = std::map<std::string, std::uint64_t>;

/// Whether a snapshot key is additive across locations/executions.
/// Latency quantile keys ("lat.<family>.p99_ns" etc.) are gauges: summing
/// four locations' p99s is meaningless, so cross-location merges take the
/// max instead and the process accumulator recomputes them from the exact
/// merged histograms.  Counts and sums stay additive.
[[nodiscard]] inline bool sums_on_merge(std::string const& key) noexcept
{
  if (key == "rmi.inbox_depth" || key == "rmi.deferred_depth")
    return false; // high-water gauges: the deepest backlog, not a sum
  if (key.rfind("lat.", 0) != 0)
    return true;
  auto const ends_with = [&key](char const* suffix) {
    std::string const s(suffix);
    return key.size() >= s.size() &&
           key.compare(key.size() - s.size(), s.size(), s) == 0;
  };
  return ends_with(".count") || ends_with(".sum_ns");
}

using contributor_id = std::uint64_t;

/// Registers a stats producer on the calling location thread.  `fold` adds
/// the producer's current counters into the map; `reset` zeroes them.
/// Producers register from their owning thread (constructor) and must
/// unregister (destructor) before dying.
contributor_id register_contributor(std::function<void(counter_map&)> fold,
                                    std::function<void()> reset);

/// Unregisters a producer, folding its final counter values into the
/// calling thread's accumulated map so they survive the producer.
void unregister_contributor(contributor_id id);

/// Adds directly into the calling thread's accumulated map (for one-shot
/// producers like a rebalance wave that has no live object to register).
void add(std::string const& name, std::uint64_t delta);

/// All counters visible to the calling location: finals of dead producers
/// plus a fold over every live contributor, plus "lat.<family>.*"
/// count/sum/quantile keys for every latency family this location has
/// recorded (see latency.hpp).
[[nodiscard]] counter_map snapshot();

/// Resets every live contributor and clears the accumulated finals —
/// the one-call replacement for the per-family piecemeal resets.  Also
/// clears every location's latency recorders (lazily, see
/// latency::reset), so back-to-back bench sections don't bleed quantiles
/// into each other.
void reset_all();

/// Per-thread idle-time counters fed by the runtime's wait loops
/// (deadline_backoff) and injected fault stalls, folded into snapshots by
/// the runtime contributor.
struct idle_counters {
  std::uint64_t spins = 0;   ///< yield-phase backoff iterations
  std::uint64_t sleeps = 0;  ///< sleep-phase backoff iterations
  std::uint64_t nap_us = 0;  ///< total napped microseconds
};

[[nodiscard]] inline idle_counters& idle() noexcept
{
  thread_local idle_counters c;
  return c;
}

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
