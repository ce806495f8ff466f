#ifndef STAPL_RUNTIME_RUNTIME_HPP
#define STAPL_RUNTIME_RUNTIME_HPP

// The stapl run-time system (RTS) work-alike (dissertation Ch. III.B).
//
// The RTS provides *locations* as an abstraction of processing elements.  In
// this reproduction a location is backed by a std::thread inside one process;
// different locations communicate exclusively through the RMI primitives
// below (ARMI work-alike).  The transport is message passing through
// per-location FIFO inboxes and models a distributed-memory machine: a remote
// RMI lands in its target's inbox and runs on the target location's own
// thread when that location polls.  Delivery is in order per (source,
// destination) pair, progress is by polling, and completion is at fences.
//
// The single-writer rule follows: a p_object representative, and all state
// it owns, is touched by its own location's thread only.  Every handler runs
// there, and every library caller that enters a representative directly
// must run there too (the directory asserts this in debug builds; the
// ThreadSanitizer CI job checks the rest).  So no per-location state takes
// a lock: not the containers, the directory or the object registry below.
// The mutexes left guard what threads do share: the inboxes, and
// process-wide registries and totals.
//
// The guarantees relied upon by the memory-consistency model of Ch. VII are
// provided here: requests from location A to location B execute in invocation
// order, rmi_fence() returns only when no pending RMI exists in the system
// (distributed termination detection), and sync/split-phase acknowledgment
// semantics follow Ch. VII.B.

#include "fault.hpp"
#include "instrument.hpp"
#include "latency.hpp"
#include "serialization.hpp"
#include "types.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace stapl {

/// Configuration of one SPMD execution (see `execute`).
struct runtime_config {
  unsigned num_locations = 1;
  /// Number of RMIs aggregated into a single "network" message (Ch. III.B:
  /// the RTS packs multiple requests to a given location into one message).
  unsigned aggregation = 16;
};

namespace runtime_detail {

/// A queued RMI request.  Returns false when the target object has not yet
/// been registered on this location (SPMD construction skew), or — for
/// directory-forwarded work — when resolution metadata is still in flight;
/// the message is then deferred and retried on the next poll.
using request = std::function<bool()>;

/// One location's doorbell: a ring counter and a parked flag.  Every event
/// that can end one of the location's waits rings it after it happens: a
/// push into its inbox, an SPMD barrier release, and a remote reply to one
/// of its split-phase requests.  Only the owning location waits on it (see
/// wait_until); it reads the count before it tests what it waits for, so a
/// ring that follows the test moves the count past what it read, and the
/// owner does not sleep through it.  A ringer makes the wake system call
/// only while the owner is parked.
class alignas(64) doorbell {
 public:
  using clock = std::chrono::steady_clock;

  [[nodiscard]] std::uint32_t rings() const noexcept
  {
    return m_rings.load(std::memory_order_acquire);
  }

  void ring() noexcept
  {
    m_rings.fetch_add(1, std::memory_order_seq_cst);
    if (m_parked.load(std::memory_order_seq_cst))
      wake();
  }

  /// Busy-waits until a ring past `seen` (true) or until `until` (false).
  [[nodiscard]] bool spin(std::uint32_t seen,
                          clock::time_point until) const noexcept;

  /// Sleeps until a ring past `seen` (true) or until `until` (false);
  /// clock::time_point::max() sleeps until a ring.
  [[nodiscard]] bool park(std::uint32_t seen, clock::time_point until) noexcept;

 private:
  void wake() noexcept;

  std::atomic<std::uint32_t> m_rings{0};
  std::atomic<bool> m_parked{false};
};

/// How long an idle wait busy-waits on its doorbell before it parks, when
/// every location can have a CPU of its own.  A remote synchronous read
/// comes back in a few microseconds, so its reply rings inside the window
/// and neither side makes a system call (see README, "Hardening").
inline constexpr std::chrono::microseconds spin_window{50};

/// Longest park of a polling wait while its location holds delayed or
/// deferred requests: only the location's own polls release and retry
/// them.
inline constexpr std::chrono::microseconds pending_park{50};

/// The idle half of one blocking wait (see wait_until): spins on the
/// location's doorbell for spin_window (unless the execution has more
/// locations than the process has CPUs, or the park is bounded), then
/// parks on it.  It keeps the wait's watchdog deadline, counted from its
/// first idle step after the last progress: no park outlasts the
/// deadline, and a wait still blocked there dumps diagnostics naming
/// itself (`what`), then re-arms.  A watchdog of 0, or one past the steady
/// clock's range, is off.  A park that ends by its timeout rather than a
/// ring counts as a timer nap (idle.sleeps, idle.nap_us) and as one
/// robust.retries.
class idle_wait {
 public:
  explicit idle_wait(char const* what) noexcept : m_what(what) {}

  /// A poll made progress: the next idle step re-arms the deadline.
  void progressed() noexcept { m_armed = false; }

  /// Waits for a ring of `bell` past `seen`; `bounded` skips the spin and
  /// caps the park at pending_park.
  void idle(doorbell& bell, std::uint32_t seen, bool bounded);

 private:
  char const* m_what;
  bool m_armed = false;
  doorbell::clock::time_point m_deadline{};
};

/// FIFO inbox of one location.  A single queue per destination preserves
/// per-source program order (each source enqueues in program order).
/// An atomic element count lets the owner's poll loop skip the mutex when
/// the inbox is empty — polling is the fabric of every wait loop, so the
/// empty probe must not serialize against concurrent senders.  Every push
/// rings the owner's doorbell once its requests are visible.
class inbox {
 public:
  explicit inbox(doorbell& bell) noexcept : m_bell(bell) {}

  void push(request r)
  {
    {
      std::lock_guard lock(m_mutex);
      m_queue.push_back(std::move(r));
      m_count.fetch_add(1, std::memory_order_release);
    }
    m_bell.ring();
  }

  void push_batch(std::vector<request>&& batch)
  {
    {
      std::lock_guard lock(m_mutex);
      for (auto& r : batch)
        m_queue.push_back(std::move(r));
      m_count.fetch_add(batch.size(), std::memory_order_release);
    }
    m_bell.ring();
  }

  [[nodiscard]] bool pop(request& out)
  {
    if (m_count.load(std::memory_order_acquire) == 0)
      return false; // empty fast path: no lock; a racing push is caught
                    // by the caller's next poll round
    std::lock_guard lock(m_mutex);
    if (m_queue.empty())
      return false;
    out = std::move(m_queue.front());
    m_queue.pop_front();
    m_count.fetch_sub(1, std::memory_order_release);
    return true;
  }

  [[nodiscard]] bool empty() const
  {
    return m_count.load(std::memory_order_acquire) == 0;
  }

  /// Current element count (cross-thread readable: used by the inbox-depth
  /// gauge and the watchdog dump).
  [[nodiscard]] std::size_t size() const noexcept
  {
    return m_count.load(std::memory_order_acquire);
  }

 private:
  doorbell& m_bell;
  mutable std::mutex m_mutex;
  std::deque<request> m_queue;
  std::atomic<std::size_t> m_count{0};
};

/// Registry of p_object representatives on one location (touched by that
/// location's thread only).
class object_registry {
 public:
  void insert(rmi_handle h, void* p) { m_objects[h] = p; }

  void erase(rmi_handle h) { m_objects.erase(h); }

  [[nodiscard]] void* lookup(rmi_handle h) const
  {
    auto it = m_objects.find(h);
    return it == m_objects.end() ? nullptr : it->second;
  }

 private:
  std::unordered_map<rmi_handle, void*> m_objects;
};

/// Receiver-side duplicate-suppression window for one sender (sequenced
/// delivery).  Sequence numbers at or below `contiguous` have executed; the
/// sparse `ahead` set holds numbers that executed out of order (injected
/// reordering) until the gap closes.  Touched only by the owning location's
/// poll thread, so no synchronization is needed.
struct dedup_window {
  std::uint64_t contiguous = 0;
  std::unordered_set<std::uint64_t> ahead;

  [[nodiscard]] bool is_dup(std::uint64_t s) const
  {
    return s <= contiguous || ahead.count(s) != 0;
  }

  void mark(std::uint64_t s)
  {
    if (s == contiguous + 1) {
      ++contiguous;
      while (ahead.erase(contiguous + 1) != 0)
        ++contiguous;
    } else {
      ahead.insert(s);
    }
  }
};

/// One sender-side held message (injected delay): delivered to `dest` once
/// `ttl_polls` of the sender's polls have elapsed.  Poll count is logical
/// time — deterministic, and fence rounds keep polling, so a held message
/// can never be stranded.
struct held_msg {
  location_id dest = invalid_location;
  request r;
  unsigned ttl_polls = 0;
  std::size_t bytes = 0;
};

struct location_state {
  /// rung by every event that can end one of this location's waits
  doorbell bell;
  inbox in{bell};
  object_registry registry;
  std::deque<request> deferred; ///< requests whose target is not yet registered
  /// deferred.size() mirror readable from other threads (watchdog dump)
  std::atomic<std::uint32_t> deferred_depth{0};
  /// per-destination outgoing sequence numbers (sequenced delivery)
  std::vector<std::uint64_t> seq_to;
  /// per-sender duplicate-suppression windows (sequenced delivery)
  std::vector<dedup_window> dedup;
  /// messages held back by injected delay, released by this location's polls
  std::vector<held_msg> held;
  std::uint32_t next_collective_counter = 0;
  std::uint32_t next_local_counter = 0;
  /// outgoing aggregation buffers, one per destination
  std::vector<std::vector<request>> agg;
  /// marshaled payload bytes pending in each aggregation buffer
  std::vector<std::uint64_t> agg_bytes;
  /// Fence termination counters: RMIs this location sent (self-posts and
  /// injected duplicates included) and executed.  Only the owner writes
  /// them; metrics::reset_all never resets them.  rmi_fence sums them
  /// across locations while every location waits in a barrier.
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> executed{0};
  /// this location's published value during a collective (see
  /// collectives.hpp's exchange)
  void const* slot = nullptr;
};

/// Sense-reversing barrier across all locations of the execution.  The
/// arrival that completes a generation rings every location's doorbell.
/// Arriving and waiting are split (see barrier_wait) so a waiter can keep
/// polling: a blocked sync_rmi peer must be serviced even from a barrier.
class spmd_barrier {
 public:
  explicit spmd_barrier(
      std::vector<std::unique_ptr<location_state>> const& locs) noexcept
      : m_locs(locs)
  {}

  /// Registers arrival; returns the generation token to wait on.
  [[nodiscard]] unsigned arrive() noexcept
  {
    unsigned const gen = m_generation.load(std::memory_order_acquire);
    if (m_count.fetch_add(1, std::memory_order_acq_rel) + 1 == m_locs.size()) {
      m_count.store(0, std::memory_order_relaxed);
      m_generation.fetch_add(1, std::memory_order_release);
      for (auto const& l : m_locs)
        l->bell.ring();
    }
    return gen;
  }

  [[nodiscard]] bool passed(unsigned gen) const noexcept
  {
    return m_generation.load(std::memory_order_acquire) != gen;
  }

 private:
  std::vector<std::unique_ptr<location_state>> const& m_locs;
  std::atomic<unsigned> m_count{0};
  std::atomic<unsigned> m_generation{0};
};

class runtime_impl {
 public:
  explicit runtime_impl(runtime_config cfg)
      : m_cfg(cfg), m_locs(cfg.num_locations), m_barrier(m_locs)
  {
    for (auto& l : m_locs)
      l = std::make_unique<location_state>();
    for (auto& l : m_locs) {
      l->agg.resize(cfg.num_locations);
      l->agg_bytes.resize(cfg.num_locations, 0);
      l->seq_to.resize(cfg.num_locations, 0);
      l->dedup.resize(cfg.num_locations);
    }
    // Latched once per execution: arming the fault layer after execute()
    // starts cannot retroactively sequence in-flight traffic, so arm first.
    m_sequenced = fault::armed();
  }

  /// Whether queued delivery carries per-sender sequence numbers with
  /// receiver-side duplicate suppression (exactly-once under injected
  /// duplication and reordering).  On whenever the fault layer is armed;
  /// the in-process transport itself never duplicates.
  [[nodiscard]] bool sequenced() const noexcept { return m_sequenced; }

  [[nodiscard]] runtime_config const& config() const noexcept { return m_cfg; }
  [[nodiscard]] unsigned num_locations() const noexcept
  {
    return m_cfg.num_locations;
  }
  [[nodiscard]] location_state& loc(location_id id) noexcept
  {
    return *m_locs[id];
  }
  [[nodiscard]] spmd_barrier& barrier() noexcept { return m_barrier; }

  /// {sent, executed} summed over every location's fence counters; the
  /// pair balances once every sent RMI has executed.  Exact only while no
  /// location polls.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t>
  rmi_totals() const noexcept
  {
    std::uint64_t sent = 0, executed = 0;
    for (auto const& l : m_locs) {
      sent += l->sent.load(std::memory_order_relaxed);
      executed += l->executed.load(std::memory_order_relaxed);
    }
    return {sent, executed};
  }

 private:
  runtime_config m_cfg;
  std::vector<std::unique_ptr<location_state>> m_locs;
  spmd_barrier m_barrier;
  bool m_sequenced = false;
};

// Defined in runtime.cpp.
extern runtime_impl* g_runtime;
extern thread_local location_id tl_location;

[[nodiscard]] inline runtime_impl& rt() noexcept
{
  assert(g_runtime != nullptr && "stapl API used outside stapl::execute()");
  return *g_runtime;
}

/// Bumps one of the calling location's fence counters.  The owner is the
/// only writer, so a relaxed load and store replace a read-modify-write.
inline void count_one(std::atomic<std::uint64_t>& c) noexcept
{
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

} // namespace runtime_detail

// ---------------------------------------------------------------------------
// SPMD execution
// ---------------------------------------------------------------------------

/// Runs `spmd` on `cfg.num_locations` locations in SPMD fashion, joining all
/// of them (and propagating the first exception) before returning.  An
/// implicit rmi_fence runs after `spmd` completes on every location.
void execute(runtime_config const& cfg, std::function<void()> spmd);

/// Convenience overload: `p` locations with default configuration.
void execute(unsigned p, std::function<void()> spmd);

/// Identifier of the calling location.
[[nodiscard]] inline location_id this_location() noexcept
{
  return runtime_detail::tl_location;
}

/// Number of locations of the current execution.
[[nodiscard]] inline unsigned num_locations() noexcept
{
  return runtime_detail::rt().num_locations();
}

// ---------------------------------------------------------------------------
// Progress
// ---------------------------------------------------------------------------

namespace runtime_detail {

/// Hands one destination's aggregation buffer to its inbox as a single
/// message, updating the message and batching counters.
inline void flush_dest(location_state& self, location_id d)
{
  auto& buf = self.agg[d];
  auto& c = metrics::local();
  c.rmi.msgs_sent += 1;
  c.rmi.msg_bytes += self.agg_bytes[d];
  if (buf.size() > 1) {
    // A coalesced message: several RMIs paid one delivery.
    c.coll.agg_batches += 1;
    c.coll.agg_bytes += self.agg_bytes[d];
  }
  self.agg_bytes[d] = 0;
  auto const fo = STAPL_FAULT(fault::site::rmi_flush);
  if ((fo.actions & fault::act_reorder) && buf.size() > 1)
    std::reverse(buf.begin(), buf.end()); // whole-batch reorder on the wire
  STAPL_TRACE(trace::event_kind::msg_flush, buf.size());
  rt().loc(d).in.push_batch(std::move(buf));
  buf.clear();
}

/// Flushes this location's outgoing aggregation buffers.
inline void flush_aggregation()
{
  auto& self = rt().loc(tl_location);
  for (location_id d = 0; d < rt().num_locations(); ++d) {
    if (self.agg[d].empty())
      continue;
    flush_dest(self, d);
  }
}

/// Hard bound on the deferred-retry queue (parked requests whose target
/// has not registered yet).  Growth past it means a registration will
/// never arrive: the watchdog dumps and the debug build asserts instead of
/// letting the queue grow silently.
inline constexpr std::size_t max_deferred = std::size_t{1} << 20;

/// Byte cap of one aggregation buffer: a destination's buffer flushes as
/// soon as its marshaled payload reaches this many bytes, even when the
/// RMI count is still below `runtime_config::aggregation` — large payloads
/// should not sit in the buffer waiting for company.
inline constexpr std::size_t agg_max_bytes = 4096;

/// Executes one round of incoming requests; returns true if any executed.
inline bool poll_once()
{
  auto& self = rt().loc(tl_location);
  auto& c = metrics::local().rmi;
  STAPL_FAULT_POINT(fault::site::rmi_poll); // straggler nap
  flush_aggregation();

  // Release held (delay-injected) messages whose ttl expired.  Poll count
  // is logical time: deterministic, and fence rounds keep polling, so every
  // held message is eventually delivered.
  if (!self.held.empty()) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < self.held.size(); ++i) {
      if (--self.held[i].ttl_polls == 0) {
        c.msgs_sent += 1;
        c.msg_bytes += self.held[i].bytes;
        rt().loc(self.held[i].dest).in.push(std::move(self.held[i].r));
      } else {
        if (w != i)
          self.held[w] = std::move(self.held[i]);
        ++w;
      }
    }
    self.held.resize(w);
  }

  bool progressed = false;

  // Retry deferred requests first (in order) to preserve FIFO delivery.
  if (!self.deferred.empty()) {
    std::deque<request> still;
    while (!self.deferred.empty()) {
      request r = std::move(self.deferred.front());
      self.deferred.pop_front();
      if (r()) {
        progressed = true;
        c.rmis_executed += 1;
        STAPL_TRACE(trace::event_kind::rmi_execute);
        count_one(self.executed);
      } else {
        still.push_back(std::move(r));
      }
    }
    self.deferred = std::move(still);
  }

  if (std::size_t const depth = self.in.size(); depth > c.inbox_depth)
    c.inbox_depth = depth;

  request r;
  while (self.in.pop(r)) {
    if (r()) {
      progressed = true;
      c.rmis_executed += 1;
      STAPL_TRACE(trace::event_kind::rmi_execute);
      count_one(self.executed);
    } else {
      self.deferred.push_back(std::move(r));
    }
  }

  std::size_t const parked = self.deferred.size();
  self.deferred_depth.store(static_cast<std::uint32_t>(parked),
                            std::memory_order_relaxed);
  if (parked > c.deferred_depth) {
    c.deferred_depth = parked;
    if (parked > max_deferred) {
      // Parked requests wait for a registration; past the bound that
      // registration is never coming.  Dump once per crossing, then trap
      // in debug builds rather than grow silently.
      fault::watchdog_fire("rmi.deferred_bound");
      assert(false && "deferred-retry queue exceeded max_deferred");
    }
  }
  return progressed;
}

/// The one blocking wait of the RTS: returns once `done()` holds.  Each
/// round reads the location's doorbell, then tests `done`; a polling wait
/// (barriers, and so collectives, futures and sync replies; all but the
/// fence's last two barriers) then drives one poll.  A round that finds
/// nothing to do idles on the bell (idle_wait) until a ring.  Every event
/// that can make `done` true rings the bell after it happens, so no such
/// event is slept through.  `what` names the wait in watchdog dumps.
template <typename Done>
void wait_until(char const* what, bool polling, Done done)
{
  location_state& self = rt().loc(tl_location);
  idle_wait idle(what);
  for (;;) {
    std::uint32_t const seen = self.bell.rings();
    if (done())
      return;
    if (polling && poll_once()) {
      idle.progressed();
      continue;
    }
    idle.idle(self.bell, seen,
              polling && (!self.held.empty() || !self.deferred.empty()));
  }
}

/// Marshaled size of one RMI argument: `packed_size` when the typer knows
/// the type, its object size otherwise (e.g. closures the inbox hands over
/// by value rather than by wire).
template <typename T>
[[nodiscard]] inline std::size_t wire_size_of(T const& t)
{
  if constexpr (wire_measurable_v<T>)
    return packed_size(t);
  else
    return sizeof(T);
}

/// Wire footprint of an RMI: handle word plus every marshaled argument.
template <typename... Ts>
[[nodiscard]] inline std::size_t wire_size(Ts const&... ts)
{
  return (sizeof(rmi_handle) + ... + wire_size_of(ts));
}

inline void enqueue_remote(location_id dest, request r, std::size_t bytes = 0)
{
  auto& self = rt().loc(tl_location);
  auto& c = metrics::local().rmi;
  c.rmis_sent += 1;
  c.rmi_bytes += bytes;
  STAPL_TRACE(trace::event_kind::rmi_send, bytes);
  count_one(self.sent);

  if (rt().sequenced()) {
    // Sequenced delivery: wrap the request with this sender's next sequence
    // number toward `dest`; the receiver's window suppresses duplicates.
    // The wrapper marks the number only once the inner request completes
    // (a deferred retry must not be mistaken for a duplicate), and a
    // suppressed duplicate reports true so the fence counts it executed.
    std::uint64_t const seq = ++self.seq_to[dest];
    location_id const src = tl_location;
    r = [src, seq, inner = std::move(r)]() mutable -> bool {
      auto& win = rt().loc(tl_location).dedup[src];
      if (win.is_dup(seq)) {
        metrics::local().robust.dups_suppressed += 1;
        return true;
      }
      if (!inner())
        return false;
      win.mark(seq);
      return true;
    };
  }

  auto const fo = STAPL_FAULT(fault::site::rmi_enqueue);
  if (fo.actions & fault::act_duplicate) {
    // The duplicate is a full pending RMI for termination purposes: it was
    // "sent", and its suppressed delivery will count as executed.
    c.rmis_sent += 1;
    count_one(self.sent);
    self.agg[dest].push_back(r); // copy; the original continues below
  }
  if (fo.actions & fault::act_delay) {
    self.held.push_back(
        {dest, std::move(r), fo.delay_polls != 0 ? fo.delay_polls : 1, bytes});
    return;
  }

  self.agg_bytes[dest] += bytes;
  auto& buf = self.agg[dest];
  buf.push_back(std::move(r));
  if ((fo.actions & fault::act_reorder) && buf.size() >= 2)
    std::swap(buf[buf.size() - 1], buf[buf.size() - 2]);
  if (fo.actions & fault::act_alloc_fail) {
    flush_dest(self, dest); // buffer "allocation failed": degraded batching
    return;
  }
  if (buf.size() >= rt().config().aggregation ||
      self.agg_bytes[dest] >= agg_max_bytes)
    flush_dest(self, dest);
}

} // namespace runtime_detail

/// Drives communication progress on the calling location.  Returns whether
/// any request was executed — pacing loops that poll while ahead of
/// schedule should yield when it reports no work, or on oversubscribed
/// cores the busy-wait starves the locations doing real serving.
inline bool rmi_poll()
{
  return runtime_detail::poll_once();
}

/// Records a locally resolved container method in the performance-monitor
/// counters (the invoke skeleton's local fast path bypasses the RMI layer).
inline void note_local_invocation() noexcept
{
  metrics::local().rmi.local_rmis += 1;
}

/// Local representative of a registered p_object (nullptr if none).  Lets
/// RMI handlers reach sibling objects (e.g. an algorithm's frontier buffer)
/// through their handles.
template <typename T>
[[nodiscard]] T* get_registered_object(rmi_handle h)
{
  using namespace runtime_detail;
  return static_cast<T*>(rt().loc(this_location()).registry.lookup(h));
}

/// Re-enqueues work into this location's own inbox, to be retried on a later
/// poll.  Used by method forwarding when resolution metadata has not arrived
/// yet (e.g. a directory registration still in flight): executing inline
/// would recurse, so the request is parked behind the pending traffic.
/// Counts as a pending RMI for fence termination purposes.
///
/// `f` may return void (executed exactly once on the next poll) or bool:
/// a bool-returning `f` that yields false is parked on the deferred queue
/// and retried once per poll round until it reports completion, without
/// burning a fresh enqueue per attempt.  Either flavor keeps the fence's
/// termination detection pessimistic until the work actually runs.
template <typename F>
void post_to_self(F f)
{
  using namespace runtime_detail;
  auto& self = rt().loc(this_location());
  metrics::local().rmi.rmis_sent += 1;
  count_one(self.sent);
  self.in.push([f = std::move(f)]() mutable -> bool {
    if constexpr (std::is_same_v<std::invoke_result_t<F&>, bool>) {
      return f();
    } else {
      f();
      return true;
    }
  });
}

namespace runtime_detail {

/// Waits at the SPMD barrier.  A polling wait keeps servicing incoming
/// RMIs, so a peer blocked on a synchronous response from this location
/// cannot deadlock the collective; only the fence waits without polling.
inline void barrier_wait(bool polling)
{
  auto& b = rt().barrier();
  unsigned const gen = b.arrive();
  wait_until("rmi.barrier", polling, [&] { return b.passed(gen); });
}

} // namespace runtime_detail

/// Collective synchronization: returns once every location has entered the
/// fence and no pending RMI remains in the system (termination detection).
void rmi_fence();

/// Barrier without the termination-detection drain (still polls).
inline void location_barrier()
{
  runtime_detail::barrier_wait(true);
}

// ---------------------------------------------------------------------------
// p_object — the basic shared-object concept (Ch. III.B)
// ---------------------------------------------------------------------------

/// Tag requesting registration on the constructing location only.
struct single_location_t {
  explicit single_location_t() = default;
};
inline constexpr single_location_t single_location{};

/// Base class of every parallel object.  The representative of a p_object on
/// each location registers with the RTS to enable RMIs between the
/// representatives.  Collective construction (default) must happen in the
/// same order on all locations, like any SPMD registration scheme.
class p_object {
 public:
  p_object()
      : m_handle(make_handle(
            collective_scope,
            runtime_detail::rt().loc(this_location()).next_collective_counter++)),
        m_location(this_location()),
        m_num_locations(num_locations())
  {
    runtime_detail::rt().loc(m_location).registry.insert(m_handle, this);
  }

  explicit p_object(single_location_t)
      : m_handle(make_handle(
            this_location(),
            runtime_detail::rt().loc(this_location()).next_local_counter++)),
        m_location(this_location()),
        m_num_locations(1)
  {
    runtime_detail::rt().loc(m_location).registry.insert(m_handle, this);
  }

  p_object(p_object const&) = delete;
  p_object& operator=(p_object const&) = delete;

  virtual ~p_object()
  {
    runtime_detail::rt().loc(m_location).registry.erase(m_handle);
  }

  [[nodiscard]] rmi_handle get_handle() const noexcept { return m_handle; }
  [[nodiscard]] location_id get_location_id() const noexcept
  {
    return m_location;
  }
  [[nodiscard]] unsigned get_num_locations() const noexcept
  {
    return m_num_locations;
  }

 private:
  rmi_handle m_handle;
  location_id m_location;
  unsigned m_num_locations;
};

// ---------------------------------------------------------------------------
// Futures (split-phase execution, Ch. V.B / VII.B)
// ---------------------------------------------------------------------------

/// Future returned by split-phase methods.  `get()` drives communication
/// progress while waiting, so two locations may wait on each other's
/// split-phase results without deadlock.
template <typename R>
class pc_future {
 public:
  struct state {
    std::atomic<bool> ready{false};
    std::optional<R> value;
    location_id waiter = this_location();

    /// Stores the value and publishes it; fulfilled from another location,
    /// it rings the waiter's doorbell.
    template <typename... A>
    void fulfil(A&&... a)
    {
      location_id const w = waiter;
      value.emplace(std::forward<A>(a)...);
      ready.store(true, std::memory_order_release);
      if (w != this_location())
        runtime_detail::rt().loc(w).bell.ring();
    }
  };

  pc_future() = default;
  explicit pc_future(std::shared_ptr<state> s) noexcept : m_state(std::move(s))
  {}

  [[nodiscard]] bool valid() const noexcept { return m_state != nullptr; }

  [[nodiscard]] bool is_ready() const noexcept
  {
    return m_state && m_state->ready.load(std::memory_order_acquire);
  }

  /// Blocks (polling) until the value arrives; consumes the future.
  [[nodiscard]] R get()
  {
    assert(valid());
    runtime_detail::wait_until("rmi.future", true, [this] {
      return m_state->ready.load(std::memory_order_acquire);
    });
    return std::move(*m_state->value);
  }

 private:
  std::shared_ptr<state> m_state;
};

// ---------------------------------------------------------------------------
// RMI primitives
// ---------------------------------------------------------------------------

namespace runtime_detail {

template <typename Obj, typename F, typename Tuple>
decltype(auto) apply_on(Obj& o, F& f, Tuple& t)
{
  return std::apply(
      [&](auto&... args) -> decltype(auto) { return std::invoke(f, o, args...); },
      t);
}

} // namespace runtime_detail

/// Queued RMI: like async_rmi, but always delivered through the
/// destination's inbox, even to self.  The send therefore never executes
/// handler code inline, so it is safe while holding locks the handler also
/// takes.  Messages pushed by one sender execute in push order at the
/// destination's next poll; completion by the next rmi_fence.
template <typename Obj, typename F, typename... Args>
void queued_rmi(location_id dest, rmi_handle h, F f, Args... args)
{
  using namespace runtime_detail;
  std::size_t const bytes = wire_size(f, args...);
  enqueue_remote(dest,
                 [dest, h, f = std::move(f),
                  tup = std::make_tuple(std::move(args)...)]() mutable -> bool {
                   void* p = rt().loc(dest).registry.lookup(h);
                   if (p == nullptr)
                     return false;
                   apply_on(*static_cast<Obj*>(p), f, tup);
                   return true;
                 },
                 bytes);
}

/// Asynchronous RMI: executes `f(obj_at(dest), args...)` on the destination
/// representative of the object identified by `h`; returns immediately
/// (Ch. III.B).  Completion is guaranteed by the next rmi_fence, or — for
/// same-element accesses — by the acknowledgment rules of Ch. VII.B.
template <typename Obj, typename F, typename... Args>
void async_rmi(location_id dest, rmi_handle h, F f, Args... args)
{
  using namespace runtime_detail;
  if (dest == this_location()) {
    metrics::local().rmi.local_rmis += 1;
    Obj* o = static_cast<Obj*>(rt().loc(dest).registry.lookup(h));
    assert(o != nullptr && "async_rmi: local object not registered");
    std::invoke(f, *o, std::move(args)...);
    return;
  }
  queued_rmi<Obj>(dest, h, std::move(f), std::move(args)...);
}

/// Split-phase RMI (Ch. V.B): returns a future immediately; the invocation
/// executes asynchronously and fulfils the future.  `future.get()` blocks
/// until the acknowledgment arrives, at the latest at the next fence.  A
/// call to this location runs inline and returns a ready future.  The one
/// body of a round trip: sync_rmi below is this call waited for at once.
template <typename Obj, typename F, typename... Args>
[[nodiscard]] auto opaque_rmi(location_id dest, rmi_handle h, F f, Args... args)
{
  using namespace runtime_detail;
  using R = decltype(std::invoke(f, std::declval<Obj&>(), args...));
  auto st = std::make_shared<typename pc_future<R>::state>();

  if (dest == this_location()) {
    metrics::local().rmi.local_rmis += 1;
    Obj* o = static_cast<Obj*>(rt().loc(dest).registry.lookup(h));
    assert(o != nullptr && "opaque_rmi: local object not registered");
    st->fulfil(std::invoke(f, *o, std::move(args)...));
    return pc_future<R>(st);
  }

  std::size_t const bytes = wire_size(f, args...);
  enqueue_remote(dest,
                 [dest, h, st, f = std::move(f),
                  tup = std::make_tuple(std::move(args)...)]() mutable -> bool {
                   void* p = rt().loc(dest).registry.lookup(h);
                   if (p == nullptr)
                     return false;
                   st->fulfil(apply_on(*static_cast<Obj*>(p), f, tup));
                   return true;
                 },
                 bytes);
  return pc_future<R>(st);
}

/// Synchronous RMI (Ch. VII.B): opaque_rmi with its future waited for at
/// once, driving progress meanwhile.  A remote call also counts as one
/// synchronous round trip (rmi.sync_rmis), is timed in the rmi.sync
/// latency family and waits under the watchdog name "rmi.sync"; a local
/// one is an inline call.
template <typename Obj, typename F, typename... Args>
[[nodiscard]] auto sync_rmi(location_id dest, rmi_handle h, F f, Args... args)
{
  using namespace runtime_detail;
  if (dest == this_location())
    return opaque_rmi<Obj>(dest, h, std::move(f), std::move(args)...).get();
  // Remote round trip from here on — the tail-latency-relevant part.
  latency::timed_op lat_scope(latency::op::rmi_sync);
  metrics::local().rmi.sync_rmis += 1;
  auto fut = opaque_rmi<Obj>(dest, h, std::move(f), std::move(args)...);
  wait_until("rmi.sync", true, [&fut] { return fut.is_ready(); });
  return fut.get();
}

} // namespace stapl

// The collectives (value exchange, allreduce / broadcast / reduce /
// allgather, exclusive_scan) plus the global metrics/latency merges.
// Included last so it can use every runtime primitive above; its include
// guard makes either inclusion order work.
#include "collectives.hpp"

#endif
