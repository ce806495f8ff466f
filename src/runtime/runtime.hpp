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
// Every representative is therefore touched by its own location's thread
// only, so containers need no locks by default (Ch. VI; see
// core/thread_safety.hpp).
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
  /// Byte cap of one aggregation buffer: a destination's buffer flushes as
  /// soon as its marshaled payload reaches this many bytes, even when the
  /// RMI count is still below `aggregation` — large payloads should not
  /// sit in the buffer waiting for company.
  std::size_t agg_max_bytes = 4096;
  /// Per-sender sequence numbers + receiver-side duplicate suppression on
  /// queued delivery (exactly-once under duplication/reordering).  Latched
  /// on whenever the fault layer is armed; off by default because the
  /// in-process transport never duplicates.
  bool sequenced_delivery = false;
  /// Hard bound on the deferred-retry queue (parked requests whose target
  /// has not registered yet).  Growth past this means a registration will
  /// never arrive — the watchdog dumps and the debug build asserts instead
  /// of letting the queue grow silently.
  std::size_t max_deferred = std::size_t{1} << 20;
};

/// Per-location communication statistics (performance monitor).
struct location_stats {
  std::uint64_t rmis_sent = 0;      ///< RMIs issued to remote locations
  std::uint64_t rmis_executed = 0;  ///< incoming RMIs executed here
  std::uint64_t local_rmis = 0;     ///< RMIs resolved locally (inline)
  std::uint64_t msgs_sent = 0;      ///< aggregated network messages sent
  std::uint64_t sync_rmis = 0;      ///< synchronous round trips
  std::uint64_t fences = 0;         ///< rmi_fence invocations
  std::uint64_t rmi_bytes = 0;      ///< marshaled payload bytes of sent RMIs
  std::uint64_t msg_bytes = 0;      ///< payload bytes of flushed messages
  std::uint64_t coll_ops = 0;       ///< tree-path collective operations
  std::uint64_t coll_rounds = 0;    ///< communication rounds across tree ops
  std::uint64_t coll_depth = 0;     ///< deepest tree seen (gauge, max-merged)
  std::uint64_t coll_flat = 0;      ///< collectives on the flat fallback
  std::uint64_t agg_batches = 0;    ///< flushed messages carrying >1 RMI
  std::uint64_t agg_batch_bytes = 0; ///< payload bytes of those batches
  std::uint64_t inbox_depth = 0;    ///< deepest inbox seen (gauge, max-merged)
  std::uint64_t deferred_hw = 0;    ///< deepest deferred queue (gauge)
};

namespace runtime_detail {

/// A queued RMI request.  Returns false when the target object has not yet
/// been registered on this location (SPMD construction skew), or — for
/// directory-forwarded work — when resolution metadata is still in flight;
/// the message is then deferred and retried on the next poll.
using request = std::function<bool()>;

/// Deadline-aware backoff for every blocking wait of the RTS.  Starts with
/// a cheap profile (64 yields, then 50us naps) so uncontended
/// waits cost the same; a wait that keeps not progressing escalates the nap
/// x2 every 16 sleeps (capped at 500us) with per-waiter jitter so a herd of
/// blocked locations does not re-probe in lockstep.  Each escalation counts
/// as a bounded retry in robust.retries, and once the accumulated napped
/// time passes the watchdog deadline the wait dumps diagnostics naming
/// itself (`what`) instead of spinning silently — every converted wait loop
/// gets hang coverage for free.  Progress resets the profile.
class deadline_backoff {
 public:
  explicit deadline_backoff(char const* what) noexcept : m_what(what) {}

  void pause() noexcept
  {
    auto& idle = metrics::idle();
    if (m_spins++ < 64) {
      idle.spins += 1;
      std::this_thread::yield();
      return;
    }
    unsigned const j = (m_jitter = m_jitter * 1103515245u + 12345u) >> 28;
    unsigned const nap = m_sleep_us + (m_sleep_us / 8) * (j % 5); // <= +50%
    idle.sleeps += 1;
    idle.nap_us += nap;
    std::this_thread::sleep_for(std::chrono::microseconds(nap));
    m_napped_us += nap;
    if (++m_sleeps_at_tier >= 16 && m_sleep_us < 500) {
      m_sleep_us = std::min(500u, m_sleep_us * 2);
      m_sleeps_at_tier = 0;
      robust::tl().retries += 1;
    }
    std::uint64_t const wd = fault::watchdog_ms();
    if (wd != 0 && m_napped_us > wd * 1000) {
      fault::watchdog_fire(m_what);
      m_napped_us = 0; // re-arm: a still-stuck wait dumps again next deadline
    }
  }

  void reset() noexcept
  {
    m_spins = 0;
    m_sleep_us = 50;
    m_sleeps_at_tier = 0;
    m_napped_us = 0;
  }

 private:
  char const* m_what;
  unsigned m_spins = 0;
  unsigned m_sleep_us = 50;
  unsigned m_sleeps_at_tier = 0;
  std::uint64_t m_napped_us = 0;
  unsigned m_jitter = static_cast<unsigned>(
      reinterpret_cast<std::uintptr_t>(this)); // per-waiter LCG seed
};

/// Sense-reversing barrier across all locations of the execution.  `arrive`
/// and `passed` are split so callers can drive communication progress while
/// waiting (a blocked sync_rmi peer must be serviced even from a barrier).
class spmd_barrier {
 public:
  explicit spmd_barrier(unsigned n) noexcept : m_n(n) {}

  /// Registers arrival; returns the generation token to wait on.
  [[nodiscard]] unsigned arrive() noexcept
  {
    unsigned const gen = m_generation.load(std::memory_order_acquire);
    if (m_count.fetch_add(1, std::memory_order_acq_rel) + 1 == m_n) {
      m_count.store(0, std::memory_order_relaxed);
      m_generation.fetch_add(1, std::memory_order_release);
    }
    return gen;
  }

  [[nodiscard]] bool passed(unsigned gen) const noexcept
  {
    return m_generation.load(std::memory_order_acquire) != gen;
  }

  void arrive_and_wait() noexcept
  {
    unsigned const gen = arrive();
    deadline_backoff bo("rmi.barrier");
    while (!passed(gen))
      bo.pause();
  }

 private:
  unsigned const m_n;
  std::atomic<unsigned> m_count{0};
  std::atomic<unsigned> m_generation{0};
};

/// FIFO inbox of one location.  A single queue per destination preserves
/// per-source program order (each source enqueues in program order).
/// An atomic element count lets the owner's poll loop skip the mutex when
/// the inbox is empty — polling is the fabric of every wait loop, so the
/// empty probe must not serialize against concurrent senders.
class inbox {
 public:
  void push(request r)
  {
    std::lock_guard lock(m_mutex);
    m_queue.push_back(std::move(r));
    m_count.fetch_add(1, std::memory_order_release);
  }

  void push_batch(std::vector<request>&& batch)
  {
    std::lock_guard lock(m_mutex);
    for (auto& r : batch)
      m_queue.push_back(std::move(r));
    m_count.fetch_add(batch.size(), std::memory_order_release);
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
  mutable std::mutex m_mutex;
  std::deque<request> m_queue;
  std::atomic<std::size_t> m_count{0};
};

/// Registry of p_object representatives on one location.
class object_registry {
 public:
  void insert(rmi_handle h, void* p)
  {
    std::lock_guard lock(m_mutex);
    m_objects[h] = p;
  }

  void erase(rmi_handle h)
  {
    std::lock_guard lock(m_mutex);
    m_objects.erase(h);
  }

  [[nodiscard]] void* lookup(rmi_handle h) const
  {
    std::lock_guard lock(m_mutex);
    auto it = m_objects.find(h);
    return it == m_objects.end() ? nullptr : it->second;
  }

 private:
  mutable std::mutex m_mutex;
  std::unordered_map<rmi_handle, void*> m_objects;
};

/// One slot of the tree-collective cell array (see collectives.hpp).  A
/// publisher stores a pointer to its local data and then the operation
/// token into `seq` (release); the single designated reader spins on `seq`,
/// copies the data out, and stores the token into `ack` — only then may the
/// publisher reuse or destroy the pointed-to data.  Tokens are the
/// per-location count of tree collectives, identical on every location by
/// SPMD order, so a cell never needs resetting between operations.
struct alignas(64) coll_cell {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> ack{0};
  void const* data = nullptr;
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
  inbox in;
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
  location_stats stats;
  /// Fence termination counters: RMIs this location sent (self-posts and
  /// injected duplicates included) and executed.  Only the owner writes
  /// them; metrics::reset_all never resets them.  rmi_fence sums them
  /// across locations while every location waits in a barrier.
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> executed{0};
  /// scratch slot for collective operations (flat value-exchange protocol)
  void const* slot = nullptr;
  /// tree-collective cells: index 0 is the remainder pre-fold, 1+r is
  /// doubling/binomial round r (masks fit 32 rounds), the last is the
  /// remainder post-fold
  static constexpr unsigned num_coll_cells = 40;
  coll_cell cells[num_coll_cells];
  /// count of tree collectives entered (the cell-protocol token)
  std::uint64_t coll_token = 0;
};

class runtime_impl {
 public:
  explicit runtime_impl(runtime_config cfg)
      : m_cfg(cfg), m_barrier(cfg.num_locations), m_locs(cfg.num_locations)
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
    m_sequenced = cfg.sequenced_delivery || fault::armed();
  }

  /// Whether queued delivery carries per-sender sequence numbers with
  /// receiver-side duplicate suppression (see runtime_config).
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
  spmd_barrier m_barrier;
  std::vector<std::unique_ptr<location_state>> m_locs;
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
  self.stats.msgs_sent += 1;
  self.stats.msg_bytes += self.agg_bytes[d];
  if (buf.size() > 1) {
    // A coalesced message: several RMIs paid one delivery.
    self.stats.agg_batches += 1;
    self.stats.agg_batch_bytes += self.agg_bytes[d];
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

/// Executes one round of incoming requests; returns true if any executed.
inline bool poll_once()
{
  auto& self = rt().loc(tl_location);
  STAPL_FAULT_POINT(fault::site::rmi_poll); // straggler nap
  flush_aggregation();

  // Release held (delay-injected) messages whose ttl expired.  Poll count
  // is logical time: deterministic, and fence rounds keep polling, so every
  // held message is eventually delivered.
  if (!self.held.empty()) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < self.held.size(); ++i) {
      if (--self.held[i].ttl_polls == 0) {
        self.stats.msgs_sent += 1;
        self.stats.msg_bytes += self.held[i].bytes;
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
        self.stats.rmis_executed += 1;
        STAPL_TRACE(trace::event_kind::rmi_execute);
        count_one(self.executed);
      } else {
        still.push_back(std::move(r));
      }
    }
    self.deferred = std::move(still);
  }

  if (std::size_t const depth = self.in.size();
      depth > self.stats.inbox_depth)
    self.stats.inbox_depth = depth;

  request r;
  while (self.in.pop(r)) {
    if (r()) {
      progressed = true;
      self.stats.rmis_executed += 1;
      STAPL_TRACE(trace::event_kind::rmi_execute);
      count_one(self.executed);
    } else {
      self.deferred.push_back(std::move(r));
    }
  }

  std::size_t const parked = self.deferred.size();
  self.deferred_depth.store(static_cast<std::uint32_t>(parked),
                            std::memory_order_relaxed);
  if (parked > self.stats.deferred_hw) {
    self.stats.deferred_hw = parked;
    if (parked > rt().config().max_deferred) {
      // Parked requests wait for a registration; past the bound that
      // registration is never coming.  Dump once per crossing, then trap
      // in debug builds rather than grow silently.
      fault::watchdog_fire("rmi.deferred_bound");
      assert(false && "deferred-retry queue exceeded max_deferred");
    }
  }
  return progressed;
}

/// The polling wait loop of the RTS: drives communication progress until
/// `done()` holds, backing off while polls find no work.  `what` names the
/// wait in watchdog dumps.  Barriers, futures, sync replies and collective
/// cells all wait here, so a wake-on-arrival wait replaces one loop.
template <typename Done>
void poll_until(char const* what, Done done)
{
  deadline_backoff bo(what);
  while (!done()) {
    if (poll_once())
      bo.reset();
    else
      bo.pause();
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
  self.stats.rmis_sent += 1;
  self.stats.rmi_bytes += bytes;
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
        robust::tl().dups_suppressed += 1;
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
    self.stats.rmis_sent += 1;
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
      self.agg_bytes[dest] >= rt().config().agg_max_bytes)
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
  runtime_detail::rt().loc(this_location()).stats.local_rmis += 1;
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
  self.stats.rmis_sent += 1;
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

/// Barrier that keeps servicing incoming RMIs while waiting, so a peer
/// blocked on a synchronous response from this location cannot deadlock the
/// collective.
inline void polling_barrier_wait()
{
  auto& b = rt().barrier();
  unsigned const gen = b.arrive();
  poll_until("rmi.barrier", [&] { return b.passed(gen); });
}

} // namespace runtime_detail

/// Collective synchronization: returns once every location has entered the
/// fence and no pending RMI remains in the system (termination detection).
void rmi_fence();

/// Barrier without the termination-detection drain (still polls).
inline void location_barrier()
{
  runtime_detail::polling_barrier_wait();
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
    runtime_detail::poll_until("rmi.future", [this] {
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
    auto& self = rt().loc(dest);
    self.stats.local_rmis += 1;
    Obj* o = static_cast<Obj*>(self.registry.lookup(h));
    assert(o != nullptr && "async_rmi: local object not registered");
    std::invoke(f, *o, std::move(args)...);
    return;
  }
  queued_rmi<Obj>(dest, h, std::move(f), std::move(args)...);
}

/// Synchronous RMI: executes `f` on the destination representative and
/// blocks (driving progress) until the result is available.
template <typename Obj, typename F, typename... Args>
[[nodiscard]] auto sync_rmi(location_id dest, rmi_handle h, F f, Args... args)
{
  using namespace runtime_detail;
  using R = decltype(std::invoke(f, std::declval<Obj&>(), args...));

  if (dest == this_location()) {
    auto& self = rt().loc(dest);
    self.stats.local_rmis += 1;
    Obj* o = static_cast<Obj*>(self.registry.lookup(h));
    assert(o != nullptr && "sync_rmi: local object not registered");
    return std::invoke(f, *o, std::move(args)...);
  }

  // Remote round trip from here on — the tail-latency-relevant part.
  latency::timed_op lat_scope(latency::op::rmi_sync);

  struct sync_state {
    std::atomic<bool> done{false};
    std::optional<R> value;
  } st;

  rt().loc(this_location()).stats.sync_rmis += 1;
  std::size_t const bytes = wire_size(f, args...);
  enqueue_remote(dest,
                 [dest, h, &st, f = std::move(f),
                  tup = std::make_tuple(std::move(args)...)]() mutable -> bool {
                   void* p = rt().loc(dest).registry.lookup(h);
                   if (p == nullptr)
                     return false;
                   st.value.emplace(apply_on(*static_cast<Obj*>(p), f, tup));
                   st.done.store(true, std::memory_order_release);
                   return true;
                 },
                 bytes);
  runtime_detail::flush_aggregation();
  runtime_detail::poll_until(
      "rmi.sync", [&st] { return st.done.load(std::memory_order_acquire); });
  return std::move(*st.value);
}

/// Split-phase RMI (Ch. V.B): returns a future immediately; the invocation
/// executes asynchronously and fulfils the future.  `future.get()` blocks
/// until the acknowledgment arrives, at the latest at the next fence.
template <typename Obj, typename F, typename... Args>
[[nodiscard]] auto opaque_rmi(location_id dest, rmi_handle h, F f, Args... args)
{
  using namespace runtime_detail;
  using R = decltype(std::invoke(f, std::declval<Obj&>(), args...));
  auto st = std::make_shared<typename pc_future<R>::state>();

  if (dest == this_location()) {
    auto& self = rt().loc(dest);
    self.stats.local_rmis += 1;
    Obj* o = static_cast<Obj*>(self.registry.lookup(h));
    assert(o != nullptr && "opaque_rmi: local object not registered");
    st->value.emplace(std::invoke(f, *o, std::move(args)...));
    st->ready.store(true, std::memory_order_release);
    return pc_future<R>(st);
  }

  std::size_t const bytes = wire_size(f, args...);
  enqueue_remote(dest,
                 [dest, h, st, f = std::move(f),
                  tup = std::make_tuple(std::move(args)...)]() mutable -> bool {
                   void* p = rt().loc(dest).registry.lookup(h);
                   if (p == nullptr)
                     return false;
                   st->value.emplace(apply_on(*static_cast<Obj*>(p), f, tup));
                   st->ready.store(true, std::memory_order_release);
                   return true;
                 },
                 bytes);
  return pc_future<R>(st);
}

// ---------------------------------------------------------------------------
// Collective operations (Ch. III.B) — flat value-exchange protocol
// ---------------------------------------------------------------------------
//
// `exchange` is the O(P)-reads-per-participant protocol: every location
// publishes a pointer, a barrier makes all pointers visible, everyone reads
// what it needs, and a second barrier releases the slots.  It remains the
// small-P fallback and the basis of exclusive_scan; the public allreduce /
// broadcast / reduce / allgather dispatchers live in collectives.hpp
// (included at the bottom of this header) and switch between this protocol
// and the tree engine.

namespace runtime_detail {

/// Value-exchange protocol (see above).  Note the two barriers make every
/// flat collective a location barrier as a side effect; the tree
/// collectives deliberately do not provide that — no caller relies on it.
template <typename T, typename Reader>
void exchange(T const& mine, Reader reader)
{
  auto& self = rt().loc(tl_location);
  self.slot = &mine;
  polling_barrier_wait();
  reader();
  polling_barrier_wait();
  self.slot = nullptr;
}

/// Flat all-reduce.  Folds all P slots in rank order 0..P-1 on every
/// location, so the result is identical everywhere and agrees with the
/// tree engine even for non-commutative associative operators (the
/// recursive-doubling combine preserves rank order) — auto-select mode
/// never changes an answer by switching engines.
template <typename T, typename BinaryOp>
[[nodiscard]] T flat_allreduce(T const& value, BinaryOp op)
{
  T result = value;
  exchange(value, [&] {
    result = *static_cast<T const*>(rt().loc(0).slot);
    for (location_id l = 1; l < rt().num_locations(); ++l)
      result = op(std::move(result),
                  *static_cast<T const*>(rt().loc(l).slot));
  });
  return result;
}

/// Flat broadcast from `root`.
template <typename T>
[[nodiscard]] T flat_broadcast(location_id root, T const& value)
{
  T result{};
  exchange(value, [&] {
    result = *static_cast<T const*>(rt().loc(root).slot);
  });
  return result;
}

/// Flat reduce-to-root.  Folds in rank order rotated to start at `root`
/// (matching the binomial tree's combine order, so flat and tree agree
/// even for non-commutative associative operators).
template <typename T, typename BinaryOp>
[[nodiscard]] T flat_reduce(location_id root, T const& value, BinaryOp op)
{
  T result = value;
  exchange(value, [&] {
    if (tl_location != root)
      return;
    unsigned const p = rt().num_locations();
    result = *static_cast<T const*>(rt().loc(root).slot);
    for (unsigned i = 1; i < p; ++i) {
      location_id const l = (root + i) % p;
      result = op(result, *static_cast<T const*>(rt().loc(l).slot));
    }
  });
  return result;
}

/// Flat allgather.
template <typename T>
[[nodiscard]] std::vector<T> flat_allgather(T const& value)
{
  std::vector<T> result(rt().num_locations());
  exchange(value, [&] {
    for (location_id l = 0; l < rt().num_locations(); ++l)
      result[l] = *static_cast<T const*>(rt().loc(l).slot);
  });
  return result;
}

} // namespace runtime_detail

/// Exclusive prefix over location ids: location i receives
/// op(value_0, ..., value_{i-1}); location 0 receives `identity`.  Stays on
/// the flat protocol: every location reads every lower rank's value anyway,
/// so a tree saves nothing.
template <typename T, typename BinaryOp>
[[nodiscard]] T exclusive_scan(T const& value, BinaryOp op, T identity)
{
  using namespace runtime_detail;
  T result = identity;
  exchange(value, [&] {
    for (location_id l = 0; l < tl_location; ++l)
      result = op(result, *static_cast<T const*>(rt().loc(l).slot));
  });
  return result;
}

} // namespace stapl

// Tree-structured collectives layer: the public allreduce / broadcast /
// reduce / allgather dispatchers plus the global metrics/latency merges.
// Included last so it can use every runtime primitive above; its include
// guard makes either inclusion order work.
#include "collectives.hpp"

#endif
