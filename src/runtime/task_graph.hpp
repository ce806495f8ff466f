#ifndef STAPL_RUNTIME_TASK_GRAPH_HPP
#define STAPL_RUNTIME_TASK_GRAPH_HPP

// PARAGRAPH-style task-graph executor (dissertation Ch. III / Ch. VII): a
// pAlgorithm is a graph of *coarsened* tasks — one task per bView chunk, not
// one per location — with value-carrying dependence edges, run by a
// distributed executor with cross-location work stealing.
//
// Model
// -----
// The graph *descriptor* (task ids, owners, dependence edges, work
// functions) is replicated: every location adds the same tasks and edges in
// the same order, SPMD style.  What is NOT replicated is each task's
// *payload* (e.g. the GIDs of the chunk it processes): only the owner knows
// it.  This split is what makes stealing cheap — execution rights plus the
// payload travel in one message; the closure is already everywhere.
//
// The same split governs the spawn path.  Stealable chunk factories
// replicate only the chunk_wire metadata (owner, cached-at, digest
// bounds, byte/element counts — runtime/locality.hpp); GID payloads are
// run-length encoded (gid_sequence) and never replicated.  When a
// repartitioning view's chunk is produced on a location other than its
// owner, the producer forwards the payload point-to-point
// (forward_payload -> handle_payload) and the owner holds the task back
// from its ready queue until the payload lands.  task_graph_stats counts
// the spawn traffic (spawn_bytes, payload_forwards) so the metadata-only
// exchange stays observable.
//
// Value-carrying dependences
// --------------------------
// A task computes `E work(inputs, payload)`.  Its result is delivered to
// every successor's owner (slot order == add_dependence order), so
// tree-reduce and scan factories chain partial results through the graph
// instead of allgather+fence between phases.  Delivery reuses the
// pc_future-style state machine: values land in per-task input slots and
// the task becomes ready when the last slot fills.
//
// Work stealing
// -------------
// A task marked `stealable` (locality-free work, or a read-only chunk whose
// element accesses route through the shared-object view) may execute on any
// location.  An idle location asks a victim for work; victims are ranked by
// the locality metadata of the replicated descriptor (steal_victim_order in
// runtime/locality.hpp): peers owning stealable chunks annotated cached-at
// this location come first, then descending owned-task count.  A probe
// sticks to its victim while grants keep coming and advances on a nack.
// The victim grants the back *half* of its stealable ready tail in one
// message (steal-half): each granted task ships (task id, input values,
// payload) together, so a drained location rebalances in O(log) probes
// instead of one round trip per task.  The thief runs its own replica of
// the closure, delivers successor values itself, and sends the result back
// to the owner, which keeps the authoritative completion record (including
// *where* the task ran — the placement feedback consumed by
// lost_events()).  Non-stealable tasks never leave their owner.
//
// Termination
// -----------
// When a location's owned tasks are all complete it tells location 0; when
// all locations have quiesced, location 0 broadcasts done.  Locations keep
// stealing until the done flag arrives, and the trailing rmi_fence —
// the existing system-wide termination detection — drains every straggler
// (late steal requests, nacks, value deliveries), so the fence the
// executor already needed doubles as the steal-protocol shutdown.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "locality.hpp"
#include "runtime.hpp"

namespace stapl {

/// Per-task scheduling options.  The locality fields are part of the
/// *replicated* descriptor (every location passes the same values), so the
/// executor can rank steal victims and report placement without touching
/// the owner-only payload.
struct task_options {
  /// True when the task may execute on any location: its work either
  /// touches no storage (locality-free) or reaches elements through the
  /// shared-object view, which routes correctly from anywhere.
  bool stealable = false;
  /// Peer believed to hold the task's chunk warm (chunk_descriptor hint);
  /// that location ranks the owner first among its steal victims.
  location_id cached_at = invalid_location;
  /// GID-digest range of the task's chunk (valid when has_digest): the
  /// coordinates of placement feedback (lost_events()).
  std::uint64_t digest_lo = 0;
  std::uint64_t digest_hi = 0;
  bool has_digest = false;
  /// Relative work estimate (the chunk descriptor's byte estimate, or any
  /// caller-chosen unit; 0 = unknown, counted as 1).  Steal-half grants
  /// split the ready tail by this weight, not by task count, so one huge
  /// chunk is not traded as if it equalled a tiny one.
  std::uint64_t weight = 0;
  /// True when the owner's payload arrives by a point-to-point
  /// forward_payload instead of add_task (a chunk produced on a location
  /// other than its owner).  Replicated like the rest of the options —
  /// every location passes owner != producer — but only the owner acts on
  /// it: the task stays out of the ready queue until handle_payload.
  bool payload_pending = false;
};

/// A distributed graph of coarsened tasks with value-carrying dependence
/// edges.  Construction is collective and replicated: every location adds
/// the same tasks and edges in the same order; each task's payload is
/// supplied by its owner only.  `E` is the dependence-edge value type
/// (default-constructible); `P` the owner-local payload type.
template <typename E, typename P = char>
class task_graph : public p_object {
 public:
  using task_id = std::size_t;
  using value_type = E;
  using payload_type = P;
  /// inputs arrive in add_dependence order; payload is the owner's (or the
  /// granted copy on a thief).
  using work_fn = std::function<E(std::vector<E> const&, P const&)>;

  task_graph()
      : m_metrics_id(metrics::register_contributor(
            [this](metrics::counter_map& m) {
              std::lock_guard lock(m_mutex);
              m["tg.tasks_run"] += m_stats.tasks_run;
              m["tg.tasks_stolen"] += m_stats.tasks_stolen;
              m["tg.tasks_lost"] += m_stats.tasks_lost;
              m["tg.steal_grants"] += m_stats.steal_grants;
              m["tg.steal_fail"] += m_stats.steal_fail;
              m["tg.values_sent"] += m_stats.values_sent;
              m["tg.spawn_bytes"] += m_stats.spawn_bytes;
              m["tg.payload_forwards"] += m_stats.payload_forwards;
            },
            [this] {
              std::lock_guard lock(m_mutex);
              m_stats = {};
            }))
  {}

  ~task_graph() override { metrics::unregister_contributor(m_metrics_id); }

  /// Adds a task owned by `owner`.  `payload` matters on the owner only.
  task_id add_task(location_id owner, work_fn work, P payload = P{},
                   task_options opts = {})
  {
    std::lock_guard lock(m_mutex);
    assert(!m_started && "graph is frozen once execute() begins");
    task_id const id = m_tasks.size();
    task tk;
    tk.work = std::move(work);
    tk.payload = std::move(payload);
    tk.owner = owner;
    tk.opts = opts;
    tk.awaiting_payload = opts.payload_pending;
    m_tasks.push_back(std::move(tk));
    if (opts.stealable)
      m_has_stealable = true;
    return id;
  }

  /// Producer-side half of the payload split: ships task `t`'s GID
  /// payload to its owner (the repartitioning-view case where the chunk
  /// was produced on a location that does not store it).  Call between
  /// add_task (with opts.payload_pending) and execute(); the owner holds
  /// the task until the payload lands.  Counts the packed payload bytes
  /// as spawn traffic.
  void forward_payload(task_id t, P payload)
  {
    location_id owner;
    {
      std::lock_guard lock(m_mutex);
      assert(t < m_tasks.size());
      assert(!m_started && "payloads are forwarded at spawn time");
      owner = m_tasks[t].owner;
      m_stats.payload_forwards += 1;
      std::size_t const bytes = packed_size(payload);
      m_stats.spawn_bytes += bytes;
      STAPL_TRACE(trace::event_kind::payload_forward, bytes);
    }
    assert(owner != this->get_location_id() &&
           "a local owner takes its payload through add_task");
    STAPL_FAULT_POINT(fault::site::tg_payload);
    async_rmi<task_graph>(owner, this->get_handle(),
                          &task_graph::handle_payload, t, std::move(payload));
  }

  /// Records spawn-path bytes this location shipped (the wire-form
  /// descriptor exchange of the chunk factories).
  void note_spawn_bytes(std::uint64_t n)
  {
    std::lock_guard lock(m_mutex);
    m_stats.spawn_bytes += n;
  }

  /// Declares that `succ` consumes `pred`'s value (as its next input slot).
  void add_dependence(task_id pred, task_id succ)
  {
    std::lock_guard lock(m_mutex);
    assert(pred < m_tasks.size() && succ < m_tasks.size());
    assert(!m_started && "graph is frozen once execute() begins");
    auto const slot = static_cast<std::uint32_t>(m_tasks[succ].n_inputs++);
    m_tasks[pred].succ_slots.emplace_back(succ, slot);
  }

  /// Enables/disables stealing for this graph (default on; call
  /// SPMD-consistently before execute()).
  void set_stealing(bool enable) noexcept { m_steal_enabled = enable; }

  [[nodiscard]] std::size_t num_tasks() const
  {
    std::lock_guard lock(m_mutex);
    return m_tasks.size();
  }

  /// True once the task completed (authoritative on the owner).
  [[nodiscard]] bool task_done(task_id t) const
  {
    std::lock_guard lock(m_mutex);
    return m_tasks[t].done;
  }

  /// Result value of a locally owned, completed task (valid after
  /// execute(); completion records carry the value home from thieves).
  [[nodiscard]] E const& result_of(task_id t) const
  {
    std::lock_guard lock(m_mutex);
    assert(m_tasks[t].owner == this->get_location_id() && m_tasks[t].done);
    return m_tasks[t].value;
  }

  [[nodiscard]] task_graph_stats const& stats() const noexcept
  {
    return m_stats;
  }

  /// One placement observation: an owned chunk task (with a GID digest)
  /// that completed on another location — its data is warm there now.
  struct placement_event {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    location_id ran_at = invalid_location;
  };

  /// Where this location's chunk tasks actually ran (valid after
  /// execute()): one event per owned, digest-carrying task that a thief
  /// executed.  Factories feed these back into the container's chunk
  /// affinity table, which stamps the next graph's cached_at hints.
  [[nodiscard]] std::vector<placement_event> lost_events() const
  {
    std::lock_guard lock(m_mutex);
    std::vector<placement_event> out;
    for (task const& tk : m_tasks) {
      if (tk.owner != this->get_location_id() || !tk.done)
        continue;
      if (!tk.opts.has_digest || tk.ran_at == invalid_location ||
          tk.ran_at == tk.owner)
        continue;
      out.push_back({tk.opts.digest_lo, tk.opts.digest_hi, tk.ran_at});
    }
    return out;
  }

  /// Runs the graph to completion.  Collective; one-shot; ends with a
  /// fence.  Task work functions may invoke element methods (including
  /// synchronous ones — the executor polls) but must not fence.
  ///
  /// Two schedules, chosen from the (replicated) descriptor:
  ///  * local drain — no stealable task exists, so tasks only ever run on
  ///    their owner: each location drains its own ready queue, polling
  ///    for dependence values while stalled, and the trailing fence
  ///    completes the graph.  No termination-protocol traffic at all.
  ///  * steal mode — locations keep scheduling until the done broadcast:
  ///    they poll between tasks (so a busy victim grants steals
  ///    mid-stream) and probe victims while idle.
  void execute() { execute_impl(true); }

  /// Local-drain variant for *pure-read* factories: returns as soon as
  /// this location's tasks are done, without the trailing fence (outgoing
  /// dependence values are flushed so peers' polls retrieve them).  Only
  /// meaningful for graphs with no stealable tasks whose work performs no
  /// writes that later phases must observe; steal-mode graphs always
  /// fence.  Every message of the graph is addressed to a task that must
  /// complete before its owner exits, so no straggler can outlive the
  /// graph object.
  void execute_drain_only() { execute_impl(false); }

 private:
  void execute_impl(bool with_fence)
  {
    trace::trace_scope phase_scope(trace::event_kind::tg_execute);
    seed();
    runtime_detail::deadline_backoff bo("tg.execute");
    if (!m_steal_mode) {
      while (m_local_remaining != 0) {
        if (run_one()) {
          bo.reset();
          continue;
        }
        if (runtime_detail::poll_once()) {
          bo.reset();
          continue;
        }
        bo.pause();
      }
      if (with_fence)
        rmi_fence();
      else
        runtime_detail::flush_aggregation();
      return;
    }
    unsigned idle_rounds = 0;
    while (!m_done.load(std::memory_order_acquire)) {
      // Poll before each task so a busy victim services steal requests
      // and value deliveries between chunks, not only when it runs dry.
      bool const progressed = runtime_detail::poll_once();
      if (run_one() || progressed) {
        bo.reset();
        idle_rounds = 0;
        continue;
      }
      ++idle_rounds;
      maybe_steal(idle_rounds);
      if (m_steal_inflight.load(std::memory_order_acquire)) {
        // A probe is on the wire: the answer needs the *victim* to get
        // CPU time (it services probes between chunks).  Napping outright
        // beats the backoff's yield phase, which on an oversubscribed
        // host burns the very cycles the victim's wakeup is waiting for.
        metrics::idle().sleeps += 1;
        metrics::idle().nap_us += 50;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        std::uint64_t const to = robust::probe_timeout_us();
        if (to != 0 && std::chrono::steady_clock::now() - m_probe_sent >
                           std::chrono::microseconds(to))
          on_probe_timeout();
        continue;
      }
      bool drained = false;
      {
        std::lock_guard lock(m_mutex);
        drained = !m_victims.empty() && m_fail_streak >= m_victims.size();
      }
      if (drained) {
        // Every victim just nacked: the system is drained (or one long
        // dependence chain is finishing elsewhere).  Sleep a poll
        // interval instead of lock-churning — stragglers land in the
        // inbox and are picked up at the next wake.
        metrics::idle().sleeps += 1;
        metrics::idle().nap_us += 200;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      bo.pause();
    }
    rmi_fence();
  }

 public:
  // -------------------------------------------------------------------------
  // Message handlers (public: executed on remote representatives via ARMI)
  // -------------------------------------------------------------------------

  /// At the successor's owner: one input value arrived.  A fast peer may
  /// deliver before this location finished building its replica (a poll
  /// inside the spawn-time allgather runs the handler before seed()); such
  /// values park in m_early until seed().
  void handle_value(task_id t, std::uint32_t slot, E v)
  {
    std::lock_guard lock(m_mutex);
    if (!m_started && t >= m_tasks.size()) {
      m_early.emplace_back(t, slot, std::move(v));
      return;
    }
    deliver_locked(t, slot, std::move(v));
  }

  /// At the owner: a producer forwarded the payload of our task `t`.
  /// Like handle_value, a fast peer may deliver before this location
  /// finished building its replica; such payloads park until seed().
  void handle_payload(task_id t, P payload)
  {
    std::lock_guard lock(m_mutex);
    if (!m_started && t >= m_tasks.size()) {
      m_early_payloads.emplace_back(t, std::move(payload));
      return;
    }
    accept_payload_locked(t, std::move(payload));
  }

  /// At the owner: `ran_at` finished our task; record result and placement.
  void handle_complete(task_id t, E v, location_id ran_at)
  {
    bool quiesced = false;
    {
      std::lock_guard lock(m_mutex);
      task& tk = m_tasks[t];
      assert(!tk.done);
      tk.done = true;
      tk.value = std::move(v);
      tk.ran_at = ran_at;
      m_stats.tasks_lost += 1;
      quiesced = (--m_local_remaining == 0);
    }
    if (quiesced)
      send_quiesced();
  }

  /// One granted task on the wire: execution rights, buffered inputs and
  /// the owner's payload travel together (the closure is replicated).
  struct stolen_task {
    task_id id = 0;
    std::vector<E> inputs;
    P payload{};

    /// Marshalable whenever the edge-value and payload types are, so the
    /// byte counters price a steal grant at its real wire footprint.
    void define_type(typer& t)
      requires(wire_measurable_v<E> && wire_measurable_v<P>)
    {
      t.member(id);
      t.member(inputs);
      t.member(payload);
    }
  };

  /// At a victim: `thief` wants work, carrying the weight of its own
  /// current ready backlog.  Steal-half: grant the back half of the
  /// stealable ready tail in one message, not one task per probe — a
  /// loaded victim sheds its backlog in O(log backlog) round trips.  The
  /// half is measured in task *weight* (the chunk descriptors' byte
  /// estimates) when the graph carries it, so a huge chunk is not traded
  /// as if it equalled a tiny one; weightless graphs split by count.
  /// The grant is capped by steal_grant_cap so a thief that still holds
  /// work cannot hoard more weight than the victim keeps (probes are
  /// normally sent idle-handed, but value deliveries can refill the
  /// thief while its probe is on the wire).
  void handle_steal_request(location_id thief, std::uint64_t thief_backlog)
  {
    // An injected grant-buffer allocation failure degrades to a nack: the
    // thief moves on, the victim keeps its backlog (act_stall naps here,
    // turning this victim into the straggler the probe-timeout detector
    // is aimed at).
    auto const fo = STAPL_FAULT(fault::site::tg_steal);
    bool const alloc_failed = (fo.actions & fault::act_alloc_fail) != 0;
    std::vector<stolen_task> grants;
    if (!alloc_failed) {
      std::lock_guard lock(m_mutex);
      std::vector<std::size_t> stealable;
      std::uint64_t avail_w = 0;
      for (std::size_t i = 0; i < m_ready.size(); ++i)
        if (!m_ready[i].stolen && m_tasks[m_ready[i].id].opts.stealable) {
          stealable.push_back(i);
          std::uint64_t const w = m_tasks[m_ready[i].id].opts.weight;
          avail_w += w == 0 ? 1 : w;
        }
      // Longest tail suffix whose weight stays within the hoarding cap.
      // Only an idle-handed thief gets the first task unconditionally
      // (the classic at-least-one floor); a loaded thief is capped
      // strictly, so one huge chunk cannot smuggle more weight past the
      // guard than the victim keeps.
      std::uint64_t const cap = steal_grant_cap(avail_w, thief_backlog);
      std::size_t take = 0;
      std::uint64_t granted_w = 0;
      for (std::size_t k = stealable.size(); cap != 0 && k != 0; --k) {
        std::uint64_t w =
            m_tasks[m_ready[stealable[k - 1]].id].opts.weight;
        w = w == 0 ? 1 : w;
        if ((take != 0 || thief_backlog != 0) && granted_w + w > cap)
          break;
        granted_w += w;
        take += 1;
      }
      if (take != 0) {
        // Grant the *tail* (the half farthest from being run here), in
        // queue order; compact the survivors front-to-back.
        std::size_t const first = stealable.size() - take;
        grants.reserve(take);
        for (std::size_t k = first; k < stealable.size(); ++k) {
          ready_item& item = m_ready[stealable[k]];
          task& tk = m_tasks[item.id];
          // Owned ready items keep their inputs in the task record; the
          // grant ships them (and the payload) to the thief.
          grants.push_back(stolen_task{item.id, std::move(tk.inputs),
                                       std::move(tk.payload)});
          item.granted = true;
        }
        std::deque<ready_item> keep;
        for (auto& item : m_ready)
          if (!item.granted)
            keep.push_back(std::move(item));
        m_ready = std::move(keep);
      }
    }
    // Answers carry the victim's identity: a late answer can arrive after
    // the thief moved on to another victim, and the straggler detector
    // needs to know who answered to clear its strikes.
    location_id const victim = this->get_location_id();
    if (!grants.empty()) {
      async_rmi<task_graph>(thief, this->get_handle(),
                            &task_graph::handle_steal_grant,
                            std::move(grants), victim);
    } else {
      async_rmi<task_graph>(thief, this->get_handle(),
                            &task_graph::handle_steal_nack, victim);
    }
  }

  /// At the thief: granted tasks (each with its inputs and payload).
  void handle_steal_grant(std::vector<stolen_task> grants, location_id victim)
  {
    STAPL_TRACE(trace::event_kind::steal_grant, grants.size());
    note_victim_answered(victim);
    {
      std::lock_guard lock(m_mutex);
      m_stats.tasks_stolen += grants.size();
      m_stats.steal_grants += 1;
      for (auto& g : grants)
        m_ready.push_back(
            ready_item{g.id, true, false, std::move(g.inputs),
                       std::move(g.payload)});
      m_fail_streak = 0;
    }
    m_steal_inflight.store(false, std::memory_order_release);
  }

  /// At the thief: the victim had nothing stealable — move to the next
  /// victim in warmth order (a granting victim keeps being probed).
  void handle_steal_nack(location_id victim)
  {
    STAPL_TRACE(trace::event_kind::steal_nack);
    note_victim_answered(victim);
    {
      std::lock_guard lock(m_mutex);
      m_stats.steal_fail += 1;
      m_fail_streak += 1;
      m_victim_idx += 1;
    }
    m_steal_inflight.store(false, std::memory_order_release);
  }

  /// At location 0: one location's owned tasks all completed.
  void handle_quiesced()
  {
    if (++m_quiesced == this->get_num_locations())
      handle_done();
  }

  /// Everywhere: the whole graph completed; stop scheduling.  Completion
  /// fans out along a binomial tree rooted at location 0: each location
  /// relays to the ranks its subtree covers (id + 2^j for every 2^j below
  /// its own lowest set bit; all of them for location 0), so termination
  /// reaches P locations in ceil(log2 P) relay hops instead of P-1 sends
  /// from location 0.
  void handle_done()
  {
    if (m_done.exchange(true, std::memory_order_acq_rel))
      return;
    unsigned const p = this->get_num_locations();
    unsigned const v = this->get_location_id();
    unsigned limit = 1; // lowest set bit of v; past P for the root
    while (limit < p && (v & limit) == 0)
      limit <<= 1;
    for (unsigned m = limit >> 1; m != 0; m >>= 1) {
      if (v + m >= p)
        continue;
      async_rmi<task_graph>(v + m, this->get_handle(),
                            &task_graph::handle_done);
    }
  }

 private:
  struct task {
    work_fn work;
    P payload{};
    location_id owner = 0;
    task_options opts;
    /// (successor, input slot) pairs, in add_dependence order.
    std::vector<std::pair<task_id, std::uint32_t>> succ_slots;
    std::uint32_t n_inputs = 0;  ///< dependences declared on this replica
    std::uint32_t arrived = 0;   ///< input values delivered (owner side)
    std::vector<E> inputs;       ///< slot-indexed input values (owner side)
    E value{};                   ///< result (owner side, after completion)
    location_id ran_at = invalid_location;  ///< where it executed (owner side)
    bool queued = false;         ///< entered the ready queue
    bool done = false;           ///< completed (authoritative at owner)
    /// Owner side: a forwarded payload has not landed yet (gates the
    /// ready queue alongside the input slots).
    bool awaiting_payload = false;
  };

  struct ready_item {
    task_id id = 0;
    bool stolen = false;
    bool granted = false;   ///< scratch flag of the steal-half compaction
    std::vector<E> inputs;  ///< set for stolen items; owned items read the
                            ///< task record
    P payload{};            ///< set for stolen items
  };

  /// Requires m_mutex held.
  void deliver_locked(task_id t, std::uint32_t slot, E v)
  {
    assert(t < m_tasks.size());
    task& tk = m_tasks[t];
    if (tk.inputs.size() <= slot)
      tk.inputs.resize(slot + 1);
    tk.inputs[slot] = std::move(v);
    tk.arrived += 1;
    // Readiness is only decided once this location finished building its
    // replica (n_inputs is final then); seed() re-scans for early arrivals.
    if (m_started && tk.owner == this->get_location_id() &&
        tk.arrived == tk.n_inputs && !tk.awaiting_payload && !tk.queued) {
      tk.queued = true;
      m_ready.push_back(ready_item{t, false, false, {}, P{}});
    }
  }

  /// Requires m_mutex held.  Owner side of forward_payload: stores the
  /// payload and enqueues the task if it was only waiting on it.
  void accept_payload_locked(task_id t, P payload)
  {
    assert(t < m_tasks.size());
    task& tk = m_tasks[t];
    assert(tk.owner == this->get_location_id() &&
           "payload forwarded to a non-owner");
    tk.payload = std::move(payload);
    tk.awaiting_payload = false;
    if (m_started && tk.arrived == tk.n_inputs && !tk.queued) {
      tk.queued = true;
      m_ready.push_back(ready_item{t, false, false, {}, P{}});
    }
  }

  void seed()
  {
    bool quiesced = false;
    {
      std::lock_guard lock(m_mutex);
      assert(!m_started && "task_graph::execute() is one-shot");
      m_started = true;
      m_local_remaining = 0;
      for (auto& [t, slot, v] : m_early)
        deliver_locked(t, slot, std::move(v));
      m_early.clear();
      for (auto& [t, p] : m_early_payloads)
        accept_payload_locked(t, std::move(p));
      m_early_payloads.clear();
      for (task_id t = 0; t < m_tasks.size(); ++t) {
        task& tk = m_tasks[t];
        if (tk.owner != this->get_location_id())
          continue;
        m_local_remaining += 1;
        if (tk.arrived == tk.n_inputs && !tk.awaiting_payload &&
            !tk.queued) {
          tk.queued = true;
          m_ready.push_back(ready_item{t, false, false, {}, P{}});
        }
      }
      // Stealing needs the full protocol; a steal-free graph (the common
      // chunked-map default) runs in local-drain mode with no
      // termination traffic.  m_has_stealable is identical everywhere
      // when the descriptor is replicated, and local-only graphs never
      // mark tasks stealable, so the mode is SPMD-consistent.
      m_steal_mode = m_steal_enabled && m_has_stealable &&
                     this->get_num_locations() > 1;
      quiesced = m_steal_mode && m_local_remaining == 0;
      // Victim preference (locality-aware, from the replicated
      // descriptor): peers whose stealable chunks are annotated cached-at
      // this location first — stealing those re-touches data already warm
      // here — then descending owned-task count, ties toward lower id.
      if (m_steal_mode) {
        location_id const me = this->get_location_id();
        std::vector<std::size_t> owned(this->get_num_locations(), 0);
        std::vector<std::size_t> warmth(this->get_num_locations(), 0);
        for (auto const& tk : m_tasks) {
          owned[tk.owner] += 1;
          if (tk.opts.stealable && tk.opts.cached_at == me)
            warmth[tk.owner] += 1;
        }
        // Stragglers demoted in an earlier graph of this execution start
        // at the back of the order; a probe answer re-promotes them.
        m_victims = steal_victim_order(me, owned, warmth,
                                       robust::demoted_mask());
        m_strikes.assign(this->get_num_locations(), 0);
      }
    }
    if (quiesced)
      send_quiesced();
  }

  /// Runs one ready task; false when none is queued.
  bool run_one()
  {
    ready_item item;
    {
      std::lock_guard lock(m_mutex);
      if (m_ready.empty())
        return false;
      item = std::move(m_ready.front());
      m_ready.pop_front();
      if (!item.stolen) {
        task& tk = m_tasks[item.id];
        item.inputs = std::move(tk.inputs);
        item.payload = std::move(tk.payload);
      }
    }
    // The task vector is frozen during execution (add_task asserts), so the
    // record reference stays valid across the unlocked work invocation.
    task const& tk = m_tasks[item.id];
    E result = [&] {
      trace::trace_scope run_scope(trace::event_kind::task_run, item.id);
      latency::timed_op lat_scope(latency::op::tg_task);
      return tk.work(item.inputs, item.payload);
    }();

    for (auto const& [succ, slot] : tk.succ_slots) {
      location_id const so = m_tasks[succ].owner;
      if (so == this->get_location_id()) {
        handle_value(succ, slot, result);
      } else {
        m_stats.values_sent += 1;
        async_rmi<task_graph>(so, this->get_handle(),
                              &task_graph::handle_value, succ, slot, result);
      }
    }
    m_stats.tasks_run += 1;

    if (item.stolen) {
      async_rmi<task_graph>(tk.owner, this->get_handle(),
                            &task_graph::handle_complete, item.id,
                            std::move(result), this->get_location_id());
    } else {
      bool quiesced = false;
      {
        std::lock_guard lock(m_mutex);
        task& mine = m_tasks[item.id];
        mine.done = true;
        mine.value = std::move(result);
        mine.ran_at = this->get_location_id();
        quiesced = (--m_local_remaining == 0) && m_steal_mode;
      }
      if (quiesced)
        send_quiesced();
    }
    return true;
  }

  void maybe_steal(unsigned idle_rounds)
  {
    if (!m_steal_enabled || !m_has_stealable || m_victims.empty())
      return;
    if (m_done.load(std::memory_order_acquire))
      return;
    if (m_steal_inflight.load(std::memory_order_acquire))
      return;
    {
      std::lock_guard lock(m_mutex);
      // After a full circle of empty-handed requests, slow down: retry a
      // victim only every few idle rounds instead of hammering the system
      // while a dependence chain drains elsewhere.
      if (m_fail_streak >= m_victims.size() && idle_rounds % 32 != 0)
        return;
    }
    m_steal_inflight.store(true, std::memory_order_release);
    location_id victim;
    std::uint64_t backlog = 0;
    {
      std::lock_guard lock(m_mutex);
      // Sticky pointer into the warmth-ordered victim list: a granting
      // victim keeps being probed (its backlog halves per grant); nacks
      // advance the pointer (handle_steal_nack).
      victim = m_victims[m_victim_idx % m_victims.size()];
      // The probe carries this location's current ready-backlog weight
      // (usually 0 — probes go out idle-handed — but value deliveries
      // can refill the queue between run_one() and here): the victim
      // caps its grant so we cannot hoard more than it keeps.
      for (auto const& item : m_ready) {
        std::uint64_t const w = m_tasks[item.id].opts.weight;
        backlog += w == 0 ? 1 : w;
      }
    }
    STAPL_TRACE(trace::event_kind::steal_probe, victim);
    m_probe_victim = victim;
    m_probe_sent = std::chrono::steady_clock::now();
    async_rmi<task_graph>(victim, this->get_handle(),
                          &task_graph::handle_steal_request,
                          this->get_location_id(), backlog);
  }

  /// A probe answer arrived from `victim`: clear its strikes, and if an
  /// earlier timeout demoted it, re-promote — the straggler recovered.
  /// Only the executor thread and its own inbound handlers touch the
  /// strike table under m_mutex.
  void note_victim_answered(location_id victim)
  {
    bool repromoted = false;
    {
      std::lock_guard lock(m_mutex);
      if (victim < m_strikes.size())
        m_strikes[victim] = 0;
    }
    repromoted = robust::promote(victim);
    if (repromoted) {
      robust::tl().repromotions += 1;
      STAPL_TRACE(trace::event_kind::repromotion, victim);
    }
  }

  /// The in-flight probe to m_probe_victim went unanswered past the
  /// timeout: strike the victim (demoting it after demote_after strikes),
  /// advance past it, and clear the in-flight flag so scheduling resumes.
  /// The late answer — probes are never lost on this transport, only
  /// slow — stays benign: a grant still adds its tasks, a nack advances
  /// the pointer once more, and either clears the strikes again.
  void on_probe_timeout()
  {
    location_id const victim = m_probe_victim;
    robust::tl().probe_timeouts += 1;
    bool demoted_now = false;
    {
      std::lock_guard lock(m_mutex);
      if (victim < m_strikes.size() &&
          ++m_strikes[victim] >= robust::demote_after())
        demoted_now = robust::demote(victim);
      // Give up on the straggler for now: move it to the back of the
      // probe order and advance, exactly as a nack would.
      auto it = std::find(m_victims.begin(), m_victims.end(), victim);
      if (it != m_victims.end())
        std::rotate(it, it + 1, m_victims.end());
      m_stats.steal_fail += 1;
      m_fail_streak += 1;
      m_victim_idx += 1;
      m_probe_sent = std::chrono::steady_clock::now(); // re-arm the clock
    }
    if (demoted_now) {
      robust::tl().demotions += 1;
      STAPL_TRACE(trace::event_kind::demotion, victim);
    }
    m_steal_inflight.store(false, std::memory_order_release);
  }

  void send_quiesced()
  {
    if (this->get_location_id() == 0) {
      handle_quiesced();
      return;
    }
    async_rmi<task_graph>(0, this->get_handle(), &task_graph::handle_quiesced);
  }

  mutable std::mutex m_mutex;
  std::vector<task> m_tasks;
  /// Values that arrived before this replica's construction finished.
  std::vector<std::tuple<task_id, std::uint32_t, E>> m_early;
  /// Forwarded payloads that outran this replica's construction.
  std::vector<std::pair<task_id, P>> m_early_payloads;
  std::deque<ready_item> m_ready;
  std::vector<location_id> m_victims;  ///< steal order (warmth, then load)
  std::size_t m_victim_idx = 0;        ///< advances on nack (sticky on grant)
  /// Straggler detector: per-victim unanswered-probe strikes, plus the
  /// send time and target of the probe currently in flight (executor
  /// thread only).
  std::vector<unsigned> m_strikes;
  std::chrono::steady_clock::time_point m_probe_sent{};
  location_id m_probe_victim = invalid_location;
  std::size_t m_local_remaining = 0;
  std::size_t m_fail_streak = 0;
  bool m_started = false;
  bool m_steal_enabled = true;
  bool m_has_stealable = false;
  bool m_steal_mode = false;  ///< decided in seed() from the descriptor
  std::atomic<bool> m_steal_inflight{false};
  std::atomic<bool> m_done{false};
  std::atomic<unsigned> m_quiesced{0};  ///< location 0 only
  task_graph_stats m_stats;
  metrics::contributor_id m_metrics_id;
};

// ---------------------------------------------------------------------------
// Coarsening heuristic and execution policy
// ---------------------------------------------------------------------------

/// Elements per chunk task when the caller does not choose: aim for several
/// tasks per location so the tail can be stolen/overlapped, but never chunks
/// so small that per-task overhead shows.  Seeded from the container size
/// and num_locations() (Ch. VII granularity discussion; cf. sptl's
/// granularity control).
[[nodiscard]] inline std::size_t default_grain(std::size_t total_elements)
{
  constexpr std::size_t tasks_per_location = 8;
  constexpr std::size_t min_grain = 512;
  std::size_t const per_loc =
      total_elements / std::max(1u, num_locations());
  return std::max<std::size_t>(min_grain,
                               per_loc / tasks_per_location);
}

/// How a chunked factory schedules its tasks.
struct exec_policy {
  std::size_t grain = 0;  ///< elements per chunk task (0 = default_grain)
  /// Chunk tasks may execute on any location when true.  Off by default:
  /// every chunk then runs on its bView's location, preserving the
  /// classic per-location execution contract even for work functions
  /// with location-local side effects.  Opt in for locality-free or
  /// read-only chunks whose per-element work dwarfs routed element
  /// access — the work-stealing candidates of the PARAGRAPH model.
  bool stealable = false;
  bool steal = true;  ///< executor-wide stealing toggle for this graph
};

namespace tg_detail {

/// Result type of a map functor invocable as mapf(gid, value) or
/// mapf(value).
template <typename Map, typename G, typename V>
struct map_result {
  static auto probe()
  {
    if constexpr (std::is_invocable_v<Map&, G, V>)
      return std::type_identity<std::invoke_result_t<Map&, G, V>>{};
    else
      return std::type_identity<std::invoke_result_t<Map&, V>>{};
  }
  using type = typename decltype(probe())::type;
};

template <typename V>
concept has_member_chunks = requires(V v, std::size_t g) {
  { v.chunks(g) };
};

/// Splits an ordered GID sequence into contiguous runs of ~grain elements
/// (building block of the descriptor producers; algorithms never consume
/// raw runs directly — they go through chunk descriptors).
template <typename G>
[[nodiscard]] std::vector<std::vector<G>> chunk_gids(std::vector<G> gids,
                                                     std::size_t grain)
{
  std::vector<std::vector<G>> out;
  if (gids.empty())
    return out;
  grain = std::max<std::size_t>(1, grain);
  out.reserve((gids.size() + grain - 1) / grain);
  for (std::size_t i = 0; i < gids.size(); i += grain) {
    std::size_t const n = std::min(grain, gids.size() - i);
    out.emplace_back(gids.begin() + static_cast<std::ptrdiff_t>(i),
                     gids.begin() + static_cast<std::ptrdiff_t>(i + n));
  }
  return out;
}

/// Wraps contiguous GID runs into chunk descriptors owned by this location
/// (the fallback producer for views without locality knowledge of their
/// own; container-backed views stamp owner/cached_at/bytes themselves).
template <typename G>
[[nodiscard]] std::vector<chunk_descriptor<G>>
make_descriptors(std::vector<std::vector<G>> runs, std::size_t elem_bytes)
{
  std::vector<chunk_descriptor<G>> out;
  out.reserve(runs.size());
  for (auto& r : runs) {
    chunk_descriptor<G> d;
    d.bytes = static_cast<std::uint64_t>(r.size()) * elem_bytes;
    d.gids.assign(std::move(r));
    d.owner = this_location();
    out.push_back(std::move(d));
  }
  return out;
}

/// This location's bView, coarsened into chunk descriptors: the view's own
/// chunks(grain) when it has one, else descriptor-wrapped fixed-size runs
/// of local_gids().
template <typename V>
[[nodiscard]] auto view_chunks(V const& v, std::size_t grain)
{
  if constexpr (has_member_chunks<V>)
    return v.chunks(grain);
  else
    return make_descriptors(chunk_gids(v.local_gids(), grain),
                            sizeof(typename V::value_type));
}

/// Elements per chunk task for this call: the explicit policy grain wins;
/// otherwise default_grain, filtered through the view's (container's)
/// adaptive grain hint when it has one — the feedback loop closed by
/// note_task_graph_stats below.
template <typename V>
[[nodiscard]] std::size_t effective_grain(V const& v, exec_policy const& pol)
{
  if (pol.grain != 0)
    return std::max<std::size_t>(1, pol.grain);
  std::size_t g = default_grain(v.size());
  if constexpr (requires {
                  { v.tuned_grain(g) } -> std::convertible_to<std::size_t>;
                }) {
    g = v.tuned_grain(g);
  }
  return std::max<std::size_t>(1, g);
}

/// Replicated task_options off a chunk's wire form — the only descriptor
/// half peers ever see, so placement, victim ranking and the affinity
/// feedback all read their digests from it.
[[nodiscard]] inline task_options wire_options(chunk_wire const& w,
                                               bool stealable)
{
  task_options o;
  o.stealable = stealable;
  o.cached_at = w.cached_at;
  o.weight = w.bytes != 0 ? w.bytes : w.elements;
  if (w.has_digest) {
    o.digest_lo = w.digest_lo;
    o.digest_hi = w.digest_hi;
    o.has_digest = true;
  }
  return o;
}

/// Replicated task_options for one chunk descriptor.
template <typename G>
[[nodiscard]] task_options chunk_options(chunk_descriptor<G> const& d,
                                         bool stealable)
{
  return wire_options(d.wire(), stealable);
}

/// Spawns one chunk task off its replicated wire form — the one idiom
/// every split spawn site shares.  `producer` is the location whose
/// exchange slot the wire came from; `local` is this location's own
/// descriptor array (indexed by `k`), consulted only when this location
/// is the producer: it attaches the payload through add_task when it
/// also owns the chunk, and forwards it point-to-point otherwise, with
/// every replica marking the task payload-pending in that case so the
/// owner holds it until the payload lands.
template <typename TG, typename Work, typename G>
typename TG::task_id
spawn_chunk_task(TG& tg, chunk_wire const& w, location_id producer,
                 std::size_t k, std::vector<chunk_descriptor<G>>& local,
                 Work const& work, bool stealable)
{
  task_options opts = wire_options(w, stealable);
  opts.payload_pending = w.owner != producer;
  bool const mine = producer == this_location();
  auto const id =
      mine && w.owner == producer
          ? tg.add_task(w.owner, work, std::move(local[k].gids), opts)
          : tg.add_task(w.owner, work, {}, opts);
  if (mine && w.owner != producer)
    tg.forward_payload(id, std::move(local[k].gids));
  return id;
}

/// The metadata-only spawn exchange: allgathers the wire forms of this
/// location's descriptors — owner, cached-at, digest bounds, byte and
/// element counts, never the GID runs — and counts what a network
/// transport would have shipped to the P-1 peers into `bytes_out`.  The
/// payloads stay behind in `local`, to be attached by add_task when this
/// location owns the chunk or forwarded point-to-point when it does not.
template <typename G>
[[nodiscard]] std::vector<std::vector<chunk_wire>>
exchange_wire_forms(std::vector<chunk_descriptor<G>> const& local,
                    std::uint64_t& bytes_out)
{
  std::vector<chunk_wire> wires;
  wires.reserve(local.size());
  for (auto const& d : local)
    wires.push_back(d.wire());
  bytes_out = static_cast<std::uint64_t>(packed_size(wires)) *
              (num_locations() - 1);
  return allgather(wires);
}

/// Closes the feedback loops after a steal-mode graph: the executor's
/// steal/idle counters tune the container's grain hint, and lost-chunk
/// placement events warm its affinity table (the source of the next
/// graph's cached_at hints).  No-op for views without the hooks.
template <typename V, typename TG>
void feed_back_execution(V const& v, TG const& tg)
{
  if constexpr (requires { v.note_task_graph_stats(tg.stats()); })
    v.note_task_graph_stats(tg.stats());
  if constexpr (requires {
                  v.note_chunk_placement(std::uint64_t{}, std::uint64_t{},
                                         location_id{});
                }) {
    for (auto const& e : tg.lost_events())
      v.note_chunk_placement(e.lo, e.hi, e.ran_at);
  }
}

/// Whether this call's chunk tasks are steal candidates: strictly opt-in
/// (see exec_policy::stealable) — the policy object is where callers
/// declare their chunks locality-free/read-only enough to travel.
template <typename V>
[[nodiscard]] bool stealable_for(exec_policy const& pol)
{
  return pol.stealable;
}

/// Builds and runs one chunk-task graph over `v`: `body(gid)` per element.
/// When the chunks are stealable, only the chunk *wire forms* are
/// allgathered — enough for every location to replicate the graph
/// descriptor (task ids, owners, locality annotations) and spawn each
/// chunk task on its descriptor's owner, which may differ from the
/// location that produced it (a repartitioning view whose deal crosses
/// the storage distribution).  The run-encoded GID payload never rides
/// the allgather: a producer that owns its chunk attaches the payload
/// through add_task, and a producer that does not forwards it
/// point-to-point (forward_payload), with the owner holding the task
/// until it lands.  In the default non-stealable case no location ever
/// references another location's tasks, so each builds only its own
/// chunk tasks — no metadata exchange at all — and the executor's
/// local-drain schedule plus trailing fence match the classic
/// one-task-per-location map.
template <typename View, typename PerGid>
void chunked_for_each_gid(View const& v, exec_policy pol, PerGid body)
{
  using gid_type = typename View::gid_type;
  std::size_t const grain = effective_grain(v, pol);
  bool const steal_chunks = stealable_for<View>(pol) && pol.steal &&
                            num_locations() > 1;
  // One work-function instance per location, shared by its chunk tasks (and
  // by any replica a thief runs), so stateful work functions behave as they
  // did with one task per location.
  auto shared_body = std::make_shared<PerGid>(std::move(body));
  if (!steal_chunks) {
    // Local chunk tasks over index ranges of one shared bView snapshot —
    // no payload copies, no descriptor replication (see above).
    auto const gids =
        std::make_shared<std::vector<gid_type>>(v.local_gids());
    task_graph<char> tg;
    tg.set_stealing(false);
    std::size_t const n = gids->size();
    for (std::size_t i = 0; i < n; i += grain) {
      std::size_t const e = std::min(n, i + grain);
      tg.add_task(this_location(),
                  [gids, shared_body, i, e](std::vector<char> const&,
                                            char const&) {
                    for (std::size_t j = i; j != e; ++j)
                      (*shared_body)((*gids)[j]);
                    return char{};
                  });
    }
    tg.execute();
    return;
  }
  auto work = [shared_body](std::vector<char> const&,
                            gid_sequence<gid_type> const& gids) {
    gids.for_each([&](gid_type const& g) { (*shared_body)(g); });
    return char{};
  };
  task_graph<char, gid_sequence<gid_type>> tg;
  tg.set_stealing(pol.steal);
  auto local = view_chunks(v, grain);
  std::uint64_t wire_bytes = 0;
  auto all = exchange_wire_forms(local, wire_bytes);
  tg.note_spawn_bytes(wire_bytes);
  for (location_id l = 0; l < num_locations(); ++l)
    for (std::size_t k = 0; k < all[l].size(); ++k)
      spawn_chunk_task(tg, all[l][k], l, k, local, work, true);
  tg.execute();
  feed_back_execution(v, tg);
}

} // namespace tg_detail

// ---------------------------------------------------------------------------
// tree_reduce — map_reduce as a dependence tree (no intermediate fences)
// ---------------------------------------------------------------------------

/// Reduces mapf(element) over the whole view with `redf` (associative).
/// Leaf chunk tasks fold locally and feed a per-location partial task;
/// the root folds the partials in location order — the same fold order an
/// allgather-based combine would use — and per-location sink tasks fan the
/// result out, so every location returns the value with exactly two
/// cross-location value hops and no broadcast.  `mapf` is invoked as
/// mapf(value) or mapf(gid, value).  In the default non-stealable case
/// leaves are index ranges over one shared bView snapshot (no payload
/// copies) and the pure-read graph skips the trailing fence; stealable
/// leaves carry their chunk GIDs so thieves can run them.  Returns
/// nullopt for empty views.  Collective.
template <typename View, typename Map, typename Reduce>
[[nodiscard]] auto tree_reduce(View v, Map mapf, Reduce redf,
                               exec_policy pol = {})
{
  using gid_type = typename View::gid_type;
  using T = typename tg_detail::map_result<Map, gid_type,
                                           typename View::value_type>::type;
  using EV = std::pair<T, bool>;  ///< (partial, nonempty)

  std::size_t const grain = tg_detail::effective_grain(v, pol);
  bool const steal_chunks = tg_detail::stealable_for<View>(pol) &&
                            pol.steal && num_locations() > 1;

  auto fold_one = [v, mapf, redf](EV acc, gid_type const& g) mutable {
    T m = [&]() -> T {
      if constexpr (std::is_invocable_v<Map&, gid_type,
                                        typename View::value_type>)
        return mapf(g, v.read(g));
      else
        return mapf(v.read(g));
    }();
    if (!acc.second)
      return EV{std::move(m), true};
    return EV{redf(std::move(acc.first), std::move(m)), true};
  };
  auto combine_work = [redf](std::vector<EV> const& ins, auto const&) {
    EV out{T{}, false};
    for (auto const& in : ins) {
      if (!in.second)
        continue;
      out = out.second ? EV{redf(out.first, in.first), true} : in;
    }
    return out;
  };
  auto sink_work = [](std::vector<EV> const& ins, auto const&) {
    return ins.at(0);
  };

  // Two-level combine tree over the (replicated) leaf ids: leaves ->
  // per-location partial -> root (location order) -> per-location sinks.
  auto wire = [&](auto& tg, std::vector<std::size_t> const& counts,
                  auto&& leaf_for) {
    using tid = typename std::remove_reference_t<decltype(tg)>::task_id;
    std::vector<tid> partials;
    for (location_id l = 0; l < num_locations(); ++l) {
      std::vector<tid> leaves;
      for (std::size_t k = 0; k < counts[l]; ++k)
        leaves.push_back(leaf_for(l, k));
      tid const partial = tg.add_task(l, combine_work);
      for (tid const leaf : leaves)
        tg.add_dependence(leaf, partial);
      partials.push_back(partial);
    }
    tid const root = tg.add_task(0, combine_work);
    for (tid const partial : partials)
      tg.add_dependence(partial, root);
    std::vector<tid> sinks;
    for (location_id l = 0; l < num_locations(); ++l) {
      tid const s = tg.add_task(l, sink_work);
      tg.add_dependence(root, s);
      sinks.push_back(s);
    }
    return sinks;
  };

  if (!steal_chunks) {
    auto const gids =
        std::make_shared<std::vector<gid_type>>(v.local_gids());
    std::size_t const n = gids->size();
    auto const counts = allgather((n + grain - 1) / grain);
    std::size_t total = 0;
    for (auto c : counts)
      total += c;
    if (total == 0)
      return std::optional<T>{};
    task_graph<EV> tg;
    tg.set_stealing(false);
    auto leaf_for = [&](location_id l, std::size_t k) {
      if (l != this_location()) {
        // Placeholder replica of a peer's owner-pinned leaf: keeps task
        // ids aligned across locations, never runs.
        return tg.add_task(l, [](std::vector<EV> const&, char const&) {
          return EV{T{}, false};
        });
      }
      std::size_t const b = k * grain;
      std::size_t const e = std::min(n, b + grain);
      return tg.add_task(
          l, [gids, fold_one, b, e](std::vector<EV> const&,
                                    char const&) mutable {
            EV acc{T{}, false};
            for (std::size_t j = b; j != e; ++j)
              acc = fold_one(std::move(acc), (*gids)[j]);
            return acc;
          });
    };
    auto const sinks = wire(tg, counts, leaf_for);
    tg.execute_drain_only();
    EV const out = tg.result_of(sinks[this_location()]);
    return out.second ? std::optional<T>(out.first) : std::optional<T>{};
  }

  // Stealable leaves: replicate only the wire forms — every location can
  // place each leaf on its descriptor's owner and annotate it for
  // locality-aware stealing off the metadata alone; GID payloads attach
  // locally (producer == owner) or travel point-to-point
  // (forward_payload) when a repartitioning deal separates the two.
  auto local = tg_detail::view_chunks(v, grain);
  std::uint64_t wire_bytes = 0;
  auto all = tg_detail::exchange_wire_forms(local, wire_bytes);
  std::vector<std::size_t> counts;
  counts.reserve(all.size());
  std::size_t total = 0;
  for (auto const& wires : all) {
    counts.push_back(wires.size());
    total += wires.size();
  }
  if (total == 0)
    return std::optional<T>{};
  task_graph<EV, gid_sequence<gid_type>> tg;
  tg.set_stealing(pol.steal);
  tg.note_spawn_bytes(wire_bytes);
  auto leaf_work = [fold_one](std::vector<EV> const&,
                              gid_sequence<gid_type> const& gs) mutable {
    EV acc{T{}, false};
    gs.for_each(
        [&](gid_type const& g) { acc = fold_one(std::move(acc), g); });
    return acc;
  };
  auto leaf_for = [&](location_id l, std::size_t k) {
    return tg_detail::spawn_chunk_task(tg, all[l][k], l, k, local,
                                       leaf_work, true);
  };
  auto const sinks = wire(tg, counts, leaf_for);
  tg.execute();
  tg_detail::feed_back_execution(v, tg);
  EV const out = tg.result_of(sinks[this_location()]);
  return out.second ? std::optional<T>(out.first) : std::optional<T>{};
}

} // namespace stapl

#endif
