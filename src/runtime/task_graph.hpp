#ifndef STAPL_RUNTIME_TASK_GRAPH_HPP
#define STAPL_RUNTIME_TASK_GRAPH_HPP

// PARAGRAPH-style task-graph executor (dissertation Ch. III / Ch. VII): a
// pAlgorithm is a graph of *coarsened* tasks — one task per bView chunk, not
// one per location — with value-carrying dependence edges.  Every task runs
// on the location that owns it, as the paper runs each bView on the
// location that stores it.
//
// Model
// -----
// Task ids name the same task on every location: locations add the tasks
// and edges that peers refer to in the same order, SPMD style.  A task whose
// dependence edges all stay on its owner (a location's own chunk tasks) may
// be added by that location alone, after the shared ones.
//
// Value-carrying dependences
// --------------------------
// A task computes `E work(inputs)`.  Its result is delivered to every
// successor's owner (slot order == add_dependence order), so tree-reduce
// and scan factories chain partial results through the graph instead of
// allgather+fence between phases.  Delivery reuses the pc_future-style
// state machine: values land in per-task input slots and the task becomes
// ready when the last slot fills.
//
// Schedule
// --------
// Each location drains its own ready queue, polling for dependence values
// while stalled, until every task it owns has run; the trailing rmi_fence —
// the system-wide termination detection — then completes the graph.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime.hpp"

namespace stapl {

/// Per-location executor counters (surfaced as the "tg.*" metrics).
struct task_graph_stats {
  std::uint64_t tasks_run = 0;    ///< tasks executed on this location
  std::uint64_t values_sent = 0;  ///< dependence values shipped off-location
};

/// A distributed graph of coarsened, owner-pinned tasks with
/// value-carrying dependence edges.  Construction is collective (see the
/// model above).  `E` is the dependence-edge value type
/// (default-constructible).
template <typename E>
class task_graph : public p_object {
 public:
  using task_id = std::size_t;
  using value_type = E;
  /// Inputs arrive in add_dependence order.
  using work_fn = std::function<E(std::vector<E> const&)>;

  task_graph()
      : m_metrics_id(metrics::register_contributor(
            [this](metrics::counter_map& m) {
              std::lock_guard lock(m_mutex);
              m["tg.tasks_run"] += m_stats.tasks_run;
              m["tg.values_sent"] += m_stats.values_sent;
            },
            [this] {
              std::lock_guard lock(m_mutex);
              m_stats = {};
            }))
  {}

  ~task_graph() override { metrics::unregister_contributor(m_metrics_id); }

  /// Adds a task that runs on `owner`.
  task_id add_task(location_id owner, work_fn work)
  {
    std::lock_guard lock(m_mutex);
    assert(!m_started && "graph is frozen once execute() begins");
    task_id const id = m_tasks.size();
    task tk;
    tk.work = std::move(work);
    tk.owner = owner;
    m_tasks.push_back(std::move(tk));
    return id;
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

  /// True once the task completed (meaningful on the owner).
  [[nodiscard]] bool task_done(task_id t) const
  {
    std::lock_guard lock(m_mutex);
    return m_tasks[t].done;
  }

  /// Result value of a locally owned, completed task (valid after
  /// execute()).
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

  /// Runs the graph to completion.  Collective; one-shot; ends with a
  /// fence.  Task work functions may invoke element methods (including
  /// synchronous ones — the executor polls) but must not fence.
  void execute() { execute_impl(true); }

  /// Variant for *pure-read* factories: returns as soon as this location's
  /// tasks are done, without the trailing fence (outgoing dependence values
  /// are flushed so peers' polls retrieve them).  Only meaningful when the
  /// work performs no writes that later phases must observe.  Every message
  /// of the graph is addressed to a task that must complete before its
  /// owner exits, so no straggler can outlive the graph object.
  void execute_drain_only() { execute_impl(false); }

 private:
  void execute_impl(bool with_fence)
  {
    trace::trace_scope phase_scope(trace::event_kind::tg_execute);
    seed();
    runtime_detail::deadline_backoff bo("tg.execute");
    while (m_local_remaining != 0) {
      if (run_one() || runtime_detail::poll_once()) {
        bo.reset();
        continue;
      }
      bo.pause();
    }
    if (with_fence)
      rmi_fence();
    else
      runtime_detail::flush_aggregation();
  }

 public:
  /// RMI handler (public: executed on remote representatives via ARMI).
  /// At the successor's owner: one input value arrived.  A fast peer may
  /// deliver before this location finished building its replica (a poll
  /// inside a collective between construction and execute() runs the
  /// handler before seed()); such values park in m_early until seed().
  void handle_value(task_id t, std::uint32_t slot, E v)
  {
    std::lock_guard lock(m_mutex);
    if (!m_started && t >= m_tasks.size()) {
      m_early.emplace_back(t, slot, std::move(v));
      return;
    }
    deliver_locked(t, slot, std::move(v));
  }

 private:
  struct task {
    work_fn work;
    location_id owner = 0;
    /// (successor, input slot) pairs, in add_dependence order.
    std::vector<std::pair<task_id, std::uint32_t>> succ_slots;
    std::uint32_t n_inputs = 0;  ///< dependences declared on this replica
    std::uint32_t arrived = 0;   ///< input values delivered (owner side)
    std::vector<E> inputs;       ///< slot-indexed input values (owner side)
    E value{};                   ///< result (owner side, after completion)
    bool queued = false;         ///< entered the ready queue
    bool done = false;           ///< completed (owner side)
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
        tk.arrived == tk.n_inputs && !tk.queued) {
      tk.queued = true;
      m_ready.push_back(t);
    }
  }

  void seed()
  {
    std::lock_guard lock(m_mutex);
    assert(!m_started && "task_graph::execute() is one-shot");
    m_started = true;
    m_local_remaining = 0;
    for (auto& [t, slot, v] : m_early)
      deliver_locked(t, slot, std::move(v));
    m_early.clear();
    for (task_id t = 0; t < m_tasks.size(); ++t) {
      task& tk = m_tasks[t];
      if (tk.owner != this->get_location_id())
        continue;
      m_local_remaining += 1;
      if (tk.arrived == tk.n_inputs && !tk.queued) {
        tk.queued = true;
        m_ready.push_back(t);
      }
    }
  }

  /// Runs one ready task; false when none is queued.
  bool run_one()
  {
    task_id id;
    std::vector<E> inputs;
    {
      std::lock_guard lock(m_mutex);
      if (m_ready.empty())
        return false;
      id = m_ready.front();
      m_ready.pop_front();
      inputs = std::move(m_tasks[id].inputs);
    }
    // The task vector is frozen during execution (add_task asserts), so the
    // record reference stays valid across the unlocked work invocation.
    task const& tk = m_tasks[id];
    E result = [&] {
      trace::trace_scope run_scope(trace::event_kind::task_run, id);
      latency::timed_op lat_scope(latency::op::tg_task);
      return tk.work(inputs);
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

    std::lock_guard lock(m_mutex);
    task& mine = m_tasks[id];
    mine.done = true;
    mine.value = std::move(result);
    m_local_remaining -= 1;
    return true;
  }

  mutable std::mutex m_mutex;
  std::vector<task> m_tasks;
  /// Values that arrived before this replica's construction finished.
  std::vector<std::tuple<task_id, std::uint32_t, E>> m_early;
  std::deque<task_id> m_ready;
  std::size_t m_local_remaining = 0;
  bool m_started = false;
  task_graph_stats m_stats;
  metrics::contributor_id m_metrics_id;
};

// ---------------------------------------------------------------------------
// Coarsening heuristic and execution policy
// ---------------------------------------------------------------------------

/// Elements per chunk task when the caller does not choose: several tasks
/// per location, so the executor polls for messages and dependence values
/// between chunks, but never chunks so small that per-task overhead shows.
/// Seeded from the container size and num_locations() (Ch. VII granularity
/// discussion; cf. sptl's granularity control).
[[nodiscard]] inline std::size_t default_grain(std::size_t total_elements)
{
  constexpr std::size_t tasks_per_location = 8;
  constexpr std::size_t min_grain = 512;
  std::size_t const per_loc =
      total_elements / std::max(1u, num_locations());
  return std::max<std::size_t>(min_grain,
                               per_loc / tasks_per_location);
}

/// How a chunked factory coarsens its view.
struct exec_policy {
  std::size_t grain = 0;  ///< elements per chunk task (0 = default_grain)
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

/// Elements per chunk task for this call: the policy's grain, or
/// default_grain of the view's size.
template <typename V>
[[nodiscard]] std::size_t effective_grain(V const& v, exec_policy const& pol)
{
  return pol.grain != 0 ? pol.grain : default_grain(v.size());
}

/// Builds and runs one chunk-task graph over `v`: `body(gid)` per element.
/// Each location adds only its own chunk tasks — index ranges over one
/// snapshot of its bView, which no peer refers to — so no descriptor
/// exchange is needed, and the local drain plus trailing fence match the
/// classic one-task-per-location map.  The chunks share one `body`, so
/// stateful work functions behave as they did with one task per location.
template <typename View, typename PerGid>
void chunked_for_each_gid(View const& v, exec_policy pol, PerGid body)
{
  std::size_t const grain = effective_grain(v, pol);
  auto const gids = v.local_gids();
  task_graph<char> tg;
  for (std::size_t i = 0; i < gids.size(); i += grain) {
    std::size_t const e = std::min(gids.size(), i + grain);
    tg.add_task(this_location(),
                [&gids, &body, i, e](std::vector<char> const&) {
                  for (std::size_t j = i; j != e; ++j)
                    body(gids[j]);
                  return char{};
                });
  }
  tg.execute();
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
/// mapf(value) or mapf(gid, value).  Leaves are index ranges over one
/// snapshot of the local bView, added by their owner alone after the shared
/// partial/root/sink tasks, and the pure-read graph skips the trailing
/// fence.  Returns nullopt for empty views.  Collective.
template <typename View, typename Map, typename Reduce>
[[nodiscard]] auto tree_reduce(View v, Map mapf, Reduce redf,
                               exec_policy pol = {})
{
  using gid_type = typename View::gid_type;
  using T = typename tg_detail::map_result<Map, gid_type,
                                           typename View::value_type>::type;
  using EV = std::pair<T, bool>;  ///< (partial, nonempty)

  auto combine_work = [redf](std::vector<EV> const& ins) {
    EV out{T{}, false};
    for (auto const& in : ins) {
      if (!in.second)
        continue;
      out = out.second ? EV{redf(out.first, in.first), true} : in;
    }
    return out;
  };

  std::size_t const grain = tg_detail::effective_grain(v, pol);
  auto const gids = v.local_gids();

  // Shared tasks (every location adds them, in this order): one partial
  // per location, the root on location 0, one sink per location.
  task_graph<EV> tg;
  using tid = typename task_graph<EV>::task_id;
  std::vector<tid> partials;
  for (location_id l = 0; l < num_locations(); ++l)
    partials.push_back(tg.add_task(l, combine_work));
  tid const root = tg.add_task(0, combine_work);
  for (tid const partial : partials)
    tg.add_dependence(partial, root);
  std::vector<tid> sinks;
  for (location_id l = 0; l < num_locations(); ++l) {
    sinks.push_back(
        tg.add_task(l, [](std::vector<EV> const& ins) { return ins.at(0); }));
    tg.add_dependence(root, sinks.back());
  }

  // This location's leaves, feeding its own partial.
  for (std::size_t b = 0; b < gids.size(); b += grain) {
    std::size_t const e = std::min(gids.size(), b + grain);
    tid const leaf = tg.add_task(
        this_location(),
        [&gids, &v, &mapf, &redf, b, e](std::vector<EV> const&) {
          EV acc{T{}, false};
          for (std::size_t j = b; j != e; ++j) {
            gid_type const& g = gids[j];
            T m = [&]() -> T {
              if constexpr (std::is_invocable_v<Map&, gid_type,
                                                typename View::value_type>)
                return mapf(g, v.read(g));
              else
                return mapf(v.read(g));
            }();
            acc = acc.second ? EV{redf(std::move(acc.first), std::move(m)),
                                  true}
                             : EV{std::move(m), true};
          }
          return acc;
        });
    tg.add_dependence(leaf, partials[this_location()]);
  }

  tg.execute_drain_only();
  EV const out = tg.result_of(sinks[this_location()]);
  return out.second ? std::optional<T>(out.first) : std::optional<T>{};
}

} // namespace stapl

#endif
