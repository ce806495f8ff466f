#ifndef STAPL_CORE_LOAD_BALANCER_HPP
#define STAPL_CORE_LOAD_BALANCER_HPP

// Hot-element load balancing on top of the directory and migrate()
// (ROADMAP follow-up to the PR-1 directory subsystem; cf. the adaptive
// placement argument of the BCL distributed-container work and the skewed
// access patterns dominating pSTL-Bench scalability).
//
// Location-transparent access makes element placement a pure performance
// knob: every request routes to the current owner, so moving a hot element
// moves its execution load.  The balancer turns the directory's owner-side
// access statistics into migration decisions, in epochs:
//
//   1. measure  — each location's directory counts the accesses it executed
//      as owner (directory::note_access) and tracks its hottest GIDs in a
//      bounded space-saving sketch (no unbounded maps, however many
//      distinct GIDs the epoch touches);
//   2. plan     — rebalance() all-gathers (load, hot list) summaries; when
//      max/avg load exceeds the configured imbalance threshold, a greedy
//      planner drains the most-loaded locations: hottest tracked element
//      first, onto the currently least-loaded location, clamped so every
//      move strictly improves the spread.  The plan is computed from
//      identical inputs with identical arithmetic on every location, so no
//      coordinator and no plan broadcast is needed;
//   3. execute  — each location issues batched migrate() calls for the
//      planned moves it owns; the migration protocol updates home records
//      and invalidates stale caches, and the trailing fence completes the
//      wave.  Counters reset so the next epoch measures fresh traffic.
//
// Containers opt in through p_container_base::enable_load_balancing() and
// call rebalance() between computation phases.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <unordered_set>
#include <utility>
#include <vector>

#include "../runtime/runtime.hpp"
#include "directory.hpp"
#include "migration.hpp"

namespace stapl {

/// Tuning knobs of the epoch-based load balancer.
struct load_balancer_config {
  /// Tolerated max/avg owner-load ratio; rebalance() is a no-op below it.
  double imbalance_threshold = 1.25;
  /// Capacity of the per-location space-saving hot-GID tracker.  A wave
  /// plans at most hot_k x P moves.
  std::size_t hot_k = 64;
};

/// Outcome of one rebalance() wave (identical on every location).
struct rebalance_report {
  bool triggered = false;        ///< a migration plan was computed/executed
  std::size_t moves = 0;         ///< migrations in the plan (global)
  std::uint64_t total_load = 0;  ///< owner accesses observed this epoch
  std::uint64_t bytes_moved = 0; ///< estimated payload bytes of the plan
  double imbalance_before = 1.0; ///< max/avg load at measurement
  double imbalance_after = 1.0;  ///< projected max/avg after the plan
};

namespace lb_detail {

/// Estimated in-memory payload size of one element value (shallow struct
/// size plus the dynamic buffer of string/vector-like values).
template <typename T>
[[nodiscard]] std::uint64_t byte_size_of(T const& v)
{
  if constexpr (requires {
                  v.capacity();
                  typename T::value_type;
                }) {
    return sizeof(T) + v.capacity() * sizeof(typename T::value_type);
  } else if constexpr (requires {
                         std::size(v);
                         typename T::value_type;
                       }) {
    return sizeof(T) + std::size(v) * sizeof(typename T::value_type);
  } else {
    return sizeof(T);
  }
}

/// Estimated migration-payload bytes of the (locally owned) element `g`:
/// the container's own element_bytes hook when it has one, else the local
/// value's size, else the static value size.
template <typename C>
[[nodiscard]] std::uint64_t element_bytes(C& c, typename C::gid_type const& g)
{
  if constexpr (requires { c.element_bytes(g); }) {
    return c.element_bytes(g);
  } else if constexpr (requires { c.local_element_ptr(g); }) {
    if (auto* p = c.local_element_ptr(g))
      return byte_size_of(*p);
    return sizeof(typename C::value_type);
  } else {
    return sizeof(typename C::value_type);
  }
}

/// One hot-element candidate in a location's load summary.
template <typename GID>
struct hot_candidate {
  GID gid{};
  std::uint64_t count = 0;  ///< estimated owner accesses this epoch
  std::uint64_t bytes = 0;  ///< estimated migration payload
};

/// One planned migration: `gid` (currently on `from`) moves to `to` with
/// estimated load `weight` and transfer cost `bytes`.
template <typename GID>
struct planned_move {
  GID gid;
  location_id from;
  location_id to;
  std::uint64_t weight;
  std::uint64_t bytes;
};

/// Greedy drain of overloaded locations.  `loads[l]` is location l's epoch
/// load; `hot[l]` its tracked hot candidates.  Candidates are considered
/// in *transfer-efficiency* order — load moved per byte shipped (density),
/// count and lower GID as tie-breaks — so a huge element does not beat a
/// small one of equal hotness.  Deterministic: called with identical
/// arguments on every location, it yields the same plan everywhere (ties
/// break toward the lower location id).
template <typename GID, typename Hash = std::hash<GID>>
[[nodiscard]] std::vector<planned_move<GID>>
greedy_plan(std::vector<std::uint64_t> const& loads,
            std::vector<std::vector<hot_candidate<GID>>> const& hot,
            std::size_t max_moves)
{
  unsigned const p = static_cast<unsigned>(loads.size());
  std::uint64_t total = 0;
  for (auto l : loads)
    total += l;
  double const avg = static_cast<double>(total) / p;
  std::vector<planned_move<GID>> plan;
  if (total == 0)
    return plan;

  std::vector<double> cur(loads.begin(), loads.end());
  // Donors in descending load order (stable: lower id first on ties).
  std::vector<location_id> order(p);
  for (location_id l = 0; l < p; ++l)
    order[l] = l;
  std::sort(order.begin(), order.end(), [&](location_id a, location_id b) {
    return cur[a] != cur[b] ? cur[a] > cur[b] : a < b;
  });

  auto density = [](hot_candidate<GID> const& c) {
    return static_cast<double>(c.count) /
           static_cast<double>(c.bytes == 0 ? 1 : c.bytes);
  };

  std::unordered_set<GID, Hash> planned;
  for (location_id const d : order) {
    auto candidates = hot[d];
    std::sort(candidates.begin(), candidates.end(),
              [&](hot_candidate<GID> const& a, hot_candidate<GID> const& b) {
                double const da = density(a), db = density(b);
                if (da != db)
                  return da > db;
                if (a.count != b.count)
                  return a.count > b.count;
                return a.gid < b.gid;
              });
    for (auto const& [g, count, bytes] : candidates) {
      if (plan.size() >= max_moves)
        return plan;
      if (cur[d] <= avg)
        break; // donor drained to the mean: next donor
      // An element that migrated mid-epoch is counted in two sketches;
      // only its first (hottest-donor) appearance may be planned — a
      // second move of the same GID would race it and double-count load.
      if (planned.count(g) != 0)
        continue;
      location_id r = d;
      for (location_id l = 0; l < p; ++l)
        if (l != d && (r == d || cur[l] < cur[r]))
          r = l;
      if (r == d)
        break;
      // migrate() moves the whole element, so the projection must charge
      // its whole estimated weight; the move is taken only when that
      // strictly improves the donor/receiver pair (otherwise an
      // indivisible hot element would ping-pong between waves without
      // ever reducing the real imbalance).
      double const w = static_cast<double>(count);
      if (cur[r] + w >= cur[d]) {
        // Too heavy for every receiver (r is the least loaded); a colder
        // tracked element may still fit.
        continue;
      }
      plan.push_back({g, d, r, count, bytes});
      planned.insert(g);
      cur[d] -= w;
      cur[r] += w;
    }
  }
  return plan;
}

/// max/avg of the given loads (1.0 for an empty or zero-load epoch).  The
/// single definition of the spread metric: the planner, the bench and the
/// tests all measure against it.
template <typename T>
[[nodiscard]] double imbalance_of(std::vector<T> const& loads)
{
  double total = 0.0, mx = 0.0;
  for (T const& l : loads) {
    double const v = static_cast<double>(l);
    total += v;
    mx = v > mx ? v : mx;
  }
  if (total <= 0.0)
    return 1.0;
  return mx / (total / static_cast<double>(loads.size()));
}

} // namespace lb_detail

/// Collective: one epoch-based rebalance wave over container `c` (must be
/// directory-backed with access tracking enabled — see
/// p_container_base::enable_load_balancing).  Gathers per-location load
/// summaries, computes the greedy migration plan when the imbalance exceeds
/// `cfg.imbalance_threshold`, executes it as batched migrate() calls, and
/// resets the epoch counters.  Every location returns the same report.
template <typename C>
rebalance_report rebalance(C& c, load_balancer_config const& cfg)
{
  using gid_type = typename C::gid_type;
  assert(c.is_dynamic() && "rebalance() requires directory-backed resolution");
  auto& dir = c.get_directory();

  trace::trace_scope wave_scope(trace::event_kind::rebalance_wave);
  latency::timed_op lat_scope(latency::op::lb_wave_stall);
  metrics::local().lb.waves += 1;

  // Quiesce: in-flight accesses execute (and are counted) before measuring.
  rmi_fence();

  rebalance_report rep;
  auto const loads = allgather(dir.epoch_accesses());
  for (auto l : loads)
    rep.total_load += l;

  rep.imbalance_before = lb_detail::imbalance_of(loads);
  rep.imbalance_after = rep.imbalance_before;

  if (rep.total_load == 0 || rep.imbalance_before <= cfg.imbalance_threshold) {
    rmi_fence();
    return rep; // balanced (or idle) epoch: keep counters accumulating
  }

  // Attach payload sizes to the local hot list: transfer cost weights the
  // plan alongside access count (an element the sketch still lists after
  // it departed falls back to the static value size).
  std::vector<lb_detail::hot_candidate<gid_type>> my_hot;
  for (auto const& [g, count] : dir.hot_elements())
    my_hot.push_back({g, count, lb_detail::element_bytes(c, g)});
  auto const hot = allgather(my_hot);
  auto const plan = lb_detail::greedy_plan<gid_type>(
      loads, hot, cfg.hot_k * num_locations());

  rep.triggered = true;
  rep.moves = plan.size();
  for (auto const& mv : plan)
    rep.bytes_moved += mv.bytes;
  wave_scope.set_arg(rep.moves);
  auto& lb = metrics::local().lb;
  lb.triggered += 1;
  lb.moves += rep.moves;
  lb.bytes_moved += rep.bytes_moved;
  {
    std::vector<double> projected(loads.begin(), loads.end());
    for (auto const& mv : plan) {
      projected[mv.from] -= static_cast<double>(mv.weight);
      projected[mv.to] += static_cast<double>(mv.weight);
    }
    rep.imbalance_after = lb_detail::imbalance_of(projected);
  }

  // Execute my share of the plan as a batch of asynchronous migrations.
  // migrate() routes through the directory, so a plan entry whose element
  // moved since measurement still reaches the current owner.
  for (auto const& mv : plan)
    if (mv.from == c.get_location_id())
      migrate(c, mv.gid, mv.to);
  rmi_fence(); // the wave (and every request it re-routed) completes

  dir.reset_epoch(); // next epoch measures fresh, post-move traffic
  rmi_fence();
  return rep;
}

} // namespace stapl

#endif
