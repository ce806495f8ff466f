#ifndef STAPL_ALGORITHMS_P_ALGORITHMS_HPP
#define STAPL_ALGORITHMS_P_ALGORITHMS_HPP

// Generic pAlgorithms (dissertation Ch. III, VIII.C).
//
// Every algorithm runs on the location that stores each bView: one local
// pass over the calling location's own bView, followed by the fence or
// collective that combines the locations.  Mutating maps end at a fence;
// reductions end in one allreduce of per-location folds; the prefix sum
// allgathers per-block folds.  Mutating algorithms end with the views'
// post_execute hook, implementing the automatic synchronization-point
// insertion of Ch. VII.H.
//
// The local pass (algo_detail::local_pass) has two paths and every
// algorithm one body.  When the view's bView is the container's storage
// (array_1d_view, array_1d_ro_view, native_view) and the container
// resolves in closed form, the pass is a plain loop over each local
// bContainer's contiguous storage.  Otherwise — views whose deal crosses
// the storage (balanced, strided, overlap, wrappers, counting) and
// directory-backed containers — it visits local_gids() one GID at a time,
// through the direct reference when local and the shared-object
// read/write path otherwise, so repartitioning views compute the same
// result as aligned ones.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "../runtime/runtime.hpp"
#include "../views/views.hpp"

namespace stapl {

namespace algo_detail {

template <typename View, typename G>
concept writable_view = requires(View v, G g, typename View::value_type x) {
  v.write(g, x);
};

/// What a local pass hands its body: the element, to update in place, or
/// a const reference to its value, to read.
enum class access { read, update };

/// One pass over the calling location's bView: `body(gid, x)` per element,
/// in bView order (bCID order, then index order inside a bContainer).
/// Storage views over closed-form containers take the span path: a loop
/// over each block of for_each_block, no GID vector, no resolve.  All
/// other views and directory-backed containers take the per-GID path over
/// local_gids(), where an update uses the direct reference when the element
/// is local and read-modify-write otherwise.  Both paths visit the same
/// elements in the same order, so a fold returns bit-identical results on
/// either.  Traced as one `task_run` scope (arg: elements visited) and
/// timed as one `tg_task` latency sample.  Adds no synchronization:
/// mutating callers fence afterwards.
template <access A, typename View, typename Body>
void local_pass(View& v, Body&& body)
{
  if constexpr (view_detail::storage_view<View>) {
    auto& c = v.container();
    if (!c.is_dynamic()) {
      trace::trace_scope scope(trace::event_kind::task_run, c.local_size());
      latency::timed_op lat(latency::op::tg_task);
      c.for_each_block([&](bcid_type b, auto block) {
        for (std::size_t i = 0; i != block.size(); ++i) {
          if constexpr (A == access::update)
            body(c.partition().gid_of(b, i), block[i]);
          else
            body(c.partition().gid_of(b, i), std::as_const(block[i]));
        }
      });
      return;
    }
  }
  auto const gids = v.local_gids();
  trace::trace_scope scope(trace::event_kind::task_run, gids.size());
  latency::timed_op lat(latency::op::tg_task);
  for (auto const& g : gids) {
    if constexpr (A == access::update && view_detail::has_local_ref<View>) {
      if (auto* p = v.try_local_ref(g)) {
        body(g, *p);
        continue;
      }
    }
    auto x = v.read(g);
    if constexpr (A == access::update) {
      body(g, x);
      if constexpr (writable_view<View, typename View::gid_type>)
        v.write(g, std::move(x));
    } else {
      body(g, std::as_const(x));
    }
  }
}

/// mapf(gid, x) when the map functor takes a GID, mapf(x) otherwise.
template <typename Map, typename G, typename X>
decltype(auto) map_element(Map& mapf, G const& g, X&& x)
{
  if constexpr (std::is_invocable_v<Map&, G, X>)
    return mapf(g, std::forward<X>(x));
  else
    return mapf(std::forward<X>(x));
}

} // namespace algo_detail

// ---------------------------------------------------------------------------
// Mutating map patterns
// ---------------------------------------------------------------------------

/// Applies `wf(gid, element&)` to every element (the Ch. VII.A elementary
/// factory): one local pass per location.  Collective; ends with a fence
/// and the view's post_execute.
template <typename View, typename WF>
void p_for_each_gid(View v, WF wf)
{
  algo_detail::local_pass<algo_detail::access::update>(v, wf);
  rmi_fence();
  v.post_execute();
}

/// Applies `wf(element&)` to every element.  Collective.
template <typename View, typename WF>
void p_for_each(View v, WF wf)
{
  p_for_each_gid(std::move(v),
                 [wf = std::move(wf)](auto const&, auto& x) mutable { wf(x); });
}

/// Assigns `gen()` to every element.  Collective.
template <typename View, typename Generator>
void p_generate(View v, Generator gen)
{
  p_for_each(std::move(v), [gen = std::move(gen)](auto& x) mutable {
    x = gen();
  });
}

/// Fills every element with `value`.  Collective.
template <typename View, typename T>
void p_fill(View v, T value)
{
  p_for_each(std::move(v), [value](auto& x) { x = value; });
}

/// out[g] = op(in[g]) for every g; distributions should be aligned for
/// performance.  Collective.
template <typename InView, typename OutView, typename Op>
void p_transform(InView in, OutView out, Op op)
{
  assert(in.size() == out.size());
  algo_detail::local_pass<algo_detail::access::read>(
      in, [&](typename InView::gid_type const& g, auto const& x) {
        out.write(g, op(x));
      });
  rmi_fence();
  out.post_execute();
}

/// Copies in to out element-wise.  Collective.
template <typename InView, typename OutView>
void p_copy(InView in, OutView out)
{
  p_transform(std::move(in), std::move(out),
              [](auto const& x) { return x; });
}

// ---------------------------------------------------------------------------
// Reductions (Ch. VIII.C)
// ---------------------------------------------------------------------------

/// Generic map-reduce over a view: each location folds map(element) over
/// its bView in one pass, then one allreduce combines the per-location
/// folds in location order.  `mapf` is invoked as mapf(value) or
/// mapf(gid, value); `redf` must be associative.  Returns nullopt for
/// empty views.  Collective.
template <typename View, typename Map, typename Reduce>
[[nodiscard]] auto map_reduce(View v, Map mapf, Reduce redf)
{
  using gid_type = typename View::gid_type;
  using T = decltype(algo_detail::map_element(
      mapf, std::declval<gid_type const&>(),
      std::declval<typename View::value_type const&>()));
  using EV = std::pair<T, bool>;  ///< (fold, nonempty)

  EV acc{T{}, false};
  algo_detail::local_pass<algo_detail::access::read>(
      v, [&](gid_type const& g, auto const& x) {
        T m = algo_detail::map_element(mapf, g, x);
        acc = acc.second ? EV{redf(std::move(acc.first), std::move(m)), true}
                         : EV{std::move(m), true};
      });
  EV const out = allreduce(acc, [&redf](EV const& a, EV const& b) {
    if (!b.second)
      return a;
    return a.second ? EV{redf(a.first, b.first), true} : b;
  });
  return out.second ? std::optional<T>(out.first) : std::optional<T>{};
}

/// Sum (or op-fold) of all elements plus init.  Collective.
template <typename View, typename T, typename Op = std::plus<>>
[[nodiscard]] T p_accumulate(View v, T init, Op op = {})
{
  auto total = map_reduce(std::move(v), [](auto const& x) { return T(x); }, op);
  return total ? op(init, *total) : init;
}

/// Number of elements equal to `value`.  Collective.
template <typename View, typename T>
[[nodiscard]] std::size_t p_count(View v, T const& value)
{
  auto n = map_reduce(std::move(v),
                      [value](auto const& x) {
                        return static_cast<std::size_t>(x == value);
                      },
                      std::plus<>{});
  return n.value_or(0);
}

/// Number of elements satisfying `pred`.  Collective.
template <typename View, typename Pred>
[[nodiscard]] std::size_t p_count_if(View v, Pred pred)
{
  auto n = map_reduce(std::move(v),
                      [pred](auto const& x) {
                        return static_cast<std::size_t>(pred(x));
                      },
                      std::plus<>{});
  return n.value_or(0);
}

/// GID of the first element (in domain order) satisfying `pred`, or
/// invalid_gid.  Collective.
template <typename View, typename Pred>
[[nodiscard]] gid1d p_find_if(View v, Pred pred)
{
  auto first = map_reduce(
      std::move(v),
      [pred](typename View::gid_type g, auto const& x) {
        return pred(x) ? static_cast<gid1d>(g) : invalid_gid;
      },
      [](gid1d a, gid1d b) { return std::min(a, b); });
  return first.value_or(invalid_gid);
}

template <typename View, typename T>
[[nodiscard]] gid1d p_find(View v, T const& value)
{
  return p_find_if(std::move(v),
                   [value](auto const& x) { return x == value; });
}

/// (gid, value) of the minimum element; nullopt when empty.  Collective.
template <typename View, typename Compare = std::less<>>
[[nodiscard]] auto p_min_element(View v, Compare cmp = {})
    -> std::optional<std::pair<typename View::gid_type,
                               typename View::value_type>>
{
  using P = std::pair<typename View::gid_type, typename View::value_type>;
  return map_reduce(
      std::move(v),
      [](typename View::gid_type g, typename View::value_type x) {
        return P(g, std::move(x));
      },
      [cmp](P const& a, P const& b) {
        if (cmp(b.second, a.second))
          return b;
        if (cmp(a.second, b.second))
          return a;
        return a.first <= b.first ? a : b;
      });
}

template <typename View, typename Compare = std::less<>>
[[nodiscard]] auto p_max_element(View v, Compare cmp = {})
{
  return p_min_element(std::move(v), [cmp](auto const& a, auto const& b) {
    return cmp(b, a);
  });
}

/// Inner product of two equally-sized views plus init.  Collective.
template <typename V1, typename V2, typename T>
[[nodiscard]] T p_inner_product(V1 a, V2 b, T init)
{
  assert(a.size() == b.size());
  auto total = map_reduce(
      std::move(a),
      [b](typename V1::gid_type g, auto const& x) mutable {
        return T(x) * T(b.read(g));
      },
      std::plus<>{});
  return total ? init + *total : init;
}

// ---------------------------------------------------------------------------
// Prefix sums
// ---------------------------------------------------------------------------

/// Inclusive prefix sum over a contiguously partitioned indexed container:
/// out[i] = op(in[0], ..., in[i]).  Each location folds its own blocks,
/// the per-block folds are allgathered, and each location rescans its
/// blocks starting from the fold of all earlier blocks in bCID order.
/// Requires in/out aligned and contiguous sub-domains.  Collective.
template <typename InC, typename OutC, typename Op = std::plus<>>
void p_partial_sum(InC& in, OutC& out, Op op = {})
{
  using T = typename InC::value_type;
  using EV = std::pair<T, bool>;  ///< (fold, nonempty)
  assert(in.size() == out.size());

  auto fold = [&op](EV acc, T const& x) {
    return acc.second ? EV{op(std::move(acc.first), x), true} : EV{x, true};
  };

  // (bCID, fold) of every block this location stores.
  std::size_t const nparts = in.partition().size();
  std::vector<std::pair<bcid_type, EV>> mine;
  for (bcid_type b = 0; b != nparts; ++b) {
    if (in.mapper().map(b) != this_location())
      continue;
    auto const& bc = in.bc(b);
    EV acc{T{}, false};
    for (std::size_t i = 0; i != bc.size(); ++i)
      acc = fold(std::move(acc), bc.at(i));
    mine.emplace_back(b, std::move(acc));
  }

  std::vector<EV> block_fold(nparts, EV{T{}, false});
  for (auto& folds : allgather(mine))
    for (auto& [b, f] : folds)
      block_fold[b] = std::move(f);

  EV offset{T{}, false};  ///< fold of blocks 0..b-1
  for (bcid_type b = 0; b != nparts; ++b) {
    if (in.mapper().map(b) == this_location()) {
      auto const& ibc = in.bc(b);
      EV run = offset;
      for (std::size_t i = 0; i != ibc.size(); ++i) {
        run = fold(std::move(run), ibc.at(i));
        out.bc(b).set(i, run.first);
      }
    }
    if (block_fold[b].second)
      offset = fold(std::move(offset), block_fold[b].first);
  }
  rmi_fence();
}

/// out[i] = in[i] - in[i-1] (out[0] = in[0]): one pass over the input's
/// native view; the read of the previous element at a bView border goes
/// through the shared-object view (Fig. 2 pattern).  Collective.
template <typename InC, typename OutC, typename Op = std::minus<>>
void p_adjacent_difference(InC& in, OutC& out, Op op = {})
{
  using T = typename InC::value_type;
  assert(in.size() == out.size());
  array_1d_view iv(in);
  algo_detail::local_pass<algo_detail::access::read>(
      iv, [&](gid1d g, T const& here) {
        if (g == 0)
          out.set_element(0, here);
        else
          out.set_element(g, op(here, iv.read(g - 1)));
      });
  rmi_fence();
}

} // namespace stapl

#endif
