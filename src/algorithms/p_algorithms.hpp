#ifndef STAPL_ALGORITHMS_P_ALGORITHMS_HPP
#define STAPL_ALGORITHMS_P_ALGORITHMS_HPP

// Generic pAlgorithms (dissertation Ch. III, VIII.C), expressed as
// task-graph factories (runtime/task_graph.hpp).
//
// Every algorithm coarsens its view into chunk tasks — many per location,
// ~grain elements each (exec_policy, or default_grain) — and runs them on
// the task-graph executor, each chunk on the location whose bView it
// covers.  Element access takes the direct-reference fast path when local
// (native/aligned views) and the shared-object read/write path otherwise,
// so repartitioning views compute the same result as aligned ones.
// Reductions and scans chain partial results through value-carrying
// dependence edges instead of allgather+fence rounds.  Every algorithm
// still ends at a fence (inside task_graph::execute) and the views'
// post_execute hook, implementing the automatic synchronization-point
// insertion of Ch. VII.H.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "../runtime/runtime.hpp"
#include "../runtime/task_graph.hpp"
#include "../views/views.hpp"

namespace stapl {

namespace algo_detail {

template <typename View, typename G>
concept writable_view = requires(View v, G g, typename View::value_type x) {
  v.write(g, x);
};

/// Applies f(value&) to the element behind gid, using the direct reference
/// when local and read-modify-write otherwise.
template <typename View, typename F>
void apply_element(View& v, typename View::gid_type g, F& f)
{
  if constexpr (view_detail::has_local_ref<View>) {
    if (auto* p = v.try_local_ref(g)) {
      f(*p);
      return;
    }
  }
  auto x = v.read(g);
  f(x);
  if constexpr (writable_view<View, typename View::gid_type>)
    v.write(g, std::move(x));
}

} // namespace algo_detail

// ---------------------------------------------------------------------------
// Mutating map patterns (chunked per-element factories)
// ---------------------------------------------------------------------------

/// Applies `wf(gid, element&)` to every element as chunk tasks (many per
/// location; the Ch. VII.A elementary factory, coarsened).  Each location
/// shares one `wf` instance across its chunks.  Collective; ends with a
/// fence and the view's post_execute.
template <typename View, typename WF>
void p_for_each_gid(View v, WF wf, exec_policy pol = {})
{
  tg_detail::chunked_for_each_gid(
      v, pol, [wf = std::move(wf), v](typename View::gid_type g) mutable {
        auto f = [&](auto& x) { wf(g, x); };
        algo_detail::apply_element(v, g, f);
      });
  v.post_execute();
}

/// Applies `wf(element&)` to every element.  Collective.
template <typename View, typename WF>
void p_for_each(View v, WF wf, exec_policy pol = {})
{
  p_for_each_gid(
      std::move(v),
      [wf = std::move(wf)](auto const&, auto& x) mutable { wf(x); }, pol);
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
void p_transform(InView in, OutView out, Op op, exec_policy pol = {})
{
  assert(in.size() == out.size());
  tg_detail::chunked_for_each_gid(
      in, pol, [in, out, op](typename InView::gid_type g) mutable {
        out.write(g, op(in.read(g)));
      });
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
// Reductions (tree_reduce factory, Ch. VIII.C)
// ---------------------------------------------------------------------------

/// Generic map-reduce over a view: reduces map(element) over all elements
/// through a dependence tree of chunk partials (no intermediate fences).
/// `redf` must be associative.  Returns nullopt for empty views.
/// Collective.
template <typename View, typename Map, typename Reduce>
[[nodiscard]] auto map_reduce(View v, Map mapf, Reduce redf,
                              exec_policy pol = {})
{
  return tree_reduce(std::move(v), std::move(mapf), std::move(redf), pol);
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
// Prefix sums (scan factory: per-block folds chained through value edges)
// ---------------------------------------------------------------------------

/// Inclusive prefix sum over a contiguously partitioned indexed container:
/// out[i] = op(in[0], ..., in[i]).  Three task flavors per bCID — block
/// fold, running-total chain, offset rescan — wired by value-carrying
/// dependences, so no block-sum allgather and no fence between phases.
/// Requires in/out aligned and contiguous sub-domains.  Collective.
template <typename InC, typename OutC, typename Op = std::plus<>>
void p_partial_sum(InC& in, OutC& out, Op op = {})
{
  using T = typename InC::value_type;
  using EV = std::pair<T, bool>;  ///< (partial, nonempty)
  assert(in.size() == out.size());

  std::size_t const nparts = in.partition().size();
  task_graph<EV> tg;
  using tid = typename task_graph<EV>::task_id;

  std::vector<tid> chain(nparts);
  for (std::size_t b = 0; b != nparts; ++b) {
    location_id const loc = in.mapper().map(b);
    // Leaf: fold this block's elements.
    tid const fold = tg.add_task(
        loc, [&in, b, op](std::vector<EV> const& /*ins*/) {
          auto const& bc = in.bc(b);
          EV acc{T{}, false};
          for (std::size_t i = 0; i != bc.size(); ++i)
            acc = acc.second ? EV{op(std::move(acc.first), bc.at(i)), true}
                             : EV{bc.at(i), true};
          return acc;
        });
    // Chain: running total through block b (inputs: previous total, fold).
    chain[b] = tg.add_task(
        loc, [op](std::vector<EV> const& ins) {
          EV acc{T{}, false};
          for (auto const& x : ins) {
            if (!x.second)
              continue;
            acc = acc.second ? EV{op(std::move(acc.first), x.first), true} : x;
          }
          return acc;
        });
    if (b > 0)
      tg.add_dependence(chain[b - 1], chain[b]);
    tg.add_dependence(fold, chain[b]);
    // Rescan: rewrite block b with the prefix before it as offset.
    tid const rescan = tg.add_task(
        loc, [&in, &out, b, op](std::vector<EV> const& ins) {
          EV const off = ins.empty() ? EV{T{}, false} : ins[0];
          auto const& ibc = in.bc(b);
          T run = off.first;
          bool have = off.second;
          for (std::size_t i = 0; i != ibc.size(); ++i) {
            run = have ? op(std::move(run), ibc.at(i)) : ibc.at(i);
            have = true;
            out.bc(b).set(i, run);
          }
          return EV{T{}, false};
        });
    if (b > 0)
      tg.add_dependence(chain[b - 1], rescan);
  }
  tg.execute();
}

/// out[i] = in[i] - in[i-1] (out[0] = in[0]): chunked map over the input's
/// native view; the overlap read at chunk borders goes through the
/// shared-object view (Fig. 2 pattern).  Collective.
template <typename InC, typename OutC, typename Op = std::minus<>>
void p_adjacent_difference(InC& in, OutC& out, Op op = {})
{
  using T = typename InC::value_type;
  assert(in.size() == out.size());
  array_1d_view iv(in);
  tg_detail::chunked_for_each_gid(
      iv, exec_policy{}, [iv, &out, op](gid1d g) mutable {
        T const here = iv.read(g);
        if (g == 0)
          out.set_element(0, here);
        else
          out.set_element(g, op(here, iv.read(g - 1)));
      });
}

} // namespace stapl

#endif
