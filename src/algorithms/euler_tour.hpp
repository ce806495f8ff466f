#ifndef STAPL_ALGORITHMS_EULER_TOUR_HPP
#define STAPL_ALGORITHMS_EULER_TOUR_HPP

// The Euler tour technique and its applications (dissertation Ch. X.H,
// Figs. 43/44): rooting a tree, vertex levels, and postorder numbering.
//
// The tour is represented as a distributed successor list over arc ids
// (two arcs per tree edge) stored in pArrays; its positions are computed by
// parallel list ranking (pointer jumping), and the applications reduce to
// scatters plus parallel prefix sums — the exact pipeline the dissertation
// builds from pList/pArray machinery.
//
// Trees are the implicit binary trees of the Fig. 43/44 evaluation
// (vertices [0, n), children of v are 2v+1 / 2v+2); the arc numbering is
// closed-form: the edge to child c has index c-1, its downward arc id
// 2(c-1), its upward arc id 2(c-1)+1.

#include <cassert>
#include <cstddef>
#include <unordered_map>
#include <vector>

#include "../containers/p_array.hpp"
#include "p_algorithms.hpp"

namespace stapl {

namespace et_detail {

[[nodiscard]] inline std::size_t parent_of(std::size_t v) noexcept
{
  return (v - 1) / 2;
}
[[nodiscard]] inline std::size_t down_arc(std::size_t child) noexcept
{
  return 2 * (child - 1);
}
[[nodiscard]] inline std::size_t up_arc(std::size_t child) noexcept
{
  return 2 * (child - 1) + 1;
}
/// The child endpoint of an arc.
[[nodiscard]] inline std::size_t arc_child(std::size_t a) noexcept
{
  return a / 2 + 1;
}
[[nodiscard]] inline bool is_down(std::size_t a) noexcept
{
  return a % 2 == 0;
}

/// Euler-tour successor of arc `a` in the implicit binary tree of n
/// vertices; invalid_gid terminates the tour (arc returning to the root).
[[nodiscard]] inline std::size_t et_successor(std::size_t a, std::size_t n)
{
  std::size_t const c = arc_child(a);
  if (is_down(a)) {
    // Arrived at c going down: continue to c's left-most child, or turn
    // around at a leaf.
    if (2 * c + 1 < n)
      return down_arc(2 * c + 1);
    return up_arc(c);
  }
  // Arrived at parent(c) going up: continue to c's right sibling if it
  // exists and c was the left child, else go further up.
  std::size_t const p = parent_of(c);
  if (c == 2 * p + 1 && 2 * p + 2 < n)
    return down_arc(2 * p + 2);
  if (p == 0)
    return invalid_gid; // tour complete
  return up_arc(p);
}

} // namespace et_detail

/// Batched distributed gather: values[k] = view of arr at indices[k], with
/// one split-phase request per owning location instead of one per element.
/// Every request goes out before the first reply is waited for, so the
/// gather costs about one round trip, not one per owner.
template <typename C>
[[nodiscard]] std::vector<typename C::value_type>
p_gather(C& arr, std::vector<gid1d> const& indices)
{
  using T = typename C::value_type;
  std::vector<T> out(indices.size());
  // Group queried indices per owner location.
  std::unordered_map<location_id, std::vector<std::size_t>> per_owner;
  for (std::size_t k = 0; k < indices.size(); ++k)
    per_owner[arr.lookup(indices[k])].push_back(k);

  // Every remote request goes out first; the second walk, in the same
  // map order, serves the local indices and waits for the replies.
  std::vector<pc_future<std::vector<T>>> replies;
  for (auto const& [owner, ks] : per_owner) {
    if (owner == this_location())
      continue;
    std::vector<gid1d> gids;
    gids.reserve(ks.size());
    for (auto k : ks)
      gids.push_back(indices[k]);
    replies.push_back(opaque_rmi<C>(owner, arr.get_handle(),
                                    [gids = std::move(gids)](C& a) {
                                      std::vector<T> vs;
                                      vs.reserve(gids.size());
                                      for (auto g : gids)
                                        vs.push_back(a.local_element(g));
                                      return vs;
                                    }));
  }
  auto reply = replies.begin();
  for (auto const& [owner, ks] : per_owner) {
    if (owner == this_location()) {
      for (auto k : ks)
        out[k] = arr.local_element(indices[k]);
      continue;
    }
    auto vals = (reply++)->get();
    for (std::size_t j = 0; j < ks.size(); ++j)
      out[ks[j]] = std::move(vals[j]);
  }
  return out;
}

/// Builds the Euler-tour successor list of the implicit binary tree with n
/// vertices into `succ` (size 2(n-1); invalid_gid = end).  Collective.
inline void build_euler_tour(p_array<std::size_t>& succ, std::size_t n)
{
  assert(succ.size() == 2 * (n - 1));
  succ.for_each_local([n](gid1d a, std::size_t& s) {
    s = et_detail::et_successor(a, n);
  });
  rmi_fence();
}

/// Parallel list ranking by pointer jumping: pos[i] = position of arc i in
/// the tour (0-based from the tour head).  O(len log len) work, log len
/// rounds of batched remote gathers — the classic technique the
/// dissertation's Euler tour implementation relies on.  Collective.
inline void list_rank(p_array<std::size_t>& succ, p_array<long>& pos)
{
  std::size_t const len = succ.size();
  assert(pos.size() == len);

  // dist[i] = number of arcs after i in the tour (0 for the last arc).
  p_array<long> dist(len);
  p_array<std::size_t> nxt_a(len), nxt_b(len);
  p_array<long> dst_a(len), dst_b(len);

  succ.for_each_local([&](gid1d i, std::size_t& s) {
    nxt_a.local_element(i) = s;
    dst_a.local_element(i) = s == invalid_gid ? 0 : 1;
  });
  rmi_fence();

  p_array<std::size_t>* cur_n = &nxt_a;
  p_array<std::size_t>* new_n = &nxt_b;
  p_array<long>* cur_d = &dst_a;
  p_array<long>* new_d = &dst_b;

  std::size_t rounds = 0;
  for (std::size_t span = 1; span < len; span *= 2)
    ++rounds;

  for (std::size_t r = 0; r < rounds; ++r) {
    // Batch-gather succ[succ[i]] and dist[succ[i]] for all local i.
    auto const local = cur_n->local_gids();
    std::vector<gid1d> targets;
    std::vector<std::size_t> which;
    for (std::size_t k = 0; k < local.size(); ++k) {
      std::size_t const s = cur_n->local_element(local[k]);
      if (s != invalid_gid) {
        targets.push_back(s);
        which.push_back(k);
      }
    }
    auto const s2 = p_gather(*cur_n, targets);
    auto const d2 = p_gather(*cur_d, targets);

    // Write the doubled pointers into the fresh buffers.
    for (auto g : local) {
      new_n->local_element(g) = cur_n->local_element(g);
      new_d->local_element(g) = cur_d->local_element(g);
    }
    for (std::size_t j = 0; j < which.size(); ++j) {
      gid1d const g = local[which[j]];
      new_d->local_element(g) = cur_d->local_element(g) + d2[j];
      new_n->local_element(g) = s2[j];
    }
    rmi_fence();
    std::swap(cur_n, new_n);
    std::swap(cur_d, new_d);
  }

  // Position from the head = (len - 1) - distance-to-end.
  pos.for_each_local([&](gid1d i, long& p) {
    p = static_cast<long>(len) - 1 - cur_d->local_element(i);
  });
  rmi_fence();
}

/// Result arrays of the Euler tour applications, indexed by vertex.
struct euler_tour_results {
  explicit euler_tour_results(std::size_t n)
      : parent(n), level(n), postorder(n)
  {}
  p_array<std::size_t> parent;  ///< parent[v]; parent[root] == root
  p_array<long> level;          ///< depth from the root (root == 0)
  p_array<long> postorder;      ///< 1-based postorder number
};

/// Runs the full Euler tour pipeline (Fig. 44 applications): tour
/// construction, list ranking, then rooting / levels / postorder numbering
/// via scatters + parallel prefix sums.  Collective.
inline void euler_tour_applications(std::size_t n, euler_tour_results& out)
{
  assert(n >= 2);
  std::size_t const len = 2 * (n - 1);
  p_array<std::size_t> succ(len);
  p_array<long> pos(len);
  build_euler_tour(succ, n);
  list_rank(succ, pos);

  // Scatter arc weights by tour position:
  //   levels:    down = +1, up = -1  (prefix sum at down arc == depth)
  //   postorder: up = 1, down = 0    (prefix sum at up arc == 1-based number)
  p_array<long> lvl_w(len), post_w(len);
  pos.for_each_local([&](gid1d a, long& p) {
    bool const down = et_detail::is_down(a);
    lvl_w.set_element(static_cast<gid1d>(p), down ? 1 : -1);
    post_w.set_element(static_cast<gid1d>(p), down ? 0 : 1);
  });
  rmi_fence();

  p_array<long> lvl_ps(len), post_ps(len);
  p_partial_sum(lvl_w, lvl_ps);
  p_partial_sum(post_w, post_ps);

  // Rooting: parent known from the arc structure; verified by rank order
  // (down arc precedes up arc in a correct tour).
  out.parent.for_each_local([&](gid1d v, std::size_t& p) {
    p = v == 0 ? 0 : et_detail::parent_of(v);
  });
  // Root values.
  if (out.level.is_local(0))
    out.level.local_element(0) = 0;
  if (out.postorder.is_local(0))
    out.postorder.local_element(0) = static_cast<long>(n);
  rmi_fence();

  // Gather prefix values at each vertex's down/up arc positions.
  {
    auto const local = out.level.local_gids();
    std::vector<gid1d> down_pos_idx, up_pos_idx, verts;
    for (auto v : local)
      if (v != 0) {
        verts.push_back(v);
        down_pos_idx.push_back(et_detail::down_arc(v));
        up_pos_idx.push_back(et_detail::up_arc(v));
      }
    auto const dpos = p_gather(pos, down_pos_idx);
    auto const upos = p_gather(pos, up_pos_idx);
    std::vector<gid1d> dp(dpos.size()), up(upos.size());
    for (std::size_t k = 0; k < dpos.size(); ++k) {
      dp[k] = static_cast<gid1d>(dpos[k]);
      up[k] = static_cast<gid1d>(upos[k]);
    }
    auto const lvls = p_gather(lvl_ps, dp);
    auto const posts = p_gather(post_ps, up);
    for (std::size_t k = 0; k < verts.size(); ++k) {
      out.level.local_element(verts[k]) = lvls[k];
      out.postorder.local_element(verts[k]) = posts[k];
    }
  }
  rmi_fence();
}

} // namespace stapl

#endif
