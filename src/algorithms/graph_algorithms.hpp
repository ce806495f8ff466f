#ifndef STAPL_ALGORITHMS_GRAPH_ALGORITHMS_HPP
#define STAPL_ALGORITHMS_GRAPH_ALGORITHMS_HPP

// pGraph algorithms (dissertation Ch. XI.F.3-4): level-synchronous BFS,
// connected components by label propagation, find_sources (the Fig. 51
// address-translation stressor) and PageRank (Fig. 56).
//
// All algorithms are SPMD collectives built from asynchronous RMIs plus
// fences, i.e. the asynchronous-only style the RTS scales with (Ch. III.B:
// "it becomes essential for algorithms to be implemented using only
// asynchronous RMIs").  PageRank and connected components make commutative
// updates along every edge, so they share one edge pass
// (graph_algo_detail::edge_pass): on a static graph it updates a local
// target in place and sends each other owner one RMI carrying the
// contributions to its targets.  BFS, incremental PageRank and find_sources
// keep one asynchronous vertex method per edge: the first two push
// discovered vertices into frontier buffers, and find_sources' per-edge
// cost is what Fig. 51 compares across address-translation modes.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "../containers/p_graph.hpp"
#include "../runtime/runtime.hpp"

namespace stapl {

/// Vertex property for BFS (level == -1 means unvisited).
struct bfs_property {
  long level = -1;
  void define_type(typer& t) { t.member(level); }
};

/// Vertex property for connected components.
struct cc_property {
  std::size_t component = 0;
  void define_type(typer& t) { t.member(component); }
};

/// Vertex property for find_sources.
struct indegree_property {
  std::size_t indegree = 0;
  void define_type(typer& t) { t.member(indegree); }
};

/// Vertex property for PageRank.
struct pagerank_property {
  double rank = 0.0;
  double incoming = 0.0;
  void define_type(typer& t)
  {
    t.member(rank);
    t.member(incoming);
  }
};

namespace graph_algo_detail {

/// Per-location frontier buffer shared between the algorithm driver and the
/// asynchronous visit handlers (reached through its registered handle).
struct frontier_buffer : p_object {
  std::vector<vertex_descriptor> next;
};

/// Global vertex count inside a collective: the closed form on a static
/// graph, one allreduce of the local counts on a dynamic one (whose
/// get_num_vertices asks every other location in turn).
template <typename G>
[[nodiscard]] std::size_t num_vertices(G& g)
{
  return g.is_static() ? g.get_num_vertices()
                       : allreduce(g.local_size(), std::plus<>{});
}

/// One pass of commutative updates along every out-edge: each local vertex
/// with out-edges contributes value(rec) to each of its targets, and
/// apply(target_rec, c) folds a contribution c into a target.  Every
/// location calls it; it adds no fence, so the caller's next fence
/// completes the pass.
///
/// On a static graph a local target's slot is its offset in this
/// location's slice, so it is updated in place, with no invoke.  The
/// (target, contribution) pairs for each other owner are buffered (BCL's
/// buffered insert), and each other owner gets one RMI per pass, whose
/// handler applies them in order.  A dynamic graph's vertices can move, so
/// each of its edges stays one apply_vertex call.
template <typename G, typename Value, typename Apply>
void edge_pass(G& g, Value value, Apply apply)
{
  if (!g.is_static()) {
    g.for_each_local_vertex([&](vertex_descriptor, auto& rec) {
      if (rec.edges.empty())
        return;
      auto const c = value(rec);
      for (auto const& e : rec.edges)
        g.apply_vertex(e.target,
                       [c, apply](auto& trec) { apply(trec, c); });
    });
    return;
  }
  using contribution =
      std::invoke_result_t<Value&, typename G::vertex_record&>;
  auto& slice = g.bc(this_location()); // a static graph's one bContainer
  std::vector<std::vector<std::pair<vertex_descriptor, contribution>>> remote(
      num_locations());
  for (auto& slot : slice) {
    auto& rec = slot.second;
    if (rec.edges.empty())
      continue;
    auto const c = value(rec);
    for (auto const& e : rec.edges)
      if (slice.has_vertex(e.target))
        apply(slice.vertex(e.target), c);
      else
        remote[g.resolve(e.target).loc].emplace_back(e.target, c);
  }
  for (location_id l = 0; l != remote.size(); ++l) {
    if (remote[l].empty())
      continue;
    async_rmi<G>(l, g.get_handle(),
                 [apply](G& h, auto&& cs) {
                   auto& mine = h.bc(this_location());
                   for (auto const& [t, c] : cs)
                     apply(mine.vertex(t), c);
                 },
                 std::move(remote[l]));
  }
}

} // namespace graph_algo_detail

/// Level-synchronous breadth-first traversal from `source`; fills
/// VP::level with the BFS level.  Returns the number of visited vertices.
/// Requires VP to provide a `level` member (e.g. bfs_property).  Collective.
template <typename G>
std::size_t bfs_levels(G& g, vertex_descriptor source)
{
  using graph_algo_detail::frontier_buffer;
  frontier_buffer frontier;
  rmi_handle const fh = frontier.get_handle();

  // Reset levels.
  g.for_each_local_vertex([](vertex_descriptor, auto& rec) {
    rec.property.level = -1;
  });
  rmi_fence();

  // Seed.
  if (g.is_local(source)) {
    g.apply_vertex(source, [](auto& rec) { rec.property.level = 0; });
    frontier.next.push_back(source);
  }
  rmi_fence();

  // Each round takes its frontier out of `next` before the collective that
  // counts it: a location still polling in that collective may already run
  // the visit handlers a faster location sent this round, and the vertices
  // they discover belong to the next frontier.
  std::size_t visited = 0;
  for (long level = 1;; ++level) {
    std::vector<vertex_descriptor> current;
    current.swap(frontier.next);
    std::size_t const width = allreduce(current.size(), std::plus<>{});
    if (width == 0)
      break;
    visited += width;
    for (auto v : current) {
      auto const targets = g.out_edges(v); // local: v is in our frontier
      for (auto t : targets) {
        g.apply_vertex(t, [level, t, fh](auto& rec) {
          if (rec.property.level == -1) {
            rec.property.level = level;
            // Executes on t's owner: enqueue into that location's frontier.
            get_registered_object<frontier_buffer>(fh)->next.push_back(t);
          }
        });
      }
    }
    rmi_fence();
  }
  rmi_fence();
  return visited;
}

/// Connected components by iterative min-label propagation over an
/// *undirected* pGraph.  Fills VP::component with the component
/// representative (minimum vertex descriptor).  Returns the number of
/// components.  Collective.
template <typename G>
std::size_t connected_components(G& g)
{
  static_assert(!G::is_directed,
                "connected_components expects an undirected pGraph");
  // Init labels to own descriptor.
  g.for_each_local_vertex([](vertex_descriptor v, auto& rec) {
    rec.property.component = v;
  });
  rmi_fence();

  struct change_flag : p_object {
    bool changed = false;
  } flag;
  rmi_handle const fh = flag.get_handle();

  for (;;) {
    flag.changed = false;
    rmi_fence();
    graph_algo_detail::edge_pass(
        g, [](auto& rec) { return rec.property.component; },
        [fh](auto& trec, std::size_t label) {
          if (label < trec.property.component) {
            trec.property.component = label;
            get_registered_object<change_flag>(fh)->changed = true;
          }
        });
    rmi_fence();
    bool const any =
        allreduce(static_cast<int>(flag.changed), std::plus<>{}) != 0;
    if (!any)
      break;
  }

  // Count distinct representatives: a vertex whose label equals itself.
  std::size_t local = 0;
  g.for_each_local_vertex([&](vertex_descriptor v, auto& rec) {
    if (rec.property.component == v)
      ++local;
  });
  rmi_fence();
  return allreduce(local, std::plus<>{});
}

/// Vertices with in-degree zero in a directed pGraph (Fig. 51).  Every
/// vertex asynchronously bumps its targets' in-degree counters — one remote
/// method per edge, which is why this kernel magnifies the address
/// translation cost differences between partitions.  Collective; returns
/// the local sources on each location.
template <typename G>
std::vector<vertex_descriptor> find_sources(G& g)
{
  static_assert(G::is_directed, "find_sources expects a directed pGraph");
  g.for_each_local_vertex([](vertex_descriptor, auto& rec) {
    rec.property.indegree = 0;
  });
  rmi_fence();

  g.for_each_local_vertex([&](vertex_descriptor, auto& rec) {
    for (auto const& e : rec.edges)
      g.apply_vertex(e.target,
                     [](auto& trec) { ++trec.property.indegree; });
  });
  rmi_fence();

  std::vector<vertex_descriptor> sources;
  g.for_each_local_vertex([&](vertex_descriptor v, auto& rec) {
    if (rec.property.indegree == 0)
      sources.push_back(v);
  });
  rmi_fence();
  return sources;
}

/// PageRank with uniform teleport (damping d), `iterations` synchronous
/// rounds (Fig. 56).  VP must provide `rank` and `incoming`.  Collective.
template <typename G>
void page_rank(G& g, std::size_t iterations, double damping = 0.85)
{
  std::size_t const n = graph_algo_detail::num_vertices(g);
  if (n == 0)
    return;
  double const init = 1.0 / static_cast<double>(n);
  g.for_each_local_vertex([&](vertex_descriptor, auto& rec) {
    rec.property.rank = init;
    rec.property.incoming = 0.0;
  });
  rmi_fence();

  for (std::size_t it = 0; it < iterations; ++it) {
    // Scatter rank shares along out-edges.
    graph_algo_detail::edge_pass(
        g,
        [](auto& rec) {
          return rec.property.rank / static_cast<double>(rec.edges.size());
        },
        [](auto& trec, double share) { trec.property.incoming += share; });
    rmi_fence();
    // Gather.  An owner applies the shares it receives while it polls in
    // the fence.  Neither the scatter's local walk nor the gather
    // polls, so a share of the next scatter reaches its target only after
    // the target's own gather: one fence per iteration orders both
    // phases.
    g.for_each_local_vertex([&](vertex_descriptor, auto& rec) {
      rec.property.rank =
          (1.0 - damping) / static_cast<double>(n) +
          damping * rec.property.incoming;
      rec.property.incoming = 0.0;
    });
  }
}

/// Vertex property for push-based (incremental) PageRank: `rank` is the
/// settled mass, `residual` the not-yet-propagated mass.  The fixed point
/// is the same as the synchronous `page_rank` one.
struct dynamic_pagerank_property {
  double rank = 0.0;
  double residual = 0.0;
  void define_type(typer& t)
  {
    t.member(rank);
    t.member(residual);
  }
};

/// Seeds a push-based PageRank from scratch: rank 0 everywhere, teleport
/// mass (1-d)/n as residual.  Draining all residuals (page_rank_incremental
/// with every vertex dirty) then converges to the PageRank fixed point.
/// Collective.
template <typename G>
void page_rank_push_init(G& g, double damping = 0.85)
{
  std::size_t const n = graph_algo_detail::num_vertices(g);
  if (n == 0)
    return;
  double const r0 = (1.0 - damping) / static_cast<double>(n);
  g.for_each_local_vertex([r0](vertex_descriptor, auto& rec) {
    rec.property.rank = 0.0;
    rec.property.residual = r0;
  });
  rmi_fence();
}

namespace graph_algo_detail {

/// What one drain visit brings back to the driver: the damped per-edge
/// share and the adjacency snapshot to scatter it along.
struct drain_result {
  double share = 0.0;
  std::vector<vertex_descriptor> targets;
};

} // namespace graph_algo_detail

/// Incremental (push-based) PageRank over whatever residual mass is
/// pending — the streaming-graph recompute kernel.  Each location passes
/// the vertices it dirtied (e.g. churned endpoints after seeding their
/// `residual`); rounds then chase the residual frontier until it drains
/// below `epsilon` or `max_rounds` is hit.  Collective; returns the global
/// number of drain visits performed (the incremental work, vs. n*iters for
/// the synchronous `page_rank`).
///
/// Handler discipline: a visit handler runs inside its owner's RMI
/// execution, so it never blocks on a second routed call (the wait would
/// poll, and run other handlers, from inside this one).  The drain
/// therefore settles the residual *and* snapshots the adjacency in one
/// `apply_vertex_get`, the driver scatters from outside the handler, and
/// target handlers only bump `residual` and push into the frontier
/// p_object (the BFS pattern).
template <typename G>
std::size_t page_rank_incremental(G& g,
                                  std::vector<vertex_descriptor> const& dirty,
                                  std::size_t max_rounds,
                                  double damping = 0.85,
                                  double epsilon = 1e-9)
{
  using graph_algo_detail::drain_result;
  using graph_algo_detail::frontier_buffer;
  frontier_buffer frontier;
  rmi_handle const fh = frontier.get_handle();

  frontier.next = dirty;
  rmi_fence();

  std::size_t drains = 0;
  for (std::size_t round = 0;
       round < max_rounds && allreduce(frontier.next.size(), std::plus<>{});
       ++round) {
    std::vector<vertex_descriptor> current;
    current.swap(frontier.next);
    std::sort(current.begin(), current.end());
    current.erase(std::unique(current.begin(), current.end()), current.end());
    for (auto v : current) {
      auto const d = g.apply_vertex_get(v, [damping, epsilon](auto& rec) {
        drain_result out;
        double const r = rec.property.residual;
        if (r <= epsilon)
          return out;  // already drained via another location's frontier
        rec.property.rank += r;
        rec.property.residual = 0.0;
        if (rec.edges.empty())
          return out;
        out.share = damping * r / static_cast<double>(rec.edges.size());
        out.targets.reserve(rec.edges.size());
        for (auto const& e : rec.edges)
          out.targets.push_back(e.target);
        return out;
      });
      if (d.share == 0.0)
        continue;
      ++drains;
      for (auto t : d.targets)
        g.apply_vertex(t, [t, fh, share = d.share, epsilon](auto& trec) {
          bool const was_active = trec.property.residual > epsilon;
          trec.property.residual += share;
          if (!was_active && trec.property.residual > epsilon)
            get_registered_object<frontier_buffer>(fh)->next.push_back(t);
        });
    }
    rmi_fence();
  }
  rmi_fence();
  return allreduce(drains, std::plus<>{});
}

/// Sum of all ranks (sanity: should stay ~1.0).  Collective.
template <typename G>
double total_rank(G& g)
{
  double local = 0;
  g.for_each_local_vertex([&](vertex_descriptor, auto& rec) {
    local += rec.property.rank;
  });
  rmi_fence();
  return allreduce(local, std::plus<>{});
}

/// Maximum out-degree (a cheap full-scan statistic used in the method
/// evaluation figures).  Collective.
template <typename G>
std::size_t max_out_degree(G& g)
{
  std::size_t local = 0;
  g.for_each_local_vertex([&](vertex_descriptor, auto& rec) {
    local = std::max(local, rec.edges.size());
  });
  rmi_fence();
  return allreduce(local, [](std::size_t a, std::size_t b) {
    return std::max(a, b);
  });
}

} // namespace stapl

#endif
