// Message-count contracts: the traffic of every pAlgorithm, of every
// element method of p_array, p_hash_map and p_graph, of the graph
// algorithms and of the Euler tour's p_gather, per location, at P = 2, 3
// and 4.
//
// A row runs one operation on every location between two fences and
// compares the calling location's deltas of rmi.rmis_sent,
// rmi.local_rmis, rmi.sync_rmis, rmi.fences (the closing fence excluded)
// and coll.ops with what the method skeleton predicts.  An element method
// runs inline at its owner, as one local invocation, or travels there as
// one RMI that the owner does not count again.  A directory-backed
// container sends a cold request caller -> home -> owner.  An array made
// dynamic homes each element at its placement, so an unmoved element's
// home is its owner; a dynamic graph homes each vertex by a hash.  When
// the owner is not the home, the home also fills the caller's owner cache
// on the caller's first access; once the fill has landed, the request
// goes straight to the owner.  On a static graph, page_rank and
// connected_components update local targets in place and send one RMI
// per round to each other owner their edges reach.  Rows compute their
// counts from the container's placement (resolve, home_of) and the
// graph's edges, so they are exact; the one bound is the sample sort of
// random keys, whose buckets depend on the sampled splitters.
// rmi.msgs_sent is only checked against rmi.rmis_sent: how RMIs batch into
// messages depends on timing.

#include "algorithms/euler_tour.hpp"
#include "algorithms/graph_algorithms.hpp"
#include "algorithms/map_reduce.hpp"
#include "algorithms/p_algorithms.hpp"
#include "algorithms/p_sort.hpp"
#include "containers/graph_generators.hpp"
#include "containers/p_array.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <functional>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace {

using namespace stapl;

/// Per-location counter deltas of one measured operation.
struct traffic {
  std::uint64_t sent = 0, local = 0, sync = 0, fences = 0, coll = 0;
  bool sent_is_bound = false; ///< `sent` is an upper bound, not a count
};

/// Runs `op` on every location between two fences; returns the calling
/// location's deltas, the closing fence not counted.
template <typename Op>
traffic measure(Op&& op)
{
  rmi_fence();
  auto before = metrics::snapshot();
  op();
  rmi_fence();
  auto after = metrics::snapshot();
  auto const d = [&](char const* k) { return after[k] - before[k]; };
  EXPECT_LE(d("rmi.msgs_sent"), d("rmi.rmis_sent"));
  return {d("rmi.rmis_sent"), d("rmi.local_rmis"), d("rmi.sync_rmis"),
          d("rmi.fences") - 1, d("coll.ops")};
}

/// Compares {sent, local, sync, fences, coll}.
void check(std::string const& what, traffic got, traffic const& want)
{
  if (want.sent_is_bound) {
    EXPECT_LE(got.sent, want.sent) << what;
    got.sent = want.sent;
  }
  auto const row = [](traffic const& t) {
    return std::array{t.sent, t.local, t.sync, t.fences, t.coll};
  };
  EXPECT_EQ(row(got), row(want))
      << what << " at location " << this_location() << " of "
      << num_locations() << " {sent, local, sync, fences, coll}";
}

template <typename Op>
void expect_traffic(std::string const& what, Op&& op, traffic const& want)
{
  check(what, measure(op), want);
}

using placement = std::function<location_id(std::size_t)>;

/// The calling location's expected share of routed element accesses.
struct route_model {
  placement owner{}, home{}; ///< `home` is empty for closed-form containers
  traffic want{};
  /// (caller, element) pairs in the home's copyset, those whose cache fill
  /// is on its way, and those whose fill has landed.
  std::set<std::pair<location_id, std::size_t>> subscribed{}, filling{},
      cached{};

  /// One element method that `caller` invokes on element `g`.
  void access(location_id caller, std::size_t g)
  {
    location_id const me = this_location(), o = owner(g);
    if (o == caller) {
      want.local += me == caller;
      return;
    }
    want.sent += me == caller;
    if (!home || cached.count({caller, g}) != 0)
      return;
    location_id const h = home(g);
    if (h == caller || h == o)
      return; // the caller forwards without a fill, or the home runs it
    bool const fills = subscribed.emplace(caller, g).second;
    if (fills)
      filling.emplace(caller, g);
    if (me == h)
      want.sent += 1 + fills; // the forward, and the first access's fill
  }

  /// A fence: the home's cache fills have landed.
  void fence() { cached.merge(filling); }
};

/// Elements of [0, n) that location 0 accesses in an element row: one it
/// owns, then a remote one per routing case (a directory-backed container
/// has three: home at the caller, at the owner, or elsewhere).
std::vector<std::size_t> element_targets(route_model const& m, std::size_t n)
{
  std::vector<std::size_t> out;
  for (std::size_t g = 0; out.empty(); ++g)
    if (m.owner(g) == 0)
      out.push_back(g);
  for (int c = 0; c != (m.home ? 3 : 1); ++c)
    for (std::size_t g = n; g-- > 0;) {
      location_id const o = m.owner(g);
      if (o != 0 && (!m.home ||
                     c == (m.home(g) == 0 ? 0 : m.home(g) == o ? 1 : 2))) {
        out.push_back(g);
        break;
      }
    }
  return out;
}

/// Location 0 runs `access(g)` on each target twice: cold, then warm once
/// the cold access's cache fill has landed.
template <typename Access>
void element_row(std::string const& what, route_model m, std::size_t n,
                 Access access)
{
  for (std::size_t g : element_targets(m, n))
    for (char const* state : {"cold", "warm"}) {
      m.access(0, g);
      m.fence();
      expect_traffic(what + " of " + std::to_string(g) + " " + state,
                     [&] {
                       if (this_location() == 0)
                         access(g);
                     },
                     std::exchange(m.want, {}));
    }
}

struct row {
  std::string name;
  std::function<void()> body;
};

// ---------------------------------------------------------------------------
// p_array: the span-parity partitions and a directory-backed array
// ---------------------------------------------------------------------------

constexpr std::size_t n = 1000;
char const* const array_dists[] = {"balanced", "blocked", "block_cyclic",
                                   "explicit", "dynamic"};

template <typename A, typename F, typename... Args>
void run_arrays(F const& f, bool dynamic, Args const&... partition)
{
  A a(n, partition...), b(n, partition...);
  if (dynamic) {
    a.make_dynamic();
    b.make_dynamic();
  }
  a.for_each_local([](gid1d g, double& x) { x = static_cast<double>(g); });
  f(a, b);
}

/// Calls f(a, b) on two aligned p_arrays of distribution `d` (indexes
/// array_dists): a[g] = g, b all zero.
template <typename F>
void with_arrays(int d, F const& f)
{
  unsigned const p = num_locations();
  switch (d) {
  case 0: return run_arrays<p_array<double>>(f, false);
  case 1:
    return run_arrays<p_array<double, blocked_partition>>(
        f, false, blocked_partition(7));
  case 2:
    return run_arrays<p_array<double, block_cyclic_partition>>(
        f, false, block_cyclic_partition(2 * p, 5));
  case 3:
    return run_arrays<p_array<double, explicit_partition>>(
        f, false, explicit_partition({500, 0, 1, 250, 249}));
  default: return run_arrays<p_array<double>>(f, true);
  }
}

template <typename A>
route_model array_model(A& a)
{
  placement home;
  if (a.is_dynamic())
    home = [d = &a.get_directory()](std::size_t g) { return d->home_of(g); };
  return {.owner = [&a](std::size_t g) { return a.resolve(g).loc; },
          .home = home};
}

/// An unmoved element of an array made dynamic has its home at its owner.
/// Two moves give element_targets a target for the other two routing
/// cases: the last element placed at location 0 moves to location 1 (home
/// at the caller), and the last one placed at location 1 moves to the last
/// location (home elsewhere; there is none at P = 2).
template <typename A>
route_model moved_array_model(A& a)
{
  route_model m = array_model(a);
  if (!a.is_dynamic())
    return m;
  std::map<std::size_t, location_id> moved;
  for (location_id const from : {0u, 1u}) {
    location_id const to = from == 0 ? 1 : num_locations() - 1;
    std::size_t g = n;
    while (m.owner(--g) != from) {
    }
    if (to != from)
      moved.emplace(g, to);
  }
  for (auto const& [g, to] : moved)
    if (a.is_local(g))
      a.migrate(g, to);
  rmi_fence();
  m.owner = [placed = m.owner, moved](std::size_t g) {
    auto const it = moved.find(g);
    return it == moved.end() ? placed(g) : it->second;
  };
  return m;
}

/// Local invocations of a read pass: the per-GID path of a
/// directory-backed array reads each owned element through get_element.
template <typename A>
std::uint64_t read_pass(A const& a)
{
  return a.is_dynamic() ? a.local_size() : 0;
}

void add_array_rows(std::vector<row>& t)
{
  auto add = [&t](std::string const& name, auto f) {
    for (int d = 0; d != 5; ++d)
      t.push_back({name + "/" + array_dists[d], [f, d] { with_arrays(d, f); }});
  };
  auto map = [&add](std::string const& name, auto op) {
    add(name, [name, op](auto& a, auto&) {
      expect_traffic(name, [&] { op(array_1d_view(a)); }, {.fences = 1});
    });
  };
  map("p_for_each", [](auto v) { p_for_each(v, [](double& x) { x += 1; }); });
  map("p_for_each_gid",
      [](auto v) { p_for_each_gid(v, [](gid1d g, double& x) { x += g; }); });
  map("p_generate", [](auto v) { p_generate(v, [] { return 1.0; }); });
  map("p_fill", [](auto v) { p_fill(v, 2.0); });
  auto zip = [&add](std::string const& name, auto op) {
    add(name, [name, op](auto& a, auto& b) {
      expect_traffic(name, [&] { op(array_1d_view(a), array_1d_view(b)); },
                     {.local = a.local_size() + read_pass(a), .fences = 1});
    });
  };
  zip("p_transform", [](auto in, auto out) {
    p_transform(in, out, [](double x) { return 2 * x; });
  });
  zip("p_copy", [](auto in, auto out) { p_copy(in, out); });
  add("p_adjacent_difference", [](auto& a, auto& b) {
    route_model m = array_model(a);
    for (std::size_t g = 0; g != n; ++g) {
      m.access(m.owner(g), g); // the write of out[g]
      if (g != 0)
        m.access(m.owner(g), g - 1);
    }
    m.want.local += read_pass(a);
    m.want.fences = 1;
    expect_traffic("p_adjacent_difference",
                   [&] { p_adjacent_difference(a, b); }, m.want);
  });
  add("map_reduce_into", [](auto& a, auto&) {
    p_hash_map<long, long> out;
    route_model m{.owner = [&out](std::size_t k) {
      return out.resolve(k).loc;
    }};
    for (location_id c = 0; c != num_locations(); ++c) {
      std::set<long> keys; // one apply_async per distinct combined key
      for (std::size_t g = 0; g != n; ++g)
        if (a.resolve(g).loc == c)
          keys.insert(static_cast<long>(g % 16));
      for (long k : keys)
        m.access(c, k);
    }
    m.want.local += read_pass(a);
    m.want.fences = 1;
    expect_traffic("map_reduce_into", [&] {
      map_reduce_into(
          array_1d_view(a),
          [](double x, auto emit) { emit(static_cast<long>(x) % 16, 1L); },
          std::plus<long>{}, out);
    }, m.want);
  });
  auto fold = [&add](std::string const& name, auto op) {
    add(name, [name, op](auto& a, auto&) {
      expect_traffic(name, [&] { (void)op(array_1d_view(a)); },
                     {.local = read_pass(a), .coll = 1});
    });
  };
  fold("map_reduce", [](auto v) {
    return map_reduce(v, [](double x) { return x; }, std::plus<>{});
  });
  fold("p_accumulate", [](auto v) { return p_accumulate(v, 0.0); });
  fold("p_count", [](auto v) { return p_count(v, 3.0); });
  fold("p_count_if",
       [](auto v) { return p_count_if(v, [](double x) { return x > 3; }); });
  fold("p_find", [](auto v) { return p_find(v, 3.0); });
  fold("p_find_if",
       [](auto v) { return p_find_if(v, [](double x) { return x > 3; }); });
  fold("p_min_element", [](auto v) { return p_min_element(v); });
  fold("p_max_element", [](auto v) { return p_max_element(v); });
  add("p_inner_product", [](auto& a, auto& b) {
    expect_traffic("p_inner_product", [&] {
      (void)p_inner_product(array_1d_view(a), array_1d_view(b), 0.0);
    }, {.local = a.local_size() + read_pass(a), .coll = 1});
  });
  add("p_is_sorted", [](auto& a, auto&) {
    route_model m = array_model(a);
    for (std::size_t g = 0; g + 1 < n; ++g)
      m.access(m.owner(g), g + 1);
    m.want.local += read_pass(a);
    m.want.coll = 1;
    expect_traffic("p_is_sorted", [&] { (void)p_is_sorted(a); }, m.want);
  });
  add("p_partial_sum", [](auto& a, auto& b) {
    expect_traffic("p_partial_sum", [&] { p_partial_sum(a, b); },
                   {.fences = 1, .coll = 1});
  });
  // Equal keys all land in the last bucket, so the last location writes
  // back every element: a directory-backed array routes one set_element
  // per element, a closed-form one sends one RMI to each other owner.
  add("p_sample_sort", [](auto&, auto& b) {
    location_id const last = num_locations() - 1;
    route_model m = array_model(b);
    std::set<location_id> written;
    for (std::size_t g = 0; g != n; ++g) {
      if (b.is_dynamic())
        m.access(last, g);
      else if (this_location() == last && m.owner(g) != last)
        written.insert(m.owner(g));
    }
    m.want.sent += written.size();
    m.want.sent += this_location() != last && b.local_size() != 0;
    m.want.fences = 2;
    m.want.coll = 2; // the splitters' allgather and the offsets' scan
    expect_traffic("p_sample_sort", [&] { p_sample_sort(b); }, m.want);
  });
  // Many blocks per location and 600 equal keys: the bucket holding them
  // covers blocks of several owners, yet each owner gets its part in one
  // RMI, so a location sends at most one bucket batch and one write-back
  // message to each other location.
  t.push_back({"p_sample_sort/blocked37_random_keys", [] {
    p_array<long, blocked_partition> pa(1000, blocked_partition(37));
    std::mt19937 gen(99);
    for (gid1d g = 0; g != pa.size(); ++g) {
      long const x = static_cast<long>(gen() % 5000);
      if (pa.is_local(g))
        pa.local_element(g) = g < 600 ? 0 : x;
    }
    expect_traffic("p_sample_sort", [&] { p_sample_sort(pa); },
                   {.sent = 2 * (num_locations() - 1u), .fences = 2,
                    .coll = 2, .sent_is_bound = true});
    EXPECT_TRUE(p_is_sorted(pa));
  }});

  // Every location gathers one element from each other location: one
  // split-phase request per owner, all sent before the first reply is
  // waited for, so none is a synchronous round trip.
  t.push_back({"p_gather/balanced", [] {
    p_array<double> a(n);
    a.for_each_local([](gid1d g, double& x) { x = static_cast<double>(g); });
    std::vector<gid1d> idx;
    for (location_id l = 0; l != num_locations(); ++l) {
      gid1d g = 0;
      while (a.resolve(g).loc != l)
        ++g;
      if (l != this_location())
        idx.push_back(g);
    }
    std::vector<double> got;
    expect_traffic("p_gather", [&] { got = p_gather(a, idx); },
                   {.sent = num_locations() - 1u});
    for (std::size_t k = 0; k != idx.size(); ++k)
      EXPECT_EQ(got[k], static_cast<double>(idx[k]));
  }});

  auto method = [&add](std::string const& name, auto f) {
    add("p_array_" + name, [name, f](auto& a, auto&) {
      element_row(name, moved_array_model(a), n,
                  [&](std::size_t g) { f(a, g); });
    });
  };
  method("set_element", [](auto& a, gid1d g) { a.set_element(g, 1.0); });
  method("set_element_sync",
         [](auto& a, gid1d g) { a.set_element_sync(g, 1.0); });
  method("get_element", [](auto& a, gid1d g) { (void)a.get_element(g); });
  method("split_phase_get_element",
         [](auto& a, gid1d g) { (void)a.split_phase_get_element(g).get(); });
  method("apply_get",
         [](auto& a, gid1d g) { (void)a.apply_get(g, std::negate<>{}); });
  method("apply_set",
         [](auto& a, gid1d g) { a.apply_set(g, [](double& x) { x += 1; }); });
  method("index_read", [](auto& a, gid1d g) { (void)double(a[g]); });
  method("index_write", [](auto& a, gid1d g) { a[g] = 1.0; });
}

// ---------------------------------------------------------------------------
// p_hash_map (hashed partition, closed-form resolution)
// ---------------------------------------------------------------------------

using hash_map = p_hash_map<long, long>;

void add_hash_map_rows(std::vector<row>& t)
{
  auto method = [&t](std::string const& name, void (*f)(hash_map&, long)) {
    t.push_back({"p_hash_map_" + name, [name, f] {
      hash_map hm;
      route_model m{.owner = [&hm](std::size_t k) {
        return hm.resolve(k).loc;
      }};
      element_row(name, m, 64, [&](std::size_t k) { f(hm, long(k)); });
    }});
  };
  method("insert_async", [](auto& m, long k) { m.insert_async(k, 1); });
  method("insert", [](auto& m, long k) { (void)m.insert(k, 1); });
  method("erase_async", [](auto& m, long k) { m.erase_async(k); });
  method("erase", [](auto& m, long k) { (void)m.erase(k); });
  method("find_val", [](auto& m, long k) { (void)m.find_val(k); });
  method("split_phase_find",
         [](auto& m, long k) { (void)m.split_phase_find(k).get(); });
  method("contains", [](auto& m, long k) { (void)m.contains(k); });
  method("count", [](auto& m, long k) { (void)m.count(k); });
  method("apply_async",
         [](auto& m, long k) { m.apply_async(k, [](long& x) { x += 1; }); });
  method("apply_get",
         [](auto& m, long k) { (void)m.apply_get(k, std::negate<>{}); });
  method("set_element", [](auto& m, long k) { m.set_element(k, 2); });
  method("get_element", [](auto& m, long k) { (void)m.get_element(k); });
}

// ---------------------------------------------------------------------------
// p_graph: a 6x5 mesh, static or directory-backed from birth
// ---------------------------------------------------------------------------

/// The fields every graph algorithm needs.
struct vprop {
  long level = -1;
  std::size_t component = 0, indegree = 0;
  double rank = 0, incoming = 0, residual = 0;
};
using digraph = p_graph<DIRECTED, MULTI, vprop>;
using ugraph = p_graph<UNDIRECTED, MULTI, vprop>;
using vertices = std::vector<vertex_descriptor>;
constexpr std::size_t nv = 30;

/// The whole graph as every location sees it, gathered before a window:
/// owner and out-edges of each vertex, and each location's traversal
/// order.
struct graph_info {
  std::vector<location_id> owner;
  std::vector<vertices> adj, order;
};

/// Calls f(g, info) on a 6x5 mesh; a dynamic one starts with empty owner
/// caches.
template <typename G, typename F>
void with_graph(bool dynamic, F const& f)
{
  auto run = [&f](G& g) {
    generate_mesh(g, 6, 5);
    if (!g.is_static())
      g.get_directory().clear_cache();
    std::vector<std::pair<vertex_descriptor, vertices>> mine;
    g.for_each_local_vertex([&](vertex_descriptor v, auto& rec) {
      mine.emplace_back(v, vertices{});
      for (auto const& e : rec.edges)
        mine.back().second.push_back(e.target);
    });
    graph_info gi{std::vector<location_id>(nv), std::vector<vertices>(nv),
                  std::vector<vertices>(num_locations())};
    auto const all = allgather(mine);
    for (location_id l = 0; l != all.size(); ++l)
      for (auto const& [v, ts] : all[l]) {
        gi.owner[v] = l;
        gi.adj[v] = ts;
        gi.order[l].push_back(v);
      }
    f(g, gi);
  };
  if (dynamic) {
    G g(graph_partition_kind::dynamic_forwarding);
    run(g);
  } else {
    G g(nv);
    run(g);
  }
}

template <typename G>
route_model graph_model(G& g, graph_info const& gi)
{
  placement home;
  if (!g.is_static())
    home = [d = &g.get_directory()](std::size_t v) { return d->home_of(v); };
  return {.owner = [&gi](std::size_t v) { return gi.owner[v]; },
          .home = home};
}

/// The owner of `v` reads it (when `reads`), then calls apply_vertex on
/// every out-edge's target.
void visit(route_model& m, graph_info const& gi, vertex_descriptor v,
           bool reads)
{
  if (reads)
    m.access(gi.owner[v], v);
  for (vertex_descriptor w : gi.adj[v])
    m.access(gi.owner[v], w);
}

/// One edge pass on a static graph (page_rank, connected_components):
/// each location updates its own targets in place and sends one RMI to
/// each other owner that its out-edges reach.
void edge_pass(route_model& m, graph_info const& gi)
{
  location_id const me = this_location();
  std::set<location_id> reached;
  for (vertex_descriptor v : gi.order[me])
    for (vertex_descriptor w : gi.adj[v])
      if (gi.owner[w] != me)
        reached.insert(gi.owner[w]);
  m.want.sent += reached.size();
}

template <typename G, typename F>
void add_graph_row(std::vector<row>& t, std::string const& name, F f,
                   bool with_static = true)
{
  for (bool const dynamic : {false, true})
    if (dynamic || with_static)
      t.push_back({name + (dynamic ? "/dynamic" : "/static"),
                   [f, dynamic] { with_graph<G>(dynamic, f); }});
}

void add_graph_rows(std::vector<row>& t)
{
  auto add = [&t](std::string const& name, auto f, bool with_static = true) {
    add_graph_row<digraph>(t, name, f, with_static);
  };
  add("page_rank", [](digraph& g, graph_info const& gi) {
    std::size_t const k = 3;
    route_model m = graph_model(g, gi);
    if (!g.is_static()) // one allreduce of the local vertex counts
      m.want.coll = 1;
    for (std::size_t it = 0; it != k; ++it, m.fence()) {
      if (g.is_static())
        edge_pass(m, gi);
      else
        for (vertex_descriptor v = 0; v != nv; ++v)
          visit(m, gi, v, false);
    }
    m.want.fences = 1 + k;
    expect_traffic("page_rank", [&] { page_rank(g, k); }, m.want);
  });
  add("find_sources", [](digraph& g, graph_info const& gi) {
    route_model m = graph_model(g, gi);
    for (vertex_descriptor v = 0; v != nv; ++v)
      visit(m, gi, v, false);
    m.want.fences = 3;
    expect_traffic("find_sources", [&] { (void)find_sources(g); }, m.want);
  });
  add("bfs_levels", [](digraph& g, graph_info const& gi) {
    // The frontiers of a sequential BFS from vertex 0: each frontier
    // vertex's owner reads its out-edges and visits every target.
    std::vector<vertices> fronts{{0}};
    std::vector<bool> seen(nv);
    seen[0] = true;
    for (vertices next; !fronts.back().empty();
         fronts.push_back(std::exchange(next, {})))
      for (vertex_descriptor v : fronts.back())
        for (vertex_descriptor w : gi.adj[v])
          if (!seen[w]) {
            seen[w] = true;
            next.push_back(w);
          }
    fronts.pop_back();
    route_model m = graph_model(g, gi);
    m.access(gi.owner[0], 0); // the seed
    for (auto const& front : fronts) {
      for (vertex_descriptor v : front)
        visit(m, gi, v, true);
      m.fence();
    }
    m.want.fences = 3 + fronts.size();
    m.want.coll = fronts.size() + 1;
    expect_traffic("bfs_levels", [&] { (void)bfs_levels(g, 0); }, m.want);
  });
  add("page_rank_incremental", [](digraph& g, graph_info const& gi) {
    // One round from every vertex: each location drains its own vertices
    // and scatters along their out-edges.
    page_rank_push_init(g);
    route_model m = graph_model(g, gi);
    for (vertex_descriptor v = 0; v != nv; ++v)
      visit(m, gi, v, true);
    m.want.fences = 3;
    m.want.coll = 2;
    expect_traffic("page_rank_incremental", [&] {
      (void)page_rank_incremental(g, g.local_gids(), 1);
    }, m.want);
  });
  add_graph_row<ugraph>(t, "connected_components", [](ugraph& g,
                                                      graph_info const& gi) {
    // Rounds of label propagation in each location's traversal order: a
    // local target takes the label at once, a remote one at the fence.  A
    // static graph's round is one edge pass; a dynamic one's visits every
    // edge.
    route_model m = graph_model(g, gi);
    std::vector<std::size_t> label(nv);
    std::iota(label.begin(), label.end(), 0);
    std::size_t rounds = 0;
    for (bool changed = true; changed; m.fence()) {
      ++rounds;
      changed = false;
      if (g.is_static())
        edge_pass(m, gi);
      std::vector<std::pair<vertex_descriptor, std::size_t>> sent;
      for (location_id c = 0; c != num_locations(); ++c)
        for (vertex_descriptor v : gi.order[c])
          for (vertex_descriptor w : gi.adj[v]) {
            if (!g.is_static())
              m.access(c, w);
            if (gi.owner[w] != c)
              sent.emplace_back(w, label[v]);
            else if (label[v] < label[w])
              label[w] = label[v], changed = true;
          }
      for (auto const& [w, l] : sent)
        if (l < label[w])
          label[w] = l, changed = true;
    }
    m.want.fences = 2 + 2 * rounds;
    m.want.coll = rounds + 1;
    expect_traffic("connected_components",
                   [&] { (void)connected_components(g); }, m.want);
  });

  using vd = vertex_descriptor;
  auto method = [&add](std::string const& name, void (*f)(digraph&, vd)) {
    add("p_graph_" + name, [name, f](digraph& g, graph_info const& gi) {
      element_row(name, graph_model(g, gi), nv, [&](vd v) { f(g, v); });
    });
  };
  method("get_vertex_property",
         [](auto& g, vd v) { (void)g.get_vertex_property(v); });
  method("set_vertex_property",
         [](auto& g, vd v) { g.set_vertex_property(v, vprop{}); });
  method("apply_vertex", [](auto& g, vd v) {
    g.apply_vertex(v, [](auto& rec) { rec.property.rank += 1; });
  });
  method("apply_vertex_get", [](auto& g, vd v) {
    (void)g.apply_vertex_get(v, [](auto& rec) { return rec.edges.size(); });
  });
  method("set_element", [](auto& g, vd v) { g.set_element(v, vprop{}); });
  method("get_element", [](auto& g, vd v) { (void)g.get_element(v); });
  method("add_edge_async", [](auto& g, vd v) { g.add_edge_async(v, 0); });
  method("add_edge", [](auto& g, vd v) { (void)g.add_edge(v, 0); });
  method("rewire_edge_async",
         [](auto& g, vd v) { g.rewire_edge_async(v, 0, 1); });
  method("delete_edge", [](auto& g, vd v) { g.delete_edge(v, 0); });
  method("find_edge", [](auto& g, vd v) { (void)g.find_edge(v, 0); });
  method("out_degree", [](auto& g, vd v) { (void)g.out_degree(v); });
  method("out_edges", [](auto& g, vd v) { (void)g.out_edges(v); });

  // On a dynamic graph these resolve, register or unregister through the
  // directory instead of routing the method to the vertex.
  add("p_graph_find_vertex", [](digraph& g, graph_info const& gi) {
    route_model m = graph_model(g, gi);
    if (g.is_static())
      return element_row("find_vertex", m, nv,
                         [&](vd v) { (void)g.find_vertex(v); });
    // A cold lookup asks the home, which fills the caller's cache; a
    // warm one, or one by the owner or the home, costs nothing.
    location_id const me = this_location();
    for (vd v : element_targets(m, nv))
      for (bool const cold : {true, false}) {
        bool const asks = cold && gi.owner[v] != 0 && m.home(v) != 0;
        expect_traffic("find_vertex of " + std::to_string(v), [&] {
          if (me == 0)
            (void)g.find_vertex(v);
        }, {.sent = asks && (me == 0 || me == m.home(v)),
            .sync = asks && me == 0});
      }
  });
  add("p_graph_add_vertex", [](digraph& g, graph_info const& gi) {
    route_model m = graph_model(g, gi);
    if (g.is_static())
      return element_row("add_vertex", m, nv,
                         [&](vd v) { g.add_vertex(v, vprop{}); });
    // A new vertex stays at the caller and registers with its home; so
    // does one with a descriptor of the caller's own.
    location_id const me = this_location();
    for (vd v = nv; v != nv + 4; ++v)
      expect_traffic("add_vertex " + std::to_string(v), [&] {
        if (me == 0)
          g.add_vertex(v, vprop{});
      }, {.sent = me == 0 && m.home(v) != 0});
    vd own = 0;
    traffic const got = measure([&] {
      if (me == 0)
        own = g.add_vertex(vprop{});
    });
    check("add_vertex()", got, {.sent = me == 0 && m.home(own) != 0});
  });
  add("p_graph_get_num_vertices", [](digraph& g, graph_info const&) {
    std::uint64_t const asks = g.is_static() ? 0 : num_locations() - 1;
    expect_traffic("get_num_vertices", [&] { (void)g.get_num_vertices(); },
                   {.sent = asks, .sync = asks});
  });
  add("p_graph_delete_vertex", [](digraph& g, graph_info const& gi) {
    // Dynamic only: a static vertex set is fixed.  The owner deletes and
    // unregisters at the home; the home then drops the copy it filled
    // into a cold caller's cache.
    route_model m = graph_model(g, gi);
    location_id const me = this_location();
    for (vd v : element_targets(m, nv)) {
      location_id const o = gi.owner[v], h = m.home(v);
      m.access(0, v);
      m.want.sent +=
          (me == o && h != o) + (me == h && m.subscribed.count({0, v}) != 0);
      expect_traffic("delete_vertex " + std::to_string(v), [&] {
        if (me == 0)
          g.delete_vertex(v);
      }, std::exchange(m.want, {}));
    }
  }, false);
}

std::vector<row> const& table()
{
  static std::vector<row> const rows = [] {
    std::vector<row> t;
    add_array_rows(t);
    add_hash_map_rows(t);
    add_graph_rows(t);
    return t;
  }();
  return rows;
}

class MessageContract
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>> {};

TEST_P(MessageContract, Row)
{
  auto const [i, p] = GetParam();
  execute(p, table()[i].body);
}

INSTANTIATE_TEST_SUITE_P(
    Table, MessageContract,
    ::testing::Combine(::testing::Range<std::size_t>(0, table().size()),
                       ::testing::Values(2u, 3u, 4u)),
    [](auto const& info) {
      std::string s = table()[std::get<0>(info.param)].name + "_P" +
                      std::to_string(std::get<1>(info.param));
      std::replace_if(s.begin(), s.end(),
                      [](char c) { return std::isalnum(c) == 0; }, '_');
      return s;
    });

} // namespace
