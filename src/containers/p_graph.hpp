#ifndef STAPL_CONTAINERS_P_GRAPH_HPP
#define STAPL_CONTAINERS_P_GRAPH_HPP

// The stapl pGraph (dissertation Ch. XI): a relational pContainer of
// vertices and edges (Table XVII/XXVII).  Derivation (Fig. 12e):
//   p_container_base -> p_container_dynamic -> p_container_relational
//   -> p_graph.
//
// Three address-translation modes are supported (the Fig. 51/52 study):
//   * static_balanced      — fixed vertex set [0, N), closed-form resolution
//                            (partition + mapper), no metadata traffic;
//   * dynamic_forwarding   — vertices live where they were added; a
//                            distributed directory (home = hash(gid) mod P)
//                            maps GID -> owner, and requests *migrate*
//                            through the home toward the owner;
//   * dynamic_no_forwarding— same directory, but the requester synchronously
//                            fetches the owner from the home first (two
//                            round trips, no computation migration).
//
// Vertex storage follows the partition kind (Fig. 16): a static graph
// stores its slice densely and finds a vertex by offset, a dynamic one
// finds it through a hashed index (graph_bcontainer below).
//
// Dynamic graphs are directory-backed from birth, so they opt straight into
// hot-vertex load balancing (core/load_balancer.hpp):
// enable_load_balancing() starts owner-side access tracking, and
// rebalance() migrates the hottest vertices (property and out-edge list,
// see the migration hooks below) off overloaded locations.
// High-degree hub vertices of skewed graphs are the canonical case.

#include <cassert>
#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

#include "../core/container_base.hpp"

namespace stapl {

enum class graph_directedness { directed, undirected };
enum class graph_multiplicity { multi, non_multi };
enum class graph_partition_kind {
  static_balanced,
  dynamic_forwarding,
  dynamic_no_forwarding
};

inline constexpr auto DIRECTED = graph_directedness::directed;
inline constexpr auto UNDIRECTED = graph_directedness::undirected;
inline constexpr auto MULTI = graph_multiplicity::multi;
inline constexpr auto NONMULTI = graph_multiplicity::non_multi;

/// Property placeholder for property-less graphs.
struct no_property {
  void define_type(typer&) {}
  [[nodiscard]] bool operator==(no_property const&) const = default;
};

/// Vertex identifier. For dynamic graphs, auto-allocated descriptors encode
/// the creating location in the high bits.
using vertex_descriptor = std::size_t;

/// Edge reference: (source, target) pair (Table XXVI).
struct edge_descriptor {
  vertex_descriptor source = 0;
  vertex_descriptor target = 0;
  [[nodiscard]] bool operator==(edge_descriptor const&) const = default;
  void define_type(typer& t)
  {
    t.member(source);
    t.member(target);
  }
};

// ---------------------------------------------------------------------------
// Graph base container
// ---------------------------------------------------------------------------

template <typename EP>
struct graph_edge {
  vertex_descriptor target = 0;
  EP property{};
};

/// Adjacency-list storage for the vertices of one location (Ch. XI.D): one
/// vector of (descriptor, record) slots, whose lookup follows the partition
/// kind as in Fig. 16.  A static graph's fixed slice [base, base + n) is
/// created by the constructor and found by offset, with no hashing.  A
/// dynamic graph's vertices come and go: an id -> slot index finds them,
/// and removing one moves the last record into the freed slot.
template <typename VP, typename EP>
class graph_bcontainer {
 public:
  using vertex_property = VP;
  using edge_property = EP;
  using edge_type = graph_edge<EP>;

  struct vertex_record {
    VP property{};
    std::vector<edge_type> edges;
  };

  /// Dynamic storage: starts empty.
  explicit graph_bcontainer(bcid_type bcid) : m_bcid(bcid) {}
  /// Static storage: the fixed vertex slice [base, base + n).
  graph_bcontainer(bcid_type bcid, vertex_descriptor base, std::size_t n)
      : m_bcid(bcid), m_static(true), m_base(base)
  {
    m_v.reserve(n);
    for (std::size_t i = 0; i != n; ++i)
      m_v.emplace_back(base + i, vertex_record{});
  }

  [[nodiscard]] std::size_t size() const noexcept { return m_v.size(); }
  [[nodiscard]] bool empty() const noexcept { return m_v.empty(); }
  [[nodiscard]] bcid_type get_bcid() const noexcept { return m_bcid; }
  void clear()
  {
    m_v.clear();
    m_index.clear();
    m_edges = 0;
  }

  /// Stores a new vertex (dynamic storage only); false when `v` is here.
  bool add_vertex(vertex_descriptor v, vertex_record rec)
  {
    assert(!m_static && "a static graph's vertex set is fixed");
    if (!m_index.try_emplace(v, m_v.size()).second)
      return false;
    m_edges += rec.edges.size();
    m_v.emplace_back(v, std::move(rec));
    return true;
  }
  bool delete_vertex(vertex_descriptor v)
  {
    if (!has_vertex(v))
      return false;
    (void)extract_vertex(v);
    return true;
  }
  /// Removes the vertex and returns its record (dynamic storage only; used
  /// by the migration protocol).  The last slot fills the hole.
  [[nodiscard]] vertex_record extract_vertex(vertex_descriptor v)
  {
    assert(!m_static && "a static graph's vertex set is fixed");
    auto const it = m_index.find(v);
    assert(it != m_index.end() && "extract_vertex: vertex not here");
    std::size_t const s = it->second;
    m_index.erase(it);
    vertex_record rec = std::move(m_v[s].second);
    m_edges -= rec.edges.size();
    if (s + 1 != m_v.size()) {
      m_v[s] = std::move(m_v.back());
      m_index[m_v[s].first] = s;
    }
    m_v.pop_back();
    return rec;
  }
  [[nodiscard]] bool has_vertex(vertex_descriptor v) const
  {
    return m_static ? v - m_base < m_v.size() : m_index.count(v) != 0;
  }
  [[nodiscard]] vertex_record& vertex(vertex_descriptor v)
  {
    return m_v[slot(v)].second;
  }
  [[nodiscard]] vertex_record const& vertex(vertex_descriptor v) const
  {
    return m_v[slot(v)].second;
  }

  /// Adds an out-edge at `src` (which must be local).  Returns false when a
  /// duplicate target exists and multi-edges are disallowed.
  bool add_edge(vertex_descriptor src, vertex_descriptor tgt, EP ep,
                bool multi)
  {
    auto& rec = vertex(src);
    if (!multi)
      for (auto const& e : rec.edges)
        if (e.target == tgt)
          return false;
    rec.edges.push_back(edge_type{tgt, std::move(ep)});
    ++m_edges;
    return true;
  }

  bool delete_edge(vertex_descriptor src, vertex_descriptor tgt)
  {
    if (!has_vertex(src))
      return false;
    auto& es = vertex(src).edges;
    for (auto e = es.begin(); e != es.end(); ++e)
      if (e->target == tgt) {
        es.erase(e);
        --m_edges;
        return true;
      }
    return false;
  }

  [[nodiscard]] std::size_t num_local_edges() const noexcept
  {
    return m_edges;
  }

  [[nodiscard]] auto begin() noexcept { return m_v.begin(); }
  [[nodiscard]] auto end() noexcept { return m_v.end(); }
  [[nodiscard]] auto begin() const noexcept { return m_v.begin(); }
  [[nodiscard]] auto end() const noexcept { return m_v.end(); }

  [[nodiscard]] memory_report memory_size() const noexcept
  {
    std::size_t data = 0;
    for (auto const& [v, rec] : m_v)
      data += sizeof(vertex_record) + rec.edges.capacity() * sizeof(edge_type);
    return {sizeof(*this) + m_index.size() * 4 * sizeof(void*), data};
  }

 private:
  /// The slot of a stored vertex: its offset in a static slice, its index
  /// entry otherwise.
  [[nodiscard]] std::size_t slot(vertex_descriptor v) const
  {
    std::size_t const s = m_static ? v - m_base : m_index.at(v);
    assert(s < m_v.size() && "vertex not stored here");
    return s;
  }

  bcid_type m_bcid = invalid_bcid;
  bool m_static = false;
  vertex_descriptor m_base = 0;
  std::vector<std::pair<vertex_descriptor, vertex_record>> m_v;
  std::unordered_map<vertex_descriptor, std::size_t> m_index;
  std::size_t m_edges = 0;
};

/// Partition facade for graphs: one bContainer per location.  Static graphs
/// resolve in closed form over [0, N); dynamic graphs bypass get_info (they
/// resolve through the directory).
class graph_partition {
 public:
  using gid_type = vertex_descriptor;
  using domain_type = indexed_domain;

  graph_partition() = default;
  graph_partition(graph_partition_kind kind, std::size_t n, unsigned p)
      : m_kind(kind), m_n(n), m_p(p)
  {}

  [[nodiscard]] graph_partition_kind kind() const noexcept { return m_kind; }
  [[nodiscard]] std::size_t size() const noexcept { return m_p; }
  [[nodiscard]] domain_type domain() const { return indexed_domain(m_n); }

  /// Closed-form owner of a static vertex (balanced split of [0, N)).
  [[nodiscard]] bcid_type get_info(gid_type v) const noexcept
  {
    assert(m_kind == graph_partition_kind::static_balanced);
    return index1d(m_n, m_p, v);
  }

  void define_type(typer& t)
  {
    t.member(m_kind);
    t.member(m_n);
    t.member(m_p);
  }

 private:
  graph_partition_kind m_kind = graph_partition_kind::static_balanced;
  std::size_t m_n = 0;
  unsigned m_p = 1;
};

namespace detail {

template <typename VP, typename EP>
struct graph_traits_bundle {
  using value_type = VP;
  using partition_type = graph_partition;
  using mapper_type = cyclic_mapper; // bcid == location (identity for p==p)
  using bcontainer_type = graph_bcontainer<VP, EP>;
};

} // namespace detail

// ---------------------------------------------------------------------------
// p_graph
// ---------------------------------------------------------------------------

template <graph_directedness D, graph_multiplicity M,
          typename VP = no_property, typename EP = no_property>
class p_graph final
    : public p_container_dynamic<p_graph<D, M, VP, EP>,
                                 detail::graph_traits_bundle<VP, EP>> {
  using base = p_container_dynamic<p_graph<D, M, VP, EP>,
                                   detail::graph_traits_bundle<VP, EP>>;

 public:
  using vertex_property = VP;
  using edge_property = EP;
  using gid_type = vertex_descriptor;
  using bcontainer_type = graph_bcontainer<VP, EP>;
  using vertex_record = typename bcontainer_type::vertex_record;

  static constexpr bool is_directed = (D == graph_directedness::directed);
  static constexpr bool is_multi = (M == graph_multiplicity::multi);

  /// Collective: dynamic pGraph (empty), with or without method forwarding.
  explicit p_graph(graph_partition_kind kind =
                       graph_partition_kind::dynamic_forwarding)
  {
    assert(kind != graph_partition_kind::static_balanced &&
           "static graphs must be constructed with a vertex count");
    init(kind, 0);
  }

  /// Collective: static pGraph with n pre-created vertices [0, n).
  explicit p_graph(std::size_t n,
                   graph_partition_kind kind =
                       graph_partition_kind::static_balanced)
  {
    init(kind, n);
  }

  ~p_graph() override { rmi_fence(); }

  [[nodiscard]] graph_partition_kind partition_kind() const noexcept
  {
    return this->m_partition.kind();
  }
  [[nodiscard]] bool is_static() const noexcept
  {
    return partition_kind() == graph_partition_kind::static_balanced;
  }

  // -------------------------------------------------------------------------
  // Address resolution (Fig. 7 + the Ch. XI.F.2 translation mechanisms)
  // -------------------------------------------------------------------------

  /// Closed-form address of a static vertex: one bContainer per location,
  /// so the bCID is the location.  Dynamic graphs never get here: their
  /// element methods and locality queries go through the directory.
  [[nodiscard]] resolution resolve(gid_type v) const
  {
    bcid_type const b = this->m_partition.get_info(v);
    return {b, static_cast<location_id>(b)};
  }

  /// Local dispatch for directory-routed methods: all local vertices live
  /// in this location's single bContainer.
  [[nodiscard]] bcid_type dyn_local_bcid(gid_type) const noexcept
  {
    return this->get_location_id();
  }

  // -------------------------------------------------------------------------
  // Migration protocol hooks (see core/migration.hpp): a vertex migrates
  // with its property and out-edge list; in-edges elsewhere keep their
  // target descriptor, which stays valid under directory resolution.
  // -------------------------------------------------------------------------

  [[nodiscard]] vertex_record extract_element(gid_type v)
  {
    return this->bc(this->get_location_id()).extract_vertex(v);
  }

  void insert_migrated(gid_type v, vertex_record rec)
  {
    (void)this->bc(this->get_location_id()).add_vertex(v, std::move(rec));
  }

  // -------------------------------------------------------------------------
  // Vertex methods (Table XVII)
  // -------------------------------------------------------------------------

  /// Adds a vertex on this location; returns its descriptor.  Dynamic only.
  gid_type add_vertex(VP vp = VP{})
  {
    assert(!is_static() && "add_vertex on a static pGraph");
    gid_type const v = next_descriptor();
    add_vertex(v, std::move(vp));
    return v;
  }

  /// Adds a vertex with an explicit descriptor.  Dynamic graphs store it on
  /// the *calling* location and register it with the directory home
  /// (asynchronously — complete at the next fence).  A static vertex set is
  /// fixed, so there it only sets the property of `gid`.
  void add_vertex(gid_type gid, VP vp)
  {
    if (is_static()) {
      set_vertex_property(gid, std::move(vp));
      return;
    }
    this->bc(this->get_location_id()).add_vertex(gid, {std::move(vp), {}});
    this->get_directory().register_gid(gid);
  }

  /// Deletes a vertex (its record and out-edges).  Dynamic only: a static
  /// vertex set is fixed.  As in the dissertation, this is not a
  /// transaction: directory update and record removal are individually
  /// atomic, in-edges elsewhere are not chased.
  void delete_vertex(gid_type v)
  {
    assert(!is_static() && "delete_vertex on a static pGraph");
    this->invoke(v, [v](p_graph& g, bcid_type b) {
      g.bc(b).delete_vertex(v);
      g.dyn_forget(v);
    });
  }

  /// Synchronous existence check.
  [[nodiscard]] bool find_vertex(gid_type v)
  {
    if (is_static()) {
      if (!this->m_partition.domain().contains(v))
        return false;
      return this->invoke_ret(v, [v](p_graph& g, bcid_type b) {
        return g.bc(b).has_vertex(v);
      });
    }
    // Dynamic: ask the directory home (authoritative, never livelocks on
    // missing vertices; warms this location's owner cache on success).
    return this->get_directory().resolve(v) != invalid_location;
  }

  [[nodiscard]] VP get_vertex_property(gid_type v)
  {
    return this->invoke_ret(v, [v](p_graph& g, bcid_type b) {
      return g.bc(b).vertex(v).property;
    });
  }

  void set_vertex_property(gid_type v, VP vp)
  {
    this->invoke(v,
                 [v, vp = std::move(vp)](p_graph& g, bcid_type b) {
                   g.bc(b).vertex(v).property = vp;
                 });
  }

  /// Applies f(vertex_record&) at the vertex, asynchronously.  The workhorse
  /// of the level-synchronous graph algorithms of Ch. XI.F.3.
  template <typename F>
  void apply_vertex(gid_type v, F f)
  {
    this->invoke(v,
                 [v, f = std::move(f)](p_graph& g, bcid_type b) mutable {
                   f(g.bc(b).vertex(v));
                 });
  }

  template <typename F>
  [[nodiscard]] auto apply_vertex_get(gid_type v, F f)
  {
    return this->invoke_ret(v,
                            [v, f = std::move(f)](p_graph& g,
                                                  bcid_type b) mutable {
                              return f(g.bc(b).vertex(v));
                            });
  }

  // element-view aliases so vertex properties work with generic algorithms
  void set_element(gid_type v, VP vp) { set_vertex_property(v, std::move(vp)); }
  [[nodiscard]] VP get_element(gid_type v) { return get_vertex_property(v); }

  // -------------------------------------------------------------------------
  // Edge methods
  // -------------------------------------------------------------------------

  /// Asynchronous edge insertion (Table XVII add_edge_async).  For
  /// undirected graphs the reverse edge is inserted as well.
  void add_edge_async(gid_type src, gid_type tgt, EP ep = EP{})
  {
    this->invoke(src, [src, tgt, ep](p_graph& g, bcid_type b) {
      (void)g.bc(b).add_edge(src, tgt, ep, is_multi);
    });
    if constexpr (!is_directed) {
      this->invoke(tgt, [src, tgt, ep](p_graph& g, bcid_type b) {
        (void)g.bc(b).add_edge(tgt, src, ep, is_multi);
      });
    }
  }

  /// Synchronous edge insertion; returns the descriptor.
  edge_descriptor add_edge(gid_type src, gid_type tgt, EP ep = EP{})
  {
    bool const ok =
        this->invoke_ret(src,
                         [src, tgt, ep](p_graph& g, bcid_type b) {
                           return g.bc(b).add_edge(src, tgt, ep, is_multi);
                         });
    if constexpr (!is_directed) {
      if (ok)
        this->invoke(tgt,
                     [src, tgt, ep](p_graph& g, bcid_type b) {
                       (void)g.bc(b).add_edge(tgt, src, ep, is_multi);
                     });
    }
    return ok ? edge_descriptor{src, tgt} : edge_descriptor{};
  }

  /// Atomically rewires one out-edge (delete src→old_tgt, insert
  /// src→new_tgt) in a single routed visit at the vertex's owner — the
  /// edge-churn primitive of streaming-graph scenarios: one visit instead
  /// of a delete_edge + add_edge_async pair, and the two mutations run in
  /// that one visit on the owner's thread, so no observer sees the vertex
  /// with both (or neither) edge.  Directed graphs only: an undirected rewire
  /// would need a second routed visit for the reverse edges.
  void rewire_edge_async(gid_type src, gid_type old_tgt, gid_type new_tgt,
                         EP ep = EP{})
  {
    static_assert(is_directed,
                  "rewire_edge_async is a directed-graph primitive");
    this->invoke(src,
                 [src, old_tgt, new_tgt, ep](p_graph& g, bcid_type b) {
                   (void)g.bc(b).delete_edge(src, old_tgt);
                   (void)g.bc(b).add_edge(src, new_tgt, ep, is_multi);
                 });
  }

  void delete_edge(gid_type src, gid_type tgt)
  {
    this->invoke(src, [src, tgt](p_graph& g, bcid_type b) {
      (void)g.bc(b).delete_edge(src, tgt);
    });
    if constexpr (!is_directed)
      this->invoke(tgt, [src, tgt](p_graph& g, bcid_type b) {
        (void)g.bc(b).delete_edge(tgt, src);
      });
  }

  [[nodiscard]] bool find_edge(gid_type src, gid_type tgt)
  {
    return this->invoke_ret(src, [src, tgt](p_graph& g, bcid_type b) {
      if (!g.bc(b).has_vertex(src))
        return false;
      for (auto const& e : g.bc(b).vertex(src).edges)
        if (e.target == tgt)
          return true;
      return false;
    });
  }

  [[nodiscard]] std::size_t out_degree(gid_type v)
  {
    return this->invoke_ret(v, [v](p_graph& g, bcid_type b) {
      return g.bc(b).vertex(v).edges.size();
    });
  }

  /// Copies the adjacency (targets) of a vertex.
  [[nodiscard]] std::vector<gid_type> out_edges(gid_type v)
  {
    return this->invoke_ret(v, [v](p_graph& g, bcid_type b) {
      std::vector<gid_type> ts;
      for (auto const& e : g.bc(b).vertex(v).edges)
        ts.push_back(e.target);
      return ts;
    });
  }

  // -------------------------------------------------------------------------
  // Global properties / traversal
  // -------------------------------------------------------------------------

  /// Global vertex count.  A static vertex set is fixed, so its count is
  /// the partition's closed form, as for p_container_static; a dynamic
  /// graph asks every location (p_container_dynamic::size).
  [[nodiscard]] std::size_t get_num_vertices()
  {
    return is_static() ? this->m_partition.domain().size() : this->size();
  }

  [[nodiscard]] std::size_t get_local_num_edges() const
  {
    std::size_t n = 0;
    for (auto const& [bcid, bcptr] : this->m_lm)
      n += bcptr->num_local_edges();
    return n;
  }

  /// Total edge count; undirected edges counted once.  Collective.
  [[nodiscard]] std::size_t get_num_edges()
  {
    auto const total = allreduce(get_local_num_edges(), std::plus<>{});
    return is_directed ? total : total / 2;
  }

  /// f(vertex_descriptor, vertex_record&) over local vertices.
  template <typename F>
  void for_each_local_vertex(F&& f)
  {
    for (auto& [bcid, bcptr] : this->m_lm)
      for (auto& [v, rec] : *bcptr)
        f(v, rec);
  }

  /// Local vertex descriptors (view support).
  [[nodiscard]] std::vector<gid_type> local_gids() const
  {
    std::vector<gid_type> out;
    for (auto const& [bcid, bcptr] : this->m_lm)
      for (auto const& [v, rec] : *bcptr)
        out.push_back(v);
    return out;
  }

  /// Pointer to the property of local vertex `v`, or nullptr when it is
  /// stored elsewhere or absent.
  [[nodiscard]] VP* local_element_ptr(gid_type v)
  {
    bcid_type const b = this->local_bcid(v);
    if (b == invalid_bcid)
      return nullptr;
    auto& bc = this->bc(b);
    return bc.has_vertex(v) ? &bc.vertex(v).property : nullptr;
  }

 private:
  void init(graph_partition_kind kind, std::size_t n)
  {
    this->m_partition = graph_partition(kind, n, num_locations());
    this->m_mapper.init(num_locations(), num_locations());
    if (kind != graph_partition_kind::static_balanced) {
      // Directory-backed from birth.  No default owner: requests for
      // unregistered vertices park until the add_vertex registration
      // arrives (or forever, for vertices that never exist — as in the
      // dissertation, accessing a nonexistent vertex is undefined).
      this->enable_directory_resolution(nullptr);
      this->get_directory().set_forwarding(
          kind == graph_partition_kind::dynamic_forwarding);
    }
    bcid_type const me = this->get_location_id();
    if (kind == graph_partition_kind::static_balanced) {
      // Pre-create the local slice of [0, n).
      auto const [lo, sz] = split1d(n, num_locations(), me);
      this->m_lm.emplace_bcontainer(me, me, lo, sz);
    } else {
      this->m_lm.emplace_bcontainer(me, me);
    }
    rmi_fence();
  }

  [[nodiscard]] gid_type next_descriptor()
  {
    return (static_cast<std::size_t>(this->get_location_id()) << 48) |
           m_next_vertex++;
  }

  std::uint64_t m_next_vertex = 0;

  template <graph_directedness, graph_multiplicity, typename, typename>
  friend class p_graph;
};

// ---------------------------------------------------------------------------
// Graph pViews (Ch. XI.E, Figs. 47/48)
// ---------------------------------------------------------------------------

/// View of the vertex properties as a 1D collection (used to run generic
/// pAlgorithms over vertex data).
template <typename G>
class graph_vertices_view {
 public:
  using container_type = G;
  using gid_type = vertex_descriptor;
  using value_type = typename G::vertex_property;

  explicit graph_vertices_view(G& g) noexcept : m_g(&g) {}

  [[nodiscard]] std::size_t size() const { return m_g->get_num_vertices(); }
  [[nodiscard]] std::vector<gid_type> local_gids() const
  {
    return m_g->local_gids();
  }
  [[nodiscard]] value_type read(gid_type v) const
  {
    return m_g->get_vertex_property(v);
  }
  void write(gid_type v, value_type p)
  {
    m_g->set_vertex_property(v, std::move(p));
  }
  [[nodiscard]] value_type* try_local_ref(gid_type v)
  {
    return m_g->local_element_ptr(v);
  }
  void post_execute() {}

 private:
  G* m_g;
};

/// Boundary pView (Fig. 48d): local vertices with at least one edge whose
/// target lives on another location.
template <typename G>
class graph_boundary_view {
 public:
  using container_type = G;
  using gid_type = vertex_descriptor;
  using value_type = typename G::vertex_property;

  explicit graph_boundary_view(G& g) noexcept : m_g(&g) {}

  [[nodiscard]] std::vector<gid_type> local_gids() const
  {
    std::vector<gid_type> out;
    m_g->for_each_local_vertex([&](vertex_descriptor v, auto& rec) {
      for (auto const& e : rec.edges)
        if (!m_g->is_local(e.target)) {
          out.push_back(v);
          return;
        }
    });
    return out;
  }
  [[nodiscard]] std::size_t size() const
  {
    return allreduce(local_gids().size(), std::plus<>{});
  }
  [[nodiscard]] value_type read(gid_type v) const
  {
    return m_g->get_vertex_property(v);
  }
  void post_execute() {}

 private:
  G* m_g;
};

/// Inner pView (Fig. 48c): local vertices all of whose edges stay local.
template <typename G>
class graph_inner_view {
 public:
  using container_type = G;
  using gid_type = vertex_descriptor;
  using value_type = typename G::vertex_property;

  explicit graph_inner_view(G& g) noexcept : m_g(&g) {}

  [[nodiscard]] std::vector<gid_type> local_gids() const
  {
    std::vector<gid_type> out;
    m_g->for_each_local_vertex([&](vertex_descriptor v, auto& rec) {
      for (auto const& e : rec.edges)
        if (!m_g->is_local(e.target))
          return;
      out.push_back(v);
    });
    return out;
  }
  [[nodiscard]] std::size_t size() const
  {
    return allreduce(local_gids().size(), std::plus<>{});
  }
  [[nodiscard]] value_type read(gid_type v) const
  {
    return m_g->get_vertex_property(v);
  }
  void post_execute() {}

 private:
  G* m_g;
};

} // namespace stapl

#endif
