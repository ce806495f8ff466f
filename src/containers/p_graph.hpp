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
// Vertex storage is customizable through the traits (Fig. 16): hashed map
// storage for dynamic graphs or dense vector storage for static ones.
//
// Dynamic graphs are directory-backed from birth, so they opt straight into
// hot-vertex load balancing (core/load_balancer.hpp):
// enable_load_balancing() starts owner-side access tracking, and
// rebalance()/advance_epoch() migrate the hottest vertices (property and
// out-edge list, see the migration hooks below) off overloaded locations.
// High-degree hub vertices of skewed graphs are the canonical case.

#include <cassert>
#include <cstddef>
#include <mutex>
#include <optional>
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

/// Adjacency-list storage for the vertices of one location
/// (hashed map storage; Ch. XI.D / Fig. 16 "std::map storage").
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

  graph_bcontainer() = default;
  explicit graph_bcontainer(bcid_type bcid) : m_bcid(bcid) {}

  [[nodiscard]] std::size_t size() const noexcept { return m_v.size(); }
  [[nodiscard]] bool empty() const noexcept { return m_v.empty(); }
  [[nodiscard]] bcid_type get_bcid() const noexcept { return m_bcid; }
  void clear()
  {
    m_v.clear();
    m_edges = 0;
  }

  bool add_vertex(vertex_descriptor v, VP vp)
  {
    return m_v.emplace(v, vertex_record{std::move(vp), {}}).second;
  }
  bool delete_vertex(vertex_descriptor v)
  {
    auto it = m_v.find(v);
    if (it == m_v.end())
      return false;
    m_edges -= it->second.edges.size();
    m_v.erase(it);
    return true;
  }
  /// Removes the vertex and returns its record (edge count stays
  /// consistent — used by the migration protocol).
  [[nodiscard]] vertex_record extract_vertex(vertex_descriptor v)
  {
    auto it = m_v.find(v);
    assert(it != m_v.end() && "extract_vertex: vertex not here");
    vertex_record rec = std::move(it->second);
    m_edges -= rec.edges.size();
    m_v.erase(it);
    return rec;
  }
  [[nodiscard]] bool has_vertex(vertex_descriptor v) const
  {
    return m_v.count(v) != 0;
  }
  [[nodiscard]] vertex_record& vertex(vertex_descriptor v)
  {
    return m_v.at(v);
  }
  [[nodiscard]] vertex_record const& vertex(vertex_descriptor v) const
  {
    return m_v.at(v);
  }

  /// Adds an out-edge at `src` (which must be local).  Returns false when a
  /// duplicate target exists and multi-edges are disallowed.
  bool add_edge(vertex_descriptor src, vertex_descriptor tgt, EP ep,
                bool multi)
  {
    auto& rec = m_v.at(src);
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
    auto it = m_v.find(src);
    if (it == m_v.end())
      return false;
    auto& es = it->second.edges;
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
    return {sizeof(*this) + m_v.size() * 4 * sizeof(void*), data};
  }

 private:
  bcid_type m_bcid = invalid_bcid;
  std::unordered_map<vertex_descriptor, vertex_record> m_v;
  std::size_t m_edges = 0;
};

/// Dense vector storage for *static* graphs (the Fig. 16 "vector storage"
/// customization): vertices of the location's contiguous slice [base,
/// base+n) are stored by offset in a flat vector — O(1) access without
/// hashing.  Vertex deletion is not supported (static vertex set).
template <typename VP, typename EP>
class dense_graph_bcontainer {
 public:
  using vertex_property = VP;
  using edge_property = EP;
  using edge_type = graph_edge<EP>;

  struct vertex_record {
    VP property{};
    std::vector<edge_type> edges;
  };

  dense_graph_bcontainer() = default;
  explicit dense_graph_bcontainer(bcid_type bcid) : m_bcid(bcid) {}

  [[nodiscard]] std::size_t size() const noexcept { return m_v.size(); }
  [[nodiscard]] bool empty() const noexcept { return m_v.empty(); }
  [[nodiscard]] bcid_type get_bcid() const noexcept { return m_bcid; }
  void clear()
  {
    m_v.clear();
    m_edges = 0;
  }

  /// Vertices must arrive in ascending contiguous order (static init).
  bool add_vertex(vertex_descriptor v, VP vp)
  {
    if (m_v.empty())
      m_base = v;
    assert(v == m_base + m_v.size() && "dense storage requires contiguous ids");
    m_v.push_back({v, vertex_record{std::move(vp), {}}});
    return true;
  }
  bool delete_vertex(vertex_descriptor)
  {
    assert(false && "dense (static) graph storage cannot delete vertices");
    return false;
  }
  [[nodiscard]] bool has_vertex(vertex_descriptor v) const noexcept
  {
    return v >= m_base && v < m_base + m_v.size();
  }
  [[nodiscard]] vertex_record& vertex(vertex_descriptor v)
  {
    return m_v[v - m_base].second;
  }
  [[nodiscard]] vertex_record const& vertex(vertex_descriptor v) const
  {
    return m_v[v - m_base].second;
  }

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
    return {sizeof(*this), data};
  }

 private:
  bcid_type m_bcid = invalid_bcid;
  std::size_t m_base = 0;
  std::vector<std::pair<vertex_descriptor, vertex_record>> m_v;
  std::size_t m_edges = 0;
};

/// Traits selecting dense vector storage (static graphs only) — the
/// Ch. V.H / Fig. 16 customization.
template <typename VP, typename EP>
struct p_static_graph_traits {
  using bcontainer_type = dense_graph_bcontainer<VP, EP>;
  using mapper_type = cyclic_mapper;
  using ths_manager_type = no_locking_manager;
};

/// Partition facade for graphs: one bContainer per location.  Static graphs
/// resolve in closed form over [0, N); dynamic graphs bypass get_info (the
/// container's resolve override consults the directory instead).
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
    std::size_t const q = m_n / m_p, r = m_n % m_p;
    std::size_t const big = r * (q + 1);
    return v < big ? v / (q + 1) : r + (v - big) / (q > 0 ? q : 1);
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

template <typename VP, typename EP>
struct p_graph_traits {
  using bcontainer_type = graph_bcontainer<VP, EP>;
  using mapper_type = cyclic_mapper; // bcid == location (identity for p==p)
  using ths_manager_type = no_locking_manager;
};

namespace detail {

template <typename VP, typename EP, typename Traits>
struct graph_traits_bundle {
  using value_type = VP;
  using partition_type = graph_partition;
  using mapper_type = typename Traits::mapper_type;
  using bcontainer_type = typename Traits::bcontainer_type;
  using ths_manager_type = typename Traits::ths_manager_type;
};

} // namespace detail

// ---------------------------------------------------------------------------
// p_graph
// ---------------------------------------------------------------------------

template <graph_directedness D, graph_multiplicity M,
          typename VP = no_property, typename EP = no_property,
          typename Traits = p_graph_traits<VP, EP>>
class p_graph final
    : public p_container_dynamic<p_graph<D, M, VP, EP, Traits>,
                                 detail::graph_traits_bundle<VP, EP, Traits>> {
  using base = p_container_dynamic<p_graph<D, M, VP, EP, Traits>,
                                   detail::graph_traits_bundle<VP, EP, Traits>>;

 public:
  using vertex_property = VP;
  using edge_property = EP;
  using gid_type = vertex_descriptor;
  using bcontainer_type = typename Traits::bcontainer_type;
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

  [[nodiscard]] resolution resolve(gid_type v) const
  {
    if (is_static()) {
      bcid_type const b = this->m_partition.get_info(v);
      return resolution::at(b, static_cast<location_id>(b));
    }
    // Dynamic graphs resolve through the core directory subsystem: local
    // knowledge first (ownership, home record, owner cache), else the
    // request is routed toward the home.  Element methods do not reach this
    // path (invoke() routes through directory::invoke_where); it serves the
    // view layer's is_local/lookup queries.
    if (auto const o = this->get_directory().try_resolve(v))
      return resolution::at(*o, *o); // one bContainer per location: bcid==loc
    return resolution::forward_to(home_of(v));
  }

  /// Home location of a dynamic vertex's directory entry.
  [[nodiscard]] location_id home_of(gid_type v) const noexcept
  {
    return this->get_directory().home_of(v);
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
    auto& bc = this->bc(this->get_location_id());
    (void)bc.add_vertex(v, std::move(rec.property));
    for (auto& e : rec.edges)
      (void)bc.add_edge(v, e.target, std::move(e.property), true);
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
  /// (asynchronously — complete at the next fence).  Static graphs route the
  /// property to the closed-form owner of `gid`.
  void add_vertex(gid_type gid, VP vp)
  {
    if (is_static()) {
      this->invoke(MP_ADD_VERTEX, gid,
                   [gid, vp = std::move(vp)](p_graph& g, bcid_type b) {
                     auto& bc = g.bc(b);
                     if (bc.has_vertex(gid))
                       bc.vertex(gid).property = vp;
                     else
                       bc.add_vertex(gid, vp);
                   });
      return;
    }
    bcid_type const me = this->get_location_id();
    {
      ths_info ti{MP_ADD_VERTEX, me};
      this->m_ths.data_access_pre(ti);
      this->bc(me).add_vertex(gid, std::move(vp));
      this->m_ths.data_access_post(ti);
    }
    this->get_directory().register_gid(gid);
  }

  /// Deletes a vertex (its record and out-edges).  As in the dissertation,
  /// this is not a transaction: directory update and record removal are
  /// individually atomic, in-edges elsewhere are not chased.
  void delete_vertex(gid_type v)
  {
    this->invoke(MP_DELETE_VERTEX, v, [v](p_graph& g, bcid_type b) {
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
      return this->invoke_ret(MP_FIND, v, [v](p_graph& g, bcid_type b) {
        return g.bc(b).has_vertex(v);
      });
    }
    // Dynamic: ask the directory home (authoritative, never livelocks on
    // missing vertices; warms this location's owner cache on success).
    return this->get_directory().resolve(v) != invalid_location;
  }

  [[nodiscard]] VP get_vertex_property(gid_type v)
  {
    return this->invoke_ret(MP_GET_ELEMENT, v, [v](p_graph& g, bcid_type b) {
      return g.bc(b).vertex(v).property;
    });
  }

  void set_vertex_property(gid_type v, VP vp)
  {
    this->invoke(MP_SET_ELEMENT, v,
                 [v, vp = std::move(vp)](p_graph& g, bcid_type b) {
                   g.bc(b).vertex(v).property = vp;
                 });
  }

  /// Applies f(vertex_record&) at the vertex, asynchronously.  The workhorse
  /// of the level-synchronous graph algorithms of Ch. XI.F.3.
  template <typename F>
  void apply_vertex(gid_type v, F f)
  {
    this->invoke(MP_APPLY, v,
                 [v, f = std::move(f)](p_graph& g, bcid_type b) mutable {
                   f(g.bc(b).vertex(v));
                 });
  }

  template <typename F>
  [[nodiscard]] auto apply_vertex_get(gid_type v, F f)
  {
    return this->invoke_ret(MP_APPLY, v,
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
    this->invoke(MP_ADD_EDGE, src, [src, tgt, ep](p_graph& g, bcid_type b) {
      (void)g.bc(b).add_edge(src, tgt, ep, is_multi);
    });
    if constexpr (!is_directed) {
      this->invoke(MP_ADD_EDGE, tgt, [src, tgt, ep](p_graph& g, bcid_type b) {
        (void)g.bc(b).add_edge(tgt, src, ep, is_multi);
      });
    }
  }

  /// Synchronous edge insertion; returns the descriptor.
  edge_descriptor add_edge(gid_type src, gid_type tgt, EP ep = EP{})
  {
    bool const ok =
        this->invoke_ret(MP_ADD_EDGE, src,
                         [src, tgt, ep](p_graph& g, bcid_type b) {
                           return g.bc(b).add_edge(src, tgt, ep, is_multi);
                         });
    if constexpr (!is_directed) {
      if (ok)
        this->invoke(MP_ADD_EDGE, tgt,
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
    this->invoke(MP_ADD_EDGE, src,
                 [src, old_tgt, new_tgt, ep](p_graph& g, bcid_type b) {
                   (void)g.bc(b).delete_edge(src, old_tgt);
                   (void)g.bc(b).add_edge(src, new_tgt, ep, is_multi);
                 });
  }

  void delete_edge(gid_type src, gid_type tgt)
  {
    this->invoke(MP_DELETE_EDGE, src, [src, tgt](p_graph& g, bcid_type b) {
      (void)g.bc(b).delete_edge(src, tgt);
    });
    if constexpr (!is_directed)
      this->invoke(MP_DELETE_EDGE, tgt, [src, tgt](p_graph& g, bcid_type b) {
        (void)g.bc(b).delete_edge(tgt, src);
      });
  }

  [[nodiscard]] bool find_edge(gid_type src, gid_type tgt)
  {
    return this->invoke_ret(MP_FIND, src, [src, tgt](p_graph& g, bcid_type b) {
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
    return this->invoke_ret(MP_FIND, v, [v](p_graph& g, bcid_type b) {
      return g.bc(b).vertex(v).edges.size();
    });
  }

  /// Copies the adjacency (targets) of a vertex.
  [[nodiscard]] std::vector<gid_type> out_edges(gid_type v)
  {
    return this->invoke_ret(MP_FIND, v, [v](p_graph& g, bcid_type b) {
      std::vector<gid_type> ts;
      for (auto const& e : g.bc(b).vertex(v).edges)
        ts.push_back(e.target);
      return ts;
    });
  }

  // -------------------------------------------------------------------------
  // Global properties / traversal
  // -------------------------------------------------------------------------

  [[nodiscard]] std::size_t get_num_vertices() { return this->size(); }

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

  [[nodiscard]] VP* local_element_ptr(gid_type v)
  {
    if (!is_static()) {
      if (!this->get_directory().owns(v))
        return nullptr;
      auto& bc = this->bc(this->get_location_id());
      return bc.has_vertex(v) ? &bc.vertex(v).property : nullptr;
    }
    auto const r = resolve(v);
    if (!r.resolved || r.loc != this->get_location_id())
      return nullptr;
    auto& bc = this->bc(r.bcid);
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
    auto& bc = this->m_lm.emplace_bcontainer(me, me);
    if (kind == graph_partition_kind::static_balanced) {
      // Pre-create the local slice of [0, n).
      std::size_t const p = num_locations();
      std::size_t const q = n / p, r = n % p;
      std::size_t const lo = me < r ? me * (q + 1) : r * (q + 1) + (me - r) * q;
      std::size_t const sz = me < r ? q + 1 : q;
      for (std::size_t v = lo; v < lo + sz; ++v)
        bc.add_vertex(v, VP{});
    }
    rmi_fence();
  }

  [[nodiscard]] gid_type next_descriptor()
  {
    return (static_cast<std::size_t>(this->get_location_id()) << 48) |
           m_next_vertex++;
  }

  std::uint64_t m_next_vertex = 0;

  template <graph_directedness, graph_multiplicity, typename, typename,
            typename>
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
