#ifndef STAPL_VIEWS_VIEWS_HPP
#define STAPL_VIEWS_VIEWS_HPP

// The stapl pView layer (dissertation Ch. III.A, Table II).
//
// A pView is a tuple (C, D, F, O): an abstract data type over a collection.
// Views have reference semantics (they do not own elements), can be defined
// over containers or over other views, and enable parallelism by exposing a
// partitioned domain whose pieces (bViews) are assigned to locations.
//
// The view concept used by the pAlgorithms layer:
//   using value_type / gid_type;
//   std::size_t size() const;
//   std::vector<gid_type> local_gids() const;   // this location's bView
//   value_type read(gid_type) const;            // possibly remote
//   void write(gid_type, value_type);           // possibly remote
//   value_type* try_local_ref(gid_type);        // nullptr when remote
//
// Native/aligned views return direct references for their whole domain
// (the locality fast path); repartitioning views (balanced over a different
// distribution, strided, ...) fall back to shared-object reads and writes —
// exactly the performance distinction Ch. III.A draws.
//
// Locality pipeline (runtime/locality.hpp): every chunk-producing view
// coarsens its bView into chunk_descriptors — a run-encoded GID payload
// plus the wire-form metadata (owner, cached-at hint, digest bounds,
// byte/element counts) — which the task-graph executor consumes for
// placement and locality-aware stealing.  Only the wire form is ever
// replicated between locations; payloads stay with their producer.  Container-backed views also
// forward the feedback hooks: tuned_grain (the container's adaptive grain
// hint), note_task_graph_stats (steal/idle counters tune that hint) and
// note_chunk_placement / chunk_affinity (where chunks ran last graph,
// stamped as the next graph's cached-at hints).  Wrapper views forward the
// hooks to their base, translating coordinates where their GID space
// differs (strided, overlap).

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "../core/container_base.hpp"
#include "../runtime/task_graph.hpp"

namespace stapl {

namespace view_detail {

/// View whose elements have a local fast path: element access tries the
/// direct reference before the shared-object read/write path.
template <typename V>
concept has_local_ref = requires(V v, typename V::gid_type g) {
  { v.try_local_ref(g) };
};

/// Descriptor producer of container-backed views: wraps the ordered GID
/// sequence into ~grain-element chunk_descriptors owned by this location
/// and stamps each with the container's cached-at hint (the location that
/// executed an overlapping chunk last graph, if any).  The affinity
/// lookup reads off the descriptor's wire form — the same digest bounds
/// peers and the placement feedback see.
template <typename C, typename G>
[[nodiscard]] std::vector<chunk_descriptor<G>>
container_chunks(C& c, std::vector<G> gids, std::size_t grain)
{
  auto out = tg_detail::make_descriptors(
      tg_detail::chunk_gids(std::move(gids), grain),
      sizeof(typename C::value_type));
  for (auto& d : out)
    d.cached_at = c.chunk_affinity(d.wire());
  return out;
}

/// CRTP mixin: the locality-pipeline hook block of container-backed views
/// whose GID space matches the container's — forwarded unchanged to
/// Derived::container() (see p_container_base): adaptive grain,
/// steal/idle counters, placement feedback, cached-at lookup.  Views
/// whose coordinates differ (strided, overlap) translate by hand instead.
template <typename Derived>
class container_locality_hooks {
 public:
  [[nodiscard]] std::size_t tuned_grain(std::size_t base) const
  {
    return c().tuned_grain(base);
  }
  void note_task_graph_stats(task_graph_stats const& s) const
  {
    c().note_task_graph_stats(s);
  }
  void note_chunk_placement(std::uint64_t lo, std::uint64_t hi,
                            location_id where) const
  {
    c().note_chunk_placement(lo, hi, where);
  }
  [[nodiscard]] location_id chunk_affinity(std::uint64_t lo,
                                           std::uint64_t hi) const
  {
    return c().chunk_affinity(lo, hi);
  }

 private:
  [[nodiscard]] auto& c() const
  {
    return static_cast<Derived const&>(*this).container();
  }
};

/// CRTP mixin of wrapper views: forwards the hooks to Derived::base()
/// when the wrapped view has them (requires-gated, mirroring the
/// executor's detection).  A wrapper whose GID space differs from its
/// base's shadows the affected method with a coordinate-translating one.
template <typename Derived, typename V>
class wrapper_locality_hooks {
 public:
  [[nodiscard]] std::size_t tuned_grain(std::size_t base) const
    requires requires(V const& v, std::size_t n) { v.tuned_grain(n); }
  {
    return b().tuned_grain(base);
  }
  void note_task_graph_stats(task_graph_stats const& s) const
    requires requires(V const& v, task_graph_stats const& x) {
      v.note_task_graph_stats(x);
    }
  {
    b().note_task_graph_stats(s);
  }
  void note_chunk_placement(std::uint64_t lo, std::uint64_t hi,
                            location_id where) const
    requires requires(V const& v) {
      v.note_chunk_placement(std::uint64_t{}, std::uint64_t{},
                             location_id{});
    }
  {
    b().note_chunk_placement(lo, hi, where);
  }

 private:
  [[nodiscard]] V const& b() const
  {
    return static_cast<Derived const&>(*this).base();
  }
};

} // namespace view_detail

// ---------------------------------------------------------------------------
// array_1d_view — native one-dimensional view over an indexed container
// ---------------------------------------------------------------------------

/// Identity view over an indexed pContainer: domain and distribution follow
/// the container (the container's native pView).
template <typename C>
class array_1d_view
    : public view_detail::container_locality_hooks<array_1d_view<C>> {
 public:
  using container_type = C;
  using value_type = typename C::value_type;
  using gid_type = typename C::gid_type;

  explicit array_1d_view(C& c) noexcept : m_c(&c) {}

  [[nodiscard]] C& container() const noexcept { return *m_c; }
  [[nodiscard]] std::size_t size() const { return m_c->size(); }

  [[nodiscard]] std::vector<gid_type> local_gids() const
  {
    return m_c->local_gids();
  }

  [[nodiscard]] value_type read(gid_type g) const
  {
    return m_c->get_element(g);
  }
  void write(gid_type g, value_type v) { m_c->set_element(g, std::move(v)); }

  [[nodiscard]] value_type* try_local_ref(gid_type g)
  {
    return m_c->local_element_ptr(g);
  }

  [[nodiscard]] element_proxy<C> operator[](gid_type g) const
  {
    return (*m_c)[g];
  }

  /// This location's bView coarsened into ~grain-element chunk descriptors
  /// (the locality pipeline's coarsening API; see runtime/locality.hpp).
  [[nodiscard]] std::vector<chunk_descriptor<gid_type>> chunks(
      std::size_t grain) const
  {
    return view_detail::container_chunks(*m_c, local_gids(), grain);
  }

  /// Refreshes container metadata after a parallel phase (Ch. VII.H).
  void post_execute() {}

 private:
  C* m_c;
};

/// Read-only variant (Table II array_1d_ro_pview).
template <typename C>
class array_1d_ro_view
    : public view_detail::container_locality_hooks<array_1d_ro_view<C>> {
 public:
  using container_type = C;
  using value_type = typename C::value_type;
  using gid_type = typename C::gid_type;

  explicit array_1d_ro_view(C& c) noexcept : m_c(&c) {}

  [[nodiscard]] C& container() const noexcept { return *m_c; }
  [[nodiscard]] std::size_t size() const { return m_c->size(); }
  [[nodiscard]] std::vector<gid_type> local_gids() const
  {
    return m_c->local_gids();
  }
  [[nodiscard]] value_type read(gid_type g) const
  {
    return m_c->get_element(g);
  }
  [[nodiscard]] value_type const* try_local_ref(gid_type g)
  {
    return m_c->local_element_ptr(g);
  }
  /// This location's bView coarsened into ~grain-element chunk descriptors
  /// (the locality pipeline's coarsening API; see runtime/locality.hpp).
  [[nodiscard]] std::vector<chunk_descriptor<gid_type>> chunks(
      std::size_t grain) const
  {
    return view_detail::container_chunks(*m_c, local_gids(), grain);
  }

  void post_execute() {}

 private:
  C* m_c;
};

// ---------------------------------------------------------------------------
// balanced_view — repartitions [0, n) into num_locations balanced chunks
// ---------------------------------------------------------------------------

/// Splits the element index space evenly across locations regardless of the
/// underlying distribution (Table II balanced_pview).  Used to balance work;
/// accesses outside the local storage go through the shared-object view.
template <typename C>
class balanced_view
    : public view_detail::container_locality_hooks<balanced_view<C>> {
 public:
  using container_type = C;
  using value_type = typename C::value_type;
  using gid_type = gid1d;

  explicit balanced_view(C& c, std::size_t chunks = 0)
      : m_c(&c), m_chunks(chunks == 0 ? num_locations() : chunks)
  {}

  [[nodiscard]] C& container() const noexcept { return *m_c; }
  [[nodiscard]] std::size_t size() const { return m_c->size(); }

  [[nodiscard]] std::vector<gid_type> local_gids() const
  {
    balanced_partition p(indexed_domain(m_c->size()), m_chunks);
    std::vector<gid_type> out;
    // Chunks are dealt to locations round-robin.
    for (bcid_type b = this_location(); b < p.size(); b += num_locations()) {
      auto const d = p.subdomain(b);
      for (gid_type g = d.first(); g != d.last(); ++g)
        out.push_back(g);
    }
    return out;
  }

  [[nodiscard]] value_type read(gid_type g) const
  {
    return m_c->get_element(g);
  }
  void write(gid_type g, value_type v) { m_c->set_element(g, std::move(v)); }
  [[nodiscard]] value_type* try_local_ref(gid_type g)
  {
    return m_c->local_element_ptr(g);
  }
  /// This location's deal coarsened into chunk descriptors.  The balanced
  /// deal crosses the storage distribution, so each descriptor's owner is
  /// the location actually *storing* the chunk's head element (closed-form
  /// lookup; dynamic containers keep the dealing location — resolving
  /// ownership per chunk would need communication): the executor then
  /// spawns the chunk task where the data lives instead of where the deal
  /// happened to land it.
  [[nodiscard]] std::vector<chunk_descriptor<gid_type>> chunks(
      std::size_t grain) const
  {
    auto out = view_detail::container_chunks(*m_c, local_gids(), grain);
    if (!m_c->is_dynamic())
      for (auto& d : out)
        d.owner = m_c->lookup(d.gids.front());
    return out;
  }

  void post_execute() {}

 private:
  C* m_c;
  std::size_t m_chunks;
};

// ---------------------------------------------------------------------------
// strided_1d_view (Table II strided_1D_pview)
// ---------------------------------------------------------------------------

/// Every `stride`-th element starting at `offset`; view index i maps to
/// container index offset + i*stride.
template <typename C>
class strided_1d_view {
 public:
  using container_type = C;
  using value_type = typename C::value_type;
  using gid_type = gid1d;

  strided_1d_view(C& c, std::size_t stride, std::size_t offset = 0)
      : m_c(&c), m_stride(stride), m_offset(offset)
  {
    assert(stride > 0);
  }

  [[nodiscard]] std::size_t size() const
  {
    std::size_t const n = m_c->size();
    return m_offset >= n ? 0 : (n - m_offset + m_stride - 1) / m_stride;
  }

  [[nodiscard]] gid1d map(gid_type i) const { return m_offset + i * m_stride; }

  [[nodiscard]] std::vector<gid_type> local_gids() const
  {
    // View element i is local when its image is locally stored.
    std::vector<gid_type> out;
    std::size_t const n = size();
    for (gid_type i = 0; i < n; ++i)
      if (m_c->is_local(map(i)))
        out.push_back(i);
    return out;
  }

  [[nodiscard]] value_type read(gid_type i) const
  {
    return m_c->get_element(map(i));
  }
  void write(gid_type i, value_type v)
  {
    m_c->set_element(map(i), std::move(v));
  }
  [[nodiscard]] value_type* try_local_ref(gid_type i)
  {
    return m_c->local_element_ptr(map(i));
  }

  /// This location's bView coarsened into chunk descriptors.  Descriptor
  /// GIDs are *view* indices (read/write expect them); the locality
  /// metadata is translated into container coordinates through map(), so
  /// the affinity table shared with other views of the same container
  /// stays in one coordinate space.
  [[nodiscard]] std::vector<chunk_descriptor<gid_type>> chunks(
      std::size_t grain) const
  {
    auto out = tg_detail::make_descriptors(
        tg_detail::chunk_gids(local_gids(), grain), sizeof(value_type));
    for (auto& d : out)
      d.cached_at = m_c->chunk_affinity(map(d.gids.front()),
                                        map(d.gids.back()));
    return out;
  }

  /// Locality-pipeline feedback hooks (container coordinates via map()).
  [[nodiscard]] std::size_t tuned_grain(std::size_t base) const
  {
    return m_c->tuned_grain(base);
  }
  void note_task_graph_stats(task_graph_stats const& s) const
  {
    m_c->note_task_graph_stats(s);
  }
  void note_chunk_placement(std::uint64_t lo, std::uint64_t hi,
                            location_id where) const
  {
    m_c->note_chunk_placement(map(lo), map(hi), where);
  }

  void post_execute() {}

 private:
  C* m_c;
  std::size_t m_stride;
  std::size_t m_offset;
};

// ---------------------------------------------------------------------------
// transform_view (Table II transform_pview)
// ---------------------------------------------------------------------------

/// Overrides the read operation with a user function of the underlying value
/// (read-only).
template <typename V, typename F>
class transform_view
    : public view_detail::wrapper_locality_hooks<transform_view<V, F>, V> {
 public:
  using base_view = V;
  using gid_type = typename V::gid_type;
  using value_type =
      std::invoke_result_t<F const&, typename V::value_type>;

  transform_view(V v, F f) : m_v(std::move(v)), m_f(std::move(f)) {}

  [[nodiscard]] V const& base() const noexcept { return m_v; }
  [[nodiscard]] std::size_t size() const { return m_v.size(); }
  [[nodiscard]] std::vector<gid_type> local_gids() const
  {
    return m_v.local_gids();
  }
  [[nodiscard]] value_type read(gid_type g) const { return m_f(m_v.read(g)); }

  /// Chunk descriptors of the underlying view (same GID space): the
  /// transform only changes what read() returns, not where data lives.
  [[nodiscard]] std::vector<chunk_descriptor<gid_type>> chunks(
      std::size_t grain) const
  {
    return tg_detail::view_chunks(m_v, grain);
  }

  void post_execute() {}

 private:
  V m_v;
  F m_f;
};

template <typename V, typename F>
transform_view(V, F) -> transform_view<V, F>;

// ---------------------------------------------------------------------------
// filtered_view
// ---------------------------------------------------------------------------

/// Restricts a view's domain to GIDs satisfying a predicate on the GID.
template <typename V, typename Pred>
class filtered_view
    : public view_detail::wrapper_locality_hooks<filtered_view<V, Pred>, V> {
 public:
  using base_view = V;
  using gid_type = typename V::gid_type;
  using value_type = typename V::value_type;

  filtered_view(V v, Pred p) : m_v(std::move(v)), m_pred(std::move(p)) {}

  [[nodiscard]] V const& base() const noexcept { return m_v; }

  [[nodiscard]] std::vector<gid_type> local_gids() const
  {
    std::vector<gid_type> out;
    for (auto g : m_v.local_gids())
      if (m_pred(g))
        out.push_back(g);
    return out;
  }
  [[nodiscard]] std::size_t size() const
  {
    // Collective count of matching elements.
    std::size_t const local = local_gids().size();
    return allreduce(local, std::plus<>{});
  }
  [[nodiscard]] value_type read(gid_type g) const { return m_v.read(g); }
  void write(gid_type g, value_type v) { m_v.write(g, std::move(v)); }
  [[nodiscard]] auto try_local_ref(gid_type g)
    requires view_detail::has_local_ref<V>
  {
    return m_v.try_local_ref(g);
  }

  /// Filtered chunk descriptors: runs of the matching GIDs, annotated with
  /// the base view's cached-at knowledge when it exposes any (the filter
  /// keeps the base's GID space, so digests line up).
  [[nodiscard]] std::vector<chunk_descriptor<gid_type>> chunks(
      std::size_t grain) const
  {
    auto out = tg_detail::make_descriptors(
        tg_detail::chunk_gids(local_gids(), grain), sizeof(value_type));
    if constexpr (requires(V const& v) {
                    v.chunk_affinity(std::uint64_t{}, std::uint64_t{});
                  }) {
      for (auto& d : out)
        d.cached_at = m_v.chunk_affinity(d.digest_lo(), d.digest_hi());
    }
    return out;
  }

  void post_execute() {}

 private:
  mutable V m_v;
  Pred m_pred;
};

// ---------------------------------------------------------------------------
// counting_view — generator view (values computed, not stored)
// ---------------------------------------------------------------------------

/// A view that generates the sequence start, start+1, ... without storage
/// ("pViews that generate values dynamically", Ch. III.A).
template <typename T = std::size_t>
class counting_view {
 public:
  using value_type = T;
  using gid_type = gid1d;

  explicit counting_view(std::size_t n, T start = T{})
      : m_n(n), m_start(start)
  {}

  [[nodiscard]] std::size_t size() const noexcept { return m_n; }
  [[nodiscard]] std::vector<gid_type> local_gids() const
  {
    balanced_partition p(indexed_domain(m_n), num_locations());
    auto const d = p.subdomain(this_location() % p.size());
    std::vector<gid_type> out;
    if (this_location() < p.size())
      for (gid_type g = d.first(); g != d.last(); ++g)
        out.push_back(g);
    return out;
  }
  [[nodiscard]] value_type read(gid_type g) const
  {
    return m_start + static_cast<T>(g);
  }
  /// Chunk descriptors of the generated domain.  Values are computed, not
  /// stored, so every chunk is locality-free: owner is the dealing
  /// location and no cached-at hint applies.
  [[nodiscard]] std::vector<chunk_descriptor<gid_type>> chunks(
      std::size_t grain) const
  {
    return tg_detail::make_descriptors(
        tg_detail::chunk_gids(local_gids(), grain), sizeof(T));
  }

  void post_execute() {}

 private:
  std::size_t m_n;
  T m_start;
};

// ---------------------------------------------------------------------------
// overlap_view (Fig. 2)
// ---------------------------------------------------------------------------

/// A window into the underlying view: element i of an overlap view of
/// A[0,n-1] with parameters (c, l, r) is the range A[c*i, c*i + l+c+r-1].
template <typename V>
class overlap_subrange {
 public:
  using value_type = typename V::value_type;

  overlap_subrange(V* v, gid1d lo, gid1d hi) : m_v(v), m_lo(lo), m_hi(hi) {}

  [[nodiscard]] std::size_t size() const noexcept { return m_hi - m_lo + 1; }
  [[nodiscard]] gid1d first() const noexcept { return m_lo; }
  [[nodiscard]] gid1d last() const noexcept { return m_hi; }
  [[nodiscard]] value_type operator[](std::size_t i) const
  {
    return m_v->read(m_lo + i);
  }

 private:
  V* m_v;
  gid1d m_lo, m_hi;
};

template <typename V>
class overlap_view
    : public view_detail::wrapper_locality_hooks<overlap_view<V>, V> {
 public:
  using base_view = V;
  using gid_type = gid1d;
  using value_type = overlap_subrange<V>;

  /// c = core size, l = left overlap, r = right overlap (Fig. 2).
  overlap_view(V v, std::size_t c, std::size_t l, std::size_t r)
      : m_v(std::move(v)), m_c(c), m_l(l), m_r(r)
  {
    assert(c > 0);
  }

  [[nodiscard]] V const& base() const noexcept { return m_v; }

  /// Number of window elements: windows span c*i .. c*i + (l+c+r-1).
  [[nodiscard]] std::size_t size() const
  {
    std::size_t const n = m_v.size();
    std::size_t const w = m_l + m_c + m_r;
    if (n < w)
      return 0;
    return (n - w) / m_c + 1;
  }

  [[nodiscard]] value_type read(gid_type i) const
  {
    return value_type(&m_v, m_c * i, m_c * i + m_l + m_c + m_r - 1);
  }

  [[nodiscard]] std::vector<gid_type> local_gids() const
  {
    // A window is assigned to the location owning its first element.
    std::vector<gid_type> out;
    std::size_t const n = size();
    for (gid_type i = 0; i < n; ++i)
      if (m_v.container().is_local(m_c * i))
        out.push_back(i);
    return out;
  }

  /// Window index `i` spans underlying elements [c*i, c*i + l+c+r-1]; the
  /// locality metadata is translated into that element space so it lines
  /// up with the other views of the same container.
  [[nodiscard]] std::vector<chunk_descriptor<gid_type>> chunks(
      std::size_t grain) const
  {
    std::size_t const window = m_l + m_c + m_r;
    auto out = tg_detail::make_descriptors(
        tg_detail::chunk_gids(local_gids(), grain),
        m_c * sizeof(typename V::value_type)); // ~c fresh elements per window
    if constexpr (requires(V const& v) {
                    v.chunk_affinity(std::uint64_t{}, std::uint64_t{});
                  }) {
      for (auto& d : out)
        d.cached_at = m_v.chunk_affinity(
            m_c * d.gids.front(), m_c * d.gids.back() + window - 1);
    }
    return out;
  }

  /// Placement feedback arrives in window coordinates; shadow the mixin's
  /// plain forward with the element-space translation.
  void note_chunk_placement(std::uint64_t lo, std::uint64_t hi,
                            location_id where) const
    requires requires(V const& v) { v.note_chunk_placement(lo, hi, where); }
  {
    m_v.note_chunk_placement(m_c * lo, m_c * hi + m_l + m_c + m_r - 1,
                             where);
  }

  void post_execute() {}

 private:
  mutable V m_v;
  std::size_t m_c, m_l, m_r;
};

// ---------------------------------------------------------------------------
// native_view — bViews aligned with the container distribution
// ---------------------------------------------------------------------------

/// Exposes the container's own partition as the view partition
/// (Table II native_pview): all references are local by construction.
template <typename C>
class native_view
    : public view_detail::container_locality_hooks<native_view<C>> {
 public:
  using container_type = C;
  using value_type = typename C::value_type;
  using gid_type = typename C::gid_type;

  explicit native_view(C& c) noexcept : m_c(&c) {}

  [[nodiscard]] C& container() const noexcept { return *m_c; }
  [[nodiscard]] std::size_t size() const { return m_c->size(); }
  [[nodiscard]] std::vector<gid_type> local_gids() const
  {
    return m_c->local_gids();
  }
  [[nodiscard]] value_type read(gid_type g) const
  {
    return m_c->get_element(g);
  }
  void write(gid_type g, value_type v) { m_c->set_element(g, std::move(v)); }
  [[nodiscard]] value_type* try_local_ref(gid_type g)
  {
    return m_c->local_element_ptr(g);
  }

  /// Direct bContainer-wise traversal: f(gid, element&).
  template <typename F>
  void for_each_local(F&& f)
  {
    m_c->for_each_local(std::forward<F>(f));
  }
  /// This location's bView coarsened into ~grain-element chunk descriptors
  /// (the locality pipeline's coarsening API; see runtime/locality.hpp).
  [[nodiscard]] std::vector<chunk_descriptor<gid_type>> chunks(
      std::size_t grain) const
  {
    return view_detail::container_chunks(*m_c, local_gids(), grain);
  }

  void post_execute() {}

 private:
  C* m_c;
};

/// Factory helpers.
template <typename C>
[[nodiscard]] array_1d_view<C> make_array_view(C& c)
{
  return array_1d_view<C>(c);
}
template <typename C>
[[nodiscard]] native_view<C> make_native_view(C& c)
{
  return native_view<C>(c);
}
template <typename C>
[[nodiscard]] balanced_view<C> make_balanced_view(C& c, std::size_t chunks = 0)
{
  return balanced_view<C>(c, chunks);
}

} // namespace stapl

#endif
