#ifndef STAPL_CONTAINERS_P_MATRIX_HPP
#define STAPL_CONTAINERS_P_MATRIX_HPP

// The stapl pMatrix (dissertation Ch. V.F, evaluated in Ch. XIII): a static,
// two-dimensional indexed pContainer over dense blocked storage.
// Derivation: p_container_base -> p_container_static -> p_container_indexed
// -> p_matrix, with gid2d GIDs and the matrix_partition of Ch. V.D.4
// (row-wise, column-wise or checkerboard block decompositions).

#include <cstddef>
#include <utility>

#include "../core/container_base.hpp"

namespace stapl {

template <typename T>
struct p_matrix_traits {
  using bcontainer_type = matrix_bcontainer<T>;
  using mapper_type = blocked_mapper;
  using ths_manager_type = no_locking_manager;
};

template <typename T, typename Traits = p_matrix_traits<T>>
class p_matrix final
    : public p_container_indexed<
          p_matrix<T, Traits>,
          detail::indexed_traits_bundle<T, matrix_partition, Traits>> {
  using base = p_container_indexed<
      p_matrix<T, Traits>,
      detail::indexed_traits_bundle<T, matrix_partition, Traits>>;

 public:
  using typename base::gid_type; // gid2d
  using typename base::value_type;

  /// Collective: rows x cols matrix, row-wise blocked across locations.
  p_matrix(std::size_t rows, std::size_t cols, T const& init = T{})
      : p_matrix(rows, cols, matrix_partition(num_locations(), 1), init)
  {}

  /// Collective: rows x cols matrix with an explicit block decomposition.
  p_matrix(std::size_t rows, std::size_t cols, matrix_partition partition,
           T const& init = T{})
  {
    this->m_partition = std::move(partition);
    this->m_partition.set_domain(domain2d(rows, cols));
    this->m_mapper.init(this->m_partition.size(), num_locations());
    for (bcid_type b : this->m_mapper.local_bcids(this->get_location_id())) {
      auto const blk = this->m_partition.subblock(b);
      this->m_lm.emplace_bcontainer(b, b, blk.row_sz, blk.col_sz, init);
    }
    rmi_fence();
  }

  ~p_matrix() override { rmi_fence(); }

  [[nodiscard]] std::size_t rows() const
  {
    return this->m_partition.domain().rows();
  }
  [[nodiscard]] std::size_t cols() const
  {
    return this->m_partition.domain().cols();
  }

  /// Element access by (row, col) — synchronous read / asynchronous write.
  [[nodiscard]] T get(std::size_t r, std::size_t c)
  {
    return this->get_element({r, c});
  }
  void set(std::size_t r, std::size_t c, T v)
  {
    this->set_element({r, c}, std::move(v));
  }

  [[nodiscard]] element_proxy<p_matrix> operator()(std::size_t r,
                                                   std::size_t c)
  {
    return (*this)[gid2d{r, c}];
  }
};

// ---------------------------------------------------------------------------
// Matrix pViews (Table II: matrix_pview; Ch. III.A row/column/linear views)
// ---------------------------------------------------------------------------

/// A single row of a matrix exposed as a 1D view element.
template <typename M>
class matrix_row_ref {
 public:
  using value_type = typename M::value_type;

  matrix_row_ref(M& m, std::size_t row) noexcept : m_m(&m), m_row(row) {}

  [[nodiscard]] std::size_t size() const { return m_m->cols(); }
  [[nodiscard]] std::size_t row() const noexcept { return m_row; }
  [[nodiscard]] value_type operator[](std::size_t c) const
  {
    return m_m->get_element({m_row, c});
  }
  void set(std::size_t c, value_type v)
  {
    m_m->set_element({m_row, c}, std::move(v));
  }
  /// Direct pointer when the element is local.
  [[nodiscard]] value_type* try_local_ref(std::size_t c)
  {
    return m_m->local_element_ptr({m_row, c});
  }

 private:
  M* m_m;
  std::size_t m_row;
};

/// View of a matrix as a 1D collection of rows ('viewed as a row-major
/// matrix', Ch. III).  Element i is row i; a row is assigned to the location
/// owning its first element.
template <typename M>
class matrix_rows_view {
 public:
  using container_type = M;
  using gid_type = gid1d;
  using value_type = matrix_row_ref<M>;

  explicit matrix_rows_view(M& m) noexcept : m_m(&m) {}

  [[nodiscard]] std::size_t size() const { return m_m->rows(); }

  [[nodiscard]] std::vector<gid_type> local_gids() const
  {
    std::vector<gid_type> out;
    for (std::size_t r = 0; r < m_m->rows(); ++r)
      if (m_m->is_local({r, 0}))
        out.push_back(r);
    return out;
  }

  [[nodiscard]] value_type read(gid_type r) const
  {
    return value_type(*m_m, r);
  }
  void post_execute() {}

 private:
  M* m_m;
};

/// View of a matrix as a linearized (row-major) 1D array
/// ('or even as linearized vector', Ch. III).
template <typename M>
class matrix_linear_view {
 public:
  using container_type = M;
  using gid_type = gid1d;
  using value_type = typename M::value_type;

  explicit matrix_linear_view(M& m) noexcept : m_m(&m) {}

  [[nodiscard]] std::size_t size() const { return m_m->rows() * m_m->cols(); }

  [[nodiscard]] gid2d map(gid_type i) const
  {
    return {i / m_m->cols(), i % m_m->cols()};
  }

  [[nodiscard]] std::vector<gid_type> local_gids() const
  {
    std::vector<gid_type> out;
    std::size_t const n = size();
    for (gid_type i = 0; i < n; ++i)
      if (m_m->is_local(map(i)))
        out.push_back(i);
    return out;
  }

  [[nodiscard]] value_type read(gid_type i) const
  {
    return m_m->get_element(map(i));
  }
  void write(gid_type i, value_type v)
  {
    m_m->set_element(map(i), std::move(v));
  }
  [[nodiscard]] value_type* try_local_ref(gid_type i)
  {
    return m_m->local_element_ptr(map(i));
  }
  void post_execute() {}

 private:
  M* m_m;
};

} // namespace stapl

#endif
