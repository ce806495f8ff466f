#ifndef STAPL_CORE_DOMAINS_HPP
#define STAPL_CORE_DOMAINS_HPP

// Domain concepts of the PCF (dissertation Ch. IV.B.2-3, Tables V/VI).
//
// A domain is the set of GIDs identifying the elements of a pContainer.
// Ordered domains additionally expose first/last/next/prev/advance/offset
// following the finite-ordered-domain interface; the `last` GID is a
// past-the-end convention, STL style.

#include <cassert>
#include <compare>
#include <cstdint>
#include <cstddef>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "../runtime/serialization.hpp"

namespace stapl {

/// One-dimensional index GID.
using gid1d = std::size_t;

inline constexpr gid1d invalid_gid = std::numeric_limits<gid1d>::max();

/// Finite totally ordered 1D range domain [first, last).
/// This is the domain of indexed pContainers (pArray, pVector).
class indexed_domain {
 public:
  using gid_type = gid1d;

  indexed_domain() = default;
  indexed_domain(gid_type first, gid_type last) noexcept
      : m_first(first), m_last(last)
  {
    assert(first <= last);
  }
  /// Domain [0, n).
  explicit indexed_domain(std::size_t n) noexcept : indexed_domain(0, n) {}

  [[nodiscard]] gid_type first() const noexcept { return m_first; }
  /// Past-the-end convention: not a member of the domain.
  [[nodiscard]] gid_type last() const noexcept { return m_last; }
  [[nodiscard]] std::size_t size() const noexcept { return m_last - m_first; }
  [[nodiscard]] bool empty() const noexcept { return m_first == m_last; }

  [[nodiscard]] bool contains(gid_type g) const noexcept
  {
    return g >= m_first && g < m_last;
  }
  [[nodiscard]] static bool less(gid_type a, gid_type b) noexcept
  {
    return a < b;
  }
  [[nodiscard]] static gid_type invalid() noexcept { return invalid_gid; }

  [[nodiscard]] gid_type next(gid_type g) const noexcept { return g + 1; }
  [[nodiscard]] gid_type prev(gid_type g) const noexcept { return g - 1; }
  [[nodiscard]] gid_type advance(gid_type g, std::size_t n) const noexcept
  {
    return g + n;
  }
  /// Offset of `g` within the unique enumeration of the domain.
  [[nodiscard]] std::size_t offset(gid_type g) const noexcept
  {
    assert(contains(g));
    return g - m_first;
  }
  [[nodiscard]] gid_type at_offset(std::size_t n) const noexcept
  {
    return m_first + n;
  }

  [[nodiscard]] bool operator==(indexed_domain const&) const = default;

  void define_type(typer& t)
  {
    t.member(m_first);
    t.member(m_last);
  }

 private:
  gid_type m_first = 0;
  gid_type m_last = 0;
};

/// Two-dimensional GID (row, column).
struct gid2d {
  std::size_t row = 0;
  std::size_t col = 0;

  [[nodiscard]] bool operator==(gid2d const&) const = default;
  /// Row-major lexicographic order (Ch. IV.B.3, Cartesian-product domains).
  [[nodiscard]] auto operator<=>(gid2d const&) const = default;

  void define_type(typer& t)
  {
    t.member(row);
    t.member(col);
  }
};

/// Finite ordered 2D rectangular domain [0,rows) x [0,cols), row-major
/// linearization (the 2DRange of Ch. IV.B.3).
class domain2d {
 public:
  using gid_type = gid2d;

  domain2d() = default;
  domain2d(std::size_t rows, std::size_t cols) noexcept
      : m_rows(rows), m_cols(cols)
  {}

  [[nodiscard]] std::size_t rows() const noexcept { return m_rows; }
  [[nodiscard]] std::size_t cols() const noexcept { return m_cols; }
  [[nodiscard]] std::size_t size() const noexcept { return m_rows * m_cols; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  [[nodiscard]] gid_type first() const noexcept { return {0, 0}; }
  [[nodiscard]] gid_type last() const noexcept { return {m_rows, 0}; }

  [[nodiscard]] bool contains(gid_type g) const noexcept
  {
    return g.row < m_rows && g.col < m_cols;
  }
  [[nodiscard]] static bool less(gid_type a, gid_type b) noexcept
  {
    return a < b;
  }

  [[nodiscard]] gid_type next(gid_type g) const noexcept
  {
    return g.col + 1 < m_cols ? gid_type{g.row, g.col + 1}
                              : gid_type{g.row + 1, 0};
  }
  [[nodiscard]] gid_type prev(gid_type g) const noexcept
  {
    return g.col > 0 ? gid_type{g.row, g.col - 1}
                     : gid_type{g.row - 1, m_cols - 1};
  }
  [[nodiscard]] std::size_t offset(gid_type g) const noexcept
  {
    return g.row * m_cols + g.col;
  }
  [[nodiscard]] gid_type at_offset(std::size_t n) const noexcept
  {
    return {n / m_cols, n % m_cols};
  }
  [[nodiscard]] gid_type advance(gid_type g, std::size_t n) const noexcept
  {
    return at_offset(offset(g) + n);
  }

  [[nodiscard]] bool operator==(domain2d const&) const = default;

  void define_type(typer& t)
  {
    t.member(m_rows);
    t.member(m_cols);
  }

 private:
  std::size_t m_rows = 0;
  std::size_t m_cols = 0;
};

/// Filtered domain: lazily enumerates the GIDs of a base domain that satisfy
/// a predicate (Ch. IV.B.3, "filtered domain").
template <typename Base, typename Pred>
class filtered_domain {
 public:
  using gid_type = typename Base::gid_type;

  filtered_domain(Base base, Pred pred)
      : m_base(std::move(base)), m_pred(std::move(pred))
  {}

  [[nodiscard]] bool contains(gid_type g) const
  {
    return m_base.contains(g) && m_pred(g);
  }

  [[nodiscard]] std::size_t size() const
  {
    std::size_t n = 0;
    for (std::size_t i = 0; i != m_base.size(); ++i)
      if (m_pred(m_base.at_offset(i)))
        ++n;
    return n;
  }

  /// Materializes the filtered enumeration.
  [[nodiscard]] std::vector<gid_type> gids() const
  {
    std::vector<gid_type> out;
    for (std::size_t i = 0; i != m_base.size(); ++i)
      if (auto g = m_base.at_offset(i); m_pred(g))
        out.push_back(g);
    return out;
  }

 private:
  Base m_base;
  Pred m_pred;
};

// ---------------------------------------------------------------------------
// GIDs of dynamic pContainers (pList, dynamic pGraph)
// ---------------------------------------------------------------------------

/// GID for dynamic containers: encodes the base container in which the
/// element was created (high bits) plus a per-bContainer counter (low bits).
/// Elements keep their GID for life; the home bContainer is recoverable in
/// closed form, which is what makes the "static-like" fast path of dynamic
/// containers possible (Ch. V.C).
struct dynamic_gid {
  static constexpr unsigned bcid_bits = 20;
  static constexpr std::uint64_t counter_mask =
      (std::uint64_t{1} << (64 - bcid_bits)) - 1;

  std::uint64_t bits = ~std::uint64_t{0};

  dynamic_gid() = default;
  dynamic_gid(std::size_t bcid, std::uint64_t counter) noexcept
      : bits((static_cast<std::uint64_t>(bcid) << (64 - bcid_bits)) |
             (counter & counter_mask))
  {}

  [[nodiscard]] std::size_t bcid() const noexcept
  {
    return static_cast<std::size_t>(bits >> (64 - bcid_bits));
  }
  [[nodiscard]] std::uint64_t counter() const noexcept
  {
    return bits & counter_mask;
  }
  [[nodiscard]] bool valid() const noexcept { return bits != ~std::uint64_t{0}; }

  [[nodiscard]] bool operator==(dynamic_gid const&) const = default;
  [[nodiscard]] auto operator<=>(dynamic_gid const&) const = default;

  void define_type(typer& t) { t.member(bits); }
};

} // namespace stapl

template <>
struct std::hash<stapl::gid2d> {
  std::size_t operator()(stapl::gid2d const& g) const noexcept
  {
    return std::hash<std::size_t>{}(g.row * 0x9E3779B97F4A7C15ull + g.col);
  }
};

template <>
struct std::hash<stapl::dynamic_gid> {
  std::size_t operator()(stapl::dynamic_gid const& g) const noexcept
  {
    return std::hash<std::uint64_t>{}(g.bits);
  }
};

#endif
