#ifndef STAPL_CORE_PARTITIONS_HPP
#define STAPL_CORE_PARTITIONS_HPP

// Partition concepts of the PCF (dissertation Ch. IV.B.4-5 and V.C.4,
// Tables VII/VIII/XV).
//
// A partition decomposes a domain into ordered, disjoint sub-domains, one per
// base container (bCID), and answers the central address-resolution query
// `get_info(gid) -> bcid`.  Indexed partitions additionally provide the
// closed-form local index of a GID inside its bContainer and the inverse
// mapping, which lets bContainers use contiguous storage.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

#include "domains.hpp"

namespace stapl {

/// Identifier of a sub-domain / base container.
using bcid_type = std::size_t;

inline constexpr bcid_type invalid_bcid = static_cast<bcid_type>(-1);

/// Pseudo-bCID of elements that migrated onto a location outside any of its
/// partition-assigned bContainers (they live in the container's overflow
/// store; see container_base.hpp).
inline constexpr bcid_type migrated_bcid = static_cast<bcid_type>(-2);

/// The balanced split of [0, n) into `p` contiguous pieces, the first n % p
/// of them one longer: piece `i` is [lo, lo + sz), returned as {lo, sz}.
[[nodiscard]] inline std::pair<std::size_t, std::size_t>
split1d(std::size_t n, std::size_t p, std::size_t i) noexcept
{
  std::size_t const q = n / p, r = n % p;
  return {i * q + std::min(i, r), i < r ? q + 1 : q};
}

/// The piece of split1d(n, p, .) that holds offset `x`.
[[nodiscard]] inline std::size_t index1d(std::size_t n, std::size_t p,
                                         std::size_t x) noexcept
{
  std::size_t const q = n / p, r = n % p;
  std::size_t const big = r * (q + 1);
  return x < big ? x / (q + 1) : r + (x - big) / std::max<std::size_t>(q, 1);
}

// ---------------------------------------------------------------------------
// Indexed partitions (pArray, pVector, static pGraph)
// ---------------------------------------------------------------------------

/// `partition_balanced`: N elements split into `p` contiguous sub-domains of
/// size N/p (first N%p get one extra).  Used by default by pArray.
class balanced_partition {
 public:
  using domain_type = indexed_domain;
  using gid_type = gid1d;

  balanced_partition() = default;
  explicit balanced_partition(std::size_t num_subdomains)
      : m_parts(num_subdomains)
  {}
  balanced_partition(domain_type d, std::size_t num_subdomains)
      : m_parts(num_subdomains)
  {
    set_domain(d);
  }

  void set_domain(domain_type d)
  {
    m_domain = d;
    if (m_parts == 0)
      m_parts = 1;
    if (m_domain.size() < m_parts && m_domain.size() > 0)
      m_parts = m_domain.size();
  }

  [[nodiscard]] domain_type const& domain() const noexcept { return m_domain; }
  [[nodiscard]] std::size_t size() const noexcept { return m_parts; }

  [[nodiscard]] bcid_type get_info(gid_type g) const noexcept
  {
    return index1d(m_domain.size(), m_parts, m_domain.offset(g));
  }

  [[nodiscard]] domain_type subdomain(bcid_type b) const noexcept
  {
    auto const [lo, sz] = split1d(m_domain.size(), m_parts, b);
    return {m_domain.first() + lo, m_domain.first() + lo + sz};
  }

  [[nodiscard]] std::size_t subdomain_size(bcid_type b) const noexcept
  {
    return subdomain(b).size();
  }
  [[nodiscard]] std::size_t local_index(gid_type g) const noexcept
  {
    return g - subdomain(get_info(g)).first();
  }
  [[nodiscard]] gid_type gid_of(bcid_type b, std::size_t i) const noexcept
  {
    return subdomain(b).first() + i;
  }

  void define_type(typer& t)
  {
    t.member(m_domain);
    t.member(m_parts);
  }

 private:
  domain_type m_domain;
  std::size_t m_parts = 1;
};

/// `partition_blocked`: fixed block size; N/BS sub-domains (last may be
/// smaller).
class blocked_partition {
 public:
  using domain_type = indexed_domain;
  using gid_type = gid1d;

  blocked_partition() = default;
  explicit blocked_partition(std::size_t block_size) : m_block(block_size)
  {
    assert(block_size > 0);
  }
  blocked_partition(domain_type d, std::size_t block_size)
      : m_block(block_size)
  {
    set_domain(d);
  }

  void set_domain(domain_type d) { m_domain = d; }

  [[nodiscard]] domain_type const& domain() const noexcept { return m_domain; }
  [[nodiscard]] std::size_t size() const noexcept
  {
    return m_domain.empty() ? 1 : (m_domain.size() + m_block - 1) / m_block;
  }

  [[nodiscard]] bcid_type get_info(gid_type g) const noexcept
  {
    return m_domain.offset(g) / m_block;
  }
  [[nodiscard]] domain_type subdomain(bcid_type b) const noexcept
  {
    gid_type const lo = m_domain.first() + b * m_block;
    gid_type const hi =
        std::min<gid_type>(lo + m_block, m_domain.last());
    return {lo, hi};
  }
  [[nodiscard]] std::size_t subdomain_size(bcid_type b) const noexcept
  {
    return subdomain(b).size();
  }
  [[nodiscard]] std::size_t local_index(gid_type g) const noexcept
  {
    return m_domain.offset(g) % m_block;
  }
  [[nodiscard]] gid_type gid_of(bcid_type b, std::size_t i) const noexcept
  {
    return m_domain.first() + b * m_block + i;
  }

  void define_type(typer& t)
  {
    t.member(m_domain);
    t.member(m_block);
  }

 private:
  domain_type m_domain;
  std::size_t m_block = 1;
};

/// `partition_block_cyclic`: `p` sub-domains; blocks of `block` consecutive
/// GIDs dealt to sub-domains round-robin (Ch. V.D.4 examples).
class block_cyclic_partition {
 public:
  using domain_type = indexed_domain;
  using gid_type = gid1d;

  block_cyclic_partition() = default;
  block_cyclic_partition(std::size_t num_subdomains, std::size_t block)
      : m_parts(num_subdomains), m_block(block)
  {
    assert(num_subdomains > 0 && block > 0);
  }

  void set_domain(domain_type d) { m_domain = d; }

  [[nodiscard]] domain_type const& domain() const noexcept { return m_domain; }
  [[nodiscard]] std::size_t size() const noexcept { return m_parts; }

  [[nodiscard]] bcid_type get_info(gid_type g) const noexcept
  {
    return (m_domain.offset(g) / m_block) % m_parts;
  }

  [[nodiscard]] std::size_t subdomain_size(bcid_type b) const noexcept
  {
    std::size_t const n = m_domain.size();
    std::size_t const full_rounds = n / (m_block * m_parts);
    std::size_t const rem = n % (m_block * m_parts);
    std::size_t extra = 0;
    if (rem > b * m_block)
      extra = std::min(rem - b * m_block, m_block);
    return full_rounds * m_block + extra;
  }

  [[nodiscard]] std::size_t local_index(gid_type g) const noexcept
  {
    std::size_t const off = m_domain.offset(g);
    std::size_t const round = off / (m_block * m_parts);
    return round * m_block + off % m_block;
  }

  [[nodiscard]] gid_type gid_of(bcid_type b, std::size_t i) const noexcept
  {
    std::size_t const round = i / m_block;
    std::size_t const within = i % m_block;
    return m_domain.first() + round * m_block * m_parts + b * m_block + within;
  }

  void define_type(typer& t)
  {
    t.member(m_domain);
    t.member(m_parts);
    t.member(m_block);
  }

 private:
  domain_type m_domain;
  std::size_t m_parts = 1;
  std::size_t m_block = 1;
};

/// `partition_blocked_explicit`: arbitrary, explicitly enumerated contiguous
/// block sizes (Ch. V.D.4: `BLOCK(v{3,4,4})`).
class explicit_partition {
 public:
  using domain_type = indexed_domain;
  using gid_type = gid1d;

  explicit_partition() = default;
  explicit explicit_partition(std::vector<std::size_t> block_sizes)
      : m_sizes(std::move(block_sizes))
  {
    rebuild();
  }

  void set_domain(domain_type d)
  {
    m_domain = d;
    assert(m_offsets.empty() || m_offsets.back() == d.size());
  }

  [[nodiscard]] domain_type const& domain() const noexcept { return m_domain; }
  [[nodiscard]] std::size_t size() const noexcept
  {
    return std::max<std::size_t>(m_sizes.size(), 1);
  }

  [[nodiscard]] bcid_type get_info(gid_type g) const noexcept
  {
    std::size_t const off = m_domain.offset(g);
    auto it = std::upper_bound(m_offsets.begin(), m_offsets.end(), off);
    return static_cast<bcid_type>(it - m_offsets.begin());
  }

  [[nodiscard]] domain_type subdomain(bcid_type b) const noexcept
  {
    std::size_t const lo = b == 0 ? 0 : m_offsets[b - 1];
    std::size_t const hi = m_offsets.empty() ? 0 : m_offsets[b];
    return {m_domain.first() + lo, m_domain.first() + hi};
  }
  [[nodiscard]] std::size_t subdomain_size(bcid_type b) const noexcept
  {
    return m_sizes.empty() ? 0 : m_sizes[b];
  }
  [[nodiscard]] std::size_t local_index(gid_type g) const noexcept
  {
    return g - subdomain(get_info(g)).first();
  }
  [[nodiscard]] gid_type gid_of(bcid_type b, std::size_t i) const noexcept
  {
    return subdomain(b).first() + i;
  }

  void define_type(typer& t)
  {
    t.member(m_domain);
    t.member(m_sizes);
    t.member(m_offsets);
  }

 private:
  void rebuild()
  {
    m_offsets.resize(m_sizes.size());
    std::partial_sum(m_sizes.begin(), m_sizes.end(), m_offsets.begin());
  }

  domain_type m_domain;
  std::vector<std::size_t> m_sizes;
  std::vector<std::size_t> m_offsets; ///< inclusive prefix sums of m_sizes
};

// ---------------------------------------------------------------------------
// 2D matrix partition (pMatrix, Ch. V.D.4 "p_matrix_partition")
// ---------------------------------------------------------------------------

/// Decomposes a rows x cols domain into a grid of block sub-domains
/// (row-wise, column-wise, or 2D checkerboard depending on grid shape).
class matrix_partition {
 public:
  using domain_type = domain2d;
  using gid_type = gid2d;

  matrix_partition() = default;
  matrix_partition(std::size_t grid_rows, std::size_t grid_cols)
      : m_grows(grid_rows), m_gcols(grid_cols)
  {
    assert(grid_rows > 0 && grid_cols > 0);
  }

  void set_domain(domain_type d)
  {
    m_domain = d;
    m_grows = std::min(m_grows, std::max<std::size_t>(d.rows(), 1));
    m_gcols = std::min(m_gcols, std::max<std::size_t>(d.cols(), 1));
  }

  [[nodiscard]] domain_type const& domain() const noexcept { return m_domain; }
  [[nodiscard]] std::size_t size() const noexcept { return m_grows * m_gcols; }
  [[nodiscard]] std::size_t grid_rows() const noexcept { return m_grows; }
  [[nodiscard]] std::size_t grid_cols() const noexcept { return m_gcols; }

  [[nodiscard]] bcid_type get_info(gid_type g) const noexcept
  {
    std::size_t const br = index1d(m_domain.rows(), m_grows, g.row);
    std::size_t const bc = index1d(m_domain.cols(), m_gcols, g.col);
    return br * m_gcols + bc;
  }

  /// The rectangular block of bCID `b`: returns {row_lo, row_sz, col_lo, col_sz}.
  struct block {
    std::size_t row_lo, row_sz, col_lo, col_sz;
  };

  [[nodiscard]] block subblock(bcid_type b) const noexcept
  {
    auto const [rlo, rsz] = split1d(m_domain.rows(), m_grows, b / m_gcols);
    auto const [clo, csz] = split1d(m_domain.cols(), m_gcols, b % m_gcols);
    return {rlo, rsz, clo, csz};
  }

  [[nodiscard]] std::size_t subdomain_size(bcid_type b) const noexcept
  {
    auto const bl = subblock(b);
    return bl.row_sz * bl.col_sz;
  }

  /// Row-major local index within the block.
  [[nodiscard]] std::size_t local_index(gid_type g) const noexcept
  {
    auto const bl = subblock(get_info(g));
    return (g.row - bl.row_lo) * bl.col_sz + (g.col - bl.col_lo);
  }

  [[nodiscard]] gid_type gid_of(bcid_type b, std::size_t i) const noexcept
  {
    auto const bl = subblock(b);
    return {bl.row_lo + i / bl.col_sz, bl.col_lo + i % bl.col_sz};
  }

  void define_type(typer& t)
  {
    t.member(m_domain);
    t.member(m_grows);
    t.member(m_gcols);
  }

 private:
  domain_type m_domain;
  std::size_t m_grows = 1;
  std::size_t m_gcols = 1;
};

// ---------------------------------------------------------------------------
// Associative partitions (Ch. XII, Fig. 58)
// ---------------------------------------------------------------------------

/// Value-based partition for sorted associative pContainers: explicit key
/// boundaries k_1 < ... < k_{p-1} split the key universe into p ranges.
template <typename Key, typename Compare = std::less<Key>>
class value_partition {
 public:
  using gid_type = Key;

  value_partition() = default;
  explicit value_partition(std::vector<Key> boundaries)
      : m_bounds(std::move(boundaries))
  {
    assert(std::is_sorted(m_bounds.begin(), m_bounds.end(), Compare{}));
  }

  /// Uniform boundaries over [lo, hi) — integral keys.
  static value_partition uniform(Key lo, Key hi, std::size_t parts)
  {
    std::vector<Key> bounds;
    for (std::size_t i = 1; i < parts; ++i)
      bounds.push_back(lo + static_cast<Key>((hi - lo) * i / parts));
    return value_partition(std::move(bounds));
  }

  [[nodiscard]] std::size_t size() const noexcept { return m_bounds.size() + 1; }

  [[nodiscard]] bcid_type get_info(Key const& k) const
  {
    auto it = std::upper_bound(m_bounds.begin(), m_bounds.end(), k, Compare{});
    return static_cast<bcid_type>(it - m_bounds.begin());
  }

  void define_type(typer& t) { t.member(m_bounds); }

 private:
  std::vector<Key> m_bounds;
};

/// Hash-based partition for hashed associative pContainers.
template <typename Key, typename Hash = std::hash<Key>>
class hashed_partition {
 public:
  using gid_type = Key;

  hashed_partition() = default;
  explicit hashed_partition(std::size_t parts) : m_parts(parts)
  {
    assert(parts > 0);
  }

  [[nodiscard]] std::size_t size() const noexcept { return m_parts; }

  [[nodiscard]] bcid_type get_info(Key const& k) const
  {
    return Hash{}(k) % m_parts;
  }

  void define_type(typer& t) { t.member(m_parts); }

 private:
  std::size_t m_parts = 1;
};

// ---------------------------------------------------------------------------
// Dynamic-GID partition (pList, dynamic pGraph)
// ---------------------------------------------------------------------------

/// Partition for containers whose elements carry `dynamic_gid`s: the home
/// bContainer is encoded in the GID itself, so resolution is closed-form and
/// never needs communication (Fig. 37's default pList organization).
class dynamic_partition {
 public:
  using gid_type = dynamic_gid;

  dynamic_partition() = default;
  explicit dynamic_partition(std::size_t parts) : m_parts(parts) {}

  [[nodiscard]] std::size_t size() const noexcept { return m_parts; }

  [[nodiscard]] bcid_type get_info(dynamic_gid g) const noexcept
  {
    return g.bcid();
  }

  void define_type(typer& t) { t.member(m_parts); }

 private:
  std::size_t m_parts = 1;
};

} // namespace stapl

#endif
