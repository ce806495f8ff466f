#ifndef STAPL_CORE_MAPPERS_HPP
#define STAPL_CORE_MAPPERS_HPP

// Partition mappers (dissertation Ch. V.C.5, Table IX): map each sub-domain
// identifier (bCID) to the location that stores the corresponding
// bContainer.

#include <cassert>
#include <cstddef>
#include <vector>

#include "../runtime/runtime.hpp"
#include "../runtime/serialization.hpp"
#include "partitions.hpp"

namespace stapl {

/// Sub-domains dealt to locations round-robin: loc(b) = b mod L.
class cyclic_mapper {
 public:
  cyclic_mapper() = default;
  cyclic_mapper(std::size_t num_bcontainers, unsigned num_locs)
      : m_bcontainers(num_bcontainers), m_locs(num_locs)
  {}

  void init(std::size_t num_bcontainers, unsigned num_locs)
  {
    m_bcontainers = num_bcontainers;
    m_locs = num_locs;
  }

  [[nodiscard]] location_id map(bcid_type b) const noexcept
  {
    return static_cast<location_id>(b % m_locs);
  }
  [[nodiscard]] bool is_local(bcid_type b) const noexcept
  {
    return map(b) == this_location();
  }
  [[nodiscard]] std::size_t num_bcontainers() const noexcept
  {
    return m_bcontainers;
  }
  [[nodiscard]] std::vector<bcid_type> local_bcids(location_id loc) const
  {
    std::vector<bcid_type> out;
    for (bcid_type b = loc; b < m_bcontainers; b += m_locs)
      out.push_back(b);
    return out;
  }

  void define_type(typer& t)
  {
    t.member(m_bcontainers);
    t.member(m_locs);
  }

 private:
  std::size_t m_bcontainers = 0;
  unsigned m_locs = 1;
};

/// m/L consecutive sub-domains per location.
class blocked_mapper {
 public:
  blocked_mapper() = default;
  blocked_mapper(std::size_t num_bcontainers, unsigned num_locs)
  {
    init(num_bcontainers, num_locs);
  }

  void init(std::size_t num_bcontainers, unsigned num_locs)
  {
    m_bcontainers = num_bcontainers;
    m_locs = num_locs;
  }

  [[nodiscard]] location_id map(bcid_type b) const noexcept
  {
    // Balanced contiguous assignment of bContainers to locations.
    return static_cast<location_id>(index1d(m_bcontainers, m_locs, b));
  }
  [[nodiscard]] bool is_local(bcid_type b) const noexcept
  {
    return map(b) == this_location();
  }
  [[nodiscard]] std::size_t num_bcontainers() const noexcept
  {
    return m_bcontainers;
  }
  [[nodiscard]] std::vector<bcid_type> local_bcids(location_id loc) const
  {
    std::vector<bcid_type> out;
    for (bcid_type b = 0; b < m_bcontainers; ++b)
      if (map(b) == loc)
        out.push_back(b);
    return out;
  }

  void define_type(typer& t)
  {
    t.member(m_bcontainers);
    t.member(m_locs);
  }

 private:
  std::size_t m_bcontainers = 0;
  unsigned m_locs = 1;
};

/// Arbitrary explicit bCID -> location table.
class arbitrary_mapper {
 public:
  arbitrary_mapper() = default;
  explicit arbitrary_mapper(std::vector<location_id> table)
      : m_table(std::move(table))
  {}

  void init(std::size_t num_bcontainers, unsigned num_locs)
  {
    if (m_table.empty()) { // fall back to cyclic when no table given
      m_table.resize(num_bcontainers);
      for (std::size_t b = 0; b < num_bcontainers; ++b)
        m_table[b] = static_cast<location_id>(b % num_locs);
    }
    assert(m_table.size() == num_bcontainers);
  }

  [[nodiscard]] location_id map(bcid_type b) const noexcept
  {
    return m_table[b];
  }
  [[nodiscard]] bool is_local(bcid_type b) const noexcept
  {
    return map(b) == this_location();
  }
  [[nodiscard]] std::size_t num_bcontainers() const noexcept
  {
    return m_table.size();
  }
  [[nodiscard]] std::vector<bcid_type> local_bcids(location_id loc) const
  {
    std::vector<bcid_type> out;
    for (bcid_type b = 0; b < m_table.size(); ++b)
      if (m_table[b] == loc)
        out.push_back(b);
    return out;
  }

  void define_type(typer& t) { t.member(m_table); }

 private:
  std::vector<location_id> m_table;
};

} // namespace stapl

#endif
