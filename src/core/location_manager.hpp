#ifndef STAPL_CORE_LOCATION_MANAGER_HPP
#define STAPL_CORE_LOCATION_MANAGER_HPP

// Location manager (dissertation Ch. V.C.2, Table IV): administers the
// collection of bContainers of one pContainer that are mapped to one
// location.

#include <cassert>
#include <cstddef>
#include <map>
#include <memory>
#include <utility>

#include "base_containers.hpp"
#include "partitions.hpp"

namespace stapl {

template <typename BContainer>
class location_manager {
 public:
  using bcontainer_type = BContainer;
  /// Ordered by bCID so local traversals follow the partition order.
  using storage_type = std::map<bcid_type, std::unique_ptr<BContainer>>;
  using iterator = typename storage_type::iterator;
  using const_iterator = typename storage_type::const_iterator;

  location_manager() = default;

  /// Takes ownership of a bContainer (Table IV `add_bcontainer`).
  BContainer& add_bcontainer(bcid_type bcid, std::unique_ptr<BContainer> bc)
  {
    auto [it, inserted] = m_bcs.emplace(bcid, std::move(bc));
    assert(inserted && "duplicate bContainer id on this location");
    return *it->second;
  }

  /// Constructs a bContainer in place.
  template <typename... Args>
  BContainer& emplace_bcontainer(bcid_type bcid, Args&&... args)
  {
    return add_bcontainer(
        bcid, std::make_unique<BContainer>(std::forward<Args>(args)...));
  }

  [[nodiscard]] std::size_t size() const noexcept { return m_bcs.size(); }
  [[nodiscard]] bool has(bcid_type bcid) const { return m_bcs.count(bcid) != 0; }

  [[nodiscard]] BContainer& get_bcontainer(bcid_type bcid)
  {
    auto it = m_bcs.find(bcid);
    assert(it != m_bcs.end() && "bContainer not on this location");
    return *it->second;
  }
  [[nodiscard]] BContainer const& get_bcontainer(bcid_type bcid) const
  {
    auto it = m_bcs.find(bcid);
    assert(it != m_bcs.end() && "bContainer not on this location");
    return *it->second;
  }

  [[nodiscard]] iterator begin() noexcept { return m_bcs.begin(); }
  [[nodiscard]] iterator end() noexcept { return m_bcs.end(); }
  [[nodiscard]] const_iterator begin() const noexcept { return m_bcs.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return m_bcs.end(); }

  /// Total number of elements across local bContainers.
  [[nodiscard]] std::size_t local_size() const noexcept
  {
    std::size_t n = 0;
    for (auto const& [bcid, bc] : m_bcs)
      n += bc->size();
    return n;
  }

  void clear() { m_bcs.clear(); }

  [[nodiscard]] memory_report memory_size() const noexcept
  {
    memory_report r{sizeof(*this), 0};
    for (auto const& [bcid, bc] : m_bcs) {
      auto const [meta, data] = bc->memory_size();
      r.first += meta + 4 * sizeof(void*); // map node overhead
      r.second += data;
    }
    return r;
  }

 private:
  storage_type m_bcs;
};

} // namespace stapl

#endif
