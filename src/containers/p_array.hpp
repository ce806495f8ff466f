#ifndef STAPL_CONTAINERS_P_ARRAY_HPP
#define STAPL_CONTAINERS_P_ARRAY_HPP

// The stapl pArray (dissertation Ch. IX): parallel equivalent of
// std::valarray.  A static, indexed pContainer with closed-form address
// resolution; derivation chain (Fig. 25):
//   p_container_base -> p_container_static -> p_container_indexed -> p_array.
//
// Example (Fig. 26):
//   p_array<int> pa(100);                         // balanced partition
//   p_array<int, blocked_partition> pb(100, blocked_partition(10));
//   pa.set_element(3, 7);  int v = pa.get_element(3);
//
// A pArray resolves GIDs in closed form (partition + mapper).  Calling
// make_dynamic() switches it to directory-backed resolution
// (core/directory.hpp), after which individual elements may migrate
// between locations:
//   pa.make_dynamic();                            // collective
//   pa.migrate(3, 1);  rmi_fence();               // element 3 -> location 1
//   pa.get_element(3);                            // routed via the directory
//
// Hot-element load balancing (core/load_balancer.hpp) builds on this:
//   pa.enable_load_balancing({.imbalance_threshold = 1.25});  // collective
//   ... skewed element-method traffic ...
//   auto rep = pa.rebalance();     // hot elements spread over locations
// Migrated-out slots of the contiguous bContainers stay allocated (see
// extract_element below), so balancing trades that slack space for
// method-routing throughput.

#include <cstddef>
#include <utility>

#include "../core/container_base.hpp"

namespace stapl {

/// Default pArray traits (Table XXI): storage and partition mapper can
/// both be overridden per instance.
template <typename T>
struct p_array_traits {
  using bcontainer_type = vector_bcontainer<T>;
  using mapper_type = blocked_mapper;
};

template <typename T, typename Partition = balanced_partition,
          typename Traits = p_array_traits<T>>
class p_array final
    : public p_container_indexed<
          p_array<T, Partition, Traits>,
          detail::indexed_traits_bundle<T, Partition, Traits>> {
  using base = p_container_indexed<
      p_array<T, Partition, Traits>,
      detail::indexed_traits_bundle<T, Partition, Traits>>;

 public:
  using typename base::gid_type;
  using typename base::value_type;
  using typename base::reference;
  using partition_type = Partition;
  using domain_type = indexed_domain;

  /// Collective: empty pArray.
  p_array() { rmi_fence(); }

  /// Collective: pArray of n elements, default balanced partition
  /// (one sub-domain per location).  O(n/P + log P).
  explicit p_array(std::size_t n, T const& init = T{})
      : p_array(n, default_partition(n), init)
  {}

  /// Collective: pArray of n elements with the given partition.
  p_array(std::size_t n, Partition partition, T const& init = T{})
  {
    this->m_partition = std::move(partition);
    this->m_partition.set_domain(domain_type(n));
    init_storage(init);
    rmi_fence();
  }

  /// Collective destructor: drains in-flight traffic before teardown.
  ~p_array() override { rmi_fence(); }

  [[nodiscard]] domain_type domain() const
  {
    return this->m_partition.domain();
  }

 private:
  [[nodiscard]] static Partition default_partition(std::size_t n)
  {
    if constexpr (std::is_constructible_v<Partition, indexed_domain,
                                          std::size_t>)
      return Partition(indexed_domain(n), num_locations());
    else
      return Partition{};
  }

  void init_storage(T const& init)
  {
    this->m_mapper.init(this->m_partition.size(), num_locations());
    for (bcid_type b : this->m_mapper.local_bcids(this->get_location_id()))
      this->m_lm.emplace_bcontainer(
          b, b, this->m_partition.subdomain_size(b), init);
  }
};

} // namespace stapl

#endif
