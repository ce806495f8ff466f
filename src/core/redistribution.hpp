#ifndef STAPL_CORE_REDISTRIBUTION_HPP
#define STAPL_CORE_REDISTRIBUTION_HPP

// Redistribution support (dissertation Ch. V.G): reorganizes a
// pContainer's data according to a new partition and/or partition mapping.
// Elements that change location are marshaled with the typer machinery
// (Ch. V.G.1) and shipped in bulk — one message per (source, destination)
// pair — rather than element by element, mirroring the "redistribution map"
// optimization of Fig. 13.

#include <cstddef>
#include <utility>
#include <vector>

#include "../runtime/runtime.hpp"
#include "../runtime/serialization.hpp"
#include "container_base.hpp"

namespace stapl {

namespace redist_detail {

/// Per-location staging area for in-flight elements, filled by RMIs that
/// run on this location's thread.
template <typename T>
struct staging : p_object {
  std::vector<std::pair<gid1d, T>> incoming;

  void deliver(std::vector<std::byte> bytes)
  {
    auto batch = unpack<std::vector<std::pair<gid1d, T>>>(bytes);
    incoming.insert(incoming.end(), batch.begin(), batch.end());
  }
};

} // namespace redist_detail

/// Redistributes an indexed pContainer (pArray family) to `new_partition`
/// (same partition type) and optionally a new mapper.  Collective.
template <typename Container, typename Partition, typename Mapper>
void redistribute(Container& c, Partition new_partition, Mapper new_mapper)
{
  using T = typename Container::value_type;
  rmi_fence(); // complete pending element methods first

  new_partition.set_domain(c.partition().domain());
  new_mapper.init(new_partition.size(), num_locations());

  redist_detail::staging<T> stage;
  rmi_handle const sh = stage.get_handle();

  // Group local elements by target location under the new distribution.
  std::vector<std::vector<std::pair<gid1d, T>>> outgoing(num_locations());
  c.for_each_local([&](gid1d g, T& value) {
    bcid_type const nb = new_partition.get_info(g);
    outgoing[new_mapper.map(nb)].emplace_back(g, value);
  });

  for (location_id l = 0; l < num_locations(); ++l) {
    if (outgoing[l].empty())
      continue;
    if (l == this_location()) {
      stage.incoming.insert(stage.incoming.end(), outgoing[l].begin(),
                            outgoing[l].end());
    } else {
      // Marshal the batch (define_type-driven) and ship it in one message.
      async_rmi<redist_detail::staging<T>>(
          l, sh, &redist_detail::staging<T>::deliver, pack(outgoing[l]));
    }
  }
  rmi_fence();

  // Rebuild local storage under the new partition.
  auto& lm = c.get_location_manager();
  lm.clear();
  c.partition() = new_partition;
  c.mapper() = new_mapper;
  for (bcid_type b : new_mapper.local_bcids(this_location()))
    lm.emplace_bcontainer(b, b, new_partition.subdomain_size(b), T{});
  for (auto& [g, value] : stage.incoming) {
    bcid_type const b = new_partition.get_info(g);
    c.bc(b).set(new_partition.local_index(g), std::move(value));
  }
  rmi_fence();
}

/// rotate() (Ch. V.G): cyclically shifts each bContainer `shift` locations.
/// Requires a container whose traits select the arbitrary_mapper (see
/// relocatable_array_traits), since block mappers cannot express rotation.
template <typename Container>
void rotate(Container& c, std::size_t shift)
{
  static_assert(
      std::is_same_v<typename Container::mapper_type, arbitrary_mapper>,
      "rotate requires arbitrary_mapper traits (relocatable_array_traits)");
  std::size_t const nb = c.partition().size();
  std::vector<location_id> table(nb);
  for (bcid_type b = 0; b < nb; ++b) {
    location_id const cur = c.mapper().map(b);
    table[b] = static_cast<location_id>((cur + shift) % num_locations());
  }
  redistribute(c, c.partition(), arbitrary_mapper(std::move(table)));
}

/// pArray traits selecting the arbitrary mapper, enabling rotate() with
/// free-form bContainer placement (a Ch. V.H traits customization).
template <typename T>
struct relocatable_array_traits {
  using bcontainer_type = vector_bcontainer<T>;
  using mapper_type = arbitrary_mapper;
};

} // namespace stapl

#endif
