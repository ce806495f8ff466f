#ifndef STAPL_CONTAINERS_P_VECTOR_HPP
#define STAPL_CONTAINERS_P_VECTOR_HPP

// The stapl pVector (dissertation Ch. V.F, Fig. 12d): a sequence pContainer
// that also implements the indexed interface.  Derivation chain:
//   p_container_base -> p_container_dynamic -> p_container_indexed -> p_vector.
//
// The pVector starts from a balanced blocked partition; inserts and erases
// make the blocks unbalanced (`pv_unbalanced_partition`, Ch. V.D.4).  Index
// resolution uses a replicated snapshot of the block sizes; dynamic
// operations update live local sizes and the snapshot is refreshed by the
// collective flush() (the post_execute re-synchronization of Ch. VII.H).
// This is the documented trade-off of Ch. V.F: random access in O(1),
// inserts in O(block) — the opposite profile of the pList.

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "../core/container_base.hpp"

namespace stapl {

/// Partition of [0, n) into contiguous blocks of explicitly tracked sizes;
/// initially balanced, arbitrarily unbalanced after dynamic operations.
class pv_unbalanced_partition {
 public:
  using domain_type = indexed_domain;
  using gid_type = gid1d;

  pv_unbalanced_partition() : m_cum{0} {}
  explicit pv_unbalanced_partition(std::vector<std::size_t> const& sizes)
  {
    set_sizes(sizes);
  }

  void set_sizes(std::vector<std::size_t> const& sizes)
  {
    m_cum.assign(1, 0);
    for (std::size_t s : sizes)
      m_cum.push_back(m_cum.back() + s);
  }

  void set_domain(domain_type d)
  {
    // Balanced split of the incoming domain over the current block count.
    std::size_t const parts = std::max<std::size_t>(size(), 1);
    std::vector<std::size_t> sizes(parts);
    for (std::size_t b = 0; b != parts; ++b)
      sizes[b] = split1d(d.size(), parts, b).second;
    set_sizes(sizes);
  }

  [[nodiscard]] domain_type domain() const
  {
    return indexed_domain(m_cum.back());
  }
  [[nodiscard]] std::size_t size() const noexcept
  {
    return m_cum.size() - 1;
  }

  [[nodiscard]] bcid_type get_info(gid_type g) const noexcept
  {
    auto it = std::upper_bound(m_cum.begin() + 1, m_cum.end(), g);
    return static_cast<bcid_type>(
        std::min<std::ptrdiff_t>(it - m_cum.begin() - 1,
                                 static_cast<std::ptrdiff_t>(size()) - 1));
  }
  [[nodiscard]] std::size_t subdomain_size(bcid_type b) const noexcept
  {
    return m_cum[b + 1] - m_cum[b];
  }
  [[nodiscard]] std::size_t local_index(gid_type g) const noexcept
  {
    return g - m_cum[get_info(g)];
  }
  [[nodiscard]] gid_type gid_of(bcid_type b, std::size_t i) const noexcept
  {
    return m_cum[b] + i;
  }
  [[nodiscard]] indexed_domain subdomain(bcid_type b) const noexcept
  {
    return {m_cum[b], m_cum[b + 1]};
  }

  void define_type(typer& t) { t.member(m_cum); }

 private:
  std::vector<std::size_t> m_cum; ///< exclusive prefix sums; size() + 1 entries
};

template <typename T>
struct p_vector_traits {
  using bcontainer_type = vector_bcontainer<T>;
  using mapper_type = blocked_mapper;
};

template <typename T, typename Traits = p_vector_traits<T>>
class p_vector final
    : public p_container_indexed<
          p_vector<T, Traits>,
          detail::indexed_traits_bundle<T, pv_unbalanced_partition, Traits>,
          p_container_dynamic> {
  using base = p_container_indexed<
      p_vector<T, Traits>,
      detail::indexed_traits_bundle<T, pv_unbalanced_partition, Traits>,
      p_container_dynamic>;

 public:
  using typename base::gid_type;
  using typename base::value_type;

  /// Collective: pVector of n elements (balanced across locations).
  explicit p_vector(std::size_t n = 0, T const& init = T{})
  {
    std::vector<std::size_t> sizes(num_locations());
    for (std::size_t b = 0; b != sizes.size(); ++b)
      sizes[b] = split1d(n, sizes.size(), b).second;
    this->m_partition.set_sizes(sizes);
    this->m_mapper.init(sizes.size(), num_locations());
    for (bcid_type b : this->m_mapper.local_bcids(this->get_location_id()))
      this->m_lm.emplace_bcontainer(b, b, sizes[b], init);
    rmi_fence();
  }

  ~p_vector() override { rmi_fence(); }

  /// Snapshot size (exact after flush()).
  [[nodiscard]] std::size_t size() const
  {
    return this->m_partition.domain().size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Appends at the end of the vector (last block).  Asynchronous;
  /// amortized O(1).
  void push_back(T val)
  {
    bcid_type const tail = this->m_partition.size() - 1;
    this->route_to_bcid(tail,
                        [val = std::move(val)](p_vector& c, bcid_type b) {
                          c.bc(b).push_back(val);
                        });
  }

  void pop_back()
  {
    bcid_type const tail = this->m_partition.size() - 1;
    this->route_to_bcid(tail, [](p_vector& c, bcid_type b) {
      if (!c.bc(b).data().empty())
        c.bc(b).pop_back();
    });
  }

  /// Inserts `val` before index `idx` (position per the current snapshot).
  /// Asynchronous; O(block) on the owner.
  void insert_async(gid_type idx, T val)
  {
    this->invoke(std::min(idx, last_gid()),
                 [idx, val = std::move(val)](p_vector& c, bcid_type b) {
                   auto& bc = c.bc(b);
                   std::size_t const li = std::min(
                       c.partition().local_index(idx), bc.size());
                   bc.insert(li, val);
                 });
  }

  /// Erases the element at index `idx` (per the current snapshot).
  void erase_async(gid_type idx)
  {
    this->invoke(idx, [idx](p_vector& c, bcid_type b) {
      auto& bc = c.bc(b);
      std::size_t const li = c.partition().local_index(idx);
      if (li < bc.size())
        bc.erase(li);
    });
  }

  /// Indexed access clamped against the *live* block size: between flushes
  /// the replicated snapshot may lag behind dynamic operations, so the
  /// owner clamps the local offset rather than running off the block
  /// (exact again after flush()).
  void set_element(gid_type idx, T val)
  {
    this->invoke(idx,
                 [idx, val = std::move(val)](p_vector& c, bcid_type b) {
                   auto& bc = c.bc(b);
                   if (bc.size() == 0)
                     return;
                   std::size_t const li = std::min(
                       c.partition().local_index(idx), bc.size() - 1);
                   bc.set(li, val);
                 });
  }

  [[nodiscard]] T get_element(gid_type idx)
  {
    return this->invoke_ret(idx,
                            [idx](p_vector& c, bcid_type b) {
                              auto& bc = c.bc(b);
                              if (bc.size() == 0)
                                return T{};
                              std::size_t const li = std::min(
                                  c.partition().local_index(idx),
                                  bc.size() - 1);
                              return bc.at(li);
                            });
  }

  /// Collective: re-synchronizes the replicated block-size snapshot with the
  /// live bContainer sizes (Ch. VII.H post_execute).
  void flush()
  {
    rmi_fence(); // complete pending dynamic operations first
    std::size_t local = 0;
    for (auto& [bcid, bcptr] : this->m_lm)
      local += bcptr->size();
    auto const sizes = allgather(local);
    this->m_partition.set_sizes(sizes);
    rmi_fence();
  }

 private:
  [[nodiscard]] gid_type last_gid() const
  {
    auto const n = this->m_partition.domain().size();
    return n == 0 ? 0 : n - 1;
  }
};

} // namespace stapl

#endif
