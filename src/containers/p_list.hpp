#ifndef STAPL_CONTAINERS_P_LIST_HPP
#define STAPL_CONTAINERS_P_LIST_HPP

// The stapl pList (dissertation Ch. X): a dynamic sequence pContainer.
// Derivation chain (Fig. 35):
//   p_container_base -> p_container_dynamic -> p_container_sequence -> p_list.
//
// The list is stored as an ordered chain of list bContainers (Fig. 37); the
// global sequence order is the concatenation of the bContainers in bCID
// order, with list order inside each.  Elements carry `dynamic_gid`s that
// encode their home bContainer, so element-wise methods resolve in closed
// form and run in O(1) (Table XXIV complexity guarantees).
//
// Two flavors of insertion exist (Ch. V.B "new methods facilitating parallel
// use"): the semantic push_back/push_front target the global tail/head
// bContainers, while push_anywhere_async appends to the *local* bContainer,
// trading position control for perfect locality and load balance.

#include <cstddef>
#include <utility>
#include <vector>

#include "../core/container_base.hpp"

namespace stapl {

template <typename T>
struct p_list_traits {
  using bcontainer_type = list_bcontainer<T>;
  using mapper_type = blocked_mapper;
};

namespace detail {

template <typename T, typename Traits>
struct list_traits_bundle {
  using value_type = T;
  using partition_type = dynamic_partition;
  using mapper_type = typename Traits::mapper_type;
  using bcontainer_type = typename Traits::bcontainer_type;
};

} // namespace detail

// ---------------------------------------------------------------------------
// p_container_sequence (Table XVIII)
// ---------------------------------------------------------------------------

template <typename Derived, typename Traits>
class p_container_sequence : public p_container_dynamic<Derived, Traits> {
  using base = p_container_dynamic<Derived, Traits>;

 public:
  using typename base::value_type;
  using gid_type = dynamic_gid;
  using reference = element_proxy<Derived>;

  // -- element access (sequence containers also support gid access) --------

  void set_element(gid_type gid, value_type val)
  {
    this->invoke(gid,
                 [gid, val = std::move(val)](Derived& c, bcid_type b) {
                   c.bc(b).set(gid, val);
                 });
  }

  [[nodiscard]] value_type get_element(gid_type gid)
  {
    return this->invoke_ret(gid,
                            [gid](Derived& c, bcid_type b) {
                              return c.bc(b).at(gid);
                            });
  }

  [[nodiscard]] pc_future<value_type> split_phase_get_element(gid_type gid)
  {
    return this->invoke_split(gid,
                              [gid](Derived& c, bcid_type b) {
                                return c.bc(b).at(gid);
                              });
  }

  template <typename F>
  void apply_set(gid_type gid, F f)
  {
    this->invoke(gid,
                 [gid, f = std::move(f)](Derived& c, bcid_type b) mutable {
                   f(c.bc(b).at(gid));
                 });
  }

  template <typename F>
  [[nodiscard]] auto apply_get(gid_type gid, F f)
  {
    return this->invoke_ret(gid,
                            [gid, f = std::move(f)](Derived& c,
                                                    bcid_type b) mutable {
                              return f(c.bc(b).at(gid));
                            });
  }

  [[nodiscard]] reference operator[](gid_type gid)
  {
    return reference(this->derived(), gid);
  }

  // -- sequence mutation ----------------------------------------------------

  /// Appends at the global tail (last bContainer).  Asynchronous.
  void push_back(value_type val)
  {
    bcid_type const tail = this->m_partition.size() - 1;
    this->route_to_bcid(tail,
                        [val = std::move(val)](Derived& c, bcid_type b) {
                          (void)c.bc(b).push_back(val);
                        });
  }

  /// Prepends at the global head (first bContainer).  Asynchronous.
  void push_front(value_type val)
  {
    this->route_to_bcid(bcid_type{0},
                        [val = std::move(val)](Derived& c, bcid_type b) {
                          (void)c.bc(b).push_front(val);
                        });
  }

  void pop_back()
  {
    bcid_type const tail = this->m_partition.size() - 1;
    this->route_to_bcid(tail,
                        [](Derived& c, bcid_type b) { c.bc(b).pop_back(); });
  }

  void pop_front()
  {
    this->route_to_bcid(bcid_type{0},
                        [](Derived& c, bcid_type b) { c.bc(b).pop_front(); });
  }

  /// Inserts before `gid` asynchronously.
  void insert_element_async(gid_type gid, value_type val)
  {
    this->invoke(gid,
                 [gid, val = std::move(val)](Derived& c, bcid_type b) {
                   (void)c.bc(b).insert_before(gid, val);
                 });
  }

  /// Inserts before `gid`; returns the GID of the new element.  Synchronous.
  [[nodiscard]] gid_type insert_element(gid_type gid, value_type val)
  {
    return this->invoke_ret(gid,
                            [gid, val = std::move(val)](Derived& c,
                                                        bcid_type b) {
                              return c.bc(b).insert_before(gid, val);
                            });
  }

  void erase_element(gid_type gid)
  {
    this->invoke(gid,
                 [gid](Derived& c, bcid_type b) { c.bc(b).erase(gid); });
  }

  /// Adds an element at an unspecified position: the *local* bContainer,
  /// giving constant-time, communication-free insertion (Ch. V.B).
  void push_anywhere_async(value_type val)
  {
    (void)this->bc(local_home_bcid()).push_back(std::move(val));
  }

  /// Adds locally and returns the new element's GID.
  [[nodiscard]] gid_type push_anywhere(value_type val)
  {
    return this->bc(local_home_bcid()).push_back(std::move(val));
  }

  /// Reference to some local element (unspecified which).
  [[nodiscard]] value_type& get_anywhere()
  {
    auto& bc = this->bc(local_home_bcid());
    assert(!bc.empty());
    return bc.at(bc.front_gid());
  }

  /// Removes some local element (unspecified which).
  void remove_element()
  {
    auto& bc = this->bc(local_home_bcid());
    if (!bc.empty())
      bc.pop_back();
  }

  /// First bContainer of this location (its "home" for anywhere-inserts).
  [[nodiscard]] bcid_type local_home_bcid() const
  {
    auto locals = this->m_mapper.local_bcids(this->get_location_id());
    assert(!locals.empty());
    return locals.front();
  }

  /// GIDs of local elements in sequence order.
  [[nodiscard]] std::vector<gid_type> local_gids() const
  {
    std::vector<gid_type> out;
    out.reserve(this->m_lm.local_size());
    for (auto const& [bcid, bcptr] : this->m_lm)
      for (auto const& [gid, value] : *bcptr)
        out.push_back(gid);
    return out;
  }

  /// Applies f(gid, element&) over local elements in sequence order.
  template <typename F>
  void for_each_local(F&& f)
  {
    for (auto& [bcid, bcptr] : this->m_lm)
      for (auto& [gid, value] : *bcptr)
        f(gid, value);
  }

  /// Pointer to the local element of `gid`, or nullptr when it is stored
  /// elsewhere or was erased.
  [[nodiscard]] value_type* local_element_ptr(gid_type gid)
  {
    bcid_type const b = this->local_bcid(gid);
    if (b == invalid_bcid)
      return nullptr;
    auto& bc = this->bc(b);
    return bc.contains(gid) ? &bc.at(gid) : nullptr;
  }
};

// ---------------------------------------------------------------------------
// p_list
// ---------------------------------------------------------------------------

template <typename T, typename Traits = p_list_traits<T>>
class p_list final
    : public p_container_sequence<p_list<T, Traits>,
                                  detail::list_traits_bundle<T, Traits>> {
  using base = p_container_sequence<p_list<T, Traits>,
                                    detail::list_traits_bundle<T, Traits>>;

 public:
  using typename base::gid_type;
  using typename base::value_type;

  /// Collective: empty pList with `per_location` bContainers per location
  /// (Fig. 37 shows how multiple sub-lists per location are chained).
  explicit p_list(std::size_t per_location = 1)
  {
    std::size_t const nparts = per_location * num_locations();
    this->m_partition = dynamic_partition(nparts);
    this->m_mapper.init(nparts, num_locations());
    for (bcid_type b : this->m_mapper.local_bcids(this->get_location_id()))
      this->m_lm.emplace_bcontainer(b, b);
    rmi_fence();
  }

  ~p_list() override { rmi_fence(); }
};

} // namespace stapl

#endif
