#ifndef STAPL_CONTAINERS_P_ASSOCIATIVE_HPP
#define STAPL_CONTAINERS_P_ASSOCIATIVE_HPP

// Associative pContainers (dissertation Ch. XII, Fig. 57, Tables XVI/XXVIII):
// pMap, pMultiMap, pHashMap (pair associative) and pSet, pMultiSet, pHashSet
// (simple associative).  Derivation (Fig. 12):
//   p_container_base -> p_container_dynamic -> p_container_associative -> ...
//
// Keys are the GIDs; the partition maps keys to bContainers either by value
// ranges (sorted associative, Fig. 58) or by hashing.  Sorted variants
// guarantee logarithmic local access, hashed variants amortized constant —
// the Ch. XII storage trade-off.
//
// After make_dynamic(), hot keys can be redistributed at run time:
// enable_load_balancing() + rebalance()/advance_epoch() migrate the most
// frequently accessed keys off overloaded locations (see
// core/load_balancer.hpp).  Associative bContainers absorb migrated-in
// keys natively, so balanced placement costs no overflow storage here.

#include <cstddef>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "../core/container_base.hpp"

namespace stapl {

namespace detail {

template <typename Key, typename Value, typename Partition, typename BC,
          typename Mapper = cyclic_mapper,
          typename Ths = no_locking_manager>
struct assoc_traits_bundle {
  using value_type = Value;
  using key_type = Key;
  using partition_type = Partition;
  using mapper_type = Mapper;
  using bcontainer_type = BC;
  using ths_manager_type = Ths;
};

} // namespace detail

// ---------------------------------------------------------------------------
// Pair associative base (Table XVI)
// ---------------------------------------------------------------------------

template <typename Derived, typename Traits>
class p_container_associative : public p_container_dynamic<Derived, Traits> {
  using base = p_container_dynamic<Derived, Traits>;

 public:
  using key_type = typename Traits::key_type;
  using mapped_type = typename Traits::value_type;
  using typename base::gid_type; // == key_type
  using typename base::value_type;

  /// Asynchronous insert of (key, value); unique containers overwrite
  /// nothing on duplicate keys, multi containers always add.
  void insert_async(key_type k, mapped_type v)
  {
    this->invoke(MP_INSERT, k,
                 [k, v = std::move(v)](Derived& c, bcid_type b) {
                   (void)c.bc(b).insert(k, v);
                 });
  }

  /// Synchronous insert; returns whether a new element was created.
  bool insert(key_type k, mapped_type v)
  {
    return this->invoke_ret(MP_INSERT, k,
                            [k, v = std::move(v)](Derived& c, bcid_type b) {
                              return c.bc(b).insert(k, v);
                            });
  }

  /// Asynchronous erase by key (Table XVI erase_async).
  void erase_async(key_type k)
  {
    this->invoke(MP_ERASE, k, [k](Derived& c, bcid_type b) {
      if (c.bc(b).erase(k) != 0)
        c.dyn_forget(k);
    });
  }

  /// Synchronous erase; returns the number of removed elements.
  std::size_t erase(key_type k)
  {
    return this->invoke_ret(MP_ERASE, k, [k](Derived& c, bcid_type b) {
      auto const n = c.bc(b).erase(k);
      if (n != 0)
        c.dyn_forget(k);
      return n;
    });
  }

  /// (value, found) for the key (Table XVI find_val).
  [[nodiscard]] std::pair<mapped_type, bool> find_val(key_type k)
  {
    return this->invoke_ret(MP_FIND, k, [k](Derived& c, bcid_type b) {
      return c.bc(b).find_val(k);
    });
  }

  /// Split-phase find: future for (value, found).
  [[nodiscard]] pc_future<std::pair<mapped_type, bool>>
  split_phase_find(key_type k)
  {
    return this->invoke_split(MP_FIND, k, [k](Derived& c, bcid_type b) {
      return c.bc(b).find_val(k);
    });
  }

  [[nodiscard]] bool contains(key_type k)
  {
    return this->invoke_ret(MP_FIND, k, [k](Derived& c, bcid_type b) {
      return c.bc(b).contains(k);
    });
  }

  [[nodiscard]] std::size_t count(key_type k)
  {
    return this->invoke_ret(MP_FIND, k, [k](Derived& c, bcid_type b) {
      return c.bc(b).count(k);
    });
  }

  /// Applies `f(mapped&)` to the value of `k`, default-constructing the
  /// entry if absent (the accumulate-style access of the MapReduce kernel,
  /// Ch. XII.C.1).  Asynchronous.
  template <typename F>
  void apply_async(key_type k, F f)
  {
    this->invoke(MP_APPLY, k,
                 [k, f = std::move(f)](Derived& c, bcid_type b) mutable {
                   c.bc(b).apply(k, std::move(f));
                 });
  }

  /// Applies `f(mapped&)` and returns its result.  Synchronous.
  template <typename F>
  [[nodiscard]] auto apply_get(key_type k, F f)
  {
    return this->invoke_ret(MP_APPLY, k,
                            [k, f = std::move(f)](Derived& c,
                                                  bcid_type b) mutable {
                              return f(c.bc(b).get_or_create(k));
                            });
  }

  /// set_element/get_element aliases so associative containers satisfy the
  /// element-view concept (read == find, write == overwrite-insert).
  void set_element(key_type k, mapped_type v)
  {
    this->invoke(MP_SET_ELEMENT, k,
                 [k, v = std::move(v)](Derived& c, bcid_type b) {
                   c.bc(b).get_or_create(k) = v;
                 });
  }
  [[nodiscard]] mapped_type get_element(key_type k)
  {
    return find_val(std::move(k)).first;
  }

  /// Local keys in bContainer order (view support).
  [[nodiscard]] std::vector<key_type> local_gids() const
  {
    std::vector<key_type> out;
    for (auto const& [bcid, bcptr] : this->m_lm)
      for (auto const& kv : *bcptr)
        out.push_back(kv.first);
    return out;
  }

  /// f(key, mapped&) over local elements.
  template <typename F>
  void for_each_local(F&& f)
  {
    for (auto& [bcid, bcptr] : this->m_lm)
      for (auto& kv : *bcptr)
        f(kv.first, kv.second);
  }

  [[nodiscard]] mapped_type* local_element_ptr(key_type const& k)
  {
    if (this->is_dynamic()) {
      if (!this->get_directory().owns(k))
        return nullptr;
      auto& bc = this->bc(this->derived().dyn_local_bcid(k));
      return bc.contains(k) ? &bc.at(k) : nullptr;
    }
    auto const r = this->derived().resolve(k);
    if (!r.resolved || r.loc != this->get_location_id())
      return nullptr;
    auto& bc = this->bc(r.bcid);
    return bc.contains(k) ? &bc.at(k) : nullptr;
  }

  // -------------------------------------------------------------------------
  // Migration protocol hooks (see core/migration.hpp).  Associative
  // bContainers are keyed by GID, so migrated-in elements live in a real
  // local bContainer instead of an overflow store.
  // -------------------------------------------------------------------------

  /// Removes the element(s) of `k` from local storage and returns the
  /// mapped values in equal-range order.  The directory owns the *key*, so
  /// multi containers migrate every occurrence atomically — the payload is
  /// the whole equal range (a single-element vector for unique maps).
  [[nodiscard]] std::vector<mapped_type> extract_element(key_type const& k)
  {
    bcid_type const b = this->derived().dyn_local_bcid(k);
    std::vector<mapped_type> vs = this->bc(b).extract_all(k);
    this->m_dyn_index.erase(k);
    return vs;
  }

  /// Stores a migrated-in equal range: into the partition-assigned
  /// bContainer when it is local, else into this location's first
  /// bContainer (tracked in the dynamic index so local dispatch finds it).
  void insert_migrated(key_type const& k, std::vector<mapped_type> vs)
  {
    bcid_type b = this->m_partition.get_info(k);
    if (this->m_lm.has(b)) {
      this->m_dyn_index.erase(k);
    } else {
      assert(this->m_lm.size() > 0 && "migration target has no bContainer");
      b = this->m_lm.begin()->first;
      this->m_dyn_index[k] = b;
    }
    // Plain inserts: the occurrences were just extracted at the source,
    // and (unlike get_or_create) insert compiles for multi containers too.
    // Unique containers receive a single value; multi containers restore
    // the whole equal range.
    for (auto& v : vs)
      (void)this->bc(b).insert(k, std::move(v));
  }
};

// ---------------------------------------------------------------------------
// Simple associative base (key == value; pSet family)
// ---------------------------------------------------------------------------

template <typename Derived, typename Traits>
class p_container_simple_associative
    : public p_container_dynamic<Derived, Traits> {
  using base = p_container_dynamic<Derived, Traits>;

 public:
  using key_type = typename Traits::key_type;
  using typename base::gid_type;

  void insert_async(key_type k)
  {
    this->invoke(MP_INSERT, k,
                 [k](Derived& c, bcid_type b) { (void)c.bc(b).insert(k); });
  }

  bool insert(key_type k)
  {
    return this->invoke_ret(MP_INSERT, k, [k](Derived& c, bcid_type b) {
      return c.bc(b).insert(k);
    });
  }

  void erase_async(key_type k)
  {
    this->invoke(MP_ERASE, k, [k](Derived& c, bcid_type b) {
      if (c.bc(b).erase(k) != 0)
        c.dyn_forget(k);
    });
  }

  std::size_t erase(key_type k)
  {
    return this->invoke_ret(MP_ERASE, k, [k](Derived& c, bcid_type b) {
      auto const n = c.bc(b).erase(k);
      if (n != 0)
        c.dyn_forget(k);
      return n;
    });
  }

  [[nodiscard]] bool contains(key_type k)
  {
    return this->invoke_ret(MP_FIND, k, [k](Derived& c, bcid_type b) {
      return c.bc(b).contains(k);
    });
  }

  [[nodiscard]] std::size_t count(key_type k)
  {
    return this->invoke_ret(MP_FIND, k, [k](Derived& c, bcid_type b) {
      return c.bc(b).count(k);
    });
  }

  [[nodiscard]] pc_future<bool> split_phase_contains(key_type k)
  {
    return this->invoke_split(MP_FIND, k, [k](Derived& c, bcid_type b) {
      return c.bc(b).contains(k);
    });
  }

  [[nodiscard]] std::vector<key_type> local_gids() const
  {
    std::vector<key_type> out;
    for (auto const& [bcid, bcptr] : this->m_lm)
      for (auto const& k : *bcptr)
        out.push_back(k);
    return out;
  }

  // -------------------------------------------------------------------------
  // Migration protocol hooks.  The key is the value, so the payload is
  // just the occurrence count: multisets migrate their whole equal range
  // atomically, sets a single occurrence.
  // -------------------------------------------------------------------------

  /// Removes every occurrence of `k` locally; the payload is how many.
  [[nodiscard]] std::size_t extract_element(key_type const& k)
  {
    bcid_type const b = this->derived().dyn_local_bcid(k);
    std::size_t const n = this->bc(b).erase(k);
    assert(n != 0 && "extract_element: key not in this bContainer");
    this->m_dyn_index.erase(k);
    return n;
  }

  /// Re-inserts `count` occurrences of `k` at the destination.
  void insert_migrated(key_type const& k, std::size_t count)
  {
    bcid_type b = this->m_partition.get_info(k);
    if (this->m_lm.has(b)) {
      this->m_dyn_index.erase(k);
    } else {
      assert(this->m_lm.size() > 0 && "migration target has no bContainer");
      b = this->m_lm.begin()->first;
      this->m_dyn_index[k] = b;
    }
    for (std::size_t i = 0; i != count; ++i)
      (void)this->bc(b).insert(k);
  }
};

// ---------------------------------------------------------------------------
// Concrete containers
// ---------------------------------------------------------------------------

namespace detail {

/// Shared constructor body for all associative containers: `parts_per_loc`
/// bContainers per location, partition given explicitly or default-built.
template <typename C>
void init_associative(C& c, typename C::partition_type partition)
{
  c.partition() = std::move(partition);
  c.mapper().init(c.partition().size(), num_locations());
  for (bcid_type b : c.mapper().local_bcids(c.get_location_id()))
    c.get_location_manager().emplace_bcontainer(b, b);
  rmi_fence();
}

} // namespace detail

/// Sorted pair-associative pContainer.  Default partition hashes keys;
/// pass a value_partition for range-partitioned sorted maps (Fig. 58).
template <typename Key, typename T, typename Partition = hashed_partition<Key>,
          typename Compare = std::less<Key>>
class p_map final
    : public p_container_associative<
          p_map<Key, T, Partition, Compare>,
          detail::assoc_traits_bundle<
              Key, T, Partition,
              map_bcontainer<std::map<Key, T, Compare>>>> {
 public:
  using partition_type = Partition;

  explicit p_map(Partition partition = default_partition())
  {
    detail::init_associative(*this, std::move(partition));
  }
  ~p_map() override { rmi_fence(); }

  [[nodiscard]] static Partition default_partition()
  {
    if constexpr (std::is_constructible_v<Partition, std::size_t>)
      return Partition(num_locations());
    else
      return Partition{};
  }
};

/// Sorted pair-associative with duplicate keys.
template <typename Key, typename T, typename Partition = hashed_partition<Key>,
          typename Compare = std::less<Key>>
class p_multimap final
    : public p_container_associative<
          p_multimap<Key, T, Partition, Compare>,
          detail::assoc_traits_bundle<
              Key, T, Partition,
              map_bcontainer<std::multimap<Key, T, Compare>>>> {
 public:
  using partition_type = Partition;

  explicit p_multimap(Partition partition = Partition(num_locations()))
  {
    detail::init_associative(*this, std::move(partition));
  }
  ~p_multimap() override { rmi_fence(); }
};

/// Hashed pair-associative pContainer (amortized O(1) local access).
template <typename Key, typename T, typename Hash = std::hash<Key>>
class p_hash_map final
    : public p_container_associative<
          p_hash_map<Key, T, Hash>,
          detail::assoc_traits_bundle<
              Key, T, hashed_partition<Key, Hash>,
              map_bcontainer<std::unordered_map<Key, T, Hash>>>> {
 public:
  using partition_type = hashed_partition<Key, Hash>;

  explicit p_hash_map(std::size_t parts_per_loc = 1)
  {
    detail::init_associative(
        *this, partition_type(parts_per_loc * num_locations()));
  }
  ~p_hash_map() override { rmi_fence(); }
};

/// Sorted simple-associative pContainer.
template <typename Key, typename Partition = hashed_partition<Key>,
          typename Compare = std::less<Key>>
class p_set final
    : public p_container_simple_associative<
          p_set<Key, Partition, Compare>,
          detail::assoc_traits_bundle<
              Key, Key, Partition,
              set_bcontainer<std::set<Key, Compare>>>> {
 public:
  using partition_type = Partition;

  explicit p_set(Partition partition = default_partition())
  {
    detail::init_associative(*this, std::move(partition));
  }
  ~p_set() override { rmi_fence(); }

  [[nodiscard]] static Partition default_partition()
  {
    if constexpr (std::is_constructible_v<Partition, std::size_t>)
      return Partition(num_locations());
    else
      return Partition{};
  }
};

/// Sorted simple-associative with duplicates.
template <typename Key, typename Partition = hashed_partition<Key>,
          typename Compare = std::less<Key>>
class p_multiset final
    : public p_container_simple_associative<
          p_multiset<Key, Partition, Compare>,
          detail::assoc_traits_bundle<
              Key, Key, Partition,
              set_bcontainer<std::multiset<Key, Compare>>>> {
 public:
  using partition_type = Partition;

  explicit p_multiset(Partition partition = Partition(num_locations()))
  {
    detail::init_associative(*this, std::move(partition));
  }
  ~p_multiset() override { rmi_fence(); }
};

/// Hashed simple-associative pContainer.
template <typename Key, typename Hash = std::hash<Key>>
class p_hash_set final
    : public p_container_simple_associative<
          p_hash_set<Key, Hash>,
          detail::assoc_traits_bundle<
              Key, Key, hashed_partition<Key, Hash>,
              set_bcontainer<std::unordered_set<Key, Hash>>>> {
 public:
  using partition_type = hashed_partition<Key, Hash>;

  explicit p_hash_set(std::size_t parts_per_loc = 1)
  {
    detail::init_associative(
        *this, partition_type(parts_per_loc * num_locations()));
  }
  ~p_hash_set() override { rmi_fence(); }
};

// ---------------------------------------------------------------------------
// map_view — pView over pair-associative containers
// ---------------------------------------------------------------------------

/// View over a pair-associative container: GIDs are keys, values are the
/// mapped values (Table II p_map_pview).
template <typename C>
class map_view {
 public:
  using container_type = C;
  using key_type = typename C::key_type;
  using gid_type = key_type;
  using value_type = typename C::mapped_type;

  explicit map_view(C& c) noexcept : m_c(&c) {}

  [[nodiscard]] std::size_t size() const { return m_c->size(); }
  [[nodiscard]] std::vector<gid_type> local_gids() const
  {
    return m_c->local_gids();
  }
  [[nodiscard]] value_type read(gid_type k) const
  {
    return m_c->find_val(k).first;
  }
  void write(gid_type k, value_type v) { m_c->set_element(k, std::move(v)); }
  [[nodiscard]] value_type* try_local_ref(gid_type k)
  {
    return m_c->local_element_ptr(k);
  }
  void post_execute() {}

 private:
  C* m_c;
};

} // namespace stapl

#endif
