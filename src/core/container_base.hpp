#ifndef STAPL_CORE_CONTAINER_BASE_HPP
#define STAPL_CORE_CONTAINER_BASE_HPP

// The pContainer base hierarchy and the shared-object-view machinery
// (dissertation Ch. V, Figs. 7/8/17, Tables XI-XIV).
//
// Every stapl pContainer derives (through CRTP chains mirroring the PCF
// taxonomy of Fig. 5) from p_container_base, which owns the location
// manager and the data-distribution information (partition + partition
// mapper), and implements the generic `invoke` method skeleton: resolve the
// GID to a (bCID, location), then run the method here or forward it to the
// owner location (method forwarding).  Directory-backed containers hand the
// request to the directory, which forwards it toward the element's current
// owner.  A method always runs on its owner location's thread (runtime.hpp),
// so the skeleton takes no locks: the thread-safety managers of Ch. VI have
// nothing to serialize in this runtime and are not reproduced.
//
// Module map of the core layer:
//   domains.hpp          GID/domain concepts (1D, 2D, dynamic GIDs)
//   partitions.hpp       domain -> sub-domain (bCID) decompositions
//   mappers.hpp          bCID -> location placement
//   base_containers.hpp  per-location storage units (bContainers)
//   location_manager.hpp the bContainers of one location
//   directory.hpp        distributed GID -> owner registry: home-location
//                        records, per-location owner caches with
//                        invalidation, request forwarding (invoke_where),
//                        owner-side access tracking (bounded hot-GID sketch)
//   migration.hpp        element-granularity handoff between bContainers,
//                        driven through the directory
//   load_balancer.hpp    epoch-based hot-element redistribution on top of
//                        migrate(), driven by the directory's access stats
//   redistribution.hpp   whole-bContainer repartitioning
//   composition.hpp      nested pContainer support
//   container_base.hpp   this file: the CRTP method-execution skeleton,
//                        switching between closed-form resolution (static
//                        distributions) and the directory (dynamic ones)

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "../runtime/runtime.hpp"
#include "directory.hpp"
#include "load_balancer.hpp"
#include "location_manager.hpp"
#include "mappers.hpp"
#include "migration.hpp"
#include "partitions.hpp"

namespace stapl {

/// Result of closed-form pContainer address resolution (Fig. 7): the
/// element's bContainer and the location that stores it.
struct resolution {
  bcid_type bcid = invalid_bcid;
  location_id loc = invalid_location;
};

namespace detail {

/// Bundles the user-facing template arguments (T, Partition, Traits) into the
/// single traits pack consumed by the p_container_base chain.
template <typename T, typename Partition, typename Traits>
struct indexed_traits_bundle {
  using value_type = T;
  using partition_type = Partition;
  using mapper_type = typename Traits::mapper_type;
  using bcontainer_type = typename Traits::bcontainer_type;
};

} // namespace detail

// ---------------------------------------------------------------------------
// p_container_base (Table XI)
// ---------------------------------------------------------------------------

template <typename Derived, typename Traits>
class p_container_base : public p_object {
 public:
  using traits_type = Traits;
  using value_type = typename Traits::value_type;
  using partition_type = typename Traits::partition_type;
  using mapper_type = typename Traits::mapper_type;
  using bcontainer_type = typename Traits::bcontainer_type;
  using gid_type = typename partition_type::gid_type;
  using location_manager_type = location_manager<bcontainer_type>;

  [[nodiscard]] partition_type const& partition() const noexcept
  {
    return m_partition;
  }
  [[nodiscard]] partition_type& partition() noexcept { return m_partition; }
  [[nodiscard]] mapper_type const& mapper() const noexcept { return m_mapper; }
  [[nodiscard]] mapper_type& mapper() noexcept { return m_mapper; }
  [[nodiscard]] location_manager_type& get_location_manager() noexcept
  {
    return m_lm;
  }
  [[nodiscard]] location_manager_type const& get_location_manager()
      const noexcept
  {
    return m_lm;
  }
  /// Closed-form address resolution: the partition query followed by the
  /// partition mapper (containers with a cheaper closed form override it).
  /// Directory-backed containers resolve through the directory instead.
  [[nodiscard]] resolution resolve(gid_type const& g) const
  {
    bcid_type const b = m_partition.get_info(g);
    return {b, m_mapper.map(b)};
  }

  /// The local bContainer that stores `g`, or invalid_bcid when another
  /// location stores it: directory ownership on a directory-backed
  /// container, the closed-form resolution otherwise.  The one locality
  /// test of the method skeleton.
  [[nodiscard]] bcid_type local_bcid(gid_type const& g) const
  {
    if (m_dynamic)
      return m_directory->owns(g) ? derived().dyn_local_bcid(g)
                                  : invalid_bcid;
    auto const r = derived().resolve(g);
    return r.loc == get_location_id() ? r.bcid : invalid_bcid;
  }

  /// True when the element lives in a local bContainer.
  [[nodiscard]] bool is_local(gid_type const& g) const
  {
    return local_bcid(g) != invalid_bcid;
  }

  /// Location that owns the GID.
  [[nodiscard]] location_id lookup(gid_type const& g) const
  {
    if (m_dynamic) {
      if (auto const o = m_directory->try_resolve(g))
        return *o;
      return m_directory->resolve(g);
    }
    return derived().resolve(g).loc;
  }

  // -------------------------------------------------------------------------
  // Directory-backed (dynamic) resolution
  // -------------------------------------------------------------------------

  using directory_type = directory<gid_type>;

  /// The container's directory representative.  Only valid after the
  /// container switched to dynamic resolution (make_dynamic(), or dynamic
  /// from birth); static containers never construct one.
  [[nodiscard]] directory_type& get_directory() noexcept
  {
    assert(m_directory && "get_directory(): container is not dynamic");
    return *m_directory;
  }
  [[nodiscard]] directory_type const& get_directory() const noexcept
  {
    assert(m_directory && "get_directory(): container is not dynamic");
    return *m_directory;
  }

  /// True when element methods resolve through the directory instead of the
  /// closed-form partition arithmetic.
  [[nodiscard]] bool is_dynamic() const noexcept { return m_dynamic; }

  /// Collective: switches the container to directory-backed resolution.
  /// Every location takes local ownership of its current elements;
  /// afterwards elements may migrate between locations (see migrate()).
  /// The closed-form owner is installed as the directory's default, which
  /// is also each GID's home, so no home records are materialized up
  /// front: elements that never move are homed where they live and
  /// resolve lazily to the same owner, and fresh GIDs are adopted by
  /// their arithmetic owner.
  void make_dynamic()
  {
    if (m_dynamic) {
      rmi_fence();
      return;
    }
    // Snapshot the closed-form bView before flipping to dynamic
    // resolution: once m_dynamic is set, local_gids() filters by directory
    // ownership, which is exactly what the loop below seeds.
    auto const seed_gids = derived().local_gids();
    enable_directory_resolution([this](gid_type const& g) {
      return m_mapper.map(m_partition.get_info(g));
    });
    for (auto const& g : seed_gids)
      m_directory->seed_ownership(g);
    rmi_fence();
  }

  /// Moves the element of `gid` to `dest` (asynchronous, complete at the
  /// next fence).  Requires directory-backed resolution.
  void migrate(gid_type const& gid, location_id dest)
  {
    stapl::migrate(derived(), gid, dest);
  }

  // -------------------------------------------------------------------------
  // Load balancing (core/load_balancer.hpp): hot-element redistribution on
  // top of migrate(), driven by the directory's owner-side access stats.
  // -------------------------------------------------------------------------

  /// Collective: switches to directory-backed resolution (if not already)
  /// and starts tracking owner-side accesses, making the container eligible
  /// for rebalance().
  void enable_load_balancing(load_balancer_config cfg = {})
  {
    m_lb_cfg = cfg;
    derived().make_dynamic(); // no-op fence when already dynamic
    m_directory->enable_access_tracking(cfg.hot_k);
    m_lb_enabled = true;
    rmi_fence(); // tracking live everywhere before anyone measures
  }

  [[nodiscard]] bool load_balancing_enabled() const noexcept
  {
    return m_lb_enabled;
  }

  /// Collective: one rebalance wave (measure -> plan -> batched migrations);
  /// see stapl::rebalance.  Every location returns the same report.
  rebalance_report rebalance()
  {
    assert(m_lb_enabled && "rebalance(): enable_load_balancing() first");
    return stapl::rebalance(derived(), m_lb_cfg);
  }

  /// Framework-internal: drops the dynamic-resolution bookkeeping of an
  /// erased element (directory ownership + home record, overflow entries).
  /// Called by container erase methods at the owner; no-op when static.
  void dyn_forget(gid_type const& g)
  {
    if (!m_dynamic)
      return;
    m_directory->unregister_gid(g);
    m_dyn_index.erase(g);
    m_migrated.erase(g);
  }

  /// Local bCID holding `g`'s element.  Default: migrated-in overflow
  /// index, then the closed-form partition answer.  Containers with
  /// non-arithmetic partitions (e.g. dynamic pGraph) override.
  [[nodiscard]] bcid_type dyn_local_bcid(gid_type const& g) const
  {
    auto const it = m_dyn_index.find(g);
    if (it != m_dyn_index.end())
      return it->second;
    return m_partition.get_info(g);
  }

  /// Local bContainer shortcut.
  [[nodiscard]] bcontainer_type& bc(bcid_type b)
  {
    return m_lm.get_bcontainer(b);
  }
  [[nodiscard]] bcontainer_type const& bc(bcid_type b) const
  {
    return m_lm.get_bcontainer(b);
  }

  // -------------------------------------------------------------------------
  // Generic method execution (Fig. 8 / Fig. 17).  Framework interface: used
  // by derived containers to implement their element-wise methods.  An
  // action runs as `action(container, bcid)` on the thread of the location
  // that stores the element.
  // -------------------------------------------------------------------------

  /// Asynchronous execution: routes `action` to the owner of `gid` and
  /// returns immediately.  Only a call that runs here, inline, counts as a
  /// local invocation; a forwarded one is counted once, as the RMI that
  /// carried it.
  template <typename Action>
  void invoke(gid_type gid, Action action)
  {
    if (route(gid, std::move(action)))
      note_local_invocation();
  }

  /// Split-phase execution: returns a future for `action`'s result.  The
  /// request is routed like any other, and the owner fills the future in
  /// (Ch. VII.F "split phase reads"); as in invoke, only a call that runs
  /// here counts as a local invocation.
  template <typename Action>
  [[nodiscard]] auto invoke_split(gid_type gid, Action action)
  {
    using result_type =
        std::invoke_result_t<Action&, Derived&, bcid_type>;
    auto st = std::make_shared<typename pc_future<result_type>::state>();
    if (route(gid, [st, action = std::move(action)](Derived& c,
                                                    bcid_type b) mutable {
          st->fulfil(action(c, b));
        }))
      note_local_invocation();
    return pc_future<result_type>(std::move(st));
  }

  /// Synchronous execution: blocks until the result is available
  /// (Ch. VII.F "synchronous reads").  An element stored here is accessed
  /// inline, without a future or a timer; a remote one is timed in the
  /// container.apply latency family, request to reply.
  template <typename Action>
  [[nodiscard]] auto invoke_ret(gid_type gid, Action action)
  {
    bcid_type const b = local_bcid(gid);
    if (b == invalid_bcid) {
      latency::timed_op lat_scope(latency::op::container_apply);
      return invoke_split(gid, std::move(action)).get();
    }
    if (m_dynamic)
      m_directory->note_access(gid);
    note_local_invocation();
    return action(derived(), b);
  }

  /// Framework-internal: runs a routed action on the owner's
  /// representative.  The directory calls it on the owner's thread right
  /// after confirming ownership, and nothing polls in between, so the
  /// element is still here.
  template <typename Action>
  void dyn_execute(gid_type gid, Action action)
  {
    assert(m_directory->owns(gid));
    m_directory->note_access(gid);
    action(derived(), derived().dyn_local_bcid(gid));
  }

  // -------------------------------------------------------------------------
  // Migration protocol steps (driven by migration.hpp's migrate()).
  // -------------------------------------------------------------------------

  /// Owner-side step: extracts the element and ships it to `dest`, leaving
  /// a forwarding hint behind.  Routed like dyn_execute, so it runs on the
  /// owner's thread while the element is here.
  void migrate_out(gid_type gid, location_id dest)
  {
    assert(m_directory->owns(gid));
    if (dest == get_location_id())
      return; // already here
    auto payload = derived().extract_element(gid);
    std::uint32_t const seq = m_directory->migration_departed(gid, dest);
    // The payload travels with its hop number so the home can order this
    // move's record update against updates of neighbouring hops.
    async_rmi<Derived>(dest, this->get_handle(),
                       [gid, seq,
                        payload = std::move(payload)](Derived& c) mutable {
                         c.migrate_in(gid, std::move(payload), seq + 1);
                       });
  }

  /// Destination-side step: stores the payload and takes ownership (the
  /// directory then updates the home record, invalidating stale caches).
  template <typename Payload>
  void migrate_in(gid_type gid, Payload payload, std::uint32_t seq)
  {
    derived().insert_migrated(gid, std::move(payload));
    m_directory->migration_arrived(gid, seq);
  }

  /// Memory footprint of the local representative: (metadata, data) bytes
  /// (Ch. IX.F memory study).
  [[nodiscard]] memory_report memory_size() const
  {
    auto r = m_lm.memory_size();
    r.first += sizeof(Derived);
    return r;
  }

  /// Aggregated (metadata, data) over all locations.  Collective.
  [[nodiscard]] memory_report global_memory_size() const
  {
    auto const local = memory_size();
    auto const meta = allreduce(local.first, std::plus<>{});
    auto const data = allreduce(local.second, std::plus<>{});
    return {meta, data};
  }

 protected:
  [[nodiscard]] Derived& derived() noexcept
  {
    return static_cast<Derived&>(*this);
  }
  [[nodiscard]] Derived const& derived() const noexcept
  {
    return static_cast<Derived const&>(*this);
  }

  /// Enables directory-backed resolution with the given fallback owner
  /// function (nullable: unknown GIDs then park until registered).  Used by
  /// make_dynamic() and by containers that are directory-backed from birth
  /// (dynamic pGraph).
  void enable_directory_resolution(
      std::function<location_id(gid_type const&)> default_owner)
  {
    if (!m_directory)
      m_directory = std::make_unique<directory_type>(); // collective ctor
    m_directory->set_default_owner(std::move(default_owner));
    m_dynamic = true;
  }

  /// Runs `action` when `gid` is stored here, else forwards it toward the
  /// owner (computation migration); returns whether it ran here.  A
  /// directory-backed container hands the request to the directory; a
  /// closed-form one resolves it here and runs it at that bContainer.
  template <typename Action>
  bool route(gid_type gid, Action action)
  {
    if (m_dynamic) {
      rmi_handle const h = this->get_handle();
      return m_directory->invoke_where(
          gid, [h, gid, action = std::move(action)]() mutable {
            // Runs on the owner's thread: its representative is the one
            // registered there.
            get_registered_object<Derived>(h)->dyn_execute(gid,
                                                           std::move(action));
          });
    }
    return run_at(derived().resolve(gid), std::move(action));
  }

  /// Runs `action(container, b)` on the location storing bContainer `b`.
  /// For methods that address a bContainer rather than an element
  /// (push/pop at either end).
  template <typename Action>
  void route_to_bcid(bcid_type b, Action action)
  {
    (void)run_at({b, m_mapper.map(b)}, std::move(action));
  }

  /// Runs `action(container, r.bcid)` on location `r.loc`: inline when that
  /// is this one (returns true), else as one RMI that runs it there on the
  /// same bContainer, without resolving again (returns false).
  template <typename Action>
  bool run_at(resolution r, Action action)
  {
    if (r.loc == get_location_id()) {
      action(derived(), r.bcid);
      return true;
    }
    async_rmi<Derived>(r.loc, this->get_handle(),
                       [b = r.bcid, action = std::move(action)](
                           Derived& c) mutable { action(c, b); });
    return false;
  }

  partition_type m_partition;
  mapper_type m_mapper;
  location_manager_type m_lm;
  /// Constructed lazily (and collectively) when the container switches to
  /// dynamic resolution — static containers stay directory-free.
  std::unique_ptr<directory_type> m_directory;
  bool m_dynamic = false;
  /// Load-balancing state (enable_load_balancing / rebalance).
  load_balancer_config m_lb_cfg;
  bool m_lb_enabled = false;
  /// bCID of migrated-in elements that do not belong to a local bContainer
  /// per the closed-form partition (value == migrated_bcid when the element
  /// lives in m_migrated).
  std::unordered_map<gid_type, bcid_type> m_dyn_index;
  /// Overflow store of migrated-in elements for contiguously indexed
  /// containers whose bContainers cannot host foreign GIDs.
  std::unordered_map<gid_type, value_type> m_migrated;
};

// ---------------------------------------------------------------------------
// p_container_static (Table XII)
// ---------------------------------------------------------------------------

template <typename Derived, typename Traits>
class p_container_static : public p_container_base<Derived, Traits> {
  using base = p_container_base<Derived, Traits>;

 public:
  using typename base::gid_type;

  /// Number of elements in local bContainers.
  [[nodiscard]] std::size_t local_size() const
  {
    return this->m_lm.local_size();
  }
  [[nodiscard]] bool local_empty() const { return local_size() == 0; }

  /// Global size: closed form from the partition's domain (static
  /// containers never change size).
  [[nodiscard]] std::size_t size() const
  {
    return this->m_partition.domain().size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
};

// ---------------------------------------------------------------------------
// p_container_dynamic (Table XIII)
// ---------------------------------------------------------------------------

template <typename Derived, typename Traits>
class p_container_dynamic : public p_container_base<Derived, Traits> {
  using base = p_container_base<Derived, Traits>;

 public:
  [[nodiscard]] std::size_t local_size() const
  {
    return this->m_lm.local_size();
  }
  [[nodiscard]] bool local_empty() const { return local_size() == 0; }

  /// Global size.  One-sided: queries every location's local size
  /// (Ch. VII.G discusses the cost trade-offs; the cached-size variant is
  /// refreshed by post_execute in the view layer).
  [[nodiscard]] std::size_t size() const
  {
    std::size_t total = 0;
    for (location_id l = 0; l < num_locations(); ++l) {
      if (l == this->get_location_id())
        total += local_size();
      else
        total += sync_rmi<Derived>(l, this->get_handle(),
                                   [](Derived const& c) {
                                     return c.local_size();
                                   });
    }
    return total;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Removes all elements on every location.  Collective: the leading fence
  /// lets in-flight element methods (and one-sided size queries) complete
  /// before any location starts destroying state.
  void clear()
  {
    rmi_fence();
    for (auto& [bcid, bcptr] : this->m_lm)
      bcptr->clear();
    rmi_fence();
  }
};

// ---------------------------------------------------------------------------
// Element proxy (shared-object operator[] support)
// ---------------------------------------------------------------------------

/// Reference-like proxy to a (possibly remote) element: reads resolve via
/// get_element, writes via set_element.
template <typename Container>
class element_proxy {
 public:
  using value_type = typename Container::value_type;
  using gid_type = typename Container::gid_type;

  element_proxy(Container& c, gid_type g) noexcept : m_c(&c), m_gid(g) {}

  operator value_type() const { return m_c->get_element(m_gid); } // NOLINT

  element_proxy& operator=(value_type const& v)
  {
    m_c->set_element(m_gid, v);
    return *this;
  }
  element_proxy& operator=(element_proxy const& o)
  {
    return *this = static_cast<value_type>(o);
  }

  [[nodiscard]] value_type value() const { return m_c->get_element(m_gid); }
  [[nodiscard]] gid_type gid() const noexcept { return m_gid; }

 private:
  Container* m_c;
  gid_type m_gid;
};

// ---------------------------------------------------------------------------
// p_container_indexed (Table XIV)
// ---------------------------------------------------------------------------

/// Indexed interface over any container whose partition provides
/// local_index(gid): set/get/split-phase element access, apply_get/apply_set
/// and operator[].  Base of pArray, pMatrix and pVector.
template <typename Derived, typename Traits,
          template <typename, typename> class SizeBase = p_container_static>
class p_container_indexed : public SizeBase<Derived, Traits> {
  using base = SizeBase<Derived, Traits>;

 public:
  using typename base::gid_type;
  using typename base::value_type;
  using reference = element_proxy<Derived>;

  /// Reference to the element of `gid` stored under bCID `b` — either a
  /// partition-assigned bContainer slot or the migrated-element overflow
  /// store.  The accessor every indexed element method funnels through, so
  /// methods work unchanged after the element migrates.
  [[nodiscard]] value_type& element_at(gid_type gid, bcid_type b)
  {
    if (b == migrated_bcid)
      return this->m_migrated.at(gid);
    return this->bc(b).at(this->partition().local_index(gid));
  }

  /// Removes the element of `gid` from local storage and returns it
  /// (migration protocol hook).  Partition-assigned slots stay allocated —
  /// contiguous storage cannot drop one index — and simply become stale;
  /// resolution never routes to them again until the element returns.
  [[nodiscard]] value_type extract_element(gid_type gid)
  {
    auto const it = this->m_dyn_index.find(gid);
    if (it != this->m_dyn_index.end() && it->second == migrated_bcid) {
      auto node = this->m_migrated.extract(gid);
      this->m_dyn_index.erase(it);
      return std::move(node.mapped());
    }
    return element_at(gid, this->partition().get_info(gid));
  }

  /// Stores a migrated-in element (migration protocol hook).  An element
  /// returning to the location its partition assigns it to lands back in
  /// its original slot; foreign elements go to the overflow store.
  void insert_migrated(gid_type gid, value_type v)
  {
    bcid_type const b = this->partition().get_info(gid);
    if (this->m_lm.has(b)) {
      this->bc(b).set(this->partition().local_index(gid), std::move(v));
      this->m_dyn_index.erase(gid);
      this->m_migrated.erase(gid);
      return;
    }
    this->m_migrated[gid] = std::move(v);
    this->m_dyn_index[gid] = migrated_bcid;
  }

  /// Asynchronous write (no return value — Ch. V.B asynchronous methods).
  void set_element(gid_type gid, value_type val)
  {
    this->invoke(gid,
                 [gid, val = std::move(val)](Derived& c, bcid_type b) {
                   c.element_at(gid, b) = val;
                 });
  }

  /// Synchronous write: returns only after the write has been applied at the
  /// owner.  Using only synchronous methods restores sequential consistency
  /// (Ch. VII.E Claim 3).
  void set_element_sync(gid_type gid, value_type val)
  {
    (void)this->invoke_ret(gid,
                           [gid, val = std::move(val)](Derived& c,
                                                       bcid_type b) {
                             c.element_at(gid, b) = val;
                             return true;
                           });
  }

  /// Synchronous read.
  [[nodiscard]] value_type get_element(gid_type gid)
  {
    return this->invoke_ret(gid,
                            [gid](Derived& c, bcid_type b) {
                              return c.element_at(gid, b);
                            });
  }

  /// Split-phase read: returns a future immediately (Ch. V.B).
  [[nodiscard]] pc_future<value_type> split_phase_get_element(gid_type gid)
  {
    return this->invoke_split(gid,
                              [gid](Derived& c, bcid_type b) {
                                return c.element_at(gid, b);
                              });
  }

  /// Applies functor `f` to the element; returns f's result (synchronous).
  template <typename F>
  [[nodiscard]] auto apply_get(gid_type gid, F f)
  {
    return this->invoke_ret(gid,
                            [gid, f = std::move(f)](Derived& c,
                                                    bcid_type b) mutable {
                              return f(c.element_at(gid, b));
                            });
  }

  /// Applies functor `f` to the element asynchronously (no return).
  template <typename F>
  void apply_set(gid_type gid, F f)
  {
    this->invoke(gid,
                 [gid, f = std::move(f)](Derived& c, bcid_type b) mutable {
                   f(c.element_at(gid, b));
                 });
  }

  [[nodiscard]] reference operator[](gid_type gid)
  {
    return reference(this->derived(), gid);
  }

  /// Pointer to a local element, or nullptr when the element is remote
  /// (lets views/algorithms take the direct path when possible).  The
  /// returned pointer, like any native-view reference, is only stable
  /// within a computation phase (no concurrent migration of the element).
  [[nodiscard]] value_type* local_element_ptr(gid_type gid)
  {
    bcid_type const b = this->local_bcid(gid);
    return b == invalid_bcid ? nullptr : &element_at(gid, b);
  }

  /// Direct reference to a *local* element (native-view fast path).
  [[nodiscard]] value_type& local_element(gid_type gid)
  {
    value_type* const p = local_element_ptr(gid);
    assert(p != nullptr && "local_element(): element is not stored here");
    return *p;
  }

  /// The block walk of a closed-form container: calls `f(bcid, block)` for
  /// every local bContainer in bCID order, `block` being a std::span over
  /// its contiguous storage, whose element i has GID
  /// partition().gid_of(bcid, i).  Not for directory-backed containers:
  /// after make_dynamic() a slot may hold the stale copy of an element
  /// that migrated away, so their traversals follow ownership instead.
  template <typename F>
  void for_each_block(F&& f)
  {
    assert(!this->is_dynamic());
    for (auto& [bcid, bcptr] : this->m_lm)
      f(bcid, std::span<value_type>(bcptr->data()));
  }
  template <typename F>
  void for_each_block(F&& f) const
  {
    assert(!this->is_dynamic());
    for (auto const& [bcid, bcptr] : this->m_lm)
      f(bcid, std::span<value_type const>(bcptr->data()));
  }

  /// Applies `f(gid, element&)` to every element stored on this location,
  /// bContainer by bContainer in partition order (the native traversal).
  /// After make_dynamic() the traversal follows current *ownership*:
  /// partition-assigned slots whose element migrated away are skipped, and
  /// adopted elements living in the overflow store are visited (ascending
  /// GID order) — so bView iteration and pAlgorithm passes cover exactly
  /// the elements this location owns.
  template <typename F>
  void for_each_local(F&& f)
  {
    if (!this->is_dynamic()) {
      for_each_block([&](bcid_type b, std::span<value_type> block) {
        for (std::size_t i = 0; i != block.size(); ++i)
          f(this->partition().gid_of(b, i), block[i]);
      });
      return;
    }
    for (gid_type const& g : local_gids())
      f(g, element_at(g, this->derived().dyn_local_bcid(g)));
  }

  /// GIDs of all locally stored elements, in partition order.  Dynamic
  /// containers list the elements this location currently *owns*: migrated
  /// -away slots are excluded and adopted overflow elements appended in
  /// ascending GID order (ROADMAP PR-1 follow-up).
  [[nodiscard]] std::vector<gid_type> local_gids() const
  {
    std::vector<gid_type> out;
    out.reserve(this->m_lm.local_size());
    if (!this->is_dynamic()) {
      for_each_block([&](bcid_type b, std::span<value_type const> block) {
        for (std::size_t i = 0; i != block.size(); ++i)
          out.push_back(this->partition().gid_of(b, i));
      });
      return out;
    }
    auto const& dir = this->get_directory();
    for (auto const& [bcid, bcptr] : this->m_lm) {
      std::size_t const n = bcptr->size();
      for (std::size_t i = 0; i != n; ++i) {
        gid_type const g = this->partition().gid_of(bcid, i);
        if (dir.owns(g))
          out.push_back(g);
      }
    }
    // Adopted elements live in the overflow store: ascending GID order
    // makes their traversal deterministic.
    auto const adopted = static_cast<std::ptrdiff_t>(out.size());
    for (auto const& [g, v] : this->m_migrated)
      out.push_back(g);
    std::sort(out.begin() + adopted, out.end());
    return out;
  }
};

} // namespace stapl

#endif
