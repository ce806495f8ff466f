#ifndef STAPL_CORE_THREAD_SAFETY_HPP
#define STAPL_CORE_THREAD_SAFETY_HPP

// Thread-safety manager (dissertation Ch. VI).
//
// Every pContainer carries a thread-safety manager that is informed by the
// framework (through the invoke skeleton, Fig. 17) before and after each
// access to metadata and data.  The manager decides granularity and type of
// locking based on a per-method locking-policy table (Ch. VI.D).  Managers
// are selected through the container traits.  The runtime runs every RMI
// on its target location's own thread, so each bContainer is touched by one
// thread only and containers default to `no_locking_manager`.  The locking
// managers below implement the paper's policy table for containers whose
// traits select them, and are thread-safe in their own right.

#include <array>
#include <cstddef>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "partitions.hpp"

namespace stapl {

/// Granularity of the data access performed by a method (Ch. VI.D).
enum class lock_granularity {
  none,       ///< no locking required (e.g. read-only static container)
  element,    ///< a single element of one bContainer
  bcontainer, ///< an entire bContainer (e.g. insert into a vector)
  local       ///< all local bContainers (e.g. size())
};

/// Access mode of a method on data / metadata.
enum class rw_mode { read, write };

/// Per-method locking attributes.
struct locking_policy {
  lock_granularity granularity = lock_granularity::bcontainer;
  rw_mode data = rw_mode::write;
  rw_mode metadata = rw_mode::read;
};

/// Identifiers for the common pContainer methods (indices into the locking
/// policy table; containers may register additional methods).
enum method_id : std::size_t {
  MP_SET_ELEMENT,
  MP_GET_ELEMENT,
  MP_APPLY,
  MP_INSERT,
  MP_ERASE,
  MP_PUSH_BACK,
  MP_POP_BACK,
  MP_PUSH_FRONT,
  MP_POP_FRONT,
  MP_FIND,
  MP_ADD_VERTEX,
  MP_DELETE_VERTEX,
  MP_ADD_EDGE,
  MP_DELETE_EDGE,
  MP_SIZE,
  MP_CUSTOM_FIRST ///< first id available for container-specific methods
};

/// Table of locking policies indexed by method id.
class locking_policy_table {
 public:
  locking_policy_table()
  {
    m_policies.resize(MP_CUSTOM_FIRST + 8);
    set(MP_SET_ELEMENT, {lock_granularity::element, rw_mode::write, rw_mode::read});
    set(MP_GET_ELEMENT, {lock_granularity::element, rw_mode::read, rw_mode::read});
    set(MP_APPLY, {lock_granularity::element, rw_mode::write, rw_mode::read});
    set(MP_INSERT, {lock_granularity::bcontainer, rw_mode::write, rw_mode::write});
    set(MP_ERASE, {lock_granularity::bcontainer, rw_mode::write, rw_mode::write});
    set(MP_PUSH_BACK, {lock_granularity::bcontainer, rw_mode::write, rw_mode::write});
    set(MP_POP_BACK, {lock_granularity::bcontainer, rw_mode::write, rw_mode::write});
    set(MP_PUSH_FRONT, {lock_granularity::bcontainer, rw_mode::write, rw_mode::write});
    set(MP_POP_FRONT, {lock_granularity::bcontainer, rw_mode::write, rw_mode::write});
    set(MP_FIND, {lock_granularity::bcontainer, rw_mode::read, rw_mode::read});
    set(MP_ADD_VERTEX, {lock_granularity::bcontainer, rw_mode::write, rw_mode::write});
    set(MP_DELETE_VERTEX, {lock_granularity::bcontainer, rw_mode::write, rw_mode::write});
    set(MP_ADD_EDGE, {lock_granularity::element, rw_mode::write, rw_mode::read});
    set(MP_DELETE_EDGE, {lock_granularity::element, rw_mode::write, rw_mode::read});
    set(MP_SIZE, {lock_granularity::local, rw_mode::read, rw_mode::read});
  }

  void set(std::size_t id, locking_policy p)
  {
    if (id >= m_policies.size())
      m_policies.resize(id + 1);
    m_policies[id] = p;
  }

  [[nodiscard]] locking_policy const& get(std::size_t id) const
  {
    return m_policies[id];
  }

 private:
  std::vector<locking_policy> m_policies;
};

/// Information handed to the thread-safety manager when a method begins
/// (Ch. VI.C `ths_info`).
struct ths_info {
  std::size_t method = MP_SET_ELEMENT;
  bcid_type bcid = invalid_bcid;
};

// ---------------------------------------------------------------------------
// Managers
// ---------------------------------------------------------------------------

/// No-op manager: for read-only containers or when concurrency is handled by
/// the task dependence graph (Ch. VI.E "Customizations").
class no_locking_manager {
 public:
  explicit no_locking_manager(locking_policy_table const* = nullptr) {}
  void data_access_pre(ths_info const&) noexcept {}
  void data_access_post(ths_info const&) noexcept {}
  void metadata_access_pre(ths_info const&) noexcept {}
  void metadata_access_post(ths_info const&) noexcept {}
  [[nodiscard]] static constexpr bool locks() noexcept { return false; }
  [[nodiscard]] std::size_t memory_size() const noexcept { return 0; }
};

/// Reader/writer locking at the granularity requested by the policy table:
/// one shared_mutex per bContainer plus one for the metadata.  bContainer
/// mutexes are materialized lazily under a registry mutex.
class mutex_locking_manager {
 public:
  explicit mutex_locking_manager(locking_policy_table const* table)
      : m_table(table)
  {}

  void metadata_access_pre(ths_info const& i)
  {
    lock(m_metadata_mutex, m_table->get(i.method).metadata);
  }
  void metadata_access_post(ths_info const& i)
  {
    unlock(m_metadata_mutex, m_table->get(i.method).metadata);
  }

  void data_access_pre(ths_info const& i)
  {
    auto const& p = m_table->get(i.method);
    if (p.granularity == lock_granularity::none)
      return;
    lock(bc_mutex(i.bcid), p.data);
  }
  void data_access_post(ths_info const& i)
  {
    auto const& p = m_table->get(i.method);
    if (p.granularity == lock_granularity::none)
      return;
    unlock(bc_mutex(i.bcid), p.data);
  }

  [[nodiscard]] static constexpr bool locks() noexcept { return true; }

  [[nodiscard]] std::size_t memory_size() const
  {
    std::lock_guard g(m_registry_mutex);
    return m_bc_mutexes.size() * sizeof(std::shared_mutex);
  }

 private:
  static void lock(std::shared_mutex& m, rw_mode mode)
  {
    if (mode == rw_mode::read)
      m.lock_shared();
    else
      m.lock();
  }
  static void unlock(std::shared_mutex& m, rw_mode mode)
  {
    if (mode == rw_mode::read)
      m.unlock_shared();
    else
      m.unlock();
  }

  [[nodiscard]] std::shared_mutex& bc_mutex(bcid_type b)
  {
    std::lock_guard g(m_registry_mutex);
    auto& slot = m_bc_mutexes[b];
    if (!slot)
      slot = std::make_unique<std::shared_mutex>();
    return *slot;
  }

  locking_policy_table const* m_table;
  mutable std::mutex m_registry_mutex;
  std::unordered_map<bcid_type, std::unique_ptr<std::shared_mutex>> m_bc_mutexes;
  std::shared_mutex m_metadata_mutex;
};

/// K hashed locks shared by all elements (the Ch. VI.E refinement): each
/// access hashes its bCID to one of K mutexes, bounding memory while still
/// allowing concurrency.
template <std::size_t K = 64>
class hashed_locking_manager {
 public:
  explicit hashed_locking_manager(locking_policy_table const* table)
      : m_table(table)
  {}

  void metadata_access_pre(ths_info const&) noexcept {}
  void metadata_access_post(ths_info const&) noexcept {}

  void data_access_pre(ths_info const& i)
  {
    if (m_table->get(i.method).granularity == lock_granularity::none)
      return;
    m_locks[i.bcid % K].lock();
  }
  void data_access_post(ths_info const& i)
  {
    if (m_table->get(i.method).granularity == lock_granularity::none)
      return;
    m_locks[i.bcid % K].unlock();
  }

  [[nodiscard]] static constexpr bool locks() noexcept { return true; }
  [[nodiscard]] std::size_t memory_size() const noexcept
  {
    return K * sizeof(std::mutex);
  }

 private:
  locking_policy_table const* m_table;
  std::array<std::mutex, K> m_locks;
};

} // namespace stapl

#endif
