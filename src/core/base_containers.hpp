#ifndef STAPL_CORE_BASE_CONTAINERS_HPP
#define STAPL_CORE_BASE_CONTAINERS_HPP

// Base containers (dissertation Ch. V.C.1, Table III).
//
// A bContainer adapts an existing sequential container so it can serve as
// one unit of distributed storage of a pContainer.  The adaptors below wrap
// std::vector, std::list and the standard associative containers; they all
// implement the minimal Table III interface (size/empty/clear/get_bcid/
// define_type/memory_size) plus the access methods their category needs.

#include <cstddef>
#include <list>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "../runtime/serialization.hpp"
#include "domains.hpp"
#include "partitions.hpp"

namespace stapl {

/// Memory usage report: (metadata bytes, data bytes) — Table III
/// `memory_size`.
using memory_report = std::pair<std::size_t, std::size_t>;

// ---------------------------------------------------------------------------
// Indexed storage (pArray, pVector, pMatrix)
// ---------------------------------------------------------------------------

/// Fixed-size contiguous storage indexed by local offset; the pArray
/// bContainer of Ch. V.E (an adapted std::valarray/std::vector).
template <typename T>
class vector_bcontainer {
 public:
  using value_type = T;
  using gid_type = gid1d;

  vector_bcontainer() = default;
  vector_bcontainer(bcid_type bcid, std::size_t n, T const& init = T{})
      : m_bcid(bcid), m_data(n, init)
  {}

  [[nodiscard]] std::size_t size() const noexcept { return m_data.size(); }
  [[nodiscard]] bool empty() const noexcept { return m_data.empty(); }
  void clear() { m_data.clear(); }
  [[nodiscard]] bcid_type get_bcid() const noexcept { return m_bcid; }

  [[nodiscard]] T& at(std::size_t local) { return m_data[local]; }
  [[nodiscard]] T const& at(std::size_t local) const { return m_data[local]; }
  void set(std::size_t local, T v) { m_data[local] = std::move(v); }

  /// Dynamic (pVector) operations on the block.
  void insert(std::size_t local, T v)
  {
    m_data.insert(m_data.begin() + static_cast<std::ptrdiff_t>(local),
                  std::move(v));
  }
  void erase(std::size_t local)
  {
    m_data.erase(m_data.begin() + static_cast<std::ptrdiff_t>(local));
  }
  void push_back(T v) { m_data.push_back(std::move(v)); }
  void pop_back() { m_data.pop_back(); }

  [[nodiscard]] std::vector<T>& data() noexcept { return m_data; }
  [[nodiscard]] std::vector<T> const& data() const noexcept { return m_data; }

  void define_type(typer& t)
  {
    t.member(m_bcid);
    t.member(m_data);
  }

  [[nodiscard]] memory_report memory_size() const noexcept
  {
    return {sizeof(*this), m_data.capacity() * sizeof(T)};
  }

 private:
  bcid_type m_bcid = invalid_bcid;
  std::vector<T> m_data;
};

// ---------------------------------------------------------------------------
// Sequence storage (pList)
// ---------------------------------------------------------------------------

/// Doubly linked storage with stable GIDs: each element receives a
/// `dynamic_gid` minted from this bContainer's id and a local counter; a
/// side index maps GIDs to list iterators so that element methods are O(1)
/// (the pList design of Ch. X.C).
template <typename T>
class list_bcontainer {
 public:
  using value_type = T;
  using gid_type = dynamic_gid;
  using iterator = typename std::list<std::pair<dynamic_gid, T>>::iterator;
  using const_iterator =
      typename std::list<std::pair<dynamic_gid, T>>::const_iterator;

  list_bcontainer() = default;
  explicit list_bcontainer(bcid_type bcid) : m_bcid(bcid) {}

  [[nodiscard]] std::size_t size() const noexcept { return m_list.size(); }
  [[nodiscard]] bool empty() const noexcept { return m_list.empty(); }
  void clear()
  {
    m_list.clear();
    m_index.clear();
  }
  [[nodiscard]] bcid_type get_bcid() const noexcept { return m_bcid; }

  [[nodiscard]] dynamic_gid push_back(T v)
  {
    return emplace(m_list.end(), std::move(v));
  }
  [[nodiscard]] dynamic_gid push_front(T v)
  {
    return emplace(m_list.begin(), std::move(v));
  }
  /// Inserts before the element identified by `before`.
  [[nodiscard]] dynamic_gid insert_before(dynamic_gid before, T v)
  {
    return emplace(m_index.at(before), std::move(v));
  }

  void pop_back()
  {
    if (!m_list.empty()) {
      m_index.erase(m_list.back().first);
      m_list.pop_back();
    }
  }
  void pop_front()
  {
    if (!m_list.empty()) {
      m_index.erase(m_list.front().first);
      m_list.pop_front();
    }
  }
  void erase(dynamic_gid g)
  {
    auto it = m_index.find(g);
    if (it != m_index.end()) {
      m_list.erase(it->second);
      m_index.erase(it);
    }
  }

  [[nodiscard]] bool contains(dynamic_gid g) const
  {
    return m_index.count(g) != 0;
  }
  [[nodiscard]] T& at(dynamic_gid g) { return m_index.at(g)->second; }
  [[nodiscard]] T const& at(dynamic_gid g) const
  {
    return m_index.at(g)->second;
  }
  void set(dynamic_gid g, T v) { m_index.at(g)->second = std::move(v); }

  [[nodiscard]] iterator begin() noexcept { return m_list.begin(); }
  [[nodiscard]] iterator end() noexcept { return m_list.end(); }
  [[nodiscard]] const_iterator begin() const noexcept { return m_list.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return m_list.end(); }

  [[nodiscard]] dynamic_gid front_gid() const { return m_list.front().first; }

  [[nodiscard]] memory_report memory_size() const noexcept
  {
    // std::list node overhead: two pointers per node; index entry ~ 3 words.
    std::size_t const node = sizeof(std::pair<dynamic_gid, T>) + 2 * sizeof(void*);
    std::size_t const idx = m_index.size() * (sizeof(dynamic_gid) + 3 * sizeof(void*));
    return {sizeof(*this) + idx, m_list.size() * node};
  }

 private:
  [[nodiscard]] dynamic_gid emplace(iterator pos, T v)
  {
    dynamic_gid const g(m_bcid, m_counter++);
    auto it = m_list.insert(pos, {g, std::move(v)});
    m_index.emplace(g, it);
    return g;
  }

  bcid_type m_bcid = invalid_bcid;
  std::uint64_t m_counter = 0;
  std::list<std::pair<dynamic_gid, T>> m_list;
  std::unordered_map<dynamic_gid, iterator> m_index;
};

// ---------------------------------------------------------------------------
// Associative storage (pMap, pSet, pHashMap, ... — Ch. XII)
// ---------------------------------------------------------------------------

/// Adaptor over any std map-like container (std::map, std::unordered_map,
/// std::multimap, ...).  Works for both unique and multi variants.
template <typename Map>
class map_bcontainer {
 public:
  using map_type = Map;
  using key_type = typename Map::key_type;
  using mapped_type = typename Map::mapped_type;
  using value_type = typename Map::value_type;
  using gid_type = key_type;
  using iterator = typename Map::iterator;
  using const_iterator = typename Map::const_iterator;

  map_bcontainer() = default;
  explicit map_bcontainer(bcid_type bcid) : m_bcid(bcid) {}

  [[nodiscard]] std::size_t size() const noexcept { return m_map.size(); }
  [[nodiscard]] bool empty() const noexcept { return m_map.empty(); }
  void clear() { m_map.clear(); }
  [[nodiscard]] bcid_type get_bcid() const noexcept { return m_bcid; }

  /// Returns true if a new element was inserted (unique maps semantics;
  /// multi maps always insert).
  bool insert(key_type k, mapped_type v)
  {
    return do_insert(std::move(k), std::move(v));
  }

  std::size_t erase(key_type const& k) { return m_map.erase(k); }

  [[nodiscard]] bool contains(key_type const& k) const
  {
    return m_map.find(k) != m_map.end();
  }
  [[nodiscard]] std::size_t count(key_type const& k) const
  {
    return m_map.count(k);
  }
  [[nodiscard]] std::pair<mapped_type, bool> find_val(key_type const& k) const
  {
    auto it = m_map.find(k);
    if (it == m_map.end())
      return {mapped_type{}, false};
    return {it->second, true};
  }
  [[nodiscard]] mapped_type& at(key_type const& k) { return m_map.at(k); }
  /// Removes every occurrence of `k` and returns the mapped values in
  /// equal-range order — the migration payload of pair-associative
  /// containers (multi containers move the whole key atomically; unique
  /// containers yield a single-element vector).
  [[nodiscard]] std::vector<mapped_type> extract_all(key_type const& k)
  {
    auto const [first, last] = m_map.equal_range(k);
    assert(first != last && "extract_all: key not in this bContainer");
    std::vector<mapped_type> out;
    for (auto it = first; it != last; ++it)
      out.push_back(std::move(it->second));
    m_map.erase(first, last);
    return out;
  }
  /// operator[]-like access: default-constructs missing entries.
  [[nodiscard]] mapped_type& get_or_create(key_type const& k)
  {
    return m_map[k];
  }

  template <typename F>
  void apply(key_type const& k, F&& f)
  {
    std::forward<F>(f)(m_map[k]);
  }

  [[nodiscard]] map_type& data() noexcept { return m_map; }
  [[nodiscard]] map_type const& data() const noexcept { return m_map; }

  [[nodiscard]] iterator begin() noexcept { return m_map.begin(); }
  [[nodiscard]] iterator end() noexcept { return m_map.end(); }
  [[nodiscard]] const_iterator begin() const noexcept { return m_map.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return m_map.end(); }

  [[nodiscard]] memory_report memory_size() const noexcept
  {
    std::size_t const node = sizeof(value_type) + 4 * sizeof(void*);
    return {sizeof(*this), m_map.size() * node};
  }

 private:
  template <typename K, typename V>
  bool do_insert(K&& k, V&& v)
  {
    if constexpr (requires {
                    m_map.insert_or_assign(std::forward<K>(k),
                                           std::forward<V>(v));
                  }) {
      auto [it, inserted] =
          m_map.emplace(std::forward<K>(k), std::forward<V>(v));
      return inserted;
    } else { // multimap family: emplace returns iterator only
      m_map.emplace(std::forward<K>(k), std::forward<V>(v));
      return true;
    }
  }

  bcid_type m_bcid = invalid_bcid;
  Map m_map;
};

/// Adaptor over any std set-like container (std::set, std::unordered_set,
/// std::multiset, ...) for simple associative pContainers (key == value).
template <typename Set>
class set_bcontainer {
 public:
  using set_type = Set;
  using key_type = typename Set::key_type;
  using value_type = key_type;
  using gid_type = key_type;
  using iterator = typename Set::iterator;
  using const_iterator = typename Set::const_iterator;

  set_bcontainer() = default;
  explicit set_bcontainer(bcid_type bcid) : m_bcid(bcid) {}

  [[nodiscard]] std::size_t size() const noexcept { return m_set.size(); }
  [[nodiscard]] bool empty() const noexcept { return m_set.empty(); }
  void clear() { m_set.clear(); }
  [[nodiscard]] bcid_type get_bcid() const noexcept { return m_bcid; }

  bool insert(key_type k)
  {
    if constexpr (requires { m_set.insert(k).second; }) {
      return m_set.insert(std::move(k)).second;
    } else { // multiset family
      m_set.insert(std::move(k));
      return true;
    }
  }
  std::size_t erase(key_type const& k) { return m_set.erase(k); }
  [[nodiscard]] bool contains(key_type const& k) const
  {
    return m_set.find(k) != m_set.end();
  }
  [[nodiscard]] std::size_t count(key_type const& k) const
  {
    return m_set.count(k);
  }

  [[nodiscard]] set_type& data() noexcept { return m_set; }
  [[nodiscard]] set_type const& data() const noexcept { return m_set; }
  [[nodiscard]] const_iterator begin() const noexcept { return m_set.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return m_set.end(); }

  [[nodiscard]] memory_report memory_size() const noexcept
  {
    std::size_t const node = sizeof(key_type) + 4 * sizeof(void*);
    return {sizeof(*this), m_set.size() * node};
  }

 private:
  bcid_type m_bcid = invalid_bcid;
  Set m_set;
};

// ---------------------------------------------------------------------------
// Dense 2D storage (pMatrix)
// ---------------------------------------------------------------------------

/// Dense row-major block of a matrix.
template <typename T>
class matrix_bcontainer {
 public:
  using value_type = T;
  using gid_type = gid2d;

  matrix_bcontainer() = default;
  matrix_bcontainer(bcid_type bcid, std::size_t rows, std::size_t cols,
                    T const& init = T{})
      : m_bcid(bcid), m_rows(rows), m_cols(cols), m_data(rows * cols, init)
  {}

  [[nodiscard]] std::size_t size() const noexcept { return m_data.size(); }
  [[nodiscard]] bool empty() const noexcept { return m_data.empty(); }
  void clear() { m_data.clear(); }
  [[nodiscard]] bcid_type get_bcid() const noexcept { return m_bcid; }
  [[nodiscard]] std::size_t rows() const noexcept { return m_rows; }
  [[nodiscard]] std::size_t cols() const noexcept { return m_cols; }

  [[nodiscard]] T& at(std::size_t local) { return m_data[local]; }
  [[nodiscard]] T const& at(std::size_t local) const { return m_data[local]; }
  void set(std::size_t local, T v) { m_data[local] = std::move(v); }

  [[nodiscard]] std::vector<T>& data() noexcept { return m_data; }
  [[nodiscard]] std::vector<T> const& data() const noexcept { return m_data; }

  void define_type(typer& t)
  {
    t.member(m_bcid);
    t.member(m_rows);
    t.member(m_cols);
    t.member(m_data);
  }

  [[nodiscard]] memory_report memory_size() const noexcept
  {
    return {sizeof(*this), m_data.capacity() * sizeof(T)};
  }

 private:
  bcid_type m_bcid = invalid_bcid;
  std::size_t m_rows = 0;
  std::size_t m_cols = 0;
  std::vector<T> m_data;
};

} // namespace stapl

#endif
