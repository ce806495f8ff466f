#ifndef STAPL_RUNTIME_SERIALIZATION_HPP
#define STAPL_RUNTIME_SERIALIZATION_HPP

// Marshaling substrate (dissertation Ch. V.G.1, Fig. 14).
//
// Classes participate in marshaling by exposing
//   void define_type(stapl::typer& t);
// which registers every data member with the typer.  The same definition
// drives three passes: size computation, packing and unpacking, exactly like
// the RTS typer the paper describes.  Built-in support is provided for
// trivially copyable types, std::string, std::pair, std::vector, std::list,
// std::deque, std::map and std::unordered_map.

#include <cstddef>
#include <cstring>
#include <deque>
#include <list>
#include <map>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace stapl {

class typer;

namespace detail {

template <typename T>
concept has_define_type = requires(T& t, typer& ty) { t.define_type(ty); };

template <typename T>
concept trivially_packable =
    std::is_trivially_copyable_v<T> && !has_define_type<T>;

} // namespace detail

/// Three-pass marshaler.  A `define_type` implementation calls
/// `t.member(x)` for each data member; the typer either measures, writes or
/// reads the bytes depending on its mode.
class typer {
 public:
  enum class pass { size, pack, unpack };

  explicit typer(pass p) noexcept : m_pass(p) {}
  typer(pass p, std::vector<std::byte>& buf) noexcept
      : m_pass(p), m_buffer(&buf)
  {}
  typer(pass p, std::span<const std::byte> in) noexcept : m_pass(p), m_input(in)
  {}

  [[nodiscard]] pass mode() const noexcept { return m_pass; }
  [[nodiscard]] std::size_t size() const noexcept { return m_size; }

  // -- scalar / trivially copyable members ---------------------------------
  template <detail::trivially_packable T>
  void member(T& t)
  {
    raw(&t, sizeof(T));
  }

  /// C-array of trivially copyable elements.
  template <detail::trivially_packable T, std::size_t N>
  void member(T (&arr)[N])
  {
    raw(arr, sizeof(T) * N);
  }

  // -- user classes with define_type ---------------------------------------
  template <detail::has_define_type T>
  void member(T& t)
  {
    t.define_type(*this);
  }

  // -- standard library types ----------------------------------------------
  void member(std::string& s)
  {
    auto n = pack_size(s.size());
    if (m_pass == pass::unpack)
      s.resize(n);
    if (n != 0)
      raw(s.data(), n);
  }

  template <typename A, typename B>
  void member(std::pair<A, B>& p)
  {
    member(p.first);
    member(p.second);
  }

  template <typename T>
  void member(std::vector<T>& v)
  {
    sequence(v);
  }

  template <typename T>
  void member(std::list<T>& v)
  {
    sequence(v);
  }

  template <typename T>
  void member(std::deque<T>& v)
  {
    sequence(v);
  }

  template <typename K, typename V, typename C>
  void member(std::map<K, V, C>& m)
  {
    associative(m);
  }

  template <typename K, typename V, typename H, typename E>
  void member(std::unordered_map<K, V, H, E>& m)
  {
    associative(m);
  }

 private:
  template <typename Seq>
  void sequence(Seq& v)
  {
    auto n = pack_size(v.size());
    if (m_pass == pass::unpack) {
      v.clear();
      for (std::size_t i = 0; i != n; ++i) {
        typename Seq::value_type x{};
        member(x);
        v.push_back(std::move(x));
      }
    } else {
      for (auto& x : v)
        member(x);
    }
  }

  template <typename M>
  void associative(M& m)
  {
    auto n = pack_size(m.size());
    if (m_pass == pass::unpack) {
      m.clear();
      for (std::size_t i = 0; i != n; ++i) {
        std::remove_const_t<typename M::key_type> k{};
        typename M::mapped_type v{};
        member(k);
        member(v);
        m.emplace(std::move(k), std::move(v));
      }
    } else {
      for (auto& [k, v] : m) {
        auto key = k; // keys are stored const inside the map
        member(key);
        member(v);
      }
    }
  }

  /// Handles the element-count prefix of variable-size members.
  [[nodiscard]] std::size_t pack_size(std::size_t n)
  {
    std::uint64_t count = n;
    raw(&count, sizeof(count));
    return static_cast<std::size_t>(count);
  }

  void raw(void* p, std::size_t n)
  {
    switch (m_pass) {
      case pass::size:
        m_size += n;
        break;
      case pass::pack: {
        auto const* b = static_cast<std::byte const*>(p);
        m_buffer->insert(m_buffer->end(), b, b + n);
        break;
      }
      case pass::unpack:
        std::memcpy(p, m_input.data() + m_cursor, n);
        m_cursor += n;
        break;
    }
  }

  pass m_pass;
  std::size_t m_size = 0;
  std::vector<std::byte>* m_buffer = nullptr;
  std::span<const std::byte> m_input;
  std::size_t m_cursor = 0;
};

namespace detail {

/// Deep compile-time test of "the typer can marshal T": unlike probing
/// `typer::member(t)` (which accepts any std::vector shallowly and then
/// fails inside), this recurses into the element types of the supported
/// containers, so callers can fall back to sizeof for unmarshalable
/// payloads (e.g. closures) without a hard error.
template <typename T>
struct is_wire_measurable
    : std::bool_constant<trivially_packable<T> || has_define_type<T>> {};

template <>
struct is_wire_measurable<std::string> : std::true_type {};

template <typename A, typename B>
struct is_wire_measurable<std::pair<A, B>>
    : std::bool_constant<is_wire_measurable<A>::value &&
                         is_wire_measurable<B>::value> {};

template <typename T, typename A>
struct is_wire_measurable<std::vector<T, A>> : is_wire_measurable<T> {};

template <typename T, typename A>
struct is_wire_measurable<std::list<T, A>> : is_wire_measurable<T> {};

template <typename T, typename A>
struct is_wire_measurable<std::deque<T, A>> : is_wire_measurable<T> {};

template <typename K, typename V, typename C, typename A>
struct is_wire_measurable<std::map<K, V, C, A>>
    : std::bool_constant<is_wire_measurable<K>::value &&
                         is_wire_measurable<V>::value> {};

template <typename K, typename V, typename H, typename E, typename A>
struct is_wire_measurable<std::unordered_map<K, V, H, E, A>>
    : std::bool_constant<is_wire_measurable<K>::value &&
                         is_wire_measurable<V>::value> {};

} // namespace detail

/// True when `packed_size`/`pack` can marshal a T.
template <typename T>
inline constexpr bool wire_measurable_v = detail::is_wire_measurable<T>::value;

/// Number of bytes `pack` would produce for `t`.
template <typename T>
[[nodiscard]] std::size_t packed_size(T const& t)
{
  typer ty(typer::pass::size);
  ty.member(const_cast<T&>(t));
  return ty.size();
}

/// Serializes `t` into a byte buffer.
template <typename T>
[[nodiscard]] std::vector<std::byte> pack(T const& t)
{
  std::vector<std::byte> buf;
  buf.reserve(packed_size(t));
  typer ty(typer::pass::pack, buf);
  ty.member(const_cast<T&>(t));
  return buf;
}

/// Reconstructs a `T` from bytes previously produced by `pack`.
template <typename T>
[[nodiscard]] T unpack(std::span<const std::byte> bytes)
{
  T t{};
  typer ty(typer::pass::unpack, bytes);
  ty.member(t);
  return t;
}

} // namespace stapl

#endif
