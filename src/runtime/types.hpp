#ifndef STAPL_RUNTIME_TYPES_HPP
#define STAPL_RUNTIME_TYPES_HPP

#include <cstdint>
#include <limits>

namespace stapl {

/// Identifier of a location: a component of the parallel machine with a
/// contiguous address space and associated execution capabilities.
using location_id = std::uint32_t;

inline constexpr location_id invalid_location =
    std::numeric_limits<location_id>::max();

/// Globally unique handle of a registered p_object.
/// High 32 bits: creator scope (location id, or `collective_scope` for
/// objects constructed collectively on all locations); low 32 bits: a
/// per-scope registration counter.
using rmi_handle = std::uint64_t;

inline constexpr std::uint32_t collective_scope = 0xFFFFFFFFu;

[[nodiscard]] constexpr rmi_handle make_handle(std::uint32_t scope,
                                               std::uint32_t counter) noexcept
{
  return (static_cast<rmi_handle>(scope) << 32) | counter;
}

[[nodiscard]] constexpr std::uint32_t handle_scope(rmi_handle h) noexcept
{
  return static_cast<std::uint32_t>(h >> 32);
}

} // namespace stapl

#endif
