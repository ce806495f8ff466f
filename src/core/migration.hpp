#ifndef STAPL_CORE_MIGRATION_HPP
#define STAPL_CORE_MIGRATION_HPP

// Element migration protocol (dissertation Ch. V.C.3: the directory's
// "update" operations; the element-granularity analogue of the bContainer
// handoff used by redistribution.hpp).
//
// migrate(c, gid, dest) moves one element of a directory-backed pContainer
// between bContainers of different locations:
//
//   1. the request routes to the current owner A through the directory
//      (so migration composes with forwarding and with other in-flight
//      migrations of the same GID);
//   2. A extracts the element from its bContainer
//      (`Container::extract_element`, the element-granularity counterpart
//      of location_manager::extract_bcontainer), marks the GID departed in
//      its directory representative (leaving a forwarding hint), and ships
//      the payload to `dest`;
//   3. `dest` stores the payload (`Container::insert_migrated`), takes
//      ownership, and the directory updates the home record — which
//      invalidates every stale owner cache.
//
// The protocol is asynchronous: rmi_fence() guarantees that the move and
// every request it re-routed have completed.  Requests that race the move
// either chase A's forwarding hint (the A->dest channel delivers the
// payload first, so the chase lands after the element) or park via
// post_to_self until the ownership metadata settles.

#include <cassert>

#include "../runtime/runtime.hpp"
#include "directory.hpp"

namespace stapl {

/// Moves the element of `gid` to location `dest`, updating the directory.
/// May be called from any location; asynchronous (complete at the next
/// rmi_fence).  The container must be directory-backed (marked dynamic).
template <typename C>
void migrate(C& c, typename C::gid_type gid, location_id dest)
{
  assert(dest < num_locations());
  assert(c.is_dynamic() && "migrate() requires directory-backed resolution");
  STAPL_FAULT_POINT(fault::site::migration);
  rmi_handle const h = c.get_handle();
  c.get_directory().invoke_where(gid, [h, gid, dest] {
    get_registered_object<C>(h)->migrate_out(gid, dest);
  });
}

} // namespace stapl

#endif
