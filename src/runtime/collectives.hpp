#ifndef STAPL_RUNTIME_COLLECTIVES_HPP
#define STAPL_RUNTIME_COLLECTIVES_HPP

// Collective operations (dissertation Ch. III.B names broadcast/reduce as
// RTS primitives): allreduce, broadcast, reduce, allgather and
// exclusive_scan, plus the global metric/latency merges built on
// allreduce.
//
// Every collective is one run of the value exchange below: each location
// publishes a pointer to its value, a polling barrier makes all pointers
// visible, each location reads the slots it needs, and a second polling
// barrier releases them.  That is O(P) reads per participant and two
// barriers per call, it makes every collective a location barrier, and
// RMI traffic keeps progressing while a location waits.  Folds are
// rank-ordered, so associative but non-commutative operators give one
// deterministic answer on every location.  Each exchange at P > 1 counts
// one `coll.ops`, so every collective call counts once.

#include "runtime.hpp"

#include <utility>
#include <vector>

namespace stapl {

namespace runtime_detail {

/// Value-exchange protocol (see above): `reader` runs between the two
/// barriers, while every location's `slot` points at its `mine`.
template <typename T, typename Reader>
void exchange(T const& mine, Reader reader)
{
  auto& self = rt().loc(tl_location);
  if (rt().num_locations() > 1)
    metrics::local().coll.ops += 1;
  self.slot = &mine;
  barrier_wait(true);
  reader();
  barrier_wait(true);
  self.slot = nullptr;
}

/// The value location `l` published in the current exchange; valid only
/// inside an exchange's `reader`.
template <typename T>
[[nodiscard]] T const& slot_of(location_id l)
{
  return *static_cast<T const*>(rt().loc(l).slot);
}

} // namespace runtime_detail

/// All-reduce over all locations.  Folds the values in rank order 0..P-1
/// on every location, so every location returns the identical result.
template <typename T, typename BinaryOp>
[[nodiscard]] T allreduce(T const& value, BinaryOp op)
{
  using namespace runtime_detail;
  if (num_locations() == 1)
    return value;
  T result = value;
  exchange(value, [&] {
    result = slot_of<T>(0);
    for (location_id l = 1; l < rt().num_locations(); ++l)
      result = op(std::move(result), slot_of<T>(l));
  });
  return result;
}

/// Broadcast from `root` to all locations.
template <typename T>
[[nodiscard]] T broadcast(location_id root, T const& value)
{
  using namespace runtime_detail;
  if (num_locations() == 1)
    return value;
  T result{};
  exchange(value, [&] { result = slot_of<T>(root); });
  return result;
}

/// Reduce to `root`: the full fold lands on `root`, combined in rank order
/// rotated to start at `root`; every other location gets its own `value`
/// back.
template <typename T, typename BinaryOp>
[[nodiscard]] T reduce(location_id root, T const& value, BinaryOp op)
{
  using namespace runtime_detail;
  unsigned const p = num_locations();
  if (p == 1)
    return value;
  T result = value;
  exchange(value, [&] {
    if (tl_location != root)
      return;
    for (unsigned i = 1; i < p; ++i)
      result = op(std::move(result), slot_of<T>((root + i) % p));
  });
  return result;
}

/// Gathers one value per location; every location receives the full
/// vector, indexed by location id.
template <typename T>
[[nodiscard]] std::vector<T> allgather(T const& value)
{
  using namespace runtime_detail;
  unsigned const p = num_locations();
  if (p == 1)
    return std::vector<T>{value};
  std::vector<T> result(p);
  exchange(value, [&] {
    for (location_id l = 0; l < p; ++l)
      result[l] = slot_of<T>(l);
  });
  return result;
}

/// Exclusive prefix over location ids: location i receives
/// op(value_0, ..., value_{i-1}); location 0 receives `identity`.  Each
/// location folds the slots of the lower ranks.
template <typename T, typename BinaryOp>
[[nodiscard]] T exclusive_scan(T const& value, BinaryOp op, T identity)
{
  using namespace runtime_detail;
  T result = identity;
  exchange(value, [&] {
    for (location_id l = 0; l < tl_location; ++l)
      result = op(result, slot_of<T>(l));
  });
  return result;
}

// ---------------------------------------------------------------------------
// Global metric/latency merges
// ---------------------------------------------------------------------------

namespace metrics {

/// Collective: the union of every location's `snapshot()`, counters summed
/// by name (the two depth gauges merge by max instead; see
/// `sums_on_merge`).  Must be called by all locations.
[[nodiscard]] inline counter_map global_snapshot()
{
  return allreduce(snapshot(), [](counter_map a, counter_map const& b) {
    for (auto const& [k, v] : b) {
      if (sums_on_merge(k))
        a[k] += v;
      else if (v > a[k])
        a[k] = v;
    }
    return a;
  });
}

} // namespace metrics

namespace latency {

/// Collective: the bucket-wise merge of every location's histogram for `o`
/// — exactly the histogram a single recorder would hold had it seen every
/// location's samples.  Must be called by all locations.
[[nodiscard]] inline histogram global_histogram(op o)
{
  return allreduce(local_snapshot(o), [](histogram a, histogram const& b) {
    a.merge(b);
    return a;
  });
}

/// Collective: all families merged at once (one reduction).
[[nodiscard]] inline histogram_set global_histograms()
{
  return allreduce(local_snapshots(),
                   [](histogram_set a, histogram_set const& b) {
                     for (std::size_t i = 0; i != op_count; ++i)
                       a[i].merge(b[i]);
                     return a;
                   });
}

} // namespace latency

} // namespace stapl

#endif
