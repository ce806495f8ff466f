#ifndef STAPL_RUNTIME_COLLECTIVES_HPP
#define STAPL_RUNTIME_COLLECTIVES_HPP

// Tree-structured group communication (FooPar / "Group Communication
// Patterns for HPC"-style; dissertation Ch. III.B names broadcast/reduce
// as RTS primitives).
//
// The flat value-exchange protocol in runtime.hpp is O(P) reads per
// participant and two full barriers per collective.  This layer provides
// the scalable shapes:
//
//   * broadcast  — binomial tree rooted at `root`: ceil(log2 P) hops, the
//     root sends log2 P messages instead of P-1 being read from it.
//   * reduce     — binomial tree mirrored towards the root; partial values
//     combine in (rotated) rank order, so associative non-commutative
//     operators fold deterministically.
//   * allreduce  — recursive doubling: log2 P exchange rounds, every
//     location finishes with the identical rank-ordered fold.
//   * allgather  — recursive doubling on the accumulated entry sets.
//
// Non-power-of-two P uses the standard remainder fold: the first
// 2*(P - bit_floor(P)) ranks pair up (even folds into odd) before the
// doubling phase and receive the result afterwards, so the core always
// runs on a power of two.
//
// Transport: collectives do not ride the RMI layer.  Each location owns a
// small array of `coll_cell`s (runtime.hpp); a publish stores a data
// pointer then an operation token into the cell's `seq`, the single
// designated reader spins on `seq` (through `poll_until`, so RMI traffic
// keeps progressing), copies the value out, and acks.  Publishers await
// the ack before reusing or destroying the published data.  The token is
// the per-location count of tree collectives — identical everywhere by
// SPMD order — so cells never need resetting and back-to-back collectives
// cannot alias.  Unlike the flat protocol, tree collectives are *not*
// location barriers: a location may leave the collective while slower
// peers are still inside.  No call site relies on the old barrier
// side effect.
//
// Mode selection: below `coll::flat_threshold()` locations (default 4) the
// flat exchange wins on latency (one shared-memory read beats pointer
// chasing through log P cells), so `coll::mode::auto_select` falls back to
// it and counts the fallback.  `coll::set_mode(flat|tree)` pins either
// path — benches and tests use this; set it outside stapl::execute() only,
// since every location must take the same branch to keep tokens aligned.

#include "runtime.hpp"

#include <cstdint>
#include <utility>
#include <vector>

namespace stapl {

namespace coll {

/// Which engine the public collectives dispatch to.
enum class mode {
  auto_select, ///< tree above the flat threshold, flat below (default)
  flat,        ///< always the value-exchange protocol
  tree         ///< always the tree engine (P >= 2)
};

[[nodiscard]] mode get_mode() noexcept;
void set_mode(mode m) noexcept;

/// Largest P still served by the flat exchange under auto_select.
[[nodiscard]] unsigned flat_threshold() noexcept;
void set_flat_threshold(unsigned p) noexcept;

} // namespace coll

namespace coll_detail {

using runtime_detail::poll_until;
using runtime_detail::rt;
using runtime_detail::tl_location;

// Cell indices: 0 = remainder pre-fold, 1+r = doubling/binomial round r,
// last = remainder post-fold.
inline constexpr unsigned cell_pre = 0;
inline constexpr unsigned cell_round0 = 1;
inline constexpr unsigned cell_post =
    runtime_detail::location_state::num_coll_cells - 1;

[[nodiscard]] inline unsigned floor_log2(unsigned v) noexcept
{
  unsigned r = 0;
  while (v >>= 1)
    ++r;
  return r;
}

[[nodiscard]] inline unsigned ceil_log2(unsigned v) noexcept
{
  return v <= 1 ? 0 : floor_log2(v - 1) + 1;
}

/// Largest power of two <= v (v >= 1).
[[nodiscard]] inline unsigned bit_floor_u(unsigned v) noexcept
{
  return 1u << floor_log2(v);
}

/// Real rank of dense (post-remainder-fold) rank `d`: the odd survivors of
/// the fold zone come first, then the untouched tail.  Monotonic in `d`,
/// which is what keeps the recursive-doubling fold rank-ordered.
[[nodiscard]] inline location_id dense_to_real(unsigned d, unsigned rem) noexcept
{
  return d < rem ? 2 * d + 1 : d + rem;
}

[[nodiscard]] inline bool use_flat(unsigned p) noexcept
{
  switch (coll::get_mode()) {
    case coll::mode::flat:
      return true;
    case coll::mode::tree:
      return false;
    default:
      return p <= coll::flat_threshold();
  }
}

/// Counts one tree collective of the given depth and returns its token.
[[nodiscard]] inline std::uint64_t begin_tree_op(unsigned depth) noexcept
{
  auto& self = rt().loc(tl_location);
  self.stats.coll_ops += 1;
  if (self.stats.coll_depth < depth)
    self.stats.coll_depth = depth;
  return ++self.coll_token;
}

inline void publish(unsigned cell, std::uint64_t token, void const* data)
{
  STAPL_FAULT_POINT(fault::site::coll_cell); // stall before the seq release
  auto& c = rt().loc(tl_location).cells[cell];
  c.data = data;
  c.seq.store(token, std::memory_order_release);
}

/// Spins (driving RMI progress) until `peer` publishes `token` on `cell`;
/// the caller must copy the pointed-to data out before acking.
[[nodiscard]] inline void const* await_publish(location_id peer, unsigned cell,
                                               std::uint64_t token)
{
  auto& c = rt().loc(peer).cells[cell];
  poll_until("coll.publish", [&] {
    return c.seq.load(std::memory_order_acquire) == token;
  });
  return c.data;
}

inline void ack(location_id peer, unsigned cell, std::uint64_t token) noexcept
{
  rt().loc(peer).cells[cell].ack.store(token, std::memory_order_release);
}

/// Spins until this location's publish on `cell` has been acked; after
/// this the published data may be reused or destroyed.
inline void await_ack(unsigned cell, std::uint64_t token)
{
  auto& c = rt().loc(tl_location).cells[cell];
  poll_until("coll.ack", [&] {
    return c.ack.load(std::memory_order_acquire) == token;
  });
}

/// Binomial-tree broadcast from `root` (MPICH shape): relative rank v
/// receives from v - mask at its lowest set bit, then relays downwards.
template <typename T>
[[nodiscard]] T tree_broadcast(location_id root, T const& value)
{
  auto& self = rt().loc(tl_location);
  unsigned const p = rt().num_locations();
  unsigned const vrank = (tl_location + p - root) % p;
  std::uint64_t const token = begin_tree_op(ceil_log2(p));

  T result{};
  unsigned mask = 1;
  if (vrank == 0) {
    result = value;
    while (mask < p)
      mask <<= 1;
  } else {
    while ((vrank & mask) == 0)
      mask <<= 1;
    location_id const parent = (vrank - mask + root) % p;
    unsigned const cell = cell_round0 + floor_log2(mask);
    result = *static_cast<T const*>(await_publish(parent, cell, token));
    ack(parent, cell, token);
    self.stats.coll_rounds += 1;
  }
  // Relay to the subtree below the receive mask, largest child first.
  std::uint64_t pending = 0; // bitmask of cells awaiting ack
  for (unsigned m = mask >> 1; m != 0; m >>= 1) {
    if (vrank + m >= p)
      continue;
    unsigned const cell = cell_round0 + floor_log2(m);
    publish(cell, token, &result);
    pending |= std::uint64_t{1} << cell;
    self.stats.coll_rounds += 1;
  }
  // `result` is stack-local: every child must ack before we return.
  for (unsigned cell = cell_round0; pending != 0; ++cell) {
    if ((pending & (std::uint64_t{1} << cell)) == 0)
      continue;
    await_ack(cell, token);
    pending &= ~(std::uint64_t{1} << cell);
  }
  return result;
}

/// Binomial-tree reduce towards `root`.  The child at relative rank
/// v + mask covers the block [v+mask, v+2*mask), so acc = op(acc, child)
/// folds in ascending relative-rank order — deterministic for any
/// associative operator.  The returned value is the full fold at `root`
/// and a partial fold elsewhere.
template <typename T, typename BinaryOp>
[[nodiscard]] T tree_reduce(location_id root, T const& value, BinaryOp op)
{
  auto& self = rt().loc(tl_location);
  unsigned const p = rt().num_locations();
  unsigned const vrank = (tl_location + p - root) % p;
  std::uint64_t const token = begin_tree_op(ceil_log2(p));

  T acc = value;
  for (unsigned mask = 1; mask < p; mask <<= 1) {
    if (vrank & mask) {
      location_id const parent = (vrank - mask + root) % p;
      unsigned const cell = cell_round0 + floor_log2(mask);
      (void)parent; // the parent reads our cell; we only publish
      publish(cell, token, &acc);
      await_ack(cell, token);
      self.stats.coll_rounds += 1;
      break;
    }
    if (vrank + mask < p) {
      location_id const child = (vrank + mask + root) % p;
      unsigned const cell = cell_round0 + floor_log2(mask);
      T peer = *static_cast<T const*>(await_publish(child, cell, token));
      ack(child, cell, token);
      acc = op(std::move(acc), std::move(peer));
      self.stats.coll_rounds += 1;
    }
  }
  return acc;
}

/// Recursive-doubling allreduce with the remainder fold for non-power-of-
/// two P.  Every location returns the identical rank-ordered fold
/// op(v_0, op-combined ... v_{P-1}) (grouping varies, order does not).
template <typename T, typename BinaryOp>
[[nodiscard]] T tree_allreduce(T const& value, BinaryOp op)
{
  auto& self = rt().loc(tl_location);
  unsigned const p = rt().num_locations();
  unsigned const me = tl_location;
  unsigned const p2 = bit_floor_u(p);
  unsigned const rem = p - p2;
  std::uint64_t const token = begin_tree_op(ceil_log2(p));

  T acc = value;
  unsigned dense;
  if (me < 2 * rem) {
    if ((me & 1u) == 0) {
      // Fold into the odd neighbour, then sit out the doubling phase and
      // receive the finished result from it.
      publish(cell_pre, token, &acc);
      await_ack(cell_pre, token);
      self.stats.coll_rounds += 1;
      T result =
          *static_cast<T const*>(await_publish(me + 1, cell_post, token));
      ack(me + 1, cell_post, token);
      self.stats.coll_rounds += 1;
      return result;
    }
    T peer = *static_cast<T const*>(await_publish(me - 1, cell_pre, token));
    ack(me - 1, cell_pre, token);
    acc = op(std::move(peer), std::move(acc)); // even rank precedes odd
    self.stats.coll_rounds += 1;
    dense = me / 2;
  } else {
    dense = me - rem;
  }

  for (unsigned mask = 1; mask < p2; mask <<= 1) {
    unsigned const pdense = dense ^ mask;
    location_id const partner = dense_to_real(pdense, rem);
    unsigned const cell = cell_round0 + floor_log2(mask);
    publish(cell, token, &acc);
    T peer = *static_cast<T const*>(await_publish(partner, cell, token));
    ack(partner, cell, token);
    await_ack(cell, token); // partner copied acc; safe to overwrite now
    acc = (dense & mask) == 0 ? op(std::move(acc), std::move(peer))
                              : op(std::move(peer), std::move(acc));
    self.stats.coll_rounds += 1;
  }

  if (me < 2 * rem) {
    // Ship the finished fold back to the folded-out even neighbour.
    publish(cell_post, token, &acc);
    await_ack(cell_post, token);
    self.stats.coll_rounds += 1;
  }
  return acc;
}

/// Recursive-doubling allgather: each location accumulates the set of
/// entries it has seen; partners exchange and union their sets each round.
/// The published view points into the owner's live vectors, so readers
/// copy to scratch before acking and only merge after their own publish
/// has been acked (the arrays must not move while a partner reads them).
template <typename T>
[[nodiscard]] std::vector<T> tree_allgather(T const& value)
{
  auto& self = rt().loc(tl_location);
  unsigned const p = rt().num_locations();
  unsigned const me = tl_location;
  unsigned const p2 = bit_floor_u(p);
  unsigned const rem = p - p2;
  std::uint64_t const token = begin_tree_op(ceil_log2(p));

  std::vector<T> res(p);
  std::vector<unsigned char> present(p, 0);
  res[me] = value;
  present[me] = 1;

  struct view {
    T const* res;
    unsigned char const* present;
  };

  // Copies the peer's entries this location lacks into scratch (before
  // acking — the peer may touch its arrays once acked).
  auto collect = [&](view const& v) {
    std::vector<std::pair<unsigned, T>> scratch;
    for (unsigned i = 0; i < p; ++i)
      if (v.present[i] && !present[i])
        scratch.emplace_back(i, v.res[i]);
    return scratch;
  };
  auto merge = [&](std::vector<std::pair<unsigned, T>>&& scratch) {
    for (auto& [i, t] : scratch) {
      res[i] = std::move(t);
      present[i] = 1;
    }
  };

  unsigned dense;
  if (me < 2 * rem) {
    if ((me & 1u) == 0) {
      view const my{res.data(), present.data()};
      publish(cell_pre, token, &my);
      await_ack(cell_pre, token);
      self.stats.coll_rounds += 1;
      view const* pv =
          static_cast<view const*>(await_publish(me + 1, cell_post, token));
      auto scratch = collect(*pv);
      ack(me + 1, cell_post, token);
      merge(std::move(scratch));
      self.stats.coll_rounds += 1;
      return res;
    }
    view const* pv =
        static_cast<view const*>(await_publish(me - 1, cell_pre, token));
    auto scratch = collect(*pv);
    ack(me - 1, cell_pre, token);
    merge(std::move(scratch));
    self.stats.coll_rounds += 1;
    dense = me / 2;
  } else {
    dense = me - rem;
  }

  for (unsigned mask = 1; mask < p2; mask <<= 1) {
    unsigned const pdense = dense ^ mask;
    location_id const partner = dense_to_real(pdense, rem);
    unsigned const cell = cell_round0 + floor_log2(mask);
    view const my{res.data(), present.data()};
    publish(cell, token, &my);
    view const* pv =
        static_cast<view const*>(await_publish(partner, cell, token));
    auto scratch = collect(*pv);
    ack(partner, cell, token);
    await_ack(cell, token); // partner done reading res/present
    merge(std::move(scratch));
    self.stats.coll_rounds += 1;
  }

  if (me < 2 * rem) {
    view const my{res.data(), present.data()};
    publish(cell_post, token, &my);
    await_ack(cell_post, token);
    self.stats.coll_rounds += 1;
  }
  return res;
}

} // namespace coll_detail

// ---------------------------------------------------------------------------
// Public collectives — dispatch between the tree engine and the flat
// exchange (runtime.hpp) per coll::mode / coll::flat_threshold().
// ---------------------------------------------------------------------------

/// All-reduce over all locations: every location receives the op-combined
/// value.  On the tree path the fold is deterministic and rank-ordered;
/// the flat path combines in a per-location order, so non-commutative
/// operators should force tree mode (or tolerate any combine order).
template <typename T, typename BinaryOp>
[[nodiscard]] T allreduce(T const& value, BinaryOp op)
{
  unsigned const p = num_locations();
  if (p == 1)
    return value;
  if (coll_detail::use_flat(p)) {
    runtime_detail::rt().loc(this_location()).stats.coll_flat += 1;
    return runtime_detail::flat_allreduce(value, op);
  }
  return coll_detail::tree_allreduce(value, op);
}

/// Broadcast from `root` to all locations.
template <typename T>
[[nodiscard]] T broadcast(location_id root, T const& value)
{
  unsigned const p = num_locations();
  if (p == 1)
    return value;
  if (coll_detail::use_flat(p)) {
    runtime_detail::rt().loc(this_location()).stats.coll_flat += 1;
    return runtime_detail::flat_broadcast(root, value);
  }
  return coll_detail::tree_broadcast(root, value);
}

/// Reduce to `root`: the full fold lands on `root` only (other locations
/// receive an unspecified partial fold).  Combines in rank order rotated
/// to start at `root` on both paths.
template <typename T, typename BinaryOp>
[[nodiscard]] T reduce(location_id root, T const& value, BinaryOp op)
{
  unsigned const p = num_locations();
  if (p == 1)
    return value;
  if (coll_detail::use_flat(p)) {
    runtime_detail::rt().loc(this_location()).stats.coll_flat += 1;
    return runtime_detail::flat_reduce(root, value, op);
  }
  return coll_detail::tree_reduce(root, value, op);
}

/// Gathers one value per location; every location receives the full vector.
template <typename T>
[[nodiscard]] std::vector<T> allgather(T const& value)
{
  unsigned const p = num_locations();
  if (p == 1)
    return std::vector<T>{value};
  if (coll_detail::use_flat(p)) {
    runtime_detail::rt().loc(this_location()).stats.coll_flat += 1;
    return runtime_detail::flat_allgather(value);
  }
  return coll_detail::tree_allgather(value);
}

// ---------------------------------------------------------------------------
// Global metric/latency merges — true tree reductions (log P combines per
// location instead of P-1) now that they sit on the dispatchers above.
// ---------------------------------------------------------------------------

namespace metrics {

/// Collective: the union of every location's `snapshot()`, counters summed
/// by name (latency gauge keys — quantiles, max — merge by max instead;
/// see `sums_on_merge`).  Must be called by all locations.  This is the
/// one map that surfaces all stats families — runtime, directory,
/// load-balancer, idle time — plus the byte counters and per-family
/// latency keys.
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
