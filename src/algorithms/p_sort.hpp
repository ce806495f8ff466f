#ifndef STAPL_ALGORITHMS_P_SORT_HPP
#define STAPL_ALGORITHMS_P_SORT_HPP

// Parallel sample sort (the motivating kernel of dissertation Ch. VI: each
// task inserts elements from an input pArray into distributed buckets; the
// computation is correct as long as bucket-level insertion is atomic).
//
// Phases:
//   1. every location gathers its local elements (for_each_local);
//   2. every location draws a fixed number of random samples, the samples
//      are allgathered, and the P-1 splitters are quantiles of the sorted
//      pool (sort_detail::choose_splitters);
//   3. each local element's bucket is found by a branch-free binary search
//      over the splitters (sort_detail::bucket_of), and every bucket is
//      shipped to its location in one bulk asynchronous batch;
//   4. each location sorts its bucket in one counting pass
//      (sort_detail::sort_bucket): it counts the received keys by digit,
//      scatters them into one vector, and std::sorts each digit's
//      sub-bucket.  Integral keys under std::less take their digit from
//      the top bits of the key's offset in the range of the bucket's keys;
//      any other key or comparator has one sub-bucket, the whole bucket.
//      The pass sends no message;
//   5. the sorted sequence is written back in order: each location's start
//      offset is the exclusive scan of the bucket sizes, and its range is
//      cut into pieces that each fill consecutive slots of one bContainer.
//      A location copies the pieces that land in its own storage in place,
//      and ships the pieces of each other owner together, as one
//      asynchronous RMI whose handler copies them into that owner's
//      storage.
//
// Directory-backed containers (after make_dynamic()) write back with one
// set_element per element, which the directory routes to the element's
// current owner.
//
// Sorts any indexed container with 1D gids (pArray, pVector).

#include <algorithm>
#include <bit>
#include <cstddef>
#include <functional>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "../runtime/runtime.hpp"
#include "../views/views.hpp"
#include "p_algorithms.hpp"

namespace stapl {

namespace sort_detail {

/// Random samples each location draws for splitter choice (fewer when it
/// holds fewer elements).  At P=4 on 1 Mi random keys every bucket then
/// holds within ±5% of the mean (tests/test_p_sort.cpp).
inline constexpr std::size_t samples_per_location = 4096;

/// One location's bucket: the batches every location ships here, kept as
/// they arrive by RMIs that run on this location's thread.  sort_bucket's
/// scatter concatenates them.
template <typename T>
struct bucket_buffer : p_object {
  std::vector<std::vector<T>> batches;

  void deliver(std::vector<T> batch) { batches.push_back(std::move(batch)); }
};

/// The P-1 splitters: each location draws up to samples_per_location
/// random elements of `local`, the samples are allgathered, and splitter
/// i is the (i/P)-quantile of the sorted pool.  Collective; every
/// location returns the same splitters (none when no location has
/// elements).
template <typename T, typename Compare>
[[nodiscard]] std::vector<T> choose_splitters(std::vector<T> const& local,
                                              Compare cmp)
{
  unsigned const p = num_locations();
  std::vector<T> samples;
  std::size_t const k = std::min(samples_per_location, local.size());
  samples.reserve(k);
  std::mt19937 gen(123 + this_location());
  for (std::size_t i = 0; i != k; ++i)
    samples.push_back(local[gen() % local.size()]);

  std::vector<T> pool;
  for (auto& s : allgather(samples))
    pool.insert(pool.end(), s.begin(), s.end());
  std::sort(pool.begin(), pool.end(), cmp);
  std::vector<T> splitters;
  if (!pool.empty())
    for (unsigned i = 1; i < p; ++i)
      splitters.push_back(pool[i * pool.size() / p]);
  return splitters;
}

/// Bucket of `x`: the number of splitters s with !cmp(x, s), the position
/// std::upper_bound returns.  Branch-free binary search: the trip count
/// depends only on the number of splitters, and each step selects one of
/// two pointers (a conditional move for arithmetic keys), so random keys
/// cost no mispredicted branches.
template <typename T, typename Compare>
[[nodiscard]] std::size_t bucket_of(std::vector<T> const& splitters,
                                    T const& x, Compare& cmp)
{
  if (splitters.empty())
    return 0;
  T const* base = splitters.data();
  for (std::size_t n = splitters.size(); n > 1; n -= n / 2)
    base = cmp(x, base[n / 2]) ? base : base + n / 2;
  return static_cast<std::size_t>(base - splitters.data()) +
         (cmp(x, *base) ? 0 : 1);
}

/// Whether sort_bucket splits a bucket by counting digits: integral keys
/// other than bool, under std::less.
template <typename T, typename Compare>
inline constexpr bool counting_digits =
    std::is_integral_v<T> && !std::is_same_v<T, bool> &&
    (std::is_same_v<Compare, std::less<>> ||
     std::is_same_v<Compare, std::less<T>>);

/// Phase 4: a bucket, received as `batches`, sorted by `cmp` into one
/// vector.  One counting pass: the keys are counted by digit, scattered in
/// batch order into their digits' sub-buckets, and each sub-bucket is
/// std::sorted.  For counting_digits keys the digit is the top
/// b = clamp(bit_width(n) - 4, 1, 16) bits of x - lo, where n is the
/// bucket's size and [lo, hi] its keys' range, from one read-only pass; so
/// keys spread evenly over any range fill sub-buckets of 8 to 32 (more
/// once n passes 2^20, where b stops at 16).  Any other key or comparator
/// has one sub-bucket, so the pass concatenates the batches and
/// std::sorts the whole bucket.
template <typename T, typename Compare>
[[nodiscard]] std::vector<T> sort_bucket(std::vector<std::vector<T>> batches,
                                         Compare cmp)
{
  std::size_t n = 0;
  for (auto const& batch : batches)
    n += batch.size();
  if (n == 0) // no key range
    return {};

  // digit(x) < digits for every key of the bucket.
  auto const [digit, digits] = [&] {
    if constexpr (counting_digits<T, Compare>) {
      T lo = std::numeric_limits<T>::max();
      T hi = std::numeric_limits<T>::min();
      for (auto const& batch : batches)
        for (T const x : batch) {
          lo = std::min(lo, x);
          hi = std::max(hi, x);
        }
      // x - lo in the unsigned type of T's width: exact for signed keys
      // too, since 0 <= x - lo <= hi - lo fits, and cast back after the
      // subtraction promotes a narrow type to int.
      using U = std::make_unsigned_t<T>;
      auto const offset = [base = static_cast<U>(lo)](T x) {
        return static_cast<U>(static_cast<U>(x) - base);
      };
      int const b = std::clamp(static_cast<int>(std::bit_width(n)) - 4, 1, 16);
      int const shift =
          std::max(static_cast<int>(std::bit_width(offset(hi))) - b, 0);
      auto const digit = [offset, shift](T x) {
        return static_cast<std::size_t>(offset(x) >> shift);
      };
      return std::pair(digit, digit(hi) + 1);
    } else {
      return std::pair([](T const&) { return std::size_t{0}; }, std::size_t{1});
    }
  }();

  // pos[d + 1] counts digit d; after the prefix sum pos[d] is where the
  // next key of digit d goes, and after the scatter it is where
  // sub-bucket d ends.
  std::vector<std::size_t> pos(digits + 1, 0);
  for (auto const& batch : batches)
    for (T const& x : batch)
      ++pos[digit(x) + 1];
  std::partial_sum(pos.begin(), pos.end(), pos.begin());
  std::vector<T> out(n);
  for (auto& batch : batches) {
    for (T& x : batch)
      out[pos[digit(x)]++] = std::move(x);
    std::vector<T>().swap(batch);
  }
  auto begin = out.begin();
  for (std::size_t d = 0; d != digits; ++d) {
    auto const end = out.begin() + static_cast<std::ptrdiff_t>(pos[d]);
    std::sort(begin, end, cmp);
    begin = end;
  }
  return out;
}

/// Length of the run of GIDs g, g+1, ... (at most `max`) that occupy
/// consecutive slots of g's bContainer.  Inside a bContainer the GID
/// grows with the slot index, so the run is the prefix on which
/// gid_of(b, i + k) == g + k: the whole rest of the sub-domain for
/// contiguous partitions, one block for block-cyclic ones (binary search).
template <typename Partition>
[[nodiscard]] std::size_t run_length(Partition const& part, gid1d g,
                                     std::size_t max)
{
  bcid_type const b = part.get_info(g);
  std::size_t const i = part.local_index(g);
  auto const in_run = [&](std::size_t len) {
    return part.gid_of(b, i + len - 1) == g + len - 1;
  };
  std::size_t lo = 1;
  std::size_t hi = std::min(max, part.subdomain_size(b) - i);
  if (in_run(hi))
    return hi;
  while (lo + 1 < hi) { // in_run(lo), !in_run(hi)
    std::size_t const mid = lo + (hi - lo) / 2;
    (in_run(mid) ? lo : hi) = mid;
  }
  return lo;
}

/// Moves one run_length() piece, `values`, into the consecutive local
/// slots of GIDs first, first+1, ... of one bContainer.
template <typename C, typename T>
void store_run(C& c, gid1d first, std::span<T> values)
{
  auto const& part = c.partition();
  auto& block = c.bc(part.get_info(first)).data();
  std::move(values.begin(), values.end(),
            block.data() + part.local_index(first));
}

} // namespace sort_detail

/// Sorts the elements of an indexed container in place (ascending by
/// `cmp`).  Collective.
template <typename C, typename Compare = std::less<>>
void p_sample_sort(C& arr, Compare cmp = {})
{
  using T = typename C::value_type;
  unsigned const p = num_locations();

  // 1. Gather the local elements.
  std::vector<T> local;
  local.reserve(arr.local_size());
  arr.for_each_local([&](gid1d, T& x) { local.push_back(x); });

  // 2. Global splitters.
  auto const splitters = sort_detail::choose_splitters(local, cmp);

  // 3. Partition local elements into buckets and ship them (bulk async) —
  //    the Ch. VI bucket-insertion pattern.
  sort_detail::bucket_buffer<T> bucket;
  rmi_handle const bh = bucket.get_handle();
  std::vector<std::vector<T>> outgoing(p);
  for (auto& out : outgoing) // a bucket's share, plus slack for imbalance
    out.reserve(local.size() / p + local.size() / (8 * p));
  for (T const& x : local)
    outgoing[sort_detail::bucket_of(splitters, x, cmp)].push_back(x);
  std::vector<T>().swap(local);
  for (unsigned l = 0; l < p; ++l) {
    if (outgoing[l].empty())
      continue;
    if (l == this_location())
      bucket.deliver(std::move(outgoing[l]));
    else
      async_rmi<sort_detail::bucket_buffer<T>>(
          l, bh,
          [](sort_detail::bucket_buffer<T>& buf, auto&& batch) {
            buf.deliver(std::move(batch));
          },
          std::move(outgoing[l]));
  }
  rmi_fence();

  // 4. Local bucket sort.
  std::vector<T> elems = sort_detail::sort_bucket(std::move(bucket.batches),
                                                  cmp);

  // 5. Write back in global order: bucket l starts where buckets 0..l-1
  //    end.
  std::size_t const offset =
      exclusive_scan(elems.size(), std::plus<>{}, std::size_t{0});
  if (arr.is_dynamic()) {
    for (std::size_t i = 0; i != elems.size(); ++i)
      arr.set_element(offset + i, std::move(elems[i]));
  } else {
    // Each other owner's pieces, as {first GID, length} over its values.
    std::vector<std::vector<std::pair<gid1d, std::size_t>>> pieces(p);
    std::vector<std::vector<T>> values(p);
    auto const& part = arr.partition();
    for (std::size_t b = 0; b < elems.size();) {
      gid1d const first = offset + b;
      std::span<T> const run(
          elems.data() + b,
          sort_detail::run_length(part, first, elems.size() - b));
      location_id const owner = arr.mapper().map(part.get_info(first));
      if (owner == this_location()) {
        sort_detail::store_run(arr, first, run);
      } else {
        pieces[owner].emplace_back(first, run.size());
        values[owner].insert(values[owner].end(), run.begin(), run.end());
      }
      b += run.size();
    }
    for (unsigned l = 0; l < p; ++l)
      if (!pieces[l].empty())
        async_rmi<C>(
            l, arr.get_handle(),
            [](C& c, auto&& at, auto&& vals) {
              std::span<T> rest(vals);
              for (auto const& [first, len] : at) {
                sort_detail::store_run(c, first, rest.first(len));
                rest = rest.subspan(len);
              }
            },
            std::move(pieces[l]), std::move(values[l]));
  }
  rmi_fence();
}

/// Collective check that a container's elements are globally sorted:
/// a map_reduce of per-pair checks (the boundary read of g+1 goes through
/// the shared-object view).
template <typename C, typename Compare = std::less<>>
[[nodiscard]] bool p_is_sorted(C& arr, Compare cmp = {})
{
  array_1d_ro_view v(arr);
  std::size_t const n = arr.size();
  auto const ok = map_reduce(
      v,
      [v, n, cmp](gid1d g, typename C::value_type const& x) mutable {
        return g + 1 < n ? !cmp(v.read(g + 1), x) : true;
      },
      [](bool a, bool b) { return a && b; });
  return ok.value_or(true);
}

} // namespace stapl

#endif
