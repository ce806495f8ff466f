#ifndef STAPL_ALGORITHMS_P_SORT_HPP
#define STAPL_ALGORITHMS_P_SORT_HPP

// Parallel sample sort (the motivating kernel of dissertation Ch. VI: each
// task inserts elements from an input pArray into distributed buckets; the
// computation is correct as long as bucket-level insertion is atomic).
//
// Phases:
//   1. every location draws a fixed number of random sample positions and
//      picks the samples up in one walk of its elements (for_each_local);
//   2. the samples are allgathered, and the P-1 splitters are quantiles of
//      the sorted pool (sort_detail::choose_splitters);
//   3. a second walk finds each local element's bucket by a branch-free
//      binary search over the splitters (sort_detail::bucket_of) and
//      appends it to that bucket's outgoing batch; every batch is shipped
//      to its location in one bulk asynchronous RMI.  A closed-form
//      container's input is read in place: no phase copies it first;
//   4. each location sorts its bucket (sort_detail::sort_bucket).  Integral
//      keys under std::less are counted and scattered by two levels of
//      digits, the top bits of the key's offset in the range of the
//      bucket's keys, and the short runs left are finished by insertion
//      sort; any other key or comparator is concatenated and std::sorted.
//      The pass sends no message;
//   5. the sorted sequence is written back in order: each location's start
//      offset is the exclusive scan of the bucket sizes, and its range is
//      cut into pieces that each fill consecutive slots of one bContainer.
//      A location copies the pieces that land in its own storage in place,
//      and ships the pieces of each other owner together, as one
//      asynchronous RMI whose handler copies them into that owner's
//      storage.
//
// Directory-backed containers (after make_dynamic()) copy their owned
// elements out once for both walks, and write back with one set_element
// per element, which the directory routes to the element's current owner.
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

/// Up to samples_per_location of the `n` elements that `walk` visits,
/// drawn at positions gen() % n; `walk(take)` calls take(x) on each
/// element in order, and the one walk picks the samples up in draw order.
template <typename T, typename Walk>
[[nodiscard]] std::vector<T> draw_samples(std::size_t n, Walk walk)
{
  std::size_t const k = std::min(samples_per_location, n);
  std::mt19937 gen(123 + this_location());
  std::vector<std::pair<std::size_t, std::size_t>> at(k); // (position, draw)
  for (std::size_t i = 0; i != k; ++i)
    at[i] = {gen() % n, i};
  std::sort(at.begin(), at.end());
  std::vector<T> samples(k);
  std::size_t pos = 0;
  auto next = at.begin();
  walk([&](T const& x) {
    for (; next != at.end() && next->first == pos; ++next)
      samples[next->second] = x;
    ++pos;
  });
  return samples;
}

/// The P-1 splitters: every location's `samples` are allgathered, and
/// splitter i is the (i/P)-quantile of the sorted pool.  Collective; every
/// location returns the same splitters (none when no location has
/// samples).
template <typename T, typename Compare>
[[nodiscard]] std::vector<T> choose_splitters(std::vector<T> const& samples,
                                              Compare cmp)
{
  unsigned const p = num_locations();
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

/// Longest run that sort_bucket finishes by insertion sort.
inline constexpr std::size_t insertion_run = 32;

template <typename It, typename Compare>
void insertion_sort(It first, It last, Compare& cmp)
{
  for (It i = first; i != last; ++i) {
    auto x = std::move(*i);
    It j = i;
    for (; j != first && cmp(x, *std::prev(j)); --j)
      *j = std::move(*std::prev(j));
    *j = std::move(x);
  }
}

/// Counting pass: moves the keys of `sources` (a range of key ranges) into
/// `out` grouped by digit, in source order within a digit (digit(x) <
/// digits for every key).  Afterwards pos[d] is where digit d ends in
/// `out`, for d < digits.
template <typename T, typename Digit, typename Sources>
void scatter_by_digit(T* out, std::size_t digits, Digit digit,
                      Sources&& sources, std::vector<std::size_t>& pos)
{
  // pos[d + 1] counts digit d; after the prefix sum pos[d] is where the
  // next key of digit d goes.
  pos.assign(digits + 1, 0);
  for (auto const& src : sources)
    for (T const& x : src)
      ++pos[digit(x) + 1];
  std::partial_sum(pos.begin(), pos.end(), pos.begin());
  for (auto& src : sources)
    for (T& x : src)
      out[pos[digit(x)]++] = std::move(x);
}

/// Phase 4: a bucket, received as `batches`, sorted by `cmp` into one
/// vector.
///
/// For counting_digits keys, two counting levels: [lo, hi] is the range of
/// the bucket's keys (one read-only pass), and level 1 scatters the keys by
/// the top b1 = clamp(bit_width(n) - 12, 1, 16) bits of x - lo, so keys
/// spread evenly over any range fill runs of 2^11 to 2^13 (more once n
/// passes 2^28), which fit in cache.  Level 2 scatters each run of m keys
/// by its next b2 = clamp(bit_width(m), 1, 16) bits, at most the bits
/// left, into sub-runs of about one key.  A sub-run of more than
/// insertion_run keys holds keys bunched or equal at that resolution and
/// takes std::sort, so no input is quadratic; one insertion sort of the
/// run then finishes the short sub-runs, as it finishes a level-1 run of
/// at most insertion_run keys.  Every shift stays below the key's width:
/// b1 >= 1, and level 2 runs only while bits are left.
///
/// Any other key or comparator: the first batch, moved, grows into the
/// output and one std::sort sorts it, so a lone batch (P = 1) is sorted
/// where it arrived.
template <typename T, typename Compare>
[[nodiscard]] std::vector<T> sort_bucket(std::vector<std::vector<T>> batches,
                                         Compare cmp)
{
  std::size_t n = 0;
  for (auto const& batch : batches)
    n += batch.size();
  if (n == 0)
    return {};
  if constexpr (!counting_digits<T, Compare>) {
    std::vector<T> out = std::move(batches.front());
    out.reserve(n);
    for (auto b = std::next(batches.begin()); b != batches.end(); ++b) {
      out.insert(out.end(), std::make_move_iterator(b->begin()),
                 std::make_move_iterator(b->end()));
      std::vector<T>().swap(*b);
    }
    std::sort(out.begin(), out.end(), cmp);
    return out;
  } else {
    T lo = std::numeric_limits<T>::max();
    T hi = std::numeric_limits<T>::min();
    for (auto const& batch : batches)
      for (T const x : batch) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
    // x - lo in the unsigned type of T's width: exact for signed keys too,
    // since 0 <= x - lo <= hi - lo fits, and cast back after the
    // subtraction promotes a narrow type to int.
    using U = std::make_unsigned_t<T>;
    auto const offset = [base = static_cast<U>(lo)](T x) {
      return static_cast<U>(static_cast<U>(x) - base);
    };
    int const b1 = std::clamp(static_cast<int>(std::bit_width(n)) - 12, 1, 16);
    int const shift1 =
        std::max(static_cast<int>(std::bit_width(offset(hi))) - b1, 0);

    std::vector<T> out(n);
    std::vector<std::size_t> ends1, ends2;
    std::size_t const digits1 = (offset(hi) >> shift1) + 1;
    scatter_by_digit(
        out.data(), digits1,
        [offset, shift1](T x) {
          return static_cast<std::size_t>(offset(x) >> shift1);
        },
        batches, ends1);
    std::vector<std::vector<T>>().swap(batches);

    std::vector<T> run; // one level-1 run, the source of its level-2 pass
    for (std::size_t d = 0, begin = 0; d != digits1; begin = ends1[d++]) {
      std::span<T> const keys(out.data() + begin, ends1[d] - begin);
      if (keys.size() <= insertion_run) {
        insertion_sort(keys.begin(), keys.end(), cmp);
        continue;
      }
      if (shift1 == 0) // the run's keys are equal
        continue;
      int const b2 =
          std::min(std::clamp(static_cast<int>(std::bit_width(keys.size())),
                              1, 16),
                   shift1);
      int const shift2 = shift1 - b2;
      std::size_t const mask = (std::size_t{1} << b2) - 1;
      run.assign(std::make_move_iterator(keys.begin()),
                 std::make_move_iterator(keys.end()));
      scatter_by_digit(
          keys.data(), mask + 1,
          [offset, shift2, mask](T x) {
            return static_cast<std::size_t>(offset(x) >> shift2) & mask;
          },
          std::span(&run, 1), ends2);
      // No key moves past the start of its sub-run, so one insertion sort
      // finishes the short sub-runs.  A long one with shift2 == 0 holds
      // equal keys.
      if (shift2 != 0)
        for (std::size_t e = 0, first = 0; e != mask + 1; first = ends2[e++])
          if (ends2[e] - first > insertion_run)
            std::sort(keys.begin() + static_cast<std::ptrdiff_t>(first),
                      keys.begin() + static_cast<std::ptrdiff_t>(ends2[e]),
                      cmp);
      insertion_sort(keys.begin(), keys.end(), cmp);
    }
    return out;
  }
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

  // The two walks below read the local elements in for_each_local's
  // order, a closed-form container's in place.  A directory-backed
  // container's for_each_local lists its owned GIDs and looks each element
  // up on every call, so its elements are copied out once instead.
  std::vector<T> copied;
  if (arr.is_dynamic()) {
    copied.reserve(arr.local_size());
    arr.for_each_local([&](gid1d, T const& x) { copied.push_back(x); });
  }
  std::size_t const local_n =
      arr.is_dynamic() ? copied.size() : arr.local_size();
  auto const walk = [&](auto f) {
    if (arr.is_dynamic())
      for (T const& x : copied)
        f(x);
    else
      arr.for_each_local([&](gid1d, T const& x) { f(x); });
  };

  // 1-2. Samples, picked up in one walk, and the global splitters.
  auto const splitters = sort_detail::choose_splitters(
      sort_detail::draw_samples<T>(local_n, walk), cmp);

  // 3. A second walk partitions the local elements into buckets, which are
  //    shipped in bulk (async) — the Ch. VI bucket-insertion pattern.
  sort_detail::bucket_buffer<T> bucket;
  rmi_handle const bh = bucket.get_handle();
  std::vector<std::vector<T>> outgoing(p);
  for (auto& out : outgoing) // a bucket's share, plus slack for imbalance
    out.reserve(local_n / p + local_n / (8 * p));
  walk([&](T const& x) {
    outgoing[sort_detail::bucket_of(splitters, x, cmp)].push_back(x);
  });
  std::vector<T>().swap(copied);
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
