#ifndef STAPL_ALGORITHMS_P_SORT_HPP
#define STAPL_ALGORITHMS_P_SORT_HPP

// Parallel sample sort (the motivating kernel of dissertation Ch. VI: each
// task inserts elements from an input pArray into distributed buckets; the
// computation is correct as long as bucket-level insertion is atomic).
//
// Phases:
//   1. every location samples its local elements;
//   2. samples are allgathered and P-1 splitters chosen;
//   3. local elements are partitioned by splitter and shipped to their
//      bucket's location in bulk asynchronous batches;
//   4. each location sorts its bucket;
//   5. the sorted sequence is written back to the container in order: each
//      location's start offset arrives as a value-carrying dependence from
//      its left neighbour (an offset chain on the task-graph executor), so
//      no bucket-size allgather is needed; the write-back itself is
//      coarsened into default_grain chunk tasks.
//
// Sorts any indexed container with 1D gids (pArray, pVector).

#include <algorithm>
#include <cstddef>
#include <functional>
#include <random>
#include <vector>

#include "../runtime/runtime.hpp"
#include "../runtime/task_graph.hpp"
#include "../views/views.hpp"

namespace stapl {

namespace sort_detail {

template <typename T>
struct bucket_buffer : p_object {
  std::vector<T> elems;
  std::mutex mutex; ///< synchronises deliveries with the owner's reads

  void deliver(std::vector<T> batch)
  {
    std::lock_guard lock(mutex);
    elems.insert(elems.end(), batch.begin(), batch.end());
  }
};

} // namespace sort_detail

/// Sorts the elements of an indexed container in place (ascending by
/// `cmp`).  Collective.
template <typename C, typename Compare = std::less<>>
void p_sample_sort(C& arr, Compare cmp = {})
{
  using T = typename C::value_type;
  unsigned const p = num_locations();

  // 1. Local sampling (oversampling factor 8 for balanced splitters).
  std::vector<T> local;
  arr.for_each_local([&](gid1d, T& x) { local.push_back(x); });
  std::size_t const oversample = 8;
  std::vector<T> samples;
  if (!local.empty()) {
    std::mt19937 gen(123 + this_location());
    for (std::size_t i = 0; i < oversample * p; ++i)
      samples.push_back(local[gen() % local.size()]);
  }

  // 2. Global splitters.
  auto all_samples = allgather(samples);
  std::vector<T> pool;
  for (auto& s : all_samples)
    pool.insert(pool.end(), s.begin(), s.end());
  std::sort(pool.begin(), pool.end(), cmp);
  std::vector<T> splitters;
  for (unsigned i = 1; i < p; ++i)
    if (!pool.empty())
      splitters.push_back(pool[i * pool.size() / p]);

  // 3. Partition local elements into buckets and ship them (bulk async) —
  //    the Ch. VI bucket-insertion pattern.
  sort_detail::bucket_buffer<T> bucket;
  rmi_handle const bh = bucket.get_handle();
  std::vector<std::vector<T>> outgoing(p);
  for (auto& x : local) {
    auto it = std::upper_bound(splitters.begin(), splitters.end(), x, cmp);
    outgoing[static_cast<std::size_t>(it - splitters.begin())].push_back(x);
  }
  for (unsigned l = 0; l < p; ++l) {
    if (outgoing[l].empty())
      continue;
    if (l == this_location())
      bucket.deliver(std::move(outgoing[l]));
    else
      async_rmi<sort_detail::bucket_buffer<T>>(
          l, bh, &sort_detail::bucket_buffer<T>::deliver,
          std::move(outgoing[l]));
  }
  rmi_fence();

  // 4. Local bucket sort.
  std::sort(bucket.elems.begin(), bucket.elems.end(), cmp);

  // 5. Write back in global order: bucket l starts where buckets 0..l-1
  //    end.  The running total travels down a task chain as a dependence
  //    value (each location's chain task adds its bucket size), and the
  //    write-back is coarsened into default_grain chunk tasks over the
  //    local bucket.  Each location adds its write-back tasks alone, after
  //    the shared chain, fed by its own chain task (offset = total minus
  //    its bucket size), so no chunk metadata is exchanged.  Every chunk
  //    fires as soon as its location's running total arrives — no size
  //    allgather, no phase barrier.
  {
    std::size_t const grain = default_grain(arr.size());
    std::size_t const mine = bucket.elems.size();
    task_graph<std::size_t> tg;
    using tid = task_graph<std::size_t>::task_id;
    std::vector<tid> chain(p);
    for (unsigned l = 0; l < p; ++l) {
      chain[l] = tg.add_task(
          l, [mine](std::vector<std::size_t> const& ins) {
            return (ins.empty() ? 0 : ins[0]) + mine;
          });
      if (l > 0)
        tg.add_dependence(chain[l - 1], chain[l]);
    }
    for (std::size_t b = 0; b < mine; b += grain) {
      tid const wb = tg.add_task(
          this_location(),
          [&bucket, &arr, b, e = std::min(mine, b + grain),
           mine](std::vector<std::size_t> const& ins) {
            std::size_t const offset = ins[0] - mine;
            for (std::size_t i = b; i < e; ++i)
              arr.set_element(offset + i, std::move(bucket.elems[i]));
            return std::size_t{0};
          });
      tg.add_dependence(chain[this_location()], wb);
    }
    tg.execute();
  }
}

/// Collective check that a container's elements are globally sorted:
/// a tree_reduce of per-pair checks (the boundary read of g+1 goes through
/// the shared-object view).
template <typename C, typename Compare = std::less<>>
[[nodiscard]] bool p_is_sorted(C& arr, Compare cmp = {})
{
  array_1d_ro_view v(arr);
  std::size_t const n = arr.size();
  auto const ok = tree_reduce(
      v,
      [v, n, cmp](gid1d g, typename C::value_type const& x) mutable {
        return g + 1 < n ? !cmp(v.read(g + 1), x) : true;
      },
      [](bool a, bool b) { return a && b; });
  return ok.value_or(true);
}

} // namespace stapl

#endif
