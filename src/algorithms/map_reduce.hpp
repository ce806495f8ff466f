#ifndef STAPL_ALGORITHMS_MAP_REDUCE_HPP
#define STAPL_ALGORITHMS_MAP_REDUCE_HPP

// MapReduce over pViews into associative pContainers (dissertation
// Ch. XII.C.1, Fig. 59: counting word occurrences across a corpus).
//
// The map phase is one local pass over each location's bView.  It maps
// every element to (key, value) pairs and pre-combines them in a
// location-local table (the classic combiner optimization).  Each location
// then flushes its combined pairs into the distributed pHashMap with
// asynchronous accumulate-updates, and a fence completes the shuffle: one
// asynchronous RMI per distinct (location, key) rather than per emitted
// pair.

#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

#include "../containers/p_associative.hpp"
#include "../runtime/runtime.hpp"
#include "p_algorithms.hpp"

namespace stapl {

/// options for map_reduce_into
struct map_reduce_options {
  bool use_combiner = true; ///< pre-combine locally before the shuffle
};

/// Runs MapReduce: for every element of `view`, `mapper(element, emit)` may
/// call `emit(key, value)` any number of times; values of equal keys are
/// folded with `reducer` into `out`.  Collective.
template <typename View, typename Mapper, typename Reducer, typename K,
          typename V, typename Hash>
void map_reduce_into(View view, Mapper mapper, Reducer reducer,
                     p_hash_map<K, V, Hash>& out,
                     map_reduce_options opts = {})
{
  auto flush = [&out, reducer](K const& k, V const& v) {
    out.apply_async(k, [v, reducer](V& cur) { cur = reducer(cur, v); });
  };
  if (opts.use_combiner) {
    std::unordered_map<K, V, Hash> combined;
    algo_detail::local_pass(view, [&](typename View::gid_type g) {
      mapper(view.read(g), [&](K k, V v) {
        auto [it, inserted] = combined.emplace(std::move(k), v);
        if (!inserted)
          it->second = reducer(it->second, v);
      });
    });
    for (auto const& [k, v] : combined)
      flush(k, v);
  } else {
    algo_detail::local_pass(view, [&](typename View::gid_type g) {
      mapper(view.read(g), [&](K k, V v) { flush(k, v); });
    });
  }
  rmi_fence();
}

/// Word count (the Fig. 59 workload): counts occurrences of every word of a
/// view of strings into `out`.  Collective.
template <typename View, typename Hash>
void word_count(View corpus, p_hash_map<std::string, long, Hash>& out,
                map_reduce_options opts = {})
{
  map_reduce_into(
      std::move(corpus),
      [](std::string const& text, auto emit) {
        std::size_t i = 0;
        while (i < text.size()) {
          while (i < text.size() && text[i] == ' ')
            ++i;
          std::size_t const start = i;
          while (i < text.size() && text[i] != ' ')
            ++i;
          if (i > start)
            emit(text.substr(start, i - start), 1L);
        }
      },
      [](long a, long b) { return a + b; }, out, opts);
}

} // namespace stapl

#endif
