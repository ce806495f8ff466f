// Quickstart: the Fig. 26-style introduction to stapl-pcf.
//
// Build & run:   ./quickstart [num_locations]
// Exits non-zero when a result differs from the expectation it prints.
//
// Shows: SPMD execution, pArray construction with different partitions, the
// shared-object view (every location can touch every element), sync/async/
// split-phase element methods, views and generic pAlgorithms.

#include "algorithms/p_algorithms.hpp"
#include "containers/p_array.hpp"

#include <cstdio>
#include <cstdlib>

int main(int argc, char** argv)
{
  unsigned const p = argc > 1 ? std::atoi(argv[1]) : 4;
  bool ok = true; // written by location 0 only

  stapl::execute(p, [&ok] {
    using namespace stapl;

    // A pArray of 100 integers, balanced across locations (Fig. 26).
    p_array<int> pa(100);

    // A second pArray with an explicit blocked partition of block size 10.
    p_array<int, blocked_partition> pa_blocked(100, blocked_partition(10));

    // Shared object view: location 0 writes elements it does NOT own.
    if (this_location() == 0)
      for (gid1d g = 0; g < 100; ++g)
        pa.set_element(g, static_cast<int>(g)); // asynchronous write
    rmi_fence();                                // completion guarantee

    // Everyone reads an arbitrary element (synchronous).
    int const v42 = pa.get_element(42);

    // Split-phase read: overlap communication with computation.
    auto fut = pa.split_phase_get_element(7);
    int local_work = 0;
    for (int i = 0; i < 1000; ++i)
      local_work += i;
    int const v7 = fut.get();
    rmi_fence(); // every read is served before any location doubles

    // Views + pAlgorithms: double everything, then reduce.
    array_1d_view view(pa);
    p_for_each(view, [](int& x) { x *= 2; });
    long const total = p_accumulate(view, 0L);

    if (this_location() == 0) {
      std::printf("pa[42] = %d, pa[7] = %d (+%d) (expect 42 and 7)\n", v42,
                  v7, local_work > 0 ? 0 : 1);
      std::printf("sum of 2*0..2*99 = %ld (expect 9900)\n", total);
      std::printf("locations: %u, local elements here: %zu\n",
                  num_locations(), pa.local_size());
      ok &= v42 == 42 && v7 == 7 && total == 9900;
    }
    rmi_fence();
  });
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
