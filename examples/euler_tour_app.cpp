// Euler tour application (Ch. X.H): root a tree, compute vertex levels and
// postorder numbers with the Euler tour technique + parallel list ranking.
//
// Run: ./euler_tour_app [num_locations] [tree_vertices]
// Exits non-zero when a result differs from the expectation it prints.

#include "algorithms/euler_tour.hpp"
#include "runtime/timer.hpp"

#include <cstdio>
#include <cstdlib>

int main(int argc, char** argv)
{
  unsigned const p = argc > 1 ? std::atoi(argv[1]) : 4;
  std::size_t const n = argc > 2 ? (std::size_t)std::atoll(argv[2]) : 1023;
  bool ok = true; // written by location 0 only

  stapl::execute(p, [n, &ok] {
    using namespace stapl;

    euler_tour_results results(n);
    auto tm = start_timer();
    euler_tour_applications(n, results);
    double const t = stop_timer(tm);

    if (this_location() == 0) {
      std::printf("Euler tour over binary tree with %zu vertices: %.3fs\n",
                  n, t);
      std::printf("vertex  parent  level  postorder\n");
      for (gid1d v = 0; v < std::min<std::size_t>(n, 15); ++v)
        std::printf("%6zu %7zu %6ld %10ld\n", v,
                    results.parent.get_element(v),
                    results.level.get_element(v),
                    results.postorder.get_element(v));
      long const root_post = results.postorder.get_element(0);
      std::printf("root postorder = %ld (expect %zu)\n", root_post, n);
      ok &= root_post == static_cast<long>(n);
    }
    rmi_fence();
  });
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
