// 1D heat diffusion: a stencil computation exercising the overlap-view
// pattern (Fig. 2) and double-buffered pArrays — the kind of scientific
// kernel the pView layer is designed for.
//
// Run: ./heat_stencil [num_locations] [cells] [steps]
// Exits non-zero when the total heat is not conserved.

#include "algorithms/p_algorithms.hpp"
#include "containers/p_array.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

int main(int argc, char** argv)
{
  unsigned const p = argc > 1 ? std::atoi(argv[1]) : 4;
  std::size_t const n = argc > 2 ? (std::size_t)std::atoll(argv[2]) : 1000;
  std::size_t const steps = argc > 3 ? (std::size_t)std::atoll(argv[3]) : 200;
  bool ok = true; // written by location 0 only

  stapl::execute(p, [n, steps, &ok] {
    using namespace stapl;

    p_array<double> a(n, 0.0), b(n, 0.0);
    // Hot spot in the middle.
    if (this_location() == 0)
      a.set_element(n / 2, 1000.0);
    rmi_fence();

    p_array<double>* cur = &a;
    p_array<double>* nxt = &b;
    double const alpha = 0.25;

    for (std::size_t s = 0; s < steps; ++s) {
      array_1d_view cv(*cur);
      // Each location updates its own elements reading the 3-point window;
      // only block-boundary reads communicate (the overlap pattern).
      for (auto g : cv.local_gids()) {
        double const left = g > 0 ? cv.read(g - 1) : cv.read(g);
        double const mid = *cv.try_local_ref(g);
        double const right = g + 1 < n ? cv.read(g + 1) : cv.read(g);
        nxt->local_element(g) = mid + alpha * (left - 2 * mid + right);
      }
      rmi_fence();
      std::swap(cur, nxt);
    }

    double const total = p_accumulate(array_1d_view(*cur), 0.0);
    auto mx = p_max_element(array_1d_view(*cur));
    if (this_location() == 0 && mx) {
      std::printf("after %zu steps: total heat %.3f (conserved ~1000), "
                  "peak %.3f at cell %zu\n",
                  steps, total, mx->second, mx->first);
      ok &= std::abs(total - 1000.0) < 1e-6;
    }
    rmi_fence();
  });
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
