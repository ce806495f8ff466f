// Fig. 56: PageRank on two input meshes of the same vertex count but
// different aspect ratios (paper: 1500x1500 vs 15x150000).  With row-major
// vertex numbering and 1D blocked distribution, the elongated (tall-narrow)
// mesh cuts only ~width edges per location boundary while the square mesh
// cuts ~sqrt(n).  PageRank's edge pass sends each neighbouring location one
// message per iteration on both meshes, but the elongated mesh's messages
// carry ~width shares instead of ~sqrt(n), so it communicates less per
// iteration and runs faster at P = 4 and 8 — the aspect-ratio effect the
// figure reports.  At P = 2 the one cut boundary is too little traffic to
// tell the meshes apart from run-to-run noise, and at P = 1 nothing is
// sent.  Each cell is the median of five runs, since a cell takes only
// milliseconds.  Total rank stays ~1 for both (mass conservation).

#include "algorithms/graph_algorithms.hpp"
#include "bench_common.hpp"
#include "containers/graph_generators.hpp"

#include <algorithm>
#include <array>
#include <atomic>

namespace {

/// Median over five runs of a 20-iteration page_rank on `g`.
template <typename G>
[[nodiscard]] double median_page_rank_s(G& g)
{
  std::array<double, 5> t{};
  for (double& s : t)
    s = bench::timed_kernel([&] { stapl::page_rank(g, 20); });
  std::nth_element(t.begin(), t.begin() + 2, t.end());
  return t[2];
}

} // namespace

int main(int argc, char** argv)
{
  bench::init(argc, argv);
  using namespace stapl;
  std::printf("# Fig. 56 — PageRank: square vs elongated mesh\n");
  bench::table_header("20 iterations (seconds, median of 5 runs)",
                      {"locations", "square", "elongated", "rank_sq",
                       "rank_el"});

  for (unsigned p : bench::default_locations) {
    std::size_t side = 60 * static_cast<std::size_t>(
                                std::sqrt(static_cast<double>(p)));
    side *= bench::scale() == 1 ? 1 : 2;
    std::size_t const n = side * side;
    std::atomic<double> tsq{0}, tel{0}, rsq{0}, rel{0};
    execute(p, [&] {
      {
        p_graph<DIRECTED, NONMULTI, pagerank_property, no_property> g(n);
        generate_mesh(g, side, side); // square
        double const t = median_page_rank_s(g);
        double const r = total_rank(g);
        if (this_location() == 0) {
          tsq.store(t);
          rsq.store(r);
        }
      }
      {
        // Elongated: tall and narrow (the 15x150000 aspect ratio,
        // transposed into the row-major numbering so strips align).
        std::size_t const cols = 15;
        std::size_t const rows = n / cols;
        p_graph<DIRECTED, NONMULTI, pagerank_property, no_property> g(rows *
                                                                      cols);
        generate_mesh(g, rows, cols); // elongated
        double const t = median_page_rank_s(g);
        double const r = total_rank(g);
        if (this_location() == 0) {
          tel.store(t);
          rel.store(r);
        }
      }
    });
    bench::cell(static_cast<std::size_t>(p));
    bench::cell(tsq.load());
    bench::cell(tel.load());
    bench::cell(rsq.load());
    bench::cell(rel.load());
    bench::endrow();
  }
  return 0;
}
