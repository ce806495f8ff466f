// Graph analytics with the pGraph (Ch. XI): build a mesh and an SSCA2-style
// graph, run BFS, connected components and PageRank.
//
// Run: ./graph_analytics [num_locations]
// Exits non-zero when a result differs from the expectation it prints.

#include "algorithms/graph_algorithms.hpp"
#include "containers/graph_generators.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

int main(int argc, char** argv)
{
  unsigned const p = argc > 1 ? std::atoi(argv[1]) : 4;
  bool ok = true; // written by location 0 only

  stapl::execute(p, [&ok] {
    using namespace stapl;

    // BFS on a 40x25 mesh.
    {
      p_graph<DIRECTED, NONMULTI, bfs_property, no_property> mesh(1000);
      generate_mesh(mesh, 40, 25);
      auto const visited = bfs_levels(mesh, 0);
      long max_level = 0;
      mesh.for_each_local_vertex([&](vertex_descriptor, auto& rec) {
        max_level = std::max(max_level, rec.property.level);
      });
      max_level = allreduce(max_level, [](long a, long b) {
        return std::max(a, b);
      });
      if (this_location() == 0) {
        std::printf("BFS: visited %zu vertices, eccentricity %ld "
                    "(expect 1000 and 63 for 40x25)\n",
                    visited, max_level);
        ok &= visited == 1000 && max_level == 63;
      }
    }

    // Connected components on a 3-component forest.
    {
      p_graph<UNDIRECTED, NONMULTI, cc_property, no_property> g(300);
      if (this_location() == 0)
        for (std::size_t v = 0; v < 300; ++v)
          if ((v + 1) % 100 != 0)
            g.add_edge_async(v, v + 1);
      rmi_fence();
      auto const ncc = connected_components(g);
      if (this_location() == 0) {
        std::printf("connected components: %zu (expect 3)\n", ncc);
        ok &= ncc == 3;
      }
    }

    // PageRank on an SSCA2-style clique graph.
    {
      p_graph<DIRECTED, NONMULTI, pagerank_property, no_property> g(512);
      generate_ssca2(g, 512, 8, 0.2);
      page_rank(g, 15);
      double const mass = total_rank(g); // collective
      if (this_location() == 0) {
        std::printf("PageRank total mass: %.6f (expect ~1.0)\n", mass);
        ok &= std::abs(mass - 1.0) < 1e-6;
      }
    }
    rmi_fence();
  });
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
