#ifndef STAPL_CONTAINERS_GRAPH_GENERATORS_HPP
#define STAPL_CONTAINERS_GRAPH_GENERATORS_HPP

// Graph workload generators for the Ch. XI evaluation:
//   * SSCA2-style generator (Figs. 49/50/51): a collection of cliques with
//     sparse inter-clique edges — the structure class produced by the SSCA#2
//     benchmark generator the dissertation uses;
//   * 2D mesh (Fig. 56 PageRank inputs: square vs elongated);
//   * 2D torus;
//   * balanced binary tree / forest of binary trees (Euler tour, Figs. 43/44);
//   * uniform random (Erdos-Renyi style) directed graphs.
//
// All generators are SPMD collectives: every location adds its share of the
// vertex range [0, n) as explicit descriptors, fences, then adds edges.

#include <cstddef>
#include <random>

#include "../runtime/runtime.hpp"
#include "p_graph.hpp"

namespace stapl {

namespace generator_detail {

/// The slice of [0, n) this location is responsible for creating.
inline std::pair<std::size_t, std::size_t> my_slice(std::size_t n)
{
  auto const [lo, sz] = split1d(n, num_locations(), this_location());
  return {lo, lo + sz};
}

/// Adds vertices [lo, hi) on this location (skipped for static graphs,
/// which pre-create their vertex set).
template <typename G>
void add_vertex_range(G& g, std::size_t lo, std::size_t hi)
{
  if (!g.is_static())
    for (std::size_t v = lo; v < hi; ++v)
      g.add_vertex(v, typename G::vertex_property{});
  rmi_fence();
}

} // namespace generator_detail

/// SSCA2-style generator: n vertices grouped into cliques of size up to
/// `max_clique`, fully connected inside the clique, plus inter-clique edges
/// with probability `inter_prob` between consecutive cliques.
template <typename G>
void generate_ssca2(G& g, std::size_t n, std::size_t max_clique = 8,
                    double inter_prob = 0.2, unsigned seed = 17)
{
  auto const [lo, hi] = generator_detail::my_slice(n);
  generator_detail::add_vertex_range(g, lo, hi);

  // Clique membership is a pure function of the vertex id, so locations can
  // generate edges independently: clique k covers [k*max_clique, ...).
  std::mt19937 gen(seed + this_location());
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (std::size_t v = lo; v < hi; ++v) {
    std::size_t const k = v / max_clique;
    std::size_t const clique_lo = k * max_clique;
    std::size_t const clique_hi = std::min(clique_lo + max_clique, n);
    for (std::size_t w = clique_lo; w < clique_hi; ++w)
      if (w != v)
        g.add_edge_async(v, w);
    // Sparse edge into the next clique.
    if (clique_hi < n && coin(gen) < inter_prob)
      g.add_edge_async(v, clique_hi + (v % max_clique) % (n - clique_hi));
  }
  rmi_fence();
}

/// 2D mesh: vertex (i, j) = i*cols + j, 4-neighbourhood edges
/// (the Fig. 56 PageRank input; rows x cols controls the aspect ratio).
template <typename G>
void generate_mesh(G& g, std::size_t rows, std::size_t cols)
{
  std::size_t const n = rows * cols;
  auto const [lo, hi] = generator_detail::my_slice(n);
  generator_detail::add_vertex_range(g, lo, hi);

  for (std::size_t v = lo; v < hi; ++v) {
    std::size_t const i = v / cols, j = v % cols;
    if (j + 1 < cols)
      g.add_edge_async(v, v + 1);
    if (i + 1 < rows)
      g.add_edge_async(v, v + cols);
    if constexpr (G::is_directed) { // directed meshes get both directions
      if (j > 0)
        g.add_edge_async(v, v - 1);
      if (i > 0)
        g.add_edge_async(v, v - cols);
    }
  }
  rmi_fence();
}

/// 2D torus: mesh plus wrap-around edges.
template <typename G>
void generate_torus(G& g, std::size_t rows, std::size_t cols)
{
  std::size_t const n = rows * cols;
  auto const [lo, hi] = generator_detail::my_slice(n);
  generator_detail::add_vertex_range(g, lo, hi);

  for (std::size_t v = lo; v < hi; ++v) {
    std::size_t const i = v / cols, j = v % cols;
    g.add_edge_async(v, i * cols + (j + 1) % cols);
    g.add_edge_async(v, ((i + 1) % rows) * cols + j);
  }
  rmi_fence();
}

/// Balanced binary tree rooted at 0: children of v are 2v+1 and 2v+2.
template <typename G>
void generate_binary_tree(G& g, std::size_t n)
{
  auto const [lo, hi] = generator_detail::my_slice(n);
  generator_detail::add_vertex_range(g, lo, hi);

  for (std::size_t v = lo; v < hi; ++v) {
    if (2 * v + 1 < n)
      g.add_edge_async(v, 2 * v + 1);
    if (2 * v + 2 < n)
      g.add_edge_async(v, 2 * v + 2);
  }
  rmi_fence();
}

/// Uniform random directed graph: every vertex gets `degree` out-edges to
/// uniformly random targets (the dynamic-methods workload of Fig. 49).
template <typename G>
void generate_random(G& g, std::size_t n, std::size_t degree,
                     unsigned seed = 23)
{
  auto const [lo, hi] = generator_detail::my_slice(n);
  generator_detail::add_vertex_range(g, lo, hi);

  std::mt19937 gen(seed + this_location());
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  for (std::size_t v = lo; v < hi; ++v)
    for (std::size_t d = 0; d < degree; ++d) {
      std::size_t w = pick(gen);
      if (w == v)
        w = (w + 1) % n;
      g.add_edge_async(v, w);
    }
  rmi_fence();
}

/// Directed acyclic layered graph: `layers` layers of `width` vertices; each
/// vertex has edges to random vertices of the next layer.  Sources are
/// exactly the first layer (the find_sources workload of Fig. 51).
template <typename G>
void generate_dag(G& g, std::size_t layers, std::size_t width,
                  std::size_t degree = 2, unsigned seed = 29)
{
  std::size_t const n = layers * width;
  auto const [lo, hi] = generator_detail::my_slice(n);
  generator_detail::add_vertex_range(g, lo, hi);

  std::mt19937 gen(seed + this_location());
  for (std::size_t v = lo; v < hi; ++v) {
    std::size_t const layer = v / width;
    if (layer + 1 == layers)
      continue;
    // One deterministic same-column edge guarantees every vertex of layers
    // 1..L-1 has in-degree >= 1 (sources are exactly the first layer).
    g.add_edge_async(v, v + width);
    for (std::size_t d = 1; d < degree; ++d) {
      std::size_t const w = (layer + 1) * width + gen() % width;
      g.add_edge_async(v, w);
    }
  }
  rmi_fence();
}

} // namespace stapl

#endif
