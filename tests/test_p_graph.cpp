// Tests for the pGraph (Ch. XI): static vs dynamic partitions, method
// forwarding vs no-forwarding address translation, vertex/edge methods,
// directedness/multiplicity semantics, graph views and the generators.

#include "containers/graph_generators.hpp"
#include "containers/p_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace {

using namespace stapl;

using static_digraph = p_graph<DIRECTED, MULTI, int, int>;

class PGraphStatic : public ::testing::TestWithParam<unsigned> {};

TEST_P(PGraphStatic, ConstructionPreCreatesVertices)
{
  execute(GetParam(), [] {
    static_digraph g(50);
    EXPECT_TRUE(g.is_static());
    EXPECT_EQ(g.get_num_vertices(), 50u);
    EXPECT_EQ(g.get_num_edges(), 0u);
    for (vertex_descriptor v : {0u, 24u, 49u})
      EXPECT_TRUE(g.find_vertex(v));
    EXPECT_FALSE(g.find_vertex(50));
    rmi_fence();
  });
}

TEST_P(PGraphStatic, AddFindDeleteEdges)
{
  execute(GetParam(), [] {
    static_digraph g(20);
    if (this_location() == 0) {
      g.add_edge_async(0, 5);
      g.add_edge_async(5, 10, 42);
      g.add_edge_async(19, 0);
    }
    rmi_fence();
    EXPECT_EQ(g.get_num_edges(), 3u);
    EXPECT_TRUE(g.find_edge(0, 5));
    EXPECT_TRUE(g.find_edge(5, 10));
    EXPECT_FALSE(g.find_edge(10, 5)); // directed
    EXPECT_EQ(g.out_degree(5), 1u);
    rmi_fence();
    if (this_location() == 0)
      g.delete_edge(0, 5);
    rmi_fence();
    EXPECT_FALSE(g.find_edge(0, 5));
    EXPECT_EQ(g.get_num_edges(), 2u);
    rmi_fence();
  });
}

TEST_P(PGraphStatic, VertexProperties)
{
  execute(GetParam(), [] {
    static_digraph g(16);
    // Everyone sets the properties of its own vertex id range via the
    // shared-object view.
    for (vertex_descriptor v = this_location(); v < 16; v += num_locations())
      g.set_vertex_property(v, static_cast<int>(v * 10));
    rmi_fence();
    for (vertex_descriptor v = 0; v < 16; ++v)
      EXPECT_EQ(g.get_vertex_property(v), static_cast<int>(v * 10));
    // A slower location may still be reading vertex 3 above: fence before
    // mutating it.
    rmi_fence();
    // apply_vertex mutates in place.
    if (this_location() == 0)
      g.apply_vertex(3, [](auto& rec) { rec.property += 1; });
    rmi_fence();
    EXPECT_EQ(g.get_vertex_property(3), 31);
    rmi_fence();
  });
}

TEST_P(PGraphStatic, UndirectedEdgesAreMirrored)
{
  execute(GetParam(), [] {
    p_graph<UNDIRECTED, MULTI, no_property, no_property> g(10);
    if (this_location() == 0)
      g.add_edge_async(2, 7);
    rmi_fence();
    EXPECT_TRUE(g.find_edge(2, 7));
    EXPECT_TRUE(g.find_edge(7, 2));
    EXPECT_EQ(g.get_num_edges(), 1u); // one undirected edge
    rmi_fence();
    if (this_location() == 0)
      g.delete_edge(2, 7);
    rmi_fence();
    EXPECT_FALSE(g.find_edge(7, 2));
    rmi_fence();
  });
}

TEST_P(PGraphStatic, NonMultiRejectsDuplicates)
{
  execute(GetParam(), [] {
    p_graph<DIRECTED, NONMULTI, no_property, no_property> g(5);
    // Everyone inserts the same edge; only one copy may exist.
    g.add_edge_async(1, 2);
    g.add_edge_async(1, 2);
    rmi_fence();
    EXPECT_EQ(g.get_num_edges(), 1u);
    EXPECT_EQ(g.out_degree(1), 1u);

    p_graph<DIRECTED, MULTI, no_property, no_property> gm(5);
    gm.add_edge_async(1, 2);
    gm.add_edge_async(1, 2);
    rmi_fence();
    EXPECT_EQ(gm.get_num_edges(), 2u * num_locations());
    rmi_fence();
  });
}

INSTANTIATE_TEST_SUITE_P(Locations, PGraphStatic, ::testing::Values(1, 2, 4));

// ---------------------------------------------------------------------------
// Dynamic graphs: forwarding vs no-forwarding address translation
// ---------------------------------------------------------------------------

class PGraphDynamic
    : public ::testing::TestWithParam<std::tuple<unsigned, int>> {
 public:
  [[nodiscard]] static graph_partition_kind kind_of(int k)
  {
    return k == 0 ? graph_partition_kind::dynamic_forwarding
                  : graph_partition_kind::dynamic_no_forwarding;
  }
};

TEST_P(PGraphDynamic, AddVerticesAutoDescriptors)
{
  auto const [p, k] = GetParam();
  auto const kind = kind_of(k);
  execute(p, [kind] {
    p_graph<DIRECTED, MULTI, int, no_property> g(kind);
    std::vector<vertex_descriptor> mine;
    for (int i = 0; i < 10; ++i)
      mine.push_back(g.add_vertex(static_cast<int>(i)));
    rmi_fence();
    EXPECT_EQ(g.get_num_vertices(), 10u * num_locations());
    // Own vertices are local and readable.
    for (std::size_t i = 0; i < mine.size(); ++i)
      EXPECT_EQ(g.get_vertex_property(mine[i]), static_cast<int>(i));
    // Remote vertices are reachable through the directory.
    auto theirs = broadcast(
        (this_location() + 1) % num_locations() == 0 && num_locations() == 1
            ? 0u
            : 0u,
        mine[3]);
    EXPECT_EQ(g.get_vertex_property(theirs), 3);
    rmi_fence();
  });
}

TEST_P(PGraphDynamic, ExplicitDescriptorsAndEdges)
{
  auto const [p, k] = GetParam();
  auto const kind = kind_of(k);
  execute(p, [kind] {
    p_graph<DIRECTED, MULTI, int, int> g(kind);
    // Everyone adds a disjoint range of explicit vertex ids.
    std::size_t const base = 100 * this_location();
    for (std::size_t i = 0; i < 20; ++i)
      g.add_vertex(base + i, static_cast<int>(base + i));
    rmi_fence();
    EXPECT_EQ(g.get_num_vertices(), 20u * num_locations());

    // Cross-location edges: vertex i on loc l -> vertex i on loc l+1.
    std::size_t const next_base = 100 * ((this_location() + 1) % num_locations());
    for (std::size_t i = 0; i < 20; ++i)
      g.add_edge_async(base + i, next_base + i, 1);
    rmi_fence();
    EXPECT_EQ(g.get_num_edges(), 20u * num_locations());

    // Read a remote vertex property through the directory.
    EXPECT_EQ(g.get_vertex_property(next_base + 7),
              static_cast<int>(next_base + 7));
    EXPECT_TRUE(g.find_edge(base + 7, next_base + 7));
    rmi_fence();
  });
}

TEST_P(PGraphDynamic, DeleteVertexRemovesIt)
{
  auto const [p, k] = GetParam();
  auto const kind = kind_of(k);
  execute(p, [kind] {
    p_graph<DIRECTED, MULTI, int, no_property> g(kind);
    // Location 0 stores three vertices and deletes the middle one, so the
    // last one moves into the freed slot.
    if (this_location() == 0)
      for (vertex_descriptor v = 1000; v != 1003; ++v)
        g.add_vertex(v, static_cast<int>(v - 995));
    rmi_fence();
    if (this_location() == 0) {
      g.add_edge_async(1000, 1002);
      g.add_edge_async(1001, 1000);
      g.add_edge_async(1002, 1000);
      g.add_edge_async(1002, 1001);
    }
    rmi_fence();
    EXPECT_TRUE(g.find_vertex(1001));
    rmi_fence();
    if (this_location() == 0)
      g.delete_vertex(1001);
    rmi_fence();
    EXPECT_FALSE(g.find_vertex(1001));
    EXPECT_EQ(g.get_num_vertices(), 2u);
    EXPECT_EQ(g.get_num_edges(), 3u); // in-edges elsewhere are not chased
    EXPECT_EQ(g.get_vertex_property(1000), 5);
    EXPECT_EQ(g.get_vertex_property(1002), 7);
    EXPECT_EQ(g.out_edges(1000), std::vector<vertex_descriptor>{1002});
    EXPECT_EQ(g.out_edges(1002), (std::vector<vertex_descriptor>{1000, 1001}));
    rmi_fence();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Modes, PGraphDynamic,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(0, 1)));

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

class GeneratorTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(GeneratorTest, MeshDegreesAndCounts)
{
  execute(GetParam(), [] {
    p_graph<UNDIRECTED, NONMULTI, int, no_property> g(12 * 5);
    generate_mesh(g, 12, 5);
    EXPECT_EQ(g.get_num_vertices(), 60u);
    // Undirected mesh edges: r*(c-1) + (r-1)*c.
    EXPECT_EQ(g.get_num_edges(), 12u * 4 + 11u * 5);
    // Corner vertex 0 has degree 2.
    EXPECT_EQ(g.out_degree(0), 2u);
    rmi_fence();
  });
}

TEST_P(GeneratorTest, TorusIsRegular)
{
  execute(GetParam(), [] {
    p_graph<DIRECTED, NONMULTI, no_property, no_property> g(6 * 4);
    generate_torus(g, 6, 4);
    EXPECT_EQ(g.get_num_vertices(), 24u);
    EXPECT_EQ(g.get_num_edges(), 2u * 24);
    for (vertex_descriptor v : {0u, 13u, 23u})
      EXPECT_EQ(g.out_degree(v), 2u);
    rmi_fence();
  });
}

TEST_P(GeneratorTest, BinaryTreeStructure)
{
  execute(GetParam(), [] {
    p_graph<DIRECTED, NONMULTI, int, no_property> g(31);
    generate_binary_tree(g, 31);
    EXPECT_EQ(g.get_num_edges(), 30u); // tree: n-1 edges
    EXPECT_EQ(g.out_degree(0), 2u);
    EXPECT_EQ(g.out_degree(15), 0u); // leaf
    EXPECT_TRUE(g.find_edge(7, 15));
    rmi_fence();
  });
}

TEST_P(GeneratorTest, Ssca2CliqueStructure)
{
  execute(GetParam(), [] {
    p_graph<DIRECTED, NONMULTI, int, no_property> g(64);
    generate_ssca2(g, 64, 8, 0.25);
    EXPECT_EQ(g.get_num_vertices(), 64u);
    // Intra-clique edges alone: 8 cliques x 8*7 directed edges.
    EXPECT_GE(g.get_num_edges(), 8u * 8 * 7);
    // All intra-clique edges of vertex 0's clique exist.
    for (vertex_descriptor w = 1; w < 8; ++w)
      EXPECT_TRUE(g.find_edge(0, w));
    EXPECT_FALSE(g.find_edge(0, 0));
    rmi_fence();
  });
}

TEST_P(GeneratorTest, DagLayersHaveNoBackEdges)
{
  execute(GetParam(), [] {
    p_graph<DIRECTED, MULTI, int, no_property> g(5 * 8);
    generate_dag(g, 5, 8, 2);
    EXPECT_EQ(g.get_num_vertices(), 40u);
    // Last layer vertices have no out-edges.
    for (vertex_descriptor v = 32; v < 40; ++v)
      EXPECT_EQ(g.out_degree(v), 0u);
    // All other layers have out-degree 2 into the next layer.
    for (vertex_descriptor v = 0; v < 32; v += 7) {
      auto const ts = g.out_edges(v);
      EXPECT_EQ(ts.size(), 2u);
      for (auto t : ts)
        EXPECT_EQ(t / 8, v / 8 + 1);
    }
    rmi_fence();
  });
}

INSTANTIATE_TEST_SUITE_P(Locations, GeneratorTest, ::testing::Values(1, 2, 4));

// ---------------------------------------------------------------------------
// Graph views (Fig. 48)
// ---------------------------------------------------------------------------

TEST(GraphViews, InnerAndBoundaryPartitionLocalVertices)
{
  execute(4, [] {
    p_graph<DIRECTED, NONMULTI, int, no_property> g(32);
    // Chain 0 -> 1 -> ... -> 31: only block-boundary vertices have remote
    // targets under the balanced static partition (8 per location).
    auto const [lo, hi] = std::pair<std::size_t, std::size_t>(
        8 * this_location(), 8 * this_location() + 8);
    for (std::size_t v = lo; v < hi; ++v)
      if (v + 1 < 32)
        g.add_edge_async(v, v + 1);
    rmi_fence();

    graph_inner_view iv(g);
    graph_boundary_view bv(g);
    auto inner = iv.local_gids();
    auto boundary = bv.local_gids();
    EXPECT_EQ(inner.size() + boundary.size(), 8u);
    // Exactly one boundary vertex per location except the last.
    if (this_location() + 1 < num_locations())
      EXPECT_EQ(boundary.size(), 1u);
    else
      EXPECT_EQ(boundary.size(), 0u);
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Vertex storage (Fig. 16): by offset when static, by index when dynamic
// ---------------------------------------------------------------------------

TEST(GraphStorage, StaticGraphEdgesAndProperties)
{
  execute(4, [] {
    static_digraph g(64);
    EXPECT_EQ(g.get_num_vertices(), 64u);
    // Chain edges + properties through the shared-object view.
    if (this_location() == 0)
      for (vertex_descriptor v = 0; v + 1 < 64; ++v)
        g.add_edge_async(v, v + 1, static_cast<int>(v));
    for (vertex_descriptor v = this_location(); v < 64; v += num_locations())
      g.set_vertex_property(v, static_cast<int>(v * 2));
    rmi_fence();
    EXPECT_EQ(g.get_num_edges(), 63u);
    for (vertex_descriptor v = 0; v < 64; v += 7) {
      EXPECT_EQ(g.get_vertex_property(v), static_cast<int>(v * 2));
      if (v + 1 < 64) {
        EXPECT_TRUE(g.find_edge(v, v + 1));
      }
    }
    // Every location stores exactly its slice of [0, 64).
    std::vector<vertex_descriptor> const mine = g.local_gids();
    ASSERT_EQ(mine.size(), 16u);
    for (std::size_t i = 0; i != mine.size(); ++i)
      EXPECT_EQ(mine[i], 16 * this_location() + i);
    rmi_fence();
    // add_vertex on a static graph only sets the property.
    if (this_location() == 0)
      g.add_vertex(63, -1);
    // delete_edge keeps out_degree consistent.
    if (this_location() == 1)
      g.delete_edge(10, 11);
    rmi_fence();
    EXPECT_EQ(g.get_num_vertices(), 64u);
    EXPECT_EQ(g.get_vertex_property(63), -1);
    EXPECT_FALSE(g.find_edge(10, 11));
    EXPECT_EQ(g.out_degree(10), 0u);
    rmi_fence();
  });
}

TEST(GraphStorage, StaticAndDynamicGraphsAgreeOnSsca2)
{
  // The same SSCA2 input must produce the same structure in a static graph
  // (vertices by offset) and a dynamic one (vertices by index).
  execute(4, [] {
    using G = p_graph<DIRECTED, NONMULTI, int, no_property>;
    G gs(128);
    G gd(graph_partition_kind::dynamic_forwarding);
    generate_ssca2(gs, 128, 8, 0.2);
    generate_ssca2(gd, 128, 8, 0.2);
    EXPECT_EQ(gd.get_num_vertices(), 128u);
    EXPECT_EQ(gs.get_num_edges(), gd.get_num_edges());
    for (vertex_descriptor v = 0; v < 128; v += 11) {
      auto es = gs.out_edges(v), ed = gd.out_edges(v);
      std::sort(es.begin(), es.end());
      std::sort(ed.begin(), ed.end());
      EXPECT_EQ(es, ed) << "vertex " << v;
    }
    rmi_fence();
  });
}

TEST(GraphViews, VerticesViewRunsAlgorithms)
{
  execute(4, [] {
    p_graph<DIRECTED, NONMULTI, long, no_property> g(40);
    graph_vertices_view vv(g);
    // Initialize every vertex property to 2 via the view.
    for (auto v : vv.local_gids())
      vv.write(v, 2);
    rmi_fence();
    long total = 0;
    for (auto v : vv.local_gids())
      total += vv.read(v);
    EXPECT_EQ(allreduce(total, std::plus<>{}), 80L);
    rmi_fence();
  });
}

} // namespace
