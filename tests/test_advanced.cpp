// Integration tests across modules: redistribution (Ch. V.G), composition
// (Ch. IV.C/XIII), graph algorithms (Ch. XI.F), the Euler tour technique
// (Ch. X.H) and MapReduce (Ch. XII.C).

#include "algorithms/euler_tour.hpp"
#include "algorithms/graph_algorithms.hpp"
#include "algorithms/map_reduce.hpp"
#include "algorithms/p_algorithms.hpp"
#include "containers/graph_generators.hpp"
#include "containers/p_array.hpp"
#include "containers/p_list.hpp"
#include "core/composition.hpp"
#include "core/redistribution.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

namespace {

using namespace stapl;

// ---------------------------------------------------------------------------
// Redistribution (Ch. V.G)
// ---------------------------------------------------------------------------

TEST(Redistribution, BalancedToBlockCyclicPreservesContent)
{
  execute(4, [] {
    p_array<int, block_cyclic_partition> pa(
        96, block_cyclic_partition(num_locations(), 8));
    p_for_each_gid(array_1d_view(pa),
                   [](gid1d g, int& x) { x = static_cast<int>(g * 3); });
    // Re-partition with a different block size (metadata + data move).
    redistribute(pa, block_cyclic_partition(2 * num_locations(), 4),
                 blocked_mapper{});
    EXPECT_EQ(pa.partition().size(), 2 * num_locations());
    for (gid1d g = 0; g < 96; ++g)
      EXPECT_EQ(pa.get_element(g), static_cast<int>(g * 3));
    rmi_fence();
  });
}

TEST(Redistribution, RebalanceAfterExplicitSkew)
{
  execute(4, [] {
    // All data initially on location 0 (one big block + empties).
    std::vector<std::size_t> sizes(num_locations(), 0);
    sizes[0] = 80;
    p_array<int, explicit_partition> pa(80, explicit_partition(sizes));
    EXPECT_EQ(allreduce(pa.local_size(), std::plus<>{}), 80u);
    if (this_location() == 0) {
      EXPECT_EQ(pa.local_size(), 80u);
    }
    p_for_each_gid(array_1d_view(pa),
                   [](gid1d g, int& x) { x = static_cast<int>(g); });

    redistribute(pa,
                 explicit_partition(std::vector<std::size_t>(
                     num_locations(), 80 / num_locations())),
                 blocked_mapper{});
    EXPECT_EQ(pa.local_size(), 80u / num_locations());
    for (gid1d g = 0; g < 80; g += 7)
      EXPECT_EQ(pa.get_element(g), static_cast<int>(g));
    rmi_fence();
  });
}

TEST(Redistribution, RotateShiftsBlocks)
{
  execute(4, [] {
    p_array<int, balanced_partition, relocatable_array_traits<int>> pa(64);
    p_for_each_gid(array_1d_view(pa),
                   [](gid1d g, int& x) { x = static_cast<int>(g); });
    auto const owner_before = pa.lookup(0);
    rotate(pa, 1);
    auto const owner_after = pa.lookup(0);
    EXPECT_EQ(owner_after, (owner_before + 1) % num_locations());
    for (gid1d g = 0; g < 64; g += 5)
      EXPECT_EQ(pa.get_element(g), static_cast<int>(g));
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Composition (Ch. IV.C / XIII)
// ---------------------------------------------------------------------------

TEST(Composition, ComposedArrayOfArrays)
{
  execute(2, [] {
    // The Ch. IV.C example: pApA(3) with nested sizes 2, 3, 4.
    p_array<std::vector<int>> pApA(3);
    if (this_location() == 0) {
      resize_nested(pApA, 0, 2);
      resize_nested(pApA, 1, 3);
      resize_nested(pApA, 2, 4);
    }
    rmi_fence();
    EXPECT_EQ(nested_size(pApA, 0), 2u);
    EXPECT_EQ(nested_size(pApA, 1), 3u);
    EXPECT_EQ(nested_size(pApA, 2), 4u);

    // Composed domain == Eq. 4.2 enumeration.
    auto dom = composed_domain(pApA);
    EXPECT_EQ(dom.size(), 9u);
    std::vector<gid_nested> expect{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 2},
                                   {2, 0}, {2, 1}, {2, 2}, {2, 3}};
    // Order within the gathered domain follows location order; compare as
    // sets.
    for (auto const& g : expect)
      EXPECT_NE(std::find(dom.begin(), dom.end(), g), dom.end());

    // Composed access: get_element(1).get_element(0) equivalent.
    if (this_location() == 0)
      set_nested(pApA, 1, 0, 77);
    rmi_fence();
    EXPECT_EQ(get_nested(pApA, 1, 0), 77);
    rmi_fence();
  });
}

TEST(Composition, RowMinimumAcrossRepresentations)
{
  execute(4, [] {
    std::size_t const rows = 4 * num_locations(), cols = 16;
    // pArray<pArray>.
    p_array<std::vector<long>> pa(rows);
    array_1d_view pav(pa);
    p_for_each_gid(pav, [cols](gid1d r, std::vector<long>& row) {
      row.resize(cols);
      for (std::size_t c = 0; c < cols; ++c)
        row[c] = static_cast<long>((r * 31 + c * 17) % 101);
    });
    // Row minima through composed access.
    p_array<long> mins(rows);
    p_for_each_gid(array_1d_view(mins), [&pa](gid1d r, long& m) {
      m = pa.apply_get(r, [](std::vector<long> const& row) {
        return *std::min_element(row.begin(), row.end());
      });
    });
    // Reference.
    for (gid1d r = 0; r < rows; r += 5) {
      long expect = std::numeric_limits<long>::max();
      for (std::size_t c = 0; c < cols; ++c)
        expect = std::min(expect, static_cast<long>((r * 31 + c * 17) % 101));
      EXPECT_EQ(mins.get_element(r), expect);
    }
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Graph algorithms (Ch. XI.F.3-4)
// ---------------------------------------------------------------------------

class GraphAlgoTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(GraphAlgoTest, BfsLevelsOnBinaryTree)
{
  execute(GetParam(), [] {
    std::size_t const n = 63; // complete tree of depth 5
    p_graph<DIRECTED, NONMULTI, bfs_property, no_property> g(n);
    generate_binary_tree(g, n);
    auto const visited = bfs_levels(g, 0);
    EXPECT_EQ(visited, n);
    // level(v) == floor(log2(v+1)).
    g.for_each_local_vertex([](vertex_descriptor v, auto& rec) {
      long expect = 0;
      for (std::size_t x = v + 1; x > 1; x /= 2)
        ++expect;
      EXPECT_EQ(rec.property.level, expect) << "vertex " << v;
    });
    rmi_fence();
  });
}

TEST_P(GraphAlgoTest, BfsUnreachableVerticesStayUnvisited)
{
  execute(GetParam(), [] {
    p_graph<DIRECTED, NONMULTI, bfs_property, no_property> g(10);
    if (this_location() == 0) {
      g.add_edge_async(0, 1);
      g.add_edge_async(1, 2);
    }
    rmi_fence();
    EXPECT_EQ(bfs_levels(g, 0), 3u);
    g.for_each_local_vertex([](vertex_descriptor v, auto& rec) {
      if (v > 2) {
        EXPECT_EQ(rec.property.level, -1);
      }
    });
    rmi_fence();
  });
}

TEST_P(GraphAlgoTest, ConnectedComponentsOnForest)
{
  execute(GetParam(), [] {
    std::size_t const n = 30;
    p_graph<UNDIRECTED, NONMULTI, cc_property, no_property> g(n);
    // Three chains: [0..9], [10..19], [20..29].
    if (this_location() == 0)
      for (std::size_t v = 0; v < n; ++v)
        if ((v + 1) % 10 != 0)
          g.add_edge_async(v, v + 1);
    rmi_fence();
    EXPECT_EQ(connected_components(g), 3u);
    g.for_each_local_vertex([](vertex_descriptor v, auto& rec) {
      EXPECT_EQ(rec.property.component, (v / 10) * 10);
    });
    rmi_fence();
  });
}

TEST_P(GraphAlgoTest, FindSourcesOnDag)
{
  execute(GetParam(), [] {
    p_graph<DIRECTED, MULTI, indegree_property, no_property> g(6 * 8);
    generate_dag(g, 6, 8, 2);
    auto const sources = find_sources(g);
    auto const total = allreduce(sources.size(), std::plus<>{});
    EXPECT_EQ(total, 8u); // exactly the first layer
    for (auto v : sources)
      EXPECT_LT(v, 8u);
    rmi_fence();
  });
}

TEST_P(GraphAlgoTest, PageRankConservesMassAndRanksHubs)
{
  execute(GetParam(), [] {
    // Star-ish mesh: on a torus all ranks equal; on a path the middle
    // accumulates more than the endpoints.
    p_graph<DIRECTED, NONMULTI, pagerank_property, no_property> g(20);
    if (this_location() == 0)
      for (std::size_t v = 0; v < 20; ++v) {
        if (v + 1 < 20)
          g.add_edge_async(v, v + 1);
        if (v > 0)
          g.add_edge_async(v, v - 1);
      }
    rmi_fence();
    page_rank(g, 30);
    EXPECT_NEAR(total_rank(g), 1.0, 1e-6);
    double const r0 = g.apply_vertex_get(0, [](auto& rec) {
      return rec.property.rank;
    });
    double const r10 = g.apply_vertex_get(10, [](auto& rec) {
      return rec.property.rank;
    });
    EXPECT_GT(r10, r0);
    rmi_fence();
  });
}

TEST_P(GraphAlgoTest, IncrementalPageRankMatchesBatch)
{
  execute(GetParam(), [] {
    // Same bidirectional chain in both graphs; the push-based incremental
    // solver seeded everywhere must converge to the synchronous fixed
    // point.
    std::size_t const n = 20;
    p_graph<DIRECTED, NONMULTI, pagerank_property, no_property> gb(n);
    p_graph<DIRECTED, NONMULTI, dynamic_pagerank_property, no_property>
        gp(n);
    if (this_location() == 0)
      for (std::size_t v = 0; v < n; ++v) {
        if (v + 1 < n) {
          gb.add_edge_async(v, v + 1);
          gp.add_edge_async(v, v + 1);
        }
        if (v > 0) {
          gb.add_edge_async(v, v - 1);
          gp.add_edge_async(v, v - 1);
        }
      }
    rmi_fence();
    page_rank(gb, 100);
    page_rank_push_init(gp);
    auto const drains =
        page_rank_incremental(gp, gp.local_gids(), 500, 0.85, 1e-10);
    EXPECT_GT(drains, 0u);
    EXPECT_NEAR(total_rank(gp), 1.0, 1e-4);
    for (auto v : gp.local_gids()) {
      double const batch = gb.apply_vertex_get(
          v, [](auto& rec) { return rec.property.rank; });
      double const push = gp.apply_vertex_get(
          v, [](auto& rec) { return rec.property.rank; });
      EXPECT_NEAR(push, batch, 1e-4) << v;
    }
    rmi_fence();
  });
}

TEST_P(GraphAlgoTest, RewireEdgeAsyncDrivesIncrementalRecompute)
{
  execute(GetParam(), [] {
    // Streaming-scenario machinery: a dynamic (directory-forwarded) graph
    // under single-visit edge rewires, with incremental recompute chasing
    // exactly the churned vertices.
    std::size_t const n = 12;
    p_graph<DIRECTED, NONMULTI, dynamic_pagerank_property, no_property> g(
        graph_partition_kind::dynamic_forwarding);
    generate_random(g, n, 2, /*seed=*/5);
    page_rank_push_init(g);
    (void)page_rank_incremental(g, g.local_gids(), 200, 0.85, 1e-10);
    double const settled = total_rank(g);
    EXPECT_NEAR(settled, 1.0, 1e-3);

    // Rewire one out-edge of vertex 0 in one routed visit.  The fence
    // between issue and verification is collective, so it stays outside
    // the location-0 block.
    vertex_descriptor old_tgt = 0;
    vertex_descriptor new_tgt = 0;
    std::size_t degree_before = 0;
    if (this_location() == 0) {
      auto const targets = g.out_edges(0);
      EXPECT_FALSE(targets.empty());
      if (!targets.empty()) {
        degree_before = targets.size();
        old_tgt = targets.front();
        new_tgt = old_tgt == 5 ? 6 : 5;
        g.rewire_edge_async(0, old_tgt, new_tgt);
      }
    }
    rmi_fence();
    if (this_location() == 0 && degree_before != 0) {
      auto const after = g.out_edges(0);
      EXPECT_EQ(after.size(), degree_before);
      EXPECT_NE(std::find(after.begin(), after.end(), new_tgt),
                after.end());
      if (old_tgt != new_tgt) {
        EXPECT_EQ(std::find(after.begin(), after.end(), old_tgt),
                  after.end());
      }
    }
    rmi_fence();

    // Kick residual mass into the churned vertex and recompute from it:
    // the added mass must settle into ranks (total grows by ~kick/(1-d)).
    std::vector<vertex_descriptor> touched;
    if (this_location() == 0) {
      g.apply_vertex(0, [](auto& rec) { rec.property.residual += 0.01; });
      touched.push_back(0);
    }
    rmi_fence();
    auto const drains = page_rank_incremental(g, touched, 200, 0.85, 1e-10);
    EXPECT_GT(drains, 0u);
    EXPECT_GT(total_rank(g), settled + 0.009);
    rmi_fence();
  });
}

TEST_P(GraphAlgoTest, MaxOutDegree)
{
  execute(GetParam(), [] {
    p_graph<DIRECTED, NONMULTI, int, no_property> g(16);
    if (this_location() == 0)
      for (vertex_descriptor t = 1; t < 6; ++t)
        g.add_edge_async(3, t == 3 ? 6 : t);
    rmi_fence();
    EXPECT_EQ(max_out_degree(g), 5u);
    rmi_fence();
  });
}

/// Edges of the edge-pass test graph on 24 vertices: chains inside blocks
/// of 6 (local edges at P <= 4), and from every even vertex the same edge
/// twice to the vertex 12 ahead (a duplicate remote edge at P = 2 and 4).
/// Vertex 7 has no out-edges.
constexpr std::size_t edge_pass_n = 24;
[[nodiscard]] std::vector<std::pair<vertex_descriptor, vertex_descriptor>>
edge_pass_edges()
{
  std::vector<std::pair<vertex_descriptor, vertex_descriptor>> es;
  for (vertex_descriptor v = 0; v != edge_pass_n; ++v) {
    if (v == 7)
      continue;
    if (v % 6 != 5)
      es.emplace_back(v, v + 1);
    if (v % 2 == 0)
      for (int dup = 0; dup != 2; ++dup)
        es.emplace_back(v, (v + 12) % edge_pass_n);
  }
  return es;
}

/// Builds the edge-pass test graph in `g`.  A dynamic graph stores each
/// location's slice of the vertices there, as a static one does.
/// Collective.
template <typename G>
void build_edge_pass_graph(G& g)
{
  auto const [lo, sz] = split1d(edge_pass_n, num_locations(), this_location());
  if (!g.is_static())
    for (vertex_descriptor v = lo; v != lo + sz; ++v)
      g.add_vertex(v, typename G::vertex_property{});
  rmi_fence();
  if (this_location() == 0)
    for (auto const& [s, t] : edge_pass_edges())
      g.add_edge_async(s, t);
  rmi_fence();
}

/// Every vertex's f(property), indexed by vertex, on every location.
/// Collective.
template <typename G, typename F>
[[nodiscard]] auto by_vertex(G& g, F f)
{
  using R = decltype(f(std::declval<typename G::vertex_property&>()));
  std::vector<std::pair<vertex_descriptor, R>> mine;
  g.for_each_local_vertex([&](vertex_descriptor v, auto& rec) {
    mine.emplace_back(v, f(rec.property));
  });
  std::vector<R> out(edge_pass_n);
  for (auto const& part : allgather(mine))
    for (auto const& [v, x] : part)
      out[v] = x;
  return out;
}

TEST_P(GraphAlgoTest, PageRankEdgePassMatchesPerEdgePath)
{
  execute(GetParam(), [] {
    // A static graph takes the edge pass, a dynamic one the per-edge
    // apply_vertex path; both must compute the sequential ranks.
    using G = p_graph<DIRECTED, MULTI, pagerank_property, no_property>;
    G gs(edge_pass_n);
    G gd(graph_partition_kind::dynamic_forwarding);
    build_edge_pass_graph(gs);
    build_edge_pass_graph(gd);
    std::size_t const k = 20;
    page_rank(gs, k);
    page_rank(gd, k);
    auto const rank = [](auto const& vp) { return vp.rank; };
    auto const got_static = by_vertex(gs, rank);
    auto const got_dynamic = by_vertex(gd, rank);

    auto const edges = edge_pass_edges();
    std::vector<std::size_t> degree(edge_pass_n);
    for (auto const& [s, t] : edges)
      ++degree[s];
    double const n = edge_pass_n;
    std::vector<double> want(edge_pass_n, 1.0 / n), in(edge_pass_n);
    for (std::size_t it = 0; it != k; ++it) {
      for (auto const& [s, t] : edges)
        in[t] += want[s] / static_cast<double>(degree[s]);
      for (std::size_t v = 0; v != edge_pass_n; ++v)
        want[v] = 0.15 / n + 0.85 * std::exchange(in[v], 0.0);
    }
    for (std::size_t v = 0; v != edge_pass_n; ++v) {
      EXPECT_NEAR(got_static[v], got_dynamic[v], 1e-12) << "vertex " << v;
      EXPECT_NEAR(got_static[v], want[v], 1e-12) << "vertex " << v;
    }
    rmi_fence();
  });
}

TEST_P(GraphAlgoTest, ConnectedComponentsEdgePassMatchesPerEdgePath)
{
  execute(GetParam(), [] {
    // The undirected edge-pass graph has two components: blocks 0 and 2
    // ({0..5, 12..17}) and the rest, joined through vertices 6 and 7.
    using G = p_graph<UNDIRECTED, MULTI, cc_property, no_property>;
    G gs(edge_pass_n);
    G gd(graph_partition_kind::dynamic_forwarding);
    build_edge_pass_graph(gs);
    build_edge_pass_graph(gd);
    EXPECT_EQ(connected_components(gs), 2u);
    EXPECT_EQ(connected_components(gd), 2u);
    auto const label = [](auto const& vp) { return vp.component; };
    auto const got_static = by_vertex(gs, label);
    auto const got_dynamic = by_vertex(gd, label);
    for (std::size_t v = 0; v != edge_pass_n; ++v) {
      EXPECT_EQ(got_static[v], got_dynamic[v]) << "vertex " << v;
      EXPECT_EQ(got_static[v], v % 12 < 6 ? 0u : 6u) << "vertex " << v;
    }
    rmi_fence();
  });
}

INSTANTIATE_TEST_SUITE_P(Locations, GraphAlgoTest, ::testing::Values(1, 2, 4));

// ---------------------------------------------------------------------------
// Euler tour (Ch. X.H)
// ---------------------------------------------------------------------------

class EulerTourTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(EulerTourTest, TourAndRanksSmallTree)
{
  execute(GetParam(), [] {
    std::size_t const n = 7; // complete binary tree, depth 2
    std::size_t const len = 2 * (n - 1);
    p_array<std::size_t> succ(len);
    p_array<long> pos(len);
    build_euler_tour(succ, n);
    list_rank(succ, pos);
    // The tour is a permutation of positions 0..len-1.
    std::vector<bool> seen(len, false);
    for (gid1d a = 0; a < len; ++a) {
      long const p = pos.get_element(a);
      ASSERT_GE(p, 0);
      ASSERT_LT(p, static_cast<long>(len));
      EXPECT_FALSE(seen[static_cast<std::size_t>(p)]);
      seen[static_cast<std::size_t>(p)] = true;
    }
    // First arc: root -> left child; down arc of vertex 1 has position 0.
    EXPECT_EQ(pos.get_element(0), 0);
    rmi_fence();
  });
}

TEST_P(EulerTourTest, ApplicationsMatchSequentialReference)
{
  execute(GetParam(), [] {
    std::size_t const n = 31;
    euler_tour_results r(n);
    euler_tour_applications(n, r);

    // parent / level reference for the implicit binary tree.
    for (gid1d v = 0; v < n; ++v) {
      std::size_t const expect_parent = v == 0 ? 0 : (v - 1) / 2;
      EXPECT_EQ(r.parent.get_element(v), expect_parent);
      long expect_level = 0;
      for (std::size_t x = v + 1; x > 1; x /= 2)
        ++expect_level;
      EXPECT_EQ(r.level.get_element(v), expect_level) << "vertex " << v;
    }
    // Postorder: a permutation of 1..n with children before parents.
    std::vector<long> post(n);
    for (gid1d v = 0; v < n; ++v)
      post[v] = r.postorder.get_element(v);
    std::vector<long> sorted = post;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(sorted[i], static_cast<long>(i + 1));
    for (gid1d v = 1; v < n; ++v)
      EXPECT_LT(post[v], post[(v - 1) / 2]) << "child after parent";
    rmi_fence();
  });
}

INSTANTIATE_TEST_SUITE_P(Locations, EulerTourTest, ::testing::Values(1, 2, 4));

// ---------------------------------------------------------------------------
// MapReduce (Ch. XII.C.1)
// ---------------------------------------------------------------------------

class MapReduceTest : public ::testing::TestWithParam<bool> {};

TEST_P(MapReduceTest, WordCountMatchesSequential)
{
  bool const combiner = GetParam();
  execute(4, [combiner] {
    // Corpus: each document is a line of words.
    std::vector<std::string> docs{
        "the quick brown fox", "the lazy dog",
        "the quick dog jumps", "fox and dog and fox"};
    p_array<std::string> corpus(docs.size());
    if (this_location() == 0)
      for (gid1d i = 0; i < docs.size(); ++i)
        corpus.set_element(i, docs[i]);
    rmi_fence();

    p_hash_map<std::string, long> counts;
    word_count(array_1d_view(corpus), counts, {combiner});

    std::map<std::string, long> ref;
    for (auto const& d : docs) {
      std::istringstream ss(d);
      std::string w;
      while (ss >> w)
        ++ref[w];
    }
    EXPECT_EQ(counts.size(), ref.size());
    for (auto const& [w, c] : ref)
      EXPECT_EQ(counts.find_val(w).first, c) << w;
    rmi_fence();
  });
}

INSTANTIATE_TEST_SUITE_P(Combiner, MapReduceTest, ::testing::Bool());

TEST(MapReduce, NumericHistogram)
{
  execute(4, [] {
    p_array<int> data(400);
    p_for_each_gid(array_1d_view(data),
                   [](gid1d g, int& x) { x = static_cast<int>(g % 10); });
    p_hash_map<int, long> hist;
    map_reduce_into(
        array_1d_view(data),
        [](int x, auto emit) { emit(x, 1L); },
        [](long a, long b) { return a + b; }, hist);
    for (int k = 0; k < 10; ++k)
      EXPECT_EQ(hist.find_val(k).first, 40);
    rmi_fence();
  });
}

} // namespace
