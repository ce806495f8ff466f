// Scaling & scenario suite: strong/weak scaling sweeps over the declared
// harness axes (P, mode) for six kernels — the core
// p_algorithms (for_each, map_reduce, partial_sum, sample_sort) plus the
// two scenarios the paper's figures never stressed:
//
//   * graph_stream — edge churn on a dynamic (directory-forwarded) pGraph
//     with incremental push-based PageRank re-running after every churn
//     round, i.e. the streaming recompute path over the migration
//     machinery;
//   * assoc_mixed — a mixed read/write/scan workload over p_hash_map
//     (synchronous find_val reads, insert_async writes, apply_async
//     updates, one local scan per round).
//
// Default axes are the CI-smoke "lite" sweep (P up to 4); --full extends
// the location list to P=8; --pmax K caps the location list (powers of
// two up to K).  With --json the per-point results land in
// BENCH_scaling.json under "sweeps" (timing + efficiency + the per-point
// metrics::global_snapshot delta) next to the row/column tables.

#include "algorithms/graph_algorithms.hpp"
#include "algorithms/p_algorithms.hpp"
#include "algorithms/p_sort.hpp"
#include "bench_common.hpp"
#include "containers/graph_generators.hpp"
#include "containers/p_array.hpp"
#include "containers/p_associative.hpp"
#include "scaling_harness.hpp"

#include <cstring>
#include <random>

namespace {

using bench::scaling::kernel_def;
using bench::scaling::sweep_point;

/// p_for_each over a pArray: per-element arithmetic, the baseline
/// data-parallel curve.
double k_for_each(sweep_point const& pt)
{
  using namespace stapl;
  p_array<double> a(pt.n, 1.0);
  array_1d_view v(a);
  return bench::timed_kernel([&] {
    p_for_each(v, [](double& x) { x = x * 1.0000001 + 0.5; });
  });
}

/// map_reduce over a pArray: local folds of a per-element map, then one
/// allreduce.
double k_map_reduce(sweep_point const& pt)
{
  using namespace stapl;
  p_array<double> a(pt.n, 2.0);
  array_1d_view v(a);
  return bench::timed_kernel([&] {
    auto const r = map_reduce(v, [](double x) { return x * x; },
                              std::plus<>{});
    if (r && *r < 0)
      std::abort();
  });
}

/// p_partial_sum: local block folds, an allgather, then local rescans.
double k_partial_sum(sweep_point const& pt)
{
  using namespace stapl;
  p_array<long> in(pt.n, 1), out(pt.n);
  return bench::timed_kernel([&] { p_partial_sum(in, out); });
}

/// p_sample_sort on a pseudo-random pArray.
double k_sample_sort(sweep_point const& pt)
{
  using namespace stapl;
  p_array<long> a(pt.n);
  a.for_each_local([](gid1d g, long& x) {
    x = static_cast<long>((g * 2654435761UL) % 1000003UL);
  });
  rmi_fence();
  return bench::timed_kernel([&] { p_sample_sort(a); });
}

/// Streaming pGraph scenario: a dynamic (directory-forwarded) random graph
/// under edge churn.  Each timed round rewires a sample of local out-edges
/// (rewire_edge_async: one routed visit per rewire) and *deletes* every
/// third sampled edge outright (delete_edge, no replacement) so
/// out-degrees genuinely shrink as the stream progresses, kicks residual
/// mass into the churned sources, and re-runs incremental PageRank from
/// exactly those vertices — recompute cost follows the churn, not the
/// graph size.
double k_graph_stream(sweep_point const& pt)
{
  using namespace stapl;
  using G = p_graph<DIRECTED, NONMULTI, dynamic_pagerank_property,
                    no_property>;
  std::size_t const n = std::max<std::size_t>(pt.n, 16);
  G g(graph_partition_kind::dynamic_forwarding);
  generate_random(g, n, 4);
  page_rank_push_init(g);
  (void)page_rank_incremental(g, g.local_gids(), 30);

  return bench::timed_kernel([&] {
    std::mt19937 gen(7 + this_location());
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    auto const locals = g.local_gids();
    std::size_t const churn =
        std::max<std::size_t>(1, locals.size() / 16);
    for (unsigned round = 0; round < 3; ++round) {
      std::vector<vertex_descriptor> touched;
      for (std::size_t i = 0; i < churn && !locals.empty(); ++i) {
        vertex_descriptor const v = locals[gen() % locals.size()];
        auto const targets = g.out_edges(v);
        if (targets.empty())
          continue;
        vertex_descriptor const old = targets[gen() % targets.size()];
        if (i % 3 == 2) {
          // Deletion-heavy churn: drop the edge without a replacement.
          g.delete_edge(v, old);
        } else {
          vertex_descriptor w = pick(gen);
          if (w == v)
            w = (w + 1) % n;
          g.rewire_edge_async(v, old, w);
        }
        g.apply_vertex(v, [](auto& rec) { rec.property.residual += 1e-4; });
        touched.push_back(v);
      }
      rmi_fence();
      (void)page_rank_incremental(g, touched, 10);
    }
  });
}

/// Mixed read/write/scan workload over p_hash_map: 50% synchronous reads
/// (find_val), 30% asynchronous writes (insert_async), 20% asynchronous
/// read-modify-writes (apply_async), plus one local scan per location.
double k_assoc_mixed(sweep_point const& pt)
{
  using namespace stapl;
  p_hash_map<long, long> m;
  std::size_t const n = std::max<std::size_t>(pt.n, 10);
  for (std::size_t k = this_location(); k < n; k += num_locations())
    m.insert_async(static_cast<long>(k), 1);
  rmi_fence();

  return bench::timed_kernel([&] {
    std::size_t const ops = n / num_locations();
    std::mt19937 gen(11 + this_location());
    std::uniform_int_distribution<long> key(0, static_cast<long>(n) - 1);
    long checksum = 0;
    for (std::size_t i = 0; i < ops; ++i) {
      long const k = key(gen);
      switch (i % 10) {
        case 0: case 1: case 2: case 3: case 4:
          checksum += m.find_val(k).first;
          break;
        case 5: case 6: case 7:
          m.insert_async(k, static_cast<long>(i));
          break;
        default:
          m.apply_async(k, [](long& v) { ++v; });
          break;
      }
    }
    m.for_each_local([&](long, long& v) { checksum += v; });
    if (checksum < 0)
      std::abort();
    rmi_fence();
  });
}

} // namespace

int main(int argc, char** argv)
{
  bench::init(argc, argv);
  namespace sc = bench::scaling;

  bool full = false;
  unsigned pmax = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0)
      full = true;
    else if (std::strcmp(argv[i], "--pmax") == 0 && i + 1 < argc)
      pmax = static_cast<unsigned>(std::atoi(argv[++i]));
    else if (std::strcmp(argv[i], "--trace-points") == 0)
      // Keep-last trace ring per sweep point: each point dumps its own
      // Perfetto timeline (trace_point_<kernel>_<axes>_pP.json), so a
      // regressed curve point ships the timeline of that exact execution.
      sc::trace_points_prefix() = "trace_point_";
  }

  sc::axes ax;
  if (full)
    ax.p_list = {1, 2, 4, 8};
  if (pmax != 0) {
    ax.p_list.clear();
    for (unsigned p = 1; p <= pmax; p *= 2)
      ax.p_list.push_back(p);
  }

  std::size_t const s = bench::scale();
  std::vector<sc::kernel_def> const kernels{
      {"for_each", 200'000 * s, k_for_each},
      {"map_reduce", 200'000 * s, k_map_reduce},
      {"partial_sum", 100'000 * s, k_partial_sum},
      {"sample_sort", 50'000 * s, k_sample_sort},
      {"graph_stream", 1'500 * s, k_graph_stream},
      {"assoc_mixed", 20'000 * s, k_assoc_mixed},
  };

  std::printf("# Scaling sweep: %zu kernels, %s axes\n", kernels.size(),
              full ? "full" : "lite");
  auto const results = sc::run_sweep(kernels, ax);
  sc::print_tables(results);
  bench::set_extra_json("sweeps", sc::to_json(results));
  return 0;
}
