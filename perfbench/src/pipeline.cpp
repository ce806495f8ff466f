// batch_pipeline: closed-loop bulk analytics.  Each pass runs
// p_for_each -> map_reduce -> p_partial_sum -> p_sample_sort over p_arrays
// larger than the machine's L2, then 10 PageRank iterations on a 2-D mesh
// p_graph, all with the default exec_policy.  Every pass is checked against
// closed forms after its kernels are timed.

#include "harness.hpp"

#include "algorithms/graph_algorithms.hpp"
#include "algorithms/map_reduce.hpp"
#include "algorithms/p_algorithms.hpp"
#include "algorithms/p_sort.hpp"
#include "containers/graph_generators.hpp"
#include "containers/p_array.hpp"
#include "containers/p_graph.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <optional>

namespace perfbench {

namespace {

constexpr std::size_t array_n = std::size_t{5} << 20; ///< 40 MiB per array
constexpr std::size_t mesh_rows = 512;
constexpr std::size_t mesh_cols = 512;
constexpr std::size_t pr_iterations = 10;

/// The per-pass p_for_each scramble: an odd-multiplier affine map, a
/// bijection on 64-bit values, so sorted data becomes unsorted again and the
/// element sum follows a closed form.
constexpr std::uint64_t scramble_a = 6364136223846793005ull;
constexpr std::uint64_t scramble_b = 1442695040888963407ull;

using graph_t = stapl::p_graph<stapl::DIRECTED, stapl::NONMULTI,
                               stapl::pagerank_property, stapl::no_property>;

constexpr std::array<sp, 5> kernels{sp::p_for_each, sp::map_reduce,
                                    sp::p_partial_sum, sp::p_sample_sort,
                                    sp::page_rank};

[[nodiscard]] std::uint64_t initial_element(std::uint64_t seed, std::size_t i)
{
  return mix64(seed ^ (static_cast<std::uint64_t>(i) * 0xD1B54A32D192ED03ull));
}

/// Sequential std:: versions of the five kernels on the same inputs (the
/// native reference), seconds per kernel in `kernels` order.
std::array<double, 5> sequential_reference(std::uint64_t seed)
{
  std::array<double, 5> t{};
  auto timed = [](auto&& f) {
    std::uint64_t const t0 = now_ns();
    f();
    return static_cast<double>(now_ns() - t0) / 1e9;
  };
  std::vector<std::uint64_t> x(array_n);
  for (std::size_t i = 0; i != array_n; ++i)
    x[i] = initial_element(seed, i);
  t[0] = timed([&] {
    for (auto& v : x)
      v = v * scramble_a + scramble_b;
  });
  std::uint64_t sum = 0;
  t[1] = timed([&] { sum = std::accumulate(x.begin(), x.end(), std::uint64_t{0}); });
  std::vector<long> ones(array_n, 1), ps(array_n);
  t[2] = timed([&] { std::inclusive_scan(ones.begin(), ones.end(), ps.begin()); });
  t[3] = timed([&] { std::sort(x.begin(), x.end()); });

  std::size_t const n = mesh_rows * mesh_cols;
  std::vector<double> rank(n, 1.0 / static_cast<double>(n)), in(n, 0.0);
  auto deg = [&](std::size_t v) {
    std::size_t const i = v / mesh_cols, j = v % mesh_cols;
    return static_cast<double>((i > 0) + (i + 1 < mesh_rows) + (j > 0) +
                               (j + 1 < mesh_cols));
  };
  t[4] = timed([&] {
    for (std::size_t it = 0; it != pr_iterations; ++it) {
      for (std::size_t v = 0; v != n; ++v) {
        double const share = rank[v] / deg(v);
        std::size_t const i = v / mesh_cols, j = v % mesh_cols;
        if (i > 0)
          in[v - mesh_cols] += share;
        if (i + 1 < mesh_rows)
          in[v + mesh_cols] += share;
        if (j > 0)
          in[v - 1] += share;
        if (j + 1 < mesh_cols)
          in[v + 1] += share;
      }
      for (std::size_t v = 0; v != n; ++v) {
        rank[v] = 0.15 / static_cast<double>(n) + 0.85 * in[v];
        in[v] = 0.0;
      }
    }
  });
  // Keep the results observable so no kernel is optimised away.
  double total = 0;
  for (double r : rank)
    total += r;
  std::printf("# sequential reference: sum %llu, scan tail %ld, min %llu, "
              "rank %.9f\n",
              static_cast<unsigned long long>(sum), ps.back(),
              static_cast<unsigned long long>(x.front()), total);
  return t;
}

} // namespace

run_result run_pipeline(options const& o)
{
  std::uint64_t const seed = o.seed;
  std::size_t const vertices = mesh_rows * mesh_cols;
  std::uint64_t const budget_ns = static_cast<std::uint64_t>(o.seconds * 1e9);
  double const elems_per_pass =
      4.0 * static_cast<double>(array_n) +
      static_cast<double>(vertices * pr_iterations);

  std::uint64_t initial_sum = 0;
  for (std::size_t i = 0; i != array_n; ++i)
    initial_sum += initial_element(seed, i);

  run_result res;
  std::vector<double> setup_s;
  std::array<std::vector<double>, kernels.size()> kernel_s; // location 0
  std::size_t passes = 0;

  stapl::runtime_config cfg;
  cfg.num_locations = locations;

  for (unsigned rep = 0; rep != o.setup_reps; ++rep) {
    bool const measured = o.measured_rep(rep);
    std::uint64_t const t_entry = now_ns();
    stapl::execute(cfg, [&] {
      unsigned const me = stapl::this_location();
      std::optional<stapl::p_array<std::uint64_t>> ap;
      std::optional<stapl::p_array<long>> onesp, psp;
      std::optional<graph_t> gp;
      {
        scope sc(sp::setup_build);
        ap.emplace(array_n);
        onesp.emplace(array_n, 1L);
        psp.emplace(array_n);
        gp.emplace(vertices);
      }
      auto& a = *ap;
      auto& ones = *onesp;
      auto& ps = *psp;
      auto& g = *gp;
      {
        scope sc(sp::setup_preload);
        a.for_each_local([&](stapl::gid1d i, std::uint64_t& x) {
          x = initial_element(seed, i);
        });
        // ps starts as the scan of `ones`, so every pass's map_reduce over
        // it has the closed form N(N+1)/2 and p_partial_sum rewrites it.
        ps.for_each_local([](stapl::gid1d i, long& x) { x = static_cast<long>(i) + 1; });
        stapl::rmi_fence();
      }
      {
        scope sc(sp::setup_graph);
        stapl::generate_mesh(g, mesh_rows, mesh_cols);
      }
      stapl::rmi_fence();
      if (me == 0)
        setup_s.push_back(static_cast<double>(now_ns() - t_entry) / 1e9);
      if (!measured)
        return;

      std::uint64_t expect = initial_sum;
      std::uint64_t const t_start = now_ns();
      for (std::size_t pass = 0;; ++pass) {
        begin_window();
        bool ok_sum = false;
        {
          scope pass_scope(sp::pass, pass);
          auto kernel = [&](std::size_t k, auto&& body) {
            std::uint64_t const t0 = now_ns();
            {
              scope ks(kernels[k], pass, pass_scope.index());
              body();
              timed_fence(pass, ks.index());
            }
            if (me == 0)
              kernel_s[k].push_back(static_cast<double>(now_ns() - t0) / 1e9);
          };
          kernel(0, [&] {
            stapl::p_for_each(stapl::array_1d_view(a), [](std::uint64_t& x) {
              x = x * scramble_a + scramble_b;
            });
          });
          expect = expect * scramble_a + array_n * scramble_b;
          std::optional<std::uint64_t> sum;
          kernel(1, [&] {
            sum = stapl::map_reduce(
                stapl::array_1d_view(a), [](std::uint64_t x) { return x; },
                std::plus<std::uint64_t>{});
          });
          ok_sum = sum && *sum == expect;
          kernel(2, [&] { stapl::p_partial_sum(ones, ps); });
          kernel(3, [&] { stapl::p_sample_sort(a); });
          kernel(4, [&] { stapl::page_rank(g, pr_iterations); });
          capture_window(res);
        }

        // Checks, outside the timed kernels.
        bool const sorted = stapl::p_is_sorted(a);
        auto const resum = stapl::map_reduce(
            stapl::array_1d_view(a), [](std::uint64_t x) { return x; },
            std::plus<std::uint64_t>{});
        auto const scanned = stapl::map_reduce(
            stapl::array_1d_view(ps), [](long x) { return x; }, std::plus<long>{});
        long const tail = ps.get_element(array_n - 1);
        double const total = stapl::total_rank(g);
        if (me == 0) {
          std::string const at = " (pass " + std::to_string(pass) + ")";
          long const n = static_cast<long>(array_n);
          res.check(ok_sum, "map_reduce sum differs from its closed form" + at);
          res.check(tail == n, "p_partial_sum tail " + std::to_string(tail) + at);
          res.check(scanned && *scanned == n * (n + 1) / 2,
                    "p_partial_sum output sum differs from N(N+1)/2" + at);
          res.check(sorted, "p_is_sorted false after p_sample_sort" + at);
          res.check(resum && *resum == expect, "p_sample_sort changed the sum" + at);
          res.check(std::abs(total - 1.0) <= 1e-6,
                    "total PageRank " + std::to_string(total) + at);
          passes = pass + 1;
        }
        std::uint64_t const more =
            me == 0 && now_ns() - t_start < budget_ns ? 1 : 0;
        if (timed_sum(more, pass, no_parent) == 0)
          break;
      }
    });
  }

  // --- end-to-end: one request = one kernel call.  Throughput is taken at
  // each kernel's lower-quartile call time: the host's speed changes over
  // seconds, and the faster quarter of a run's passes moves least with it.
  std::vector<double> calls_us;
  double kernel_total_s = 0, pass_s = 0;
  for (auto const& ks : kernel_s) {
    for (double t : ks) {
      calls_us.push_back(t * 1e6);
      kernel_total_s += t;
    }
    pass_s += percentile_of(ks, 0.25);
  }
  auto& e = res.end_to_end;
  e["setup_s"] = setup_seconds(setup_s);
  e["ops_per_s"] = static_cast<double>(kernels.size()) / pass_s;
  e["elems_per_s"] = elems_per_pass / pass_s;
  auto& m = res.per_layer;
  m["latency.samples"] = static_cast<double>(calls_us.size());
  m["latency.p50_us"] = percentile_of(calls_us, 0.50);
  m["latency.p90_us"] = percentile_of(calls_us, 0.90);
  m["latency.p99_us"] = percentile_of(calls_us, 0.99);
  std::printf("# %zu passes, %zu kernel calls, %.3f kernel-seconds; "
              "N = %zu, mesh %zux%zu\n",
              passes, calls_us.size(), kernel_total_s, array_n, mesh_rows,
              mesh_cols);
  for (std::size_t k = 0; k != kernels.size(); ++k)
    std::printf("# %-14s p25 %.4f s, median %.4f s over %zu calls\n",
                span_name(kernels[k]), percentile_of(kernel_s[k], 0.25),
                median(kernel_s[k]), kernel_s[k].size());

  // --- per-layer
  add_counter_metrics(res, static_cast<double>(calls_us.size()), kernel_total_s);
  if (g_trace) {
    add_span_metrics(res);
    auto const seq = sequential_reference(seed);
    char const* names[] = {"for_each", "map_reduce", "partial_sum",
                           "sample_sort", "page_rank"};
    for (std::size_t k = 0; k != seq.size(); ++k)
      m[std::string("algorithms.") + names[k] + ".seq_s"] = seq[k];
  }
  return res;
}

} // namespace perfbench
