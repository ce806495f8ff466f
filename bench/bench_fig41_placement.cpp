// Fig. 41: weak scaling of p_for_each with processes allocated on the same
// node vs spread across nodes.  On one host the placement axis is modeled
// by the message-aggregation factor: co-located processes enjoy cheap,
// batched transfers (high aggregation), spread processes pay per-message
// overhead (aggregation 1).  Expected shape: the "spread" (agg=1) curve
// sits above the "same node" (agg=64) curve for communication-heavy
// work, and the gap grows with P.

#include "algorithms/p_algorithms.hpp"
#include "bench_common.hpp"
#include "containers/p_array.hpp"

#include <atomic>

int main(int argc, char** argv)
{
  bench::init(argc, argv);
  using namespace stapl;
  std::printf("# Fig. 41 — placement (modeled by aggregation factor)\n");
  bench::table_header("remote-heavy p_for_each pattern (seconds)",
                      {"locations", "same_node(a)", "spread(b)", "msgs_a",
                       "msgs_b"});

  std::size_t const ops = 25'000 * bench::scale();
  for (unsigned p : bench::default_locations) {
    double times[2] = {0, 0};
    std::uint64_t msgs[2] = {0, 0};
    unsigned const aggs[2] = {64, 1};
    for (int cfgi = 0; cfgi < 2; ++cfgi) {
      std::atomic<double> t{0};
      std::atomic<std::uint64_t> m{0};
      runtime_config cfg;
      cfg.num_locations = p;
      cfg.aggregation = aggs[cfgi];
      execute(cfg, [&] {
        p_array<long> pa(1'000 * num_locations());
        gid1d const remote =
            1'000 * ((this_location() + 1) % num_locations());
        auto kernel = [&] {
          for (std::size_t i = 0; i < ops; ++i)
            pa.apply_set(remote + i % 1'000, [](long& x) { ++x; });
        };
        kernel(); // warmup: allocator arenas, buffers
        rmi_fence();
        metrics::reset_all(); // every counter of every layer
        double const tt = bench::timed_kernel(kernel);
        auto const total_msgs =
            metrics::global_snapshot().at("rmi.msgs_sent");
        if (this_location() == 0) {
          t.store(tt);
          m.store(total_msgs);
        }
      });
      times[cfgi] = t.load();
      msgs[cfgi] = m.load();
    }
    bench::cell(static_cast<std::size_t>(p));
    bench::cell(times[0]);
    bench::cell(times[1]);
    bench::cell(static_cast<std::size_t>(msgs[0]));
    bench::cell(static_cast<std::size_t>(msgs[1]));
    bench::endrow();
  }
  return 0;
}
