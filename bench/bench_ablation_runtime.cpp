// Ablation bench for the runtime's aggregation factor: async writes at
// P=2 swept over the number of RMIs packed into one message (the Ch. III.B
// aggregation optimization).

#include "bench_common.hpp"
#include "containers/p_array.hpp"

#include <atomic>

int main(int argc, char** argv)
{
  bench::init(argc, argv);
  using namespace stapl;
  std::size_t const ops = 20'000 * bench::scale();

  std::printf("# Ablation — aggregation factor sweep (P=2)\n");
  bench::table_header("async writes", {"aggregation", "seconds", "messages"});
  for (unsigned agg : {1u, 4u, 16u, 64u, 256u}) {
    runtime_config cfg;
    cfg.num_locations = 2;
    cfg.aggregation = agg;
    std::atomic<double> t{0};
    std::atomic<std::uint64_t> msgs{0};
    execute(cfg, [&] {
      p_array<long> pa(2'000);
      gid1d const remote = 1'000 * ((this_location() + 1) % num_locations());
      auto kernel = [&] {
        for (std::size_t i = 0; i < ops; ++i)
          pa.set_element(remote + i % 1'000, 1);
      };
      kernel(); // warmup
      rmi_fence();
      metrics::reset_all(); // every stats family, not just location_stats
      double const tt = bench::timed_kernel(kernel);
      auto const m = metrics::global_snapshot().at("rmi.msgs_sent");
      if (this_location() == 0) {
        t.store(tt);
        msgs.store(m);
      }
    });
    bench::cell(static_cast<std::size_t>(agg));
    bench::cell(t.load());
    bench::cell(static_cast<std::size_t>(msgs.load()));
    bench::endrow();
  }
  return 0;
}
