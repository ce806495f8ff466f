// Ablation benches of the runtime:
//   * the aggregation factor: async writes at P=2 swept over the number of
//     RMIs packed into one message (the Ch. III.B aggregation
//     optimization);
//   * fence wake-up: the time the last location to arrive spends in
//     rmi_fence at P=4, swept over how late it arrives.  Its peers have
//     parked on their doorbells by then, so the fence costs what waking
//     them costs.

#include "bench_common.hpp"
#include "containers/p_array.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <vector>

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
      metrics::reset_all(); // every counter of every layer
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

  using clock = std::chrono::steady_clock;
  std::size_t const rounds = 200 * bench::scale();
  std::printf("\n# Ablation — fence wake-up (P=4)\n");
  bench::table_header("last arriver's rmi_fence (microseconds)",
                      {"skew_us", "p50_us", "p90_us"});
  for (unsigned skew : {0u, 20u, 100u, 500u, 2000u}) {
    std::vector<double> us; // location 3's fence time per round
    execute(4, [&] {
      for (std::size_t r = 0; r != rounds; ++r) {
        location_barrier();
        if (this_location() != 3) {
          rmi_fence();
          continue;
        }
        auto const late = clock::now() + std::chrono::microseconds(skew);
        while (clock::now() < late) {
        } // arrive late, without polling
        auto const t0 = clock::now();
        rmi_fence();
        us.push_back(
            std::chrono::duration<double, std::micro>(clock::now() - t0)
                .count());
      }
    });
    std::sort(us.begin(), us.end());
    bench::cell(static_cast<std::size_t>(skew));
    bench::cell(us[us.size() / 2]);
    bench::cell(us[us.size() * 9 / 10]);
    bench::endrow();
  }
  return 0;
}
