// Directory subsystem benchmark (no dissertation figure — new subsystem):
//   1. GID resolution latency: cold home-location lookup (synchronous round
//      trip) vs the per-location owner cache.  The cached path must be at
//      least 5x faster than a cold lookup for the cache to pay for its
//      invalidation traffic.
//   2. Element-method throughput through the directory: before migration
//      (each element homed at its owner, its placement), first touch after
//      migration (through the home, which fills the caller's cache), and
//      steady state with warm caches.
//
// Run with --json to also write BENCH_directory.json.

#include "bench_common.hpp"
#include "containers/p_array.hpp"
#include "core/migration.hpp"

#include <atomic>
#include <vector>

using namespace stapl;

namespace {

/// Cold vs cached resolve on location 0 while the other locations serve
/// lookups from inside the trailing fence.
void resolution_latency(unsigned p)
{
  std::atomic<double> cold_us{0}, cached_us{0};
  execute(p, [&] {
    std::size_t const n = 1024 * num_locations();
    p_array<long> pa(n, 0);
    pa.make_dynamic();
    auto& dir = pa.get_directory();

    if (this_location() == 0) {
      // Targets neither owned nor homed here: every cold resolve is a full
      // synchronous round trip to a remote home.
      std::vector<std::size_t> targets;
      for (std::size_t g = 0; g < n && targets.size() < 256; ++g)
        if (!dir.owns(g) && dir.home_of(g) != this_location())
          targets.push_back(g);

      std::size_t const rounds = 20 * bench::scale();
      auto tm = start_timer();
      for (std::size_t r = 0; r < rounds; ++r) {
        dir.clear_cache();
        for (auto g : targets)
          (void)dir.resolve(g);
      }
      double const cold = stop_timer(tm);
      cold_us.store(cold / static_cast<double>(rounds * targets.size()) * 1e6);

      // Same GIDs, warm cache (last round left every entry cached).
      std::size_t const reps = 200 * bench::scale();
      long sink = 0;
      tm = start_timer();
      for (std::size_t r = 0; r < reps; ++r)
        for (auto g : targets)
          sink += static_cast<long>(dir.resolve(g));
      double const cached = stop_timer(tm);
      if (sink < 0)
        std::abort();
      cached_us.store(cached / static_cast<double>(reps * targets.size()) *
                      1e6);
    }
    rmi_fence(); // peers poll here, serving location 0's lookups
  });
  bench::cell(static_cast<std::size_t>(p));
  bench::cell(cold_us.load());
  bench::cell(cached_us.load());
  bench::cell(cached_us.load() > 0 ? cold_us.load() / cached_us.load() : 0.0);
  bench::endrow();
}

/// get_element throughput from location 0 against a remote slice, before
/// and after that slice migrates to a different location.
void migration_throughput(unsigned p)
{
  std::atomic<double> before{0}, first_touch{0}, warm{0};
  execute(p, [&] {
    std::size_t const block = 512 * bench::scale();
    std::size_t const n = block * num_locations();
    p_array<long> pa(n, 1);
    pa.make_dynamic();

    // The victim slice: location 1's closed-form elements.
    std::vector<std::size_t> targets;
    for (std::size_t g = block; g < 2 * block && num_locations() > 1; ++g)
      targets.push_back(g);

    auto read_all = [&] {
      long sink = 0;
      for (auto g : targets)
        sink += pa.get_element(g);
      if (sink < 0)
        std::abort();
    };

    double t = bench::timed_kernel([&] {
      if (this_location() == 0)
        read_all();
    });
    if (this_location() == 0)
      before.store(bench::mops(targets.size(), t));

    // Move the slice to the last location.  Its home stays location 1, its
    // placement, so location 0's first touch goes through the home, which
    // forwards it and fills location 0's cache.
    if (this_location() == 1)
      for (auto g : targets)
        pa.migrate(g, num_locations() - 1);
    rmi_fence();

    t = bench::timed_kernel([&] {
      if (this_location() == 0)
        read_all(); // first touch: through the home
    });
    if (this_location() == 0)
      first_touch.store(bench::mops(targets.size(), t));

    t = bench::timed_kernel([&] {
      if (this_location() == 0)
        read_all(); // steady state: warm caches
    });
    if (this_location() == 0)
      warm.store(bench::mops(targets.size(), t));
  });
  bench::cell(static_cast<std::size_t>(p));
  bench::cell(before.load());
  bench::cell(first_touch.load());
  bench::cell(warm.load());
  bench::endrow();
}

} // namespace

int main(int argc, char** argv)
{
  bench::init(argc, argv, "directory");
  std::printf("# Directory subsystem: resolution latency and "
              "post-migration throughput\n");

  bench::table_header("GID resolution latency (location 0)",
                      {"locations", "cold_us", "cached_us", "speedup"});
  for (unsigned p : {2u, 4u, 8u})
    resolution_latency(p);

  bench::table_header(
      "remote get_element Mops (location 0, migrated slice)",
      {"locations", "before_migr", "first_touch", "warm_cache"});
  for (unsigned p : {2u, 4u, 8u})
    migration_throughput(p);

  return 0;
}
