// Task-graph executor benchmark (no dissertation figure — new subsystem,
// see runtime/task_graph.hpp):
//
// An imbalanced workload of Zipf-sized chunk tasks — chunk rank r carries
// ~1/(r+1) of the work, and the whole Zipf head starts on location 0 (the
// same adversarial placement regime as bench_rebalance).  Each chunk
// simulates a latency-bound task (a calibrated sleep per work unit,
// modeling remote-fetch/IO-dominated chunks), so chunks overlap across
// locations regardless of the host's core count.
//
//   1. steal recovery table — wall time with stealing disabled (static
//      per-location scheduling: the loaded location serializes its Zipf
//      head while the rest idle) versus enabled (idle locations pull the
//      head's chunks over), plus the executor's steal counters.  The
//      `recovery` column is static/steal throughput: acceptance wants
//      >= 1.3x for P > 1;
//   2. balanced guard table — the same total work in equal chunks: with no
//      imbalance the steal path must cost ~nothing (ratio ~1.0), showing
//      the scheduler does not tax well-balanced pAlgorithms;
//   3. (--locality) cache-warm vs cold steals — an idle thief facing
//      several loaded victims, one of whose chunks are annotated
//      cached-at-thief: the locality-aware victim order must concentrate
//      the thief's steals on the warm victim, against a hint-less control;
//   4. (--spawn) the stealable spawn path — descriptor-exchange bytes and
//      spawn latency of a dense integral-GID chunked map: the measured
//      spawn_bytes (wire forms only) against what the pre-split
//      full-descriptor allgather would have shipped (raw GID vectors to
//      every peer), plus a repartitioning balanced deal whose payloads
//      must be forwarded producer→owner.
//
// Run with --json to also write BENCH_taskgraph.json.
// Run with --trace <path> to additionally record one traced P=4 Zipf steal
// run and export it as Chrome trace-event JSON (Perfetto-loadable), one
// lane per location.

#include "bench_common.hpp"
#include "algorithms/p_algorithms.hpp"
#include "containers/p_array.hpp"
#include "runtime/task_graph.hpp"
#include "views/views.hpp"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

using namespace stapl;

namespace {

std::chrono::microseconds const kUnit{200}; ///< latency per work unit

/// Work units of `chunks` Zipf(s=1)-sized chunks totalling ~`total`.
std::vector<std::size_t> zipf_sizes(std::size_t chunks, std::size_t total)
{
  double h = 0.0;
  for (std::size_t r = 0; r < chunks; ++r)
    h += 1.0 / static_cast<double>(r + 1);
  std::vector<std::size_t> sizes(chunks);
  for (std::size_t r = 0; r < chunks; ++r) {
    double const w = static_cast<double>(total) / h /
                     static_cast<double>(r + 1);
    sizes[r] = static_cast<std::size_t>(w) + 1;
  }
  return sizes;
}

struct sched_result {
  double seconds = 0.0;
  std::uint64_t stolen = 0;
  std::uint64_t steal_fail = 0;
};

/// Runs one graph of latency-bound chunk tasks with the given owner per
/// chunk; returns wall seconds (max over locations) and steal counters.
sched_result run_chunks(std::vector<std::size_t> const& sizes,
                        std::vector<location_id> const& owner, bool steal)
{
  sched_result res;
  metrics::reset_all();
  task_graph<char> tg;
  tg.set_stealing(steal);
  for (std::size_t r = 0; r < sizes.size(); ++r) {
    std::size_t const units = sizes[r];
    task_options stealable;
    stealable.stealable = true;
    stealable.weight = units; // the descriptor byte-estimate analogue
    tg.add_task(
        owner[r],
        [units](std::vector<char> const&, char const&) {
          // One latency unit at a time, polling in between — like a real
          // latency-bound chunk whose remote reads drive the RMI layer, so
          // a loaded location keeps granting steals mid-chunk.
          for (std::size_t u = 0; u < units; ++u) {
            std::this_thread::sleep_for(kUnit);
            rmi_poll();
          }
          return char{};
        },
        {}, stealable);
  }
  res.seconds = bench::timed_kernel([&] { tg.execute(); });
  auto const g = metrics::global_snapshot();
  res.stolen = g.at("tg.tasks_stolen");
  res.steal_fail = g.at("tg.steal_fail");
  return res;
}

struct locality_result {
  double seconds = 0.0;
  std::uint64_t from_warm = 0;  ///< thief executions of the warm victim's tasks
  std::uint64_t from_cold = 0;  ///< thief executions of other victims' tasks
};

/// Cache-warm vs cold steals: location 0 idles while every other location
/// owns `per_victim` latency-bound chunks; with `hints`, the *last*
/// location's chunks are annotated cached-at-0 — deliberately the victim
/// the load/id tie-break would probe last, so any warm-share shift is the
/// hint's doing.  Each task returns the location that executed it, so
/// owners can report where their work went.
locality_result run_locality(std::size_t per_victim, std::size_t units,
                             bool hints)
{
  location_id const warm_victim = num_locations() - 1;
  locality_result res;
  task_graph<long> tg;
  using tid = task_graph<long>::task_id;
  std::vector<tid> mine;
  for (location_id v = 1; v < num_locations(); ++v) {
    task_options opts;
    opts.stealable = true;
    if (hints && v == warm_victim)
      opts.cached_at = 0;
    for (std::size_t k = 0; k < per_victim; ++k) {
      tid const t = tg.add_task(
          v,
          [units](std::vector<long> const&, char const&) {
            for (std::size_t u = 0; u < units; ++u) {
              std::this_thread::sleep_for(kUnit);
              rmi_poll();
            }
            return static_cast<long>(this_location());
          },
          {}, opts);
      if (v == this_location())
        mine.push_back(t);
    }
  }
  res.seconds = bench::timed_kernel([&] { tg.execute(); });
  std::uint64_t from_warm = 0, from_cold = 0;
  for (tid const t : mine) {
    if (tg.result_of(t) != 0)
      continue; // ran on a victim, not the thief
    (this_location() == warm_victim ? from_warm : from_cold) += 1;
  }
  res.from_warm = allreduce(from_warm, std::plus<>{});
  res.from_cold = allreduce(from_cold, std::plus<>{});
  return res;
}

} // namespace

int main(int argc, char** argv)
{
  bench::init(argc, argv);
  bool locality_mode = false;
  bool spawn_mode = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--locality")
      locality_mode = true;
    if (std::string_view(argv[i]) == "--spawn")
      spawn_mode = true;
    if (std::string_view(argv[i]) == "--trace" && i + 1 < argc)
      trace_path = argv[++i];
  }
  std::printf("# Task-graph executor — work stealing on imbalanced "
              "(Zipf-sized) chunks\n");

  std::size_t const chunks = 32;
  std::size_t const total_units = 1200 * bench::scale();

  bench::table_header("Zipf head on location 0 (steal recovery)",
                      {"locations", "static_s", "steal_s", "recovery",
                       "stolen", "steal_fail"});
  for (unsigned p : {2u, 4u, 8u}) {
    std::atomic<double> ts{0}, tw{0};
    std::atomic<std::uint64_t> stolen{0}, fail{0};
    execute(p, [&] {
      auto const sizes = zipf_sizes(chunks, total_units);
      // Block deal: ranks 0..C/P-1 (the Zipf head) land on location 0.
      std::vector<location_id> owner(chunks);
      std::size_t const per = chunks / num_locations();
      for (std::size_t r = 0; r < chunks; ++r)
        owner[r] = static_cast<location_id>(
            std::min<std::size_t>(r / per, num_locations() - 1));

      auto const stat = run_chunks(sizes, owner, false);
      auto const dyn = run_chunks(sizes, owner, true);
      if (this_location() == 0) {
        ts.store(stat.seconds);
        tw.store(dyn.seconds);
        stolen.store(dyn.stolen);
        fail.store(dyn.steal_fail);
      }
    });
    bench::cell(static_cast<std::size_t>(p));
    bench::cell(ts.load());
    bench::cell(tw.load());
    bench::cell(tw.load() > 0 ? ts.load() / tw.load() : 0.0);
    bench::cell(static_cast<std::size_t>(stolen.load()));
    bench::cell(static_cast<std::size_t>(fail.load()));
    bench::endrow();
  }

  bench::table_header("balanced chunks (scheduler overhead guard)",
                      {"locations", "static_s", "steal_s", "ratio"});
  for (unsigned p : bench::default_locations) {
    std::atomic<double> ts{0}, tw{0};
    execute(p, [&] {
      std::size_t const balanced_chunks = 8 * num_locations();
      std::vector<std::size_t> sizes(balanced_chunks,
                                     total_units / balanced_chunks + 1);
      std::vector<location_id> owner(balanced_chunks);
      for (std::size_t r = 0; r < balanced_chunks; ++r)
        owner[r] = static_cast<location_id>(r % num_locations());
      auto const stat = run_chunks(sizes, owner, false);
      auto const dyn = run_chunks(sizes, owner, true);
      if (this_location() == 0) {
        ts.store(stat.seconds);
        tw.store(dyn.seconds);
      }
    });
    bench::cell(static_cast<std::size_t>(p));
    bench::cell(ts.load());
    bench::cell(tw.load());
    bench::cell(tw.load() > 0 ? ts.load() / tw.load() : 0.0);
    bench::endrow();
  }

  if (locality_mode) {
    // Cache-warm vs cold steals: the warm-victim share of the thief's
    // executions with locality hints on vs off.  With hints the
    // warmth-ordered victim list concentrates the steals on the warm
    // (last) victim, which the load/id tie-break alone would probe last.
    bench::table_header("--locality: cache-warm vs cold steals "
                        "(thief=loc 0, warm victim=last loc)",
                        {"locations", "hinted_s", "cold_s", "warm_share_hint",
                         "warm_share_cold"});
    for (unsigned p : {3u, 4u, 8u}) {
      std::atomic<double> th{0}, tc{0}, sh{0}, sc{0};
      execute(p, [&] {
        std::size_t const per_victim = 12;
        std::size_t const units = 4 * bench::scale();
        auto const hinted = run_locality(per_victim, units, true);
        auto const cold = run_locality(per_victim, units, false);
        auto share = [](locality_result const& r) {
          auto const total = r.from_warm + r.from_cold;
          return total == 0 ? 0.0
                            : static_cast<double>(r.from_warm) /
                                  static_cast<double>(total);
        };
        if (this_location() == 0) {
          th.store(hinted.seconds);
          tc.store(cold.seconds);
          sh.store(share(hinted));
          sc.store(share(cold));
        }
      });
      bench::cell(static_cast<std::size_t>(p));
      bench::cell(th.load());
      bench::cell(tc.load());
      bench::cell(sh.load());
      bench::cell(sc.load());
      bench::endrow();
    }
  }

  if (spawn_mode) {
    // The stealable spawn path on dense integral-GID chunks: every chunk
    // of an aligned array view is one contiguous run, so the wire-form
    // exchange plus run-encoded payloads collapse the O(elements)
    // descriptor allgather of the pre-split scheme to O(chunks)
    // metadata.  full_bytes reconstructs what that scheme would have
    // shipped (raw GID vectors + metadata to each of the P-1 peers);
    // wire_bytes is the measured spawn_bytes counter.
    bench::table_header("--spawn: metadata-only descriptor exchange "
                        "(dense integral-GID chunks)",
                        {"locations", "full_bytes", "wire_bytes",
                         "reduction", "spawn_s"});
    for (unsigned p : {2u, 4u, 8u}) {
      std::atomic<std::uint64_t> fullb{0}, wireb{0};
      std::atomic<double> sp{0};
      execute(p, [&] {
        std::size_t const n = 2048 * num_locations() * bench::scale();
        p_array<long> pa(n, 1);
        array_1d_view v(pa);
        exec_policy pol;
        pol.grain = 128;
        pol.stealable = true;
        std::uint64_t full = 0;
        for (auto const& d : v.chunks(pol.grain))
          full += packed_size(d.gids.to_vector()) + packed_size(d.wire());
        full *= num_locations() - 1;
        // The chunk body is one add: wall time is spawn exchange + graph
        // machinery, i.e. the per-spawn overhead the split removes.
        double const sec = bench::timed_kernel(
            [&] { p_for_each(v, [](long& x) { x += 1; }, pol); });
        auto const spawn =
            allreduce(pa.epoch_task_stats().spawn_bytes,
                      std::plus<std::uint64_t>{});
        auto const full_total =
            allreduce(full, std::plus<std::uint64_t>{});
        if (this_location() == 0) {
          fullb.store(full_total);
          wireb.store(spawn);
          sp.store(sec);
        }
      });
      bench::cell(static_cast<std::size_t>(p));
      bench::cell(static_cast<std::size_t>(fullb.load()));
      bench::cell(static_cast<std::size_t>(wireb.load()));
      bench::cell(wireb.load() > 0 ? static_cast<double>(fullb.load()) /
                                         static_cast<double>(wireb.load())
                                   : 0.0);
      bench::cell(sp.load());
      bench::endrow();
    }

    // Repartitioning deal: a balanced view over a blocked array crosses
    // the storage distribution, so some chunks are produced on a
    // location other than their (storage) owner — their run-encoded
    // payloads travel point-to-point instead of riding any collective.
    bench::table_header("--spawn: payload forwarding "
                        "(balanced deal over blocked storage)",
                        {"locations", "payload_fwds", "spawn_bytes",
                         "spawn_s"});
    for (unsigned p : {2u, 4u, 8u}) {
      std::atomic<std::uint64_t> fwds{0}, bytes{0};
      std::atomic<double> sp{0};
      execute(p, [&] {
        std::size_t const n = 2048 * num_locations() * bench::scale();
        p_array<long> pa(n, 1);
        balanced_view bv(pa, 4 * num_locations());
        exec_policy pol;
        pol.grain = 128;
        pol.stealable = true;
        double const sec = bench::timed_kernel(
            [&] { p_for_each(bv, [](long& x) { x += 1; }, pol); });
        auto const fw =
            allreduce(pa.epoch_task_stats().payload_forwards,
                      std::plus<std::uint64_t>{});
        auto const sb = allreduce(pa.epoch_task_stats().spawn_bytes,
                                  std::plus<std::uint64_t>{});
        if (this_location() == 0) {
          fwds.store(fw);
          bytes.store(sb);
          sp.store(sec);
        }
      });
      bench::cell(static_cast<std::size_t>(p));
      bench::cell(static_cast<std::size_t>(fwds.load()));
      bench::cell(static_cast<std::size_t>(bytes.load()));
      bench::cell(sp.load());
      bench::endrow();
    }
  }

  if (!trace_path.empty()) {
    // One traced P=4 Zipf steal run: the probe→grant→run chains, fence and
    // task_run scopes land in per-location Perfetto lanes.  A smaller
    // workload than the timing tables — the trace is for inspection, not
    // measurement.
    trace::enable();
    execute(4, [&] {
      auto const sizes = zipf_sizes(chunks, 200 * bench::scale());
      std::vector<location_id> owner(chunks);
      std::size_t const per = chunks / num_locations();
      for (std::size_t r = 0; r < chunks; ++r)
        owner[r] = static_cast<location_id>(
            std::min<std::size_t>(r / per, num_locations() - 1));
      (void)run_chunks(sizes, owner, true);
    });
    bool const ok = trace::dump(trace_path);
    std::printf("# %s %s (%llu events, %llu dropped)\n",
                ok ? "wrote" : "FAILED to write", trace_path.c_str(),
                static_cast<unsigned long long>(trace::total_events()),
                static_cast<unsigned long long>(trace::total_dropped()));
    trace::disable();
    trace::clear();
  }
  return 0;
}
