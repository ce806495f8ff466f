// Collectives benchmark (runtime/collectives.hpp):
//
//   1. latency vs P for each primitive (broadcast, reduce, allreduce,
//      allgather), flat value-exchange vs tree engine, P=2..64.  The flat
//      protocol pays two full barriers and O(P) reads per participant per
//      call; the trees pay ceil(log2 P) point-to-point hops — the table's
//      `speedup` column (flat/tree) shows where the crossover lands on
//      oversubscribed thread-backed locations.
//   2. tree/flat crossover summary — smallest measured P at which the tree
//      beats the flat exchange per primitive.
//   3. sender-side aggregation on a Zipf chunk workload at P=8: the same
//      owner-pinned chunks run with aggregation disabled
//      (aggregation=1) vs the default batching (16 RMIs or agg_max_bytes
//      per message), comparing wall time, messages sent, and the
//      coll.agg_* batching counters.
//
// Run with --json to also write BENCH_collectives.json.
// --pmax N caps the swept location counts (default 64).

#include "bench_common.hpp"
#include "runtime/collectives.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

using namespace stapl;

namespace {

std::vector<unsigned> swept_ps(unsigned pmax)
{
  std::vector<unsigned> ps;
  for (unsigned p : {2u, 3u, 4u, 8u, 16u, 32u, 64u})
    if (p <= pmax)
      ps.push_back(p);
  return ps;
}

[[nodiscard]] std::size_t iters_for(unsigned p)
{
  std::size_t const s = bench::scale();
  if (p <= 8)
    return 60 * s;
  if (p <= 16)
    return 30 * s;
  if (p <= 32)
    return 15 * s;
  return 8 * s;
}

/// Seconds per call (max over locations) of `iters` back-to-back runs of
/// one collective primitive under the currently pinned mode.
template <typename Body>
double time_collective(unsigned p, std::size_t iters, Body body)
{
  std::atomic<double> out{0.0};
  execute(p, [&] {
    double const sec = bench::timed_kernel([&] {
      for (std::size_t i = 0; i < iters; ++i)
        body(i);
    });
    if (this_location() == 0)
      out.store(sec / static_cast<double>(iters));
  });
  return out.load();
}

struct primitive {
  char const* name;
  double (*run)(unsigned p, std::size_t iters);
};

double run_broadcast(unsigned p, std::size_t iters)
{
  return time_collective(p, iters, [p](std::size_t i) {
    (void)broadcast(static_cast<location_id>(i % p),
                    static_cast<long>(this_location() + i));
  });
}

double run_reduce(unsigned p, std::size_t iters)
{
  return time_collective(p, iters, [p](std::size_t i) {
    (void)reduce(static_cast<location_id>(i % p),
                 static_cast<long>(this_location() + i), std::plus<>{});
  });
}

double run_allreduce(unsigned p, std::size_t iters)
{
  return time_collective(p, iters, [](std::size_t i) {
    (void)allreduce(static_cast<long>(this_location() + i), std::plus<>{});
  });
}

double run_allgather(unsigned p, std::size_t iters)
{
  return time_collective(p, iters, [](std::size_t i) {
    (void)allgather(static_cast<long>(this_location() + i));
  });
}

primitive const primitives[] = {
    {"broadcast", run_broadcast},
    {"reduce", run_reduce},
    {"allreduce", run_allreduce},
    {"allgather", run_allgather},
};

/// Work units of `chunks` Zipf(s=1)-sized chunks totalling ~`total`.
std::vector<std::size_t> zipf_sizes(std::size_t chunks, std::size_t total)
{
  double h = 0.0;
  for (std::size_t r = 0; r < chunks; ++r)
    h += 1.0 / static_cast<double>(r + 1);
  std::vector<std::size_t> sizes(chunks);
  for (std::size_t r = 0; r < chunks; ++r)
    sizes[r] = static_cast<std::size_t>(static_cast<double>(total) / h /
                                        static_cast<double>(r + 1)) +
               1;
  return sizes;
}

struct agg_result {
  double seconds = 0.0;
  std::uint64_t msgs = 0;
  std::uint64_t batches = 0;
  std::uint64_t batch_bytes = 0;
};

/// Per-location accumulator for the scattered per-unit results.
class result_sink : public p_object {
 public:
  void note(long v) noexcept
  {
    m_hits.fetch_add(1, std::memory_order_relaxed);
    m_sum.fetch_add(v, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t hits() const noexcept
  {
    return m_hits.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> m_hits{0};
  std::atomic<long> m_sum{0};
};

/// The Zipf chunk workload at P=8 under a given aggregation setting:
/// chunks are dealt to locations in blocks, so the head lands on location
/// 0, and each location runs its own chunks back to back.  Each chunk
/// finishes by scattering one small per-unit result
/// RMI to the unit's home location (u mod P) — the fine-grained
/// element-update pattern sender-side aggregation exists for.  The burst
/// is emitted without polling, so with batching on, the per-destination
/// buffers coalesce it into ~units/P-sized messages; with aggregation=1
/// every update is its own message.  Exactly-once is asserted: the
/// global hit count must equal the total unit count either way.
agg_result run_zipf_chunks(unsigned aggregation)
{
  std::chrono::microseconds const unit{100};
  std::size_t const chunks = 24;
  std::size_t const total_units = 240 * bench::scale();

  runtime_config cfg;
  cfg.num_locations = 8;
  cfg.aggregation = aggregation;

  agg_result res;
  std::atomic<double> sec{0.0};
  std::atomic<std::uint64_t> msgs{0}, batches{0}, bytes{0};
  execute(cfg, [&] {
    auto const sizes = zipf_sizes(chunks, total_units);
    std::size_t expected_hits = 0;
    for (std::size_t r = 0; r < chunks; ++r)
      expected_hits += sizes[r];
    std::vector<location_id> owner(chunks);
    std::size_t const per = chunks / num_locations();
    for (std::size_t r = 0; r < chunks; ++r)
      owner[r] = static_cast<location_id>(
          std::min<std::size_t>(r / per, num_locations() - 1));

    result_sink sink;
    auto const sink_handle = sink.get_handle();
    unsigned const p = static_cast<unsigned>(num_locations());

    double const s = bench::timed_kernel([&] {
      for (std::size_t r = 0; r < chunks; ++r) {
        if (owner[r] != this_location())
          continue;
        for (std::size_t u = 0; u < sizes[r]; ++u) {
          std::this_thread::sleep_for(unit);
          rmi_poll();
        }
        // Scatter per-unit results to each unit's home, no polls in
        // between: the burst aggregation batches (or doesn't).
        for (std::size_t u = 0; u < sizes[r]; ++u)
          async_rmi<result_sink>(
              static_cast<location_id>(u % p), sink_handle,
              &result_sink::note, static_cast<long>(r * 1000 + u));
      }
    });
    auto const delivered =
        allreduce(sink.hits(), std::plus<std::uint64_t>{});
    if (delivered != expected_hits) {
      std::fprintf(stderr,
                   "FATAL: aggregation lost updates: %llu delivered, "
                   "%zu expected (aggregation=%u)\n",
                   static_cast<unsigned long long>(delivered),
                   expected_hits, aggregation);
      std::abort();
    }
    auto const g = metrics::global_snapshot();
    if (this_location() == 0) {
      sec.store(s);
      msgs.store(g.at("rmi.msgs_sent"));
      batches.store(g.at("coll.agg_batches"));
      bytes.store(g.at("coll.agg_bytes"));
    }
    rmi_fence(); // sink destruction is collective
  });
  res.seconds = sec.load();
  res.msgs = msgs.load();
  res.batches = batches.load();
  res.batch_bytes = bytes.load();
  return res;
}

} // namespace

int main(int argc, char** argv)
{
  bench::init(argc, argv);
  unsigned pmax = 64;
  for (int i = 1; i < argc; ++i)
    if (std::string_view(argv[i]) == "--pmax" && i + 1 < argc)
      pmax = static_cast<unsigned>(std::atoi(argv[++i]));

  std::printf("# Collectives — tree vs flat latency, sender-side "
              "aggregation (pmax=%u)\n", pmax);

  auto const ps = swept_ps(pmax);
  std::size_t const nprims = sizeof(primitives) / sizeof(primitives[0]);
  // crossover[i]: smallest swept P where the tree beat the flat exchange.
  std::vector<unsigned> crossover(nprims, 0);

  // Row key "<primitive>/p<P>" is unique, so bench_diff.py's row-matched
  // differ tracks every point; its collectives-aware curve renderer parses
  // the same key back into per-primitive latency-vs-P curves.
  bench::table_header("collective latency vs P (flat vs tree)",
                      {"point", "locations", "flat_us", "tree_us",
                       "speedup"});
  for (std::size_t i = 0; i < nprims; ++i) {
    for (unsigned p : ps) {
      std::size_t const iters = iters_for(p);
      coll::set_mode(coll::mode::flat);
      double const flat_s = primitives[i].run(p, iters);
      coll::set_mode(coll::mode::tree);
      double const tree_s = primitives[i].run(p, iters);
      coll::set_mode(coll::mode::auto_select);
      bench::cell(std::string(primitives[i].name) + "/p" +
                  std::to_string(p));
      bench::cell(static_cast<std::size_t>(p));
      bench::cell(flat_s * 1e6);
      bench::cell(tree_s * 1e6);
      bench::cell(tree_s > 0 ? flat_s / tree_s : 0.0);
      bench::endrow();
      if (crossover[i] == 0 && tree_s < flat_s)
        crossover[i] = p;
    }
  }

  bench::table_header("tree/flat crossover (smallest P where tree wins)",
                      {"primitive", "crossover_p"});
  for (std::size_t i = 0; i < nprims; ++i) {
    bench::cell(std::string(primitives[i].name));
    bench::cell(static_cast<std::size_t>(crossover[i]));
    bench::endrow();
  }

  // Aggregation win on the Zipf chunk workload at P=8.  agg=1
  // disables coalescing (every RMI is its own message); the default
  // batches up to 16 RMIs (or agg_max_bytes) per destination per flush.
  bench::table_header("sender-side aggregation (Zipf chunk workload, P=8)",
                      {"aggregation", "seconds", "msgs_sent", "agg_batches",
                       "agg_bytes"});
  for (unsigned agg : {1u, 16u}) {
    auto const r = run_zipf_chunks(agg);
    bench::cell(static_cast<std::size_t>(agg));
    bench::cell(r.seconds);
    bench::cell(static_cast<std::size_t>(r.msgs));
    bench::cell(static_cast<std::size_t>(r.batches));
    bench::cell(static_cast<std::size_t>(r.batch_bytes));
    bench::endrow();
  }
  return 0;
}
