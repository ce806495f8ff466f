// kv_read and kv_churn: open-loop Zipf key-value serving on p_hash_map.
//
// Every location generates its own share of a fixed offered rate against a
// schedule; a request's latency runs from its intended send time to the
// return of the container call, so a stall charges every request queued
// behind it.  The op stream is generated from the seed before the
// execution starts; the rate is a constant, never calibrated at run time.

#include "harness.hpp"

#include "containers/p_associative.hpp"
#include "core/load_balancer.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

constexpr std::size_t stable_keys = std::size_t{1} << 16;
constexpr long volatile_base = 1L << 20;
constexpr std::size_t volatile_preload = 4096; ///< per location
constexpr double zipf_s = 0.99;
constexpr double window_s = 0.5;

/// One serving shape.  Percentages of find/apply/insert; erase is the rest.
struct kv_shape {
  double rate;          ///< offered requests per second, all locations
  unsigned find_pct;
  unsigned apply_pct;
  unsigned insert_pct;
  unsigned wave_every;  ///< rebalance() mid-window in every Nth window
  unsigned head_every;  ///< the Zipf head moves on every N windows
};

// Offered rates sit far below the slow-mode capacity of the remote-read
// path, so a scheduler stall drains within its window instead of tipping
// the run into a backlog that never recovers (see perfbench/README.md).
constexpr kv_shape read_shape{5000, 95, 5, 0, 0, 0};
constexpr kv_shape churn_shape{2500, 50, 25, 15, 2, 4};

enum op_kind : std::uint32_t { op_find, op_apply, op_insert, op_erase };

/// Packed op: kind in the top two bits; a Zipf rank (stable range) or a
/// volatile key offset below.
constexpr std::uint32_t payload_mask = (1u << 30) - 1;

[[nodiscard]] constexpr std::uint32_t pack(op_kind k, std::uint64_t payload)
{
  return (static_cast<std::uint32_t>(k) << 30) |
         static_cast<std::uint32_t>(payload);
}

[[nodiscard]] long initial_value(std::uint64_t seed, long key)
{
  return static_cast<long>(mix64(seed ^ static_cast<std::uint64_t>(key)) % 1000) + 1;
}

/// The j-th fresh volatile key of location l: unique across locations, and
/// its hash owner rotates with j so writes reach every location.
[[nodiscard]] long volatile_key(unsigned l, std::uint64_t j)
{
  return volatile_base + static_cast<long>(j * locations + (l + j) % locations);
}

struct loc_stream {
  std::vector<std::vector<std::uint32_t>> windows;
  std::vector<long> preload; ///< volatile keys this location inserts at set-up
};

/// Pre-generates every location's op stream.  Erases pop the oldest key the
/// same location inserted in an earlier window (or at set-up), so the
/// volatile-range size is exactly preload + inserts - erases.
std::vector<loc_stream> generate(kv_shape const& s, std::uint64_t seed,
                                 std::size_t n_windows, std::size_t per_window)
{
  zipf const z(stable_keys, zipf_s);
  std::vector<loc_stream> out(locations);
  for (unsigned l = 0; l != locations; ++l) {
    rng r(seed, l);
    auto& ls = out[l];
    std::deque<std::pair<long, std::size_t>> fifo; // (key, window + 1)
    std::uint64_t next_j = 0;
    if (s.insert_pct != 0)
      for (std::size_t j = 0; j != volatile_preload; ++j) {
        long const k = volatile_key(l, next_j++);
        ls.preload.push_back(k);
        fifo.emplace_back(k, 0);
      }
    ls.windows.resize(n_windows);
    for (std::size_t w = 0; w != n_windows; ++w) {
      auto& ops = ls.windows[w];
      ops.reserve(per_window);
      for (std::size_t i = 0; i != per_window; ++i) {
        auto const d = static_cast<unsigned>(r.below(100));
        if (d < s.find_pct) {
          ops.push_back(pack(op_find, z(r)));
        } else if (d < s.find_pct + s.apply_pct) {
          ops.push_back(pack(op_apply, z(r)));
        } else if (d < s.find_pct + s.apply_pct + s.insert_pct) {
          long const k = volatile_key(l, next_j++);
          fifo.emplace_back(k, w + 1);
          ops.push_back(pack(op_insert, static_cast<std::uint64_t>(k - volatile_base)));
        } else {
          if (fifo.empty() || fifo.front().second > w)
            throw std::runtime_error("kv: volatile preload too small for the erase rate");
          ops.push_back(pack(op_erase,
                             static_cast<std::uint64_t>(fifo.front().first - volatile_base)));
          fifo.pop_front();
        }
      }
    }
  }
  return out;
}

/// What one location saw while serving.
struct loc_out {
  std::vector<std::vector<std::uint64_t>> lat; ///< per window, ns
  std::vector<std::uint64_t> window_ns;
  std::uint64_t bad_finds = 0;
};

/// End-of-run totals, allreduced across locations.
enum total : std::size_t {
  t_stable_sum,
  t_stable_n,
  t_volatile_n,
  t_applies,
  t_inserts,
  t_erases,
  t_bad_finds,
  t_count_
};
using totals = std::array<std::int64_t, t_count_>;

} // namespace

run_result run_kv(options const& o, bool churn)
{
  kv_shape const& s = churn ? churn_shape : read_shape;
  std::size_t const n_windows = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::llround(o.seconds / window_s)));
  double const rate_loc = s.rate / locations;
  auto const per_window =
      static_cast<std::size_t>(std::llround(rate_loc * window_s));
  double const period_ns = 1e9 / rate_loc;
  std::uint64_t const seed = o.seed;

  auto const streams = generate(s, seed, n_windows, per_window);

  // kv_read's key order is fixed up front; kv_churn's depends on which
  // location owns which key and is built once the map is set up.
  std::vector<long> read_order(stable_keys);
  std::iota(read_order.begin(), read_order.end(), 0L);
  {
    rng r(seed, 1000);
    shuffle(read_order, r);
  }
  std::int64_t preload_sum = 0;
  for (std::size_t k = 0; k != stable_keys; ++k)
    preload_sum += initial_value(seed, static_cast<long>(k));

  run_result res;
  std::vector<double> setup_s;
  std::vector<loc_out> outs(locations);
  std::vector<stapl::rebalance_report> waves;
  std::vector<double> imbalance_measured;
  totals tot{};

  stapl::runtime_config cfg;
  cfg.num_locations = locations;

  for (unsigned rep = 0; rep != o.setup_reps; ++rep) {
    bool const measured = o.measured_rep(rep);
    std::uint64_t const t_entry = now_ns();
    stapl::execute(cfg, [&] {
      unsigned const me = stapl::this_location();
      std::optional<stapl::p_hash_map<long, long>> kvp;
      {
        scope sc(sp::setup_build);
        kvp.emplace();
      }
      auto& kv = *kvp;
      {
        scope sc(sp::setup_preload);
        for (std::size_t k = me; k < stable_keys; k += locations)
          kv.insert_async(static_cast<long>(k),
                          initial_value(seed, static_cast<long>(k)));
        for (long k : streams[me].preload)
          kv.insert_async(k, 1);
        settle();
        stapl::rmi_fence();
      }
      std::vector<std::vector<long>> owned; // stable keys, per owner
      if (churn) {
        scope sc(sp::setup_dynamic);
        kv.enable_load_balancing();
        std::vector<long> mine;
        kv.for_each_local([&](long k, long&) {
          if (k < static_cast<long>(stable_keys))
            mine.push_back(k);
        });
        owned = stapl::allgather(mine);
      }
      stapl::rmi_fence();
      if (me == 0)
        setup_s.push_back(static_cast<double>(now_ns() - t_entry) / 1e9);
      if (!measured)
        return;

      // kv_churn: the Zipf head of order h is location h's own keys, so the
      // skew lands on one owner until the head moves on.  Built after the
      // set-up timer stops: it is the benchmark's work, not the library's.
      std::vector<std::vector<long>> orders;
      for (unsigned h = 0; churn && h != locations; ++h) {
        rng r(seed, 2000 + h);
        auto& ord = orders.emplace_back();
        for (unsigned i = 0; i != locations; ++i) {
          auto part = owned[(h + i) % locations];
          std::sort(part.begin(), part.end());
          shuffle(part, r);
          ord.insert(ord.end(), part.begin(), part.end());
        }
        if (ord.size() != stable_keys)
          throw std::runtime_error("kv_churn: owners hold " +
                                   std::to_string(ord.size()) + " stable keys");
      }

      auto& out = outs[me];
      out.lat.assign(n_windows, {});
      out.window_ns.assign(n_windows, 0);
      std::uint64_t seq = 0;
      for (std::size_t w = 0; w != n_windows; ++w) {
        begin_window();
        bool const wave = s.wave_every != 0 && w % s.wave_every == s.wave_every - 1;
        auto const& order =
            churn ? orders[(w / s.head_every) % locations] : read_order;
        auto const& ops = streams[me].windows[w];
        auto& lat = out.lat[w];
        lat.resize(per_window);
        scope ws(sp::window, w);
        std::uint64_t const t0 = now_ns();
        for (std::size_t i = 0; i != per_window; ++i) {
          if (wave && i == per_window / 2) {
            settle();
            stapl::rebalance_report rep_;
            {
              scope sc(sp::rebalance, w, ws.index());
              rep_ = kv.rebalance();
            }
            if (me == 0)
              waves.push_back(rep_);
          }
          std::uint64_t const intended =
              t0 + static_cast<std::uint64_t>(static_cast<double>(i) * period_ns);
          while (now_ns() < intended)
            if (!stapl::rmi_poll())
              std::this_thread::yield();

          std::uint32_t const op = ops[i];
          std::uint32_t const payload = op & payload_mask;
          std::uint64_t const t_call = g_trace ? now_ns() : 0;
          sp call = sp::find_val;
          switch (op >> 30) {
            case op_find: {
              long const k = order[payload];
              auto const [v, found] = kv.find_val(k);
              if (!found || v < initial_value(seed, k))
                ++out.bad_finds;
              break;
            }
            case op_apply:
              call = sp::apply_async;
              kv.apply_async(order[payload], [](long& v) { v += 1; });
              break;
            case op_insert:
              call = sp::insert_async;
              kv.insert_async(volatile_base + payload, 1);
              break;
            default:
              call = sp::erase_async;
              kv.erase_async(volatile_base + payload);
              break;
          }
          std::uint64_t const t_done = now_ns();
          lat[i] = t_done - intended;
          if (g_trace) {
            auto& log = my_log();
            std::uint64_t const id = (std::uint64_t{me} << 48) | seq;
            auto const parent = log.add(static_cast<std::uint16_t>(sp::request),
                                        id, no_parent, intended, t_done);
            log.add(static_cast<std::uint16_t>(call), id, parent, t_call, t_done);
          }
          ++seq;
        }
        out.window_ns[w] = now_ns() - t0;
        settle();
        timed_fence(w, ws.index());
        if (wave) {
          // Post-wave balance as the owners saw it: accesses since the
          // wave's epoch reset.
          auto const acc = stapl::allgather(kv.get_directory().epoch_accesses());
          std::uint64_t sum = 0, mx = 0;
          for (auto a : acc) {
            sum += a;
            mx = std::max(mx, a);
          }
          if (me == 0 && sum != 0)
            imbalance_measured.push_back(static_cast<double>(mx) * locations /
                                         static_cast<double>(sum));
        }
        (void)timed_sum(per_window, w, ws.index());
        capture_window(res);
      }

      // Correctness: exactly-once applies across migrations, no lost or
      // duplicated keys, volatile size = preload + inserts - erases.
      stapl::rmi_fence();
      totals mine{};
      kv.for_each_local([&](long k, long& v) {
        if (k < static_cast<long>(stable_keys)) {
          mine[t_stable_sum] += v;
          mine[t_stable_n] += 1;
        } else {
          mine[t_volatile_n] += 1;
        }
      });
      for (auto const& ops : streams[me].windows)
        for (auto op : ops) {
          auto const kind = op >> 30;
          mine[t_applies] += kind == op_apply;
          mine[t_inserts] += kind == op_insert;
          mine[t_erases] += kind == op_erase;
        }
      mine[t_bad_finds] = static_cast<std::int64_t>(out.bad_finds);
      auto const all = stapl::allreduce(mine, [](totals a, totals const& b) {
        for (std::size_t i = 0; i != a.size(); ++i)
          a[i] += b[i];
        return a;
      });
      if (me == 0)
        tot = all;
    });
  }

  // --- correctness
  double const requests =
      static_cast<double>(locations * n_windows * per_window);
  res.attempted += static_cast<std::uint64_t>(requests);
  if (tot[t_bad_finds] != 0) {
    res.failed += static_cast<std::uint64_t>(tot[t_bad_finds]);
    res.failures.push_back(std::to_string(tot[t_bad_finds]) +
                           " stable-range finds missed or read below the preload");
  }
  res.check(tot[t_stable_n] == static_cast<std::int64_t>(stable_keys),
            "stable-range key count " + std::to_string(tot[t_stable_n]));
  res.check(tot[t_stable_sum] == preload_sum + tot[t_applies],
            "stable-range sum " + std::to_string(tot[t_stable_sum]) + " != " +
                std::to_string(preload_sum + tot[t_applies]));
  if (churn) {
    std::int64_t const expect_vol =
        static_cast<std::int64_t>(locations * volatile_preload) +
        tot[t_inserts] - tot[t_erases];
    res.check(tot[t_volatile_n] == expect_vol,
              "volatile-range size " + std::to_string(tot[t_volatile_n]) +
                  " != " + std::to_string(expect_vol));
    res.check(waves.size() == n_windows / s.wave_every,
              "waves run " + std::to_string(waves.size()));
    for (std::size_t i = 0; i != waves.size(); ++i)
      res.check(waves[i].moves > 0, "wave " + std::to_string(i) + " moved no keys");
  }

  // --- end-to-end: medians over windows of each window's pooled quantile
  std::vector<double> p50_w, p90_w;
  std::vector<std::uint64_t> pooled, pooled_wave;
  double measured_s = 0;
  for (std::size_t w = 0; w != n_windows; ++w) {
    std::vector<std::uint64_t> win;
    std::uint64_t longest = 0;
    for (auto const& lo : outs) {
      win.insert(win.end(), lo.lat[w].begin(), lo.lat[w].end());
      longest = std::max(longest, lo.window_ns[w]);
    }
    measured_s += static_cast<double>(longest) / 1e9;
    pooled.insert(pooled.end(), win.begin(), win.end());
    if (s.wave_every != 0 && w % s.wave_every == s.wave_every - 1)
      pooled_wave.insert(pooled_wave.end(), win.begin(), win.end());
    p50_w.push_back(static_cast<double>(percentile(win, 0.50)) / 1e3);
    p90_w.push_back(static_cast<double>(percentile(win, 0.90)) / 1e3);
  }
  auto& e = res.end_to_end;
  e["setup_s"] = setup_seconds(setup_s);
  e["ops_per_s"] = requests / measured_s;
  e["elems_per_s"] = e["ops_per_s"];

  // Request latency, reported per-layer: it moves with scheduler stalls of
  // the host too much to carry a regression bound (see perfbench/README.md).
  auto& m = res.per_layer;
  m["latency.samples"] = static_cast<double>(pooled.size());
  m["latency.p50_us"] = median(p50_w);
  m["latency.p90_us"] = median(p90_w);
  m["latency.p99_us"] = static_cast<double>(percentile(pooled, 0.99)) / 1e3;
  m["latency.wave_p99_us"] =
      pooled_wave.empty() ? 0.0
                          : static_cast<double>(percentile(pooled_wave, 0.99)) / 1e3;
  std::printf("# %zu windows x %zu requests/location at %.0f req/s offered\n",
              n_windows, per_window, s.rate);
  std::printf("# whole run, %zu samples: p50 %.2f us, p99 %.2f us, max %.2f us\n",
              pooled.size(), static_cast<double>(percentile(pooled, 0.50)) / 1e3,
              m["latency.p99_us"], static_cast<double>(percentile(pooled, 1.0)) / 1e3);
  if (churn)
    std::printf("# wave windows, %zu samples: p99 %.2f us\n", pooled_wave.size(),
                m["latency.wave_p99_us"]);

  // --- per-layer
  add_counter_metrics(res, requests, measured_s);
  std::vector<double> before, after;
  double moves = 0, bytes = 0;
  for (auto const& wv : waves) {
    moves += static_cast<double>(wv.moves);
    bytes += static_cast<double>(wv.bytes_moved);
    before.push_back(wv.imbalance_before);
    after.push_back(wv.imbalance_after);
  }
  m["load_balancer.waves"] = static_cast<double>(waves.size());
  m["load_balancer.moves"] = moves;
  m["load_balancer.bytes_moved"] = bytes;
  m["load_balancer.imbalance_before"] = median(before);
  m["load_balancer.imbalance_after"] = median(after);
  m["load_balancer.imbalance_measured"] = median(imbalance_measured);
  if (g_trace)
    add_span_metrics(res);
  return res;
}

} // namespace perfbench
