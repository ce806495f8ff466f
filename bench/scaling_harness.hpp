#ifndef STAPL_BENCH_SCALING_HARNESS_HPP
#define STAPL_BENCH_SCALING_HARNESS_HPP

// Declarative scaling-sweep harness (pSTL-Bench style).
//
// A *kernel* is a named SPMD body plus a base problem size; the harness
// crosses it with the sweep axes — location count P and strong/weak
// scaling mode — runs one stapl::execute per sweep point, and reports
// per-point wall time, parallel efficiency against the P=1 point of the
// same series, and the `metrics::global_snapshot()` delta of that
// execution (threads are fresh per execute, so the
// collective snapshot covers exactly one sweep point).
//
// Efficiency definitions (t1 = seconds of the same series at P=1):
//   strong:  e(P) = t1 / (P * tP)   (fixed total N)
//   weak:    e(P) = t1 / tP         (fixed N per location: N = base_n * P)
//
// Output: tables through the bench_common row/column mirror (one table per
// kernel x mode, rows keyed "pP" for the row-matching differ)
// plus a machine-first "sweeps" JSON array attached to
// BENCH_scaling.json via bench::set_extra_json — the input of
// bench_diff.py's curve-aware diffing.

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace bench {
namespace scaling {

enum class scale_mode { strong, weak };

[[nodiscard]] inline char const* name(scale_mode m)
{
  return m == scale_mode::strong ? "strong" : "weak";
}

/// The declared sweep axes.  Defaults are the CI-smoke ("lite") sweep;
/// the full cross product is opt-in (bench_scaling --full).
struct axes {
  std::vector<unsigned> p_list{1, 2, 4};
  std::vector<scale_mode> modes{scale_mode::strong, scale_mode::weak};
};

/// One point of the sweep: the axes values plus the problem size there.
struct sweep_point {
  std::string kernel;
  scale_mode mode = scale_mode::strong;
  unsigned p = 1;
  std::size_t n = 0;
};

/// Problem size at location count `p`: strong scaling keeps the total
/// fixed, weak scaling keeps the per-location share fixed (exactly
/// base_n elements per location).
[[nodiscard]] inline std::size_t problem_size(scale_mode m,
                                              std::size_t base_n, unsigned p)
{
  return m == scale_mode::weak ? base_n * p : base_n;
}

/// Parallel efficiency of one point given the series' P=1 seconds.
/// Returns 0 when either timing is unusable (too fast to measure).
[[nodiscard]] inline double efficiency(scale_mode m, unsigned p, double t1,
                                       double tp)
{
  if (t1 <= 0.0 || tp <= 0.0)
    return 0.0;
  return m == scale_mode::strong ? t1 / (static_cast<double>(p) * tp)
                                 : t1 / tp;
}

/// Series identity: everything but P (and the P-derived N).  Efficiency is
/// computed within a series; the differ matches curves by this key + p.
[[nodiscard]] inline std::string series_key(sweep_point const& pt)
{
  return pt.kernel + '/' + name(pt.mode);
}

/// A registered workload: `body` runs on every location inside the sweep
/// point's stapl::execute and returns the timed_kernel seconds (identical
/// on all locations — timed_kernel allreduces the max).
struct kernel_def {
  std::string name;
  std::size_t base_n = 0;  ///< N at P=1, both modes
  std::function<double(sweep_point const&)> body;
};

/// All sweep points of one kernel, deterministically ordered: mode > p,
/// with p ascending so the P=1 baseline of every series precedes the rest
/// of its curve.
[[nodiscard]] inline std::vector<sweep_point>
enumerate(std::string const& kernel, std::size_t base_n, axes const& ax)
{
  std::vector<sweep_point> out;
  for (scale_mode m : ax.modes)
    for (unsigned p : ax.p_list)
      out.push_back({kernel, m, p, problem_size(m, base_n, p)});
  return out;
}

/// One measured point.
struct point_result {
  sweep_point pt;
  double seconds = 0.0;
  double efficiency = 0.0;
  stapl::metrics::counter_map metrics;  ///< global_snapshot of this execute
};

/// When nonempty, every sweep point records into a keep-last circular
/// trace ring and dumps its own Perfetto-loadable timeline to
/// "<prefix><point-tag>.json" right after the point's execute returns —
/// so a regressed curve point ships the trace of exactly that execution
/// (its final window; the ring keeps the newest events).  Set from the
/// bench's --trace-points flag before run_sweep.
[[nodiscard]] inline std::string& trace_points_prefix()
{
  static std::string prefix;
  return prefix;
}

/// Filesystem-safe tag of one sweep point (series key + P, '/'→'_').
[[nodiscard]] inline std::string point_file_tag(sweep_point const& pt)
{
  std::string tag = series_key(pt) + "_p" + std::to_string(pt.p);
  for (char& c : tag)
    if (c == '/' || c == ':')
      c = '_';
  return tag;
}

/// Runs one sweep point: a fresh stapl::execute with the point's location
/// count, the kernel body inside, and the collective metrics
/// snapshot captured before the threads join.
[[nodiscard]] inline point_result run_point(kernel_def const& k,
                                            sweep_point const& pt)
{
  point_result res;
  res.pt = pt;
  bool const tracing = !trace_points_prefix().empty();
  if (tracing)
    stapl::trace::enable(std::size_t{1} << 14, /*keep_last=*/true);
  std::atomic<double> secs{0.0};
  auto metrics_out = std::make_shared<stapl::metrics::counter_map>();
  stapl::execute(pt.p, [&] {
    double const s = k.body(pt);
    auto m = stapl::metrics::global_snapshot();
    if (stapl::this_location() == 0) {
      secs.store(s);
      *metrics_out = std::move(m);
    }
  });
  res.seconds = secs.load();
  res.metrics = std::move(*metrics_out);
  if (tracing) {
    std::string const path =
        trace_points_prefix() + point_file_tag(pt) + ".json";
    bool const ok = stapl::trace::dump(path);
    std::printf("# %s %s (%llu events, %llu dropped)\n",
                ok ? "wrote" : "FAILED to write", path.c_str(),
                static_cast<unsigned long long>(stapl::trace::total_events()),
                static_cast<unsigned long long>(stapl::trace::total_dropped()));
    stapl::trace::disable();
    stapl::trace::clear();
  }
  return res;
}

/// Fills every result's efficiency from the P=1 point of its series.
inline void compute_efficiencies(std::vector<point_result>& rs)
{
  for (auto& r : rs) {
    double t1 = 0.0;
    for (auto const& s : rs)
      if (s.pt.p == 1 && series_key(s.pt) == series_key(r.pt)) {
        t1 = s.seconds;
        break;
      }
    r.efficiency = efficiency(r.pt.mode, r.pt.p, t1, r.seconds);
  }
}

/// Runs the full sweep of every kernel and computes efficiencies.
[[nodiscard]] inline std::vector<point_result>
run_sweep(std::vector<kernel_def> const& kernels, axes const& ax)
{
  std::vector<point_result> out;
  for (auto const& k : kernels)
    for (auto const& pt : enumerate(k.name, k.base_n, ax)) {
      std::printf("# point %s p=%u n=%zu\n", series_key(pt).c_str(), pt.p,
                  pt.n);
      std::fflush(stdout);
      out.push_back(run_point(k, pt));
    }
  compute_efficiencies(out);
  return out;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// Serializes a metrics map as a JSON object (sorted keys — counter_map is
/// ordered, so the round-trip is deterministic).
[[nodiscard]] inline std::string
metrics_json(stapl::metrics::counter_map const& m)
{
  std::string out = "{";
  bool first = true;
  for (auto const& [k, v] : m) {
    if (!first)
      out += ", ";
    first = false;
    out += detail::json_quote(k) + ": " + std::to_string(v);
  }
  return out + "}";
}

/// The "sweeps" JSON array: one object per point with the axes spelled out
/// (bench_diff.py matches points by the axes tuple), timing, efficiency
/// and the per-point metrics delta.
[[nodiscard]] inline std::string to_json(std::vector<point_result> const& rs)
{
  std::string out = "[";
  bool first = true;
  for (auto const& r : rs) {
    char num[64];
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"kernel\": " + detail::json_quote(r.pt.kernel) +
           ", \"mode\": " + detail::json_quote(name(r.pt.mode)) +
           ", \"p\": " + std::to_string(r.pt.p) +
           ", \"n\": " + std::to_string(r.pt.n);
    std::snprintf(num, sizeof num, "%.9g", r.seconds);
    out += std::string(", \"seconds\": ") + num;
    std::snprintf(num, sizeof num, "%.9g", r.efficiency);
    out += std::string(", \"efficiency\": ") + num;
    out += ", \"metrics\": " + metrics_json(r.metrics) + "}";
  }
  return out + "\n  ]";
}

/// Prints one table per kernel x mode through the bench_common mirror.
/// The row key ("pP") is unique within a table, so the classic
/// row-matching differ tracks every point too.
inline void print_tables(std::vector<point_result> const& rs)
{
  for (std::size_t i = 0; i < rs.size(); ++i) {
    auto const& r = rs[i];
    bool const head =
        i == 0 || rs[i - 1].pt.kernel != r.pt.kernel ||
        rs[i - 1].pt.mode != r.pt.mode;
    if (head)
      bench::table_header(
          r.pt.kernel + " (" + name(r.pt.mode) + " scaling)",
          {"point", "n", "seconds", "efficiency"});
    bench::cell("p" + std::to_string(r.pt.p));
    bench::cell(r.pt.n);
    bench::cell(r.seconds);
    bench::cell(r.efficiency);
    bench::endrow();
  }
}

} // namespace scaling
} // namespace bench

#endif
