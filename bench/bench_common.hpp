#ifndef STAPL_BENCH_COMMON_HPP
#define STAPL_BENCH_COMMON_HPP

// Common harness for the figure-reproduction benchmarks.
//
// Each bench binary regenerates one table/figure of the dissertation's
// evaluation (Ch. VIII-XIII): same rows/series as the paper, measured on
// thread-backed locations (see EXPERIMENTS.md for the substitution notes).
// The measurement kernel is the Fig. 24 kernel: concurrently perform N/P
// method invocations per location, fence, report the maximum time across
// locations.
//
// STAPL_BENCH_SCALE (env var, default 1) scales workload sizes.
//
// Machine-readable output: a bench that calls bench::init(argc, argv)
// honours a `--json` flag; every table printed through
// table_header/cell/endrow is then mirrored into BENCH_<name>.json in the
// working directory, so successive PRs can track the performance
// trajectory without scraping stdout.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "runtime/runtime.hpp"
#include "runtime/timer.hpp"

namespace bench {

[[nodiscard]] inline std::size_t scale()
{
  if (char const* s = std::getenv("STAPL_BENCH_SCALE"))
    return std::max(1L, std::atol(s));
  return 1;
}

// ---------------------------------------------------------------------------
// JSON mirroring (--json)
// ---------------------------------------------------------------------------

namespace detail {

struct json_state {
  bool enabled = false;
  std::string name;
  std::string title;                           ///< current table
  std::vector<std::string> columns;            ///< current table columns
  std::vector<std::vector<std::string>> rows;  ///< values as JSON literals
  std::vector<std::string> row;                ///< row under construction
  std::string tables;                          ///< serialized finished tables
  std::vector<std::pair<std::string, std::string>>
      extra;                                   ///< extra top-level sections
};

[[nodiscard]] inline json_state& jstate()
{
  static json_state s;
  return s;
}

inline void json_append(std::string v)
{
  auto& j = jstate();
  if (j.enabled)
    j.row.push_back(std::move(v));
}

[[nodiscard]] inline std::string json_quote(std::string const& s)
{
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\')
      out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Serializes the current table (if any) onto j.tables.
inline void json_flush_table()
{
  auto& j = jstate();
  if (!j.enabled || j.title.empty())
    return;
  std::string t = "    {\n      \"title\": " + json_quote(j.title) +
                  ",\n      \"columns\": [";
  for (std::size_t i = 0; i < j.columns.size(); ++i)
    t += (i ? ", " : "") + json_quote(j.columns[i]);
  t += "],\n      \"rows\": [";
  for (std::size_t r = 0; r < j.rows.size(); ++r) {
    t += (r ? ", " : "") + std::string("[");
    for (std::size_t c = 0; c < j.rows[r].size(); ++c)
      t += (c ? ", " : "") + j.rows[r][c];
    t += "]";
  }
  t += "]\n    }";
  if (!j.tables.empty())
    j.tables += ",\n";
  j.tables += t;
  j.title.clear();
  j.columns.clear();
  j.rows.clear();
  j.row.clear();
}

/// Serializes the process-wide metrics accumulator (every counter family
/// the runtime folded at the end of each execute()) as one JSON object,
/// next to the timing tables.
[[nodiscard]] inline std::string json_metrics()
{
  std::string out = "{";
  bool first = true;
  for (auto const& [k, v] : stapl::metrics::process_totals()) {
    if (!first)
      out += ", ";
    first = false;
    out += json_quote(k) + ": " + std::to_string(v);
  }
  return out + "}";
}

/// Serializes the process-wide latency accumulator: one object per op
/// family that recorded samples, with count/sum and the tail quantiles.
/// Empty ({}) unless the bench enabled latency recording (--latency /
/// STAPL_LATENCY=1) or fed histograms directly.
[[nodiscard]] inline std::string json_latency()
{
  std::string out = "{";
  bool first = true;
  for (std::size_t i = 0; i != stapl::latency::op_count; ++i) {
    auto const o = static_cast<stapl::latency::op>(i);
    auto const h = stapl::latency::process_histogram(o);
    if (h.empty())
      continue;
    if (!first)
      out += ", ";
    first = false;
    out += json_quote(stapl::latency::name_of(o)) +
           ": {\"count\": " + std::to_string(h.count) +
           ", \"sum_ns\": " + std::to_string(h.sum_ns) +
           ", \"p50_ns\": " + std::to_string(h.p50()) +
           ", \"p90_ns\": " + std::to_string(h.p90()) +
           ", \"p99_ns\": " + std::to_string(h.p99()) +
           ", \"p999_ns\": " + std::to_string(h.p999()) +
           ", \"max_ns\": " + std::to_string(h.max()) + "}";
  }
  return out + "}";
}

inline void json_write_file()
{
  auto& j = jstate();
  if (!j.enabled)
    return;
  json_flush_table();
  std::string const path = "BENCH_" + j.name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  std::string extra;
  for (auto const& [k, v] : j.extra)
    extra += ",\n  " + json_quote(k) + ": " + v;
  std::fprintf(f,
               "{\n  \"bench\": %s,\n  \"scale\": %zu,\n  \"tables\": [\n%s\n"
               "  ],\n  \"metrics\": %s,\n  \"latency\": %s%s\n}\n",
               json_quote(j.name).c_str(), scale(), j.tables.c_str(),
               json_metrics().c_str(), json_latency().c_str(), extra.c_str());
  std::fclose(f);
  std::printf("# wrote %s\n", path.c_str());
}

} // namespace detail

/// Attaches an extra top-level section to the `--json` output file: `value`
/// must already be serialized JSON (object/array/literal).  Lets a bench
/// emit structured data beyond the row/column tables — e.g. the scaling
/// harness's "sweeps" array.  Replaces any previous value for `key`;
/// a no-op without --json.
inline void set_extra_json(std::string const& key, std::string value)
{
  auto& j = detail::jstate();
  if (!j.enabled)
    return;
  for (auto& [k, v] : j.extra)
    if (k == key) {
      v = std::move(value);
      return;
    }
  j.extra.emplace_back(key, std::move(value));
}

/// Parses bench CLI flags (`--json`, `--latency`).  `name` defaults to the
/// binary's basename with a leading "bench_" stripped.  The JSON file is
/// written at normal process exit.  Latency recording stays opt-in
/// (`--latency` or STAPL_LATENCY=1) so the figure benches' timings are not
/// perturbed by clock reads on their fast paths; when on, per-family tail
/// quantiles land in the "latency" JSON section.
inline void init(int argc, char** argv, std::string name = {})
{
  auto& j = detail::jstate();
  if (name.empty() && argc > 0) {
    name = argv[0];
    if (auto const pos = name.find_last_of('/'); pos != std::string::npos)
      name = name.substr(pos + 1);
    if (name.rfind("bench_", 0) == 0)
      name = name.substr(6);
  }
  j.name = std::move(name);
  for (int i = 1; i < argc; ++i) {
    std::string const arg = argv[i];
    if (arg == "--json")
      j.enabled = true;
    else if (arg == "--latency")
      stapl::latency::enable();
  }
  if (char const* e = std::getenv("STAPL_LATENCY"); e && *e && *e != '0')
    stapl::latency::enable();
  if (j.enabled)
    std::atexit(detail::json_write_file);
}

/// Runs the Fig. 24 kernel body on every location and returns the maximum
/// elapsed seconds over locations.  Call from inside stapl::execute.
template <typename Body>
[[nodiscard]] double timed_kernel(Body&& body)
{
  stapl::rmi_fence();
  auto tm = stapl::start_timer();
  body();
  stapl::rmi_fence();
  double const elapsed = stapl::stop_timer(tm);
  return stapl::allreduce(elapsed,
                          [](double a, double b) { return a < b ? b : a; });
}

/// Prints one table header: name + column captions.
inline void table_header(std::string const& title,
                         std::vector<std::string> const& columns)
{
  std::printf("\n== %s ==\n", title.c_str());
  for (auto const& c : columns)
    std::printf("%16s", c.c_str());
  std::printf("\n");
  auto& j = detail::jstate();
  if (j.enabled) {
    detail::json_flush_table();
    j.title = title;
    j.columns = columns;
  }
}

inline void cell(double v)
{
  std::printf("%16.6f", v);
  if (!std::isfinite(v)) {
    detail::json_append("null"); // inf/nan are not JSON literals
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  detail::json_append(buf);
}
inline void cell(std::size_t v)
{
  std::printf("%16zu", v);
  detail::json_append(std::to_string(v));
}
inline void cell(long v)
{
  std::printf("%16ld", v);
  detail::json_append(std::to_string(v));
}
inline void cell(std::string const& v)
{
  std::printf("%16s", v.c_str());
  detail::json_append(detail::json_quote(v));
}
inline void endrow()
{
  std::printf("\n");
  auto& j = detail::jstate();
  if (j.enabled && !j.row.empty())
    j.rows.push_back(std::move(j.row));
  j.row.clear();
}

/// Throughput in million operations per second.
[[nodiscard]] inline double mops(std::size_t ops, double seconds)
{
  return seconds > 0 ? static_cast<double>(ops) / seconds / 1e6 : 0.0;
}

inline std::vector<unsigned> const default_locations{1, 2, 4, 8};

} // namespace bench

#endif
