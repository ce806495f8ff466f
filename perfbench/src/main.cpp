// Repository benchmark binary.  Usage:
//
//   perfbench --workload <kv_read|kv_churn|batch_pipeline> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <file>]
//
// Prints a human-readable summary, then one JSON line with the check
// counts, the end-to-end metrics, the per-layer metrics and the raw library
// counters.  perfbench/run.py attaches units and selects the metric set.
//
// --trace 1 runs the workload twice in this process: once untraced (the
// baseline) and once with spans and the library's latency families on; the
// per-layer metrics come from the traced run (the latency.* ones from the
// untraced run) and trace_overhead.* is traced minus untraced.

#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

namespace {

using namespace perfbench;

/// Spans kept per location in a traced run (32 bytes each).
constexpr std::size_t span_capacity = std::size_t{1} << 20;

/// Set-ups per untraced run, half before and half after the measured one.
[[nodiscard]] unsigned setup_reps(std::string const& workload)
{
  return workload == "batch_pipeline" ? 9 : 25;
}

[[nodiscard]] std::string quote(std::string const& s)
{
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\')
      out += '\\';
    if (static_cast<unsigned char>(c) < 0x20)
      continue;
    out += c;
  }
  return out + "\"";
}

[[nodiscard]] std::string number(double v)
{
  if (!std::isfinite(v))
    return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename Map, typename Fmt>
std::string object(Map const& m, Fmt fmt)
{
  std::string out = "{";
  bool first = true;
  for (auto const& [k, v] : m) {
    out += (first ? "" : ", ") + quote(k) + ": " + fmt(v);
    first = false;
  }
  return out + "}";
}

run_result run_workload(options const& o)
{
  if (o.workload == "batch_pipeline")
    return run_pipeline(o);
  return run_kv(o, o.workload == "kv_churn");
}

void write_spans(std::string const& path)
{
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::uint64_t t0 = ~std::uint64_t{0};
  for (auto const& log : g_logs)
    for (auto const& s : log.spans())
      t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "location\tindex\tparent\tname\tid\tstart_ns\tend_ns\n");
  for (std::size_t l = 0; l != g_logs.size(); ++l) {
    auto const& spans = g_logs[l].spans();
    for (std::size_t i = 0; i != spans.size(); ++i) {
      auto const& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%lld\t%s\t%llu\t%llu\t%llu\n", l, i,
                   s.parent == no_parent ? -1LL : static_cast<long long>(s.parent),
                   span_name(static_cast<sp>(s.name)),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.start_ns - t0),
                   static_cast<unsigned long long>(s.end_ns - t0));
    }
  }
  std::fclose(f);
}

} // namespace

int main(int argc, char** argv)
{
  options o;
  std::string spans_path;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string const key = argv[i];
    char const* val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::atof(val);
    } else if (key == "--trace") {
      o.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--spans") {
      spans_path = val;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (!have_workload ||
      (o.workload != "kv_read" && o.workload != "kv_churn" &&
       o.workload != "batch_pipeline") ||
      !(o.seconds > 0.0) || o.seconds > 600.0) {
    std::fprintf(stderr, "usage: perfbench --workload <kv_read|kv_churn|"
                         "batch_pipeline> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }

  try {
    run_result out;
    if (!o.trace) {
      o.setup_reps = setup_reps(o.workload);
      out = run_workload(o);
    } else {
      o.setup_reps = 1;
      run_result const base = run_workload(o);
      g_logs.clear();
      g_logs.reserve(locations);
      for (unsigned l = 0; l != locations; ++l)
        g_logs.emplace_back(span_capacity);
      g_trace = true;
      stapl::latency::enable();
      out = run_workload(o);
      stapl::latency::disable();
      g_trace = false;
      for (char const* k : {"ops_per_s", "elems_per_s"})
        out.per_layer[std::string("trace_overhead.") + k] =
            out.end_to_end[k] - base.end_to_end.at(k);
      for (char const* k : {"p50_us", "p90_us"})
        out.per_layer[std::string("trace_overhead.") + k] =
            out.per_layer[std::string("latency.") + k] -
            base.per_layer.at(std::string("latency.") + k);
      std::uint64_t dropped = 0;
      for (auto const& log : g_logs)
        dropped += log.dropped();
      std::printf("# traced run: p50 %.2f us untraced, %.2f us traced; "
                  "%llu spans dropped past the per-location cap\n",
                  base.per_layer.at("latency.p50_us"),
                  out.per_layer["latency.p50_us"],
                  static_cast<unsigned long long>(dropped));
      // Request latency is an end-to-end number: report the untraced one.
      for (auto const& [k, v] : base.per_layer)
        if (k.rfind("latency.", 0) == 0)
          out.per_layer[k] = v;
      out.attempted += base.attempted;
      out.failed += base.failed;
      out.failures.insert(out.failures.end(), base.failures.begin(),
                          base.failures.end());
      if (!spans_path.empty())
        write_spans(spans_path);
    }
    out.end_to_end["peak_rss_mb"] = peak_rss_mib();

    for (auto const& f : out.failures)
      std::printf("# FAILED CHECK: %s\n", f.c_str());
    std::string failures = "[";
    for (std::size_t i = 0; i != out.failures.size(); ++i)
      failures += (i ? ", " : "") + quote(out.failures[i]);
    failures += "]";
    std::printf(
        "{\"attempted\": %llu, \"failed\": %llu, \"failures\": %s, "
        "\"end_to_end\": %s, \"per_layer\": %s, \"counters\": %s}\n",
        static_cast<unsigned long long>(out.attempted),
        static_cast<unsigned long long>(out.failed), failures.c_str(),
        object(out.end_to_end, number).c_str(),
        object(out.per_layer, number).c_str(),
        object(out.counters, [](std::uint64_t v) { return std::to_string(v); })
            .c_str());
    std::fflush(stdout);
    return out.failed == 0 ? 0 : 1;
  } catch (std::exception const& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }
}
