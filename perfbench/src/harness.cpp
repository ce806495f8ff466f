#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

namespace perfbench {

bool g_trace = false;
std::vector<span_log> g_logs;

zipf::zipf(std::size_t n, double s) : m_cdf(n)
{
  double sum = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    sum += std::pow(static_cast<double>(r + 1), -s);
    m_cdf[r] = sum;
  }
  for (auto& c : m_cdf)
    c /= sum;
}

std::uint32_t zipf::operator()(rng& r) const
{
  double const u = r.uniform();
  auto const it = std::lower_bound(m_cdf.begin(), m_cdf.end(), u);
  return static_cast<std::uint32_t>(
      std::min<std::ptrdiff_t>(it - m_cdf.begin(),
                               static_cast<std::ptrdiff_t>(m_cdf.size()) - 1));
}

namespace {

struct span_info {
  char const* name;
  char const* layer;
};

constexpr std::array<span_info, static_cast<std::size_t>(sp::count_)> k_spans{{
    {"request", "gen"},
    {"find_val", "containers"},
    {"apply_async", "containers"},
    {"insert_async", "containers"},
    {"erase_async", "containers"},
    {"window", "loop"},
    {"rebalance", "load_balancer"},
    {"rmi_fence", "runtime"},
    {"allreduce", "collectives"},
    {"pass", "loop"},
    {"p_for_each", "algorithms"},
    {"map_reduce", "algorithms"},
    {"p_partial_sum", "algorithms"},
    {"p_sample_sort", "algorithms"},
    {"page_rank", "algorithms"},
    {"setup.build", "setup"},
    {"setup.preload", "setup"},
    {"setup.dynamic", "setup"},
    {"setup.graph", "setup"},
}};

[[nodiscard]] double count_of(stapl::metrics::counter_map const& m,
                              char const* key)
{
  auto const it = m.find(key);
  return it == m.end() ? 0.0 : static_cast<double>(it->second);
}

[[nodiscard]] double ratio(double num, double den)
{
  return den > 0.0 ? num / den : 0.0;
}

} // namespace

char const* span_name(sp s) noexcept
{
  return k_spans[static_cast<std::size_t>(s)].name;
}

char const* span_layer(sp s) noexcept
{
  return k_spans[static_cast<std::size_t>(s)].layer;
}

void begin_window()
{
  stapl::metrics::reset_all();
  stapl::location_barrier();
}

void capture_window(run_result& out)
{
  auto const counters = stapl::metrics::global_snapshot();
  stapl::latency::histogram_set hists{};
  if (g_trace)
    hists = stapl::latency::global_histograms();
  if (stapl::this_location() != 0)
    return;
  for (auto const& [k, v] : counters) {
    if (k.rfind("lat.", 0) == 0)
      continue; // families are merged from the histograms themselves
    if (stapl::metrics::sums_on_merge(k))
      out.counters[k] += v;
    else
      out.counters[k] = std::max(out.counters[k], v);
  }
  if (g_trace)
    for (std::size_t i = 0; i != hists.size(); ++i)
      out.latency[i].merge(hists[i]);
}

void settle()
{
  stapl::location_barrier();
  for (int round = 0; round != 2; ++round) {
    while (stapl::rmi_poll()) {
    }
    stapl::location_barrier();
  }
}

void timed_fence(std::uint64_t id, std::uint32_t parent)
{
  scope s(sp::rmi_fence, id, parent);
  stapl::rmi_fence();
}

std::uint64_t timed_sum(std::uint64_t v, std::uint64_t id, std::uint32_t parent)
{
  scope s(sp::allreduce, id, parent);
  return stapl::allreduce(v, [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

void add_counter_metrics(run_result& r, double requests, double wall_s)
{
  auto const& c = r.counters;
  auto& m = r.per_layer;
  double const sent = count_of(c, "rmi.rmis_sent");
  double const local = count_of(c, "rmi.local_rmis");
  m["runtime.rmis_per_req"] = ratio(sent, requests);
  m["runtime.rmis_per_msg"] = ratio(sent, count_of(c, "rmi.msgs_sent"));
  m["runtime.bytes_per_req"] = ratio(count_of(c, "rmi.rmi_bytes"), requests);
  m["runtime.local_frac"] = ratio(local, local + sent);
  m["runtime.nap_share"] =
      ratio(count_of(c, "idle.nap_us"), locations * wall_s * 1e6);
  m["runtime.retries"] = count_of(c, "robust.retries");

  m["collectives.ops"] =
      count_of(c, "coll.ops") + count_of(c, "coll.flat_fallbacks");
  m["collectives.rounds"] = count_of(c, "coll.rounds");

  double const grants = count_of(c, "tg.steal_grants");
  m["task_graph.tasks_run"] = count_of(c, "tg.tasks_run");
  m["task_graph.tasks_stolen"] = count_of(c, "tg.tasks_stolen");
  m["task_graph.steal_ok_frac"] =
      ratio(grants, grants + count_of(c, "tg.steal_fail"));
  m["task_graph.values_sent"] = count_of(c, "tg.values_sent");
  m["task_graph.spawn_bytes"] = count_of(c, "tg.spawn_bytes");

  double const hits =
      count_of(c, "dir.local_hits") + count_of(c, "dir.cache_hits");
  m["directory.hit_frac"] =
      ratio(hits, hits + count_of(c, "dir.home_routed") +
                      count_of(c, "dir.cold_lookups"));
  m["directory.forwards"] = count_of(c, "dir.forwards");
  m["directory.stale_bounces"] = count_of(c, "dir.stale_bounces");
  m["directory.retries"] = count_of(c, "dir.retries");
  m["directory.migrations"] = count_of(c, "dir.migrations_out");
}

void add_span_metrics(run_result& r)
{
  auto& m = r.per_layer;
  constexpr std::size_t n_names = static_cast<std::size_t>(sp::count_);
  std::array<std::vector<double>, n_names> dur_us;  // per span name
  std::map<std::string, double> self_s;              // per layer
  std::vector<double> lag_ms;

  for (std::size_t loc = 0; loc != g_logs.size(); ++loc) {
    auto const& spans = g_logs[loc].spans();
    auto const self = self_times(spans);
    for (std::size_t i = 0; i != spans.size(); ++i) {
      auto const& s = spans[i];
      auto const name = static_cast<sp>(s.name);
      double const us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      self_s[span_layer(name)] += static_cast<double>(self[i]) / 1e9;
      // Kernel, wave and set-up times are location 0's view of a collective
      // call; per-request and per-fence spans pool every location.
      bool const collective_call =
          name == sp::rebalance || name == sp::pass || name == sp::window ||
          (name >= sp::p_for_each && name <= sp::setup_graph);
      if (!collective_call || loc == 0)
        dur_us[s.name].push_back(us);
      if (name == sp::request)
        lag_ms.push_back(static_cast<double>(self[i]) / 1e6);
    }
  }

  auto q = [&](sp name, double quant, double scale) {
    auto& v = dur_us[static_cast<std::size_t>(name)];
    return v.empty() ? 0.0 : percentile(v, quant) * scale;
  };
  auto med = [&](sp name, double scale) {
    return median(dur_us[static_cast<std::size_t>(name)]) * scale;
  };

  m["runtime.fence_ms.p50"] = q(sp::rmi_fence, 0.5, 1e-3);
  m["runtime.fence_ms.max"] = q(sp::rmi_fence, 1.0, 1e-3);
  m["collectives.allreduce_us.p50"] = q(sp::allreduce, 0.5, 1.0);
  m["load_balancer.wave_ms.p50"] = q(sp::rebalance, 0.5, 1e-3);
  m["load_balancer.wave_ms.max"] = q(sp::rebalance, 1.0, 1e-3);
  m["containers.find_us.p50"] = q(sp::find_val, 0.5, 1.0);
  m["containers.find_us.p99"] = q(sp::find_val, 0.99, 1.0);
  m["containers.apply_init_us.p50"] = q(sp::apply_async, 0.5, 1.0);
  m["containers.insert_init_us.p50"] = q(sp::insert_async, 0.5, 1.0);
  m["containers.erase_init_us.p50"] = q(sp::erase_async, 0.5, 1.0);
  m["algorithms.for_each_s"] = med(sp::p_for_each, 1e-6);
  m["algorithms.map_reduce_s"] = med(sp::map_reduce, 1e-6);
  m["algorithms.partial_sum_s"] = med(sp::p_partial_sum, 1e-6);
  m["algorithms.sample_sort_s"] = med(sp::p_sample_sort, 1e-6);
  m["algorithms.page_rank_s"] = med(sp::page_rank, 1e-6);
  m["setup.build_s"] = med(sp::setup_build, 1e-6);
  m["setup.preload_s"] = med(sp::setup_preload, 1e-6);
  m["setup.dynamic_s"] = med(sp::setup_dynamic, 1e-6);
  m["setup.graph_s"] = med(sp::setup_graph, 1e-6);
  m["gen.lag_ms.p99"] = lag_ms.empty() ? 0.0 : percentile(lag_ms, 0.99);
  m["gen.lag_ms.max"] = lag_ms.empty() ? 0.0 : percentile(lag_ms, 1.0);

  for (char const* layer : {"gen", "containers", "loop", "load_balancer",
                            "runtime", "collectives", "algorithms", "setup"})
    m[std::string(layer) + ".self_s"] = self_s[layer];

  using stapl::latency::op;
  auto lat = [&](op o) -> stapl::latency::histogram const& {
    return r.latency[static_cast<std::size_t>(o)];
  };
  m["task_graph.task_us.p50"] = static_cast<double>(lat(op::tg_task).p50()) / 1e3;
  m["task_graph.task_us.p99"] = static_cast<double>(lat(op::tg_task).p99()) / 1e3;
  m["directory.resolve_us.p50"] =
      static_cast<double>(lat(op::dir_resolve).p50()) / 1e3;
  m["directory.resolve_us.p99"] =
      static_cast<double>(lat(op::dir_resolve).p99()) / 1e3;
  m["containers.apply_us.p99"] =
      static_cast<double>(lat(op::container_apply).p99()) / 1e3;
  m["runtime.sync_us.p50"] = static_cast<double>(lat(op::rmi_sync).p50()) / 1e3;
  m["runtime.sync_us.p99"] = static_cast<double>(lat(op::rmi_sync).p99()) / 1e3;
  m["load_balancer.stall_ms.max"] =
      static_cast<double>(lat(op::lb_wave_stall).max()) / 1e6;
}

double setup_seconds(std::vector<double> const& setup_s)
{
  std::printf("# %zu set-ups: min %.3f ms, p25 %.3f ms, median %.3f ms, "
              "max %.3f ms\n",
              setup_s.size(), percentile_of(setup_s, 0.0) * 1e3,
              percentile_of(setup_s, 0.25) * 1e3, median(setup_s) * 1e3,
              percentile_of(setup_s, 1.0) * 1e3);
  return percentile_of(setup_s, 0.25);
}

double peak_rss_mib()
{
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

} // namespace perfbench
