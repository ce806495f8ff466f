#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

// Shared pieces of the three workloads: options, results, the seeded input
// generator, span recording around the calls the benchmark makes into the
// library, and window/pass boundaries that capture the library's counters.

#include "measure.hpp"

#include "runtime/runtime.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Every workload runs at P = 4 locations (one per core of the reference
/// machine) on the default queue transport.
inline constexpr unsigned locations = 4;

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned setup_reps = 1; ///< set-ups per run (see setup_seconds)

  /// Whether set-up `rep` goes on to run the measured workload: the middle
  /// one, so the other set-ups are timed both before and after it.
  [[nodiscard]] bool measured_rep(unsigned rep) const noexcept
  {
    return rep == setup_reps / 2;
  }
};

/// Everything one measured execution of a workload produced.
struct run_result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Library counters summed over every window or pass (raw keys).
  stapl::metrics::counter_map counters;
  /// Library latency families merged over every window (traced runs only).
  stapl::latency::histogram_set latency{};

  /// Counts one correctness check; a failing one is recorded by name.
  void check(bool ok, std::string what)
  {
    attempted += 1;
    if (!ok) {
      failed += 1;
      failures.push_back(std::move(what));
    }
  }
};

// ---------------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------------

/// splitmix64 finaliser: a bijective 64-bit mix.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept
{
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Deterministic generator; one per (seed, stream).
class rng {
 public:
  rng(std::uint64_t seed, std::uint64_t stream) noexcept
      : m_state(mix64(seed) ^ mix64(stream + 0x632BE59BD9B4E019ull))
  {}
  std::uint64_t next() noexcept { return mix64(m_state += 0x9E3779B97F4A7C15ull); }
  /// Uniform in [0, 1).
  double uniform() noexcept
  {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }

 private:
  std::uint64_t m_state;
};

/// Fisher-Yates with the benchmark's own generator, so the permutation does
/// not depend on the standard library's shuffle.
template <typename T>
void shuffle(std::vector<T>& v, rng& r)
{
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[r.below(i)]);
}

/// Zipf(s) over ranks [0, n) by inverse-CDF lookup.
class zipf {
 public:
  zipf(std::size_t n, double s);
  [[nodiscard]] std::uint32_t operator()(rng& r) const;

 private:
  std::vector<double> m_cdf;
};

// ---------------------------------------------------------------------------
// Spans (traced runs only)
// ---------------------------------------------------------------------------

/// Span names: one per call the benchmark times, plus its own loop levels.
enum class sp : std::uint16_t {
  request,
  find_val,
  apply_async,
  insert_async,
  erase_async,
  window,
  rebalance,
  rmi_fence,
  allreduce,
  pass,
  p_for_each,
  map_reduce,
  p_partial_sum,
  p_sample_sort,
  page_rank,
  setup_build,
  setup_preload,
  setup_dynamic,
  setup_graph,
  count_
};

[[nodiscard]] char const* span_name(sp s) noexcept;
/// Module a span's self time is charged to.
[[nodiscard]] char const* span_layer(sp s) noexcept;

/// Whether this process records spans and library latency families.  Set
/// before an execution starts and read-only while it runs.
extern bool g_trace;
/// One span buffer per location thread.
extern std::vector<span_log> g_logs;

[[nodiscard]] inline span_log& my_log()
{
  return g_logs[stapl::this_location()];
}

/// RAII span around a call; free when tracing is off.
class scope {
 public:
  explicit scope(sp name, std::uint64_t id = 0, std::uint32_t parent = no_parent)
      : m_idx(g_trace ? my_log().open(static_cast<std::uint16_t>(name), id,
                                       parent, now_ns())
                      : no_parent)
  {}
  scope(scope const&) = delete;
  scope& operator=(scope const&) = delete;
  ~scope()
  {
    if (m_idx != no_parent)
      my_log().close(m_idx, now_ns());
  }
  [[nodiscard]] std::uint32_t index() const noexcept { return m_idx; }

 private:
  std::uint32_t m_idx;
};

// ---------------------------------------------------------------------------
// Window / pass boundaries (collective: call on every location)
// ---------------------------------------------------------------------------

/// Starts a window or pass: zeroes every library counter family, then waits
/// until every location has, so no delta is lost to a late reset.
void begin_window();

/// Ends a window or pass after its quiescing fence: folds the global
/// counter snapshot (and, traced, the latency families) into `out` on
/// location 0.
void capture_window(run_result& out);

/// Lets in-flight traffic settle before a fence: every location stops
/// issuing, then drains its inbox between barriers.  rmi_fence()'s
/// termination check can reach different verdicts on different locations
/// when a message that sends another straddles the release of its first
/// barrier; the next non-fence collective then mismatches and crashes.
/// Entering fences with nothing in flight keeps the runs from hitting it.
void settle();

/// rmi_fence() timed as a span.
void timed_fence(std::uint64_t id, std::uint32_t parent);

/// Sum-allreduce timed as a span.
[[nodiscard]] std::uint64_t timed_sum(std::uint64_t v, std::uint64_t id,
                                      std::uint32_t parent);

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

/// Counter-derived layer metrics of any run; `requests` is the unit the
/// per-request ratios divide by, `wall_s` the measured seconds.
void add_counter_metrics(run_result& r, double requests, double wall_s);

/// Span- and latency-derived layer metrics of a traced run, including each
/// layer's self time.
void add_span_metrics(run_result& r);

/// The run's setup_s: the lower quartile of its set-up times, which come
/// from two moments --seconds apart.  The host's speed changes over seconds
/// and a millisecond set-up mostly waits on wake-ups, so a slow stretch
/// moves every set-up in it; the lower quartile follows the faster moment.
/// Prints the spread of the set-ups.
[[nodiscard]] double setup_seconds(std::vector<double> const& setup_s);

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mib();

// Workloads.
[[nodiscard]] run_result run_kv(options const& o, bool churn);
[[nodiscard]] run_result run_pipeline(options const& o);

} // namespace perfbench

#endif
