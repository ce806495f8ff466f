#ifndef STAPL_RUNTIME_LATENCY_HPP
#define STAPL_RUNTIME_LATENCY_HPP

// Tail-latency observability: lock-free per-location latency recorders.
//
// Each location (a thread in this RTS) owns one log-bucketed histogram per
// named operation family; recording is a single-writer bucket increment, so
// the instrumented hot paths take no locks.  Buckets subdivide every
// power-of-two octave into 2^sub_bits linear sub-buckets (HdrHistogram
// style), covering ~1 ns to ~18 minutes in ~9 KB per histogram with a
// bounded relative error of 1/2^sub_bits; count and sum are exact.
// Histograms are plain mergeable value types: snapshots add bucket-wise, so
// a collective merge (latency::global_histogram, defined with the other
// collectives in collectives.hpp) equals a histogram that recorded every
// location's samples directly.
//
// The RAII `timed_op` scope is the emit site: when recording is disabled
// (the default) its cost is one relaxed atomic load — the same contract as
// the STAPL_TRACE sites.
//
// Layering: this header depends only on the standard library, because the
// timed-op sites live in the runtime core itself (runtime.hpp includes
// it).  Mutable global state lives in latency.cpp.

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace stapl {

namespace latency {

/// Named operation families.  One histogram per family per location.
enum class op : std::uint8_t {
  dir_resolve,      ///< directory::resolve: blocking owner lookup
  rmi_sync,         ///< sync_rmi: synchronous RMI round trip
  tg_task,          ///< one task-graph task body
  container_apply,  ///< container element-method execution (invoke paths)
  lb_wave_stall,    ///< one rebalance() wave, entry to exit (the stall it
                    ///< imposes on concurrent traffic)
  op_count_         ///< sentinel, keep last
};

inline constexpr std::size_t op_count = static_cast<std::size_t>(op::op_count_);

/// Stable display name ("dir.resolve", "rmi.sync", ...) — also the key stem
/// of the "lat.<name>.*" entries in metrics::snapshot().
[[nodiscard]] char const* name_of(op o) noexcept;

// ---------------------------------------------------------------------------
// histogram — log-bucketed, mergeable, bounded memory
// ---------------------------------------------------------------------------

/// HDR-style histogram over nanosecond values.  Value domain [0, 2^max_exp);
/// larger samples clamp into the last bucket (max_ns stays exact).
struct histogram {
  static constexpr unsigned sub_bits = 5;            ///< 32 sub-buckets/octave
  static constexpr std::uint64_t sub = 1ull << sub_bits;
  static constexpr unsigned max_exp = 40;            ///< 2^40 ns ~ 18 minutes
  static constexpr std::size_t n_buckets =
      (static_cast<std::size_t>(max_exp) - sub_bits + 1) * sub;

  std::array<std::uint64_t, n_buckets> counts{};
  std::uint64_t count = 0;    ///< total samples (exact)
  std::uint64_t sum_ns = 0;   ///< sum of samples (exact)
  std::uint64_t max_ns = 0;   ///< largest sample (exact)

  /// Bucket index of a value.  Values below `sub` get exact unit buckets;
  /// above, the top sub_bits bits after the leading one select the
  /// sub-bucket, so the relative bucket width stays 1/2^sub_bits.
  [[nodiscard]] static constexpr std::size_t index_of(std::uint64_t ns) noexcept
  {
    if (ns < sub)
      return static_cast<std::size_t>(ns);
    unsigned e = 63u;
    while ((ns >> e) == 0)
      --e; // bit_width - 1 without <bit> (kept constexpr-friendly)
    if (e >= max_exp)
      return n_buckets - 1;
    std::size_t const sidx =
        static_cast<std::size_t>((ns >> (e - sub_bits)) - sub);
    return (static_cast<std::size_t>(e) - sub_bits + 1) * sub + sidx;
  }

  /// Smallest value mapping into bucket `i`.
  [[nodiscard]] static constexpr std::uint64_t bucket_lower(std::size_t i) noexcept
  {
    if (i < sub)
      return i;
    std::size_t const block = i / sub;             // >= 1
    unsigned const e = static_cast<unsigned>(block) + sub_bits - 1;
    std::uint64_t const sidx = i % sub;
    return (sub + sidx) << (e - sub_bits);
  }

  /// Largest value mapping into bucket `i` (inclusive).
  [[nodiscard]] static constexpr std::uint64_t bucket_upper(std::size_t i) noexcept
  {
    if (i + 1 >= n_buckets)
      return ~std::uint64_t{0};
    return bucket_lower(i + 1) - 1;
  }

  /// Representative value reported for bucket `i` (its midpoint).
  [[nodiscard]] static constexpr std::uint64_t bucket_value(std::size_t i) noexcept
  {
    std::uint64_t const lo = bucket_lower(i);
    if (i + 1 >= n_buckets)
      return lo;
    return lo + (bucket_upper(i) - lo) / 2;
  }

  void record(std::uint64_t ns) noexcept
  {
    counts[index_of(ns)] += 1;
    count += 1;
    sum_ns += ns;
    if (ns > max_ns)
      max_ns = ns;
  }

  /// Bucket-wise addition: merge(record(A), record(B)) == record(A ∪ B).
  void merge(histogram const& o) noexcept
  {
    for (std::size_t i = 0; i != n_buckets; ++i)
      counts[i] += o.counts[i];
    count += o.count;
    sum_ns += o.sum_ns;
    if (o.max_ns > max_ns)
      max_ns = o.max_ns;
  }

  void clear() noexcept { *this = histogram{}; }

  [[nodiscard]] bool empty() const noexcept { return count == 0; }

  /// Value at quantile `q` in [0, 1]: the representative value of the
  /// bucket holding the ceil(q * count)-th sample, clamped by the exact
  /// max.  Zero on an empty histogram.  Monotone non-decreasing in q.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept
  {
    if (count == 0)
      return 0;
    if (q < 0.0)
      q = 0.0;
    if (q > 1.0)
      q = 1.0;
    std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(count));
    if (rank < 1)
      rank = 1;
    if (rank > count)
      rank = count;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i != n_buckets; ++i) {
      seen += counts[i];
      if (seen >= rank) {
        std::uint64_t const v = bucket_value(i);
        return v < max_ns ? v : max_ns;
      }
    }
    return max_ns;
  }

  [[nodiscard]] std::uint64_t p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] std::uint64_t p90() const noexcept { return quantile(0.90); }
  [[nodiscard]] std::uint64_t p99() const noexcept { return quantile(0.99); }
  [[nodiscard]] std::uint64_t p999() const noexcept { return quantile(0.999); }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_ns; }
};

using histogram_set = std::array<histogram, op_count>;

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

namespace latency_detail {
extern std::atomic<bool> g_enabled;
} // namespace latency_detail

/// Whether latency recording is on — the only cost paid by a disabled
/// timed_op site.
[[nodiscard]] inline bool enabled() noexcept
{
  return latency_detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turns recording on/off.  Off is the default: the timed-op sites in the
/// runtime core then cost one relaxed atomic load each.
void enable() noexcept;
void disable() noexcept;

/// Clears every thread's recorders (lazily, on their next touch) and the
/// process-wide accumulator, so back-to-back bench sections do not bleed
/// quantiles into each other.  Called by metrics::reset_all(); also
/// callable directly.
void reset();

/// Records one sample into the calling thread's histogram for `o`.
/// Wait-free (single-writer); records even when `enabled()` is false —
/// the flag gates the timed_op sites, not direct feeds.
void record_ns(op o, std::uint64_t ns) noexcept;

/// Copy of the calling thread's histogram for `o` (empty if this thread
/// never recorded or a reset intervened).
[[nodiscard]] histogram local_snapshot(op o);

/// All families of the calling thread in one copy.
[[nodiscard]] histogram_set local_snapshots();

/// Folds the calling thread's recorders into the process-wide accumulator
/// and clears them.  Called once per location at the end of every
/// stapl::execute (mirrors metrics::fold_into_process).
void fold_into_process();

/// Process-wide accumulated histogram across completed executions — what
/// bench_common's "latency" JSON section reports.
[[nodiscard]] histogram process_histogram(op o);

/// Monotonic nanosecond clock used by timed_op.
[[nodiscard]] inline std::uint64_t now_ns() noexcept
{
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// RAII emit site: records the scope's duration into the calling thread's
/// histogram for `o`.  Disabled cost is one relaxed atomic load (no clock
/// read).
class timed_op {
 public:
  explicit timed_op(op o) noexcept : m_op(o), m_active(enabled())
  {
    if (m_active)
      m_start = now_ns();
  }

  timed_op(timed_op const&) = delete;
  timed_op& operator=(timed_op const&) = delete;

  /// Drops the measurement (e.g. a path that turned out to be a no-op).
  void cancel() noexcept { m_active = false; }

  ~timed_op()
  {
    if (m_active)
      record_ns(m_op, now_ns() - m_start);
  }

 private:
  op m_op;
  bool m_active;
  std::uint64_t m_start = 0;
};

} // namespace latency

} // namespace stapl

#endif
