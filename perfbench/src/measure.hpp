#ifndef PERFBENCH_MEASURE_HPP
#define PERFBENCH_MEASURE_HPP

// Measurement primitives of the repository benchmark.  Deliberately free of
// any stapl dependency: the benchmark measures the library from outside, so
// its clocks, percentiles and span arithmetic must not change when the code
// under test does.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept
{
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Nearest-rank percentile: the smallest sample with at least q * n samples
/// at or below it (q in [0, 1]).  Exact, no bucketing, so repeated runs never
/// read the same quantised value.  Reorders `v`; 0 for an empty set.
template <typename T>
[[nodiscard]] T percentile(std::vector<T>& v, double q)
{
  if (v.empty())
    return T{};
  q = std::clamp(q, 0.0, 1.0);
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  auto const nth = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(v.begin(), nth, v.end());
  return *nth;
}

/// Percentile of a copy (for callers that keep their order).
template <typename T>
[[nodiscard]] T percentile_of(std::vector<T> v, double q)
{
  return percentile(v, q);
}

/// Median of a small set of per-window / per-rep statistics: the mean of
/// the two middle values for an even count, so an even number of windows
/// does not bias toward either neighbour.
[[nodiscard]] inline double median(std::vector<double> v)
{
  if (v.empty())
    return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t const n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t no_parent = std::numeric_limits<std::uint32_t>::max();

/// One timed interval.  `parent` indexes the same log (or no_parent);
/// `id` groups the spans of one request, window or pass.
struct span {
  std::uint16_t name = 0;
  std::uint32_t parent = no_parent;
  std::uint64_t id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Single-writer in-memory span buffer (one per location thread).  Keeps the
/// first `capacity` spans and counts the rest as dropped, so a long traced
/// run never reallocates on the hot path.
class span_log {
 public:
  explicit span_log(std::size_t capacity = 0) : m_capacity(capacity)
  {
    m_spans.reserve(capacity);
  }

  /// Opens a span; returns its index (no_parent when dropped).
  std::uint32_t open(std::uint16_t name, std::uint64_t id, std::uint32_t parent,
                     std::uint64_t start_ns)
  {
    if (m_spans.size() >= m_capacity) {
      ++m_dropped;
      return no_parent;
    }
    m_spans.push_back({name, parent, id, start_ns, start_ns});
    return static_cast<std::uint32_t>(m_spans.size() - 1);
  }

  void close(std::uint32_t idx, std::uint64_t end_ns)
  {
    if (idx != no_parent)
      m_spans[idx].end_ns = end_ns;
  }

  /// open + close of an interval measured by the caller.
  std::uint32_t add(std::uint16_t name, std::uint64_t id, std::uint32_t parent,
                    std::uint64_t start_ns, std::uint64_t end_ns)
  {
    std::uint32_t const i = open(name, id, parent, start_ns);
    close(i, end_ns);
    return i;
  }

  [[nodiscard]] std::vector<span> const& spans() const noexcept { return m_spans; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return m_dropped; }

 private:
  std::size_t m_capacity;
  std::vector<span> m_spans;
  std::uint64_t m_dropped = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children clipped to the parent and
/// overlapping children counted once).  Result is indexed like `spans`.
[[nodiscard]] inline std::vector<std::uint64_t>
self_times(std::vector<span> const& spans)
{
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (auto const& s : spans)
    if (s.parent != no_parent && s.parent < spans.size())
      kids[s.parent].emplace_back(s.start_ns, s.end_ns);

  std::vector<std::uint64_t> out(spans.size());
  for (std::size_t i = 0; i != spans.size(); ++i) {
    std::uint64_t const lo = spans[i].start_ns;
    std::uint64_t const hi = std::max(lo, spans[i].end_ns);
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::clamp(a, lo, hi);
      b = std::clamp(b, lo, hi);
      if (b <= a)
        continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open)
        covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open)
      covered += cur_hi - cur_lo;
    out[i] = (hi - lo) - covered;
  }
  return out;
}

} // namespace perfbench

#endif
