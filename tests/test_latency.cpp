// Tests for the tail-latency subsystem (runtime/latency.hpp): histogram
// bucket math round-trips at every boundary, merge equals recording the
// union, quantiles are monotone and bounded by the configured relative
// error, a P=4 global_histogram() matches a single recorder that saw every
// location's samples, disabled timed_op sites record nothing, only remote
// element reads are timed, and reset_all() clears latency recorders.

#include "algorithms/p_algorithms.hpp"
#include "containers/p_array.hpp"
#include "containers/p_associative.hpp"
#include "runtime/runtime.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace {

using namespace stapl;
using latency::histogram;

/// Leaves latency recording off and all recorders/process state cleared,
/// whatever the test did.
struct latency_guard {
  latency_guard() { latency::reset(); }
  ~latency_guard()
  {
    latency::disable();
    latency::reset();
  }
};

// ---------------------------------------------------------------------------
// Bucket math
// ---------------------------------------------------------------------------

TEST(LatencyTest, BucketBoundariesRoundTrip)
{
  for (std::size_t i = 0; i < histogram::n_buckets; ++i) {
    std::uint64_t const lo = histogram::bucket_lower(i);
    EXPECT_EQ(histogram::index_of(lo), i) << "lower of bucket " << i;
    if (i + 1 < histogram::n_buckets) {
      std::uint64_t const hi = histogram::bucket_upper(i);
      EXPECT_EQ(histogram::index_of(hi), i) << "upper of bucket " << i;
      EXPECT_EQ(histogram::bucket_lower(i + 1), hi + 1)
          << "buckets " << i << "/" << i + 1 << " not contiguous";
      std::uint64_t const mid = histogram::bucket_value(i);
      EXPECT_GE(mid, lo);
      EXPECT_LE(mid, hi);
    }
  }
  // Values past the covered range clamp into the final bucket.
  EXPECT_EQ(histogram::index_of(~std::uint64_t{0}), histogram::n_buckets - 1);
  EXPECT_EQ(histogram::index_of(std::uint64_t{1} << 50),
            histogram::n_buckets - 1);
}

TEST(LatencyTest, RecordKeepsExactCountSumMax)
{
  histogram h;
  std::uint64_t sum = 0, mx = 0;
  for (std::uint64_t v : {0ull, 1ull, 31ull, 32ull, 33ull, 1'000ull,
                          123'456ull, 98'765'432ull, 5'000'000'000ull}) {
    h.record(v);
    sum += v;
    mx = std::max(mx, v);
  }
  EXPECT_EQ(h.count, 9u);
  EXPECT_EQ(h.sum_ns, sum);
  EXPECT_EQ(h.max_ns, mx);
}

TEST(LatencyTest, QuantileWithinConfiguredRelativeError)
{
  // One sample per histogram: every quantile must return a representative
  // within the bucket's relative width (1/32) of the true value, for any
  // value inside the histogram's designed range (< 2^max_exp ≈ 18 min).
  std::uint64_t state = 42;
  for (int i = 0; i < 2'000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    std::uint64_t const v = // spread across octaves, clamped into range
        (state >> (state % 48)) & ((1ull << histogram::max_exp) - 1);
    histogram h;
    h.record(v);
    for (double q : {0.0, 0.5, 0.99, 1.0}) {
      std::uint64_t const got = h.quantile(q);
      double const err = v == 0
                             ? static_cast<double>(got)
                             : std::abs(static_cast<double>(got) -
                                        static_cast<double>(v)) /
                                   static_cast<double>(v);
      EXPECT_LE(err, 1.0 / 32.0 + 1e-9)
          << "v=" << v << " q=" << q << " got=" << got;
    }
  }

  // Beyond the range the histogram saturates into the top bucket: the
  // quantile is clamped by the exact max, which stays lossless.
  histogram over;
  over.record(std::uint64_t{1} << 50);
  EXPECT_EQ(over.max(), std::uint64_t{1} << 50);
  EXPECT_GE(over.quantile(1.0), std::uint64_t{1} << (histogram::max_exp - 1));
  EXPECT_LE(over.quantile(1.0), over.max());
}

TEST(LatencyTest, QuantilesAreMonotone)
{
  histogram h;
  std::uint64_t state = 7;
  for (int i = 0; i < 10'000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    h.record(state % 10'000'000);
  }
  std::uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    std::uint64_t const cur = h.quantile(q);
    EXPECT_GE(cur, prev) << "quantile not monotone at q=" << q;
    prev = cur;
  }
  EXPECT_LE(h.quantile(1.0), h.max());
  EXPECT_EQ(h.p999(), h.quantile(0.999));
}

TEST(LatencyTest, MergeEqualsRecordingTheUnion)
{
  histogram a, b, both;
  std::uint64_t state = 99;
  for (int i = 0; i < 5'000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    std::uint64_t const v = state >> (state % 40);
    ((i % 2) ? a : b).record(v);
    both.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count, both.count);
  EXPECT_EQ(a.sum_ns, both.sum_ns);
  EXPECT_EQ(a.max_ns, both.max_ns);
  EXPECT_EQ(a.counts, both.counts);
  for (double q : {0.5, 0.9, 0.99, 0.999})
    EXPECT_EQ(a.quantile(q), both.quantile(q));
}

// ---------------------------------------------------------------------------
// Recorders: disabled cost, reset_all, process fold
// ---------------------------------------------------------------------------

TEST(LatencyTest, DisabledTimedOpSitesRecordNothing)
{
  latency_guard guard;
  ASSERT_FALSE(latency::enabled());
  execute(4, [] {
    p_array<long> pa(1'000 * num_locations());
    gid1d const remote = 1'000 * ((this_location() + 1) % num_locations());
    for (std::size_t i = 0; i < 300; ++i)
      pa.set_element(remote + i % 1'000, 1); // sync+async remote traffic
    long volatile sink = pa.get_element(remote);
    (void)sink;
    rmi_fence();
  });
  for (std::size_t i = 0; i != latency::op_count; ++i)
    EXPECT_TRUE(
        latency::process_histogram(static_cast<latency::op>(i)).empty())
        << "family " << latency::name_of(static_cast<latency::op>(i))
        << " recorded while disabled";
}

TEST(LatencyTest, EnabledRunRecordsRuntimeFamiliesIntoProcessAccumulator)
{
  latency_guard guard;
  latency::enable();
  execute(4, [] {
    p_array<long> pa(1'000 * num_locations());
    gid1d const remote = 1'000 * ((this_location() + 1) % num_locations());
    for (std::size_t i = 0; i < 300; ++i)
      pa.set_element(remote + i % 1'000, 1);
    long volatile sink = pa.get_element(remote); // split-phase round trip
    (void)sink;
    p_hash_map<long, long> m;
    m.insert_async(static_cast<long>(this_location()), 1);
    rmi_fence();
    if (m.size() == 0) // one-sided size(): a sync_rmi per remote location
      std::abort();
    rmi_fence();
  });
  // Remote element traffic goes through invoke/invoke_ret; the one-sided
  // size() query issues blocking sync RMIs.  Both families must have
  // samples folded into the process accumulator by execute().
  EXPECT_GT(latency::process_histogram(latency::op::container_apply).count,
            0u);
  EXPECT_GT(latency::process_histogram(latency::op::rmi_sync).count, 0u);
}

// A synchronous element method times its remote wait only: a local read
// is an inline access with no clock read.
TEST(LatencyTest, OnlyRemoteElementReadsAreTimed)
{
  latency_guard guard;
  latency::enable();
  execute(2, [] {
    p_array<long> pa(100 * num_locations(), 1);
    gid1d const mine = 100 * this_location();
    gid1d const remote = 100 * ((this_location() + 1) % num_locations());
    auto const samples = [] {
      return latency::local_snapshot(latency::op::container_apply).count;
    };
    auto const before = samples();
    EXPECT_EQ(pa.get_element(mine), 1);
    EXPECT_EQ(samples(), before) << "a local read was timed";
    EXPECT_EQ(pa.get_element(remote), 1);
    EXPECT_EQ(samples(), before + 1) << "a remote read was not timed";
    rmi_fence();
  });
}

TEST(LatencyTest, ResetAllClearsLatencyRecorders)
{
  latency_guard guard;
  latency::record_ns(latency::op::lb_wave_stall, 1'000);
  latency::record_ns(latency::op::lb_wave_stall, 2'000);
  ASSERT_EQ(latency::local_snapshot(latency::op::lb_wave_stall).count, 2u);
  // Latency families are read through their histograms, never as
  // counter keys.
  for (auto const& [key, value] : metrics::snapshot())
    EXPECT_NE(key.rfind("lat.", 0), 0u) << key;

  // reset_all() clears the latency recorders of *every* thread too
  // (lazily), along with the counters.
  metrics::reset_all();
  EXPECT_TRUE(latency::local_snapshot(latency::op::lb_wave_stall).empty());
}

TEST(LatencyTest, GaugeKeysMergeByMaxNotSum)
{
  EXPECT_TRUE(metrics::sums_on_merge("rmi.rmis_sent"));
  EXPECT_TRUE(metrics::sums_on_merge("dir.forwards"));
  EXPECT_FALSE(metrics::sums_on_merge("rmi.inbox_depth"));
  EXPECT_FALSE(metrics::sums_on_merge("rmi.deferred_depth"));
}

// ---------------------------------------------------------------------------
// P=4 global_histogram vs single-recorder ground truth
// ---------------------------------------------------------------------------

TEST(LatencyTest, GlobalHistogramMatchesSingleRecorderGroundTruth)
{
  latency_guard guard;
  execute(4, [] {
    // Deterministic per-location samples; the ground truth records all of
    // them into one local histogram.
    histogram truth;
    for (location_id l = 0; l < num_locations(); ++l)
      for (std::uint64_t j = 0; j < 500; ++j)
        truth.record((l + 1) * 1'000 + j * 17);
    for (std::uint64_t j = 0; j < 500; ++j)
      latency::record_ns(latency::op::lb_wave_stall,
                         (this_location() + 1) * 1'000 + j * 17);

    auto const g = latency::global_histogram(latency::op::lb_wave_stall);
    EXPECT_EQ(g.count, truth.count);
    EXPECT_EQ(g.sum_ns, truth.sum_ns);
    EXPECT_EQ(g.max_ns, truth.max_ns);
    EXPECT_EQ(g.counts, truth.counts);
    for (double q : {0.5, 0.9, 0.99, 0.999})
      EXPECT_EQ(g.quantile(q), truth.quantile(q));
    rmi_fence();
  });
}

} // namespace
