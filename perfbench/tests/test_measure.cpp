// Unit tests of the benchmark's measurement arithmetic: nearest-rank
// percentiles, medians and span self time.  Exits non-zero on any failure.

#include "measure.hpp"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace {

int g_failures = 0;

void expect(bool ok, char const* what, int line)
{
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

using perfbench::no_parent;
using perfbench::percentile;
using perfbench::span;

void test_percentile()
{
  std::vector<int> v;
  for (int i = 100; i >= 1; --i)
    v.push_back(i); // 1..100, reversed
  EXPECT(percentile(v, 0.50) == 50);
  EXPECT(percentile(v, 0.99) == 99);
  EXPECT(percentile(v, 0.995) == 100);
  EXPECT(percentile(v, 1.0) == 100);
  EXPECT(percentile(v, 0.0) == 1);   // rank clamps to the smallest sample
  EXPECT(percentile(v, 0.001) == 1);

  std::vector<int> one{7};
  EXPECT(percentile(one, 0.5) == 7);
  EXPECT(percentile(one, 0.99) == 7);

  std::vector<int> empty;
  EXPECT(percentile(empty, 0.5) == 0);

  // p99 of 1000 samples with ten outliers: the 990th value is still in the
  // body, the 991st is the first outlier.
  std::vector<long> tail(990, 10);
  tail.insert(tail.end(), 10, 5000);
  EXPECT(percentile(tail, 0.99) == 10);
  EXPECT(percentile(tail, 0.991) == 5000);

  // Nearest rank on an even count: the lower middle value.
  std::vector<double> four{4, 1, 3, 2};
  EXPECT(percentile(four, 0.5) == 2);
  EXPECT(perfbench::percentile_of(std::vector<double>{4, 1, 3, 2}, 0.75) == 3);
}

void test_median()
{
  EXPECT(perfbench::median({}) == 0.0);
  EXPECT(perfbench::median({3.0}) == 3.0);
  EXPECT(perfbench::median({5.0, 1.0, 3.0}) == 3.0);
  EXPECT(perfbench::median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void test_self_time()
{
  // parent [0, 100) with children [10, 30) and [50, 60): self = 70.
  std::vector<span> s{
      {0, no_parent, 1, 0, 100},
      {1, 0, 1, 10, 30},
      {1, 0, 1, 50, 60},
  };
  auto t = perfbench::self_times(s);
  EXPECT(t[0] == 70);
  EXPECT(t[1] == 20);
  EXPECT(t[2] == 10);

  // Overlapping children count once; a child sticking out of its parent is
  // clipped; a grandchild is charged to its own parent only.
  std::vector<span> o{
      {0, no_parent, 1, 100, 200},
      {1, 0, 1, 110, 150},
      {1, 0, 1, 140, 160},  // overlaps the first child: union [110, 160)
      {1, 0, 1, 190, 250},  // clipped to [190, 200)
      {2, 1, 1, 120, 130},  // grandchild of span 0
  };
  t = perfbench::self_times(o);
  EXPECT(t[0] == 100 - 50 - 10);
  EXPECT(t[1] == 40 - 10);
  EXPECT(t[2] == 20);
  EXPECT(t[3] == 60);
  EXPECT(t[4] == 10);

  // A child that covers its parent completely leaves zero self time.
  std::vector<span> full{{0, no_parent, 1, 5, 9}, {1, 0, 1, 0, 20}};
  EXPECT(perfbench::self_times(full)[0] == 0);
}

void test_span_log()
{
  perfbench::span_log log(2);
  auto const a = log.open(0, 7, no_parent, 10);
  auto const b = log.add(1, 7, a, 12, 15);
  log.close(a, 20);
  auto const c = log.open(0, 8, no_parent, 30); // over capacity: dropped
  log.close(c, 40);
  EXPECT(c == no_parent);
  EXPECT(log.dropped() == 1);
  EXPECT(log.spans().size() == 2);
  EXPECT(log.spans()[a].end_ns == 20);
  EXPECT(log.spans()[b].parent == a);
  EXPECT(perfbench::self_times(log.spans())[a] == 7);
}

} // namespace

int main()
{
  test_percentile();
  test_median();
  test_self_time();
  test_span_log();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench_unit: all checks passed\n");
  return EXIT_SUCCESS;
}
