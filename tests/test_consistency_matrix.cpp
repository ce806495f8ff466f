// Memory-consistency model tests (Ch. VII): completion guarantees of
// sync/async/split-phase methods, per-element per-source ordering, fence
// semantics, the relaxed default model (Dekker, Fig. 22b) vs the
// sequential-consistency restriction of Claim 3 — plus owner-serialized
// read-modify-writes (the Ch. VI concern) and pMatrix tests.

#include "algorithms/p_algorithms.hpp"
#include "containers/p_array.hpp"
#include "containers/p_matrix.hpp"
#include "containers/p_vector.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace {

using namespace stapl;

// ---------------------------------------------------------------------------
// Completion guarantees (Ch. VII.B)
// ---------------------------------------------------------------------------

TEST(Consistency, ReadAfterAsyncWriteSameElementSameThread)
{
  // Ch. VII.C condition 4: a synchronous method on element x forces the
  // acknowledgment of pending asynchronous methods on x from this thread.
  execute(4, [] {
    p_array<int> pa(num_locations());
    rmi_fence();
    // Write to a REMOTE element then read it back immediately — the read
    // must observe the write (same source, same element, FIFO channel).
    gid1d const x = (this_location() + 1) % num_locations();
    for (int i = 0; i < 50; ++i) {
      pa.set_element(x, i);
      EXPECT_EQ(pa.get_element(x), i);
    }
    rmi_fence();
  });
}

TEST(Consistency, AsyncWritesSameElementCompleteInProgramOrder)
{
  execute(2, [] {
    p_array<int> pa(1);
    rmi_fence();
    if (this_location() == 1)
      for (int i = 1; i <= 200; ++i)
        pa.set_element(0, i); // all to location 0's element
    rmi_fence();
    // After the fence the LAST write in program order must have won.
    EXPECT_EQ(pa.get_element(0), 200);
    rmi_fence();
  });
}

TEST(Consistency, SplitPhaseAckByFence)
{
  // Ch. VII.B: split-phase acknowledgments are received at the latest when
  // a fence completes.
  execute(4, [] {
    p_array<int> pa(64, 9);
    rmi_fence();
    std::vector<pc_future<int>> futs;
    for (gid1d g = 0; g < 64; ++g)
      futs.push_back(pa.split_phase_get_element(g));
    rmi_fence();
    for (auto& f : futs) {
      EXPECT_TRUE(f.is_ready());
      EXPECT_EQ(f.get(), 9);
    }
    rmi_fence();
  });
}

TEST(Consistency, FenceMakesWritesGloballyVisible)
{
  execute(4, [] {
    p_array<long> pa(256);
    // Everyone writes a strided quarter, fence, everyone checks everything.
    for (gid1d g = this_location(); g < 256; g += num_locations())
      pa.set_element(g, static_cast<long>(g) * 7);
    rmi_fence();
    for (gid1d g = 0; g < 256; ++g)
      EXPECT_EQ(pa.get_element(g), static_cast<long>(g) * 7);
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// Relaxed default MCM vs sequential consistency (Ch. VII.E)
// ---------------------------------------------------------------------------

TEST(Consistency, DekkerWithSyncWritesIsSequentiallyConsistent)
{
  // Claim 3: with only synchronous methods, concurrent invocations satisfy
  // sequential consistency — (r1, r2) == (0, 0) is impossible.
  unsigned const trials = 50;
  for (unsigned t = 0; t < trials; ++t) {
    execute(2, [] {
      p_array<int> flags(2, 0);
      rmi_fence();
      int r = -1;
      if (this_location() == 0) {
        flags.set_element_sync(0, 1); // completes at the owner before...
        r = flags.get_element(1);     // ...the read is issued
      } else {
        flags.set_element_sync(1, 1);
        r = flags.get_element(0);
      }
      auto const results = allgather(r);
      EXPECT_FALSE(results[0] == 0 && results[1] == 0)
          << "SC violation with synchronous writes";
      rmi_fence();
    });
  }
}

TEST(Consistency, DekkerWithAsyncWritesAllowsRelaxedOutcome)
{
  // The default MCM is weaker than SC (Ch. VII.E.1): with asynchronous
  // writes the (0,0) outcome is permitted.  We only verify that every
  // observed outcome is one of the four allowed ones and report whether the
  // relaxed outcome occurred (it usually does: async writes are queued).
  unsigned relaxed = 0;
  unsigned const trials = 50;
  for (unsigned t = 0; t < trials; ++t) {
    bool both_zero = false;
    execute(2, [&both_zero] {
      p_array<int> flags(2, 0);
      rmi_fence();
      int r = -1;
      if (this_location() == 0) {
        flags.set_element(0, 1); // asynchronous
        r = flags.get_element(1);
      } else {
        flags.set_element(1, 1);
        r = flags.get_element(0);
      }
      auto const results = allgather(r);
      EXPECT_TRUE(results[0] == 0 || results[0] == 1);
      EXPECT_TRUE(results[1] == 0 || results[1] == 1);
      if (this_location() == 0 && results[0] == 0 && results[1] == 0)
        both_zero = true;
      rmi_fence();
    });
    if (both_zero)
      ++relaxed;
  }
  // Informational: the relaxed outcome is allowed, not required.
  RecordProperty("relaxed_outcomes", static_cast<int>(relaxed));
}

// ---------------------------------------------------------------------------
// Thread safety (Ch. VI)
// ---------------------------------------------------------------------------

TEST(ThreadSafety, ConcurrentRemoteIncrementsSameElement)
{
  // Every location sends read-modify-writes to one element; the owner runs
  // them on its own thread, so no update may be lost.
  execute(4, [] {
    p_array<long> pa(1, 0);
    rmi_fence();
    for (int i = 0; i < 1000; ++i)
      pa.apply_set(0, [](long& x) { x += 1; });
    rmi_fence();
    EXPECT_EQ(pa.get_element(0), 4000);
    rmi_fence();
  });
}

// ---------------------------------------------------------------------------
// pMatrix (Ch. V.F)
// ---------------------------------------------------------------------------

class PMatrixTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PMatrixTest, SetGetByCoordinates)
{
  execute(GetParam(), [] {
    p_matrix<int> m(8, 12);
    EXPECT_EQ(m.size(), 96u);
    EXPECT_EQ(m.rows(), 8u);
    EXPECT_EQ(m.cols(), 12u);
    if (this_location() == 0)
      for (std::size_t r = 0; r < 8; ++r)
        for (std::size_t c = 0; c < 12; ++c)
          m.set(r, c, static_cast<int>(r * 100 + c));
    rmi_fence();
    for (std::size_t r = 0; r < 8; ++r)
      for (std::size_t c = 0; c < 12; c += 5)
        EXPECT_EQ(m.get(r, c), static_cast<int>(r * 100 + c));
    rmi_fence();
  });
}

TEST_P(PMatrixTest, CheckerboardPartition)
{
  execute(GetParam(), [] {
    p_matrix<int> m(16, 16, matrix_partition(2, 2));
    EXPECT_EQ(m.partition().size(), 4u);
    // Every element is owned exactly once; local sizes sum to 256.
    auto const total = allreduce(m.local_size(), std::plus<>{});
    EXPECT_EQ(total, 256u);
    m(3, 3) = 77;
    rmi_fence();
    int const v = m(3, 3);
    EXPECT_EQ(v, 77);
    rmi_fence();
  });
}

TEST_P(PMatrixTest, RowsViewComputesRowMinima)
{
  execute(GetParam(), [] {
    std::size_t const R = 12, C = 10;
    p_matrix<long> m(R, C);
    p_for_each_gid(matrix_linear_view(m), [C](gid1d i, long& x) {
      std::size_t const r = i / C, c = i % C;
      x = static_cast<long>((r * 31 + c * 17) % 57);
    });
    matrix_rows_view rows(m);
    EXPECT_EQ(rows.size(), R);
    long local_sum_of_minima = 0;
    for (auto ri : rows.local_gids()) {
      auto row = rows.read(ri);
      long mn = row[0];
      for (std::size_t c = 1; c < row.size(); ++c)
        mn = std::min(mn, row[c]);
      local_sum_of_minima += mn;
    }
    long const total = allreduce(local_sum_of_minima, std::plus<>{});
    long expect = 0;
    for (std::size_t r = 0; r < R; ++r) {
      long mn = std::numeric_limits<long>::max();
      for (std::size_t c = 0; c < C; ++c)
        mn = std::min(mn, static_cast<long>((r * 31 + c * 17) % 57));
      expect += mn;
    }
    EXPECT_EQ(total, expect);
    rmi_fence();
  });
}

TEST_P(PMatrixTest, LinearViewAlgorithms)
{
  execute(GetParam(), [] {
    p_matrix<long> m(10, 10);
    matrix_linear_view lv(m);
    p_fill(lv, 3L);
    EXPECT_EQ(p_accumulate(lv, 0L), 300L);
    p_for_each(lv, [](long& x) { x *= 2; });
    EXPECT_EQ(p_accumulate(lv, 0L), 600L);
    rmi_fence();
  });
}

INSTANTIATE_TEST_SUITE_P(Locations, PMatrixTest, ::testing::Values(1, 2, 4));

} // namespace
