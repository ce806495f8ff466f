#include "runtime.hpp"

#include <linux/futex.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <ctime>

namespace stapl {
namespace runtime_detail {

runtime_impl* g_runtime = nullptr;
thread_local location_id tl_location = invalid_location;

namespace {

inline void cpu_relax() noexcept
{
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// CPUs this process may run on (its affinity mask).
unsigned usable_cpus() noexcept
{
  static unsigned const n = [] {
    cpu_set_t set;
    return sched_getaffinity(0, sizeof set, &set) == 0
               ? static_cast<unsigned>(CPU_COUNT(&set))
               : std::max(1u, std::thread::hardware_concurrency());
  }();
  return n;
}

/// `ms` milliseconds past `from`.  0 (the watchdog off), or a deadline past
/// the steady clock's range, never expires.
doorbell::clock::time_point deadline_after(doorbell::clock::time_point from,
                                           std::uint64_t ms) noexcept
{
  using clock = doorbell::clock;
  auto const range = std::chrono::duration_cast<std::chrono::milliseconds>(
      clock::time_point::max() - from);
  if (ms == 0 || ms >= static_cast<std::uint64_t>(range.count()))
    return clock::time_point::max();
  return from + std::chrono::milliseconds(
                    static_cast<std::chrono::milliseconds::rep>(ms));
}

} // namespace

bool doorbell::spin(std::uint32_t seen, clock::time_point until) const noexcept
{
  do {
    for (int i = 0; i != 32; ++i) {
      if (rings() != seen)
        return true;
      cpu_relax();
    }
  } while (clock::now() < until);
  return false;
}

// The park is a Linux futex wait on the ring count itself: the kernel
// sleeps only while the count still reads `seen`, so a ring between the
// parked flag's store and the wait is never lost.  The flag and the count
// are both sequentially consistent: either the ringer sees the flag, or
// the owner sees the new count.  A wake-up with the count unchanged (a
// late ringer's, or a signal) parks again for the time left.
bool doorbell::park(std::uint32_t seen, clock::time_point until) noexcept
{
  static_assert(sizeof(m_rings) == sizeof(std::uint32_t));
  m_parked.store(true, std::memory_order_seq_cst);
  while (m_rings.load(std::memory_order_seq_cst) == seen) {
    bool const forever = until == clock::time_point::max();
    auto const left = std::chrono::duration_cast<std::chrono::nanoseconds>(
        until - clock::now());
    if (!forever && left.count() <= 0)
      break;
    timespec const ts{static_cast<std::time_t>(left.count() / 1'000'000'000),
                      static_cast<long>(left.count() % 1'000'000'000)};
    syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&m_rings),
            FUTEX_WAIT_PRIVATE, seen, forever ? nullptr : &ts, nullptr, 0);
  }
  m_parked.store(false, std::memory_order_relaxed);
  return rings() != seen;
}

void doorbell::wake() noexcept
{
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&m_rings),
          FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr, 0);
}

void idle_wait::idle(doorbell& bell, std::uint32_t seen, bool bounded)
{
  using clock = doorbell::clock;
  auto& c = metrics::local();
  auto const start = clock::now();
  if (!m_armed) {
    m_deadline = deadline_after(start, fault::watchdog_ms());
    m_armed = true;
  }
  // A spin pays only while the peer it waits for runs on another CPU.
  // With more locations than CPUs, the wait parks at once and hands its
  // CPU to a location that has work.  A bounded park does not spin
  // either: what its location waits for is its own next poll.
  if (!bounded && rt().num_locations() <= usable_cpus()) {
    c.idle.spins += 1;
    if (bell.spin(seen, start + spin_window))
      return;
  }
  auto const parked = clock::now();
  auto const until =
      bounded ? std::min(m_deadline, parked + pending_park) : m_deadline;
  bool const rung = bell.park(seen, until);
  auto const woke = clock::now();
  auto const us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(woke - parked)
          .count());
  c.idle.park_us += us;
  if (rung)
    return;
  c.idle.sleeps += 1;
  c.idle.nap_us += us;
  c.robust.retries += 1;
  if (woke >= m_deadline) {
    fault::watchdog_fire(m_what);
    // re-arm: a still-stuck wait dumps again
    m_deadline = deadline_after(woke, fault::watchdog_ms());
  }
}

} // namespace runtime_detail

void rmi_fence()
{
  using namespace runtime_detail;
  auto& impl = rt();
  metrics::local().rmi.fences += 1;
  trace::trace_scope fence_scope(trace::event_kind::fence);

  // Distributed termination detection: drain, synchronize, and re-check
  // until a round completes with globally balanced sent/executed counters.
  // Processing a request may itself send new requests (method forwarding,
  // continuations), which unbalances the counters and forces another round.
  for (;;) {
    while (poll_once()) {
    }
    flush_aggregation();
    // The first barrier must poll while waiting: a peer may still be blocked
    // in a sync_rmi whose request landed in our inbox after we drained.
    barrier_wait(true);
    // A location that has not yet seen that barrier release may still start
    // a poll that executes or sends RMIs.  The second barrier passes only
    // once every location has left its polling loop, and nobody polls again
    // before the third, so all locations sum the same frozen per-location
    // counters and take the same verdict.
    barrier_wait(false);
    auto const [sent, executed] = impl.rmi_totals();
    bool const quiesced = sent == executed;
    barrier_wait(false);
    if (quiesced)
      return;
  }
}

void execute(runtime_config const& cfg, std::function<void()> spmd)
{
  using namespace runtime_detail;
  assert(g_runtime == nullptr && "nested stapl::execute is not supported");
  assert(cfg.num_locations >= 1);

  // Environment-driven fault arming must precede construction: the impl
  // latches sequenced delivery off fault::armed().
  fault::init_from_env();

  runtime_impl impl(cfg);
  g_runtime = &impl;

  std::mutex error_mutex;
  std::exception_ptr first_error;

  auto body = [&](location_id id) {
    tl_location = id;
    trace::attach(id);
    fault::attach(id);
    try {
      spmd();
    } catch (...) {
      std::lock_guard lock(error_mutex);
      if (!first_error)
        first_error = std::current_exception();
    }
    // Implicit final fence so that all in-flight traffic of well-formed
    // programs drains before teardown.  If a location failed we still must
    // not deadlock: locations that threw participate in the fence too.
    try {
      rmi_fence();
    } catch (...) {
      std::lock_guard lock(error_mutex);
      if (!first_error)
        first_error = std::current_exception();
    }
    // Preserve this execution's counters and latency histograms for the
    // process-wide accumulators (what bench_common embeds in its JSON)
    // before the thread dies.
    metrics::fold_into_process(metrics::snapshot());
    latency::fold_into_process();
    fault::detach();
    trace::detach();
    tl_location = invalid_location;
  };

  std::vector<std::thread> threads;
  threads.reserve(cfg.num_locations);
  for (location_id id = 0; id < cfg.num_locations; ++id)
    threads.emplace_back(body, id);
  for (auto& t : threads)
    t.join();

  g_runtime = nullptr;
  if (first_error)
    std::rethrow_exception(first_error);
}

void execute(unsigned p, std::function<void()> spmd)
{
  runtime_config cfg;
  cfg.num_locations = p;
  execute(cfg, std::move(spmd));
}

} // namespace stapl
