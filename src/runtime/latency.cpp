#include "latency.hpp"

#include <memory>
#include <mutex>

namespace stapl {
namespace latency {

namespace latency_detail {
std::atomic<bool> g_enabled{false};
} // namespace latency_detail

namespace {

std::atomic<std::uint64_t> g_reset_epoch{1};

/// The calling thread's recorders.  Heap-allocated: a histogram_set is
/// ~55 KB and most threads never record.  A location is a thread, so each
/// set has exactly one writer; readers (snapshots, fold) run on the same
/// thread.  `epoch` implements the lazy reset: a stale set clears itself
/// on first touch after a reset() bump.
struct thread_recorders {
  std::unique_ptr<histogram_set> hists;
  std::uint64_t epoch = 0;
};

thread_recorders& tls()
{
  thread_local thread_recorders r;
  return r;
}

histogram_set& fresh_hists()
{
  auto& r = tls();
  if (!r.hists)
    r.hists = std::make_unique<histogram_set>();
  std::uint64_t const e = g_reset_epoch.load(std::memory_order_relaxed);
  if (r.epoch != e) {
    for (auto& h : *r.hists)
      h.clear();
    r.epoch = e;
  }
  return *r.hists;
}

std::mutex g_process_mutex;
std::unique_ptr<histogram_set> g_process_hists;

} // namespace

char const* name_of(op o) noexcept
{
  switch (o) {
    case op::dir_resolve:     return "dir.resolve";
    case op::rmi_sync:        return "rmi.sync";
    case op::tg_task:         return "tg.task";
    case op::container_apply: return "container.apply";
    case op::lb_wave_stall:   return "lb.wave_stall";
    case op::op_count_:       break;
  }
  return "unknown";
}

void enable() noexcept
{
  latency_detail::g_enabled.store(true, std::memory_order_release);
}

void disable() noexcept
{
  latency_detail::g_enabled.store(false, std::memory_order_release);
}

void reset()
{
  g_reset_epoch.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(g_process_mutex);
  g_process_hists.reset();
}

void record_ns(op o, std::uint64_t ns) noexcept
{
  fresh_hists()[static_cast<std::size_t>(o)].record(ns);
}

histogram local_snapshot(op o)
{
  return fresh_hists()[static_cast<std::size_t>(o)];
}

histogram_set local_snapshots()
{
  return fresh_hists();
}

void fold_into_process()
{
  auto& r = tls();
  if (!r.hists)
    return;
  // A stale set holds pre-reset samples; fresh_hists() discards them.
  auto& mine = fresh_hists();
  {
    std::lock_guard lock(g_process_mutex);
    if (!g_process_hists)
      g_process_hists = std::make_unique<histogram_set>();
    for (std::size_t i = 0; i != op_count; ++i)
      (*g_process_hists)[i].merge(mine[i]);
  }
  for (auto& h : mine)
    h.clear();
}

histogram process_histogram(op o)
{
  std::lock_guard lock(g_process_mutex);
  if (!g_process_hists)
    return {};
  return (*g_process_hists)[static_cast<std::size_t>(o)];
}

} // namespace latency
} // namespace stapl
