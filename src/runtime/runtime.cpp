#include "runtime.hpp"

namespace stapl {
namespace runtime_detail {

runtime_impl* g_runtime = nullptr;
thread_local location_id tl_location = invalid_location;

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
    polling_barrier_wait();
    // A location that has not yet seen that barrier release may still start
    // a poll that executes or sends RMIs.  The second barrier passes only
    // once every location has left its polling loop, and nobody polls again
    // before the third, so all locations sum the same frozen per-location
    // counters and take the same verdict.
    impl.barrier().arrive_and_wait();
    auto const [sent, executed] = impl.rmi_totals();
    bool const quiesced = sent == executed;
    impl.barrier().arrive_and_wait();
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
