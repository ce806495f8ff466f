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
  rt().loc(tl_location).stats.fences += 1;
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
    // The runtime itself is the first metrics contributor on every
    // location: the RTS communication counters plus the idle-time counters
    // fed by deadline_backoff and injected fault stalls.
    auto const runtime_contributor = metrics::register_contributor(
        [id](metrics::counter_map& m) {
          location_stats const& s = rt().loc(id).stats;
          m["rmi.rmis_sent"] += s.rmis_sent;
          m["rmi.rmis_executed"] += s.rmis_executed;
          m["rmi.local_rmis"] += s.local_rmis;
          m["rmi.msgs_sent"] += s.msgs_sent;
          m["rmi.sync_rmis"] += s.sync_rmis;
          m["rmi.fences"] += s.fences;
          m["rmi.rmi_bytes"] += s.rmi_bytes;
          m["rmi.msg_bytes"] += s.msg_bytes;
          m["coll.ops"] += s.coll_ops;
          m["coll.agg_batches"] += s.agg_batches;
          m["coll.agg_bytes"] += s.agg_batch_bytes;
          if (m["rmi.inbox_depth"] < s.inbox_depth)
            m["rmi.inbox_depth"] = s.inbox_depth; // gauge: deepest backlog
          if (m["rmi.deferred_depth"] < s.deferred_hw)
            m["rmi.deferred_depth"] = s.deferred_hw; // gauge
          metrics::idle_counters const& i = metrics::idle();
          m["idle.spins"] += i.spins;
          m["idle.sleeps"] += i.sleeps;
          m["idle.nap_us"] += i.nap_us;
          fault::counters const& f = fault::tl_counters();
          m["fault.injected"] += f.injected;
          m["fault.delays"] += f.delays;
          m["fault.dups"] += f.dups;
          m["fault.reorders"] += f.reorders;
          m["fault.stalls"] += f.stalls;
          m["fault.alloc_fails"] += f.alloc_fails;
          robust::counters const& r = robust::tl();
          m["robust.retries"] += r.retries;
          m["robust.dups_suppressed"] += r.dups_suppressed;
          m["robust.watchdog_dumps"] += r.watchdog_dumps;
        },
        [id] {
          rt().loc(id).stats = {};
          metrics::idle() = {};
          fault::tl_counters() = {};
          robust::tl() = {};
        });
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
    metrics::unregister_contributor(runtime_contributor);
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
