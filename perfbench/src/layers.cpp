#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <limits>
#include <unordered_map>

#include "common.hpp"
#include "core/dependence_table.hpp"
#include "core/observer.hpp"
#include "core/oracle.hpp"
#include "core/resolver.hpp"
#include "core/task_pool.hpp"
#include "engine/registry.hpp"
#include "exec/sharded_resolver.hpp"
#include "obs/timeline.hpp"
#include "spans.hpp"
#include "workloads/library.hpp"

namespace perfbench {

namespace ns = nexuspp;
using ns::engine::RunReport;

namespace {

/// Lock-free observer: every callback stamps the preallocated slot of its
/// task serial; the completion order is claimed with one fetch_add. Slots
/// are read only after run() has joined the workers.
class SlotObserver final : public ns::core::ExecutionObserver {
 public:
  explicit SlotObserver(std::size_t tasks)
      : started(tasks, 0), completed(tasks, 0), ran_on(tasks, 0),
        order_(tasks, 0) {}

  void on_started(std::uint64_t serial, std::uint32_t worker) override {
    if (serial >= started.size()) {
      out_of_range_.store(true, std::memory_order_relaxed);
      return;
    }
    ran_on[serial] = worker;
    started[serial] = mono_ns();
  }

  void on_completed(std::uint64_t serial, std::uint32_t worker) override {
    (void)worker;
    const std::int64_t now = mono_ns();
    const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
    if (serial >= completed.size() || slot >= order_.size()) {
      out_of_range_.store(true, std::memory_order_relaxed);
      return;
    }
    completed[serial] = now;
    order_[slot] = serial;
  }

  [[nodiscard]] std::vector<std::uint64_t> order() const {
    const std::size_t n =
        std::min(next_.load(std::memory_order_relaxed), order_.size());
    return {order_.begin(), order_.begin() + static_cast<std::ptrdiff_t>(n)};
  }
  [[nodiscard]] bool out_of_range() const {
    return out_of_range_.load(std::memory_order_relaxed);
  }

  // Per serial: kernel start / end (mono_ns) and the worker that ran it.
  std::vector<std::int64_t> started;
  std::vector<std::int64_t> completed;
  std::vector<std::uint32_t> ran_on;

 private:
  std::vector<std::uint64_t> order_;
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> out_of_range_{false};
};

/// First (earlier, later) task pair of `records` with a direct dependence:
/// consecutive accesses to one base address where either writes.
std::pair<std::uint64_t, std::uint64_t> first_dependent_pair(
    const std::vector<ns::trace::TaskRecord>& records) {
  std::unordered_map<ns::core::Addr, std::pair<std::uint64_t, bool>> last;
  for (const auto& r : records) {
    for (const auto& p : r.params) {
      const auto it = last.find(p.addr);
      if (it != last.end() &&
          (it->second.second || ns::core::writes(p.mode))) {
        return {it->second.first, r.serial};
      }
      last[p.addr] = {r.serial, ns::core::writes(p.mode)};
    }
  }
  return {0, 0};
}

std::vector<std::vector<ns::core::Param>> params_by_serial(
    const std::vector<ns::trace::TaskRecord>& records) {
  std::vector<std::vector<ns::core::Param>> out(records.size());
  for (const auto& r : records) out[r.serial] = r.params;
  return out;
}

constexpr std::size_t kReplayBatch = 256;

double per(double total_ns, std::uint64_t count) {
  return count == 0 ? 0.0 : total_ns / static_cast<double>(count);
}

}  // namespace

ns::engine::EngineParams exec_params(std::uint32_t threads) {
  ns::engine::EngineParams p;
  p.num_workers = threads;
  p.threads = threads;
  return p;
}

ExecRep run_exec(const ns::engine::Engine& engine, const Records& records,
                 std::string& error) {
  ExecRep rep;
  const std::int64_t t0 = mono_ns();
  rep.report = engine.run(std::make_unique<ns::trace::VectorStream>(records));
  const double wall_s = seconds_since(t0);
  const auto& r = rep.report;
  rep.tasks_per_s = static_cast<double>(r.tasks_completed) / wall_s;
  error.clear();
  if (r.deadlocked || r.tasks_completed != records->size()) {
    error = "exec run completed " + std::to_string(r.tasks_completed) + " of " +
            std::to_string(records->size()) + " tasks" +
            (r.deadlocked ? " (deadlock: " + r.diagnosis + ")" : "");
  }
  return rep;
}

void add_exec_report_metrics(MetricSet& m, const std::vector<RunReport>& multi,
                             const std::vector<RunReport>& single,
                             std::uint64_t accesses) {
  for (const auto& r : multi) {
    const auto tasks = static_cast<double>(r.tasks_completed);
    const auto* submit = r.stage("submit");
    if (submit != nullptr && tasks > 0) {
      m.add("exec.submit.busy_ns_per_task", "ns",
            ns::sim::to_ns(submit->busy) / tasks);
      m.add("exec.submit.stall_ns_per_task", "ns",
            ns::sim::to_ns(submit->stall) / tasks);
    }
    m.add("exec.worker.busy_frac", "frac", r.avg_core_utilization);
    const auto& util = r.exec_worker_utilization;
    m.add("exec.worker.busy_frac_min", "frac",
          util.empty() ? 0.0 : *std::min_element(util.begin(), util.end()));
    m.add("exec.sync.contended_frac", "frac",
          r.exec_lock_acquisitions == 0
              ? 0.0
              : static_cast<double>(r.exec_lock_contentions) /
                    static_cast<double>(r.exec_lock_acquisitions));
    m.add("exec.queue.peak", "count", static_cast<double>(r.ready_queue_peak));
    const auto pct = r.turnaround_ns.percentiles({0.50, 0.99});
    m.add("exec.turnaround_us_p50", "us", pct[0] / 1000.0);
    m.add("exec.turnaround_us_p99", "us", pct[1] / 1000.0);
  }
  // Base-address mode queues exactly one hazard per queued access.
  for (const auto& r : single) {
    m.add("exec.resolver.queued_frac", "frac",
          static_cast<double>(r.total_hazards()) /
              static_cast<double>(std::max<std::uint64_t>(accesses, 1)));
  }
}

TracedExec run_traced_exec(const Records& records, std::uint32_t workers,
                           SpanRecorder& spans, bool corrupt_order,
                           bool kernel_spans) {
  TracedExec out;
  const std::size_t n = records->size();
  SlotObserver observer(n);
  auto params = exec_params(workers);
  params.timeline.enabled = true;
  // Room for every event of a run (about six per task on the busiest
  // track), so ready/run pairs are never lost to ring drops.
  params.timeline.events_per_track = static_cast<std::uint32_t>(
      std::min<std::size_t>(std::max<std::size_t>(1u << 16, 8 * n),
                            std::numeric_limits<std::uint32_t>::max()));
  auto config = ns::engine::ThreadedExecEngine::apply(ns::exec::ExecConfig{},
                                                      params);
  config.observer = &observer;
  const ns::engine::ThreadedExecEngine engine(config);

  const ScopedSpan span(spans, "exec.traced_pass");
  const std::int64_t t0 = mono_ns();
  const RunReport report = [&] {
    const ScopedSpan call(spans, "exec-threads.run");
    return engine.run(std::make_unique<ns::trace::VectorStream>(records));
  }();
  out.tasks_per_s =
      static_cast<double>(report.tasks_completed) / seconds_since(t0);
  if (report.deadlocked || report.tasks_completed != n) {
    out.error = "traced exec run completed " +
                std::to_string(report.tasks_completed) + " of " +
                std::to_string(n) + " tasks";
    return out;
  }
  if (observer.out_of_range()) {
    out.error = "observer saw a serial outside the trace";
    return out;
  }

  // Kernel time against the requested time.
  double measured = 0.0;
  double requested = 0.0;
  for (const auto& r : *records) {
    measured += static_cast<double>(observer.completed[r.serial] -
                                    observer.started[r.serial]);
    requested += ns::sim::to_ns(r.exec_time);
  }
  out.kernel_overrun_frac = requested > 0.0 ? measured / requested - 1.0 : 0.0;

  // Per worker, completed -> next started.
  std::vector<std::vector<std::uint64_t>> by_worker(workers);
  for (std::uint64_t s = 0; s < n; ++s) {
    if (observer.ran_on[s] < workers) by_worker[observer.ran_on[s]].push_back(s);
  }
  for (std::uint32_t w = 0; w < workers; ++w) {
    auto& tasks = by_worker[w];
    std::sort(tasks.begin(), tasks.end(), [&](std::uint64_t a, std::uint64_t b) {
      return observer.started[a] < observer.started[b];
    });
    for (std::size_t i = 1; i < tasks.size(); ++i) {
      out.gap_ns.push_back(static_cast<double>(
          observer.started[tasks[i]] - observer.completed[tasks[i - 1]]));
    }
    if (kernel_spans) {
      spans.name_track(1 + w, "exec-worker-" + std::to_string(w));
      for (const std::uint64_t s : tasks) {
        spans.add_closed("exec.kernel", observer.started[s],
                         observer.completed[s], span.id(), s, 1 + w);
      }
    }
  }

  // Ready -> run from the exec timeline (one ready instant per task).
  if (report.timeline.data != nullptr) {
    std::vector<double> ready(n, -1.0);
    std::vector<double> run(n, -1.0);
    for (const auto& track : report.timeline.data->tracks) {
      for (const auto& ev : track.events) {
        if (ev.task >= n) continue;
        if (ev.kind == ns::obs::EventKind::kReady) ready[ev.task] = ev.ts_ns;
        if (ev.kind == ns::obs::EventKind::kRun) run[ev.task] = ev.ts_ns;
      }
    }
    for (std::size_t s = 0; s < n; ++s) {
      if (ready[s] >= 0.0 && run[s] >= 0.0) {
        out.ready_to_start_ns.push_back(run[s] - ready[s]);
      }
    }
  }

  auto order = observer.order();
  if (corrupt_order) {
    const auto [a, b] = first_dependent_pair(*records);
    const auto ia = std::find(order.begin(), order.end(), a);
    const auto ib = std::find(order.begin(), order.end(), b);
    if (a != b && ia != order.end() && ib != order.end()) std::iter_swap(ia, ib);
  }
  {
    const ScopedSpan check(spans, "core.oracle.validate_completion_order");
    const auto verdict = ns::core::GraphOracle::validate_completion_order(
        ns::core::MatchMode::kBaseAddr, params_by_serial(*records), order);
    if (!verdict.empty()) out.error = "completion order invalid: " + verdict;
  }
  return out;
}

Replay run_replays(const Records& records, SpanRecorder& spans) {
  Replay out;
  const auto& recs = *records;
  const std::uint64_t n = recs.size();
  const std::uint64_t pairs = count_accesses(records);
  const ScopedSpan all(spans, "replay");

  // exec::ShardedResolver (default config: one shard).
  {
    const ScopedSpan span(spans, "replay.exec.resolver");
    ns::exec::ShardedResolver resolver(ns::exec::ShardedResolverConfig{}, n);
    std::deque<std::uint64_t> fifo;
    std::vector<std::uint64_t> granted;
    std::vector<std::vector<ns::core::Param>> batch_params;
    double submit_ns = 0.0;
    double finish_ns = 0.0;
    std::uint64_t finished = 0;
    for (std::uint64_t lo = 0; lo < n && out.error.empty(); lo += kReplayBatch) {
      const std::uint64_t hi = std::min<std::uint64_t>(n, lo + kReplayBatch);
      batch_params.clear();
      for (std::uint64_t g = lo; g < hi; ++g) batch_params.push_back(recs[g].params);
      {
        const ScopedSpan s(spans, "exec.resolver.submit_batch", lo);
        const std::int64_t t0 = mono_ns();
        for (std::uint64_t g = lo; g < hi; ++g) {
          auto session = resolver.begin_submit(g, recs[g].serial, recs[g].fn,
                                               std::move(batch_params[g - lo]));
          if (session.advance() != ns::exec::ShardedResolver::Progress::kDone) {
            out.error = "exec resolver replay stalled at task " + std::to_string(g);
            break;
          }
          if (session.ready()) fifo.push_back(g);
        }
        submit_ns += static_cast<double>(mono_ns() - t0);
      }
      {
        const ScopedSpan s(spans, "exec.resolver.finish_batch", lo);
        const std::int64_t t0 = mono_ns();
        while (!fifo.empty()) {
          const std::uint64_t g = fifo.front();
          fifo.pop_front();
          resolver.finish(g, granted);
          fifo.insert(fifo.end(), granted.begin(), granted.end());
          ++finished;
        }
        finish_ns += static_cast<double>(mono_ns() - t0);
      }
    }
    if (out.error.empty() && finished != n) {
      out.error = "exec resolver replay finished " + std::to_string(finished) +
                  " of " + std::to_string(n) + " tasks";
    }
    out.exec_submit_ns = per(submit_ns, n);
    out.exec_finish_ns = per(finish_ns, n);
  }

  // core::Resolver over one TaskPool + DependenceTable (hardware sizes).
  {
    const ScopedSpan span(spans, "replay.core.resolver");
    ns::core::TaskPool pool(ns::core::TaskPoolConfig{.capacity = 4 * kReplayBatch});
    ns::core::DependenceTable table(ns::core::DependenceTableConfig{.capacity = 4096});
    ns::core::Resolver resolver(pool, table);
    std::deque<ns::core::TaskId> fifo;
    std::vector<ns::core::TaskDescriptor> batch;
    double total_ns = 0.0;
    std::uint64_t finished = 0;
    for (std::uint64_t lo = 0; lo < n && out.error.empty(); lo += kReplayBatch) {
      const std::uint64_t hi = std::min<std::uint64_t>(n, lo + kReplayBatch);
      batch.clear();
      for (std::uint64_t g = lo; g < hi; ++g) {
        batch.push_back(ns::core::TaskDescriptor{recs[g].fn, recs[g].serial,
                                                 recs[g].params});
      }
      const ScopedSpan s(spans, "core.resolver.batch", lo);
      const std::int64_t t0 = mono_ns();
      for (const auto& td : batch) {
        const auto inserted = pool.insert(td);
        if (!inserted.has_value()) {
          out.error = "core replay: task pool full";
          break;
        }
        const ns::core::TaskId id = inserted->id;
        pool.set_busy(id, true);
        for (const auto& p : td.params) {
          if (resolver.process_param(id, p).outcome ==
              ns::core::Resolver::ParamOutcome::kNeedSpace) {
            out.error = "core replay: dependence table full";
          }
        }
        if (!out.error.empty()) break;
        pool.set_busy(id, false);
        if (resolver.finalize_new_task(id).ready) fifo.push_back(id);
      }
      while (!fifo.empty()) {
        const ns::core::TaskId id = fifo.front();
        fifo.pop_front();
        auto fr = resolver.finish(id);
        (void)pool.free_task(id);
        fifo.insert(fifo.end(), fr.now_ready.begin(), fr.now_ready.end());
        ++finished;
      }
      total_ns += static_cast<double>(mono_ns() - t0);
    }
    if (out.error.empty() && finished != n) {
      out.error = "core replay finished " + std::to_string(finished) + " of " +
                  std::to_string(n) + " tasks";
    }
    out.core_pair_ns = per(total_ns, pairs);
    out.probes_per_lookup = table.stats().avg_lookup_probes();
  }

  // core::GraphOracle (unbounded reference).
  {
    const ScopedSpan span(spans, "replay.core.oracle");
    ns::core::GraphOracle oracle(ns::core::MatchMode::kBaseAddr);
    std::deque<std::uint64_t> fifo;
    double total_ns = 0.0;
    std::uint64_t finished = 0;
    for (std::uint64_t lo = 0; lo < n; lo += kReplayBatch) {
      const std::uint64_t hi = std::min<std::uint64_t>(n, lo + kReplayBatch);
      const ScopedSpan s(spans, "core.oracle.batch", lo);
      const std::int64_t t0 = mono_ns();
      for (std::uint64_t g = lo; g < hi; ++g) {
        if (oracle.submit(g, recs[g].params)) fifo.push_back(g);
      }
      while (!fifo.empty()) {
        const std::uint64_t g = fifo.front();
        fifo.pop_front();
        const auto ready = oracle.finish(g);
        fifo.insert(fifo.end(), ready.begin(), ready.end());
        ++finished;
      }
      total_ns += static_cast<double>(mono_ns() - t0);
    }
    if (out.error.empty() && finished != n) {
      out.error = "oracle replay finished " + std::to_string(finished) + " of " +
                  std::to_string(n) + " tasks";
    }
    out.oracle_pair_ns = per(total_ns, pairs);
  }
  return out;
}

SimSet make_sim_set(std::uint64_t seed, bool quick) {
  const auto& lib = ns::workloads::WorkloadLibrary::builtins();
  const auto& registry = ns::engine::EngineRegistry::builtins();
  SimSet set;
  set.gaussian = lib.make_trace(quick ? "gaussian:n=60" : "gaussian:n=250");
  set.h264 = lib.make_trace(std::string(quick ? "h264:rows=30,cols=17,seed="
                                              : "h264:seed=") +
                            std::to_string(seed));
  ns::engine::EngineParams params;
  params.num_workers = 64;
  set.nexus = registry.make("nexus++", params);
  set.rts = registry.make("software-rts", params);
  return set;
}

std::vector<SimRun> run_sim(const SimSet& set, SpanRecorder& spans) {
  std::vector<SimRun> runs;
  const std::pair<const char*, const ns::engine::Engine*> engines[] = {
      {"nexus", set.nexus.get()}, {"rts", set.rts.get()}};
  const std::pair<const char*, const Records*> traces[] = {
      {"gaussian", &set.gaussian}, {"h264", &set.h264}};
  for (const auto& [ename, engine] : engines) {
    for (const auto& [tname, records] : traces) {
      const ScopedSpan span(spans, "sim.run");
      SimRun run{ename, tname, {}, 0.0};
      const std::int64_t t0 = mono_ns();
      run.report = engine->run(std::make_unique<ns::trace::VectorStream>(*records));
      run.host_s = seconds_since(t0);
      runs.push_back(std::move(run));
    }
  }
  return runs;
}

std::uint64_t count_accesses(const Records& records) {
  std::uint64_t total = 0;
  for (const auto& r : *records) total += r.params.size();
  return total;
}

}  // namespace perfbench
