// perfbench: the repository benchmark program.
//
//   perfbench --workload wavefront|fine-dag|closures --seed N --seconds S
//             --trace 0|1 [--quick] [--spans FILE] [--corrupt order|checksum]
//
// Builds the workload's inputs from the seed, then alternates timed reps of
// each configuration for S seconds with all tracing off, repeating set-up
// between the reps to time it.
// With --trace 1 it adds one traced pass per layer afterwards (observer,
// exec timeline, serial replays, span recording). Prints one JSON object
// with every metric (median, quartiles, sample count), the host metadata
// and the attempted/failed operation counts. perfbench/run.py builds this
// program and turns that object into the benchmark's result line.
//
// --quick shrinks every input (the self-test); --corrupt makes one check
// see wrong data on purpose, to show the check can fail.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "engine/registry.hpp"
#include "exec/spin.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "stencil.hpp"
#include "workloads/library.hpp"
#include "workloads/random_dag.hpp"

namespace perfbench {
namespace {

namespace ns = nexuspp;
using ns::engine::RunReport;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string spans_path;
  std::string corrupt;  ///< "", "order" or "checksum"
};

/// Everything one invocation accumulates.
struct Bench {
  Args args;
  std::uint32_t nproc = 1;
  std::uint32_t workers = 1;  ///< exec / runtime workers: nproc - 1
  MetricSet metrics;
  Ledger ledger;
  SpanRecorder spans;
  std::string reps;                ///< JSON object: rep counts per config
  std::vector<std::string> notes;  ///< JSON members: workload facts

  explicit Bench(Args a) : args(std::move(a)), spans(args.trace) {}
};

constexpr std::size_t kMinSetups = 5;
/// At most this many set-ups run between two reps, so that cheap set-ups
/// too are spread over the whole run.
constexpr std::size_t kMaxSetupsBetweenReps = 16;
/// Set-up time spent between the timed reps, as a share of the reps' time.
constexpr double kSetupShare = 0.1;
/// The quantile of the set-up samples reported as setup_s (see report()).
constexpr double kSetupQuantile = 0.1;
constexpr std::size_t kMinReps = 3;
/// A timed rep during which the host took more than this share of the
/// machine's CPU time (plus one clock tick) is left out of the reported
/// samples.
constexpr double kStealShare = 0.02;
constexpr int kTracedPasses = 3;
/// Requested kernel time of a closures task when the stencil graph runs
/// through the exec layer (its closures do tens of nanoseconds of work).
constexpr std::uint64_t kStencilExecNs = 50;

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Times a workload's set-up: input generation and engine or runtime
/// construction. It runs kMinSetups times before the warm-up and then again
/// between the timed reps, so its samples cover the whole run as the reps'
/// do. `once_s` is the one-time calibration, which only the first call in a
/// process pays: it is timed once and added to every sample.
template <class F>
class SetupTimer {
 public:
  SetupTimer(F setup, double once_s) : setup_(std::move(setup)), once_s_(once_s) {}

  /// Runs set-up kMinSetups times; returns the last result.
  auto initial() {
    for (std::size_t i = 1; i < kMinSetups; ++i) (void)timed();
    return timed();
  }

  /// Runs set-up until it has taken kSetupShare of `reps_s` (the timed reps'
  /// accumulated seconds), at most kMaxSetupsBetweenReps times.
  void between_reps(double reps_s) {
    for (std::size_t i = 0;
         i < kMaxSetupsBetweenReps && spent_s_ < kSetupShare * reps_s; ++i) {
      (void)timed();
    }
  }

  /// Records setup_s as the kSetupQuantile of the samples. Set-up is short
  /// and memory-bound, and on a shared host its samples fall into a fast
  /// and a slow mode that last for seconds; a median flips between them
  /// with the share of the run the host spends in each, a low quantile
  /// does not.
  void report(Bench& b) const {
    b.metrics.add_all("setup_s", "s", samples_, kSetupQuantile);
    b.notes.push_back("\"setups\":" + std::to_string(samples_.size()));
    b.notes.push_back("\"calibration_s\":" + json_number(once_s_));
  }

 private:
  auto timed() {
    const std::int64_t t0 = mono_ns();
    auto out = setup_();
    const double dt = seconds_since(t0);
    spent_s_ += dt;
    samples_.push_back(dt + once_s_);
    return out;
  }

  F setup_;
  double once_s_;
  double spent_s_ = 0.0;
  std::vector<double> samples_;
};

/// One timed rep: its tasks per second, or nothing when it failed.
using Rep = std::function<std::optional<double>()>;

/// The timed reps of one configuration.
struct RepSamples {
  std::size_t runs = 0;
  std::size_t stolen = 0;  ///< reps left out because the host stole CPU time
  std::vector<double> all;
  std::vector<double> calm;  ///< `all` without the stolen-from reps

  /// The calm reps when there are at least kMinReps of them, else all.
  [[nodiscard]] const std::vector<double>& reported() const {
    return calm.size() >= kMinReps ? calm : all;
  }
};

struct TimedReps {
  RepSamples multi;   ///< nproc - 1 workers
  RepSamples single;  ///< one thread
};

/// Alternates the two configurations for the run's seconds, always running
/// the one with less accumulated time (each at least kMinReps times).
/// `after` gets the accumulated seconds of both after each rep. A shared
/// host sometimes takes CPU time from this virtual machine for minutes at
/// a time, which slows every rep by up to 40 %; reps during which it took
/// more than kStealShare are set aside, so one run's median does not
/// depend on how much of it such a stretch covered.
TimedReps balanced_reps(const Bench& b, const Rep& multi, const Rep& single,
                        const std::function<void(double)>& after) {
  static const double ticks_per_s = static_cast<double>(sysconf(_SC_CLK_TCK));
  TimedReps out;
  double t_multi = 0.0;
  double t_single = 0.0;
  const std::int64_t start = mono_ns();
  while (seconds_since(start) < b.args.seconds || out.multi.runs < kMinReps ||
         out.single.runs < kMinReps) {
    const bool run_multi = t_multi <= t_single;
    RepSamples& samples = run_multi ? out.multi : out.single;
    const std::uint64_t stolen0 = stolen_ticks();
    const std::int64_t t0 = mono_ns();
    const std::optional<double> tps = run_multi ? multi() : single();
    const double dt = seconds_since(t0);
    const double allowed = 1.0 + kStealShare * dt * ticks_per_s * b.nproc;
    const bool calm = static_cast<double>(stolen_ticks() - stolen0) <= allowed;
    (run_multi ? t_multi : t_single) += dt;
    ++samples.runs;
    if (tps.has_value()) {
      samples.all.push_back(*tps);
      if (calm) samples.calm.push_back(*tps);
      else ++samples.stolen;
    }
    after(t_multi + t_single);
  }
  return out;
}

/// tasks_per_s and tasks_per_s_1t, and the rep counts behind them.
void add_rep_metrics(Bench& b, const TimedReps& reps) {
  b.metrics.add_all("tasks_per_s", "tasks/s", reps.multi.reported());
  b.metrics.add_all("tasks_per_s_1t", "tasks/s", reps.single.reported());
  b.reps = "{\"tasks_per_s\":" + std::to_string(reps.multi.reported().size()) +
           ",\"tasks_per_s_1t\":" + std::to_string(reps.single.reported().size()) +
           ",\"set_aside_for_steal\":" + std::to_string(reps.multi.stolen + reps.single.stolen) +
           "}";
}

void check_serials(Bench& b, const Records& records) {
  bool dense = true;
  for (std::size_t i = 0; i < records->size(); ++i) {
    dense = dense && (*records)[i].serial == i;
  }
  b.ledger.check(dense, "trace serials are not 0..n-1");
}

// --- Per-layer panels (traced run) -------------------------------------------

/// Traced exec passes; obs.overhead_frac when the untraced rate is given.
void exec_traced_panel(Bench& b, const Records& records, int passes,
                       std::optional<double> untraced_tps) {
  std::vector<double> traced_tps;
  for (int pass = 0; pass < passes; ++pass) {
    const bool first = pass == 0;
    const TracedExec t =
        run_traced_exec(records, b.workers, b.spans,
                        first && b.args.corrupt == "order", first);
    if (!b.ledger.check(t.error.empty(), t.error)) continue;
    traced_tps.push_back(t.tasks_per_s);
    b.metrics.add("exec.kernel.overrun_frac", "frac", t.kernel_overrun_frac);
    b.metrics.add("exec.worker.gap_ns_p50", "ns", quantile(t.gap_ns, 0.50));
    b.metrics.add("exec.worker.gap_ns_p99", "ns", quantile(t.gap_ns, 0.99));
    b.metrics.add("exec.dispatch.ready_to_start_ns_p50", "ns",
                  quantile(t.ready_to_start_ns, 0.50));
    b.metrics.add("exec.dispatch.ready_to_start_ns_p99", "ns",
                  quantile(t.ready_to_start_ns, 0.99));
  }
  if (untraced_tps.has_value() && !traced_tps.empty()) {
    b.metrics.add("obs.overhead_frac", "frac",
                  *untraced_tps / median(traced_tps) - 1.0);
  }
}

/// RunReport metrics and one traced pass for workloads whose timed reps do
/// not run the exec layer: the workload's task graph through exec-threads.
void exec_panel(Bench& b, const Records& records) {
  const ScopedSpan span(b.spans, "exec.panel");
  const auto& registry = ns::engine::EngineRegistry::builtins();
  const auto multi = registry.make("exec-threads", exec_params(b.workers));
  const auto single = registry.make("exec-threads", exec_params(1));
  std::vector<RunReport> multi_reports;
  std::vector<RunReport> single_reports;
  std::string error;
  for (std::size_t rep = 0; rep < kMinReps; ++rep) {
    const ScopedSpan s(b.spans, "exec.run");
    ExecRep r = run_exec(*multi, records, error);
    if (b.ledger.check(error.empty(), error)) multi_reports.push_back(std::move(r.report));
  }
  {
    const ScopedSpan s(b.spans, "exec.run");
    ExecRep r = run_exec(*single, records, error);
    if (b.ledger.check(error.empty(), error)) single_reports.push_back(std::move(r.report));
  }
  add_exec_report_metrics(b.metrics, multi_reports, single_reports,
                          count_accesses(records));
  exec_traced_panel(b, records, 1, std::nullopt);
}

void replay_panel(Bench& b, const Records& records) {
  const Replay r = run_replays(records, b.spans);
  if (!b.ledger.check(r.error.empty(), r.error)) return;
  b.metrics.add("exec.resolver.submit_ns", "ns", r.exec_submit_ns);
  b.metrics.add("exec.resolver.finish_ns", "ns", r.exec_finish_ns);
  b.metrics.add("core.resolver.pair_ns", "ns", r.core_pair_ns);
  b.metrics.add("core.oracle.pair_ns", "ns", r.oracle_pair_ns);
  b.metrics.add("core.table.probes_per_lookup", "count", r.probes_per_lookup);
}

/// Checks one sim rep against the reference rep and records its metrics.
void record_sim_rep(Bench& b, const std::vector<SimRun>& runs,
                    const std::vector<SimRun>& reference) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const SimRun& r = runs[i];
    const bool same = i < reference.size() && r.report == reference[i].report;
    b.ledger.check(same && !r.report.deadlocked,
                   std::string("sim ") + r.engine + "/" + r.trace +
                       " report differs from the first rep");
    const auto n = static_cast<double>(r.report.tasks_completed);
    const std::string suffix = std::string(".") + r.trace;
    b.metrics.add(std::string("sim.") + r.engine + ".host_ns_per_task" + suffix,
                  "ns", r.host_s * 1e9 / n);
    if (std::string(r.engine) == "nexus") {
      const auto events = static_cast<double>(r.report.sim_events);
      b.metrics.add("sim.nexus.events_per_task" + suffix, "count", events / n);
      b.metrics.add("sim.nexus.host_ns_per_event" + suffix, "ns",
                    r.host_s * 1e9 / events);
    }
  }
}

std::string makespans_json(const std::vector<SimRun>& runs) {
  std::string out = "{";
  for (const auto& r : runs) {
    if (out.size() > 1) out += ",";
    out += json_string(std::string(r.engine) + "." + r.trace) + ":" +
           std::to_string(r.report.makespan);
  }
  return out + "}";
}

/// Sim-layer metrics: nexus++ and software-rts on the paper's gaussian and
/// h264 traces at 64 simulated workers, each engine run alone on this
/// thread.
void sim_panel(Bench& b) {
  const ScopedSpan span(b.spans, "sim.panel");
  const SimSet set = make_sim_set(b.args.seed, b.args.quick);
  check_serials(b, set.gaussian);
  check_serials(b, set.h264);
  const auto reference = run_sim(set, b.spans);
  for (const auto& r : reference) {
    b.ledger.check(!r.report.deadlocked &&
                       r.report.tasks_completed == r.report.tasks_expected,
                   std::string("sim ") + r.engine + "/" + r.trace + " incomplete");
  }
  b.notes.push_back("\"makespans_ns\":" + makespans_json(reference));
  for (std::size_t rep = 0; rep < kMinReps; ++rep) {
    record_sim_rep(b, run_sim(set, b.spans), reference);
  }
}

struct StencilPass {
  double tasks_per_s = 0.0;
  std::vector<double> submit_ns;
  double drain_ms = 0.0;
};

/// How a stencil pass is observed. A traced pass times every submit; only
/// one pass per run also records each submit as a span, which keeps the
/// span file small.
enum class PassMode { kTimed, kTraced, kTracedWithSpans };

/// One stencil pass on `rt`; checks the final buffer against `reference`
/// (after flipping one bit of it when `corrupt` is set).
StencilPass stencil_pass(Bench& b, const Stencil& st, StencilBuffers& bufs,
                         ns::starss::Runtime& rt, std::uint64_t reference,
                         PassMode mode, bool corrupt = false) {
  const bool traced = mode != PassMode::kTimed;
  StencilPass out;
  bufs.reset();
  SubmitTimes times;
  const std::int64_t span = traced ? b.spans.begin("runtime.traced_run") : -1;
  const std::int64_t t0 = mono_ns();
  submit_stencil(st, bufs, rt, traced ? &times : nullptr);
  const std::int64_t t1 = mono_ns();
  rt.wait_all();
  const std::int64_t t2 = mono_ns();
  out.tasks_per_s = static_cast<double>(st.tasks()) * 1e9 /
                    static_cast<double>(t2 - t0);
  if (traced) {
    out.drain_ms = static_cast<double>(t2 - t1) * 1e-6;
    out.submit_ns.reserve(times.start_ns.size());
    for (std::size_t i = 0; i < times.start_ns.size(); ++i) {
      out.submit_ns.push_back(
          static_cast<double>(times.end_ns[i] - times.start_ns[i]));
      if (mode == PassMode::kTracedWithSpans) {
        b.spans.add_closed("runtime.submit", times.start_ns[i],
                           times.end_ns[i], span, i, 0);
      }
    }
    b.spans.add_closed("runtime.wait_all", t1, t2, span, kNoSerial, 0);
    b.spans.end(span);
  }
  std::vector<std::uint64_t> result = bufs.result(st);
  if (corrupt) result[result.size() / 2] ^= 1ull << 17;
  b.ledger.check(checksum(result) == reference,
                 "closures checksum differs from the serial execution");
  return out;
}

void add_runtime_metrics(Bench& b, const std::vector<StencilPass>& passes) {
  for (const auto& p : passes) {
    b.metrics.add("runtime.submit_ns", "ns", median(p.submit_ns));
    b.metrics.add("runtime.drain_ms", "ms", p.drain_ms);
  }
}

/// Runtime-layer metrics for workloads other than closures.
void runtime_panel(Bench& b) {
  const ScopedSpan span(b.spans, "runtime.panel");
  const Stencil st = make_stencil(1024, b.args.quick ? 4 : 16, b.args.seed);
  StencilBuffers bufs(st.cells);
  ns::starss::Runtime rt(b.workers);
  const std::uint64_t reference = serial_checksum(st);
  add_runtime_metrics(
      b, {stencil_pass(b, st, bufs, rt, reference, PassMode::kTracedWithSpans)});
}

// --- Workloads ---------------------------------------------------------------

Records make_exec_trace(const Args& a) {
  if (a.workload == "wavefront") {
    return ns::workloads::WorkloadLibrary::builtins().make_trace(
        std::string(a.quick ? "h264:rows=40,cols=24,seed=" : "h264:rows=240,cols=136,seed=") +
        std::to_string(a.seed));
  }
  ns::workloads::RandomDagConfig cfg;
  cfg.num_tasks = a.quick ? 4'000 : 50'000;
  cfg.addr_space = 96;
  cfg.max_params = 4;
  cfg.write_prob = 0.35;
  cfg.timing.mean_exec_ns = 250.0;
  cfg.timing.mean_mem_ns = 100.0;
  cfg.seed = a.seed;
  return ns::workloads::make_random_dag_trace(cfg);
}

/// Pins the calling thread to each allowed CPU in turn. The one-thread
/// baseline runs inline on this thread, which the scheduler keeps on one
/// CPU for long stretches; on a virtual machine whose CPUs run at different
/// speeds a run's median would then be the speed of whichever CPU it got.
/// Pinning each rep to the next CPU gives every CPU the same share of reps.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
    }
  }

  /// Runs `f` pinned to the next CPU, then restores the full set (threads
  /// started later inherit it).
  template <class F>
  void on_next(F&& f) {
    if (cpus_.empty()) return f();
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof one, &one);
    f();
    (void)sched_setaffinity(0, sizeof all_, &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// wavefront / fine-dag: exec-threads at nproc-1 workers and at 1 thread.
void run_exec_workload(Bench& b) {
  struct Setup {
    Records records;
    std::unique_ptr<ns::engine::Engine> multi;
    std::unique_ptr<ns::engine::Engine> single;
  };
  const auto& registry = ns::engine::EngineRegistry::builtins();
  const std::int64_t c0 = mono_ns();
  (void)ns::exec::spin_iters_per_us();  // the spin kernels' calibration
  const double calibration_s = seconds_since(c0);
  SetupTimer setup([&] {
    Setup out;
    const std::int64_t t0 = mono_ns();
    out.records = make_exec_trace(b.args);
    b.metrics.add("workloads.gen_ns_per_task", "ns",
                  static_cast<double>(mono_ns() - t0) /
                      static_cast<double>(out.records->size()));
    out.multi = registry.make("exec-threads", exec_params(b.workers));
    out.single = registry.make("exec-threads", exec_params(1));
    return out;
  }, calibration_s);
  const Setup s = setup.initial();
  check_serials(b, s.records);

  std::vector<RunReport> reports_multi;
  std::vector<RunReport> reports_single;
  std::string error;
  const auto rep = [&](const ns::engine::Engine& engine,
                       std::vector<RunReport>& reports) -> std::optional<double> {
    ExecRep r = run_exec(engine, s.records, error);
    if (!b.ledger.check(error.empty(), error)) return std::nullopt;
    if (b.args.trace) reports.push_back(std::move(r.report));
    return r.tasks_per_s;
  };
  std::vector<RunReport> warm_up;
  (void)rep(*s.multi, warm_up);
  (void)rep(*s.single, warm_up);
  CpuRotation rotation;
  const TimedReps reps = balanced_reps(
      b, [&] { return rep(*s.multi, reports_multi); },
      [&] {
        std::optional<double> tps;
        rotation.on_next([&] { tps = rep(*s.single, reports_single); });
        return tps;
      },
      [&](double reps_s) { setup.between_reps(reps_s); });
  setup.report(b);
  add_rep_metrics(b, reps);
  b.notes.push_back("\"tasks\":" + std::to_string(s.records->size()));

  if (!b.args.trace) return;
  add_exec_report_metrics(b.metrics, reports_multi, reports_single,
                          count_accesses(s.records));
  exec_traced_panel(b, s.records, kTracedPasses, median(reps.multi.reported()));
  replay_panel(b, s.records);
  sim_panel(b);
  runtime_panel(b);
}

/// closures: the double-buffered stencil on starss::Runtime(nproc-1) and
/// Runtime(1).
void run_closures(Bench& b) {
  const std::uint32_t cells = b.args.quick ? 128 : 1024;
  const std::uint32_t steps = b.args.quick ? 8 : 64;
  struct Setup {
    Stencil st;
    std::unique_ptr<StencilBuffers> bufs;
    std::unique_ptr<ns::starss::Runtime> multi;
    std::unique_ptr<ns::starss::Runtime> single;
  };
  SetupTimer setup([&] {
    Setup out;
    const std::int64_t t0 = mono_ns();
    out.st = make_stencil(cells, steps, b.args.seed);
    out.bufs = std::make_unique<StencilBuffers>(cells);
    b.metrics.add("workloads.gen_ns_per_task", "ns",
                  static_cast<double>(mono_ns() - t0) /
                      static_cast<double>(out.st.tasks()));
    out.multi = std::make_unique<ns::starss::Runtime>(b.workers);
    out.single = std::make_unique<ns::starss::Runtime>(1);
    return out;
  }, 0.0);  // no one-time calibration
  const Setup s = setup.initial();
  const std::uint64_t reference = serial_checksum(s.st);

  bool corrupt = b.args.corrupt == "checksum";
  const auto rep = [&](ns::starss::Runtime& rt) -> std::optional<double> {
    const StencilPass p =
        stencil_pass(b, s.st, *s.bufs, rt, reference, PassMode::kTimed, corrupt);
    corrupt = false;
    return p.tasks_per_s;
  };
  (void)rep(*s.multi);  // warm-up
  (void)rep(*s.single);
  const TimedReps reps = balanced_reps(
      b, [&] { return rep(*s.multi); }, [&] { return rep(*s.single); },
      [&](double reps_s) { setup.between_reps(reps_s); });
  setup.report(b);
  add_rep_metrics(b, reps);
  b.notes.push_back("\"tasks\":" + std::to_string(s.st.tasks()));

  if (!b.args.trace) return;
  std::vector<StencilPass> traced;
  for (int pass = 0; pass < kTracedPasses; ++pass) {
    traced.push_back(stencil_pass(
        b, s.st, *s.bufs, *s.multi, reference,
        pass == 0 ? PassMode::kTracedWithSpans : PassMode::kTraced));
  }
  add_runtime_metrics(b, traced);
  std::vector<double> traced_tps;
  for (const auto& p : traced) traced_tps.push_back(p.tasks_per_s);
  b.metrics.add("obs.overhead_frac", "frac",
                median(reps.multi.reported()) / median(traced_tps) - 1.0);
  const Records records = stencil_records(s.st, kStencilExecNs);
  exec_panel(b, records);
  replay_panel(b, records);
  sim_panel(b);
}

// --- Host facts and output ---------------------------------------------------

std::uint32_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::uint32_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "wavefront|fine-dag|closures --seed N --seconds S --trace 0|1 "
               "[--quick] [--spans FILE] [--corrupt order|checksum]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      a.quick = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") a.workload = value;
      else if (flag == "--seed") a.seed = std::stoull(value);
      else if (flag == "--seconds") a.seconds = std::stod(value);
      else if (flag == "--trace") a.trace = std::stoi(value) != 0;
      else if (flag == "--spans") a.spans_path = value;
      else if (flag == "--corrupt") a.corrupt = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload != "wavefront" && a.workload != "fine-dag" &&
      a.workload != "closures") {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (!a.corrupt.empty() && a.corrupt != "order" && a.corrupt != "checksum") {
    usage("--corrupt takes order or checksum");
  }
  return a;
}

int run(int argc, char** argv) {
  Bench b(parse_args(argc, argv));
  b.nproc = host_cpus();
  b.workers = std::max(1u, b.nproc - 1);
  std::fprintf(stderr, "perfbench: %s seed=%llu seconds=%g trace=%d workers=%u\n",
               b.args.workload.c_str(), static_cast<unsigned long long>(b.args.seed),
               b.args.seconds, b.args.trace ? 1 : 0, b.workers);
  {
    const ScopedSpan span(b.spans, "perfbench.workload");
    if (b.args.workload == "closures") run_closures(b);
    else run_exec_workload(b);
  }
  b.metrics.add("peak_rss_mb", "MiB", peak_rss_mib());
  if (b.args.trace && !b.args.spans_path.empty()) {
    b.ledger.check(b.spans.write(b.args.spans_path, "perfbench " + b.args.workload),
                   "cannot write " + b.args.spans_path);
  }

  std::string failures = "[";
  for (const auto& f : b.ledger.failures) {
    if (failures.size() > 1) failures += ",";
    failures += json_string(f);
  }
  failures += "]";
  std::string notes;
  for (const auto& n : b.notes) notes += (notes.empty() ? "" : ",") + n;
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"seconds\":%s,"
      "\"meta\":{\"nproc\":%u,\"workers\":%u,\"cpu_model\":%s,"
      "\"compiler\":%s,\"build_type\":%s,\"reps\":%s},"
      "\"notes\":{%s},\"spans\":{\"path\":%s,\"count\":%zu,\"dropped\":%llu},"
      "\"attempted\":%llu,\"failed\":%llu,\"failures\":%s,\"metrics\":%s}\n",
      json_string(b.args.workload).c_str(),
      static_cast<unsigned long long>(b.args.seed), b.args.trace ? 1 : 0,
      json_number(b.args.seconds).c_str(), b.nproc, b.workers,
      json_string(cpu_model()).c_str(), json_string(__VERSION__).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), b.reps.empty() ? "{}" : b.reps.c_str(),
      notes.c_str(), json_string(b.args.spans_path).c_str(), b.spans.size(),
      static_cast<unsigned long long>(b.spans.dropped()),
      static_cast<unsigned long long>(b.ledger.attempted),
      static_cast<unsigned long long>(b.ledger.failed), failures.c_str(),
      b.metrics.to_json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
