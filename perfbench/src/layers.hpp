#pragma once
// Calls into each layer of the program, timed from outside: exec-threads
// runs (plain and traced), serial replays through exec::ShardedResolver,
// core::Resolver and core::GraphOracle, and simulated engine runs.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/run_report.hpp"
#include "trace/trace.hpp"

namespace perfbench {

class MetricSet;
class SpanRecorder;

using Records = std::shared_ptr<const std::vector<nexuspp::trace::TaskRecord>>;

/// exec-threads knobs for a pool of `threads` workers (1 = inline loop).
[[nodiscard]] nexuspp::engine::EngineParams exec_params(std::uint32_t threads);

struct ExecRep {
  nexuspp::engine::RunReport report;
  double tasks_per_s = 0.0;  ///< completed tasks / wall seconds of run()
};

/// One untraced run of `engine` over `records`. `error` is empty when every
/// task completed without a deadlock.
[[nodiscard]] ExecRep run_exec(const nexuspp::engine::Engine& engine,
                               const Records& records, std::string& error);

/// Per-layer metrics read from exec RunReports: `multi` are reps at the
/// worker count, `single` are 1-thread reps (deterministic schedule).
void add_exec_report_metrics(MetricSet& m,
                             const std::vector<nexuspp::engine::RunReport>& multi,
                             const std::vector<nexuspp::engine::RunReport>& single,
                             std::uint64_t accesses);

struct TracedExec {
  double tasks_per_s = 0.0;
  double kernel_overrun_frac = 0.0;
  std::vector<double> gap_ns;             ///< per worker: completed -> next start
  std::vector<double> ready_to_start_ns;  ///< timeline ready -> run
  std::string error;                      ///< run or completion-order failure
};

/// exec-threads run with the benchmark's observer and the exec timeline
/// attached; validates the completion order with GraphOracle. With
/// `corrupt_order`, two dependent tasks are swapped in the recorded order
/// first (the validation must then fail). `kernel_spans` adds one span per
/// task on its worker's track.
[[nodiscard]] TracedExec run_traced_exec(const Records& records,
                                         std::uint32_t workers,
                                         SpanRecorder& spans,
                                         bool corrupt_order, bool kernel_spans);

struct Replay {
  double exec_submit_ns = 0.0;  ///< begin_submit + advance, per task
  double exec_finish_ns = 0.0;  ///< ShardedResolver::finish, per task
  double core_pair_ns = 0.0;    ///< core::Resolver, per task-parameter pair
  double oracle_pair_ns = 0.0;  ///< core::GraphOracle, per pair
  double probes_per_lookup = 0.0;
  std::string error;
};

/// Serial replays on the benchmark thread: tasks are submitted in order in
/// batches and ready tasks are finished FIFO after each batch.
[[nodiscard]] Replay run_replays(const Records& records, SpanRecorder& spans);

/// The paper's two traces on the two simulated engines (64 workers).
struct SimSet {
  std::unique_ptr<nexuspp::engine::Engine> nexus;
  std::unique_ptr<nexuspp::engine::Engine> rts;
  Records gaussian;
  Records h264;
};

/// Builds the traces (gaussian has no seed; h264 timing draws use `seed`)
/// and the engines.
[[nodiscard]] SimSet make_sim_set(std::uint64_t seed, bool quick);

struct SimRun {
  const char* engine;  ///< "nexus" or "rts"
  const char* trace;   ///< "gaussian" or "h264"
  nexuspp::engine::RunReport report;
  double host_s = 0.0;
};

/// One rep: every engine on every trace, one at a time on this thread.
[[nodiscard]] std::vector<SimRun> run_sim(const SimSet& set, SpanRecorder& spans);

/// Sum of parameter counts over `records`.
[[nodiscard]] std::uint64_t count_accesses(const Records& records);

}  // namespace perfbench
