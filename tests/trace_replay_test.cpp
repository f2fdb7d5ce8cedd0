// The capture/replay pipeline's core guarantee: capture a run's stream,
// serialize it (text and binary), read it back, replay it through the
// same engine and configuration — and the replayed RunReport compares
// equal field for field with the original run's, for every registered
// engine in both match modes. Also pins the capture side (the recorded
// stream is exactly the generator's output) and the sweep driver's
// trace-file workloads.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "engine/capture.hpp"
#include "engine/sweep.hpp"
#include "trace/capture.hpp"
#include "trace/io.hpp"
#include "workloads/factorization.hpp"
#include "workloads/library.hpp"
#include "workloads/spatial.hpp"

namespace nexuspp {
namespace {

/// Small but structurally rich: factorization fan-out plus an irregular
/// sparse stream appended via separate specs where needed.
constexpr const char* kWorkload = "tiled-cholesky:tiles=4,tile-elems=16";

engine::EngineParams test_params(core::MatchMode mode) {
  engine::EngineParams params;
  params.num_workers = 4;
  params.match_mode = mode;
  return params;
}

/// Bit-identity only holds for engines whose reports are deterministic
/// functions of (config, stream) — the simulated models. The real
/// exec-threads backend reports wall-clock measurements and is covered by
/// exec_executor_test's oracle-validated ordering instead.
std::vector<std::string> deterministic_engine_names() {
  std::vector<std::string> names;
  const auto& registry = engine::EngineRegistry::builtins();
  for (const auto& name : registry.names()) {
    if (registry.make(name, {})->deterministic_report()) {
      names.push_back(name);
    }
  }
  return names;
}

class TraceReplayAllEngines
    : public ::testing::TestWithParam<std::tuple<std::string, core::MatchMode>> {
};

TEST_P(TraceReplayAllEngines, RoundTripReplayIsBitIdentical) {
  const auto& [engine_name, mode] = GetParam();
  const auto& registry = engine::EngineRegistry::builtins();
  const auto& library = workloads::WorkloadLibrary::builtins();
  const auto params = test_params(mode);

  const auto eng = registry.make(engine_name, params);
  const auto captured = engine::run_captured(
      *eng, library.make_stream(kWorkload), &params, kWorkload);

  // The capture consumed the full stream and completed.
  ASSERT_FALSE(captured.report.deadlocked) << captured.report.diagnosis;
  EXPECT_EQ(captured.trace.tasks.size(),
            workloads::cholesky_task_count(4));
  EXPECT_EQ(captured.trace.meta.get(trace::TraceMeta::kEngine), engine_name);

  // Text round trip -> replay.
  {
    std::stringstream ss;
    trace::write_text(ss, captured.trace);
    const auto back = trace::read_text_trace(ss);
    EXPECT_EQ(back, captured.trace);
    const auto report = engine::replay(back, registry, engine_name, params);
    EXPECT_EQ(report, captured.report);
  }
  // Binary round trip -> replay.
  {
    std::stringstream ss;
    trace::write_binary(ss, captured.trace);
    const auto back = trace::read_binary_trace(ss);
    EXPECT_EQ(back, captured.trace);
    const auto report = engine::replay(back, registry, engine_name, params);
    EXPECT_EQ(report, captured.report);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEnginesBothModes, TraceReplayAllEngines,
    ::testing::Combine(
        ::testing::ValuesIn(deterministic_engine_names()),
        ::testing::Values(core::MatchMode::kBaseAddr,
                          core::MatchMode::kRange)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         core::to_string(std::get<1>(info.param));
      for (auto& c : name) {
        if (c == '+') c = 'p';
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(TraceCapture, StampsMachineReadableKnobsForReplay) {
  // The recorded workers/match-mode/banks are what lets a bare
  // `trace_tool replay` restore the capture configuration.
  const auto& registry = engine::EngineRegistry::builtins();
  const auto& library = workloads::WorkloadLibrary::builtins();
  engine::EngineParams params;
  params.num_workers = 8;
  params.match_mode = core::MatchMode::kRange;
  params.banks = 4;

  const auto eng = registry.make("nexus++", params);
  const auto captured = engine::run_captured(
      *eng, library.make_stream(kWorkload), &params, kWorkload);
  EXPECT_EQ(captured.trace.meta.get(trace::TraceMeta::kWorkers), "8");
  EXPECT_EQ(captured.trace.meta.get(trace::TraceMeta::kMatchMode), "range");
  EXPECT_EQ(captured.trace.meta.get(trace::TraceMeta::kBanks), "4");

  // Rebuilding params from those knobs replays bit-identically.
  engine::EngineParams rebuilt;
  rebuilt.num_workers = 8;
  rebuilt.match_mode = core::match_mode_from_string(
      *captured.trace.meta.get(trace::TraceMeta::kMatchMode));
  rebuilt.banks = 4;
  EXPECT_EQ(engine::replay(captured.trace, registry, "nexus++", rebuilt),
            captured.report);
}

TEST(TraceCapture, NullStreamThrows) {
  const auto& registry = engine::EngineRegistry::builtins();
  const auto eng = registry.make("nexus++", {});
  EXPECT_THROW((void)engine::run_captured(*eng, nullptr),
               std::invalid_argument);
}

TEST(TraceCapture, RecordsExactlyTheConsumedStream) {
  const auto& library = workloads::WorkloadLibrary::builtins();
  const auto direct = library.make_trace(kWorkload);

  auto sink = std::make_shared<std::vector<trace::TaskRecord>>();
  auto stream = trace::capture_into(library.make_stream(kWorkload), sink);
  while (stream->next().has_value()) {
  }
  EXPECT_EQ(*sink, *direct);
}

TEST(TraceCapture, CaptureStreamReportsInnerTotal) {
  const auto& library = workloads::WorkloadLibrary::builtins();
  auto sink = std::make_shared<std::vector<trace::TaskRecord>>();
  const auto stream =
      trace::capture_into(library.make_stream(kWorkload), sink);
  EXPECT_EQ(stream->total_tasks(), workloads::cholesky_task_count(4));
}

TEST(TraceReplay, ReplayOfIrregularSpatialStreamMatches) {
  // The irregular workload exercises variable param counts through the
  // serialization layer; range mode exercises the halo partial overlaps.
  const auto& registry = engine::EngineRegistry::builtins();
  const auto& library = workloads::WorkloadLibrary::builtins();
  const auto params = test_params(core::MatchMode::kRange);
  const std::string spec = "spatial:cells-x=8,cells-y=8,steps=2,halo-bytes=32";

  const auto eng = registry.make("nexus++", params);
  const auto captured =
      engine::run_captured(*eng, library.make_stream(spec), &params, spec);
  ASSERT_FALSE(captured.report.deadlocked);

  std::stringstream ss;
  trace::write_binary(ss, captured.trace);
  const auto back = trace::read_binary_trace(ss);
  EXPECT_EQ(engine::replay(back, registry, "nexus++", params),
            captured.report);
}

TEST(TraceReplay, SweepRunsOverTraceFiles) {
  const auto& library = workloads::WorkloadLibrary::builtins();
  const std::string path = "/tmp/nexuspp_replay_sweep_test.nxb";
  trace::Trace trace;
  trace.tasks = *library.make_trace("tiled-lu:tiles=3,tile-elems=8");
  trace::save(path, trace);

  engine::SweepSpec spec;
  spec.workload_from_trace("lu-from-file", path);
  engine::EngineParams params;
  params.num_workers = 4;
  spec.grid({"nexus++", "software-rts"}, {"lu-from-file"}, {params});

  const auto results = engine::run_sweep(spec);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_FALSE(r.report.deadlocked) << r.report.diagnosis;
    EXPECT_EQ(r.report.tasks_completed, workloads::lu_task_count(3));
  }
  std::remove(path.c_str());
}

TEST(TraceReplay, UnknownWorkloadFromTraceThrows) {
  engine::SweepSpec spec;
  EXPECT_THROW(spec.workload_from_trace("x", "/nonexistent/file.nxt"),
               trace::TraceIoError);
}

TEST(TraceReplay, ReplayHonoursDifferentParamsThanCapture) {
  // Replay is not tied to the capture configuration: the same trace file
  // replayed with different worker counts gives different (but internally
  // complete) runs.
  const auto& registry = engine::EngineRegistry::builtins();
  const auto& library = workloads::WorkloadLibrary::builtins();
  const auto params4 = test_params(core::MatchMode::kBaseAddr);
  auto params1 = params4;
  params1.num_workers = 1;

  const auto eng = registry.make("nexus++", params4);
  const auto captured = engine::run_captured(
      *eng, library.make_stream(kWorkload), &params4, kWorkload);

  const auto narrow =
      engine::replay(captured.trace, registry, "nexus++", params1);
  EXPECT_FALSE(narrow.deadlocked);
  EXPECT_EQ(narrow.tasks_completed, captured.report.tasks_completed);
  EXPECT_GT(narrow.makespan, captured.report.makespan);
}

}  // namespace
}  // namespace nexuspp
