// Application-shaped workloads, evaluated trace-driven: generate the four
// application task streams (H.264 wavefront decode, tiled Cholesky, tiled
// LU, sparse spatial decomposition), save each as a standard trace *file*,
// and sweep the engines over the files — the full capture/replay pipeline
// (trace_tool capture -> design_space --trace) as a bench, and the
// scenario-diversity axis the trace-driven StarSs literature (CppSs,
// Niethammer et al.) evaluates on instead of micro-patterns.
//
// Grid: {nexus++, software-rts} x four trace files, 16 workers, baseline
// per series = software-rts. Read off the table how the hardware task
// manager's advantage shifts with application shape: factorization DAGs
// have wide trailing-matrix fan-out (plenty of ready tasks), the wavefront
// ramps, the sparse stream serializes along dense clusters.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "trace/io.hpp"
#include "workloads/library.hpp"

namespace nexuspp {
namespace {

int run() {
  const auto& library = workloads::WorkloadLibrary::builtins();

  // (name, library spec) — sized to seconds in default mode. Factorization
  // tiles are small (16x16 elements, ~4 us GEMMs) so dependency-resolution
  // throughput, not kernel time, shapes the comparison.
  const std::vector<std::pair<std::string, std::string>> apps = {
      {"wavefront-decode",
       bench::full_mode() ? "h264" : "h264:rows=60,cols=34"},
      {"tiled-cholesky", bench::full_mode()
                             ? "tiled-cholesky:tiles=24,tile-elems=16"
                             : "tiled-cholesky:tiles=12,tile-elems=16"},
      {"tiled-lu", bench::full_mode() ? "tiled-lu:tiles=20,tile-elems=16"
                                      : "tiled-lu:tiles=10,tile-elems=16"},
      {"spatial", bench::full_mode() ? "spatial:cells-x=32,cells-y=32"
                                     : "spatial"},
  };

  // Emit each workload as a binary trace file, then sweep over the files:
  // from here on the engines only ever see what was (re)loaded from disk.
  // The directory is per-process so concurrent invocations (dev run vs
  // CI on a shared machine) never clobber each other's files.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("nexuspp_bench_app_traces." +
                    std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  engine::SweepSpec spec;
  std::vector<std::string> names;
  for (const auto& [name, wl_spec] : apps) {
    const auto path = (dir / (name + ".nxb")).string();
    trace::Trace trace;
    trace.tasks = *library.make_trace(wl_spec);
    trace.meta.set(trace::TraceMeta::kWorkload, wl_spec);
    trace.meta.set(trace::TraceMeta::kCapturedBy, "bench_app_traces");
    trace::save(path, trace);
    spec.workload_from_trace(name, path);
    names.push_back(name);
    bench::note("trace " + name + ": " +
                std::to_string(trace.tasks.size()) + " tasks -> " + path +
                "\n");
  }

  // One speedup series per workload, software-rts as the reference.
  engine::EngineParams params;
  params.num_workers = 16;
  for (const auto& name : names) {
    for (const std::string engine : {"software-rts", "nexus++"}) {
      engine::PointSpec p;
      p.engine = engine;
      p.workload = name;
      p.params = params;
      p.series = name;
      p.baseline = engine == "software-rts";
      p.label = engine;
      spec.point(std::move(p));
    }
  }

  const auto results = bench::run_sweep(spec);

  bench::emit("Application-shaped workloads from trace files "
              "(speedup vs software-rts, 16 workers)",
              results,
              {{"workload",
                [](const engine::SweepResult& r) { return r.spec.workload; }},
               {"tasks",
                [](const engine::SweepResult& r) {
                  return util::fmt_count(r.report.tasks_completed);
                }}});

  bench::note(
      "Expected shape: the hardware engines beat software-rts most where "
      "ready tasks are plentiful (factorization trailing-matrix updates, "
      "post-ramp wavefront) and least where the graph itself serializes "
      "(sparse clusters). All rows must complete their full task count — "
      "these streams came off trace files, so any loss would be a "
      "capture/replay defect, not a generator artifact.\n");

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // best-effort cleanup
  return 0;
}

}  // namespace
}  // namespace nexuspp

int main() { return nexuspp::run(); }
