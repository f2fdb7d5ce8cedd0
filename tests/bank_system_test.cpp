// System- and engine-level tests for the banked Dependence Table of
// nexus::NexusSystem (the `banks` knob of nexus++ and classic-nexus).
//
// The headline correctness obligations from the bank/ subsystem design:
//   1. Every bank count in {1, 2, 4, 8, 16} completes randomized workloads
//      (>= 8 seeds) with the full task count — the timed system preserves
//      the oracle-verified completion semantics of bank::BankedResolver
//      (tests/bank_resolution_test.cpp proves the untimed equivalence; this
//      layer proves the arbiter timing never wedges the pipeline).
//   2. Banking actually relieves the resolution bottleneck: conflict wait
//      falls as banks grow, and the telemetry columns are populated.
//   3. The engines honour `banks=`: the reported bank count and per-bank
//      columns follow the requested count on both Nexus presets.
// That banks=1 reproduces the paper's monolithic table number for number
// is pinned by the golden bench fixtures (tests/golden/, ctest
// bench_golden).

#include <gtest/gtest.h>

#include <string>

#include "engine/sweep.hpp"
#include "nexus/system.hpp"
#include "workloads/grid.hpp"
#include "workloads/overlap.hpp"
#include "workloads/random_dag.hpp"

namespace nexuspp {
namespace {

engine::RunReport run_engine(const std::string& name,
                             const engine::StreamFactory& factory,
                             engine::EngineParams params) {
  const auto eng = engine::EngineRegistry::builtins().make(name, params);
  return eng->run(factory());
}

// --- Completion semantics across all bank counts ------------------------------

class BankCountCompletion : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BankCountCompletion, RandomizedStreamsCompleteOverEightSeeds) {
  const std::uint32_t banks = GetParam();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const auto mode :
         {core::MatchMode::kBaseAddr, core::MatchMode::kRange}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " mode " +
                   core::to_string(mode));
      workloads::RandomDagConfig cfg;
      cfg.num_tasks = 200;
      cfg.addr_space = 16;
      cfg.seed = seed;
      const auto tasks = make_random_dag_trace(cfg);
      engine::EngineParams params;
      params.num_workers = 8;
      params.match_mode = mode;
      params.banks = banks;
      const auto r = run_engine(
          "nexus++",
          [tasks] { return std::make_unique<trace::VectorStream>(tasks); },
          params);
      EXPECT_FALSE(r.deadlocked) << r.diagnosis;
      EXPECT_EQ(r.tasks_completed, r.tasks_expected);
      EXPECT_EQ(r.banks, banks);
      EXPECT_EQ(r.per_bank_max_live.size(), banks);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBankCounts, BankCountCompletion,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u),
                         [](const auto& info) {
                           return "banks" + std::to_string(info.param);
                         });

// --- Banking relieves the resolution bottleneck -------------------------------

TEST(BankScaling, ConflictWaitFallsAsBanksGrow) {
  workloads::HaloStencilConfig halo;
  halo.blocks = 48;
  halo.steps = 8;
  const auto tasks = make_halo_stencil_trace(halo);
  const engine::StreamFactory factory = [tasks] {
    return std::make_unique<trace::VectorStream>(tasks);
  };

  engine::EngineParams params;
  params.num_workers = 16;
  params.match_mode = core::MatchMode::kRange;

  engine::EngineParams one = params;
  one.banks = 1;
  engine::EngineParams sixteen = params;
  sixteen.banks = 16;
  const auto r1 = run_engine("nexus++", factory, one);
  const auto r16 = run_engine("nexus++", factory, sixteen);
  ASSERT_FALSE(r1.deadlocked) << r1.diagnosis;
  ASSERT_FALSE(r16.deadlocked) << r16.diagnosis;

  EXPECT_GT(r1.bank_conflict_wait, 0);
  EXPECT_LT(r16.bank_conflict_wait, r1.bank_conflict_wait);
  // Parallel resolution can only shorten Maestro rounds, never stretch them.
  EXPECT_LE(r16.stage("check-deps")->busy, r1.stage("check-deps")->busy);
  EXPECT_LE(r16.stage("handle-finished")->busy,
            r1.stage("handle-finished")->busy);
  // Telemetry is populated and sane.
  EXPECT_GT(r16.bank_busy_imbalance, 0.0);
  EXPECT_GT(r16.bank_occupancy_imbalance, 0.0);
  EXPECT_GE(r16.bank_peak_live, 1u);
}

TEST(BankScaling, DirectSystemReportCarriesPerBankTelemetry) {
  workloads::RandomDagConfig cfg;
  cfg.num_tasks = 150;
  nexus::NexusConfig ncfg;
  ncfg.num_workers = 4;
  ncfg.banks = 4;
  ncfg.dep_table.match_mode = core::MatchMode::kRange;
  const auto report =
      nexus::run_system(ncfg, workloads::make_random_dag_stream(cfg));
  EXPECT_EQ(report.banks, 4u);
  EXPECT_EQ(report.per_bank_max_live.size(), 4u);
  EXPECT_GT(report.bank_busy_imbalance, 0.0);
  EXPECT_GE(report.bank_peak_live, 1u);
  EXPECT_NE(report.to_table("banked").to_string().find("DT banks"),
            std::string::npos);
}

TEST(BankScaling, SweepGridCarriesBankColumns) {
  workloads::RandomDagConfig cfg;
  cfg.num_tasks = 80;
  const auto tasks = make_random_dag_trace(cfg);
  engine::SweepSpec spec;
  spec.workload("dag", [tasks] {
    return std::make_unique<trace::VectorStream>(tasks);
  });
  std::vector<engine::EngineParams> axis;
  for (const std::uint32_t b : {1u, 4u}) {
    engine::EngineParams p;
    p.num_workers = 4;
    p.banks = b;
    axis.push_back(p);
  }
  spec.grid({"nexus++", "classic-nexus"}, {"dag"}, axis);
  const auto results =
      engine::run_sweep(spec, engine::SweepOptions{.threads = 2});
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    SCOPED_TRACE(r.spec.engine + " " + r.spec.resolved_label());
    const std::uint32_t banks = r.spec.params.banks;
    EXPECT_EQ(r.spec.resolved_label(), "w=4 banks=" + std::to_string(banks));
    // The engine users name runs the requested bank count.
    EXPECT_EQ(r.report.banks, banks);
    EXPECT_EQ(r.report.per_bank_max_live.size(), banks);
  }

  std::ostringstream csv;
  engine::SweepDriver::write_csv(results, csv);
  EXPECT_NE(csv.str().find("bank_conflict_ns"), std::string::npos);
  EXPECT_NE(csv.str().find("bank_busy_imbalance"), std::string::npos);
  EXPECT_NE(csv.str().find("bank_max_live_per_bank"), std::string::npos);
}

}  // namespace
}  // namespace nexuspp
