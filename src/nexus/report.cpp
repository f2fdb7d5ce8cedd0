#include "nexus/report.hpp"

namespace nexuspp::nexus {

util::Table SystemReport::to_table(const std::string& title) const {
  util::Table t(title);
  t.header({"metric", "value"});
  t.row({"makespan", util::fmt_ns(sim::to_ns(makespan))});
  t.row({"tasks completed", util::fmt_count(tasks_completed) + " / " +
                                util::fmt_count(tasks_expected)});
  if (deadlocked) t.row({"DEADLOCK", diagnosis});
  const double mk = sim::to_ns(makespan);
  auto pct = [mk](sim::Time v) {
    return mk > 0.0 ? util::fmt_f(100.0 * sim::to_ns(v) / mk, 1) + "%"
                    : std::string("-");
  };
  t.row({"avg core utilization",
         util::fmt_f(100.0 * avg_core_utilization, 1) + "%"});
  t.row({"master active / stalled", pct(master_active) + " / " +
                                        pct(master_stall)});
  t.row({"Write TP busy / stalled",
         pct(write_tp_busy) + " / " + pct(write_tp_stall)});
  t.row({"Check Deps busy / stalled",
         pct(check_deps_busy) + " / " + pct(check_deps_stall)});
  t.row({"Schedule busy", pct(schedule_busy)});
  t.row({"Send TDs busy", pct(send_tds_busy)});
  t.row({"Handle Finished busy", pct(handle_finished_busy)});
  t.row({"TP max used / dummies",
         util::fmt_count(tp_stats.max_used_slots) + " / " +
             util::fmt_count(tp_stats.dummy_slots_allocated)});
  t.row({"DT max live / KO dummies / longest chain",
         util::fmt_count(dt_stats.max_live_slots) + " / " +
             util::fmt_count(dt_stats.ko_dummy_allocations) + " / " +
             util::fmt_count(dt_stats.longest_hash_chain)});
  t.row({"memory transfers / contention wait",
         util::fmt_count(mem_stats.transfers) + " / " +
             util::fmt_ns(sim::to_ns(mem_stats.contention_wait))});
  t.row({"hazards RAW/WAR/WAW",
         util::fmt_count(resolver_stats.raw_hazards) + " / " +
             util::fmt_count(resolver_stats.war_hazards) + " / " +
             util::fmt_count(resolver_stats.waw_hazards)});
  if (turnaround_ns.count() > 0) {
    t.row({"task turnaround mean / max",
           util::fmt_ns(turnaround_ns.mean()) + " / " +
               util::fmt_ns(turnaround_ns.max())});
  }
  if (banks > 1) {
    t.row({"DT banks / conflict wait",
           util::fmt_count(banks) + " / " +
               util::fmt_ns(sim::to_ns(bank_conflict_wait))});
    t.row({"bank busy / occupancy imbalance",
           util::fmt_f(bank_busy_imbalance, 2) + " / " +
               util::fmt_f(bank_occupancy_imbalance, 2)});
  }
  t.row({"ready queue peak", util::fmt_count(ready_queue_peak)});
  t.row({"sim events", util::fmt_count(sim_events)});
  return t;
}

}  // namespace nexuspp::nexus
