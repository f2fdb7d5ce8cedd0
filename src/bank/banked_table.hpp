#pragma once
// BankedTable: N independent core::DependenceTable banks behind one
// home-region address partition (bank::BankPartition).
//
// The total entry budget is split evenly: each bank owns
// ceil(capacity / banks) slots and its own hash buckets, free list and
// (range mode) interval index. Banks never share state, which is what lets
// the timed layer resolve parameters on different banks in the same cycle —
// and what makes *load imbalance* a real failure mode: one hot bank can
// run out of slots while its siblings sit empty. The per-bank statistics
// exposed here (live highwater, insert failures) feed the imbalance
// telemetry in the bank-scaling reports.
//
// With banks == 1 the single bank is configured exactly like the monolithic
// table (same capacity, same kick-off bound, same match mode), so every
// lookup walks identical hash chains and returns identical Cost receipts —
// the base of nexus::NexusSystem reproducing the paper's monolithic table
// at banks=1.

#include <cstdint>
#include <vector>

#include "bank/partition.hpp"
#include "core/dependence_table.hpp"

namespace nexuspp::bank {

struct BankedTableConfig {
  /// Aggregate table shape; `table.capacity` is the *total* entry budget
  /// split across banks.
  core::DependenceTableConfig table{};
  BankPartition partition{};

  void validate() const;

  /// Entry slots per bank: ceil(capacity / banks).
  [[nodiscard]] std::uint32_t per_bank_capacity() const noexcept {
    return (table.capacity + partition.banks - 1) / partition.banks;
  }
};

class BankedTable {
 public:
  explicit BankedTable(BankedTableConfig config);

  [[nodiscard]] std::uint32_t bank_count() const noexcept {
    return config_.partition.banks;
  }
  [[nodiscard]] const BankPartition& partition() const noexcept {
    return config_.partition;
  }
  [[nodiscard]] core::MatchMode match_mode() const noexcept {
    return config_.table.match_mode;
  }

  [[nodiscard]] core::DependenceTable& bank(std::uint32_t b) {
    return banks_.at(b);
  }
  [[nodiscard]] const core::DependenceTable& bank(std::uint32_t b) const {
    return banks_.at(b);
  }

  /// Live entries summed over all banks.
  [[nodiscard]] std::uint32_t live_slot_count() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return live_slot_count() == 0; }

  /// Element-wise sum (counters) / max (extrema) of the per-bank stats.
  [[nodiscard]] core::DependenceTable::Stats aggregated_stats() const;

  /// Max over banks of the per-bank live-slot highwater mark.
  [[nodiscard]] std::uint32_t peak_bank_live() const noexcept;

  /// Occupancy imbalance: max over banks of the live highwater divided by
  /// the mean over banks (1.0 = perfectly even; 0 when nothing was ever
  /// stored). The bank-scaling bench reports this next to conflict stalls.
  [[nodiscard]] double occupancy_imbalance() const noexcept;

 private:
  BankedTableConfig config_;
  std::vector<core::DependenceTable> banks_;
};

}  // namespace nexuspp::bank
