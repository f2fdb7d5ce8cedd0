#pragma once
// Shared plumbing of the perfbench program: monotonic time, named metric
// samples, and the attempted/failed operation ledger.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock since its epoch). One clock for
/// every stamp the benchmark takes, so spans and observer slots line up.
[[nodiscard]] inline std::int64_t mono_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(std::int64_t start_ns) noexcept {
  return static_cast<double>(mono_ns() - start_ns) * 1e-9;
}

/// CPU time the host took from this virtual machine so far (the steal
/// column of /proc/stat), in clock ticks; 0 where it is not reported.
[[nodiscard]] std::uint64_t stolen_ticks();

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples; 0 when
/// empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// Named metrics, each a list of samples reported as one quantile of them
/// (the median unless the metric asks for another), quartiles and sample
/// count. Insertion order is kept for printing.
class MetricSet {
 public:
  void add(const std::string& name, const std::string& unit, double value);
  /// `at` is the quantile reported as the metric's value.
  void add_all(const std::string& name, const std::string& unit,
               const std::vector<double>& values, double at = 0.5);
  /// One JSON object:
  /// {"name": {"value", "unit", "at", "q1", "q3", "n"}, ...}.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    std::vector<double> samples;
    double at = 0.5;
  };
  Entry& entry(const std::string& name, const std::string& unit);
  std::vector<Entry> entries_;
};

/// Every rep and every correctness check is one attempted operation; a
/// failed rep or check is one failed operation.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions

  /// Counts one operation; returns `ok`.
  bool check(bool ok, const std::string& what);
};

/// Shortest round-trip decimal form of `v` (JSON-safe: non-finite -> 0).
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);

}  // namespace perfbench
