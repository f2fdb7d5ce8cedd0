#pragma once
// The closures workload: a double-buffered stencil over integer cells run
// as real closures on starss::Runtime. Step t reads buffer t%2 and writes
// buffer (t+1)%2; the task for cell i reads i and two neighbours drawn from
// the seed, and writes cell i of the other buffer. Every order the declared
// accesses allow yields the same final buffer, so a serial run of the same
// closures is the reference.

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/runtime.hpp"
#include "trace/trace.hpp"

namespace perfbench {

class SpanRecorder;

struct Stencil {
  std::uint32_t cells = 0;
  std::uint32_t steps = 0;
  std::vector<std::uint32_t> neighbours;  ///< two per cell, never the cell

  [[nodiscard]] std::uint64_t tasks() const noexcept {
    return static_cast<std::uint64_t>(cells) * steps;
  }
};

/// Neighbours are drawn within +-8 cells (wrapping), distinct from the cell
/// and from each other.
[[nodiscard]] Stencil make_stencil(std::uint32_t cells, std::uint32_t steps,
                                   std::uint64_t seed);

/// Both buffers, reset to the fixed initial state.
struct StencilBuffers {
  std::vector<std::uint64_t> buf[2];

  explicit StencilBuffers(std::uint32_t cells);
  void reset();
  [[nodiscard]] const std::vector<std::uint64_t>& result(
      const Stencil& s) const noexcept {
    return buf[s.steps % 2];
  }
};

/// Per-submit timing of a traced pass (mono_ns stamps, one per task).
struct SubmitTimes {
  std::vector<std::int64_t> start_ns;
  std::vector<std::int64_t> end_ns;
};

/// Submits every task to `rt` (the caller waits). With `times`, each
/// Runtime::submit call is stamped (the traced pass).
void submit_stencil(const Stencil& s, StencilBuffers& bufs,
                    nexuspp::starss::Runtime& rt, SubmitTimes* times);

/// The same closures called in submission order on this thread.
[[nodiscard]] std::uint64_t serial_checksum(const Stencil& s);

[[nodiscard]] std::uint64_t checksum(const std::vector<std::uint64_t>& cells);

/// The stencil's task graph as trace records (one address per cell and
/// buffer), so the exec and core layers can run the same dependences.
[[nodiscard]] std::shared_ptr<const std::vector<nexuspp::trace::TaskRecord>>
stencil_records(const Stencil& s, std::uint64_t exec_ns);

}  // namespace perfbench
