#include "stencil.hpp"

#include "common.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace ns = nexuspp;

namespace {

// A few multiply-xorshift rounds: tens of nanoseconds of real work.
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b,
                                std::uint64_t c) noexcept {
  std::uint64_t x = a * 0x9E3779B97F4A7C15ull + (b ^ (c << 1));
  for (int round = 0; round < 4; ++round) {
    x ^= x >> 31;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 29;
  }
  return x;
}

}  // namespace

Stencil make_stencil(std::uint32_t cells, std::uint32_t steps,
                     std::uint64_t seed) {
  Stencil s;
  s.cells = cells;
  s.steps = steps;
  s.neighbours.resize(2 * static_cast<std::size_t>(cells));
  ns::util::Rng rng(seed);
  const auto draw = [&](std::uint32_t cell, std::uint32_t avoid) {
    for (;;) {
      const auto offset = static_cast<std::int64_t>(rng.below(17)) - 8;
      const auto n = static_cast<std::uint32_t>(
          (static_cast<std::int64_t>(cell) + offset +
           static_cast<std::int64_t>(cells)) %
          static_cast<std::int64_t>(cells));
      if (n != cell && n != avoid) return n;
    }
  };
  for (std::uint32_t i = 0; i < cells; ++i) {
    s.neighbours[2 * i] = draw(i, i);
    s.neighbours[2 * i + 1] = draw(i, s.neighbours[2 * i]);
  }
  return s;
}

StencilBuffers::StencilBuffers(std::uint32_t cells) {
  buf[0].resize(cells);
  buf[1].resize(cells);
  reset();
}

void StencilBuffers::reset() {
  for (std::size_t i = 0; i < buf[0].size(); ++i) {
    buf[0][i] = i * 0x2545F4914F6CDD1Dull + 1;
    buf[1][i] = 0;
  }
}

void submit_stencil(const Stencil& s, StencilBuffers& bufs,
                    ns::starss::Runtime& rt, SubmitTimes* times) {
  namespace st = ns::starss;
  if (times != nullptr) {
    times->start_ns.assign(s.tasks(), 0);
    times->end_ns.assign(s.tasks(), 0);
  }
  std::size_t task = 0;
  for (std::uint32_t t = 0; t < s.steps; ++t) {
    const std::uint64_t* in = bufs.buf[t % 2].data();
    std::uint64_t* out = bufs.buf[(t + 1) % 2].data();
    for (std::uint32_t i = 0; i < s.cells; ++i, ++task) {
      const std::uint32_t n0 = s.neighbours[2 * i];
      const std::uint32_t n1 = s.neighbours[2 * i + 1];
      const std::int64_t t0 = times != nullptr ? mono_ns() : 0;
      rt.submit([in, out, i, n0, n1] { out[i] = mix(in[i], in[n0], in[n1]); },
                {st::in(in + i), st::in(in + n0), st::in(in + n1),
                 st::out(out + i)});
      if (times != nullptr) {
        times->start_ns[task] = t0;
        times->end_ns[task] = mono_ns();
      }
    }
  }
}

std::uint64_t serial_checksum(const Stencil& s) {
  StencilBuffers bufs(s.cells);
  for (std::uint32_t t = 0; t < s.steps; ++t) {
    const std::uint64_t* in = bufs.buf[t % 2].data();
    std::uint64_t* out = bufs.buf[(t + 1) % 2].data();
    for (std::uint32_t i = 0; i < s.cells; ++i) {
      out[i] = mix(in[i], in[s.neighbours[2 * i]], in[s.neighbours[2 * i + 1]]);
    }
  }
  return checksum(bufs.result(s));
}

std::uint64_t checksum(const std::vector<std::uint64_t>& cells) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const std::uint64_t c : cells) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

std::shared_ptr<const std::vector<ns::trace::TaskRecord>> stencil_records(
    const Stencil& s, std::uint64_t exec_ns) {
  constexpr ns::core::Addr kBase = 0x5000'0000;
  constexpr std::uint32_t kCell = sizeof(std::uint64_t);
  const auto addr = [&](std::uint32_t parity, std::uint32_t cell) {
    return kBase + (static_cast<ns::core::Addr>(parity) * s.cells + cell) * kCell;
  };
  auto records = std::make_shared<std::vector<ns::trace::TaskRecord>>();
  records->reserve(s.tasks());
  for (std::uint32_t t = 0; t < s.steps; ++t) {
    for (std::uint32_t i = 0; i < s.cells; ++i) {
      ns::trace::TaskRecord r;
      r.serial = records->size();
      r.fn = 0x57E;
      r.exec_time = ns::sim::ns(static_cast<std::int64_t>(exec_ns));
      r.params = {ns::core::in(addr(t % 2, i), kCell),
                  ns::core::in(addr(t % 2, s.neighbours[2 * i]), kCell),
                  ns::core::in(addr(t % 2, s.neighbours[2 * i + 1]), kCell),
                  ns::core::out(addr((t + 1) % 2, i), kCell)};
      records->push_back(std::move(r));
    }
  }
  return records;
}

}  // namespace perfbench
