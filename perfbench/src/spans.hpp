#pragma once
// In-memory span recorder for the traced run. A span is one call into a
// layer, timed from the benchmark's side: name, start, end, parent span and
// task serial. Spans stay in memory until the run ends and are then written
// as Chrome trace-event JSON (the schema tools/validate_trace_events.py
// checks), one track per recording thread.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::uint64_t kNoSerial = ~0ull;

class SpanRecorder {
 public:
  /// A disabled recorder ignores every call (the timed reps run with it).
  explicit SpanRecorder(bool enabled, std::size_t max_spans = 400'000);

  /// Opens a span on the benchmark thread, child of the innermost open one.
  /// `name` must be a string literal (stored by pointer).
  [[nodiscard]] std::int64_t begin(const char* name,
                                   std::uint64_t serial = kNoSerial);
  void end(std::int64_t id);

  /// Records an already-closed span measured elsewhere (mono_ns stamps),
  /// e.g. a worker's kernel or one timed submit call.
  void add_closed(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                  std::int64_t parent, std::uint64_t serial,
                  std::uint32_t track);

  /// Innermost open span on the benchmark thread (-1 when none).
  [[nodiscard]] std::int64_t current() const noexcept {
    return open_.empty() ? -1 : open_.back();
  }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Names a track (track 0 is the benchmark thread).
  void name_track(std::uint32_t track, std::string name);

  /// Writes the trace-event JSON; false when the file cannot be written.
  [[nodiscard]] bool write(const std::string& path,
                           const std::string& process) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;
    std::uint64_t serial;
    std::uint32_t track;
  };
  bool enabled_;
  std::size_t max_spans_;
  std::int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
  std::vector<std::pair<std::uint32_t, std::string>> track_names_;
  std::uint64_t dropped_ = 0;
};

/// RAII span on the benchmark thread.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name,
             std::uint64_t serial = kNoSerial)
      : rec_(rec), id_(rec.begin(name, serial)) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  SpanRecorder& rec_;
  std::int64_t id_;
};

}  // namespace perfbench
