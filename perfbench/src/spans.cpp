#include "spans.hpp"

#include <cstdio>
#include <memory>

#include "common.hpp"

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled, std::size_t max_spans)
    : enabled_(enabled), max_spans_(max_spans), origin_ns_(mono_ns()) {
  if (enabled_) name_track(0, "benchmark");
}

std::int64_t SpanRecorder::begin(const char* name, std::uint64_t serial) {
  if (!enabled_) return -1;
  std::int64_t id = -1;
  if (spans_.size() < max_spans_) {
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{name, mono_ns(), -1, current(), serial, 0});
  } else {
    ++dropped_;
  }
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(std::int64_t id) {
  if (!enabled_) return;
  if (!open_.empty()) open_.pop_back();
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = mono_ns();
}

void SpanRecorder::add_closed(const char* name, std::int64_t start_ns,
                              std::int64_t end_ns, std::int64_t parent,
                              std::uint64_t serial, std::uint32_t track) {
  if (!enabled_) return;
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{name, start_ns, end_ns, parent, serial, track});
}

void SpanRecorder::name_track(std::uint32_t track, std::string name) {
  for (auto& [t, n] : track_names_) {
    if (t == track) {
      n = std::move(name);
      return;
    }
  }
  track_names_.emplace_back(track, std::move(name));
}

bool SpanRecorder::write(const std::string& path,
                         const std::string& process) const {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (f == nullptr) return false;
  std::FILE* out = f.get();
  std::fprintf(out,
               "{\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\","
               "\"pid\":1,\"tid\":0,\"args\":{\"name\":%s}}",
               json_string(process).c_str());
  for (const auto& [track, name] : track_names_) {
    std::fprintf(out,
                 ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":%s}}",
                 track, json_string(name).c_str());
  }
  // Both ends are rounded to whole nanoseconds (3 decimals of a
  // microsecond) before the duration is taken, so a child that ends with
  // its parent still ends inside it after export.
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) continue;  // never closed
    const std::int64_t ts = s.start_ns - origin_ns_;
    const std::int64_t dur = s.end_ns - s.start_ns;
    std::fprintf(out,
                 ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%u,\"ts\":%lld.%03lld,\"dur\":%lld.%03lld,"
                 "\"args\":{\"id\":%zu,\"parent\":%lld,\"serial\":%lld}}",
                 s.name, s.track, static_cast<long long>(ts / 1000),
                 static_cast<long long>(ts % 1000),
                 static_cast<long long>(dur / 1000),
                 static_cast<long long>(dur % 1000), i,
                 static_cast<long long>(s.parent),
                 s.serial == kNoSerial ? -1LL
                                       : static_cast<long long>(s.serial));
  }
  std::fprintf(out, "\n]}\n");
  return std::ferror(out) == 0;
}

}  // namespace perfbench
