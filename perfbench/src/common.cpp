#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <string>

namespace perfbench {

std::uint64_t stolen_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::ifstream in("/proc/stat");
  std::string label;
  std::uint64_t field = 0;
  in >> label;
  for (int i = 0; i < 8; ++i) in >> field;  // the eighth number is steal
  return in && label == "cpu" ? field : 0;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

MetricSet::Entry& MetricSet::entry(const std::string& name,
                                   const std::string& unit) {
  for (auto& e : entries_) {
    if (e.name == name) return e;
  }
  entries_.push_back(Entry{name, unit, {}});
  return entries_.back();
}

void MetricSet::add(const std::string& name, const std::string& unit,
                    double value) {
  entry(name, unit).samples.push_back(value);
}

void MetricSet::add_all(const std::string& name, const std::string& unit,
                        const std::vector<double>& values, double at) {
  auto& e = entry(name, unit);
  e.at = at;
  e.samples.insert(e.samples.end(), values.begin(), values.end());
}

std::string MetricSet::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& e : entries_) {
    if (!first) out += ",";
    first = false;
    out += json_string(e.name) + ":{\"value\":" +
           json_number(quantile(e.samples, e.at)) +
           ",\"unit\":" + json_string(e.unit) +
           ",\"at\":" + json_number(e.at) +
           ",\"q1\":" + json_number(quantile(e.samples, 0.25)) +
           ",\"q3\":" + json_number(quantile(e.samples, 0.75)) +
           ",\"n\":" + std::to_string(e.samples.size()) + "}";
  }
  return out + "}";
}

bool Ledger::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 16) failures.push_back(what);
  }
  return ok;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
