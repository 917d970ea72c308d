#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace perfbench {

namespace {

bool known(const std::string& name) {
  for (const MetricDef& m : kEndToEnd)
    if (name == m.name) return true;
  for (const MetricDef& m : kPerLayer)
    if (name == m.name) return true;
  return false;
}

template <std::size_t N>
void append_metrics(std::string& out, const MetricDef (&table)[N],
                    const Report& report) {
  for (const MetricDef& m : table) {
    const double v = report.value(m.name);
    char buf[32];
    // max_digits10: every digit as measured. JSON has no NaN; set()
    // already failed the run for one.
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out += out.back() == '{' ? "\"" : ", \"";
    out += std::string(m.name) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
}

}  // namespace

void Report::set(const std::string& name, double value) {
  if (!known(name))
    throw std::logic_error("perfbench: unknown metric " + name);
  if (!std::isfinite(value)) fail("metric " + name + " is not finite");
  values_[name] = value;
}

double Report::value(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::set_medians(const std::vector<Layers>& passes) {
  std::map<std::string, std::vector<double>> samples;
  for (const Layers& pass : passes)
    for (const auto& [name, value] : pass) samples[name].push_back(value);
  for (const auto& [name, values] : samples) set(name, median(values));
}

void Report::set_overhead(const std::vector<double>& untraced_tp,
                          const std::vector<double>& traced_tp) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < untraced_tp.size(); ++i)
    ratios.push_back(untraced_tp[i] / traced_tp[i]);
  print_samples("untraced over traced throughput per pass", ratios);
  set("bench.untraced_tp_per_s", median(untraced_tp));
  set("bench.traced_tp_per_s", median(traced_tp));
  set("bench.trace_overhead_pct", 100.0 * (median(ratios) - 1.0));
}

void Report::count(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::fail(const std::string& why) {
  if (correct_) std::cerr << "perfbench: check failed: " << why << "\n";
  correct_ = false;
}

std::string Report::json(bool trace) const {
  std::string out = "{\"correct\": ";
  out += correct_ && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  if (trace)
    append_metrics(out, kPerLayer, *this);
  else
    append_metrics(out, kEndToEnd, *this);
  out += "}}";
  return out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void print_samples(const char* label, const std::vector<double>& values) {
  std::cout << "# " << label << ":";
  for (double v : values) std::cout << " " << v;
  std::cout << "\n";
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water
  // mark of the image before exec (the launching process), VmHWM belongs
  // to this program alone.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("perfbench: no VmHWM in /proc/self/status");
}

}  // namespace perfbench
