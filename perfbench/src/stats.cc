#include "stats.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) *
                      static_cast<double>(values.size() - 1);
  const size_t lower = static_cast<size_t>(rank);
  const size_t upper = std::min(lower + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lower);
  return values[lower] + frac * (values[upper] - values[lower]);
}

double HighestSupportedQuantile(size_t n) {
  double best = 0.5;
  for (double q : {0.9, 0.99, 0.999}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) best = q;
  }
  return best;
}

namespace {

double StatusFieldKb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      std::istringstream fields(line.substr(prefix.size()));
      double kb = 0.0;
      fields >> kb;
      return kb;
    }
  }
  return 0.0;
}

}  // namespace

CpuTimes ReadCpuTimes() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;  // "cpu": the sum over all CPUs
  CpuTimes times;
  int64_t field = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {  // guest time is in user
    times.total += field;
    if (i == 7) times.steal = field;
  }
  return times;
}

double StealFrac(const CpuTimes& before, const CpuTimes& after) {
  const int64_t total = after.total - before.total;
  return total > 0 ? static_cast<double>(after.steal - before.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

double PeakRssMb() { return StatusFieldKb("VmHWM") / 1024.0; }

double CurrentRssKb() { return StatusFieldKb("VmRSS"); }

bool ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return clear_refs.good();
}

void Report::Add(const std::string& name, const std::string& unit,
                 double value, int64_t samples) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric = {name, unit, value, samples};
      return;
    }
  }
  metrics_.push_back({name, unit, value, samples});
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

wot::telemetry::HistogramSnapshot HistogramDelta(
    const wot::telemetry::HistogramSnapshot& after,
    const wot::telemetry::HistogramSnapshot* before) {
  wot::telemetry::HistogramSnapshot delta = after;
  if (before == nullptr) return delta;
  delta.count -= before->count;
  delta.sum -= before->sum;
  for (size_t b = 0; b < delta.buckets.size() && b < before->buckets.size();
       ++b) {
    delta.buckets[b] -= before->buckets[b];
  }
  return delta;
}

const wot::telemetry::HistogramSnapshot* FindHistogram(
    const wot::telemetry::MetricsSnapshot& scrape, const std::string& name) {
  for (const wot::telemetry::HistogramSnapshot& histogram :
       scrape.histograms) {
    if (histogram.name == name) return &histogram;
  }
  return nullptr;
}

int64_t FindCounter(const wot::telemetry::MetricsSnapshot& scrape,
                    const std::string& name) {
  for (const auto& [counter, value] : scrape.counters) {
    if (counter == name) return value;
  }
  return 0;
}

double HistogramMean(const wot::telemetry::HistogramSnapshot& histogram) {
  if (histogram.count <= 0) return 0.0;
  return static_cast<double>(histogram.sum) /
         static_cast<double>(histogram.count);
}

void AppendJsonString(std::string* out, const std::string& text) {
  out->push_back('"');
  for (char ch : text) {
    switch (ch) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x", ch);
          *out += escaped;
        } else {
          out->push_back(ch);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonNumber(std::string* out, double value) {
  if (!std::isfinite(value)) {
    *out += "null";
    return;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  *out += buffer;
}

}  // namespace perfbench
