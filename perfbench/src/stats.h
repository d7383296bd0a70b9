// Small measurement helpers shared by the serving benchmark: a monotonic
// clock, order statistics, the process's resident set, and the metric
// report every workload fills in.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "wot/telemetry/metric_registry.h"

namespace perfbench {

/// Nanoseconds on the steady clock.
int64_t NowNs();

/// The q-quantile of \p values (linear interpolation between order
/// statistics); 0 for an empty sample. Takes a copy so callers keep order.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// The highest of p50 / p90 / p99 / p99.9 that has at least ten samples
/// beyond it in a sample of \p n (0.5 when even p90 is unsupported).
double HighestSupportedQuantile(size_t n);

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();
/// Current resident set of this process (VmRSS), in KiB.
double CurrentRssKb();
/// Returns freed heap to the system and resets the peak resident set to
/// the current one (/proc/self/clear_refs). False when the kernel does
/// not allow the reset; the peak then still counts earlier highs.
bool ResetPeakRss();

/// Cumulative CPU time of the whole machine from /proc/stat, in clock
/// ticks: all of it, and the share the hypervisor ran something else
/// while this machine's CPUs wanted to run ("steal").
struct CpuTimes {
  int64_t total = 0;
  int64_t steal = 0;
};
CpuTimes ReadCpuTimes();
/// Stolen share of the CPU time between two readings (0 when none).
double StealFrac(const CpuTimes& before, const CpuTimes& after);

/// One reported number: name, unit, value and the sample count behind it.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  int64_t samples = 0;
};

/// The metrics of one run, in insertion order (a name added twice keeps
/// the last value).
class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value,
           int64_t samples);
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
};

/// Difference of two scrapes of the same histogram (after - before), so a
/// phase's own samples can be summarised from cumulative registries.
wot::telemetry::HistogramSnapshot HistogramDelta(
    const wot::telemetry::HistogramSnapshot& after,
    const wot::telemetry::HistogramSnapshot* before);

/// Looks a histogram / counter up in a scrape (null / 0 when absent).
const wot::telemetry::HistogramSnapshot* FindHistogram(
    const wot::telemetry::MetricsSnapshot& scrape, const std::string& name);
int64_t FindCounter(const wot::telemetry::MetricsSnapshot& scrape,
                    const std::string& name);

/// Mean of a histogram's samples (sum / count); 0 when empty.
double HistogramMean(const wot::telemetry::HistogramSnapshot& histogram);

/// Appends \p text to \p out as a JSON string literal.
void AppendJsonString(std::string* out, const std::string& text);
/// Appends a double with round-trip precision (non-finite values as null).
void AppendJsonNumber(std::string* out, double value);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
