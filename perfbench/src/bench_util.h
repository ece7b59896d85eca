#ifndef PERFBENCH_SRC_BENCH_UTIL_H_
#define PERFBENCH_SRC_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/telemetry.h"

/// \file
/// Small helpers shared by the benchmark's translation units: the clock,
/// order statistics, a repeat-and-take-the-median timer, the host steal
/// meter and the steal-based selection of quiet samples that keeps a noisy
/// host out of the timings, and the ordered metric list the run prints as
/// its result.

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the telemetry clock, so bench-side spans and the
/// program's own spans share one time base in the exported trace.
inline int64_t NowNs() { return ssin::telemetry::NowNs(); }

inline double SecondsSince(int64_t begin_ns) {
  return static_cast<double>(NowNs() - begin_ns) * 1e-9;
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Runs `fn` `reps` times after `warmup` untimed calls and returns the
/// median wall time of one call in microseconds.
inline double MedianMicros(int reps, int warmup,
                           const std::function<void()>& fn) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<double> us;
  us.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    const int64_t begin = NowNs();
    fn();
    us.push_back(static_cast<double>(NowNs() - begin) * 1e-3);
  }
  return Median(us);
}

/// Share of CPU time the hypervisor took from the virtual CPUs (the "steal"
/// column of /proc/stat) over an interval. Steal is the one slowdown no
/// change to the program can cause, so the benchmark uses it to tell a
/// sample taken while a neighbour held the host from a clean one. Reads 0
/// where /proc/stat is unavailable.
class StealMeter {
 public:
  StealMeter() { Read(&steal_, &total_); }
  double Share() const {
    int64_t steal = 0, total = 0;
    Read(&steal, &total);
    return total > total_ ? static_cast<double>(steal - steal_) /
                                static_cast<double>(total - total_)
                          : 0.0;
  }

 private:
  static void Read(int64_t* steal, int64_t* total) {
    std::ifstream in("/proc/stat");
    std::string cpu;
    int64_t fields[8] = {};
    if (!(in >> cpu) || cpu != "cpu") return;
    for (int64_t& f : fields) in >> f;
    *steal = fields[7];
    *total = 0;
    for (int64_t f : fields) *total += f;
  }
  int64_t steal_ = 0;
  int64_t total_ = 0;
};

/// A sample whose host steal share is within this much of the quietest
/// sample's counts as quiet.
constexpr double kStealSlack = 0.02;

/// Indices of the quiet samples: every one whose steal share is within
/// kStealSlack of the lowest, and never fewer than the two lowest (or
/// all, if fewer). On a quiet host that is every sample; when a neighbour
/// held the host for part of a run, only the part it did not; when it
/// held the whole run, the least disturbed two. Steal is the one
/// slowdown no change to the program can cause, so the choice never
/// depends on a sample's own time.
inline std::vector<size_t> Quietest(const std::vector<double>& steal) {
  std::vector<size_t> order(steal.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  size_t keep = std::min<size_t>(order.size(), 2);
  while (keep < order.size() &&
         steal[order[keep]] <= steal[order[0]] + kStealSlack) {
    ++keep;
  }
  order.resize(keep);
  return order;
}

/// Median of `values` over the quiet samples by `steal` (same length).
inline double QuietMedian(const std::vector<double>& values,
                          const std::vector<double>& steal) {
  std::vector<double> kept;
  for (size_t i : Quietest(steal)) kept.push_back(values[i]);
  return Median(kept);
}

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in the order they were added; names are unique.
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_UTIL_H_
