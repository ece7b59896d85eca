#ifndef PERFBENCH_SRC_TRAFFIC_H_
#define PERFBENCH_SRC_TRAFFIC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "serve/interpolation_server.h"

/// \file
/// Open-loop traffic against an InterpolationServer: one generator thread
/// (the caller) submits requests on a seeded Poisson schedule regardless of
/// completions, and one collector thread notices each future becoming
/// ready. Latency runs from a request's *scheduled* send time, so a stall
/// is charged to every request queued behind it.

namespace perfbench {

/// A registry write on a fixed period of serving time. The generator runs
/// it between arrivals, so its cost shows in the generator's lateness and
/// in the latency of every request scheduled behind it; the schedule
/// carries over from one slice to the next.
struct PromoteSchedule {
  double period_s = 0.0;
  std::function<void()> promote;
  int64_t next_ns = 0;  ///< Telemetry clock (bench_util.h NowNs).

  /// Starts a new period now (after a promote made outside the schedule).
  void Restart();
};

/// What every request of a run looks like. Each request reads the values
/// of one dataset timestamp and uses one of `observed_sets` as its
/// observed stations (one set: every request shares a layout).
struct TrafficSpec {
  std::string model;
  const ssin::SpatialDataset* data = nullptr;
  std::vector<int> query_ids;
  std::vector<std::vector<int>> observed_sets;
  /// Zipf exponent of observed-set popularity (rank r drawn with weight
  /// 1/r^s); ignored with a single set.
  double zipf_s = 1.0;
  /// Periodic promotes while serving, or none.
  PromoteSchedule* promotes = nullptr;
  /// Record bench-side trace spans (telemetry must be enabled).
  bool trace = false;
};

/// One stretch of traffic at a fixed offered rate.
struct SliceSpec {
  double rate_qps = 0.0;
  double seconds = 0.0;
  /// The leading share of the slice excluded from scoring (the queue
  /// settles to the new rate).
  double settle_fraction = 0.15;
};

enum class Outcome : uint8_t { kRefused, kServed, kThrew };

struct RequestRecord {
  int64_t scheduled_ns = 0;
  int64_t submit_begin_ns = 0;
  int64_t submit_end_ns = 0;
  int64_t ready_ns = -1;
  int32_t timestamp = 0;
  int32_t observed_set = 0;
  Outcome outcome = Outcome::kRefused;
  std::vector<double> answer;
};

/// What one slice contributes to its phase's statistics.
struct SliceSamples {
  double steal = 0.0;               ///< Host steal share while it ran.
  std::vector<double> latency_ms;   ///< Scored requests that were served.
  /// Completions counted over `served_seconds` of the scored window.
  int64_t served = 0;
  double served_seconds = 0.0;
};

/// A named load phase (lo, hi, over) accumulated over every slice run at
/// its rate. Raw samples first; Finalize() fills the summary.
struct Phase {
  std::string name;
  double rate_qps = 0.0;
  double queue_capacity = 0.0;

  // Raw samples.
  int64_t scheduled = 0;
  int64_t accepted = 0;
  int64_t refused = 0;
  int64_t threw = 0;
  int64_t batches = 0;
  double seconds = 0.0;
  std::vector<SliceSamples> slices;
  std::vector<double> lateness_ms;   ///< Scored requests.
  std::vector<double> submit_us;     ///< Scored requests.
  std::vector<double> depth_growth;  ///< Per slice.
  double depth_max = 0.0;
  /// Resident models' layout-cache evictions while the phase ran.
  int64_t layout_evictions = 0;

  // Summary. Latency percentiles and the served rate pool the quiet slices
  // by host steal (bench_util.h Quietest); a slice's own latencies or rate
  // would bias the choice. Lateness and backlog cover every slice.
  int64_t latency_samples = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double served_qps = 0.0;
  double lateness_p99_ms = 0.0;
  double lateness_max_ms = 0.0;
  double depth_growth_max = 0.0;
  double mean_batch = 0.0;  ///< Accepted / batches.
  double reject_ratio = 0.0;

  void Finalize();
};

/// Runs one slice, waits until every accepted request has completed, adds
/// its samples to `phase`, and returns its request records.
std::vector<RequestRecord> RunSlice(ssin::serve::InterpolationServer* server,
                                    const TrafficSpec& spec,
                                    const SliceSpec& slice, uint64_t seed,
                                    Phase* phase);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRAFFIC_H_
