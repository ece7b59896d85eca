#ifndef PERFBENCH_SRC_PROBES_H_
#define PERFBENCH_SRC_PROBES_H_

#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "data/dataset.h"

/// \file
/// Per-layer probes: each one times calls into one layer's public
/// functions from outside the program, at the paper geometry (HK, 123
/// gauges, 98 observed) and SpaFormerConfig::Paper(). They run only in
/// the traced run, after the workload, and add their metrics to `out`.

namespace perfbench {

struct ProbeInputs {
  const ssin::SpatialDataset* data = nullptr;
  const ssin::NodeSplit* split = nullptr;
  /// Outage patterns (observed-station subsets) the layout probes build.
  const std::vector<std::vector<int>>* patterns = nullptr;
  /// The server's pool threads per batch (main.cc ServeThreads).
  int threads = 1;
  /// Items per InterpolateBatch call for core.batch_us_per_seq.
  int batch_size = 1;
  uint64_t seed = 1;
};

void RunProbes(const ProbeInputs& in, MetricList* out);

/// Closed-loop serving rounds alternating telemetry off and on; returns
/// the traced round time's excess over the untraced one, in percent.
double TraceOverheadPercent(const ProbeInputs& in);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBES_H_
