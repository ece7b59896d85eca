#include "traffic.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "common/telemetry.h"
#include "bench_util.h"

namespace perfbench {

namespace {

using ssin::serve::InterpolationServer;
using ssin::serve::Request;
using ssin::serve::SubmitStatus;

struct Arrival {
  int64_t offset_ns = 0;
  int32_t timestamp = 0;
  int32_t observed_set = 0;
};

/// The slice's seeded arrival schedule: Poisson arrivals at the slice
/// rate, a uniform timestamp and a Zipf-ranked observed set per request.
std::vector<Arrival> Schedule(const TrafficSpec& spec, const SliceSpec& slice,
                              uint64_t seed) {
  ssin::Rng rng(seed);
  std::vector<double> cdf;
  double total = 0.0;
  for (size_t r = 0; r < spec.observed_sets.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_s);
    cdf.push_back(total);
  }
  const int num_timestamps = spec.data->num_timestamps();
  std::vector<Arrival> arrivals;
  double t = 0.0;
  for (;;) {
    t += rng.Exponential(slice.rate_qps);
    if (t >= slice.seconds) break;
    Arrival a;
    a.offset_ns = static_cast<int64_t>(t * 1e9);
    a.timestamp = static_cast<int32_t>(rng.UniformInt(0, num_timestamps - 1));
    const double u = rng.Uniform(0.0, total);
    a.observed_set = static_cast<int32_t>(std::min<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
        cdf.size() - 1));
    arrivals.push_back(a);
  }
  return arrivals;
}

/// Trace id the server's Submit will allocate next. Submit is the only
/// allocator of trace ids and the generator its only caller, so drawing
/// one id here makes the server's id the following one; bench spans tagged
/// with it join the server's flow for that request.
uint64_t PredictServerTraceId() { return ssin::telemetry::NextTraceId() + 1; }

struct Pending {
  size_t index = 0;
  uint64_t trace_id = 0;
  std::future<std::vector<double>> future;
};

/// Hands accepted futures from the generator to the collector.
struct Inbox {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Pending> items;  // Guarded by mu.
  bool done = false;           // Guarded by mu.
};

/// Polls every outstanding future, stamping each the moment it is seen
/// ready. Returns when the generator is done and nothing is outstanding.
void Collect(const TrafficSpec& spec, Inbox* inbox,
             std::vector<RequestRecord>* records) {
  std::vector<Pending> pending;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(inbox->mu);
      if (inbox->items.empty() && pending.empty()) {
        if (inbox->done) break;
        inbox->cv.wait_for(lock, std::chrono::milliseconds(1));
      }
      for (Pending& p : inbox->items) pending.push_back(std::move(p));
      inbox->items.clear();
    }
    bool progressed = false;
    for (size_t j = 0; j < pending.size();) {
      Pending& p = pending[j];
      if (p.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++j;
        continue;
      }
      RequestRecord& record = (*records)[p.index];
      record.ready_ns = NowNs();
      try {
        record.answer = p.future.get();
        record.outcome = Outcome::kServed;
      } catch (...) {
        record.outcome = Outcome::kThrew;
      }
      if (spec.trace) {
        ssin::telemetry::TraceRecorder::Global().Record(
            "bench.ready", record.ready_ns, record.ready_ns, /*depth=*/1,
            p.trace_id);
      }
      progressed = true;
      std::swap(p, pending.back());
      pending.pop_back();
    }
    // Block briefly on the oldest request rather than spin. The batcher
    // may finish a later request first (it dispatches groups in key
    // order); the next sweep stamps that one at most kPollUs late, a few
    // percent of the lo and hi medians.
    constexpr int kPollUs = 100;
    if (!progressed && !pending.empty()) {
      pending.front().future.wait_for(std::chrono::microseconds(kPollUs));
    }
  }
}

/// Least-squares slope of depth over time (per second), times the window.
double DepthGrowth(const std::vector<std::pair<double, double>>& samples,
                   double window_s) {
  if (samples.size() < 2) return 0.0;
  double mt = 0.0, md = 0.0;
  for (const auto& [t, d] : samples) {
    mt += t;
    md += d;
  }
  mt /= samples.size();
  md /= samples.size();
  double num = 0.0, den = 0.0;
  for (const auto& [t, d] : samples) {
    num += (t - mt) * (d - md);
    den += (t - mt) * (t - mt);
  }
  return den > 0.0 ? num / den * window_s : 0.0;
}

}  // namespace

void PromoteSchedule::Restart() {
  next_ns = NowNs() + static_cast<int64_t>(period_s * 1e9);
}

void Phase::Finalize() {
  std::vector<double> steal;
  for (const SliceSamples& slice : slices) steal.push_back(slice.steal);
  std::vector<double> latency;
  int64_t served = 0;
  double served_seconds = 0.0;
  for (size_t i : Quietest(steal)) {
    latency.insert(latency.end(), slices[i].latency_ms.begin(),
                   slices[i].latency_ms.end());
    served += slices[i].served;
    served_seconds += slices[i].served_seconds;
  }
  latency_samples = static_cast<int64_t>(latency.size());
  p50_ms = Quantile(latency, 0.5);
  p90_ms = Quantile(latency, 0.90);
  p99_ms = Quantile(latency, 0.99);
  served_qps = served_seconds > 0.0
                   ? static_cast<double>(served) / served_seconds
                   : 0.0;
  lateness_p99_ms = Quantile(lateness_ms, 0.99);
  lateness_max_ms =
      lateness_ms.empty()
          ? 0.0
          : *std::max_element(lateness_ms.begin(), lateness_ms.end());
  depth_growth_max =
      depth_growth.empty()
          ? 0.0
          : *std::max_element(depth_growth.begin(), depth_growth.end());
  mean_batch = batches > 0 ? static_cast<double>(accepted) /
                                 static_cast<double>(batches)
                           : 0.0;
  reject_ratio = scheduled > 0 ? static_cast<double>(scheduled - accepted) /
                                     static_cast<double>(scheduled)
                               : 0.0;
}

std::vector<RequestRecord> RunSlice(InterpolationServer* server,
                                    const TrafficSpec& spec,
                                    const SliceSpec& slice, uint64_t seed,
                                    Phase* phase) {
  const std::vector<Arrival> arrivals = Schedule(spec, slice, seed);
  std::vector<RequestRecord> records(arrivals.size());
  const StealMeter steal;
  const int64_t batches_before = server->batches_total();

  // A short lead so the first arrival is not already late. Sleeps use the
  // steady clock; records use the telemetry clock (bench_util.h NowNs).
  const Clock::time_point clock_origin =
      Clock::now() + std::chrono::milliseconds(2);
  const int64_t begin_ns = NowNs() + 2'000'000;
  const int64_t measure_begin_ns =
      begin_ns + static_cast<int64_t>(slice.seconds * slice.settle_fraction * 1e9);
  const int64_t end_ns = begin_ns + static_cast<int64_t>(slice.seconds * 1e9);

  Inbox inbox;
  std::thread collector([&] { Collect(spec, &inbox, &records); });

  std::vector<std::pair<double, double>> depth_samples;
  int64_t accepted = 0;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    RequestRecord& record = records[i];
    record.scheduled_ns = begin_ns + a.offset_ns;
    record.timestamp = a.timestamp;
    record.observed_set = a.observed_set;
    // Sleep, never spin: a spinning generator would take a core from the
    // server it is measuring. Promotes due before this arrival run first.
    PromoteSchedule* promotes = spec.promotes;
    while (promotes != nullptr && promotes->next_ns <= record.scheduled_ns) {
      const auto due = std::chrono::nanoseconds(promotes->next_ns - begin_ns);
      std::this_thread::sleep_until(clock_origin + due);
      promotes->promote();
      promotes->Restart();
    }
    std::this_thread::sleep_until(clock_origin +
                                  std::chrono::nanoseconds(a.offset_ns));
    Request request;
    request.model = spec.model;
    request.all_values = spec.data->Values(a.timestamp);
    request.observed_ids = spec.observed_sets[a.observed_set];
    request.query_ids = spec.query_ids;
    std::future<std::vector<double>> future;
    uint64_t trace_id = 0;
    SubmitStatus status;
    record.submit_begin_ns = NowNs();
    if (spec.trace) {
      trace_id = PredictServerTraceId();
      ssin::telemetry::ScopedTrace tag(trace_id);
      SSIN_TRACE_SPAN("bench.submit");
      status = server->Submit(std::move(request), &future);
    } else {
      status = server->Submit(std::move(request), &future);
    }
    record.submit_end_ns = NowNs();
    if (record.scheduled_ns >= measure_begin_ns) {
      depth_samples.emplace_back(
          static_cast<double>(record.scheduled_ns - measure_begin_ns) * 1e-9,
          static_cast<double>(server->queue_depth()));
    }
    if (status != SubmitStatus::kAccepted) continue;  // Stays kRefused.
    ++accepted;
    {
      std::lock_guard<std::mutex> lock(inbox.mu);
      inbox.items.push_back({i, trace_id, std::move(future)});
    }
    inbox.cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(inbox.mu);
    inbox.done = true;
  }
  inbox.cv.notify_one();
  collector.join();

  SliceSamples samples;
  samples.steal = steal.Share();
  phase->scheduled += static_cast<int64_t>(arrivals.size());
  phase->accepted += accepted;
  phase->batches += server->batches_total() - batches_before;

  // Completion rate over the scored window, from the first completion seen
  // in it to the last: the first cluster of completions (one micro-batch)
  // opens the interval and is not counted, so batch-sized steps do not
  // quantize the rate.
  const double window_s = static_cast<double>(end_ns - measure_begin_ns) * 1e-9;
  phase->seconds += slice.seconds;
  std::vector<int64_t> ready;
  for (const RequestRecord& r : records) {
    if (r.outcome == Outcome::kRefused) ++phase->refused;
    if (r.outcome == Outcome::kThrew) ++phase->threw;
    if (r.ready_ns >= measure_begin_ns && r.ready_ns < end_ns &&
        r.outcome == Outcome::kServed) {
      ready.push_back(r.ready_ns);
    }
    if (r.scheduled_ns < measure_begin_ns) continue;
    phase->lateness_ms.push_back(
        static_cast<double>(r.submit_begin_ns - r.scheduled_ns) * 1e-6);
    phase->submit_us.push_back(
        static_cast<double>(r.submit_end_ns - r.submit_begin_ns) * 1e-3);
    if (r.outcome == Outcome::kServed) {
      samples.latency_ms.push_back(
          static_cast<double>(r.ready_ns - r.scheduled_ns) * 1e-6);
    }
  }
  std::sort(ready.begin(), ready.end());
  constexpr int64_t kClusterNs = 1'000'000;
  size_t first_after = 0;
  while (first_after < ready.size() &&
         ready[first_after] - ready.front() < kClusterNs) {
    ++first_after;
  }
  if (first_after < ready.size()) {
    samples.served = static_cast<int64_t>(ready.size() - first_after);
    samples.served_seconds =
        static_cast<double>(ready.back() - ready.front()) * 1e-9;
  }
  phase->slices.push_back(std::move(samples));
  for (const auto& sample : depth_samples) {
    phase->depth_max = std::max(phase->depth_max, sample.second);
  }
  phase->depth_growth.push_back(DepthGrowth(depth_samples, window_s));
  return records;
}

}  // namespace perfbench
