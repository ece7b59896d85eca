#include "probes.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <vector>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "common/rng.h"
#include "common/simd.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/inference_engine.h"
#include "core/masking.h"
#include "core/spaformer.h"
#include "core/spatial_context.h"
#include "core/ssin_interpolator.h"
#include "eval/metrics.h"
#include "nn/fused_serving.h"
#include "serve/interpolation_server.h"
#include "tensor/attention_kernels.h"
#include "tensor/graph.h"
#include "tensor/ops.h"

namespace perfbench {

namespace {

using ssin::AttentionPlan;
using ssin::InferenceWorkspace;
using ssin::Rng;
using ssin::SequenceLayout;
using ssin::SpaFormer;
using ssin::SpaFormerConfig;
using ssin::SpatialContext;
using ssin::SsinInterpolator;
using ssin::Tensor;
using Ops = ssin::simd::VecOps;

std::vector<double> RandomVector(size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Uniform(-0.5, 0.5);
  return v;
}

std::vector<uint8_t> ObservedFlags(int num_observed, int length) {
  std::vector<uint8_t> flags(length, 0);
  std::fill(flags.begin(), flags.begin() + num_observed, 1);
  return flags;
}

std::vector<int> Concat(const std::vector<int>& a, const std::vector<int>& b) {
  std::vector<int> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

std::vector<double> Gather(const std::vector<double>& values,
                           const std::vector<int>& ids) {
  std::vector<double> out;
  out.reserve(ids.size());
  for (int id : ids) out.push_back(values[id]);
  return out;
}

/// Single-core f64 FMA throughput: independent accumulator chains deep
/// enough to cover the FMA latency, so the loop is throughput-bound.
double FmaPeakGflops() {
  constexpr int64_t kIters = 4'000'000;
  std::vector<double> trials;
  for (int trial = 0; trial < 5; ++trial) {
    const int64_t begin = NowNs();
#if defined(__AVX2__) && defined(__FMA__)
    constexpr int kChains = 12;
    __m256d acc[kChains];
    for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_pd(1.0 + c * 1e-3);
    const __m256d mul = _mm256_set1_pd(1.0 - 1e-9);
    const __m256d add = _mm256_set1_pd(1e-9);
    for (int64_t i = 0; i < kIters; ++i) {
      for (int c = 0; c < kChains; ++c) {
        acc[c] = _mm256_fmadd_pd(acc[c], mul, add);
      }
    }
    double sink = 0.0;
    alignas(32) double lanes[4];
    for (int c = 0; c < kChains; ++c) {
      _mm256_store_pd(lanes, acc[c]);
      sink += lanes[0] + lanes[1] + lanes[2] + lanes[3];
    }
    const double flops = 2.0 * 4.0 * kChains * static_cast<double>(kIters);
#else
    constexpr int kChains = 16;
    double acc[kChains];
    for (int c = 0; c < kChains; ++c) acc[c] = 1.0 + c * 1e-3;
    for (int64_t i = 0; i < kIters; ++i) {
      for (int c = 0; c < kChains; ++c) acc[c] = std::fma(acc[c], 1.0 - 1e-9, 1e-9);
    }
    double sink = 0.0;
    for (int c = 0; c < kChains; ++c) sink += acc[c];
    const double flops = 2.0 * kChains * static_cast<double>(kIters);
#endif
    const double seconds = SecondsSince(begin);
    if (!std::isfinite(sink)) return 0.0;
    trials.push_back(flops / seconds * 1e-9);
  }
  return *std::max_element(trials.begin(), trials.end());
}

/// Analytic work of one fused-kernel call: flops count a multiply and an
/// add separately; bytes are the sizes of every tensor the call reads or
/// writes, computed, not measured.
struct Work {
  double flops = 0.0;
  double bytes = 0.0;
};

/// Timed stage kernels of one encoder layer at the paper shapes, evaluated
/// over `rows` query rows (rows == L for a full layer, L - m for the tail
/// layer that Predict evaluates for the query rows only).
struct StageBench {
  int L, m, H, d, dm, dff;
  AttentionPlan plan;
  std::vector<double> x, wq, wk, wv, wo, w1, b1, w2, b2, gamma, beta, c;
  std::vector<double> q, kv, concat, hidden, tmp, out;
  std::vector<double> scores;

  StageBench(const SpaFormerConfig& config, int length, int observed,
             Rng* rng)
      : L(length),
        m(observed),
        H(config.num_heads),
        d(config.d_k),
        dm(config.d_model),
        dff(config.d_ff) {
    ssin::BuildAttentionPlan(ObservedFlags(m, L), /*shielded=*/true, &plan);
    x = RandomVector(static_cast<size_t>(L) * dm, rng);
    wq = RandomVector(static_cast<size_t>(H) * dm * d, rng);
    wk = RandomVector(static_cast<size_t>(H) * dm * d, rng);
    wv = RandomVector(static_cast<size_t>(H) * dm * d, rng);
    wo = RandomVector(static_cast<size_t>(H) * d * dm, rng);
    w1 = RandomVector(static_cast<size_t>(dm) * dff, rng);
    b1 = RandomVector(dff, rng);
    w2 = RandomVector(static_cast<size_t>(dff) * dm, rng);
    b2 = RandomVector(dm, rng);
    gamma = std::vector<double>(dm, 1.0);
    beta = std::vector<double>(dm, 0.0);
    c = RandomVector(static_cast<size_t>(plan.num_pairs()) * d, rng);
    q.resize(static_cast<size_t>(H) * L * d);
    kv.resize(static_cast<size_t>(2 * H) * L * d);
    concat.resize(static_cast<size_t>(L) * H * d);
    hidden.resize(dff);
    tmp.resize(dm);
    out.resize(static_cast<size_t>(L) * dm);
  }

  int64_t PairsFrom(int tail_begin) const {
    return plan.offset[L] - plan.offset[tail_begin];
  }

  void Qkv(int tail_begin) {
    std::vector<const double*> pq, pk, pv;
    for (int h = 0; h < H; ++h) {
      pq.push_back(wq.data() + static_cast<size_t>(h) * dm * d);
      pk.push_back(wk.data() + static_cast<size_t>(h) * dm * d);
      pv.push_back(wv.data() + static_cast<size_t>(h) * dm * d);
    }
    ssin::fused::FusedQkvProjectRows<double, Ops>(
        x.data(), L, dm, tail_begin, pq.data(), pk.data(), pv.data(), H, d,
        q.data(), kv.data());
  }
  Work QkvWork(int tail_begin) const {
    const double rows = L - tail_begin;
    Work w;
    w.flops = 2.0 * dm * d * H * (2.0 * L + rows);
    w.bytes = 8.0 * (L * dm + 3.0 * H * dm * d + 2.0 * H * L * d +
                     H * rows * d);
    return w;
  }

  void Attention(int tail_begin) {
    const int rows = L - tail_begin;
    for (int h = 0; h < H; ++h) {
      ssin::PackedAttentionForwardRowsStrided<double, Ops>(
          q.data() + static_cast<size_t>(h) * rows * d,
          kv.data() + static_cast<size_t>(2 * h) * L * d,
          kv.data() + static_cast<size_t>(2 * h + 1) * L * d, c.data(), plan,
          /*packed_srpe=*/true, d, tail_begin, &scores, /*alpha_out=*/nullptr,
          concat.data() + static_cast<size_t>(h) * d,
          static_cast<int64_t>(H) * d);
    }
  }
  Work AttentionWork(int tail_begin) const {
    const double rows = L - tail_begin;
    const double pairs = static_cast<double>(PairsFrom(tail_begin));
    Work w;
    // Per legal pair: the SRPE score sum(q*k*c) (3d), softmax (3) and the
    // weighted value accumulation (2d).
    w.flops = H * pairs * (5.0 * d + 3.0);
    w.bytes = H * (8.0 * (2.0 * rows * d + 2.0 * L * d + pairs * d) +
                   4.0 * pairs + 8.0 * (rows + 1));
    return w;
  }

  void Epilogue(int tail_begin) {
    const int rows = L - tail_begin;
    ssin::fused::FusedAttentionEpilogueRows<double, Ops>(
        concat.data(), rows, H * d, wo.data(), /*wo_bias=*/nullptr, dm,
        x.data() + static_cast<size_t>(tail_begin) * dm, gamma.data(),
        beta.data(), 1e-5, tmp.data(), out.data());
  }
  Work EpilogueWork(int tail_begin) const {
    const double rows = L - tail_begin;
    Work w;
    w.flops = rows * (2.0 * H * d * dm + dm + 7.0 * dm);
    w.bytes = 8.0 * (rows * H * d + H * d * dm + 2.0 * rows * dm + 2.0 * dm);
    return w;
  }

  void Ffn(int tail_begin) {
    const int rows = L - tail_begin;
    ssin::fused::FusedFfnRows<double, Ops>(
        x.data() + static_cast<size_t>(tail_begin) * dm, rows, dm, dff,
        w1.data(), b1.data(), w2.data(), b2.data(), /*relu=*/true,
        gamma.data(), beta.data(), 1e-5, hidden.data(), tmp.data(),
        out.data());
  }
  Work FfnWork(int tail_begin) const {
    const double rows = L - tail_begin;
    Work w;
    w.flops = rows * (4.0 * dm * dff + dff + 9.0 * dm);
    w.bytes = 8.0 * (2.0 * rows * dm + 2.0 * dm * dff + dff + 3.0 * dm);
    return w;
  }
};

}  // namespace

void RunProbes(const ProbeInputs& in, MetricList* out) {
  const ssin::SpatialDataset& data = *in.data;
  const ssin::NodeSplit& split = *in.split;
  const SpaFormerConfig config = SpaFormerConfig::Paper();
  Rng rng(in.seed ^ 0x70726f6265ull);
  const std::vector<int> node_ids = Concat(split.train_ids, split.test_ids);
  const int length = static_cast<int>(node_ids.size());
  const int observed = static_cast<int>(split.train_ids.size());
  const int num_queries = length - observed;
  const std::vector<double>& values0 = data.Values(0);

  // ---- common: thread pool spawn, FMA peak ------------------------------
  const double fma_peak = FmaPeakGflops();
  out->Add("common.fma_peak_gflops", fma_peak, "GFLOP/s");
  out->Add("common.pool_spawn_us", MedianMicros(200, 10, [&] {
             SSIN_TRACE_SPAN("probe.common.pool_spawn");
             ssin::ThreadPool pool(in.threads);
             pool.ParallelFor(in.threads, [](int64_t, int) {});
           }),
           "us");

  // ---- nn / tensor / geo on a bare SpaFormer -----------------------------
  SpaFormer model(config, &rng);
  SpatialContext context;
  context.Build(data, split.train_ids);
  InferenceWorkspace ws;
  std::shared_ptr<const SequenceLayout> layout = ssin::BuildSequenceLayout(
      &model, context, split.train_ids, split.test_ids, &ws);
  ssin::MaskingOptions masking;
  const Tensor x =
      ssin::BuildInferenceSequence(Gather(values0, split.train_ids),
                                   num_queries, masking)
          .input;
  const double predict_us = MedianMicros(300, 30, [&] {
    SSIN_TRACE_SPAN("probe.nn.predict");
    model.Predict(x, *layout, &ws);
  });
  out->Add("nn.predict_us", predict_us, "us");
  ssin::F32WeightCache f32_cache;
  std::shared_ptr<const ssin::F32WeightCache::Map> f32_weights =
      f32_cache.EnsureFrom(&model);
  out->Add("nn.predict_f32_us", MedianMicros(300, 30, [&] {
             SSIN_TRACE_SPAN("probe.nn.predict_f32");
             model.PredictF32(x, *layout, *f32_weights, &ws);
           }),
           "us");

  std::vector<double> plan_us, relpos_us, layout_us;
  for (const std::vector<int>& pattern : *in.patterns) {
    const std::vector<int> ids = Concat(pattern, split.test_ids);
    const std::vector<uint8_t> flags = ObservedFlags(
        static_cast<int>(pattern.size()), static_cast<int>(ids.size()));
    int64_t begin = NowNs();
    std::shared_ptr<const AttentionPlan> plan;
    {
      SSIN_TRACE_SPAN("probe.tensor.plan_build");
      plan = ssin::BuildSequencePlan(config, context, ids, flags);
    }
    plan_us.push_back(static_cast<double>(NowNs() - begin) * 1e-3);
    begin = NowNs();
    {
      SSIN_TRACE_SPAN("probe.geo.relpos_rows");
      ssin::RelposRowsForPlan(context, ids, *plan, config);
    }
    relpos_us.push_back(static_cast<double>(NowNs() - begin) * 1e-3);
    begin = NowNs();
    {
      SSIN_TRACE_SPAN("probe.nn.layout_build");
      ssin::BuildSequenceLayout(&model, context, pattern, split.test_ids, &ws);
    }
    layout_us.push_back(static_cast<double>(NowNs() - begin) * 1e-3);
  }
  out->Add("nn.layout_build_us", Median(layout_us), "us");
  out->Add("tensor.plan_build_us", Median(plan_us), "us");
  out->Add("geo.relpos_rows_us", Median(relpos_us), "us");

  // One masked training sequence through the autograd forward + backward.
  const Tensor abspos = context.AbsposFor(split.train_ids);
  const std::vector<double> train_values = Gather(values0, split.train_ids);
  Rng mask_rng(in.seed ^ 0x6d61736bull);
  const double fwd_bwd_us = MedianMicros(40, 4, [&] {
    SSIN_TRACE_SPAN("probe.tensor.fwd_bwd");
    const ssin::MaskedSequence seq = ssin::BuildMaskedSequence(
        train_values, ssin::SampleMask(observed, 0.2, &mask_rng), masking);
    std::shared_ptr<const AttentionPlan> plan =
        ssin::BuildSequencePlan(config, context, split.train_ids, seq.observed);
    const Tensor relpos =
        context.RelposForPairs(split.train_ids, plan->pair_rows);
    ssin::Graph graph;
    ssin::Var pred =
        model.ForwardWithPlan(&graph, seq.input, std::move(plan), relpos, abspos);
    graph.Backward(
        ssin::MseLoss(ssin::GatherRows(pred, seq.target_positions), seq.targets));
  });
  out->Add("tensor.fwd_bwd_ms", fwd_bwd_us * 1e-3, "ms");

  // ---- nn stage kernels at the paper shapes ------------------------------
  // Predict runs num_layers - 1 full layers and one tail layer (query rows
  // only), so each stage reports that per-Predict total.
  StageBench stage(config, length, observed, &rng);
  const int full_layers = config.num_layers - 1;
  double stage_sum_us = 0.0;
  const auto report_stage = [&](const char* name, auto run, auto work) {
    const double full_us = MedianMicros(400, 40, [&] { run(0); });
    const double tail_us = MedianMicros(400, 40, [&] { run(observed); });
    const double us = full_layers * full_us + tail_us;
    const Work wf = work(0), wt = work(observed);
    const double flops = full_layers * wf.flops + wt.flops;
    const double bytes = full_layers * wf.bytes + wt.bytes;
    const std::string prefix = std::string("nn.stage.") + name;
    out->Add(prefix + "_us", us, "us");
    out->Add(prefix + "_flops", flops, "flop");
    out->Add(prefix + "_bytes_computed", bytes, "B");
    out->Add(prefix + "_peak_frac", flops / (us * 1e-6) / (fma_peak * 1e9),
             "ratio");
    stage_sum_us += us;
  };
  {
    SSIN_TRACE_SPAN("probe.nn.stages");
    report_stage("qkv", [&](int t) { stage.Qkv(t); },
                 [&](int t) { return stage.QkvWork(t); });
    report_stage("attention", [&](int t) { stage.Attention(t); },
                 [&](int t) { return stage.AttentionWork(t); });
    report_stage("epilogue", [&](int t) { stage.Epilogue(t); },
                 [&](int t) { return stage.EpilogueWork(t); });
    report_stage("ffn", [&](int t) { stage.Ffn(t); },
                 [&](int t) { return stage.FfnWork(t); });
  }
  out->Add("nn.stage_sum_ratio", stage_sum_us / predict_us, "ratio");

  // ---- core: the interpolator's serving entry points ---------------------
  ssin::TrainConfig train_config;
  train_config.seed = in.seed;
  SsinInterpolator interp(config, train_config);
  interp.Prepare(data, split.train_ids);
  const double hit_us = MedianMicros(300, 30, [&] {
    SSIN_TRACE_SPAN("probe.core.predict_hit");
    interp.InterpolateTimestamp(values0, split.train_ids, split.test_ids);
  });
  out->Add("core.predict_hit_us", hit_us, "us");
  std::vector<double> miss_us;
  for (const std::vector<int>& pattern : *in.patterns) {
    const int64_t lookups_before =
        interp.layout_cache().hits() + interp.layout_cache().misses();
    const int64_t misses_before = interp.layout_cache().misses();
    const int64_t begin = NowNs();
    {
      SSIN_TRACE_SPAN("probe.core.predict_miss");
      interp.InterpolateTimestamp(values0, pattern, split.test_ids);
    }
    const double us = static_cast<double>(NowNs() - begin) * 1e-3;
    // Only a first-seen layout counts (the pool may repeat a pattern).
    if (interp.layout_cache().misses() == misses_before + 1 &&
        interp.layout_cache().hits() + interp.layout_cache().misses() ==
            lookups_before + 1) {
      miss_us.push_back(us);
    }
  }
  out->Add("core.predict_miss_us", Median(miss_us), "us");
  const std::vector<const std::vector<double>*> one = {&values0};
  const double single_batch_us = MedianMicros(300, 30, [&] {
    SSIN_TRACE_SPAN("probe.core.dispatch_one");
    interp.InterpolateBatch(one, split.train_ids, split.test_ids, in.threads);
  });
  out->Add("core.dispatch_overhead_us", single_batch_us - hit_us, "us");
  std::vector<const std::vector<double>*> batch;
  for (int i = 0; i < in.batch_size; ++i) {
    batch.push_back(&data.Values(i % data.num_timestamps()));
  }
  out->Add("core.batch_us_per_seq", MedianMicros(40, 4, [&] {
             SSIN_TRACE_SPAN("probe.core.batch");
             interp.InterpolateBatch(batch, split.train_ids, split.test_ids,
                                     in.threads);
           }) / in.batch_size,
           "us");

  // ---- eval: the metric reduction over one eval pass's (truth, prediction)
  // pairs --------------------------------------------------------------------
  std::vector<double> truths, predictions;
  for (int t = 0; t < data.num_timestamps(); ++t) {
    for (int id : split.test_ids) {
      truths.push_back(data.Values(t)[id]);
      predictions.push_back(0.9 * data.Values(t)[id] + 0.1);
    }
  }
  out->Add("eval.metrics_us", MedianMicros(50, 5, [&] {
             SSIN_TRACE_SPAN("probe.eval.metrics");
             ssin::ComputeMetrics(truths, predictions);
           }),
           "us");
}

double TraceOverheadPercent(const ProbeInputs& in) {
  namespace serve = ssin::serve;
  const ssin::SpatialDataset& data = *in.data;
  const ssin::NodeSplit& split = *in.split;
  serve::ServerConfig config;
  config.batch_threads = in.threads;
  serve::InterpolationServer server(config);
  ssin::TrainConfig train_config;
  train_config.seed = in.seed;
  auto make = [&] {
    auto model = std::make_shared<SsinInterpolator>(SpaFormerConfig::Paper(),
                                                    train_config);
    model->Prepare(data, split.train_ids);
    return model;
  };
  server.registry().Register("overhead", make(), make());
  const bool was_enabled = ssin::telemetry::Enabled();
  // One round: a burst of requests, all awaited (closed loop).
  const auto round = [&] {
    std::vector<std::future<std::vector<double>>> futures;
    for (int i = 0; i < 64; ++i) {
      serve::Request request;
      request.model = "overhead";
      request.all_values = data.Values(i % data.num_timestamps());
      request.observed_ids = split.train_ids;
      request.query_ids = split.test_ids;
      std::future<std::vector<double>> future;
      if (server.Submit(std::move(request), &future) ==
          serve::SubmitStatus::kAccepted) {
        futures.push_back(std::move(future));
      }
    }
    for (auto& f : futures) f.get();
  };
  round();
  std::vector<double> off_us, on_us;
  for (int i = 0; i < 24; ++i) {
    // Alternate which side goes first so drift cancels.
    for (int side = 0; side < 2; ++side) {
      const bool on = (side == 0) == (i % 2 == 0);
      ssin::telemetry::SetEnabled(on);
      const int64_t begin = NowNs();
      round();
      (on ? on_us : off_us).push_back(static_cast<double>(NowNs() - begin) *
                                      1e-3);
    }
  }
  ssin::telemetry::SetEnabled(was_enabled);
  return (Median(on_us) / Median(off_us) - 1.0) * 100.0;
}

}  // namespace perfbench
