/// Pins the contract of the long-lived serving core (src/serve/): the
/// batcher's micro-batch coalescing is invisible in the results (bit
/// identical to direct InterpolateTimestamp calls), admission control
/// rejects instead of blocking or deadlocking when the bounded queue
/// fills, and a double-buffered hot-swap under sustained concurrent load
/// drops zero requests while every prediction matches exactly one of the
/// two weight generations.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/telemetry.h"
#include "core/ssin_interpolator.h"
#include "data/rainfall_generator.h"
#include "serve/health_monitor.h"
#include "serve/interpolation_server.h"
#include "serve/model_registry.h"
#include "serve/request_queue.h"

namespace ssin {
namespace {

using serve::HealthMonitor;
using serve::HealthState;
using serve::InterpolationServer;
using serve::ModelRegistry;
using serve::Request;
using serve::ServerConfig;
using serve::ServerStatus;
using serve::SubmitStatus;

RainfallRegionConfig TinyRegion() {
  RainfallRegionConfig config = HkRegionConfig();
  config.num_gauges = 24;
  config.width_km = 30.0;
  config.height_km = 24.0;
  return config;
}

SpaFormerConfig TinyModel() {
  SpaFormerConfig config;
  config.num_layers = 2;
  config.num_heads = 2;
  config.d_model = 8;
  config.d_k = 8;
  config.d_ff = 32;
  return config;
}

TrainConfig FastTraining(uint64_t seed) {
  TrainConfig config;
  config.epochs = 2;
  config.masks_per_sequence = 2;
  config.batch_size = 8;
  config.warmup_steps = 20;
  config.lr_factor = 0.2;
  config.seed = seed;
  return config;
}

/// Dataset + station split + two independently trained weight generations
/// (seed 13 = generation A, seed 99 = generation B) with their reference
/// predictions, plus factories for registry instances.
struct ServeFixture {
  ServeFixture()
      : generator(TinyRegion()), data(generator.GenerateHours(16, 7)) {
    for (int i = 0; i < data.num_stations(); ++i) {
      (i % 4 == 3 ? query_ids : observed_ids).push_back(i);
    }
    source_a = std::make_unique<SsinInterpolator>(TinyModel(),
                                                  FastTraining(13));
    source_a->Fit(data, observed_ids);
    source_b = std::make_unique<SsinInterpolator>(TinyModel(),
                                                  FastTraining(99));
    source_b->Fit(data, observed_ids);
    for (int t = 0; t < data.num_timestamps(); ++t) {
      expected_a.push_back(source_a->InterpolateTimestamp(
          data.Values(t), observed_ids, query_ids));
      expected_b.push_back(source_b->InterpolateTimestamp(
          data.Values(t), observed_ids, query_ids));
    }
  }

  /// A registry-ready (active, standby) pair serving generation A.
  std::pair<std::shared_ptr<SsinInterpolator>,
            std::shared_ptr<SsinInterpolator>>
  MakeBuffers() {
    auto active = std::make_shared<SsinInterpolator>(TinyModel(),
                                                     FastTraining(13));
    active->Prepare(data, observed_ids);
    active->CopyParametersFrom(*source_a);
    auto standby = std::make_shared<SsinInterpolator>(TinyModel(),
                                                      FastTraining(13));
    standby->Prepare(data, observed_ids);
    return {std::move(active), std::move(standby)};
  }

  Request RequestFor(int t, const std::string& model = "hk") const {
    Request request;
    request.model = model;
    request.all_values = data.Values(t);
    request.observed_ids = observed_ids;
    request.query_ids = query_ids;
    return request;
  }

  RainfallGenerator generator;
  SpatialDataset data;
  std::vector<int> observed_ids;
  std::vector<int> query_ids;
  std::unique_ptr<SsinInterpolator> source_a;
  std::unique_ptr<SsinInterpolator> source_b;
  std::vector<std::vector<double>> expected_a;
  std::vector<std::vector<double>> expected_b;
};

/// The fixture trains two models; share it across tests in this file.
ServeFixture& Fixture() {
  static ServeFixture* fixture = new ServeFixture();
  return *fixture;
}

void ExpectExactly(const std::vector<double>& actual,
                   const std::vector<double>& expected,
                   const char* label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << label << " element " << i;
  }
}

// ------------------------------------------------------- request queue

TEST(RequestQueueTest, TryPushFailsAtCapacityWithoutBlocking) {
  serve::RequestQueue queue(2);
  serve::QueuedRequest a, b, c;
  EXPECT_TRUE(queue.TryPush(&a));
  EXPECT_TRUE(queue.TryPush(&b));
  EXPECT_FALSE(queue.TryPush(&c));  // Full: fails immediately.
  EXPECT_EQ(queue.size(), 2u);

  std::vector<serve::QueuedRequest> wave;
  EXPECT_TRUE(queue.PopWave(&wave, 8, /*linger_us=*/0));
  EXPECT_EQ(wave.size(), 2u);
  EXPECT_TRUE(queue.TryPush(&c));  // Space again.
}

TEST(RequestQueueTest, CloseDrainsThenSignalsShutdown) {
  serve::RequestQueue queue(4);
  serve::QueuedRequest a;
  EXPECT_TRUE(queue.TryPush(&a));
  queue.Close();
  serve::QueuedRequest late;
  EXPECT_FALSE(queue.TryPush(&late));  // Closed: rejected.

  std::vector<serve::QueuedRequest> wave;
  EXPECT_TRUE(queue.PopWave(&wave, 8, /*linger_us=*/0));  // Drains.
  EXPECT_EQ(wave.size(), 1u);
  EXPECT_FALSE(queue.PopWave(&wave, 8, /*linger_us=*/0));  // Shutdown.
}

TEST(RequestQueueTest, PopWaveCapsAtMax) {
  serve::RequestQueue queue(8);
  for (int i = 0; i < 6; ++i) {
    serve::QueuedRequest item;
    ASSERT_TRUE(queue.TryPush(&item));
  }
  std::vector<serve::QueuedRequest> wave;
  EXPECT_TRUE(queue.PopWave(&wave, 4, /*linger_us=*/0));
  EXPECT_EQ(wave.size(), 4u);
  wave.clear();
  EXPECT_TRUE(queue.PopWave(&wave, 4, /*linger_us=*/0));
  EXPECT_EQ(wave.size(), 2u);
}

// ------------------------------------------------------ model registry

TEST(ModelRegistryTest, PromoteSwapsActiveAndCountsSwaps) {
  ServeFixture& f = Fixture();
  ModelRegistry registry;
  auto [active, standby] = f.MakeBuffers();
  SsinInterpolator* active_raw = active.get();
  SsinInterpolator* standby_raw = standby.get();
  registry.Register("hk", std::move(active), std::move(standby));

  EXPECT_TRUE(registry.Contains("hk"));
  EXPECT_FALSE(registry.Contains("bw"));
  EXPECT_EQ(registry.Acquire("bw"), nullptr);
  EXPECT_EQ(registry.Acquire("hk").get(), active_raw);

  EXPECT_FALSE(registry.Promote("bw", *f.source_b));
  EXPECT_TRUE(registry.Promote("hk", *f.source_b));
  EXPECT_EQ(registry.promotions(), 1);
  // The standby buffer, now carrying generation-B weights, serves.
  EXPECT_EQ(registry.Acquire("hk").get(), standby_raw);
  ExpectExactly(registry.Acquire("hk")->InterpolateTimestamp(
                    f.data.Values(0), f.observed_ids, f.query_ids),
                f.expected_b[0], "promoted model");
}

TEST(ModelRegistryTest, MultipleResidentModelsServeIndependently) {
  ServeFixture& f = Fixture();
  ModelRegistry registry;
  auto [active_a, standby_a] = f.MakeBuffers();
  auto [active_b, standby_b] = f.MakeBuffers();
  active_b->CopyParametersFrom(*f.source_b);
  registry.Register("hk", std::move(active_a), std::move(standby_a));
  registry.Register("bw", std::move(active_b), std::move(standby_b));
  ASSERT_EQ(registry.Names().size(), 2u);
  ExpectExactly(registry.Acquire("hk")->InterpolateTimestamp(
                    f.data.Values(1), f.observed_ids, f.query_ids),
                f.expected_a[1], "model hk");
  ExpectExactly(registry.Acquire("bw")->InterpolateTimestamp(
                    f.data.Values(1), f.observed_ids, f.query_ids),
                f.expected_b[1], "model bw");
}

TEST(ModelRegistryTest, MismatchedPromoteIsRefusedAndKeepsServing) {
  ServeFixture& f = Fixture();
  ModelRegistry registry;
  auto [active, standby] = f.MakeBuffers();
  SsinInterpolator* active_raw = active.get();
  registry.Register("hk", std::move(active), std::move(standby));
  telemetry::Counter* rejected =
      telemetry::GetCounter("serve.promote_rejected_total");

  auto serve_all = [&] {
    std::vector<std::vector<double>> answers;
    for (int t = 0; t < f.data.num_timestamps(); ++t) {
      answers.push_back(registry.Acquire("hk")->InterpolateTimestamp(
          f.data.Values(t), f.observed_ids, f.query_ids));
    }
    return answers;
  };
  const std::vector<std::vector<double>> before = serve_all();

  // A wider model (d_model 16 vs the entry's 8) is refused without
  // aborting, swapping or touching the standby; so is an unprepared one.
  SpaFormerConfig wide = TinyModel();
  wide.d_model = 16;
  SsinInterpolator mismatched(wide, FastTraining(13));
  mismatched.Prepare(f.data, f.observed_ids);
  const int64_t rejected_before = rejected->Value();
  EXPECT_FALSE(registry.Promote("hk", mismatched));
  EXPECT_EQ(rejected->Value(), rejected_before + 1);
  SsinInterpolator unprepared(TinyModel(), FastTraining(13));
  EXPECT_FALSE(registry.Promote("hk", unprepared));
  EXPECT_EQ(rejected->Value(), rejected_before + 2);
  EXPECT_EQ(registry.promotions(), 0);
  EXPECT_EQ(registry.Acquire("hk").get(), active_raw);

  const std::vector<std::vector<double>> after = serve_all();
  ASSERT_EQ(after.size(), before.size());
  for (size_t t = 0; t < before.size(); ++t) {
    ExpectExactly(after[t], before[t], "after refused promote");
    ExpectExactly(after[t], f.expected_a[t], "generation A");
  }

  // The entry still takes a valid promotion.
  EXPECT_TRUE(registry.Promote("hk", *f.source_b));
  EXPECT_EQ(registry.promotions(), 1);
  EXPECT_EQ(rejected->Value(), rejected_before + 2);
  ExpectExactly(registry.Acquire("hk")->InterpolateTimestamp(
                    f.data.Values(0), f.observed_ids, f.query_ids),
                f.expected_b[0], "promoted model");
}

TEST(ModelRegistryTest, CopyParametersFromValidatesBeforeCopying) {
  // Only the FFN shapes differ (d_ff 64 vs 32), so the parameters ahead of
  // them match: a copy that validated as it went would already have
  // overwritten those before reaching the mismatch.
  ServeFixture& f = Fixture();
  auto [target, unused] = f.MakeBuffers();
  SpaFormerConfig wide_ffn = TinyModel();
  wide_ffn.d_ff = 64;
  SsinInterpolator source(wide_ffn, FastTraining(99));
  source.Prepare(f.data, f.observed_ids);

  std::string mismatch;
  EXPECT_FALSE(target->CopyParametersFrom(source, &mismatch));
  EXPECT_NE(mismatch.find("ffn"), std::string::npos) << mismatch;
  for (int t = 0; t < f.data.num_timestamps(); ++t) {
    ExpectExactly(target->InterpolateTimestamp(f.data.Values(t),
                                               f.observed_ids, f.query_ids),
                  f.expected_a[t], "after refused copy");
  }
  EXPECT_TRUE(target->CopyParametersFrom(*f.source_b));
  ExpectExactly(target->InterpolateTimestamp(f.data.Values(0),
                                             f.observed_ids, f.query_ids),
                f.expected_b[0], "after valid copy");
}

TEST(ModelRegistryTest, PromoteChangesWeightsOnly) {
  // The active serves f32 with a neighbor cap, a radius cut and the clamp
  // off; the standby was left at f64 with none of them. A swap must serve
  // the source's weights under the active's settings, not flip them.
  using Precision = SsinInterpolator::ServingPrecision;
  ServeFixture& f = Fixture();
  auto configure = [](SsinInterpolator* model) {
    model->set_serving_precision(Precision::kFloat32);
    model->SetNeighborK(5);
    model->SetNeighborRadius(20.0);
    model->set_non_negative(false);
  };
  ModelRegistry registry;
  auto [active, standby] = f.MakeBuffers();
  configure(active.get());
  ASSERT_EQ(standby->serving_precision(), Precision::kFloat64);
  registry.Register("hk", std::move(active), std::move(standby));
  ASSERT_TRUE(registry.Promote("hk", *f.source_b));

  std::shared_ptr<SsinInterpolator> served = registry.Acquire("hk");
  EXPECT_EQ(served->serving_precision(), Precision::kFloat32);
  EXPECT_EQ(served->neighbor_k(), 5);
  EXPECT_EQ(served->neighbor_radius_km(), 20.0);
  EXPECT_FALSE(served->non_negative());

  auto [reference, unused] = f.MakeBuffers();
  ASSERT_TRUE(reference->CopyParametersFrom(*f.source_b));
  configure(reference.get());
  int differs_from_f64 = 0;
  for (int t = 0; t < f.data.num_timestamps(); ++t) {
    const std::vector<double> got = served->InterpolateTimestamp(
        f.data.Values(t), f.observed_ids, f.query_ids);
    const std::vector<double> want = reference->InterpolateTimestamp(
        f.data.Values(t), f.observed_ids, f.query_ids);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(double)),
              0)
        << "timestamp " << t;
    if (got != f.expected_b[t]) ++differs_from_f64;
  }
  // The settings change the answers, so byte equality above is not the
  // f64 generation-B answer passing by coincidence.
  EXPECT_GT(differs_from_f64, 0);
}

TEST(ModelRegistryTest, PromoteRefusesUnshieldedStandbyForLimitedActive) {
  // Taking over the active's neighbor cap needs a shielded standby; an
  // unshielded one is refused like an architecture mismatch instead of
  // aborting the process.
  ServeFixture& f = Fixture();
  auto [active, unused] = f.MakeBuffers();
  active->SetNeighborK(5);
  SpaFormerConfig unshielded = TinyModel();
  unshielded.shielded = false;
  auto standby =
      std::make_shared<SsinInterpolator>(unshielded, FastTraining(13));
  standby->Prepare(f.data, f.observed_ids);
  SsinInterpolator* active_raw = active.get();
  ModelRegistry registry;
  registry.Register("hk", std::move(active), std::move(standby));
  telemetry::Counter* rejected =
      telemetry::GetCounter("serve.promote_rejected_total");
  const int64_t rejected_before = rejected->Value();
  EXPECT_FALSE(registry.Promote("hk", *f.source_b));
  EXPECT_EQ(rejected->Value(), rejected_before + 1);
  EXPECT_EQ(registry.promotions(), 0);
  EXPECT_EQ(registry.Acquire("hk").get(), active_raw);
}

// -------------------------------------------------- coalescing batcher

TEST(InterpolationServerTest, CoalescedBatchesMatchDirectCalls) {
  ServeFixture& f = Fixture();
  ServerConfig config;
  config.start_paused = true;  // Queue everything, then cut one wave.
  config.max_batch_size = 64;
  config.batch_linger_us = 0;
  InterpolationServer server(config);
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk", std::move(active), std::move(standby));

  // Two distinct layouts: timestamps 0..11 share the fixture layout; the
  // "holdout" layout queries one extra station. Coalescing must group them
  // separately and change no result.
  std::vector<int> holdout_observed = f.observed_ids;
  std::vector<int> holdout_query = f.query_ids;
  holdout_query.push_back(holdout_observed.back());
  holdout_observed.pop_back();
  const std::vector<double> holdout_direct =
      f.source_a->InterpolateTimestamp(f.data.Values(3), holdout_observed,
                                       holdout_query);

  std::vector<std::future<std::vector<double>>> futures(13);
  for (int t = 0; t < 12; ++t) {
    ASSERT_EQ(server.Submit(f.RequestFor(t), &futures[t]),
              SubmitStatus::kAccepted);
  }
  Request holdout;
  holdout.model = "hk";
  holdout.all_values = f.data.Values(3);
  holdout.observed_ids = holdout_observed;
  holdout.query_ids = holdout_query;
  ASSERT_EQ(server.Submit(std::move(holdout), &futures[12]),
            SubmitStatus::kAccepted);
  ASSERT_EQ(server.queue_depth(), 13u);

  server.Resume();
  for (int t = 0; t < 12; ++t) {
    ExpectExactly(futures[t].get(), f.expected_a[t], "coalesced request");
  }
  ExpectExactly(futures[12].get(), holdout_direct, "holdout layout");

  // Join the batcher so its post-dispatch bookkeeping (batch counter, SLO
  // observations) is complete before asserting on it.
  server.Shutdown();

  // All 13 queued requests were cut into exactly two micro-batches: one
  // per layout group — coalescing really happened.
  EXPECT_EQ(server.accepted_total(), 13);
  EXPECT_EQ(server.batches_total(), 2);
  const InterpolationServer::ModelSlo slo = server.Slo("hk");
  EXPECT_EQ(slo.requests, 13);
  EXPECT_GT(slo.p50_us, 0.0);
  EXPECT_LE(slo.p50_us, slo.p99_us);
  EXPECT_LE(slo.p99_us, slo.max_us);
}

TEST(InterpolationServerTest, BatchThreadFanOutChangesNoResult) {
  ServeFixture& f = Fixture();
  ServerConfig config;
  config.start_paused = true;
  config.batch_threads = 4;  // Fan each micro-batch across a pool.
  InterpolationServer server(config);
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk", std::move(active), std::move(standby));

  std::vector<std::future<std::vector<double>>> futures(8);
  for (int t = 0; t < 8; ++t) {
    ASSERT_EQ(server.Submit(f.RequestFor(t), &futures[t]),
              SubmitStatus::kAccepted);
  }
  server.Resume();
  for (int t = 0; t < 8; ++t) {
    ExpectExactly(futures[t].get(), f.expected_a[t], "fan-out request");
  }
}

// ----------------------------------------------------- admission control

TEST(InterpolationServerTest, FullQueueRejectsInsteadOfDeadlocking) {
  ServeFixture& f = Fixture();
  ServerConfig config;
  config.queue_capacity = 6;
  config.start_paused = true;  // Nothing drains: the queue must fill.
  InterpolationServer server(config);
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk", std::move(active), std::move(standby));

  std::vector<std::future<std::vector<double>>> futures(6);
  for (int t = 0; t < 6; ++t) {
    ASSERT_EQ(server.Submit(f.RequestFor(t), &futures[t]),
              SubmitStatus::kAccepted);
  }
  // Admission control: the 7th request fails fast — no blocking, no drop
  // of anything already accepted.
  std::future<std::vector<double>> rejected;
  EXPECT_EQ(server.Submit(f.RequestFor(6), &rejected),
            SubmitStatus::kQueueFull);
  EXPECT_EQ(server.rejected_total(), 1);
  EXPECT_EQ(server.accepted_total(), 6);

  server.Resume();
  for (int t = 0; t < 6; ++t) {
    ExpectExactly(futures[t].get(), f.expected_a[t], "accepted request");
  }
}

TEST(InterpolationServerTest, MalformedRequestsRejectedAtAdmission) {
  ServeFixture& f = Fixture();
  InterpolationServer server;
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk", std::move(active), std::move(standby));

  std::future<std::vector<double>> future;
  EXPECT_EQ(server.Submit(f.RequestFor(0, "no-such-model"), &future),
            SubmitStatus::kUnknownModel);

  Request overlapping = f.RequestFor(0);
  overlapping.query_ids.push_back(overlapping.observed_ids[0]);
  EXPECT_EQ(server.Submit(std::move(overlapping), &future),
            SubmitStatus::kInvalidRequest);

  Request out_of_range = f.RequestFor(0);
  out_of_range.query_ids.push_back(f.data.num_stations() + 7);
  EXPECT_EQ(server.Submit(std::move(out_of_range), &future),
            SubmitStatus::kInvalidRequest);

  // A NaN or Inf among the observed values would poison the instance
  // standardization and answer NaN for every query.
  Request nan_observed = f.RequestFor(0);
  nan_observed.all_values[nan_observed.observed_ids[2]] = std::nan("");
  EXPECT_EQ(server.Submit(std::move(nan_observed), &future),
            SubmitStatus::kInvalidRequest);
  Request inf_observed = f.RequestFor(0);
  inf_observed.all_values[inf_observed.observed_ids[0]] = HUGE_VAL;
  EXPECT_EQ(server.Submit(std::move(inf_observed), &future),
            SubmitStatus::kInvalidRequest);
  EXPECT_EQ(server.rejected_total(), 5);

  // Query values are never read, so a NaN there is served normally.
  Request nan_query = f.RequestFor(0);
  nan_query.all_values[nan_query.query_ids[0]] = std::nan("");
  ExpectExactly(server.Interpolate(std::move(nan_query)), f.expected_a[0],
                "NaN at a query station");

  // A well-formed request still sails through after the rejections.
  ExpectExactly(server.Interpolate(f.RequestFor(0)), f.expected_a[0],
                "post-rejection request");
}

TEST(InterpolationServerTest, ShutdownDrainsAcceptedThenRejects) {
  ServeFixture& f = Fixture();
  ServerConfig config;
  config.start_paused = true;
  InterpolationServer server(config);
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk", std::move(active), std::move(standby));

  std::vector<std::future<std::vector<double>>> futures(4);
  for (int t = 0; t < 4; ++t) {
    ASSERT_EQ(server.Submit(f.RequestFor(t), &futures[t]),
              SubmitStatus::kAccepted);
  }
  // Shutdown with the batcher paused: every accepted request must still be
  // served before the batcher exits.
  server.Shutdown();
  for (int t = 0; t < 4; ++t) {
    ExpectExactly(futures[t].get(), f.expected_a[t], "drained request");
  }
  std::future<std::vector<double>> late;
  EXPECT_EQ(server.Submit(f.RequestFor(0), &late), SubmitStatus::kShutdown);
}

// ------------------------------------------------------------ hot-swap

TEST(InterpolationServerTest, HotSwapUnderLoadDropsNothing) {
  ServeFixture& f = Fixture();
  ServerConfig config;
  config.queue_capacity = 4096;
  config.batch_linger_us = 50;
  config.batch_threads = 2;
  InterpolationServer server(config);
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk", std::move(active), std::move(standby));

  constexpr int kClients = 4;
  constexpr int kPerClient = 40;
  std::atomic<int> accepted{0};
  std::atomic<int> matched_a{0};
  std::atomic<int> matched_b{0};
  std::atomic<int> mismatched{0};

  auto client = [&](int seed) {
    for (int i = 0; i < kPerClient; ++i) {
      const int t = (seed * 7 + i) % f.data.num_timestamps();
      std::future<std::vector<double>> future;
      // The queue is sized for the whole burst: every submit must land.
      ASSERT_EQ(server.Submit(f.RequestFor(t), &future),
                SubmitStatus::kAccepted);
      accepted.fetch_add(1);
      const std::vector<double> result = future.get();
      // Zero-drop and no torn weights: each prediction matches one of the
      // two weight generations exactly, never a mixture.
      if (result == f.expected_a[t]) {
        matched_a.fetch_add(1);
      } else if (result == f.expected_b[t]) {
        matched_b.fetch_add(1);
      } else {
        mismatched.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(client, c + 1);
  }
  // Promote B, then A, then B again while the clients hammer the server —
  // three zero-drop swaps under sustained concurrent load.
  ASSERT_TRUE(server.registry().Promote("hk", *f.source_b));
  ASSERT_TRUE(server.registry().Promote("hk", *f.source_a));
  ASSERT_TRUE(server.registry().Promote("hk", *f.source_b));
  for (std::thread& thread : clients) thread.join();

  EXPECT_EQ(accepted.load(), kClients * kPerClient);
  EXPECT_EQ(mismatched.load(), 0);
  EXPECT_EQ(matched_a.load() + matched_b.load(), kClients * kPerClient);
  EXPECT_EQ(server.registry().promotions(), 3);

  // Post-swap requests serve the promoted (generation B) weights.
  ExpectExactly(server.Interpolate(f.RequestFor(0)), f.expected_b[0],
                "post-swap request");
}

TEST(InterpolationServerTest, ConcurrentLayoutMissesAcrossPromotes) {
  // Every pattern drops a different observed gauge, so after each Promote
  // the freshly active buffer misses its layout cache (and rebuilds its
  // station-pair SRPE table) while submitters and direct callers race on
  // it. Nothing may be dropped and every answer is exactly generation A
  // or B for its pattern.
  ServeFixture& f = Fixture();
  constexpr int kPatterns = 6;
  std::vector<std::vector<int>> patterns;
  std::vector<std::vector<std::vector<double>>> expected_a(kPatterns);
  std::vector<std::vector<std::vector<double>>> expected_b(kPatterns);
  for (int p = 0; p < kPatterns; ++p) {
    std::vector<int> observed = f.observed_ids;
    observed.erase(observed.begin() + p);
    for (int t = 0; t < f.data.num_timestamps(); ++t) {
      expected_a[p].push_back(f.source_a->InterpolateTimestamp(
          f.data.Values(t), observed, f.query_ids));
      expected_b[p].push_back(f.source_b->InterpolateTimestamp(
          f.data.Values(t), observed, f.query_ids));
    }
    patterns.push_back(std::move(observed));
  }

  ServerConfig config;
  config.queue_capacity = 4096;
  config.batch_linger_us = 20;
  config.batch_threads = 2;
  InterpolationServer server(config);
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk", std::move(active), std::move(standby));

  constexpr int kSubmitters = 4;
  constexpr int kDirectCallers = 2;
  constexpr int kPerThread = 30;
  std::atomic<int> served{0};
  std::atomic<int> mismatched{0};
  auto check = [&](int p, int t, const std::vector<double>& result) {
    served.fetch_add(1);
    if (result != expected_a[p][t] && result != expected_b[p][t]) {
      mismatched.fetch_add(1);
    }
  };
  auto submitter = [&](int seed) {
    for (int i = 0; i < kPerThread; ++i) {
      const int p = (seed + i) % kPatterns;
      const int t = (seed * 5 + i) % f.data.num_timestamps();
      Request request = f.RequestFor(t);
      request.observed_ids = patterns[p];
      std::future<std::vector<double>> future;
      ASSERT_EQ(server.Submit(std::move(request), &future),
                SubmitStatus::kAccepted);
      check(p, t, future.get());
    }
  };
  // Direct callers hit the active buffer from their own threads, so two
  // misses on one instance can build its table at the same time.
  auto direct_caller = [&](int seed) {
    for (int i = 0; i < kPerThread; ++i) {
      const int p = (seed + 2 * i) % kPatterns;
      const int t = (seed + i) % f.data.num_timestamps();
      std::shared_ptr<SsinInterpolator> model =
          server.registry().Acquire("hk");
      check(p, t, model->InterpolateTimestamp(f.data.Values(t), patterns[p],
                                              f.query_ids));
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kSubmitters; ++c) threads.emplace_back(submitter, c);
  for (int c = 0; c < kDirectCallers; ++c) {
    threads.emplace_back(direct_caller, c + 1);
  }
  // Promoting a generation twice in a row hands each buffer the other
  // generation's weights in turn, so a table that outlived its weights
  // would serve a mixture of the two.
  for (SsinInterpolator* source : {f.source_b.get(), f.source_b.get(),
                                   f.source_a.get(), f.source_a.get(),
                                   f.source_b.get(), f.source_a.get()}) {
    ASSERT_TRUE(server.registry().Promote("hk", *source));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(served.load(), (kSubmitters + kDirectCallers) * kPerThread);
  EXPECT_EQ(mismatched.load(), 0);
  EXPECT_EQ(server.rejected_total(), 0);
  // The last promotion installed generation A.
  for (int p = 0; p < kPatterns; ++p) {
    Request request = f.RequestFor(1);
    request.observed_ids = patterns[p];
    ExpectExactly(server.Interpolate(std::move(request)), expected_a[p][1],
                  "post-swap request");
  }
}

// ------------------------------------------------- windowed SLO metrics

TEST(InterpolationServerTest, SloWindowViewConvergesToLifetime) {
  ServeFixture& f = Fixture();
  // The windowed metrics are process-global; start this test from zero so
  // earlier tests' requests don't sit in the trailing window.
  telemetry::MetricsRegistry::Global().Reset();
  ServerConfig config;
  config.start_paused = true;
  config.max_batch_size = 16;
  config.batch_linger_us = 0;
  InterpolationServer server(config);
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk-slo", std::move(active), std::move(standby));

  constexpr int kRequests = 48;
  std::vector<std::future<std::vector<double>>> futures(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_EQ(server.Submit(
                  f.RequestFor(i % f.data.num_timestamps(), "hk-slo"),
                  &futures[i]),
              SubmitStatus::kAccepted);
  }
  server.Resume();
  for (auto& future : futures) future.get();
  server.Shutdown();  // Joins the batcher: every SLO observation landed.

  // A steady load entirely inside one 60s window retains identical sample
  // sets in both views, so the window statistics converge to the lifetime
  // ones exactly — bit-equal quantiles, not approximations.
  const InterpolationServer::ModelSlo slo = server.Slo("hk-slo");
  EXPECT_EQ(slo.requests, kRequests);
  EXPECT_EQ(slo.window_seconds, telemetry::kWindowSeconds);
  EXPECT_EQ(slo.window_requests, kRequests);
  EXPECT_GT(slo.p99_us, 0.0);
  EXPECT_EQ(slo.window_p50_us, slo.p50_us);
  EXPECT_EQ(slo.window_p99_us, slo.p99_us);
  EXPECT_EQ(slo.window_max_us, slo.max_us);

  EXPECT_EQ(server.accepted_window(), kRequests);
  EXPECT_EQ(server.rejected_window(), 0);
  const telemetry::HistogramSnapshot window =
      server.WindowLatencySnapshot("hk-slo");
  EXPECT_EQ(window.count, kRequests);
}

TEST(InterpolationServerTest, WindowCountsArePerServer) {
  // No registry reset: the process-wide serve.* counters carry every
  // earlier test's traffic and server B's rejects, but a server's own
  // window counts, and so its health, see only its own traffic.
  ServeFixture& f = Fixture();
  InterpolationServer server_a;
  InterpolationServer server_b;
  auto [active, standby] = f.MakeBuffers();
  server_a.registry().Register("hk-a", std::move(active), std::move(standby));
  ExpectExactly(server_a.Interpolate(f.RequestFor(0, "hk-a")),
                f.expected_a[0], "server A");

  telemetry::Counter* process_rejected =
      telemetry::GetCounter("serve.rejected_total");
  const int64_t process_rejected_before = process_rejected->Value();
  for (int i = 0; i < 10; ++i) {
    std::future<std::vector<double>> refused;
    ASSERT_EQ(server_b.Submit(f.RequestFor(0, "no-such-model"), &refused),
              SubmitStatus::kUnknownModel);
  }
  EXPECT_EQ(process_rejected->Value(), process_rejected_before + 10);
  EXPECT_EQ(server_b.rejected_window(), 10);
  EXPECT_EQ(server_b.rejected_total(), 10);
  EXPECT_EQ(server_b.accepted_window(), 0);

  EXPECT_EQ(server_a.rejected_window(), 0);
  EXPECT_EQ(server_a.rejected_total(), 0);
  EXPECT_EQ(server_a.accepted_window(), 1);
  HealthMonitor monitor_a(&server_a);
  const ServerStatus status_a = monitor_a.Evaluate();
  EXPECT_EQ(status_a.window_rejected, 0);
  EXPECT_EQ(status_a.shed_ratio, 0.0);
  EXPECT_EQ(status_a.state, HealthState::kHealthy);
  HealthMonitor monitor_b(&server_b);
  EXPECT_EQ(monitor_b.Evaluate().state, HealthState::kShedding);
}

// ---------------------------------------------------- request tracing

TEST(InterpolationServerTest, RequestSpansShareOneTraceIdAndExportFlow) {
  if (!telemetry::CompiledIn()) GTEST_SKIP() << "telemetry compiled out";
  ServeFixture& f = Fixture();
  telemetry::SetEnabled(true);
  telemetry::ResetAll();
  {
    ServerConfig config;
    config.start_paused = true;
    config.batch_linger_us = 0;
    InterpolationServer server(config);
    auto [active, standby] = f.MakeBuffers();
    server.registry().Register("hk-flow", std::move(active),
                               std::move(standby));
    std::future<std::vector<double>> future;
    ASSERT_EQ(server.Submit(f.RequestFor(0, "hk-flow"), &future),
              SubmitStatus::kAccepted);
    server.Resume();
    future.get();
    server.Shutdown();
  }

  // One submitted request must leave serve.submit (submit thread),
  // serve.queue_wait + serve.dispatch (batcher thread) and serve.predict
  // (engine) spans all tagged with the same nonzero trace id.
  uint64_t trace_id = 0;
  std::map<std::string, int> tagged;
  for (const telemetry::ThreadTrace& trace :
       telemetry::TraceRecorder::Global().Snapshot()) {
    for (const telemetry::SpanEvent& event : trace.events) {
      if (event.trace_id == 0) continue;
      if (trace_id == 0) trace_id = event.trace_id;
      EXPECT_EQ(event.trace_id, trace_id) << event.name;
      ++tagged[event.name];
    }
  }
  ASSERT_NE(trace_id, 0u);
  EXPECT_EQ(tagged["serve.submit"], 1);
  EXPECT_EQ(tagged["serve.queue_wait"], 1);
  EXPECT_EQ(tagged["serve.dispatch"], 1);
  EXPECT_GE(tagged["serve.predict"], 1);

  // The exported report stitches those spans into one Perfetto flow: a
  // start arrow, a binding finish, and the shared id on every slice.
  const std::string report = telemetry::ReportJson("serve");
  telemetry::SetEnabled(false);
  telemetry::ResetAll();
  const std::string id_text = "\"trace_id\":" + std::to_string(trace_id);
  int id_count = 0;
  for (size_t pos = report.find(id_text); pos != std::string::npos;
       pos = report.find(id_text, pos + id_text.size())) {
    ++id_count;
  }
  EXPECT_GE(id_count, 4);
  EXPECT_NE(report.find("\"ph\":\"s\""), std::string::npos) << report;
  EXPECT_NE(report.find("\"ph\":\"f\""), std::string::npos) << report;
  EXPECT_NE(report.find("\"cat\":\"ssin.flow\""), std::string::npos);
  EXPECT_NE(report.find("\"serve.request\""), std::string::npos);
}

TEST(InterpolationServerTest, NoTraceIdsAssignedWhenTelemetryDisabled) {
  ServeFixture& f = Fixture();
  ASSERT_FALSE(telemetry::Enabled());
  InterpolationServer server;
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk-noflow", std::move(active),
                             std::move(standby));
  ExpectExactly(server.Interpolate(f.RequestFor(0, "hk-noflow")),
                f.expected_a[0], "untraced request");
  for (const telemetry::ThreadTrace& trace :
       telemetry::TraceRecorder::Global().Snapshot()) {
    EXPECT_TRUE(trace.events.empty());
  }
}

// ------------------------------------------------------- health monitor

TEST(HealthMonitorTest, HealthyOnIdleServer) {
  ServeFixture& f = Fixture();
  telemetry::MetricsRegistry::Global().Reset();
  InterpolationServer server;
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk-idle", std::move(active),
                             std::move(standby));
  HealthMonitor monitor(&server);
  const ServerStatus status = monitor.Evaluate();
  EXPECT_EQ(status.state, HealthState::kHealthy);
  EXPECT_EQ(monitor.transitions(), 0);
  EXPECT_EQ(telemetry::GetGauge("serve.health_state")->Value(), 0.0);
}

TEST(HealthMonitorTest, DegradedWhenWindowP99ExceedsTarget) {
  ServeFixture& f = Fixture();
  telemetry::MetricsRegistry::Global().Reset();
  InterpolationServer server;
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk-deg", std::move(active),
                             std::move(standby));
  for (int t = 0; t < 10; ++t) {
    server.Interpolate(f.RequestFor(t % f.data.num_timestamps(), "hk-deg"));
  }
  // Join the batcher: the SLO observation lands after the promise is
  // fulfilled, so without this the last request's latency could still be
  // in flight when the monitor samples.
  server.Shutdown();

  // An impossible latency target: every retained window sample breaches
  // it, so the burn rate saturates and the state degrades. Shedding
  // signals are pushed out of reach so only the SLO drives the fold.
  HealthMonitor::Options strict;
  strict.thresholds.slo_p99_us = 1e-3;
  strict.thresholds.queue_saturation = 2.0;
  strict.thresholds.shed_ratio = 2.0;
  HealthMonitor monitor(&server, strict);
  const ServerStatus status = monitor.Evaluate();
  EXPECT_EQ(status.state, HealthState::kDegraded);
  EXPECT_EQ(monitor.transitions(), 1);
  EXPECT_GT(status.worst_window_p99_us, 0.0);
  ASSERT_EQ(status.models.size(), 1u);
  EXPECT_EQ(status.models[0].model, "hk-deg");
  EXPECT_EQ(status.models[0].window_requests, 10);
  EXPECT_EQ(status.models[0].burn_rate, 1.0);
  EXPECT_EQ(telemetry::GetGauge("serve.health_state")->Value(), 1.0);

  // The same traffic judged against a generous target is healthy: the
  // state is a property of thresholds over the window, not of lifetime
  // history.
  HealthMonitor generous(&server);
  EXPECT_EQ(generous.Evaluate().state, HealthState::kHealthy);
  EXPECT_EQ(generous.transitions(), 0);
}

TEST(HealthMonitorTest, SheddingWhenQueueSaturatesThenRecovers) {
  ServeFixture& f = Fixture();
  telemetry::MetricsRegistry::Global().Reset();
  ServerConfig config;
  config.queue_capacity = 4;
  config.start_paused = true;
  InterpolationServer server(config);
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk-shed", std::move(active),
                             std::move(standby));

  // Shed-ratio threshold out of reach: the windowed reject count outlives
  // the drain below, and this test pins the queue-saturation signal and
  // the recovery transition.
  HealthMonitor::Options options;
  options.thresholds.slo_p99_us = 1e9;
  options.thresholds.shed_ratio = 2.0;
  HealthMonitor monitor(&server, options);
  ASSERT_EQ(monitor.Evaluate().state, HealthState::kHealthy);

  std::vector<std::future<std::vector<double>>> futures(4);
  for (int t = 0; t < 4; ++t) {
    ASSERT_EQ(server.Submit(f.RequestFor(t, "hk-shed"), &futures[t]),
              SubmitStatus::kAccepted);
  }
  std::future<std::vector<double>> overflow;
  ASSERT_EQ(server.Submit(f.RequestFor(4, "hk-shed"), &overflow),
            SubmitStatus::kQueueFull);

  const ServerStatus overloaded = monitor.Evaluate();
  EXPECT_EQ(overloaded.state, HealthState::kShedding);
  EXPECT_EQ(overloaded.queue_fill, 1.0);
  EXPECT_EQ(overloaded.window_rejected, 1);
  EXPECT_EQ(telemetry::GetGauge("serve.health_state")->Value(), 2.0);
  // The structured status renders as JSON for ops endpoints.
  const std::string json = overloaded.Json();
  EXPECT_NE(json.find("\"state\":\"shedding\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"queue_fill\":1"), std::string::npos) << json;

  server.Resume();
  for (auto& future : futures) future.get();
  EXPECT_EQ(monitor.Evaluate().state, HealthState::kHealthy);
  // healthy -> shedding -> healthy, counted in the transitions metric too.
  EXPECT_EQ(monitor.transitions(), 2);
  EXPECT_EQ(telemetry::GetCounter("serve.health_transitions_total")->Value(),
            2);
}

TEST(HealthMonitorTest, BackgroundSamplerKeepsLastStatusFresh) {
  ServeFixture& f = Fixture();
  telemetry::MetricsRegistry::Global().Reset();
  InterpolationServer server;
  auto [active, standby] = f.MakeBuffers();
  server.registry().Register("hk-bg", std::move(active), std::move(standby));

  HealthMonitor::Options options;
  options.sample_interval_ms = 1;
  HealthMonitor monitor(&server, options);
  monitor.Start();
  monitor.Start();  // Idempotent.
  // The sampler evaluates immediately on start; wait for one sample.
  for (int spin = 0; spin < 1000; ++spin) {
    if (monitor.LastStatus().sampled_at_ns != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_NE(monitor.LastStatus().sampled_at_ns, 0);
  EXPECT_EQ(monitor.LastStatus().state, HealthState::kHealthy);
  monitor.Stop();
  monitor.Stop();  // Idempotent.
}

}  // namespace
}  // namespace ssin
