#ifndef SSIN_NN_INFERENCE_H_
#define SSIN_NN_INFERENCE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.h"

namespace ssin {

class Module;
struct Parameter;

/// Reusable activation buffers for one graph-free forward pass.
///
/// The inference path (SpaFormer::Predict / PredictF32) evaluates the
/// network without an autograd Graph: no tape nodes, no backward closures,
/// no gradient buffers. Intermediate activations instead come from this
/// bump-allocated arena: Acquire() hands out tensors in call order and
/// Reset() rewinds the cursor, so after the first sequence every subsequent
/// forward pass with the same shapes runs allocation-free. A workspace is
/// single-threaded by design — batched serving keeps one per thread-pool
/// slot.
///
/// Each element type (double, float) has its own arena — slots, cursor
/// and scratch — so mixed use of one workspace (layout embedding in f64,
/// then f32 serving) never aliases storage across precisions.
class InferenceWorkspace {
 public:
  InferenceWorkspace() = default;
  InferenceWorkspace(const InferenceWorkspace&) = delete;
  InferenceWorkspace& operator=(const InferenceWorkspace&) = delete;

  /// Rewinds both arenas; previously acquired tensors may be handed out
  /// again. Call once at the start of each sequence.
  void Reset() {
    f64_.cursor = 0;
    f32_.cursor = 0;
  }

  /// Next arena tensor of element type T, reshaped to `shape` if it does
  /// not match. Contents are unspecified (kernels that accumulate must
  /// clear it). The returned pointer stays valid until the workspace is
  /// destroyed; the *contents* are valid until the next Reset().
  template <typename T = double>
  TensorT<T>* Acquire(const std::vector<int>& shape) {
    Arena<T>& a = arena<T>();
    if (a.cursor == a.slots.size()) {
      a.slots.push_back(std::make_unique<TensorT<T>>(shape));
    }
    TensorT<T>* t = a.slots[a.cursor++].get();
    if (t->shape() != shape) *t = TensorT<T>(shape);
    return t;
  }

  /// Reusable flat scratch for the serving kernels' per-row tiles (FFN
  /// hidden + epilogue temporaries). Grows monotonically, never shrinks;
  /// contents are unspecified. Unlike Acquire there is no cursor — each
  /// encoder layer re-slices the same buffer, which is what keeps the
  /// [L, d_ff] hidden activation out of the arena entirely.
  template <typename T>
  T* Scratch(size_t n) {
    std::vector<T>& scratch = arena<T>().scratch;
    if (scratch.size() < n) scratch.resize(n);
    return scratch.data();
  }

  /// Per-query score scratch for the packed attention kernel.
  template <typename T>
  std::vector<T>* scores() {
    return &arena<T>().scores;
  }

  /// Pointer-table scratch for the fused QKV projection (the per-head
  /// weight pointers).
  template <typename T>
  std::vector<const T*>* weight_ptrs() {
    return &arena<T>().weight_ptrs;
  }

  /// Arena slots allocated so far (test hook: steady-state forward passes
  /// must not grow it).
  size_t num_slots() const { return f64_.slots.size(); }
  size_t num_f32_slots() const { return f32_.slots.size(); }

  /// Total bytes held by the arena tensors (both precisions) plus the
  /// scratch tiles (telemetry: serve.workspace_arena_bytes gauges the
  /// per-call value, serve.arena_peak_bytes the process peak).
  size_t ArenaBytes() const;

 private:
  template <typename T>
  struct Arena {
    // unique_ptr slots: the vector may grow while earlier tensors are
    // still referenced by the caller, so the tensors must not move.
    std::vector<std::unique_ptr<TensorT<T>>> slots;
    size_t cursor = 0;
    std::vector<T> scratch;
    std::vector<T> scores;
    std::vector<const T*> weight_ptrs;

    size_t Bytes() const {
      size_t bytes = scratch.size() * sizeof(T);
      for (const auto& slot : slots) {
        bytes += static_cast<size_t>(slot->numel()) * sizeof(T);
      }
      return bytes;
    }
  };

  template <typename T>
  Arena<T>& arena() {
    if constexpr (std::is_same_v<T, double>) {
      return f64_;
    } else {
      return f32_;
    }
  }

  Arena<double> f64_;
  Arena<float> f32_;
};

/// Float32 snapshots of a module's trained f64 parameters, converted once
/// and shared immutably by every f32 forward pass.
///
/// The snapshot is keyed by Parameter pointer — the f32 forward looks
/// its weights up with the same Parameter* it trains through, so there is
/// no separate naming scheme to keep in sync. Like cached SequenceLayouts,
/// a snapshot bakes in the weights it was converted from: the owning
/// interpolator must Clear() on every weight mutation (training, load,
/// parameter copy), and the hit/invalidation counters let tests pin that
/// contract. Cleared snapshots stay alive for in-flight passes via
/// shared_ptr.
class F32WeightCache {
 public:
  using Map = std::unordered_map<const Parameter*, TensorF32>;

  /// The current snapshot, converting `module`'s parameters first if none
  /// exists (double-checked under a mutex; safe for concurrent servers).
  std::shared_ptr<const Map> EnsureFrom(Module* module);

  /// Drops the snapshot (a weight-mutation invalidation).
  void Clear();

  bool empty() const;

  /// Statistics: conversions() counts snapshot builds, invalidations()
  /// counts Clear() calls.
  int64_t conversions() const {
    return conversions_.load(std::memory_order_relaxed);
  }
  int64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const Map> snapshot_;
  std::atomic<int64_t> conversions_{0};
  std::atomic<int64_t> invalidations_{0};
};

/// Where the graph-free forward reads a parameter in element type T: the
/// trained f64 value itself for double, its entry in a converted
/// F32WeightCache snapshot for float. An absent parameter (a bias-free
/// layer's bias) resolves to null. This is the only place the serving
/// forward differs by precision.
template <typename T>
class ServingWeights;

template <>
class ServingWeights<double> {
 public:
  const double* operator()(const Parameter* p) const;
};

template <>
class ServingWeights<float> {
 public:
  explicit ServingWeights(const F32WeightCache::Map& map) : map_(&map) {}
  const float* operator()(const Parameter* p) const;

 private:
  const F32WeightCache::Map* map_;
};

}  // namespace ssin

#endif  // SSIN_NN_INFERENCE_H_
