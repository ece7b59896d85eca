#include "nn/inference.h"

#include "nn/module.h"

namespace ssin {

size_t InferenceWorkspace::ArenaBytes() const {
  return f64_.Bytes() + f32_.Bytes();
}

std::shared_ptr<const F32WeightCache::Map> F32WeightCache::EnsureFrom(
    Module* module) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (snapshot_ != nullptr) return snapshot_;
  }
  // Convert outside the lock — parameters are stable while serving — then
  // publish; if two threads race, the second build wins and both maps hold
  // identical values.
  auto map = std::make_shared<Map>();
  for (Parameter* p : module->Parameters()) {
    map->emplace(p, TensorF32::FromTensor(p->value));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (snapshot_ == nullptr) {
    snapshot_ = std::move(map);
    conversions_.fetch_add(1, std::memory_order_relaxed);
  }
  return snapshot_;
}

void F32WeightCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  invalidations_.fetch_add(1, std::memory_order_relaxed);
  snapshot_.reset();
}

bool F32WeightCache::empty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_ == nullptr;
}

const double* ServingWeights<double>::operator()(const Parameter* p) const {
  return p != nullptr ? p->value.data() : nullptr;
}

const float* ServingWeights<float>::operator()(const Parameter* p) const {
  return p != nullptr ? map_->at(p).data() : nullptr;
}

}  // namespace ssin
