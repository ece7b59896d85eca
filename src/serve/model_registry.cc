#include "serve/model_registry.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "common/telemetry.h"

namespace ssin {
namespace serve {

namespace {

telemetry::Counter* HotSwapsCounter() {
  static telemetry::Counter* counter =
      telemetry::GetCounter("serve.hot_swaps_total");
  return counter;
}

telemetry::Counter* PromoteRejectedCounter() {
  static telemetry::Counter* counter =
      telemetry::GetCounter("serve.promote_rejected_total");
  return counter;
}

}  // namespace

void ModelRegistry::Register(const std::string& name,
                             std::shared_ptr<SsinInterpolator> active,
                             std::shared_ptr<SsinInterpolator> standby) {
  SSIN_CHECK(active != nullptr && standby != nullptr);
  SSIN_CHECK(active.get() != standby.get())
      << "active and standby must be distinct instances";
  auto entry = std::make_shared<Entry>();
  entry->active.model = std::move(active);
  entry->standby.model = std::move(standby);
  std::lock_guard<std::mutex> lock(map_mu_);
  entries_[name] = std::move(entry);
}

std::shared_ptr<ModelRegistry::Entry> ModelRegistry::FindEntry(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(map_mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second;
}

std::shared_ptr<SsinInterpolator> ModelRegistry::Acquire(
    const std::string& name) const {
  std::shared_ptr<Entry> entry = FindEntry(name);
  if (entry == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(entry->state_mu);
  // Pin the buffer the caller is about to read. The pin outlives the
  // state_mu hold: it is released — with release ordering — by the deleter
  // of the aliased shared_ptr below, when the caller drops its last copy.
  // Promote()'s acquire-load of pins == 0 therefore happens-after the
  // caller's final access to the weights.
  std::shared_ptr<std::atomic<int64_t>> pins = entry->active.pins;
  pins->fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<SsinInterpolator> inner = entry->active.model;
  SsinInterpolator* raw = inner.get();
  return std::shared_ptr<SsinInterpolator>(
      raw, [inner = std::move(inner),
            pins = std::move(pins)](SsinInterpolator*) mutable {
        pins->fetch_sub(1, std::memory_order_release);
        inner.reset();
      });
}

bool ModelRegistry::Promote(const std::string& name,
                            SsinInterpolator& source) {
  std::shared_ptr<Entry> entry = FindEntry(name);
  if (entry == nullptr) return false;
  // One promotion at a time per model; the state_mu is never held across
  // the weight copy, so Acquire() stays non-blocking throughout.
  std::lock_guard<std::mutex> promote_lock(entry->promote_mu);
  Buffer standby;
  std::shared_ptr<SsinInterpolator> active;
  {
    std::lock_guard<std::mutex> lock(entry->state_mu);
    standby = entry->standby;
    active = entry->active.model;
  }
  // The standby was the active model two promotions ago, and a batch
  // dispatched back then may still hold it — copying weights under a
  // reader would race. Acquire() only ever pins `active` (under state_mu,
  // so never after the swap below made this buffer standby again), so no
  // *new* pin on the standby can appear; an acquire-load of zero pins
  // synchronizes with the last reader's release-decrement, ordering its
  // final weight reads before our writes. (shared_ptr::use_count() is a
  // relaxed load and would order nothing.)
  while (standby.pins->load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  // CopyParametersFrom validates the whole architecture before writing
  // anything, so a refused candidate leaves the standby untouched and the
  // active model serving. A successful copy invalidates the standby's
  // serving caches (layouts, f32 weight snapshots, arena peak), so
  // post-swap requests rebuild everything from the promoted weights. The
  // standby also takes over the active's neighbor limits below, which need
  // shielded attention: an unshielded standby is refused here instead of
  // aborting there.
  std::string mismatch;
  bool copied = false;
  const bool limited =
      active->neighbor_k() > 0 || active->neighbor_radius_km() > 0.0;
  if (limited && !standby.model->model()->config().shielded) {
    mismatch = "standby is unshielded but the active model limits neighbors";
  } else {
    copied = standby.model->CopyParametersFrom(source, &mismatch);
  }
  if (!copied) {
    SSIN_LOG(Warn) << "promote of model '" << name
                   << "' refused, architecture mismatch: " << mismatch;
    PromoteRejectedCounter()->Add(1);
    return false;
  }
  // A swap changes weights only: the standby serves with the active's
  // precision, neighbor limits and output clamp, whatever it was
  // configured with. (The neighbor setters invalidate the standby's
  // serving caches again only when a value actually changes.)
  standby.model->set_serving_precision(active->serving_precision());
  standby.model->SetNeighborK(active->neighbor_k());
  standby.model->SetNeighborRadius(active->neighbor_radius_km());
  standby.model->set_non_negative(active->non_negative());
  {
    std::lock_guard<std::mutex> lock(entry->state_mu);
    std::swap(entry->active, entry->standby);
  }
  promotions_.fetch_add(1, std::memory_order_relaxed);
  HotSwapsCounter()->Add(1);
  return true;
}

bool ModelRegistry::Contains(const std::string& name) const {
  return FindEntry(name) != nullptr;
}

std::vector<std::string> ModelRegistry::Names() const {
  std::lock_guard<std::mutex> lock(map_mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

}  // namespace serve
}  // namespace ssin
