#include "nn/transformer.h"

#include <string>

#include "common/simd.h"
#include "common/telemetry.h"
#include "nn/fused_serving.h"

namespace ssin {

EncoderLayer::EncoderLayer(int d_model, int num_heads, int d_k, int d_ff,
                           const AttentionConfig& config, Rng* rng)
    : attention_(d_model, num_heads, d_k, config, rng),
      ffn_(d_model, d_ff, d_model, /*relu=*/true, /*bias=*/true, rng),
      norm1_(d_model),
      norm2_(d_model) {
  RegisterSubmodule("attn", &attention_);
  RegisterSubmodule("ffn", &ffn_);
  RegisterSubmodule("norm1", &norm1_);
  RegisterSubmodule("norm2", &norm2_);
}

Var EncoderLayer::Forward(Var x, Var srpe,
                          std::shared_ptr<const AttentionPlan> plan) {
  Var attn;
  {
    SSIN_TRACE_SPAN("encoder.attention");
    attn = attention_.Forward(x, srpe, std::move(plan));
  }
  SSIN_TRACE_SPAN("encoder.ffn");
  x = norm1_.Forward(Add(x, attn));
  Var ff = ffn_.Forward(x);
  return norm2_.Forward(Add(x, ff));
}

template <typename T>
TensorT<T>& EncoderLayer::Infer(const TensorT<T>& x, const TensorT<T>* srpe,
                                const AttentionPlan& plan, int tail_begin,
                                const ServingWeights<T>& w,
                                InferenceWorkspace* ws) const {
  const int length = x.dim(0);
  const int dm = x.dim(1);
  const int nq = length - tail_begin;
  const Linear& wo = attention_.output_proj();
  const Linear& fc1 = ffn_.first();
  const Linear& fc2 = ffn_.second();
  const int d_ff = fc1.out_features();
  TensorT<T>* concat = ws->Acquire<T>({nq, wo.in_features()});
  {
    SSIN_TRACE_SPAN("encoder.attention");
    attention_.InferConcat(x, srpe, plan, tail_begin, w, ws, concat);
  }
  SSIN_TRACE_SPAN("encoder.ffn");
  // One scratch slab serves both fused sublayers: [d_ff] hidden tile +
  // [dm] row temporary.
  T* hidden = ws->Scratch<T>(static_cast<size_t>(d_ff) + dm);
  T* tmp = hidden + d_ff;
  TensorT<T>* x1 = ws->Acquire<T>({nq, dm});
  fused::FusedAttentionEpilogueRows<T, simd::VecOps>(
      concat->data(), nq, wo.in_features(), w(wo.weight_param()),
      w(wo.bias_param()), dm, x.data() + static_cast<int64_t>(tail_begin) * dm,
      w(norm1_.gamma_param()), w(norm1_.beta_param()),
      static_cast<T>(norm1_.eps()), tmp, x1->data());
  TensorT<T>* out = ws->Acquire<T>({nq, dm});
  fused::FusedFfnRows<T, simd::VecOps>(
      x1->data(), nq, dm, d_ff, w(fc1.weight_param()), w(fc1.bias_param()),
      w(fc2.weight_param()), w(fc2.bias_param()), ffn_.relu(),
      w(norm2_.gamma_param()), w(norm2_.beta_param()),
      static_cast<T>(norm2_.eps()), hidden, tmp, out->data());
  return *out;
}

Encoder::Encoder(int num_layers, int d_model, int num_heads, int d_k,
                 int d_ff, const AttentionConfig& config, Rng* rng) {
  SSIN_CHECK_GE(num_layers, 1);
  layers_.reserve(num_layers);
  for (int t = 0; t < num_layers; ++t) {
    layers_.push_back(std::make_unique<EncoderLayer>(d_model, num_heads, d_k,
                                                     d_ff, config, rng));
    RegisterSubmodule("layer" + std::to_string(t), layers_.back().get());
  }
}

Var Encoder::Forward(Var x, Var srpe,
                     std::shared_ptr<const AttentionPlan> plan) {
  for (auto& layer : layers_) {
    x = layer->Forward(x, srpe, plan);
  }
  return x;
}

template <typename T>
TensorT<T>& Encoder::Infer(const TensorT<T>& x, const TensorT<T>* srpe,
                           const AttentionPlan& plan, int tail_begin,
                           const ServingWeights<T>& w,
                           InferenceWorkspace* ws) const {
  const TensorT<T>* cur = &x;
  for (size_t t = 0; t + 1 < layers_.size(); ++t) {
    cur = &layers_[t]->Infer(*cur, srpe, plan, /*tail_begin=*/0, w, ws);
  }
  return layers_.back()->Infer(*cur, srpe, plan, tail_begin, w, ws);
}

// The serving forward's instantiation point: one per element type.
template Tensor& Encoder::Infer<double>(const Tensor&, const Tensor*,
                                        const AttentionPlan&, int,
                                        const ServingWeights<double>&,
                                        InferenceWorkspace*) const;
template TensorF32& Encoder::Infer<float>(const TensorF32&, const TensorF32*,
                                          const AttentionPlan&, int,
                                          const ServingWeights<float>&,
                                          InferenceWorkspace*) const;

}  // namespace ssin
