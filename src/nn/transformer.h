#ifndef SSIN_NN_TRANSFORMER_H_
#define SSIN_NN_TRANSFORMER_H_

#include <memory>
#include <vector>

#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace ssin {

/// One Interpolation Transformer Module layer (paper §3.3.3): shielded
/// self-attention with SRPE followed by a position-wise feed-forward
/// network, each wrapped in residual + post-LayerNorm
/// (x = LayerNorm(x + Sublayer(x))).
class EncoderLayer : public Module {
 public:
  EncoderLayer(int d_model, int num_heads, int d_k, int d_ff,
               const AttentionConfig& config, Rng* rng);

  Var Forward(Var x, Var srpe, std::shared_ptr<const AttentionPlan> plan);

  /// Graph-free serving forward in element type T, evaluated for the
  /// rows [tail_begin, L) only (pass 0 for every row); keys/values still
  /// span all of x, so each returned row equals the matching row of a
  /// full evaluation. Returns [L - tail_begin, d_model]. The layer runs as
  /// three row-wise kernels (src/nn/fused_serving.h): one QKV pass, the
  /// attention epilogue (head concat · W^O + residual + LayerNorm) and
  /// the whole FFN sublayer, whose [d_ff] hidden activation lives in a
  /// scratch tile instead of an [L, d_ff] arena tensor. For double the
  /// result matches Forward to rounding (tests pin it at 1e-12).
  template <typename T>
  TensorT<T>& Infer(const TensorT<T>& x, const TensorT<T>* srpe,
                    const AttentionPlan& plan, int tail_begin,
                    const ServingWeights<T>& w, InferenceWorkspace* ws) const;

 private:
  MultiHeadSpaAttention attention_;
  Fcn2 ffn_;
  LayerNormLayer norm1_;
  LayerNormLayer norm2_;
};

/// Stack of T identical encoder layers.
class Encoder : public Module {
 public:
  Encoder(int num_layers, int d_model, int num_heads, int d_k, int d_ff,
          const AttentionConfig& config, Rng* rng);

  /// `plan` is shared (not rebuilt) across all layers of the stack.
  Var Forward(Var x, Var srpe, std::shared_ptr<const AttentionPlan> plan);

  /// Graph-free serving forward through the whole stack; see
  /// EncoderLayer::Infer. Every layer but the last runs on all rows; the
  /// last runs on the trailing rows [tail_begin, L) only — the query rows
  /// a prediction head reads. Returns [L - tail_begin, d_model].
  template <typename T>
  TensorT<T>& Infer(const TensorT<T>& x, const TensorT<T>* srpe,
                    const AttentionPlan& plan, int tail_begin,
                    const ServingWeights<T>& w, InferenceWorkspace* ws) const;

  int num_layers() const { return static_cast<int>(layers_.size()); }

 private:
  std::vector<std::unique_ptr<EncoderLayer>> layers_;
};

}  // namespace ssin

#endif  // SSIN_NN_TRANSFORMER_H_
