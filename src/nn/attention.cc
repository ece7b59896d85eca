#include "nn/attention.h"

#include <string>

#include "nn/fused_serving.h"

namespace ssin {

MultiHeadSpaAttention::MultiHeadSpaAttention(int d_model, int num_heads,
                                             int d_k,
                                             const AttentionConfig& config,
                                             Rng* rng)
    : config_(config) {
  SSIN_CHECK_GE(num_heads, 1);
  heads_.resize(num_heads);
  for (int h = 0; h < num_heads; ++h) {
    heads_[h].wq = std::make_unique<Linear>(d_model, d_k, /*bias=*/false, rng);
    heads_[h].wk = std::make_unique<Linear>(d_model, d_k, /*bias=*/false, rng);
    heads_[h].wv = std::make_unique<Linear>(d_model, d_k, /*bias=*/false, rng);
    const std::string prefix = "head" + std::to_string(h);
    RegisterSubmodule(prefix + ".wq", heads_[h].wq.get());
    RegisterSubmodule(prefix + ".wk", heads_[h].wk.get());
    RegisterSubmodule(prefix + ".wv", heads_[h].wv.get());
  }
  output_proj_ =
      std::make_unique<Linear>(num_heads * d_k, d_model, /*bias=*/false, rng);
  RegisterSubmodule("wo", output_proj_.get());
}

Var MultiHeadSpaAttention::Forward(Var e, Var srpe,
                                   std::shared_ptr<const AttentionPlan> plan) {
  std::vector<Var> head_outputs;
  head_outputs.reserve(heads_.size());
  for (auto& head : heads_) {
    Var q = head.wq->Forward(e);
    Var k = head.wk->Forward(e);
    Var v = head.wv->Forward(e);
    head_outputs.push_back(SpaAttention(q, k, v, srpe, plan, config_));
  }
  Var concat = head_outputs.size() == 1 ? head_outputs[0]
                                        : ConcatCols(head_outputs);
  return output_proj_->Forward(concat);
}

template <typename T>
void MultiHeadSpaAttention::InferConcat(const TensorT<T>& e,
                                        const TensorT<T>* srpe,
                                        const AttentionPlan& plan,
                                        int tail_begin,
                                        const ServingWeights<T>& w,
                                        InferenceWorkspace* ws,
                                        TensorT<T>* concat) const {
  const int length = e.dim(0);
  const int dm = e.dim(1);
  const int H = num_heads();
  const int d = head_dim();
  const int nq = length - tail_begin;
  // Head-major projection arenas: q [H, nq, d]; kv [2H, L, d] with k_h at
  // block 2h and v_h at block 2h+1.
  TensorT<T>* q = ws->Acquire<T>({H * nq, d});
  TensorT<T>* kv = ws->Acquire<T>({2 * H * length, d});
  std::vector<const T*>* wp = ws->weight_ptrs<T>();
  wp->resize(3 * static_cast<size_t>(H));
  const T** wq = wp->data();
  const T** wk = wq + H;
  const T** wv = wk + H;
  for (int h = 0; h < H; ++h) {
    wq[h] = w(heads_[h].wq->weight_param());
    wk[h] = w(heads_[h].wk->weight_param());
    wv[h] = w(heads_[h].wv->weight_param());
  }
  fused::FusedQkvProjectRows<T, simd::VecOps>(
      e.data(), length, dm, tail_begin, wq, wk, wv, H, d, q->data(),
      kv->data());
  const T* c = srpe != nullptr ? srpe->data() : nullptr;
  for (int h = 0; h < H; ++h) {
    PackedAttentionForwardRowsStrided<T, simd::VecOps>(
        q->data() + static_cast<int64_t>(h) * nq * d,
        kv->data() + static_cast<int64_t>(2 * h) * length * d,
        kv->data() + static_cast<int64_t>(2 * h + 1) * length * d, c, plan,
        config_.packed_srpe, d, tail_begin, ws->scores<T>(),
        /*alpha_out=*/nullptr, concat->data() + static_cast<int64_t>(h) * d,
        /*z_stride=*/static_cast<int64_t>(H) * d);
  }
}

template void MultiHeadSpaAttention::InferConcat<double>(
    const Tensor&, const Tensor*, const AttentionPlan&, int,
    const ServingWeights<double>&, InferenceWorkspace*, Tensor*) const;
template void MultiHeadSpaAttention::InferConcat<float>(
    const TensorF32&, const TensorF32*, const AttentionPlan&, int,
    const ServingWeights<float>&, InferenceWorkspace*, TensorF32*) const;

}  // namespace ssin
