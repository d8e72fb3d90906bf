// Copyright 2026 The SPLASH Reproduction Authors.

#include "core/slim.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace splash {

namespace {

constexpr float kAdamBeta1 = 0.9f;
constexpr float kAdamBeta2 = 0.999f;
constexpr float kAdamEps = 1e-8f;

/// `keep ? g : 0.0f`, bit for bit, as an AND of g's bits with a keep mask.
/// Callers compute g unconditionally, so the backward mask loops vectorize:
/// GCC keeps the ternary a branch when its arm can trap
/// (-ftrapping-math), and on ReLU patterns that branch mispredicts about
/// half the time.
inline float KeepOrZero(bool keep, float g) {
  uint32_t bits;
  std::memcpy(&bits, &g, sizeof(bits));
  bits &= 0u - static_cast<uint32_t>(keep);
  std::memcpy(&g, &bits, sizeof(g));
  return g;
}

struct ParamShape {
  size_t rows, cols;
};

/// The parameter shapes of `o`'s architecture, in parameter order.
std::array<ParamShape, SlimTrainState::kNumParams> ParamShapes(
    const SlimOptions& o) {
  const size_t dv = o.feature_dim, dt = o.time_dim, h = o.hidden_dim,
               out = o.out_dim;
  return {{{dv + dt, h}, {1, h}, {dv, h}, {1, h}, {2 * h, h}, {1, h},
           {h, out}, {1, out}}};
}

}  // namespace

void SlimForwardScratch::Resize(size_t b, size_t k_recent, size_t feature_dim,
                                size_t time_dim, size_t hidden_dim,
                                size_t out_dim, bool dropout) {
  const size_t bk = b * k_recent;
  // Activations use the padded layout (64B-aligned rows) so the SIMD
  // backends run whole-vector steady loops; `out` stays contiguous because
  // external consumers (eval/trainer score gather) flat-copy it.
  cat1.ResizePadded(bk, feature_dim + time_dim);
  msg_pre.ResizePadded(bk, hidden_dim);
  agg.ResizePadded(b, hidden_dim);
  self_pre.ResizePadded(b, hidden_dim);
  cat2.ResizePadded(b, 2 * hidden_dim);
  h_pre.ResizePadded(b, hidden_dim);
  out.Resize(b, out_dim);
  inv_weight.resize(b);
  if (dropout) drop_mask.resize(b * hidden_dim);
  // For the widest layer input (w1's or w3's), so one-row reads never
  // grow it.
  const size_t scratch = RowIndexScratchSize(
      std::max(feature_dim + time_dim, 2 * hidden_dim));
  if (nz_index.size() < scratch) nz_index.resize(scratch);
}

SlimTrainState::SlimTrainState(const SlimOptions& opts) {
  const auto shapes = ParamShapes(opts);
  for (size_t p = 0; p < kNumParams; ++p) {
    m_[p] = Matrix(shapes[p].rows, shapes[p].cols);
    v_[p] = Matrix(shapes[p].rows, shapes[p].cols);
  }
}

SlimTrainState::SlimTrainState(const SlimTrainState& src) { CopyFrom(src); }

void SlimTrainState::CopyFrom(const SlimTrainState& src) {
  adam_t_ = src.adam_t_;
  train_calls_ = src.train_calls_;
  for (size_t p = 0; p < kNumParams; ++p) {
    m_[p] = src.m_[p];
    v_[p] = src.v_[p];
  }
}

SlimModel::SlimModel(const SlimOptions& opts, Rng* rng)
    : opts_(opts), rng_(rng) {
  const auto shapes = ParamShapes(opts_);
  const auto params = Params();
  for (size_t p = 0; p < kNumParams; ++p) {
    *params[p] = Matrix(shapes[p].rows, shapes[p].cols);
    // He init for the ReLU branches (fan-in = rows); biases start at 0.
    if (p % 2 == 0) {
      const float stddev =
          std::sqrt(2.0f / static_cast<float>(shapes[p].rows));
      rng_->FillGaussian(params[p]->data(), params[p]->size(), stddev);
    }
  }
}

SlimModel::SlimModel(const SlimModel& src, Rng* rng)
    : opts_(src.opts_), rng_(rng), training_(src.training_) {
  CopyLearnedStateFrom(src);
}

size_t SlimModel::ParamCount() const {
  size_t n = 0;
  for (const Matrix* p : Params()) n += p->size();
  return n;
}

bool SlimModel::Fits(const SlimTrainState& train) const {
  const auto params = Params();
  for (size_t p = 0; p < kNumParams; ++p) {
    if (train.m_[p].rows() != params[p]->rows() ||
        train.m_[p].cols() != params[p]->cols()) {
      return false;
    }
  }
  return true;
}

void SlimModel::Serialize(ByteWriter* w, const SlimTrainState& train) const {
  assert(Fits(train));
  w->U64(train.adam_t_);
  w->U64(train.train_calls_);
  const auto params = Params();
  for (size_t p = 0; p < kNumParams; ++p) {
    WriteMatrix(w, *params[p]);
    WriteMatrix(w, train.m_[p]);
    WriteMatrix(w, train.v_[p]);
  }
}

bool SlimModel::Deserialize(ByteReader* r, SlimTrainState* train) {
  // Stamped up front: even a stream rejected halfway has overwritten
  // weights, and state derived from them must never outlive them.
  ++weights_version_;
  train->adam_t_ = static_cast<size_t>(r->U64());
  train->train_calls_ = r->U64();
  const auto params = Params();
  for (size_t p = 0; p < kNumParams; ++p) {
    const size_t rows = params[p]->rows(), cols = params[p]->cols();
    if (!ReadMatrixExpect(r, params[p], rows, cols) ||
        !ReadMatrixExpect(r, &train->m_[p], rows, cols) ||
        !ReadMatrixExpect(r, &train->v_[p], rows, cols)) {
      return false;
    }
  }
  return r->ok();
}

bool SlimModel::CopyLearnedStateFrom(const SlimModel& src) {
  if (src.opts_.feature_dim != opts_.feature_dim ||
      src.opts_.time_dim != opts_.time_dim ||
      src.opts_.hidden_dim != opts_.hidden_dim ||
      src.opts_.out_dim != opts_.out_dim ||
      src.opts_.k_recent != opts_.k_recent) {
    return false;
  }
  const auto from = src.Params();
  const auto to = Params();
  for (size_t p = 0; p < kNumParams; ++p) *to[p] = *from[p];
  weights_version_ = src.weights_version_;
  return true;
}

void SlimModel::EncodeTime(const std::vector<double>& deltas, size_t n,
                           SlimForwardScratch* s) const {
  // phi(dt)_j: sin/cos pairs of log-compressed dt at geometrically spaced
  // frequencies (fixed, not learned — same family as the degree encoding).
  const size_t dv = opts_.feature_dim, dt_dim = opts_.time_dim;
  for (size_t i = 0; i < n; ++i) {
    float* row = s->cat1.Row(i) + dv;
    const float x = std::log1p(
        static_cast<float>(deltas[i] < 0.0 ? 0.0 : deltas[i]));
    // Dispatched sincos kernel (tensor/simd.h): libm on the scalar
    // reference backend, 8-lane polynomial sincos on avx2.
    SincosEncode(x, 0.5f, row, dt_dim);
  }
}

void SlimModel::ResizeScratch(size_t b, SlimTrainState* train) {
  const size_t k = opts_.k_recent, h = opts_.hidden_dim, o = opts_.out_dim;
  const size_t bk = b * k;
  fwd_.Resize(b, k, opts_.feature_dim, opts_.time_dim, h, o,
              training_ && opts_.dropout > 0.0f);
  if (train != nullptr) {
    const auto params = Params();
    for (size_t p = 0; p < kNumParams; ++p) {
      train->grad_[p].Resize(params[p]->rows(), params[p]->cols());
    }
    train->d_out_.ResizePadded(b, o);
    train->d_h_.ResizePadded(b, h);
    train->d_cat2_.ResizePadded(b, 2 * h);
    train->d_self_.ResizePadded(b, h);
    train->d_msg_.ResizePadded(bk, h);
  }
}

void SlimModel::DenseLayer(const Matrix& in, const Matrix& w,
                           const float* bias, Matrix* out, size_t r0,
                           size_t r1, bool relu,
                           std::vector<uint32_t>* nz) const {
  // The one-row kernel is bit-identical to the fused GEMM's row on the
  // same backend, and reads only the weight rows the row's nonzero inputs
  // reach.
  if (nz != nullptr && r1 - r0 == 1) {
    MatMulRowBiasAct(in, r0, w, out, bias, relu, nz);
    return;
  }
  MatMulBiasActRange(in, w, out, r0, r1, bias, relu);
}

void SlimModel::ForwardInto(const SlimBatchInput& input, Rng* drop_rng,
                            bool for_backward, SlimForwardScratch* s) const {
  const size_t k = opts_.k_recent, dv = opts_.feature_dim,
               h = opts_.hidden_dim;
  const size_t b = input.node_feats.rows();
  size_t nk = b * k;  // neighbor rows computed
  // A batch of one row takes the one-row kernel in every layer.
  const bool one_row = b == 1;
  std::vector<uint32_t>* nz = one_row ? &s->nz_index : nullptr;
  if (one_row && !for_backward) {
    // The aggregation reads no masked message, so a read stops the
    // neighbor rows after the last valid slot (AssembleRows fills valid
    // slots as a prefix): a node with no history skips the neighbor
    // GEMM. The backward pass reads every slot's row, so training keeps
    // them all.
    const float* mrow = input.mask.Row(0);
    size_t slots = k;
    while (slots > 0 && mrow[slots - 1] == 0.0f) --slots;
    nk = slots;
  }

  // --- neighbor branch -----------------------------------------------------
  for (size_t i = 0; i < nk; ++i) {
    std::memcpy(s->cat1.Row(i), input.neighbor_feats.Row(i),
                dv * sizeof(float));
  }
  EncodeTime(input.time_deltas, nk, s);

  // Bias add + ReLU ride the GEMM tile store (fused epilogue): one pass
  // over each activation matrix instead of three. The scalar backend
  // computes the identical arithmetic to the historical separate passes.
  DenseLayer(s->cat1, w1_, b1_.data(), &s->msg_pre, 0, nk, /*relu=*/true,
             nz);

  for (size_t bi = 0; bi < b; ++bi) {
    float wsum = 0.0f;
    float* arow = s->agg.Row(bi);
    std::memset(arow, 0, h * sizeof(float));
    const float* mrow = input.mask.Row(bi);
    for (size_t j = 0; j < k; ++j) {
      if (mrow[j] == 0.0f) continue;
      const float w = input.edge_weights[bi * k + j];
      wsum += w;
      Axpy(w, s->msg_pre.Row(bi * k + j), arow, h);
    }
    const float inv = wsum > 1e-12f ? 1.0f / wsum : 0.0f;
    s->inv_weight[bi] = inv;
    for (size_t j = 0; j < h; ++j) arow[j] *= inv;
  }

  // --- self branch ---------------------------------------------------------
  DenseLayer(input.node_feats, w2_, b2_.data(), &s->self_pre, 0, b,
             /*relu=*/true, nz);

  // --- head ----------------------------------------------------------------
  for (size_t bi = 0; bi < b; ++bi) {
    std::memcpy(s->cat2.Row(bi), s->agg.Row(bi), h * sizeof(float));
    std::memcpy(s->cat2.Row(bi) + h, s->self_pre.Row(bi), h * sizeof(float));
  }
  DenseLayer(s->cat2, w3_, b3_.data(), &s->h_pre, 0, b, /*relu=*/true,
             nz);

  if (drop_rng != nullptr && training_ && opts_.dropout > 0.0f) {
    const float keep = 1.0f - opts_.dropout;
    const float scale = 1.0f / keep;
    for (size_t bi = 0; bi < b; ++bi) {
      float* row = s->h_pre.Row(bi);
      uint8_t* mask = s->drop_mask.data() + bi * h;
      for (size_t j = 0; j < h; ++j) {
        const bool kept = drop_rng->Uniform() < keep;
        mask[j] = kept;
        row[j] = kept ? row[j] * scale : 0.0f;
      }
    }
  }

  DenseLayer(s->h_pre, w4_, b4_.data(), &s->out, 0, b, /*relu=*/false,
             nz);
}

void SlimModel::ForwardAll(const SlimBatchInput& input) {
  const size_t b = input.node_feats.rows();
  const size_t k = opts_.k_recent, dv = opts_.feature_dim;
  assert(input.neighbor_feats.rows() == b * k);
  assert(input.neighbor_feats.cols() == dv);
  assert(input.time_deltas.size() == b * k);
  assert(input.mask.rows() == b && input.mask.cols() == k);
  assert(input.edge_weights.size() == b * k);
  (void)k;
  (void)dv;
  ResizeScratch(b, nullptr);
  const bool wants_dropout = training_ && opts_.dropout > 0.0f;
  ForwardInto(input, wants_dropout ? rng_ : nullptr, /*for_backward=*/false,
              &fwd_);
}

Matrix SlimModel::Forward(const SlimBatchInput& input) {
  ForwardAll(input);
  return fwd_.out;
}

const Matrix& SlimModel::PredictConst(const SlimBatchInput& input,
                                      SlimForwardScratch* scratch) const {
  const size_t b = input.node_feats.rows();
  scratch->Resize(b, opts_.k_recent, opts_.feature_dim, opts_.time_dim,
                  opts_.hidden_dim, opts_.out_dim, /*dropout=*/false);
  // Dropout-free: identical arithmetic to the eval-mode ForwardAll, so
  // snapshot reads are bit-identical to fused Forward on the same state.
  ForwardInto(input, nullptr, /*for_backward=*/false, scratch);
  return scratch->out;
}

double SlimModel::Backward(const SlimBatchInput& input,
                           const std::vector<int>& labels,
                           SlimTrainState* train) const {
  const size_t b = input.node_feats.rows();
  const size_t k = opts_.k_recent, h = opts_.hidden_dim, o = opts_.out_dim;
  const size_t bk = b * k;
  Matrix* const g = train->grad_;
  Matrix& d_out = train->d_out_;
  Matrix& d_h = train->d_h_;
  Matrix& d_cat2 = train->d_cat2_;
  Matrix& d_self = train->d_self_;
  Matrix& d_msg = train->d_msg_;

  // Softmax cross-entropy; d_out = (softmax - onehot) / B.
  double loss = 0.0;
  const float inv_b = 1.0f / static_cast<float>(b);
  for (size_t bi = 0; bi < b; ++bi) {
    const float* row = fwd_.out.Row(bi);
    float mx = row[0];
    for (size_t j = 1; j < o; ++j) mx = row[j] > mx ? row[j] : mx;
    float sum = 0.0f;
    float* drow = d_out.Row(bi);
    for (size_t j = 0; j < o; ++j) {
      drow[j] = std::exp(row[j] - mx);
      sum += drow[j];
    }
    const float inv_sum = 1.0f / sum;
    const int label = labels[bi];
    loss -= std::log(
        static_cast<double>(drow[label] * inv_sum) + 1e-12);
    for (size_t j = 0; j < o; ++j) {
      drow[j] = (drow[j] * inv_sum -
                 (static_cast<int>(j) == label ? 1.0f : 0.0f)) *
                inv_b;
    }
  }

  // Head. MatMulTransARange never zeroes (range contract, tensor/matrix.h),
  // so each weight gradient is zeroed before its fold.
  g[6].SetZero();
  MatMulTransARange(fwd_.h_pre, d_out, &g[6], 0, b);
  ColumnSumsRange(d_out, g[7].data(), 0, b, /*accumulate=*/false);
  MatMulTransBRange(d_out, w4_, &d_h, 0, b);
  if (training_ && opts_.dropout > 0.0f) {
    const float scale = 1.0f / (1.0f - opts_.dropout);
    for (size_t bi = 0; bi < b; ++bi) {
      float* p = d_h.Row(bi);
      const uint8_t* mask = fwd_.drop_mask.data() + bi * h;
      for (size_t j = 0; j < h; ++j) {
        p[j] = KeepOrZero(mask[j] != 0, p[j] * scale);
      }
    }
  }
  for (size_t bi = 0; bi < b; ++bi) {
    const float* act = fwd_.h_pre.Row(bi);
    float* p = d_h.Row(bi);
    for (size_t j = 0; j < h; ++j) p[j] = KeepOrZero(!(act[j] <= 0.0f), p[j]);
  }
  g[4].SetZero();
  MatMulTransARange(fwd_.cat2, d_h, &g[4], 0, b);
  ColumnSumsRange(d_h, g[5].data(), 0, b, /*accumulate=*/false);
  MatMulTransBRange(d_h, w3_, &d_cat2, 0, b);

  // Self branch: d_self = d_cat2[:, h:] masked by ReLU.
  for (size_t bi = 0; bi < b; ++bi) {
    const float* src = d_cat2.Row(bi) + h;
    const float* act = fwd_.self_pre.Row(bi);
    float* dst = d_self.Row(bi);
    for (size_t j = 0; j < h; ++j) dst[j] = KeepOrZero(act[j] > 0.0f, src[j]);
  }
  g[2].SetZero();
  MatMulTransARange(input.node_feats, d_self, &g[2], 0, b);
  ColumnSumsRange(d_self, g[3].data(), 0, b, /*accumulate=*/false);

  // Neighbor branch: distribute d_agg over messages with their mean
  // weights, mask by ReLU.
  for (size_t bi = 0; bi < b; ++bi) {
    const float* dagg = d_cat2.Row(bi);  // first h columns
    const float* mrow = input.mask.Row(bi);
    const float inv = fwd_.inv_weight[bi];
    for (size_t j = 0; j < k; ++j) {
      float* drow = d_msg.Row(bi * k + j);
      if (mrow[j] == 0.0f || inv == 0.0f) {
        std::memset(drow, 0, h * sizeof(float));
        continue;
      }
      const float w = input.edge_weights[bi * k + j] * inv;
      const float* act = fwd_.msg_pre.Row(bi * k + j);
      for (size_t jj = 0; jj < h; ++jj) {
        drow[jj] = KeepOrZero(act[jj] > 0.0f, w * dagg[jj]);
      }
    }
  }
  g[0].SetZero();
  MatMulTransARange(fwd_.cat1, d_msg, &g[0], 0, bk);
  ColumnSumsRange(d_msg, g[1].data(), 0, bk, /*accumulate=*/false);
  return loss;
}

double SlimModel::TrainStep(const SlimBatchInput& input,
                            const std::vector<int>& labels,
                            SlimTrainState* train) {
  const size_t b = input.node_feats.rows();
  assert(labels.size() == b);
  assert(Fits(*train));
  if (b == 0) return 0.0;
  ResizeScratch(b, train);
  ++train->train_calls_;

  const bool wants_dropout = training_ && opts_.dropout > 0.0f;
  ForwardInto(input, wants_dropout ? rng_ : nullptr, /*for_backward=*/true,
              &fwd_);
  const double loss = Backward(input, labels, train);

  // Adam. Params are contiguous (never padded), so the fused kernel runs
  // over each flat block; the scalar backend is the historical loop plus
  // the subnormal-moment flush every backend shares.
  ++train->adam_t_;
  const float t = static_cast<float>(train->adam_t_);
  const float bias1 = 1.0f - std::pow(kAdamBeta1, t);
  const float bias2 = 1.0f - std::pow(kAdamBeta2, t);
  const float step = opts_.lr * std::sqrt(bias2) / bias1;
  const auto params = Params();
  for (size_t p = 0; p < kNumParams; ++p) {
    Matrix* w = params[p];
    assert(w->IsContiguous());
    AdamUpdate(w->data(), train->grad_[p].data(), train->m_[p].data(),
               train->v_[p].data(), w->size(), step, kAdamBeta1, kAdamBeta2,
               kAdamEps);
  }
  // The step wrote new weights: stamp a new version.
  ++weights_version_;
  return loss / static_cast<double>(b);
}

}  // namespace splash
