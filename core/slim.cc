// Copyright 2026 The SPLASH Reproduction Authors.

#include "core/slim.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "runtime/thread_pool.h"
#include "tensor/simd.h"

namespace splash {

namespace {

constexpr float kAdamBeta1 = 0.9f;
constexpr float kAdamBeta2 = 0.999f;
constexpr float kAdamEps = 1e-8f;

// Batch rows per parallel chunk. Fixed (not thread-count derived) so chunk
// boundaries — and with them the per-chunk dropout streams — are the same
// at 2, 4, or 64 threads.
constexpr size_t kBatchGrain = 32;

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
  PackWeights();
}

SlimModel::SlimModel(const SlimModel& src, Rng* rng)
    : opts_(src.opts_), rng_(rng), training_(src.training_) {
  CopyLearnedStateFrom(src);
}

void SlimModel::PackWeights() {
  // A skipped pack would rewrite identical bytes: packing is a pure
  // function of the weights, and every weight write bumps the version.
  if (packed_version_ == weights_version_) return;
  const Matrix* ws[4] = {&w1_, &w2_, &w3_, &w4_};
  for (size_t i = 0; i < 4; ++i) pw_[i].PackFrom(*ws[i]);
  packed_version_ = weights_version_;
  ++pack_count_;
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
  // weights, and the packs must never outlive them.
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
  if (!r->ok()) return false;
  PackWeights();
  return true;
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
  for (size_t i = 0; i < 4; ++i) pw_[i] = src.pw_[i];
  weights_version_ = src.weights_version_;
  packed_version_ = src.packed_version_;
  return true;
}

void SlimModel::EncodeTime(const std::vector<double>& deltas, size_t i0,
                           size_t i1, SlimForwardScratch* s) const {
  // phi(dt)_j: sin/cos pairs of log-compressed dt at geometrically spaced
  // frequencies (fixed, not learned — same family as the degree encoding).
  const size_t dv = opts_.feature_dim, dt_dim = opts_.time_dim;
  for (size_t i = i0; i < i1; ++i) {
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
                           const float* bias, size_t pi, Matrix* out,
                           size_t r0, size_t r1, bool relu,
                           std::vector<uint32_t>* nz) const {
  // Packed and unpacked fused kernels are bit-identical per backend, so
  // the pack knob never changes results — only which B layout streams.
  // So is the one-row kernel, which reads only the weight rows the row's
  // nonzero inputs reach, from row-major w at either pack setting: a row
  // is contiguous there and split across every panel of the pack.
  if (nz != nullptr && r1 - r0 == 1) {
    MatMulRowBiasAct(in, r0, w, out, bias, relu, nz);
    return;
  }
  if (GemmPackEnabled()) {
    MatMulPackedBiasActRange(in, pw_[pi], out, r0, r1, bias, relu);
    return;
  }
  MatMulBiasActRange(in, w, out, r0, r1, bias, relu);
}

void SlimModel::ForwardRange(const SlimBatchInput& input, size_t r0,
                             size_t r1, Rng* drop_rng, bool for_backward,
                             SlimForwardScratch* s) const {
  const size_t k = opts_.k_recent, dv = opts_.feature_dim,
               h = opts_.hidden_dim;
  const size_t n0 = r0 * k;
  size_t n1 = r1 * k;  // neighbor-row range
  // A batch of one row runs serially (one chunk), so its layers may share
  // the scratch's index buffer and take the one-row kernel.
  const bool one_row = input.node_feats.rows() == 1;
  std::vector<uint32_t>* nz = one_row ? &s->nz_index : nullptr;
  if (one_row && !for_backward) {
    // The aggregation reads no masked message, so a read stops the
    // neighbor rows after the last valid slot (AssembleRows fills valid
    // slots as a prefix): a node with no history skips the neighbor
    // GEMM. The backward pass reads every slot's row, so training keeps
    // them all.
    const float* mrow = input.mask.Row(r0);
    size_t slots = k;
    while (slots > 0 && mrow[slots - 1] == 0.0f) --slots;
    n1 = n0 + slots;
  }

  // --- neighbor branch -----------------------------------------------------
  for (size_t i = n0; i < n1; ++i) {
    std::memcpy(s->cat1.Row(i), input.neighbor_feats.Row(i),
                dv * sizeof(float));
  }
  EncodeTime(input.time_deltas, n0, n1, s);

  // Bias add + ReLU ride the GEMM tile store (fused epilogue): one pass
  // over each activation matrix instead of three. The scalar backend
  // computes the identical arithmetic to the historical separate passes.
  DenseLayer(s->cat1, w1_, b1_.data(), 0, &s->msg_pre, n0, n1,
             /*relu=*/true, nz);

  for (size_t bi = r0; bi < r1; ++bi) {
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
  DenseLayer(input.node_feats, w2_, b2_.data(), 1, &s->self_pre, r0, r1,
             /*relu=*/true, nz);

  // --- head ----------------------------------------------------------------
  for (size_t bi = r0; bi < r1; ++bi) {
    std::memcpy(s->cat2.Row(bi), s->agg.Row(bi), h * sizeof(float));
    std::memcpy(s->cat2.Row(bi) + h, s->self_pre.Row(bi), h * sizeof(float));
  }
  DenseLayer(s->cat2, w3_, b3_.data(), 2, &s->h_pre, r0, r1,
             /*relu=*/true, nz);

  if (drop_rng != nullptr && training_ && opts_.dropout > 0.0f) {
    const float keep = 1.0f - opts_.dropout;
    const float scale = 1.0f / keep;
    for (size_t bi = r0; bi < r1; ++bi) {
      float* row = s->h_pre.Row(bi);
      uint8_t* mask = s->drop_mask.data() + bi * h;
      for (size_t j = 0; j < h; ++j) {
        const bool kept = drop_rng->Uniform() < keep;
        mask[j] = kept;
        row[j] = kept ? row[j] * scale : 0.0f;
      }
    }
  }

  DenseLayer(s->h_pre, w4_, b4_.data(), 3, &s->out, r0, r1,
             /*relu=*/false, nz);
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

  ThreadPool* pool = ThreadPool::Global();
  const bool wants_dropout = training_ && opts_.dropout > 0.0f;
  // Standalone training-mode forwards (not part of TrainStep, which
  // parallelizes forward+backward per chunk itself) keep the serial
  // model-Rng dropout path for reproducibility.
  if (pool->num_threads() == 1 || b < 2 * kBatchGrain || wants_dropout) {
    ForwardRange(input, 0, b, wants_dropout ? rng_ : nullptr,
                 /*for_backward=*/false, &fwd_);
    return;
  }
  pool->ParallelFor(0, b, kBatchGrain,
                    [&](size_t r0, size_t r1, size_t) {
                      ForwardRange(input, r0, r1, nullptr,
                                   /*for_backward=*/false, &fwd_);
                    });
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
  // Serial, dropout-free: identical arithmetic to the eval-mode ForwardAll
  // (the parallel path computes the same per-row values), so snapshot
  // reads are bit-identical to fused Forward on the same state.
  ForwardRange(input, 0, b, nullptr, /*for_backward=*/false, scratch);
  return scratch->out;
}

void SlimModel::BackwardRange(const SlimBatchInput& input,
                              const std::vector<int>& labels, size_t r0,
                              size_t r1, const GradRefs& grads,
                              bool accumulate, SlimTrainState* train,
                              double* loss_out) const {
  const size_t b = input.node_feats.rows();
  const size_t k = opts_.k_recent, h = opts_.hidden_dim, o = opts_.out_dim;
  const size_t n0 = r0 * k, n1 = r1 * k;
  Matrix& d_out = train->d_out_;
  Matrix& d_h = train->d_h_;
  Matrix& d_cat2 = train->d_cat2_;
  Matrix& d_self = train->d_self_;
  Matrix& d_msg = train->d_msg_;

  // Softmax cross-entropy; d_out = (softmax - onehot) / B.
  double loss = 0.0;
  const float inv_b = 1.0f / static_cast<float>(b);
  for (size_t bi = r0; bi < r1; ++bi) {
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
  *loss_out += loss;

  // Head. MatMulTransARange never zeroes (range contract, tensor/matrix.h):
  // the serial full-range path pre-zeroes the main grads here, the parallel
  // path accumulates into worker scratch TrainStep already zeroed.
  if (!accumulate) grads.g[6]->SetZero();
  MatMulTransARange(fwd_.h_pre, d_out, grads.g[6], r0, r1);
  ColumnSumsRange(d_out, grads.g[7]->data(), r0, r1, accumulate);
  MatMulTransBRange(d_out, w4_, &d_h, r0, r1);
  if (training_ && opts_.dropout > 0.0f) {
    const float scale = 1.0f / (1.0f - opts_.dropout);
    for (size_t bi = r0; bi < r1; ++bi) {
      float* p = d_h.Row(bi);
      const uint8_t* mask = fwd_.drop_mask.data() + bi * h;
      for (size_t j = 0; j < h; ++j) {
        p[j] = KeepOrZero(mask[j] != 0, p[j] * scale);
      }
    }
  }
  for (size_t bi = r0; bi < r1; ++bi) {
    const float* act = fwd_.h_pre.Row(bi);
    float* p = d_h.Row(bi);
    for (size_t j = 0; j < h; ++j) p[j] = KeepOrZero(!(act[j] <= 0.0f), p[j]);
  }
  if (!accumulate) grads.g[4]->SetZero();
  MatMulTransARange(fwd_.cat2, d_h, grads.g[4], r0, r1);
  ColumnSumsRange(d_h, grads.g[5]->data(), r0, r1, accumulate);
  MatMulTransBRange(d_h, w3_, &d_cat2, r0, r1);

  // Self branch: d_self = d_cat2[:, h:] masked by ReLU.
  for (size_t bi = r0; bi < r1; ++bi) {
    const float* src = d_cat2.Row(bi) + h;
    const float* act = fwd_.self_pre.Row(bi);
    float* dst = d_self.Row(bi);
    for (size_t j = 0; j < h; ++j) dst[j] = KeepOrZero(act[j] > 0.0f, src[j]);
  }
  if (!accumulate) grads.g[2]->SetZero();
  MatMulTransARange(input.node_feats, d_self, grads.g[2], r0, r1);
  ColumnSumsRange(d_self, grads.g[3]->data(), r0, r1, accumulate);

  // Neighbor branch: distribute d_agg over messages with their mean
  // weights, mask by ReLU.
  for (size_t bi = r0; bi < r1; ++bi) {
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
  if (!accumulate) grads.g[0]->SetZero();
  MatMulTransARange(fwd_.cat1, d_msg, grads.g[0], n0, n1);
  ColumnSumsRange(d_msg, grads.g[1]->data(), n0, n1, accumulate);
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

  ThreadPool* pool = ThreadPool::Global();
  const size_t num_chunks = ThreadPool::NumChunks(0, b, kBatchGrain);
  const bool wants_dropout = training_ && opts_.dropout > 0.0f;
  GradRefs main;
  for (size_t p = 0; p < kNumParams; ++p) main.g[p] = &train->grad_[p];
  double loss = 0.0;

  if (pool->num_threads() == 1 || num_chunks < 2) {
    // Serial path: bit-identical to the pre-parallel implementation
    // (dropout drawn sequentially from the model Rng, full-range kernels).
    ForwardRange(input, 0, b, wants_dropout ? rng_ : nullptr,
                 /*for_backward=*/true, &fwd_);
    BackwardRange(input, labels, 0, b, main, /*accumulate=*/false, train,
                  &loss);
  } else {
    const size_t num_workers = pool->num_threads();
    std::vector<SlimTrainState::GradScratch>& worker_grads =
        train->worker_grads_;
    if (worker_grads.size() < num_workers) worker_grads.resize(num_workers);
    for (SlimTrainState::GradScratch& ws : worker_grads) {
      for (size_t p = 0; p < kNumParams; ++p) {
        ws.g[p].Resize(main.g[p]->rows(), main.g[p]->cols());
        ws.g[p].SetZero();
      }
    }
    train->chunk_loss_.assign(num_chunks, 0.0);

    const uint64_t train_calls = train->train_calls_;
    pool->ParallelFor(0, b, kBatchGrain,
                      [&](size_t r0, size_t r1, size_t worker) {
                        const size_t chunk = r0 / kBatchGrain;
                        Rng drop_rng(WorkerRngSeed(opts_.dropout_seed,
                                                   train_calls, chunk));
                        ForwardRange(input, r0, r1,
                                     wants_dropout ? &drop_rng : nullptr,
                                     /*for_backward=*/true, &fwd_);
                        SlimTrainState::GradScratch& ws =
                            worker_grads[worker];
                        GradRefs refs{{&ws.g[0], &ws.g[1], &ws.g[2],
                                       &ws.g[3], &ws.g[4], &ws.g[5],
                                       &ws.g[6], &ws.g[7]}};
                        BackwardRange(input, labels, r0, r1, refs,
                                      /*accumulate=*/true, train,
                                      &train->chunk_loss_[chunk]);
                      });

    // Fixed-order reductions: chunk order for the loss, worker order for
    // the gradients — deterministic for a given thread count.
    for (size_t c = 0; c < num_chunks; ++c) loss += train->chunk_loss_[c];
    for (size_t p = 0; p < kNumParams; ++p) {
      Matrix* dst = main.g[p];
      const size_t n = dst->size();
      std::memcpy(dst->data(), worker_grads[0].g[p].data(),
                  n * sizeof(float));
      for (size_t w = 1; w < num_workers; ++w) {
        Axpy(1.0f, worker_grads[w].g[p].data(), dst->data(), n);
      }
    }
  }

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
  // The step wrote new weights: stamp a new version and re-pack the
  // read-path operands from them (grow-only, so allocation-free after the
  // first step at a given shape).
  ++weights_version_;
  PackWeights();
  return loss / static_cast<double>(b);
}

}  // namespace splash
