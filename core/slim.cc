// Copyright 2026 The SPLASH Reproduction Authors.

#include "core/slim.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <string>

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

using ParamShape = SlimTrainState::Shape;

/// The parameter shapes of `o`'s architecture, in parameter order.
std::array<ParamShape, SlimTrainState::kNumParams> ParamShapes(
    const SlimOptions& o) {
  const size_t dv = o.feature_dim, dt = o.time_dim, h = o.hidden_dim,
               out = o.out_dim;
  return {{{dv + dt, h}, {1, h}, {dv, h}, {1, h}, {2 * h, h}, {1, h},
           {h, out}, {1, out}}};
}

/// Parameter names, in parameter order, for refusals.
constexpr const char* kParamNames[SlimTrainState::kNumParams] = {
    "w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4"};

/// A zero matrix of `s`'s shape in WriteMatrix's layout, from no matrix.
void WriteZeroMatrix(ByteWriter* w, const ParamShape& s) {
  w->U64(s.rows);
  w->U64(s.cols);
  const size_t n = s.rows * s.cols * sizeof(float);
  std::memset(w->Span(n), 0, n);
}

/// What no run of TrainStep stores in `m`, or null: a non-finite value,
/// or a negative one when `nonnegative` (Adam's second moment).
const char* BadValue(const Matrix& m, bool nonnegative) {
  for (size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.Row(r);
    for (size_t c = 0; c < m.cols(); ++c) {
      if (!std::isfinite(row[c])) return "a non-finite value";
      if (nonnegative && row[c] < 0.0f) return "a negative value";
    }
  }
  return nullptr;
}

}  // namespace

void SlimForwardScratch::Resize(const SlimOptions& o, size_t b,
                                bool dropout) {
  const size_t h = o.hidden_dim;
  // Activations use the padded layout (64B-aligned rows) so the SIMD
  // backends run whole-vector steady loops; `out` stays contiguous because
  // external consumers (eval/trainer score gather) flat-copy it.
  msg_pre.ResizePadded(b * o.k_recent, h);
  cat2.ResizePadded(b, 2 * h);
  h_pre.ResizePadded(b, h);
  out.Resize(b, o.out_dim);
  inv_weight.resize(b);
  if (dropout) drop_mask.resize(b * h);
  // For the widest layer input (w1's or w3's), so one-row reads never
  // grow it.
  const size_t scratch =
      RowIndexScratchSize(std::max(o.feature_dim + o.time_dim, 2 * h));
  if (nz_index.size() < scratch) nz_index.resize(scratch);
}

void SlimBatchInput::Resize(const SlimOptions& opts, size_t b,
                            bool weighted) {
  const size_t bk = b * opts.k_recent;
  node_feats.Resize(b, opts.feature_dim);
  cat1.ResizePadded(bk, opts.feature_dim + opts.time_dim);
  time_x.resize(bk);
  valid.resize(b);
  edge_weights.resize(weighted ? bk : 0);
}

SlimTrainState::SlimTrainState(const SlimOptions& opts)
    : shapes_(ParamShapes(opts)) {}

SlimTrainState::SlimTrainState(const SlimTrainState& src)
    : shapes_(src.shapes_) {
  CopyFrom(src);
}

void SlimTrainState::AllocateMoments() {
  for (size_t p = 0; p < kNumParams; ++p) {
    m_[p] = Matrix(shapes_[p].rows, shapes_[p].cols);
    v_[p] = Matrix(shapes_[p].rows, shapes_[p].cols);
  }
}

void SlimTrainState::ReleaseMoments() {
  for (size_t p = 0; p < kNumParams; ++p) {
    m_[p] = Matrix();
    v_[p] = Matrix();
  }
}

void SlimTrainState::CopyFrom(const SlimTrainState& src) {
  adam_t_ = src.adam_t_;
  if (!src.has_moments()) {
    ReleaseMoments();
    return;
  }
  for (size_t p = 0; p < kNumParams; ++p) {
    m_[p] = src.m_[p];
    v_[p] = src.v_[p];
  }
}

SlimModel::SlimModel(const SlimOptions& opts, Rng* rng)
    : opts_(opts), rng_(rng), weights_(std::make_shared<Weights>()) {
  const auto shapes = ParamShapes(opts_);
  const auto params = MutableParams();
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
    : opts_(src.opts_),
      rng_(rng),
      training_(src.training_),
      weights_(src.weights_),
      weights_version_(src.weights_version_) {}

void SlimModel::OwnWeights() {
  if (weights_.use_count() > 1) {
    weights_ = std::make_shared<Weights>(*weights_);
  }
}

size_t SlimModel::ParamCount(const SlimOptions& opts) {
  size_t n = 0;
  for (const ParamShape& s : ParamShapes(opts)) n += s.rows * s.cols;
  return n;
}

bool SlimModel::Fits(const SlimTrainState& train) const {
  const auto params = Params();
  for (size_t p = 0; p < kNumParams; ++p) {
    if (train.shapes_[p].rows != params[p]->rows() ||
        train.shapes_[p].cols != params[p]->cols()) {
      return false;
    }
  }
  return true;
}

void SlimModel::Serialize(ByteWriter* w, const SlimTrainState& train) const {
  assert(Fits(train));
  w->U64(train.adam_t_);
  const auto params = Params();
  for (size_t p = 0; p < kNumParams; ++p) {
    WriteMatrix(w, *params[p]);
    if (train.has_moments()) {
      WriteMatrix(w, train.m_[p]);
      WriteMatrix(w, train.v_[p]);
    } else {
      WriteZeroMatrix(w, train.shapes_[p]);
      WriteZeroMatrix(w, train.shapes_[p]);
    }
  }
}

Status SlimModel::Deserialize(ByteReader* r, SlimTrainState* train) {
  // Stamped up front: even a stream rejected halfway has overwritten
  // weights, and state derived from them must never outlive them.
  ++weights_version_;
  assert(Fits(*train));
  train->adam_t_ = static_cast<size_t>(r->U64());
  // A state that never stepped holds zero moments, unallocated.
  const bool stepped = train->adam_t_ != 0;
  if (!stepped) {
    train->ReleaseMoments();
  } else if (!train->has_moments()) {
    train->AllocateMoments();
  }
  const auto params = MutableParams();
  const auto shapes = ParamShapes(opts_);
  const Status mismatch = Status::Error("SLIM state mismatch");
  for (size_t p = 0; p < kNumParams; ++p) {
    const size_t rows = shapes[p].rows, cols = shapes[p].cols;
    const std::string name = kParamNames[p];
    if (!ReadMatrixExpect(r, params[p], rows, cols)) return mismatch;
    if (const char* bad = BadValue(*params[p], /*nonnegative=*/false)) {
      return Status::Error("SLIM " + name + " holds " + bad);
    }
    if (!stepped) {
      // Checked in place: nothing is allocated for them.
      for (const char* moment : {" Adam m", " Adam v"}) {
        if (r->U64() != rows || r->U64() != cols) return mismatch;
        const size_t n = rows * cols * sizeof(float);
        const uint8_t* bytes = r->Span(n);
        if (bytes == nullptr) return mismatch;
        if (std::any_of(bytes, bytes + n, [](uint8_t b) { return b != 0; })) {
          return Status::Error("SLIM " + name + moment +
                               " is nonzero at Adam step 0");
        }
      }
      continue;
    }
    if (!ReadMatrixExpect(r, &train->m_[p], rows, cols) ||
        !ReadMatrixExpect(r, &train->v_[p], rows, cols)) {
      return mismatch;
    }
    if (const char* bad = BadValue(train->m_[p], /*nonnegative=*/false)) {
      return Status::Error("SLIM " + name + " Adam m holds " + bad);
    }
    if (const char* bad = BadValue(train->v_[p], /*nonnegative=*/true)) {
      return Status::Error("SLIM " + name + " Adam v holds " + bad);
    }
  }
  return r->ok() ? Status::Ok() : mismatch;
}

bool SlimModel::CopyLearnedStateFrom(const SlimModel& src) {
  if (src.opts_.feature_dim != opts_.feature_dim ||
      src.opts_.time_dim != opts_.time_dim ||
      src.opts_.hidden_dim != opts_.hidden_dim ||
      src.opts_.out_dim != opts_.out_dim ||
      src.opts_.k_recent != opts_.k_recent) {
    return false;
  }
  // Models sharing one block already hold equal weights.
  if (weights_ != src.weights_) {
    const auto from = src.Params();
    const auto to = MutableParams();
    for (size_t p = 0; p < kNumParams; ++p) *to[p] = *from[p];
  }
  weights_version_ = src.weights_version_;
  return true;
}

void SlimModel::EncodeTime(SlimBatchInput* input, size_t n) const {
  // phi(dt)_j: sin/cos pairs of log-compressed dt at geometrically spaced
  // frequencies (fixed, not learned — same family as the degree encoding).
  // One dispatched kernel call (tensor/simd.h) encodes every row from the
  // assembler's log1p(dt): libm on the scalar reference backend, the
  // polynomial sincos two rows to a vector on avx512 at dt = 16, one row
  // per vector on avx2.
  SincosEncodeRows(input->time_x.data(), n, 0.5f,
                   input->cat1.Row(0) + opts_.feature_dim,
                   input->cat1.stride(), opts_.time_dim);
}

void SlimModel::ResizeScratch(size_t b, SlimTrainState* train) {
  const size_t k = opts_.k_recent, h = opts_.hidden_dim, o = opts_.out_dim;
  const size_t bk = b * k;
  fwd_.Resize(opts_, b, training_ && opts_.dropout > 0.0f);
  if (train != nullptr) {
    // The moments are allocated with the gradients, at the first step.
    if (!train->has_moments()) train->AllocateMoments();
    for (size_t p = 0; p < kNumParams; ++p) {
      train->grad_[p].Resize(train->shapes_[p].rows, train->shapes_[p].cols);
    }
    train->d_out_.ResizePadded(b, o);
    train->d_h_.ResizePadded(b, h);
    train->d_cat2_.ResizePadded(b, 2 * h);
    train->d_self_.ResizePadded(b, h);
    train->d_msg_.ResizePadded(bk, h);
  }
}

void SlimModel::DenseLayer(const Matrix& in, const Matrix& w,
                           const float* bias, Matrix* out, size_t col0,
                           size_t r0, size_t r1, bool relu,
                           std::vector<uint32_t>* nz) const {
  Matrix cols = Matrix::Columns(out, col0, w.cols());
  // The one-row kernel is bit-identical to the fused GEMM's row on the
  // same backend, and reads only the weight rows the row's nonzero inputs
  // reach.
  if (nz != nullptr && r1 - r0 == 1) {
    MatMulRowBiasAct(in, r0, w, &cols, bias, relu, nz);
    return;
  }
  MatMulBiasActRange(in, w, &cols, r0, r1, bias, relu);
}

void SlimModel::ForwardInto(SlimBatchInput* input, Rng* drop_rng,
                            bool for_backward, SlimForwardScratch* s) const {
  const size_t k = opts_.k_recent, h = opts_.hidden_dim;
  const size_t b = input->node_feats.rows();
  size_t nk = b * k;  // neighbor rows computed
  // A batch of one row takes the one-row kernel in every layer.
  const bool one_row = b == 1;
  std::vector<uint32_t>* nz = one_row ? &s->nz_index : nullptr;
  // The aggregation reads no empty slot's message, so a read stops the
  // neighbor rows after the valid prefix: a node with no history skips
  // the neighbor GEMM. The backward pass reads every slot's row, so
  // training keeps them all.
  if (one_row && !for_backward) nk = input->valid[0];
  const Weights& wts = *weights_;

  // --- neighbor branch -----------------------------------------------------
  // The assembler wrote the feature columns of the operand; the time
  // columns are encoded here, for the rows this pass computes.
  EncodeTime(input, nk);

  // Bias add + ReLU ride the GEMM tile store (fused epilogue): one pass
  // over each activation matrix instead of three. The scalar backend
  // computes the identical arithmetic to the historical separate passes.
  DenseLayer(input->cat1, wts.w1, wts.b1.data(), &s->msg_pre, 0, 0, nk,
             /*relu=*/true, nz);

  // agg (cat2's left half): the weighted mean of the valid messages, each
  // Axpy'd from +0 in slot order; no weights means unit weights.
  const float* weights = input->weights();
  for (size_t bi = 0; bi < b; ++bi) {
    float* arow = s->cat2.Row(bi);
    const size_t first = bi * k, valid = input->valid[bi];
    std::memset(arow, 0, h * sizeof(float));
    float wsum = 0.0f;
    for (size_t j = first; j < first + valid; ++j) {
      const float w = weights != nullptr ? weights[j] : 1.0f;
      wsum += w;
      Axpy(w, s->msg_pre.Row(j), arow, h);
    }
    const float inv = wsum > 1e-12f ? 1.0f / wsum : 0.0f;
    s->inv_weight[bi] = inv;
    for (size_t c = 0; c < h; ++c) arow[c] *= inv;
  }

  // --- self branch (cat2's right half) -------------------------------------
  DenseLayer(input->node_feats, wts.w2, wts.b2.data(), &s->cat2, h, 0, b,
             /*relu=*/true, nz);

  // --- head ----------------------------------------------------------------
  DenseLayer(s->cat2, wts.w3, wts.b3.data(), &s->h_pre, 0, 0, b, /*relu=*/true,
             nz);

  if (drop_rng != nullptr && training_ && opts_.dropout > 0.0f) {
    // Keep iff Uniform() = u * 2^-53 < keep, one draw per unit in row
    // order, for u = Next() >> 11: in integers, u < ceil(keep * 2^53) (the
    // scale is exact). A local Rng copy keeps the state in registers; the
    // mask's byte stores could alias the caller's.
    const float keep = 1.0f - opts_.dropout;
    const float scale = 1.0f / keep;
    const uint64_t threshold = static_cast<uint64_t>(
        std::ceil(static_cast<double>(keep) * 0x1.0p53));
    Rng rng = *drop_rng;
    for (size_t bi = 0; bi < b; ++bi) {
      float* row = s->h_pre.Row(bi);
      uint8_t* mask = s->drop_mask.data() + bi * h;
      for (size_t j = 0; j < h; ++j) {
        const bool kept = (rng.Next() >> 11) < threshold;
        mask[j] = kept;
        row[j] = KeepOrZero(kept, row[j] * scale);
      }
    }
    *drop_rng = rng;
  }

  DenseLayer(s->h_pre, wts.w4, wts.b4.data(), &s->out, 0, 0, b, /*relu=*/false,
             nz);
}

void SlimModel::ForwardAll(SlimBatchInput* input) {
  const size_t b = input->node_feats.rows();
  const size_t bk = b * opts_.k_recent;
  assert(input->node_feats.cols() == opts_.feature_dim);
  assert(input->cat1.rows() == bk &&
         input->cat1.cols() == opts_.feature_dim + opts_.time_dim);
  assert(input->time_x.size() == bk);
  assert(input->valid.size() == b);
  assert(input->edge_weights.empty() || input->edge_weights.size() == bk);
  (void)bk;
  ResizeScratch(b, nullptr);
  const bool wants_dropout = training_ && opts_.dropout > 0.0f;
  ForwardInto(input, wants_dropout ? rng_ : nullptr, /*for_backward=*/false,
              &fwd_);
}

Matrix SlimModel::Forward(SlimBatchInput* input) {
  ForwardAll(input);
  return fwd_.out;
}

const Matrix& SlimModel::PredictConst(SlimBatchInput* input,
                                      SlimForwardScratch* scratch) const {
  const size_t b = input->node_feats.rows();
  scratch->Resize(opts_, b, /*dropout=*/false);
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
  // The products with W4^T and W3^T below run on the forward GEMM tile.
  Transpose(weights_->w4, &train->w4t_);
  Transpose(weights_->w3, &train->w3t_);

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
  MatMulRange(d_out, train->w4t_, &d_h, 0, b);
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
  MatMulRange(d_h, train->w3t_, &d_cat2, 0, b);

  // Self branch: d_self = d_cat2[:, h:] masked by ReLU.
  for (size_t bi = 0; bi < b; ++bi) {
    const float* src = d_cat2.Row(bi) + h;
    const float* act = fwd_.cat2.Row(bi) + h;
    float* dst = d_self.Row(bi);
    for (size_t j = 0; j < h; ++j) dst[j] = KeepOrZero(act[j] > 0.0f, src[j]);
  }
  g[2].SetZero();
  MatMulTransARange(input.node_feats, d_self, &g[2], 0, b);
  ColumnSumsRange(d_self, g[3].data(), 0, b, /*accumulate=*/false);

  // Neighbor branch: distribute d_agg over the valid messages with their
  // mean weights, mask by ReLU; empty slots get zero rows.
  const float* weights = input.weights();
  for (size_t bi = 0; bi < b; ++bi) {
    const float* dagg = d_cat2.Row(bi);  // first h columns
    const float inv = fwd_.inv_weight[bi];
    const size_t valid = inv == 0.0f ? 0 : input.valid[bi];
    for (size_t j = 0; j < valid; ++j) {
      const size_t idx = bi * k + j;
      const float w = weights == nullptr ? inv : weights[idx] * inv;
      const float* act = fwd_.msg_pre.Row(idx);
      float* drow = d_msg.Row(idx);
      for (size_t jj = 0; jj < h; ++jj) {
        drow[jj] = KeepOrZero(act[jj] > 0.0f, w * dagg[jj]);
      }
    }
    for (size_t j = valid; j < k; ++j) {
      std::memset(d_msg.Row(bi * k + j), 0, h * sizeof(float));
    }
  }
  g[0].SetZero();
  MatMulTransARange(input.cat1, d_msg, &g[0], 0, bk);
  ColumnSumsRange(d_msg, g[1].data(), 0, bk, /*accumulate=*/false);
  return loss;
}

double SlimModel::TrainStep(SlimBatchInput* input,
                            const std::vector<int>& labels,
                            SlimTrainState* train) {
  const size_t b = input->node_feats.rows();
  assert(labels.size() == b);
  assert(Fits(*train));
  if (b == 0) return 0.0;
  ResizeScratch(b, train);

  const bool wants_dropout = training_ && opts_.dropout > 0.0f;
  ForwardInto(input, wants_dropout ? rng_ : nullptr, /*for_backward=*/true,
              &fwd_);
  const double loss = Backward(*input, labels, train);

  // Adam. Params are contiguous (never padded), so the fused kernel runs
  // over each flat block; the scalar backend is the historical loop plus
  // the subnormal-moment flush every backend shares.
  ++train->adam_t_;
  const float t = static_cast<float>(train->adam_t_);
  const float bias1 = 1.0f - std::pow(kAdamBeta1, t);
  const float bias2 = 1.0f - std::pow(kAdamBeta2, t);
  const float step = opts_.lr * std::sqrt(bias2) / bias1;
  // The first write of a shared weight block makes it private.
  const auto params = MutableParams();
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
