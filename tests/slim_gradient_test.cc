// Copyright 2026 The SPLASH Reproduction Authors.
//
// Oracles for SLIM's train step (core/slim.cc): its hand-written backward
// pass against finite differences, and its dropout draws against a
// reference Rng.
//
// Backward. A test-local double-precision copy of SLIM's forward pass
// and mean cross-entropy loss, with dropout off, gives central differences
// of the loss with respect to parameter entries of every block (w1 b1 w2
// b2 w3 b3 w4 b4). The model's analytic gradient is read back with no
// extra API: after one TrainStep from a fresh SlimTrainState, Adam's first
// moment is m = (1 - beta1) * g, and SlimModel::Serialize writes m beside
// each parameter. The pre-step weights come from a Serialize before the
// step, so the double model differentiates exactly the point the float
// model did.
//
// Tolerance, per entry: |g_model - g_fd| <= 1e-3 * |g_fd| + 1e-4 * scale,
// where scale is the largest |g_fd| sampled in that block. The float
// forward and backward round at ~1e-7 relative, and the double central
// difference (step 1e-6) is exact to ~1e-9: on every backend the worst
// entry of a correct backward uses under 1% of the bound, while a wrong
// product (a weight fed untransposed, a dropped mask) moves whole blocks by
// O(scale).
//
// It runs on every kernel backend this host can execute.
//
// Dropout. One training forward draws exactly one Rng::Uniform() per
// hidden unit, row by row, and keeps a unit iff its draw is < 1 - dropout.
// A model whose hidden layer reads 1 on every unit and whose head is the
// identity outputs the dropout mask itself (scaled), so the mask and the
// Rng's final state are compared against a reference Rng. The first draw
// is steered to land exactly on the keep threshold, where `<` and `<=`
// disagree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "core/slim.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"
#include "tensor/simd.h"

namespace splash {
namespace {

constexpr size_t kNumParams = SlimTrainState::kNumParams;
const char* const kParamNames[kNumParams] = {"w1", "b1", "w2", "b2",
                                             "w3", "b3", "w4", "b4"};

/// One parameter block in double, row-major.
struct Block {
  size_t rows = 0, cols = 0;
  std::vector<double> v;
  double& at(size_t r, size_t c) { return v[r * cols + c]; }
  double at(size_t r, size_t c) const { return v[r * cols + c]; }
};

struct Params {
  Block p[kNumParams];
};

/// The parameter blocks of a SlimModel::Serialize stream, in parameter
/// order. `moments` picks Adam's m (true) instead of the weights.
Params ReadSerialized(const ByteWriter& w, bool moments) {
  ByteReader r(w.buffer());
  r.U64();  // Adam step
  Params out;
  for (size_t p = 0; p < kNumParams; ++p) {
    Matrix weight, m, v;
    EXPECT_TRUE(ReadMatrix(&r, &weight));
    EXPECT_TRUE(ReadMatrix(&r, &m));
    EXPECT_TRUE(ReadMatrix(&r, &v));
    const Matrix& src = moments ? m : weight;
    Block& b = out.p[p];
    b.rows = src.rows();
    b.cols = src.cols();
    b.v.resize(b.rows * b.cols);
    for (size_t i = 0; i < b.rows; ++i) {
      for (size_t j = 0; j < b.cols; ++j) b.at(i, j) = src(i, j);
    }
  }
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
  return out;
}

/// out = relu?(in * w + bias) for one row; `in` has w.rows entries.
void DenseRow(const std::vector<double>& in, const Block& w,
              const Block& bias, bool relu, std::vector<double>* out) {
  out->assign(w.cols, 0.0);
  for (size_t j = 0; j < w.cols; ++j) {
    double acc = bias.v[j];
    for (size_t i = 0; i < w.rows; ++i) acc += in[i] * w.at(i, j);
    (*out)[j] = relu && acc < 0.0 ? 0.0 : acc;
  }
}

/// SLIM's mean cross-entropy over the batch, in double, dropout off. The
/// same formulas as SlimModel::ForwardInto (core/slim.h's header) and the
/// softmax loss of its backward pass, without the loss's 1e-12 guard.
double Loss(const SlimOptions& o, const Params& w, const SlimBatchInput& in,
            const std::vector<int>& labels) {
  const size_t b = in.node_feats.rows(), k = o.k_recent, dv = o.feature_dim,
               dt = o.time_dim, h = o.hidden_dim;
  const Block &w1 = w.p[0], &b1 = w.p[1], &w2 = w.p[2], &b2 = w.p[3],
              &w3 = w.p[4], &b3 = w.p[5], &w4 = w.p[6], &b4 = w.p[7];
  std::vector<double> cat1(dv + dt), msg, self, cat2(2 * h), hid, out;
  double total = 0.0;
  for (size_t bi = 0; bi < b; ++bi) {
    std::vector<double> agg(h, 0.0);
    double wsum = 0.0;
    for (size_t j = 0; j < in.valid[bi]; ++j) {
      const size_t row = bi * k + j;
      for (size_t c = 0; c < dv; ++c) cat1[c] = in.cat1(row, c);
      // phi(dt): sin/cos pairs at frequencies 0.5^p of the batch's
      // x = log1p(max(dt, 0)), and 0.1 x in the last column of an odd
      // width.
      const double x = in.time_x[row];
      double freq = 1.0;
      for (size_t c = 0; c + 1 < dt; c += 2) {
        cat1[dv + c] = std::sin(x * freq);
        cat1[dv + c + 1] = std::cos(x * freq);
        freq *= 0.5;
      }
      if (dt % 2 == 1) cat1[dv + dt - 1] = 0.1 * x;
      DenseRow(cat1, w1, b1, /*relu=*/true, &msg);
      const double ew = in.edge_weights.empty() ? 1.0 : in.edge_weights[row];
      wsum += ew;
      for (size_t c = 0; c < h; ++c) agg[c] += ew * msg[c];
    }
    const double inv = wsum > 1e-12 ? 1.0 / wsum : 0.0;
    std::vector<double> x(dv);
    for (size_t c = 0; c < dv; ++c) x[c] = in.node_feats(bi, c);
    DenseRow(x, w2, b2, /*relu=*/true, &self);
    for (size_t c = 0; c < h; ++c) {
      cat2[c] = agg[c] * inv;
      cat2[h + c] = self[c];
    }
    DenseRow(cat2, w3, b3, /*relu=*/true, &hid);
    DenseRow(hid, w4, b4, /*relu=*/false, &out);
    const double mx = *std::max_element(out.begin(), out.end());
    double sum = 0.0;
    for (const double v : out) sum += std::exp(v - mx);
    total += mx + std::log(sum) - out[static_cast<size_t>(labels[bi])];
  }
  return total / static_cast<double>(b);
}

struct Shape {
  const char* name;
  size_t feature_dim, time_dim, hidden_dim, out_dim, k_recent, batch;
  size_t samples;  // FD entries per block; 0 = every entry
  bool weighted;   // per-slot edge weights, else unit weights
};

/// A batch with every valid-slot pattern SLIM's aggregation
/// distinguishes: all slots valid, a valid prefix, and no valid slot
/// (inv_weight 0). Every slot, valid or not, holds Gaussian features and
/// a time code of dt in [-5, 45).
SlimBatchInput MakeBatch(const Shape& s, const SlimOptions& opts, Rng* rng,
                         std::vector<int>* labels) {
  const size_t b = s.batch, k = s.k_recent;
  SlimBatchInput in;
  in.Resize(opts, b, s.weighted);
  rng->FillGaussian(in.node_feats.data(), b * s.feature_dim, 1.0f);
  for (size_t r = 0; r < b * k; ++r) {
    rng->FillGaussian(in.cat1.Row(r), s.feature_dim, 1.0f);
  }
  labels->resize(b);
  for (size_t bi = 0; bi < b; ++bi) {
    in.valid[bi] = static_cast<uint32_t>(
        bi == 0 ? k : (bi % 4 == 3 ? 0 : 1 + bi % k));
    for (size_t j = 0; j < k; ++j) {
      const double dt = 50.0 * rng->Uniform() - 5.0;
      in.time_x[bi * k + j] =
          std::log1p(static_cast<float>(dt < 0.0 ? 0.0 : dt));
      const float w = 0.5f + static_cast<float>(rng->Uniform());
      if (s.weighted) in.edge_weights[bi * k + j] = w;
    }
    (*labels)[bi] = static_cast<int>(rng->UniformInt(s.out_dim));
  }
  return in;
}

/// Checks the model's gradient against central differences on `s`.
void CheckShape(const Shape& s) {
  SCOPED_TRACE(std::string(s.name) + " on " + KernelBackendName());
  SlimOptions opts;
  opts.feature_dim = s.feature_dim;
  opts.time_dim = s.time_dim;
  opts.hidden_dim = s.hidden_dim;
  opts.out_dim = s.out_dim;
  opts.k_recent = s.k_recent;
  opts.dropout = 0.0f;
  Rng rng(29);
  SlimModel model(opts, &rng);
  model.SetTraining(true);
  SlimTrainState train(opts);
  std::vector<int> labels;
  SlimBatchInput in = MakeBatch(s, opts, &rng, &labels);

  ByteWriter before, after;
  model.Serialize(&before, train);
  model.TrainStep(&in, labels, &train);
  model.Serialize(&after, train);
  Params w = ReadSerialized(before, /*moments=*/false);
  const Params m = ReadSerialized(after, /*moments=*/true);
  // Adam's first step from m = 0 stores (1 - beta1) * g, beta1 = 0.9f.
  const double one_minus_beta1 = static_cast<double>(1.0f - 0.9f);

  constexpr double kStep = 1e-6;
  Rng pick(7);
  for (size_t p = 0; p < kNumParams; ++p) {
    SCOPED_TRACE(kParamNames[p]);
    Block& block = w.p[p];
    const size_t n = block.v.size();
    std::vector<size_t> entries;
    if (s.samples == 0 || s.samples >= n) {
      for (size_t e = 0; e < n; ++e) entries.push_back(e);
    } else {
      for (size_t e = 0; e < s.samples; ++e) {
        entries.push_back(pick.UniformInt(n));
      }
    }
    std::vector<double> fd(entries.size()), model_g(entries.size());
    double scale = 0.0;
    for (size_t e = 0; e < entries.size(); ++e) {
      double& x = block.v[entries[e]];
      const double x0 = x;
      x = x0 + kStep;
      const double up = Loss(opts, w, in, labels);
      x = x0 - kStep;
      const double down = Loss(opts, w, in, labels);
      x = x0;
      fd[e] = (up - down) / (2.0 * kStep);
      model_g[e] = m.p[p].v[entries[e]] / one_minus_beta1;
      scale = std::max(scale, std::fabs(fd[e]));
    }
    // A block whose sampled gradient is all zero would check nothing.
    ASSERT_GT(scale, 0.0);
    for (size_t e = 0; e < entries.size(); ++e) {
      EXPECT_NEAR(model_g[e], fd[e], 1e-3 * std::fabs(fd[e]) + 1e-4 * scale)
          << "entry " << entries[e] << " (row " << entries[e] / block.cols
          << ", col " << entries[e] % block.cols << ")";
    }
  }
}

/// A SlimModel::Serialize stream of `opts`'s shape whose weights are all
/// zero except b3 = 1 and w4 = the identity (out_dim == hidden_dim), with
/// zero moments: every hidden unit reads relu(0 + 1) = 1 before dropout,
/// and the output row is the hidden row.
ByteWriter IdentityHeadStream(const SlimOptions& opts) {
  const size_t dv = opts.feature_dim, dt = opts.time_dim, h = opts.hidden_dim;
  const size_t shapes[kNumParams][2] = {{dv + dt, h}, {1, h}, {dv, h},
                                        {1, h},       {2 * h, h}, {1, h},
                                        {h, h},       {1, h}};
  ByteWriter w;
  w.U64(0);  // Adam step
  for (size_t p = 0; p < kNumParams; ++p) {
    Matrix param(shapes[p][0], shapes[p][1]);
    if (p == 5) param.Fill(1.0f);
    if (p == 6) {
      for (size_t i = 0; i < h; ++i) param(i, i) = 1.0f;
    }
    const Matrix zero(shapes[p][0], shapes[p][1]);
    WriteMatrix(&w, param);
    WriteMatrix(&w, zero);
    WriteMatrix(&w, zero);
  }
  return w;
}

bool SameState(const Rng& a, const Rng& b) {
  const Rng::State x = a.SaveState(), y = b.SaveState();
  return std::equal(x.s, x.s + 4, y.s) && x.has_cached == y.has_cached;
}

TEST(SlimDropoutTest, DrawsOneUniformPerUnitInRowOrder) {
  SlimOptions opts;
  opts.feature_dim = 4;
  opts.time_dim = 4;
  opts.hidden_dim = 24;
  opts.out_dim = 24;
  opts.k_recent = 3;
  opts.dropout = 0.3f;
  Rng rng(41);
  SlimModel model(opts, &rng);
  SlimTrainState train(opts);
  const ByteWriter stream = IdentityHeadStream(opts);
  model.SetTraining(true);

  const size_t b = 9, h = opts.hidden_dim;
  SlimBatchInput in;
  in.Resize(opts, b, /*weighted=*/false);
  for (size_t bi = 0; bi < b; ++bi) in.valid[bi] = bi % 4;
  const std::vector<int> labels(b, 1);

  const float keep = 1.0f - opts.dropout;
  const float scale = 1.0f / keep;
  // xoshiro256++ returns rotl(s0 + s3, 23) + s0: with s0 = 0 and
  // s3 = rotr(v, 23) the next draw is v. Its top 53 bits are keep * 2^53,
  // so the first Uniform() is exactly keep: dropped under `<`.
  const uint64_t v = static_cast<uint64_t>(static_cast<double>(keep) *
                                           0x1.0p53) << 11;
  Rng::State st = rng.SaveState();
  st.s[0] = 0;
  st.s[3] = (v >> 23) | (v << 41);
  rng.LoadState(st);

  for (const char* backend : {"scalar", "avx2", "avx512"}) {
    if (!SetKernelBackendForTesting(backend)) continue;  // not on this CPU
    SCOPED_TRACE(backend);
    ByteReader reader(stream.buffer());
    ASSERT_TRUE(model.Deserialize(&reader, &train).ok());
    rng.LoadState(st);
    // Forward in training mode applies the train step's dropout.
    Rng ref = rng;
    const Matrix out = model.Forward(&in);
    size_t dropped = 0;
    for (size_t bi = 0; bi < b; ++bi) {
      for (size_t j = 0; j < h; ++j) {
        const bool kept = ref.Uniform() < keep;
        dropped += !kept;
        ASSERT_EQ(out(bi, j), kept ? scale : 0.0f)
            << "row " << bi << " unit " << j;
      }
    }
    EXPECT_GT(dropped, 1u);  // the steered first draw and at least one more
    EXPECT_TRUE(SameState(rng, ref)) << "forward drew other than b*H";

    // A train step draws the same b*H uniforms, and nothing else.
    ref = rng;
    for (size_t i = 0; i < b * h; ++i) ref.Uniform();
    model.TrainStep(&in, labels, &train);
    EXPECT_TRUE(SameState(rng, ref)) << "train step drew other than b*H";
  }
  ASSERT_TRUE(SetKernelBackendForTesting("auto"));
}

TEST(SlimGradientTest, BackwardMatchesFiniteDifferencesOnEveryBackend) {
  const Shape shapes[] = {
      // Odd widths: every kernel's masked tails, and phi's odd 0.1 x column.
      // Weighted, as the attention stand-ins aggregate.
      {"small", 5, 5, 12, 3, 4, 7, 0, true},
      // The replay/ingest architecture at the ingest train-batch size,
      // weighted and then with SPLASH's unit weights.
      {"paper_b25", 32, 16, 64, 2, 10, 25, 24, true},
      {"paper_b25_unit", 32, 16, 64, 2, 10, 25, 24, false},
      // One row: the forward takes the one-row kernel in every layer.
      {"paper_b1", 32, 16, 64, 2, 10, 1, 24, true},
  };
  int backends = 0;
  for (const char* backend : {"scalar", "avx2", "avx512"}) {
    if (!SetKernelBackendForTesting(backend)) continue;  // not on this CPU
    ++backends;
    for (const Shape& s : shapes) CheckShape(s);
  }
  ASSERT_TRUE(SetKernelBackendForTesting("auto"));
  EXPECT_GE(backends, 1);
}

}  // namespace
}  // namespace splash
