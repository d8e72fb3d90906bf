// Copyright 2026 The SPLASH Reproduction Authors.
//
// Determinism contracts of the parallel runtime (ISSUE 2): the tensor
// kernels are bit-identical at any thread count, SLIM's batch-parallel
// train path tracks the serial one to float tolerance, and a full
// StreamTrainer::Fit at 1 vs 4 threads picks the same process and lands
// on the same val metric within 1e-6.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/slim.h"
#include "core/splash.h"
#include "datasets/synthetic.h"
#include "eval/trainer.h"
#include "runtime/thread_pool.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"

namespace splash {
namespace {

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  // Leave the process-wide pool serial for whoever runs next.
  void TearDown() override { ThreadPool::SetGlobalThreads(1); }
};

TEST_F(ParallelDeterminismTest, MatMulKernelsBitIdenticalAcrossThreads) {
  Rng rng(11);
  const Matrix a = Matrix::Gaussian(300, 96, &rng);
  const Matrix b = Matrix::Gaussian(96, 80, &rng);
  const Matrix bt = Matrix::Gaussian(80, 96, &rng);

  ThreadPool::SetGlobalThreads(1);
  Matrix c1(300, 80), t1(300, 80), a1(96, 80);
  MatMul(a, b, &c1);
  MatMulTransB(a, bt, &t1);
  MatMulTransA(a, Matrix::Gaussian(300, 80, &rng), &a1);

  Rng rng2(11);
  const Matrix a2 = Matrix::Gaussian(300, 96, &rng2);
  const Matrix b2 = Matrix::Gaussian(96, 80, &rng2);
  const Matrix bt2 = Matrix::Gaussian(80, 96, &rng2);
  ThreadPool::SetGlobalThreads(4);
  Matrix c4(300, 80), t4(300, 80), a4(96, 80);
  MatMul(a2, b2, &c4);
  MatMulTransB(a2, bt2, &t4);
  MatMulTransA(a2, Matrix::Gaussian(300, 80, &rng2), &a4);

  for (size_t i = 0; i < c1.size(); ++i) {
    ASSERT_EQ(c1.data()[i], c4.data()[i]) << "MatMul element " << i;
    ASSERT_EQ(t1.data()[i], t4.data()[i]) << "MatMulTransB element " << i;
  }
  for (size_t i = 0; i < a1.size(); ++i) {
    ASSERT_EQ(a1.data()[i], a4.data()[i]) << "MatMulTransA element " << i;
  }
}

SlimBatchInput MakeBatch(size_t b, size_t k, size_t dv, Rng* rng) {
  SlimBatchInput input;
  input.node_feats = Matrix::Gaussian(b, dv, rng);
  input.neighbor_feats = Matrix::Gaussian(b * k, dv, rng);
  input.time_deltas.resize(b * k);
  for (size_t i = 0; i < b * k; ++i) {
    input.time_deltas[i] = rng->Uniform() * 10.0;
  }
  input.mask = Matrix::Ones(b, k);
  input.edge_weights.assign(b * k, 1.0f);
  return input;
}

TEST_F(ParallelDeterminismTest, SlimForwardBitIdenticalAcrossThreads) {
  SlimOptions opts;
  opts.feature_dim = 24;
  opts.hidden_dim = 48;
  opts.k_recent = 6;
  opts.dropout = 0.0f;
  Rng data_rng(5);
  const SlimBatchInput input = MakeBatch(200, 6, 24, &data_rng);

  Matrix outs[2];
  const size_t threads[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    ThreadPool::SetGlobalThreads(threads[run]);
    Rng rng(42);
    SlimModel model(opts, &rng);
    model.SetTraining(false);
    outs[run] = model.Forward(input);
  }
  ASSERT_EQ(outs[0].size(), outs[1].size());
  for (size_t i = 0; i < outs[0].size(); ++i) {
    ASSERT_EQ(outs[0].data()[i], outs[1].data()[i]) << "element " << i;
  }
}

TEST_F(ParallelDeterminismTest, SlimTrainStepMatchesSerialWithinTolerance) {
  SlimOptions opts;
  opts.feature_dim = 24;
  opts.hidden_dim = 48;
  opts.k_recent = 6;
  opts.dropout = 0.0f;  // isolate the gradient-reduction order difference
  Rng data_rng(6);
  const SlimBatchInput input = MakeBatch(160, 6, 24, &data_rng);
  std::vector<int> labels(160);
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 2);
  }

  double losses[2][5];
  const size_t threads[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    ThreadPool::SetGlobalThreads(threads[run]);
    Rng rng(42);
    SlimModel model(opts, &rng);
    SlimTrainState train(opts);
    model.SetTraining(true);
    for (int step = 0; step < 5; ++step) {
      losses[run][step] = model.TrainStep(input, labels, &train);
    }
  }
  for (int step = 0; step < 5; ++step) {
    EXPECT_NEAR(losses[0][step], losses[1][step], 1e-6)
        << "train step " << step;
  }
}

TEST_F(ParallelDeterminismTest, SlimTrainStepSameAtTwoAndFourThreads) {
  // Chunk boundaries and dropout streams depend on the batch only, and
  // per-chunk grads reduce per worker in fixed order — but worker chunk
  // ownership shifts with the thread count, so cross-thread-count equality
  // is to tolerance while repeat runs at one count are exactly equal.
  SlimOptions opts;
  opts.feature_dim = 16;
  opts.hidden_dim = 32;
  opts.k_recent = 4;
  opts.dropout = 0.2f;  // exercises the per-chunk Rng streams
  Rng data_rng(7);
  const SlimBatchInput input = MakeBatch(128, 4, 16, &data_rng);
  std::vector<int> labels(128, 1);

  double first = 0.0;
  for (int repeat = 0; repeat < 2; ++repeat) {
    ThreadPool::SetGlobalThreads(4);
    Rng rng(42);
    SlimModel model(opts, &rng);
    SlimTrainState train(opts);
    model.SetTraining(true);
    double loss = 0.0;
    for (int step = 0; step < 3; ++step) {
      loss = model.TrainStep(input, labels, &train);
    }
    if (repeat == 0) {
      first = loss;
    } else {
      EXPECT_DOUBLE_EQ(first, loss);  // same thread count => exact repeat
    }
  }

  ThreadPool::SetGlobalThreads(2);
  Rng rng(42);
  SlimModel model(opts, &rng);
  SlimTrainState train(opts);
  model.SetTraining(true);
  double loss2 = 0.0;
  for (int step = 0; step < 3; ++step) {
    loss2 = model.TrainStep(input, labels, &train);
  }
  EXPECT_NEAR(first, loss2, 1e-6);  // same dropout masks, reduction differs
}

TEST_F(ParallelDeterminismTest, FitSelectsSameProcessAndMetricAcrossThreads) {
  SyntheticConfig cfg;
  cfg.task = TaskType::kNodeClassification;
  cfg.num_nodes = 150;
  cfg.num_edges = 3000;
  cfg.num_communities = 3;
  cfg.intra_prob = 0.9;
  cfg.query_rate = 0.3;
  cfg.late_arrival_frac = 0.2;
  cfg.seed = 9;
  const Dataset ds = GenerateSynthetic(cfg);
  const ChronoSplit split = MakeChronoSplit(ds.stream, 0.1, 0.1);

  AugmentationProcess picks[2];
  double val_metric[2], test_metric[2];
  const size_t threads[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    SplashOptions opts;
    opts.mode = SplashMode::kAuto;
    opts.augment.feature_dim = 16;
    opts.slim.hidden_dim = 32;
    opts.slim.time_dim = 8;
    opts.slim.k_recent = 5;
    opts.slim.dropout = 0.0f;  // masks differ serial-vs-parallel otherwise
    opts.seed = 7;
    SplashPredictor model(opts);
    ASSERT_TRUE(model.Prepare(ds, split).ok());
    picks[run] = model.selected_process();

    TrainerOptions topts;
    topts.epochs = 2;
    topts.batch_size = 64;
    topts.num_threads = threads[run];
    StreamTrainer trainer(topts);
    const FitResult fit = trainer.Fit(&model, ds, split);
    val_metric[run] = fit.best_val_metric;
    test_metric[run] = trainer.Evaluate(&model, ds, split).metric;
  }
  EXPECT_EQ(picks[0], picks[1]);
  EXPECT_NEAR(val_metric[0], val_metric[1], 1e-6);
  EXPECT_NEAR(test_metric[0], test_metric[1], 1e-6);
}

}  // namespace
}  // namespace splash
