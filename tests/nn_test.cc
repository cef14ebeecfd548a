// Tests for the from-scratch NN library: tensor ops, layer forward/backward
// (checked against numerical differentiation), optimizers, losses, and
// parameter persistence.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "ds/nn/gradcheck.h"
#include "ds/nn/layers.h"
#include "ds/nn/loss.h"
#include "ds/nn/optimizer.h"
#include "ds/nn/tensor.h"
#include "ds/util/random.h"

namespace ds::nn {
namespace {

TEST(TensorTest, ShapeAndIndexing) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  t.at(1, 2) = 5.0f;
  EXPECT_EQ(t.at(5), 5.0f);  // row-major
  Tensor r = t.Reshaped({3, 2});
  EXPECT_EQ(r.at(2, 1), 5.0f);
  EXPECT_EQ(t.ShapeString(), "[2, 3]");
}

TEST(TensorTest, MatMulAgainstHandComputed) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154);
}

TEST(TensorTest, TransposedMatMulsAgreeWithExplicitTranspose) {
  util::Pcg32 rng(5);
  Tensor a({4, 3}), b({5, 3}), c({4, 6});
  for (auto* t : {&a, &b, &c}) {
    for (float& v : t->vec()) v = static_cast<float>(rng.Normal());
  }
  // a [4,3] x b^T [3,5] == MatMulTransposedB(a, b).
  Tensor bt({3, 5});
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 3; ++j) bt.at(j, i) = b.at(i, j);
  }
  Tensor want = MatMul(a, bt);
  Tensor got = MatMulTransposedB(a, b);
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got.at(i), want.at(i), 1e-4);
  }
  // a^T [3,4] x c [4,6] == MatMulTransposedA(a, c).
  Tensor at({3, 4});
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 3; ++j) at.at(j, i) = a.at(i, j);
  }
  Tensor want2 = MatMul(at, c);
  Tensor got2 = MatMulTransposedA(a, c);
  for (size_t i = 0; i < want2.size(); ++i) {
    EXPECT_NEAR(got2.at(i), want2.at(i), 1e-4);
  }
}

// Scalar loss used for gradient checks: sum of squares of the output.
double SumSquares(const Tensor& y) {
  double s = 0;
  for (size_t i = 0; i < y.size(); ++i) {
    s += static_cast<double>(y.at(i)) * static_cast<double>(y.at(i));
  }
  return s;
}

Tensor SumSquaresGrad(const Tensor& y) {
  Tensor d(y.shape());
  for (size_t i = 0; i < y.size(); ++i) d.at(i) = 2.0f * y.at(i);
  return d;
}

TEST(LinearTest, GradientCheck) {
  util::Pcg32 rng(11);
  Linear layer("l", 4, 3);
  layer.Initialize(&rng);
  Tensor x({5, 4});
  for (float& v : x.vec()) v = static_cast<float>(rng.Normal());

  Tensor y = layer.Forward(x);
  layer.Backward(SumSquaresGrad(y));

  auto loss = [&]() { return SumSquares(layer.Forward(x)); };
  for (Parameter* p : layer.Parameters()) {
    auto r = CheckParameterGradient(p, loss);
    EXPECT_LT(r.max_rel_error, 2e-2) << p->name;
  }
}

TEST(LinearTest, InputGradientCheck) {
  util::Pcg32 rng(13);
  Linear layer("l", 3, 2);
  layer.Initialize(&rng);
  Tensor x({2, 3});
  for (float& v : x.vec()) v = static_cast<float>(rng.Normal());
  Tensor y = layer.Forward(x);
  Tensor dx = layer.Backward(SumSquaresGrad(y));
  // Numerical check on the input gradient.
  const double eps = 1e-3;
  for (size_t i = 0; i < x.size(); ++i) {
    float saved = x.at(i);
    x.at(i) = saved + static_cast<float>(eps);
    double up = SumSquares(layer.Forward(x));
    x.at(i) = saved - static_cast<float>(eps);
    double down = SumSquares(layer.Forward(x));
    x.at(i) = saved;
    double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(dx.at(i), numeric, 2e-2 * std::max(1.0, std::abs(numeric)));
  }
}

TEST(MlpTest, GradientCheckThroughTwoLayers) {
  util::Pcg32 rng(17);
  Mlp mlp("m", {4, 6, 2}, /*final_activation=*/true);
  mlp.Initialize(&rng);
  Tensor x({3, 4});
  for (float& v : x.vec()) v = static_cast<float>(rng.Normal());
  Tensor y = mlp.Forward(x);
  mlp.Backward(SumSquaresGrad(y));
  auto loss = [&]() { return SumSquares(mlp.Forward(x)); };
  for (Parameter* p : mlp.Parameters()) {
    auto r = CheckParameterGradient(p, loss);
    EXPECT_LT(r.max_rel_error, 5e-2) << p->name;
  }
}

TEST(MlpTest, BackwardParamsMatchesBackwardBitForBit) {
  // {in, hidden..., out} x final activation; the first is the MSCN table
  // MLP's shape (a 1003-wide one-hot + sample bitmap input).
  const struct {
    std::vector<size_t> sizes;
    bool final_activation;
  } shapes[] = {{{1003, 64, 64}, true}, {{7, 5}, true},   {{7, 5}, false},
                {{9, 16, 3}, false},    {{12, 8, 8, 4}, true}};
  util::Pcg32 rng(41);
  for (const auto& shape : shapes) {
    Mlp full("m", shape.sizes, shape.final_activation);
    Mlp params_only("m", shape.sizes, shape.final_activation);
    util::Pcg32 init_a = rng.Fork(), init_b = init_a;
    full.Initialize(&init_a);
    params_only.Initialize(&init_b);
    // Two steps, so accumulation into non-zero gradients is covered too.
    for (int step = 0; step < 2; ++step) {
      const size_t rows = 1 + rng.Bounded(24);
      Tensor x({rows, shape.sizes.front()});
      for (float& v : x.vec()) {
        // Mostly zeros with a few ones and reals, like featurized rows.
        v = rng.Chance(0.9) ? 0.0f
            : rng.Chance(0.5) ? 1.0f
                              : static_cast<float>(rng.Normal());
      }
      Tensor dy(full.Forward(x).shape());
      for (float& v : dy.vec()) v = static_cast<float>(rng.Normal());
      params_only.Forward(x);
      full.Backward(dy);
      params_only.BackwardParams(dy);
    }
    const auto want = full.Parameters();
    const auto got = params_only.Parameters();
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(want[i]->grad.SameShape(got[i]->grad)) << want[i]->name;
      EXPECT_EQ(std::memcmp(want[i]->grad.data(), got[i]->grad.data(),
                            want[i]->grad.size() * sizeof(float)),
                0)
          << want[i]->name << " for an MLP of width " << shape.sizes.front();
    }
  }
}

TEST(ActivationTest, ReluForwardBackward) {
  ReLU relu;
  Tensor x = Tensor::FromData({1, 4}, {-1, 0, 2, -3});
  Tensor y = relu.Forward(x);
  EXPECT_FLOAT_EQ(y.at(0), 0);
  EXPECT_FLOAT_EQ(y.at(2), 2);
  Tensor dy = Tensor::FromData({1, 4}, {1, 1, 1, 1});
  Tensor dx = relu.Backward(dy);
  EXPECT_FLOAT_EQ(dx.at(0), 0);
  EXPECT_FLOAT_EQ(dx.at(2), 1);
}

TEST(ActivationTest, SigmoidMatchesClosedForm) {
  Sigmoid s;
  Tensor x = Tensor::FromData({1, 3}, {0, 2, -2});
  Tensor y = s.Forward(x);
  EXPECT_NEAR(y.at(0), 0.5, 1e-6);
  EXPECT_NEAR(y.at(1), 1.0 / (1.0 + std::exp(-2.0)), 1e-6);
  Tensor dy = Tensor::FromData({1, 3}, {1, 1, 1});
  Tensor dx = s.Backward(dy);
  EXPECT_NEAR(dx.at(0), 0.25, 1e-6);  // sigma'(0) = 1/4
}

TEST(MlpTest, InferMatchesForward) {
  util::Pcg32 rng(23);
  Mlp mlp("m", {4, 6, 2}, /*final_activation=*/true);
  mlp.Initialize(&rng);
  Tensor x({3, 4});
  for (float& v : x.vec()) v = static_cast<float>(rng.Normal());
  SparseRows xs;
  xs.Clear(4);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      xs.Push(static_cast<uint32_t>(j), x.at(i, j));
    }
    xs.EndRow();
  }
  Tensor trained = mlp.Forward(x);
  Workspace ws;
  const Tensor& inferred = *mlp.InferSparseInto(xs, &ws);
  ASSERT_EQ(inferred.size(), trained.size());
  for (size_t i = 0; i < trained.size(); ++i) {
    EXPECT_FLOAT_EQ(inferred.at(i), trained.at(i)) << i;
  }
  // Inference must leave no trace: a Backward after it still sees the
  // activations cached by the last Forward.
  ws.Reset();
  mlp.InferSparseInto(xs, &ws);
  mlp.Backward(SumSquaresGrad(trained));
}

TEST(ActivationTest, ApplyInPlaceMatchesForward) {
  Tensor x = Tensor::FromData({2, 2}, {-1.5f, 0.0f, 0.5f, 3.0f});
  Sigmoid sigmoid;
  Tensor want_sig = sigmoid.Forward(x);
  Tensor got_sig = x;
  Sigmoid::ApplyInPlace(&got_sig);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_FLOAT_EQ(got_sig.at(i), want_sig.at(i));
  }
}

TEST(MaskedMeanTest, PoolMatchesForward) {
  Tensor flat = Tensor::FromData({3, 2}, {1, 2, 3, 4, 5, 6});
  const std::vector<uint32_t> offsets = {0, 2, 3};
  MaskedMean pool;
  Tensor want = pool.Forward(flat, offsets);
  Tensor got;
  MaskedMean::PoolInto(flat, offsets, &got);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_FLOAT_EQ(got.at(i), want.at(i));
  }
}

TEST(MaskedMeanTest, AveragesOnlyRealElements) {
  // B=2 sets of H=2 features: set 0 owns rows 0-1, set 1 owns row 2.
  Tensor flat = Tensor::FromData({3, 2}, {1, 2, 3, 4, 5, 6});
  MaskedMean pool;
  Tensor out = pool.Forward(flat, std::vector<uint32_t>{0, 2, 3});
  EXPECT_FLOAT_EQ(out.at(0, 0), 2);  // (1+3)/2
  EXPECT_FLOAT_EQ(out.at(0, 1), 3);  // (2+4)/2
  EXPECT_FLOAT_EQ(out.at(1, 0), 5);
  EXPECT_FLOAT_EQ(out.at(1, 1), 6);
}

TEST(MaskedMeanTest, EmptySetYieldsZeroAndNoGradient) {
  // Set 0 has no rows; set 1 owns both.
  Tensor flat = Tensor::FromData({2, 2}, {7, 8, 9, 10});
  MaskedMean pool;
  Tensor out = pool.Forward(flat, std::vector<uint32_t>{0, 0, 2});
  EXPECT_FLOAT_EQ(out.at(0, 0), 0);
  EXPECT_FLOAT_EQ(out.at(0, 1), 0);
  EXPECT_FLOAT_EQ(out.at(1, 0), 8);
  // The empty set's gradient reaches no row.
  Tensor dy = Tensor::FromData({2, 2}, {100, 100, 0, 0});
  Tensor dflat = pool.Backward(dy);
  ASSERT_EQ(dflat.dim(0), 2u);
  for (size_t i = 0; i < dflat.size(); ++i) EXPECT_FLOAT_EQ(dflat.at(i), 0);
}

TEST(MaskedMeanTest, BackwardDistributesEvenly) {
  Tensor flat = Tensor::FromData({3, 1}, {1, 2, 3});
  MaskedMean pool;
  pool.Forward(flat, std::vector<uint32_t>{0, 2, 3});
  Tensor dy = Tensor::FromData({2, 1}, {6, 4});
  Tensor dflat = pool.Backward(dy);
  EXPECT_FLOAT_EQ(dflat.at(0), 3);  // 6 * 1/2
  EXPECT_FLOAT_EQ(dflat.at(1), 3);
  EXPECT_FLOAT_EQ(dflat.at(2), 4);  // the only row of set 1
}

TEST(LogNormalizerTest, RoundTrip) {
  LogNormalizer n = LogNormalizer::Fit({1, 10, 100000});
  EXPECT_NEAR(n.Normalize(100000), 1.0, 1e-9);
  EXPECT_NEAR(n.Normalize(1), 0.0, 1e-9);
  for (double card : {1.0, 5.0, 77.0, 5000.0}) {
    EXPECT_NEAR(n.Denormalize(n.Normalize(card)), card, card * 1e-6);
  }
  // Above the training max: clamped to 1.0 in normalized space.
  EXPECT_DOUBLE_EQ(n.Normalize(1e12), 1.0);
}

TEST(LossTest, QErrorLossValueAndGradientSign) {
  LogNormalizer norm;
  norm.min_log = 0.0;
  norm.max_log = std::log(1000.0);
  // One overestimate, one underestimate.
  Tensor y = Tensor::FromData({2, 1}, {0.9f, 0.1f});
  std::vector<double> truth = {10.0, 500.0};
  Tensor dy({2, 1});
  double loss = QErrorLoss(y, truth, norm, &dy);
  EXPECT_GE(loss, 1.0);
  EXPECT_GT(dy.at(0), 0);  // overestimate: push y down
  EXPECT_LT(dy.at(1), 0);  // underestimate: push y up
}

TEST(LossTest, QErrorGradientMatchesNumeric) {
  LogNormalizer norm;
  norm.max_log = std::log(5000.0);
  Tensor y = Tensor::FromData({3, 1}, {0.3f, 0.6f, 0.45f});
  std::vector<double> truth = {40.0, 400.0, 90.0};
  Tensor dy({3, 1});
  QErrorLoss(y, truth, norm, &dy);
  const double eps = 1e-4;
  for (size_t i = 0; i < 3; ++i) {
    Tensor up = y, down = y;
    up.at(i) += static_cast<float>(eps);
    down.at(i) -= static_cast<float>(eps);
    Tensor scratch({3, 1});
    double lu = QErrorLoss(up, truth, norm, &scratch);
    double ld = QErrorLoss(down, truth, norm, &scratch);
    EXPECT_NEAR(dy.at(i), (lu - ld) / (2 * eps),
                2e-2 * std::abs((lu - ld) / (2 * eps)) + 1e-4);
  }
}

TEST(LossTest, MseGradientMatchesNumeric) {
  LogNormalizer norm;
  norm.max_log = std::log(5000.0);
  Tensor y = Tensor::FromData({2, 1}, {0.3f, 0.8f});
  std::vector<double> truth = {40.0, 400.0};
  Tensor dy({2, 1});
  MseLoss(y, truth, norm, &dy);
  const double eps = 1e-4;
  for (size_t i = 0; i < 2; ++i) {
    Tensor up = y, down = y;
    up.at(i) += static_cast<float>(eps);
    down.at(i) -= static_cast<float>(eps);
    Tensor scratch({2, 1});
    double lu = MseLoss(up, truth, norm, &scratch);
    double ld = MseLoss(down, truth, norm, &scratch);
    EXPECT_NEAR(dy.at(i), (lu - ld) / (2 * eps), 1e-3);
  }
}

TEST(OptimizerTest, SgdDescendsQuadratic) {
  // Minimize ||w||^2 with SGD: w -> 0.
  Parameter w("w", {4});
  for (size_t i = 0; i < 4; ++i) w.value.at(i) = static_cast<float>(i + 1);
  Sgd sgd({&w}, /*lr=*/0.1f);
  for (int step = 0; step < 100; ++step) {
    for (size_t i = 0; i < 4; ++i) w.grad.at(i) = 2.0f * w.value.at(i);
    sgd.Step();
    sgd.ZeroGrad();
  }
  for (size_t i = 0; i < 4; ++i) EXPECT_NEAR(w.value.at(i), 0.0, 1e-3);
}

TEST(OptimizerTest, AdamDescendsQuadratic) {
  Parameter w("w", {4});
  for (size_t i = 0; i < 4; ++i) w.value.at(i) = static_cast<float>(i + 1);
  Adam adam({&w}, /*lr=*/0.05f);
  for (int step = 0; step < 500; ++step) {
    for (size_t i = 0; i < 4; ++i) w.grad.at(i) = 2.0f * w.value.at(i);
    adam.Step();
    adam.ZeroGrad();
  }
  for (size_t i = 0; i < 4; ++i) EXPECT_NEAR(w.value.at(i), 0.0, 1e-2);
}

TEST(PersistenceTest, ParameterRoundTrip) {
  util::Pcg32 rng(3);
  Mlp a("m", {3, 4, 2}, true);
  a.Initialize(&rng);
  util::BinaryWriter w;
  WriteParameters(a.Parameters(), &w);

  Mlp b("m", {3, 4, 2}, true);
  util::BinaryReader r(w.buffer());
  ASSERT_TRUE(ReadParameters(&r, b.Parameters()).ok());
  Tensor x({2, 3});
  for (float& v : x.vec()) v = static_cast<float>(rng.Normal());
  Tensor ya = a.Forward(x);
  Tensor yb = b.Forward(x);
  for (size_t i = 0; i < ya.size(); ++i) EXPECT_FLOAT_EQ(ya.at(i), yb.at(i));
}

TEST(PersistenceTest, MismatchedShapeRejected) {
  util::Pcg32 rng(3);
  Mlp a("m", {3, 4, 2}, true);
  a.Initialize(&rng);
  util::BinaryWriter w;
  WriteParameters(a.Parameters(), &w);
  Mlp b("m", {3, 5, 2}, true);  // different hidden width
  util::BinaryReader r(w.buffer());
  EXPECT_FALSE(ReadParameters(&r, b.Parameters()).ok());
}

}  // namespace
}  // namespace ds::nn
