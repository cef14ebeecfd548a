// Tests for the zero-allocation kernel layer: bit-for-bit parity of the
// Into/fused/sparse kernels with the tensor.h reference ops and of CSR-fed
// layers with dense ones, runtime kernel-tier dispatch, workspace reuse,
// featurization parity with the reference featurizer in test_util,
// inference parity with the training Forward,
// batched-vs-single estimation, the steady-state zero-allocation guarantee,
// and data-parallel training.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "ds/mscn/dataset.h"
#include "ds/mscn/featurizer.h"
#include "ds/mscn/model.h"
#include "ds/mscn/trainer.h"
#include "ds/nn/kernels.h"
#include "ds/nn/layers.h"
#include "ds/nn/tensor.h"
#include "ds/nn/workspace.h"
#include "ds/sketch/deep_sketch.h"
#include "ds/sql/binder.h"
#include "ds/util/alloc.h"
#include "ds/util/contract.h"
#include "ds/util/parallel.h"
#include "ds/util/random.h"
#include "test_util.h"

namespace ds {
namespace {

using nn::LinearBiasActInto;
using nn::MatMulInto;
using nn::MatMulTransposedAAccumulate;
using nn::MatMulTransposedBInto;
using nn::SparseLinearBiasActInto;
using nn::SparseRows;
using nn::Tensor;
using nn::Workspace;

Tensor RandomTensor(const std::vector<size_t>& shape, util::Pcg32* rng,
                    double zero_fraction = 0.0) {
  Tensor t(shape);
  for (float& v : t.vec()) {
    v = rng->UniformDouble(0, 1) < zero_fraction
            ? 0.0f
            : static_cast<float>(rng->Normal());
  }
  return t;
}

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.SameShape(b));
  for (size_t i = 0; i < a.size(); ++i) {
    // Bit-for-bit: exact float equality, no tolerance.
    ASSERT_EQ(a.at(i), b.at(i)) << "mismatch at flat index " << i;
  }
}

// ---- Dense kernel parity ---------------------------------------------------

TEST(KernelTest, MatMulIntoMatchesReferenceBitForBit) {
  util::Pcg32 rng(7);
  // Shapes straddling the 8-wide AVX2 vector width, plus sparse-ish inputs
  // exercising the zero-skip path.
  const size_t dims[][3] = {{1, 1, 1},   {2, 3, 4},   {5, 8, 8},
                            {3, 17, 33}, {16, 64, 64}, {7, 13, 9}};
  for (const auto& d : dims) {
    for (double zf : {0.0, 0.6, 1.0}) {
      Tensor a = RandomTensor({d[0], d[1]}, &rng, zf);
      Tensor b = RandomTensor({d[1], d[2]}, &rng);
      Tensor want = nn::MatMul(a, b);
      Tensor got;
      MatMulInto(a, b, &got);
      ExpectBitIdentical(want, got);
    }
  }
}

TEST(KernelTest, FusedLinearBiasActMatchesUnfusedBitForBit) {
  util::Pcg32 rng(8);
  for (const auto& d : {std::vector<size_t>{4, 29, 16},
                        std::vector<size_t>{1, 64, 64},
                        std::vector<size_t>{9, 7, 3}}) {
    Tensor x = RandomTensor({d[0], d[1]}, &rng, 0.5);
    Tensor w = RandomTensor({d[1], d[2]}, &rng);
    Tensor b = RandomTensor({d[2]}, &rng);
    for (bool relu : {false, true}) {
      Tensor want = nn::MatMul(x, w);
      nn::AddBiasRows(&want, b);
      if (relu) want = nn::ReLU().Forward(std::move(want));
      Tensor got;
      LinearBiasActInto(x, w, b, relu, &got);
      ExpectBitIdentical(want, got);
    }
  }
}

TEST(KernelTest, TransposedBWithinOneUlp) {
  util::Pcg32 rng(9);
  Tensor a = RandomTensor({6, 33}, &rng);
  Tensor b = RandomTensor({11, 33}, &rng);
  Tensor want = nn::MatMulTransposedB(a, b);
  Tensor got;
  MatMulTransposedBInto(a, b, &got);
  ASSERT_TRUE(want.SameShape(got));
  for (size_t i = 0; i < want.size(); ++i) {
    // Multi-accumulator dots reassociate; error stays within a few ulps of
    // the reference for these magnitudes.
    EXPECT_NEAR(want.at(i), got.at(i),
                2e-5f * (1.0f + std::fabs(want.at(i))));
  }
}

TEST(KernelTest, TransposedAAccumulateMatchesReferencePlusAxpy) {
  util::Pcg32 rng(10);
  Tensor a = RandomTensor({12, 19}, &rng, 0.3);
  Tensor b = RandomTensor({12, 5}, &rng);
  // Reference: dW += a^T b via temporary + Axpy, starting from zero.
  Tensor want({19, 5});
  nn::Axpy(1.0f, nn::MatMulTransposedA(a, b), &want);
  Tensor got({19, 5});
  MatMulTransposedAAccumulate(a, b, &got);
  ExpectBitIdentical(want, got);
  // A second call keeps accumulating element-by-element, which is NOT the
  // same float sequence as adding a presummed tensor — the order-matched
  // reference is one pass over the row-stacked inputs [a;a], [b;b].
  MatMulTransposedAAccumulate(a, b, &got);
  Tensor a2({24, 19}), b2({24, 5});
  for (int rep = 0; rep < 2; ++rep) {
    std::copy(a.data(), a.data() + a.size(), a2.data() + rep * a.size());
    std::copy(b.data(), b.data() + b.size(), b2.data() + rep * b.size());
  }
  Tensor want2 = nn::MatMulTransposedA(a2, b2);
  ExpectBitIdentical(want2, got);
}

// ---- Runtime dispatch ------------------------------------------------------

TEST(DispatchTest, GenericTierAlwaysAvailable) {
  const auto tiers = nn::AvailableKernelTiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), nn::KernelTier::kGeneric);
  for (size_t i = 1; i < tiers.size(); ++i) {
    EXPECT_LT(static_cast<int>(tiers[i - 1]), static_cast<int>(tiers[i]));
  }
}

SparseRows MakeSparse(const Tensor& dense) {
  SparseRows s;
  s.Clear(dense.dim(1));
  for (size_t i = 0; i < dense.dim(0); ++i) {
    for (size_t j = 0; j < dense.dim(1); ++j) {
      const float v = dense.at(i, j);
      if (v != 0.0f) s.Push(static_cast<uint32_t>(j), v);
    }
    s.EndRow();
  }
  return s;
}

TEST(DispatchTest, SetTierRoundTripsThroughEveryAvailableTier) {
  const nn::KernelTier entry = nn::ActiveKernelTier();
  for (nn::KernelTier t : nn::AvailableKernelTiers()) {
    ASSERT_TRUE(nn::SetKernelTier(t)) << nn::KernelTierName(t);
    EXPECT_EQ(nn::ActiveKernelTier(), t);
    EXPECT_EQ(nn::KernelsVectorized(), t != nn::KernelTier::kGeneric);
  }
  ASSERT_TRUE(nn::SetKernelTier(entry));
}

TEST(DispatchTest, EveryTierAgreesWithGenericOnTheFusedKernel) {
  // Every tier uses generic's mul+add order, so the fused dense and sparse
  // kernels are bit-identical across tiers. Widths 18 and 37 exercise the
  // 16-wide, 8-wide and scalar tails of the vector loops.
  const nn::KernelTier entry = nn::ActiveKernelTier();
  util::Pcg32 rng(31);
  for (size_t m : {18u, 37u}) {
    Tensor x = RandomTensor({7, 45}, &rng, 0.5);
    Tensor w = RandomTensor({45, m}, &rng);
    Tensor b = RandomTensor({m}, &rng);
    const SparseRows xs = MakeSparse(x);
    for (bool relu : {false, true}) {
      ASSERT_TRUE(nn::SetKernelTier(nn::KernelTier::kGeneric));
      Tensor want, want_sparse;
      nn::LinearBiasActInto(x, w, b, relu, &want);
      nn::SparseLinearBiasActInto(xs, w, b, relu, &want_sparse);
      for (nn::KernelTier t : nn::AvailableKernelTiers()) {
        if (t == nn::KernelTier::kGeneric) continue;
        SCOPED_TRACE(nn::KernelTierName(t));
        ASSERT_TRUE(nn::SetKernelTier(t));
        Tensor got, got_sparse;
        nn::LinearBiasActInto(x, w, b, relu, &got);
        nn::SparseLinearBiasActInto(xs, w, b, relu, &got_sparse);
        ExpectBitIdentical(want, got);
        ExpectBitIdentical(want_sparse, got_sparse);
      }
    }
  }
  ASSERT_TRUE(nn::SetKernelTier(entry));
}

TEST(DispatchTest, UnavailableTierIsRejected) {
  const auto tiers = nn::AvailableKernelTiers();
  const nn::KernelTier entry = nn::ActiveKernelTier();
  for (int t = 0; t <= static_cast<int>(nn::KernelTier::kAvx2); ++t) {
    const nn::KernelTier tier = static_cast<nn::KernelTier>(t);
    const bool available =
        std::find(tiers.begin(), tiers.end(), tier) != tiers.end();
    EXPECT_EQ(nn::SetKernelTier(tier), available) << nn::KernelTierName(tier);
  }
  ASSERT_TRUE(nn::SetKernelTier(entry));
}

// ---- Sparse kernels --------------------------------------------------------

TEST(KernelTest, SparseRowsToDenseRoundTrips) {
  util::Pcg32 rng(11);
  Tensor dense = RandomTensor({5, 23}, &rng, 0.8);
  SparseRows s = MakeSparse(dense);
  ExpectBitIdentical(dense, s.ToDense());
}

TEST(KernelTest, SparseLinearMatchesDenseBitForBit) {
  util::Pcg32 rng(12);
  for (double zf : {0.5, 0.9, 1.0}) {
    Tensor x = RandomTensor({6, 27}, &rng, zf);
    Tensor w = RandomTensor({27, 16}, &rng);
    Tensor b = RandomTensor({16}, &rng);
    SparseRows xs = MakeSparse(x);
    for (bool relu : {false, true}) {
      Tensor want, got;
      LinearBiasActInto(x, w, b, relu, &want);
      SparseLinearBiasActInto(xs, w, b, relu, &got);
      ExpectBitIdentical(want, got);
    }
  }
}

// Featurized-row shapes: padded batches (every third row empty), all-ones
// rows as wide as a 1000-sample table element, and random sparsity.
std::vector<Tensor> FeatureLikeInputs(util::Pcg32* rng) {
  std::vector<Tensor> out;
  Tensor padded = RandomTensor({9, 40}, rng, 0.7);
  for (size_t i = 0; i < padded.dim(0); i += 3) {
    for (size_t j = 0; j < padded.dim(1); ++j) padded.at(i, j) = 0.0f;
  }
  out.push_back(std::move(padded));
  Tensor ones({4, 1003});
  for (float& v : ones.vec()) v = 1.0f;
  out.push_back(std::move(ones));
  for (double zf : {0.5, 0.9, 0.99}) {
    out.push_back(RandomTensor({1 + rng->Bounded(20), 1003}, rng, zf));
  }
  return out;
}

TEST(KernelTest, SparseTransposedAAccumulateMatchesDenseBitForBit) {
  const nn::KernelTier entry = nn::ActiveKernelTier();
  for (nn::KernelTier t : nn::AvailableKernelTiers()) {
    SCOPED_TRACE(nn::KernelTierName(t));
    ASSERT_TRUE(nn::SetKernelTier(t));
    util::Pcg32 rng(19);
    for (const Tensor& x : FeatureLikeInputs(&rng)) {
      // m = 37 covers the 16-wide, 8-wide and scalar tails of AxpyRow.
      for (size_t m : {16u, 37u}) {
        const SparseRows xs = MakeSparse(x);
        Tensor dy = RandomTensor({x.dim(0), m}, &rng);
        Tensor want = RandomTensor({x.dim(1), m}, &rng);
        Tensor got = want;
        // Twice: the second call accumulates into non-zero gradients.
        for (int step = 0; step < 2; ++step) {
          MatMulTransposedAAccumulate(xs.ToDense(), dy, &want);
          nn::SparseMatMulTransposedAAccumulate(xs, dy, &got);
        }
        EXPECT_TRUE(testutil::BitIdentical(want, got)) << "m=" << m;
      }
    }
  }
  ASSERT_TRUE(nn::SetKernelTier(entry));
}

TEST(KernelTest, MlpFedCsrRowsMatchesDenseForwardAndGradients) {
  const nn::KernelTier entry = nn::ActiveKernelTier();
  for (nn::KernelTier t : nn::AvailableKernelTiers()) {
    SCOPED_TRACE(nn::KernelTierName(t));
    ASSERT_TRUE(nn::SetKernelTier(t));
    util::Pcg32 rng(20);
    for (const Tensor& x : FeatureLikeInputs(&rng)) {
      const std::vector<size_t> sizes = {x.dim(1), 64, 64};
      nn::Mlp dense("m", sizes, /*final_activation=*/true);
      nn::Mlp sparse("m", sizes, /*final_activation=*/true);
      util::Pcg32 init_a = rng.Fork(), init_b = init_a;
      dense.Initialize(&init_a);
      sparse.Initialize(&init_b);
      const SparseRows xs = MakeSparse(x);
      // Two steps, so accumulation into non-zero gradients is covered too.
      for (int step = 0; step < 2; ++step) {
        const Tensor want = dense.Forward(xs.ToDense());
        const Tensor got = sparse.ForwardSparse(xs);
        ASSERT_TRUE(testutil::BitIdentical(want, got));
        const Tensor dy = RandomTensor(want.shape(), &rng);
        dense.BackwardParams(dy);
        sparse.BackwardParams(dy);
      }
      const auto want = dense.Parameters();
      const auto got = sparse.Parameters();
      ASSERT_EQ(want.size(), got.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(testutil::BitIdentical(want[i]->grad, got[i]->grad))
            << want[i]->name;
      }
    }
  }
  ASSERT_TRUE(nn::SetKernelTier(entry));
}

TEST(KernelTest, CsrFedLayerHasNoInputGradient) {
  util::Pcg32 rng(21);
  const Tensor x = RandomTensor({3, 10}, &rng, 0.6);
  nn::Mlp mlp("m", {10, 4, 2}, /*final_activation=*/true);
  mlp.Initialize(&rng);
  const Tensor y = mlp.ForwardSparse(MakeSparse(x));
  util::ScopedContractPolicy policy(util::ContractPolicy::kThrow);
  EXPECT_THROW(mlp.Backward(y), util::ContractViolationError);
  // A dense Forward re-arms the full Backward.
  mlp.Forward(x);
  EXPECT_NO_THROW(mlp.Backward(y));
}

TEST(KernelTest, AppendRowFromCopiesRows) {
  util::Pcg32 rng(13);
  Tensor dense = RandomTensor({4, 9}, &rng, 0.6);
  SparseRows src = MakeSparse(dense);
  SparseRows dst;
  dst.Clear(9);
  dst.AppendRowFrom(src, 2);
  dst.AppendRowFrom(src, 0);
  dst.EndRow();  // one empty padding row
  ASSERT_EQ(dst.rows(), 3u);
  Tensor d = dst.ToDense();
  for (size_t j = 0; j < 9; ++j) {
    EXPECT_EQ(d.at(0, j), dense.at(2, j));
    EXPECT_EQ(d.at(1, j), dense.at(0, j));
    EXPECT_EQ(d.at(2, j), 0.0f);
  }
}

// ---- Width sweep against the scalar reference loops ------------------------

// A [rows, dim] CSR matrix with about `density` of its entries set, half of
// them to 1.0f (the one-hot/bitmap value SparseLinearOp special-cases), and
// every third row empty.
SparseRows RandomCsr(size_t rows, size_t dim, double density,
                     util::Pcg32* rng) {
  SparseRows s;
  s.Clear(dim);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t c = 0; i % 3 != 1 && c < dim; ++c) {
      if (rng->UniformDouble(0, 1) >= density) continue;
      const float v = rng->UniformDouble(0, 1) < 0.5
                          ? 1.0f
                          : static_cast<float>(rng->Normal());
      if (v != 0.0f) s.Push(static_cast<uint32_t>(c), v);
    }
    s.EndRow();
  }
  return s;
}

// m = 1..72 covers the register-resident widths (multiples of 8 up to 64)
// and both fallbacks (other widths, and multiples of 8 above 64). Some row
// counts exceed the 32-row blocks of the transposed-A accumulation.
TEST(KernelSweepTest, DenseKernelsMatchReferenceLoopsAtEveryWidth) {
  namespace ref = testutil::refkernel;
  const nn::KernelTier entry = nn::ActiveKernelTier();
  for (nn::KernelTier tier : nn::AvailableKernelTiers()) {
    SCOPED_TRACE(nn::KernelTierName(tier));
    ASSERT_TRUE(nn::SetKernelTier(tier));
    util::Pcg32 rng(40);
    for (size_t m = 1; m <= 72; ++m) {
      for (size_t k : {3u, 8u, 13u, 37u}) {
        SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k));
        const size_t n = 1 + m % 5 + (m % 7 == 0 ? 33 : 0);
        const Tensor a = RandomTensor({n, k}, &rng, 0.3);
        const Tensor w = RandomTensor({k, m}, &rng);
        const Tensor bias = RandomTensor({m}, &rng);
        Tensor want({n, m}), got;
        for (bool relu : {false, true}) {
          ref::Linear(a.data(), w.data(), bias.data(), relu, want.data(), n,
                      k, m);
          LinearBiasActInto(a, w, bias, relu, &got);
          ASSERT_TRUE(testutil::BitIdentical(want, got))
              << "Linear relu=" << relu;
        }
        const Tensor bt = RandomTensor({m, k}, &rng);
        ref::MatMulTB(a.data(), bt.data(), want.data(), n, k, m, tier);
        MatMulTransposedBInto(a, bt, &got);
        ASSERT_TRUE(testutil::BitIdentical(want, got)) << "MatMulTB";
        // Twice: the second call accumulates into non-zero gradients.
        const Tensor dy = RandomTensor({n, m}, &rng);
        Tensor want_acc = RandomTensor({k, m}, &rng);
        Tensor got_acc = want_acc;
        for (int step = 0; step < 2; ++step) {
          ref::MatMulTAAcc(a.data(), dy.data(), want_acc.data(), n, k, m);
          MatMulTransposedAAccumulate(a, dy, &got_acc);
        }
        ASSERT_TRUE(testutil::BitIdentical(want_acc, got_acc))
            << "MatMulTAAcc";
      }
    }
  }
  ASSERT_TRUE(nn::SetKernelTier(entry));
}

TEST(KernelSweepTest, SparseLinearMatchesReferenceLoopsAtEveryWidth) {
  namespace ref = testutil::refkernel;
  const nn::KernelTier entry = nn::ActiveKernelTier();
  for (nn::KernelTier tier : nn::AvailableKernelTiers()) {
    SCOPED_TRACE(nn::KernelTierName(tier));
    ASSERT_TRUE(nn::SetKernelTier(tier));
    util::Pcg32 rng(41);
    for (size_t m = 1; m <= 72; ++m) {
      for (double density : {0.1, 0.6}) {
        SCOPED_TRACE("m=" + std::to_string(m) +
                     " density=" + std::to_string(density));
        const size_t n = 2 + m % 6, dim = 29;
        const SparseRows x = RandomCsr(n, dim, density, &rng);
        const Tensor w = RandomTensor({dim, m}, &rng);
        const Tensor bias = RandomTensor({m}, &rng);
        Tensor want({n, m}), got;
        for (bool relu : {false, true}) {
          ref::SparseLinear(x.row_offsets.data(), x.cols.data(),
                            x.vals.data(), n, w.data(), bias.data(), relu,
                            want.data(), m);
          SparseLinearBiasActInto(x, w, bias, relu, &got);
          ASSERT_TRUE(testutil::BitIdentical(want, got))
              << "SparseLinear relu=" << relu;
        }
      }
    }
  }
  ASSERT_TRUE(nn::SetKernelTier(entry));
}

// Batches store each set's real rows only. Sets of 0-3 elements, empty ones
// included (a query without joins), must pool and back-propagate through
// the set MLP to exactly what padding every set to the batch maximum and
// pooling under a 0/1 mask gave.
TEST(KernelTest, RaggedSetsMatchPaddedMaskedPooling) {
  const nn::KernelTier entry = nn::ActiveKernelTier();
  for (nn::KernelTier tier : nn::AvailableKernelTiers()) {
    SCOPED_TRACE(nn::KernelTierName(tier));
    ASSERT_TRUE(nn::SetKernelTier(tier));
    for (size_t h : {16u, 20u, 64u}) {
      SCOPED_TRACE("h=" + std::to_string(h));
      util::Pcg32 rng(42);
      const size_t dim = 23;
      const std::vector<size_t> sizes = {0, 2, 1, 0, 3, 1};
      const size_t b = sizes.size(), s = 3;
      SparseRows ragged, padded;
      ragged.Clear(dim);
      padded.Clear(dim);
      std::vector<uint32_t> offsets = {0};
      Tensor mask({b, s});
      for (size_t i = 0; i < b; ++i) {
        const SparseRows set = RandomCsr(sizes[i], dim, 0.4, &rng);
        for (size_t j = 0; j < sizes[i]; ++j) {
          ragged.AppendRowFrom(set, j);
          padded.AppendRowFrom(set, j);
          mask.at(i, j) = 1.0f;
        }
        for (size_t j = sizes[i]; j < s; ++j) padded.EndRow();
        offsets.push_back(static_cast<uint32_t>(ragged.rows()));
      }
      nn::Mlp ragged_mlp("m", {dim, h, h}, /*final_activation=*/true);
      nn::Mlp padded_mlp("m", {dim, h, h}, /*final_activation=*/true);
      util::Pcg32 init_a = rng.Fork(), init_b = init_a;
      ragged_mlp.Initialize(&init_a);
      padded_mlp.Initialize(&init_b);
      nn::MaskedMean pool;
      // Two steps, so accumulation into non-zero gradients is covered too.
      for (int step = 0; step < 2; ++step) {
        const Tensor got = pool.Forward(ragged_mlp.ForwardSparse(ragged),
                                        offsets);
        const Tensor want = testutil::PaddedMaskedMean(
            padded_mlp.ForwardSparse(padded), mask);
        ASSERT_TRUE(testutil::BitIdentical(want, got));
        EXPECT_EQ(got.at(0, 0), 0.0f);  // the empty set pools to zero
        const Tensor dy = RandomTensor({b, h}, &rng);
        ragged_mlp.BackwardParams(pool.Backward(dy));
        padded_mlp.BackwardParams(testutil::PaddedMaskedMeanBackward(dy, mask));
      }
      const auto want = padded_mlp.Parameters();
      const auto got = ragged_mlp.Parameters();
      ASSERT_EQ(want.size(), got.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(testutil::BitIdentical(want[i]->grad, got[i]->grad))
            << want[i]->name;
      }
    }
  }
  ASSERT_TRUE(nn::SetKernelTier(entry));
}

TEST(KernelTest, KernelStatsCount) {
  auto& stats = nn::GlobalKernelStats();
  const uint64_t dense0 = stats.dense_calls.load();
  const uint64_t fused0 = stats.fused_calls.load();
  const uint64_t sparse0 = stats.sparse_calls.load();
  util::Pcg32 rng(14);
  Tensor a = RandomTensor({2, 3}, &rng), b = RandomTensor({3, 4}, &rng);
  Tensor bias = RandomTensor({4}, &rng), out;
  MatMulInto(a, b, &out);
  LinearBiasActInto(a, b, bias, true, &out);
  SparseLinearBiasActInto(MakeSparse(a), b, bias, true, &out);
  EXPECT_GT(stats.dense_calls.load(), dense0);
  EXPECT_GT(stats.fused_calls.load(), fused0);
  EXPECT_GT(stats.sparse_calls.load(), sparse0);
}

// ---- Workspace -------------------------------------------------------------

TEST(WorkspaceTest, SlotsAreStableAndCapacityStabilizes) {
  Workspace ws;
  Tensor* a = ws.Acquire();
  Tensor* b = ws.Acquire();
  EXPECT_NE(a, b);
  a->ResizeInPlace({8, 16});
  b->ResizeInPlace({4, 4});
  ws.Reset();
  // Same acquire order hands back the same slots with capacity retained.
  Tensor* a2 = ws.Acquire();
  Tensor* b2 = ws.Acquire();
  EXPECT_EQ(a, a2);
  EXPECT_EQ(b, b2);
  const size_t cap = ws.capacity_bytes();
  EXPECT_FALSE(a2->ResizeInPlace({8, 16}));  // no growth needed
  EXPECT_FALSE(b2->ResizeInPlace({2, 8}));   // shrink reuses capacity
  EXPECT_EQ(ws.capacity_bytes(), cap);
}

// ---- Layer/model inference parity ------------------------------------------

TEST(KernelTest, MlpInferIntoMatchesInferAndForward) {
  util::Pcg32 rng(15);
  nn::Mlp mlp("m", {13, 32, 32}, /*final_activation=*/true);
  mlp.Initialize(&rng);
  Tensor x = RandomTensor({7, 13}, &rng, 0.4);
  Tensor fwd = mlp.Forward(x);
  Workspace ws;
  // Sparse input path (the set MLPs).
  Tensor* sparse = mlp.InferSparseInto(MakeSparse(x), &ws);
  ExpectBitIdentical(fwd, *sparse);
  // Dense input path (the output MLP).
  Tensor* h = ws.Acquire();
  *h = x;
  Tensor* dense = mlp.InferDenseFrom(0, h, &ws);
  ExpectBitIdentical(fwd, *dense);
}

TEST(KernelTest, PoolIntoMatchesPool) {
  // The reference pooling is the training Forward; sets of 0-3 rows.
  util::Pcg32 rng(16);
  std::vector<uint32_t> offsets = {0};
  for (int i = 0; i < 6; ++i) offsets.push_back(offsets.back() + rng.Bounded(4));
  Tensor flat = RandomTensor({offsets.back(), 10}, &rng);
  nn::MaskedMean pool;
  Tensor want = pool.Forward(flat, offsets);
  Tensor got;
  nn::MaskedMean::PoolInto(flat, offsets, &got);
  ExpectBitIdentical(want, got);
}

class KernelPipelineTest : public ::testing::Test {
 protected:
  KernelPipelineTest()
      : catalog_(testutil::MakeTinyCatalog()),
        samples_(est::SampleSet::Build(*catalog_, 8, 3).value()),
        space_(mscn::FeatureSpace::Create(*catalog_, {}, 8).value()) {}

  workload::QuerySpec Q(const std::string& sql) {
    return sql::ParseAndBind(*catalog_, sql).value();
  }

  std::vector<workload::QuerySpec> TestSpecs() {
    return {
        Q("SELECT COUNT(*) FROM movie"),
        Q("SELECT COUNT(*) FROM movie WHERE year = 2003"),
        Q("SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id "
          "AND r.score > 2.5"),
        Q("SELECT COUNT(*) FROM genre WHERE name = 'g1'"),
        Q("SELECT COUNT(*) FROM movie m, rating r, genre g WHERE "
          "r.movie_id = m.id AND m.genre_id = g.id AND g.name = 'g2' "
          "AND m.year > 2004"),
    };
  }

  std::unique_ptr<storage::Catalog> catalog_;
  est::SampleSet samples_;
  mscn::FeatureSpace space_;
};

TEST_F(KernelPipelineTest, SparseFeaturizationMatchesDense) {
  // The dense rows come from the reference featurizer in test_util, which
  // derives the layout from the catalog rather than from FeatureSpace.
  mscn::FeaturizeScratch scratch;
  mscn::SparseQueryFeatures sparse;
  for (const auto& spec : TestSpecs()) {
    for (bool use_bitmaps : {true, false}) {
      SCOPED_TRACE(spec.ToSql() + (use_bitmaps ? " with bitmaps" : ""));
      ASSERT_TRUE(space_
                      .FeaturizeSparse(spec, samples_, use_bitmaps, &scratch,
                                       &sparse)
                      .ok());
      const testutil::ReferenceFeatures dense =
          testutil::ReferenceFeaturize(*catalog_, {}, 8, samples_,
                                       use_bitmaps, spec)
              .value();
      EXPECT_TRUE(testutil::BitIdentical(sparse.tables.ToDense(), dense.tables));
      EXPECT_TRUE(testutil::BitIdentical(sparse.joins.ToDense(), dense.joins));
      EXPECT_TRUE(
          testutil::BitIdentical(sparse.predicates.ToDense(), dense.predicates));
      // Strictly increasing columns and no stored zeros per row (the
      // bit-exactness invariants).
      for (const nn::SparseRows* s :
           {&sparse.tables, &sparse.joins, &sparse.predicates}) {
        for (size_t r = 0; r < s->rows(); ++r) {
          for (uint32_t e = s->row_offsets[r]; e < s->row_offsets[r + 1];
               ++e) {
            ASSERT_NE(s->vals[e], 0.0f);
            if (e > s->row_offsets[r]) {
              ASSERT_LT(s->cols[e - 1], s->cols[e]);
            }
          }
        }
      }
    }
  }
}

TEST_F(KernelPipelineTest, ModelInferSparseMatchesInfer) {
  mscn::ModelConfig mc;
  mc.table_dim = space_.table_dim();
  mc.join_dim = space_.join_dim();
  mc.pred_dim = space_.pred_dim();
  mc.hidden_units = 16;
  mscn::MscnModel model(mc);
  util::Pcg32 rng(17);
  model.Initialize(&rng);

  mscn::FeaturizeScratch scratch;
  std::vector<mscn::SparseQueryFeatures> sparse(TestSpecs().size());
  std::vector<const mscn::SparseQueryFeatures*> ptrs;
  size_t n = 0;
  for (const auto& spec : TestSpecs()) {
    ASSERT_TRUE(
        space_.FeaturizeSparse(spec, samples_, true, &scratch, &sparse[n])
            .ok());
    ptrs.push_back(&sparse[n]);
    ++n;
  }
  mscn::SparseBatch sbatch;
  mscn::PackSparseBatch(ptrs, space_, &sbatch);

  // The reference is the training Forward on the same batch.
  Tensor want = model.Forward(sbatch);
  Workspace ws;
  const Tensor* got = model.InferSparse(sbatch, &ws);
  ExpectBitIdentical(want, *got);
}

// ---- End-to-end estimation -------------------------------------------------

class KernelSketchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = testutil::MakeTinyCatalog().release();
    sketch::SketchConfig config;
    config.num_samples = 16;
    config.num_training_queries = 200;
    config.num_epochs = 5;
    config.hidden_units = 16;
    config.batch_size = 32;
    config.max_tables_per_query = 3;
    config.seed = 77;
    sketch_ = new sketch::DeepSketch(
        sketch::DeepSketch::Train(*catalog_, config).value());
  }
  static void TearDownTestSuite() {
    delete sketch_;
    delete catalog_;
    sketch_ = nullptr;
    catalog_ = nullptr;
  }
  static storage::Catalog* catalog_;
  static sketch::DeepSketch* sketch_;
};

storage::Catalog* KernelSketchTest::catalog_ = nullptr;
sketch::DeepSketch* KernelSketchTest::sketch_ = nullptr;

TEST_F(KernelSketchTest, BatchedEstimatesMatchOneAtATime) {
  std::vector<workload::QuerySpec> specs;
  for (const char* sql :
       {"SELECT COUNT(*) FROM movie WHERE year = 2003",
        "SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id",
        "SELECT COUNT(*) FROM genre WHERE name = 'g1'",
        "SELECT COUNT(*) FROM movie WHERE year > 2001"}) {
    specs.push_back(sql::ParseAndBind(*catalog_, sql).value());
  }
  auto batched = sketch_->EstimateMany(specs);
  ASSERT_EQ(batched.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(batched[i].ok());
    // Single-spec batches pad differently, but pooling is padding-invariant
    // and the kernels are bit-exact, so the estimates are identical doubles.
    std::vector<workload::QuerySpec> one = {specs[i]};
    auto single = sketch_->EstimateMany(one);
    ASSERT_TRUE(single[0].ok());
    EXPECT_DOUBLE_EQ(*batched[i], *single[0]) << i;
    // And identical to the single-query estimator interface.
    EXPECT_DOUBLE_EQ(*batched[i],
                     sketch_->EstimateCardinality(specs[i]).value())
        << i;
  }
}

TEST_F(KernelSketchTest, SteadyStateEstimationAllocatesNothing) {
  if (!util::AllocCountingAvailable()) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  std::vector<workload::QuerySpec> specs;
  for (const char* sql :
       {"SELECT COUNT(*) FROM movie WHERE year = 2003",
        "SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id "
        "AND r.score > 1.5",
        "SELECT COUNT(*) FROM movie WHERE year > 2001"}) {
    specs.push_back(sql::ParseAndBind(*catalog_, sql).value());
  }
  std::vector<Result<double>> out;
  // Warm the thread-local scratch and the output vector.
  sketch_->EstimateManyInto(specs, &out);
  sketch_->EstimateManyInto(specs, &out);
  const uint64_t before = util::AllocCount();
  {
    // Arm runtime DS_NO_ALLOC enforcement so the guarded regions inside the
    // kernels and the EstimateManyInto inference tail verify their own zero
    // allocation deltas; kThrow turns any trip into a test failure instead
    // of an abort.
    util::ScopedContractPolicy policy(util::ContractPolicy::kThrow);
    const bool prev = util::SetNoAllocEnforcement(true);
    for (int i = 0; i < 10; ++i) sketch_->EstimateManyInto(specs, &out);
    util::SetNoAllocEnforcement(prev);
  }
  EXPECT_EQ(util::AllocCount() - before, 0u)
      << "steady-state EstimateManyInto batches must not allocate";
}

// ---- Data-parallel training ------------------------------------------------

class ParallelTrainTest : public ::testing::Test {
 protected:
  ParallelTrainTest()
      : catalog_(testutil::MakeTinyCatalog()),
        samples_(est::SampleSet::Build(*catalog_, 8, 3).value()),
        space_(mscn::FeatureSpace::Create(*catalog_, {}, 8).value()) {
    const char* sqls[] = {
        "SELECT COUNT(*) FROM movie",
        "SELECT COUNT(*) FROM movie WHERE year = 2003",
        "SELECT COUNT(*) FROM movie WHERE year > 2005",
        "SELECT COUNT(*) FROM genre",
        "SELECT COUNT(*) FROM rating WHERE score > 2.0",
        "SELECT COUNT(*) FROM movie m, rating r WHERE r.movie_id = m.id",
        "SELECT COUNT(*) FROM movie WHERE genre_id = 2",
        "SELECT COUNT(*) FROM rating WHERE votes < 50",
        "SELECT COUNT(*) FROM movie m, genre g WHERE m.genre_id = g.id",
        "SELECT COUNT(*) FROM movie WHERE year < 2008",
        "SELECT COUNT(*) FROM rating",
        "SELECT COUNT(*) FROM genre WHERE id > 2",
    };
    mscn::FeaturizeScratch scratch;
    for (const char* sql : sqls) {
      auto spec = sql::ParseAndBind(*catalog_, sql).value();
      dataset_.features.emplace_back();
      DS_CHECK_OK(space_.FeaturizeSparse(spec, samples_, true, &scratch,
                                         &dataset_.features.back()));
      dataset_.labels.push_back(static_cast<double>(
          std::max<uint64_t>(testutil::BruteForceCount(*catalog_, spec), 1)));
    }
  }

  // One full-batch optimizer step at the given thread count; returns the
  // resulting parameter values.
  std::vector<float> StepOnce(size_t threads, double* loss_out) {
    mscn::ModelConfig mc;
    mc.table_dim = space_.table_dim();
    mc.join_dim = space_.join_dim();
    mc.pred_dim = space_.pred_dim();
    mc.hidden_units = 8;
    mscn::MscnModel model(mc);
    util::Pcg32 rng(23);
    model.Initialize(&rng);
    mscn::TrainerOptions opts;
    opts.epochs = 1;
    opts.batch_size = dataset_.size();  // a single full batch
    opts.validation_fraction = 0;
    opts.seed = 5;
    opts.threads = threads;
    mscn::Trainer trainer(opts);
    auto report = trainer.Train(&model, dataset_, space_).value();
    *loss_out = report.epochs.back().train_loss;
    std::vector<float> params;
    for (nn::Parameter* p : model.Parameters()) {
      params.insert(params.end(), p->value.vec().begin(),
                    p->value.vec().end());
    }
    return params;
  }

  std::unique_ptr<storage::Catalog> catalog_;
  est::SampleSet samples_;
  mscn::FeatureSpace space_;
  mscn::Dataset dataset_;
};

TEST_F(ParallelTrainTest, ShardedGradientsMatchSequential) {
  // Gradient check across thread counts: a single full-batch Adam step must
  // land on (numerically) the same parameters whether gradients come from
  // the sequential path or from 2/4 sharded workers reduced in order.
  double loss1 = 0, loss_t = 0;
  std::vector<float> seq = StepOnce(1, &loss1);
  for (size_t threads : {2u, 4u}) {
    std::vector<float> par = StepOnce(threads, &loss_t);
    ASSERT_EQ(seq.size(), par.size());
    EXPECT_NEAR(loss1, loss_t, 1e-9 * (1.0 + std::fabs(loss1)))
        << threads << " threads";
    for (size_t i = 0; i < seq.size(); ++i) {
      ASSERT_NEAR(seq[i], par[i], 1e-4f) << "param " << i << " at "
                                         << threads << " threads";
    }
  }
}

TEST_F(ParallelTrainTest, ThreadsOneIsExactlySequential) {
  // threads=1 runs the untouched sequential code path, so two runs with the
  // same seed are bit-identical — including the final loss.
  auto run = [&](size_t threads) {
    mscn::ModelConfig mc;
    mc.table_dim = space_.table_dim();
    mc.join_dim = space_.join_dim();
    mc.pred_dim = space_.pred_dim();
    mc.hidden_units = 8;
    mscn::MscnModel model(mc);
    util::Pcg32 rng(29);
    model.Initialize(&rng);
    mscn::TrainerOptions opts;
    opts.epochs = 4;
    opts.batch_size = 4;
    opts.validation_fraction = 0;
    opts.seed = 11;
    opts.threads = threads;
    mscn::Trainer trainer(opts);
    return trainer.Train(&model, dataset_, space_).value();
  };
  auto a = run(1);
  auto b = run(1);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].train_loss, b.epochs[e].train_loss);
  }
}

TEST(ParallelForTest, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h.store(0);
  util::ParallelFor(hits.size(), 4, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  util::ParallelFor(0, 4, [&](size_t) { FAIL(); });
}

}  // namespace
}  // namespace ds
