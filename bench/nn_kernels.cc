// Microbenchmark and CI perf-smoke gate for the kernel layer (ds/nn/kernels).
//
// Compares, on serving-typical shapes:
//
//   reference: a local, allocation-free scalar loop (the tensor.h numerics
//              into a pre-sized output) — the compute baseline every
//              dispatch tier is gated against, with no allocator noise
//   fused:     LinearBiasActInto on the active dispatch tier
//   sparse:    SparseLinearBiasActInto on a CSR input of matching density
//
// With check=1 the binary exits nonzero when:
//   * a tier's outputs disagree with the generic tier's: it iterates every
//     dispatch tier available in this process (SetKernelTier; CI forces
//     builds/processes into specific tiers with DS_KERNEL_TIER) and
//     requires bit-identical fused/sparse outputs on every tier;
//   * the kernel path is slower than the scalar reference on any shape
//     (vectorized tiers only), or a steady-state op allocates.
//
// Results are also written machine-readably (op, p50/p95, qps = rows/sec,
// allocations per row) to bench_results/nn_kernels.json; the envelope
// records the active kernel tier.
//
// Usage: bench_nn_kernels [check=1] [iters=N] [json=path]

#include <benchmark/benchmark.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ds/nn/kernels.h"
#include "ds/nn/tensor.h"
#include "ds/util/logging.h"
#include "ds/util/random.h"

using namespace ds;
using nn::Tensor;

namespace {

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

nn::SparseRows ToSparse(const Tensor& dense) {
  nn::SparseRows s;
  s.Clear(dense.dim(1));
  for (size_t i = 0; i < dense.dim(0); ++i) {
    for (size_t j = 0; j < dense.dim(1); ++j) {
      if (dense.at(i, j) != 0.0f) {
        s.Push(static_cast<uint32_t>(j), dense.at(i, j));
      }
    }
    s.EndRow();
  }
  return s;
}

/// The scalar y = relu(x*W + b) loop in tensor.h accumulation order, into a
/// pre-sized output: zero allocations, zero SIMD — the floor every tier is
/// gated against, in the tensor.h accumulation order every tier shares.
void ReferenceLinear(const Tensor& x, const Tensor& w, const Tensor& b,
                     Tensor* y) {
  const size_t n = x.dim(0), k = x.dim(1), m = w.dim(1);
  y->ResizeInPlace({n, m});
  const float* xp = x.data();
  const float* wp = w.data();
  const float* bp = b.data();
  float* yp = y->data();
  for (size_t i = 0; i < n; ++i) {
    float* yrow = yp + i * m;
    for (size_t j = 0; j < m; ++j) yrow[j] = 0.0f;
    const float* xrow = xp + i * k;
    for (size_t kk = 0; kk < k; ++kk) {
      const float a = xrow[kk];
      if (a == 0.0f) continue;
      const float* wrow = wp + kk * m;
      for (size_t j = 0; j < m; ++j) yrow[j] += a * wrow[j];
    }
    for (size_t j = 0; j < m; ++j) {
      yrow[j] += bp[j];
      if (yrow[j] < 0.0f) yrow[j] = 0.0f;
    }
  }
}

struct Shape {
  const char* name;
  size_t rows, in, out;
  double sparsity;  // zero fraction of the input
};

bool BitIdentical(const Tensor& a, const Tensor& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.at(i) != b.at(i)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv, {"check=0|1", "iters=N", "json=PATH"});
  const bool check = args.GetInt("check", 0) != 0;
  const size_t iters = static_cast<size_t>(args.GetInt("iters", 2000));

  // rows = flattened batch (batch x set elements); in/out match the MSCN
  // set-MLP (sparse featurized input -> hidden) and hidden->hidden layers.
  const Shape shapes[] = {
      {"setmlp_in_64x1030->64", 64, 1030, 64, 0.99},
      {"hidden_192x64->64", 192, 64, 64, 0.0},
      {"outmlp_64x192->64", 64, 192, 64, 0.0},
  };

  const nn::KernelTier tier = nn::ActiveKernelTier();
  std::printf("kernel tier: %s (available:", nn::KernelTierName(tier));
  for (nn::KernelTier t : nn::AvailableKernelTiers()) {
    std::printf(" %s", nn::KernelTierName(t));
  }
  std::printf(")\n");

  std::printf("%-24s %11s %11s %11s %8s\n", "shape", "reference", "fused",
              "sparse", "speedup");
  bool ok = true;
  std::vector<bench::OpResult> ops;
  util::Pcg32 rng(3);
  for (const Shape& sh : shapes) {
    Tensor x = RandomTensor({sh.rows, sh.in}, &rng, sh.sparsity);
    Tensor w = RandomTensor({sh.in, sh.out}, &rng);
    Tensor b = RandomTensor({sh.out}, &rng);
    nn::SparseRows xs = ToSparse(x);
    Tensor y, ref_y;

    bench::OpResult ref = bench::MeasureOp(
        std::string("reference:") + sh.name, /*warmup=*/50, iters, sh.rows,
        [&] {
          ReferenceLinear(x, w, b, &ref_y);
          benchmark::DoNotOptimize(ref_y.data());
        });
    bench::OpResult fused = bench::MeasureOp(
        std::string("fused:") + sh.name, /*warmup=*/50, iters, sh.rows, [&] {
          nn::LinearBiasActInto(x, w, b, /*fuse_relu=*/true, &y);
          benchmark::DoNotOptimize(y.data());
        });
    bench::OpResult sparse = bench::MeasureOp(
        std::string("sparse:") + sh.name, /*warmup=*/50, iters, sh.rows, [&] {
          nn::SparseLinearBiasActInto(xs, w, b, /*fuse_relu=*/true, &y);
          benchmark::DoNotOptimize(y.data());
        });
    ops.push_back(ref);
    ops.push_back(fused);
    ops.push_back(sparse);

    // Gate on the kernel the layers actually dispatch for this shape: the
    // sparse kernel for featurized (mostly-zero) inputs, fused elsewhere.
    const bool use_sparse = sh.sparsity > 0.5;
    const double kernel_us = use_sparse ? sparse.p50_us : fused.p50_us;
    const double speedup = kernel_us > 0 ? ref.p50_us / kernel_us : 0;
    std::printf("%-24s %8.2f us %8.2f us %8.2f us %7.2fx\n", sh.name,
                ref.p50_us, fused.p50_us, sparse.p50_us, speedup);
    if (nn::KernelsVectorized() && kernel_us > ref.p50_us) {
      std::printf("  ^ FAIL: kernel path slower than the scalar reference "
                  "on %s\n",
                  sh.name);
      ok = false;
    }
    if (ref.allocations_per_query > 0 || fused.allocations_per_query > 0) {
      std::printf("  ^ FAIL: steady-state op allocated (%0.3f/%0.3f "
                  "allocations per row)\n",
                  ref.allocations_per_query, fused.allocations_per_query);
      ok = false;
    }
  }

  if (check) {
    // Bit-identity sweep: every tier this process can run must reproduce
    // the generic tier's outputs exactly.
    const nn::KernelTier entry_tier = nn::ActiveKernelTier();
    for (const Shape& sh : shapes) {
      Tensor x = RandomTensor({sh.rows, sh.in}, &rng, sh.sparsity);
      Tensor w = RandomTensor({sh.in, sh.out}, &rng);
      Tensor b = RandomTensor({sh.out}, &rng);
      nn::SparseRows xs = ToSparse(x);

      struct Variant {
        const char* name;
        std::function<void(Tensor*)> run;
      };
      const Variant variants[] = {
          {"fused",
           [&](Tensor* y) { nn::LinearBiasActInto(x, w, b, true, y); }},
          {"sparse",
           [&](Tensor* y) { nn::SparseLinearBiasActInto(xs, w, b, true, y); }},
      };
      for (const Variant& v : variants) {
        DS_CHECK(nn::SetKernelTier(nn::KernelTier::kGeneric));
        Tensor expect;
        v.run(&expect);
        for (nn::KernelTier t : nn::AvailableKernelTiers()) {
          if (t == nn::KernelTier::kGeneric) continue;
          DS_CHECK(nn::SetKernelTier(t));
          Tensor got;
          v.run(&got);
          if (!BitIdentical(expect, got)) {
            std::printf("check FAIL: %s on tier %s is not bit-identical to "
                        "generic (%s)\n",
                        v.name, nn::KernelTierName(t), sh.name);
            ok = false;
          }
        }
      }
    }
    DS_CHECK(nn::SetKernelTier(entry_tier));
  }

  std::printf("vectorized kernel path: %s\n",
              nn::KernelsVectorized()
                  ? nn::KernelTierName(nn::ActiveKernelTier())
                  : "scalar");

  const std::string json_path =
      args.GetString("json", "bench_results/nn_kernels.json");
  if (!json_path.empty()) {
    bench::WriteBenchResultsJson(
        json_path, "nn_kernels", ops, "inproc",
        {{"kernel_tier", nn::KernelTierName(tier)}});
  }

  if (check && !ok) {
    std::printf("check=1: FAILED — kernel parity or perf gate tripped\n");
    return 1;
  }
  if (check) std::printf("check=1: OK\n");
  return 0;
}
