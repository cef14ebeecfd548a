#include "ds/nn/kernels.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "ds/nn/kernels_dispatch.h"
#include "ds/util/contract.h"
#include "ds/util/cpuid.h"

namespace ds::nn {

KernelStats& GlobalKernelStats() {
  static KernelStats* stats = new KernelStats();
  return *stats;
}

namespace {

void CountKernel(std::atomic<uint64_t>& which, uint64_t macs, uint64_t bytes) {
  KernelStats& s = GlobalKernelStats();
  which.fetch_add(1, std::memory_order_relaxed);
  s.flops.fetch_add(2 * macs, std::memory_order_relaxed);
  s.bytes.fetch_add(bytes, std::memory_order_relaxed);
}

constexpr int kNumTiers = 2;

// Tables for every tier this process can actually run: compiled in
// (non-null getter) AND supported by CPU + OS state saving. Computed once.
const detail::KernelOps* const* AvailableOps() {
  static const detail::KernelOps* const* table = [] {
    static const detail::KernelOps* ops[kNumTiers] = {};
    const util::CpuFeatures& f = util::DetectCpuFeatures();
    ops[0] = detail::GetGenericOps();
    DS_REQUIRE(ops[0] != nullptr, "generic kernel tier missing from binary");
    if (f.avx2) ops[1] = detail::GetAvx2Ops();
    return static_cast<const detail::KernelOps* const*>(ops);
  }();
  return table;
}

/// The best available tier: AVX2 when the CPU and build have it.
KernelTier BestTier() {
  return AvailableOps()[1] != nullptr ? KernelTier::kAvx2
                                      : KernelTier::kGeneric;
}

KernelTier ResolveTierFromEnv() {
  const KernelTier fallback = BestTier();
  const char* env = std::getenv("DS_KERNEL_TIER");
  if (env == nullptr || *env == '\0') return fallback;
  const std::string req(env);
  const detail::KernelOps* const* ops = AvailableOps();
  int want = -1;
  if (req == "generic") want = 0;
  else if (req == "avx2") want = 1;
  if (want < 0) {
    std::fprintf(stderr,
                 "[ds] DS_KERNEL_TIER='%s' not recognized (want generic or "
                 "avx2); using %s\n",
                 env, KernelTierName(fallback));
    return fallback;
  }
  if (ops[want] == nullptr) {
    std::fprintf(stderr,
                 "[ds] DS_KERNEL_TIER=%s is not available on this "
                 "CPU/build; using %s\n",
                 env, KernelTierName(fallback));
    return fallback;
  }
  return static_cast<KernelTier>(want);
}

// Active tier index; -1 until first use. Resolution races are benign: every
// racer computes the same value (thread-safe function-local static).
std::atomic<int> g_tier{-1};

int ActiveTierIndex() {
  int t = g_tier.load(std::memory_order_acquire);
  if (t < 0) {
    static const int resolved = static_cast<int>(ResolveTierFromEnv());
    g_tier.store(resolved, std::memory_order_release);
    t = resolved;
  }
  return t;
}

const detail::KernelOps& Ops() { return *AvailableOps()[ActiveTierIndex()]; }

}  // namespace

const char* KernelTierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kGeneric: return "generic";
    case KernelTier::kAvx2: return "avx2";
  }
  return "unknown";
}

std::vector<KernelTier> AvailableKernelTiers() {
  std::vector<KernelTier> tiers;
  const detail::KernelOps* const* ops = AvailableOps();
  for (int t = 0; t < kNumTiers; ++t) {
    if (ops[t] != nullptr) tiers.push_back(static_cast<KernelTier>(t));
  }
  return tiers;
}

KernelTier ActiveKernelTier() {
  return static_cast<KernelTier>(ActiveTierIndex());
}

bool SetKernelTier(KernelTier tier) {
  const int t = static_cast<int>(tier);
  if (t < 0 || t >= kNumTiers || AvailableOps()[t] == nullptr) return false;
  g_tier.store(t, std::memory_order_release);
  return true;
}

bool KernelsVectorized() {
  return ActiveKernelTier() != KernelTier::kGeneric;
}

Tensor SparseRows::ToDense() const {
  Tensor t({rows(), dim});
  for (size_t i = 0; i < rows(); ++i) {
    float* row = t.data() + i * dim;
    for (uint32_t e = row_offsets[i]; e < row_offsets[i + 1]; ++e) {
      row[cols[e]] = vals[e];
    }
  }
  return t;
}

void MatMulInto(const Tensor& a, const Tensor& b, Tensor* c) {
  DS_REQUIRE(a.rank() == 2 && b.rank() == 2,
             "MatMulInto wants 2D operands, got rank %zu x rank %zu",
             a.rank(), b.rank());
  const size_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
  DS_REQUIRE(k == b.dim(0),
             "MatMulInto inner dims disagree: [%zu,%zu] x [%zu,%zu]", n, k,
             b.dim(0), m);
  c->ResizeInPlace({n, m});
  DS_NO_ALLOC_BEGIN();
  Ops().matmul(a.data(), b.data(), c->data(), n, k, m);
  CountKernel(GlobalKernelStats().dense_calls, n * k * m,
              (n * k + k * m + n * m) * sizeof(float));
  DS_NO_ALLOC_END();
}

void MatMulTransposedBInto(const Tensor& a, const Tensor& b, Tensor* c) {
  DS_REQUIRE(a.rank() == 2 && b.rank() == 2,
             "MatMulTransposedBInto wants 2D operands, got rank %zu x rank "
             "%zu",
             a.rank(), b.rank());
  const size_t n = a.dim(0), k = a.dim(1), m = b.dim(0);
  DS_REQUIRE(k == b.dim(1),
             "MatMulTransposedBInto inner dims disagree: [%zu,%zu] x "
             "[%zu,%zu]^T",
             n, k, m, b.dim(1));
  c->ResizeInPlace({n, m});
  DS_NO_ALLOC_BEGIN();
  Ops().matmul_tb(a.data(), b.data(), c->data(), n, k, m);
  CountKernel(GlobalKernelStats().dense_calls, n * k * m,
              (n * k + k * m + n * m) * sizeof(float));
  DS_NO_ALLOC_END();
}

void MatMulTransposedAAccumulate(const Tensor& a, const Tensor& b, Tensor* c) {
  DS_REQUIRE(a.rank() == 2 && b.rank() == 2,
             "MatMulTransposedAAccumulate wants 2D operands, got rank %zu x "
             "rank %zu",
             a.rank(), b.rank());
  const size_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
  DS_REQUIRE(n == b.dim(0),
             "MatMulTransposedAAccumulate outer dims disagree: [%zu,%zu]^T "
             "x [%zu,%zu]",
             n, k, b.dim(0), m);
  DS_REQUIRE(c->dim(0) == k && c->dim(1) == m,
             "MatMulTransposedAAccumulate accumulator is [%zu,%zu], wants "
             "[%zu,%zu]",
             c->dim(0), c->dim(1), k, m);
  DS_NO_ALLOC_BEGIN();
  Ops().matmul_ta_acc(a.data(), b.data(), c->data(), n, k, m);
  CountKernel(GlobalKernelStats().dense_calls, n * k * m,
              (n * k + n * m + k * m) * sizeof(float));
  DS_NO_ALLOC_END();
}

void LinearBiasActInto(const Tensor& x, const Tensor& weight,
                       const Tensor& bias, bool fuse_relu, Tensor* y) {
  DS_REQUIRE(x.rank() == 2 && weight.rank() == 2 && bias.rank() == 1,
             "LinearBiasActInto wants x:2D weight:2D bias:1D, got %zu/%zu/"
             "%zu",
             x.rank(), weight.rank(), bias.rank());
  const size_t n = x.dim(0), k = x.dim(1), m = weight.dim(1);
  DS_REQUIRE(k == weight.dim(0),
             "LinearBiasActInto dims disagree: x [%zu,%zu] x weight "
             "[%zu,%zu]",
             n, k, weight.dim(0), m);
  DS_REQUIRE(bias.dim(0) == m, "bias has %zu entries for %zu outputs",
             bias.dim(0), m);
  y->ResizeInPlace({n, m});
  DS_NO_ALLOC_BEGIN();
  Ops().linear(x.data(), weight.data(), bias.data(), fuse_relu, y->data(), n,
               k, m);
  CountKernel(GlobalKernelStats().fused_calls, n * k * m,
              (n * k + k * m + n * m) * sizeof(float));
  DS_NO_ALLOC_END();
}

void SparseLinearBiasActInto(const SparseRows& x, const Tensor& weight,
                             const Tensor& bias, bool fuse_relu, Tensor* y) {
  DS_REQUIRE(weight.rank() == 2 && bias.rank() == 1,
             "SparseLinearBiasActInto wants weight:2D bias:1D, got %zu/%zu",
             weight.rank(), bias.rank());
  const size_t n = x.rows(), k = x.dim, m = weight.dim(1);
  DS_REQUIRE(k == weight.dim(0),
             "SparseLinearBiasActInto dims disagree: x [%zu,%zu] x weight "
             "[%zu,%zu]",
             n, k, weight.dim(0), m);
  DS_REQUIRE(bias.dim(0) == m, "bias has %zu entries for %zu outputs",
             bias.dim(0), m);
  y->ResizeInPlace({n, m});
  DS_NO_ALLOC_BEGIN();
  Ops().sparse_linear(x.row_offsets.data(), x.cols.data(), x.vals.data(), n,
                      weight.data(), bias.data(), fuse_relu, y->data(), m);
  CountKernel(GlobalKernelStats().sparse_calls, x.nonzeros() * m,
              (x.nonzeros() * 2 * sizeof(uint32_t)) +
                  (x.nonzeros() + k * m + n * m) * sizeof(float));
  DS_NO_ALLOC_END();
}

void SparseMatMulTransposedAAccumulate(const SparseRows& a, const Tensor& b,
                                       Tensor* c) {
  DS_REQUIRE(b.rank() == 2 && c->rank() == 2,
             "SparseMatMulTransposedAAccumulate wants 2D b and c, got rank "
             "%zu / %zu",
             b.rank(), c->rank());
  const size_t n = a.rows(), k = a.dim, m = b.dim(1);
  DS_REQUIRE(n == b.dim(0),
             "SparseMatMulTransposedAAccumulate outer dims disagree: "
             "[%zu,%zu]^T x [%zu,%zu]",
             n, k, b.dim(0), m);
  DS_REQUIRE(c->dim(0) == k && c->dim(1) == m,
             "SparseMatMulTransposedAAccumulate accumulator is [%zu,%zu], "
             "wants [%zu,%zu]",
             c->dim(0), c->dim(1), k, m);
  DS_NO_ALLOC_BEGIN();
  Ops().sparse_ta_acc(a.row_offsets.data(), a.cols.data(), a.vals.data(), n,
                      b.data(), c->data(), m);
  CountKernel(GlobalKernelStats().sparse_calls, a.nonzeros() * m,
              (a.nonzeros() * 2 * sizeof(uint32_t)) +
                  (a.nonzeros() + n * m + k * m) * sizeof(float));
  DS_NO_ALLOC_END();
}

}  // namespace ds::nn
