// AVX2+FMA kernel tier: same loop structure as the AVX2 tier but every
// multiply-add contracts to VFMADD (one rounding instead of two), so it is
// faster and *tolerance*-equal to the bit-stable tiers, never bit-equal.
// Opt-in via DS_KERNEL_TIER=fma|native; bench_nn_kernels check=1 gates the
// parity bound.
//
// Compiled with -mavx2 -mfma via per-file flags; degrades to a stub
// without them.

#include "ds/nn/kernels_dispatch.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#define DS_TIER_NS avx2_fma
#define DS_TIER_SIMD 256
#define DS_TIER_FMA 1
#include "ds/nn/kernels_tier.inl"

namespace ds::nn::detail {

const KernelOps* GetAvx2FmaOps() { return avx2_fma::TierOps(); }

}  // namespace ds::nn::detail

#else  // !(__AVX2__ && __FMA__)

namespace ds::nn::detail {

const KernelOps* GetAvx2FmaOps() { return nullptr; }

}  // namespace ds::nn::detail

#endif
