// AVX2 kernel tier: 8/16-wide mul-then-add (never FMA) in the reference
// k-order, so inference outputs stay bit-for-bit identical to the generic
// tier and the tensor.h references. The dispatcher picks it whenever the
// CPU has AVX2.
//
// Compiled with -mavx2 via per-file flags (src/CMakeLists.txt);
// when the toolchain or DS_ENABLE_AVX2=OFF withholds them, this TU
// degrades to a stub and the dispatcher skips the tier.

#include "ds/nn/kernels_dispatch.h"

#if defined(__AVX2__)

#include <immintrin.h>

#define DS_TIER_NS avx2
#define DS_TIER_SIMD 256
#include "ds/nn/kernels_tier.inl"

namespace ds::nn::detail {

const KernelOps* GetAvx2Ops() { return avx2::TierOps(); }

}  // namespace ds::nn::detail

#else  // !__AVX2__

namespace ds::nn::detail {

const KernelOps* GetAvx2Ops() { return nullptr; }

}  // namespace ds::nn::detail

#endif
