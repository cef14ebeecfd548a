// AVX-512 kernel tier: 16-wide FMA main loops with 8-wide AVX2 and scalar
// tails. Like the FMA tier this contracts multiply-adds, so it is
// tolerance-equal (not bit-equal) to the generic/AVX2 tiers. Opt-in via
// DS_KERNEL_TIER=avx512|native. The dispatcher additionally requires the
// OS to save zmm state (XCR0) before offering this tier.
//
// Compiled with -mavx512f -mavx512bw -mavx512vl -mfma via per-file
// flags; degrades to a stub without them.

#include "ds/nn/kernels_dispatch.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__FMA__)

#include <immintrin.h>

#define DS_TIER_NS avx512
#define DS_TIER_SIMD 512
#define DS_TIER_FMA 1
#include "ds/nn/kernels_tier.inl"

namespace ds::nn::detail {

const KernelOps* GetAvx512Ops() { return avx512::TierOps(); }

}  // namespace ds::nn::detail

#else  // !(AVX-512 F/BW/VL && FMA)

namespace ds::nn::detail {

const KernelOps* GetAvx512Ops() { return nullptr; }

}  // namespace ds::nn::detail

#endif
