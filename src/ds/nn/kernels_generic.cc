// Generic kernel tier: portable scalar C++ compiled with the project's
// baseline flags only (no -m options), so it runs on any x86-64 (or
// non-x86) machine. Bit-for-bit identical to the AVX2 tier on every
// inference kernel, and the reference the AVX2 tier is checked against.

#include "ds/nn/kernels_dispatch.h"

#define DS_TIER_NS generic
#define DS_TIER_SIMD 0
#include "ds/nn/kernels_tier.inl"

namespace ds::nn::detail {

const KernelOps* GetGenericOps() { return generic::TierOps(); }

}  // namespace ds::nn::detail
