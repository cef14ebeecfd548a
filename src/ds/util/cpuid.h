// Runtime CPU feature detection for the kernel dispatch tier (ds/nn).
//
// The build compiles the AVX2 kernel tier when the *compiler* supports it
// (kernels_avx2 — see the per-file flags in src/CMakeLists.txt); this
// header answers whether the *machine the process landed on* can run it,
// so the dispatch table in ds/nn/kernels.cc picks AVX2 only where it will
// not SIGILL.
//
// Detection follows the Intel SDM rules: AVX2 counts as usable only when
// the CPU reports it (CPUID) *and* the OS saves the YMM register state
// across context switches (OSXSAVE + XCR0 bits). On non-x86 builds it
// reports false and the generic tier runs.
//
// Thread-safety: DetectCpuFeatures computes once (thread-safe static) and
// returns a reference to the immutable result.

#ifndef DS_UTIL_CPUID_H_
#define DS_UTIL_CPUID_H_

namespace ds::util {

struct CpuFeatures {
  bool avx2 = false;
};

/// The features usable on this machine (CPU + OS state saving). Computed
/// once per process.
const CpuFeatures& DetectCpuFeatures();

}  // namespace ds::util

#endif  // DS_UTIL_CPUID_H_
