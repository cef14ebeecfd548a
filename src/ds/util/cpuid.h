// Runtime CPU feature detection for the kernel dispatch tier (ds/nn).
//
// The build compiles every kernel tier the *compiler* supports
// (kernels_generic / kernels_avx2 / kernels_avx2_fma / kernels_avx512 —
// see src/CMakeLists.txt per-file flags); this header answers what the
// *machine the process landed on* supports, so the dispatch table in
// ds/nn/kernels.cc can pick the fastest tier that will not SIGILL.
//
// Detection follows the Intel SDM rules: a vector extension counts as
// usable only when the CPU reports it (CPUID) *and* the OS saves the
// corresponding register state across context switches (OSXSAVE + XCR0
// bits — a kernel that does not save ZMM state makes AVX-512 unusable even
// on AVX-512 silicon). On non-x86 builds every feature reports false and
// the generic tier runs.
//
// Thread-safety: DetectCpuFeatures computes once (thread-safe static) and
// returns a reference to the immutable result.

#ifndef DS_UTIL_CPUID_H_
#define DS_UTIL_CPUID_H_

#include <string>

namespace ds::util {

struct CpuFeatures {
  bool avx = false;
  bool avx2 = false;
  bool fma = false;      // FMA3
  bool avx512f = false;
  bool avx512bw = false;
  bool avx512vl = false;

  /// "avx2 fma ..." — for logs and the bench JSON envelope.
  std::string ToString() const;
};

/// The features usable on this machine (CPU + OS state saving). Computed
/// once per process.
const CpuFeatures& DetectCpuFeatures();

}  // namespace ds::util

#endif  // DS_UTIL_CPUID_H_
