#include "ds/util/cpuid.h"

#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define DS_CPUID_X86 1
#endif

namespace ds::util {

namespace {

#if defined(DS_CPUID_X86)

// XCR0 via the xgetbv instruction. Inline asm instead of _xgetbv so this
// file compiles without -mxsave (the whole point of this TU is running on
// baseline hardware).
uint64_t ReadXcr0() {
  uint32_t eax = 0, edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<uint64_t>(edx) << 32) | eax;
}

CpuFeatures Detect() {
  CpuFeatures f;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return f;

  const bool osxsave = (ecx & (1u << 27)) != 0;

  unsigned eax7 = 0, ebx7 = 0, ecx7 = 0, edx7 = 0;
  const bool have7 =
      __get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7) != 0;
  const bool cpu_avx2 = have7 && (ebx7 & (1u << 5)) != 0;

  if (!osxsave) return f;  // OS saves no extended state: nothing above SSE
  // XCR0: bit1 SSE(XMM), bit2 AVX(YMM); AVX2 needs the YMM state saved.
  const bool ymm_saved = (ReadXcr0() & 0x6) == 0x6;

  f.avx2 = cpu_avx2 && ymm_saved;
  return f;
}

#else  // non-x86: generic tier only

CpuFeatures Detect() { return CpuFeatures{}; }

#endif

}  // namespace

const CpuFeatures& DetectCpuFeatures() {
  static const CpuFeatures features = Detect();
  return features;
}

}  // namespace ds::util
