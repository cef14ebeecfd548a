#include "ds/util/cpuid.h"

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
  const bool cpu_avx = (ecx & (1u << 28)) != 0;
  const bool cpu_fma = (ecx & (1u << 12)) != 0;

  unsigned eax7 = 0, ebx7 = 0, ecx7 = 0, edx7 = 0;
  const bool have7 =
      __get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7) != 0;
  const bool cpu_avx2 = have7 && (ebx7 & (1u << 5)) != 0;
  const bool cpu_avx512f = have7 && (ebx7 & (1u << 16)) != 0;
  const bool cpu_avx512bw = have7 && (ebx7 & (1u << 30)) != 0;
  const bool cpu_avx512vl = have7 && (ebx7 & (1u << 31)) != 0;

  if (!osxsave) return f;  // OS saves no extended state: nothing above SSE
  const uint64_t xcr0 = ReadXcr0();
  // XCR0: bit1 SSE(XMM), bit2 AVX(YMM), bits 5..7 AVX-512 (opmask, ZMM
  // low/high). YMM state required for AVX/AVX2/FMA; ZMM for AVX-512.
  const bool ymm_saved = (xcr0 & 0x6) == 0x6;
  const bool zmm_saved = (xcr0 & 0xe6) == 0xe6;

  f.avx = cpu_avx && ymm_saved;
  f.avx2 = cpu_avx2 && ymm_saved;
  f.fma = cpu_fma && ymm_saved;
  f.avx512f = cpu_avx512f && zmm_saved;
  f.avx512bw = cpu_avx512bw && zmm_saved;
  f.avx512vl = cpu_avx512vl && zmm_saved;
  return f;
}

#else  // non-x86: generic tier only

CpuFeatures Detect() { return CpuFeatures{}; }

#endif

}  // namespace

std::string CpuFeatures::ToString() const {
  std::string out;
  auto add = [&out](bool on, const char* name) {
    if (!on) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
  add(avx, "avx");
  add(avx2, "avx2");
  add(fma, "fma");
  add(avx512f, "avx512f");
  add(avx512bw, "avx512bw");
  add(avx512vl, "avx512vl");
  if (out.empty()) out = "baseline";
  return out;
}

const CpuFeatures& DetectCpuFeatures() {
  static const CpuFeatures features = Detect();
  return features;
}

}  // namespace ds::util
