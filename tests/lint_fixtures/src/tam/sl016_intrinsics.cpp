// Fixture: raw SIMD intrinsics, banned in every file (SL016).
#include <immintrin.h>

namespace sitam {

unsigned long long fold(const unsigned long long* p) {
  __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  v = _mm256_or_si256(v, v);
  return static_cast<unsigned long long>(_mm256_extract_epi64(v, 0));
}

}  // namespace sitam
