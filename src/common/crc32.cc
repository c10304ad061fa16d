#include "common/crc32.h"

#include <array>

#include "common/coding.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace mope {

namespace {

/// Slicing-by-8 tables. kTables[0] is the classic bytewise table;
/// kTables[k][b] is the CRC contribution of byte b followed by k zero bytes,
/// so one 8-byte word folds in with eight independent lookups instead of
/// eight dependent ones.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

/// Advances the raw (uninverted) CRC state over the `n` bytes at `p`.
uint32_t UpdatePortable(uint32_t crc, const char* p, size_t n) {
  for (; n >= 8; p += 8, n -= 8) {
    // The reflected CRC consumes the lowest-addressed byte first, which is
    // the word's low byte on the little-endian hosts LoadU64 requires.
    const uint64_t w = LoadU64(p) ^ crc;
    crc = kTables[7][w & 0xFF] ^ kTables[6][(w >> 8) & 0xFF] ^
          kTables[5][(w >> 16) & 0xFF] ^ kTables[4][(w >> 24) & 0xFF] ^
          kTables[3][(w >> 32) & 0xFF] ^ kTables[2][(w >> 40) & 0xFF] ^
          kTables[1][(w >> 48) & 0xFF] ^ kTables[0][w >> 56];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ static_cast<uint8_t>(*p)) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ", Intel 2009), in the bit-reflected
// domain of 0xEDB88320. Every function here is compiled for PCLMULQDQ and
// SSE4.1 whatever the build's -march, and runs only where the host has both
// (internal::Crc32PclmulSupported). GCC does not let a function without
// this attribute, lambdas included, call one with it, so each helper
// carries it too.
#define MOPE_CRC_PCLMUL __attribute__((target("pclmul,sse4.1")))

/// One fold: the 128 bits of `x`, multiplied forward by the distance the
/// two constants in `k` encode, then xored onto the next 16 input bytes.
MOPE_CRC_PCLMUL inline __m128i Fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

MOPE_CRC_PCLMUL inline __m128i Load(const char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Advances the raw CRC state over `n` bytes at `p`, where n >= 64 and n is
/// a multiple of 16.
MOPE_CRC_PCLMUL uint32_t FoldPclmul(uint32_t crc, const char* p, size_t n) {
  // Low/high 64-bit lanes: k1/k2 fold 512 bits forward, k3/k4 128 bits; k5
  // takes 64 bits to 32; P' and mu are the Barrett reduction's polynomial
  // and its quotient.
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_set_epi32(0, 0, 0, -1);

  // Four accumulators, 64 bytes per step.
  __m128i x0 =
      _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load(p + 16);
  __m128i x2 = Load(p + 32);
  __m128i x3 = Load(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = Fold(x0, k1k2, Load(p));
    x1 = Fold(x1, k1k2, Load(p + 16));
    x2 = Fold(x2, k1k2, Load(p + 32));
    x3 = Fold(x3, k1k2, Load(p + 48));
  }
  // Into one accumulator, then 16 bytes per step.
  __m128i x = Fold(Fold(Fold(x0, k3k4, x1), k3k4, x2), k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x = Fold(x, k3k4, Load(p));

  // 128 bits to 64 (appending 32 zero bits), then to 32 with k5.
  x = _mm_xor_si128(_mm_srli_si128(x, 8),
                    _mm_clmulepi64_si128(x, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett reduction to the 32-bit remainder, in bits 32..63.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

#undef MOPE_CRC_PCLMUL

#endif  // defined(__x86_64__)

/// The folding kernel takes the longest multiple of 16 bytes once there are
/// 64; the rest, and every shorter input, goes through the portable loop.
uint32_t UpdatePclmul(uint32_t crc, const char* p, size_t n) {
#if defined(__x86_64__)
  if (n >= 64) {
    const size_t folded = n & ~size_t{15};
    crc = FoldPclmul(crc, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return UpdatePortable(crc, p, n);
}

}  // namespace

uint32_t Crc32(std::string_view bytes) { return Crc32Continue(0, bytes); }

uint32_t Crc32Continue(uint32_t crc, std::string_view bytes) {
  return internal::Crc32PclmulSupported()
             ? internal::Crc32ContinuePclmul(crc, bytes)
             : internal::Crc32ContinuePortable(crc, bytes);
}

namespace internal {

bool Crc32PclmulSupported() {
#if defined(__x86_64__)
  // Decided once per process; a function-local static is thread-safe.
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return supported;
#else
  return false;
#endif
}

uint32_t Crc32ContinuePortable(uint32_t crc, std::string_view bytes) {
  return UpdatePortable(crc ^ 0xFFFFFFFFu, bytes.data(), bytes.size()) ^
         0xFFFFFFFFu;
}

uint32_t Crc32ContinuePclmul(uint32_t crc, std::string_view bytes) {
  return UpdatePclmul(crc ^ 0xFFFFFFFFu, bytes.data(), bytes.size()) ^
         0xFFFFFFFFu;
}

}  // namespace internal

}  // namespace mope
