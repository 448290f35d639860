// 16-slot probe-group primitives for the Swiss-table-style seen tables.
//
// Both seen tables (the sequential util/flat_index.hpp and the parallel
// explorer's CAS-insert table) keep a 1-byte tag per slot next to the 8-byte
// cells: tag 0 means "empty", otherwise the top 7 bits of the cell's hash
// fragment with the high bit forced on. A probe loads one 16-byte tag group
// and compares all 16 slots at once, so candidate slots (tag match or empty)
// fall out of a single vector compare and the probe touches cell memory only
// for them — one tag group + at most one payload line in the common case,
// instead of walking 8-byte cells one cache line at a time.
//
// Backend selection is compile-time:
//   * SSE2 on x86-64 (baseline — always present),
//   * NEON on AArch64,
//   * a portable scalar loop everywhere else.
// Defining ANONCOORD_PROBE_SCALAR forces the scalar loop on any host; CI
// builds the bench once with it and diffs the deterministic series at zero
// tolerance, so the non-x86 fallback stays bit-identical without non-x86
// hardware.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#if !defined(ANONCOORD_PROBE_SCALAR) && defined(__SSE2__)
#define ANONCOORD_PROBE_SSE2 1
#include <emmintrin.h>
#elif !defined(ANONCOORD_PROBE_SCALAR) && defined(__ARM_NEON) && \
    defined(__aarch64__)
#define ANONCOORD_PROBE_NEON 1
#include <arm_neon.h>
#endif

namespace anoncoord {

inline constexpr int kProbeGroupSlots = 16;

/// Per-slot tag: top 7 fragment bits with the high bit set, so an occupied
/// slot's tag is never 0 ("empty") and two states with different tags are
/// guaranteed to have different fragments (and so to be different states).
inline std::uint8_t probe_tag(std::uint32_t frag) {
  return static_cast<std::uint8_t>((frag >> 25) | 0x80u);
}

/// Bit-per-slot mask (bit i = slot i) of the 16 tags equal to `tag`.
/// Pass tag 0 for the empty-slot mask.
inline std::uint32_t probe_match_mask(const std::uint8_t* tags,
                                      std::uint8_t tag) {
#if defined(ANONCOORD_PROBE_SSE2)
  const __m128i group =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags));
  const __m128i eq = _mm_cmpeq_epi8(group, _mm_set1_epi8(static_cast<char>(tag)));
  return static_cast<std::uint32_t>(_mm_movemask_epi8(eq));
#elif defined(ANONCOORD_PROBE_NEON)
  const uint8x16_t group = vld1q_u8(tags);
  const uint8x16_t eq = vceqq_u8(group, vdupq_n_u8(tag));
  const uint8x16_t bits = {1, 2, 4, 8, 16, 32, 64, 128,
                           1, 2, 4, 8, 16, 32, 64, 128};
  const uint8x16_t masked = vandq_u8(eq, bits);
  return static_cast<std::uint32_t>(vaddv_u8(vget_low_u8(masked))) |
         (static_cast<std::uint32_t>(vaddv_u8(vget_high_u8(masked))) << 8);
#else
  std::uint32_t m = 0;
  for (int i = 0; i < kProbeGroupSlots; ++i)
    m |= static_cast<std::uint32_t>(tags[i] == tag) << i;
  return m;
#endif
}

/// Which compare backend this build selected (reported by benches).
inline const char* probe_backend() {
#if defined(ANONCOORD_PROBE_SSE2)
  return "sse2";
#elif defined(ANONCOORD_PROBE_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

/// Probe-cost counters a table accumulates per find/insert when a sink is
/// attached: total tag groups scanned and the longest single-probe group
/// chain (a direct read on clustering health).
struct probe_stats {
  std::uint64_t groups_scanned = 0;
  std::uint64_t max_group_chain = 0;

  void note_chain(std::uint64_t groups) {
    groups_scanned += groups;
    if (groups > max_group_chain) max_group_chain = groups;
  }
};

}  // namespace anoncoord
