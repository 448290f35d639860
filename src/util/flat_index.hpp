// Open-addressed group-probing index from a precomputed hash to a
// caller-side record index — the sequential explorer's seen table, its
// transition memo, the hash-consing state pool and the systematic tester's
// state cache.
//
// Layout: 8-byte cells packing a 32-bit hash fragment with the
// entry index, plus one 1-byte tag per cell (util/probe_group.hpp). A probe
// walks 16-slot groups: one 16-byte tag compare yields the candidate slots
// (tag match or empty), so cell memory is touched only for candidates and a
// probe usually costs one tag group + one payload line. The index stores no
// keys and no values — equality is always confirmed by the caller's `eq`
// callback, so tag/fragment collisions only cost an extra compare.
//
// Placement discipline: an entry lands in the first empty slot of the first
// group (in probe order) containing one, and a lookup stops at the first
// group with an empty slot — the group-granular analogue of linear probing's
// "stop at the first empty cell". The probe start is a pure function of the
// fragment, so grow() re-places cells without the original hashes.
//
// The table is single-threaded. The explorer's workers > 1 lock-free seen table
// keeps the same cell packing and fragment-derived probe start, but probes
// bare atomic cells linearly: it has no tag array, so no tag read can race
// a publishing CAS.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/hash.hpp"
#include "util/probe_group.hpp"

namespace anoncoord {

struct flat_index {
  static constexpr std::uint32_t npos = 0xffffffffu;

  /// cell = fragment << 32 | (local + 1); 0 means empty.
  std::vector<std::uint64_t> cells;
  /// One probe tag per cell (0 = empty); cells.size() bytes.
  std::vector<std::uint8_t> tags;
  std::size_t mask = 0;        ///< slot mask (cells.size() - 1)
  std::size_t group_mask = 0;  ///< group mask (cells.size()/16 - 1)
  std::size_t used = 0;
  /// Optional probe-cost sink (seen-table owners attach one; the component
  /// pools leave it null).
  probe_stats* stats = nullptr;

  flat_index() { grow(64); }

  static std::uint32_t fragment(std::size_t h) {
    return static_cast<std::uint32_t>(mix64(h) >> 32);
  }
  /// Probe start as a pure function of the fragment, so grow() can
  /// re-place cells without the original hash.
  std::size_t start_group(std::uint32_t frag) const {
    return static_cast<std::size_t>(
               (frag * std::uint64_t{0x9e3779b97f4a7c15}) >> 32) &
           group_mask;
  }

  /// Warm the probe group for hash `h` (tag line + cell line); used by the
  /// batched pipeline to issue lookups one batch ahead of the probes.
  void prefetch(std::size_t h) const {
#if defined(__GNUC__) || defined(__clang__)
    const std::size_t base = start_group(fragment(h)) * kProbeGroupSlots;
    __builtin_prefetch(tags.data() + base);
    __builtin_prefetch(cells.data() + base);
#else
    (void)h;
#endif
  }

  /// Find the entry for hash `h` that satisfies `eq`, or npos.
  template <class Eq>
  std::uint32_t find(std::size_t h, const Eq& eq) const {
    const std::uint32_t frag = fragment(h);
    const std::uint8_t tag = probe_tag(frag);
    std::uint64_t chain = 0;
    std::uint32_t out = npos;
    for (std::size_t g = start_group(frag);; g = (g + 1) & group_mask) {
      ++chain;
      const std::uint8_t* t = tags.data() + g * kProbeGroupSlots;
      for (std::uint32_t m = probe_match_mask(t, tag); m != 0; m &= m - 1) {
        const std::size_t i =
            g * kProbeGroupSlots + static_cast<std::size_t>(std::countr_zero(m));
        const std::uint64_t cell = cells[i];
        if (static_cast<std::uint32_t>(cell >> 32) == frag) {
          const auto local = static_cast<std::uint32_t>(cell) - 1;
          if (eq(local)) {
            out = local;
            break;
          }
        }
      }
      if (out != npos || probe_match_mask(t, 0) != 0) break;
    }
    if (stats) stats->note_chain(chain);
    return out;
  }

  void insert(std::size_t h, std::uint32_t local) {
    if ((used + 1) * 10 >= cells.size() * 7) grow(cells.size() * 2);
    const std::uint64_t chain = place(fragment(h), local);
    if (stats) stats->note_chain(chain);
    ++used;
  }

  void clear() {
    cells.assign(cells.size(), 0);
    tags.assign(tags.size(), 0);
    used = 0;
  }

 private:
  void grow(std::size_t capacity) {  // capacity: power of two, >= 64
    std::vector<std::uint64_t> old = std::move(cells);
    cells.assign(capacity, 0);
    tags.assign(capacity, 0);
    mask = capacity - 1;
    group_mask = capacity / kProbeGroupSlots - 1;
    for (const std::uint64_t cell : old)
      if (cell != 0)
        place(static_cast<std::uint32_t>(cell >> 32),
              static_cast<std::uint32_t>(cell) - 1);
  }

  /// First empty slot of the first group with one; returns the group-chain
  /// length for the stats sink.
  std::uint64_t place(std::uint32_t frag, std::uint32_t local) {
    std::uint64_t chain = 0;
    for (std::size_t g = start_group(frag);; g = (g + 1) & group_mask) {
      ++chain;
      const std::uint32_t empties =
          probe_match_mask(tags.data() + g * kProbeGroupSlots, 0);
      if (empties == 0) continue;
      const std::size_t i =
          g * kProbeGroupSlots +
          static_cast<std::size_t>(std::countr_zero(empties));
      cells[i] = (std::uint64_t{frag} << 32) | (local + 1);
      tags[i] = probe_tag(frag);
      return chain;
    }
  }
};

}  // namespace anoncoord
