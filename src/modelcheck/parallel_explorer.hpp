// The seen table of explorer<Machine>'s workers > 1 back end.
//
// One open-addressing CAS-insert table shared by every worker (no stripes,
// no mutexes). A cell packs a 32-bit hash fragment with a tagged payload:
// either the global index of a merged state or the index of a level-pending
// entry. Publishing stages the packed row and its packed (parent, via, elem)
// provenance in pre-sized per-level arenas first, then publishes with a
// release CAS on the empty cell; a loser re-examines the same cell, so a
// state is never published twice. Same-level duplicates fold their
// provenance with a CAS-min on the pending entry: the lexicographically
// smallest (parent, via), i.e. the single-worker pipeline's first
// discoverer, always wins regardless of timing. The table grows only between
// levels (single-threaded, re-placing cells by fragment exactly like
// util/flat_index.hpp), so probes never race a rehash.
//
// After the join the engine merges the level: it sorts the pending entries
// by packed provenance (the single-worker discovery order), assigns global
// indices, and settle()s each merged entry's cell to its global index.
//
// explorer<Machine> (explorer.hpp) is the only engine; parallel_explorer is
// kept as its alias so existing callers that name it still build.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "util/check.hpp"
#include "util/flat_index.hpp"

namespace anoncoord {

class level_seen_table {
 public:
  /// Tagged payloads with this bit set name a pending entry of the level.
  static constexpr std::uint32_t kPendingBit = 0x80000000u;

  // Packed provenance, CAS-min folded on same-level duplicates. Numeric
  // order == lexicographic (parent, via) order; elem rides along in the low
  // bits (it is a pure function of the successor, so equal (parent, via)
  // implies equal elem, and the tie never decides).
  static constexpr int kViaBits = 12;
  static constexpr int kElemBits = 12;

  static std::uint64_t pack(std::uint64_t parent, int via, int elem) {
    return (parent << (kViaBits + kElemBits)) |
           (static_cast<std::uint64_t>(via) << kElemBits) |
           static_cast<std::uint64_t>(elem);
  }
  static std::int64_t parent_of(std::uint64_t pve) {
    return static_cast<std::int64_t>(pve >> (kViaBits + kElemBits));
  }
  static int via_of(std::uint64_t pve) {
    return static_cast<int>((pve >> kElemBits) & ((1u << kViaBits) - 1));
  }
  static int elem_of(std::uint64_t pve) {
    return static_cast<int>(pve & ((1u << kElemBits) - 1));
  }

  /// Empty table for rows of `stride` words.
  void reset(std::size_t stride) {
    stride_ = stride;
    prev_span_ = 0;
    pend_cap_ = 0;
    pend_.reset();
    pend_words_.clear();
    pend_count_.store(0, std::memory_order_relaxed);
    allocate(1024);
  }

  /// Single-threaded: record an already merged state (the root).
  void insert_merged(std::size_t h, std::uint32_t global) {
    const std::uint32_t frag = flat_index::fragment(h);
    std::size_t i = cell_start(frag);
    while (cells_[i].load(std::memory_order_relaxed) != 0)
      i = (i + 1) & cell_mask_;
    cells_[i].store(make_cell(frag, global), std::memory_order_relaxed);
  }

  /// Between-level capacity management: every structure a worker bumps or
  /// CASes during the fork is sized here for the worst case (`span` parents
  /// with `nprocs` successors each), so the fork never reallocates anything
  /// shared.
  void prepare_level(std::uint64_t merged, std::uint64_t span,
                     std::uint64_t nprocs) {
    const std::uint64_t upper = span * nprocs;
    ANONCOORD_REQUIRE(merged + upper < kMaxPayload,
                      "state index space exhausted");
    const std::uint64_t need = merged + upper + 1;
    if (need * 10 >= cell_count_ * 7) {
      // Reserve-hint sizing: `span` is exactly the previous level's insert
      // count, and BFS levels grow by a roughly constant branching ratio, so
      // one rehash is sized to also cover the extrapolated next level.
      const std::uint64_t ratio16 =
          prev_span_ > 0
              ? std::max<std::uint64_t>(span * 16 / prev_span_, 16)
              : 16;  // flat until we have two levels to extrapolate from
      const std::uint64_t next_span_est =
          std::min(span * std::min(ratio16, 16 * nprocs) / 16, upper);
      std::size_t cap = cell_count_;
      while ((need + next_span_est * nprocs) * 10 >= cap * 7) cap *= 2;
      grow(cap);
    }
    prev_span_ = span;
    if (upper > pend_cap_) {
      pend_cap_ = static_cast<std::size_t>(upper);
      pend_ = std::make_unique<pending_entry[]>(pend_cap_);
      pend_words_.resize(pend_cap_ * stride_);
    }
    pend_count_.store(0, std::memory_order_relaxed);
  }

  /// Find `row` (hash `h`) or publish it as a pending entry with packed
  /// provenance `pve`. Returns the tagged payload: a merged global index, or
  /// kPendingBit | entry. `merged_row(global)` decodes a merged state's row
  /// for the equality compare; a freshly published entry is appended to
  /// `fresh`.
  template <class MergedRow>
  std::uint32_t find_or_publish(const std::uint32_t* row, std::size_t h,
                                std::uint64_t pve, bool& inserted,
                                std::vector<std::uint32_t>& fresh,
                                const MergedRow& merged_row) {
    const std::uint32_t frag = flat_index::fragment(h);
    const std::size_t bytes = stride_ * sizeof(std::uint32_t);
    std::uint32_t staged = kPendingBit;  // no entry staged yet
    std::size_t i = cell_start(frag);
    for (;;) {
      std::uint64_t cell = cells_[i].load(std::memory_order_acquire);
      while (cell == 0) {
        if (staged == kPendingBit) {
          // Stage row + provenance first; the release CAS publishes them.
          staged = pend_count_.fetch_add(1, std::memory_order_relaxed);
          ANONCOORD_REQUIRE(staged < pend_cap_, "pending arena overrun");
          std::memcpy(pend_words_.data() + std::size_t{staged} * stride_, row,
                      bytes);
          pend_[staged].pve.store(pve, std::memory_order_relaxed);
          pend_[staged].bad = false;
        }
        if (cells_[i].compare_exchange_strong(
                cell, make_cell(frag, kPendingBit | staged),
                std::memory_order_release, std::memory_order_acquire)) {
          // Only this worker touches the entry's plain fields before the
          // join; the merge reads them after it.
          pend_[staged].cell = static_cast<std::uint32_t>(i);
          fresh.push_back(staged);
          inserted = true;
          return kPendingBit | staged;
        }
        // Lost the race: `cell` now holds the winner — re-examine it, the
        // winner may be this very state. The staged entry stays reusable
        // (or becomes a dead hole if the state turns out to be known).
      }
      if (cell_frag(cell) == frag) {
        const std::uint32_t tagged = cell_tagged(cell);
        const std::uint32_t* cand = (tagged & kPendingBit)
                                        ? pending_row(tagged & ~kPendingBit)
                                        : merged_row(tagged);
        if (std::memcmp(cand, row, bytes) == 0) {
          if (tagged & kPendingBit) {
            // Same-level duplicate: fold provenance to the lexicographically
            // smallest (parent, via) — the first discoverer.
            std::atomic<std::uint64_t>& slot =
                pend_[tagged & ~kPendingBit].pve;
            std::uint64_t cur = slot.load(std::memory_order_relaxed);
            while (pve < cur &&
                   !slot.compare_exchange_weak(cur, pve,
                                               std::memory_order_relaxed,
                                               std::memory_order_relaxed)) {
            }
          }
          inserted = false;
          return tagged;
        }
      }
      i = (i + 1) & cell_mask_;
    }
  }

  /// Publisher only, before the join: the entry violates safety.
  void mark_bad(std::uint32_t entry) { pend_[entry].bad = true; }

  // Merge-side accessors (single-threaded, after the join).
  std::uint64_t provenance(std::uint32_t entry) const {
    return pend_[entry].pve.load(std::memory_order_relaxed);
  }
  bool bad(std::uint32_t entry) const { return pend_[entry].bad; }
  const std::uint32_t* pending_row(std::uint32_t entry) const {
    return pend_words_.data() + std::size_t{entry} * stride_;
  }
  std::uint32_t global(std::uint32_t entry) const {
    return pend_[entry].global;
  }
  /// The entry merged as state `global`: rewrite its cell to the merged
  /// payload.
  void settle(std::uint32_t entry, std::uint32_t global) {
    pend_[entry].global = global;
    std::atomic<std::uint64_t>& cell = cells_[pend_[entry].cell];
    cell.store(
        make_cell(cell_frag(cell.load(std::memory_order_relaxed)), global),
        std::memory_order_relaxed);
  }

 private:
  // Cell (one 64-bit atomic): 0 is empty, otherwise
  //   bits 63..32  hash fragment (flat_index::fragment — probe start is a
  //                pure function of it, so between-level rehash never needs
  //                the row)
  //   bit 31       pending flag
  //   bits 30..0   payload + 1: a merged global index, or while pending the
  //                index of the level's staged entry
  // The +1 keeps the low half nonzero so no (fragment = 0, payload = 0)
  // state collides with "empty".
  static constexpr std::uint64_t kMaxPayload = 0x7ffffffeull;

  /// One state staged between discovery and the level merge.
  struct pending_entry {
    std::atomic<std::uint64_t> pve;  ///< packed provenance, CAS-min folded
    std::uint32_t cell;              ///< cell index, for settle()
    std::uint32_t global;            ///< assigned by the merge
    bool bad;                        ///< set by the publisher
  };

  std::size_t cell_start(std::uint32_t frag) const {
    return static_cast<std::size_t>(
               (frag * std::uint64_t{0x9e3779b97f4a7c15}) >> 32) &
           cell_mask_;
  }
  static std::uint64_t make_cell(std::uint32_t frag, std::uint32_t tagged) {
    return (std::uint64_t{frag} << 32) | (tagged + 1);
  }
  static std::uint32_t cell_frag(std::uint64_t cell) {
    return static_cast<std::uint32_t>(cell >> 32);
  }
  static std::uint32_t cell_tagged(std::uint64_t cell) {
    return static_cast<std::uint32_t>(cell) - 1;
  }

  void allocate(std::size_t capacity) {
    cell_count_ = capacity;
    cell_mask_ = capacity - 1;
    cells_ = std::make_unique<std::atomic<std::uint64_t>[]>(capacity);
    for (std::size_t i = 0; i < capacity; ++i)
      cells_[i].store(0, std::memory_order_relaxed);
  }

  /// Single-threaded rehash; every cell is a merged payload here (the merge
  /// settled all pending cells), and fragments alone re-derive probe starts.
  void grow(std::size_t capacity) {
    auto old = std::move(cells_);
    const std::size_t old_count = cell_count_;
    allocate(capacity);
    for (std::size_t i = 0; i < old_count; ++i) {
      const std::uint64_t cell = old[i].load(std::memory_order_relaxed);
      if (cell == 0) continue;
      std::size_t j = cell_start(cell_frag(cell));
      while (cells_[j].load(std::memory_order_relaxed) != 0)
        j = (j + 1) & cell_mask_;
      cells_[j].store(cell, std::memory_order_relaxed);
    }
  }

  std::size_t stride_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> cells_;
  std::size_t cell_count_ = 0;
  std::size_t cell_mask_ = 0;
  std::uint64_t prev_span_ = 0;  ///< previous level's frontier (rehash hint)
  std::unique_ptr<pending_entry[]> pend_;
  std::size_t pend_cap_ = 0;
  std::atomic<std::uint32_t> pend_count_{0};
  std::vector<std::uint32_t> pend_words_;
};

// Declared here so the alias below needs no include cycle; explorer.hpp
// (included last) defines it.
template <class Machine>
class explorer;

/// The single BFS engine, under the name older callers use.
template <class Machine>
using parallel_explorer = explorer<Machine>;

}  // namespace anoncoord

#include "modelcheck/explorer.hpp"
