// Hash-consed component storage for the explicit-state explorers.
//
// Exploring millions of global states, the engines used to keep a full
// (register vector, machine vector) copy per seen state. But the *distinct
// components* are far fewer than the distinct states: a register holds one of
// a handful of values (for Fig. 1, the n + 1 process ids), and a machine's
// local state ranges over thousands while the state space ranges over
// millions. state_pool interns each component once and hands out a dense
// 32-bit id; a global state becomes a packed row of (m + n) ids ("words").
// Interning is injective, so two states are equal iff their word rows are
// equal — seen-tables compare with memcmp over 4(m + n) bytes and hash with
// hash_words instead of walking full state content, and the per-state memory
// footprint drops from sizeof(state) (machines own heap vectors) to
// 4(m + n) bytes.
//
// Thread-safety (the explorer interns from every worker):
//
//   * intern() routes by hash to one of kShards shards, each guarded by its
//     own mutex around a flat_index probe + append;
//   * id -> component reads (value()/machine()) are LOCK-FREE against
//     concurrent interning: storage is segmented, segments are fixed-size
//     arrays published once with a release store and never moved, so a
//     reader never observes a reallocation. A thread only dereferences ids
//     it obtained through a happens-before chain (stripe mutex or the
//     fork-join barrier), which also carries the component's construction.
//
// Lock ordering: the explorer's seen tables take no lock, so shard mutexes
// are never nested.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/flat_index.hpp"
#include "util/hash.hpp"
#include "util/varint.hpp"

namespace anoncoord {

namespace detail {

/// One append-only interned pool of T. Hash-sharded; see file comment.
template <class T, class Hasher>
class component_pool {
 public:
  static constexpr int kShardBits = 3;
  static constexpr int kShards = 1 << kShardBits;
  static constexpr int kSegBits = 12;  // 4096 components per segment
  static constexpr std::size_t kSegSize = std::size_t{1} << kSegBits;
  static constexpr std::size_t kMaxSegments = std::size_t{1} << 12;

  // The shard directory is sizeable (kMaxSegments pointers per shard), so it
  // lives on the heap: explorers hold pools by value and are stack-allocated.
  component_pool() : shards_(new shard[kShards]) {}
  component_pool(const component_pool&) = delete;
  component_pool& operator=(const component_pool&) = delete;
  ~component_pool() { clear(); }

  /// Dedup-insert; returns the id of the pooled component equal to `v`.
  std::uint32_t intern(const T& v) {
    const std::size_t h = Hasher{}(v);
    const auto s = static_cast<std::uint32_t>(h & (kShards - 1));
    shard& sh = shards_[s];
    std::lock_guard lk(sh.mu);
    const std::uint32_t found = sh.index.find(
        h, [&](std::uint32_t local) { return shard_get(sh, local) == v; });
    if (found != flat_index::npos) return encode(found, s);
    const std::uint32_t local = sh.count;
    const std::size_t seg = local >> kSegBits;
    const std::size_t off = local & (kSegSize - 1);
    if (off == 0) {
      ANONCOORD_REQUIRE(seg < kMaxSegments, "component pool exhausted");
      T* mem = static_cast<T*>(::operator new(kSegSize * sizeof(T)));
      sh.segs[seg].store(mem, std::memory_order_release);
    }
    new (sh.segs[seg].load(std::memory_order_relaxed) + off) T(v);
    sh.index.insert(h, local);
    ++sh.count;
    return encode(local, s);
  }

  /// Lock-free id -> component. `id` must come from intern() on this pool.
  const T& at(std::uint32_t id) const {
    const shard& sh = shards_[id & (kShards - 1)];
    const std::uint32_t local = id >> kShardBits;
    return shard_get(sh, local);
  }

  std::uint64_t size() const {
    std::uint64_t total = 0;
    for (int s = 0; s < kShards; ++s) total += shards_[s].count;
    return total;
  }

  /// Enumerate every interned id (insertion order within each shard).
  /// QUIESCENT CALLERS ONLY: no intern() may be in flight — the callers are
  /// the rank-snapshot rebuilds, which run single-threaded between parallel
  /// levels (the fork-join barrier orders them after every worker intern).
  template <class Fn>
  void for_each_id(Fn&& fn) const {
    for (std::uint32_t s = 0; s < kShards; ++s) {
      const std::uint32_t cnt = shards_[s].count;
      for (std::uint32_t local = 0; local < cnt; ++local)
        fn((local << kShardBits) | s);
    }
  }

  /// Heap bytes of pooled component storage (segments only, not indexes).
  std::uint64_t storage_bytes() const {
    std::uint64_t segs = 0;
    for (int s = 0; s < kShards; ++s)
      segs += (shards_[s].count + kSegSize - 1) >> kSegBits;
    return segs * kSegSize * sizeof(T);
  }

  void clear() {
    for (int si = 0; si < kShards; ++si) {
      shard& sh = shards_[si];
      std::lock_guard lk(sh.mu);
      for (std::uint32_t local = 0; local < sh.count; ++local) {
        const std::size_t seg = local >> kSegBits;
        sh.segs[seg].load(std::memory_order_relaxed)[local & (kSegSize - 1)]
            .~T();
      }
      for (std::size_t seg = 0; seg < kMaxSegments; ++seg) {
        T* mem = sh.segs[seg].load(std::memory_order_relaxed);
        if (mem == nullptr) break;  // segments fill in order
        ::operator delete(static_cast<void*>(mem));
        sh.segs[seg].store(nullptr, std::memory_order_relaxed);
      }
      sh.count = 0;
      sh.index.clear();
    }
  }

 private:
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "over-aligned components need aligned segment allocation");

  struct shard {
    std::mutex mu;
    flat_index index;
    std::uint32_t count = 0;
    /// Fixed-slot segment directory: never resized, so at() needs no lock.
    std::atomic<T*> segs[kMaxSegments] = {};
  };

  static std::uint32_t encode(std::uint32_t local, std::uint32_t s) {
    ANONCOORD_REQUIRE(local < (std::uint32_t{1} << (32 - kShardBits)),
                      "component pool id space exhausted");
    return (local << kShardBits) | s;
  }

  static const T& shard_get(const shard& sh, std::uint32_t local) {
    return sh.segs[local >> kSegBits].load(std::memory_order_acquire)
        [local & (kSegSize - 1)];
  }

  std::unique_ptr<shard[]> shards_;
};

}  // namespace detail

/// Append-only concurrent u32 -> u32 memo, indexed by pool id. The packed
/// canonicalization kernel keeps one per (group element x component domain):
/// entry `id` caches the interned id of that element's rename/reindex image
/// of component `id`, so after warm-up a group element's action on a packed
/// row is a pure u32 gather with no Machine construction.
///
/// Concurrency contract (the explorer's workers read and fill these
/// during a level): lookups are lock-free (acquire loads on the segment
/// pointer and the slot); a miss recomputes the image through the pools —
/// interning is deterministic, so racing fillers store the SAME value and
/// the double store is benign. Segments are fixed-size, allocated under a
/// mutex, published once with a release store and never moved — the same
/// publish-before-read discipline as component_pool's segments.
class id_memo_table {
 public:
  static constexpr std::uint32_t kUnset = 0xFFFFFFFFu;
  static constexpr int kSegBits = 12;  // 4096 entries per segment
  static constexpr std::size_t kSegSize = std::size_t{1} << kSegBits;
  static constexpr std::size_t kMaxSegments = std::size_t{1} << 12;

  id_memo_table()
      : segs_(new std::atomic<std::atomic<std::uint32_t>*>[kMaxSegments]()) {}
  id_memo_table(const id_memo_table&) = delete;
  id_memo_table& operator=(const id_memo_table&) = delete;
  ~id_memo_table() {
    for (std::size_t s = 0; s < kMaxSegments; ++s)
      delete[] segs_[s].load(std::memory_order_relaxed);
  }

  /// kUnset when `id` has no cached image yet.
  std::uint32_t lookup(std::uint32_t id) const {
    const std::atomic<std::uint32_t>* seg =
        segs_[id >> kSegBits].load(std::memory_order_acquire);
    if (seg == nullptr) return kUnset;
    return seg[id & (kSegSize - 1)].load(std::memory_order_acquire);
  }

  void store(std::uint32_t id, std::uint32_t v) {
    const std::size_t si = id >> kSegBits;
    ANONCOORD_REQUIRE(si < kMaxSegments, "id memo table exhausted");
    std::atomic<std::uint32_t>* seg = segs_[si].load(std::memory_order_acquire);
    if (seg == nullptr) seg = alloc_segment(si);
    seg[id & (kSegSize - 1)].store(v, std::memory_order_release);
  }

 private:
  std::atomic<std::uint32_t>* alloc_segment(std::size_t si) {
    std::lock_guard lk(mu_);
    std::atomic<std::uint32_t>* seg = segs_[si].load(std::memory_order_relaxed);
    if (seg != nullptr) return seg;  // lost the allocation race
    seg = new std::atomic<std::uint32_t>[kSegSize];
    for (std::size_t i = 0; i < kSegSize; ++i)
      seg[i].store(kUnset, std::memory_order_relaxed);
    segs_[si].store(seg, std::memory_order_release);
    return seg;
  }

  std::mutex mu_;  ///< segment allocation only; lookups never take it
  /// Heap directory (32 KiB): fixed slots so lookups never race a resize.
  std::unique_ptr<std::atomic<std::atomic<std::uint32_t>*>[]> segs_;
};

/// Monotone id -> value-order rank snapshot over one component pool. Ids are
/// handed out in insertion order, not value order, so a lexicographic compare
/// over raw id words would NOT be order-isomorphic to comparing the
/// components themselves. This snapshot fixes that: rebuild() sorts every id
/// interned so far by the caller's object-domain order and records each id's
/// position. Distinct ids always intern distinct components, so ranks are a
/// strict total order and `rank(a) < rank(b)` iff component a < component b —
/// for every id the snapshot covers. Ids interned AFTER the snapshot report
/// kUnranked and the kernel falls back to the object-domain compare for those
/// words, so a stale snapshot only costs speed, never soundness.
///
/// rebuild() is quiescent-only (it enumerates the pool); rank() is read-only
/// and safe to share across workers between rebuilds.
class id_rank_snapshot {
 public:
  static constexpr std::uint32_t kUnranked = 0xFFFFFFFFu;

  std::uint32_t rank(std::uint32_t id) const {
    return id < ranks_.size() ? ranks_[id] : kUnranked;
  }

  /// Interned components covered by the last rebuild (staleness metric).
  std::uint64_t covered() const { return covered_; }

  void reset() {
    ranks_.clear();
    covered_ = 0;
  }

  /// `enumerate` invokes its callback once per interned id (one of
  /// state_pool's for_each_*_id); `less` is a strict total order over ids
  /// via their pooled components.
  template <class Enumerate, class Less>
  void rebuild(Enumerate&& enumerate, Less&& less) {
    ids_.clear();
    std::uint32_t max_id = 0;
    enumerate([&](std::uint32_t id) {
      ids_.push_back(id);
      max_id = std::max(max_id, id);
    });
    std::sort(ids_.begin(), ids_.end(), less);
    ranks_.assign(ids_.empty() ? 0 : static_cast<std::size_t>(max_id) + 1,
                  kUnranked);
    for (std::size_t i = 0; i < ids_.size(); ++i)
      ranks_[ids_[i]] = static_cast<std::uint32_t>(i);
    covered_ = ids_.size();
  }

 private:
  std::vector<std::uint32_t> ranks_;  ///< indexed by id; kUnranked = gap
  std::vector<std::uint32_t> ids_;    ///< rebuild scratch
  std::uint64_t covered_ = 0;
};

/// The two pools a packed explorer needs: register values and machine local
/// states. A global state's packed row is m value ids followed by n machine
/// ids; the explorer owns the row layout, this class owns the components.
template <class Machine>
class state_pool {
 public:
  using value_type = typename Machine::value_type;

  std::uint32_t intern_value(const value_type& v) { return values_.intern(v); }
  std::uint32_t intern_machine(const Machine& p) { return machines_.intern(p); }

  const value_type& value(std::uint32_t id) const { return values_.at(id); }
  const Machine& machine(std::uint32_t id) const { return machines_.at(id); }

  std::uint64_t num_values() const { return values_.size(); }
  std::uint64_t num_machines() const { return machines_.size(); }

  /// Quiescent-only id enumeration (see component_pool::for_each_id) — the
  /// packed kernel's rank-snapshot rebuilds.
  template <class Fn>
  void for_each_value_id(Fn&& fn) const {
    values_.for_each_id(fn);
  }
  template <class Fn>
  void for_each_machine_id(Fn&& fn) const {
    machines_.for_each_id(fn);
  }
  std::uint64_t storage_bytes() const {
    return values_.storage_bytes() + machines_.storage_bytes();
  }

  void clear() {
    values_.clear();
    machines_.clear();
  }

 private:
  struct value_hasher {
    std::size_t operator()(const value_type& v) const {
      return static_cast<std::size_t>(hash_value(v));
    }
  };
  struct machine_hasher {
    std::size_t operator()(const Machine& p) const { return p.hash(); }
  };

  detail::component_pool<value_type, value_hasher> values_;
  detail::component_pool<Machine, machine_hasher> machines_;
};

/// Per-reader scratch for row_store::load in compressed mode: a direct-mapped
/// cache of recently decoded rows, keyed by state index. Decoding walks the
/// delta chain parent-ward and stops at the first cached ancestor, so BFS
/// locality (a state's parent sits one level up and was decoded moments ago)
/// collapses the expected chain walk to a step or two. The cache is a bounded
/// scratch object owned by each reader thread — it is NOT part of the
/// per-state storage and is not charged to bytes-per-state.
class row_decode_cache {
 public:
  static constexpr std::size_t kSlots = 1 << 15;  // 32768; pow2 for masking

  void configure(std::size_t stride) {
    stride_ = stride;
    rows_.assign(kSlots * stride, 0);
    tags_.assign(kSlots, 0);
  }

  void clear() {
    if (!tags_.empty()) tags_.assign(tags_.size(), 0);
  }

  /// nullptr on miss; cached row words on hit.
  const std::uint32_t* find(std::uint64_t idx) const {
    const std::size_t slot = static_cast<std::size_t>(idx) & (kSlots - 1);
    if (tags_[slot] != idx + 1) return nullptr;
    return rows_.data() + slot * stride_;
  }

  void put(std::uint64_t idx, const std::uint32_t* row) {
    const std::size_t slot = static_cast<std::size_t>(idx) & (kSlots - 1);
    tags_[slot] = idx + 1;
    std::memcpy(rows_.data() + slot * stride_, row,
                stride_ * sizeof(std::uint32_t));
  }

 private:
  std::size_t stride_ = 0;
  std::vector<std::uint32_t> rows_;
  std::vector<std::uint64_t> tags_;
};

/// Append-only store of packed state rows (stride = m + n words each), the
/// seen-set payload of the explorer. Two modes:
///
///   * verbatim — rows kept as flat 4·stride-byte runs (the pre-compression
///     layout); load() is a memcpy and verbatim_row() exposes the bytes for
///     memcmp-equality. This is the opt-out path (options.compress_arena =
///     false).
///   * compressed — each row is encoded into a byte_arena page either as a
///     KEYFRAME (tag varint 0, then the stride words as varints) or as a
///     DELTA against its BFS parent's row (tag varint = patch count, then per
///     patch a position gap varint and the new word zigzag-encoded against
///     the overwritten word). A BFS successor differs from its parent in one
///     machine word and at most one register word, so a typical delta is a
///     handful of bytes. Keyframes are forced at the roots, whenever the
///     delta chain would exceed kMaxChain (bounding decode work), and
///     whenever the delta would not actually be smaller.
///
/// Decoding a compressed row needs the BFS parent array (the explorer owns
/// it) and a row_decode_cache. Appends are single-threaded; loads may run
/// concurrently from many threads provided no append is in flight and each
/// thread uses its own cache — the same fork-join contract as byte_arena.
///
/// Offsets are 64-bit but stored block-relative to stay at 4 B per row: one
/// u64 base per kOffBlock rows plus a u32 delta. This replaces the old
/// whole-arena u32 cap (fail-fast at 4 GiB) — the arena can now grow past
/// 4 GiB, and with spilling enabled (row_store_options) it no longer has to
/// be resident either.

/// Tuning for a row_store's backing arena. Defaults reproduce the in-memory
/// behaviour; a nonzero spill budget turns on out-of-core paging. page_bits
/// is exposed so tests can drive the spill machinery with tiny pages.
struct row_store_options {
  arena_spill_options spill;
  int page_bits = byte_arena::kPageBits;
};

class row_store {
 public:
  /// Longest allowed parent-delta chain before a keyframe is forced.
  static constexpr std::uint8_t kMaxChain = 24;
  /// Rows per offset block: a block spans < 4 GiB of arena (each row consumes
  /// at most two pages including the skipped tail), so the u32 delta fits.
  static constexpr int kOffBlockBits = 12;
  static constexpr std::uint64_t kOffBlock = std::uint64_t{1} << kOffBlockBits;

  void configure(std::size_t stride, bool compress) {
    configure(stride, compress, row_store_options{});
  }

  void configure(std::size_t stride, bool compress,
                 const row_store_options& opt) {
    ANONCOORD_REQUIRE(stride > 0 && stride < (std::size_t{1} << 13),
                      "row stride out of range");
    clear();
    arena_.configure(opt.page_bits, opt.spill);
    stride_ = stride;
    compressed_ = compress;
  }

  std::size_t stride() const { return stride_; }
  bool compressed() const { return compressed_; }
  std::uint64_t size() const { return count_; }

  /// Append one row. `parent` is the row's BFS parent index (< 0 for roots)
  /// and `parent_row` its decoded words (nullptr forces a keyframe). Returns
  /// the new row's index == the previous size().
  std::uint64_t append(const std::uint32_t* row, std::int64_t parent,
                       const std::uint32_t* parent_row) {
    const std::uint64_t idx = count_++;
    if (!compressed_) {
      words_.insert(words_.end(), row, row + stride_);
      return idx;
    }
    const bool can_delta = parent >= 0 && parent_row != nullptr &&
                           depth_[static_cast<std::size_t>(parent)] < kMaxChain;
    std::size_t npatch = 0;
    std::size_t delta_size = 0;
    if (can_delta) {
      for (std::size_t i = 0; i < stride_; ++i) {
        if (row[i] == parent_row[i]) continue;
        ++npatch;
        delta_size += varint_size(i) +  // upper bound on the gap varint
                      varint_size(zigzag_encode(
                          static_cast<std::int64_t>(row[i]) -
                          static_cast<std::int64_t>(parent_row[i])));
      }
    }
    std::size_t key_size = 0;
    for (std::size_t i = 0; i < stride_; ++i) key_size += varint_size(row[i]);
    const bool keyframe =
        !can_delta || npatch == 0 ||
        varint_size(npatch) + delta_size >= 1 + key_size;

    std::uint8_t* out = arena_.reserve(1 + key_size + kMaxVarintBytes);
    std::size_t n = 0;
    if (keyframe) {
      n += put_varint(out + n, 0);
      for (std::size_t i = 0; i < stride_; ++i)
        n += put_varint(out + n, row[i]);
      depth_.push_back(0);
    } else {
      n += put_varint(out + n, npatch);
      std::size_t prev = 0;
      for (std::size_t i = 0; i < stride_; ++i) {
        if (row[i] == parent_row[i]) continue;
        n += put_varint(out + n, i - prev);
        n += put_varint(out + n,
                        zigzag_encode(static_cast<std::int64_t>(row[i]) -
                                      static_cast<std::int64_t>(parent_row[i])));
        prev = i;
      }
      depth_.push_back(
          static_cast<std::uint8_t>(depth_[static_cast<std::size_t>(parent)] +
                                    1));
    }
    const std::uint64_t off = arena_.commit(n);
    if ((offs_.size() & (kOffBlock - 1)) == 0) off_bases_.push_back(off);
    const std::uint64_t rel = off - off_bases_.back();
    ANONCOORD_REQUIRE(rel <= 0xFFFFFFFFull,
                      "arena offset block spans over 4 GiB (page size too "
                      "large for block-relative offsets)");
    offs_.push_back(static_cast<std::uint32_t>(rel));
    return idx;
  }

  /// Decode row `idx` into `out` (stride words). `parents` is the explorer's
  /// BFS parent array; `cache` must belong to the calling thread. In spill
  /// mode a decode-cache miss prefetches the whole delta chain's pages first:
  /// the recursion consumes the chain keyframe-first, which would otherwise
  /// fault pages one at a time in reverse order of use.
  void load(std::uint64_t idx, const std::int64_t* parents, std::uint32_t* out,
            row_decode_cache& cache) const {
    if (compressed_ && arena_.spill_enabled() && cache.find(idx) == nullptr)
      prefetch_chain(idx, parents, cache);
    load_impl(idx, parents, out, cache);
  }

  /// Batch-fault the pages a whole frontier window [lo, hi) of rows will
  /// decode through: every row's delta chain, stopping where load() will (a
  /// keyframe or a cached ancestor), collected and faulted in ONE arena
  /// pass. Row indices are arena-append order, so a window's own rows are
  /// contiguous bytes and its chains cluster around shared ancestors —
  /// batching turns the per-row cold-fault dribble under a tight spill
  /// budget into one ascending-offset sweep, and the faulted pages' ref
  /// bits keep the window resident across the interleaved appends'
  /// second-chance evictions. No-op in verbatim or fully-resident mode.
  void prefetch_rows(std::uint64_t lo, std::uint64_t hi,
                     const std::int64_t* parents,
                     const row_decode_cache& cache) const {
    if (!compressed_ || !arena_.spill_enabled()) return;
    hi = std::min(hi, count_);
    if (lo >= hi) return;
    std::vector<std::uint64_t> offs;
    offs.reserve(static_cast<std::size_t>(hi - lo) * 2);
    for (std::uint64_t idx = lo; idx < hi; ++idx) {
      if (cache.find(idx) != nullptr) continue;
      std::uint64_t cur = idx;
      for (;;) {
        offs.push_back(offset_of(cur));
        if (depth_[static_cast<std::size_t>(cur)] == 0) break;  // keyframe
        cur =
            static_cast<std::uint64_t>(parents[static_cast<std::size_t>(cur)]);
        if (cache.find(cur) != nullptr) break;
      }
    }
    arena_.prefetch(offs.data(), offs.size());
  }

 private:
  void load_impl(std::uint64_t idx, const std::int64_t* parents,
                 std::uint32_t* out, row_decode_cache& cache) const {
    if (!compressed_) {
      std::memcpy(out, words_.data() + idx * stride_,
                  stride_ * sizeof(std::uint32_t));
      return;
    }
    if (const std::uint32_t* hit = cache.find(idx)) {
      std::memcpy(out, hit, stride_ * sizeof(std::uint32_t));
      return;
    }
    const std::uint8_t* in = arena_.at(offset_of(idx));
    const std::uint64_t npatch = get_varint(in);
    if (npatch == 0) {  // keyframe
      for (std::size_t i = 0; i < stride_; ++i)
        out[i] = static_cast<std::uint32_t>(get_varint(in));
    } else {
      load_impl(
          static_cast<std::uint64_t>(parents[static_cast<std::size_t>(idx)]),
          parents, out, cache);  // recursion bounded by kMaxChain
      std::size_t pos = 0;
      for (std::uint64_t p = 0; p < npatch; ++p) {
        pos += static_cast<std::size_t>(get_varint(in));
        out[pos] = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(out[pos]) + zigzag_decode(get_varint(in)));
      }
    }
    cache.put(idx, out);
  }

  std::uint64_t offset_of(std::uint64_t idx) const {
    return off_bases_[static_cast<std::size_t>(idx >> kOffBlockBits)] +
           offs_[static_cast<std::size_t>(idx)];
  }

  /// Collect the delta chain's offsets (stopping where decoding will: at a
  /// keyframe or a cached ancestor) and fault their pages in one pass.
  void prefetch_chain(std::uint64_t idx, const std::int64_t* parents,
                      const row_decode_cache& cache) const {
    std::uint64_t offs[kMaxChain + 1];
    std::size_t n = 0;
    std::uint64_t cur = idx;
    for (;;) {
      offs[n++] = offset_of(cur);
      if (depth_[static_cast<std::size_t>(cur)] == 0) break;  // keyframe
      cur = static_cast<std::uint64_t>(parents[static_cast<std::size_t>(cur)]);
      if (cache.find(cur) != nullptr) break;
    }
    arena_.prefetch(offs, n);
  }

 public:
  /// Direct row bytes; verbatim mode only (memcmp-equality fast path).
  const std::uint32_t* verbatim_row(std::uint64_t idx) const {
    return words_.data() + idx * stride_;
  }

  /// Bytes of per-state row storage actually committed: encoded bytes plus
  /// offset/depth side arrays in compressed mode, 4·stride per row verbatim.
  std::uint64_t stored_bytes() const {
    if (!compressed_) return count_ * stride_ * sizeof(std::uint32_t);
    return arena_.used() + count_ * (sizeof(std::uint32_t) + 1) +
           off_bases_.size() * sizeof(std::uint64_t);
  }

  /// Keyframe count (diagnostics: the rest are parent deltas).
  std::uint64_t keyframes() const {
    std::uint64_t k = 0;
    for (const std::uint8_t d : depth_) k += (d == 0);
    return k;
  }

  bool spill_enabled() const { return arena_.spill_enabled(); }
  arena_spill_stats spill_stats() const { return arena_.spill_stats(); }

  /// Enforce the arena's resident budget now; append-path only (same
  /// contract as append()). The explorers call this at level boundaries.
  void spill_over_budget() { arena_.spill_over_budget(); }

  /// Test hook: pad the arena so subsequent rows land at or past
  /// `target_offset` (exercising offsets beyond 2^32 without writing
  /// gigabytes). Only legal at an offset-block boundary, where the next
  /// appended row starts a fresh block and re-bases the u32 deltas.
  void pad_arena_for_test(std::uint64_t target_offset) {
    ANONCOORD_REQUIRE(compressed_, "pad_arena_for_test needs compressed mode");
    ANONCOORD_REQUIRE((offs_.size() & (kOffBlock - 1)) == 0,
                      "pad_arena_for_test only at an offset-block boundary");
    arena_.pad_to(target_offset);
  }

  void clear() {
    count_ = 0;
    words_.clear();
    arena_.clear();
    offs_.clear();
    off_bases_.clear();
    depth_.clear();
  }

 private:
  std::size_t stride_ = 0;
  bool compressed_ = true;
  std::uint64_t count_ = 0;
  std::vector<std::uint32_t> words_;  // verbatim mode
  byte_arena arena_;                  // compressed mode: encoded rows…
  std::vector<std::uint32_t> offs_;   // …their block-relative offsets…
  std::vector<std::uint64_t> off_bases_;  // …one base per kOffBlock rows…
  std::vector<std::uint8_t> depth_;   // …and delta-chain depths (keyframe = 0)
};

}  // namespace anoncoord
