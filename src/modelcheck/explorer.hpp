// Explicit-state model checker for step-machine systems.
//
// A global state is (register contents, every process's local state) — the
// paper's §6.1 definition. Because machines are deterministic given what
// they read, each enabled process contributes exactly one successor, and the
// reachable graph under *all* interleavings is explored by BFS with
// memoization. This mechanically verifies, for concrete configurations, what
// the paper proves by hand:
//
//   * safety invariants (mutual exclusion, agreement, ...) hold in every
//     reachable state, with a counterexample schedule extracted on failure;
//   * progress potential: from every reachable state satisfying a premise
//     (e.g. "someone is in the entry code"), a goal state (e.g. "someone is
//     in the CS") is reachable. A reachable state from which the goal is
//     UNreachable is a genuine liveness violation — every continuation of
//     that run avoids the goal forever — which is exactly the shape of the
//     even-m and lock-step counterexamples behind Theorems 3.1 and 3.4.
//
// Storage is packed and interned (modelcheck/state_pool.hpp): register
// values and machine local states are hash-consed into thread-safe component
// pools, and a seen state is one row of (m + n) 32-bit pool ids. Seen-table
// equality is a memcmp over that row, hashing is util/hash.hpp's hash_words,
// and a successor reuses its parent's row with at most two patched words
// (the stepped machine, the written register). By default
// (options.compress_arena) the seen rows are stored delta-against-parent +
// varint encoded in arena pages (row_store), decoded on demand through
// bounded per-thread caches; the opt-out keeps them verbatim.
//
// One pipeline, two back ends (docs/modelcheck.md "hot-path pipeline"). The
// frontier is processed in windows of at most kExpandWindow parents, and
// every window runs the same three stages on some worker:
//   1. decode the window's parent rows behind one batched spill fault-in;
//   2. generate every successor into a flat staging buffer through the
//      worker's transition memo (a step is a pure function of the machine
//      id and the value id at the op's register), then canonicalize the
//      staged rows in one bracketed sub-stage;
//   3. hash the whole batch.
// Only stage 4, the seen-table insert, depends on options.workers:
//   * workers = 1: the window's rows are probed and inserted in discovery
//     order into a Swiss-table-style group-probing index
//     (util/flat_index.hpp), prefetching the probe group a few entries
//     ahead;
//   * workers > 1: BFS runs level by level. Windows of the level are handed
//     out through per-worker work-stealing deques (util/work_steal.hpp), and
//     workers publish fresh rows into one lock-free CAS table
//     (level_seen_table, modelcheck/parallel_explorer.hpp). After the join
//     the level is merged deterministically in (parent, via) order — the
//     order the single-worker back end discovers states in.
// Both back ends therefore assign the same index to every state, stop at
// the same parent when max_states is reached, and report the same
// violation; state, edge and dedup counts, parent chains and
// counterexample schedules are identical at every worker count.
//
// With options.symmetry the seen-table keys are orbit representatives under
// the configuration's automorphism group (modelcheck/symmetry.hpp):
// successors are canonicalized before dedup — in the packed interned-id
// word domain, by packed_canonicalizer — which shrinks the stored state
// count by up to |G| <= n! while preserving reachability and every
// G-invariant verdict. Counterexample schedules are stored against quotient
// states, so they are mapped back to concrete schedules by folding the
// per-state group elements (sigma-inverse chain) and re-validated by replay.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mem/naming.hpp"
#include "modelcheck/parallel_explorer.hpp"
#include "modelcheck/state_pool.hpp"
#include "modelcheck/symmetry.hpp"
#include "runtime/step_machine.hpp"
#include "util/check.hpp"
#include "util/flat_index.hpp"
#include "util/hash.hpp"
#include "util/padded.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"
#include "util/work_steal.hpp"

namespace anoncoord {

/// Per-phase hot-loop breakdown of an exploration run. The four phase times
/// partition the expansion loop (they are measured as cycle_clock ticks and
/// converted once per run against a wall-clock calibration): expand = parent
/// decode + successor generation, canonicalize = the symmetry sub-stage,
/// probe = batch hash + seen-table find/insert, encode = row-arena append.
/// With workers > 1 the worker ticks are summed, so expand, canonicalize and
/// probe read as aggregate CPU time and can exceed the run's wall time. The
/// probe-group counters come from the workers = 1 group-probing seen table;
/// the workers > 1 table has no groups, so they stay zero there.
struct explore_phase_stats {
  std::uint64_t expand_ns = 0;
  std::uint64_t canonicalize_ns = 0;
  std::uint64_t probe_ns = 0;
  std::uint64_t encode_ns = 0;
  std::uint64_t probe_groups_scanned = 0;
  std::uint64_t probe_max_group_chain = 0;
};

/// Memory adapter exposing a plain vector as a register file (the model
/// checker owns register contents inside each global state). Indexing is
/// unchecked: the explorer validates the naming permutation once at
/// construction, so every physical index handed in here is already in range.
template <class V>
class vector_memory {
 public:
  using value_type = V;

  explicit vector_memory(std::vector<V>& regs) : regs_(&regs) {}

  int size() const { return static_cast<int>(regs_->size()); }
  V read(int physical) const {
    return (*regs_)[static_cast<std::size_t>(physical)];
  }
  void write(int physical, V v) {
    (*regs_)[static_cast<std::size_t>(physical)] = std::move(v);
  }

 private:
  std::vector<V>* regs_;
};

/// Register view over a plain vector that *references* the permutation —
/// naming_view copies and revalidates it per construction, which would be
/// per successor here. Validation happens once in the explorer constructor.
template <class V>
class permuted_vector_memory {
 public:
  using value_type = V;

  permuted_vector_memory(std::vector<V>& regs, const permutation& perm)
      : regs_(&regs), perm_(&perm) {}

  int size() const { return static_cast<int>(perm_->size()); }
  V read(int logical) const {
    return (*regs_)[static_cast<std::size_t>(physical(logical))];
  }
  void write(int logical, V v) {
    (*regs_)[static_cast<std::size_t>(physical(logical))] = std::move(v);
  }
  int physical(int logical) const {
    return (*perm_)[static_cast<std::size_t>(logical)];
  }

 private:
  std::vector<V>* regs_;
  const permutation* perm_;
};

template <class Machine>
struct global_state {
  using value_type = typename Machine::value_type;

  std::vector<value_type> regs;
  std::vector<Machine> procs;

  friend bool operator==(const global_state&, const global_state&) = default;

  std::size_t hash() const {
    std::size_t seed = 0x57a7e;
    for (const auto& r : regs) hash_combine(seed, hash_value(r));
    for (const auto& p : procs) hash_combine(seed, p.hash());
    return seed;
  }
};

template <class Machine>
class explorer {
 public:
  using state_type = global_state<Machine>;
  using state_predicate = std::function<bool(const state_type&)>;
  using value_type = typename Machine::value_type;

  struct options {
    /// Expansion threads. Results are identical at every worker count;
    /// only the stage-4 seen-table back end changes (file comment).
    int workers = 1;
    /// Exploration cap, checked before each frontier parent's successors
    /// are inserted; result.complete reports whether it was reached.
    std::uint64_t max_states = 2'000'000;
    /// Store successor edges. Only check_progress() reads them, so
    /// safety-only runs can skip them; result.num_edges counts successors
    /// either way.
    bool record_edges = true;
    /// Dedup states by their orbit representative under the configuration's
    /// automorphism group (modelcheck/symmetry.hpp): the naming-conjugation
    /// group for process_symmetric_machine types, the full S_n x C_m
    /// product for fully_anonymous_machine types. Sound only when every
    /// predicate passed to explore()/check_progress() is invariant under
    /// the group action; machine types with neither trait get the trivial
    /// group, making this a no-op rather than a wrong answer.
    bool symmetry = false;
    /// Store seen rows delta-against-parent + varint encoded in arena pages
    /// (state_pool.hpp's row_store) instead of verbatim. Identical verdicts,
    /// counts, and schedules either way; this only trades decode work for a
    /// ~2.5x smaller per-state footprint. Opt out for maximum raw speed.
    bool compress_arena = true;
    /// Out-of-core mode (compressed arena only): resident budget in bytes
    /// for the row arena; cold pages spill to an unlinked temp file under
    /// spill_dir ("" = $TMPDIR or /tmp) and fault back on decode misses.
    /// Verdicts, counts and counterexamples are bit-identical to in-memory
    /// runs. 0 keeps everything resident. With workers > 1 the budget is
    /// enforced at level merges, so within a level the resident set can
    /// transiently exceed it by the workers' fault-ins.
    std::uint64_t spill_budget_bytes = 0;
    std::string spill_dir;
  };

  struct result {
    bool complete = false;        ///< full reachable set explored
    std::uint64_t num_states = 0;
    std::uint64_t num_edges = 0;   ///< successors generated (stored or not)
    /// Successors that were already known: every successor either discovers
    /// a state or is a hit, so this is num_edges - (num_states - 1).
    std::uint64_t dedup_hits = 0;

    /// First reachable state violating the safety predicate, if any,
    /// together with the schedule (process indices) leading to it. Under
    /// symmetry both are concrete: the schedule is the quotient path mapped
    /// through the group elements and the state is its replay.
    std::optional<state_type> bad_state;
    std::vector<int> bad_schedule;

    /// Progress analysis (filled by check_progress): reachable states
    /// satisfying the premise from which no goal state is reachable.
    std::uint64_t stuck_states = 0;
    std::optional<state_type> stuck_state;
    std::vector<int> stuck_schedule;

    bool safety_violated() const { return bad_state.has_value(); }
    bool progress_violated() const { return stuck_states > 0; }
  };

  explorer(int registers, naming_assignment naming,
           std::vector<Machine> initial_machines, options opt = {})
      : registers_(registers), naming_(std::move(naming)),
        initial_machines_(std::move(initial_machines)), opt_(opt) {
    ANONCOORD_REQUIRE(opt_.workers >= 1, "need at least one worker");
    ANONCOORD_REQUIRE(
        naming_.processes() == static_cast<int>(initial_machines_.size()),
        "naming assignment and machine count disagree");
    ANONCOORD_REQUIRE(naming_.registers() == registers,
                      "naming assignment built for a different register file");
    // naming_view validates per construction; we validate once here instead
    // and use unchecked permuted access on the hot path.
    for (int p = 0; p < naming_.processes(); ++p)
      ANONCOORD_REQUIRE(is_permutation_of_iota(naming_.of(p)),
                        "naming must be a permutation of register indices");
    group_ = opt_.symmetry
                 ? symmetry_group<Machine>::compute(naming_, initial_machines_)
                 : symmetry_group<Machine>::trivial(naming_.processes(),
                                                    registers_);
    ANONCOORD_REQUIRE(
        opt_.workers == 1 ||
            (naming_.processes() < (1 << level_seen_table::kViaBits) &&
             group_.size() < (1 << level_seen_table::kElemBits)),
        "provenance packing out of range");
  }

  /// Explore the reachable state space, checking `is_bad` (safety violation)
  /// on every discovered state. Exploration stops early on a violation.
  result explore(const state_predicate& is_bad = {}) {
    reset();
    result res;
    {
      state_type& init = workers_[0].value.canon;
      init.regs.assign(static_cast<std::size_t>(registers_), value_type{});
      init.procs = initial_machines_;
      canonical_scratch<Machine> cs;
      const int elem = group_.canonicalize(init.regs, init.procs, cs, &cstats_);
      std::vector<std::uint32_t> row;
      for (const auto& r : init.regs) row.push_back(pool_.intern_value(r));
      for (const auto& p : init.procs) row.push_back(pool_.intern_machine(p));
      const std::size_t h = hash_words(row.data(), stride());
      rows_.append(row.data(), -1, nullptr);
      parent_.push_back(-1);
      via_.push_back(-1);
      elem_.push_back(elem);
      if (opt_.workers == 1) {
        index_.insert(h, 0);
      } else {
        table_.insert_merged(h, 0);
      }
      if (is_bad && is_bad(init)) {
        res.bad_state = concrete_state(0);
        res.bad_schedule = concrete_schedule(0);
        finish(res);
        return res;
      }
    }
    res.complete = opt_.workers == 1 ? run_sequential(res, is_bad)
                                     : run_levels(res, is_bad);
    finish(res);
    return res;
  }

  /// After a *complete* explore() with recorded edges: verify that from
  /// every reachable state satisfying `premise`, some state satisfying
  /// `goal` is reachable. Populates the progress fields of `res`. Under
  /// symmetry the analysis runs on the quotient graph — sound for
  /// G-invariant predicates.
  void check_progress(result& res, const state_predicate& premise,
                      const state_predicate& goal) const {
    ANONCOORD_REQUIRE(res.complete,
                      "progress analysis needs a complete state space");
    ANONCOORD_REQUIRE(opt_.record_edges,
                      "progress analysis needs recorded edges");
    const std::size_t n = num_states();
    std::vector<char> reaches_goal(n, 0);
    // Reverse adjacency in CSR form — two passes over the edge records
    // instead of one heap-allocated bucket per state. Cached across calls
    // (naming sweeps re-check the same run with different predicates, and
    // reduced/raw comparison runs re-enter here per run).
    if (csr_offsets_.size() != n + 1) {
      csr_offsets_.assign(n + 1, 0);
      for (const auto& [from, to] : edges_) ++csr_offsets_[to + 1];
      for (std::size_t i = 0; i < n; ++i) csr_offsets_[i + 1] += csr_offsets_[i];
      csr_sources_.resize(edges_.size());
      std::vector<std::uint32_t> cursor(csr_offsets_.begin(),
                                        csr_offsets_.end() - 1);
      for (const auto& [from, to] : edges_) csr_sources_[cursor[to]++] = from;
    }
    const std::vector<std::uint32_t>& offsets = csr_offsets_;
    const std::vector<std::uint32_t>& sources = csr_sources_;
    std::vector<std::uint32_t> queue;
    queue.reserve(n);
    state_type scratch;
    for (std::size_t i = 0; i < n; ++i) {
      load_state(static_cast<std::uint64_t>(i), scratch);
      if (goal(scratch)) {
        reaches_goal[i] = 1;
        queue.push_back(static_cast<std::uint32_t>(i));
      }
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const auto v = queue[head];
      for (std::uint32_t k = offsets[v]; k < offsets[v + 1]; ++k) {
        const auto u = sources[k];
        if (!reaches_goal[u]) {
          reaches_goal[u] = 1;
          queue.push_back(u);
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (reaches_goal[i]) continue;
      load_state(static_cast<std::uint64_t>(i), scratch);
      if (premise(scratch)) {
        ++res.stuck_states;
        if (!res.stuck_state) {
          res.stuck_state = concrete_state(static_cast<std::int64_t>(i));
          res.stuck_schedule = concrete_schedule(static_cast<std::int64_t>(i));
        }
      }
    }
  }

  /// Stored states, in BFS discovery order.
  std::uint64_t num_states() const { return parent_.size(); }

  /// Stored state `idx` (the orbit representative under symmetry).
  state_type state(std::uint64_t idx) const {
    state_type s;
    load_state(idx, s);
    return s;
  }

  /// Interned-component statistics (the compact-store win the bench reports).
  const state_pool<Machine>& pool() const { return pool_; }

  /// Per-phase hot-loop breakdown of the last explore().
  const explore_phase_stats& phase_counters() const { return phases_; }

  /// Row-storage bytes actually committed for the seen set (the bench's
  /// bytes-per-state numerator; same accounting basis in both arena modes).
  std::uint64_t stored_row_bytes() const { return rows_.stored_bytes(); }

  /// Keyframe rows in the compressed store (diagnostics; 0 in verbatim mode
  /// where the notion does not apply).
  std::uint64_t keyframe_rows() const { return rows_.keyframes(); }

  /// Spill counters from the backing arena (all zero when spilling is off).
  arena_spill_stats spill_stats() const { return rows_.spill_stats(); }

  /// Canonicalization prune counters for the last explore(), summed over
  /// the workers (all zero when the group is trivial).
  canonicalize_stats canonicalize_counters() const {
    canonicalize_stats total = cstats_;
    for (const auto& wk : workers_) total.merge(wk.value.cstats);
    return total;
  }

 private:
  /// Frontier parents per pipeline window. Doubles as the spill fault-in
  /// window (one prefetch_rows call per window).
  static constexpr std::uint64_t kExpandWindow = 128;

  /// A successor staged by the pipeline, waiting for stage 4.
  struct staged_succ {
    std::int32_t via;   ///< process index that stepped
    std::int32_t elem;  ///< canonicalizing group element
    std::size_t hash;   ///< filled by the batch-hash stage
  };

  /// A machine id's peeked op (kind + logical register index), cached per
  /// pool id. index -2 marks a not-yet-peeked entry.
  struct cached_op {
    op_kind kind = op_kind::none;
    int index = -2;
  };

  /// Interned-id transition memo entry.
  struct transition {
    std::uint64_t key;    ///< machine id << 32 | input value id
    std::uint32_t mach;   ///< stepped machine id
    std::uint32_t value;  ///< written (or unchanged input) value id
  };

  /// One expansion thread's pipeline state. Worker 0 decodes through the
  /// engine's cache (it is the only worker at workers = 1, and the merge
  /// and accessors only run while no worker does).
  struct worker {
    row_decode_cache* dcache = nullptr;
    row_decode_cache own_dcache;
    std::vector<std::uint32_t> wrows;  ///< decoded window parent rows
    std::vector<std::uint32_t> srows;  ///< flat staged successor rows
    std::vector<std::uint32_t> soff;   ///< per-parent staged offsets (wlen+1)
    std::vector<staged_succ> staged;
    std::vector<cached_op> opc;
    std::vector<transition> tmemo;
    flat_index tindex;
    packed_canonical_scratch pks;
    canonicalize_stats cstats;
    std::vector<std::uint32_t> cmp;  ///< eq-probe decode buffer
    state_type canon;  ///< predicate input: a fresh state's reconstruction
    std::uint64_t pt_expand = 0, pt_canon = 0, pt_probe = 0;
    // workers > 1: this level's stage-4 output, folded in by the merge.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  ///< tagged
    std::vector<std::uint32_t> fresh;  ///< pending entries published
    std::uint64_t successors = 0;
  };

  std::size_t stride() const {
    return static_cast<std::size_t>(registers_) + initial_machines_.size();
  }

  void reset() {
    pool_.clear();
    cstats_ = canonicalize_stats{};
    if (!group_.is_trivial())
      pk_.attach(&group_, &pool_, registers_,
                 static_cast<int>(initial_machines_.size()));
    row_store_options ropt;
    if (opt_.compress_arena) {
      ropt.spill.budget_bytes = opt_.spill_budget_bytes;
      ropt.spill.dir = opt_.spill_dir;
    }
    rows_.configure(stride(), opt_.compress_arena, ropt);
    dcache_.configure(stride());
    workers_.clear();
    workers_.resize(static_cast<std::size_t>(opt_.workers));
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      worker& wk = workers_[w].value;
      if (w == 0) {
        wk.dcache = &dcache_;
      } else {
        wk.own_dcache.configure(stride());
        wk.dcache = &wk.own_dcache;
      }
      wk.cmp.assign(stride(), 0);
    }
    if (opt_.workers == 1) {
      index_.clear();
      pstats_ = probe_stats{};
      index_.stats = &pstats_;
    } else {
      table_.reset(stride());
    }
    phases_ = explore_phase_stats{};
    pt_encode_ = 0;
    cal_timer_.reset();
    cal_tick0_ = cycle_clock::now();
    parent_.clear();
    via_.clear();
    elem_.clear();
    edges_.clear();
    csr_offsets_.clear();
    csr_sources_.clear();
  }

  /// Stages 1–3 for the frontier window [wbegin, wbegin + wlen), on `wk`.
  /// Returns the cycle-clock reading that closes the canonicalize bracket,
  /// where the caller's stage-4 (probe) bracket opens.
  std::uint64_t generate(worker& wk, std::uint64_t wbegin, std::size_t wlen) {
    const std::size_t m = static_cast<std::size_t>(registers_);
    const std::size_t n = initial_machines_.size();
    const std::size_t st = stride();
    const std::uint64_t t0 = cycle_clock::now();
    // Stage 1: decode the window's parent rows behind one batched
    // cold-page fault-in (BFS append order IS arena-offset order).
    if (rows_.spill_enabled())
      rows_.prefetch_rows(wbegin, wbegin + wlen, parent_.data(), *wk.dcache);
    if (wk.wrows.size() < wlen * st) wk.wrows.resize(wlen * st);
    if (wk.srows.size() < wlen * n * st) wk.srows.resize(wlen * n * st);
    for (std::size_t k = 0; k < wlen; ++k)
      rows_.load(wbegin + k, parent_.data(), wk.wrows.data() + k * st,
                 *wk.dcache);
    // Stage 2: generate every successor of the window into the flat
    // staging buffer. Generation runs on interned ids: a step is a pure
    // function of (machine id, value id at the op's register) — that key
    // captures plain reads, plain writes AND the CAS fallback (a write that
    // reads its target first) — so the transition memo patches rows without
    // reconstructing states, stepping machines or re-hashing components.
    // Misses evaluate the real machine and intern the stepped machine, then
    // the written value.
    wk.staged.clear();
    wk.soff.assign(wlen + 1, 0);
    for (std::size_t k = 0; k < wlen; ++k) {
      const std::uint32_t* prow = wk.wrows.data() + k * st;
      for (int p = 0; p < static_cast<int>(n); ++p) {
        const std::uint32_t w = prow[m + static_cast<std::size_t>(p)];
        const cached_op& oc = op_for(wk, w);
        if (oc.kind == op_kind::none) continue;
        std::uint32_t vid_in = kNoValueId;
        std::size_t phys = 0;
        if (oc.kind != op_kind::internal) {
          phys = static_cast<std::size_t>(
              naming_.of(p)[static_cast<std::size_t>(oc.index)]);
          vid_in = prow[phys];
        }
        const std::uint64_t key = (std::uint64_t{w} << 32) | vid_in;
        const auto kh = static_cast<std::size_t>(mix64(key));
        std::uint32_t w_out, vid_out;
        const std::uint32_t ti = wk.tindex.find(kh, [&](std::uint32_t i) {
          return wk.tmemo[i].key == key;
        });
        if (ti != flat_index::npos) {
          w_out = wk.tmemo[ti].mach;
          vid_out = wk.tmemo[ti].value;
        } else {
          std::tie(w_out, vid_out) = eval_transition(w, oc, vid_in);
          wk.tindex.insert(kh, static_cast<std::uint32_t>(wk.tmemo.size()));
          wk.tmemo.push_back({key, w_out, vid_out});
        }
        std::uint32_t* row = wk.srows.data() + wk.staged.size() * st;
        std::memcpy(row, prow, st * sizeof(std::uint32_t));
        row[m + static_cast<std::size_t>(p)] = w_out;
        if (oc.kind == op_kind::write) row[phys] = vid_out;
        // is_bad is deferred to stage 4: the staged row IS the (canonical)
        // state, so fresh states reconstruct it there and duplicates never
        // pay the predicate.
        wk.staged.push_back({p, 0, 0});
      }
      wk.soff[k + 1] = static_cast<std::uint32_t>(wk.staged.size());
    }
    const std::uint64_t t1 = cycle_clock::now();
    wk.pt_expand += t1 - t0;
    // Stage 2b: canonicalize the staged rows, one bracket per window.
    std::uint64_t t2 = t1;
    if (!group_.is_trivial()) {
      for (std::size_t i = 0; i < wk.staged.size(); ++i)
        wk.staged[i].elem = pk_.canonicalize_row_batched(
            wk.srows.data() + i * st, wk.pks, wk.cstats);
      t2 = cycle_clock::now();
      wk.pt_canon += t2 - t1;
    }
    // Stage 3: hash the whole batch back to back — pure streaming over the
    // staging buffer, no table traffic mixed in.
    for (std::size_t i = 0; i < wk.staged.size(); ++i)
      wk.staged[i].hash = hash_words(wk.srows.data() + i * st, st);
    return t2;
  }

  /// The workers = 1 driver: windows in frontier order, stage 4 inserting
  /// into the group-probing index. Returns whether the reachable set was
  /// fully explored; a safety violation or the max_states cap stops early
  /// with false. Rows are appended in discovery order with their parent as
  /// delta base, the cap is checked before each parent's successors are
  /// inserted, and the reported violation is the first violating fresh
  /// state in discovery order.
  bool run_sequential(result& res, const state_predicate& is_bad) {
    worker& wk = workers_[0].value;
    const std::size_t st = stride();
    // How far ahead of the probe cursor to warm seen-table groups. Far
    // enough to cover a memory round-trip at ~40 probes/us, near enough
    // that the lines still sit in L1 when the probe arrives.
    constexpr std::size_t kPrefetchAhead = 8;
    const bool record = opt_.record_edges;
    std::uint64_t frontier = 0;
    while (frontier < num_states()) {
      const std::uint64_t wbegin = frontier;
      const std::size_t wlen = static_cast<std::size_t>(
          std::min<std::uint64_t>(kExpandWindow, num_states() - wbegin));
      if (!group_.is_trivial()) pk_.maybe_refresh_ranks();
      const std::uint64_t t2 = generate(wk, wbegin, wlen);
      // Stage 4: probe/insert in discovery order, warming the probe group
      // of the entry kPrefetchAhead slots ahead so its tag and cell lines
      // are in flight while earlier probes retire.
      const std::vector<staged_succ>& staged = wk.staged;
      std::size_t si = 0;
      for (std::size_t k = 0; k < wlen; ++k) {
        // Checked per parent, not per window: an incomplete run stops
        // before inserting the next frontier state's successors once the
        // cap is hit, so its state count does not depend on the window.
        if (num_states() >= opt_.max_states) {
          wk.pt_probe += cycle_clock::now() - t2;
          return false;  // incomplete
        }
        const auto s = static_cast<std::int64_t>(wbegin + k);
        const std::uint32_t* prow = wk.wrows.data() + k * st;
        for (const std::size_t gend = wk.soff[k + 1]; si < gend; ++si) {
          if (si + kPrefetchAhead < staged.size())
            index_.prefetch(staged[si + kPrefetchAhead].hash);
          const staged_succ& ss = staged[si];
          const std::uint32_t* row = wk.srows.data() + si * st;
          const auto [idx, fresh] =
              intern_row(wk, row, ss.hash, s, prow, ss.via, ss.elem);
          ++res.num_edges;
          if (record)
            edges_.emplace_back(static_cast<std::uint32_t>(s),
                                static_cast<std::uint32_t>(idx));
          if (fresh && is_bad) {
            // The staged row is the stored (canonical) state; the predicate
            // (G-invariant by contract under symmetry) runs on its
            // reconstruction, on fresh states only.
            fill_state(row, wk.canon);
            if (is_bad(wk.canon)) {
              res.bad_state = concrete_state(idx);
              res.bad_schedule = concrete_schedule(idx);
              wk.pt_probe += cycle_clock::now() - t2;
              return false;
            }
          }
        }
      }
      wk.pt_probe += cycle_clock::now() - t2;
      frontier = wbegin + wlen;
    }
    return true;
  }

  /// The workers > 1 driver: level-synchronous BFS. Each level's windows
  /// are seeded into the per-worker deques, expanded and published into the
  /// CAS table, and merged after the join.
  bool run_levels(result& res, const state_predicate& is_bad) {
    const int nworkers = opt_.workers;
    const std::uint64_t nprocs = initial_machines_.size();
    thread_pool pool(nworkers);
    auto deques = std::make_unique<padded<ws_deque>[]>(
        static_cast<std::size_t>(nworkers));
    std::uint64_t level_begin = 0;
    std::uint64_t level_end = num_states();
    while (level_begin < level_end) {
      if (num_states() >= opt_.max_states) return false;  // incomplete
      const std::uint64_t span = level_end - level_begin;
      // Single-threaded between levels: the only place the packed kernel's
      // rank snapshots rebuild, so workers never observe a snapshot
      // mid-swap.
      if (!group_.is_trivial()) pk_.maybe_refresh_ranks();
      table_.prepare_level(num_states(), span, nprocs);
      // Small windows on small levels so every worker gets some.
      const std::uint64_t wsize = std::clamp<std::uint64_t>(
          span / (4 * static_cast<std::uint64_t>(nworkers)), 1, kExpandWindow);
      const std::uint64_t nwin = (span + wsize - 1) / wsize;
      // Seed the deques with contiguous window slices (single-threaded:
      // happens-before the fork).
      for (int w = 0; w < nworkers; ++w) {
        const std::uint64_t lo = nwin * static_cast<std::uint64_t>(w) /
                                 static_cast<std::uint64_t>(nworkers);
        const std::uint64_t hi = nwin * static_cast<std::uint64_t>(w + 1) /
                                 static_cast<std::uint64_t>(nworkers);
        ws_deque& d = deques[static_cast<std::size_t>(w)].value;
        d.reset(static_cast<std::size_t>(hi - lo));
        for (std::uint64_t j = hi; j > lo; --j) d.push(j - 1);  // pop ascending
      }
      const auto expand = [&](worker& wk, std::uint64_t j) {
        const std::uint64_t wbegin = level_begin + j * wsize;
        publish_window(wk, wbegin,
                       static_cast<std::size_t>(
                           std::min(wsize, level_end - wbegin)),
                       is_bad);
      };
      pool.run([&](int w) {
        worker& wk = workers_[static_cast<std::size_t>(w)].value;
        ws_deque& own = deques[static_cast<std::size_t>(w)].value;
        std::uint64_t j = 0;
        for (;;) {
          if (own.pop(j)) {
            expand(wk, j);
            continue;
          }
          // Own deque dry: sweep the others, stealing their oldest work. A
          // steal can fail under CAS contention while items remain, so only
          // a sweep that observes every deque empty terminates (no one
          // pushes mid-level: empty is monotone).
          bool stole = false;
          bool maybe_work = false;
          for (int k = 1; k < nworkers && !stole; ++k) {
            ws_deque& victim =
                deques[static_cast<std::size_t>((w + k) % nworkers)].value;
            if (victim.steal(j)) stole = true;
            else if (!victim.empty()) maybe_work = true;
          }
          if (stole) {
            expand(wk, j);
            continue;
          }
          if (!maybe_work && own.empty()) return;
        }
      });
      if (merge_level(res, level_begin)) return false;  // violation or cap
      level_begin = level_end;
      level_end = num_states();
    }
    return true;
  }

  /// Stages 1–3 on one window, then stage 4 for workers > 1: find or
  /// publish each staged row in the CAS table, in discovery order.
  void publish_window(worker& wk, std::uint64_t wbegin, std::size_t wlen,
                      const state_predicate& is_bad) {
    const std::uint64_t t2 = generate(wk, wbegin, wlen);
    const std::size_t st = stride();
    const auto merged_row = [&](std::uint32_t global) {
      rows_.load(global, parent_.data(), wk.cmp.data(), *wk.dcache);
      return static_cast<const std::uint32_t*>(wk.cmp.data());
    };
    std::size_t si = 0;
    for (std::size_t k = 0; k < wlen; ++k) {
      const std::uint64_t g = wbegin + k;
      for (const std::size_t gend = wk.soff[k + 1]; si < gend; ++si) {
        const staged_succ& ss = wk.staged[si];
        const std::uint32_t* row = wk.srows.data() + si * st;
        bool inserted = false;
        const std::uint32_t tagged = table_.find_or_publish(
            row, ss.hash, level_seen_table::pack(g, ss.via, ss.elem), inserted,
            wk.fresh, merged_row);
        ++wk.successors;
        if (opt_.record_edges)
          wk.edges.emplace_back(static_cast<std::uint32_t>(g), tagged);
        if (inserted && is_bad) {
          fill_state(row, wk.canon);
          if (is_bad(wk.canon))
            table_.mark_bad(tagged & ~level_seen_table::kPendingBit);
        }
      }
    }
    wk.pt_probe += cycle_clock::now() - t2;
  }

  /// Merge the level's pending states in (parent, via) order — the order
  /// run_sequential discovers them in — appending rows and provenance,
  /// then fold the workers' edges and counters in. Stops exactly where
  /// run_sequential would: before the first parent reached with
  /// num_states() >= max_states, or right after the first violating state,
  /// counting only the successors run_sequential generated up to there.
  /// Returns true iff it stopped.
  bool merge_level(result& res, std::uint64_t level_begin) {
    struct fresh_ref {
      std::uint64_t pve;
      std::uint32_t entry;
    };
    std::vector<fresh_ref> fresh;
    for (auto& wk : workers_) {
      for (const std::uint32_t e : wk.value.fresh)
        fresh.push_back({table_.provenance(e), e});
      wk.value.fresh.clear();
    }
    // (parent, via) pairs are unique — each parent/process combination has
    // exactly one successor — so packed-provenance order is total and
    // deterministic, independent of which worker published the entry.
    std::sort(fresh.begin(), fresh.end(),
              [](const fresh_ref& a, const fresh_ref& b) {
                return a.pve < b.pve;
              });
    const std::uint64_t e0 = cycle_clock::now();
    std::int64_t bad = -1;
    bool capped = false;
    std::int64_t decoded = -1;  // the parent whose row rowtmp_ holds
    // Stop point as (parent, number of its processes whose successors
    // run_sequential has generated there).
    std::uint64_t stop_parent = 0;
    int stop_procs = 0;
    rowtmp_.resize(stride());
    for (const fresh_ref& f : fresh) {
      const std::int64_t parent = level_seen_table::parent_of(f.pve);
      if (parent != decoded) {
        if (num_states() >= opt_.max_states) {
          // Every fresh state of the parents in between was merged, so
          // they are all duplicates: run_sequential stops right after the
          // parent of the last merged state.
          capped = true;
          stop_parent = static_cast<std::uint64_t>(decoded) + 1;
          break;
        }
        rows_.load(static_cast<std::uint64_t>(parent), parent_.data(),
                   rowtmp_.data(), dcache_);
        decoded = parent;
      }
      const auto global = static_cast<std::uint32_t>(num_states());
      rows_.append(table_.pending_row(f.entry), parent, rowtmp_.data());
      parent_.push_back(parent);
      via_.push_back(level_seen_table::via_of(f.pve));
      elem_.push_back(level_seen_table::elem_of(f.pve));
      table_.settle(f.entry, global);
      if (table_.bad(f.entry)) {
        bad = global;
        stop_parent = static_cast<std::uint64_t>(parent);
        stop_procs = level_seen_table::via_of(f.pve) + 1;
        break;
      }
    }
    pt_encode_ += cycle_clock::now() - e0;
    const bool stopped = bad >= 0 || capped;
    if (stopped)
      res.num_edges += successors_before(level_begin, stop_parent, stop_procs);
    for (auto& wk : workers_) {
      worker& w = wk.value;
      if (!stopped) {
        res.num_edges += w.successors;
        // Resolve this level's edges from pending entries to globals.
        for (auto [from, to] : w.edges) {
          if (to & level_seen_table::kPendingBit)
            to = table_.global(to & ~level_seen_table::kPendingBit);
          edges_.emplace_back(from, to);
        }
      }
      w.successors = 0;
      w.edges.clear();
    }
    // Level boundary = append path: safe point to enforce the resident
    // budget before the workers fork again (no reader holds arena pointers).
    rows_.spill_over_budget();
    if (bad >= 0) {
      res.bad_state = concrete_state(bad);
      res.bad_schedule = concrete_schedule(bad);
    }
    return stopped;
  }

  /// Successors of the stored states [begin, end), plus those of state
  /// `end` by its processes below `end_procs` (single-threaded, once per
  /// stopped run).
  std::uint64_t successors_before(std::uint64_t begin, std::uint64_t end,
                                  int end_procs) {
    worker& wk = workers_[0].value;
    const std::size_t m = static_cast<std::size_t>(registers_);
    const int n = static_cast<int>(initial_machines_.size());
    std::uint64_t count = 0;
    rowtmp_.resize(stride());
    for (std::uint64_t g = begin; g < end || (g == end && end_procs > 0); ++g) {
      rows_.load(g, parent_.data(), rowtmp_.data(), dcache_);
      for (int p = 0; p < (g < end ? n : end_procs); ++p)
        if (op_for(wk, rowtmp_[m + static_cast<std::size_t>(p)]).kind !=
            op_kind::none)
          ++count;
    }
    return count;
  }

  /// Sentinel value id for transitions with no register input (internal
  /// steps); pool ids are dense and never reach it.
  static constexpr std::uint32_t kNoValueId = 0xffffffffu;

  const cached_op& op_for(worker& wk, std::uint32_t w) {
    if (w >= wk.opc.size()) wk.opc.resize(w + 1);
    cached_op& e = wk.opc[static_cast<std::size_t>(w)];
    if (e.index == -2) {
      const op_desc op = pool_.machine(w).peek();
      e.kind = op.kind;
      e.index = op.index;
    }
    return e;
  }

  /// Memory adapter for transition-memo misses: serves the op's register
  /// value on any read and captures the (at most one) write. No cas()
  /// member, so compare_and_swap takes the same read+write fallback as the
  /// explorer's vector-backed views.
  struct one_op_memory {
    using value_type = typename Machine::value_type;
    int nregs = 0;
    value_type in{};
    value_type out{};
    bool wrote = false;

    int size() const { return nregs; }
    value_type read(int) const { return in; }
    void write(int, value_type v) {
      out = std::move(v);
      wrote = true;
    }
  };

  /// Evaluate one transition for real (memo miss): reconstruct the machine,
  /// step it against the adapter, and intern the results — machine first,
  /// then the written value. The pools are thread-safe, so workers call
  /// this concurrently.
  std::pair<std::uint32_t, std::uint32_t> eval_transition(std::uint32_t w,
                                                          const cached_op& oc,
                                                          std::uint32_t vid) {
    Machine mach = pool_.machine(w);
    one_op_memory mem;
    mem.nregs = registers_;
    if (oc.kind != op_kind::internal) mem.in = pool_.value(vid);
    mach.step(mem);
    const std::uint32_t w_out = pool_.intern_machine(mach);
    const std::uint32_t vid_out =
        mem.wrote ? pool_.intern_value(mem.out) : vid;
    return {w_out, vid_out};
  }

  /// Dedup-insert a packed row with a precomputed hash into the workers = 1
  /// index; returns (index, inserted-fresh). `prow` is the parent's decoded
  /// row (the compressed store's delta base).
  std::pair<std::int64_t, bool> intern_row(worker& wk, const std::uint32_t* row,
                                           std::size_t h, std::int64_t parent,
                                           const std::uint32_t* prow, int via,
                                           int elem) {
    const bool verbatim = !rows_.compressed();
    const auto eq = [&](std::uint32_t i) {
      const std::uint32_t* cand;
      if (verbatim) {
        cand = rows_.verbatim_row(i);
      } else {
        rows_.load(i, parent_.data(), wk.cmp.data(), *wk.dcache);
        cand = wk.cmp.data();
      }
      return std::memcmp(cand, row, stride() * sizeof(std::uint32_t)) == 0;
    };
    const std::uint32_t found = index_.find(h, eq);
    if (found != flat_index::npos) return {found, false};
    const std::uint64_t idx = num_states();
    ANONCOORD_REQUIRE(idx < flat_index::npos, "state index space exhausted");
    const std::uint64_t e0 = cycle_clock::now();
    rows_.append(row, parent, prow);
    pt_encode_ += cycle_clock::now() - e0;
    index_.insert(h, static_cast<std::uint32_t>(idx));
    parent_.push_back(parent);
    via_.push_back(via);
    elem_.push_back(elem);
    return {static_cast<std::int64_t>(idx), true};
  }

  /// Expand a packed row into component form, reusing `out`'s capacity.
  void fill_state(const std::uint32_t* w, state_type& out) const {
    const std::size_t m = static_cast<std::size_t>(registers_);
    const std::size_t n = initial_machines_.size();
    if (out.regs.size() == m && out.procs.size() == n) {
      for (std::size_t r = 0; r < m; ++r) out.regs[r] = pool_.value(w[r]);
      for (std::size_t p = 0; p < n; ++p)
        out.procs[p] = pool_.machine(w[m + p]);
    } else {
      out.regs.clear();
      out.procs.clear();
      for (std::size_t r = 0; r < m; ++r) out.regs.push_back(pool_.value(w[r]));
      for (std::size_t p = 0; p < n; ++p)
        out.procs.push_back(pool_.machine(w[m + p]));
    }
  }

  /// Decode stored state `idx` into `out`, reusing its capacity
  /// (single-threaded callers).
  void load_state(std::uint64_t idx, state_type& out) const {
    rowtmp_.resize(stride());
    rows_.load(idx, parent_.data(), rowtmp_.data(), dcache_);
    fill_state(rowtmp_.data(), out);
  }

  /// The concrete schedule reaching stored state `idx`. Without symmetry
  /// this is the recorded via chain. With symmetry state i+1's recorded via
  /// acts in the frame already twisted by every canonicalization so far:
  /// with h_i the composition g_i o ... o g_root of the per-state elements,
  /// the concrete process is sigma_{h_i}^-1(via_{i+1}), and the inverse
  /// folds as sigma_{h_{i+1}}^-1 = sigma_{h_i}^-1 o sigma_{g_{i+1}}^-1.
  std::vector<int> concrete_schedule(std::int64_t idx) const {
    std::vector<std::int64_t> path;
    for (std::int64_t i = idx; i >= 0; i = parent_[static_cast<std::size_t>(i)])
      path.push_back(i);
    std::reverse(path.begin(), path.end());
    std::vector<int> sched;
    sched.reserve(path.size() - 1);
    if (group_.is_trivial()) {
      for (std::size_t k = 1; k < path.size(); ++k)
        sched.push_back(via_[static_cast<std::size_t>(path[k])]);
      return sched;
    }
    std::vector<int> sinv =
        group_.at(elem_[static_cast<std::size_t>(path[0])]).sigma_inv;
    std::vector<int> next(sinv.size());
    for (std::size_t k = 1; k < path.size(); ++k) {
      const auto st = static_cast<std::size_t>(path[k]);
      sched.push_back(sinv[static_cast<std::size_t>(via_[st])]);
      const std::vector<int>& g_sinv = group_.at(elem_[st]).sigma_inv;
      for (std::size_t x = 0; x < sinv.size(); ++x)
        next[x] = sinv[static_cast<std::size_t>(g_sinv[x])];
      sinv.swap(next);
    }
    return sched;
  }

  /// The concrete state reaching stored state `idx`: the stored row itself
  /// without symmetry, the replay of the concrete schedule with it.
  state_type concrete_state(std::int64_t idx) const {
    if (group_.is_trivial()) return state(static_cast<std::uint64_t>(idx));
    state_type s;
    s.regs.assign(static_cast<std::size_t>(registers_), value_type{});
    s.procs = initial_machines_;
    for (const int p : concrete_schedule(idx)) {
      permuted_vector_memory<value_type> view(s.regs, naming_.of(p));
      s.procs[static_cast<std::size_t>(p)].step(view);
    }
    return s;
  }

  void finish(result& res) {
    res.num_states = num_states();
    res.dedup_hits = res.num_edges - (res.num_states - 1);
    // Convert tick accumulators to nanoseconds with one end-of-run
    // calibration (rdtsc frequency is not the core clock; measuring the
    // ratio against steady_clock over the whole run sidesteps knowing it;
    // constant-rate rdtsc is core-invariant, so one ratio serves every
    // worker).
    const std::uint64_t dt = cycle_clock::now() - cal_tick0_;
    const double ratio =
        dt > 0 ? (cal_timer_.elapsed_seconds() * 1e9) / static_cast<double>(dt)
               : 0.0;
    const auto to_ns = [ratio](std::uint64_t ticks) {
      return static_cast<std::uint64_t>(static_cast<double>(ticks) * ratio);
    };
    std::uint64_t expand = 0, canon = 0, probe = 0;
    for (const auto& wk : workers_) {
      expand += wk.value.pt_expand;
      canon += wk.value.pt_canon;
      probe += wk.value.pt_probe;
    }
    // At workers = 1 the row appends run inside the probe bracket; report
    // disjoint phases (the workers > 1 merge appends outside it).
    if (opt_.workers == 1) probe = probe > pt_encode_ ? probe - pt_encode_ : 0;
    phases_.expand_ns = to_ns(expand);
    phases_.canonicalize_ns = to_ns(canon);
    phases_.probe_ns = to_ns(probe);
    phases_.encode_ns = to_ns(pt_encode_);
    phases_.probe_groups_scanned = pstats_.groups_scanned;
    phases_.probe_max_group_chain = pstats_.max_group_chain;
  }

  int registers_;
  naming_assignment naming_;
  std::vector<Machine> initial_machines_;
  options opt_;
  symmetry_group<Machine> group_;

  state_pool<Machine> pool_;
  /// Packed canonicalization kernel (attached when the group is
  /// non-trivial; shared by the workers, whose scratch and counters are
  /// their own). cstats_ covers the single-threaded root canonicalize.
  packed_canonicalizer<Machine> pk_;
  canonicalize_stats cstats_;
  /// Stored states: row i in rows_; parent_/via_/elem_ record the BFS tree
  /// and the per-state canonicalizing element.
  row_store rows_;  ///< packed rows, compressed or verbatim per options
  std::vector<std::int64_t> parent_;
  std::vector<int> via_;
  std::vector<int> elem_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
  // Reverse-CSR progress structure, built lazily by check_progress and
  // reused by subsequent calls on the same run.
  mutable std::vector<std::uint32_t> csr_offsets_;
  mutable std::vector<std::uint32_t> csr_sources_;

  // Stage-4 back ends: the group-probing index (workers = 1) and the CAS
  // table (workers > 1).
  flat_index index_;
  probe_stats pstats_;
  level_seen_table table_;

  std::vector<padded<worker>> workers_;
  // Single-threaded decode scratch (worker 0, the merge, accessors).
  mutable row_decode_cache dcache_;
  mutable std::vector<std::uint32_t> rowtmp_;

  // Phase breakdown: the published ns view, the row-append ticks, and the
  // calibration pair (worker ticks live in the workers).
  explore_phase_stats phases_;
  std::uint64_t pt_encode_ = 0;
  stopwatch cal_timer_;
  std::uint64_t cal_tick0_ = 0;
};

}  // namespace anoncoord
