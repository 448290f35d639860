// A deliberately naive reference explorer: the oracle the production BFS
// engines are diffed against (reference_explorer_test.cpp).
//
// Everything the engines optimize is absent on purpose. A global state is a
// value (global_state<Machine>: register contents + every machine) held
// whole as a hash-map key; a successor is a full copy of its parent with one
// process stepped through its private numbering. There is no interning, no
// packed rows, no row compression, no symmetry reduction and no threads, so
// none of the engines' machinery can be wrong in the same way here.
//
// Discovery order is the engines' documented order — parents in BFS order,
// processes in ascending index — so without symmetry the oracle's state i is
// the engines' state i. Under symmetry the engines store one representative
// per orbit; the oracle checks that by explicit orbit enumeration:
// reference_canonicalize applies EVERY group element through
// symmetry_group::apply (no pruning, no packed kernel) and keeps the
// lexicographic minimum, and orbit_count() counts the distinct minima.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"  // global_state, permuted_vector_memory
#include "modelcheck/symmetry.hpp"
#include "runtime/step_machine.hpp"

namespace anoncoord {

/// Brute-force canonicalizer: apply EVERY group element and keep the
/// lexicographic minimum, ascending scan with strict-less swap — the
/// discipline symmetry_group::canonicalize and the packed kernel must match
/// bit for bit, including the returned element index (the tie-break).
template <class Machine>
int reference_canonicalize(const symmetry_group<Machine>& g,
                           std::vector<typename Machine::value_type>& regs,
                           std::vector<Machine>& procs) {
  const auto lex_less = [](const std::vector<typename Machine::value_type>& ar,
                           const std::vector<Machine>& ap,
                           const std::vector<typename Machine::value_type>& br,
                           const std::vector<Machine>& bp) {
    for (std::size_t i = 0; i < ar.size(); ++i) {
      if (ar[i] < br[i]) return true;
      if (br[i] < ar[i]) return false;
    }
    for (std::size_t i = 0; i < ap.size(); ++i) {
      if (canonical_less(ap[i], bp[i])) return true;
      if (canonical_less(bp[i], ap[i])) return false;
    }
    return false;
  };
  const auto orig_regs = regs;
  const auto orig_procs = procs;
  std::vector<typename Machine::value_type> tmp_regs;
  std::vector<Machine> tmp_procs;
  int best = 0;
  for (int ei = 1; ei < g.size(); ++ei) {
    g.apply(g.at(ei), orig_regs, orig_procs, tmp_regs, tmp_procs);
    if (lex_less(tmp_regs, tmp_procs, regs, procs)) {
      regs.swap(tmp_regs);
      procs.swap(tmp_procs);
      best = ei;
    }
  }
  return best;
}

template <class Machine>
class reference_explorer {
 public:
  using state_type = global_state<Machine>;
  using value_type = typename Machine::value_type;
  using state_predicate = std::function<bool(const state_type&)>;

  /// Explores the whole reachable graph; `max_states` only guards a test
  /// that picked a configuration too large for an oracle (complete() tells).
  reference_explorer(int registers, naming_assignment naming,
                     std::vector<Machine> initial,
                     std::uint64_t max_states = 2'000'000)
      : naming_(std::move(naming)) {
    state_type init;
    init.regs.assign(static_cast<std::size_t>(registers), value_type{});
    init.procs = std::move(initial);
    add(std::move(init), -1, -1);
    for (std::size_t s = 0; s < states_.size(); ++s) {
      if (states_.size() >= max_states) return;
      for (int p = 0; p < static_cast<int>(states_[s]->procs.size()); ++p) {
        std::optional<state_type> next = step(*states_[s], p);
        if (!next) continue;
        const auto it = index_.find(*next);
        const std::uint32_t to =
            it != index_.end()
                ? it->second
                : add(std::move(*next), static_cast<std::int64_t>(s), p);
        succ_[s].push_back(to);
      }
    }
    complete_ = true;
  }

  bool complete() const { return complete_; }
  std::uint64_t num_states() const { return states_.size(); }
  const state_type& state(std::uint64_t i) const {
    return *states_[static_cast<std::size_t>(i)];
  }
  /// Discovery index of a reachable state, or -1.
  std::int64_t index_of(const state_type& s) const {
    const auto it = index_.find(s);
    return it == index_.end() ? -1 : static_cast<std::int64_t>(it->second);
  }
  /// The BFS-tree schedule reaching state i: the first discoverer's path,
  /// which is the schedule the engines report without symmetry. Its length
  /// is state i's BFS depth (the shortest schedule reaching it).
  std::vector<int> schedule_to(std::uint64_t i) const {
    std::vector<int> out;
    for (auto k = static_cast<std::size_t>(i); parent_[k] >= 0;
         k = static_cast<std::size_t>(parent_[k]))
      out.insert(out.begin(), via_[k]);
    return out;
  }
  std::uint64_t num_edges() const {
    std::uint64_t e = 0;
    for (const auto& out : succ_) e += out.size();
    return e;
  }

  /// `s` with process p stepped, or nullopt when p is disabled in `s`.
  std::optional<state_type> step(const state_type& s, int p) const {
    const auto pi = static_cast<std::size_t>(p);
    if (s.procs[pi].peek().kind == op_kind::none) return std::nullopt;
    state_type next = s;
    permuted_vector_memory<value_type> view(next.regs, naming_.of(p));
    next.procs[pi].step(view);
    return next;
  }

  /// The state a schedule leads to from the initial state, or nullopt if
  /// some step names a process that is disabled at that point.
  std::optional<state_type> replay(const std::vector<int>& schedule) const {
    state_type s = *states_.front();
    for (const int p : schedule) {
      if (p < 0 || p >= static_cast<int>(s.procs.size())) return std::nullopt;
      std::optional<state_type> next = step(s, p);
      if (!next) return std::nullopt;
      s = std::move(*next);
    }
    return s;
  }

  /// One flag per state: `pred` holds there.
  std::vector<char> where(const state_predicate& pred) const {
    std::vector<char> out(states_.size(), 0);
    for (std::size_t i = 0; i < states_.size(); ++i)
      out[i] = pred(*states_[i]);
    return out;
  }

  /// One flag per state: `premise` holds there and no `goal` state is
  /// reachable from it — a fixpoint over the forward edges, iterated until
  /// nothing changes (no reverse index, no queue).
  std::vector<char> stuck(const state_predicate& premise,
                          const state_predicate& goal) const {
    std::vector<char> reaches = where(goal);
    for (bool changed = true; changed;) {
      changed = false;
      for (std::size_t i = 0; i < states_.size(); ++i) {
        if (reaches[i]) continue;
        for (const std::uint32_t j : succ_[i]) {
          if (!reaches[j]) continue;
          reaches[i] = 1;
          changed = true;
          break;
        }
      }
    }
    std::vector<char> out = where(premise);
    for (std::size_t i = 0; i < states_.size(); ++i)
      out[i] = out[i] && !reaches[i];
    return out;
  }

  static std::uint64_t count(const std::vector<char>& flags) {
    std::uint64_t c = 0;
    for (const char f : flags) c += f != 0;
    return c;
  }

  /// The least image of `s` over every element of `g`.
  static state_type canonical(const symmetry_group<Machine>& g, state_type s) {
    reference_canonicalize(g, s.regs, s.procs);
    return s;
  }

  /// Distinct orbits under `g` among the flagged states (all states when
  /// `flags` is empty).
  std::uint64_t orbit_count(const symmetry_group<Machine>& g,
                            const std::vector<char>& flags = {}) const {
    std::unordered_set<state_type, state_hash> reps;
    for (std::size_t i = 0; i < states_.size(); ++i)
      if (flags.empty() || flags[i]) reps.insert(canonical(g, *states_[i]));
    return reps.size();
  }

  /// Edges of the quotient graph under `g`: one out-degree per orbit (the
  /// enabled-process count is invariant under the group action).
  std::uint64_t orbit_edges(const symmetry_group<Machine>& g) const {
    std::unordered_set<state_type, state_hash> reps;
    std::uint64_t e = 0;
    for (std::size_t i = 0; i < states_.size(); ++i)
      if (reps.insert(canonical(g, *states_[i])).second) e += succ_[i].size();
    return e;
  }

 private:
  struct state_hash {
    std::size_t operator()(const state_type& s) const { return s.hash(); }
  };

  std::uint32_t add(state_type s, std::int64_t parent, int via) {
    const auto idx = static_cast<std::uint32_t>(states_.size());
    // Map nodes never move, so the key doubles as the state's storage.
    states_.push_back(&index_.emplace(std::move(s), idx).first->first);
    succ_.emplace_back();
    parent_.push_back(parent);
    via_.push_back(via);
    return idx;
  }

  naming_assignment naming_;
  std::vector<const state_type*> states_;  ///< discovery (BFS) order
  std::vector<std::vector<std::uint32_t>> succ_;
  std::vector<std::int64_t> parent_;  ///< first discoverer, -1 at the root
  std::vector<int> via_;              ///< process stepped from the parent
  std::unordered_map<state_type, std::uint32_t, state_hash> index_;
  bool complete_ = false;
};

}  // namespace anoncoord
