// Model-checking harness for the Fig. 1 mutual-exclusion algorithm.
//
// Verifies, for a concrete (m, naming assignment) configuration:
//   * mutual exclusion  — no reachable state has two processes in the CS;
//   * progress          — from every reachable state with a process in its
//                         entry code, a state with a process in the CS is
//                         reachable. A "stuck" state (goal unreachable) is a
//                         genuine deadlock-freedom violation: every
//                         continuation from it avoids the CS forever.
//
// Theorem 3.1 predicts: with two processes, every naming assignment passes
// iff m is odd; for even m the ring assignment at offset m/2 gets stuck.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/anon_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"

namespace anoncoord {

struct mutex_check_result {
  bool complete = false;        ///< state space fully explored
  bool mutual_exclusion = false;
  bool progress = false;
  std::uint64_t num_states = 0;
  std::uint64_t stuck_states = 0;
  std::vector<int> counterexample;  ///< schedule to the first violation

  bool ok() const { return complete && mutual_exclusion && progress; }
  std::string verdict() const {
    if (!complete) return "INCOMPLETE";
    if (!mutual_exclusion) return "ME-VIOLATION";
    if (!progress) return "DEADLOCK";
    return "OK";
  }
};

/// How many processes are inside the critical section.
inline int mutex_cs_count(const global_state<anon_mutex>& s) {
  int c = 0;
  for (const auto& p : s.procs)
    if (p.in_critical_section()) ++c;
  return c;
}

/// Some process is inside its entry code (the progress premise).
inline bool mutex_someone_trying(const global_state<anon_mutex>& s) {
  for (const auto& p : s.procs)
    if (p.in_entry()) return true;
  return false;
}

namespace detail {

/// Shared harness: explore under mutual exclusion, then check progress.
inline mutex_check_result run_mutex_check(explorer<anon_mutex>& e) {
  auto res = e.explore(
      [](const global_state<anon_mutex>& s) { return mutex_cs_count(s) >= 2; });

  mutex_check_result out;
  out.complete = res.complete;
  out.num_states = res.num_states;
  out.mutual_exclusion = !res.safety_violated();
  if (res.safety_violated()) {
    out.counterexample = res.bad_schedule;
    out.progress = false;  // not evaluated
    return out;
  }
  if (!res.complete) return out;

  e.check_progress(
      res, mutex_someone_trying,
      [](const global_state<anon_mutex>& s) { return mutex_cs_count(s) >= 1; });
  out.stuck_states = res.stuck_states;
  out.progress = !res.progress_violated();
  if (res.progress_violated()) out.counterexample = res.stuck_schedule;
  return out;
}

inline std::vector<anon_mutex> mutex_machines(
    int m, const naming_assignment& naming,
    const std::vector<process_id>& ids) {
  ANONCOORD_REQUIRE(static_cast<int>(ids.size()) == naming.processes(),
                    "one id per process required");
  std::vector<anon_mutex> machines;
  machines.reserve(ids.size());
  for (process_id id : ids) machines.emplace_back(id, m);
  return machines;
}

}  // namespace detail

/// Model-check Fig. 1 with the given per-process numberings. `ids` supplies
/// the (distinct, positive) process identifiers. With `symmetry` the
/// exploration dedups states to orbit representatives under the
/// configuration's automorphism group — sound here because both predicates
/// (CS count, someone-trying) are invariant under process permutation and
/// id renaming, and anon_mutex models process_symmetric_machine. Verdicts,
/// state counts and counterexample schedules are identical for every
/// `workers` count.
inline mutex_check_result check_anon_mutex(
    int m, const naming_assignment& naming, std::vector<process_id> ids,
    std::uint64_t max_states = 2'000'000, bool symmetry = false,
    int workers = 1) {
  explorer<anon_mutex>::options opt;
  opt.workers = workers;
  opt.max_states = max_states;
  opt.symmetry = symmetry;
  explorer<anon_mutex> e(m, naming, detail::mutex_machines(m, naming, ids),
                         opt);
  return detail::run_mutex_check(e);
}

/// check_anon_mutex with the worker count first (the benchmark's entry
/// point).
inline mutex_check_result check_anon_mutex_parallel(
    int m, const naming_assignment& naming, std::vector<process_id> ids,
    int workers, std::uint64_t max_states = 2'000'000,
    bool symmetry = false) {
  return check_anon_mutex(m, naming, std::move(ids), max_states, symmetry,
                          workers);
}

/// Check one two-process configuration where process 0 numbers the registers
/// in physical order and process 1 uses `second` as its numbering. By the
/// anonymity of the model this is fully general up to relabeling.
inline mutex_check_result check_anon_mutex_pair(
    int m, const permutation& second, std::uint64_t max_states = 2'000'000) {
  naming_assignment naming({identity_permutation(m), second});
  return check_anon_mutex(m, naming, {1, 2}, max_states);
}

}  // namespace anoncoord
