// The BFS explorer diffed against the naive reference explorer
// (reference_explorer.hpp), cell by cell: 1/2/4/8 workers (the workers = 1
// and workers > 1 seen-table back ends), each with symmetry reduction on
// and off and the compressed row arena on and off.
//
// Per cell and configuration the engine must reproduce what the oracle
// derives from the raw state graph:
//   * the verdicts — mutual exclusion holds, and progress holds exactly when
//     the oracle finds no stuck state;
//   * the raw state and edge counts without symmetry, and the orbit counts
//     (states, edges, stuck states) under symmetry, counted by explicit
//     orbit enumeration through symmetry_group::apply;
//   * the stored states themselves — the oracle's discovery order without
//     symmetry, distinct canonical orbit representatives with it;
//   * the counterexamples — the deadlock schedule from check_progress and a
//     safety schedule (explore with "someone reaches the CS" as the bad
//     predicate) replay on the raw semantics to a state of the right kind,
//     at that state's BFS depth; without symmetry they are the oracle's own
//     BFS-tree paths. Every cell with the same symmetry setting reports the
//     same schedules, and its safety probe stops at the same state and edge
//     count.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/anon_mutex.hpp"
#include "core/fa_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/fa_check.hpp"
#include "modelcheck/mutex_check.hpp"
#include "modelcheck/symmetry.hpp"
#include "reference_explorer.hpp"

namespace anoncoord {
namespace {

naming_assignment identity_naming(int n, int m) {
  return naming_assignment(
      std::vector<permutation>(static_cast<std::size_t>(n),
                               identity_permutation(m)));
}

/// The mutex predicates, shared by both machine families.
template <class Machine>
struct mutex_predicates {
  using pred = typename reference_explorer<Machine>::state_predicate;
  pred two_in_cs;  ///< mutual-exclusion violation
  pred trying;     ///< progress premise
  pred in_cs;      ///< progress goal, and the safety-path probe predicate
};

mutex_predicates<anon_mutex> predicates(const anon_mutex*) {
  return {[](const global_state<anon_mutex>& s) {
            return mutex_cs_count(s) >= 2;
          },
          mutex_someone_trying,
          [](const global_state<anon_mutex>& s) {
            return mutex_cs_count(s) >= 1;
          }};
}

mutex_predicates<fa_mutex> predicates(const fa_mutex*) {
  return {[](const global_state<fa_mutex>& s) {
            return fa_mutex_cs_count(s) >= 2;
          },
          fa_mutex_someone_trying,
          [](const global_state<fa_mutex>& s) {
            return fa_mutex_cs_count(s) >= 1;
          }};
}

/// One engine configuration.
struct cell {
  int workers;
  bool symmetry;
  bool compress;

  std::string name() const {
    return "workers=" + std::to_string(workers) +
           " symmetry=" + std::to_string(symmetry) +
           " compress=" + std::to_string(compress);
  }
};

std::vector<cell> all_cells() {
  std::vector<cell> out;
  for (const bool sym : {false, true})
    for (const bool comp : {false, true})
      for (const int w : {1, 2, 4, 8}) out.push_back({w, sym, comp});
  return out;
}

/// What the oracle predicts for one configuration.
template <class Machine>
struct oracle {
  reference_explorer<Machine> ref;
  symmetry_group<Machine> group;
  mutex_predicates<Machine> preds;
  std::vector<char> stuck;
  std::uint64_t first_stuck = 0;  ///< discovery index (valid if any stuck)
  std::uint64_t first_cs = 0;     ///< discovery index of the first CS state
  std::uint64_t orbit_states = 0, orbit_edges = 0, orbit_stuck = 0;

  oracle(int m, const naming_assignment& naming,
         const std::vector<Machine>& initial)
      : ref(m, naming, initial),
        group(symmetry_group<Machine>::compute(naming, initial)),
        preds(predicates(static_cast<const Machine*>(nullptr))) {
    stuck = ref.stuck(preds.trying, preds.in_cs);
    const std::vector<char> cs = ref.where(preds.in_cs);
    while (first_stuck < stuck.size() && !stuck[first_stuck]) ++first_stuck;
    while (first_cs < cs.size() && !cs[first_cs]) ++first_cs;
    orbit_states = ref.orbit_count(group);
    orbit_edges = ref.orbit_edges(group);
    orbit_stuck = ref.orbit_count(group, stuck);
  }
};

/// The replayed end state of an engine schedule; fails the test if the
/// schedule steps a disabled process or leaves the reachable set.
template <class Machine>
std::uint64_t replay_index(const oracle<Machine>& o,
                           const std::vector<int>& schedule,
                           const global_state<Machine>& reported,
                           const std::string& what) {
  const auto end = o.ref.replay(schedule);
  EXPECT_TRUE(end.has_value()) << what << ": schedule does not replay";
  if (!end) return 0;
  EXPECT_TRUE(*end == reported) << what << ": reported state != replay";
  const std::int64_t idx = o.ref.index_of(*end);
  EXPECT_GE(idx, 0) << what << ": replay left the reachable set";
  if (idx < 0) return 0;
  EXPECT_EQ(schedule.size(),
            o.ref.schedule_to(static_cast<std::uint64_t>(idx)).size())
      << what << ": schedule is not a shortest path";
  return static_cast<std::uint64_t>(idx);
}

/// Schedules every cell of one symmetry setting must agree on.
struct reported_schedules {
  bool set = false;
  std::vector<int> stuck, bad;
  std::uint64_t bad_states = 0;  ///< states stored when the probe stopped
  std::uint64_t bad_edges = 0;   ///< successors generated by then
};

template <class Machine>
void expect_cell_matches(const oracle<Machine>& o, explorer<Machine>& e,
                         const cell& c, reported_schedules& agreed) {
  const std::string what = c.name();
  const reference_explorer<Machine>& ref = o.ref;

  // Full exploration under the mutual-exclusion predicate.
  auto res = e.explore(o.preds.two_in_cs);
  ASSERT_TRUE(res.complete) << what;
  EXPECT_FALSE(res.safety_violated()) << what;
  ASSERT_EQ(res.num_states, c.symmetry ? o.orbit_states : ref.num_states())
      << what;
  EXPECT_EQ(res.num_edges, c.symmetry ? o.orbit_edges : ref.num_edges())
      << what;
  EXPECT_EQ(res.dedup_hits, res.num_edges - (res.num_states - 1)) << what;
  if (!c.symmetry) {
    for (std::uint64_t i = 0; i < res.num_states; ++i)
      ASSERT_TRUE(e.state(i) == ref.state(i)) << what << ": state " << i;
  } else {
    std::vector<char> hit(ref.num_states(), 0);
    for (std::uint64_t i = 0; i < res.num_states; ++i) {
      const auto s = e.state(i);
      ASSERT_TRUE(reference_explorer<Machine>::canonical(o.group, s) == s)
          << what << ": stored state " << i << " is not canonical";
      const std::int64_t idx = ref.index_of(s);
      ASSERT_GE(idx, 0) << what << ": stored state " << i << " unreachable";
      ASSERT_FALSE(hit[static_cast<std::size_t>(idx)])
          << what << ": stored state " << i << " stored twice";
      hit[static_cast<std::size_t>(idx)] = 1;
    }
  }

  // Progress: the deadlock verdict, its count, and its witness.
  e.check_progress(res, o.preds.trying, o.preds.in_cs);
  EXPECT_EQ(res.stuck_states,
            c.symmetry ? o.orbit_stuck : reference_explorer<Machine>::count(
                                             o.stuck))
      << what;
  if (res.stuck_states > 0) {
    ASSERT_TRUE(res.stuck_state.has_value()) << what;
    const std::uint64_t idx =
        replay_index(o, res.stuck_schedule, *res.stuck_state, what + " stuck");
    EXPECT_TRUE(o.stuck[idx]) << what << ": witness is not stuck";
    if (!c.symmetry) {
      EXPECT_EQ(res.stuck_schedule, ref.schedule_to(o.first_stuck)) << what;
    }
  }

  // Safety path: "someone reaches the CS" as the bad predicate must stop at
  // the first such state, with a replayable shortest schedule.
  const auto probe = e.explore(o.preds.in_cs);
  ASSERT_TRUE(probe.safety_violated()) << what;
  EXPECT_FALSE(probe.complete) << what;
  const std::uint64_t bad_idx =
      replay_index(o, probe.bad_schedule, *probe.bad_state, what + " bad");
  EXPECT_TRUE(o.preds.in_cs(ref.state(bad_idx))) << what;
  EXPECT_EQ(probe.bad_schedule.size(), ref.schedule_to(o.first_cs).size())
      << what;
  if (!c.symmetry) {
    EXPECT_EQ(probe.bad_schedule, ref.schedule_to(o.first_cs)) << what;
    // The run stops right after the first CS state in discovery order.
    EXPECT_EQ(probe.num_states, o.first_cs + 1) << what;
  }

  if (!agreed.set) {
    agreed = {true, res.stuck_schedule, probe.bad_schedule, probe.num_states,
              probe.num_edges};
  } else {
    EXPECT_EQ(res.stuck_schedule, agreed.stuck) << what;
    EXPECT_EQ(probe.bad_schedule, agreed.bad) << what;
    EXPECT_EQ(probe.num_states, agreed.bad_states) << what;
    EXPECT_EQ(probe.num_edges, agreed.bad_edges) << what;
  }
}

/// Every cell against one oracle. `deadlock` is the theory's verdict for
/// the configuration (Theorem 3.1 parity), pinned on the oracle itself.
template <class Machine>
void expect_all_cells_match(int m, const naming_assignment& naming,
                            const std::vector<Machine>& initial,
                            bool deadlock) {
  const oracle<Machine> o(m, naming, initial);
  ASSERT_TRUE(o.ref.complete());
  EXPECT_EQ(reference_explorer<Machine>::count(o.stuck) > 0, deadlock);
  EXPECT_EQ(reference_explorer<Machine>::count(
                o.ref.where(o.preds.two_in_cs)),
            0u);
  reported_schedules agreed[2];
  for (const cell& c : all_cells()) {
    typename explorer<Machine>::options opt;
    opt.workers = c.workers;
    opt.symmetry = c.symmetry;
    opt.compress_arena = c.compress;
    explorer<Machine> e(m, naming, initial, opt);
    expect_cell_matches(o, e, c, agreed[c.symmetry]);
  }
}

std::vector<anon_mutex> fig1(int m) {
  return {anon_mutex(1, m), anon_mutex(2, m)};
}

std::vector<fa_mutex> fa(int m, int n) {
  return std::vector<fa_mutex>(static_cast<std::size_t>(n), fa_mutex(m));
}

TEST(ReferenceExplorerTest, Fig1M3Identity) {
  expect_all_cells_match(3, identity_naming(2, 3), fig1(3), false);
}

TEST(ReferenceExplorerTest, Fig1M3Rotation) {
  expect_all_cells_match(3, naming_assignment::rotations(2, 3, 1), fig1(3),
                         false);
}

TEST(ReferenceExplorerTest, Fig1M4IdentityDeadlock) {
  expect_all_cells_match(4, identity_naming(2, 4), fig1(4), true);
}

TEST(ReferenceExplorerTest, Fig1M4RotationDeadlock) {
  expect_all_cells_match(4, naming_assignment::rotations(2, 4, 2), fig1(4),
                         true);
}

TEST(ReferenceExplorerTest, Fig1M5Identity) {
  expect_all_cells_match(5, identity_naming(2, 5), fig1(5), false);
}

TEST(ReferenceExplorerTest, Fig1M5RotationReferenceConfig) {
  // m = 5, stride 2: the 342,886-state reference config.
  expect_all_cells_match(5, naming_assignment::rotations(2, 5, 2), fig1(5),
                         false);
}

TEST(ReferenceExplorerTest, FullyAnonymousN2M4Deadlock) {
  expect_all_cells_match(4, identity_naming(2, 4), fa(4, 2), true);
}

TEST(ReferenceExplorerTest, FullyAnonymousN3M3) {
  expect_all_cells_match(3, identity_naming(3, 3), fa(3, 3), false);
}

}  // namespace
}  // namespace anoncoord
