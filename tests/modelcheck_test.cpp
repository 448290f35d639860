// Exhaustive model-checking tests: the executable form of Theorems 3.1
// (both directions, for concrete m), 4.1/4.2 and 5.2.
//
// These explore EVERY interleaving of the configured processes, so they are
// strictly stronger than the schedule sweeps for the configurations covered.
#include <gtest/gtest.h>

#include <tuple>

#include "mem/payloads.hpp"
#include "modelcheck/agreement_check.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/mutex_check.hpp"
#include "runtime/schedule.hpp"
#include "runtime/simulator.hpp"
#include "util/permutation.hpp"

namespace anoncoord {
namespace {

// ---------------------------------------------------------------------------
// Explorer mechanics on a tiny machine.
// ---------------------------------------------------------------------------

/// A 2-phase toy machine: writes its id to register 0, then stops.
struct toy_machine {
  using value_type = std::uint64_t;
  std::uint64_t id = 0;
  int phase = 0;

  op_desc peek() const {
    return phase == 0 ? op_desc{op_kind::write, 0} : op_desc{op_kind::none, -1};
  }
  template <class Mem>
  void step(Mem& mem) {
    if (phase == 0) {
      mem.write(0, id);
      phase = 1;
    }
  }
  bool done() const { return phase == 1; }
  friend bool operator==(const toy_machine&, const toy_machine&) = default;
  std::size_t hash() const { return id * 31 + static_cast<std::size_t>(phase); }
};

TEST(ExplorerTest, EnumeratesInterleavingsExactly) {
  // Two one-write machines: states are {fresh, after-1, after-2, after-both
  // in either order} — register ends as the last writer, so 2 final states.
  for (int workers : {1, 2, 3}) {
    explorer<toy_machine>::options opt;
    opt.workers = workers;
    explorer<toy_machine> e(1, naming_assignment::identity(2, 1),
                            {toy_machine{1, 0}, toy_machine{2, 0}}, opt);
    auto res = e.explore();
    EXPECT_TRUE(res.complete) << "workers=" << workers;
    // init, p0-moved, p1-moved, p0p1, p1p0  => 5 distinct states.
    EXPECT_EQ(res.num_states, 5u) << "workers=" << workers;
  }
}

TEST(ExplorerTest, FindsBadStateWithSchedule) {
  for (int workers : {1, 2}) {
    explorer<toy_machine>::options opt;
    opt.workers = workers;
    explorer<toy_machine> e(1, naming_assignment::identity(2, 1),
                            {toy_machine{1, 0}, toy_machine{2, 0}}, opt);
    auto res = e.explore([](const global_state<toy_machine>& s) {
      return s.regs[0] == 2;  // "bad": register holds 2
    });
    ASSERT_TRUE(res.safety_violated()) << "workers=" << workers;
    // The returned schedule, replayed, must produce the bad state.
    EXPECT_EQ(res.bad_schedule, std::vector<int>{1}) << "workers=" << workers;
    // The run stops right after the violating state: root, then p0's
    // successor, then p1's (the bad one).
    EXPECT_EQ(res.num_states, 3u) << "workers=" << workers;
  }
}

TEST(ExplorerTest, MaxStatesCapsExploration) {
  for (int workers : {1, 2}) {
    explorer<toy_machine>::options opt;
    opt.workers = workers;
    opt.max_states = 2;
    explorer<toy_machine> e(1, naming_assignment::identity(2, 1),
                            {toy_machine{1, 0}, toy_machine{2, 0}}, opt);
    auto res = e.explore();
    EXPECT_FALSE(res.complete) << "workers=" << workers;
    // The cap is checked before each parent's successors go in: the root's
    // two successors land, the next parent stops the run.
    EXPECT_EQ(res.num_states, 3u) << "workers=" << workers;
  }
}

// The parallel_explorer name (kept for callers that still use it) must build
// and run as the same engine at every worker count.
TEST(ParallelExplorerTest, EnumeratesInterleavingsExactly) {
  for (int workers : {1, 2, 3}) {
    parallel_explorer<toy_machine>::options opt;
    opt.workers = workers;
    parallel_explorer<toy_machine> e(1, naming_assignment::identity(2, 1),
                                     {toy_machine{1, 0}, toy_machine{2, 0}},
                                     opt);
    auto res = e.explore();
    EXPECT_TRUE(res.complete) << "workers=" << workers;
    EXPECT_EQ(res.num_states, 5u) << "workers=" << workers;
  }
}

TEST(ParallelExplorerTest, FindsBadStateWithSchedule) {
  for (int workers : {1, 2}) {
    parallel_explorer<toy_machine>::options opt;
    opt.workers = workers;
    parallel_explorer<toy_machine> e(1, naming_assignment::identity(2, 1),
                                     {toy_machine{1, 0}, toy_machine{2, 0}},
                                     opt);
    auto res = e.explore([](const global_state<toy_machine>& s) {
      return s.regs[0] == 2;  // "bad": register holds 2
    });
    ASSERT_TRUE(res.safety_violated()) << "workers=" << workers;
    EXPECT_EQ(res.bad_schedule, std::vector<int>{1}) << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Theorem 3.1, positive direction: odd m => ME + progress for every naming.
// ---------------------------------------------------------------------------

TEST(MutexModelCheckTest, M3AllNamingPairsAreCorrect) {
  // With two processes, fixing process 0's numbering to the identity is
  // fully general; enumerate all 3! numberings for process 1.
  for (const auto& perm : all_permutations(3)) {
    auto res = check_anon_mutex_pair(3, perm);
    EXPECT_TRUE(res.ok()) << "perm [" << perm[0] << perm[1] << perm[2]
                          << "]: " << res.verdict()
                          << " states=" << res.num_states;
  }
}

TEST(MutexModelCheckTest, M5AllRotationPairsAreCorrect) {
  for (const auto& perm : all_rotations(5)) {
    auto res = check_anon_mutex_pair(5, perm, 5'000'000);
    EXPECT_TRUE(res.ok()) << "rotation [" << perm[0] << "]: " << res.verdict()
                          << " states=" << res.num_states;
  }
}

// ---------------------------------------------------------------------------
// Theorem 3.1, negative direction: even m admits a naming with no progress.
// ---------------------------------------------------------------------------

TEST(MutexModelCheckTest, M2OppositeOrderDeadlocks) {
  auto res = check_anon_mutex_pair(2, rotation_permutation(2, 1));
  EXPECT_TRUE(res.complete);
  EXPECT_TRUE(res.mutual_exclusion) << "ME never breaks for Fig. 1";
  EXPECT_FALSE(res.progress) << "m=2 at offset 1 must deadlock";
  EXPECT_GT(res.stuck_states, 0u);
  EXPECT_FALSE(res.counterexample.empty());
}

TEST(MutexModelCheckTest, M4HalfRotationDeadlocks) {
  auto res = check_anon_mutex_pair(4, rotation_permutation(4, 2));
  EXPECT_TRUE(res.complete);
  EXPECT_TRUE(res.mutual_exclusion);
  EXPECT_FALSE(res.progress) << "m=4 at offset 2 must deadlock";
  EXPECT_GT(res.stuck_states, 0u);
}

TEST(MutexModelCheckTest, EvenOddTableMatchesTheorem31) {
  // The E1 table in miniature: for each m, does there EXIST a rotation pair
  // with a progress violation? Theorem 3.1 says yes iff m is even.
  for (int m = 2; m <= 5; ++m) {
    bool any_violation = false;
    for (int s = 1; s < m; ++s) {
      auto res = check_anon_mutex_pair(m, rotation_permutation(m, s),
                                       5'000'000);
      ASSERT_TRUE(res.complete) << "m=" << m << " s=" << s;
      EXPECT_TRUE(res.mutual_exclusion);
      if (!res.progress) any_violation = true;
    }
    EXPECT_EQ(any_violation, m % 2 == 0) << "m=" << m;
  }
}

TEST(MutexModelCheckTest, IdenticalNumberingsDegradeEvenM) {
  // Same numbering for both processes (offset 0): with an odd m the
  // algorithm still works.
  auto res = check_anon_mutex_pair(3, identity_permutation(3));
  EXPECT_TRUE(res.ok()) << res.verdict();
}

TEST(MutexModelCheckTest, CounterexampleScheduleReplays) {
  // Replay the extracted deadlock schedule in the simulator and confirm it
  // lands in a state from which solo runs cannot reach the CS.
  auto res = check_anon_mutex_pair(4, rotation_permutation(4, 2));
  ASSERT_FALSE(res.progress);
  ASSERT_FALSE(res.counterexample.empty());

  naming_assignment naming(
      {identity_permutation(4), rotation_permutation(4, 2)});
  std::vector<anon_mutex> machines;
  machines.emplace_back(1, 4);
  machines.emplace_back(2, 4);
  simulator<anon_mutex> sim(4, naming, std::move(machines));
  scripted_schedule script(res.counterexample);
  sim.run(script, 1'000'000, {});
  // From the stuck state, no continuation enters the CS; try both solo.
  for (int p = 0; p < 2; ++p) {
    sim.run_solo(p, 20000,
                 [](const anon_mutex& mc) { return mc.in_critical_section(); });
    EXPECT_FALSE(sim.machine(p).in_critical_section());
  }
}

// ---------------------------------------------------------------------------
// Fig. 2 consensus: exhaustive agreement/validity for n = 2.
// ---------------------------------------------------------------------------

class ConsensusModelCheck
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t,
                                                 std::uint64_t>> {};

TEST_P(ConsensusModelCheck, AgreementValidityAndTerminationPotential) {
  const auto [shift, in0, in1] = GetParam();
  naming_assignment naming(
      {identity_permutation(3), rotation_permutation(3, shift)});
  auto res = check_anon_consensus(2, naming, {{1, in0}, {2, in1}});
  EXPECT_TRUE(res.ok()) << res.verdict() << " states=" << res.num_states;
}

INSTANTIATE_TEST_SUITE_P(
    ShiftXInputs, ConsensusModelCheck,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1u, 2u),
                       ::testing::Values(1u, 2u)),
    [](const ::testing::TestParamInfo<ConsensusModelCheck::ParamType>& info) {
      return "shift" + std::to_string(std::get<0>(info.param)) + "_in" +
             std::to_string(std::get<1>(info.param)) +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Fig. 3 renaming: exhaustive uniqueness/perfectness for n = 2.
// ---------------------------------------------------------------------------

TEST(RenamingModelCheck, TwoProcessesAllRotations) {
  for (int shift = 0; shift < 3; ++shift) {
    naming_assignment naming(
        {identity_permutation(3), rotation_permutation(3, shift)});
    auto res = check_anon_renaming(2, naming, {7, 9});
    EXPECT_TRUE(res.ok()) << "shift=" << shift << ": " << res.verdict()
                          << " states=" << res.num_states;
  }
}

TEST(RenamingModelCheck, TwoProcessesNonRotationNaming) {
  naming_assignment naming({identity_permutation(3), permutation{1, 0, 2}});
  auto res = check_anon_renaming(2, naming, {7, 9});
  EXPECT_TRUE(res.ok()) << res.verdict() << " states=" << res.num_states;
}

}  // namespace
}  // namespace anoncoord
