// Worker-count invariance of the BFS explorer: the workers = 1 back end
// (group-probing index) and the workers > 1 back end (CAS table + level
// merge) must report identical verdicts, state and edge counts, capped-run
// stopping points and counterexample schedules, run after run — the tests
// that catch seen-table races and nondeterministic merges.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mem/payloads.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/mutex_check.hpp"
#include "util/permutation.hpp"

namespace anoncoord {
namespace {

std::string trace(int m, int stride, int workers) {
  return "m=" + std::to_string(m) + " stride=" + std::to_string(stride) +
         " workers=" + std::to_string(workers);
}

TEST(ExplorerWorkerCountTest, IdenticalAtEveryWorkerCountOnMutexConfigs) {
  struct config {
    int m;
    int stride;
  };
  for (const config c : {config{3, 1}, config{3, 2}, config{4, 2}}) {
    const naming_assignment naming(
        {identity_permutation(c.m), rotation_permutation(c.m, c.stride)});
    const auto one = check_anon_mutex(c.m, naming, {1, 2});
    for (int workers : {2, 4}) {
      const auto res = check_anon_mutex(c.m, naming, {1, 2}, 2'000'000,
                                        /*symmetry=*/false, workers);
      SCOPED_TRACE(trace(c.m, c.stride, workers));
      EXPECT_EQ(res.complete, one.complete);
      EXPECT_EQ(res.mutual_exclusion, one.mutual_exclusion);
      EXPECT_EQ(res.progress, one.progress);
      EXPECT_EQ(res.num_states, one.num_states);
      EXPECT_EQ(res.stuck_states, one.stuck_states);
      EXPECT_EQ(res.counterexample, one.counterexample);
    }
  }
}

TEST(ExplorerWorkerCountTest, EdgeAndDedupCountsIdenticalAtEveryWorkerCount) {
  const naming_assignment naming(
      {identity_permutation(3), rotation_permutation(3, 1)});
  const std::vector<anon_mutex> machines = {anon_mutex(1, 3),
                                            anon_mutex(2, 3)};
  explorer<anon_mutex> one(3, naming, machines);
  const auto ref = one.explore();
  ASSERT_TRUE(ref.complete);
  // In a BFS over a deduplicated graph every edge either discovers a state
  // or is a dedup hit; the root is the only undiscovered-by-edge state.
  EXPECT_EQ(ref.num_edges, ref.num_states - 1 + ref.dedup_hits);
  for (int workers : {1, 3}) {
    for (bool record : {true, false}) {
      explorer<anon_mutex>::options opt;
      opt.workers = workers;
      opt.record_edges = record;
      explorer<anon_mutex> e(3, naming, machines, opt);
      const auto res = e.explore();
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " record_edges=" + std::to_string(record));
      ASSERT_TRUE(res.complete);
      EXPECT_EQ(res.num_states, ref.num_states);
      // Counted whether or not the edges are stored.
      EXPECT_EQ(res.num_edges, ref.num_edges);
      EXPECT_EQ(res.dedup_hits, ref.dedup_hits);
    }
  }
}

TEST(ExplorerWorkerCountTest, MaxStatesCapIdenticalAtEveryWorkerCount) {
  // The cap stops the run before the first parent reached with
  // num_states >= max_states, at every worker count — mid-level, where a
  // per-level check would overshoot by the rest of the level — and counts
  // only the successors generated up to that point. "Someone in
  // the CS" as the bad predicate makes the larger caps stop on a violation
  // instead, which must be the same one at every worker count.
  const naming_assignment naming(
      {identity_permutation(5), rotation_permutation(5, 2)});
  const std::vector<anon_mutex> machines = {anon_mutex(1, 5),
                                            anon_mutex(2, 5)};
  const auto in_cs = [](const global_state<anon_mutex>& s) {
    return mutex_cs_count(s) >= 1;
  };
  for (std::uint64_t cap : {1u, 2u, 7u, 50u, 333u, 1000u, 5000u}) {
    explorer<anon_mutex>::options opt;
    opt.max_states = cap;
    explorer<anon_mutex> one(5, naming, machines, opt);
    const auto ref = one.explore(in_cs);
    for (int workers : {2, 4, 8}) {
      opt.workers = workers;
      explorer<anon_mutex> e(5, naming, machines, opt);
      const auto res = e.explore(in_cs);
      SCOPED_TRACE("cap=" + std::to_string(cap) +
                   " workers=" + std::to_string(workers));
      EXPECT_EQ(res.complete, ref.complete);
      EXPECT_EQ(res.num_states, ref.num_states);
      EXPECT_EQ(res.num_edges, ref.num_edges);
      EXPECT_EQ(res.dedup_hits, ref.dedup_hits);
      EXPECT_EQ(res.safety_violated(), ref.safety_violated());
      EXPECT_EQ(res.bad_schedule, ref.bad_schedule);
      for (std::uint64_t i = 0; i < res.num_states; ++i)
        ASSERT_TRUE(e.state(i) == one.state(i)) << "state " << i;
    }
  }
}

TEST(ExplorerWorkerCountTest, DeterministicAcrossRunsAndWorkerCounts) {
  // m=4 at stride 2 deadlocks (counterexample schedule exercised), m=3 at
  // stride 1 verifies clean — both complete quickly.
  struct config {
    int m;
    int stride;
  };
  for (const config c : {config{4, 2}, config{3, 1}}) {
    const naming_assignment naming(
        {identity_permutation(c.m), rotation_permutation(c.m, c.stride)});
    const auto reference = check_anon_mutex(c.m, naming, {1, 2});
    for (int workers : {1, 2, 8}) {
      for (int rep = 0; rep < 10; ++rep) {
        const auto res = check_anon_mutex(c.m, naming, {1, 2}, 2'000'000,
                                          /*symmetry=*/false, workers);
        SCOPED_TRACE(trace(c.m, c.stride, workers) +
                     " rep=" + std::to_string(rep));
        ASSERT_EQ(res.complete, reference.complete);
        ASSERT_EQ(res.num_states, reference.num_states);
        ASSERT_EQ(res.mutual_exclusion, reference.mutual_exclusion);
        ASSERT_EQ(res.progress, reference.progress);
        ASSERT_EQ(res.stuck_states, reference.stuck_states);
        ASSERT_EQ(res.counterexample, reference.counterexample);
      }
    }
  }
}

}  // namespace
}  // namespace anoncoord
