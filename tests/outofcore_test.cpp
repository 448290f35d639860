// Out-of-core verification through the verify facade: spill-enabled runs of
// both BFS engines must be bit-identical to fully in-memory runs (verdict,
// state/edge counts, counterexample schedule), and the checkpointed sweep
// scheduler must reproduce a sequential sweep's weighted totals exactly —
// across worker counts, and across a kill-and-resume split of the classes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/anon_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/verify.hpp"
#include "util/check.hpp"
#include "util/permutation.hpp"

namespace anoncoord {
namespace {

std::vector<anon_mutex> machines(int m, int n) {
  std::vector<anon_mutex> out;
  for (int p = 0; p < n; ++p)
    out.emplace_back(static_cast<process_id>(p + 1), m);
  return out;
}

naming_assignment identity_naming(int n, int m) {
  return naming_assignment(
      std::vector<permutation>(static_cast<std::size_t>(n),
                               identity_permutation(m)));
}

const config_predicate<anon_mutex> two_in_cs =
    [](const std::vector<process_id>&, const std::vector<anon_mutex>& ps) {
      int c = 0;
      for (const auto& p : ps) c += p.in_critical_section() ? 1 : 0;
      return c >= 2;
    };

void expect_reports_identical(const verify_report& mem,
                              const verify_report& sp) {
  EXPECT_EQ(mem.complete, sp.complete);
  EXPECT_EQ(mem.violated, sp.violated);
  EXPECT_EQ(mem.states, sp.states);
  EXPECT_EQ(mem.edges, sp.edges);
  EXPECT_EQ(mem.dedup_hits, sp.dedup_hits);
  EXPECT_EQ(mem.violating_schedule, sp.violating_schedule);
}

// ---------------------------------------------------------------------------
// Spillable arenas under verify_config.
// ---------------------------------------------------------------------------

TEST(OutOfCoreVerifyTest, SpillMatchesInMemoryOnBothEngines) {
  // m = 5, n = 2 exhausts >100k states (~1 MB of compressed arena), so a
  // two-page resident budget forces real spilling on both back ends.
  const model_config<anon_mutex> cfg{5, identity_naming(2, 5), machines(5, 2)};
  for (const int workers : {1, 3}) {
    verify_options opt;
    opt.workers = workers;
    const auto mem = verify_config(cfg, two_in_cs, opt);
    ASSERT_TRUE(mem.complete);
    EXPECT_FALSE(mem.violated);
    EXPECT_EQ(mem.spill_pages, 0u);

    opt.spill_budget_bytes = 2 * byte_arena::kPageSize;
    const auto sp = verify_config(cfg, two_in_cs, opt);
    expect_reports_identical(mem, sp);
    EXPECT_GT(sp.spill_pages, 0u) << "workers=" << workers;
    EXPECT_EQ(sp.spill_bytes, sp.spill_pages * byte_arena::kPageSize);
  }
}

TEST(OutOfCoreVerifyTest, SpillMatchesInMemoryOnViolation) {
  // Three racers on two registers break mutual exclusion; the spill run must
  // report the exact same counterexample schedule. The budget is set below a
  // single page so any sealed page spills immediately.
  const model_config<anon_mutex> cfg{2, identity_naming(3, 2), machines(2, 3)};
  for (const int workers : {1, 2}) {
    verify_options opt;
    opt.workers = workers;
    const auto mem = verify_config(cfg, two_in_cs, opt);
    ASSERT_TRUE(mem.violated);
    opt.spill_budget_bytes = 1;
    const auto sp = verify_config(cfg, two_in_cs, opt);
    expect_reports_identical(mem, sp);
    EXPECT_FALSE(sp.violating_schedule.empty());
  }
}

// ---------------------------------------------------------------------------
// The scheduled sweep: worker pools, checkpoints, resume.
// ---------------------------------------------------------------------------

void expect_sweeps_identical(const naming_sweep_report& a,
                             const naming_sweep_report& b) {
  EXPECT_EQ(a.configs, b.configs);
  EXPECT_EQ(a.violated, b.violated);
  EXPECT_EQ(a.incomplete, b.incomplete);
  EXPECT_EQ(a.total_states, b.total_states);
  EXPECT_EQ(a.full_configs, b.full_configs);
  EXPECT_EQ(a.full_violated, b.full_violated);
  EXPECT_EQ(a.verdicts, b.verdicts);
}

TEST(SweepSchedulerTest, WorkerPoolMatchesSequentialSweep) {
  verify_options opt;
  opt.max_states = 500'000;
  const auto seq = verify_naming_sweep(2, machines(2, 3), two_in_cs, true, opt);
  ASSERT_EQ(seq.configs, 4u);
  ASSERT_GT(seq.violated, 0u);
  for (const int workers : {2, 4}) {
    sweep_schedule_options sched;
    sched.workers = workers;
    const auto par = verify_naming_sweep(2, machines(2, 3), two_in_cs, true,
                                         opt, false, sched);
    expect_sweeps_identical(seq, par);
    EXPECT_EQ(par.resumed_classes, 0u);
    EXPECT_EQ(par.pending_classes, 0u);
  }
}

TEST(SweepSchedulerTest, PerJobSpillBudgetPreservesSweepTotals) {
  verify_options opt;
  opt.max_states = 500'000;
  const auto mem = verify_naming_sweep(4, machines(4, 2), two_in_cs, true, opt);
  verify_options sp_opt = opt;
  sp_opt.spill_budget_bytes = 1;  // every sealed page of every job spills
  sweep_schedule_options sched;
  sched.workers = 3;
  const auto sp = verify_naming_sweep(4, machines(4, 2), two_in_cs, true,
                                      sp_opt, false, sched);
  expect_sweeps_identical(mem, sp);
}

TEST(SweepSchedulerTest, CheckpointResumeMatchesUninterrupted) {
  const std::string ckpt =
      ::testing::TempDir() + "anoncoord-sweep-resume-test.ckpt";
  std::remove(ckpt.c_str());
  verify_options opt;
  opt.max_states = 500'000;
  // 24 orbit classes for m = 4, n = 2: a real multi-class sweep.
  const auto whole = verify_naming_sweep(4, machines(4, 2), two_in_cs, true,
                                         opt);
  ASSERT_EQ(whole.configs, 24u);

  // "Kill" the run after 7 classes: max_classes is the deterministic stand-in
  // for an interrupt — the journal holds exactly the completed classes.
  sweep_schedule_options first;
  first.checkpoint_path = ckpt;
  first.max_classes = 7;
  const auto partial = verify_naming_sweep(4, machines(4, 2), two_in_cs, true,
                                           opt, false, first);
  EXPECT_EQ(partial.resumed_classes, 0u);
  EXPECT_EQ(partial.pending_classes, 24u - 7u);
  EXPECT_EQ(partial.configs, 7u);

  // A torn trailing record (the process died mid-write) must be skipped, not
  // trip up the resume.
  {
    std::ofstream torn(ckpt, std::ios::app);
    torn << "class=9 vio";  // no newline, truncated mid-field
  }

  // Resume on a worker pool: 7 classes load from the journal, the remaining
  // 17 are verified, and the weighted totals match the uninterrupted run.
  sweep_schedule_options resume;
  resume.checkpoint_path = ckpt;
  resume.workers = 3;
  const auto resumed = verify_naming_sweep(4, machines(4, 2), two_in_cs, true,
                                           opt, false, resume);
  EXPECT_EQ(resumed.resumed_classes, 7u);
  EXPECT_EQ(resumed.pending_classes, 0u);
  expect_sweeps_identical(whole, resumed);

  // A third run is a pure replay: everything loads, nothing is verified.
  const auto replay = verify_naming_sweep(4, machines(4, 2), two_in_cs, true,
                                          opt, false, resume);
  EXPECT_EQ(replay.resumed_classes, 24u);
  expect_sweeps_identical(whole, replay);

  std::remove(ckpt.c_str());
}

TEST(SweepSchedulerTest, CheckpointHeaderMismatchRejected) {
  const std::string ckpt =
      ::testing::TempDir() + "anoncoord-sweep-mismatch-test.ckpt";
  std::remove(ckpt.c_str());
  verify_options opt;
  opt.max_states = 100'000;
  sweep_schedule_options sched;
  sched.checkpoint_path = ckpt;
  const auto ok =
      verify_naming_sweep(2, machines(2, 2), two_in_cs, true, opt, false,
                          sched);
  EXPECT_GT(ok.configs, 0u);
  // Same path, different sweep shape: the header guard must refuse to merge.
  EXPECT_THROW(verify_naming_sweep(2, machines(2, 3), two_in_cs, true, opt,
                                   false, sched),
               precondition_error);
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace anoncoord
