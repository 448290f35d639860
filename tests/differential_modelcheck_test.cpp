// Differential testing of the verification engines.
//
// For randomized terminating configurations (machines running small random
// register programs under random namings) the BFS explorer at one worker and
// at several (two different seen-table back ends) and the systematic tester
// — the latter run exhaustively, with and without sleep-set reduction — must
// return IDENTICAL safety verdicts, and every reported violating schedule
// must replay to the same violation on a fresh simulator. For the
// (non-terminating) Fig. 1 mutex the systematic tester is depth-bounded, so
// the engines are checked for consistency on the mutual-exclusion verdict
// instead.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/anon_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/mutex_check.hpp"
#include "modelcheck/systematic.hpp"
#include "modelcheck/verify.hpp"
#include "runtime/schedule.hpp"
#include "runtime/simulator.hpp"
#include "util/rng.hpp"

namespace anoncoord {
namespace {

// ---------------------------------------------------------------------------
// A terminating machine running a fixed random program of register ops.
// Written values depend on the last value read, so outcomes genuinely vary
// with the interleaving.
// ---------------------------------------------------------------------------

struct scribble_op {
  bool is_write = false;
  int reg = 0;
  std::uint64_t value = 0;

  friend bool operator==(const scribble_op&, const scribble_op&) = default;
};

struct scribbler {
  using value_type = std::uint64_t;

  std::vector<scribble_op> program;
  int pc = 0;
  std::uint64_t last_read = 0;

  op_desc peek() const {
    if (pc >= static_cast<int>(program.size())) return {op_kind::none, -1};
    const auto& op = program[static_cast<std::size_t>(pc)];
    return {op.is_write ? op_kind::write : op_kind::read, op.reg};
  }
  template <class Mem>
  void step(Mem& mem) {
    if (pc >= static_cast<int>(program.size())) return;
    const auto& op = program[static_cast<std::size_t>(pc)];
    if (op.is_write) {
      mem.write(op.reg, op.value + (last_read & 3));
    } else {
      last_read = mem.read(op.reg);
    }
    ++pc;
  }
  bool done() const { return pc >= static_cast<int>(program.size()); }
  friend bool operator==(const scribbler&, const scribbler&) = default;
  std::size_t hash() const {
    std::size_t seed = program.size();
    hash_combine(seed, pc);
    hash_combine(seed, last_read);
    return seed;
  }
};

struct random_case {
  int registers = 0;
  naming_assignment naming;
  std::vector<scribbler> machines;
  int total_ops = 0;
  int target_reg = 0;
  std::uint64_t target_low_bits = 0;
};

random_case make_case(std::uint64_t seed) {
  xoshiro256 rng(seed);
  random_case c;
  const int n = 2 + static_cast<int>(rng.below(2));       // 2-3 processes
  c.registers = 2 + static_cast<int>(rng.below(2));       // 2-3 registers
  c.naming = naming_assignment::random(n, c.registers, seed ^ 0xabcdef);
  for (int p = 0; p < n; ++p) {
    scribbler m;
    const int len = 3 + static_cast<int>(rng.below(2));   // 3-4 ops
    for (int k = 0; k < len; ++k) {
      scribble_op op;
      op.is_write = rng.below(2) == 0;
      op.reg = static_cast<int>(rng.below(static_cast<std::uint64_t>(c.registers)));
      op.value = (static_cast<std::uint64_t>(p + 1) << 4) + rng.below(8);
      m.program.push_back(op);
    }
    c.total_ops += len;
    c.machines.push_back(std::move(m));
  }
  c.target_reg = static_cast<int>(rng.below(static_cast<std::uint64_t>(c.registers)));
  c.target_low_bits = rng.below(4);
  return c;
}

bool case_bad(const random_case& c, const std::vector<std::uint64_t>& regs,
              const std::vector<scribbler>& procs) {
  for (const auto& p : procs)
    if (!p.done()) return false;
  return (regs[static_cast<std::size_t>(c.target_reg)] & 3) ==
         c.target_low_bits;
}

/// Replay a schedule on a fresh simulator and evaluate the bad predicate on
/// the resulting configuration.
bool replays_to_violation(const random_case& c,
                          const std::vector<int>& schedule) {
  simulator<scribbler> sim(c.registers, c.naming, c.machines);
  scripted_schedule script(schedule);
  sim.run(script, schedule.size(), {});
  std::vector<std::uint64_t> regs;
  for (int r = 0; r < c.registers; ++r) regs.push_back(sim.memory().peek(r));
  std::vector<scribbler> procs;
  for (int p = 0; p < sim.process_count(); ++p) procs.push_back(sim.machine(p));
  return case_bad(c, regs, procs);
}

TEST(DifferentialModelCheckTest, RandomConfigsAllEnginesAgree) {
  int violated_cases = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const random_case c = make_case(seed);
    SCOPED_TRACE("seed=" + std::to_string(seed));

    model_config<scribbler> cfg{c.registers, c.naming, c.machines};
    const config_predicate<scribbler> bad =
        [&c](const std::vector<std::uint64_t>& regs,
             const std::vector<scribbler>& procs) {
          return case_bad(c, regs, procs);
        };

    verify_options bfs_opt;
    bfs_opt.engine = verify_engine::bfs;
    const auto bfs = verify_config(cfg, bad, bfs_opt);
    // BFS engines stop early on a violation (complete stays false) and
    // otherwise must exhaust the tiny state space.
    ASSERT_TRUE(bfs.complete || bfs.violated);

    verify_options par_opt;
    par_opt.workers = 3;
    const auto par = verify_config(cfg, bad, par_opt);
    ASSERT_TRUE(par.complete || par.violated);
    EXPECT_EQ(bfs.complete, par.complete);

    // Exhaustive schedule enumeration: deep and preemption-unbounded, so
    // the depth bound covers every maximal schedule.
    verify_options sys_opt;
    sys_opt.engine = verify_engine::systematic;
    sys_opt.max_steps = c.total_ops + 1;
    sys_opt.max_preemptions = c.total_ops + 1;
    const auto sys = verify_config(cfg, bad, sys_opt);

    verify_options sleep_opt = sys_opt;
    sleep_opt.engine = verify_engine::systematic_sleep;
    const auto sleep = verify_config(cfg, bad, sleep_opt);

    // Identical safety verdicts across all four engine modes.
    EXPECT_EQ(bfs.violated, par.violated);
    EXPECT_EQ(bfs.violated, sys.violated);
    EXPECT_EQ(bfs.violated, sleep.violated);
    // The two BFS back ends agree exactly, not just on the verdict: both
    // stop right after the first violating state in discovery order.
    EXPECT_EQ(bfs.states, par.states);
    EXPECT_EQ(bfs.violating_schedule, par.violating_schedule);
    // Sleep sets only ever prune.
    EXPECT_LE(sleep.schedules, sys.schedules);
    EXPECT_LE(sleep.states, sys.states);

    // Every reported counterexample replays to the same violation.
    if (bfs.violated) {
      ++violated_cases;
      EXPECT_TRUE(replays_to_violation(c, bfs.violating_schedule));
      EXPECT_TRUE(replays_to_violation(c, par.violating_schedule));
      EXPECT_TRUE(replays_to_violation(c, sys.violating_schedule));
      EXPECT_TRUE(replays_to_violation(c, sleep.violating_schedule));
    }
  }
  // The seed family must exercise both outcomes, or the test is vacuous.
  EXPECT_GT(violated_cases, 0);
  EXPECT_LT(violated_cases, 12);
}

// ---------------------------------------------------------------------------
// Fig. 1 mutex: the systematic tester is depth-bounded (the machines never
// terminate), so the engines are compared on the ME verdict they can both
// decide: no violation may be reported by anyone, with or without reduction.
// ---------------------------------------------------------------------------

TEST(DifferentialModelCheckTest, MutexMeVerdictConsistentAcrossEngines) {
  for (int m = 3; m <= 5; ++m) {
    for (int stride = 1; stride < m; ++stride) {
      SCOPED_TRACE("m=" + std::to_string(m) + " stride=" +
                   std::to_string(stride));
      naming_assignment naming(
          {identity_permutation(m), rotation_permutation(m, stride)});
      std::vector<anon_mutex> machines;
      machines.emplace_back(1, m);
      machines.emplace_back(2, m);
      model_config<anon_mutex> cfg{m, naming, machines};
      const config_predicate<anon_mutex> two_in_cs =
          [](const std::vector<process_id>&,
             const std::vector<anon_mutex>& procs) {
            int c = 0;
            for (const auto& p : procs)
              if (p.in_critical_section()) ++c;
            return c >= 2;
          };

      verify_options par_opt;
      par_opt.workers = 2;
      par_opt.max_states = 5'000'000;
      const auto par = verify_config(cfg, two_in_cs, par_opt);
      ASSERT_TRUE(par.complete);
      EXPECT_FALSE(par.violated) << "Fig. 1 never breaks ME for 2 processes";

      for (bool sleep : {false, true}) {
        verify_options sys_opt;
        sys_opt.engine =
            sleep ? verify_engine::systematic_sleep : verify_engine::systematic;
        sys_opt.max_steps = 20;
        sys_opt.max_preemptions = 2;
        const auto sys = verify_config(cfg, two_in_cs, sys_opt);
        EXPECT_FALSE(sys.violated) << "sleep=" << sleep;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Compressed row arena vs verbatim storage: the encoding is an internal
// representation choice, so every observable result — verdicts, state and
// edge counts, dedup hits, counterexamples — must be bit-identical.
// ---------------------------------------------------------------------------

TEST(DifferentialModelCheckTest, CompressedArenaMatchesVerbatimOnRandomCases) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const random_case c = make_case(seed);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto bad = [&c](const global_state<scribbler>& s) {
      return case_bad(c, s.regs, s.procs);
    };

    explorer<scribbler>::options verb_opt;
    verb_opt.compress_arena = false;
    explorer<scribbler> verb(c.registers, c.naming, c.machines, verb_opt);
    const auto vres = verb.explore(bad);

    explorer<scribbler>::options comp_opt;
    comp_opt.compress_arena = true;
    explorer<scribbler> comp(c.registers, c.naming, c.machines, comp_opt);
    const auto cres = comp.explore(bad);

    EXPECT_EQ(cres.complete, vres.complete);
    EXPECT_EQ(cres.num_states, vres.num_states);
    EXPECT_EQ(cres.num_edges, vres.num_edges);
    EXPECT_EQ(cres.dedup_hits, vres.dedup_hits);
    EXPECT_EQ(cres.bad_state, vres.bad_state);
    EXPECT_EQ(cres.bad_schedule, vres.bad_schedule);

    explorer<scribbler>::options par_opt;
    par_opt.workers = 3;
    par_opt.compress_arena = true;
    explorer<scribbler> par(c.registers, c.naming, c.machines, par_opt);
    const auto pres = par.explore(bad);
    EXPECT_EQ(pres.complete, vres.complete);
    EXPECT_EQ(pres.bad_schedule, vres.bad_schedule);
    EXPECT_EQ(pres.num_states, vres.num_states);
  }
}

TEST(DifferentialModelCheckTest, CompressedArenaMatchesVerbatimOnMutex) {
  // m = 4 at stride 2 deadlocks (Theorem 3.1's even-m witness), so this
  // drives the counterexample reconstructor through the delta-decode path;
  // m = 3 at stride 1 covers the all-OK verdict.
  const struct {
    int m;
    int stride;
  } cases[] = {{4, 2}, {3, 1}};
  for (const auto& tc : cases) {
    SCOPED_TRACE("m=" + std::to_string(tc.m) + " stride=" +
                 std::to_string(tc.stride));
    const naming_assignment naming(
        {identity_permutation(tc.m), rotation_permutation(tc.m, tc.stride)});
    const auto ms = detail::mutex_machines(tc.m, naming, {1, 2});

    explorer<anon_mutex>::options verb_opt;
    verb_opt.compress_arena = false;
    explorer<anon_mutex> verb(tc.m, naming, ms, verb_opt);
    const auto vres = detail::run_mutex_check(verb);
    const std::uint64_t verb_bytes = verb.stored_row_bytes();

    explorer<anon_mutex>::options comp_opt;
    comp_opt.compress_arena = true;
    explorer<anon_mutex> comp(tc.m, naming, ms, comp_opt);
    const auto cres = detail::run_mutex_check(comp);

    EXPECT_EQ(cres.verdict(), vres.verdict());
    EXPECT_EQ(cres.num_states, vres.num_states);
    EXPECT_EQ(cres.stuck_states, vres.stuck_states);
    EXPECT_EQ(cres.counterexample, vres.counterexample);
    // The compressed arena must actually shrink the footprint, with real
    // delta rows between real keyframes.
    EXPECT_LT(comp.stored_row_bytes(), verb_bytes);
    EXPECT_GT(comp.keyframe_rows(), 0u);
    EXPECT_LT(comp.keyframe_rows(), cres.num_states);

    for (int workers : {2, 4}) {
      explorer<anon_mutex>::options par_opt;
      par_opt.workers = workers;
      par_opt.compress_arena = true;
      explorer<anon_mutex> par(tc.m, naming, ms, par_opt);
      const auto pres = detail::run_mutex_check(par);
      EXPECT_EQ(pres.verdict(), vres.verdict()) << "workers=" << workers;
      EXPECT_EQ(pres.num_states, vres.num_states) << "workers=" << workers;
      EXPECT_EQ(pres.counterexample, vres.counterexample)
          << "workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace anoncoord
