// Phase accounting of the explorer's pipeline: both stage-4 back ends fill
// the expand/canonicalize/probe/encode breakdown, the workers = 1
// group-probing seen table fills the probe-group counters, and
// verify_config() surfaces the same numbers in its report.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/anon_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/mutex_check.hpp"
#include "modelcheck/verify.hpp"

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

bool two_in_cs(const global_state<anon_mutex>& s) {
  return mutex_cs_count(s) >= 2;
}

TEST(ExplorerPhaseStatsTest, PhaseCountersFilled) {
  explorer<anon_mutex>::options opt;
  opt.max_states = 2'000'000;
  opt.symmetry = true;
  explorer<anon_mutex> e(3, identity_naming(2, 3), machines(3, 2), opt);
  const auto res = e.explore(two_in_cs);
  EXPECT_TRUE(res.complete);
  const explore_phase_stats& ph = e.phase_counters();
  EXPECT_GT(ph.expand_ns, 0u);
  EXPECT_GT(ph.canonicalize_ns, 0u);
  EXPECT_GT(ph.probe_ns, 0u);
  EXPECT_GT(ph.encode_ns, 0u);
  EXPECT_GT(ph.probe_groups_scanned, 0u);
  EXPECT_GE(ph.probe_max_group_chain, 1u);
}

TEST(ExplorerPhaseStatsTest, VerifyReportSurfacesPhaseBreakdown) {
  verify_options vopt;
  vopt.max_states = 2'000'000;
  vopt.symmetry = true;
  const model_config<anon_mutex> cfg{3, identity_naming(2, 3),
                                     machines(3, 2)};
  const config_predicate<anon_mutex> bad =
      [](const std::vector<anon_mutex::value_type>&,
         const std::vector<anon_mutex>& procs) {
        int c = 0;
        for (const auto& p : procs)
          if (p.in_critical_section()) ++c;
        return c >= 2;
      };

  for (int workers : {1, 2}) {
    vopt.workers = workers;
    const auto rep = verify_config(cfg, bad, vopt);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    EXPECT_TRUE(rep.ok());
    EXPECT_GT(rep.edges, 0u);  // counted though verify_config stores none
    EXPECT_GT(rep.expand_ns, 0u);
    EXPECT_GT(rep.canonicalize_ns, 0u);
    EXPECT_GT(rep.probe_ns, 0u);
    EXPECT_GT(rep.encode_ns, 0u);
    // Only the workers = 1 seen table probes tag groups.
    if (workers == 1) {
      EXPECT_GT(rep.probe_groups_scanned, 0u);
    } else {
      EXPECT_EQ(rep.probe_groups_scanned, 0u);
    }
  }
}

}  // namespace
}  // namespace anoncoord
