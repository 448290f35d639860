// verdict_bench — the measured half of the verdict benchmark (perfbench/).
//
// Runs ONE workload in this process and reports raw facts as JSON lines on
// stdout; perfbench/run.py turns them into medians, checks every answer
// against the pinned expectations and prints the result line. This binary
// never judges an answer, so a wrong verdict or state count is counted by
// the caller instead of aborting the run.
//
// Workloads (perfbench/README.md records why each one exists):
//   fig1_ref      check_anon_mutex, n = 2, m = 5, process 1 rotated by 2
//   fa_n4_sym     check_fa_mutex, n = 4, m = 3, identity naming, symmetry on
//   fig1_ref_par  check_anon_mutex_parallel on the fig1_ref config at
//                 workers = nproc
//   sweep_m5      verify_naming_sweep over the m = 5 process-quotient
//                 classes, safety only, workers = nproc, with a checkpoint
//                 journal in a fresh file under --tmp-dir
//
// --seed relabels the physical registers of the fig1_ref naming by a
// seed-drawn permutation (seed 0 keeps the identity, i.e. exactly the config
// above). A relabelled naming induces an isomorphic transition system, so
// the pinned answer holds for every seed. fa_n4_sym keeps the identity
// naming for every seed: a relabelling changes which orbit image the
// canonicalizer keeps, and with it the canonicalization cost (up to ~10%)
// that this workload exists to measure. sweep_m5 covers every naming class,
// so its input does not depend on the seed either.
//
// --trace=0: every operation goes through the public check entry points with
// ANONCOORD_OBS off. The run is refused in a non-optimised build or when
// ANONCOORD_OBS=1 is set.
// --trace=1: untraced operations alternate with traced ones. A traced
// operation drives the engines through explore() / check_progress()
// directly, records a span around every call into a layer and turns the
// ANONCOORD_OBS registry on (the sweep's per-class figures come from it).
// Spans stay in memory and are written to --spans at exit.
#include <sched.h>
#include <sys/mman.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/anon_mutex.hpp"
#include "core/fa_mutex.hpp"
#include "mem/naming.hpp"
#include "modelcheck/explorer.hpp"
#include "modelcheck/fa_check.hpp"
#include "modelcheck/mutex_check.hpp"
#include "modelcheck/parallel_explorer.hpp"
#include "modelcheck/symmetry.hpp"
#include "modelcheck/verify.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"
#include "util/permutation.hpp"
#include "util/probe_group.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace anoncoord;
using obs::json_value;

namespace {

using steady = std::chrono::steady_clock;

// Captured during static initialisation, before main: the "process start"
// that setup and span timestamps are measured from.
const steady::time_point g_process_start = steady::now();

double since_start() {
  return std::chrono::duration<double>(steady::now() - g_process_start)
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// A "Vm..." field of /proc/self/status in KiB (0 when absent).
std::uint64_t proc_status_kb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(key + ":", 0) == 0)
      return std::strtoull(line.c_str() + key.size() + 1, nullptr, 10);
  return 0;
}

/// CPUs this process may run on — what `nproc` prints.
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

/// Restart VmHWM at the current RSS (Linux clear_refs "5").
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

/// The host-speed probe, timed around every end-to-end operation: build
/// and query an open-addressing hash set of 2^20 random keys in a 32 MiB
/// table mapped for the call. It is memory-latency-bound and page-faults
/// like the engines' seen tables, but shares no code with the library, so
/// its time moves only with the host. On a shared host whose speed drifts
/// over minutes, an operation's time divided by the probe times around it
/// spreads far less between runs than the raw time (perfbench/README.md).
double host_probe_s() {
  constexpr unsigned kBits = 22;
  constexpr std::size_t kSlots = std::size_t{1} << kBits;
  constexpr std::size_t kKeys = kSlots / 4;
  const double t0 = since_start();
  void* mem = mmap(nullptr, kSlots * sizeof(std::uint64_t),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return 0.0;
  auto* table = static_cast<std::uint64_t*>(mem);
  const auto slot = [](std::uint64_t key) {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                    (64 - kBits));
  };
  std::uint64_t found = 0;
  for (int pass = 0; pass < 2; ++pass) {
    splitmix64 keys(0x5eed);
    for (std::size_t i = 0; i < kKeys; ++i) {
      const std::uint64_t key = keys.next() | 1;
      std::size_t h = slot(key);
      while (table[h] != 0 && table[h] != key) h = (h + 1) & (kSlots - 1);
      if (table[h] == key) ++found;
      else table[h] = key;
    }
  }
  munmap(mem, kSlots * sizeof(std::uint64_t));
  const double dt = since_start() - t0;
  return found == kKeys ? dt : -dt;  // negative flags a broken probe
}

void emit(const json_value& record) { std::cout << record.dump() << '\n'; }

// ---------------------------------------------------------------- spans

struct span_record {
  std::string name;
  int id = 0;
  int parent = -1;  ///< -1 for an operation's root span
  int op = 0;       ///< shared by every span of one operation
  double start = 0.0;
  double end = 0.0;
};

/// In-memory span store; thread-safe so the census workers can share it.
class span_log {
 public:
  int open(std::string name, int parent, int op) {
    const double t = since_start();
    std::lock_guard lk(mu_);
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), id, parent, op, t, t});
    return id;
  }
  void close(int id) {
    const double t = since_start();
    std::lock_guard lk(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }
  bool write(const std::string& path) const {
    std::ofstream out(path);
    for (const span_record& s : spans_) {
      json_value v = json_value::make_object();
      v.set("name", s.name);
      v.set("id", s.id);
      v.set("parent", s.parent);
      v.set("op", s.op);
      v.set("start", s.start);
      v.set("end", s.end);
      out << v.dump() << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  std::mutex mu_;
  std::vector<span_record> spans_;
};

class scoped_span {
 public:
  scoped_span(span_log& log, std::string name, int parent, int op)
      : log_(log), id_(log.open(std::move(name), parent, op)) {}
  ~scoped_span() { log_.close(id_); }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;
  int id() const { return id_; }

 private:
  span_log& log_;
  int id_;
};

// ------------------------------------------------------------ workloads

enum class workload { fig1_ref, fa_n4_sym, fig1_ref_par, sweep_m5 };

std::optional<workload> parse_workload(const std::string& name) {
  if (name == "fig1_ref") return workload::fig1_ref;
  if (name == "fa_n4_sym") return workload::fa_n4_sym;
  if (name == "fig1_ref_par") return workload::fig1_ref_par;
  if (name == "sweep_m5") return workload::sweep_m5;
  return std::nullopt;
}

constexpr int kFig1Registers = 5;
constexpr int kFig1Stride = 2;
constexpr int kFaProcesses = 4;
constexpr int kFaRegisters = 3;
constexpr int kSweepRegisters = 5;
constexpr std::uint64_t kMaxStates = 2'000'000;
// tools/sweep_shard's default per-class cap.
constexpr std::uint64_t kSweepMaxStates = 8'000'000;

const std::vector<process_id> kFig1Ids = {1, 2};

/// The Fig. 1 safety question tools/sweep_shard asks of every class.
const config_predicate<anon_mutex> two_in_cs =
    [](const std::vector<process_id>&, const std::vector<anon_mutex>& ps) {
      int c = 0;
      for (const auto& p : ps)
        if (p.in_critical_section()) ++c;
      return c >= 2;
    };

/// Everything a workload builds before its first operation.
struct config {
  permutation relabel;                   ///< the seed's register relabelling
  naming_assignment naming;              ///< single-config workloads
  std::vector<anon_mutex> mutex_procs;   ///< fig1_ref*, sweep_m5
  std::vector<fa_mutex> fa_procs;        ///< fa_n4_sym
  std::vector<weighted_naming> classes;  ///< sweep_m5
  int group_size = 0;
  double compute_s = 0.0;    ///< symmetry_group::compute
  double enumerate_s = 0.0;  ///< naming_orbit_classes
};

permutation seed_relabel(int registers, std::uint64_t seed) {
  if (seed == 0) return identity_permutation(registers);
  xoshiro256 rng(seed);
  return random_permutation(registers, rng);
}

config set_up(workload w, std::uint64_t seed) {
  config c;
  switch (w) {
    case workload::fig1_ref:
    case workload::fig1_ref_par: {
      c.relabel = seed_relabel(kFig1Registers, seed);
      c.naming = apply_global_permutation(
          naming_assignment::rotations(2, kFig1Registers, kFig1Stride),
          c.relabel);
      for (process_id id : kFig1Ids)
        c.mutex_procs.emplace_back(id, kFig1Registers);
      const double t0 = since_start();
      const auto g =
          symmetry_group<anon_mutex>::compute(c.naming, c.mutex_procs);
      c.compute_s = since_start() - t0;
      c.group_size = g.size();
      break;
    }
    case workload::fa_n4_sym: {
      c.naming = naming_assignment::identity(kFaProcesses, kFaRegisters);
      c.fa_procs.assign(kFaProcesses, fa_mutex(kFaRegisters));
      const double t0 = since_start();
      const auto g = symmetry_group<fa_mutex>::compute(c.naming, c.fa_procs);
      c.compute_s = since_start() - t0;
      c.group_size = g.size();
      break;
    }
    case workload::sweep_m5: {
      for (process_id id : kFig1Ids)
        c.mutex_procs.emplace_back(id, kSweepRegisters);
      const double t0 = since_start();
      c.classes = naming_orbit_classes(2, kSweepRegisters);
      c.enumerate_s = since_start() - t0;
      break;
    }
  }
  return c;
}

struct setup_samples {
  json_value setup_s = json_value::make_array();
  json_value compute_s = json_value::make_array();
  json_value enumerate_s = json_value::make_array();
};

constexpr double kSetupBurstSeconds = 0.02;

/// Repeat the set-up for kSetupBurstSeconds (at most 100 times, at least
/// once), appending the burst's repetition times as one array; returns the
/// last config.
config set_up_burst(workload w, std::uint64_t seed, setup_samples& out) {
  const double begin = since_start();
  config c;
  json_value burst = json_value::make_array();
  for (int rep = 0; rep < 100; ++rep) {
    const double t0 = since_start();
    c = set_up(w, seed);
    burst.push_back(since_start() - t0);
    out.compute_s.push_back(c.compute_s);
    out.enumerate_s.push_back(c.enumerate_s);
    if (since_start() - begin >= kSetupBurstSeconds) break;
  }
  out.setup_s.push_back(std::move(burst));
  return c;
}

json_value answer_json(const mutex_check_result& r) {
  json_value a = json_value::make_object();
  a.set("verdict", r.verdict());
  a.set("states", r.num_states);
  a.set("stuck_states", r.stuck_states);
  json_value cex = json_value::make_array();
  for (int p : r.counterexample) cex.push_back(p);
  a.set("counterexample", std::move(cex));
  return a;
}

json_value answer_json(const naming_sweep_report& r) {
  json_value a = json_value::make_object();
  a.set("classes", r.configs);
  a.set("violated", r.violated);
  a.set("incomplete", r.incomplete);
  a.set("pending", r.pending_classes);
  a.set("states", r.total_states);
  a.set("full_configs", r.full_configs);
  a.set("full_violated", r.full_violated);
  return a;
}

/// A fresh checkpoint journal per sweep, like tools/sweep_shard --journal:
/// an existing file would be resumed instead of re-verified.
class journal_file {
 public:
  journal_file(const std::string& dir, int op)
      : path_(dir + "/sweep_m5." + std::to_string(getpid()) + "." +
              std::to_string(op) + ".journal") {
    std::remove(path_.c_str());
  }
  ~journal_file() { std::remove(path_.c_str()); }
  journal_file(const journal_file&) = delete;
  journal_file& operator=(const journal_file&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

naming_sweep_report run_sweep(const config& c, int workers,
                              const std::string& journal) {
  verify_options opt;
  opt.max_states = kSweepMaxStates;
  sweep_schedule_options sched;
  sched.workers = workers;
  sched.checkpoint_path = journal;
  return verify_naming_sweep(kSweepRegisters, c.mutex_procs, two_in_cs,
                             /*orbit_representatives_only=*/true, opt,
                             /*process_quotient=*/true, sched);
}

/// One operation through the public entry points.
json_value run_untraced(workload w, const config& c, int workers,
                        const std::string& tmp_dir, int op) {
  switch (w) {
    case workload::fig1_ref:
      return answer_json(check_anon_mutex(kFig1Registers, c.naming, kFig1Ids,
                                          kMaxStates, /*symmetry=*/true));
    case workload::fa_n4_sym:
      return answer_json(check_fa_mutex(kFaRegisters, c.naming, kMaxStates,
                                        /*symmetry=*/true));
    case workload::fig1_ref_par:
      return answer_json(check_anon_mutex_parallel(
          kFig1Registers, c.naming, kFig1Ids, workers, kMaxStates,
          /*symmetry=*/true));
    case workload::sweep_m5: {
      const journal_file journal(tmp_dir, op);
      return answer_json(run_sweep(c, workers, journal.path()));
    }
  }
  return {};
}

/// Counters every engine exposes, read after explore() / check_progress().
template <class Engine>
void engine_counters(const Engine& e, json_value& layers) {
  const explore_phase_stats& ph = e.phase_counters();
  layers.set("expand_ns", ph.expand_ns);
  layers.set("canonicalize_ns", ph.canonicalize_ns);
  layers.set("probe_ns", ph.probe_ns);
  layers.set("encode_ns", ph.encode_ns);
  layers.set("probe_groups_scanned", ph.probe_groups_scanned);
  layers.set("probe_max_group_chain", ph.probe_max_group_chain);
  const canonicalize_stats cs = e.canonicalize_counters();
  layers.set("full_applies", cs.full_applies);
  layers.set("first_word_pruned", cs.first_word_pruned);
  layers.set("prefix_pruned", cs.prefix_pruned);
  layers.set("stored_row_bytes", e.stored_row_bytes());
  layers.set("pool_storage_bytes", e.pool().storage_bytes());
}

/// One mutex check driven through an engine's own calls, each inside a
/// span named "<layer>.<call>". Maps the result exactly as the check_*
/// entry points do: safety first, progress only on a complete safe run.
template <class Engine, class Machine, class Pred>
json_value traced_mutex_check(span_log& log, int op, int root,
                              const std::string& layer, int registers,
                              const naming_assignment& naming,
                              std::vector<Machine> machines,
                              const typename Engine::options& opt, Pred bad,
                              Pred premise, Pred goal, json_value& layers) {
  std::optional<Engine> e;
  {
    scoped_span s(log, layer + ".ctor", root, op);
    e.emplace(registers, naming, std::move(machines), opt);
  }
  typename Engine::result res;
  {
    const double cpu0 = process_cpu_s();
    const double t0 = since_start();
    scoped_span s(log, layer + ".explore", root, op);
    res = e->explore(bad);
    layers.set("explore_cpu_s", process_cpu_s() - cpu0);
    layers.set("explore_wall_s", since_start() - t0);
  }
  mutex_check_result out;
  out.complete = res.complete;
  out.num_states = res.num_states;
  out.mutual_exclusion = !res.safety_violated();
  if (res.safety_violated()) {
    out.counterexample = res.bad_schedule;
  } else if (res.complete) {
    scoped_span s(log, layer + ".progress", root, op);
    e->check_progress(res, premise, goal);
    out.stuck_states = res.stuck_states;
    out.progress = !res.progress_violated();
    if (res.progress_violated()) out.counterexample = res.stuck_schedule;
  }
  layers.set("states", res.num_states);
  layers.set("edges", res.num_edges);
  layers.set("dedup_hits", res.dedup_hits);
  engine_counters(*e, layers);
  {
    scoped_span s(log, layer + ".dtor", root, op);
    e.reset();
  }
  return answer_json(out);
}

using mutex_state_pred = std::function<bool(const global_state<anon_mutex>&)>;
using fa_state_pred = std::function<bool(const global_state<fa_mutex>&)>;

const mutex_state_pred mutex_bad = [](const global_state<anon_mutex>& s) {
  return mutex_cs_count(s) >= 2;
};
const mutex_state_pred mutex_premise = mutex_someone_trying;
const mutex_state_pred mutex_goal = [](const global_state<anon_mutex>& s) {
  return mutex_cs_count(s) >= 1;
};
const fa_state_pred fa_bad = [](const global_state<fa_mutex>& s) {
  return fa_mutex_cs_count(s) >= 2;
};
const fa_state_pred fa_premise = fa_mutex_someone_trying;
const fa_state_pred fa_goal = [](const global_state<fa_mutex>& s) {
  return fa_mutex_cs_count(s) >= 1;
};

std::uint64_t registry_counter(const obs::metrics_snapshot& snap,
                               const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// One traced operation. `layers` receives the layer counters.
json_value run_traced(workload w, const config& c, int workers,
                      const std::string& tmp_dir, span_log& log, int op,
                      int root, json_value& layers) {
  switch (w) {
    case workload::fig1_ref: {
      explorer<anon_mutex>::options opt;
      opt.max_states = kMaxStates;
      opt.symmetry = true;
      return traced_mutex_check<explorer<anon_mutex>>(
          log, op, root, "explorer", kFig1Registers, c.naming, c.mutex_procs,
          opt, mutex_bad, mutex_premise, mutex_goal, layers);
    }
    case workload::fa_n4_sym: {
      explorer<fa_mutex>::options opt;
      opt.max_states = kMaxStates;
      opt.symmetry = true;
      return traced_mutex_check<explorer<fa_mutex>>(
          log, op, root, "explorer", kFaRegisters, c.naming, c.fa_procs, opt,
          fa_bad, fa_premise, fa_goal, layers);
    }
    case workload::fig1_ref_par: {
      parallel_explorer<anon_mutex>::options opt;
      opt.workers = workers;
      opt.max_states = kMaxStates;
      opt.symmetry = true;
      return traced_mutex_check<parallel_explorer<anon_mutex>>(
          log, op, root, "parallel_explorer", kFig1Registers, c.naming,
          c.mutex_procs, opt, mutex_bad, mutex_premise, mutex_goal, layers);
    }
    case workload::sweep_m5: {
      const journal_file journal(tmp_dir, op);
      auto& reg = obs::metrics_registry::global();
      reg.reset();
      naming_sweep_report rep;
      {
        scoped_span s(log, "sweep.verify_naming_sweep", root, op);
        rep = run_sweep(c, workers, journal.path());
      }
      const obs::metrics_snapshot snap = reg.snapshot();
      for (const char* name :
           {"verify.runs", "verify.states", "verify.dedup_hits",
            "explore.expand_ns", "explore.canonicalize_ns", "explore.probe_ns",
            "explore.encode_ns", "explore.probe_groups_scanned"})
        layers.set(name, registry_counter(snap, name));
      const auto wall = snap.histograms.find("verify.wall_us");
      layers.set("verify.wall_us.sum",
                 wall == snap.histograms.end() ? 0 : wall->second.sum);
      layers.set("verify.wall_us.count",
                 wall == snap.histograms.end() ? 0 : wall->second.count);
      layers.set("sweep_wall_s", rep.wall_seconds);
      return answer_json(rep);
    }
  }
  return {};
}

/// sweep_m5's layer census: every class once more through explorer's own
/// calls (ctor / explore / dtor in spans), `workers` classes at a time. The
/// sweep runs its engines inside verify_naming_sweep, where nothing outside
/// the library can time a constructor or count an edge; this pass measures
/// the identical engines (verify_config's options) from outside.
json_value run_census(const config& c, int workers, span_log& log, int op) {
  struct class_stats {
    json_value layers = json_value::make_object();
    double wall_s = 0.0;
  };
  std::vector<class_stats> stats(c.classes.size());
  std::atomic<std::size_t> next{0};
  std::exception_ptr failure;
  std::mutex failure_mu;
  {
    scoped_span census(log, "census", -1, op);
    const auto classes = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= c.classes.size()) return;
        const double t0 = since_start();
        scoped_span cls(log, "census.class", census.id(), op);
        explorer<anon_mutex>::options opt;
        opt.max_states = kSweepMaxStates;
        json_value& layers = stats[i].layers;
        std::optional<explorer<anon_mutex>> e;
        {
          scoped_span s(log, "explorer.ctor", cls.id(), op);
          e.emplace(kSweepRegisters, c.classes[i].naming, c.mutex_procs, opt);
        }
        explorer<anon_mutex>::result res;
        {
          scoped_span s(log, "explorer.explore", cls.id(), op);
          res = e->explore(mutex_bad);
        }
        layers.set("states", res.num_states);
        layers.set("edges", res.num_edges);
        layers.set("dedup_hits", res.dedup_hits);
        layers.set("violated", res.safety_violated());
        layers.set("complete", res.complete);
        engine_counters(*e, layers);
        {
          scoped_span s(log, "explorer.dtor", cls.id(), op);
          e.reset();
        }
        stats[i].wall_s = since_start() - t0;
      }
    };
    // A failing class is rethrown on this thread after every worker joins.
    const auto work = [&] {
      try {
        classes();
      } catch (...) {
        std::lock_guard lk(failure_mu);
        if (!failure) failure = std::current_exception();
        next = c.classes.size();
      }
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < workers; ++t) pool.emplace_back(work);
    work();
    for (std::thread& t : pool) t.join();
  }
  if (failure) std::rethrow_exception(failure);
  json_value out = json_value::make_object();
  out.set("kind", "census");
  out.set("op", op);
  json_value classes = json_value::make_array();
  for (const class_stats& s : stats) {
    json_value rec = s.layers;
    rec.set("wall_s", s.wall_s);
    classes.push_back(std::move(rec));
  }
  out.set("classes", std::move(classes));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  cli_args args;
  args.define("workload", "", "fig1_ref | fa_n4_sym | fig1_ref_par | sweep_m5");
  args.define("seed", "0", "input seed (0 = the pinned default configs)");
  args.define("seconds", "10", "measure operations for this long");
  args.define("trace", "0", "1 = alternate traced and untraced operations");
  args.define("spans", "", "file the traced run's spans are written to");
  args.define("tmp-dir", ".", "directory for sweep checkpoint journals");
  if (!args.parse(argc, argv)) {
    std::cout << args.help("verdict_bench");
    return 0;
  }
  const std::optional<workload> w = parse_workload(args.get("workload"));
  if (!w) {
    std::cerr << "verdict_bench: unknown --workload '" << args.get("workload")
              << "'\n";
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const double seconds = args.get_double("seconds");
  const bool trace = args.get_bool("trace");
  // Enough operations for a median even past --seconds; a traced run needs
  // traced and untraced ones.
  const int min_ops = trace ? 4 : 3;
  const std::string tmp_dir = args.get("tmp-dir");
  const int workers = usable_cpus();

#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  const char* obs_env = std::getenv("ANONCOORD_OBS");
  const std::string obs_state = obs_env ? obs_env : "unset";

  json_value host = json_value::make_object();
  host.set("kind", "host");
  host.set("workload", args.get("workload"));
  host.set("seed", seed);
  host.set("trace", trace);
  host.set("nproc", workers);
  host.set("workers", workers);
  host.set("cpu_model", cpu_model());
  host.set("compiler", PERFBENCH_COMPILER);
  host.set("build_type", PERFBENCH_BUILD_TYPE);
  host.set("optimized", optimized);
  host.set("probe_backend", probe_backend());
  host.set("anoncoord_obs", obs_state);
  host.set("obs_compiled", ANONCOORD_OBS_COMPILED != 0);
  emit(host);

  if (!trace && !optimized) {
    std::cerr << "verdict_bench: refusing to time a non-optimised build ("
              << PERFBENCH_BUILD_TYPE << ")\n";
    return 3;
  }
  if (!trace && obs_state == "1") {
    std::cerr << "verdict_bench: refusing to time end-to-end runs with "
                 "ANONCOORD_OBS=1 set\n";
    return 3;
  }
  obs::override_enabled(false);

  // The set-up is timed in bursts: one before the first operation (its last
  // repetition builds the config every operation uses) and one after each
  // operation, so the samples span the whole run instead of one moment of
  // it. Each burst repeats for kSetupBurstSeconds or 100 repetitions, at least
  // once.
  setup_samples samples;
  config cfg = set_up_burst(*w, seed, samples);
  const double setup_done_s = since_start();

  span_log log;
  // End-to-end runs time the host probe before every operation and after
  // the last; the probe's mapping is gone and VmHWM restarted before the
  // operation begins, so peak RSS is the operations' own.
  bool hwm_reset = true;
  const auto probe = [&] {
    const double t = host_probe_s();
    hwm_reset = reset_peak_rss() && hwm_reset;
    return t;
  };
  json_value probes = json_value::make_array();
  if (!trace) probes.push_back(probe());
  const std::uint64_t rss_before_kb = proc_status_kb("VmRSS");
  std::uint64_t hwm_after_first_kb = 0;
  std::uint64_t peak_kb = 0;
  const double loop_begin = since_start();
  int op = 0;
  for (; op < min_ops || since_start() - loop_begin < seconds; ++op) {
    if (!trace && op > 0) probes.push_back(probe());
    const bool traced = trace && op % 2 == 1;
    obs::override_enabled(traced);
    json_value rec = json_value::make_object();
    rec.set("kind", "op");
    rec.set("op", op);
    rec.set("traced", traced);
    json_value layers = json_value::make_object();
    const double cpu0 = process_cpu_s();
    const double t0 = since_start();
    json_value answer;
    if (traced) {
      scoped_span root(log, args.get("workload") + ".op", -1, op);
      answer = run_traced(*w, cfg, workers, tmp_dir, log, op, root.id(),
                          layers);
    } else {
      answer = run_untraced(*w, cfg, workers, tmp_dir, op);
    }
    rec.set("wall_s", since_start() - t0);
    rec.set("cpu_s", process_cpu_s() - cpu0);
    rec.set("answer", std::move(answer));
    if (traced) rec.set("layers", std::move(layers));
    const std::uint64_t hwm_kb = proc_status_kb("VmHWM");
    if (op == 0) hwm_after_first_kb = hwm_kb;
    peak_kb = std::max(peak_kb, hwm_kb);
    emit(rec);
    set_up_burst(*w, seed, samples);
  }
  obs::override_enabled(false);
  if (!trace) probes.push_back(probe());

  json_value setup = json_value::make_object();
  setup.set("kind", "setup");
  setup.set("setup_s", std::move(samples.setup_s));
  setup.set("compute_s", std::move(samples.compute_s));
  setup.set("enumerate_s", std::move(samples.enumerate_s));
  json_value relabel = json_value::make_array();
  for (int r : cfg.relabel) relabel.push_back(r);
  setup.set("relabel", std::move(relabel));
  setup.set("group_size", cfg.group_size);
  setup.set("classes", static_cast<std::uint64_t>(cfg.classes.size()));
  setup.set("setup_done_s", setup_done_s);
  emit(setup);

  json_value rss = json_value::make_object();
  rss.set("kind", "rss");
  rss.set("rss_before_kb", rss_before_kb);
  rss.set("hwm_after_first_kb", hwm_after_first_kb);
  rss.set("peak_kb", peak_kb);
  rss.set("hwm_reset", hwm_reset);
  emit(rss);

  json_value host_probe = json_value::make_object();
  host_probe.set("kind", "probe");
  host_probe.set("probe_s", std::move(probes));
  emit(host_probe);

  if (*w == workload::fig1_ref_par) {
    // The sequential answer for the same config, produced in this run and
    // after the timed loop so it touches neither setup_s nor peak RSS.
    json_value ref = json_value::make_object();
    ref.set("kind", "reference");
    ref.set("answer", answer_json(check_anon_mutex(
                          kFig1Registers, cfg.naming, kFig1Ids, kMaxStates,
                          /*symmetry=*/true)));
    emit(ref);
  }
  if (trace && *w == workload::sweep_m5) emit(run_census(cfg, workers, log, op));

  const std::string spans_path = args.get("spans");
  if (!spans_path.empty() && !log.write(spans_path)) {
    std::cerr << "verdict_bench: cannot write spans to " << spans_path << "\n";
    return 4;
  }
  std::cout << std::flush;
  return 0;
}
