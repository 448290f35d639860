#!/usr/bin/env python3
"""The verdict benchmark: builds verdict_bench, runs one workload, checks
every answer and prints the metrics.

    python3 perfbench/run.py --workload fig1_ref --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seconds 30     # every workload, both modes

Each invocation builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR or
.bench_build/ when needed, then runs the workload in its own verdict_bench
process. --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of a separate traced run. Human-readable lines come first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics. perfbench/README.md explains the workloads and every metric.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# The pinned answer of every operation, and the set-up properties every
# seed must keep. fig1_ref_par must also equal the sequential answer that
# the same run produces. perfbench/README.md says why each workload exists.
FIG1_ANSWER = {"verdict": "OK", "states": 342886, "stuck_states": 0,
               "counterexample": []}
WORKLOADS = {
    "fig1_ref": {"answer": FIG1_ANSWER, "group_size": 1},
    "fa_n4_sym": {
        "answer": {"verdict": "OK", "states": 115415, "stuck_states": 0,
                   "counterexample": []},
        "group_size": 72,
    },
    "fig1_ref_par": {"answer": FIG1_ANSWER, "group_size": 1},
    "sweep_m5": {
        "answer": {"classes": 73, "violated": 0, "incomplete": 0,
                   "pending": 0, "states": 18872459, "full_configs": 14400,
                   "full_violated": 0},
        "classes": 73,
    },
}

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "cpu_s": "s",
    "wall_ref": "ref",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
    "rss_bytes_per_state": "B/state",
    "setup_s": "s",
}

# Every per-layer metric the traced run derives, with its unit. A workload
# that does not exercise a layer reports it as not applicable.
PER_LAYER = {
    "explorer.explore_s": "s",
    "explorer.expand_s": "s",
    "explorer.probe_s": "s",
    "explorer.encode_s": "s",
    "explorer.canonicalize_s": "s",
    "explorer.progress_s": "s",
    "explorer.ctor_s": "s",
    "explorer.dtor_s": "s",
    "explorer.edges": "count",
    "explorer.new_state_share": "share",
    "explorer.probe_groups_per_lookup": "groups",
    "explorer.probe_max_group_chain": "groups",
    "symmetry.full_applies": "count",
    "symmetry.pruned_share": "share",
    "symmetry.candidates_per_successor": "count",
    "symmetry.group_size": "count",
    "symmetry.compute_s": "s",
    "state_pool.row_bytes_per_state": "B/state",
    "state_pool.storage_bytes": "B",
    "parallel_explorer.ctor_s": "s",
    "parallel_explorer.explore_s": "s",
    "parallel_explorer.progress_s": "s",
    "parallel_explorer.dtor_s": "s",
    "parallel_explorer.phase_cpu_s": "s",
    "parallel_explorer.cpu_per_wall": "ratio",
    "parallel_explorer.duplicate_states": "count",
    "sweep.states": "count",
    "sweep.enumerate_s": "s",
    "sweep.classes": "count",
    "sweep.class_s_sum": "s",
    "sweep.class_s_max": "s",
    "sweep.worker_busy_share": "share",
    "sweep.expand_s": "s",
    "sweep.probe_s": "s",
    "sweep.encode_s": "s",
    "obs.trace_overhead_share": "share",
    "unattributed_s": "s",
}

# setup_s is reported in seconds at this host-probe time (see
# perfbench/README.md, "Host noise").
REFERENCE_PROBE_S = 0.1
# The traced run's self times must account for this share of traced wall_s.
ATTRIBUTION_FLOOR = 0.95
PERCENTILE_LADDER = (50, 75, 90, 95, 99, 99.9)
CHILD_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    """A run that cannot produce a result (missing sources, failed build)."""


# ------------------------------------------------------------------ stats

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q3) exactly as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(values, p):
    """Linear-interpolation percentile (numpy's default definition)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supported_percentile(n):
    """Highest percentile of the ladder with at least ten of n samples
    beyond it, or None when n is too small for even the median."""
    best = None
    for p in PERCENTILE_LADDER:
        if n * (100 - p) / 100.0 >= 10 - 1e-9:
            best = p
    return best


def timing_summary(values):
    """Median, sample count, quartiles and the supported percentile."""
    q1, q3 = quartiles(values)
    out = {"median": median(values), "n": len(values), "q1": q1, "q3": q3,
           "percentile": supported_percentile(len(values))}
    if out["percentile"] is not None:
        out["percentile_value"] = percentile(values, out["percentile"])
    return out


# ------------------------------------------------------------ correctness

def answer_mismatches(answer, expected):
    """Fields where `answer` differs from `expected`, as readable strings."""
    return ["%s %r != %r" % (k, answer.get(k), v)
            for k, v in expected.items() if answer.get(k) != v]


def gate(ops, expected, reference=None):
    """Check every operation against the pinned answer (and, when given, the
    answer a reference engine produced in the same run). Returns (failed,
    log lines); a mismatch is counted and logged, never raised."""
    failed = 0
    log = []
    for op in ops:
        bad = answer_mismatches(op["answer"], expected)
        if reference is not None:
            bad += ["vs in-run sequential: " + m
                    for m in answer_mismatches(op["answer"], reference)]
        if bad:
            failed += 1
            log.append("op %d: %s" % (op["op"], "; ".join(bad)))
    return failed, log


# ------------------------------------------------------------------ spans

def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """span id -> duration minus the part of it its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    return {s["id"]: (s["end"] - s["start"]) - covered(
                [(c["start"], c["end"]) for c in children.get(s["id"], [])],
                s["start"], s["end"])
            for s in spans}


def attribution(spans):
    """Per traced operation: (wall, unattributed) where wall is the root
    span's duration and unattributed its self time, i.e. the part of the
    operation no layer span accounts for."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        if s["parent"] == -1 and s["name"].endswith(".op"):
            out[s["op"]] = (s["end"] - s["start"], selfs[s["id"]])
    return out


def layer_self_times(spans, ops):
    """Span name -> list of per-operation summed self times, over `ops`."""
    selfs = self_times(spans)
    per = {}
    for s in spans:
        if s["op"] in ops:
            per.setdefault(s["name"], {}).setdefault(s["op"], 0.0)
            per[s["name"]][s["op"]] += selfs[s["id"]]
    return {name: [v[o] for o in sorted(v)] for name, v in per.items()}


# ------------------------------------------------------------ build & run

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    path = Path(target) if target else ROOT / ".bench_build"
    return path.resolve()


def ensure_built(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("anoncoord sources not found under %s/src" % ROOT)
    out = bdir / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError("build step %s failed: %s" % (cmd[:2], e))
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            raise BenchError("build step %s exited %d" % (cmd[:2],
                                                          p.returncode))
    binary = out / "verdict_bench"
    if not binary.is_file():
        raise BenchError("build produced no %s" % binary)
    return binary


def run_child(binary, bdir, workload, seed, seconds, trace):
    """Run one workload in its own verdict_bench process; returns its
    records (and spans for a traced run)."""
    tmp = bdir / "tmp"
    traces = bdir / "traces"
    tmp.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    spans_path = traces / ("%s.seed%d.spans.jsonl" % (workload, seed))
    if spans_path.exists():
        spans_path.unlink()
    cmd = [str(binary), "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--tmp-dir=" + str(tmp)]
    if trace:
        cmd.append("--spans=" + str(spans_path))
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish within %d s" % (workload,
                                                            CHILD_TIMEOUT_S))
    if p.returncode != 0:
        raise BenchError("verdict_bench exited %d" % p.returncode)
    records = [json.loads(line) for line in p.stdout.splitlines() if line]
    spans = []
    if trace:
        with open(spans_path) as f:
            spans = [json.loads(line) for line in f if line.strip()]
    return records, spans


def by_kind(records, kind):
    return [r for r in records if r["kind"] == kind]


# --------------------------------------------------------------- metrics

def setup_checks(workload, setup):
    spec = WORKLOADS[workload]
    problems = []
    if "group_size" in spec and setup["group_size"] != spec["group_size"]:
        problems.append("symmetry group has %d elements, expected %d"
                        % (setup["group_size"], spec["group_size"]))
    if "classes" in spec and setup["classes"] != spec["classes"]:
        problems.append("%d naming classes, expected %d"
                        % (setup["classes"], spec["classes"]))
    return problems


def check_ops(workload, records, expected=None):
    """(attempted, failed, log) for a run's operations."""
    expected = expected or WORKLOADS[workload]["answer"]
    ops = by_kind(records, "op")
    reference = None
    log = []
    refs = by_kind(records, "reference")
    if refs:
        reference = refs[0]["answer"]
        for m in answer_mismatches(reference, expected):
            log.append("in-run sequential reference: " + m)
    failed, op_log = gate(ops, expected, reference)
    return len(ops), failed, log + op_log


def probe_ratios(ops, probes, key):
    """Each operation's `key` time over the mean of the host probe times
    measured just before and just after it."""
    return [o[key] / ((probes[i] + probes[i + 1]) / 2.0)
            for i, o in enumerate(ops)]


def end_to_end(records):
    ops = by_kind(records, "op")
    setup = by_kind(records, "setup")[0]
    rss = by_kind(records, "rss")[0]
    probes = by_kind(records, "probe")[0]["probe_s"]
    growth = (rss["hwm_after_first_kb"] - rss["rss_before_kb"]) * 1024.0
    return {
        "wall_s": median([o["wall_s"] for o in ops]),
        "cpu_s": median([o["cpu_s"] for o in ops]),
        "wall_ref": median(probe_ratios(ops, probes, "wall_s")),
        "cpu_ref": median(probe_ratios(ops, probes, "cpu_s")),
        "peak_rss_mb": rss["peak_kb"] * 1024.0 / 1e6,
        "rss_bytes_per_state": growth / ops[0]["answer"]["states"],
        "setup_s": median(setup_at_reference_speed(setup, probes)),
    }


def setup_at_reference_speed(setup, probes):
    """Each set-up burst's fastest repetition, scaled from the host probe
    timed right after the burst to REFERENCE_PROBE_S."""
    return [min(burst) * REFERENCE_PROBE_S / probe
            for burst, probe in zip(setup["setup_s"], probes)]


def ratio(num, den):
    return num / den if den else 0.0


def counter_layers(get, explorer_phases):
    """Metrics derived from the engine counters in verdict_bench's layer
    records; get(key) aggregates one counter over the run."""
    edges, states = get("edges"), get("states")
    pruned = get("first_word_pruned") + get("prefix_pruned")
    applied = get("full_applies")
    out = {
        "symmetry.full_applies": applied,
        "symmetry.pruned_share": ratio(pruned, pruned + applied),
        "symmetry.candidates_per_successor": ratio(pruned + applied, edges),
        "state_pool.row_bytes_per_state": ratio(get("stored_row_bytes"),
                                                states),
        "state_pool.storage_bytes": get("pool_storage_bytes"),
    }
    if explorer_phases:
        out.update({
            "explorer.expand_s": get("expand_ns") * 1e-9,
            "explorer.probe_s": get("probe_ns") * 1e-9,
            "explorer.encode_s": get("encode_ns") * 1e-9,
            "explorer.canonicalize_s": get("canonicalize_ns") * 1e-9,
            "explorer.edges": edges,
            "explorer.new_state_share": ratio(states,
                                              states + get("dedup_hits")),
            "explorer.probe_groups_per_lookup": ratio(
                get("probe_groups_scanned"), edges),
            "explorer.probe_max_group_chain": get("probe_max_group_chain"),
        })
    return out


def engine_layers(prefix, traced, spans, ops):
    """Per-layer metrics of the single-config engine workloads: medians
    over the traced operations."""
    selfs = layer_self_times(spans, ops)
    lay = [o["layers"] for o in traced]

    def med(key):
        return median([x[key] for x in lay])

    out = counter_layers(med, prefix == "explorer")
    for call in ("ctor", "explore", "progress", "dtor"):
        out["%s.%s_s" % (prefix, call)] = median(
            selfs.get("%s.%s" % (prefix, call), [0.0]))
    if prefix == "parallel_explorer":
        out["parallel_explorer.phase_cpu_s"] = 1e-9 * sum(
            med(k) for k in ("expand_ns", "canonicalize_ns", "probe_ns",
                             "encode_ns"))
        out["parallel_explorer.cpu_per_wall"] = median(
            [ratio(x["explore_cpu_s"], x["explore_wall_s"]) for x in lay])
    return out


def sweep_layers(traced, spans, census, workers):
    """sweep_m5: the sweep layer from the ANONCOORD_OBS registry of the
    traced sweeps, the explorer layer from the census pass (sums over the
    classes; the longest probe chain is the maximum)."""
    lay = [o["layers"] for o in traced]
    classes = census["classes"]

    def med(key):
        return median([x[key] for x in lay])

    def total(key):
        agg = max if key == "probe_max_group_chain" else sum
        return agg(c[key] for c in classes)

    out = counter_layers(total, True)
    out.update({
        "sweep.states": med("verify.states"),
        "sweep.classes": med("verify.runs"),
        "sweep.class_s_sum": med("verify.wall_us.sum") * 1e-6,
        "sweep.class_s_max": max(c["wall_s"] for c in classes),
        "sweep.worker_busy_share": median(
            [ratio(x["verify.wall_us.sum"] * 1e-6, workers * x["sweep_wall_s"])
             for x in lay]),
        "sweep.expand_s": med("explore.expand_ns") * 1e-9,
        "sweep.probe_s": med("explore.probe_ns") * 1e-9,
        "sweep.encode_s": med("explore.encode_ns") * 1e-9,
        "symmetry.group_size": 1,
    })
    for call in ("ctor", "explore", "dtor"):
        out["explorer.%s_s" % call] = sum(
            s["end"] - s["start"] for s in spans
            if s["op"] == census["op"] and s["name"] == "explorer." + call)
    return out


def census_mismatches(census, expected):
    classes = census["classes"]
    bad = []
    if len(classes) != expected["classes"]:
        bad.append("census ran %d classes" % len(classes))
    states = sum(c["states"] for c in classes)
    if states != expected["states"]:
        bad.append("census states %d != %d" % (states, expected["states"]))
    if any(c["violated"] or not c["complete"] for c in classes):
        bad.append("census class violated or incomplete")
    return bad


def per_layer(workload, records, spans):
    """(metrics, problems): every per-layer metric the workload exercises,
    plus the attribution check over its traced operations."""
    ops = by_kind(records, "op")
    traced = [o for o in ops if o["traced"]]
    untraced = [o for o in ops if not o["traced"]]
    setup = by_kind(records, "setup")[0]
    workers = by_kind(records, "host")[0]["workers"]
    problems = []
    traced_ids = {o["op"] for o in traced}
    if workload == "sweep_m5":
        census = by_kind(records, "census")[0]
        problems += census_mismatches(census, WORKLOADS[workload]["answer"])
        out = sweep_layers(traced, spans, census, workers)
        out["sweep.enumerate_s"] = median(setup["enumerate_s"])
    else:
        prefix = ("parallel_explorer" if workload == "fig1_ref_par"
                  else "explorer")
        out = engine_layers(prefix, traced, spans, traced_ids)
        out["symmetry.group_size"] = setup["group_size"]
        out["symmetry.compute_s"] = median(setup["compute_s"])
    # Counts of layers this workload leaves idle are 0, not missing, so the
    # result line carries the same metrics for every workload.
    out.setdefault("sweep.classes", 0)
    out.setdefault("sweep.states", 0)
    out.setdefault("sweep.worker_busy_share", 0.0)
    out["parallel_explorer.duplicate_states"] = 0.0
    if workload == "fig1_ref_par":
        ref = by_kind(records, "reference")[0]["answer"]["states"]
        out["parallel_explorer.duplicate_states"] = statistics.mean(
            [o["answer"]["states"] - ref for o in ops])
    att = attribution(spans)
    unattributed = [att[o][1] for o in sorted(traced_ids)]
    for o in sorted(traced_ids):
        wall, rest = att[o]
        if wall - rest < ATTRIBUTION_FLOOR * wall:
            problems.append("op %d: self times cover %.1f%% of traced wall_s"
                            % (o, 100.0 * (wall - rest) / wall))
    out["unattributed_s"] = median(unattributed)
    out["obs.trace_overhead_share"] = (
        median([o["wall_s"] for o in traced])
        / median([o["wall_s"] for o in untraced]) - 1.0)
    return out, problems


# ---------------------------------------------------------------- output

def fmt(v):
    if isinstance(v, float):
        return "%.6g" % v
    return str(v)


def describe_host(host):
    return ("host: nproc=%d cpu=%r compiler=%r build=%s optimized=%s "
            "probe_backend=%s ANONCOORD_OBS=%s"
            % (host["nproc"], host["cpu_model"], host["compiler"],
               host["build_type"], host["optimized"], host["probe_backend"],
               host["anoncoord_obs"]))


def run_workload(workload, seed, seconds, trace, selected, expected=None):
    """Run one workload once; print the report; return the result object.
    `selected` names the metrics that go into the result line."""
    bdir = build_dir()
    binary = ensure_built(bdir)
    records, spans = run_child(binary, bdir, workload, seed, seconds, trace)
    host = by_kind(records, "host")[0]
    setup = by_kind(records, "setup")[0]
    attempted, failed, log = check_ops(workload, records, expected)
    problems = setup_checks(workload, setup)
    print("perfbench %s seed=%d trace=%d %s"
          % (workload, seed, trace, describe_host(host)))
    print("  input: register relabelling %s"
          % (setup["relabel"] or "none (this input does not depend on the "
                                  "seed)"))
    ops = by_kind(records, "op")
    for line in log:
        print("  MISMATCH " + line)
    print("  failed_share        %s (%d of %d operations)"
          % (fmt(ratio(failed, attempted)), failed, attempted))
    if trace:
        metrics, trace_problems = per_layer(workload, records, spans)
        problems += trace_problems
        units = PER_LAYER
        for name in PER_LAYER:
            shown = fmt(metrics[name]) if name in metrics else "n/a"
            print("  %-34s %s %s" % (name, shown,
                                     units[name] if name in metrics else ""))
        for name, vals in sorted(layer_self_times(
                spans, {o["op"] for o in ops if o["traced"]}).items()):
            print("  self time %-34s %s s (median per op)"
                  % (name, fmt(median(vals))))
    else:
        metrics = end_to_end(records)
        units = END_TO_END
        probes = by_kind(records, "probe")[0]["probe_s"]
        rss = by_kind(records, "rss")[0]
        if min(probes) <= 0:
            problems.append("host probe lost keys")
        if not rss["hwm_reset"]:
            problems.append("could not restart VmHWM; peak RSS includes "
                            "the host probe")
        series = {
            "wall_s": [o["wall_s"] for o in ops],
            "cpu_s": [o["cpu_s"] for o in ops],
            "wall_ref": probe_ratios(ops, probes, "wall_s"),
            "cpu_ref": probe_ratios(ops, probes, "cpu_s"),
        }
        for name, values in series.items():
            t = timing_summary(values)
            pct = ("p%g %s" % (t["percentile"], fmt(t["percentile_value"]))
                   if t["percentile"] is not None
                   else "no percentile above the median has 10 samples "
                        "beyond it")
            print("  %-19s %s %s  (median of %d ops; quartiles %s / %s; %s)"
                  % (name, fmt(t["median"]), units[name], t["n"],
                     fmt(t["q1"]), fmt(t["q3"]), pct))
        for name in ("peak_rss_mb", "rss_bytes_per_state", "setup_s"):
            print("  %-19s %s %s" % (name, fmt(metrics[name]), units[name]))
        print("  host probe %s s (median of %d); setup_s is the median over "
              "%d set-up bursts of each burst's fastest repetition (%s s "
              "unscaled), scaled to a %g s probe; the first set-up finished "
              "%s s after process start"
              % (fmt(median(probes)), len(probes), len(setup["setup_s"]),
                 fmt(median([min(b) for b in setup["setup_s"]])),
                 REFERENCE_PROBE_S, fmt(setup["setup_done_s"])))
    for p in problems:
        print("  PROBLEM " + p)
    # fig1_ref_par is runnable but not a BENCHMARK.json workload, so it
    # carries only the selected metrics it measures.
    names = [n for n in (selected if selected is not None else units)
             if n in metrics]
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in names},
    }


def load_benchmark_json():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    with open(path) as f:
        return json.load(f)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced then traced, each in "
                         "its own process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    spec = load_benchmark_json()
    try:
        if args.workload:
            selected = None
            if spec is not None:
                key = "per_layer" if args.trace else "end_to_end"
                selected = [m["name"] for m in spec[key]]
            result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace, selected)
            print(json.dumps(result))
            return 0
        for workload in WORKLOADS:
            for trace in (0, 1):
                result = run_workload(workload, args.seed, args.seconds,
                                      trace, None)
                print("  => correct=%s attempted=%d failed=%d"
                      % (result["correct"], result["attempted"],
                         result["failed"]))
        return 0
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
