#!/usr/bin/env python3
"""Validator for BENCH_<name>.json reports (stdlib only).

Checks the "anoncoord-bench-v1" schema emitted by bench/bench_json.hpp:
required top-level keys and types, per-result summary-statistic sanity
(count >= 1, min <= median <= max, p99 <= max), and that the metrics
section is the registry-snapshot shape ({"counters": {...},
"histograms": {...}}).

Out-of-core counters get extra scrutiny when present: spill_pages,
spill_bytes, resumed_classes, pending_classes, spill_faulted_pages and
spill_evicted_pages must be non-negative integers, and spill traffic must
be internally consistent (spill_bytes and spill_pages are zero together, a
spilled page wrote at least one byte so spill_bytes >= spill_pages, and
pages can only fault back in after something spilled).

Sharded-sweep counters (bench_modelcheck_scaling part 8) gate when
present: shard_totals_match must be 1 (the merged two-shard journal must
reproduce the single-process weighted totals bit-identically) and
shard_merge_missing must be 0 (the shards covered every orbit class).

Canonicalization counters (bench_modelcheck_scaling part 3) must be
present together and internally consistent: a symmetry run that pruned
elements must also have applied at least one full element image (the
identity-element win on every state's first comparison).

Hot-loop phase counters (bench_modelcheck_scaling part 3): the
phase_*_ns / probe_* breakdown must be present together and internally
consistent: a run that scanned probe groups has a nonzero probe phase and
a maximal chain of at least one group, and no chain can exceed the total
groups scanned.

Contention-lab counters (bench_contention_lab) also get extra checks when
present: contention.safety_violations_gated must be exactly zero (it sums
mutual-exclusion violations and canary gaps under the model-faithful
seq_cst policy — any value above zero is a correctness bug, not noise),
and contention.lost_wakeups (futex waits that ended only via the 10 ms
timeout belt) must stay under a small absolute bound: the belt exists to
convert a hypothetical lost wakeup into bounded latency, so it firing more
than rarely means wakeups are being systematically dropped.

Usage: tools/check_bench_json.py BENCH_*.json
Exit status 0 when every report validates, 1 otherwise.
"""

import json
import sys
from pathlib import Path

SCHEMA = "anoncoord-bench-v1"
REQUIRED = {
    "schema": str,
    "name": str,
    "obs_enabled": bool,
    "peak_rss_bytes": int,
    "config": dict,
    "repetitions": int,
    "results": list,
    "metrics": dict,
}

# Result series with a fixed unit contract: memory footprints must be
# reported in bytes (and be positive — a zero bytes-per-state figure means
# the bench divided by a missing state count).
BYTES_SERIES = ("bytes_per_stored_state",)


def check_result(entry: object, where: str) -> list[str]:
    errors = []
    if not isinstance(entry, dict):
        return [f"{where}: result entry is not an object"]
    for key in ("name", "unit", "count", "min", "max", "mean", "median",
                "p99"):
        if key not in entry:
            errors.append(f"{where}: result missing key {key!r}")
    if errors:
        return errors
    name = entry["name"]
    if not isinstance(entry["count"], int) or entry["count"] < 1:
        errors.append(f"{where}: result {name!r} has count {entry['count']}")
    for key in ("min", "max", "mean", "median", "p99"):
        if not isinstance(entry[key], (int, float)):
            errors.append(f"{where}: result {name!r} {key} is not numeric")
    if errors:
        return errors
    lo, hi = entry["min"], entry["max"]
    for key in ("mean", "median", "p99"):
        if not lo <= entry[key] <= hi:
            errors.append(f"{where}: result {name!r} {key}={entry[key]} "
                          f"outside [{lo}, {hi}]")
    if name in BYTES_SERIES:
        if entry["unit"] != "B":
            errors.append(f"{where}: result {name!r} unit {entry['unit']!r} "
                          "!= 'B'")
        if lo <= 0:
            errors.append(f"{where}: result {name!r} min {lo} is not "
                          "positive")
    return errors


def check_report(path: Path) -> list[str]:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable ({exc})"]
    if not isinstance(doc, dict):
        return [f"{path}: top level is not an object"]
    errors = []
    for key, kind in REQUIRED.items():
        if key not in doc:
            errors.append(f"{path}: missing key {key!r}")
        elif not isinstance(doc[key], kind):
            errors.append(f"{path}: {key!r} is not a {kind.__name__}")
    if errors:
        return errors
    if doc["schema"] != SCHEMA:
        errors.append(f"{path}: schema {doc['schema']!r} != {SCHEMA!r}")
    if doc["repetitions"] < 1:
        errors.append(f"{path}: repetitions {doc['repetitions']} < 1")
    if doc["peak_rss_bytes"] < 0:
        errors.append(f"{path}: peak_rss_bytes {doc['peak_rss_bytes']} < 0")
    for entry in doc["results"]:
        errors.extend(check_result(entry, str(path)))
    for section in ("counters", "histograms"):
        if not isinstance(doc["metrics"].get(section), dict):
            errors.append(f"{path}: metrics.{section} missing or not an "
                          "object")
    counters = doc["metrics"].get("counters", {})
    for name, value in counters.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append(f"{path}: counter {name!r} = {value!r} is not a "
                          "non-negative integer")
    errors.extend(check_spill_counters(counters, str(path)))
    errors.extend(check_contention_counters(counters, str(path)))
    errors.extend(check_shard_counters(counters, str(path)))
    errors.extend(check_canonicalize_counters(counters, str(path)))
    errors.extend(check_phase_counters(counters, str(path)))
    return errors


# Out-of-core counters (bench_modelcheck_scaling part 6 and the resumable
# --sweep-m sweep). Optional — older reports predate them — but when present
# they must be well-formed non-negative integers.
SPILL_COUNTERS = ("spill_pages", "spill_bytes", "resumed_classes",
                  "pending_classes", "spill_faulted_pages",
                  "spill_evicted_pages")


def check_spill_counters(counters: object, where: str) -> list[str]:
    if not isinstance(counters, dict):
        return []
    errors = []
    ok = {}
    for name in SPILL_COUNTERS:
        if name not in counters:
            continue
        value = counters[name]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append(f"{where}: counter {name!r} = {value!r} is not a "
                          "non-negative integer")
        else:
            ok[name] = value
    if "spill_pages" in ok and "spill_bytes" in ok:
        pages, nbytes = ok["spill_pages"], ok["spill_bytes"]
        if (pages == 0) != (nbytes == 0):
            errors.append(f"{where}: spill_pages={pages} and "
                          f"spill_bytes={nbytes} disagree about whether "
                          "anything spilled")
        elif nbytes < pages:
            errors.append(f"{where}: spill_bytes={nbytes} < "
                          f"spill_pages={pages} (each spilled page writes "
                          "at least one byte)")
    if "spill_faulted_pages" in ok and ok.get("spill_pages") == 0 \
            and ok["spill_faulted_pages"] > 0:
        errors.append(f"{where}: spill_faulted_pages="
                      f"{ok['spill_faulted_pages']} with spill_pages=0 "
                      "(a page can only fault back in after being spilled)")
    return errors


# Contention-lab counters (bench_contention_lab part 3). Optional, but when
# present they gate: seq_cst safety must be spotless and the futex timeout
# belt must be (nearly) silent.
CONTENTION_COUNTERS = ("contention.parks", "contention.wakes",
                       "contention.spin_wins", "contention.lost_wakeups",
                       "contention.safety_violations_gated")
LOST_WAKEUP_BOUND = 100


def check_contention_counters(counters: object, where: str) -> list[str]:
    if not isinstance(counters, dict):
        return []
    errors = []
    ok = {}
    for name in CONTENTION_COUNTERS:
        if name not in counters:
            continue
        value = counters[name]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append(f"{where}: counter {name!r} = {value!r} is not a "
                          "non-negative integer")
        else:
            ok[name] = value
    if ok.get("contention.safety_violations_gated", 0) != 0:
        errors.append(f"{where}: contention.safety_violations_gated = "
                      f"{ok['contention.safety_violations_gated']} (mutual "
                      "exclusion broke under seq_cst registers)")
    if ok.get("contention.lost_wakeups", 0) > LOST_WAKEUP_BOUND:
        errors.append(f"{where}: contention.lost_wakeups = "
                      f"{ok['contention.lost_wakeups']} > {LOST_WAKEUP_BOUND} "
                      "(futex timeout belt firing systematically)")
    if "contention.wakes" in ok and "contention.parks" in ok:
        # Wakes are only issued when a waiter is present; a run that never
        # parked (all spin mode) must not report wake traffic.
        if ok["contention.parks"] == 0 and ok["contention.wakes"] > 0:
            errors.append(f"{where}: contention.wakes = "
                          f"{ok['contention.wakes']} with zero parks")
    return errors


# Sharded-sweep counters (bench_modelcheck_scaling part 8). Optional, but
# when present they gate: the merged two-shard journal must reproduce the
# single-process weighted totals bit-identically and cover every class.
SHARD_COUNTERS = ("shard_count", "shard_merge_records",
                  "shard_merge_duplicates", "shard_merge_missing",
                  "shard_totals_match")


def check_shard_counters(counters: object, where: str) -> list[str]:
    if not isinstance(counters, dict):
        return []
    errors = []
    ok = {}
    for name in SHARD_COUNTERS:
        if name not in counters:
            continue
        value = counters[name]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append(f"{where}: counter {name!r} = {value!r} is not a "
                          "non-negative integer")
        else:
            ok[name] = value
    if "shard_totals_match" in ok and ok["shard_totals_match"] != 1:
        errors.append(f"{where}: shard_totals_match = "
                      f"{ok['shard_totals_match']} (merged shard journals "
                      "diverged from the single-process weighted totals)")
    if ok.get("shard_merge_missing", 0) != 0:
        errors.append(f"{where}: shard_merge_missing = "
                      f"{ok['shard_merge_missing']} (shards left orbit "
                      "classes undecided)")
    if "shard_count" in ok and "shard_merge_records" in ok:
        if ok["shard_count"] > 0 and ok["shard_merge_records"] == 0:
            errors.append(f"{where}: shard_count = {ok['shard_count']} but "
                          "shard_merge_records = 0 (merge saw no records)")
    return errors


# Canonicalization counters (bench_modelcheck_scaling part 3). Optional, but
# when present the prune counters must be a plausible prune profile: only
# presence, integrality and the applies>0-when-pruned invariant are
# checked — never exact values.
CANON_COUNTERS = ("canonicalize.full_applies",
                  "canonicalize.first_word_pruned",
                  "canonicalize.prefix_pruned")


def check_canonicalize_counters(counters: object, where: str) -> list[str]:
    if not isinstance(counters, dict):
        return []
    errors = []
    ok = {}
    present = [n for n in CANON_COUNTERS if n in counters]
    if present and len(present) != len(CANON_COUNTERS):
        missing = sorted(set(CANON_COUNTERS) - set(present))
        errors.append(f"{where}: canonicalize.* counters are partial "
                      f"(missing {', '.join(missing)})")
    for name in present:
        value = counters[name]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append(f"{where}: counter {name!r} = {value!r} is not a "
                          "non-negative integer")
        else:
            ok[name] = value
    pruned = (ok.get("canonicalize.first_word_pruned", 0) +
              ok.get("canonicalize.prefix_pruned", 0))
    if pruned > 0 and ok.get("canonicalize.full_applies", 0) == 0:
        errors.append(f"{where}: canonicalize counters pruned {pruned} "
                      "elements but applied none (every state's identity "
                      "element wins at least its first comparison)")
    return errors


# Hot-loop phase counters (bench_modelcheck_scaling part 3). Optional, but
# when present the breakdown must be a plausible profile. Exact phase times
# are wall-clock (never compared); only presence, integrality and the
# scanned-groups/chain/probe-time invariants are checked.
PHASE_COUNTERS = ("phase_expand_ns", "phase_canonicalize_ns",
                    "phase_probe_ns", "phase_encode_ns",
                    "probe_groups_scanned", "probe_max_group_chain")


def check_phase_counters(counters: object, where: str) -> list[str]:
    if not isinstance(counters, dict):
        return []
    errors = []
    ok = {}
    present = [n for n in PHASE_COUNTERS if n in counters]
    if present and len(present) != len(PHASE_COUNTERS):
        missing = sorted(set(PHASE_COUNTERS) - set(present))
        errors.append(f"{where}: hot-loop phase counters are partial "
                      f"(missing {', '.join(missing)})")
    for name in present:
        value = counters[name]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append(f"{where}: counter {name!r} = {value!r} is not a "
                          "non-negative integer")
        else:
            ok[name] = value
    scanned = ok.get("probe_groups_scanned", 0)
    chain = ok.get("probe_max_group_chain", 0)
    if scanned > 0:
        if chain < 1:
            errors.append(f"{where}: probe_groups_scanned={scanned} with "
                          "probe_max_group_chain=0 (every probe walks at "
                          "least one group)")
        if ok.get("phase_probe_ns", 0) == 0 and "phase_probe_ns" in ok:
            errors.append(f"{where}: probe_groups_scanned={scanned} but "
                          "phase_probe_ns=0 (group probes take time)")
    if chain > scanned:
        errors.append(f"{where}: probe_max_group_chain={chain} > "
                      f"probe_groups_scanned={scanned} (a single chain "
                      "cannot exceed the total)")
    return errors


def main(argv: list[str]) -> int:
    files = [Path(a) for a in argv]
    if not files:
        print("usage: check_bench_json.py BENCH_*.json", file=sys.stderr)
        return 1
    errors = []
    for f in files:
        errors.extend(check_report(f))
    for e in errors:
        print(e, file=sys.stderr)
    print(f"validated {len(files)} report(s): "
          f"{'OK' if not errors else f'{len(errors)} error(s)'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
