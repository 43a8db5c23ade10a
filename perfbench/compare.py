#!/usr/bin/env python3
"""Compares two sets of benchmark runs: a parent and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl [--rules FILE]

Each set is a file of run records as `run.py --out` appends them; only
untraced runs (--trace 0) count. Make the sets by alternating parent and
change runs over the same seeds, at least ten pairs per workload.

The rules come from a rule file, by default the repository's
BENCHMARK.json: its `end_to_end` list holds one rule per metric (name,
unit, better direction, bound). For every workload and metric this prints
one row with a verdict:

  improved    at least 9 of 10 pairs favour the change, and the medians
              differ by more than the parent's interquartile range;
  worse       the change's median is worse than the parent's by more
              than the bound (and the parent's own spread is within it,
              or every change run is worse than every parent run);
  unchanged   neither, and the parent's spread is within the bound;
  unresolved  fewer than ten pairs, or the parent's spread is wider than
              the bound so a regression of that size could hide in it.

A workload gets no verdicts (every row reads `unresolved`) when either
set holds a run with a wrong answer or a broken invariant, or when the
change fails a larger share of its operations than the parent.

Runs from unlike hosts (CPU model, nproc) or with unlike input digests
for the same workload and seed are flagged. The exit code is 1 when any
row is `worse` or any workload got no verdicts, else 0.
"""

import argparse
import json
import os
import statistics
import sys

MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def load_runs(path):
    runs = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{n}: not JSON: {e}")
            if rec.get("trace") == 0:
                runs.append(rec)
    return runs


def load_rules(path):
    with open(path) as f:
        doc = json.load(f)
    rules = doc.get("end_to_end")
    if not isinstance(rules, list) or not rules:
        sys.exit(f"{path}: no per-metric rules (`end_to_end` list)")
    for r in rules:
        if r.get("better") not in ("lower", "higher") or "bound" not in r:
            sys.exit(f"{path}: rule {r!r} lacks `better` or `bound`")
    return rules


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def better(a, b, direction):
    """True when value a is better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, rule):
    """One row's verdict plus the figures behind it."""
    d = rule["better"]
    pairs = list(zip(parent, change))
    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    spread = iqr / abs(med_p) if med_p else float("inf")
    spread_ok = spread <= rule["bound"]
    wins = sum(1 for p, c in pairs if better(c, p, d))
    worse_by = ((med_c - med_p) if d == "lower" else (med_p - med_c))
    worse_share = worse_by / abs(med_p) if med_p else float("inf")
    all_better = all(better(c, p, d) for c in change for p in parent)
    all_worse = all(better(p, c, d) for c in change for p in parent)
    if len(pairs) < MIN_PAIRS:
        v = "unresolved"
    elif (wins >= MIN_WIN_SHARE * len(pairs) and better(med_c, med_p, d)
          and abs(med_c - med_p) > iqr):
        v = "improved"
    elif worse_share > rule["bound"] and (spread_ok or all_worse):
        v = "worse"
    elif spread_ok or all_better:
        v = "unchanged"
    else:
        v = "unresolved"
    return v, med_p, med_c, spread, wins, len(pairs)


def failed_share(runs):
    attempted = sum(r["result"]["attempted"] for r in runs)
    return sum(r["result"]["failed"] for r in runs) / max(1, attempted)


def refusals(workload, p_runs, c_runs):
    """Why the workload's runs cannot be compared, one line each."""
    out = []
    for side, runs in (("parent", p_runs), ("change", c_runs)):
        bad = [r["seed"] for r in runs if r["result"]["correct"] is not True]
        if bad:
            out.append(f"{workload} {side} runs with wrong answers or broken "
                       f"invariants, seeds {bad}")
    fp, fc = failed_share(p_runs), failed_share(c_runs)
    if fc > fp:
        out.append(f"{workload} change fails {fc:.4%} of its operations, "
                   f"parent {fp:.4%}")
    return out


def flag_unlike(parent, change):
    flags = []
    hosts = {(r["header"].get("cpu_model"), r["header"].get("nproc"))
             for r in parent + change}
    if len(hosts) > 1:
        flags.append(f"runs come from unlike hosts: {sorted(map(str, hosts))}")
    digests = {}
    for r in parent + change:
        key = (r["workload"], r["seed"], r.get("seconds"))
        digests.setdefault(key, set()).add(r["header"].get("stream_digest"))
    for key, ds in sorted(digests.items()):
        if len(ds) > 1:
            flags.append(f"unlike input digests for workload {key[0]} seed "
                         f"{key[1]}: {sorted(map(str, ds))}")
    return flags


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--rules", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = ap.parse_args()
    rules = load_rules(args.rules)
    parent, change = load_runs(args.parent), load_runs(args.change)

    for f in flag_unlike(parent, change):
        print(f"FLAG: {f}")
    workloads = sorted({r["workload"] for r in parent} |
                       {r["workload"] for r in change})
    print(f"{'workload':<16} {'metric':<24} {'parent':>12} {'change':>12} "
          f"{'delta':>8} {'spread':>7} {'bound':>6} {'wins':>6}  verdict")
    any_worse = any_refused = False
    for w in workloads:
        p_runs = [r for r in parent if r["workload"] == w]
        c_runs = [r for r in change if r["workload"] == w]
        if not p_runs or not c_runs:
            print(f"{w:<16} {'(missing runs on one side)':<24}")
            continue
        refused = refusals(w, p_runs, c_runs)
        for why in refused:
            print(f"FLAG: {why}")
        any_refused |= bool(refused)
        for rule in rules:
            m = rule["name"]
            pv = [r["result"]["metrics"][m]["value"] for r in p_runs
                  if m in r["result"]["metrics"]]
            cv = [r["result"]["metrics"][m]["value"] for r in c_runs
                  if m in r["result"]["metrics"]]
            if not pv or not cv:
                print(f"{w:<16} {m:<24} {'(no values)':>12}")
                continue
            v, mp, mc, spread, wins, n = verdict(pv, cv, rule)
            if refused:
                v = "unresolved"
            any_worse |= v == "worse"
            delta = (mc - mp) / abs(mp) * 100 if mp else float("inf")
            print(f"{w:<16} {m:<24} {mp:>12.5g} {mc:>12.5g} {delta:>+7.1f}% "
                  f"{spread:>7.3f} {rule['bound']:>6.2f} {wins:>2}/{n:<3}  {v}")
    return 1 if any_worse or any_refused else 0


if __name__ == "__main__":
    sys.exit(main())
