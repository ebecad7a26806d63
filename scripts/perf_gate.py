#!/usr/bin/env python3
"""Perf gate for the BENCH_*.json reports.

Every report has the one schema internal/benchio writes:

    {"bench": "...", "params": {...},
     "values": {"slash/path": number, ...},
     "gates":  {"slash/path": {"min": lo, "max": hi, "rel": tol}, ...}}

The gate loops over the current report's declared gates and knows no
report, phase or field by name. A gated value fails when it is missing,
below its inclusive `min`, above its inclusive `max`, or, for a `rel`
gate, more than `rel` (a fraction) over the previous run's value. With
no previous report, a previous report in another shape, a previous
report taken with other `params` (sizes, sampler, host shape: its
numbers measure something else), or no positive previous value for the
path, only the relative check is skipped.

Usage:
    perf_gate.py PREV.json CURRENT.json       # one report
    perf_gate.py PREV_DIR  CURRENT_DIR        # every BENCH_*.json in CURRENT_DIR
    perf_gate.py --summary PREV CUR           # delta table over every value,
                                              # informational only (exit 0)
"""

import glob
import json
import os
import sys


def pair_files(prev, cur):
    """Yield (name, prev_path_or_None, cur_path) report pairs."""
    if os.path.isdir(cur):
        for cpath in sorted(glob.glob(os.path.join(cur, "BENCH_*.json"))):
            ppath = os.path.join(prev, os.path.basename(cpath))
            yield os.path.basename(cpath), (ppath if os.path.isfile(ppath) else None), cpath
    else:
        yield os.path.basename(cur), (prev if os.path.isfile(prev) else None), cur


def load_report(path):
    """The (params, values) of a report; both {} when there is none to compare."""
    if path is None:
        return {}, {}
    with open(path) as f:
        doc = json.load(f)
    values = doc.get("values")
    if not isinstance(values, dict):
        return {}, {}
    return doc.get("params") or {}, values


def check(gates, values, prev):
    """Print one line per gated path; return the failing paths."""
    failures = []
    for path in sorted(gates):
        gate, now, was = gates[path], values.get(path), prev.get(path)
        problems = []
        if now is None:
            problems.append("missing")
        else:
            if "min" in gate and now < gate["min"]:
                problems.append("below min %g" % gate["min"])
            if "max" in gate and now > gate["max"]:
                problems.append("above max %g" % gate["max"])
            if gate.get("rel") and was and was > 0 and now > was * (1 + gate["rel"]):
                problems.append("%+.1f%% over previous %g (rel %g%%)"
                                % (100 * (now - was) / was, was, 100 * gate["rel"]))
        print("%-44s %14s  %s" % (path, "-" if now is None else "%.6g" % now,
                                  "FAIL: " + "; ".join(problems) if problems else "ok"))
        if problems:
            failures.append(path)
    return failures


def summary(values, prev):
    for path in sorted(set(values) | set(prev)):
        now, was = values.get(path), prev.get(path)
        if now is None or was is None:
            print("%-44s %s" % (path, "(removed)" if now is None else "(new) %.6g" % now))
        elif was:
            print("%-44s %14.6g -> %14.6g (%+6.1f%%)" % (path, was, now, 100 * (now - was) / was))
        else:
            print("%-44s %14.6g -> %14.6g" % (path, was, now))


def main(argv):
    is_summary = "--summary" in argv
    args = [a for a in argv if a != "--summary"]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    failures = []
    for name, ppath, cpath in pair_files(*args):
        print("== %s ==" % name)
        if is_summary:
            try:
                summary(load_report(cpath)[1], load_report(ppath)[1])
            except (OSError, ValueError) as err:
                print("   (unreadable: %s)" % err)
            print()
            continue
        prev_params, prev = load_report(ppath)
        with open(cpath) as f:
            doc = json.load(f)
        params = doc.get("params") or {}
        differ = sorted(k for k in set(params) | set(prev_params) if params.get(k) != prev_params.get(k))
        if not prev:
            print("   (no previous values; relative checks skipped)")
        elif differ:
            print("   (params differ from the previous report: %s; relative checks skipped)" % ", ".join(differ))
            prev = {}
        gates = doc.get("gates")
        if not gates:
            print("   FAIL: the report declares no gates")
            failures.append(name)
        else:
            failures += [name + ": " + p for p in check(gates, doc.get("values", {}), prev)]
        print()
    if is_summary:
        print("delta summary: informational only")
        return 0
    if failures:
        print("perf gate: %d gated value(s) failed:\n  %s"
              % (len(failures), "\n  ".join(failures)), file=sys.stderr)
        return 1
    print("perf gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
