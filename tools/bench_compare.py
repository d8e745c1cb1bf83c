#!/usr/bin/env python3
"""Compare two machine-readable benchmark result files.

Every bench/ binary writes a BENCH_<name>.json file (schema 1, see
bench/obs_report.h) alongside its console output.  This tool either
validates one such file or diffs two of them:

    bench_compare.py validate BENCH_fig7_compile.json
    bench_compare.py compare baseline/BENCH_fig7_compile.json \
                             candidate/BENCH_fig7_compile.json

`compare` matches runs by name and reports the real-time delta for
each.  It exits non-zero if any shared run regressed by more than the
threshold (default 10%), making it usable as a CI gate:

    bench_compare.py compare --threshold 0.10 old.json new.json

Runs present in only one file are reported but never fail the gate
(benchmarks are added and retired across commits).

Host-time rows drift with the machine's speed.  `--reference NAME`
divides every row's real time by the NAME row of the same file before
the threshold test, so each row is measured in units of a fixed kernel
that slows down with it (bench/crypto_prims.cc's BM_ReferenceUnit):

    bench_compare.py compare --reference BM_ReferenceUnit old.json new.json

Both files must carry the NAME row.  Virtual-time rows need no
reference.
"""

import argparse
import json
import sys


def validate_timeline(path, name, tl):
    """Structurally validates one embedded telemetry timeline.

    Checks the invariants the C++ side guarantees by construction
    (src/obs/timeline.cc): window edges are monotone and contiguous,
    every utilization share is in [0, 1], and the per-window category
    nanoseconds sum exactly to the window's span.
    """
    where = f"{path}: timelines[{name!r}]"
    if not isinstance(tl, dict):
        raise ValueError(f"{where} must be an object")
    for key in ("window_ns", "start_ns", "end_ns", "tracks", "windows",
                "episodes"):
        if key not in tl:
            raise ValueError(f"{where} missing key {key!r}")
    windows = tl["windows"]
    if not isinstance(windows, list):
        raise ValueError(f"{where}.windows must be a list")
    prev_end = tl["start_ns"]
    for i, w in enumerate(windows):
        if w["begin_ns"] != prev_end:
            raise ValueError(
                f"{where}.windows[{i}]: begin {w['begin_ns']} != previous "
                f"end {prev_end} (windows must be contiguous)")
        if w["end_ns"] <= w["begin_ns"]:
            raise ValueError(
                f"{where}.windows[{i}]: empty or backwards window "
                f"[{w['begin_ns']}, {w['end_ns']})")
        prev_end = w["end_ns"]
        span = w["end_ns"] - w["begin_ns"]
        util_total = sum(w.get("util_ns", {}).values())
        if util_total != span:
            raise ValueError(
                f"{where}.windows[{i}]: util_ns sums to {util_total}, "
                f"span is {span}")
        for cat, share in w.get("util", {}).items():
            if not 0.0 <= share <= 1.0 + 1e-9:
                raise ValueError(
                    f"{where}.windows[{i}]: util share {cat}={share} "
                    f"outside [0, 1]")
    if windows and prev_end != tl["end_ns"]:
        raise ValueError(
            f"{where}: last window ends at {prev_end}, header says "
            f"{tl['end_ns']}")
    for i, ep in enumerate(tl["episodes"]):
        for key in ("kind", "begin_ns", "end_ns", "windows", "cause"):
            if key not in ep:
                raise ValueError(f"{where}.episodes[{i}] missing key {key!r}")
        if ep["end_ns"] <= ep["begin_ns"]:
            raise ValueError(f"{where}.episodes[{i}]: empty or backwards")


def load(path):
    """Parses and structurally validates one results file."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be an object")
    for key in ("bench", "schema", "runs"):
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
    if doc["schema"] != 1:
        raise ValueError(f"{path}: unsupported schema {doc['schema']!r}")
    if not isinstance(doc["runs"], list):
        raise ValueError(f"{path}: 'runs' must be a list")
    seen = set()
    for i, run in enumerate(doc["runs"]):
        if not isinstance(run, dict):
            raise ValueError(f"{path}: runs[{i}] must be an object")
        for key, kind in (("name", str), ("real_time_s", (int, float)),
                          ("iterations", int), ("error", bool)):
            if key not in run:
                raise ValueError(f"{path}: runs[{i}] missing key {key!r}")
            if not isinstance(run[key], kind):
                raise ValueError(f"{path}: runs[{i}].{key} has wrong type")
        if run["real_time_s"] < 0:
            raise ValueError(f"{path}: runs[{i}].real_time_s is negative")
        if run["name"] in seen:
            raise ValueError(f"{path}: duplicate run name {run['name']!r}")
        seen.add(run["name"])
    timelines = doc.get("timelines", {})
    if not isinstance(timelines, dict):
        raise ValueError(f"{path}: 'timelines' must be an object")
    for name, tl in timelines.items():
        # Timeline keys are base run names (no /iterations... suffix).
        if not any(r == name or r.startswith(name + "/") for r in seen):
            raise ValueError(f"{path}: timeline {name!r} matches no run")
        validate_timeline(path, name, tl)
    return doc


def cmd_validate(args):
    ok = True
    for path in args.files:
        try:
            doc = load(path)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(f"FAIL {path}: {e}")
            ok = False
            continue
        errored = [r["name"] for r in doc["runs"] if r["error"]]
        if errored:
            print(f"FAIL {path}: runs reported errors: {', '.join(errored)}")
            ok = False
            continue
        print(f"ok   {path}: bench={doc['bench']} runs={len(doc['runs'])}")
    return 0 if ok else 1


def cmd_compare(args):
    try:
        base = load(args.baseline)
        cand = load(args.candidate)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}")
        return 2
    if base["bench"] != cand["bench"]:
        print(f"warning: comparing different benches "
              f"({base['bench']!r} vs {cand['bench']!r})")

    base_runs = {r["name"]: r for r in base["runs"]}
    cand_runs = {r["name"]: r for r in cand["runs"]}
    base_unit = cand_unit = 1.0
    if args.reference is not None:
        units = []
        for path, runs in ((args.baseline, base_runs), (args.candidate, cand_runs)):
            ref = runs.get(args.reference)
            if ref is None or ref["error"] or ref["real_time_s"] <= 0:
                print(f"error: {path}: no usable reference row {args.reference!r}")
                return 2
            units.append(ref["real_time_s"])
        base_unit, cand_unit = units
        print(f"times in units of {args.reference}: baseline {base_unit:.6g} s, "
              f"candidate {cand_unit:.6g} s")
    regressions = []
    width = max((len(n) for n in base_runs.keys() | cand_runs.keys()), default=4)

    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'candidate':>12}  delta")
    for name in sorted(base_runs.keys() | cand_runs.keys()):
        b, c = base_runs.get(name), cand_runs.get(name)
        if b is None:
            print(f"{name:<{width}}  {'-':>12}  {c['real_time_s'] / cand_unit:>12.6g}  (new)")
            continue
        if c is None:
            print(f"{name:<{width}}  {b['real_time_s'] / base_unit:>12.6g}  {'-':>12}  (removed)")
            continue
        if b["error"] or c["error"]:
            print(f"{name:<{width}}  {'-':>12}  {'-':>12}  (errored)")
            continue
        b_time = b["real_time_s"] / base_unit
        c_time = c["real_time_s"] / cand_unit
        if b_time == 0:
            delta_str = "n/a" if c_time == 0 else "+inf"
            regressed = c_time > 0
        else:
            ratio = c_time / b_time - 1.0
            delta_str = f"{ratio:+.1%}"
            regressed = ratio > args.threshold
        flag = "  REGRESSION" if regressed else ""
        print(f"{name:<{width}}  {b_time:>12.6g}  {c_time:>12.6g}  {delta_str}{flag}")
        if regressed:
            regressions.append(name)

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%}: {', '.join(regressions)}")
        return 1
    print("\nno regressions beyond threshold")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check file structure")
    p_validate.add_argument("files", nargs="+")
    p_validate.set_defaults(func=cmd_validate)

    p_compare = sub.add_parser("compare", help="diff two result files")
    p_compare.add_argument("--threshold", type=float, default=0.10,
                           help="max allowed real-time regression (default 0.10)")
    p_compare.add_argument("--reference", metavar="NAME",
                           help="divide each row's real time by this row's, "
                                "in each file, before comparing")
    p_compare.add_argument("baseline")
    p_compare.add_argument("candidate")
    p_compare.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
