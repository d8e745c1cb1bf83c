#!/usr/bin/env python3
"""Key-negotiation scaling gate: run, diff, and check the knee's shape.

Runs the BM_NegotiationKnee sweep of the negotiation_scaling benchmark
(cold-start SRP+Rabin handshakes competing with a fixed data-client
population for one serial sim::Host) into a scratch directory, then
applies two gates:

  1. Baseline diff.  Delegates to bench_compare.py to diff the fresh
     BENCH_negotiation_scaling.json against the committed baseline.
     The rows report *virtual* time — a pure function of the cost
     model — so honest refactors reproduce the baseline exactly.  The
     comparison is not exact, though: it checks only each row's total
     (real_time_s) and fails only when a row is more than 10% slower,
     so a faster row or a moved counter passes.

  2. Knee shape.  Across the handshake-client sweep:
       * negotiations/sec must saturate before the end of the sweep
         (the knee — first row at >=80% of series peak — is not the
         last row);
       * cost-model-charged crypto utilization must be low in the
         first row (<=0.4) and dominate the last (>=0.6; the event
         loop charges each inter-event gap once, so interleaved
         timer/wire events keep the ledger share below the service-
         side busy fraction even at saturation);
       * the data path must show head-of-line starvation: the last
         row's data-op p99 at least doubles the first row's;
       * every row's clock ledger balances and nothing was shed (the
         admission queue is unbounded; loss would mean the rig itself
         is broken).

Usage: negotiation_smoke.py <negotiation_scaling-binary> <baseline.json> <scratch-dir>
"""

import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402


def knee_checks(doc):
    series = []  # (handshakers, counters)
    for run in doc["runs"]:
        name = run["name"]
        if not name.startswith("BM_NegotiationKnee/"):
            continue
        handshakers = int(name.split("/")[1])
        series.append((handshakers, dict(run.get("counters", {}))))
    if len(series) < 4:
        return [f"knee series too short ({len(series)} rows); "
                "expected the BM_NegotiationKnee handshaker sweep"]
    series.sort()

    failures = []
    for h, counters in series:
        if counters.get("ledger_ok", 0.0) != 1.0:
            failures.append(f"handshakers={h}: clock ledger does not balance")
        if counters.get("shed", 0.0) != 0.0:
            failures.append(f"handshakers={h}: {counters['shed']:g} requests "
                            "shed on an unbounded queue")

    rate = {h: c.get("negotiations_per_sec", 0.0) for h, c in series}
    peak = max(rate.values())
    knee = next(h for h, _ in series if rate[h] >= 0.8 * peak)
    last_h = series[-1][0]
    print(f"knee: handshakers={knee} "
          f"({rate[knee]:.2f} of peak {peak:.2f} negotiations/s)")
    if knee == last_h:
        failures.append(
            f"no knee: negotiations/sec still climbing at the last row "
            f"(handshakers={last_h}, {rate[last_h]:.2f}/s)")

    first_util = series[0][1].get("crypto_util", 0.0)
    last_util = series[-1][1].get("crypto_util", 0.0)
    if first_util > 0.4:
        failures.append(f"first row already crypto-saturated "
                        f"(crypto_util={first_util:.2f} > 0.4); sweep starts past the knee")
    if last_util < 0.6:
        failures.append(f"last row not crypto-saturated "
                        f"(crypto_util={last_util:.2f} < 0.6)")
    print(f"crypto_util: {first_util:.2f} (handshakers={series[0][0]}) -> "
          f"{last_util:.2f} (handshakers={last_h})")

    first_p99 = series[0][1].get("data_p99_us", 0.0)
    last_p99 = series[-1][1].get("data_p99_us", 0.0)
    if first_p99 <= 0.0 or last_p99 < 2.0 * first_p99:
        failures.append(
            f"data path not visibly starved: p99 {first_p99:.0f}us -> "
            f"{last_p99:.0f}us (expected >=2x growth across the sweep)")
    else:
        print(f"data p99: {first_p99:.0f}us -> {last_p99:.0f}us "
              f"({last_p99 / first_p99:.1f}x head-of-line growth)")
    return failures


def main(argv):
    if len(argv) != 4:
        print(__doc__.strip().splitlines()[-1])
        return 2
    binary, baseline, scratch = argv[1], argv[2], argv[3]
    os.makedirs(scratch, exist_ok=True)
    run = subprocess.run(
        [
            binary,
            "--benchmark_filter=BM_NegotiationKnee",
            f"--bench_json_dir={scratch}",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    sys.stdout.write(run.stdout)
    if run.returncode != 0:
        print(f"FAIL: {binary} exited {run.returncode}")
        return 1

    candidate = os.path.join(scratch, "BENCH_negotiation_scaling.json")
    compare = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "bench_compare.py")
    rc = subprocess.call([
        sys.executable, compare, "compare", "--threshold", "0.10",
        baseline, candidate,
    ])
    if rc != 0:
        return rc

    failures = knee_checks(bench_compare.load(candidate))
    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    print("negotiation smoke: all knee gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
