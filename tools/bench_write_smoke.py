#!/usr/bin/env python3
"""Write-path smoke gate: rerun fig8/fig9 and diff against the baselines.

Runs the fig8_lfs_small and fig9_lfs_large benchmarks into an output
directory and compares each fresh BENCH_*.json against the committed
baseline at the repository root with bench_compare.py, failing on a
>10% slowdown in any row.  The rows report *virtual* time, so an honest
refactor reproduces them to the nanosecond; the threshold only absorbs a
deliberately retuned cost model.  The write-behind ablation rows are
included, so a regression in the commit pipeline's coalescing, the
stable-write fast path, or a client that resends a slow COMMIT shows up
as a virtual-time delta.

Usage: bench_write_smoke.py <fig8-binary> <fig9-binary> <repo-root> <out-dir>
"""

import os
import subprocess
import sys


def main(argv):
    if len(argv) != 5:
        print(__doc__.strip().splitlines()[-1])
        return 2
    fig8, fig9, root, out_dir = argv[1:]
    os.makedirs(out_dir, exist_ok=True)
    compare = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "bench_compare.py")
    for binary, name in ((fig8, "fig8_lfs_small"), (fig9, "fig9_lfs_large")):
        run = subprocess.run([binary, f"--bench_json_dir={out_dir}"],
                             stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True)
        sys.stdout.write(run.stdout)
        if run.returncode != 0:
            print(f"FAIL: {binary} exited {run.returncode}")
            return 1
        rc = subprocess.call([
            sys.executable, compare, "compare", "--threshold", "0.10",
            os.path.join(root, f"BENCH_{name}.json"),
            os.path.join(out_dir, f"BENCH_{name}.json"),
        ])
        if rc != 0:
            return rc
    print("write smoke: fig8 and fig9 within 10% of the committed baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
