"""Time a workload's operations on the baseline copy of phdisk, on request.

    python3 bench/worker.py <workload> <seed> <out_dir>

`run.py` starts this with `bench/baseline` on PYTHONPATH, so `phdisk`
here, in `workloads.py` and in the CLI children a workload starts is the
frozen baseline copy, not the program under test.  The worker builds the
workload for the seed, warms it and writes `ready`; then, for each
operation index it reads from stdin, it runs that operation's call and
writes the seconds it took.  Outputs are not checked here: the baseline
is the reference, and `run.py` checks the program's own outputs.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

reply = sys.stdout
sys.stdout = sys.stderr  # only replies go to the pipe

import phdisk  # noqa: E402
import workloads  # noqa: E402

BASELINE = Path(__file__).resolve().parent / "baseline" / "phdisk"


def main() -> int:
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    if Path(phdisk.__file__).resolve().parent != BASELINE:
        print(f"worker: imported phdisk from {phdisk.__file__}, not {BASELINE}", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, out_dir, False)
    wl.warm()
    ops = wl.ops()
    print("ready", file=reply, flush=True)
    for line in sys.stdin:
        op = ops[int(line)]
        t0 = time.perf_counter()
        op.call()
        print(time.perf_counter() - t0, file=reply, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
