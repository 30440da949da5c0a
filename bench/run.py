"""Run one phdisk benchmark workload and print its metrics.

    python3 bench/run.py --workload riesz_256 --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45

Run from the root of a checkout; phdisk is imported from its `src/`, and
each operation is timed again on the frozen copy in `bench/baseline/`.
With --trace 0 the last line holds the end-to-end metrics, with --trace 1
the per-layer metrics of a separate traced run.  --workload all runs the
four workloads one after another, each in its own child process.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# pools held at one thread; set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "PHDISK_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BASELINE = BENCH / "baseline"  # frozen copy of phdisk, timed beside the program
NAMES = ("riesz_256", "beltrami_256", "transforms_512", "cli_256")
MIN_ROUNDS = 2
SETUPS_PER_ROUND = 3
SETUP_NOMINAL_S = 0.3  # the baseline's set-up time where the benchmark was written; fixes the unit

# One fresh interpreter's set-up: import phdisk, then the first transform on
# each grid, which builds that grid's radial engine.  Prints seconds.
SETUP_CODE = """
import time
t0 = time.perf_counter()
import phdisk
for n_theta, n_r in {grids!r}:
    phdisk.cauchy(phdisk.GridFunction.zeros(phdisk.make_grid(n_theta, n_r)))
print(time.perf_counter() - t0)
"""


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def measure_setup(grids, src: Path) -> float:
    """Seconds one fresh interpreter spends importing phdisk from src and building engines."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE.format(grids=tuple(grids))],
                          env=dict(os.environ, PYTHONPATH=str(src)), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.split()[-1])


class Baseline:
    """The workload's operations on the baseline copy of phdisk, in `worker.py`."""

    def __init__(self, name: str, seed: int, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), name, str(seed), str(out_dir)],
            env=dict(os.environ, PYTHONPATH=str(BASELINE)), cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self._reply()
        except BaseException:
            self.close()
            raise

    def _reply(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"baseline worker ended with code {self.proc.wait()}")
        return line

    def time_op(self, index: int) -> float:
        """Seconds the baseline spends in the call of operation `index`."""
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()
        return float(self._reply())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def peak_rss_mb(in_process: bool) -> float:
    """Peak resident memory of the process that ran phdisk: this one, or the
    largest child (set-up children hold less than a cli child)."""
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_op(op, tracer):
    """Time op.call, then check its output: (seconds in the call, error or None).

    A traced run records no spans while the benchmark checks.
    """
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        return time.perf_counter() - t0, exc
    dt = time.perf_counter() - t0
    if tracer:
        tracer.recording = False
    try:
        op.check(out)
    except Exception as exc:
        return dt, exc
    finally:
        if tracer:
            tracer.recording = True
    return dt, None


def run_rounds(wl, cls, base: Baseline | None, tracer, seconds: float) -> dict:
    """Rounds of the workload's operations; with a baseline, each call and
    each set-up is followed by the same on the baseline copy."""
    attempted = failed = rounds = 0
    unexpected = []
    calls: dict[str, list[float]] = {}  # operation name -> seconds per call
    base_calls: dict[str, list[float]] = {}  # the same on the baseline
    round_times, base_round_times = [], []
    setups = []  # (program, baseline) seconds, SETUPS_PER_ROUND pairs per round
    last_round = 0.0  # wall time of the last round, set-ups and baseline included
    t_start = time.perf_counter()
    # Rounds go on while the next one is expected to end before --seconds
    # plus half a round.  Set-ups are measured at the start of each round,
    # so that their samples spread over the run like the rounds' do.
    while rounds < MIN_ROUNDS or time.perf_counter() - t_start + last_round / 2 < seconds:
        t_round = time.perf_counter()
        if base:
            setups += [(measure_setup(cls.grids, SRC), measure_setup(cls.grids, BASELINE))
                       for _ in range(SETUPS_PER_ROUND)]
        spent = base_spent = 0.0
        for index, op in enumerate(wl.ops()):
            attempted += 1
            dt, error = run_op(op, tracer)
            spent += dt
            if error is not None:
                failed += 1
                if not op.known_fault:
                    unexpected.append(f"{op.name}: {type(error).__name__}: {error}")
            else:
                calls.setdefault(op.name, []).append(dt)
            if base:
                base_dt = base.time_op(index)
                base_spent += base_dt
                base_calls.setdefault(op.name, []).append(base_dt)
        round_times.append(spent)
        base_round_times.append(base_spent)
        rounds += 1
        last_round = time.perf_counter() - t_round
    return {
        "rounds": rounds, "attempted": attempted, "failed": failed, "unexpected": unexpected,
        "round_s": round_times, "baseline_round_s": base_round_times, "calls": calls,
        "baseline_calls": base_calls, "setup_s": setups,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import phdisk
    import tracing
    import workloads

    out_dir = BENCH / "out" / name
    out_dir.mkdir(parents=True, exist_ok=True)
    cls = workloads.WORKLOADS[name]
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install(phdisk)
    wl = cls(seed, out_dir, traced)
    wl.warm()
    first_round_span = len(tracer.spans) if tracer else 0
    base = None if traced else Baseline(name, seed, out_dir / "baseline")
    try:
        summary = run_rounds(wl, cls, base, tracer, seconds)
        if not traced:  # before the worker ends, so its children are not counted
            summary["peak_rss_mb"] = peak_rss_mb(cls.in_process)
    finally:
        if base:
            base.close()

    summary.update(workload=name, seed=seed)
    if traced:
        summary["per_layer"] = tracing.per_layer_metrics(tracer.spans, first_round_span,
                                                         summary["rounds"])
        tracer.write(out_dir / f"trace_seed{seed}.json")
    (out_dir / f"summary_seed{seed}_trace{int(traced)}.json").write_text(json.dumps(summary))
    return summary


def report(s: dict, traced: bool) -> dict:
    """Print the readable lines; return the result object.

    The metrics and their units are the ones BENCHMARK.json lists.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if traced else "end_to_end"]
    print(f"workload {s['workload']}  seed {s['seed']}  traced {int(traced)}  rounds {s['rounds']}")
    print(f"  operations attempted {s['attempted']}, failed {s['failed']}")
    for line in s["unexpected"]:
        print(f"  FAILED {line}")
    for op, values in s["calls"].items():
        line = f"  {op:38s} {statistics.median(values):8.4f} s"
        if op in s["baseline_calls"]:
            line += f"  baseline {statistics.median(s['baseline_calls'][op]):8.4f} s"
        print(line + f"  (median of {len(values)} calls)")
    print("  round wall s: " + " ".join(f"{t:.4f}" for t in s["round_s"]))
    if traced:
        values = s["per_layer"]
    else:
        base = s["baseline_round_s"]
        setup_ratio = statistics.median(t / b for t, b in s["setup_s"])
        values = {"setup_s": setup_ratio * SETUP_NOMINAL_S,
                  "round_ratio": statistics.median(t / b for t, b in zip(s["round_s"], base)),
                  "peak_rss_mb": s["peak_rss_mb"]}
        print("  baseline round wall s: " + " ".join(f"{t:.4f}" for t in base))
        print(f"  set-up wall s, median of {len(s['setup_s'])}: "
              f"{statistics.median(t for t, _ in s['setup_s']):.4f}, "
              f"baseline {statistics.median(b for _, b in s['setup_s']):.4f}, "
              f"median ratio {setup_ratio:.4f}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}")
    return {"correct": not s["unexpected"], "attempted": s["attempted"],
            "failed": s["failed"], "metrics": metrics}


def run_all(args) -> int:
    results = {}
    for name in NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return fail(f"workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "BENCHMARK.json").is_file():
        return fail(f"no BENCHMARK.json in {ROOT}")
    if not (SRC / "phdisk" / "__init__.py").is_file():
        return fail(f"no phdisk sources under {SRC}; run from a checkout of the repository")
    if args.workload == "all":
        return run_all(args)
    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and every process it starts, so that each
        # baseline timing runs on the CPU the program's timing ran on
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import phdisk

    if Path(phdisk.__file__).resolve().parent != SRC / "phdisk":
        return fail(f"imported phdisk from {phdisk.__file__}, not from {SRC}")
    summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(summary, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
