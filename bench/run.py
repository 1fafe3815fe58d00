"""Benchmark of layerfmm: bound certification, reaction operators and
free-space box-pair passes.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports layerfmm from ./src.  Each run
builds the workload's seeded op list, repeats it in whole rounds for about
--seconds seconds, then checks the outputs of the first round (property
checks on every op, the independent reference on a fixed subset) and that
every later round reproduced them bit for bit.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics:
end-to-end metrics with --trace 0, per-layer metrics (see tracing.py) with
--trace 1.  A traced run also writes its per-function table for the last
round to bench_results/trace_<workload>_<seed>.json.  Details go to stderr.
"""

import os

# one thread: must be set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("certify", "reaction_ops", "free_space")
#: set-up is repeated in this many fresh interpreters, this one included,
#: and the median reported
SETUP_REPEATS = 3
#: largest relative deviation allowed when the reference is validated
REFERENCE_TOL = 1e-10


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load():
    """Import the package from ./src and the benchmark's workloads."""
    if not (ROOT / "src" / "layerfmm" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no layerfmm sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import layerfmm
    import workloads

    if Path(layerfmm.__file__).resolve().parent != ROOT / "src" / "layerfmm":
        raise SystemExit(f"run.py: imported layerfmm from {layerfmm.__file__}")
    return workloads


def set_up(name, seed):
    """Import, build the op list and fill the lazy caches; returns
    (workload, ops, seconds)."""
    start = time.perf_counter()
    workloads = load()
    workload = workloads.WORKLOADS[name]
    ops = workload.ops(seed)
    workload.warm(ops)
    return workload, ops, time.perf_counter() - start


def set_up_elsewhere(name, seed):
    """Seconds the same set-up takes in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def measure(workload, ops, seconds, tracer=None):
    """Run whole rounds of `ops` until another round would pass `seconds`.

    Only `workload.run` is inside a timed span; the collector is off
    during a round and runs between rounds, and the comparison with the
    first round happens between spans.  Returns the first round's outputs,
    the set of failed op indices, the op times of each round, the round
    times and, when tracing, one tracer snapshot per round.
    """
    first = [None] * len(ops)
    failed = set()
    op_times, round_times, snapshots = [], [], []
    gc.collect()
    gc.disable()
    start = time.perf_counter()
    try:
        while True:
            if tracer is not None:
                tracer.reset()
            round_start = time.perf_counter()
            busy = 0.0
            op_times.append([])
            for i, op in enumerate(ops):
                t0 = time.perf_counter()
                try:
                    out = workload.run(op)
                except Exception:  # one failed op must not end the run
                    out = None
                    log(f"op {i} raised:\n{traceback.format_exc(limit=4)}")
                span = time.perf_counter() - t0
                busy += span
                op_times[-1].append(span)
                if not round_times:
                    first[i] = out
                if out is None or (round_times and not workload.same(first[i], out)):
                    failed.add(i)
            round_times.append(busy)
            if tracer is not None:
                snapshots.append(tracer.snapshot())
            gc.collect()
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
    finally:
        gc.enable()
    return first, failed, op_times, round_times, snapshots


def check(workload, ops, first, failed, ref):
    """Property checks on every op, reference checks on the subset."""
    deviation = ref.validate()
    if deviation > REFERENCE_TOL:
        log(f"reference off its closed forms by {deviation:.3g}")
        return False
    for i, (op, out) in enumerate(zip(ops, first)):
        if out is None:
            continue
        problem = workload.check(op, out, workload.full_check(i))
        if problem:
            failed.add(i)
            log(f"op {i} failed its check: {problem}")
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload, ops, own_setup = set_up(args.workload, args.seed)
    if args.setup_only:
        print(own_setup)
        return 0
    import reference
    import tracing

    if not args.trace:
        setup_s = statistics.median(
            [own_setup] + [set_up_elsewhere(args.workload, args.seed)
                           for _ in range(SETUP_REPEATS - 1)]
        )
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        first, failed, op_times, round_times, snapshots = measure(
            workload, ops, args.seconds, tracer
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = check(workload, ops, first, failed, reference)

    rounds = len(round_times)
    best = [min(times) for times in zip(*op_times)]
    if tracer is not None:
        counts = [snap[:2] for snap in snapshots]
        if any(c != counts[0] for c in counts):
            log("per-layer counts differ between identical rounds")
            correct = False
        metrics = tracing.metrics(snapshots, sum(best))
        out_dir = ROOT / "bench_results"
        out_dir.mkdir(exist_ok=True)
        table = {"rounds": rounds, "metrics": metrics, "functions": tracer.functions()}
        path = out_dir / f"trace_{args.workload}_{args.seed}.json"
        path.write_text(json.dumps(table, indent=1) + "\n")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": sum(best), "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(best), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    log(
        f"{args.workload} seed={args.seed}: {rounds} rounds x {len(ops)} ops, "
        f"round times {[round(t, 3) for t in round_times]}, failed ops {sorted(failed)}"
    )
    result = {
        "correct": correct,
        "attempted": rounds * len(ops),
        "failed": rounds * len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
