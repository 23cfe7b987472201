"""One workload in its own single-threaded process, as a closed loop with one
client: each operation starts only after the previous one has finished.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --tmpdir DIR
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Prints one JSON record on stdout.  `run.py` starts this process; see there
for the metrics made from the record.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def setup(name: str, seed: int, sizes: dict | None = None):
    """The workload and its pool of seeded pass inputs."""
    wl = workloads.WORKLOADS[name]
    sizes = sizes or wl.sizes
    return wl, sizes, wl.make_inputs(random.Random(f"{name}:{seed}"), sizes)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tmpdir: str, sizes: dict | None = None) -> dict:
    """Run passes until the next one would end after `seconds`; at least one,
    and for a workload with `cover_pool` at least one per pool input.

    With `trace`, every pass is run twice on the same inputs, untraced and
    then traced, so the tracing overhead and (for verify) the identity of
    the two reports are measured on equal work.

    Passes cycle through the pool, so an operation on the same input runs
    several times.  Latencies count every run; `attempted` and `failed`
    count each distinct operation (pool input, place in the pass) once, so
    they depend on the seed alone and not on how many passes the host's
    speed allowed.  A repeat whose check comes out otherwise than the first
    run of that operation makes the run invalid.
    """
    t_setup = time.perf_counter()
    wl, sizes, pool = setup(name, seed, sizes)
    setup_s = time.perf_counter() - t_setup
    ctx = workloads.Context(tmpdir)
    tracer = Tracer() if trace else None
    op_s, pass_s, pass_op_p50, round_s = [], [], [], []
    first: dict[tuple[int, int], workloads.Op] = {}
    flips = []
    identical = True
    min_passes = len(pool) if wl.cover_pool else 1
    start = time.perf_counter()
    i = 0

    def record(done: list) -> None:
        for j, op in enumerate(done):
            op_s.append(op.seconds)
            seen = first.setdefault((i % len(pool), j), op)
            if seen.ok != op.ok:
                flips.append(f"pass input {i % len(pool)} op {j}: {seen.ok} then {op.ok} ({op.note})")

    while i < min_passes or time.perf_counter() - start + statistics.median(round_s) <= seconds:
        inp = pool[i % len(pool)]
        t_round = t0 = time.perf_counter()
        done = wl.run_pass(inp, sizes, ctx)
        pass_s.append(time.perf_counter() - t0)
        pass_op_p50.append(statistics.median(op.seconds for op in done))
        record(done)
        if tracer:
            untraced = dict(ctx.outputs)
            tracer.install()
            t0 = time.perf_counter()
            try:
                record(wl.run_pass(inp, sizes, ctx))
            finally:
                tracer.uninstall()
            tracer.end_pass(time.perf_counter() - t0)
            identical = identical and ctx.outputs == untraced
        ctx.outputs.clear()
        round_s.append(time.perf_counter() - t_round)
        i += 1

    ops = list(first.values())
    errs = [op.rel_err for op in ops if op.rel_err is not None]
    return {
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "passes": len(pass_s),
        "pass_s": pass_s,
        "pass_op_p50_s": pass_op_p50,
        "op_s": op_s,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "accuracy_misses": sum(op.accuracy_miss for op in ops),
        "invalid": (flips + [op.note for op in ops if not op.ok and not op.accuracy_miss])[:20],
        "max_rel_err": max(errs) if errs else None,
        "trace_json_identical": identical if tracer else None,
        "layers": tracer.layer_metrics(pass_s) if tracer else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmpdir")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.setup_only:
        setup(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0
    if not args.tmpdir:
        ap.error("--tmpdir is required unless --setup-only")
    import_s = time.perf_counter() - _T0
    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tmpdir)
    rec["setup_s"] += import_s
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
