"""The hccycles benchmark: one workload per call, in its own process.

    python3 perfbench/run.py --workload verify|series|tensor-r23|sweep-r1 \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports `src/hccycles`).  The
workload runs in a child process (`worker.py`) with `HC_THREADS` removed and
numpy held to one thread.  Set-up, that is import plus input generation, is
also timed in SETUP_PROBES further child processes that stop after set-up,
half of them before the workload process and half after it.

Stdout gets two JSON lines.  The first is the run record: every metric,
the failure count and worst deviation from a closed form, a tail latency
with its sample count, and the Python and numpy versions, core count and
CPU model.  The last is the result: `correct`, `attempted`, `failed` and
`metrics` -- the end-to-end metrics with `--trace 0`, the per-layer ones
with `--trace 1`.  A checkout without `src/hccycles` exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
TIMEOUT_S = 150


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or ".suite_s." in name:
        return "s"
    if name.endswith("_ms") or name.startswith("op_ms."):
        return "ms"
    if ".ns_per_node." in name:
        return "ns"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def tail(samples_ms: list[float]) -> dict:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it."""
    xs = sorted(samples_ms)
    for q in (99.9, 99.0, 90.0):
        beyond = int(len(xs) * (1 - q / 100))
        if beyond >= 10:
            return {"percentile": q, "value": xs[len(xs) - beyond - 1], "samples": len(xs), "beyond": beyond}
    return {"percentile": 100.0, "value": xs[-1], "samples": len(xs), "beyond": 0}


def end_to_end(rec: dict, setups: list[float]) -> dict[str, float]:
    """Pass time and the per-pass median operation latency are averaged over
    the run's (untraced) passes.  On a shared host whose speed switches
    between regimes for seconds at a time, the mean over a run moves
    smoothly with the share of time spent in each, while a median jumps
    from one regime to the other (10-seed IQR/median of pass_s on a shared
    2-core Xeon VM: 0.10-0.20 with the mean, 0.12-0.27 with the median)."""
    return {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.mean(rec["pass_s"]),
        "op_ms.p50": 1e3 * statistics.mean(rec["pass_op_p50_s"]),
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def result_line(rec: dict, setups: list[float], trace: bool) -> dict:
    """The last stdout line: end-to-end metrics, or per-layer ones when traced."""
    metrics = rec["layers"] if trace else end_to_end(rec, setups)
    return {
        "correct": not rec["invalid"] and rec["trace_json_identical"] is not False,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def child(args: list[str], env: dict) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env, cwd=ROOT,
                         stdout=subprocess.PIPE, timeout=TIMEOUT_S, check=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hccycles" / "__init__.py").is_file():
        print(f"error: no src/hccycles under {ROOT}; run from a hccycles checkout", file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items() if k != "HC_THREADS"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=scratch)
    try:
        # Half the set-up probes run before the workload and half after it, so
        # the median samples the host's speed at both ends of the run.
        setups = [child([*common, "--setup-only"], env)["setup_s"] for _ in range(SETUP_PROBES // 2)]
        rec = child([*common, "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmpdir", tmpdir], env)
        setups += [child([*common, "--setup-only"], env)["setup_s"] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    setups.append(rec["setup_s"])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": rec["passes"],
        **end_to_end(rec, setups),
        "setup_s.samples": setups,
        "pass_s.samples": rec["pass_s"],
        "failed_frac": rec["failed"] / rec["attempted"],
        "max_rel_err": rec["max_rel_err"],
        "op_ms.tail": tail([1e3 * s for s in rec["op_s"]]),
        "accuracy_misses": rec["accuracy_misses"],
        "invalid_ops": rec["invalid"],
        "trace_json_identical": rec["trace_json_identical"],
        "layers": rec["layers"],
        "env": {"python": rec["python"], "numpy": rec["numpy"], "nproc": os.cpu_count(), "cpu": cpu_model()},
    }
    print(json.dumps(record))
    print(json.dumps(result_line(rec, setups, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
