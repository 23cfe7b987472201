"""The benchmark's four workloads: seeded inputs, one pass of work, and an
oracle check of every operation.

Each workload is a `Workload` with a `make_inputs(rng, sizes)` that builds a
pool of pass inputs from the benchmark's seed, and a `run_pass(inp, sizes,
ctx)` that performs one pass and returns one `Op` per operation.  The
library only ever sees the generated inputs.  Why each workload exists is
written down in README.md next to this file.

Library calls go through module attributes (`cy.integrate_for_w`, not a
name imported from the module), so the tracer's wrappers see them.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction as Q
from typing import Callable

from hccycles import cli
from hccycles import closedforms as cf
from hccycles import cycles as cy
from hccycles import diagrams as dg
from hccycles import series as se

VERIFY_SUITES = ("combinatorics", "series", "integrals", "identities")

# Tolerance on |estimate - a(w)| / |a(w)| for the rank-1 and rank-2 checks.
LEADING_TOL = 1e-3


@dataclass
class Op:
    """Outcome of one operation: its latency, whether its output passed the
    oracle check, and the relative deviation from a closed form if it has one.

    An operation that fails only because a finite floating-point result
    deviates from its closed form by more than the tolerance is an
    `accuracy_miss`: it counts as failed, but the run stays correct.  The
    rank-1 quadrature misses a(w) at small k (ROADMAP open item 2), so
    sweep-r1 has such failures at every seed.  Every other failure -- an
    exception, a non-finite value, an exact check or a verify check that
    does not hold -- makes the run incorrect.
    """

    seconds: float
    ok: bool
    rel_err: float | None = None
    accuracy_miss: bool = False
    note: str = ""


@dataclass
class Context:
    """Per-run state a pass may need: a scratch directory for `--out` files
    and the bytes of each verify report, kept for the trace identity check."""

    tmpdir: str
    outputs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    make_inputs: Callable[[random.Random, dict], list]
    run_pass: Callable[[object, dict, Context], list]
    # Run every pool input at least once, however long that takes: for a
    # workload whose failures are expected, so that `failed` does not depend
    # on how much of the pool the host's speed let a run reach.
    cover_pool: bool = False


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def guarded(body) -> Op:
    """Run one operation; an exception is a failed operation, never an abort."""
    t0 = time.perf_counter()
    try:
        return body()
    except Exception as exc:  # the run must go on; the failure is counted
        return Op(time.perf_counter() - t0, False, note=f"{type(exc).__name__}: {exc}")


def rel_dev(est: complex, oracle: complex) -> float:
    return abs(est - oracle) / abs(oracle)


# -- seeded spectral parameters -------------------------------------------------


def generic_sp(rng: random.Random, n: int, lam_num: int, k_nums: range, k_den: int,
               depth: int = 0) -> se.SpectralParam:
    """Rejection-sample a generic (lambda, k) of rank n.

    lambda_i = a_i/37 for |a_i| <= lam_num (the last coordinate closes the sum
    to zero) and k = b/k_den for b in k_nums.  Fixed denominators keep the
    size of the exact rationals, and so the cost of the exact layers, alike
    from draw to draw.  With `depth`, a draw whose Freudenthal recurrence is
    resonant within that depth is rejected as well: `is_generic()` admits
    some of those, and the library rightly raises `ResonanceError` on them.
    """
    while True:
        lam = [Q(rng.randint(-lam_num, lam_num), 37) for _ in range(n)]
        lam.append(-sum(lam))
        sp = se.SpectralParam(tuple(lam), Q(rng.choice(k_nums), k_den))
        if sp.is_generic() and not resonant(sp.lam, depth):
            return sp


def resonant(lam: tuple, depth: int) -> bool:
    """Whether 2(w.lambda, beta) + (beta, beta) vanishes for some w and some
    beta of height 1..depth: the bracket of the recurrence at mu + beta.
    Worked in integers, with lambda scaled by its common denominator d."""
    d = math.lcm(*(x.denominator for x in lam))
    translates = set(itertools.permutations(int(x * d) for x in lam))
    for beta in _roots_cone(len(lam) - 1, depth):
        norm2 = d * sum(b * b for b in beta)
        if any(2 * sum(x * b for x, b in zip(wc, beta)) + norm2 == 0 for wc in translates):
            return True
    return False


@functools.lru_cache(maxsize=None)
def _roots_cone(n: int, depth: int) -> tuple:
    """The beta of height 1..depth in the positive root cone, as int vectors."""
    return tuple(
        tuple(int(b) for b in se.offset_vector(n, offset))
        for h in range(1, depth + 1)
        for offset in se.offsets_of_height(n, h)
    )


# -- verify: the four `hc verify` suites, in-process -----------------------------


def verify_inputs(rng: random.Random, sizes: dict) -> list:
    return [rng.randrange(1 << 30) for _ in range(sizes["pool"])]


def verify_pass(seed: int, sizes: dict, ctx: Context) -> list:
    ops = []
    for suite in sizes["suites"]:
        path = os.path.join(ctx.tmpdir, f"verify-{suite}-{seed}.json")
        argv = ["verify", suite, "--seed", str(seed), "--out", path]

        def body(argv=argv, path=path, suite=suite):
            rc, dt = timed(cli.main, argv)
            with open(path, "rb") as fh:
                blob = fh.read()
            ctx.outputs[(suite, seed)] = blob
            report = json.loads(blob)
            bad = [c["tag"] for c in report["checks"] if not c["passed"]]
            return Op(dt, rc == 0 and not bad, note="; ".join(bad))

        ops.append(guarded(body))
    return ops


# -- series: Freudenthal tables, residuals and commuting-operator symbols --------


def series_inputs(rng: random.Random, sizes: dict) -> list:
    # One draw per (rank, w), so a pass averages the cost of many draws.
    pool = []
    for _ in range(sizes["pool"]):
        tables = [
            (generic_sp(rng, n, 36, range(1, 73), 29, depth), w, depth)
            for n, depth in sizes["depths"].items()
            for w in dg.all_permutations(n + 1)
        ]
        pool.append((tables, Q(rng.randint(1, 72), 29)))
    return pool


def series_pass(inp, sizes: dict, ctx: Context) -> list:
    tables, k_sym = inp
    ops = []
    for sp, w, depth in tables:

        def body(sp=sp, w=w, depth=depth):
            t0 = time.perf_counter()
            table = se.freudenthal_table_for_w(w, sp, depth)
            residual = se.residual_L(table)
            dt = time.perf_counter() - t0
            ok = residual == 0
            if ok and sp.rank == 1:
                oracle = se.a1_hypergeometric_coefficients(sp, w, depth)
                ok = [table.entries[(c,)] for c in range(depth + 1)] == oracle
            return Op(dt, ok, note="" if ok else f"rank {sp.rank} w={w.images} lambda={sp.lam} k={sp.k}")

        ops.append(guarded(body))

    n, depth = sizes["symbols"]

    def symbols():
        t0 = time.perf_counter()
        p2 = se.commuting_symbol_table(se.elementary_power_sum(n + 1, 2), n, k_sym, depth)
        p3 = se.commuting_symbol_table(se.elementary_power_sum(n + 1, 3), n, k_sym, depth)
        comm = se.operator_commutator(p2, p3, n)
        invariant = se.weyl_invariance_check(p2, n, k_sym) and se.weyl_invariance_check(p3, n, k_sym)
        dt = time.perf_counter() - t0
        ok = invariant and all(p.is_zero for p in comm.values())
        return Op(dt, ok, note="" if ok else f"[P2, P3] at k={k_sym}")

    ops.append(guarded(symbols))
    return ops


# -- tensor-r23: the quadrature node loop on big grids ---------------------------


def tensor_inputs(rng: random.Random, sizes: dict) -> list:
    # |lambda_i| <= 18/37 and k in [3/4, 7/4]: there a 41-point grid resolves
    # the rank-2 integrand (measured deviation <= 2.1e-5 over 24 draws);
    # larger |lambda| needs finer grids, which is not what this workload times.
    all_w = list(dg.all_permutations(4))
    pool = []
    for _ in range(sizes["pool"]):
        sp2 = generic_sp(rng, 2, 18, range(18, 43), 24)
        sp3 = generic_sp(rng, 3, 12, range(18, 43), 24)
        pool.append((sp2, sp3, rng.sample(all_w, sizes["r3_ws"])))
    return pool


def tensor_pass(inp, sizes: dict, ctx: Context) -> list:
    sp2, sp3, ws3 = inp
    ops = []
    q2 = cy.QuadratureSpec(points_per_axis=sizes["r2_points"])
    for w in dg.all_permutations(3):

        def r2(w=w):
            est, dt = timed(cy.leading_coeff_estimate, w, sp2, 1e-3, q2)
            err = rel_dev(est, cf.a_w(w, sp2))
            ok = err <= LEADING_TOL
            return Op(dt, ok, err, accuracy_miss=not ok and math.isfinite(err), note=f"rank 2 w={w.images}")

        ops.append(guarded(r2))

    # At P <= 11 a rank-3 result is still far from a(w) (deviation 1.5-78),
    # so no accuracy bound exists yet: the check is finiteness only.
    q3 = cy.QuadratureSpec(points_per_axis=sizes["r3_points"])
    z3 = [1e-6, 1e-4, 1e-2, 1.0]
    for w in ws3:

        def r3(w=w):
            val, dt = timed(cy.integrate_for_w, w, z3, sp3, q3)
            ok = math.isfinite(val.real) and math.isfinite(val.imag)
            return Op(dt, ok, note=f"rank 3 w={w.images}")

        ops.append(guarded(r3))
    return ops


# -- sweep-r1: many small rank-1 `hc integrate`-style operations -----------------


def sweep_inputs(rng: random.Random, sizes: dict) -> list:
    # k = b/40 covers (0, 5/2]; small k stays in even though the method
    # misses a(w) there (no draw is filtered by accuracy).
    ws = list(dg.all_permutations(2))
    return [
        [(generic_sp(rng, 1, 36, range(1, 101), 40), rng.choice(ws)) for _ in range(sizes["ops"])]
        for _ in range(sizes["pool"])
    ]


def sweep_pass(inp, sizes: dict, ctx: Context) -> list:
    p = sizes["points"]
    q1 = cy.QuadratureSpec(points_per_axis=p)
    q2 = cy.QuadratureSpec(points_per_axis=2 * p - 1)
    r = 1e-3
    ops = []
    for sp, w in inp:

        def body(sp=sp, w=w):
            t0 = time.perf_counter()
            est = cy.leading_coeff_estimate(w, sp, r, q1)
            fine = cy.integrate_for_w(w, [r, 1.0], sp, q2)
            a = cf.a_w(w, sp)
            dt = time.perf_counter() - t0
            err = rel_dev(est, a)
            if not math.isfinite(abs(fine)):
                return Op(dt, False, err, note=f"non-finite integral at k={sp.k} w={w.images}")
            ok = err <= LEADING_TOL
            return Op(dt, ok, err, accuracy_miss=not ok and math.isfinite(err), note=f"k={sp.k} w={w.images}")

        ops.append(guarded(body))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify", {"pool": 8, "suites": VERIFY_SUITES}, verify_inputs, verify_pass),
        Workload("series", {"pool": 8, "depths": {1: 12, 2: 6, 3: 6}, "symbols": (2, 4)},
                 series_inputs, series_pass),
        Workload("tensor-r23", {"pool": 16, "r2_points": 41, "r3_points": 8, "r3_ws": 2},
                 tensor_inputs, tensor_pass),
        Workload("sweep-r1", {"pool": 16, "ops": 250, "points": 121}, sweep_inputs, sweep_pass,
                 cover_pool=True),
    )
}
