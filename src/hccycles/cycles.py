"""Tower-of-loops cycles and quadrature of the multivalued form over them.

Geometry
--------
For w in S_{n+1} take its diagram with n+1 rows.  Row n+1 carries the fixed
arguments z_1..z_{n+1} with 0 < |z_1| < ... < |z_{n+1}|; every other point
(i,j) carries an integration variable looping around the origin anchored at
its target:

    t_{ij}(tau_{ij}) = e^{2 pi i tau_{ij}} (1 - f_eps(tau_{ij})) t_{tar(i,j)},

with the bump f_eps(x) = eps sin^2(pi x).  The integrand is an Euler-type
product of complex powers: per-variable monomials, cross-row and
within-row differences with exponents k-1 and 2-2k, and z-only factors.

Branches
--------
Every factor is raised to its power through a continuously chosen logarithm
anchored at tau -> 0+, where all bases are principal (for real lambda, k and
positive increasing z the non-vanishing bases are positive reals with
argument 0, and each collapsing base t_tar (1 - e^{2 pi i tau}(1-f)) has
principal argument -> -pi/2).  Because each difference factor is big - small
with |small/big| < 1 over the whole cube (enforced by the z-moduli
separation check), 1 - small/big stays in the right half-plane and the
argument decomposes in closed form:

    arg(big - small) = arg_unwound(big) + Arg(1 - small/big),
    arg_unwound(t_{ij}) = 2 pi * (sum of tau along the chain up from (i,j))
                          + Arg(z_collapse).

The winding therefore sits entirely in the explicit chain monomials and no
numerical continuation is needed on the quadrature path; a step-by-step
tracker (`phase_continuation`) is provided anyway and is tested against the
closed form.

Quadrature is a tensor product of one tanh-sinh rule per tau-axis
(`tanh_sinh_rule_with_complement`): each loop starts and ends at its branch
point, where the integrand behaves like tau^{k-1}, algebraic for
non-integer k, so the integral converges for k > 0 only.  The integrand is
broadcast over per-axis tau arrays, so each factor carries only the axes of
its chain; blocks of the grid fix its leading axes and are summed in C
order, so results are deterministic for a fixed spec.

The integrand times the Jacobian prod dt/dtau is split by axis
(`_plan`).  log t_p is log z_collapse(p) plus log1p(-f) + 2 pi i tau of
every axis on the chain up from p, so the log of each monomial, of the
t_tar in each vanishing factor and of the t_big in each difference
big - small is a constant plus one term per axis; so is the Jacobian
(t_tar is z_collapse times e^{2 pi i tau}(1 - f) of every point above on
the chain).  The vanishing base reads its own axis, and
log(1 - t_small/t_big) reads one axis when a row-n point meets a top-row
z, several otherwise.  So the integrand is exp(const) times
prod_a W_a(tau_a) times exp of the multi-axis differences, where each
per-axis weight W_a is one complex array holding the rule weight, the
Jacobian factor and the exp of every one-axis term on that axis.  At
rank 1 and at k = 1 there are no multi-axis differences; at rank 2 they
are 2 of 12 factors, at rank 3 9 of 30.

Only the multi-axis differences are evaluated per node.  Each one's log is
taken at the broadcast shape of its two points, as two contiguous real
arrays, log|1 - t_small/t_big| and its arctan2 (`_multi_sum`); the logs
are summed into a real log-modulus and a real argument at the block's
shape, smallest term first.  The block is exponentiated once with real
kernels alone, e^{mod} (1 + i t)/(1 - i t) with t = tan(arg/2)
(`_exp_block`): numpy's complex exp costs 30-40 times its real exp per
element (numpy 2.4.6 on an AVX-512 Xeon).  The block is then contracted
with the W_a of its free axes, last axis first.  Where the plan has no
multi-axis difference (rank 1, k = 1) every block is the constant 1, and
only the contraction runs.  The differences are listed in descending order
of the lowest axis they read (`_geometry`), so those that read no fixed
leading axis form a prefix, the head: their sum is the same in every block
and is built once per `integrate` call, and each block adds the rest, the
tail, rebuilding the t values of the points on the fixed axes alone
(without a tail, every block has the head's values).  exp(const), the W_a
of the fixed axes at their nodes and the scales that keep each free axis's
W_a at most its rule weight times its Jacobian factor are one factor per
block, whose log-modulus is summed before it is exponentiated: no weight
over- or underflows where the integrand itself does not.

Every block-sized array is a view of one module-level float64 workspace,
grown and never shrunk (`_workspace`): 6 rows of the block's size, 8 where
the head is kept beside a tail, so at most 8 MiB at `_BLOCK_NODES`, and a
warm call allocates no block-sized array.

What depends on an axis's nodes alone, and not on z, lambda or k, is one
per-axis node record: x, e^{2 pi i tau}(1 - f) and its log
log1p(-f) + 2 pi i tau, the log of the vanishing base
1 - e^{2 pi i tau}(1 - f), and the Jacobian factor
e^{2 pi i tau}(2 pi i (1 - f) - f'), with f the bump at tau, which the
record does not keep.
`integrate` takes its rule's record, and the rule weights times the
Jacobian factors, from a small cache keyed by (points per axis, bump), so
the bump is evaluated once per rule and not once per call; the cached
arrays are read-only.  Two more records are cached.  `_geometry`
holds what depends on the diagram alone: points, axes, chains, collapse
anchors and the factor slots, the t-factors without their exponents.
`_plan` holds what depends on the diagram and float (lambda, k): the
factors with a nonzero exponent, which the pointwise path reads, and
their regrouping by axis for quadrature.  The z-free part of each axis's
log is built once per call.  Pointwise evaluation and `t_values` build
records from their own tau (`_tau_nodes`).  There is one walk that builds
t, from the top row down (`_t_values`), for quadrature and pointwise
evaluation alike.  It reads one step array e^{2 pi i tau}(1 - f) per
axis: the record's whole array, reshaped onto a free axis of the block, or
one node of an axis the block holds fixed.  The pointwise path takes
each factor's log t at its base point from that point's chain
(`_log_t`), not from the plan, and `omega_w_eval` sums the factor logs
as one complex sum in factor order.

Several z of one diagram and rule are integrated in one call of
`_integrate`, which `integrate` calls with one cycle: the Richardson radii
of `leading_coeff_estimate`, the 2n + 3 points of `fd_eigenvalue` and the
radii of `hc integrate`.  The set-up (rule, plan, z-free logs, blocks) is
done once.  What depends on z carries a leading batch axis, also for one
cycle: the t values from the top row down, every axis's log (broadcast
where it has no one-axis difference) and the weights.  The batch is cut
into chunks of at most `_BLOCK_NODES` // (nodes per block) cycles, so a
chunk's arrays are no larger than one block of one cycle, and each cycle
is blocked as it is alone: at rank 2 with 41 points per axis a block is
the whole grid, and a chunk holds one cycle.  A chunk's block arrays are
views of the workspace at the chunk's size, which never exceeds one block
of one cycle.  Each node of each cycle sees the operations it sees alone,
in the same order and on contiguous arrays, so each result has the bits
of its own `integrate` call.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import rootsystem as rs
from .diagrams import Diagram, Permutation
from .series import SpectralParam, exact_view, float_view

Point = tuple[int, int]

_SEPARATION_MARGIN = 0.85
_BLOCK_NODES = 1 << 17  # most grid nodes `integrate` evaluates at once
_MAX_REFINEMENTS = 20  # step doublings before `phase_continuation` gives up
_FD_STEP = 1e-3  # central-difference step in log z of `fd_eigenvalue`
_LOG_MAX = math.log(sys.float_info.max)  # the largest log-modulus exp keeps finite


def _unit_interval(x) -> np.ndarray:
    xs = np.asarray(x, dtype=float)
    if not np.all((xs >= 0.0) & (xs <= 1.0)):  # NaN included
        raise ValueError("bump argument outside [0, 1]")
    return xs


@dataclass(frozen=True)
class BumpFn:
    """f_eps(x) = eps sin^2(pi x): smooth, range [0, eps], zero exactly at 0 and 1."""

    epsilon: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.25:
            raise ValueError("epsilon must lie in (0, 1/4)")

    def __call__(self, x):
        xs = _unit_interval(x)
        # evaluate on the nearer endpoint's side so f vanishes exactly there
        u = np.where(xs <= 0.5, xs, 1.0 - xs)
        out = self.epsilon * np.sin(np.pi * u) ** 2
        return float(out) if np.isscalar(x) or xs.ndim == 0 else out

    def deriv(self, x):
        xs = _unit_interval(x)
        u = np.where(xs <= 0.5, xs, 1.0 - xs)
        sign = np.where(xs <= 0.5, 1.0, -1.0)
        out = self.epsilon * np.pi * sign * np.sin(2.0 * np.pi * u)
        return float(out) if np.isscalar(x) or xs.ndim == 0 else out


@dataclass(frozen=True)
class QuadratureSpec:
    """The tanh-sinh rule's points per axis and the bump height."""

    points_per_axis: int = 65
    epsilon: float = 0.1

    def __post_init__(self):
        if not isinstance(self.points_per_axis, int):
            raise ValueError(f"points per axis must be an int, got {self.points_per_axis!r}")
        if self.points_per_axis < 8:
            raise ValueError("need at least 8 points per axis")
        BumpFn(self.epsilon)  # the bump's range check


@dataclass
class PhasedValue:
    """Complex value as log-magnitude plus a continuously tracked argument."""

    log_magnitude: float
    argument: float

    @property
    def value(self) -> complex:
        return cmath.exp(complex(self.log_magnitude, self.argument))

    def __mul__(self, other: "PhasedValue") -> "PhasedValue":
        return PhasedValue(self.log_magnitude + other.log_magnitude, self.argument + other.argument)


class Factor(NamedTuple):
    """One multivalued factor of the form.

    kind 'mono':   t_{pts[0]} ^ expo
    kind 'vanish': (t_{tar(p)} - t_p) ^ expo, the base collapsing at tau_p in {0,1}
    kind 'diff':   (t_{pts[0]} - t_{pts[1]}) ^ expo with |t_{pts[1]}| < |t_{pts[0]}|
    """

    kind: str
    expo: float
    pts: tuple[Point, ...]


class CyclePath:
    """Cycle for one diagram at fixed arguments z."""

    def __init__(self, diagram: Diagram, z: Sequence[complex], bump: BumpFn | None = None):
        self.diagram = diagram
        self.z = tuple(map(complex, z))
        self.bump = bump or BumpFn()
        n = diagram.rows - 1
        if n < 1:
            raise ValueError("need a diagram with at least 2 rows")
        if len(self.z) != n + 1:
            raise ValueError("z must have one entry per top-row point")
        mods = list(map(abs, self.z))
        if not all(0 < a < b < math.inf for a, b in zip(mods, mods[1:])):
            raise ValueError("need finite 0 < |z_1| < ... < |z_{n+1}|")
        sep = (1.0 - self.bump.epsilon) ** n * _SEPARATION_MARGIN
        worst = max(a / b for a, b in zip(mods, mods[1:]))
        if worst > sep:
            raise ValueError(
                f"consecutive |z| ratio {worst:.3g} too close to 1 for loop separation "
                f"(need <= {sep:.3g} at bump height {self.bump.epsilon})"
            )

        self.rank = n
        self.points, self.axis, self.collapse, self.chain = _geometry(diagram)[:4]

    @property
    def naxes(self) -> int:
        return len(self.points)

    def t_values(self, tau) -> dict[Point, np.ndarray]:
        """All t-points from per-axis tau arrays, e.g. a (naxes, M) batch."""
        return _t_values(self, [nd.step for nd in _tau_nodes(self, tau)])


class _Slot(NamedTuple):
    """One t-factor of the form without its exponent (see `_geometry`)."""

    kind: str
    key: int | str  # whose exponent it takes: a monomial's row j, "cross" or "within"
    pts: tuple[Point, ...]
    base: tuple[int, ...]  # the axes log t reads at its base point (see `_plan`)
    zi: int  # the 0-based index of the z its base point collapses to
    axis: int | None  # a vanishing factor's axis, or the one axis a difference reads


class _Geometry(NamedTuple):
    """What a cycle takes from its diagram alone: the points in axis order,
    each point's axis, the index of the z anchor each point (top row
    included) collapses to at tau = 0, the axes each point's chain up to row
    n reads (its own first; none for the top row), per axis, how many
    points have that axis's point above them on their chain, and the
    t-factors of the form without their exponents (`slots`).

    Each factor is listed under its lower point p: the monomial of p, the
    cross-row factors of p with row j + 1, and the within-row differences
    t_{(i1, j)} - t_p with i1 > i.  Points come rows top-down (j = n ... 1)
    and right to left within a row (i = j ... 1), so descending in axis.  A
    factor reads the axis of its lower point and the axes above it on the
    chains, so the slot list is non-increasing in the lowest axis a factor
    reads (`_lowest_axis`): for any number of fixed leading axes, the
    factors that read none of them come first, which `_integrate`'s split
    of the multi-axis differences into head and tail relies on.
    """

    points: tuple[Point, ...]
    axis: Mapping[Point, int]
    collapse: Mapping[Point, int]
    chain: Mapping[Point, tuple[int, ...]]
    below: tuple[int, ...]
    slots: tuple[_Slot, ...]


@functools.lru_cache(maxsize=128)
def _geometry(diagram: Diagram) -> _Geometry:
    n = diagram.rows - 1
    points = tuple((i, j) for j in range(1, n + 1) for i in range(1, j + 1))
    axis = {p: a for a, p in enumerate(points)}
    collapse = {(i, n + 1): i for i in range(1, n + 2)}
    chain = {(i, n + 1): () for i in range(1, n + 2)}
    for p in reversed(points):  # rows top-down
        collapse[p] = collapse[diagram.target(p)]
        chain[p] = (axis[p],) + chain[diagram.target(p)]
    below = [0] * len(points)
    for p in points:
        for a in chain[diagram.target(p)]:
            below[a] += 1
    slots: list[_Slot] = []

    def add(kind, key, pts):
        base = diagram.target(pts[0]) if kind == "vanish" else pts[0]
        one = axis[pts[0]] if kind == "vanish" else None
        if kind == "diff":
            if collapse[pts[0]] <= collapse[pts[1]]:
                raise AssertionError(f"difference factor {pts} not oriented big-minus-small")
            axes = chain[pts[0]] + chain[pts[1]]  # the chains of a difference are disjoint
            one = axes[0] if len(axes) == 1 else None
        slots.append(_Slot(kind, key, pts, chain[base], collapse[base] - 1, one))

    for j in range(n, 0, -1):
        for i in range(j, 0, -1):
            p = (i, j)
            add("mono", j, (p,))
            x = diagram.target(p)[0]
            for i1 in range(1, j + 2):
                if i1 == x:
                    add("vanish", "cross", (p,))
                elif i1 < x:
                    add("diff", "cross", (p, (i1, j + 1)))
                else:
                    add("diff", "cross", ((i1, j + 1), p))
            for i1 in range(i + 1, j + 1):
                add("diff", "within", ((i1, j), p))
    return _Geometry(points, MappingProxyType(axis), MappingProxyType(collapse), MappingProxyType(chain),
                     tuple(below), tuple(slots))


def cycle_for_w(w: Permutation, z: Sequence[complex], epsilon: float = 0.1) -> CyclePath:
    return CyclePath(Diagram.from_permutation(w), z, BumpFn(epsilon))


def cycle_point(c: CyclePath, tau: Sequence[float]) -> dict[Point, complex]:
    """The t-assignment at one tau vector (top row included, fixed at z)."""
    return {p: complex(v) for p, v in c.t_values(tau).items()}


# -- per-axis node records -----------------------------------------------------


class _Nodes(NamedTuple):
    """Everything about one axis's tau array that depends on neither z,
    lambda nor k, with f the bump at tau: the factor e^{2 pi i tau}(1 - f)
    of t = e^{2 pi i tau}(1 - f) t_tar and its log, the log of the
    vanishing base 1 - e^{2 pi i tau}(1 - f) (log-modulus plus i times the
    principal argument), and the Jacobian factor
    e^{2 pi i tau}(2 pi i (1 - f) - f')."""

    x: np.ndarray
    lstep: np.ndarray  # log1p(-f) + 2 pi i tau
    step: np.ndarray  # e^{2 pi i tau}(1 - f)
    lvan: np.ndarray
    jac: np.ndarray

    @classmethod
    def of(cls, x, bump: BumpFn) -> "_Nodes":
        f = bump(x)
        # the vanishing base is f + (1-f)(2 sin^2(pi tau) - i sin(2 pi tau)),
        # free of cancellation; its real part is nonnegative, so the principal
        # argument lies in [-pi/2, pi/2] and is continuous on 0 < tau < 1
        s = np.sin(np.pi * x)
        g = f + (1.0 - f) * (2.0 * s * s - 1j * np.sin(2.0 * np.pi * x))
        lstep, lvan = np.empty(np.shape(x), dtype=complex), np.empty(np.shape(x), dtype=complex)
        lstep.real, lstep.imag = np.log1p(-f), 2.0 * np.pi * x
        with np.errstate(divide="ignore"):  # log(0) where the base vanishes is caught downstream
            lvan.real = 0.5 * np.log(g.real**2 + g.imag**2)
        lvan.imag = np.arctan2(g.imag, g.real)
        rot = np.exp(2j * np.pi * x)
        return cls(x, lstep, rot * (1.0 - f), lvan, rot * (2j * np.pi * (1.0 - f) - bump.deriv(x)))


@functools.lru_cache(maxsize=8)
def _quad_nodes(npoints: int, bump: BumpFn) -> tuple[_Nodes, np.ndarray]:
    """The read-only node record of the `npoints`-point tanh-sinh rule and
    its weights times the Jacobian factors, built once.  The rule's
    complements are not read.

    Keyed on the cycle's bump, not on a spec's epsilon: the two may differ
    by rounding, and the record must be the cycle's.
    """
    x, _, wts = tanh_sinh_rule_with_complement(npoints)
    nodes = _Nodes.of(x, bump)
    wj = wts * nodes.jac
    for v in (*nodes, wj):
        v.flags.writeable = False
    return nodes, wj


def _tau_nodes(c: CyclePath, tau) -> list[_Nodes]:
    """Per-axis records of per-axis tau: `tau[a]` is axis a's tau array."""
    return [_Nodes.of(a, c.bump) for a in np.asarray(tau, dtype=float)]


def _t_values(c: CyclePath, steps: Sequence[np.ndarray], t=None, points=None) -> dict[Point, np.ndarray]:
    """t at every point of `points` (all of c's when not given), each carrying
    only its chain's axes, added in place to `t` (c's z at the top row when
    not given), which must hold every target; `t` is returned.  `steps[a]`
    is axis a's e^{2 pi i tau}(1 - f), the record's `step`: the whole array,
    reshaped onto the axis, or one node of an axis a block holds fixed."""
    if t is None:
        t = _top_t([c])
    for p in reversed(c.points if points is None else points):  # rows top-down, so every target comes first
        t[p] = steps[c.axis[p]] * t[c.diagram.target(p)]
    return t


# -- the multivalued form ------------------------------------------------------


def omega_factor_list(c: CyclePath, sp: SpectralParam) -> tuple[complex, list[Factor]]:
    """Constant log (z-only factors, principal branch) and the t-factors.

    Factors with exponent exactly 0 are dropped (their base may vanish on
    the cycle boundary; 0-th powers are 1).
    """
    lam, k = float_view(sp)
    plan = _plan(c.diagram, lam, k)
    return _z_log(c, lam, k), list(plan.factors)


def _z_log(c: CyclePath, lam: tuple[float, ...], k: float, zexp: Sequence[float] | None = None) -> complex:
    """Log of the z-only factors of the form, principal branch, at float
    (lambda, k); with `zexp`, times each z_i to the power zexp[i]."""
    n = c.rank
    const = 0.0 + 0.0j
    head = lam[0] + k * n / 2.0
    for i, zi in enumerate(c.z):
        const += (head if zexp is None else head + zexp[i]) * cmath.log(zi)
    ezv = 1.0 - 2.0 * k
    if ezv != 0.0:
        for i2 in range(1, n + 2):
            for i1 in range(i2 + 1, n + 2):
                const += ezv * cmath.log(c.z[i1 - 1] - c.z[i2 - 1])
    return const


def _lowest_axis(c: CyclePath, f: Factor) -> int:
    """The lowest axis factor f reads: its lower point's (top-row points
    read none, so they count as `c.naxes`)."""
    return min(c.axis.get(q, c.naxes) for q in f.pts)


def _top_t(cs: Sequence[CyclePath], shape: tuple[int, ...] = ()) -> dict[Point, np.ndarray]:
    """t at the top row, which sits at z: arrays of `shape` over the cycles,
    which share one diagram (the batch axis leads).  One cycle is a batch of
    one with shape ()."""
    rows = len(cs[0].z)
    return {(i, rows): np.array(zs).reshape(shape) for i, zs in enumerate(zip(*(c.z for c in cs)), start=1)}


def _log_t(c: CyclePath, nodes: Sequence[_Nodes], p: Point):
    """log|t_p| and the unwound argument of t_p: log z_{collapse(p)} plus
    log1p(-f) + 2 pi i tau of every axis on p's chain, added top-down, in
    the order the t walk multiplies them in; `nodes[a]` is axis a's record."""
    z = c.z[c.collapse[p] - 1]
    logabs, arg = math.log(abs(z)), cmath.phase(z)
    for a in reversed(c.chain[p]):
        logabs = nodes[a].lstep.real + logabs
        arg = nodes[a].lstep.imag + arg
    return logabs, arg


def _logs(c: CyclePath, factors: Sequence[Factor], nodes: Sequence[_Nodes], t):
    """Per-factor (log-modulus, argument) arrays under the anchored branch:
    log t at the factor's base point (the monomial's point, the vanishing
    factor's target, the difference's bigger point) from its chain
    (`_log_t`), plus the log of the vanishing base or of 1 - t_small/t_big,
    the latter from the t values `t`; `nodes[a]` is axis a's record."""
    logs = []
    with np.errstate(divide="ignore"):  # log(0) on the boundary is caught downstream
        for f in factors:
            if f.kind == "mono":
                logs.append(_log_t(c, nodes, f.pts[0]))
            elif f.kind == "vanish":
                p = f.pts[0]
                logabs, arg = _log_t(c, nodes, c.diagram.target(p))
                nd = nodes[c.axis[p]]
                logs.append((logabs + nd.lvan.real, arg + nd.lvan.imag))
            else:
                big, small = f.pts
                logabs, arg = _log_t(c, nodes, big)
                wv = 1.0 - t[small] / t[big]
                logs.append((logabs + 0.5 * np.log(wv.real**2 + wv.imag**2),
                             arg + np.arctan2(wv.imag, wv.real)))
    return logs


def _factor_logs(c: CyclePath, sp: SpectralParam, nodes: Sequence[_Nodes]):
    """The z-only log, the factors, their (log-modulus, argument) arrays and
    the t values (`_t_values`) at c's z; `nodes[a]` is axis a's record."""
    const, factors = omega_factor_list(c, sp)
    t = _t_values(c, [nd.step for nd in nodes])
    return const, factors, _logs(c, factors, nodes, t), t


def omega_w_eval(c: CyclePath, sp: SpectralParam, tau: Sequence[float]) -> PhasedValue:
    """Value of the coefficient function of the form at one interior point.

    The differential (the dt/dtau Jacobian) is not included; `integrate`
    applies it.  Raises if any factor base vanishes at tau.
    """
    const, factors, logs, _ = _factor_logs(c, sp, _tau_nodes(c, tau))
    total = const  # const + sum of expo (log|base| + i arg), in factor order
    for f, (la, aa) in zip(factors, logs):
        if not np.isfinite(la):
            raise ValueError(f"factor {f} evaluated on the singular locus at tau={list(tau)}")
        total = total + f.expo * (la + 1j * aa)
    return PhasedValue(float(total.real), float(total.imag))


def factor_arguments(c: CyclePath, sp: SpectralParam, tau: Sequence[float]) -> list[float]:
    """Per-factor anchored arguments at one tau (closed-form branch)."""
    _, _, logs, _ = _factor_logs(c, sp, _tau_nodes(c, tau))
    return [float(aa) for _, aa in logs]


def _factor_bases(c: CyclePath, factors: Sequence[Factor], tau) -> list[np.ndarray]:
    """Per-factor bases at per-axis tau arrays, from the t values alone."""
    t = c.t_values(tau)
    out = []
    for f in factors:
        if f.kind == "mono":
            out.append(t[f.pts[0]])
        elif f.kind == "vanish":
            p = f.pts[0]
            out.append(t[c.diagram.target(p)] - t[p])
        else:
            big, small = f.pts
            out.append(t[big] - t[small])
    return out


def phase_continuation(
    c: CyclePath,
    sp: SpectralParam,
    tau_from: Sequence[float],
    tau_to: Sequence[float],
    args_from: Sequence[float],
    steps: int = 16,
) -> list[float]:
    """Transport per-factor arguments along the straight tau-segment.

    Subdivides until every factor's per-step principal argument change is
    below pi/2; raises if refinement exceeds `_MAX_REFINEMENTS` doublings
    (segment passing too near the singular locus).  All points of the
    segment are evaluated as one batch, then the steps are scanned in order,
    factor by factor: the first zero base raises, the first change of pi/2
    or more doubles `steps`.  Raises ValueError for `steps` < 1.
    """
    if steps < 1:
        raise ValueError(f"need at least 1 step, got {steps}")
    a = np.asarray(tau_from, dtype=float)
    b = np.asarray(tau_to, dtype=float)
    _, factors = omega_factor_list(c, sp)
    for _ in range(_MAX_REFINEMENTS):
        tau = a[:, None] + (b - a)[:, None] * (np.arange(steps + 1) / steps)
        bases = np.array(_factor_bases(c, factors, tau))  # (factor, point)
        zero = bases == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = np.angle(bases[:, 1:] / bases[:, :-1])
        zero_step = zero[:, :-1] | zero[:, 1:]
        stop = (zero_step | (np.abs(delta) >= math.pi / 2)).T.ravel()  # step-major
        if not stop.any():
            args = np.array(args_from, dtype=float)
            for d in delta.T:  # added in step order, as a step-by-step walk does
                args += d
            return args.tolist()
        if zero_step.T.ravel()[np.argmax(stop)]:
            raise ValueError("phase tracking failed near singular locus")
        steps *= 2
    raise ValueError("phase tracking failed near singular locus")


def anchor_arguments(c: CyclePath, sp: SpectralParam, eta: float = 1e-3) -> tuple[np.ndarray, list[float]]:
    """Base point tau = eta*(1,..,1) and the principal arguments there.

    Raises ValueError unless 0 < eta < 1: at 0 a vanishing base is exactly
    0, and at 1 its principal argument is pi/2, not the anchored -pi/2.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"anchor eta must lie in (0, 1), got {eta}")
    tau = np.full(c.naxes, eta)
    _, factors = omega_factor_list(c, sp)
    return tau, [cmath.phase(b) for b in _factor_bases(c, factors, tau)]


# -- quadrature ----------------------------------------------------------------


def tanh_sinh_rule_with_complement(
    npoints: int, cutoff: float = 3.2
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tanh-sinh rule on (0, 1), double-exponential in the trapezoid
    variable: nodes x, complements 1-x (cancellation-free), and weights.
    The one quadrature rule: `integrate` reads x and the weights, the Beta
    oracle (`closedforms.gauss_value_by_beta_quadrature`) the complements
    too."""
    u = np.linspace(-cutoff, cutoff, npoints)
    h = u[1] - u[0]
    y = np.pi * np.sinh(u)
    x = 1.0 / (1.0 + np.exp(-y))
    xm = 1.0 / (1.0 + np.exp(y))
    w = h * np.pi * np.cosh(u) * x * xm
    return x, xm, w



class _Plan(NamedTuple):
    """The t-factors of the form at float (lambda, k), and their regrouping
    for quadrature (see `_plan`).

    The integrand times the Jacobian is exp(const) times, per axis a, a
    function of tau_a alone, times exp of the multi-axis differences:
    log t_p is log z_{collapse(p)} plus log1p(-f) + 2 pi i tau at every axis
    on the chain from p up to row n, and each factor's log is such a log t
    (of the point itself, its target or the bigger point) plus the log of
    the vanishing base of its own axis, or of 1 - t_small/t_big.
    """

    factors: tuple[Factor, ...]  # every t-factor with a nonzero exponent, in slot order
    coef: tuple[float, ...]  # per axis: coefficient of log1p(-f) + 2 pi i tau
    vcoef: tuple[float, ...]  # per axis: coefficient of the vanishing base's log
    single: tuple[tuple[Factor, ...], ...]  # per axis: the differences that read it alone
    zexp: tuple[float, ...]  # per z_i: its exponent, besides the z-only factors (`_z_log`)
    multi: tuple[Factor, ...]  # the differences that read several axes, in slot order


@functools.lru_cache(maxsize=64)
def _plan(diagram: Diagram, lam: tuple[float, ...], k: float) -> _Plan:
    """The t-factors and the quadrature plan at float (lambda, k), built
    once per diagram, lambda and k from the diagram's slots (`_geometry`).

    A slot whose exponent is exactly 0 is dropped: its power is 1, and its
    base may vanish on the cycle boundary.  `single` and `multi` hold the
    differences of `factors`, the same objects.

    A factor's log t splits at its base point b (the monomial's point, the
    vanishing factor's target, the difference's bigger point): its exponent
    joins the coefficient of every axis on the chain up from b and the
    exponent of z_{collapse(b)}.  The Jacobian prod_p dt_p/dtau_p adds, per
    point p, one factor e^{2 pi i tau}(1 - f) at every axis on the chain of
    its target (`below` of each axis) and one z_{collapse(p)}; its factor
    e^{2 pi i tau}(2 pi i (1 - f) - f') of p's own axis stays in the
    weights.  A difference of a row-n point and a top-row z reads one axis;
    every other difference reads several.

    Raises ValueError unless lambda has one coordinate per row: every
    quadrature path and `omega_factor_list` read the plan before the
    z-only log.
    """
    if len(lam) != diagram.rows:
        raise ValueError("spectral parameter rank does not match the cycle")
    geo = _geometry(diagram)
    n = diagram.rows - 1
    # the exponent of each slot key (`_Slot.key`)
    e = {"cross": k - 1.0, "within": 2.0 - 2.0 * k}
    e.update((j, lam[n - j + 1] - lam[n - j] - k) for j in range(1, n + 1))
    coef = [float(d) for d in geo.below]
    vcoef = [0.0] * len(geo.points)
    single: list[list[Factor]] = [[] for _ in geo.points]
    zexp = [0.0] * diagram.rows
    for p in geo.points:
        zexp[geo.collapse[p] - 1] += 1.0
    factors, multi = [], []
    for s in geo.slots:
        expo = e[s.key]
        if expo == 0.0:
            continue
        f = Factor(s.kind, expo, s.pts)
        factors.append(f)
        for a in s.base:
            coef[a] += expo
        zexp[s.zi] += expo
        if s.kind == "vanish":
            vcoef[s.axis] += expo
        elif s.kind == "diff":
            (multi if s.axis is None else single[s.axis]).append(f)
    return _Plan(tuple(factors), tuple(coef), tuple(vcoef), tuple(map(tuple, single)), tuple(zexp), tuple(multi))


def _axis_base(plan: _Plan, nodes: Sequence[_Nodes]) -> list[np.ndarray]:
    """Per axis a, the log of its z-free terms, coef times the log of
    e^{2 pi i tau}(1 - f) plus vcoef times that of the vanishing base;
    `nodes[a]` is axis a's record."""
    return [e * nd.lstep + ev * nd.lvan if ev else e * nd.lstep
            for nd, e, ev in zip(nodes, plan.coef, plan.vcoef)]


def _axis_logs(c: CyclePath, plan: _Plan, base, nodes: Sequence[_Nodes], cycles: Sequence[CyclePath]) -> list[np.ndarray]:
    """`_axis_base`'s logs plus each axis's one-axis differences at each of
    `cycles`, every log with the leading batch axis (an axis without such a
    difference has one log for all, broadcast); `nodes[a]` is axis a's
    record.  Such a difference pairs a row-n point p,
    t_p = e^{2 pi i tau}(1 - f) z_{collapse(p)}, with a top-row z, so
    t_small/t_big is a ratio of z's times e^{2 pi i tau}(1 - f), or over
    it."""
    n = c.rank
    # per difference: the z indices of the ratio, and whether the row-n point is the smaller
    pairs = [(c.collapse[small], big[0], True) if big[1] > n else (small[0], c.collapse[big], False)
             for f in itertools.chain(*plan.single) for big, small in [f.pts]]
    q = np.array([[o.z[i - 1] / o.z[j - 1] for i, j, _ in pairs] for o in cycles]).reshape(len(cycles), -1)
    out = []
    d = 0
    for s, diffs, nd in zip(base, plan.single, nodes):
        for f in diffs:
            wv = 1.0 - (q[:, d:d + 1] * nd.step if pairs[d][2] else q[:, d:d + 1] / nd.step)
            lg = np.empty(wv.shape, dtype=complex)  # log(1 - ratio), principal branch
            np.log(np.abs(wv), out=lg.real)
            np.arctan2(wv.imag, wv.real, out=lg.imag)
            s = s + f.expo * lg
            d += 1
        out.append(s if diffs else np.broadcast_to(s, (len(cycles),) + np.shape(s)))
    return out


# The workspace of `_integrate`'s block arrays (see the module docstring),
# grown and never shrunk, so a warm call faults in no fresh pages; at most
# 8 * `_BLOCK_NODES` floats, 8 MiB.  One buffer serves every call: the
# library starts no threads, and `_integrate` does not call itself.
_WORK = np.empty(0)


def _workspace(units: int, size: int) -> np.ndarray:
    """`units` C-contiguous rows of `size` floats from the workspace: two
    adjacent rows view as `size` complex numbers."""
    global _WORK
    if _WORK.size < units * size:
        _WORK = np.empty(units * size)
    return _WORK[:units * size].reshape(units, size)


def _multi_sum(factors: Sequence[Factor], t, shape: tuple[int, ...], units: np.ndarray):
    """Sum of expo * log(1 - t_small/t_big) over the differences `factors`
    as a real log-modulus and a real argument at `shape`, the broadcast shape
    of every term (zeros for none), the ratio taken as t_small (1/t_big).

    The sums are views of units[0] and units[1]; units[2:6] are scratch, and
    every row of `units` holds at least prod(shape) floats.  Each term is
    computed at its own broadcast shape: the complex ratio in units[2:4]
    (adjacent rows view as complex), its log-modulus in units[4], and the
    contiguous copies of its real and imaginary parts that arctan2 reads in
    units[4] and units[5].  Terms are added smallest broadcast shape first
    (ties in list order)."""
    size = math.prod(shape)
    mod, arg = (u[:size].reshape(shape) for u in units[:2])
    if not factors:
        mod.fill(0.0)
        arg.fill(0.0)
    for i, f in enumerate(sorted(factors, key=lambda f: np.broadcast(t[f.pts[0]], t[f.pts[1]]).size)):
        big, small = f.pts
        fshape = np.broadcast_shapes(np.shape(t[big]), np.shape(t[small]))
        n = math.prod(fshape)
        wv = units[2:4].reshape(-1)[:2 * n].view(complex).reshape(fshape)
        lg, re, im = (u[:n].reshape(fshape) for u in (units[2], units[4], units[5]))
        np.subtract(1.0, np.multiply(t[small], 1.0 / t[big], out=wv), out=wv)
        np.multiply(f.expo, np.log(np.abs(wv, out=re), out=re), out=re)
        np.add(mod if i else 0.0, re, out=mod)
        np.copyto(re, wv.real)
        np.copyto(im, wv.imag)
        np.multiply(f.expo, np.arctan2(im, re, out=lg), out=lg)  # wv is spent: lg takes its first row
        np.add(arg if i else 0.0, lg, out=arg)
    return mod, arg


def _exp_block(mod: np.ndarray, arg: np.ndarray, s: np.ndarray, d: np.ndarray, out: np.ndarray) -> np.ndarray:
    """e^{mod + i arg} into the complex array `out` from real kernels alone:
    e^{i arg} = (1 + i t)/(1 - i t) with t = tan(arg/2), so the real part is
    (1 - t^2) d and the imaginary part 2 t d, d = e^mod / (1 + t^2).

    |tan| of a double stays below 1.7e16, so t^2 does not overflow.  As with
    np.exp, mod = -inf gives 0 (for a finite arg), and a non-finite mod or
    arg gives a non-finite value.  `mod` and `arg` are overwritten; `s` and
    `d` are scratch of their shape."""
    t = np.tan(np.multiply(arg, 0.5, out=arg), out=arg)
    np.multiply(t, t, out=s)
    np.add(s, 1.0, out=d)
    np.divide(np.exp(mod, out=mod), d, out=d)
    np.multiply(np.subtract(1.0, s, out=s), d, out=out.real)
    np.multiply(np.multiply(t, 2.0, out=t), d, out=out.imag)
    return out


def integrate(c: CyclePath, sp: SpectralParam, quad: QuadratureSpec | None = None) -> complex:
    """Quadrature of the pulled-back form over [0,1]^N, N = n(n+1)/2.

    Includes the triangular Jacobian prod dt_{ij}/dtau_{ij} with
    dt/dtau = e^{2 pi i tau} (2 pi i (1-f) - f') t_tar.  The integrand times
    the Jacobian is exp(const) times prod_a W_a(tau_a) times exp of the
    multi-axis differences (`_plan`): each per-axis weight W_a holds the
    rule weight, the Jacobian factor and the exp of every term of the form
    that reads axis a alone, and is built once per call from the rule's
    cached node record.  Only the differences whose points span several
    axes are evaluated per node.

    Each block fixes the fewest leading axes that keep it within
    `_BLOCK_NODES` nodes (one axis stays free).  A block's sum of the
    multi-axis logs, at the broadcast shape of its terms, is exponentiated
    once and contracted with the W_a of its free axes, last axis first; it
    is then multiplied by one factor: exp(const), the W_a of the fixed axes
    at their nodes and the scales that keep the W_a in range.  Blocks are
    summed in C order, so memory stays bounded and the result is
    deterministic for a spec.  The multi-axis differences that read no fixed
    axis are the same in every block: their logs are evaluated and summed
    once per call, and each block adds the rest from the t values of the
    fixed points alone.  At rank 1 and at k = 1 there are none, and the
    integral is a weighted sum of the W_a.

    Raises ArithmeticError naming the first node, in C order, where the
    integrand is not finite or a factor base vanishes: where the log-modulus
    of the integrand times the Jacobian, summed in log space, is -inf or
    beyond the float range, or, failing such a node, where the factored
    evaluation is not finite.  `_integrate` takes several z of one diagram
    in one call, with these bits at each.

    Raises ValueError unless k > 0: each loop starts and ends at its branch
    point, where the integrand behaves like tau^{k-1}, so the integral
    diverges for k <= 0.
    """
    return _integrate([c], sp, quad)[0]


def _integrate(cycles: Sequence[CyclePath], sp: SpectralParam, quad: QuadratureSpec | None = None) -> list[complex]:
    """`integrate` at each of `cycles`, which share one diagram and bump, in
    one call: the plan, the rule's records, the z-free part of the per-axis
    logs and the split into blocks are set up once, and the z-dependent
    arrays carry a leading batch axis, also for one cycle.

    The batch is cut into chunks of at most `_BLOCK_NODES` // (block nodes)
    cycles, so a chunk holds no more nodes than one block of one cycle; the
    blocks of each cycle are those `integrate` makes alone.  Every node of
    every cycle sees the operations of `integrate` at that cycle, in the
    same order and on arrays, never on numpy scalars, so each result has its
    bits.  The first failing cycle in batch order raises `integrate`'s error
    for it.
    """
    c = cycles[0]
    if len(cycles) > 1 and any(o.diagram != c.diagram or o.bump != c.bump for o in cycles):
        raise ValueError("a batch of cycles must share one diagram and bump")
    if sp.k <= 0:
        raise ValueError(f"the cycle integral diverges at k = {sp.k}: it needs k > 0")
    quad = quad or QuadratureSpec(epsilon=c.bump.epsilon)
    if abs(quad.epsilon - c.bump.epsilon) > 1e-12:
        raise ValueError("quadrature epsilon disagrees with the cycle's bump height")
    nodes, wj = _quad_nodes(quad.points_per_axis, c.bump)
    x = nodes.x
    npts = len(x)
    naxes = c.naxes
    lam, k = float_view(sp)
    plan = _plan(c.diagram, lam, k)
    consts = [_z_log(o, lam, k, plan.zexp) for o in cycles]
    lead = 0
    while lead < naxes - 1 and npts ** (naxes - lead) > _BLOCK_NODES:
        lead += 1
    free = naxes - lead
    chunk = max(1, _BLOCK_NODES // npts**free)
    # the differences that read a fixed axis close the list (`_geometry`);
    # they are the tail, evaluated per block, and the head is summed once
    split = len(plan.multi)
    while lead and split and _lowest_axis(c, plan.multi[split - 1]) < lead:
        split -= 1
    head, tail = plan.multi[:split], plan.multi[split:]
    free_steps = [nodes.step.reshape((-1,) + (1,) * (free - 1 - a)) for a in range(free - 1)] + [nodes.step]
    # the head reads no fixed axis, so any node stands in for those
    head_steps = [nodes.step[0]] * lead + free_steps
    flat_nodes = [nodes] * naxes
    # the block spans the free axes that a multi-axis difference reads
    read = {a for f in plan.multi for q in f.pts for a in c.chain[q]}
    vshape = tuple(npts if a in read else 1 for a in range(lead, naxes))
    out = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        base = _axis_base(plan, flat_nodes)
        # a vanishing base on the grid: -inf in the log of an axis with a
        # vanishing factor (a difference cannot vanish: the separation check
        # keeps |t_small/t_big| below 1)
        neg = any(plan.vcoef) and not nodes.lvan.real.min() > -math.inf
        for start in range(0, len(cycles), chunk):
            batch = cycles[start:start + chunk]
            nb = len(batch)
            logs = _axis_logs(c, plan, base, flat_nodes, batch)
            # The weights of a free axis are scaled by exp(-(their largest
            # log-modulus)), and a fixed axis keeps only its phase in its
            # weights; the scales, the fixed axes' log-moduli and const go
            # into one factor per block and cycle, so that no weight over- or
            # underflows where the integrand itself does not.
            tops = [lg.real.max(axis=-1, keepdims=True) for lg in logs[lead:]]
            weights = [wj * np.exp(1j * lg.imag) for lg in logs[:lead]]
            weights += [wj * np.exp(lg - top) for lg, top in zip(logs[lead:], tops)]

            # per cycle: the log-modulus of its constant factor, the phase of
            # const, and the fixed axes' log-moduli and weights
            shifts = [v.real + sum(float(top[b, 0]) for top in tops) for b, v in enumerate(consts[start:start + nb])]
            rots = [cmath.exp(1j * v.imag) for v in consts[start:start + nb]]
            fixed = [[(lg[b].real, w[b]) for lg, w in zip(logs[:lead], weights)] for b in range(nb)]
            t = _t_values(c, head_steps, _top_t(batch, (nb,) + (1,) * free), c.points[lead:]) if plan.multi else {}
            shape = (nb,) + vshape
            size = math.prod(shape)
            if plan.multi:
                ws = _workspace(8 if head and tail else 6, size)
                if head and tail:  # the head's sums stay in ws[0:2] through the blocks
                    head_mod, head_arg = _multi_sum(head, t, shape, ws)

            def block_logs(idx, units):
                """The block's multi-axis log sum at fixed nodes `idx` and its
                broadcast shape, as views of units[-6] and units[-5], with
                units[-4:] as scratch."""
                if not tail:
                    return _multi_sum(head, t, shape, units[-6:])
                block_steps = [nodes.step[i] for i in idx] + free_steps
                # the points on fixed axes, overwritten per block; the rest are the head's
                mod, arg = _multi_sum(tail, _t_values(c, block_steps, t, c.points[:lead]), shape, units[-6:])
                if head:
                    np.add(head_mod, mod, out=mod)
                    np.add(head_arg, arg, out=arg)
                return mod, arg

            def block_values(idx):
                """The block's exponentiated log sum, a complex view of
                ws[-2:], and whether a base vanishes in it: a base that
                vanishes with positive exponent makes the log-modulus -inf
                and the integrand 0, but the node is on the singular locus."""
                mod, arg = block_logs(idx, ws)
                vanish = not mod.min() > -math.inf
                cells = (u.reshape(shape) for u in ws[-4:-2])
                return _exp_block(mod, arg, *cells, ws[-2:].reshape(-1).view(complex).reshape(shape)), vanish

            if not plan.multi:  # no multi-axis difference: every block is 1
                vals, vanish = np.ones(shape, dtype=complex), False
            elif not tail:  # every block has the head's values
                vals, vanish = block_values(())
            acc = [0.0 + 0.0j] * nb
            errors = {}
            for idx in itertools.product(range(npts), repeat=lead):
                if tail:
                    vals, vanish = block_values(idx)
                part = vals
                for w in reversed(weights[lead:]):  # a block axis of size 1 sums the weights
                    part = np.einsum("b...j,bj->b...", part, w)
                for b, (p, shift, rot, fx) in enumerate(zip(part.tolist(), shifts, rots, fixed)):
                    shift += sum(float(m[i]) for (m, _), i in zip(fx, idx))
                    scale = rot * _exp(shift) * math.prod(w[i] for (_, w), i in zip(fx, idx))
                    term = scale * p
                    if b not in errors and (vanish or neg or not cmath.isfinite(term)):
                        factored = None if cmath.isfinite(term) else (vals[b], scale, [w[b] for w in weights])
                        # the log sum again, on fresh arrays: the workspace holds vals
                        mod, arg = block_logs(idx, np.empty((6, size)))
                        node = _first_bad(mod[b], arg[b], consts[start + b].real, [lg[b] for lg in logs],
                                          nodes.jac, idx, factored)
                        if node is not None:
                            errors[b] = f"non-finite integrand at tau = {[float(x[i]) for i in node]}"
                    acc[b] += term
                if 0 in errors:  # no cycle before it in the batch can fail
                    break
            if errors:
                raise ArithmeticError(errors[min(errors)])
            out += acc
    return out


def _exp(v: float) -> float:
    """e^v, inf where it overflows."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _first_bad(mod: np.ndarray, arg: np.ndarray, const: float, logs, jac: np.ndarray, idx: tuple[int, ...],
               factored=None):
    """The first node of a block in C order, as a full index, where the
    integrand is not finite or a factor base vanishes; None if there is none.

    It first tests the integrand times the Jacobian summed in log space:
    a log-modulus of -inf (a base vanishes) or beyond the float range, or a
    non-finite argument.  `mod` and `arg` are the block's multi-axis log
    sum, `const` the real part of const, `logs` each axis's log, `jac` the
    rule's Jacobian factors and `idx` the fixed axes' nodes.  Failing such
    a node, and only where the block's factored sum is not finite, it tests
    the factored product: `factored` is then the exponentiated block, the
    block's constant factor and each axis's weights, and the first node
    where their product is not finite is named."""
    mod = mod + const
    for a, lg in enumerate(logs):
        if a < len(idx):
            mod = mod + (lg.real[idx[a]] + np.log(abs(jac[idx[a]])))
            arg = arg + lg.imag[idx[a]]
        else:
            shape = (-1,) + (1,) * (len(logs) - 1 - a)
            mod = mod + (lg.real + np.log(np.abs(jac))).reshape(shape)
            arg = arg + lg.imag.reshape(shape)
    bad = ~((mod > -math.inf) & (mod < _LOG_MAX) & np.isfinite(arg))
    if not bad.any() and factored is not None:
        vals, scale, weights = factored
        prod = vals * scale
        for a in range(len(idx), len(weights)):
            prod = prod * weights[a].reshape((-1,) + (1,) * (len(weights) - 1 - a))
        bad = ~np.isfinite(prod)
    return (*idx, *np.argwhere(bad)[0]) if bad.any() else None


def integrate_for_w(
    w: Permutation, z: Sequence[complex], sp: SpectralParam, quad: QuadratureSpec | None = None
) -> complex:
    quad = quad or QuadratureSpec()
    return integrate(cycle_for_w(w, z, quad.epsilon), sp, quad)


def leading_power(w: Permutation, sp: SpectralParam, z: Sequence[complex]) -> complex:
    """z^{w.lambda + rho} with principal powers."""
    return _power(_leading_exponent(w, sp), z)


def _leading_exponent(w: Permutation, sp: SpectralParam) -> list[float]:
    """w.lambda + rho, as floats: each coordinate's integer numerator over
    `exact_view(sp)`'s denominator D, divided once, which is the float of the
    exact coordinate.  D rho_i = (D k / 2)(n - 2i) for 0-based i."""
    den, lam, k = exact_view(sp)
    n = sp.rank
    return [(m + k // 2 * (n - 2 * i)) / den for i, m in enumerate(rs.weyl_apply(w, lam))]


def _power(mu: Sequence[float], z: Sequence[complex]) -> complex:
    return cmath.exp(sum(m * cmath.log(complex(zi)) for m, zi in zip(mu, z)))


def leading_coeff_estimate(
    w: Permutation,
    sp: SpectralParam,
    r: float,
    quad: QuadratureSpec | None = None,
) -> complex:
    """Estimate of the leading coefficient from geometric z = (r^n, ..., 1).

    Richardson extrapolation over ratios r and r/2 removes the first
    correction term of the asymptotic series.
    """
    quad = quad or QuadratureSpec()
    return _richardson(*_ratios(w, sp, quad, 1.0, (r, r / 2.0))[1])


def _ratios(w: Permutation, sp: SpectralParam, quad: QuadratureSpec, scale: float, radii) -> tuple[list[complex], list[complex]]:
    """The integrals over z = scale*(r^n, ..., 1), one per r in `radii`, in
    one `_integrate` call, and each divided by its leading power."""
    mu = _leading_exponent(w, sp)
    zs = [[scale * r ** (sp.rank - i) for i in range(sp.rank + 1)] for r in radii]
    values = _integrate([cycle_for_w(w, z, quad.epsilon) for z in zs], sp, quad)
    return values, [v / _power(mu, z) for v, z in zip(values, zs)]


def _richardson(a1: complex, a2: complex) -> complex:
    """Combine the ratios at r and r/2 so the first correction term cancels."""
    return 2.0 * a2 - a1


def mellin_value_at_unit_coupling(w: Permutation, z: Sequence[complex], sp: SpectralParam) -> complex:
    """Closed form of the integral at k = 1, where the form degenerates to
    per-variable monomials and the loops separate.

    Substituting v_{ij} = t_{ij}/t_{tar(i,j)} makes each axis an independent
    loop integral of v^G dv with an accumulated exponent

        G(i,j) = e_j + sum over children (p, j-1) of (G(p,j-1) + 1),

    e_j the row-monomial exponent, each contributing (e^{2 pi i G} - 1)/(G+1);
    the top row collects z_i powers and the Vandermonde carries power -1.
    """
    if sp.k != 1:
        raise ValueError("closed form holds at k = 1 only")
    n = sp.rank
    lam = float_view(sp)[0]
    d = Diagram.from_permutation(w)
    z = [complex(v) for v in z]
    g: dict[Point, float] = {}
    out = 1.0 + 0.0j
    for j in range(1, n + 1):
        e_row = lam[n - j + 1] - lam[n - j] - 1.0
        for i in range(1, j + 1):
            acc = e_row
            if j > 1:
                for p in range(1, j):
                    if d.target((p, j - 1)) == (i, j):
                        acc += g[(p, j - 1)] + 1.0
            g[(i, j)] = acc
            out *= (cmath.exp(2j * math.pi * acc) - 1.0) / (acc + 1.0)
    head = lam[0] + n / 2.0
    for i in range(1, n + 2):
        gz = head
        for p in range(1, n + 1):
            if d.target((p, n)) == (i, n + 1):
                gz += g[(p, n)] + 1.0
        out *= z[i - 1] ** gz
    for i2 in range(1, n + 2):
        for i1 in range(i2 + 1, n + 2):
            out /= z[i1 - 1] - z[i2 - 1]
    return out


def fd_eigenvalue(
    w: Permutation,
    z: Sequence[float],
    sp: SpectralParam,
    quad: QuadratureSpec | None = None,
) -> complex:
    """Apply L to the integral by central differences in u_i = log z_i,
    with step `_FD_STEP`.

    Returns (L phi)/phi at z; for a solution this is (lambda,lambda)-(rho,rho).
    """
    quad = quad or QuadratureSpec()
    h = _FD_STEP
    z = [float(v) for v in z]
    n = sp.rank
    k = float_view(sp)[1]

    zs = [z]
    for i in range(n + 1):
        for step in (math.exp(h), math.exp(-h)):
            zs.append(list(z))
            zs[-1][i] = z[i] * step
    base, *steps = _integrate([cycle_for_w(w, z, quad.epsilon) for z in zs], sp, quad)
    plus, minus = steps[0::2], steps[1::2]
    acc = 0.0 + 0.0j
    for i in range(n + 1):
        acc += (plus[i] - 2.0 * base + minus[i]) / h**2
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            di = (plus[i] - minus[i]) / (2.0 * h)
            dj = (plus[j] - minus[j]) / (2.0 * h)
            acc -= k * (z[j] + z[i]) / (z[j] - z[i]) * (di - dj)
    return acc / base
