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

Quadrature is a tensor product of one-dimensional rules per tau-axis;
tanh-sinh by default (the integrand has algebraic endpoint behavior
tau^{k-1} for non-integer k), Gauss-Legendre optionally.  The integrand is
broadcast over per-axis tau arrays, so each factor carries only the axes of
its chain; blocks of the grid fix its leading axes and are summed in C
order, so results are deterministic for a fixed spec.

Each block's integrand is one log-space sum: the factor logs are summed as
a real log-modulus and a real argument in factor order, each partial sum at
the broadcast shape of its terms until it spans the block, and
exponentiated once.  The factors are listed in descending order of the
lowest axis they read (`_t_factors`), so the factors that read no fixed
leading axis form a prefix of the list.  Their sum is the same in every
block and is built once per `integrate` call; each block starts from it
and adds the logs of the remaining factors only, rebuilding the t values
of the points on the fixed axes alone.  Every node still sees the
additions of one sum in factor order, as in `omega_w_eval`.  The
Jacobian prod dt/dtau is a constant times one factor per axis (t_tar is
z_collapse times e^{2 pi i tau}(1 - f) of every point above on the
chain), so it rides in per-axis complex weights, and a block is summed by
contracting its axes with them, last axis first.

What depends on an axis's nodes alone, and not on z, lambda or k, is one
per-axis node record: x, the bump f, log1p(-f), 2 pi tau,
e^{2 pi i tau}(1 - f), the log-modulus and argument of the vanishing base
1 - e^{2 pi i tau}(1 - f), and the Jacobian factor
e^{2 pi i tau}(2 pi i (1 - f) - f').
`integrate` takes its rule's record from a small cache keyed by (scheme,
points per axis, bump), so the bump is evaluated once per rule and not once
per call; the cached arrays are read-only.  The per-axis Jacobian weights
depend on the rule and the diagram but not on z, and are cached the same
way.  What depends on the diagram alone (points, axes, collapse anchors) is
cached per diagram, and the factor list per diagram and float (lambda, k).
Pointwise evaluation and `t_values` build records from their own tau
(`_tau_nodes`), and `omega_w_eval` sums the factor logs as one complex sum
(`_log_sum`).

Several z of one diagram and rule are integrated in one call of
`_integrate`, which `integrate` calls with one cycle: the Richardson radii
of `leading_coeff_estimate`, the 2n + 3 points of `fd_eigenvalue` and the
radii of `hc integrate`.  The set-up (rule, weights, factor list, blocks)
is done once.  Only what depends on z carries a leading batch axis: the
t values, log-moduli and arguments from the top row down, and the z-only
log.  The batch is cut into chunks of at most `_BLOCK_NODES` // (nodes per
block) cycles (one, where a block fixes a point of row n), so a chunk's
arrays are no larger than one block of one cycle, and each cycle is
blocked as it is alone: at rank 2 with 41 points per axis a block is the
whole grid, and a chunk holds one cycle.  Each node of each cycle sees the
operations it sees alone, in the same order, so each result has the bits
of its own `integrate` call.  A chunk of one cycle keeps the scalars and
shapes of that call.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
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


def _unit_interval(x) -> np.ndarray:
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0.0) or np.any(xs > 1.0):
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
    scheme: str = "tanh-sinh"
    points_per_axis: int = 65
    epsilon: float = 0.1

    def __post_init__(self):
        if self.scheme not in _RULES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
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
        self.z = tuple(complex(v) for v in z)
        self.bump = bump or BumpFn()
        n = diagram.rows - 1
        if n < 1:
            raise ValueError("need a diagram with at least 2 rows")
        if len(self.z) != n + 1:
            raise ValueError("z must have one entry per top-row point")
        mods = [abs(v) for v in self.z]
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
        self.points, self.axis, self.collapse, self.below = _geometry(diagram)

    @property
    def naxes(self) -> int:
        return len(self.points)

    def t_values(self, tau) -> dict[Point, np.ndarray]:
        """All t-points from per-axis tau arrays, e.g. a (naxes, M) batch."""
        return _t_values(self, _tau_nodes(self, tau))


class _Geometry(NamedTuple):
    """What a cycle takes from its diagram alone: the points in axis order,
    each point's axis, the index of the z anchor each point (top row
    included) collapses to at tau = 0, and, per axis, how many points have
    that axis's point above them on their chain."""

    points: tuple[Point, ...]
    axis: Mapping[Point, int]
    collapse: Mapping[Point, int]
    below: tuple[int, ...]


@functools.lru_cache(maxsize=128)
def _geometry(diagram: Diagram) -> _Geometry:
    n = diagram.rows - 1
    points = tuple((i, j) for j in range(1, n + 1) for i in range(1, j + 1))
    collapse = {(i, n + 1): i for i in range(1, n + 2)}
    for j in range(n, 0, -1):
        for i in range(1, j + 1):
            collapse[(i, j)] = collapse[diagram.target((i, j))]
    below = dict.fromkeys(points, 0)
    for p in points:
        q = diagram.target(p)
        while q[1] <= n:
            below[q] += 1
            q = diagram.target(q)
    return _Geometry(points, MappingProxyType({p: a for a, p in enumerate(points)}),
                     MappingProxyType(collapse), tuple(below.values()))


def cycle_for_w(w: Permutation, z: Sequence[complex], epsilon: float = 0.1) -> CyclePath:
    return CyclePath(Diagram.from_permutation(w), z, BumpFn(epsilon))


def cycle_point(c: CyclePath, tau: Sequence[float]) -> dict[Point, complex]:
    """The t-assignment at one tau vector (top row included, fixed at z)."""
    return {p: complex(v) for p, v in c.t_values(tau).items()}


# -- per-axis node records -----------------------------------------------------


class _Nodes(NamedTuple):
    """Everything about one axis's tau array that depends on neither z,
    lambda nor k: the bump f, the factor e^{2 pi i tau}(1 - f) of
    t = e^{2 pi i tau}(1 - f) t_tar and the pieces of its log, the vanishing
    base 1 - e^{2 pi i tau}(1 - f) as log-modulus and principal argument, and
    the Jacobian factor e^{2 pi i tau}(2 pi i (1 - f) - f')."""

    x: np.ndarray
    f: np.ndarray
    log1m_f: np.ndarray  # log1p(-f)
    angle: np.ndarray  # 2 pi tau
    step: np.ndarray  # e^{2 pi i tau}(1 - f)
    vlog: np.ndarray
    varg: np.ndarray
    jac: np.ndarray

    @classmethod
    def of(cls, x, bump: BumpFn) -> "_Nodes":
        f = bump(x)
        # the vanishing base is f + (1-f)(2 sin^2(pi tau) - i sin(2 pi tau)),
        # free of cancellation; its real part is nonnegative, so the principal
        # argument lies in [-pi/2, pi/2] and is continuous on 0 < tau < 1
        s = np.sin(np.pi * x)
        g = f + (1.0 - f) * (2.0 * s * s - 1j * np.sin(2.0 * np.pi * x))
        with np.errstate(divide="ignore"):  # log(0) where the base vanishes is caught downstream
            vlog = 0.5 * np.log(g.real**2 + g.imag**2)
        rot = np.exp(2j * np.pi * x)
        return cls(x, f, np.log1p(-f), 2.0 * np.pi * x, rot * (1.0 - f),
                   vlog, np.arctan2(g.imag, g.real), rot * (2j * np.pi * (1.0 - f) - bump.deriv(x)))

    def at(self, i: int) -> "_Nodes":
        """The record of node i alone, for an axis a block holds fixed."""
        return _Nodes._make(v[i] for v in self)

    def reshape(self, shape) -> "_Nodes":
        return _Nodes._make(v.reshape(shape) for v in self)


@functools.lru_cache(maxsize=8)
def _quad_nodes(scheme: str, npoints: int, bump: BumpFn) -> tuple[_Nodes, np.ndarray]:
    """The read-only node record and weights of one rule, built once.

    Keyed on the cycle's bump, not on a spec's epsilon: the two may differ
    by rounding, and the record must be the cycle's.
    """
    x, wts = _RULES[scheme](npoints)
    nodes = _Nodes.of(x, bump)
    for v in (*nodes, wts):
        v.flags.writeable = False
    return nodes, wts


def _tau_nodes(c: CyclePath, tau) -> list[_Nodes]:
    """Per-axis records of per-axis tau: `tau[a]` is axis a's tau array."""
    return [_Nodes.of(a, c.bump) for a in np.asarray(tau, dtype=float)]


def _t_values(c: CyclePath, nodes: Sequence[_Nodes]) -> dict[Point, np.ndarray]:
    """t at every point, top row included; each t carries only its chain's axes."""
    t: dict[Point, np.ndarray] = {(i, c.rank + 1): zi for i, zi in enumerate(c.z, start=1)}
    for p in reversed(c.points):  # rows top-down, so every target comes first
        nd = nodes[c.axis[p]]
        t[p] = nd.step * t[c.diagram.target(p)]
    return t


# -- the multivalued form ------------------------------------------------------


def omega_factor_list(c: CyclePath, sp: SpectralParam) -> tuple[complex, list[Factor]]:
    """Constant log (z-only factors, principal branch) and the t-factors.

    Factors with exponent exactly 0 are dropped (their base may vanish on
    the cycle boundary; 0-th powers are 1).
    """
    lam, k = float_view(sp)
    return _z_log(c, lam, k), list(_t_factors(c.diagram, lam, k))


def _z_log(c: CyclePath, lam: tuple[float, ...], k: float) -> complex:
    """Log of the z-only factors of the form, principal branch, at float
    (lambda, k)."""
    n = c.rank
    if len(lam) != n + 1:
        raise ValueError("spectral parameter rank does not match the cycle")
    const = 0.0 + 0.0j
    head = lam[0] + k * n / 2.0
    for zi in c.z:
        const += head * cmath.log(zi)
    ezv = 1.0 - 2.0 * k
    if ezv != 0.0:
        for i2 in range(1, n + 2):
            for i1 in range(i2 + 1, n + 2):
                const += ezv * cmath.log(c.z[i1 - 1] - c.z[i2 - 1])
    return const


@functools.lru_cache(maxsize=64)
def _t_factors(diagram: Diagram, lam: tuple[float, ...], k: float) -> tuple[Factor, ...]:
    """The t-factors of the form at float (lambda, k); they depend on the
    diagram, lambda and k, not on z, and are built once for each.

    Each factor is listed under its lower point p: the monomial of p, the
    cross-row factors of p with row j + 1, and the within-row differences
    t_{(i1, j)} - t_p with i1 > i.  Points come rows top-down (j = n ... 1)
    and right to left within a row (i = j ... 1), so descending in axis.  A
    factor reads the axis of its lower point and the axes above it on the
    chains, so the list is non-increasing in the lowest axis a factor reads
    (`_lowest_axis`): for any number of fixed leading axes, the factors that
    read none of them come first.
    """
    n = diagram.rows - 1
    collapse = _geometry(diagram).collapse
    factors: list[Factor] = []
    e_cross = k - 1.0
    e_within = 2.0 - 2.0 * k
    for j in range(n, 0, -1):
        e_row = lam[n - j + 1] - lam[n - j] - k
        for i in range(j, 0, -1):
            p = (i, j)
            if e_row != 0.0:
                factors.append(Factor("mono", e_row, (p,)))
            x = diagram.target(p)[0]
            for i1 in range(1, j + 2):
                if e_cross == 0.0:
                    break
                if i1 == x:
                    factors.append(Factor("vanish", e_cross, (p,)))
                elif i1 < x:
                    factors.append(Factor("diff", e_cross, (p, (i1, j + 1))))
                else:
                    factors.append(Factor("diff", e_cross, ((i1, j + 1), p)))
            if e_within != 0.0:
                for i1 in range(i + 1, j + 1):
                    factors.append(Factor("diff", e_within, ((i1, j), p)))

    for f in factors:
        if f.kind == "diff" and collapse[f.pts[0]] <= collapse[f.pts[1]]:
            raise AssertionError(f"difference factor {f} not oriented big-minus-small")
    return tuple(factors)


def _lowest_axis(c: CyclePath, f: Factor) -> int:
    """The lowest axis factor f reads: its lower point's (top-row points
    read none, so they count as `c.naxes`)."""
    return min(c.axis.get(q, c.naxes) for q in f.pts)


def _top_row(cs: Sequence[CyclePath], shape: tuple[int, ...] = ()):
    """t, log-modulus and argument of the top-row points, which sit at z, as
    three dicts: Python scalars for one cycle, and for several cycles of one
    diagram arrays of `shape` over them (the batch axis leads)."""
    rows = len(cs[0].z)
    if len(cs) == 1:
        t = {(i, rows): v for i, v in enumerate(cs[0].z, start=1)}
        return t, {p: math.log(abs(v)) for p, v in t.items()}, {p: cmath.phase(v) for p, v in t.items()}
    t, logabs, arg = {}, {}, {}
    for i, zs in enumerate(zip(*(c.z for c in cs)), start=1):
        t[(i, rows)] = np.array(zs).reshape(shape)
        logabs[(i, rows)] = np.array([math.log(abs(v)) for v in zs]).reshape(shape)
        arg[(i, rows)] = np.array([cmath.phase(v) for v in zs]).reshape(shape)
    return t, logabs, arg


def _log_data(c: CyclePath, nodes: Sequence[_Nodes], data=None, points=None):
    """t values plus log-moduli and unwound arguments from per-axis records;
    the records' arrays broadcast.  `data` holds the three at the top row (c's
    z when not given) and at every target of `points`, the points to build
    (all of c's when not given, in `c.points` order); they are added to it
    in place, and it is returned."""
    t, logabs, arg = data = data or _top_row([c])
    for p in reversed(c.points if points is None else points):  # rows top-down
        nd = nodes[c.axis[p]]
        tar = c.diagram.target(p)
        t[p] = nd.step * t[tar]
        logabs[p] = nd.log1m_f + logabs[tar]
        arg[p] = nd.angle + arg[tar]
    return data


def _logs(c: CyclePath, factors: Sequence[Factor], nodes: Sequence[_Nodes], data):
    """Per-factor (log-modulus, argument) arrays under the anchored branch
    from `_log_data`'s `data`; `nodes[a]` is axis a's node record."""
    t, logabs, arg = data
    logs = []
    with np.errstate(divide="ignore"):  # log(0) on the boundary is caught downstream
        for f in factors:
            if f.kind == "mono":
                p = f.pts[0]
                logs.append((logabs[p], arg[p]))
            elif f.kind == "vanish":
                p = f.pts[0]
                tar = c.diagram.target(p)
                nd = nodes[c.axis[p]]
                logs.append((logabs[tar] + nd.vlog, arg[tar] + nd.varg))
            else:
                big, small = f.pts
                wv = 1.0 - t[small] / t[big]
                logs.append((logabs[big] + 0.5 * np.log(wv.real**2 + wv.imag**2),
                             arg[big] + np.arctan2(wv.imag, wv.real)))
    return logs


def _factor_logs(c: CyclePath, sp: SpectralParam, nodes: Sequence[_Nodes]):
    """The z-only log, the factors, their (log-modulus, argument) arrays and
    the t values at c's z; `nodes[a]` is axis a's node record."""
    const, factors = omega_factor_list(c, sp)
    data = _log_data(c, nodes)
    return const, factors, _logs(c, factors, nodes, data), data[0]


def _log_sum(const: complex, factors: Sequence[Factor], logs):
    """Log of the form's coefficient: const + sum of expo (log|base| + i arg)."""
    total = const
    for f, (la, aa) in zip(factors, logs):
        total = total + f.expo * (la + 1j * aa)
    return total


def omega_w_eval(c: CyclePath, sp: SpectralParam, tau: Sequence[float]) -> PhasedValue:
    """Value of the coefficient function of the form at one interior point.

    The differential (the dt/dtau Jacobian) is not included; `integrate`
    applies it.  Raises if any factor base vanishes at tau.
    """
    const, factors, logs, _ = _factor_logs(c, sp, _tau_nodes(c, tau))
    for f, (la, _) in zip(factors, logs):
        if not np.isfinite(la):
            raise ValueError(f"factor {f} evaluated on the singular locus at tau={list(tau)}")
    total = _log_sum(const, factors, logs)
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
    or more doubles `steps`.
    """
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
    """Base point tau = eta*(1,..,1) and the principal arguments there."""
    tau = np.full(c.naxes, eta)
    _, factors = omega_factor_list(c, sp)
    return tau, [cmath.phase(b) for b in _factor_bases(c, factors, tau)]


# -- quadrature ----------------------------------------------------------------


def tanh_sinh_rule_with_complement(
    npoints: int, cutoff: float = 3.2
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes x, complements 1-x (cancellation-free), and weights on (0, 1)."""
    u = np.linspace(-cutoff, cutoff, npoints)
    h = u[1] - u[0]
    y = np.pi * np.sinh(u)
    x = 1.0 / (1.0 + np.exp(-y))
    xm = 1.0 / (1.0 + np.exp(y))
    w = h * np.pi * np.cosh(u) * x * xm
    return x, xm, w


def tanh_sinh_rule(npoints: int, cutoff: float = 3.2) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on (0, 1); double-exponential in the trapezoid variable."""
    x, _, w = tanh_sinh_rule_with_complement(npoints, cutoff)
    return x, w


def gauss_legendre_rule(npoints: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(npoints)
    return 0.5 * (x + 1.0), 0.5 * w


_RULES = {"tanh-sinh": tanh_sinh_rule, "gauss-legendre": gauss_legendre_rule}


def _rule(quad: QuadratureSpec) -> tuple[np.ndarray, np.ndarray]:
    return _RULES[quad.scheme](quad.points_per_axis)


@functools.lru_cache(maxsize=64)
def _axis_weights(scheme: str, npoints: int, bump: BumpFn, below: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The quadrature weights times the Jacobian prod_p dt_p/dtau_p, but for
    the constant prod_p z_{collapse(p)}, as one read-only complex array per
    axis, built once per rule and `below` (a diagram's `_Geometry.below`).

    dt_p/dtau_p = e^{2 pi i tau_p} (2 pi i (1 - f_p) - f'_p) t_{tar(p)}, and
    t_{tar(p)} is z_{collapse(p)} times e^{2 pi i tau_q} (1 - f_q) for every
    point q above p on its chain.  So axis q carries its weight, its own
    Jacobian factor and, once for each point below it, e^{2 pi i tau_q} (1 - f_q).
    """
    nodes, wts = _quad_nodes(scheme, npoints, bump)
    out = tuple(wts * nodes.jac * nodes.step**d if d else wts * nodes.jac for d in below)
    for w in out:
        w.flags.writeable = False
    return out


def _log_integrand(mod, arg, factors: Sequence[Factor], logs, shape: tuple[int, ...]):
    """mod + i arg plus the sum of expo * (log-modulus + i argument) over the
    factors, as two real sums (log-modulus, argument) in factor order.

    Each partial sum keeps the broadcast shape of its terms until it spans
    `shape`, so terms on few axes are added at their own size; from then on
    it is added to in place, so `mod` and `arg` arrays that span `shape` are
    updated.  Each node sees the additions `_log_sum` makes, in its order.
    """
    for f, (la, aa) in zip(factors, logs):
        if getattr(mod, "shape", None) == shape:
            mod += f.expo * la
            arg += f.expo * aa
        else:
            mod = mod + f.expo * la
            arg = arg + f.expo * aa
    return mod, arg


def integrate(c: CyclePath, sp: SpectralParam, quad: QuadratureSpec | None = None) -> complex:
    """Quadrature of the pulled-back form over [0,1]^N, N = n(n+1)/2.

    Includes the triangular Jacobian prod dt_{ij}/dtau_{ij} with
    dt/dtau = e^{2 pi i tau} (2 pi i (1-f) - f') t_tar, which factors into
    a constant and one complex array per axis (`_axis_weights`) that
    multiply the rule's weights.  The factor logs are broadcast from the
    rule's cached per-axis node record; each block fixes the fewest leading
    axes that keep it within `_BLOCK_NODES` nodes (one axis stays free).

    A block's integrand is one log-space sum in factor order
    (`_log_integrand`), exponentiated once and contracted with the per-axis
    weights, last axis first; blocks are summed in C order, so memory stays
    bounded and the result is deterministic for a spec.  The factors that
    read no fixed axis come first (`_t_factors`) and are the same in every
    block: their logs are evaluated and summed once per call, and each block
    starts from that sum and adds only the logs of the rest, from the t
    values of the fixed points alone.  With no axis fixed, every factor is
    in the first part and the one block is the grid.

    Raises ArithmeticError naming the first node, in C order, where the
    integrand is not finite or a factor base vanishes.  `_integrate` takes
    several z of one diagram in one call, with these bits at each.
    """
    return _integrate([c], sp, quad)[0]


def _integrate(cycles: Sequence[CyclePath], sp: SpectralParam, quad: QuadratureSpec | None = None) -> list[complex]:
    """`integrate` at each of `cycles`, which share one diagram and bump, in
    one call: the factor list, the rule's records, the Jacobian weights and
    the split into blocks are set up once, and the z-dependent arrays carry a
    leading batch axis.

    The batch is cut into chunks of at most `_BLOCK_NODES` // (block nodes)
    cycles, so a chunk holds no more nodes than one block of one cycle; the
    blocks of each cycle are those `integrate` makes alone.  Every node of
    every cycle sees the operations of `integrate` at that cycle, in the same
    order, so each result has its bits.  Once a block fixes a point of row
    n, some factors of the fixed points read no free axis: alone, their logs
    are taken of numpy scalars, whose log can differ in the last bit from
    the array log a batch would take, so such a batch goes one cycle at a
    time.  A chunk of one cycle keeps `integrate`'s scalars and shapes.  The
    first failing cycle in batch order raises `integrate`'s error for it.
    """
    c = cycles[0]
    if len(cycles) > 1 and any(o.diagram != c.diagram or o.bump != c.bump for o in cycles):
        raise ValueError("a batch of cycles must share one diagram and bump")
    quad = quad or QuadratureSpec(epsilon=c.bump.epsilon)
    if abs(quad.epsilon - c.bump.epsilon) > 1e-12:
        raise ValueError("quadrature epsilon disagrees with the cycle's bump height")
    nodes, _ = _quad_nodes(quad.scheme, quad.points_per_axis, c.bump)
    x = nodes.x
    npts = len(x)
    lam, k = float_view(sp)
    consts = [_z_log(o, lam, k) for o in cycles]
    factors = _t_factors(c.diagram, lam, k)
    jw = _axis_weights(quad.scheme, quad.points_per_axis, c.bump, c.below)
    lead = 0
    while lead < c.naxes - 1 and npts ** (c.naxes - lead) > _BLOCK_NODES:
        lead += 1
    free = c.naxes - lead
    # a block that fixes a point of row n (the last n axes) takes one cycle
    chunk = max(1, _BLOCK_NODES // npts**free) if lead <= c.naxes - c.rank else 1
    # the factors that read a fixed axis close the list (`_t_factors`); they
    # are the tail, evaluated per block, and the head is summed once
    split = len(factors)
    while lead and split and _lowest_axis(c, factors[split - 1]) < lead:
        split -= 1
    head, tail = factors[:split], factors[split:]
    free_nodes = [nodes.reshape((-1,) + (1,) * (free - 1 - a)) for a in range(free - 1)] + [nodes]
    # the head reads no fixed axis, so any node stands in for those
    head_nodes = [nodes.at(0) for _ in range(lead)] + free_nodes
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(cycles), chunk):
            batch = cycles[start:start + chunk]
            bshape = (len(batch),) if len(batch) > 1 else ()
            zshape = bshape + (1,) * free
            const = consts[start] if not bshape else np.array(consts[start:start + chunk]).reshape(zshape)
            vals = np.empty(bshape + (npts,) * free, dtype=complex)  # every block's integrand in turn
            data = _log_data(c, head_nodes, _top_row(batch, zshape), c.points[lead:])
            logs = _logs(c, head, head_nodes, data)
            head_mod, head_arg = _log_integrand(const.real, const.imag, head, logs, vals.shape)
            del logs
            acc = [0.0 + 0.0j] * len(batch)
            errors = {}
            for idx in itertools.product(range(npts), repeat=lead):
                vals.real = head_mod
                vals.imag = head_arg
                if tail:
                    block_nodes = [nodes.at(i) for i in idx] + free_nodes
                    # the points on fixed axes, overwritten per block; the rest are the head's
                    logs = _logs(c, tail, block_nodes, _log_data(c, block_nodes, data, c.points[:lead]))
                    _log_integrand(vals.real, vals.imag, tail, logs, vals.shape)
                    del logs  # frees the block-sized factor arrays before exp
                # a base that vanishes with positive exponent makes the log-modulus
                # -inf and the integrand 0, but the node is on the singular locus
                vanish = None if vals.real.min() > -math.inf else ~(vals.real > -math.inf)
                np.exp(vals, out=vals)
                part = vals
                for w in reversed(jw[lead:]):
                    part = np.einsum("ij,j->i", part.reshape(-1, npts), w)
                weight = math.prod(w[i] for w, i in zip(jw, idx))
                for b, pb in enumerate(part.tolist()):
                    if b not in errors and (vanish is not None or not cmath.isfinite(pb)):
                        bad = ~np.isfinite(vals[b] if bshape else vals)
                        if vanish is not None:
                            bad |= vanish[b] if bshape else vanish
                        if np.any(bad):
                            node = (*idx, *np.argwhere(bad)[0])
                            errors[b] = f"non-finite integrand at tau = {[float(x[i]) for i in node]}"
                    acc[b] += weight * pb
                if 0 in errors:  # no cycle before it in the batch can fail
                    break
            if errors:
                raise ArithmeticError(errors[min(errors)])
            out += [math.prod(o.z[c.collapse[p] - 1] for p in c.points) * a for o, a in zip(batch, acc)]
            del vals, data, head_mod, head_arg  # a chunk's arrays are freed before the next's
    return out


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
    base, *steps = _integrate([cycle_for_w(w, zv, quad.epsilon) for zv in zs], sp, quad)
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
