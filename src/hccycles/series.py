"""Asymptotic series for the hypergeometric system of type A_n.

Solutions of L phi = ((lambda,lambda) - (rho,rho)) phi of the form
phi = sum_{nu >= mu} G_nu e^{nu(u)} with mu = w.lambda + rho are built from
the Freudenthal-type recurrence

  {(nu-rho, nu-rho) - (mu-rho, mu-rho)} G_nu
      = 2k sum_{alpha; R+} sum_{j>=1} (nu - j alpha, alpha) G_{nu - j alpha}

in exact rational arithmetic, normalized by G_mu = 1.  Exponent offsets
nu - mu are stored in simple-root coordinates (nonnegative integers); the
coordinate sum is the grading ("depth").

The recurrence runs on integers over one denominator D, the lcm of 2k's and
mu's denominators: mu, w.lambda, the gaps mu_a - mu_b, k and every bracket
are integers over D.  Each entry's right-hand side is summed as integers
over the lcm of its lower entries' denominators and reduced once, into one
Fraction per entry.  `residual_L` reads the same integer form and builds a
Fraction only for a nonzero coefficient.

Roots are 0-based index pairs (a, b) for e_a - e_b, so every pairing is a
coordinate difference: (nu - j alpha, alpha) = nu_a - nu_b - 2j, and the
offset of alpha covers simple-root coordinates a..b-1.

The same module builds symbol tables p_mu(lambda) of differential operators
commuting with L from their constant term p_0(lambda) = sigma(lambda - rho),
again by exact recurrence, and checks truncated commutators.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction as Q
from typing import Iterator, Mapping, Sequence

from . import rootsystem as rs
from .polynomial import Poly

Offset = tuple[int, ...]


class ResonanceError(ValueError):
    """Spectral parameter hits the resonant set of the recurrence."""

    def __init__(self, message: str, nu=None):
        super().__init__(message)
        self.nu = nu


@dataclass(frozen=True)
class SpectralParam:
    """Sum-zero spectral parameter lambda with coupling k, exact rationals."""

    lam: tuple[Q, ...]
    k: Q

    def __post_init__(self):
        lam = rs.vec(self.lam)
        if sum(lam) != 0:
            raise ValueError("lambda coordinates must sum to 0")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "k", Q(self.k))

    def __hash__(self) -> int:
        # Fraction.__hash__ costs about 1 us a coordinate; closedforms looks
        # its factor table up by parameter whenever the parameter changes.
        return hash((tuple(map(Q.as_integer_ratio, self.lam)), self.k.as_integer_ratio()))

    @property
    def rank(self) -> int:
        return len(self.lam) - 1

    @property
    def rho(self) -> tuple[Q, ...]:
        return rs.rho(self.rank, self.k)

    def is_generic(self) -> bool:
        """(lambda, alpha_check) not an integer, for every root."""
        lam = self.lam
        return all((lam[a] - lam[b]).denominator != 1 for a, b in rs.positive_root_pairs(self.rank))


# Views of a parameter for the float layers, each built once while the
# parameter is in use.  A bounded cache rather than an attribute: a pool of
# thousands of parameters would otherwise keep all their views alive.


@functools.lru_cache(maxsize=8)
def exact_view(sp: SpectralParam) -> tuple[int, tuple[int, ...], int]:
    """(D, D lambda, D k): lambda and k as integers over one denominator D,
    the least common multiple of lambda's denominators and twice k's.  D is
    even and D k is even, so D rho = (D k / 2) (n, n - 2, ..., -n) is
    integral too.  For an integer numerator m, m / D is the correctly
    rounded float of the Fraction m / D, as `float` gives it."""
    den = math.lcm(2 * sp.k.denominator, *(x.denominator for x in sp.lam))
    return (den, tuple(x.numerator * (den // x.denominator) for x in sp.lam),
            sp.k.numerator * (den // sp.k.denominator))


@functools.lru_cache(maxsize=8)
def float_view(sp: SpectralParam) -> tuple[tuple[float, ...], float]:
    """(float lambda, float k)."""
    return tuple(map(float, sp.lam)), float(sp.k)


def gamma_L(sp: SpectralParam) -> Q:
    """(lambda,lambda) - (rho,rho), the eigenvalue of L; Weyl invariant."""
    return rs.inner(sp.lam, sp.lam) - rs.inner(sp.rho, sp.rho)


# -- offset bookkeeping -------------------------------------------------------


def root_offset_coords(n: int) -> list[Offset]:
    """Positive roots as 0/1 vectors in simple-root coordinates."""
    return [tuple(1 if a <= i < b else 0 for i in range(n)) for a, b in rs.positive_root_pairs(n)]


def offsets_of_height(n: int, h: int) -> Iterator[Offset]:
    if n == 1:
        yield (h,)
        return
    for first in range(h + 1):
        for rest in offsets_of_height(n - 1, h - first):
            yield (first,) + rest


def offset_vector(n: int, offset: Offset) -> tuple[int, ...]:
    """beta = sum_i c_i alpha_i in the e-basis: beta_i = c_i - c_{i-1}, with
    c_{-1} = c_n = 0."""
    c = tuple(offset)
    if len(c) != n:
        raise ValueError("offset has wrong length")
    return tuple(x - y for x, y in zip(c + (0,), (0,) + c))


def _lowered(offset: Offset, a: int, b: int) -> Iterator[tuple[int, Offset]]:
    """(j, offset - j alpha) for j >= 1 while nonnegative, alpha = e_a - e_b:
    the coordinates a..b-1 drop by j."""
    head, mid, tail = offset[:a], offset[a:b], offset[b:]
    for j in range(1, min(mid) + 1):
        yield j, head + tuple(c - j for c in mid) + tail


# -- Freudenthal-type coefficient tables --------------------------------------


@dataclass
class CoeffTable:
    """Coefficients G_nu of one asymptotic solution, keyed by nu - mu.

    The offsets must be every tuple of rank nonnegative integers of height
    <= the deepest, each once, as `freudenthal_table` writes them; anything
    else raises ValueError when the table is built, so `residual_L`,
    `phi_eval` and `series_terms_by_depth` never read an incomplete table.
    """

    mu: tuple[Q, ...]
    k: Q
    depth: int
    entries: dict[Offset, Q] = field(default_factory=dict)

    def __post_init__(self):
        n = self.rank
        for off in self.entries:
            if not (isinstance(off, tuple) and len(off) == n and all(type(c) is int and c >= 0 for c in off)):
                raise ValueError(f"offset {off} is not {n} nonnegative integers")
        h = max((sum(off) for off in self.entries), default=0)
        # distinct offsets of height <= h are all of them exactly when there are C(h + n, n)
        if len(self.entries) != math.comb(h + n, n):
            raise ValueError(f"the offsets are not every {n}-tuple of height <= {h}")

    @property
    def rank(self) -> int:
        return len(self.mu) - 1

    @property
    def wlam(self) -> tuple[Q, ...]:
        """mu - rho, the Weyl translate of lambda carried by this solution."""
        return rs.sub(self.mu, rs.rho(self.rank, self.k))

    def as_dict(self) -> dict:
        """The JSON-ready form: exact values as strings, offsets as lists."""
        return {
            "mu": [str(c) for c in self.mu],
            "k": str(self.k),
            "entries": [
                {"offset": list(off), "value": str(val)}
                for off, val in self.entries.items()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict())

    @classmethod
    def from_json(cls, text: str) -> "CoeffTable":
        """The table `to_json` writes.  The text comes from outside, so
        anything else raises ValueError: it must be an object with "mu" (at
        least two coordinates, rank >= 1), "k" and "entries", a list of
        objects with "offset" and "value"; mu's coordinates, k and the
        values must be exact (`_json_rational`), each offset a list of
        integers given once, and the offsets complete as the constructor
        checks them."""
        raw = json.loads(text)
        if not isinstance(raw, dict) or not {"mu", "k", "entries"} <= raw.keys():
            raise ValueError('a coefficient table is an object with "mu", "k" and "entries"')
        if not isinstance(raw["mu"], list) or len(raw["mu"]) < 2:
            raise ValueError(f"mu {raw['mu']!r} is not a list of at least 2 coordinates")
        if not isinstance(raw["entries"], list) or not all(
                isinstance(e, dict) and {"offset", "value"} <= e.keys() for e in raw["entries"]):
            raise ValueError('entries is not a list of objects with "offset" and "value"')
        mu = tuple(_json_rational(c, "mu coordinate") for c in raw["mu"])
        k = _json_rational(raw["k"], "k")
        n = len(mu) - 1
        entries = {}
        for e in raw["entries"]:  # a list of integers, each offset once
            off = e["offset"]
            if not isinstance(off, list) or not all(type(c) is int for c in off):
                raise ValueError(f"offset {off} is not {n} nonnegative integers")
            if tuple(off) in entries:
                raise ValueError(f"offset {off} is repeated")
            entries[tuple(off)] = _json_rational(e["value"], "value")
        depth = max((sum(off) for off in entries), default=0)
        return cls(mu=mu, k=k, depth=depth, entries=entries)


_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")  # str of a Fraction, or with a nonzero denominator


def _json_rational(v, what: str) -> Q:
    """The exact rational of a JSON value: an int that is not a bool, or a
    string "num" or "num/den" with den nonzero, as `CoeffTable.as_dict`
    writes it; anything else, a float included, raises ValueError."""
    if type(v) is int:
        return Q(v)
    if isinstance(v, str) and _RATIONAL.fullmatch(v):
        return Q(v)
    raise ValueError(f"{what} {v!r} is not an integer or a rational string")


def _validate_mu(mu: Sequence, sp: SpectralParam) -> tuple[Q, ...]:
    mu = rs.vec(mu)
    wlam = rs.sub(mu, sp.rho)
    if sorted(wlam) != sorted(sp.lam):
        raise ValueError("mu - rho is not a Weyl translate of lambda")
    return mu


def _integer_recurrence(mu: Sequence[Q], k: Q):
    """The recurrence at mu on integers over one denominator D, the lcm of
    2k's and mu's denominators (as in `exact_view`): (D, D k, row).

    D k is even, so D (mu - rho) is integral.  row(offset) gives, at
    nu = mu + beta, the bracket times D and the right-hand side's terms:
    (D {(nu-rho, nu-rho) - (mu-rho, mu-rho)}, [(D (nu - j alpha, alpha),
    offset - j alpha), ...]), the terms in the order of the root pairs and
    then j.  `freudenthal_table` and `residual_L` both read this one form.
    """
    n = len(mu) - 1
    den = math.lcm(2 * k.denominator, *(m.denominator for m in mu))
    dk = k.numerator * (den // k.denominator)
    dmu = [m.numerator * (den // m.denominator) for m in mu]
    dwlam = [m - dk // 2 * (n - 2 * a) for a, m in enumerate(dmu)]
    gaps = [(a, b, dmu[a] - dmu[b]) for a, b in rs.positive_root_pairs(n)]

    def row(offset: Offset) -> tuple[int, list[tuple[int, Offset]]]:
        beta = offset_vector(n, offset)
        bracket = sum((2 * x + den * c) * c for x, c in zip(dwlam, beta) if c)
        terms = [(gap + den * (beta[a] - beta[b] - 2 * j), lower)
                 for a, b, gap in gaps for j, lower in _lowered(offset, a, b)]
        return bracket, terms

    return den, dk, row


def freudenthal_table(mu: Sequence, sp: SpectralParam, depth: int) -> CoeffTable:
    """Solve the recurrence for G_nu, nu = mu + (height <= depth) offsets.

    Each entry's right-hand side is summed as integers over the lcm of its
    lower entries' denominators (`_integer_recurrence`) and reduced once,
    into one Fraction per entry.

    Raises ResonanceError if lambda pairs integrally with a root (the
    asymptotic exponents of two solutions then collide) or if a recurrence
    bracket vanishes at some nu.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    mu = _validate_mu(mu, sp)
    n = sp.rank
    for a, b in rs.positive_root_pairs(n):
        pairing = sp.lam[a] - sp.lam[b]
        if pairing.denominator == 1:
            alpha = rs.root(n, a + 1, b + 1)
            nu = rs.add(mu, rs.scale(abs(int(pairing)), alpha))
            raise ResonanceError(
                "resonant spectral parameter: (lambda, coroot of "
                f"{tuple(map(str, alpha))}) = {pairing} is an integer; "
                f"exponents collide at nu = {tuple(map(str, nu))}",
                nu=nu,
            )

    den, dk, row = _integer_recurrence(mu, sp.k)
    table: dict[Offset, Q] = {(0,) * n: Q(1)}
    for h in range(1, depth + 1):
        for offset in sorted(offsets_of_height(n, h)):
            bracket, terms = row(offset)
            if bracket == 0:
                nu = rs.add(mu, offset_vector(n, offset))
                raise ResonanceError(
                    "resonant spectral parameter: recurrence bracket vanishes "
                    f"at nu = {tuple(map(str, nu))}",
                    nu=nu,
                )
            lows = [(f, table[lower]) for f, lower in terms]
            m = math.lcm(*(x.denominator for _, x in lows))
            # G_nu = 2k sum (F / D) G_lower / (bracket / D)
            table[offset] = Q(2 * dk * sum(f * x.numerator * (m // x.denominator) for f, x in lows), den * bracket * m)

    return CoeffTable(mu=mu, k=sp.k, depth=depth, entries=table)


def freudenthal_table_for_w(w, sp: SpectralParam, depth: int) -> CoeffTable:
    """Table for mu = w.lambda + rho."""
    mu = rs.add(rs.weyl_apply(w, sp.lam), sp.rho)
    return freudenthal_table(mu, sp, depth)


def residual_L(table: CoeffTable) -> Q:
    """Max |coefficient| of (L - eigenvalue) applied to the truncated series.

    L is applied through its expansion
    L = sum d_i^2 - 2 sum (rho,e_i) d_i - 2k sum_{i<j} sum_m e^{m(u_i-u_j)}(d_i-d_j),
    coefficient by coefficient in the e^{nu(u)} basis; exact zero expected.
    At nu = mu + beta the coefficient is bracket G_nu minus the recurrence's
    right-hand side, summed as integers over D^2 and the lcm of the entries'
    denominators (`_integer_recurrence`); only a nonzero one becomes a
    Fraction.
    """
    den, dk, row = _integer_recurrence(table.mu, table.k)
    entries = table.entries
    worst = Q(0)
    for offset, g in entries.items():
        bracket, terms = row(offset)
        lows = [(f, entries[lower]) for f, lower in terms]
        m = math.lcm(g.denominator, *(x.denominator for _, x in lows))
        # D^2 m (bracket / D) G_nu - D^2 m 2k sum (F / D) G_lower
        acc = (den * bracket * g.numerator * (m // g.denominator)
               - 2 * dk * sum(f * x.numerator * (m // x.denominator) for f, x in lows))
        if acc:
            worst = max(worst, Q(abs(acc), den * den * m))
    return worst


def _terms(table: CoeffTable, z: Sequence[complex]) -> list[tuple[int, complex]]:
    """(depth, G_nu z^{nu-mu}) for every entry of the table, in (depth,
    offset) order.

    Requires finite 0 < |z_1| < ... < |z_{n+1}| (the asymptotic zone).
    """
    zs = [complex(v) for v in z]
    if len(zs) != table.rank + 1:
        raise ValueError("z has wrong length")
    if not all(0 < abs(a) < abs(b) < math.inf for a, b in zip(zs, zs[1:])):
        raise ValueError("need finite 0 < |z_1| < ... < |z_{n+1}| for the asymptotic zone")
    ratios = [a / b for a, b in zip(zs, zs[1:])]
    terms = []
    for offset in sorted(table.entries, key=lambda o: (sum(o), o)):
        term = complex(table.entries[offset])
        for r, c in zip(ratios, offset):
            term *= r ** c
        terms.append((sum(offset), term))
    return terms


def phi_eval(table: CoeffTable, z: Sequence[complex]) -> complex:
    """z^mu * sum G_nu z^{nu-mu} over the whole table; principal powers.

    Requires finite 0 < |z_1| < ... < |z_{n+1}| (the asymptotic zone).
    """
    zs = [complex(v) for v in z]
    total = 0j
    for _, term in _terms(table, zs):
        total += term
    return cmath.exp(sum(float(m) * cmath.log(zi) for m, zi in zip(table.mu, zs))) * total


def series_terms_by_depth(table: CoeffTable, z: Sequence[complex]) -> list[float]:
    """|sum of depth-h terms| of the normalized series, for h from 0 to the
    depth of the table's deepest entry (`CoeffTable.from_json` sets `depth`
    the same way).

    Requires z in the asymptotic zone, as `phi_eval` does.
    """
    terms = _terms(table, z)
    sums = [0j] * (max((h for h, _ in terms), default=0) + 1)
    for h, term in terms:
        sums[h] += term
    return [abs(s) for s in sums]


def a1_hypergeometric_coefficients(sp: SpectralParam, w, depth: int) -> list[Q]:
    """Rank-1 oracle: solve the hypergeometric ODE for g(x) term by term.

    For phi = z_1^a z_2^b g(z_1/z_2) with (a, b) = w.lambda + rho, the
    eigenvalue equation reduces to a one-variable ODE whose power-series
    coefficients satisfy a two-term recursion; derived independently of the
    exponential-basis recurrence.
    """
    if sp.rank != 1:
        raise ValueError("rank-1 oracle only")
    mu = rs.add(rs.weyl_apply(w, sp.lam), sp.rho)
    a, b = mu
    k = sp.k
    e_val = rs.inner(sp.lam, sp.lam) - rs.inner(sp.rho, sp.rho)
    coeffs = [Q(1)]
    for c in range(1, depth + 1):
        num = (a + c - 1) ** 2 + (b - c + 1) ** 2 - e_val + k * (a - b + 2 * c - 2)
        den = (a + c) ** 2 + (b - c) ** 2 - e_val - k * (a - b + 2 * c)
        if den == 0:
            raise ResonanceError(f"ODE recursion denominator vanishes at order {c}")
        coeffs.append(coeffs[-1] * num / den)
    return coeffs


# -- commuting-operator symbols ------------------------------------------------


def _integer_roots(n: int) -> list[tuple[tuple[int, int], tuple[int, ...]]]:
    """((a, b), e_a - e_b) for every positive root, with int coordinates, so
    that the shifts and linear forms built from it take no Fraction
    arithmetic."""
    return [((a, b), tuple((i == a) - (i == b) for i in range(n + 1))) for a, b in rs.positive_root_pairs(n)]


def _symbol_bracket(n: int, k: Q, m: Sequence[int]) -> Poly:
    """(2 lambda - 2 rho + m, m) as a linear form in lambda: the bracket of
    the series recurrence at w.lambda = lambda - rho, with
    (m - 2 rho, m) = sum m_i^2 - k sum (n - 2i) m_i."""
    return Poly.linear([2 * c for c in m], sum(c * c for c in m) - k * sum((n - 2 * i) * c for i, c in enumerate(m)))


def commuting_symbol_table(
    sigma: Poly, n: int, k: Q, depth: int
) -> dict[Offset, Poly]:
    """Symbols p_mu of the operator with Harish-Chandra image sigma.

    p_0(lambda) = sigma(lambda - rho); higher symbols solve

      (2 lambda - 2 rho + mu, mu) p_mu(lambda) =
        2k sum_alpha sum_j {(lambda+mu-j alpha, alpha) p_{mu-j alpha}(lambda)
                            - (lambda, alpha) p_{mu-j alpha}(lambda + j alpha)}

    by exact polynomial division; a nonzero remainder is a hard error.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    k = Q(k)
    nvars = n + 1
    if sigma.nvars != nvars:
        raise ValueError(f"sigma must be a polynomial in {nvars} variables")
    if not sigma.is_symmetric():
        raise ValueError("sigma must be a symmetric polynomial")

    roots = _integer_roots(n)

    table: dict[Offset, Poly] = {(0,) * n: sigma.shift([-r for r in rs.rho(n, k)])}
    for h in range(1, depth + 1):
        for offset in sorted(offsets_of_height(n, h)):
            m = offset_vector(n, offset)
            bracket = _symbol_bracket(n, k, m)
            if bracket.is_zero:
                raise ArithmeticError(f"vanishing symbol bracket at offset {offset}")
            rhs = Poly.zero(nvars)
            for (a, b), alpha in roots:
                lin2 = Poly.linear(alpha, 0)
                for j, lower in _lowered(offset, a, b):
                    p_low = table[lower]
                    lin1 = Poly.linear(alpha, m[a] - m[b] - 2 * j)
                    shifted = p_low.shift([j * c for c in alpha])
                    rhs = rhs + lin1 * p_low - lin2 * shifted
            rhs = rhs * (2 * k)
            quotient, rem = rhs.divide_by_linear(bracket)
            if not rem.is_zero:
                raise ArithmeticError(
                    f"symbol recurrence not divisible by its bracket at offset {offset}"
                )
            table[offset] = quotient
    return table


def symbol_recurrence_residuals(table: Mapping[Offset, Poly], n: int, k: Q) -> dict[Offset, Poly]:
    """bracket*p_mu - rhs recomputed from the table; all zero iff it commutes with L."""
    k = Q(k)
    nvars = n + 1
    roots = _integer_roots(n)
    out: dict[Offset, Poly] = {}
    for offset, p in table.items():
        if sum(offset) == 0:
            continue
        m = offset_vector(n, offset)
        bracket = _symbol_bracket(n, k, m)
        rhs = Poly.zero(nvars)
        for (a, b), alpha in roots:
            lin2 = Poly.linear(alpha, 0)
            for j, lower in _lowered(offset, a, b):
                p_low = table.get(lower, Poly.zero(nvars))
                lin1 = Poly.linear(alpha, m[a] - m[b] - 2 * j)
                rhs = rhs + lin1 * p_low - lin2 * p_low.shift([j * c for c in alpha])
        out[offset] = bracket * p - rhs * (2 * k)
    return out


def weyl_invariance_check(table: Mapping[Offset, Poly], n: int, k: Q) -> bool:
    """Whether the truncated operator is Weyl-group invariant.

    Equivalent criterion: the table solves the commutation recurrence
    exactly and p_0(lambda + rho) is a symmetric polynomial (the constant
    term determines the operator, and symmetric images are exactly the
    invariant operators).
    """
    zero_off = (0,) * n
    if zero_off not in table:
        return False
    residuals = symbol_recurrence_residuals(table, n, k)
    if any(not r.is_zero for r in residuals.values()):
        return False
    p0 = table[zero_off]
    return p0.shift(list(rs.rho(n, Q(k)))).is_symmetric()


def operator_commutator(
    table_a: Mapping[Offset, Poly], table_b: Mapping[Offset, Poly], n: int
) -> dict[Offset, Poly]:
    """Symbols of [A,B] at every offset both tables fully determine.

    Coefficient at kappa: sum over mu+nu=kappa of
    a_mu(lambda+nu) b_nu(lambda) - b_nu(lambda+mu) a_mu(lambda).
    """
    nvars = n + 1
    depth_a = max(sum(o) for o in table_a)
    depth_b = max(sum(o) for o in table_b)
    depth = min(depth_a, depth_b)
    out: dict[Offset, Poly] = {}
    for h in range(depth + 1):
        for kappa in offsets_of_height(n, h):
            acc = Poly.zero(nvars)
            for mu in table_a:
                nu = tuple(c - d for c, d in zip(kappa, mu))
                if any(c < 0 for c in nu) or nu not in table_b:
                    continue
                a_mu, b_nu = table_a[mu], table_b[nu]
                shift_nu = list(offset_vector(n, nu))
                shift_mu = list(offset_vector(n, mu))
                acc = acc + a_mu.shift(shift_nu) * b_nu - b_nu.shift(shift_mu) * a_mu
            out[kappa] = acc
    return out


def l_operator_symbols(n: int, k: Q, depth: int) -> dict[Offset, Poly]:
    """Direct expansion of L: p_0 = sum x_i^2 - 2 sum rho_i x_i,
    p_{m(e_i-e_j)} = -2k (x_i - x_j)."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    k = Q(k)
    nvars = n + 1
    rho = rs.rho(n, k)
    p0 = Poly.zero(nvars)
    for i in range(nvars):
        p0 = p0 + Poly.var(nvars, i) ** 2 - 2 * rho[i] * Poly.var(nvars, i)
    out: dict[Offset, Poly] = {(0,) * n: p0}
    for h in range(1, depth + 1):
        for offset in offsets_of_height(n, h):
            out[offset] = Poly.zero(nvars)
    for coords, alpha in zip(root_offset_coords(n), rs.positive_roots(n)):
        m = 1
        while m * sum(coords) <= depth:
            offset = tuple(m * c for c in coords)
            out[offset] = Poly.linear([-2 * k * c for c in alpha], 0)
            m += 1
    return out


def elementary_power_sum(nvars: int, power: int) -> Poly:
    """sum_i x_i^power."""
    return Poly(nvars, ((tuple(power if j == i else 0 for j in range(nvars)), 1) for i in range(nvars)))
