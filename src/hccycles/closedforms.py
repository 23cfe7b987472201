"""Gamma/sine product evaluators: the leading coefficient a(w), the value
F_w(1) of the normalized asymptotic solution, the z -> 1 limit of the cycle
integral, and the Vandermonde differential identities behind them.

Products are kept as symbolic factor lists (Gamma, sin(pi x), e^{i pi x},
rational constants) so the same object can be evaluated directly or after
reflection-formula rewriting Gamma(x) sin(pi x) -> pi / Gamma(1-x).  The
reflection route of a(w) is `a_w_product(w, sp).reflected().eval()`; it
agrees with `a_w` to about 1e-15 away from poles and that agreement is a
test.

a(w), F_w(1) and the limit are evaluated from a factor table, one per
spectral parameter.  Under w the pairing of the positive root (a, b) is
lambda_i - lambda_j with (i, j) = (w(a) - 1, w(b) - 1), so every Gamma or
sine argument is x = lambda_i - lambda_j + c + c_k k: a pairing shifted by
0, 1, k or 1 - k, a rho argument 1 - k d or 1 - k d - k (d = b - a), or
m k (i = j for the last two kinds).  lambda and k are held as integers
over one even denominator D (`series.exact_view`), so each argument is
an integer numerator over D, formed by integer additions.  Its exact pole
test is an integer test, and each float taken of it is one correctly
rounded integer division.  A Fraction is built only for the symbolic
product.

Each factor a closed form reads at rank n is a slot, a small int.  The
rank's one record, `_slots(n)`, lists every (kind, spec, power) of that
rank in a fixed order, with spec (i, j, c, c_k) for a Gamma or sine
argument and l(w) for a phase, so a rebuilt record names the same slots;
it also holds each positive root's PoleError tag and the limit's sine and
Gamma slots of m k.  The one record per w, `_forms(images, n)`,
lru-bounded, compiles a(w), F_w(1) and the limit in one pass over the
positive roots to a tuple of slots per factor kind, which lists the
factors once; the tags ride beside them for the error path, and the
symbolic `a_w_product` is built from the same slots.  The factor table
holds one value per slot, for a Gamma slot its pole flag and
Gamma(x)^power, so all w of one (lambda, k) share them and each power
is taken once per table.  It fills lazily: each slot is evaluated on
first read, and a one-off a(w) pays for its own factors only.  Tables
are memoized per `SpectralParam` by an lru_cache of 4 entries, behind a
check of the last parameter by identity that skips its hash.

One rule per factor kind and one loop evaluate every product.  Each rule
takes an exact argument as a numerator and a positive denominator, and
is the one place where that argument becomes a float: `_gamma_factor`
gives a Gamma factor's exact pole test and its real value, `_sin_factor`
gives the real sin(pi x) and `_phase_factor` gives e^{i pi x}; `_factor`
takes a Gamma value to its power.  The Gamma and sine rules take a float
only of x >= 0, of 1 - x, or of the exact distance from x to the nearest
integer: a negative Gamma argument goes through the reflection formula
and a sine argument is reduced exactly first, so a factor next to a pole
or a zero keeps its relative accuracy.  `_multiply` multiplies the
constant, each Gamma to its power, each sine and the phase in that
order, reading each factor by its key (a slot, or an exact key) only
when it gets there, and stops at the first Gamma factor at a pole.  A
pole of positive power raises PoleError.  A pole of power <= 0 is a zero
of 1/Gamma, and the product is 0 unless a later Gamma factor of positive
power is at a pole, which then raises PoleError: the later arguments are
tested exactly, as (num, den, power), and none is evaluated.  So F_w(1)
raises at every positive integer k, where each rho factor 1/Gamma(1 - k d)
is a zero and Gamma(1 - k d - k) a pole.  `GammaProduct.eval` lets it
read `_ExactFactors`, which applies `_factor` to the exact arguments on
each read; a(w), F_w(1) and the limit let it read the factor table, which
applies `_factor` once per slot and caches the result.  So the two routes
give the same bits, PoleErrors and zeros.  The table's limit slot, the
w-independent factors of the limit, is built from the table's own sine
and Gamma slots of m k.  A failure comes only from the function whose
factor fails: at k = 1/2, a(w) is finite while F_w(1) and the limit
raise.

Gamma is `math.gamma`, real and good to a few ulps up to its overflow
at about 171.6.  No exactness is claimed for any analytic value here; all
comparisons carry tolerances.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from typing import NamedTuple, Sequence

from . import rootsystem as rs
from .diagrams import Diagram, Permutation
from .polynomial import Poly, vandermonde
from .series import SpectralParam, exact_view

_BETA_POINTS = 400  # tanh-sinh points of each Beta integral of the Gauss oracle
_LEMMA_6_4_POINTS = 100  # random points of `lemma_6_4_check`
_LEMMA_6_4_TOL = 1e-9  # its bound on the relative residual


class PoleError(ArithmeticError):
    """A Gamma factor is evaluated at a pole: a nonpositive integer."""


@dataclass
class GammaProduct:
    """Product of Gamma(x)^{+-1}, sin(pi x), e^{i pi x} and rational constants.

    Arguments are exact rationals, int or Fraction, so the pole test of a
    Gamma factor is exact; `eval` raises TypeError when it reaches a Gamma
    argument of any other type.
    """

    gammas: list[tuple[object, int, str]] = field(default_factory=list)  # (arg, power, tag)
    sins: list[tuple[object, str]] = field(default_factory=list)         # sin(pi*arg)
    exp_pi_i: object = 0                                                  # e^{i pi * arg}
    const: complex = 1.0

    def times_gamma(self, arg, power: int = 1, tag: str = "") -> "GammaProduct":
        self.gammas.append((arg, power, tag))
        return self

    def times_sin(self, arg, tag: str = "") -> "GammaProduct":
        self.sins.append((arg, tag))
        return self

    def times_exp_pi_i(self, arg) -> "GammaProduct":
        self.exp_pi_i = self.exp_pi_i + arg
        return self

    def times_const(self, c) -> "GammaProduct":
        self.const *= c
        return self

    def reflected(self) -> "GammaProduct":
        """Rewrite every Gamma(x)^{+1} sin(pi x) pair as pi / Gamma(1-x)."""
        out = GammaProduct(const=self.const, exp_pi_i=self.exp_pi_i)
        sins = list(self.sins)
        for arg, power, tag in self.gammas:
            match = None
            if power == +1:
                for idx, (sarg, stag) in enumerate(sins):
                    if sarg == arg:
                        match = idx
                        break
            if match is None:
                out.gammas.append((arg, power, tag))
            else:
                sins.pop(match)
                out.times_const(math.pi)
                out.gammas.append((1 - arg, -1, tag))
        out.sins.extend(sins)
        return out

    def eval(self) -> complex:
        return _multiply(_Product(
            self.const,
            tuple(("gamma", arg, power) for arg, power, _ in self.gammas),
            tuple(("sin", arg, 1) for arg, _ in self.sins),
            ("phase", self.exp_pi_i, 1),
            tuple(tag for _, _, tag in self.gammas),
            tuple(tag for _, tag in self.sins),
        ), _ExactFactors())


class _ExactFactors:
    """The factors of a GammaProduct by key (kind, exact argument, power),
    read as `_FactorTable` reads its slots: each is evaluated by `_factor`
    when it is read, and `exact(key)` gives (num, den, power) without
    evaluating it."""

    def __getitem__(self, key):
        return _factor(key[0], *self.exact(key))

    @staticmethod
    def exact(key) -> tuple[int, int, int]:
        kind, arg, power = key
        if not isinstance(arg, (int, Q)):
            raise TypeError(f"{kind.capitalize()} argument {arg!r} is not an int or a Fraction")
        return arg.numerator, arg.denominator, power


def _gamma_factor(num: int, den: int) -> tuple:
    """Gamma at the exact argument x = num / den (den > 0), as
    (pole, value): pole is whether x is a nonpositive integer,
    exactly when num <= 0 and den divides num, and value is Gamma(x) unless
    pole, else None.  For x > 0 it is `math.gamma` of the float of x; for
    x < 0 it is pi / (sin(pi x) Gamma(1 - x)), with the sine from
    `_sin_factor`, so an x next to a pole keeps its exact distance from it.
    Raises OverflowError where Gamma(x) or Gamma(1 - x) exceeds the float
    range, past about 171.6."""
    if _at_pole(num, den):
        return True, None
    if num > 0:
        return False, math.gamma(num / den)
    return False, math.pi / (_sin_factor(num, den) * math.gamma((den - num) / den))


def _at_pole(num: int, den: int) -> bool:
    """Whether num / den (den > 0) is a nonpositive integer, a pole of Gamma."""
    return num <= 0 and num % den == 0


def _pole_error(num: int, den: int, tag: str) -> PoleError:
    return PoleError(f"Gamma argument {num // den} is a nonpositive integer{tag and f' ({tag})'}")


def _sin_factor(num: int, den: int) -> float:
    """sin(pi x) at the exact argument x = num / den (den > 0).

    x = q + r / den is split exactly, with q an integer and r / den in
    (-1/2, 1/2], and sin(pi x) = (-1)^q sin(pi r / den), taken as
    sin(pi (-1)^q r / den) so that an integer x gives +0.0: only the
    remainder becomes a float, so a sine next to a zero keeps its exact
    distance from it."""
    q, r = divmod(num, den)
    if 2 * r > den:
        q, r = q + 1, r - den
    return math.sin(math.pi * ((-r if q % 2 else r) / den))


def _phase_factor(num: int, den: int) -> complex:
    """e^{i pi x} at the exact argument x = num / den (den > 0)."""
    return cmath.exp(1j * math.pi * complex(num / den))


def _factor(kind: str, num: int, den: int, power: int):
    """The value `_multiply` reads of one factor at the exact argument
    x = num / den: for kind "gamma" (pole, Gamma(x) ** power), with None
    for the power at a pole, and for "sin" and "phase" `_sin_factor` and
    `_phase_factor`, which have no power."""
    if kind == "gamma":
        pole, g = _gamma_factor(num, den)
        return pole, (None if pole else g ** power)
    return _sin_factor(num, den) if kind == "sin" else _phase_factor(num, den)


class _Product(NamedTuple):
    """One product as the keys `_multiply` reads, in GammaProduct order: the
    constant, the Gamma keys, the sine keys, the phase key, and the tags of
    the Gamma and of the sine factors.  A key is a slot of `_slots(n)` for
    the factor table, or (kind, exact argument, power) for `_ExactFactors`."""

    const: float
    gammas: tuple
    sins: tuple
    phase: object
    tags: tuple
    sin_tags: tuple


def _multiply(prod: _Product, factors) -> complex:
    """const * prod Gamma^power * prod sin * phase, multiplied in that order.

    `factors[key]` is the factor's value, for a Gamma (pole, Gamma(x) **
    power) as `_factor` gives it; each is read only when the loop reaches
    it.  The first Gamma factor at a pole ends the loop (`_from_pole`).
    The Gamma and sine factors are real and the phase complex, so the
    product is complex.
    """
    const, gammas, sins, phase, tags, _ = prod
    val = complex(const)
    for key in gammas:
        pole, g = factors[key]
        if pole:
            return _from_pole(gammas, tags, gammas.index(key), factors)
        val *= g
    for key in sins:
        val *= factors[key]
    return val * factors[phase]


def _from_pole(gammas: tuple, tags: tuple, i: int, factors) -> complex:
    """The product whose Gamma factor gammas[i] is the first at a pole.

    With a positive power it raises PoleError.  With a power <= 0 it is a
    zero of 1/Gamma, which is entire, so the product is 0 unless a later
    Gamma factor of positive power is at a pole: the later factors' exact
    arguments, `factors.exact(key)` as (num, den, power), are then tested
    without being evaluated, and the first such pole raises PoleError, as 0
    times a pole has no value.  A factor next to a pole but not at it is
    evaluated.
    """
    num, den, power = factors.exact(gammas[i])
    if power > 0:
        raise _pole_error(num, den, tags[i])
    for key, tag in zip(gammas[i + 1:], tags[i + 1:]):
        num, den, power = factors.exact(key)
        if power > 0 and _at_pole(num, den):
            raise _pole_error(num, den, tag)
    return 0j


_LIMIT_SLOT = 0  # the w-independent factors of the limit, slot 0 at every rank


class _Slots(NamedTuple):
    """The record of one rank: (kind, spec, power) per slot, the slot of
    each, the PoleError tag of each positive root (a, b), e.g.
    "alpha = ('1', '-1', '0')", and the slots of sin(m pi k) and of
    Gamma(m k), m = 1..n+1, that the `_LIMIT_SLOT` reads."""

    entries: tuple
    index: dict
    tags: dict
    limit_sins: tuple
    limit_gammas: tuple


@functools.lru_cache(maxsize=16)
def _slots(n: int) -> _Slots:
    """The record of rank n (`_Slots`).  Its entries are every factor the
    closed forms read at rank n, as (kind, spec, power) in a fixed order,
    so a slot names the same factor however often the record is rebuilt.  For "gamma" and "sin" the spec (i, j, c, ck)
    names the argument lambda_i - lambda_j + c + ck k.  Per ordered pair
    i != j: a(w)'s Gamma(x), 1/Gamma(x + k) and sin(pi x), F_w(1)'s
    Gamma(x + 1) and 1/Gamma(x + 1 - k), and the limit's sin(pi (x + k)).
    Per d = 1..n, F_w(1)'s rho factors 1/Gamma(1 - k d) and
    Gamma(1 - k d - k); per m = 1..n+1, sin(m pi k) and Gamma(m k) of the
    limit; a(w)'s Gamma(k)^N.  "phase" has the spec l(w) = 0..N, or None
    for no phase, and "limit" is the `_LIMIT_SLOT`.  The sines and phases
    have power 1."""
    N = n * (n + 1) // 2
    entries = [("limit", None, 1), ("gamma", (0, 0, 0, 1), N)]
    entries += [("phase", length, 1) for length in (None, *range(N + 1))]
    for m in range(1, n + 2):
        entries += [("sin", (0, 0, 0, m), 1), ("gamma", (0, 0, 0, m), 1)]
    for d in range(1, n + 1):
        entries += [("gamma", (0, 0, 1, -d), -1), ("gamma", (0, 0, 1, -d - 1), 1)]
    for i in range(n + 1):
        for j in range(n + 1):
            if i != j:
                entries += [
                    ("gamma", (i, j, 0, 0), 1), ("gamma", (i, j, 0, 1), -1), ("sin", (i, j, 0, 0), 1),
                    ("gamma", (i, j, 1, 0), 1), ("gamma", (i, j, 1, -1), -1), ("sin", (i, j, 0, 1), 1),
                ]
    entries = tuple(dict.fromkeys(entries))  # at rank 1 Gamma(k)^N is Gamma(k)
    index = {entry: slot for slot, entry in enumerate(entries)}
    roots = zip(rs.positive_root_pairs(n), rs.positive_roots(n))
    limit = [tuple(index[kind, (0, 0, 0, m), 1] for m in range(1, n + 2)) for kind in ("sin", "gamma")]
    return _Slots(entries, index, {pair: f"alpha = {tuple(map(str, alpha))}" for pair, alpha in roots}, *limit)


class _FactorTable(dict):
    """The factors of the closed forms at one (lambda, k), one value per
    slot of `_slots(n)`, each filled on first read.

    Every argument x of a "gamma" or "sin" slot is an integer numerator
    over the one denominator D of `exact_view(sp)` (`num`), and the slot
    holds `_factor` at (num, D, power): (pole, Gamma(x) ** power) or the
    sine.  A "phase" slot holds `_phase_factor` at (`phase_num(l)`, 2 D).
    The `_LIMIT_SLOT` holds the w-independent factors of `limit_value`,
    read from the slots of sin(m pi k) and Gamma(m k), m = 1..n+1, that
    the rank's record lists: sin(pi k)^{n+1} / prod_m sin(m pi k),
    Gamma(k)^{(n+1)(n+2)/2} and prod_m Gamma(m k).  It raises
    ZeroDivisionError at the first m whose sine is exactly 0, that is where
    m k is an integer, before it reads a Gamma slot; so no Gamma slot it
    reads is at a pole.  A fill that raises stores nothing.  `exact` gives
    a slot's argument as (num, D, power), from which only the symbolic
    product builds a Fraction.
    """

    __slots__ = ("sp", "n", "den", "lam", "k", "entries")

    def __init__(self, sp: SpectralParam):
        super().__init__()
        self.sp, self.n = sp, sp.rank
        self.den, self.lam, self.k = exact_view(sp)
        self.entries = _slots(self.n).entries

    def num(self, spec: tuple[int, int, int, int]) -> int:
        """D x for the argument x that spec (i, j, c, ck) names."""
        i, j, c, ck = spec
        return self.lam[i] - self.lam[j] + c * self.den + ck * self.k

    def phase_num(self, length: int | None) -> int:
        """2 D p, where e^{i pi p} is the phase of a(w) and of the limit,
        e^{-2 pi i (lambda, delta)} e^{-pi i (k-1) l(w)} i^N with
        l(w) = length; 0 (no phase) for length None.

        delta_i = n/2 - i (0-based i), and lambda sums to zero, so
        -2 (lambda, delta) = 2 sum_i i lambda_i.
        """
        if length is None:
            return 0
        n, den = self.n, self.den
        return 4 * sum(i * x for i, x in enumerate(self.lam)) - 2 * (self.k - den) * length + den * (n * (n + 1) // 2)

    def exact(self, slot: int) -> tuple[int, int, int]:
        """A "gamma" or "sin" slot's argument and power as (num, den, power),
        not evaluated."""
        _, spec, power = self.entries[slot]
        return self.num(spec), self.den, power

    def __missing__(self, slot: int):
        kind, spec, power = self.entries[slot]
        if kind == "limit":
            value = self._limit()
        elif kind == "phase":
            value = _phase_factor(self.phase_num(spec), 2 * self.den)
        else:
            i, j, c, ck = spec
            lam, den = self.lam, self.den
            value = _factor(kind, lam[i] - lam[j] + c * den + ck * self.k, den, power)
        self[slot] = value
        return value

    def _limit(self) -> tuple[float, float, float]:
        n, rank = self.n, _slots(self.n)
        sines = [self[slot] for slot in rank.limit_sins]
        if 0 in sines:
            raise ZeroDivisionError(f"denominator sin({sines.index(0) + 1} pi k) vanishes at k = {self.sp.k}")
        gammas = [self[slot][1] for slot in rank.limit_gammas]
        sin_ratio = sines[0] ** (n + 1) / math.prod(sines)
        return sin_ratio, gammas[0] ** ((n + 1) * (n + 2) // 2), math.prod(gammas)


class _TableMemo:
    """`_FactorTable(sp)`, memoized per `SpectralParam` by an lru_cache of 4
    entries behind a check of the last parameter by identity: the repeated
    calls of one parameter skip its hash, about 0.9 us at rank 3 on a
    2-core Xeon.  Nothing is stored on the parameter."""

    def __init__(self):
        self._by_value = functools.lru_cache(maxsize=4)(_FactorTable)
        self._last = (None, None)

    def __call__(self, sp: SpectralParam) -> _FactorTable:
        last, table = self._last
        if last is not sp:
            table = self._by_value(sp)
            self._last = (sp, table)
        return table

    def cache_info(self):
        return self._by_value.cache_info()

    def cache_clear(self) -> None:
        self._by_value.cache_clear()
        self._last = (None, None)


_factor_table = _TableMemo()


def _roots(images: tuple[int, ...], n: int) -> list[tuple[int, int, int, str]]:
    """(i, j, d, tag) per positive root (a, b), in order: the pairing
    (w.lambda, coroot of e_a - e_b) is lambda_i - lambda_j with
    (i, j) = (w(a) - 1, w(b) - 1), and (rho, coroot) = k d with d = b - a."""
    index = rs.weyl_apply(images, tuple(range(n + 1)))  # raises on a bad w
    tags = _slots(n).tags
    return [(index[a], index[b], b - a, tags[a, b]) for a, b in rs.positive_root_pairs(n)]


def _compile(slot: dict, const: float, gammas: list, sins: list, phase) -> _Product:
    """One closed form at one w as slots of one rank's `index`: gammas lists
    (spec, power, tag), sins (spec, tag) and phase is the phase's spec."""
    return _Product(
        const,
        tuple(slot["gamma", spec, power] for spec, power, _ in gammas),
        tuple(slot["sin", spec, 1] for spec, _ in sins),
        slot["phase", phase, 1],
        tuple(tag for _, _, tag in gammas),
        tuple(tag for _, tag in sins),
    )


class _Forms(NamedTuple):
    """The closed forms at one w, each as the slots `_multiply` reads."""

    a_w: _Product
    F_w: _Product
    limit: _Product


@functools.lru_cache(maxsize=256)
def _forms(images: tuple[int, ...], n: int) -> _Forms:
    """a(w), F_w(1) and the w-dependent factors of the limit at one w, from
    one pass over the positive roots, each factor list in the order of the
    formulas in the docstrings of a_w_product, F_w_at_1 and limit_value."""
    N = n * (n + 1) // 2
    a_gammas, a_sins, f_gammas, l_sins = [], [], [], []
    for i, j, d, tag in _roots(images, n):
        # x = (-w.lambda, coroot) = lambda_j - lambda_i
        a_gammas += [((j, i, 0, 0), +1, tag), ((j, i, 0, 1), -1, tag)]
        a_sins.append(((j, i, 0, 0), tag))
        f_gammas += [((i, j, 1, 0), +1, tag), ((i, j, 1, -1), -1, tag),
                     ((0, 0, 1, -d), -1, tag), ((0, 0, 1, -d - 1), +1, tag)]
        l_sins.append(((j, i, 0, 1), tag))
    a_gammas.append(((0, 0, 0, 1), N, "coupling"))
    length = Diagram.from_permutation(Permutation(images)).length()
    slot = _slots(n).index
    return _Forms(
        _compile(slot, 2.0 ** N, a_gammas, a_sins, length),
        _compile(slot, 1.0, f_gammas, [], None),
        _compile(slot, 2.0 ** N, [], l_sins, length),
    )


def _symbolic(prod: _Product, table: _FactorTable) -> GammaProduct:
    out = GammaProduct(const=prod.const)
    for slot, tag in zip(prod.gammas, prod.tags):
        num, den, power = table.exact(slot)
        out.times_gamma(Q(num, den), power, tag)
    for slot, tag in zip(prod.sins, prod.sin_tags):
        num, den, _ = table.exact(slot)
        out.times_sin(Q(num, den), tag)
    _, length, _ = table.entries[prod.phase]
    return out.times_exp_pi_i(Q(table.phase_num(length), 2 * table.den))


def a_w_product(w: Permutation, sp: SpectralParam) -> GammaProduct:
    """Leading coefficient of the cycle integral as a symbolic product:

    prod_alpha Gamma((-w.lambda, av)) sin(pi (-w.lambda, av)) / Gamma((-w.lambda, av) + k)
      * e^{-2 pi i (lambda, delta)} e^{-pi i (k-1) l(w)} Gamma(k)^N (2i)^N,  N = n(n+1)/2.
    """
    table = _factor_table(sp)
    return _symbolic(_forms(w.images, table.n).a_w, table)


def a_w(w: Permutation, sp: SpectralParam) -> complex:
    """`a_w_product(w, sp).eval()`, bit for bit, from the factor table."""
    table = _factor_table(sp)
    return _multiply(_forms(w.images, table.n).a_w, table)


def F_w_at_1(w: Permutation, sp: SpectralParam) -> complex:
    """Value at z = 1 of the normalized asymptotic solution (Opdam):

    prod_alpha Gamma((w.lambda, av)+1)/Gamma((w.lambda, av)-k+1)
      / prod_alpha Gamma(-(rho, av)+1)/Gamma(-(rho, av)-k+1).

    The pairing (rho, coroot of e_a - e_b) is k (b - a).
    """
    table = _factor_table(sp)
    return _multiply(_forms(w.images, table.n).F_w, table)


def limit_value(w: Permutation, sp: SpectralParam) -> complex:
    """z -> 1 limit of the cycle integral:

    prod_alpha sin(pi((-w.lambda, av)+k)) * e^{-2 pi i (lambda,delta)}
      * e^{-pi i (k-1) l(w)} (2i)^N
      * sin(pi k)^{n+1} / (sin(pi k) ... sin((n+1) pi k))
      * Gamma(k)^{(n+1)(n+2)/2} / (Gamma(k) ... Gamma((n+1)k)).
    """
    table = _factor_table(sp)
    sin_ratio, gnum, gden = table[_LIMIT_SLOT]
    return _multiply(_forms(w.images, table.n).limit, table) * sin_ratio * gnum / gden


def gauss_value_by_beta_quadrature(m: float, k: float) -> float:
    """Rank-1 Opdam value as a ratio of two Beta integrals, no Gamma involved.

    F_w(1) = B(m+1, 1-2k) / B(m+1-k, 1-k) with m = (w.lambda, coroot);
    each B(x, y) = int_0^1 t^{x-1}(1-t)^{y-1} dt is done by tanh-sinh.
    Valid on the classical Gauss-summation domain (all four arguments
    positive, in particular k < 1/2).
    """
    import numpy as np

    from .cycles import tanh_sinh_rule_with_complement

    def beta(a: float, b: float) -> float:
        if a <= 0 or b <= 0:
            raise ValueError("Beta arguments must be positive for the quadrature oracle")
        # truncation tail decays like exp(-min(a,b) pi sinh(cutoff))
        cutoff = math.asinh(40.0 / (math.pi * min(a, b, 1.0)))
        x, xm, w = tanh_sinh_rule_with_complement(_BETA_POINTS, cutoff)
        return float(np.sum(w * x ** (a - 1.0) * xm ** (b - 1.0)))

    return beta(m + 1.0, 1.0 - 2.0 * k) / beta(m + 1.0 - k, 1.0 - k)


# -- Vandermonde differential identities ---------------------------------------


def lemma_sum_constant(n: int) -> Q:
    """(n-1)n(n+1)(3n+2)/24."""
    return Q((n - 1) * n * (n + 1) * (3 * n + 2), 24)


def sum_identity_check(nmax: int) -> int | None:
    """The first n in 1..nmax where sum_{q=2}^{n+1} sum_{p<q} (p-1)(q-1)
    differs from lemma_sum_constant(n), or None if it equals it for all n.

    The inner sum over p depends on q alone, so one running pass over
    q = 2, 3, ..., nmax+1 that adds one inner sum per q holds the exact
    double sum for n = q - 1 after step q.  Every n is compared exactly, from
    about nmax^2/2 terms instead of the nmax^3/6 of summing each n afresh.
    """
    total = 0
    for n in range(1, nmax + 1):
        q = n + 1
        total += sum((p - 1) * (q - 1) for p in range(1, q))
        if Q(total) != lemma_sum_constant(n):
            return n
    return None


def mixed_euler_on_vandermonde(n: int) -> tuple[Poly, Poly]:
    """(LHS, RHS) of: sum_{i<j} t_i t_j d2/dt_i dt_j V = c_n V for the
    Vandermonde V in n+1 variables, c_n = (n-1)n(n+1)(3n+2)/24."""
    nv = n + 1
    V = vandermonde(nv)
    lhs = Poly.zero(nv)
    for i in range(nv):
        for j in range(i + 1, nv):
            lhs = lhs + Poly.var(nv, i) * Poly.var(nv, j) * V.deriv(i).deriv(j)
    rhs = V * lemma_sum_constant(n)
    return lhs, rhs


def lemma_6_5_check(n: int) -> bool:
    lhs, rhs = mixed_euler_on_vandermonde(n)
    return lhs == rhs


def power_vandermonde_residual(n: int, k: float, points: Sequence[Sequence[float]]) -> float:
    """Max relative residual of the twisted identity on prod (t_p - t_q)^{2k-1}.

    The operator sum_{i<j} [t_i t_j d_i d_j + (k-1) t_i t_j/(t_i-t_j)(d_i - d_j)]
    is applied through log-derivatives g_i = (2k-1) sum_{q != i} 1/(t_i - t_q):
    d_i d_j F / F = g_i g_j + (2k-1)/(t_i-t_j)^2.  Expected eigenvalue
    (2k-1)(n-1)n(n+1)(6kn-3n+2)/24.  NaN if any residual is NaN, so that
    it fails every bound.
    """
    expected = (2 * k - 1) * (n - 1) * n * (n + 1) * (6 * k * n - 3 * n + 2) / 24.0
    worst = 0.0
    for t in points:
        t = list(map(float, t))
        nv = n + 1
        if len(t) != nv:
            raise ValueError("point has wrong dimension")
        g = [
            (2 * k - 1) * sum(1.0 / (t[i] - t[q]) for q in range(nv) if q != i)
            for i in range(nv)
        ]
        acc = 0.0
        for i in range(nv):
            for j in range(i + 1, nv):
                acc += t[i] * t[j] * (g[i] * g[j] + (2 * k - 1) / (t[i] - t[j]) ** 2)
                acc += (k - 1) * t[i] * t[j] / (t[i] - t[j]) * (g[i] - g[j])
        scale = max(1.0, abs(expected))
        res = abs(acc - expected) / scale
        worst = math.nan if math.isnan(worst) or math.isnan(res) else max(worst, res)
    return worst


def lemma_6_4_check(n: int, k: float, seed: int = 0) -> bool:
    import random

    rng = random.Random(seed)
    pts = []
    while len(pts) < _LEMMA_6_4_POINTS:
        p = [rng.uniform(0.5, 3.0) for _ in range(n + 1)]
        if min(abs(a - b) for i, a in enumerate(p) for b in p[i + 1:]) > 0.05:
            pts.append(p)
    return power_vandermonde_residual(n, k, pts) < _LEMMA_6_4_TOL
