"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial holds integer numerators over one positive denominator:
``num`` maps each exponent tuple to a nonzero int, and ``den`` is a
positive int with ``gcd(den, *num.values()) == 1``.  Equal polynomials
therefore have equal ``den`` and equal ``num`` dicts.  The ring operations
work on these ints and reduce once per result, by one gcd over the
numerators, where ``Fraction`` coefficients would take a gcd on every
``+`` and ``*``.  ``terms`` gives the ``{exponent_tuple: Fraction}`` view,
in the order of ``num``.  A fixed number of variables is part of the
value; mixing arities is an error.

``Poly(nvars, terms)`` takes a mapping or any iterable of ``(exponents,
coefficient)`` pairs with int or Fraction coefficients.  It checks each
exponent vector and coefficient, brings the coefficients over their least
common denominator and hands the numerators to the private ``_combine``,
the one merge: the numerators of a repeated exponent vector are added and
zero sums are dropped.  Sums, products, scalar multiples, substitutions,
derivatives and the quotient terms of ``divide_by_linear`` are derived from
terms already checked, so they call ``_combine`` directly, unchecked, over
a generator of (exponents, numerator) pairs and the result's denominator;
the brute-force sums of ``diagrams`` go through ``Poly``.

Used for the multiparametric q-polynomials of the diagram identities, for
operator symbols p_mu(lambda_1..lambda_{n+1}), and for the Vandermonde
differential identities.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import comb, gcd, lcm, prod
from operator import add
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


def _coerce(c: Scalar) -> Scalar:
    """c itself, an int or a Fraction: both carry a numerator and a denominator."""
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


class Poly:
    """Polynomial in ``nvars`` variables over the rationals: the numerators
    ``num`` over the denominator ``den``, in lowest terms.  Treat both as
    read-only."""

    __slots__ = ("nvars", "num", "den")

    def __init__(
        self, nvars: int, terms: Mapping[tuple, Scalar] | Iterable[tuple[Sequence[int], Scalar]] | None = None
    ):
        """``terms`` is a mapping ``{exponents: coefficient}`` or an iterable
        of ``(exponents, coefficient)`` pairs.  Each exponent vector must have
        ``nvars`` nonnegative entries and each coefficient must be an int or
        a Fraction.  Coefficients of a repeated exponent vector are added;
        exponent vectors whose coefficients sum to zero are dropped."""
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        if isinstance(terms, Mapping):
            terms = terms.items()

        def checked(term):
            exps = tuple(int(e) for e in term[0])
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {nvars} variables")
            return exps, _coerce(term[1])

        out = _over_lcm(nvars, list(map(checked, terms or ())))
        self.nvars, self.num, self.den = nvars, out.num, out.den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    # These build their own exponent vectors, so only the coefficients are checked.

    @classmethod
    def const(cls, nvars: int, c: Scalar) -> "Poly":
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        return _over_lcm(nvars, [((0,) * nvars, _coerce(c))])

    @classmethod
    def var(cls, nvars: int, i: int) -> "Poly":
        """The variable x_i (0-based)."""
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range")
        return _combine(nvars, [(_unit(nvars, i, 1), 1)], 1)

    @classmethod
    def linear(cls, coeffs: Sequence[Scalar], const: Scalar = 0) -> "Poly":
        """c_0*x_0 + ... + c_{m-1}*x_{m-1} + const."""
        n = len(coeffs)
        return _over_lcm(n, [((0,) * n, _coerce(const)),
                             *((_unit(n, i, 1), _coerce(c)) for i, c in enumerate(coeffs))])

    # -- the Fraction view ---------------------------------------------------

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        """``{exponents: coefficient}`` with Fraction coefficients, in the
        order of ``num``; a read-only view built on each call."""
        den = self.den
        return MappingProxyType({e: Fraction(c, den) for e, c in self.num.items()})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        self._check(other)
        den = lcm(self.den, other.den)
        return _combine(self.nvars, chain(_scaled(self, den), _scaled(other, den)), den)

    __radd__ = __add__

    def __neg__(self):
        return _combine(self.nvars, ((e, -c) for e, c in self.num.items()), self.den)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = _coerce(other)
            m = c.numerator
            return _combine(self.nvars, ((e, m * v) for e, v in self.num.items()), self.den * c.denominator)
        self._check(other)
        return _combine(
            self.nvars,
            (
                (tuple(map(add, e1, e2)), c1 * c2)
                for e1, c1 in self.num.items()
                for e2, c2 in other.num.items()
            ),
            self.den * other.den,
        )

    __rmul__ = __mul__

    def __pow__(self, m: int):
        if m < 0:
            raise ValueError("negative power")
        out = Poly.const(self.nvars, 1)
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.num), default=-1)

    def coeff(self, exps: Sequence[int]) -> Fraction:
        return Fraction(self.num.get(tuple(exps), 0), self.den)

    def __call__(self, values: Sequence[Scalar]) -> Fraction:
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        vals = [_coerce(v) for v in values]
        total = Fraction(0)
        for e, c in self.num.items():
            t = c
            for v, p in zip(vals, e):
                if p:
                    t *= v ** p
            total += t
        return total / self.den

    # -- substitutions -----------------------------------------------------

    def shift(self, deltas: Sequence[Scalar]) -> "Poly":
        """Substitute x_i -> x_i + deltas[i]."""
        if len(deltas) != self.nvars:
            raise ValueError("wrong number of shifts")
        ds = [_coerce(d) for d in deltas]
        # With d_i = p_i / L over the common denominator L, the term x^js,
        # 0 <= js_i <= e_i, of prod (x_i + d_i)^{e_i} gets
        # prod_i C(e_i, js_i) p_i^(e_i - js_i) / L^s, s = sum_i (e_i - js_i);
        # over L^top, top the total degree, its numerator takes L^(top - s).
        scale = lcm(*(d.denominator for d in ds))
        ps = [d.numerator * (scale // d.denominator) for d in ds]
        top = max(self.degree(), 0)
        return _combine(
            self.nvars,
            (
                (js, c * prod([comb(p, j) * d ** (p - j) for p, j, d in zip(e, js, ps) if p != j])
                 * (scale ** (top - sum(e) + sum(js)) if scale != 1 else 1))
                for e, c in self.num.items()
                for js in product(*[range(p + 1) if d else (p,) for p, d in zip(e, ps)])
            ),
            self.den * scale ** top,
        )

    def permute_vars(self, images: Sequence[int]) -> "Poly":
        """Substitute x_i -> x_{images[i]} (0-based images, a bijection)."""
        if sorted(images) != list(range(self.nvars)):
            raise ValueError("images must be a permutation of the variables")
        # The exponent of x_i moves to x_{images[i]}, so new slot j reads old slot inv[j].
        inv = sorted(range(self.nvars), key=images.__getitem__)
        return _combine(self.nvars, ((tuple(e[i] for i in inv), c) for e, c in self.num.items()), self.den)

    def is_symmetric(self) -> bool:
        """Invariance under every transposition of adjacent variables."""
        for i in range(self.nvars - 1):
            images = list(range(self.nvars))
            images[i], images[i + 1] = images[i + 1], images[i]
            if self.permute_vars(images) != self:
                return False
        return True

    def deriv(self, i: int) -> "Poly":
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range")
        return _combine(
            self.nvars,
            ((e[:i] + (e[i] - 1,) + e[i + 1 :], c * e[i]) for e, c in self.num.items() if e[i]),
            self.den,
        )

    def divide_by_linear(self, linear: "Poly") -> tuple["Poly", "Poly"]:
        """Divide by a polynomial of total degree 1; returns (quotient, remainder).

        The remainder has degree 0 in the pivot variable (the first variable
        with a nonzero linear coefficient).
        """
        self._check(linear)
        if linear.degree() != 1:
            raise ValueError("divisor must have total degree 1")
        pivot = min(e.index(1) for e in linear.num if sum(e) == 1)
        lead = linear.num[_unit(self.nvars, pivot, 1)]
        # a term c / den of the remainder gives c * linear.den / (den * lead)
        scale = linear.den if lead > 0 else -linear.den

        quotient = Poly.zero(self.nvars)
        rem = self
        while True:
            top = {e: c for e, c in rem.num.items() if e[pivot] > 0}
            if not top:
                break
            d = max(e[pivot] for e in top)
            qterms: dict[tuple, int] = {}
            for e, c in top.items():
                if e[pivot] == d:
                    ne = list(e)
                    ne[pivot] -= 1
                    qterms[tuple(ne)] = c * scale
            q = _combine(self.nvars, qterms.items(), rem.den * abs(lead))
            quotient = quotient + q
            rem = rem - q * linear
        return quotient, rem

    # -- display -----------------------------------------------------------

    def __repr__(self):
        if self.is_zero:
            return "0"
        terms = self.terms
        bits = []
        for e in sorted(terms, key=lambda t: (sum(t), t)):
            c = terms[e]
            mono = "*".join(f"x{i}^{p}" if p > 1 else f"x{i}" for i, p in enumerate(e) if p)
            bits.append(f"{c}" if not mono else f"{c}*{mono}")
        return " + ".join(bits)


def _scaled(p: Poly, den: int) -> Iterable[tuple[tuple[int, ...], int]]:
    """The (exponents, numerator) pairs of p over den, a multiple of p.den."""
    s = den // p.den
    return p.num.items() if s == 1 else ((e, c * s) for e, c in p.num.items())


def _over_lcm(nvars: int, pairs: list[tuple[tuple[int, ...], Scalar]]) -> Poly:
    """The polynomial of these (exponents, int or Fraction) pairs, unchecked, over
    the least common multiple of their denominators."""
    den = lcm(*(c.denominator for _, c in pairs))
    return _combine(nvars, ((e, c.numerator * (den // c.denominator)) for e, c in pairs), den)


def _combine(nvars: int, pairs: Iterable[tuple[tuple[int, ...], int]], den: int) -> Poly:
    """The polynomial sum of numerator / den over these terms, unchecked:
    every exponent tuple has ``nvars`` nonnegative ints, every numerator is
    an int and den is a positive int.

    Numerators of a repeated exponent tuple are added.  A term whose sum
    reaches zero is removed and, if it comes back, is re-inserted at the end,
    so the dict order of the result follows the pairs' order.  The result
    is then reduced to lowest terms by one gcd.
    """
    num: dict[tuple, int] = {}
    for exps, c in pairs:
        if exps in num:
            c += num[exps]
        if c:
            num[exps] = c
        else:
            num.pop(exps, None)
    g = gcd(den, *num.values())
    if g != 1:
        num = {e: c // g for e, c in num.items()}
        den //= g
    out = object.__new__(Poly)
    out.nvars, out.num, out.den = nvars, num, den
    return out


def _unit(nvars: int, i: int, p: int) -> tuple[int, ...]:
    """Exponent vector of x_i^p."""
    return (0,) * i + (p,) + (0,) * (nvars - i - 1)


def geometric_sum(nvars: int, i: int, length: int) -> Poly:
    """1 + x_i + ... + x_i^{length-1}."""
    if not 0 <= i < nvars:
        raise ValueError(f"variable index {i} out of range")
    return Poly(nvars, ((_unit(nvars, i, j), 1) for j in range(length)))


def vandermonde(nvars: int) -> Poly:
    """prod_{p<q} (x_p - x_q)."""
    out = Poly.const(nvars, 1)
    for p, q in product(range(nvars), repeat=2):
        if p < q:
            out = out * (Poly.var(nvars, p) - Poly.var(nvars, q))
    return out
