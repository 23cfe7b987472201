"""Gamma/sine product evaluators: the leading coefficient a(w), the value
F_w(1) of the normalized asymptotic solution, the z -> 1 limit of the cycle
integral, and the Vandermonde differential identities behind them.

Products are kept as symbolic factor lists (Gamma, sin(pi x), e^{i pi x},
rational constants) so the same object can be evaluated directly or after
reflection-formula rewriting Gamma(x) sin(pi x) -> pi / Gamma(1-x); the two
routes agree to ~1e-12 away from poles and that agreement is a test.

The complex Gamma function is a Lanczos approximation (g = 7, 9 terms,
about 15 significant digits on the test domain) with the reflection formula
for Re z < 1/2.  No exactness is claimed for any analytic value here; all
comparisons carry tolerances.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from typing import Sequence

from . import rootsystem as rs
from .diagrams import Diagram, Permutation
from .polynomial import Poly, vandermonde
from .series import SpectralParam

# Lanczos coefficients, g = 7.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


class PoleError(ArithmeticError):
    """A Gamma factor is evaluated at (or within 1e-8 of) a nonpositive integer."""


def _near_nonpositive_int(x: complex, tol: float = 1e-8) -> bool:
    if abs(x.imag) > tol:
        return False
    r = round(x.real)
    return r <= 0 and abs(x.real - r) <= tol


def gamma(z: complex) -> complex:
    """Complex Gamma via Lanczos; reflection for Re z < 1/2."""
    z = complex(z)
    if _near_nonpositive_int(z, tol=0.0):
        raise PoleError(f"Gamma pole at {z}")
    if z.real < 0.5:
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
    z -= 1.0
    x = complex(_LANCZOS_C[0])
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        x += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


def sinpi(x: complex) -> complex:
    return cmath.sin(math.pi * complex(x))


@dataclass
class GammaProduct:
    """Product of Gamma(x)^{+-1}, sin(pi x), e^{i pi x} and rational constants.

    Arguments stay exact (Fraction) when built from exact spectral data, so
    pole detection is exact where it can be.
    """

    gammas: list[tuple[object, int, str]] = field(default_factory=list)  # (arg, power, tag)
    sins: list[tuple[object, str]] = field(default_factory=list)         # sin(pi*arg)
    exp_pi_i: object = 0                                                  # e^{i pi * arg}
    const: complex = 1.0
    pole_tol: float = 1e-8

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
        out = GammaProduct(const=self.const, exp_pi_i=self.exp_pi_i, pole_tol=self.pole_tol)
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

    def _check_pole(self, arg, tag: str):
        if isinstance(arg, (int, Q)):
            if arg <= 0 and arg.denominator == 1:
                raise PoleError(f"Gamma argument {arg} is a nonpositive integer{tag and f' ({tag})'}")
        elif _near_nonpositive_int(complex(arg), self.pole_tol):
            raise PoleError(f"Gamma argument {complex(arg)} within {self.pole_tol} of a pole{tag and f' ({tag})'}")

    def eval(self) -> complex:
        val = complex(self.const)
        for arg, power, tag in self.gammas:
            if power > 0:
                self._check_pole(arg, tag)
                val *= gamma(complex(arg)) ** power
            else:
                # reciprocal of Gamma is entire: a pole upstairs is a zero here
                a = complex(arg)
                if _near_nonpositive_int(a, self.pole_tol):
                    return 0.0 + 0.0j
                val *= gamma(a) ** power
        for arg, tag in self.sins:
            val *= sinpi(complex(arg))
        val *= cmath.exp(1j * math.pi * complex(self.exp_pi_i))
        return val


def _length(w: Permutation) -> int:
    return Diagram.from_permutation(w).length()


def _pairings(w: Permutation, sp: SpectralParam) -> list[tuple[int, int, Q]]:
    """[(a, b, (w.lambda, coroot of e_a - e_b))] over the positive roots;
    each pairing is the coordinate difference w.lambda_a - w.lambda_b."""
    wlam = rs.weyl_apply(w, sp.lam)
    return [(a, b, wlam[a] - wlam[b]) for a, b in rs.positive_root_pairs(sp.rank)]


@functools.lru_cache(maxsize=16)
def _root_tags(n: int) -> dict[tuple[int, int], str]:
    """PoleError tag of each positive root, e.g. "alpha = ('1', '-1', '0')"."""
    return {
        pair: f"alpha = {tuple(map(str, alpha))}"
        for pair, alpha in zip(rs.positive_root_pairs(n), rs.positive_roots(n))
    }


def _lam_delta(sp: SpectralParam) -> Q:
    """(lambda, delta) with delta_i = n/2 - i (0-based i); as lambda sums to
    zero, this is -sum_i i lambda_i."""
    return -sum(i * x for i, x in enumerate(sp.lam) if i)


def a_w_product(w: Permutation, sp: SpectralParam) -> GammaProduct:
    """Leading coefficient of the cycle integral as a symbolic product:

    prod_alpha Gamma((-w.lambda, av)) sin(pi (-w.lambda, av)) / Gamma((-w.lambda, av) + k)
      * e^{-2 pi i (lambda, delta)} e^{-pi i (k-1) l(w)} Gamma(k)^N (2i)^N,  N = n(n+1)/2.
    """
    n = sp.rank
    N = n * (n + 1) // 2
    tags = _root_tags(n)
    prod = GammaProduct()
    for a, b, pairing in _pairings(w, sp):
        x = -pairing
        tag = tags[a, b]
        prod.times_gamma(x, +1, tag)
        prod.times_sin(x, tag)
        prod.times_gamma(x + sp.k, -1, tag)
    prod.times_exp_pi_i(-2 * _lam_delta(sp))
    prod.times_exp_pi_i(-(sp.k - 1) * _length(w))
    prod.times_gamma(sp.k, N, "coupling")
    # (2i)^N with principal i = e^{i pi/2}
    prod.times_const(2.0 ** N)
    prod.times_exp_pi_i(Q(N, 2))
    return prod


def a_w(w: Permutation, sp: SpectralParam, use_reflection: bool = False) -> complex:
    prod = a_w_product(w, sp)
    if use_reflection:
        prod = prod.reflected()
    return prod.eval()


def F_w_at_1(w: Permutation, sp: SpectralParam) -> complex:
    """Value at z = 1 of the normalized asymptotic solution (Opdam):

    prod_alpha Gamma((w.lambda, av)+1)/Gamma((w.lambda, av)-k+1)
      / prod_alpha Gamma(-(rho, av)+1)/Gamma(-(rho, av)-k+1).

    The pairing (rho, coroot of e_a - e_b) is k (b - a).
    """
    k = sp.k
    prod = GammaProduct()
    tags = _root_tags(sp.rank)
    for a, b, pairing in _pairings(w, sp):
        tag = tags[a, b]
        shifted = pairing + 1
        prod.times_gamma(shifted, +1, tag)
        prod.times_gamma(shifted - k, -1, tag)
        rho_shifted = 1 - k * (b - a)
        prod.times_gamma(rho_shifted, -1, tag)
        prod.times_gamma(rho_shifted - k, +1, tag)
    return prod.eval()


def limit_value(w: Permutation, sp: SpectralParam, tol: float = 1e-8) -> complex:
    """z -> 1 limit of the cycle integral:

    prod_alpha sin(pi((-w.lambda, av)+k)) * e^{-2 pi i (lambda,delta)}
      * e^{-pi i (k-1) l(w)} (2i)^N
      * sin(pi k)^{n+1} / (sin(pi k) ... sin((n+1) pi k))
      * Gamma(k)^{(n+1)(n+2)/2} / (Gamma(k) ... Gamma((n+1)k)).
    """
    n = sp.rank
    N = n * (n + 1) // 2
    for m in range(1, n + 2):
        s = sinpi(complex(m * sp.k))
        if abs(s) < tol:
            raise ZeroDivisionError(
                f"denominator sin({m} pi k) = {s:.2e} vanishes at k = {sp.k}"
            )
    tags = _root_tags(n)
    prod = GammaProduct()
    for a, b, pairing in _pairings(w, sp):
        prod.times_sin(-pairing + sp.k, tags[a, b])
    prod.times_exp_pi_i(-2 * _lam_delta(sp))
    prod.times_exp_pi_i(-(sp.k - 1) * _length(w))
    prod.times_const(2.0 ** N)
    prod.times_exp_pi_i(Q(N, 2))
    val = prod.eval()
    num = sinpi(complex(sp.k)) ** (n + 1)
    den = 1.0 + 0j
    for m in range(1, n + 2):
        den *= sinpi(complex(m * sp.k))
    val *= num / den
    gnum = gamma(complex(sp.k)) ** ((n + 1) * (n + 2) // 2)
    gden = 1.0 + 0j
    for m in range(1, n + 2):
        gden *= gamma(complex(m * sp.k))
    return val * gnum / gden


def gauss_value_by_beta_quadrature(m: float, k: float, npoints: int = 400) -> float:
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
        x, xm, w = tanh_sinh_rule_with_complement(npoints, cutoff)
        return float(np.sum(w * x ** (a - 1.0) * xm ** (b - 1.0)))

    return beta(m + 1.0, 1.0 - 2.0 * k) / beta(m + 1.0 - k, 1.0 - k)


# -- Vandermonde differential identities ---------------------------------------


def lemma_sum_constant(n: int) -> Q:
    """(n-1)n(n+1)(3n+2)/24."""
    return Q((n - 1) * n * (n + 1) * (3 * n + 2), 24)


def sum_identity_check(n: int) -> bool:
    """sum_{q=2}^{n+1} sum_{p<q} (p-1)(q-1) equals the closed form."""
    total = sum((p - 1) * (q - 1) for q in range(2, n + 2) for p in range(1, q))
    return Q(total) == lemma_sum_constant(n)


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
    (2k-1)(n-1)n(n+1)(6kn-3n+2)/24.
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
        worst = max(worst, abs(acc - expected) / scale)
    return worst


def lemma_6_4_check(n: int, k: float, npoints: int = 100, seed: int = 0, tol: float = 1e-9) -> bool:
    import random

    rng = random.Random(seed)
    pts = []
    while len(pts) < npoints:
        p = [rng.uniform(0.5, 3.0) for _ in range(n + 1)]
        if min(abs(a - b) for i, a in enumerate(p) for b in p[i + 1:]) > 0.05:
            pts.append(p)
    return power_vandermonde_residual(n, k, pts) < tol
