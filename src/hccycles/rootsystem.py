"""Exact arithmetic for the A_n root system.

Vectors live in V = Q^{n+1} in the orthonormal e-basis; weight-type vectors
(spectral parameters) are constrained to the sum-zero subspace E.  All
values are tuples of Fractions and immutable.

Every root of A_n is e_a - e_b and equals its own coroot, so the exact
layers carry a positive root as the 0-based index pair (a, b), a < b, and
compute each pairing as a coordinate difference: (v, coroot) = v[a] - v[b].
The vector forms below (root, positive_roots, coroot, inner) state the same
data in the e-basis.

Convention: a permutation w acts on coordinates by (w.v)_i = v_{w(i)}, so
that w.lambda = (lambda_{w(1)}, ..., lambda_{w(n+1)}).  This is a right
action: apply(w1*w2, v) = apply(w2, apply(w1, v)).
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from itertools import combinations
from typing import Sequence, Union

Scalar = Union[int, Q]
Vector = tuple[Q, ...]


def vec(values: Sequence) -> Vector:
    """Coerce a sequence of ints/Fractions/strings like '1/2' to a Vector."""
    return tuple(Q(v) for v in values)


def zero_vec(dim: int) -> Vector:
    return (Q(0),) * dim


def add(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return tuple(x + y for x, y in zip(a, b))


def sub(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return tuple(x - y for x, y in zip(a, b))


def scale(c: Scalar, a: Vector) -> Vector:
    c = Q(c)
    return tuple(c * x for x in a)


def inner(a: Vector, b: Vector) -> Q:
    """Standard Euclidean product; exact.

    Each vector is put over the lcm of its denominators, so the sum runs on
    integer numerators and one Fraction is built, for the result."""
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    da = math.lcm(*(x.denominator for x in a))
    db = math.lcm(*(y.denominator for y in b))
    return Q(sum(x.numerator * (da // x.denominator) * y.numerator * (db // y.denominator)
                 for x, y in zip(a, b)), da * db)


def coroot(alpha: Vector) -> Vector:
    """2*alpha/(alpha,alpha); equals alpha for A_n roots."""
    norm2 = inner(alpha, alpha)
    if norm2 == 0:
        raise ValueError("coroot of the zero vector")
    return scale(Q(2) / norm2, alpha)


def root(n: int, i: int, j: int) -> Vector:
    """e_i - e_j in Q^{n+1} (1-based, i != j)."""
    if i == j:
        raise ValueError("i and j must differ")
    if not (1 <= i <= n + 1 and 1 <= j <= n + 1):
        raise ValueError("basis index out of range")
    return tuple(Q(1) if m == i - 1 else Q(-1) if m == j - 1 else Q(0) for m in range(n + 1))


def simple_roots(n: int) -> list[Vector]:
    return [root(n, i, i + 1) for i in range(1, n + 1)]


def positive_root_pairs(n: int) -> list[tuple[int, int]]:
    """The positive roots e_a - e_b as 0-based pairs (a, b), a < b, in the
    order of positive_roots."""
    return list(combinations(range(n + 1), 2))


def positive_roots(n: int) -> list[Vector]:
    return [root(n, a + 1, b + 1) for a, b in positive_root_pairs(n)]


def delta(n: int) -> Vector:
    """Half sum of positive roots: (n/2, (n-2)/2, ..., -n/2)."""
    return tuple(Q(n - 2 * i, 2) for i in range(n + 1))


def rho(n: int, k: Scalar) -> Vector:
    """k * delta."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    return scale(k, delta(n))


def fundamental_weights(n: int) -> list[Vector]:
    """Lambda_i with (Lambda_i, alpha_j) = delta_ij, in the sum-zero subspace."""
    total = tuple(Q(1) for _ in range(n + 1))
    out = []
    for i in range(1, n + 1):
        head = tuple(Q(1) if j < i else Q(0) for j in range(n + 1))
        out.append(sub(head, scale(Q(i, n + 1), total)))
    return out


def _images(w) -> tuple[int, ...]:
    images = tuple(w.images) if hasattr(w, "images") else tuple(w)
    if sorted(images) != list(range(1, len(images) + 1)):
        raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
    return images


def weyl_apply(w, v: Vector) -> Vector:
    """(w.v)_i = v_{w(i)}; w is a Permutation or a 1-based image tuple."""
    images = _images(w)
    if len(images) != len(v):
        raise ValueError("permutation size does not match vector dimension")
    return tuple(v[images[i] - 1] for i in range(len(v)))


def reflection(n: int, i: int, j: int):
    """Image tuple of r_{e_i - e_j}: swaps the i-th and j-th coordinate."""
    images = list(range(1, n + 2))
    images[i - 1], images[j - 1] = images[j - 1], images[i - 1]
    return tuple(images)


def dominance_leq(mu: Vector, lam: Vector) -> bool:
    """True iff lam - mu is a nonnegative-integer combination of simple roots.

    lam - mu = sum l_j alpha_j means the partial sums of the coordinate
    differences are the l_j; all must be nonnegative integers and the total
    must vanish.
    """
    if len(mu) != len(lam):
        raise ValueError("dimension mismatch")
    if sum(mu) != sum(lam):
        return False
    partial = Q(0)
    for d in (x - y for x, y in zip(lam[:-1], mu[:-1])):
        partial += d
        if partial < 0 or partial.denominator != 1:
            return False
    return True

