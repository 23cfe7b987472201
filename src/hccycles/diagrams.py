"""Diagram calculus for the symmetric group.

A diagram on r rows is the triangular point set {(i,j) | 1 <= i <= j <= r}
with one marked point (i_j, j) per row and the induced target map

    tar(i,j) = (i, j+1)   if i <  i_{j+1}
             = (i+1, j+1) if i >= i_{j+1}.

The marks determine everything, so a Diagram stores only the mark vector.
Diagrams with r rows are in bijection with S_r; w(i) is the number of
points in the connected component of (i, r).

Permutations are stored as 1-based image tuples and compose as functions:
(w1 * w2)(i) = w1(w2(i)).

Input is checked at the public constructors: ``Permutation(images)`` and
``Diagram(marks)`` reject anything that is not a permutation or a valid mark
vector, and they, ``GZPattern`` and ``gz_pattern`` reject an entry that is
not an integer (a float or a Fraction, say) rather than truncate it; ints
and numpy integers pass.  Values this module derives from checked values
(products, inverses, the named elements of S_r, the enumerations
``all_permutations`` and ``all_diagrams``, ``evaluate_word`` and
``Diagram.from_permutation``) are built unchecked by the private
``_unchecked`` constructors, since they are valid by construction.
``to_permutation`` still goes through the checked constructor: its result is
what the bijection claim (Prop 2.2) tests.

A polynomial in the single variable q is an ascending tuple of int
coefficients, (c_0, c_1, ..., c_d) for c_0 + c_1 q + ... + c_d q^d with
c_d != 0, and () for zero; the multiparametric polynomials are ``Poly``.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass
from itertools import accumulate, permutations as _itperms, product
from math import prod
from operator import sub
from typing import Iterable, Iterator, Sequence

from .polynomial import Poly, geometric_sum

Point = tuple[int, int]


def _ints(values: Iterable) -> tuple[int, ...]:
    """The entries of `values` as ints; ValueError for any entry that is not
    an integer (through ``operator.index``, so ints and numpy integers pass
    and a float or a Fraction does not, even an integral one)."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"entries must be integers: {values}") from None


@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]

    def __post_init__(self):
        images = _ints(self.images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        """A permutation from a tuple of ints known to permute 1..len(images)."""
        out = object.__new__(cls)
        object.__setattr__(out, "images", images)
        return out

    @classmethod
    def identity(cls, r: int) -> "Permutation":
        return cls._unchecked(tuple(range(1, r + 1)))

    @classmethod
    def longest(cls, r: int) -> "Permutation":
        return cls._unchecked(tuple(range(r, 0, -1)))

    @classmethod
    def generator(cls, i: int, r: int) -> "Permutation":
        """Adjacent transposition sigma_i swapping i and i+1."""
        if not 1 <= i <= r - 1:
            raise ValueError(f"generator index {i} out of range for S_{r}")
        images = list(range(1, r + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls._unchecked(tuple(images))

    @property
    def rank(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        images = self.images
        return Permutation._unchecked(tuple(images[i - 1] for i in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.rank
        for i, im in enumerate(self.images, start=1):
            inv[im - 1] = i
        return Permutation._unchecked(tuple(inv))

    def inversions(self) -> int:
        """Number of pairs i < j with w(i) > w(j); the Coxeter length oracle."""
        im = self.images
        return sum(1 for a in range(len(im)) for b in range(a + 1, len(im)) if im[a] > im[b])


def all_permutations(r: int) -> Iterator[Permutation]:
    for images in _itperms(range(1, r + 1)):
        yield Permutation._unchecked(images)


@dataclass(frozen=True)
class Diagram:
    marks: tuple[int, ...]

    def __post_init__(self):
        marks = _ints(self.marks)
        for j, ij in enumerate(marks, start=1):
            if not 1 <= ij <= j:
                raise ValueError(f"mark {ij} in row {j} violates 1 <= i_j <= j")
        object.__setattr__(self, "marks", marks)

    @classmethod
    def _unchecked(cls, marks: tuple[int, ...]) -> "Diagram":
        """A diagram from a tuple of ints known to satisfy 1 <= i_j <= j."""
        out = object.__new__(cls)
        object.__setattr__(out, "marks", marks)
        return out

    @property
    def rows(self) -> int:
        return len(self.marks)

    def points(self) -> Iterator[Point]:
        for j in range(1, self.rows + 1):
            for i in range(1, j + 1):
                yield (i, j)

    def is_marked(self, point: Point) -> bool:
        i, j = point
        return self.marks[j - 1] == i

    def target(self, point: Point) -> Point:
        i, j = point
        if not (1 <= i <= j < self.rows):
            raise ValueError(f"point {point} has no target in a {self.rows}-row diagram")
        return (i, j + 1) if i < self.marks[j] else (i + 1, j + 1)

    def to_permutation(self) -> Permutation:
        """w(i) = the number of points in the connected component of (i, r).

        Each unmarked point (i, j), j >= 2, is the target of exactly one
        point, its source (i, j-1) if i < i_j and (i-1, j-1) otherwise; a
        marked point is the target of none.  So the component of (i, r) is
        the chain (i, r), its source, the source of that, ... down to the
        first marked point, and w(i) is the length of that chain.
        """
        marks = self.marks
        r = len(marks)
        images = []
        for i in range(1, r + 1):
            p, j = i, r
            while p != marks[j - 1]:
                if p > marks[j - 1]:
                    p -= 1
                j -= 1
            images.append(r - j + 1)
        return Permutation(tuple(images))

    @classmethod
    def from_permutation(cls, w: Permutation) -> "Diagram":
        """Inverse of to_permutation (see `_diagram_of`)."""
        return _diagram_of(w.images)

    def length(self) -> int:
        """Coxeter length of the associated permutation: sum (i_j - 1)."""
        return sum(self.marks) - len(self.marks)

    def left_arrow_count(self) -> int:
        """Arrows keeping their column, tar(i,j) = (i, j+1); equals length()."""
        return sum(
            1
            for j in range(1, self.rows)
            for i in range(1, j + 1)
            if self.target((i, j)) == (i, j + 1)
        )

    def reduced_word(self) -> tuple[int, ...]:
        """Generator indices of the block presentation w = w_r w_{r-1} ... w_1.

        Block w_k is sigma_k sigma_{k+1} ... sigma_{i_{r-k+1}+k-2} when the
        mark i_{r-k+1} exceeds 1, and empty otherwise.  The word multiplies
        back to to_permutation() in the written order and has length().
        """
        r = self.rows
        word: list[int] = []
        for k in range(r, 0, -1):
            mark = self.marks[r - k]
            if mark > 1:
                word.extend(range(k, mark + k - 1))
        return tuple(word)

    def to_json(self) -> str:
        return json.dumps(list(self.marks))

    @classmethod
    def from_json(cls, text: str) -> "Diagram":
        return cls(tuple(json.loads(text)))


@functools.lru_cache(maxsize=256)
def _diagram_of(images: tuple[int, ...]) -> Diagram:
    """Diagram.from_permutation on a 1-based image tuple, in one pass.

    Stripping the top row (i_r = w^{-1}(1)), lowering the other values and
    recursing strips the value v as the top mark of row r - v + 1, when
    only the values above v are left: its mark is its position among them,
    one plus the number of larger values to its left in w.  Memoized,
    because `cycles.cycle_for_w` reads it on every integral.
    """
    r = len(images)
    marks = [0] * r
    for pos, v in enumerate(images):
        marks[r - v] = 1 + sum(map(v.__lt__, images[:pos]))
    return Diagram._unchecked(tuple(marks))


def _all_marks(r: int) -> Iterator[tuple[int, ...]]:
    """The mark vectors of all r! diagrams with r rows, in lexicographic order."""
    return product(*(range(1, j + 1) for j in range(1, r + 1)))


def all_diagrams(r: int) -> Iterator[Diagram]:
    """All r! diagrams with r rows, in lexicographic mark order."""
    for marks in _all_marks(r):
        yield Diagram._unchecked(marks)


def evaluate_word(word: Sequence[int], r: int) -> Permutation:
    """Product of generators in the written order, composing as functions:
    multiplying by sigma_g on the right swaps the images at positions g and
    g + 1 of one list.  Raises ValueError for an index outside 1..r-1, as
    `Permutation.generator` does."""
    images = list(range(1, r + 1))
    for g in word:
        if not 1 <= g <= r - 1:
            raise ValueError(f"generator index {g} out of range for S_{r}")
        images[g - 1], images[g] = images[g], images[g - 1]
    return Permutation._unchecked(tuple(images))


def stripped_relation_holds(w: Permutation) -> bool:
    """Deleting the top diagram row matches the w' <- w reindexing rule.

    With i = i_r the top mark: w(i) = 1, w(i') = w'(i') + 1 for i' < i and
    w(i') = w'(i'-1) + 1 for i' > i, where w' is the permutation of the
    stripped diagram.
    """
    d = Diagram.from_permutation(w)
    if d.rows < 2:
        return True
    wp = Diagram(d.marks[:-1]).to_permutation()
    top = d.marks[-1]
    for i in range(1, d.rows + 1):
        if i == top:
            expected = 1
        elif i < top:
            expected = wp(i) + 1
        else:
            expected = wp(i - 1) + 1
        if w(i) != expected:
            return False
    return True


# -- counting identities -----------------------------------------------------


def _coeff_tuple(pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Coefficient tuple of the sum of c q^e over (e, c) pairs; () for none."""
    coeffs: list[int] = []
    for e, c in pairs:
        coeffs.extend([0] * (e + 1 - len(coeffs)))
        coeffs[e] += c
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _times_qint(coeffs: tuple[int, ...], m: int) -> tuple[int, ...]:
    """coeffs times [m]_q = (1 - q^m)/(1 - q) for m >= 1: subtract the
    sequence shifted by m, then divide by 1 - q with prefix sums."""
    return tuple(accumulate(map(sub, coeffs + (0,) * (m - 1), (0,) * m + coeffs)))


def poincare_sum(n: int) -> tuple[int, ...]:
    """Brute-force sum over S_n of q^{l(w)}, l(w) = sum_j (i_j - 1) from the marks."""
    return _coeff_tuple((sum(marks) - n, 1) for marks in _all_marks(n))


def poincare_product(n: int) -> tuple[int, ...]:
    """prod_j (1 - q^j)/(1 - q)."""
    return functools.reduce(_times_qint, range(1, n + 1), (1,))


def multiparam_sum(n: int) -> Poly:
    """Brute-force sum over diagrams of prod_j q_j^{i_j(w)-1}."""
    return Poly(n, ((tuple(m - 1 for m in marks), 1) for marks in _all_marks(n)))


def multiparam_product(n: int) -> Poly:
    """prod_j (1 + q_j + ... + q_j^{j-1})."""
    out = Poly.const(n, 1)
    for j in range(1, n + 1):
        out = out * geometric_sum(n, j - 1, j)
    return out


def specialize_to_single_q(p: Poly) -> tuple[int, ...]:
    """Set every q_j = q in a multiparametric polynomial with integer coefficients."""
    if p.den != 1:
        raise ValueError("coefficients must be integers")
    return _coeff_tuple((sum(e), c) for e, c in p.num.items())


# -- partial order of marks (componentwise) ----------------------------------


def partial_leq(w1: Permutation, w2: Permutation) -> bool:
    """Componentwise comparison of diagram marks."""
    if w1.rank != w2.rank:
        raise ValueError("rank mismatch")
    return _marks_leq(Diagram.from_permutation(w1).marks, Diagram.from_permutation(w2).marks)


def _marks_leq(m1: tuple[int, ...], m2: tuple[int, ...]) -> bool:
    """partial_leq on two mark vectors of one length."""
    return all(map(operator.le, m1, m2))


def _order_values(marks: tuple[int, ...]) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """(count_geq, count_leq, qpoly_geq, qpoly_leq) of the element with
    these diagram marks, so a caller that has the marks builds no diagram."""
    spans = [j - ij + 1 for j, ij in enumerate(marks, start=1)]
    length = sum(m - 1 for m in marks)
    return (
        prod(spans),
        prod(marks),
        functools.reduce(_times_qint, spans, (0,) * length + (1,)),
        functools.reduce(_times_qint, marks, (1,)),
    )


def count_geq(w: Permutation) -> int:
    """prod_j (j - i_j + 1)."""
    return _order_values(Diagram.from_permutation(w).marks)[0]


def count_leq(w: Permutation) -> int:
    """prod_j i_j."""
    return _order_values(Diagram.from_permutation(w).marks)[1]


def qpoly_geq(w: Permutation) -> tuple[int, ...]:
    """q^{l(w)} prod_j (1 - q^{j-i_j+1})/(1 - q)."""
    return _order_values(Diagram.from_permutation(w).marks)[2]


def qpoly_leq(w: Permutation) -> tuple[int, ...]:
    """prod_j (1 - q^{i_j})/(1 - q)."""
    return _order_values(Diagram.from_permutation(w).marks)[3]


def length_sum(perms: Iterable[Permutation]) -> tuple[int, ...]:
    """sum over perms of q^{l(v)}: over the set above or below w, the
    brute-force oracle for qpoly_geq(w) or qpoly_leq(w)."""
    return _coeff_tuple((Diagram.from_permutation(v).length(), 1) for v in perms)


# -- Gelfand-Zetlin patterns --------------------------------------------------


@dataclass(frozen=True)
class GZPattern:
    """Triangular integer array, rows stored top-first (row n, ..., row 1).

    Betweenness uses the reversed convention m_{p,q+1} <= m_{p,q} <= m_{p+1,q+1}.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(map(_ints, self.rows))
        n = len(rows)
        for q, row in enumerate(rows):
            if len(row) != n - q:
                raise ValueError("rows must have lengths n, n-1, ..., 1")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    def row(self, q: int) -> tuple[int, ...]:
        """Row q (length q), 1-based from the bottom as in m_{pq}."""
        return self.rows[self.size - q]

    def entry(self, p: int, q: int) -> int:
        return self.row(q)[p - 1]

    def betweenness_holds(self) -> bool:
        for q in range(1, self.size):
            lower, upper = self.row(q), self.row(q + 1)
            for p in range(1, q + 1):
                if not upper[p - 1] <= lower[p - 1] <= upper[p]:
                    return False
        return True

    def weight(self) -> tuple[int, ...]:
        """weight_i = sum(row n-i+1) - sum(row n-i); weight_n = m_11."""
        sums = [sum(r) for r in self.rows] + [0]
        return tuple(sums[i] - sums[i + 1] for i in range(self.size))

    def to_json(self) -> str:
        return json.dumps([list(r) for r in self.rows])

    @classmethod
    def from_json(cls, text: str) -> "GZPattern":
        return cls(tuple(tuple(r) for r in json.loads(text)))


def gz_pattern(w: Permutation, m: Sequence[int]) -> GZPattern:
    """Pattern with top row m and every other entry copied from its target.

    m must be weakly increasing (lowest-weight convention); the result is
    the unique pattern of weight w.m under the left action
    (w.m)_i = m_{w^{-1}(i)}, i.e. entry m_i sits at position w(i).
    """
    m = _ints(m)
    if any(a > b for a, b in zip(m, m[1:])):
        raise ValueError("weight must be weakly increasing")
    n = w.rank
    if len(m) != n:
        raise ValueError("weight length must equal the permutation rank")
    d = Diagram.from_permutation(w)
    entries: dict[Point, int] = {(i, n): m[i - 1] for i in range(1, n + 1)}
    for q in range(n - 1, 0, -1):
        for p in range(1, q + 1):
            entries[(p, q)] = entries[d.target((p, q))]
    rows = tuple(tuple(entries[(p, q)] for p in range(1, q + 1)) for q in range(n, 0, -1))
    return GZPattern(rows)
