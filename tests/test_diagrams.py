import json
import random
import time
from fractions import Fraction as Q

import pytest

from hccycles import claims
from hccycles import diagrams as dg
from hccycles.diagrams import Diagram, Permutation
from hccycles.polynomial import Poly, geometric_sum


def test_diagram_validation():
    dg.Diagram((1, 2, 3))
    for marks in ((2, 1), (1, 0), (1, 3), (0,)):
        with pytest.raises(ValueError):
            dg.Diagram(marks)


def test_target_rule_examples():
    d1 = dg.Diagram((1, 1))
    assert d1.target((1, 1)) == (2, 2)
    d2 = dg.Diagram((1, 2))
    assert d2.target((1, 1)) == (1, 2)
    with pytest.raises(ValueError):
        d1.target((1, 2))
    with pytest.raises(ValueError):
        d1.target((2, 1))


def test_targets_never_marked(check_claim):
    check_claim("diagram_validity")


def test_permutation_basic():
    w = dg.Permutation((2, 3, 1))
    assert w(1) == 2 and w.inverse()(1) == 3
    assert (w * w.inverse()) == dg.Permutation.identity(3)
    assert dg.Permutation.longest(4).images == (4, 3, 2, 1)
    for bad in ((1, 1), (1, 1, 3), (0, 1)):
        with pytest.raises(ValueError):
            dg.Permutation(bad)
    for i in (0, 3):
        with pytest.raises(ValueError):
            dg.Permutation.generator(i, 3)
    with pytest.raises(ValueError):
        w * dg.Permutation.identity(2)


def _is_checked_permutation(p):
    return type(p.images) is tuple and all(type(x) is int for x in p.images) and Permutation(p.images) == p


def test_derived_values_equal_checked_values():
    # Products, inverses, generators, the enumerations and from_permutation
    # skip the constructor check; each must still be the value it checks to.
    for r in range(1, 7):
        perms = list(dg.all_permutations(r))
        gens = [Permutation.generator(i, r) for i in range(1, r)]
        derived = perms + gens + [Permutation.identity(r), Permutation.longest(r)]
        for w, v in zip(perms, perms[1:] + perms[:1]):
            derived += [w.inverse(), w * v, w * w.inverse()]
            derived += [w * g for g in gens]
        assert all(_is_checked_permutation(p) for p in derived)
        diagrams = list(dg.all_diagrams(r)) + [Diagram.from_permutation(w) for w in perms]
        for d in diagrams:
            assert type(d.marks) is tuple and all(type(m) is int for m in d.marks)
            assert Diagram(d.marks) == d and hash(Diagram(d.marks)) == hash(d)


def _component_sizes(d):
    """w(i) as the size of the undirected component of (i, r), by union-find
    over the target arrows."""
    r = d.rows
    parent = {p: p for p in d.points()}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for j in range(1, r):
        for i in range(1, j + 1):
            parent[find((i, j))] = find(d.target((i, j)))
    sizes = {}
    for p in parent:
        root = find(p)
        sizes[root] = sizes.get(root, 0) + 1
    return tuple(sizes[find((i, r))] for i in range(1, r + 1))


def test_to_permutation_matches_component_sizes_r7():
    for r in range(1, 8):
        for d in dg.all_diagrams(r):
            assert d.to_permutation().images == _component_sizes(d)


def test_permutation_of_examples():
    for r in range(1, 5):
        assert dg.Diagram((1,) * r).to_permutation() == dg.Permutation.identity(r)
        assert dg.Diagram(tuple(range(1, r + 1))).to_permutation() == dg.Permutation.longest(r)
    assert dg.Diagram((1, 2)).to_permutation() == dg.Permutation((2, 1))
    assert dg.Diagram.from_permutation(dg.Permutation((2, 1))).marks == (1, 2)
    assert dg.Diagram.from_permutation(dg.Permutation.identity(3)).marks == (1, 1, 1)


def test_bijection_exhaustive_r6():
    for r in range(1, 7):
        images = set()
        for d in dg.all_diagrams(r):
            w = d.to_permutation()
            images.add(w.images)
            assert dg.Diagram.from_permutation(w) == d
        assert len(images) == len(list(dg.all_diagrams(r)))
        for w in dg.all_permutations(r):
            assert dg.Diagram.from_permutation(w).to_permutation() == w


def test_length_is_inversion_count():
    for r in range(1, 7):
        for w in dg.all_permutations(r):
            assert dg.Diagram.from_permutation(w).length() == w.inversions()


def test_length_examples():
    assert dg.Diagram((1, 1, 1)).length() == 0
    r = 5
    assert dg.Diagram(tuple(range(1, r + 1))).length() == r * (r - 1) // 2


def test_left_arrows_equal_length(check_claim):
    check_claim("left_arrows")


def test_top_row_mark_maps_to_one(check_claim):
    check_claim("top_mark")


def test_reduced_word_examples():
    assert dg.Diagram((1, 1, 2)).reduced_word() == (1,)
    assert dg.evaluate_word((1,), 3) == dg.Permutation((2, 1, 3))
    assert dg.Diagram((1, 1, 1)).reduced_word() == ()


def test_reduced_words_exhaustive():
    for r in range(1, 7):
        for w in dg.all_permutations(r):
            d = dg.Diagram.from_permutation(w)
            word = d.reduced_word()
            assert len(word) == d.length()
            assert dg.evaluate_word(word, r) == w


def test_poincare():
    assert dg.poincare_sum(2) == (1, 1)
    assert dg.poincare_sum(3) == (1, 2, 2, 1)
    assert dg.poincare_sum(1) == (1,)


# Test-only reference: the Poly-based q-polynomials that the int-tuple
# functions replace, kept verbatim.


def _ref_poincare_product(n: int) -> Poly:
    """prod_j (1 - q^j)/(1 - q) expanded as geometric sums."""
    out = Poly.const(1, 1)
    for j in range(1, n + 1):
        out = out * geometric_sum(1, 0, j)
    return out


def _ref_qpoly_geq(w: Permutation) -> Poly:
    """q^{l(w)} prod_j (1 - q^{j-i_j+1})/(1 - q)."""
    d = Diagram.from_permutation(w)
    out = Poly(1, {(d.length(),): 1})
    for j, ij in enumerate(d.marks, start=1):
        out = out * geometric_sum(1, 0, j - ij + 1)
    return out


def _ref_qpoly_leq(w: Permutation) -> Poly:
    """prod_j (1 - q^{i_j})/(1 - q)."""
    out = Poly.const(1, 1)
    for ij in Diagram.from_permutation(w).marks:
        out = out * geometric_sum(1, 0, ij)
    return out


def _ref_coeffs(p: Poly) -> tuple:
    return tuple(p.coeff((i,)) for i in range(p.degree() + 1))


def _is_int_tuple(coeffs) -> bool:
    return type(coeffs) is tuple and all(type(c) is int for c in coeffs)


def test_qpolys_match_poly_reference():
    for n in range(1, 7):
        for w in dg.all_permutations(n):
            for got, ref in ((dg.qpoly_geq(w), _ref_qpoly_geq(w)), (dg.qpoly_leq(w), _ref_qpoly_leq(w))):
                assert _is_int_tuple(got) and got == _ref_coeffs(ref)
    for n in range(1, 9):
        ref = _ref_coeffs(_ref_poincare_product(n))
        assert dg.poincare_sum(n) == ref and dg.poincare_product(n) == ref
        assert _is_int_tuple(dg.poincare_sum(n)) and _is_int_tuple(dg.poincare_product(n))


def test_qint_helpers():
    rng = random.Random(8)
    for _ in range(20):
        coeffs = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 6))) + (rng.randint(1, 5),)
        assert dg._times_qint(coeffs, 1) == coeffs
    assert dg.length_sum([]) == ()
    assert dg._coeff_tuple([(2, 1), (0, 3), (2, 1)]) == (3, 0, 2)
    assert dg._coeff_tuple([(1, 1), (1, -1)]) == ()


def test_specialize_to_single_q():
    assert _is_int_tuple(dg.specialize_to_single_q(dg.multiparam_sum(4)))
    assert dg.specialize_to_single_q(Poly(2, {(1, 0): 1, (0, 1): -1})) == ()
    with pytest.raises(ValueError):
        dg.specialize_to_single_q(Poly(1, {(1,): Q(1, 2)}))


def test_multiparam():
    p2 = dg.multiparam_sum(2)
    assert p2.terms == {(0, 0): 1, (0, 1): 1}
    assert len(dg.multiparam_sum(3).terms) == 6


def test_multiparam_sum_n7_is_fast():
    # 5040 one-term polynomials built in one constructor call, not 5040 copies
    # of a growing accumulator.
    t0 = time.perf_counter()
    lhs = dg.multiparam_sum(7)
    elapsed = time.perf_counter() - t0
    assert lhs == dg.multiparam_product(7)
    assert elapsed < 5.0


def test_partial_order():
    for n in (3, 4):
        perms = list(dg.all_permutations(n))
        e = dg.Permutation.identity(n)
        w0 = dg.Permutation.longest(n)
        for w in perms:
            assert dg.partial_leq(e, w)
            assert dg.partial_leq(w, w0)
    with pytest.raises(ValueError):
        dg.partial_leq(dg.Permutation.identity(2), dg.Permutation.identity(3))


def test_order_counts_exhaustive(check_claim):
    # closed-form counts and q-polynomials against brute force, n <= 5
    check_claim("order")


def test_order_special_values():
    w0 = dg.Permutation.longest(4)
    e = dg.Permutation.identity(4)
    assert dg.count_geq(w0) == 1
    assert dg.count_leq(e) == 1
    assert dg.qpoly_geq(e) == dg.poincare_sum(4)
    assert dg.qpoly_leq(w0) == dg.poincare_sum(4)
    assert (dg.count_geq(w0), dg.count_leq(w0)) == (1, 24)


def test_length_monotonicity():
    for n in range(2, 6):
        for w in dg.all_permutations(n):
            for v in dg.all_permutations(n):
                if dg.partial_leq(w, v):
                    assert (
                        dg.Diagram.from_permutation(w).length()
                        <= dg.Diagram.from_permutation(v).length()
                    )


def test_stripped_relation(check_claim):
    check_claim("induction")


# Each of the four registry entries above fails, with its message, once the
# library function it checks is broken; the last three only at the largest r
# the entry covers.
BROKEN = [
    ("diagram_validity", Diagram, "is_marked", lambda f: lambda self, point: True, "marked target"),
    ("left_arrows", Diagram, "left_arrow_count", lambda f: lambda self: f(self) + (self.rows == 6),
     "left arrows != length"),
    ("top_mark", Diagram, "to_permutation",
     lambda f: lambda self: Permutation(f(self).images[::-1]) if self.rows == 6 else f(self), "w(i_r) != 1"),
    ("induction", dg, "stripped_relation_holds", lambda f: lambda w: f(w) and len(w.images) != 5,
     "stripping relation fails at (1, 2, 3, 4, 5)"),
]


@pytest.mark.parametrize("name, owner, attr, wrap, message", BROKEN, ids=[b[0] for b in BROKEN])
def test_diagram_claims_reject_broken_library(name, owner, attr, wrap, message, monkeypatch):
    monkeypatch.setattr(owner, attr, wrap(getattr(owner, attr)))
    assert getattr(claims, f"_chk_{name}")(42) == (False, message)


def test_gz_rank2_cases():
    p1 = dg.gz_pattern(dg.Permutation((1, 2)), [0, 1])
    assert p1.rows == ((0, 1), (1,))
    assert p1.weight() == (0, 1)
    p2 = dg.gz_pattern(dg.Permutation((2, 1)), [0, 1])
    assert p2.rows == ((0, 1), (0,))
    assert p2.weight() == (1, 0)
    const = dg.gz_pattern(dg.Permutation((2, 1, 3)), [4, 4, 4])
    assert all(all(x == 4 for x in row) for row in const.rows)
    assert const.weight() == (4, 4, 4)
    with pytest.raises(ValueError):
        dg.gz_pattern(dg.Permutation((1, 2)), [2, 1])


def test_gz_weight_is_left_action():
    rng = random.Random(9)
    for n in range(1, 5):
        for _ in range(20):
            m = sorted(rng.sample(range(-15, 16), n))
            for w in dg.all_permutations(n):
                pat = dg.gz_pattern(w, m)
                assert pat.betweenness_holds()
                winv = w.inverse()
                assert pat.weight() == tuple(m[winv(i) - 1] for i in range(1, n + 1))
                # equivalently: entry m_i sits at position w(i)
                for i in range(1, n + 1):
                    assert pat.weight()[w(i) - 1] == m[i - 1]


def test_serialization():
    d = dg.Diagram((1, 2, 2))
    assert json.loads(d.to_json()) == [1, 2, 2]
    assert dg.Diagram.from_json(d.to_json()) == d
    pat = dg.gz_pattern(dg.Permutation((2, 3, 1)), [0, 1, 2])
    blob = pat.to_json()
    loaded = json.loads(blob)
    assert loaded[0] == [0, 1, 2]  # top row first
    assert dg.GZPattern.from_json(blob) == pat
