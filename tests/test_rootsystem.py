import random
from fractions import Fraction as Q

import pytest

from hccycles import rootsystem as rs
from hccycles.diagrams import all_permutations


def test_inner_product_examples():
    a = rs.root(1, 1, 2)
    assert rs.inner(a, a) == 2
    assert rs.inner(rs.delta(1), a) == 1
    lam = rs.vec([Q(1, 3), Q(-1, 3), 0])
    assert rs.inner(lam, rs.zero_vec(3)) == 0
    with pytest.raises(ValueError):
        rs.inner(a, rs.zero_vec(3))


def test_coroot():
    a = rs.root(3, 1, 2)
    assert rs.coroot(a) == a
    assert rs.coroot(rs.root(3, 2, 4)) == rs.root(3, 2, 4)
    # 2a/(a,a) is inversely homogeneous in the scale
    assert rs.coroot(rs.scale(2, a)) == rs.scale(Q(1, 2), a)
    with pytest.raises(ValueError):
        rs.coroot(rs.zero_vec(4))


def test_rho_and_delta():
    assert rs.rho(2, Q(1)) == rs.vec([1, 0, -1])
    assert rs.rho(1, 1) == rs.vec([Q(1, 2), Q(-1, 2)])
    assert rs.rho(3, 0) == rs.zero_vec(4)
    for n in range(1, 5):
        k = Q(5, 7)
        assert rs.rho(n, k) == rs.scale(k, rs.delta(n))
        assert sum(rs.rho(n, k)) == 0
        half = rs.scale(Q(1, 2), rs.vec([sum(c) for c in zip(*rs.positive_roots(n))]))
        assert half == rs.delta(n)
        assert len(rs.positive_roots(n)) == n * (n + 1) // 2


def test_weyl_action():
    v = rs.vec([1, 2, 3])
    assert rs.weyl_apply(rs.reflection(2, 1, 2), v) == rs.vec([2, 1, 3])
    assert rs.weyl_apply((1, 2, 3), v) == v
    # right action: apply(w1*w2, v) = apply(w2, apply(w1, v))
    from hccycles.diagrams import Permutation

    w1, w2 = Permutation((2, 3, 1)), Permutation((1, 3, 2))
    assert rs.weyl_apply(w1 * w2, v) == rs.weyl_apply(w2, rs.weyl_apply(w1, v))


def test_weyl_isometry_exhaustive():
    rng = random.Random(0)
    for n in range(1, 5):
        a = rs.vec([Q(rng.randint(-9, 9), 4) for _ in range(n + 1)])
        b = rs.vec([Q(rng.randint(-9, 9), 3) for _ in range(n + 1)])
        for w in all_permutations(n + 1):
            assert rs.inner(rs.weyl_apply(w, a), rs.weyl_apply(w, b)) == rs.inner(a, b)
            d = rs.delta(n)
            wd = rs.weyl_apply(w, d)
            assert rs.inner(wd, wd) == rs.inner(d, d)


def test_reflection_involution():
    for n in (1, 2, 3):
        v = rs.vec(list(range(n + 1)))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 2):
                r = rs.reflection(n, i, j)
                assert rs.weyl_apply(r, rs.weyl_apply(r, v)) == v


def test_fundamental_weights():
    for n in (1, 2, 3, 4):
        for i, lam in enumerate(rs.fundamental_weights(n)):
            assert sum(lam) == 0
            for j, a in enumerate(rs.simple_roots(n)):
                assert rs.inner(lam, a) == (1 if i == j else 0)


def test_dominance():
    a1, a2 = rs.simple_roots(2)
    assert rs.dominance_leq(a1, a1)
    assert rs.dominance_leq(rs.zero_vec(3), a1)
    assert not rs.dominance_leq(a1, a2)
    # partial order on a small sample: antisymmetry + transitivity
    vecs = [rs.zero_vec(3), a1, a2, rs.add(a1, a2), rs.add(rs.add(a1, a2), a1)]
    for x in vecs:
        for y in vecs:
            if rs.dominance_leq(x, y) and rs.dominance_leq(y, x):
                assert x == y
            for z in vecs:
                if rs.dominance_leq(x, y) and rs.dominance_leq(y, z):
                    assert rs.dominance_leq(x, z)
    # non-integral combination is rejected
    assert not rs.dominance_leq(rs.zero_vec(3), rs.scale(Q(1, 2), a1))

