import itertools
import math
import random
from fractions import Fraction as Q
from operator import add

import pytest

from hccycles.polynomial import Poly, geometric_sum, vandermonde


def rand_poly(rng, nvars, nterms=4, maxdeg=3):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        terms[e] = Q(rng.randint(-9, 9), rng.randint(1, 7))
    return Poly(nvars, terms)


def test_ring_axioms_random():
    rng = random.Random(0)
    for _ in range(40):
        nv = rng.randint(1, 4)
        a, b, c = (rand_poly(rng, nv) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero
        assert a * Poly.const(nv, 1) == a


def test_pow_and_eval():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    p = (x + y) ** 3
    assert p.coeff((2, 1)) == 3
    assert p((Q(2), Q(1))) == 27
    assert Poly.const(3, 5)((1, 2, 3)) == 5


def test_shift_matches_evaluation():
    rng = random.Random(1)
    for _ in range(25):
        nv = rng.randint(1, 3)
        p = rand_poly(rng, nv)
        deltas = [Q(rng.randint(-4, 4), 3) for _ in range(nv)]
        shifted = p.shift(deltas)
        point = [Q(rng.randint(-5, 5), 2) for _ in range(nv)]
        assert shifted(point) == p([v + d for v, d in zip(point, deltas)])


def test_permute_vars_and_symmetry():
    x, y, z = (Poly.var(3, i) for i in range(3))
    p = x * y + z
    assert p.permute_vars([1, 0, 2]) == p
    # A 3-cycle is not its own inverse: x_i -> x_{images[i]} must agree with
    # evaluation, p.permute_vars(images)(v) == p(v[images[0]], v[images[1]], ...).
    rng = random.Random(3)
    images = [1, 2, 0]
    for _ in range(10):
        q = rand_poly(rng, 3)
        v = [Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
        assert q.permute_vars(images)(v) == q([v[images[i]] for i in range(3)])
    assert (x ** 2 * y).permute_vars(images) == y ** 2 * z
    assert not (x + 2 * y).is_symmetric()
    assert (x + y + z).is_symmetric()
    assert (x * y + x * z + y * z).is_symmetric()


def test_divide_by_linear_roundtrip():
    rng = random.Random(2)
    for _ in range(30):
        nv = rng.randint(1, 3)
        q = rand_poly(rng, nv)
        coeffs = [Q(rng.randint(-3, 3)) for _ in range(nv)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = Q(2)
        lin = Poly.linear(coeffs, Q(rng.randint(-3, 3)))
        prod = q * lin
        quo, rem = prod.divide_by_linear(lin)
        assert rem.is_zero
        assert quo == q


def test_divide_by_linear_remainder():
    x = Poly.var(1, 0)
    p = x ** 2 + 1
    quo, rem = p.divide_by_linear(x - 1)
    assert quo == x + 1
    assert rem == Poly.const(1, 2)


def test_divide_by_linear_pivot_is_first_variable():
    x0 = Poly.var(2, 0)
    quo, rem = (x0 ** 2).divide_by_linear(Poly(2, {(0, 1): 1, (1, 0): 2}))
    assert all(e[0] == 0 for e in rem.terms)
    assert quo * Poly(2, {(0, 1): 1, (1, 0): 2}) + rem == x0 ** 2


def test_divide_requires_degree_one():
    x = Poly.var(1, 0)
    with pytest.raises(ValueError):
        (x ** 2).divide_by_linear(x ** 2)


def test_deriv():
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    p = x ** 3 * y + y ** 2
    assert p.deriv(0) == 3 * x ** 2 * y
    assert p.deriv(1) == x ** 3 + 2 * y


def test_geometric_sum_and_univariate():
    g = geometric_sum(1, 0, 4)
    assert g.terms == {(0,): 1, (1,): 1, (2,): 1, (3,): 1}
    assert Poly.zero(1).terms == {}
    assert geometric_sum(3, 2, 3) == 1 + Poly.var(3, 2) + Poly.var(3, 2) ** 2


@pytest.mark.parametrize("i", [-1, 2, 5])
def test_geometric_sum_index_out_of_range(i):
    with pytest.raises(ValueError):
        geometric_sum(2, i, 3)


def test_vandermonde_alternates():
    v = vandermonde(3)
    assert v((1, 2, 3)) == (1 - 2) * (1 - 3) * (2 - 3)
    assert v((1, 1, 5)) == 0


def test_bad_inputs():
    with pytest.raises(ValueError):
        Poly(2, {(1,): 1})
    with pytest.raises(ValueError):
        Poly(2, [((1,), 1)])
    with pytest.raises(ValueError):
        Poly(1, [((-1,), 1)])
    with pytest.raises(ValueError):
        Poly.var(2, 5)
    with pytest.raises(ValueError):
        Poly.var(2, 0) + Poly.var(3, 0)


def test_constructor_combines_pairs():
    p = Poly(2, [((1, 0), 2), ((0, 1), Q(1, 2)), ((1, 0), 3)])
    assert p.terms == {(1, 0): 5, (0, 1): Q(1, 2)}
    # A pair sum of zero is dropped, also when a later pair brings it back.
    assert Poly(1, [((2,), 1), ((2,), -1)]).is_zero
    assert Poly(1, [((2,), 1), ((2,), -1), ((0,), 4), ((2,), Q(1, 3))]).terms == {(0,): 4, (2,): Q(1, 3)}
    assert Poly(1, [((3,), 0)]).is_zero
    gen = Poly(2, (((j, 0), 1) for j in (0, 1, 1)))
    assert gen == 1 + 2 * Poly.var(2, 0)
    assert Poly(2, [([1, 0], 1)]) == Poly.var(2, 0)  # any exponent sequence
    assert Poly(1, []).is_zero and Poly(1, {}).is_zero and Poly(0, [((), 3)]) == 3


@pytest.mark.parametrize("bad", [(1,), (2, 0, 1), (0, -1)])
def test_constructor_checks_every_pair(bad):
    pairs = [((1, 0), 1), (bad, 1)]
    with pytest.raises(ValueError):
        Poly(2, pairs)
    with pytest.raises(ValueError):
        Poly(2, iter(pairs))


def test_constructor_rejects_float_coefficients():
    with pytest.raises(TypeError):
        Poly(1, [((1,), 0.5)])
    with pytest.raises(TypeError):
        Poly(1, [((0,), 1), ((1,), 0.5)])
    with pytest.raises(TypeError):
        Poly.var(1, 0) * 0.5
    with pytest.raises(TypeError):
        Poly.var(1, 0) + 0.5
    with pytest.raises(TypeError):
        Poly(1, [((1,), 1.0), ((1,), -1.0)])
    with pytest.raises(TypeError):
        Poly(1, {(1,): 0.0})
    with pytest.raises(ValueError):
        Poly(-1)


# list(p.terms.items()) for each result of _poly_sequence, recorded before the
# ring operations were routed through the unchecked term merge; it pins the
# values and the dict order together.
_POLY_SEQUENCE_GOLDEN = (
    [[((0,), '1'), ((2,), '1'), ((4,), '1')], [((0,), '-1'), ((1,), '2'), ((2,), '-3')],
     [((0,), '-1'), ((2,), '1')], [((0,), '1'), ((1,), '-1'), ((2,), '1')],
     [((0,), '3/2'), ((1,), '-3/2'), ((2,), '3/2')],
     [((2,), '3'), ((1,), '-1'), ((3,), '-3'), ((4,), '2')], [((2,), '2'), ((3,), '-4'), ((4,), '2')],
     [((0,), '-13/9'), ((1,), '5/3'), ((2,), '-1')],
     [((1,), '6'), ((0,), '-1'), ((2,), '-9'), ((3,), '8')], [((0,), '-1'), ((1,), '1'), ((2,), '-1')],
     [((3,), '2'), ((2,), '-5'), ((1,), '8'), ((0,), '-9')], [((0,), '9')],
     [((0, 0), '1'), ((2, 0), '1'), ((4, 0), '1')], [((0, 2), '-1'), ((2, 1), '-1')],
     [((0, 2), '-1'), ((2, 1), '1')], [((0, 2), '1')], [((0, 2), '3/2')], [((2, 3), '1')],
     [((2, 3), '1'), ((1, 2), '1'), ((3, 1), '-1'), ((2, 0), '-1')],
     [((0, 0), '-1/9'), ((0, 1), '-2/3'), ((0, 2), '-1')], [((1, 3), '2')], [((2, 0), '-1')],
     [((1, 3), '1'), ((0, 3), '-1')], [((0, 3), '1')],
     [((0, 0, 0), '1'), ((2, 0, 0), '1'), ((4, 0, 0), '1')],
     [((2, 1, 2), '2'), ((1, 2, 2), '1'), ((1, 2, 1), '1')],
     [((1, 2, 2), '1'), ((0, 1, 0), '-2'), ((1, 2, 1), '-1')],
     [((2, 1, 2), '-1'), ((1, 2, 2), '-1'), ((0, 1, 0), '1')],
     [((2, 1, 2), '-3/2'), ((1, 2, 2), '-3/2'), ((0, 1, 0), '3/2')],
     [((4, 2, 4), '1'), ((3, 3, 3), '1'), ((1, 3, 2), '1'), ((3, 3, 4), '1'), ((2, 4, 3), '1'),
      ((0, 2, 0), '-1'), ((1, 3, 1), '-1')],
     [((4, 2, 4), '1'), ((3, 3, 3), '1'), ((1, 3, 2), '1'), ((3, 3, 4), '1'), ((2, 4, 3), '1'),
      ((0, 2, 0), '-1'), ((2, 2, 2), '-1'), ((1, 3, 1), '-1'), ((1, 1, 0), '2'), ((2, 2, 1), '1'),
      ((2, 0, 0), '-1')],
     [((0, 0, 0), '-5/18'), ((0, 0, 1), '-2/9'), ((0, 0, 2), '2/9'), ((0, 1, 0), '-7/9'),
      ((0, 1, 1), '-8/9'), ((0, 1, 2), '8/9'), ((1, 0, 0), '5/36'), ((1, 0, 1), '-5/9'),
      ((1, 0, 2), '5/9'), ((1, 1, 0), '1/2'), ((1, 1, 1), '-2'), ((1, 1, 2), '2'), ((2, 0, 0), '1/12'),
      ((2, 0, 1), '-1/3'), ((2, 0, 2), '1/3'), ((2, 1, 0), '1/4'), ((2, 1, 1), '-1'), ((2, 1, 2), '1'),
      ((0, 2, 0), '1/6'), ((0, 2, 1), '-2/3'), ((0, 2, 2), '2/3'), ((1, 2, 0), '1/4'),
      ((1, 2, 1), '-1'), ((1, 2, 2), '1')],
     [((3, 2, 4), '4'), ((2, 3, 3), '3'), ((0, 3, 2), '1'), ((2, 3, 4), '3'), ((1, 4, 3), '2'),
      ((0, 3, 1), '-1')],
     [((2, 1, 2), '1'), ((2, 2, 1), '1'), ((0, 1, 0), '-1')],
     [((3, 2, 4), '1'), ((2, 3, 3), '1'), ((2, 3, 4), '1'), ((2, 2, 4), '-1'), ((1, 4, 3), '1'),
      ((1, 3, 3), '-1'), ((1, 3, 4), '-1'), ((1, 2, 4), '1'), ((0, 3, 2), '1'), ((0, 3, 1), '-1'),
      ((0, 4, 3), '-1'), ((0, 3, 3), '1'), ((0, 3, 4), '1'), ((0, 2, 4), '-1')],
     [((0, 2, 0), '-1'), ((0, 3, 2), '-1'), ((0, 3, 1), '1'), ((0, 4, 3), '1'), ((0, 3, 3), '-1'),
      ((0, 3, 4), '-1'), ((0, 2, 4), '1')]]
)


def _poly_sequence():
    rng = random.Random(3)
    out = []
    for nv in (1, 2, 3):
        def draw():
            return Poly(nv, [(tuple(rng.randint(0, 2) for _ in range(nv)), rng.choice((-1, 1)))
                             for _ in range(3)])

        a, b = draw(), draw()
        deltas = [Q(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(nv)]
        x = Poly.var(nv, 0)
        # (1 + x + x^2)(1 - x + x^2): the x^2 term sums to zero, is dropped,
        # and comes back with the third pair.
        out += [(1 + x + x * x) * (1 - x + x * x), a + b, a - b, -a, a * Q(-3, 2), a * b,
                (a + x) * (b - x), a.shift(deltas), (a * b).deriv(0),
                a.permute_vars(list(range(nv))[::-1]), *(a * b).divide_by_linear(x + 1)]
    return out


def test_term_order_golden():
    got = [[(e, str(c)) for e, c in p.terms.items()] for p in _poly_sequence()]
    assert got == _POLY_SEQUENCE_GOLDEN


# -- the representation: integer numerators over one denominator ---------------
# A Fraction-dict reference of the ring operations, as Poly computed them
# before it held integers over one denominator: the terms, one gcd per
# coefficient operation, merged with the same drop-and-reinsert order rule.


def _ref_combine(pairs):
    terms = {}
    for e, c in pairs:
        if e in terms:
            c = terms[e] + c
        if c:
            terms[e] = c
        else:
            terms.pop(e, None)
    return terms


def _ref_add(a, b):
    return _ref_combine([*a.items(), *b.items()])


def _ref_mul(a, b):
    return _ref_combine((tuple(map(add, e1, e2)), c1 * c2) for e1, c1 in a.items() for e2, c2 in b.items())


def _ref_shift(a, ds):
    return _ref_combine(
        (js, c * math.prod(math.comb(p, j) * Q(d) ** (p - j) for p, j, d in zip(e, js, ds)))
        for e, c in a.items()
        for js in itertools.product(*(range(p + 1) if d else (p,) for p, d in zip(e, ds))))


def _ref_divide(a, lin):
    nv = len(next(iter(lin)))
    pivot = min(e.index(1) for e in lin if sum(e) == 1)
    lead = lin[tuple(int(i == pivot) for i in range(nv))]
    quotient, rem = {}, a
    while True:
        top = {e: c for e, c in rem.items() if e[pivot] > 0}
        if not top:
            return quotient, rem
        d = max(e[pivot] for e in top)
        q = _ref_combine((e[:pivot] + (d - 1,) + e[pivot + 1:], c / lead) for e, c in top.items() if e[pivot] == d)
        quotient = _ref_add(quotient, q)
        rem = _ref_add(rem, {e: -c for e, c in _ref_mul(q, lin).items()})


def _assert_lowest_terms(p, ref=None):
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c != 0 for c in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    assert all(type(c) is Q for c in p.terms.values())
    if ref is not None:
        assert list(p.terms.items()) == list(ref.items())


def test_poly_sequence_in_lowest_terms():
    for p in _poly_sequence():
        _assert_lowest_terms(p)


def test_ring_operations_match_fraction_reference():
    rng = random.Random(8)
    for _ in range(60):
        nv = rng.randint(1, 3)
        a, b = rand_poly(rng, nv), rand_poly(rng, nv, nterms=3)
        ra, rb = dict(a.terms), dict(b.terms)
        _assert_lowest_terms(a + b, _ref_add(ra, rb))
        _assert_lowest_terms(a * b, _ref_mul(ra, rb))
        _assert_lowest_terms(a - a, {})
        c = Q(rng.randint(-5, 5), rng.randint(1, 6))
        _assert_lowest_terms(a * c, _ref_combine((e, v * c) for e, v in ra.items()))
        for ds in ([rng.randint(-3, 3) for _ in range(nv)], [Q(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(nv)]):
            _assert_lowest_terms(a.shift(ds), _ref_shift(ra, ds))
        lin = Poly.linear([Q(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(nv - 1)] + [Q(rng.choice((-3, -2, 2, 5)), 3)],
                          Q(rng.randint(-3, 3), 2))
        quo, rem = (a * b).divide_by_linear(lin)
        ref_quo, ref_rem = _ref_divide(_ref_mul(ra, rb), dict(lin.terms))
        _assert_lowest_terms(quo, ref_quo)
        _assert_lowest_terms(rem, ref_rem)


def test_equal_constants_and_hashes():
    a, b = Poly.const(2, Q(6, 4)), Poly.const(2, Q(3, 2))
    assert a == b == Q(3, 2) and hash(a) == hash(b)
    assert (a.num, a.den) == ({(0, 0): 3}, 2)
    assert Poly.const(2, 4) == 4 and Poly.zero(2) == 0 and Poly.zero(2).den == 1
    p = 3 * Poly.var(2, 0) + Q(1, 2)
    assert hash(p) == hash((2, frozenset({(1, 0): Q(3), (0, 0): Q(1, 2)}.items())))
    assert p.coeff((1, 0)) == 3 and p.coeff((0, 1)) == 0 and p((Q(1, 3), 7)) == Q(3, 2)
    assert repr(p) == "1/2 + 3*x0"


def test_terms_is_read_only():
    p = Poly.var(1, 0)
    with pytest.raises(TypeError):
        p.terms[(0,)] = 1
    with pytest.raises(AttributeError):
        p.terms = {}
    assert p.terms == {(1,): 1}


def test_float_inputs_raise():
    x = Poly.var(2, 0)
    for bad in (lambda: Poly.const(2, 0.5), lambda: Poly.linear([1, 0.5]), lambda: Poly.linear([1, 1], 0.5),
                lambda: x.shift([0.5, 0]), lambda: x((0.5, 1)), lambda: x - 0.5, lambda: x * 1.5):
        with pytest.raises(TypeError):
            bad()
