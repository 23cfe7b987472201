import cmath
import functools
import hashlib
import math
import random
from fractions import Fraction as Q

import mpmath
import pytest
import scipy.special as ss
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hccycles import closedforms as cf
from hccycles import cycles as cy
from hccycles import diagrams as dg
from hccycles import rootsystem as rs
from hccycles.claims import _worse, random_generic
from hccycles.polynomial import vandermonde
from hccycles.series import SpectralParam, exact_view, float_view

W_ID = dg.Permutation((1, 2))
W_S = dg.Permutation((2, 1))


def sp1(s=Q(3, 10), k=Q(3, 2)):
    return SpectralParam(rs.vec([s, -s]), k)


def _mp(x):
    return mpmath.mpf(x.numerator) / x.denominator


# Gamma arguments: generic rationals in (-25, 25), arguments 10^-p from the
# poles 0..-5, and arguments near the ends of the float range.  The Gamma
# rule takes a float only of y = x or y = 1 - x, whichever is positive, and
# a rounding of y by 2^-53 moves Gamma(y) by 2^-53 |y psi(y)|; measured
# against mpmath, no argument here comes within 3.3 such units, with a worst
# relative error of 4.9e-14 near 170.  The sine rule reads at most 2.3e-16.
_rng = random.Random(3)
FACTOR_ARGS = (
    [Q(n, d) for n, d in ((1, 2), (1, 1), (5, 1), (-7, 3), (-1, 3), (49, 2), (-49, 2), (99, 97))]
    + [Q(_rng.randint(-25 * d, 25 * d), d) for d in range(1, 98)]
    + [Q(-n) + s * Q(1, 10**p) for n in range(6) for s in (1, -1) for p in (4, 9, 17, 30)]
    + [Q(170) + Q(1, 3), Q(171) + Q(1, 2), Q(-170) + Q(1, 7), Q(-170) - Q(1, 2)]
)


def test_gamma_known_values():
    assert abs(cf._gamma_factor(1, 2)[1] - math.sqrt(math.pi)) < 1e-14
    assert abs(cf._gamma_factor(-1, 2)[1] + 2 * math.sqrt(math.pi)) < 1e-14
    assert cf._gamma_factor(1, 1) == (False, 1.0)
    assert cf._gamma_factor(5, 1) == (False, 24.0)
    assert cf._gamma_factor(0, 1) == (True, None)
    assert cf._gamma_factor(-3, 1) == (True, None)


def test_gamma_against_scipy():
    rng = random.Random(1)
    for _ in range(400):
        den = rng.randint(1, 97)
        num = rng.randint(-8 * den, 8 * den)
        if num <= 0 and num % den == 0:
            continue
        ref = ss.gamma(num / den)
        assert abs(cf._gamma_factor(num, den)[1] - ref) < 5e-13 * abs(ref), (num, den)


def test_gamma_and_sine_factors_match_mpmath():
    with mpmath.workdps(60):
        for x in FACTOR_ARGS:
            num, den = x.numerator, x.denominator
            s = cf._sin_factor(num, den)
            if den == 1:
                assert s == 0
            else:
                assert abs(s - mpmath.sinpi(_mp(x))) <= 1e-15 * abs(mpmath.sinpi(_mp(x))), x
            pole, g = cf._gamma_factor(num, den)
            assert pole == (x <= 0 and den == 1)
            if pole:
                assert g is None
                continue
            y = _mp(x if x > 0 else 1 - x)
            ref = mpmath.gamma(_mp(x))
            assert abs(g - ref) <= 8 * 2.0**-53 * (1 + abs(y * mpmath.digamma(y))) * abs(ref), x
    # an exact pole whatever the denominator, and past the float range
    assert cf._gamma_factor(-6, 2) == (True, None)
    for num, den in ((172, 1), (-343, 2)):  # Gamma(172), and Gamma(1 - x) = Gamma(172.5)
        with pytest.raises(OverflowError, match="math range error"):
            cf._gamma_factor(num, den)


def test_a_w_matches_direct_formula_rank1():
    s, k = Q(3, 10), Q(3, 2)
    sp = sp1(s, k)
    sf, kf = float(s), float(k)
    hand_id = (
        ss.gamma(-2 * sf) * math.sin(-2 * math.pi * sf) / ss.gamma(-2 * sf + kf)
        * cmath.exp(-2j * math.pi * sf) * ss.gamma(kf) * 2j
    )
    assert abs(cf.a_w(W_ID, sp) - hand_id) < 1e-12 * abs(hand_id)
    hand_s = (
        ss.gamma(2 * sf) * math.sin(2 * math.pi * sf) / ss.gamma(2 * sf + kf)
        * cmath.exp(-2j * math.pi * sf) * cmath.exp(-1j * math.pi * (kf - 1))
        * ss.gamma(kf) * 2j
    )
    assert abs(cf.a_w(W_S, sp) - hand_s) < 1e-12 * abs(hand_s)


def test_a_w_k1_phase_factor_trivial():
    # e^{-pi i (k-1) l(w)} = 1 at k = 1 for every w: the two w values differ
    # only through the Gamma/sin part
    sp = sp1(Q(3, 10), Q(1))
    prod = cf.a_w_product(W_S, sp)
    assert complex(prod.exp_pi_i) == complex(-2 * Q(3, 10) + Q(1, 2))


def test_a_w_reflection_agreement():
    rng = random.Random(3)
    for n in (1, 2):
        for _ in range(10):
            sp = random_generic(rng, n, Q(1, 5), 29)
            for w in dg.all_permutations(n + 1):
                direct = cf.a_w(w, sp)
                refl = cf.a_w_product(w, sp).reflected().eval()
                assert abs(direct - refl) < 1e-12 * abs(direct)


def test_a_w_pole_behavior_exact():
    # (-w.lambda, coroot) in {0,-1,-2,...} raises, nearby rationals do not
    for s, should_raise in ((Q(1, 2), True), (Q(0), True), (Q(499, 1000), False), (Q(1), True)):
        sp = SpectralParam(rs.vec([s, -s]), Q(3, 2))
        if should_raise:
            with pytest.raises(cf.PoleError):
                cf.a_w(W_ID, sp)
        else:
            cf.a_w(W_ID, sp)


def test_F_w_depends_on_wlam_only():
    sp = sp1(Q(3, 10), Q(2, 7))  # k with Gamma(1-2k) off its poles
    for w in (W_ID, W_S):
        direct = cf.F_w_at_1(w, sp)
        again = cf.F_w_at_1(w, sp)
        assert direct == again
    # stabilizer invariance: at lambda = 0-like symmetric points the two
    # translates coincide; emulate with w and w' giving equal w.lambda
    spsym = SpectralParam(rs.vec([Q(1, 3), Q(-1, 6), Q(-1, 6)]), Q(2, 7))
    w1 = dg.Permutation((1, 2, 3))
    w2 = dg.Permutation((1, 3, 2))  # fixes lambda (last two equal)
    assert rs.weyl_apply(w1, spsym.lam) == rs.weyl_apply(w2, spsym.lam)
    assert cf.F_w_at_1(w1, spsym) == cf.F_w_at_1(w2, spsym)


def test_F_w_rank1_formula():
    s, k = Q(1, 5), Q(1, 4)
    sp = sp1(s, k)
    sf, kf = float(s), float(k)
    expected = (
        ss.gamma(2 * sf + 1) * ss.gamma(1 - 2 * kf)
        / (ss.gamma(2 * sf - kf + 1) * ss.gamma(1 - kf))
    )
    assert abs(cf.F_w_at_1(W_ID, sp) - expected) < 1e-13 * abs(expected)


def test_F_w_against_gauss_summation_oracles():
    rng = random.Random(5)
    worst_scipy = worst_beta = 0.0
    for _ in range(20):
        k = Q(rng.randint(2, 8), 20) + Q(1, 40)
        s = Q(rng.randint(1, 5), 25) + Q(1, 53)
        sp = sp1(s, k)
        for w in (W_ID, W_S):
            got = cf.F_w_at_1(w, sp)
            m = rs.inner(rs.weyl_apply(w, sp.lam), rs.root(1, 1, 2))
            ref = ss.hyp2f1(float(sp.k), float(sp.k) + float(m), 1.0 + float(m), 1.0)
            worst_scipy = _worse(worst_scipy, abs(got - ref) / abs(ref))
            ref2 = cf.gauss_value_by_beta_quadrature(float(m), float(sp.k))
            worst_beta = _worse(worst_beta, abs(got - ref2) / abs(ref2))
    assert worst_scipy < 1e-10
    assert worst_beta < 1e-10


def test_limit_equals_a_times_F(check_claim):
    # Thm 6.8: limit = a(w) F_w(1), 50 generic draws per rank n <= 3
    check_claim("limit")


def test_limit_k_half_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        cf.limit_value(W_ID, sp1(Q(3, 10), Q(1, 2)))


def test_limit_near_k_half_scan():
    # at k = 1/2 +- 1e-3 both sides are finite, agree, and vary smoothly
    # (near-linearly) in s near 1/4, where the sin factor crosses zero
    for dk in (Q(1, 1000), Q(-1, 1000)):
        k = Q(1, 2) + dk
        vals = []
        for ds in range(-3, 4):
            s = Q(1, 4) + Q(ds, 1000) + Q(1, 9973)
            sp = sp1(s, k)
            lhs = cf.limit_value(W_ID, sp)
            rhs = cf.a_w(W_ID, sp) * cf.F_w_at_1(W_ID, sp)
            assert abs(lhs - rhs) < 1e-10 * abs(rhs)
            assert abs(lhs) < 1e6
            vals.append(lhs)
        diffs = [abs(a - b) for a, b in zip(vals, vals[1:])]
        assert max(diffs) < 1.25 * min(diffs)


def test_limit_w_dependence_through_wlam_and_length():
    # the formula's only w-dependence is through w.lambda and l(w)
    rng = random.Random(8)
    sp = random_generic(rng, 2, Q(1, 5), 29)
    seen = {}
    for w in dg.all_permutations(3):
        key = (rs.weyl_apply(w, sp.lam), dg.Diagram.from_permutation(w).length())
        val = cf.limit_value(w, sp)
        if key in seen:
            assert abs(seen[key] - val) < 1e-12 * abs(val)
        seen[key] = val


def test_lemma_6_5_symbolic():
    for n in (1, 2, 3):
        assert cf.lemma_6_5_check(n)
    lhs, rhs = cf.mixed_euler_on_vandermonde(2)
    assert lhs == vandermonde(3) * Q(2)
    lhs3, _ = cf.mixed_euler_on_vandermonde(3)
    assert lhs3 == vandermonde(4) * Q(11)


def test_sum_identity():
    assert cf.lemma_sum_constant(1) == 0
    assert cf.lemma_sum_constant(3) == 11
    direct = sum((p - 1) * (q - 1) for q in range(2, 5) for p in range(1, q))
    assert direct == 11
    assert cf.sum_identity_check(200) is None


def test_sum_identity_names_first_failure(monkeypatch):
    constant = cf.lemma_sum_constant
    monkeypatch.setattr(cf, "lemma_sum_constant", lambda n: constant(n) + (n >= 37))
    assert cf.sum_identity_check(200) == 37
    assert cf.sum_identity_check(36) is None


def test_lemma_6_4_numeric():
    for n in (1, 2):
        assert cf.lemma_6_4_check(n, 0.5, seed=11)
        assert cf.lemma_6_4_check(n, 0.75, seed=12)
        assert cf.lemma_6_4_check(n, 1.0, seed=13)
    # k = 1 matches the untwisted constant: 6kn - 3n + 2 = 3n + 2
    for n in (1, 2, 3):
        assert (2 * 1 - 1) * (n - 1) * n * (n + 1) * (6 * 1 * n - 3 * n + 2) == (
            24 * float(cf.lemma_sum_constant(n))
        )


def test_lemma_6_4_residual_keeps_nan():
    # a NaN residual fails the check, where max(worst, nan) dropped it
    assert math.isnan(cf.power_vandermonde_residual(2, math.nan, [[1, 2, 3]]))
    assert not cf.lemma_6_4_check(2, math.nan)


def test_gamma_product_pole_tagging():
    sp = SpectralParam(rs.vec([Q(1), Q(-1)]), Q(3, 2))
    with pytest.raises(cf.PoleError) as err:
        cf.a_w(W_ID, sp)
    assert "alpha" in str(err.value)
    # the tag names the root in the e-basis, as strings
    sp2 = SpectralParam(rs.vec([Q(1, 2), 0, Q(-1, 2)]), Q(3, 2))
    for images, alpha in (((1, 2, 3), "('1', '0', '-1')"), ((1, 3, 2), "('1', '-1', '0')"),
                          ((2, 1, 3), "('0', '1', '-1')")):
        with pytest.raises(cf.PoleError) as err:
            cf.a_w(dg.Permutation(images), sp2)
        assert str(err.value) == f"Gamma argument -1 is a nonpositive integer (alpha = {alpha})"


def _hand_product(*gammas):
    prod = cf.GammaProduct()
    for arg, power in gammas:
        prod.times_gamma(arg, power)
    return prod


def test_first_failing_gamma_factor_decides():
    # the loop stops at the first Gamma factor that fails: a zero of 1/Gamma
    # before an overflow gives 0, but before a pole it raises for the pole,
    # as 0 times a pole is no value; a pole or an overflow before it raises
    for prod in (_hand_product((-1, -1), (-2, 1)), _hand_product((-2, 1), (-1, -1))):
        with pytest.raises(cf.PoleError) as err:
            prod.eval()
        assert str(err.value) == "Gamma argument -2 is a nonpositive integer"
    assert _hand_product((-1, -1), (200, 1)).eval() == 0j
    with pytest.raises(OverflowError, match="math range error"):
        _hand_product((200, 1), (-1, -1)).eval()


@pytest.mark.parametrize("arg", [0.5, -1.0, -1.0 + 1e-9, 2.5 + 0j])
def test_gamma_argument_must_be_exact(arg):
    # the exact pole test needs an int or a Fraction, whatever the float is
    for power in (1, -1):
        for prod in (_hand_product((arg, power)), _hand_product((Q(1, 3), 1), (arg, power))):
            with pytest.raises(TypeError):
                prod.eval()


@pytest.mark.parametrize("arg", [0.25, -1.0, 2.5 + 0j])
def test_sine_and_phase_arguments_must_be_exact(arg):
    # every factor kind takes an int or a Fraction, checked when the loop
    # reaches the factor: a zero of 1/Gamma before it still gives 0
    for prod in (cf.GammaProduct().times_sin(arg), cf.GammaProduct().times_exp_pi_i(arg)):
        with pytest.raises(TypeError, match="is not an int or a Fraction"):
            prod.eval()
    assert _hand_product((-1, -1)).times_sin(arg).eval() == 0j
    assert _hand_product((-1, -1)).times_exp_pi_i(arg).eval() == 0j


def test_reciprocal_gamma_next_to_pole_is_evaluated():
    # next to a pole but not at it, Gamma and 1/Gamma are evaluated from the
    # exact distance to the pole, even where the argument's float is the
    # pole; past the float range both powers raise
    with mpmath.workdps(60):
        for x in (Q(-2) + Q(1, 10**9), Q(-2) + Q(1, 10**17)):
            for power in (1, -1):
                ref = mpmath.gamma(_mp(x)) ** power
                assert abs(_hand_product((x, power)).eval() - ref) <= 1e-15 * abs(ref)
    assert float(Q(-2) + Q(1, 10**17)) == -2.0
    for power in (1, -1):
        with pytest.raises(OverflowError, match="math range error"):
            _hand_product((Q(-200) + Q(1, 10**9), power)).eval()


# float.hex of (re, im) of limit_value at k = -199999999/200000000: Gamma(k)
# is 5e-9 from the pole at -1 and sin(pi k) 1.6e-8 from 0, and both are
# evaluated from that exact distance
LIMIT_NEXT_TO_POLE = [
    (Q(3, 10), (1, 2), ("-0x1.590ae86e99d2dp+29", "0x1.c071ce9e1ff3fp+27")),
    (Q(3, 10), (2, 1), ("0x1.590ae815f7068p+29", "-0x1.c071cfbd0ceaap+27")),
    (Q(-3, 10), (1, 2), ("-0x1.590ae83382a00p+29", "-0x1.c071ce515374bp+27")),
    (Q(-3, 10), (2, 1), ("0x1.590ae88c256c2p+29", "0x1.c071cd32667e6p+27")),
]


def test_limit_next_to_gamma_pole_bits():
    k = Q(-199999999, 200000000)
    for s, images, (re, im) in LIMIT_NEXT_TO_POLE:
        sp = sp1(s, k)
        table, slot = cf._FactorTable(sp), cf._slots(1).index
        pole, g = table[slot["gamma", (0, 0, 0, 1), 1]]
        assert not pole and abs(g) > 1e8
        assert 0 < abs(table[slot["sin", (0, 0, 0, 1), 1]]) < 2e-8
        v = cf.limit_value(dg.Permutation(images), sp)
        assert (v.real.hex(), v.imag.hex()) == (re, im)
    # at an integer k every sine of m k is exactly 0, however large k is, so
    # the guard raises before any Gamma entry at a pole is read
    with pytest.raises(ZeroDivisionError) as err:
        cf.limit_value(W_ID, sp1(Q(3, 10), Q(-10**8)))
    assert str(err.value) == "denominator sin(1 pi k) vanishes at k = -100000000"


def test_pairings_are_coordinate_differences():
    # vector-form oracle: (w.lambda, coroot alpha), (rho, coroot alpha), (lambda, delta)
    rng = random.Random(5)
    for n in range(1, 5):
        sp = random_generic(rng, n, Q(1, 5), 29)
        table = cf._factor_table(sp)
        roots = rs.positive_roots(n)
        den = exact_view(sp)[0]
        for length in range(n * (n + 1) // 2 + 1):
            # the phase e^{-2 pi i (lambda, delta)} e^{-pi i (k-1) l(w)} i^N
            p = -2 * rs.inner(sp.lam, rs.delta(n)) - (sp.k - 1) * length + Q(n * (n + 1), 4)
            assert Q(table.phase_num(length), 2 * den) == p
        assert table.phase_num(None) == 0
        for w in dg.all_permutations(n + 1):
            wlam = rs.weyl_apply(w, sp.lam)
            got = cf._roots(w.images, n)
            pairings = [rs.inner(wlam, rs.coroot(alpha)) for alpha in roots]
            assert [Q(table.num((i, j, 0, 0)), den) for i, j, _, _ in got] == pairings
            assert [sp.k * d for _, _, d, _ in got] == [rs.inner(sp.rho, rs.coroot(alpha)) for alpha in roots]
            for (i, j, d, _), p in zip(got, pairings, strict=True):
                for c, ck in ((0, 1), (1, 0), (1, -1)):
                    assert Q(table.num((i, j, c, ck)), den) == p + c + ck * sp.k
                    assert Q(table.num((j, i, c, ck)), den) == -p + c + ck * sp.k
                assert Q(table.num((0, 0, 1, -d)), den) == 1 - sp.k * d


# -- the factor table: bit-identical values, same failures ----------------------

# float.hex of (re, im) of a_w, F_w_at_1 and limit_value, recorded with the
# real Gamma and sine rules; any change to the order of the multiplications
# shows.
GOLDEN = [
    ((1, 2), ("3/10", "-3/10"), "2/7", (
        ("-0x1.409e33e8e77a5p+2", "0x1.a0b34c815ba5bp+0"),
        ("0x1.9decaf65c43ffp+0", "0x0.0p+0"),
        ("-0x1.0333d3a118eafp+3", "0x1.50e1429bb7cb0p+1"))),
    ((2, 1), ("3/10", "-3/10"), "2/7", (
        ("-0x1.73546d5d1ce32p+1", "0x1.eeb3cd1e29f47p+2"),
        ("0x1.bcbe5f1857015p-2", "0x0.0p+0"),
        ("-0x1.428d482325f49p+0", "0x1.adb7dc7b27a14p+1"))),
    ((1, 2, 3), ("3/10", "-1/7", "-11/70"), "3/8", (
        ("-0x1.289d460cf370ep+1", "0x1.0cb0826b894c8p+3"),
        ("-0x1.2607f9c7a610ap+3", "0x0.0p+0"),
        ("0x1.54addc2815bb7p+4", "-0x1.349b14c44afa6p+6"))),
    ((2, 1, 3), ("3/10", "-1/7", "-11/70"), "3/8", (
        ("0x1.99e3d62fe72dbp+5", "0x1.3f6b4691f9740p+5"),
        ("-0x1.93a95b278cef0p+1", "0x0.0p+0"),
        ("-0x1.432869c48f863p+7", "-0x1.f7a92fa5dd55cp+6"))),
    ((3, 2, 1), ("3/10", "-1/7", "-11/70"), "3/8", (
        ("0x1.a29e24e8045acp+5", "0x1.a5d2a87693e06p+8"),
        ("-0x1.f90164c20f8f8p-1", "0x0.0p+0"),
        ("-0x1.9ce61f177899dp+5", "-0x1.a00f6d154fa10p+8"))),
    ((2, 1, 4, 3), ("1/3", "-1/5", "2/11", "-52/165"), "5/12", (
        ("0x1.b944272b080c3p+12", "-0x1.48d590d879afbp+14"),
        ("0x1.4d56327ae5d78p-4", "0x0.0p+0"),
        ("0x1.1f491d6da41dfp+9", "-0x1.ac2c85ffd2502p+10"))),
    ((3, 4, 1, 2), ("1/3", "-1/5", "2/11", "-52/165"), "5/12", (
        ("0x1.cf089f9af1b58p+7", "-0x1.9900d100e63cfp+7"),
        ("-0x1.2395069b60961p+0", "0x0.0p+0"),
        ("-0x1.07b22cb2a14d0p+8", "0x1.d1da059bedf2fp+7"))),
    ((4, 3, 2, 1), ("1/3", "-1/5", "2/11", "-52/165"), "5/12", (
        ("-0x1.f079a65942757p+12", "0x1.926549851ab07p+10"),
        ("-0x1.4d569acbc5d1dp-6", "0x0.0p+0"),
        ("0x1.433b193a2dce3p+7", "-0x1.05faf0fd08f5ep+5"))),
]


@pytest.mark.parametrize("images, lam, k, expected", GOLDEN)
def test_closed_forms_bit_identical(images, lam, k, expected):
    w, sp = dg.Permutation(images), SpectralParam(rs.vec(lam), Q(k))
    for f, (re, im) in zip((cf.a_w, cf.F_w_at_1, cf.limit_value), expected, strict=True):
        v = f(w, sp)
        assert (v.real.hex(), v.imag.hex()) == (re, im), f.__name__


def test_a_w_table_matches_symbolic_product_bitwise():
    # the table multiplies the values of exactly the factors a_w_product lists
    rng = random.Random(11)
    for n in (1, 2, 3):
        for _ in range(5):
            sp = random_generic(rng, n, Q(1, 5), 29)
            for w in dg.all_permutations(n + 1):
                assert cf.a_w(w, sp) == cf.a_w_product(w, sp).eval()


SP_K_HALF = ((Q(3, 10), Q(-3, 10)), Q(1, 2))


def _outcome(f, w, sp):
    try:
        return f(w, sp)
    except (cf.PoleError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def test_table_failures_stay_in_their_function():
    # at k = 1/2 only F_w(1) and the limit fail, twice and in either order
    pole = (cf.PoleError, "Gamma argument 0 is a nonpositive integer (alpha = ('1', '-1'))")
    zero = (ZeroDivisionError, "denominator sin(2 pi k) vanishes at k = 1/2")
    funcs = (cf.a_w, cf.F_w_at_1, cf.limit_value)
    for order in (funcs, funcs[::-1]):
        cf._factor_table.cache_clear()
        sp = SpectralParam(*SP_K_HALF)
        for f in order * 2:
            got = _outcome(f, W_S, sp)
            if f is cf.a_w:
                assert cmath.isfinite(got)
            else:
                assert got == (pole if f is cf.F_w_at_1 else zero)


def test_table_interleaving_and_equal_params():
    rng = random.Random(13)
    draws = [random_generic(rng, 2, Q(1, 5), 29) for _ in range(2)]
    funcs = (cf.a_w, cf.F_w_at_1, cf.limit_value)
    ws = list(dg.all_permutations(3))
    isolated = {}
    for d, sp in enumerate(draws):
        for f in funcs:
            for w in ws:
                cf._factor_table.cache_clear()
                isolated[d, f, w] = _outcome(f, w, sp)
    cf._factor_table.cache_clear()
    for w in ws:
        for f in funcs:
            for d, sp in enumerate(draws):
                # a fresh SpectralParam equal to the draw shares its table
                twin = SpectralParam(tuple(sp.lam), sp.k)
                assert _outcome(f, w, sp) == isolated[d, f, w]
                assert _outcome(f, w, twin) == isolated[d, f, w]


def test_table_memo_is_bounded():
    rng = random.Random(17)
    for _ in range(1000):
        cf.a_w(W_S, random_generic(rng, 1, Q(1, 5), 29))
    info = cf._factor_table.cache_info()
    assert info.maxsize is not None and info.currsize == info.maxsize


# The first draw of `random_generic` at ranks 1-4, seed n, as (lambda, k)
# for kmin, kden = 1/5, 29 and then 1/4, 12, and the rng's next `random()`:
# recorded before each lambda_i was built as one Fraction (53 a + 41)/2173,
# so they show that the draws and the rng calls stayed the same.
FIRST_DRAWS = {
    1: ((("-1125/2173", "1125/2173"), "124/145"), (("1313/2173", "-1313/2173"), "1/2"), 0.2550690257394217),
    2: ((("1366/2173", "1631/2173", "-2997/2173"), "39/145"),
        (("1260/2173", "-1019/2173", "-241/2173"), "9/4"), 0.8089620446393668),
    3: ((("-754/2173", "412/2173", "253/2173", "89/2173"), "54/145"),
        (("-330/2173", "1525/2173", "465/2173", "-1660/2173"), "19/12"), 0.625720304108054),
    4: ((("-754/2173", "-542/2173", "-1231/2173", "889/2173", "1638/2173"), "94/145"),
        (("1/53", "-1072/2173", "-1284/2173", "-1337/2173", "3652/2173"), "1/3"), 0.40159101448507484),
}


@pytest.mark.parametrize("n", sorted(FIRST_DRAWS))
def test_random_generic_first_draws(n):
    rng = random.Random(n)
    *draws, after = FIRST_DRAWS[n]
    for (kmin, kden), (lam, k) in zip(((Q(1, 5), 29), (Q(1, 4), 12)), draws, strict=True):
        sp = random_generic(rng, n, kmin, kden)
        assert sp == SpectralParam(tuple(map(Q, lam)), Q(k))
        assert all(type(x) is Q for x in sp.lam) and type(sp.k) is Q
    assert rng.random() == after


# sha256 of the outcomes of a_w, F_w_at_1 and limit_value for every w at
# rank n, one line each in (w, function) order: "re im" as float.hex, or
# "PoleError: ..." / "ZeroDivisionError: ...".  The parameter is the first
# draw of `random_generic(random.Random(n), n, 1/5, 29)`, then the same
# lambda at k = 1/2, where a(w) is finite while F_w(1) and the limit fail.
# Recorded from a factor table keyed by (kind, (i, j, c, ck)) that took each
# Gamma to its power per product, so the pins show that the slots, each
# holding Gamma(x)^power, kept every bit.
CLOSED_FORM_DIGESTS = {
    1: ("61f271e5ee78533eb33c8a097ed7c66a10251ade2e06ca963c2c2c7449814ec6",
        "30bc738e5374f9c4db9994341a777f943f261405819620f6140a7995e91c04c6"),
    2: ("811716c30ce82c358dc21664e3d129285badb4c62d4f1e901472db994abc68f6",
        "0f81a0ab7bd098a494f75a51cac7a0ef1ac47289f6bc9837d1436ca21c266545"),
    3: ("4cf521e8b85c0212d4903a5325fe781cb75e8f0281022eb53dae35cc123f46e0",
        "231732685b4cd5917a8001fc4963afc04eb315e501c79ed02647ac6c17fef18e"),
    4: ("8c23448cc4595e9daa41c2edb2cf10ced49888a50ebfe19b9aa191f57aa3d148",
        "4b7c8bb990ba4eb53bedecb468baa6d77c203a93190d3ceace0df303ece0a7f6"),
}


def _line(outcome):
    if isinstance(outcome[0], type):
        return f"{outcome[0].__name__}: {outcome[1]}"
    return " ".join(outcome)


@pytest.mark.parametrize("n", sorted(CLOSED_FORM_DIGESTS))
def test_closed_forms_every_w_bits_and_symbolic_routes(n):
    generic = random_generic(random.Random(n), n, Q(1, 5), 29)
    funcs = {"a_w": cf.a_w, "F": cf.F_w_at_1, "limit": cf.limit_value}
    ws = list(dg.all_permutations(n + 1))
    for sp, digest in zip((generic, SpectralParam(generic.lam, Q(1, 2))), CLOSED_FORM_DIGESTS[n], strict=True):
        cf._factor_table.cache_clear()
        shared = {(w, kind): _bits(f, w, sp) for w in ws for kind, f in funcs.items()}
        lines = "\n".join(_line(shared[w, kind]) for w in ws for kind in funcs)
        assert hashlib.sha256(lines.encode()).hexdigest() == digest
        # the same outcomes in the other order, and from the symbolic products
        cf._factor_table.cache_clear()
        for w in ws[::-1]:
            for kind, f in list(funcs.items())[::-1]:
                assert _bits(f, w, sp) == shared[w, kind]
        for w in ws:
            assert _bits(lambda w, sp: cf.a_w_product(w, sp).eval(), w, sp) == shared[w, "a_w"]
            for kind in funcs:
                assert _bits(functools.partial(_fraction_route, kind), w, sp) == shared[w, kind]
        if sp.k == Q(1, 2):
            assert all(isinstance(shared[w, "a_w"][0], str) for w in ws)
            assert all(shared[w, kind][0] in (cf.PoleError, ZeroDivisionError) for w in ws for kind in ("F", "limit"))


def test_slot_registry_and_slot_caches_are_bounded():
    # the registry of a rank lists every factor once, in a fixed order, so a
    # rebuilt registry gives every slot the same factor
    for n in range(1, 5):
        entries = cf._slots(n).entries
        assert len(set(entries)) == len(entries)
        assert entries[cf._LIMIT_SLOT] == ("limit", None, 1)
        cf._slots.cache_clear()
        assert cf._slots(n).entries == entries
    # the limit's slot reads sin(m pi k) and Gamma(m k), m = 1..n+1, in m order
    for n in range(1, 5):
        rank = cf._slots(n)
        for kind, slots in (("sin", rank.limit_sins), ("gamma", rank.limit_gammas)):
            assert [rank.entries[slot] for slot in slots] == [(kind, (0, 0, 0, m), 1) for m in range(1, n + 2)]
    # every slot is read by some closed form at some w
    for n in (1, 2, 3):
        rank = cf._slots(n)
        used = {cf._LIMIT_SLOT, *rank.limit_sins, *rank.limit_gammas}
        for w in dg.all_permutations(n + 1):
            for prod in cf._forms(w.images, n):
                used.update(prod.gammas, prod.sins, [prod.phase])
        assert used == set(range(len(rank.entries)))
    # the per-w record is built once per w for all three closed forms
    sp = random_generic(random.Random(5), 3, Q(1, 5), 29)
    ws = list(dg.all_permutations(4))
    cf._forms.cache_clear()
    for w in ws:
        for f in (cf.a_w, cf.F_w_at_1, cf.limit_value):
            f(w, sp)
    assert cf._forms.cache_info()[:2] == (2 * len(ws), len(ws))  # (hits, misses)
    # the rank records and the per-w records stay within their caches
    for n in range(1, 30):
        cf._slots(n)
    sp = random_generic(random.Random(5), 5, Q(1, 5), 29)
    for w in dg.all_permutations(6):
        cf.a_w(w, sp)
    for cache in (cf._slots, cf._forms):
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
    assert cf._slots.cache_info().currsize == cf._slots.cache_info().maxsize
    assert cf._forms.cache_info().currsize == cf._forms.cache_info().maxsize


# -- exact spectral data as integers over one denominator -----------------------


def _fraction_route(kind, w, sp):
    """a_w, F_w_at_1 or limit_value with every argument an exact Fraction in
    the vector form, evaluated by `GammaProduct.eval`: the factors of the
    table in its order, so the same bits, PoleErrors and zeros."""
    n, k = sp.rank, sp.k
    N = n * (n + 1) // 2
    wlam = rs.weyl_apply(w, sp.lam)
    prod = cf.GammaProduct(const=1.0 if kind == "F" else 2.0**N)
    for (a, b), alpha in zip(rs.positive_root_pairs(n), rs.positive_roots(n), strict=True):
        tag = f"alpha = {tuple(map(str, alpha))}"
        p = rs.inner(wlam, rs.coroot(alpha))
        if kind == "a_w":
            prod.times_gamma(-p, 1, tag).times_gamma(-p + k, -1, tag).times_sin(-p, tag)
        elif kind == "F":
            prod.times_gamma(p + 1, 1, tag).times_gamma(p + 1 - k, -1, tag)
            prod.times_gamma(1 - k * (b - a), -1, tag).times_gamma(1 - k * (b - a) - k, 1, tag)
        else:
            prod.times_sin(-p + k, tag)
    if kind == "a_w":
        prod.times_gamma(k, N, "coupling")
    if kind != "F":
        length = dg.Diagram.from_permutation(w).length()
        prod.times_exp_pi_i(-2 * rs.inner(sp.lam, rs.delta(n)) - (k - 1) * length + Q(N, 2))
    if kind != "limit":
        return prod.eval()
    sines = [cf._sin_factor((m * k).numerator, (m * k).denominator) for m in range(1, n + 2)]
    if 0 in sines:
        raise ZeroDivisionError(f"denominator sin({sines.index(0) + 1} pi k) vanishes at k = {k}")
    gammas = [cf._gamma_factor((m * k).numerator, (m * k).denominator)[1] for m in range(1, n + 2)]
    val = prod.eval() * (sines[0] ** (n + 1) / math.prod(sines))
    return val * gammas[0] ** ((n + 1) * (n + 2) // 2) / math.prod(gammas)


def _bits(f, w, sp):
    """The bits of f(w, sp), or the type and text of its ArithmeticError
    (PoleError, ZeroDivisionError, or OverflowError of a huge Gamma)."""
    try:
        v = f(w, sp)
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return v.real.hex(), v.imag.hex()


@st.composite
def exact_params(draw):
    # denominators 1 and 2 give integer pairings, poles and zeros; k may be
    # 0, negative or an integer.  |k| <= 12 and |lambda_i| <= 36 keep every
    # Gamma argument x, and 1 - x for a negative one, below 171.6, where
    # `math.gamma` overflows a float.
    n = draw(st.integers(1, 3))
    lam = [Q(draw(st.integers(-12, 12)), draw(st.sampled_from([1, 2, 3, 7, 10, 37]))) for _ in range(n)]
    kden = draw(st.sampled_from([1, 2, 3, 4, 8, 40]))
    k = Q(draw(st.integers(-6 * kden, 12 * kden)), kden)
    return SpectralParam(rs.vec(lam + [-sum(lam)]), k)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(exact_params())
@example(SpectralParam(rs.vec([1, -1]), Q(3, 2)))
@example(SpectralParam(rs.vec([Q(1, 2), 0, Q(-1, 2)]), Q(3, 2)))
@example(SpectralParam(*SP_K_HALF))
def test_integer_views_match_fractions(sp):
    n = sp.rank
    den, lam_num, k_num = exact_view(sp)
    assert den % 2 == 0 and k_num % 2 == 0
    assert [Q(v, den) for v in lam_num] == list(sp.lam) and Q(k_num, den) == sp.k
    assert float_view(sp) == (tuple(float(x) for x in sp.lam), float(sp.k))
    table = cf._FactorTable(sp)
    for i in range(n + 1):
        for j in range(n + 1):
            for c in (0, 1):
                for ck in range(-n - 2, n + 3):
                    spec = (i, j, c, ck)
                    x = sp.lam[i] - sp.lam[j] + c + ck * sp.k
                    num = table.num(spec)
                    assert Q(num, den) == x
                    assert (num / den).hex() == float(x).hex()
                    assert complex(num / den) == complex(x)
                    assert cf._factor("gamma", num, den, 1)[0] == (x <= 0 and x.denominator == 1)
    # every slot holds its rule's value at its exact argument
    for slot, (kind, spec, power) in enumerate(cf._slots(n).entries):
        if kind in ("gamma", "sin"):
            assert table[slot] == cf._factor(kind, table.num(spec), den, power)
    N = n * (n + 1) // 2
    for length in range(N + 1):
        p = -2 * rs.inner(sp.lam, rs.delta(n)) - (sp.k - 1) * length + Q(N, 2)
        assert (table.phase_num(length) / (2 * den)).hex() == float(p).hex()
    funcs = {"a_w": cf.a_w, "F": cf.F_w_at_1, "limit": cf.limit_value}
    for w in dg.all_permutations(n + 1):
        exact = [float(m) for m in rs.add(rs.weyl_apply(w, sp.lam), sp.rho)]
        assert [v.hex() for v in cy._leading_exponent(w, sp)] == [v.hex() for v in exact]
        for kind, f in funcs.items():
            assert _bits(f, w, sp) == _bits(functools.partial(_fraction_route, kind), w, sp)


# -- an oracle outside the shared loop: mpmath at 40 digits ----------------------


def _mpmath_closed_forms(w, sp):
    """a(w), F_w(1) and the limit from the vector-form formulas in the
    docstrings of a_w_product, F_w_at_1 and limit_value, in mpmath."""
    n, k = sp.rank, _mp(sp.k)
    N = n * (n + 1) // 2
    wlam = rs.weyl_apply(w, sp.lam)
    length = dg.Diagram.from_permutation(w).length()
    phase = mpmath.expjpi(_mp(-2 * rs.inner(sp.lam, rs.delta(n)) - (sp.k - 1) * length)) * (2j) ** N
    a, F, limit = phase * mpmath.gamma(k) ** N, mpmath.mpf(1), phase
    for alpha in rs.positive_roots(n):
        x = _mp(-rs.inner(wlam, rs.coroot(alpha)))  # (-w.lambda, coroot)
        r = _mp(rs.inner(sp.rho, rs.coroot(alpha)))  # (rho, coroot)
        a *= mpmath.gamma(x) * mpmath.sinpi(x) / mpmath.gamma(x + k)
        F *= mpmath.gamma(1 - x) / mpmath.gamma(1 - x - k) / (mpmath.gamma(1 - r) / mpmath.gamma(1 - r - k))
        limit *= mpmath.sinpi(x + k)
    ms = range(1, n + 2)
    limit *= mpmath.sinpi(k) ** (n + 1) / mpmath.fprod(mpmath.sinpi(m * k) for m in ms)
    limit *= mpmath.gamma(k) ** ((n + 1) * (n + 2) // 2) / mpmath.fprod(mpmath.gamma(m * k) for m in ms)
    return a, F, limit


# The bound comes from a measured table, worst relative deviation from
# mpmath over all w and the three closed forms.  On these draws: rank 1
# 9.1e-16, rank 2 2.4e-15, rank 3 4.0e-15.  368 draws per rank (92 each from
# seeds 19, 7, 23 and 29): rank 1 1.5e-15, rank 2 3.8e-15, rank 3 6.9e-15.
# The parameters next to poles and zeros below read at most 2.4e-15.
MPMATH_DRAWS = 8  # generic draws per rank
MPMATH_TOL = 2e-14


def _assert_closed_forms_match_mpmath(sp):
    for w in dg.all_permutations(sp.rank + 1):
        refs = _mpmath_closed_forms(w, sp)
        for f, ref in zip((cf.a_w, cf.F_w_at_1, cf.limit_value), refs, strict=True):
            dev = abs(f(w, sp) - mpmath.mpc(ref)) / abs(ref)
            assert dev < MPMATH_TOL, (f.__name__, w.images, sp, float(dev))


def test_closed_forms_match_mpmath():
    rng = random.Random(19)
    with mpmath.workdps(40):
        for n in (1, 2, 3):
            for _ in range(MPMATH_DRAWS):
                _assert_closed_forms_match_mpmath(random_generic(rng, n, Q(1, 5), 29))


def _near(n, m, k):
    """lambda with lambda_1 - lambda_2 = m, and lambda_3 = -3/7 at rank 2."""
    lam = [m / 2, -m / 2] if n == 1 else [m / 2 + Q(3, 14), -m / 2 + Q(3, 14), Q(-3, 7)]
    return SpectralParam(rs.vec(lam), k)


def _generic_lam(n):
    return rs.vec([Q(3, 10), Q(-1, 7), Q(-11, 70)] if n == 2 else [Q(3, 10), Q(-3, 10)])


# Each parameter lies d from a pole of some Gamma factor or from a zero of
# some sine of the limit, with d exact.  At k = 7/5 and lambda_1 - lambda_2
# = m: m = k - 3 + d puts 1/Gamma(m + 1 - k) of F_id(1) at -2 + d ("recip");
# m = 2 + d puts Gamma(-m) of a(id) and Gamma(1 - m) of F_s(1) at -2 - d and
# -1 - d ("gamma").  k = 1/2 + d or 1/3 + d puts sin(2 pi k) or sin(3 pi k)
# of the limit d from 0 ("sin").  Worst relative deviation from mpmath over
# all w and the three closed forms, before the Gamma and sine rules took
# their arguments exactly, and after:
#   recip, ranks 1 and 2:  d = +-1e-4 8.5e-13 to 2.8e-12, +-1e-7 2.3e-9 to
#                          2.5e-9, and F_id(1) exactly 0 (deviation 1) at
#                          +-1e-9 and +-1e-12;
#   gamma, ranks 1 and 2:  +-1e-4 6.1e-13 to 8.6e-13, +-1e-7 1.9e-9 to
#                          2.5e-9, +-1e-9 4.3e-8 to 1.1e-7, +-1e-12 4.4e-5
#                          to 1.1e-4;
#   sin:                   ZeroDivisionError from the limit at every d here,
#                          and F(1) exactly 0 at rank 2, k = 1/2 + d;
#   after, every case:     at most 2.4e-15.
NEAR_D = [s * Q(1, 10**p) for p in (4, 7, 9, 12) for s in (1, -1)]
NEAR_POLES = (
    [(f"{kind}-r{n}-d{float(d):+.0e}", _near(n, base + d, Q(7, 5)))
     for kind, base in (("recip", Q(7, 5) - 3), ("gamma", Q(2))) for n in (1, 2) for d in NEAR_D]
    + [(f"sin-r{n}-k{k0}{float(d):+.0e}", SpectralParam(_generic_lam(n), k0 + d))
       for n, k0 in ((1, Q(1, 2)), (2, Q(1, 2)), (2, Q(1, 3))) for d in NEAR_D[4:]]
)


@pytest.mark.parametrize("sp", [sp for _, sp in NEAR_POLES], ids=[name for name, _ in NEAR_POLES])
def test_closed_forms_next_to_poles_match_mpmath(sp):
    with mpmath.workdps(60):
        _assert_closed_forms_match_mpmath(sp)


# Next to an integer k, every factor of F_w(1) is evaluated from its exact
# distance to the pole: on these parameters the three closed forms read at
# most 2.6e-15 from mpmath.
NEXT_TO_INTEGER_K = {1: (-Q(1, 10**9), Q(1, 10**9)), 2: (Q(1, 10**12),), 3: (-Q(1, 10**9),)}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_F_w_raises_at_integer_k(n, k):
    # at a positive integer k each rho factor 1/Gamma(1 - k d) of F_w(1) is
    # a zero of 1/Gamma and Gamma(1 - k d - k) is a pole: F_w(1) has no value
    # there and raises, on both routes; it returned 0 for 0 times the pole
    lam = [Q(3, 10), Q(1, 7), Q(-2, 9)][:n]
    sp = SpectralParam(rs.vec(lam + [-sum(lam)]), Q(k))
    for w in dg.all_permutations(n + 1):
        with pytest.raises(cf.PoleError) as err:
            cf.F_w_at_1(w, sp)
        with pytest.raises(cf.PoleError) as symbolic:
            _fraction_route("F", w, sp)
        assert str(err.value) == str(symbolic.value)
    with mpmath.workdps(60):
        for d in NEXT_TO_INTEGER_K[k]:
            _assert_closed_forms_match_mpmath(SpectralParam(sp.lam, k + d))


def test_views_are_bounded_and_leave_the_parameter():
    # the views live in a bounded cache, not on the parameter, so a pool of
    # parameters keeps none of them alive
    sp, twin = (SpectralParam(rs.vec([Q(1, 3), Q(-1, 3)]), Q(3, 4)) for _ in range(2))
    assert exact_view(sp) == (24, (8, -8), 18)  # D = lcm(3, 2 * 4)
    assert float_view(sp) == ((1 / 3, -1 / 3), 0.75)
    assert vars(sp) == {"lam": (Q(1, 3), Q(-1, 3)), "k": Q(3, 4)}
    assert sp == twin and hash(sp) == hash(twin)
    for view in (exact_view, float_view):
        assert view.cache_info().maxsize is not None
