import ast
import cmath
import functools
import itertools
import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction as Q

import numpy as np
import pytest

from hccycles import closedforms as cf
from hccycles import cycles as cy
from hccycles import diagrams as dg
from hccycles import rootsystem as rs
from hccycles import series as se
from hccycles.cli import main
from hccycles.polynomial import Poly
from hccycles.series import SpectralParam, float_view, freudenthal_table_for_w, gamma_L, phi_eval

W_ID = dg.Permutation((1, 2))
W_S = dg.Permutation((2, 1))


def sp1(s=Q(3, 10), k=Q(3, 2)):
    return SpectralParam(rs.vec([s, -s]), k)


def sp2(k=Q(3, 2)):
    lam = [Q(3, 10), Q(1, 7)]
    return SpectralParam(rs.vec(lam + [-sum(lam)]), k)


def test_bump():
    b = cy.BumpFn(0.1)
    assert b(0.0) == 0.0 and b(1.0) == 0.0
    assert abs(b(0.5) - 0.1) < 1e-16
    assert abs(b(0.25) - 0.05) < 1e-16
    xs = np.linspace(1e-6, 1 - 1e-6, 101)
    assert np.all(b(xs) > 0) and np.all(b(xs) <= 0.1)
    # C1: derivative matches a central difference
    for x in (0.2, 0.5, 0.83):
        fd = (b(x + 1e-6) - b(x - 1e-6)) / 2e-6
        assert abs(b.deriv(x) - fd) < 1e-8
    for fn in (b, b.deriv):
        for x in (1.5, -1e-9, [0.5, 1.0 + 1e-12], math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError):
                fn(x)
    with pytest.raises(ValueError):
        cy.BumpFn(0.0)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        cy.QuadratureSpec(points_per_axis=4)
    with pytest.raises(ValueError):
        cy.QuadratureSpec(epsilon=0.3)
    with pytest.raises(TypeError):  # tanh-sinh is the one rule
        cy.QuadratureSpec(scheme="tanh-sinh")


def test_quadrature_spec_points_must_be_int():
    # refused when the spec is built, not inside the rule's np.linspace
    for points in (40.0, "41", None, 41.5):
        with pytest.raises(ValueError, match=f"points per axis must be an int, got {points!r}"):
            cy.QuadratureSpec(points_per_axis=points)


def test_bump_height_one_range():
    # a cycle accepts exactly the bump heights a quadrature spec accepts
    for eps in (0.0, 0.25, 0.3, 0.49):
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1/4\)"):
            cy.cycle_for_w(W_ID, [1e-2, 1.0], eps)
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1/4\)"):
            cy.QuadratureSpec(epsilon=eps)
    c = cy.cycle_for_w(W_ID, [1e-2, 1.0], 0.2)
    assert cy.integrate(c, sp1(), cy.QuadratureSpec(points_per_axis=33, epsilon=0.2)) != 0


def test_rules_integrate_smooth():
    x, _, w = cy.tanh_sinh_rule_with_complement(80)
    assert abs(np.sum(w * x**3) - 0.25) < 1e-12
    # tanh-sinh handles an endpoint singularity (cutoff widened so the
    # truncated tail exp(-pi sinh(c)/2) is below the tolerance)
    x, _, w = cy.tanh_sinh_rule_with_complement(140, cutoff=4.3)
    assert abs(np.sum(w / np.sqrt(x)) - 2.0) < 1e-12


# The first tanh-sinh node at the default cutoff, keyed by numpy's X86_V4
# dispatch (`_x86_v4`) as the golden bits are: the rule is built with numpy's
# sinh, exp and cosh, whose AVX-512 kernels round it otherwise than the
# baseline kernels of the same numpy 2.4.6 on the same host.
FIRST_NODE = {True: 1.9588692246858778e-17, False: 1.9588692246858917e-17}


def _first_node():
    key = _x86_v4()
    if key not in FIRST_NODE:
        pytest.fail(f"no first node recorded for X86_V4 dispatch {key!r}")
    return FIRST_NODE[key]


def test_rule_complements():
    # every caller receives 1 - x free of cancellation: positive everywhere,
    # also at the last node, where x rounds to 1.0 at the default cutoff and
    # the complement equals the first node
    for npoints in (33, 121, 241):
        x, xm, _ = cy.tanh_sinh_rule_with_complement(npoints)
        assert np.all(xm > 0)
        assert np.all(np.abs((x + xm) - 1.0) <= 2.3e-16)
        assert x[-1] == 1.0 and 1.0 - x[-1] == 0.0
        assert xm[-1] == x[0] == _first_node()


def test_cycle_validation():
    with pytest.raises(ValueError):
        cy.cycle_for_w(W_ID, [1.0, 0.5])
    with pytest.raises(ValueError):
        cy.cycle_for_w(W_ID, [float("nan"), 1.0])
    with pytest.raises(ValueError):
        phi_eval(freudenthal_table_for_w(W_ID, sp1(), 2), [float("nan"), 1.0])
    with pytest.raises(ValueError):
        cy.cycle_for_w(W_ID, [0.95, 1.0])  # too close for loop separation
    c = cy.cycle_for_w(W_ID, [1e-2, 1.0])
    assert c.naxes == 1 and c.rank == 1


def test_cycle_point_collapse_and_half_turn():
    for w in dg.all_permutations(3):
        c = cy.cycle_for_w(w, [1e-4, 1e-2, 1.0], 0.1)
        t0 = cy.cycle_point(c, [0.0] * c.naxes)
        for p in c.points:
            assert abs(t0[p] - t0[c.diagram.target(p)]) < 1e-14 * abs(t0[p])
    c = cy.cycle_for_w(W_ID, [1e-2, 1.0], 0.1)
    th = cy.cycle_point(c, [0.5])
    assert abs(th[(1, 1)] - (-(1 - 0.1) * th[(2, 2)])) < 1e-14


def test_anchoring_rule_follows_marks():
    # marks (1,1): t_11 anchored at z_2; marks (1,2): anchored at z_1
    c_id = cy.cycle_for_w(W_ID, [1e-2, 1.0], 0.1)
    assert c_id.collapse[(1, 1)] == 2
    c_s = cy.cycle_for_w(W_S, [1e-2, 1.0], 0.1)
    assert c_s.collapse[(1, 1)] == 1


def test_modulus_inequality_bulk():
    # over 1e5 samples per rank across all diagrams
    rng = np.random.default_rng(0)
    for n, z, m in ((1, [1e-2, 1.0], 60000), (2, [1e-4, 1e-2, 1.0], 20000)):
        for w in dg.all_permutations(n + 1):
            c = cy.cycle_for_w(w, z, 0.1)
            tau = rng.random((c.naxes, m))
            t = c.t_values(tau)
            for p in c.points:
                assert np.all(np.abs(t[p]) <= np.abs(t[c.diagram.target(p)]) + 1e-15)


def test_t_values_match_node_record_steps_bitwise():
    # t_values builds only each axis's step (`_step`): every t value has the
    # bits it has from the step of the full node record, for a batch of tau,
    # for one tau vector (as `cycle_point` passes it) and at the endpoints
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        z = [10.0 ** (-2 * i) for i in range(n, -1, -1)]
        for w in dg.all_permutations(n + 1):
            c = cy.cycle_for_w(w, z, 0.1)
            for tau in (rng.random((c.naxes, 40)), rng.random(c.naxes), np.zeros(c.naxes), np.ones(c.naxes),
                        [0.25] * c.naxes):
                want = cy._t_values(c, [cy._Nodes.of(a, c.bump).step for a in np.asarray(tau, dtype=float)])
                got = c.t_values(tau)
                assert list(got) == list(want)
                for p in want:
                    assert np.asarray(got[p]).tobytes() == np.asarray(want[p]).tobytes(), (w.images, p)


def test_factor_census():
    sp = sp2()
    for w in dg.all_permutations(3):
        c = cy.cycle_for_w(w, [1e-4, 1e-2, 1.0], 0.1)
        _, factors = cy.omega_factor_list(c, sp)
        kinds = {}
        for f in factors:
            kinds[f.kind] = kinds.get(f.kind, 0) + 1
        assert kinds["mono"] == 3 and kinds["vanish"] == 3
        assert kinds["diff"] == (1 + 4) + 1  # cross-row minus vanishing, plus the row-2 pair


def _factors_row_by_row(c, sp):
    """The factor list in the order it had before the slots (`_geometry`)
    were ordered by lowest axis: rows bottom-up, points left to right, each
    row's within-row differences after its points."""
    n = c.rank
    lam = [float(x) for x in sp.lam]
    k = float(sp.k)
    out = []
    for j in range(1, n + 1):
        for i in range(1, j + 1):
            p = (i, j)
            out.append(cy.Factor("mono", lam[n - j + 1] - lam[n - j] - k, (p,)))
            x = c.diagram.target(p)[0]
            for i1 in range(1, j + 2):
                if i1 == x:
                    out.append(cy.Factor("vanish", k - 1.0, (p,)))
                else:
                    out.append(cy.Factor("diff", k - 1.0, (p, (i1, j + 1)) if i1 < x else ((i1, j + 1), p)))
        for i2 in range(1, j + 1):
            for i1 in range(i2 + 1, j + 1):
                out.append(cy.Factor("diff", 2.0 - 2.0 * k, ((i1, j), (i2, j))))
    return out


def test_factor_order_lowest_axis_first():
    # for any number of fixed leading axes, the factors that read none of them
    # come first; the factors themselves, and the rank-1 list, are unchanged
    lam = [Q(3, 10), Q(1, 7), Q(-2, 9)]
    for n in (1, 2, 3):
        sp = SpectralParam(rs.vec(lam[:n] + [-sum(lam[:n])]), Q(3, 2))
        z = [10.0 ** (-2 * i) for i in range(n, -1, -1)]
        for w in dg.all_permutations(n + 1):
            c = cy.cycle_for_w(w, z, 0.1)
            factors = cy.omega_factor_list(c, sp)[1]
            low = []
            for f in factors:
                chain = {c.diagram.target(f.pts[0])} if f.kind == "vanish" else set()
                for q in f.pts:
                    while q[1] <= n:
                        chain.add(q)
                        q = c.diagram.target(q)
                low.append(min(c.axis[q] for q in chain if q[1] <= n))
                assert cy._lowest_axis(c, f) == low[-1]
            assert low == sorted(low, reverse=True)
            reference = _factors_row_by_row(c, sp)
            assert Counter(factors) == Counter(reference)
            if n == 1:
                assert factors == reference


def test_one_zero_exponent_rule():
    # the plan alone drops a factor of exponent 0: the factor list is its
    # `factors`, and `single` and `multi` hold exactly the list's
    # differences, the same objects, in list order
    lam = [Q(3, 10), Q(1, 7), Q(-2, 9)]
    draws = [SpectralParam(rs.vec(lam[:n] + [-sum(lam[:n])]), k) for n in (1, 2, 3) for k in (Q(1), Q(3, 2))]
    # e_1 = lambda_2 - lambda_1 - k = 0: the monomial is dropped
    draws.append(SpectralParam(rs.vec([Q(-3, 4), Q(3, 4)]), Q(3, 2)))
    for sp in draws:
        n = sp.rank
        z = [10.0 ** (-2 * i) for i in range(n, -1, -1)]
        for w in dg.all_permutations(n + 1):
            c = cy.cycle_for_w(w, z, 0.1)
            factors = cy.omega_factor_list(c, sp)[1]
            plan = cy._plan(c.diagram, *float_view(sp))
            assert len(factors) == len(plan.factors) and all(f is g for f, g in zip(factors, plan.factors))
            assert all(f.expo != 0.0 for f in factors)
            kinds = {f.kind for f in factors}
            assert kinds == ({"mono"} if sp.k == 1 else {"vanish", "diff"} if sp.lam[0] == Q(-3, 4)
                             else {"mono", "vanish", "diff"})
            pos = {id(f): i for i, f in enumerate(factors)}
            held = [plan.multi, *plan.single]
            assert sorted(pos[id(f)] for g in held for f in g) == [i for i, f in enumerate(factors) if f.kind == "diff"]
            for g in held:
                assert [pos[id(f)] for f in g] == sorted(pos[id(f)] for f in g)


def test_k1_reduces_to_mellin():
    sp_1 = sp1(Q(3, 10), Q(1))
    for w in (W_ID, W_S):
        c = cy.cycle_for_w(w, [1e-2, 1.0], 0.1)
        _, factors = cy.omega_factor_list(c, sp_1)
        assert all(f.kind == "mono" for f in factors)
        val = cy.integrate_for_w(w, [1e-2, 1.0], sp_1, cy.QuadratureSpec(points_per_axis=121))
        mell = cy.mellin_value_at_unit_coupling(w, [1e-2, 1.0], sp_1)
        assert abs(val - mell) < 1e-10 * abs(mell)
    lam = [Q(3, 10), Q(1, 7)]
    sp_2 = SpectralParam(rs.vec(lam + [-sum(lam)]), Q(1))
    for w in dg.all_permutations(3):
        z = [1e-4, 1e-2, 1.0]
        val = cy.integrate_for_w(w, z, sp_2, cy.QuadratureSpec(points_per_axis=61))
        mell = cy.mellin_value_at_unit_coupling(w, z, sp_2)
        assert abs(val - mell) < 1e-8 * abs(mell)


def test_omega_positive_at_anchor_direction():
    # all nonvanishing factor arguments ~ 0, vanishing ones ~ -pi/2 at the anchor
    sp = sp1()
    c = cy.cycle_for_w(W_ID, [1e-2, 1.0], 0.1)
    _, args = cy.anchor_arguments(c, sp, eta=1e-5)
    _, factors = cy.omega_factor_list(c, sp)
    for f, a in zip(factors, args):
        if f.kind == "vanish":
            assert abs(a + math.pi / 2) < 1e-2
        else:
            assert abs(a) < 1e-3


def test_phase_tracking_matches_closed_form():
    rng = random.Random(11)
    for n, z in ((1, [1e-2, 1.0]), (2, [1e-4, 1e-2, 1.0])):
        sp = sp1() if n == 1 else sp2()
        for w in dg.all_permutations(n + 1):
            c = cy.cycle_for_w(w, z, 0.1)
            tau0, args0 = cy.anchor_arguments(c, sp)
            for _ in range(3):
                tau1 = np.array([rng.uniform(0.05, 0.95) for _ in range(c.naxes)])
                coarse = cy.phase_continuation(c, sp, tau0, tau1, args0, steps=24)
                fine = cy.phase_continuation(c, sp, tau0, tau1, args0, steps=96)
                analytic = cy.factor_arguments(c, sp, tau1)
                assert max(abs(a - b) for a, b in zip(coarse, fine)) < 1e-6
                assert max(abs(a - b) for a, b in zip(coarse, analytic)) < 1e-6


def test_phase_continuation_refines_and_raises(monkeypatch):
    sp = sp1()
    c = cy.cycle_for_w(W_ID, [1e-2, 1.0], 0.1)
    # one step across more than a half turn: the monomial's argument grows by
    # 1.2 pi, which one principal step would read as -0.8 pi; the step is
    # refined until every change is below pi/2
    a0 = cy.factor_arguments(c, sp, [0.2])
    one = cy.phase_continuation(c, sp, [0.2], [0.8], a0, steps=1)
    fine = cy.phase_continuation(c, sp, [0.2], [0.8], a0, steps=96)
    assert max(abs(a - b) for a, b in zip(one, fine)) < 1e-9
    assert max(abs(a - b) for a, b in zip(one, cy.factor_arguments(c, sp, [0.8]))) < 1e-9
    # at tau = 0 the vanishing base is exactly 0: the first pass raises
    calls = []
    factor_bases = cy._factor_bases
    monkeypatch.setattr(cy, "_factor_bases", lambda *args: calls.append(1) or factor_bases(*args))
    with pytest.raises(ValueError):
        cy.phase_continuation(c, sp, [0.0], [0.5], [0.0, 0.0, 0.0])
    assert len(calls) == 1


def test_phase_continuation_gives_up(monkeypatch):
    # the half-turn segment of the test above needs two step doublings
    sp = sp1()
    c = cy.cycle_for_w(W_ID, [1e-2, 1.0], 0.1)
    a0 = cy.factor_arguments(c, sp, [0.2])
    monkeypatch.setattr(cy, "_MAX_REFINEMENTS", 2)
    with pytest.raises(ValueError, match="phase tracking failed"):
        cy.phase_continuation(c, sp, [0.2], [0.8], a0, steps=1)
    monkeypatch.setattr(cy, "_MAX_REFINEMENTS", 3)
    got = cy.phase_continuation(c, sp, [0.2], [0.8], a0, steps=1)
    assert max(abs(a - b) for a, b in zip(got, cy.factor_arguments(c, sp, [0.8]))) < 1e-9


def test_phase_tracking_rejects_degenerate_inputs():
    # steps < 1 built no step and returned the start arguments; at eta = 0 or
    # 1 a vanishing base's principal argument is not the anchored -pi/2
    sp = sp1()
    c = cy.cycle_for_w(W_ID, [1e-2, 1.0], 0.1)
    tau0, args0 = cy.anchor_arguments(c, sp)
    for steps in (0, -1):
        with pytest.raises(ValueError, match=f"need at least 1 step, got {steps}"):
            cy.phase_continuation(c, sp, tau0, [0.9], args0, steps=steps)
    for eta in (0.0, 1.0, -1e-3, 1.5, math.nan):
        with pytest.raises(ValueError, match="anchor eta must lie in"):
            cy.anchor_arguments(c, sp, eta)
    got = cy.phase_continuation(c, sp, tau0, [0.9], args0, steps=1)
    assert max(abs(a - b) for a, b in zip(got, cy.factor_arguments(c, sp, [0.9]))) < 1e-9


def test_nan_tau_rejected():
    # NaN is not in [0, 1] (it failed neither comparison of the bump's check):
    # the pointwise paths name the bump's range, not the singular locus
    sp = sp1()
    c = cy.cycle_for_w(W_ID, [1e-2, 1.0], 0.1)
    calls = (lambda: cy.cycle_point(c, [math.nan]), lambda: cy.factor_arguments(c, sp, [math.nan]),
             lambda: cy.omega_w_eval(c, sp, [math.nan]))
    for call in calls:
        with pytest.raises(ValueError, match=r"bump argument outside \[0, 1\]"):
            call()


def test_phase_loop_winding_and_reversal():
    sp = sp1()
    c = cy.cycle_for_w(W_ID, [1e-2, 1.0], 0.1)
    eta = 1e-4
    a0 = cy.factor_arguments(c, sp, [eta])
    a1 = cy.factor_arguments(c, sp, [1 - eta])
    assert abs((a1[0] - a0[0]) - 2 * math.pi * (1 - 2 * eta)) < 1e-9
    tau0, args0 = cy.anchor_arguments(c, sp)
    fwd = cy.phase_continuation(c, sp, tau0, [0.6], args0, steps=24)
    back = cy.phase_continuation(c, sp, [0.6], tau0, fwd, steps=24)
    assert max(abs(a - b) for a, b in zip(back, args0)) < 1e-9


def test_schwarz_reflection_with_monodromy():
    for n, z in ((1, [1e-2, 1.0]), (2, [1e-4, 1e-2, 1.0])):
        sp = sp1() if n == 1 else sp2()
        rng = np.random.default_rng(3)
        for w in dg.all_permutations(n + 1):
            c = cy.cycle_for_w(w, z, 0.1)
            _, factors = cy.omega_factor_list(c, sp)
            winding = 0.0
            for f in factors:
                p = c.diagram.target(f.pts[0]) if f.kind == "vanish" else f.pts[0]
                winding += f.expo * (c.rank + 1 - p[1])  # points on the chain up from p
            for _ in range(4):
                tau = rng.uniform(0.05, 0.95, c.naxes)
                v = cy.omega_w_eval(c, sp, tau).value
                vr = cy.omega_w_eval(c, sp, 1.0 - tau).value
                assert abs(vr * cmath.exp(-2j * math.pi * winding) - v.conjugate()) < 1e-10 * abs(v)


def test_singular_locus_error():
    sp = sp1()
    c = cy.cycle_for_w(W_ID, [1e-2, 1.0], 0.1)
    with pytest.raises(ValueError):
        cy.omega_w_eval(c, sp, [0.0])


# float.hex of `omega_w_eval` (log-modulus, argument) and of every entry of
# `factor_arguments` at one tau per case, each argument keyed by its factor's
# kind and points, so the pins do not depend on the factor order.  The
# arguments were recorded when `omega_w_eval` still summed the factor logs in
# a loop of its own; the sums at rank >= 2 were re-recorded when the factor
# list took its lowest-axis order (the summands are the same, added in
# another order).  lambda as in the `integrate` goldens below,
# z = (10^(-2n), ..., 10^(-2), 1), and the same caveat on numpy's float64
# kernels.
POINT_GOLDEN = [
    ((1, 2), (0.37,), ('-0x1.18de58c251a9ap+2', '-0x1.f487913cf9794p+1'), [
        ('mono', ((1, 1),), '0x1.2992580eac536p+1'),
        ('diff', ((1, 1), (1, 2)), '0x1.2a953dcd617a8p+1'),
        ('vanish', ((1, 1),), '-0x1.8ebaa6b405420p-2'),
    ]),
    ((2, 1), (0.91,), ('0x1.22c1b0bf6799cp+1', '-0x1.6bbff7a3922a1p+3'), [
        ('mono', ((1, 1),), '0x1.6deec63b8eb99p+2'),
        ('vanish', ((1, 1),), '0x1.464c90aeb7705p+0'),
        ('diff', ((2, 2), (1, 1)), '0x1.5f5dcd83b664cp-8'),
    ]),
    ((2, 3, 1), (0.13, 0.62, 0.48), ('0x1.98d9a15f5e8b0p+2', '-0x1.1f1413ea4a48cp+4'), [
        ('mono', ((1, 1),), '0x1.ea9752e7c2288p+1'),
        ('diff', ((1, 1), (1, 2)), '0x1.ea81e498fbc8ep+1'),
        ('vanish', ((1, 1),), '0x1.df3546b471e3dp+0'),
        ('mono', ((1, 2),), '0x1.f2a232b0cdbc2p+1'),
        ('vanish', ((1, 2),), '0x1.6fb9896a69802p-2'),
        ('diff', ((2, 3), (1, 2)), '0x1.9720175e4612ep-8'),
        ('diff', ((3, 3), (1, 2)), '0x1.064805ba79e13p-14'),
        ('mono', ((2, 2),), '0x1.8209f5b22baa6p+1'),
        ('diff', ((2, 2), (1, 3)), '0x1.823713378f527p+1'),
        ('vanish', ((2, 2),), '-0x1.e7b47d523c9bdp-5'),
        ('diff', ((3, 3), (2, 2)), '-0x1.25355974e09f4p-10'),
        ('diff', ((2, 2), (1, 2)), '0x1.81082053ace7bp+1'),
    ]),
    ((3, 2, 1), (0.77, 0.05, 0.29), ('0x1.9497c323e0aa1p+3', '-0x1.d7f4e508f2576p+3'), [
        ('mono', ((1, 1),), '0x1.49bdd732daa19p+2'),
        ('vanish', ((1, 1),), '0x1.2314e17ec003ep+0'),
        ('diff', ((2, 2), (1, 1)), '0x1.d2f268f6e22bap+0'),
        ('mono', ((1, 2),), '0x1.41b2f769cf0e0p-2'),
        ('vanish', ((1, 2),), '-0x1.67ee6f0582d1bp+0'),
        ('diff', ((2, 3), (1, 2)), '-0x1.97e988b1d9b00p-9'),
        ('diff', ((3, 3), (1, 2)), '-0x1.029cc751a069ap-15'),
        ('mono', ((2, 2),), '0x1.d276b38c9f6dep+0'),
        ('diff', ((2, 2), (1, 3)), '0x1.d519ed81d7a97p+0'),
        ('vanish', ((2, 2),), '-0x1.44fd459914eb4p-1'),
        ('diff', ((3, 3), (2, 2)), '-0x1.28de8457a6a24p-7'),
        ('diff', ((2, 2), (1, 2)), '0x1.d52f0e42158b2p+0'),
    ]),
    ((2, 4, 1, 3), (0.21, 0.58, 0.93, 0.4, 0.66, 0.12), ('0x1.b5f3643d7f6d0p+2', '-0x1.4bc676e54d98cp+5'), [
        ('mono', ((1, 1),), '0x1.238a3037e3a4bp+3'),
        ('vanish', ((1, 1),), '0x1.b9e79ab3fbddep+2'),
        ('diff', ((2, 2), (1, 1)), '0x1.a63a1a8d34c61p+2'),
        ('mono', ((1, 2),), '0x1.f2a232b0cdbc2p+2'),
        ('diff', ((1, 2), (1, 3)), '0x1.f20aec6b1389fp+2'),
        ('vanish', ((1, 2),), '0x1.18ad91961ea29p+2'),
        ('diff', ((3, 3), (1, 2)), '0x1.8202598be8af8p-1'),
        ('mono', ((2, 2),), '0x1.a63ae4badfc27p+2'),
        ('diff', ((2, 2), (1, 3)), '0x1.a63ae196166e3p+2'),
        ('diff', ((2, 2), (2, 3)), '0x1.a63be01f972bfp+2'),
        ('vanish', ((2, 2),), '0x1.0c0eaada81c2ep+1'),
        ('diff', ((2, 2), (1, 2)), '0x1.a63998671d86ap+2'),
        ('mono', ((1, 3),), '0x1.41b2f769cf0e0p+1'),
        ('vanish', ((1, 3),), '-0x1.31f0b5ceb5157p-2'),
        ('diff', ((2, 4), (1, 3)), '-0x1.5bce42628a6b1p-8'),
        ('diff', ((3, 4), (1, 3)), '-0x1.c0703b798f444p-15'),
        ('diff', ((4, 4), (1, 3)), '-0x1.1f05804612bfep-21'),
        ('mono', ((2, 3),), '0x1.0966d8ea7e053p+2'),
        ('diff', ((2, 3), (1, 4)), '0x1.08d1dff915bcbp+2'),
        ('vanish', ((2, 3),), '0x1.ec3e8a9fc8c7dp-2'),
        ('diff', ((3, 4), (2, 3)), '0x1.fc528310921a0p-8'),
        ('diff', ((4, 4), (2, 3)), '0x1.46ed0d7f439d4p-14'),
        ('mono', ((3, 3),), '0x1.8209f5b22baa6p-1'),
        ('diff', ((3, 3), (1, 4)), '0x1.820a0cfb2bb1cp-1'),
        ('diff', ((3, 3), (2, 4)), '0x1.82130e61cb5b5p-1'),
        ('diff', ((3, 3), (3, 4)), '0x1.859e4acfd4b74p-1'),
        ('vanish', ((3, 3),), '-0x1.2d341dd844e44p+0'),
        ('diff', ((2, 3), (1, 3)), '0x1.0a07d7042bb54p+2'),
        ('diff', ((3, 3), (1, 3)), '0x1.8209d74e29791p-1'),
        ('diff', ((3, 3), (2, 3)), '0x1.820d0297fa226p-1'),
    ]),
]


@pytest.mark.parametrize("w, tau, omega_hex, args_hex", POINT_GOLDEN)
def test_pointwise_golden_bits(w, tau, omega_hex, args_hex):
    n = len(w) - 1
    z = [10.0 ** (-2 * i) for i in range(n, -1, -1)]
    lam = [Q(3, 10), Q(1, 7), Q(-2, 9)][:n]
    sp = SpectralParam(rs.vec(lam + [-sum(lam)]), Q(3, 2))
    c = cy.cycle_for_w(dg.Permutation(w), z, 0.1)
    v = cy.omega_w_eval(c, sp, tau)
    assert (v.log_magnitude.hex(), v.argument.hex()) == omega_hex
    _, factors = cy.omega_factor_list(c, sp)
    got = {(f.kind, f.pts): a.hex() for f, a in zip(factors, cy.factor_arguments(c, sp, tau))}
    assert len(got) == len(factors)
    assert got == {(kind, pts): h for kind, pts, h in args_hex}


def test_endpoint_vanishing_for_k_above_one():
    sp = sp1()
    c = cy.cycle_for_w(W_ID, [1e-2, 1.0], 0.1)
    interior = abs(cy.omega_w_eval(c, sp, [0.5]).value)
    assert abs(cy.omega_w_eval(c, sp, [1e-8]).value) < 1e-3 * interior
    assert abs(cy.omega_w_eval(c, sp, [1 - 1e-8]).value) < 1e-3 * interior
    # rank 2: decay on every face of the cube separately
    sp_2 = sp2()
    c2 = cy.cycle_for_w(dg.Permutation((2, 3, 1)), [1e-4, 1e-2, 1.0], 0.1)
    mid = [0.5] * c2.naxes
    interior2 = abs(cy.omega_w_eval(c2, sp_2, mid).value)
    for axis in range(c2.naxes):
        for edge in (1e-8, 1 - 1e-8):
            tau = list(mid)
            tau[axis] = edge
            assert abs(cy.omega_w_eval(c2, sp_2, tau).value) < 1e-3 * interior2


def test_integrate_bit_determinism():
    sp = sp2()
    z = [1e-4, 1e-2, 1.0]
    quad = cy.QuadratureSpec(points_per_axis=25)
    v1 = cy.integrate_for_w(dg.Permutation((3, 1, 2)), z, sp, quad)
    v2 = cy.integrate_for_w(dg.Permutation((3, 1, 2)), z, sp, quad)
    assert v1 == v2


def test_phased_value_multiplication():
    a = cy.PhasedValue(0.0, math.pi)
    b = cy.PhasedValue(math.log(2.0), math.pi)
    prod = a * b
    assert abs(prod.value - 2.0) < 1e-14
    assert prod.argument == 2 * math.pi  # unwound, not reduced


def test_integrate_matches_a_w_rank1():
    sp = sp1()
    quad = cy.QuadratureSpec(points_per_axis=121)
    for w in (W_ID, W_S):
        est = cy.leading_coeff_estimate(w, sp, 1e-3, quad)
        a = cf.a_w(w, sp)
        assert abs(est - a) < 1e-3 * abs(a)
        # raw ratio carries the first series correction ~ G_1 * r
        z = [1e-3, 1.0]
        ratio = cy.integrate_for_w(w, z, sp, quad) / cy.leading_power(w, sp, z)
        assert abs(ratio - a) < 5e-3 * abs(a)
        assert abs(ratio - a) > 1e-4 * abs(a)


def test_integrate_self_convergence_and_epsilon_independence():
    sp = sp1()
    z = [1e-3, 1.0]
    i1 = cy.integrate_for_w(W_ID, z, sp, cy.QuadratureSpec(points_per_axis=121))
    i2 = cy.integrate_for_w(W_ID, z, sp, cy.QuadratureSpec(points_per_axis=241))
    assert abs(i2 - i1) < 1e-8 * abs(i2)
    ia = cy.integrate_for_w(W_ID, z, sp, cy.QuadratureSpec(points_per_axis=161, epsilon=0.05))
    ib = cy.integrate_for_w(W_ID, z, sp, cy.QuadratureSpec(points_per_axis=161, epsilon=0.1))
    assert abs(ia - ib) < 1e-6 * abs(ib)


def test_series_integral_consistency():
    sp = sp1()
    z = [1e-2, 1.0]
    for w in (W_ID, W_S):
        table = freudenthal_table_for_w(w, sp, 12)
        lhs = cy.integrate_for_w(w, z, sp, cy.QuadratureSpec(points_per_axis=161)) / cf.a_w(w, sp)
        rhs = phi_eval(table, z)
        assert abs(lhs - rhs) < 1e-4 * abs(rhs)


def test_series_integral_consistency_rank2_all_w():
    # integrate / a(w) equals the full truncated series for every cycle:
    # end-to-end agreement of recurrence, phases, quadrature, and a(w)
    sp = sp2()
    r = 0.02
    z = [r * r, r, 1.0]
    quad = cy.QuadratureSpec(points_per_axis=61)
    for w in dg.all_permutations(3):
        table = freudenthal_table_for_w(w, sp, 6)
        lhs = cy.integrate_for_w(w, z, sp, quad) / cf.a_w(w, sp)
        rhs = phi_eval(table, z)
        assert abs(lhs - rhs) < 1e-7 * abs(rhs)


def test_fd_eigenvalue_rank1():
    sp = sp1()
    target = float(gamma_L(sp))
    quad = cy.QuadratureSpec(points_per_axis=121)
    for w in (W_ID, W_S):
        got = cy.fd_eigenvalue(w, [1e-2, 1.0], sp, quad)
        assert abs(got - target) < 1e-3 * abs(target)


def test_fd_eigenvalue_rank2():
    sp = sp2()
    target = float(gamma_L(sp))
    got = cy.fd_eigenvalue(
        dg.Permutation((2, 3, 1)), [4e-4, 2e-2, 1.0], sp, cy.QuadratureSpec(points_per_axis=41)
    )
    assert abs(got - target) < 1e-3 * abs(target)


def _flat_index_integrate(c, sp, quad=None, block=1 << 17, long_double=False):
    """Test-only reference: the flat-index node loop `integrate` had before
    it broadcast per-axis tau arrays, but for the node records `_factor_logs`
    takes in place of tau.  With `long_double`, the factor logs stay float64
    and the log sum, exp, Jacobian and accumulation run in np.clongdouble."""
    quad = quad or cy.QuadratureSpec(epsilon=c.bump.epsilon)
    if abs(quad.epsilon - c.bump.epsilon) > 1e-12:
        raise ValueError("quadrature epsilon disagrees with the cycle's bump height")
    x, _, wts = cy.tanh_sinh_rule_with_complement(quad.points_per_axis)
    real, cplx = (np.longdouble, np.clongdouble) if long_double else (float, complex)
    two_pi_i = cplx(8j * np.arctan(real(1)))  # 2 pi i at the working precision
    naxes = c.naxes
    shape = (len(x),) * naxes
    total_nodes = len(x) ** naxes
    acc = 0.0 + 0.0j
    for start in range(0, total_nodes, block):
        flat = np.arange(start, min(start + block, total_nodes))
        idx = np.unravel_index(flat, shape)
        tau = np.stack([x[ix] for ix in idx])
        weight = np.ones(len(flat), dtype=real)
        for ix in idx:
            weight = weight * wts[ix]

        const, factors, logs, t = cy._factor_logs(c, sp, [cy._Nodes.of(a, c.bump) for a in tau])
        with np.errstate(over="ignore", invalid="ignore"):
            total_log = np.full(len(flat), const, dtype=cplx)
            for f, (la, aa) in zip(factors, logs):
                total_log = total_log + f.expo * (np.asarray(la, real) + 1j * np.asarray(aa, real))
            vals = np.exp(total_log)
            for p in c.points:
                tj = tau[c.axis[p]]
                f = np.asarray(c.bump(tj), real)
                fp = np.asarray(c.bump.deriv(tj), real)
                tar = np.asarray(t[c.diagram.target(p)], cplx)
                vals = vals * np.exp(two_pi_i * np.asarray(tj, real)) * (two_pi_i * (1.0 - f) - fp) * tar
        bad = ~np.isfinite(vals)
        if np.any(bad):
            j = int(np.argmax(bad))
            raise ArithmeticError(f"non-finite integrand at tau = {tau[:, j].tolist()}")
        acc += np.sum(vals * weight)
    return acc


@functools.lru_cache(maxsize=None)
def _rank3_case(w):
    """Rank-3 cycle, parameter, 8-point spec and the reference integral."""
    lam = [Q(3, 10), Q(1, 7), Q(-2, 9)]
    sp = SpectralParam(rs.vec(lam + [-sum(lam)]), Q(3, 2))
    quad = cy.QuadratureSpec(points_per_axis=8)  # the fewest points a spec allows
    c = cy.cycle_for_w(dg.Permutation(w), [1e-6, 1e-4, 1e-2, 1.0], 0.1)
    return c, sp, quad, _flat_index_integrate(c, sp, quad, long_double=True)


def test_broadcast_matches_flat_index_reference():
    sp = sp2()
    quad = cy.QuadratureSpec(points_per_axis=25)
    for w in dg.all_permutations(3):
        c = cy.cycle_for_w(w, [1e-4, 1e-2, 1.0], 0.1)
        ref = _flat_index_integrate(c, sp, quad, long_double=True)
        assert abs(cy.integrate(c, sp, quad) - ref) <= 1e-13 * abs(ref)
    for w in ((1, 2, 3, 4), (2, 4, 1, 3)):
        c, sp_3, quad_3, ref = _rank3_case(w)
        assert abs(cy.integrate(c, sp_3, quad_3) - ref) <= 1e-13 * abs(ref)


def _hex(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


@pytest.mark.parametrize("lead", [0, 1, 2])
def test_leading_axis_blocks(lead, monkeypatch):
    # rank 3 has 6 axes: fixing `lead` leading axes leaves 8^(6-lead) nodes per
    # block.  Per z, a multi-axis difference that reads no fixed axis is
    # evaluated once per call and any other once per block; a one-axis
    # difference is evaluated once per call, and monomials and vanishing
    # factors never (they live in the plan's per-axis coefficients).  A block
    # rebuilds the t values of the fixed points alone.  Two z share each block.
    c, sp_3, quad, ref = _rank3_case((2, 4, 1, 3))
    other = cy.cycle_for_w(c.diagram.to_permutation(), [4e-6, 2e-4, 2e-2, 1.0], 0.1)
    top = (1, c.rank + 1)
    evaluated, built = Counter(), Counter()
    multi_sum, axis_logs, t_values = cy._multi_sum, cy._axis_logs, cy._t_values

    def counting_multi_sum(factors, t, *args):
        for f in factors:
            evaluated[f] += np.size(t[top])  # one per z
        return multi_sum(factors, t, *args)

    def counting_axis_logs(c, plan, base, nodes, cycles):
        for f in itertools.chain(*plan.single):
            evaluated[f] += len(cycles)
        return axis_logs(c, plan, base, nodes, cycles)

    def counting_t_values(c, nodes, t=None, points=None):
        for p in c.points if points is None else points:
            built[p] += 1 if t is None else np.size(t[top])
        return t_values(c, nodes, t, points)

    monkeypatch.setattr(cy, "_multi_sum", counting_multi_sum)
    monkeypatch.setattr(cy, "_axis_logs", counting_axis_logs)
    monkeypatch.setattr(cy, "_t_values", counting_t_values)
    monkeypatch.setattr(cy, "_BLOCK_NODES", 2 * 8 ** (6 - lead))
    got = cy._integrate([c, other], sp_3, quad)
    assert abs(got[0] - ref) <= 1e-13 * abs(ref)
    plan = cy._plan(c.diagram, *float_view(sp_3))
    factors = cy.omega_factor_list(c, sp_3)[1]
    assert Counter(f.kind for f in factors) == {"mono": 6, "vanish": 6, "diff": 18}
    assert set(plan.multi) | set(itertools.chain(*plan.single)) == {f for f in factors if f.kind == "diff"}
    assert (len(plan.multi), sum(map(len, plan.single))) == (9, 9)
    assert evaluated == {**{f: 2 for f in itertools.chain(*plan.single)},
                         **{f: 2 * (1 if cy._lowest_axis(c, f) >= lead else 8**lead) for f in plan.multi}}
    assert sum(cy._lowest_axis(c, f) < lead for f in plan.multi) == (0, 1, 4)[lead]
    assert built == {p: 2 * (1 if c.axis[p] >= lead else 8**lead) for p in c.points}
    monkeypatch.setattr(cy, "_BLOCK_NODES", 8 ** (6 - lead))
    assert _hex(got) == _hex([cy.integrate(c, sp_3, quad), cy.integrate(other, sp_3, quad)])


# float.hex of (re, im) of `integrate`.  Each node's integrand is the
# product of per-axis weights (rule weight, Jacobian factor and every
# one-axis term of the form) with exp of the multi-axis differences, so it
# agrees with `_flat_index_integrate`'s long-double sum to 1.5e-15 at rank
# 1, 1.1e-14 at rank 2 and 1.7e-14 at rank 3.  The values were re-recorded
# when the one-axis factors moved into the weights (the summands are the
# same, grouped and rounded otherwise), and again when the block was
# exponentiated from tan(arg/2) (ranks 2 and 3).  The last bits follow
# numpy's float64 kernels for exp, tan, log and arctan2 and its einsum
# loops, which differ between SIMD dispatch targets, builds and CPUs.  So
# each row holds one pair per dispatch target, keyed by whether numpy's
# X86_V4 (AVX-512) kernels are active (`_x86_v4`): True as numpy 2.4.6
# dispatches on an x86-64 Xeon with AVX-512, False on the same host and
# numpy with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR".  A
# key with no pair fails the test and names the key.
#
# The last pair of each row is the case's anchor: its bits as pinned
# before that fold, which a re-recording leaves alone.  The test id is built
# from the row number, the rule and the anchor, so a re-recording keeps it.
# A row keeps its number, which its id carries, when another row goes:
# there is no row 11.
# The anchor also bounds what a re-recording may absorb: today's value lies
# within 1e-12 relative of it on every target.  Both are rounding of one
# quadrature sum; at rank 3, P = 8, the earlier kernel lay up to 3.1e-13
# and this one up to 1.1e-13 from its long-double evaluation.
GOLDEN = {
    0: ((1, 2), 121, 0.1,
        {True: ("0x1.01d51edcd1148p-8", "-0x1.4f197473520ebp-10"),
         False: ("0x1.01d51edcd1148p-8", "-0x1.4f197473520edp-10")},
        ("0x1.01d51edcd1149p-8", "-0x1.4f197473520eep-10")),
    1: ((2, 1), 121, 0.1,
        {True: ("-0x1.102af4a0e6f60p-5", "-0x1.a2d2bb5bea29fp-4"),
         False: ("-0x1.102af4a0e6f60p-5", "-0x1.a2d2bb5bea29fp-4")},
        ("-0x1.102af4a0e6f5dp-5", "-0x1.a2d2bb5bea29ap-4")),
    2: ((1, 2), 241, 0.1,
        {True: ("0x1.01d51edcd116fp-8", "-0x1.4f1974735211bp-10"),
         False: ("0x1.01d51edcd116ep-8", "-0x1.4f1974735211ap-10")},
        ("0x1.01d51edcd1170p-8", "-0x1.4f1974735211dp-10")),
    3: ((2, 1), 241, 0.1,
        {True: ("-0x1.102af4a0e6f83p-5", "-0x1.a2d2bb5bea2ddp-4"),
         False: ("-0x1.102af4a0e6f86p-5", "-0x1.a2d2bb5bea2ddp-4")},
        ("-0x1.102af4a0e6f81p-5", "-0x1.a2d2bb5bea2d4p-4")),
    4: ((1, 2, 3), 25, 0.1,
        {True: ("0x1.c382ae87565c4p-18", "0x1.44700fd2bc62dp-22"),
         False: ("0x1.c382ae87565c5p-18", "0x1.44700fd2bc62ap-22")},
        ("0x1.c382ae87565e7p-18", "0x1.44700fd2bc607p-22")),
    5: ((1, 3, 2), 25, 0.1,
        {True: ("0x1.022d2bf6cbbc3p-19", "-0x1.674bed050c18cp-15"),
         False: ("0x1.022d2bf6cbbc2p-19", "-0x1.674bed050c18fp-15")},
        ("0x1.022d2bf6cbcbfp-19", "-0x1.674bed050c193p-15")),
    6: ((2, 1, 3), 25, 0.1,
        {True: ("0x1.13cdabd3906a1p-21", "-0x1.7fd3d6bd0931cp-17"),
         False: ("0x1.13cdabd3906abp-21", "-0x1.7fd3d6bd0931dp-17")},
        ("0x1.13cdabd390643p-21", "-0x1.7fd3d6bd0931cp-17")),
    7: ((2, 3, 1), 25, 0.1,
        {True: ("-0x1.a5c302f34337bp-14", "-0x1.2f0fbd4fe2867p-18"),
         False: ("-0x1.a5c302f34337fp-14", "-0x1.2f0fbd4fe2862p-18")},
        ("-0x1.a5c302f34338ap-14", "-0x1.2f0fbd4fe2b20p-18")),
    8: ((3, 1, 2), 25, 0.1,
        {True: ("-0x1.87d86578e40a4p-12", "-0x1.19908f03eb682p-16"),
         False: ("-0x1.87d86578e40a8p-12", "-0x1.19908f03eb65bp-16")},
        ("-0x1.87d86578e40fdp-12", "-0x1.19908f03eb7d2p-16")),
    9: ((3, 2, 1), 25, 0.1,
        {True: ("-0x1.d9fab500a98b1p-16", "0x1.49cfc1e2011fbp-11"),
         False: ("-0x1.d9fab500a985ap-16", "0x1.49cfc1e2011fep-11")},
        ("-0x1.d9fab500aa066p-16", "0x1.49cfc1e20124ep-11")),
    10: ((2, 4, 1, 3), 8, 0.1,
        {True: ("-0x1.86ccd9988f85cp-45", "0x1.a26c44520ec2fp-43"),
         False: ("-0x1.86ccd9988f84bp-45", "0x1.a26c44520ec2cp-43")},
        ("-0x1.86ccd9988f923p-45", "0x1.a26c44520e911p-43")),
    12: ((2, 1), 161, 0.05,
        {True: ("-0x1.102af4a0e6f6dp-5", "-0x1.a2d2bb5bea2a3p-4"),
         False: ("-0x1.102af4a0e6f6ep-5", "-0x1.a2d2bb5bea2a4p-4")},
        ("-0x1.102af4a0e6f66p-5", "-0x1.a2d2bb5bea2a2p-4")),
    # rank 2 with a fixed axis: 61^3 nodes exceed a block, so blocks fix
    # axis 0; recorded before the t walk took step arrays, and its own anchor
    13: ((2, 3, 1), 61, 0.1,
        {True: ("-0x1.a4fafc3279beap-14", "-0x1.2e80022527984p-18"),
         False: ("-0x1.a4fafc3279be9p-14", "-0x1.2e80022527964p-18")},
        ("-0x1.a4fafc3279beap-14", "-0x1.2e8002252798bp-18")),
}


def _x86_v4():
    """Whether numpy dispatches its X86_V4 (AVX-512) kernels, the key of the
    golden bit pairs; None where numpy reports no such target."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__.get("X86_V4")


@pytest.mark.parametrize("w, points, eps, bits, anchor", GOLDEN.values(),
                         ids=[f"w{i}-tanh-sinh-{g[1]}-{g[2]}-" + "-".join(g[4]) for i, g in GOLDEN.items()])
def test_integrate_golden_bits(w, points, eps, bits, anchor):
    if len(w) == 4:
        c, sp, quad, _ = _rank3_case(w)  # 8^6 nodes: blocks fix the leading axis
    else:
        z, sp = ([1e-3, 1.0], sp1()) if len(w) == 2 else ([1e-4, 1e-2, 1.0], sp2())
        c = cy.cycle_for_w(dg.Permutation(w), z, eps)
        quad = cy.QuadratureSpec(points_per_axis=points, epsilon=eps)
    val = cy.integrate(c, sp, quad)
    key = _x86_v4()
    if key not in bits:
        pytest.fail(f"no golden bits recorded for X86_V4 dispatch {key!r}")
    assert (val.real.hex(), val.imag.hex()) == bits[key]
    pinned = complex(*map(float.fromhex, anchor))
    assert abs(val - pinned) <= 1e-12 * abs(pinned)


def test_block_arrays_reuse_one_workspace():
    # after a warm-up call, a block's arrays are views of one workspace: the
    # tracemalloc peak of a rank-2, 41-point `leading_coeff_estimate` (each
    # block is the whole 41^3 grid, 1.1 MB as one complex array) and of a
    # rank-3, 8-point `integrate_for_w` (blocks of 8^5 nodes) stays under
    # 512 KB
    w3 = dg.Permutation((2, 4, 1, 3))
    c3, sp_3, quad_3, _ = _rank3_case(w3.images)
    calls = [
        lambda: cy.leading_coeff_estimate(dg.Permutation((2, 3, 1)), sp2(), 0.05, cy.QuadratureSpec(points_per_axis=41)),
        lambda: cy.integrate_for_w(w3, c3.z, sp_3, quad_3),
    ]
    for call in calls:
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024


def _exp_block(mod, arg):
    """`cycles._exp_block` on copies of `mod` and `arg`."""
    mod, arg = np.array(mod, dtype=float), np.array(arg, dtype=float)
    return cy._exp_block(mod, arg, np.empty_like(mod), np.empty_like(mod), np.empty(mod.shape, dtype=complex))


def test_block_exponent_matches_exp():
    # e^{mod + i arg} from tan(arg/2) and real exp, against np.exp of the
    # complex input and against mpmath at 40 digits, to 1e-15 relative: for
    # |arg| up to 1e3 (a bound on the sum of |expo| pi/2 over the multi-axis
    # differences), within 1e-9 of +-pi and at +-0
    rng = np.random.default_rng(23)
    near_pi = np.concatenate([math.pi + rng.uniform(-1e-9, 1e-9, 500), -math.pi + rng.uniform(-1e-9, 1e-9, 500)])
    arg = np.concatenate([rng.uniform(-1e3, 1e3, 3000), rng.uniform(-20.0, 20.0, 3000), near_pi,
                          [0.0, -0.0, math.pi, -math.pi, 1e3, -1e3]])
    mod = rng.uniform(-40.0, 40.0, arg.size)
    got = _exp_block(mod, arg)
    want = np.exp(mod + 1j * arg)
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for i in [*range(0, arg.size, 7), *range(arg.size - 6, arg.size)]:
            exact = mpmath.exp(mpmath.mpc(mod[i], arg[i]))
            assert abs(mpmath.mpc(got[i]) - exact) <= 1e-15 * abs(exact), (mod[i], arg[i])
    # -inf gives exactly 0 and 0 + 0i exactly 1; +inf or a NaN in either
    # part gives a non-finite value
    assert np.all(_exp_block(np.full(5, -np.inf), [0.0, -0.0, 1.0, -3.0, math.pi]) == 0)
    one = _exp_block(np.zeros(2), [0.0, -0.0])
    assert np.all(one.real == 1.0) and np.all(one.imag == 0.0)
    with np.errstate(invalid="ignore"):
        bad = _exp_block([np.inf, np.inf, np.nan, 0.0, 0.0, 1.0], [0.0, 2.0, 0.0, np.nan, np.inf, -np.inf])
    assert not np.isfinite(bad).any()


def test_node_record_cached(monkeypatch):
    # a repeated spec builds nothing: the bump is not evaluated again
    calls = []
    bump_call = cy.BumpFn.__call__
    monkeypatch.setattr(cy.BumpFn, "__call__", lambda self, x: calls.append(1) or bump_call(self, x))
    cy._quad_nodes.cache_clear()
    c = cy.cycle_for_w(W_ID, [1e-2, 1.0], 0.1)
    quad = cy.QuadratureSpec(points_per_axis=33)
    first = cy.integrate(c, sp1(), quad)
    assert calls
    calls.clear()
    assert cy.integrate(c, sp1(), quad) == first
    assert calls == []


def test_axis_weights_cached():
    # the plan behind the per-axis weights depends on the diagram and float
    # (lambda, k), not on z or the rule: integrating one cycle's form at
    # another z or on another rule builds none, and the plan is immutable
    w = dg.Permutation((2, 3, 1))
    cycles = [cy.cycle_for_w(w, z, 0.1) for z in ([1e-4, 1e-2, 1.0], [4e-4, 2e-2, 1.0])]
    quads = [cy.QuadratureSpec(points_per_axis=25), cy.QuadratureSpec(points_per_axis=9)]
    cy._plan.cache_clear()
    first = [cy.integrate(c, sp2(), q) for c in cycles for q in quads]
    assert cy._plan.cache_info().misses == 1
    assert [cy.integrate(c, sp2(), q) for c in cycles for q in quads] == first
    assert cy._plan.cache_info().misses == 1
    plan = cy._plan(cycles[0].diagram, *float_view(sp2()))
    assert len(plan.coef) == len(plan.vcoef) == len(plan.single) == cycles[0].naxes
    assert len(plan.zexp) == cycles[0].rank + 1
    for field in plan:
        assert isinstance(field, tuple)
        with pytest.raises(TypeError):
            field[0] = 0.0
    with pytest.raises(AttributeError):
        plan.coef = ()


def _plan_log(c, sp, tau):
    """The plan's log of the integrand times the Jacobian at one tau, but
    for the Jacobian factors e^{2 pi i tau}(2 pi i (1 - f) - f') that the
    weights hold: the constant, each axis's folded terms, the multi-axis
    differences."""
    plan = cy._plan(c.diagram, *float_view(sp))
    nodes = cy._tau_nodes(c, np.asarray(tau)[:, None])
    t = cy._t_values(c, [nd.step for nd in nodes])
    total = cy._z_log(c, *float_view(sp), plan.zexp)
    for lg in cy._axis_logs(c, plan, cy._axis_base(plan, nodes), nodes, [c]):
        total += complex(lg.flat[0])
    shape = np.broadcast_shapes(*(np.shape(t[q]) for f in plan.multi for q in f.pts))
    mod, arg = cy._multi_sum(plan.multi, t, shape, np.empty((6, math.prod(shape))))  # 0.0 each at rank 1
    return total + complex(np.sum(mod), np.sum(arg))


def test_plan_matches_pointwise():
    # the plan regroups the form's factors by axis: with the Jacobian's t_tar
    # factors, taken from the pointwise path's unwound logs, it is the
    # form's log at every tau, to rounding
    lam = [Q(3, 10), Q(1, 7), Q(-2, 9)]
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        sp = SpectralParam(rs.vec(lam[:n] + [-sum(lam[:n])]), Q(3, 2))
        z = [10.0 ** (-2 * i) for i in range(n, -1, -1)]
        for w in dg.all_permutations(n + 1):
            c = cy.cycle_for_w(w, z, 0.1)
            for _ in range(4):
                tau = rng.uniform(0.01, 0.99, c.naxes)
                v = cy.omega_w_eval(c, sp, tau)
                nodes = cy._tau_nodes(c, tau)
                want = complex(v.log_magnitude, v.argument)
                for p in c.points:
                    want += complex(*cy._log_t(c, nodes, c.diagram.target(p)))
                got = _plan_log(c, sp, tau)
                assert abs(got.real - want.real) <= 1e-13 and abs(got.imag - want.imag) <= 1e-13, (w.images, tau)


def test_node_records_read_only_and_distinct():
    nodes, wts = cy._quad_nodes(33, cy.BumpFn(0.1))
    for arr in (*nodes, wts):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    others = [
        cy._quad_nodes(33, cy.BumpFn(0.05))[0],
        cy._quad_nodes(41, cy.BumpFn(0.1))[0],
    ]
    for other in others:
        assert other is not nodes and not np.array_equal(other.step, nodes.step)
    assert np.array_equal(others[0].x, nodes.x) and not np.array_equal(others[1].x, nodes.x)
    assert cy._quad_nodes(33, cy.BumpFn(0.1))[0] is nodes


def test_nonfinite_guard(monkeypatch):
    # a wildly negative coupling is refused before any node: the integral
    # diverges for k <= 0
    sp = sp1(Q(3, 10), Q(-800))
    c = cy.cycle_for_w(W_ID, [1e-2, 1.0], 0.1)
    with pytest.raises(ValueError, match="diverges"):
        cy.integrate(c, sp, cy.QuadratureSpec(points_per_axis=33))
    # rank 1: a large lambda difference overflows the monomial next to the
    # loop's start, and the first node is named
    c1 = cy.cycle_for_w(W_S, [1e-2, 1.0], 0.1)
    with pytest.raises(ArithmeticError) as err:
        cy.integrate(c1, sp1(Q(400), Q(3, 2)), cy.QuadratureSpec(points_per_axis=33))
    assert str(err.value) == f"non-finite integrand at tau = [{_first_node()!r}]"
    # rank 2: large lambda differences overflow the monomials inside the cube
    # while the vanishing factors keep the faces finite; the message names the
    # first bad node in C order, the same in every blocking
    sp_2 = SpectralParam(rs.vec([Q(-100), Q(-300), Q(400)]), Q(20))
    c2 = cy.cycle_for_w(dg.Permutation((2, 3, 1)), [1e-4, 1e-2, 1.0], 0.1)
    quad = cy.QuadratureSpec(points_per_axis=9)
    x = cy.tanh_sinh_rule_with_complement(9)[0]
    with pytest.raises(ArithmeticError) as ref:
        _flat_index_integrate(c2, sp_2, quad)
    for lead in (0, 1, 2):
        monkeypatch.setattr(cy, "_BLOCK_NODES", 9 ** (3 - lead))
        with pytest.raises(ArithmeticError) as err:
            cy.integrate(c2, sp_2, quad)
        assert str(err.value) == str(ref.value)
        node = ast.literal_eval(str(err.value).split("tau = ")[1])
        assert len(node) == c2.naxes and all(v in x for v in node)
        assert node != [float(x[0])] * c2.naxes
    # where no node's log-modulus leaves the float range but the factored
    # evaluation overflows, the first node it overflows at is named: a
    # non-finite sum never comes back quietly
    monkeypatch.setattr(cy, "_LOG_MAX", math.inf)
    for lead in (0, 1, 2):
        monkeypatch.setattr(cy, "_BLOCK_NODES", 9 ** (3 - lead))
        with pytest.raises(ArithmeticError, match="non-finite integrand at tau"):
            cy.integrate(c2, sp_2, quad)


@pytest.mark.parametrize("rank, lead, k", [
    pytest.param(rank, lead, k, id=f"{rank}-{lead}" + ("-k1" if k == 1 else ""))
    for k in (Q(3, 2), Q(1)) for rank, lead in [(1, 0), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)]])
def test_batch_matches_single_calls_bitwise(rank, lead, k, monkeypatch):
    # five z in chunks of two cycles (2, 2, 1) at the blocking `lead` fixes:
    # every result has the bits of `integrate` at its z alone, at the same
    # blocking, also where a block fixes a point of row n (rank 2, lead 2).
    # At k = 1 the cross and within exponents are 0: no axis has a one-axis
    # difference, and every axis's log is broadcast along the batch axis.
    lam = [Q(3, 10), Q(1, 7), Q(-2, 9)][:rank]
    sp = SpectralParam(rs.vec(lam + [-sum(lam)]), k)
    w = {1: (2, 1), 2: (2, 3, 1), 3: (2, 4, 1, 3)}[rank]
    npts = {1: 33, 2: 9, 3: 8}[rank]
    quad = cy.QuadratureSpec(points_per_axis=npts)
    cycles = [cy.cycle_for_w(dg.Permutation(w), [r ** (rank - i) for i in range(rank + 1)], 0.1)
              for r in (1e-2, 5e-3, 2e-2, 1e-3, 3e-2)]
    monkeypatch.setattr(cy, "_BLOCK_NODES", 2 * npts ** (cycles[0].naxes - lead))
    single = [cy.integrate(c, sp, quad) for c in cycles]
    chunks = []  # the cycles of each chunk, seen at its one-axis logs
    axis_logs = cy._axis_logs

    def recording(c, plan, base, nodes, cycles):
        chunks.append(len(cycles))
        return axis_logs(c, plan, base, nodes, cycles)

    monkeypatch.setattr(cy, "_axis_logs", recording)
    assert _hex(cy._integrate(cycles, sp, quad)) == _hex(single)
    assert chunks == [2, 2, 1]
    assert any(cy._plan(cycles[0].diagram, *float_view(sp)).single) == (k != 1)
    assert _hex(cy._integrate(cycles[1:2], sp, quad)) == _hex(single[1:2])


def test_batch_raises_first_failure_in_batch_order(monkeypatch):
    # at these z the monomials overflow inside the cube, at the first node of
    # axis 0 for `early` and at a later one for `late`; with axis 0 fixed and
    # both in one chunk, `early` fails first, but a batch raises the error
    # `integrate` raises at the first failing z in batch order
    sp_2 = SpectralParam(rs.vec([Q(-100), Q(-300), Q(400)]), Q(20))
    w = dg.Permutation((2, 3, 1))
    quad = cy.QuadratureSpec(points_per_axis=9)
    fine, late, early = (cy.cycle_for_w(w, z, 0.1) for z in
                         ([0.05, 0.2, 1.0], [1e-4, 1e-2, 1.0], [1e-3, 1e-1, 1.0]))
    monkeypatch.setattr(cy, "_BLOCK_NODES", 4 * 9 ** 2)
    messages = {}
    for c in (late, early):
        with pytest.raises(ArithmeticError) as err:
            cy.integrate(c, sp_2, quad)
        messages[c] = str(err.value)
    assert messages[late] != messages[early]
    assert cmath.isfinite(cy.integrate(fine, sp_2, quad))
    for batch in ([fine, late, early], [fine, early, late], [late, fine], [early, early]):
        with pytest.raises(ArithmeticError) as err:
            cy._integrate(batch, sp_2, quad)
        assert str(err.value) == messages[batch[1] if batch[0] is fine else batch[0]]


def test_batch_needs_one_diagram_and_bump():
    sp = sp1()
    c = cy.cycle_for_w(W_ID, [1e-2, 1.0], 0.1)
    for other in (cy.cycle_for_w(W_S, [1e-2, 1.0], 0.1), cy.cycle_for_w(W_ID, [1e-2, 1.0], 0.05)):
        with pytest.raises(ValueError):
            cy._integrate([c, other], sp)


def test_zero_base_inside_cube(monkeypatch):
    # a vanishing base that is exactly 0 at an interior node has log-modulus
    # -inf; with exponent k - 1 > 0 its power is 0 there, but the node is on
    # the singular locus, so `integrate` names it instead of summing a 0
    sp = sp2()
    c = cy.cycle_for_w(dg.Permutation((2, 3, 1)), [1e-4, 1e-2, 1.0], 0.1)
    quad = cy.QuadratureSpec(points_per_axis=9)
    assert cmath.isfinite(cy.integrate(c, sp, quad))
    nodes, wts = cy._quad_nodes(quad.points_per_axis, c.bump)
    lvan = nodes.lvan.copy()
    lvan[4] = complex(-math.inf, lvan[4].imag)
    monkeypatch.setattr(cy, "_quad_nodes", lambda *args: (nodes._replace(lvan=lvan), wts))
    x = nodes.x
    # every axis shares the patched record: the first bad node in C order
    # has the last axis at node 4 and the others at node 0
    expected = f"non-finite integrand at tau = {[float(x[0]), float(x[0]), float(x[4])]}"
    for lead in (0, 1, 2):
        monkeypatch.setattr(cy, "_BLOCK_NODES", 9 ** (3 - lead))
        with pytest.raises(ArithmeticError) as err:
            cy.integrate(c, sp, quad)
        assert str(err.value) == expected


def test_spectral_rank_must_match_cycle():
    # a parameter of lower or higher rank than the cycle is refused by
    # `_plan`, which every path reads first
    w = dg.Permutation((2, 3, 1))
    z = [1e-4, 1e-2, 1.0]
    c = cy.cycle_for_w(w, z, 0.1)
    quad = cy.QuadratureSpec(points_per_axis=9)
    lam = [Q(3, 10), Q(1, 7), Q(-2, 9)]
    for sp in (sp1(), SpectralParam(rs.vec(lam + [-sum(lam)]), Q(3, 2))):
        calls = (lambda: cy.integrate(c, sp, quad), lambda: cy.integrate_for_w(w, z, sp, quad),
                 lambda: cy.omega_w_eval(c, sp, [0.5] * c.naxes))
        for call in calls:
            with pytest.raises(ValueError, match="spectral parameter rank does not match the cycle"):
                call()


@pytest.mark.parametrize("call, message", [
    (lambda: cy.CyclePath(dg.Diagram.from_permutation(dg.Permutation((1,))), [1.0]),
     "need a diagram with at least 2 rows"),
    (lambda: cy.CyclePath(dg.Diagram.from_permutation(W_ID), [1e-2, 0.5, 1.0]),
     "z must have one entry per top-row point"),
    (lambda: cy.mellin_value_at_unit_coupling(W_ID, [1e-2, 1.0], sp1()), "closed form holds at k = 1 only"),
    (lambda: se.a1_hypergeometric_coefficients(sp2(), W_ID, 2), "rank-1 oracle only"),
    (lambda: cf.gauss_value_by_beta_quadrature(-2.0, 0.25), "Beta arguments must be positive"),
    (lambda: cf.power_vandermonde_residual(1, 0.5, [[1.0, 2.0, 3.0]]), "point has wrong dimension"),
    (lambda: se.commuting_symbol_table(Poly.var(3, 0), 1, Q(1, 2), 1), "sigma must be a polynomial in 2 variables"),
], ids=["one-row-diagram", "z-length", "mellin-k", "a1-rank", "beta-domain", "point-dimension", "sigma-variables"])
def test_input_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_divergent_coupling_raises():
    # each loop starts and ends at its branch point, where the integrand
    # behaves like tau^(k-1): for k <= 0 the integral diverges, and every
    # quadrature path refuses it before any node; pointwise evaluation is
    # defined there
    quad = cy.QuadratureSpec(points_per_axis=33)
    for k in (Q(0), Q(-1, 2)):
        sp = sp1(Q(3, 10), k)
        calls = (lambda: cy.integrate(cy.cycle_for_w(W_ID, [1e-2, 1.0]), sp, quad),
                 lambda: cy.leading_coeff_estimate(W_ID, sp, 1e-2, quad),
                 lambda: cy.fd_eigenvalue(W_ID, [1e-2, 1.0], sp, quad))
        for call in calls:
            with pytest.raises(ValueError, match=f"the cycle integral diverges at k = {k}: it needs k > 0"):
                call()
        assert math.isfinite(cy.omega_w_eval(cy.cycle_for_w(W_ID, [1e-2, 1.0]), sp, [0.5]).log_magnitude)


def test_integrate_epsilon_mismatch_guard():
    sp = sp1()
    c = cy.cycle_for_w(W_ID, [1e-2, 1.0], 0.05)
    with pytest.raises(ValueError):
        cy.integrate(c, sp, cy.QuadratureSpec(points_per_axis=33, epsilon=0.1))


def test_result_json_schema(capsys):
    # `hc integrate` reports the library's integral unrounded, with its spec
    assert main(["integrate", "--w", "id", "--points", "33"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda"] == ["3/10", "-3/10"] and doc["k"] == "3/2"
    rec = doc["results"][0]
    assert rec["w"] == [1, 2]
    val = cy.integrate_for_w(W_ID, doc["z"], sp1(), cy.QuadratureSpec(points_per_axis=33))
    assert rec["integral"]["re"] == val.real and rec["integral"]["im"] == val.imag
    assert doc["spec"]["points_per_axis"] == 33


def test_result_spec_keys(capsys):
    assert main(["integrate", "--w", "id", "--points", "33"]) == 0
    spec = json.loads(capsys.readouterr().out)["spec"]
    assert spec == {"points_per_axis": 33, "epsilon": 0.1}
