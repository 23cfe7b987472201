"""The paper's claims as one registry of seeded checks.

`SUITES` maps each `hc verify` suite to its ordered (tag, check) pairs; a
check takes the seed and returns (passed, detail), where detail carries the
measured margin.  `hc verify` and `tests/test_acceptance.py` both run this
registry, so each claim is stated once, here.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction as Q

from . import closedforms as cf
from . import cycles as cy
from . import diagrams as dg
from . import rootsystem as rs
from . import series as se
from .polynomial import Poly


def random_generic(rng: random.Random, n: int, kmin: Q, kden: int) -> se.SpectralParam:
    """A generic (lambda, k) at rank n: lambda_i = a/41 + 1/53 with a in
    -30..30, built as the one Fraction (53 a + 41)/2173, for i <= n,
    k = kmin + (1..24)/kden, redrawn until no coroot pairing is an integer."""
    while True:
        lam = [Q(53 * rng.randint(-30, 30) + 41, 2173) for _ in range(n)]
        lam.append(-sum(lam))
        k = kmin + Q(rng.randint(1, 24), kden)
        sp = se.SpectralParam(rs.vec(lam), k)
        if sp.is_generic():
            return sp


def _worse(worst: float, dev: float) -> float:
    """The larger of two deviations, NaN if either is NaN: `max(worst, dev)`
    keeps worst when dev is NaN, and a NaN deviation must fail its bound."""
    return math.nan if math.isnan(worst) or math.isnan(dev) else max(worst, dev)


def _chk_root_data(seed):
    for n in range(1, 5):
        delta = rs.delta(n)
        for w in dg.all_permutations(n + 1):
            a = rs.weyl_apply(w, delta)
            if rs.inner(a, a) != rs.inner(delta, delta):
                return False, f"Weyl image of delta changes norm at n={n}"
        for i, al in enumerate(rs.simple_roots(n)):
            if rs.inner(delta, al) != 1:
                return False, "pairing (delta, alpha_i) != 1"
            for j, L in enumerate(rs.fundamental_weights(n)):
                if rs.inner(L, al) != (1 if i == j else 0):
                    return False, "fundamental weight duality fails"
        if rs.rho(n, Q(5, 7)) != rs.scale(Q(5, 7), delta):
            return False, "rho != k delta"
        if len(rs.positive_roots(n)) != n * (n + 1) // 2:
            return False, "positive root count"
    return True, "isometry exhaustive n<=4; rho = k delta; weight duality"


def _chk_gamma_L(seed):
    rng = random.Random(seed)
    for n in (1, 2, 3):
        sp = random_generic(rng, n, Q(1, 4), 12)
        base = se.gamma_L(sp)
        for w in dg.all_permutations(n + 1):
            wl = rs.weyl_apply(w, sp.lam)
            if se.gamma_L(se.SpectralParam(wl, sp.k)) != base:
                return False, f"gamma(L) not Weyl invariant at n={n}"
    sp1 = se.SpectralParam(rs.vec([Q(3, 10), Q(-3, 10)]), Q(3, 2))
    if se.gamma_L(sp1) != 2 * Q(3, 10) ** 2 - Q(3, 2) ** 2 / 2:
        return False, "rank-1 value wrong"
    return True, "eigenvalue Weyl-invariant, exhaustive w, n<=3"


def _chk_symbols(seed):
    for n in (1, 2):
        k = Q(5, 7)
        nv = n + 1
        one = Poly.const(nv, 1)
        t0 = se.commuting_symbol_table(one, n, k, 2)
        if not (t0[(0,) * n] == one and all(p.is_zero for o, p in t0.items() if sum(o) > 0)):
            return False, "sigma=1 is not the identity operator"
        s1 = se.elementary_power_sum(nv, 1)
        t1 = se.commuting_symbol_table(s1, n, k, 2)
        if not (t1[(0,) * n] == s1 and all(p.is_zero for o, p in t1.items() if sum(o) > 0)):
            return False, "sigma=sum(lam) is not sum of derivatives"
        s2 = se.elementary_power_sum(nv, 2)
        t2 = se.commuting_symbol_table(s2, n, k, 2)
        L = se.l_operator_symbols(n, k, 2)
        rho = rs.rho(n, k)
        if t2[(0,) * n] != L[(0,) * n] + Poly.const(nv, rs.inner(rho, rho)):
            return False, "sigma=sum(lam^2) constant term is not L + (rho,rho)"
        for o, p in L.items():
            if sum(o) > 0 and t2[o] != p:
                return False, f"sigma=sum(lam^2) symbol differs from L at offset {o}"
        if not (se.weyl_invariance_check(t2, n, k) and se.weyl_invariance_check(t1, n, k)):
            return False, "invariance checker rejects a symmetric table"
        bad = dict(t2)
        off = next(o for o in bad if sum(o) == 1)
        bad[off] = bad[off] + Poly.const(nv, 1)
        if se.weyl_invariance_check(bad, n, k):
            return False, "invariance checker accepts a corrupted table"
    return True, "identity, first-order, and L operators reproduced; invariance checks"


def _chk_commutation(seed):
    for n in (1, 2):
        k = Q(2, 3)
        nv = n + 1
        a = se.commuting_symbol_table(se.elementary_power_sum(nv, 2), n, k, 3)
        b = se.commuting_symbol_table(se.elementary_power_sum(nv, 3), n, k, 3)
        comm = se.operator_commutator(a, b, n)
        if any(not p.is_zero for p in comm.values()):
            return False, f"[P2, P3] != 0 at n={n}"
    return True, "[P_2, P_3] = 0 through depth 3, exact"


def _chk_freudenthal(seed):
    rng = random.Random(seed)
    for n in (1, 2):
        for _ in range(5):
            sp = random_generic(rng, n, Q(1, 4), 12)
            for w in dg.all_permutations(n + 1):
                t = se.freudenthal_table_for_w(w, sp, 5 if n == 1 else 4)
                if se.residual_L(t) != 0:
                    return False, f"residual nonzero at n={n}"
    sp = se.SpectralParam(rs.vec([Q(3, 10), Q(-3, 10)]), Q(3, 2))
    for w in dg.all_permutations(2):
        t = se.freudenthal_table_for_w(w, sp, 8)
        oracle = se.a1_hypergeometric_coefficients(sp, w, 8)
        if [t.entries[(c,)] for c in range(9)] != oracle:
            return False, "A1 ODE oracle mismatch"
    try:
        se.freudenthal_table_for_w(dg.Permutation((1, 2)), se.SpectralParam((Q(0), Q(0)), Q(1, 2)), 2)
        return False, "lambda=0 accepted"
    except se.ResonanceError:
        pass
    return True, "residual exactly 0 (n<=2, all w); A1 oracle equal to depth 8; resonance raises"


@functools.cache
def _diagrams(r: int) -> tuple[dg.Diagram, ...]:
    """all_diagrams(r), enumerated once for every exhaustive r <= 6 check."""
    return tuple(dg.all_diagrams(r))


def _chk_diagram_validity(seed):
    for r in range(1, 7):
        for d in _diagrams(r):
            for j in range(1, r):
                for i in range(1, j + 1):
                    if d.is_marked(d.target((i, j))):
                        return False, "marked target"
    return True, "targets never marked, exhaustive r<=6"


def _chk_bijection(seed):
    for r in range(1, 7):
        seen = set()
        for d in _diagrams(r):
            w = d.to_permutation()
            seen.add(w.images)
            if dg.Diagram.from_permutation(w) != d:
                return False, f"roundtrip fails at marks {d.marks}"
        if len(seen) != len(_diagrams(r)):
            return False, f"not injective at r={r}"
        if len(seen) != math.factorial(r):
            return False, f"not onto S_r at r={r}"
    return True, "diagrams <-> S_r bijective, exhaustive r<=6"


def _chk_top_mark(seed):
    for r in range(1, 7):
        for d in _diagrams(r):
            if d.to_permutation()(d.marks[-1]) != 1:
                return False, "w(i_r) != 1"
    return True, "w(i_r) = 1, exhaustive r<=6"


def _chk_component_rule(seed):
    for r in range(1, 7):
        for d in _diagrams(r):
            # every point's target chain ends at one top-row point, and the
            # arrows form a forest rooted there, so the undirected component
            # of (i, r) is the set of points whose chain ends at (i, r):
            # label each point once, rows top-down, and count the labels
            label = {(i, r): i for i in range(1, r + 1)}
            for j in range(r - 1, 0, -1):
                for i in range(1, j + 1):
                    label[(i, j)] = label[d.target((i, j))]
            sizes = [0] * (r + 1)
            for i in label.values():
                sizes[i] += 1
            if tuple(sizes[1:]) != d.to_permutation().images:
                return False, "component size != w(i)"
    return True, "undirected component size equals w(i), exhaustive r<=6"


def _chk_length(seed):
    for r in range(1, 7):
        for d in _diagrams(r):
            if d.length() != d.to_permutation().inversions():
                return False, f"length != inversions at {d.marks}"
    return True, "sum(i_j - 1) = inversion count, exhaustive r<=6"


def _chk_left_arrows(seed):
    for r in range(1, 7):
        for d in _diagrams(r):
            if d.left_arrow_count() != d.length():
                return False, "left arrows != length"
    return True, "column-keeping arrows = length, exhaustive r<=6"


def _chk_poincare(seed):
    for n in range(1, 8):
        if dg.poincare_sum(n) != dg.poincare_product(n):
            return False, f"Poincare identity fails at n={n}"
    return True, "sum q^l(w) = prod (1-q^j)/(1-q), n<=7"


def _chk_multiparam(seed):
    for n in range(1, 6):
        if dg.multiparam_sum(n) != dg.multiparam_product(n):
            return False, f"multiparametric identity fails at n={n}"
        if dg.specialize_to_single_q(dg.multiparam_sum(n)) != dg.poincare_sum(n):
            return False, "specialization q_j = q fails"
    return True, "multiparametric identity + specialization, n<=5"


def _chk_words(seed):
    for r in range(1, 7):
        for d in _diagrams(r):
            word = d.reduced_word()
            if dg.evaluate_word(word, r) != d.to_permutation() or len(word) != d.length():
                return False, f"word fails at {d.marks}"
    return True, "block words multiply back to w with l(w) factors, exhaustive r<=6"


def _chk_order(seed):
    for n in range(1, 6):
        perms = list(dg.all_permutations(n))
        marks = [dg.Diagram.from_permutation(w).marks for w in perms]
        length = [dg.Diagram.from_permutation(w).length() for w in perms]
        idx = range(len(perms))  # the elements by position in perms
        above = [[v for v in idx if dg._marks_leq(marks[w], marks[v])] for w in idx]
        below: list[list[int]] = [[] for _ in idx]
        for w in idx:
            for v in above[w]:
                below[v].append(w)
        for w in idx:
            geq, leq = above[w], below[w]
            n_geq, n_leq, q_geq, q_leq = dg._order_values(marks[w])
            if len(geq) != n_geq or len(leq) != n_leq:
                return False, "closed-form counts differ from enumeration"
            if q_geq != dg.length_sum([perms[v] for v in geq]):
                return False, "q-polynomial (geq) differs"
            if q_leq != dg.length_sum([perms[v] for v in leq]):
                return False, "q-polynomial (leq) differs"
            if any(length[w] > length[v] for v in geq):
                return False, "monotonicity of length fails"
    return True, "counts, q-polynomials, and length monotonicity, exhaustive n<=5"


def _chk_gz(seed):
    rng = random.Random(seed)
    for n in range(1, 5):
        for _ in range(20):
            base = sorted(rng.sample(range(-40, 41), n))
            for w in dg.all_permutations(n):
                pat = dg.gz_pattern(w, base)
                if not pat.betweenness_holds():
                    return False, "betweenness fails"
                winv = w.inverse()
                expected = tuple(base[winv(i) - 1] for i in range(1, n + 1))
                if pat.weight() != expected:
                    return False, f"weight {pat.weight()} != {expected}"
        const = dg.gz_pattern(dg.Permutation.longest(n), [3] * n)
        if const.weight() != (3,) * n:
            return False, "constant-weight pattern fails"
    return True, "betweenness + weight = w-permuted lowest weight, n<=4, 20 weights"


def _chk_induction(seed):
    for r in range(1, 6):
        for w in dg.all_permutations(r):
            if not dg.stripped_relation_holds(w):
                return False, f"stripping relation fails at {w.images}"
    return True, "row-stripping reindexing rule, exhaustive n<=5"


def _chk_bump(seed):
    b = cy.BumpFn(0.1)
    if b(0.0) != 0.0 or b(1.0) != 0.0:
        return False, "bump nonzero at an endpoint"
    if abs(b(0.5) - 0.1) > 1e-15 or abs(b(0.25) - 0.05) > 1e-15:
        return False, "bump values off"
    if any(b(x) <= 0 for x in (1e-6, 0.3, 1 - 1e-6)):
        return False, "bump vanishes inside (0,1)"
    return True, "f(0)=f(1)=0, f(1/2)=eps, f(1/4)=eps/2, positive inside"


def _chk_cycles(seed):
    rng = random.Random(seed)
    import numpy as np

    for n, z in ((1, [1e-2, 1.0]), (2, [1e-4, 1e-2, 1.0])):
        for w in dg.all_permutations(n + 1):
            c = cy.cycle_for_w(w, z, 0.1)
            tau = np.array([[rng.random() for _ in range(2000)] for _ in range(c.naxes)])
            t = c.t_values(tau)
            for p in c.points:
                if not np.all(np.abs(t[p]) <= np.abs(t[c.diagram.target(p)]) + 1e-15):
                    return False, "modulus inequality violated"
            tv = cy.cycle_point(c, [0.0] * c.naxes)
            for p in c.points:
                if abs(tv[p] - tv[c.diagram.target(p)]) > 1e-14 * abs(tv[p]):
                    return False, "tau=0 does not collapse onto targets"
    return True, "|t| <= |t_tar| at 2000 random tau per w; tau=0 collapses"


def _chk_phases(seed):
    rng = random.Random(seed)
    import numpy as np

    lam = [Q(3, 10), Q(1, 7)]
    for n, z in ((1, [1e-2, 1.0]), (2, [1e-4, 1e-2, 1.0])):
        sp = se.SpectralParam(rs.vec(lam[:n] + [-sum(lam[:n])]), Q(3, 2))
        for w in dg.all_permutations(n + 1):
            c = cy.cycle_for_w(w, z, 0.1)
            tau0, args0 = cy.anchor_arguments(c, sp)
            for _ in range(2):
                tau1 = np.array([rng.uniform(0.05, 0.95) for _ in range(c.naxes)])
                coarse = cy.phase_continuation(c, sp, tau0, tau1, args0, steps=24)
                fine = cy.phase_continuation(c, sp, tau0, tau1, args0, steps=96)
                analytic = cy.factor_arguments(c, sp, tau1)
                if max(abs(a - b) for a, b in zip(coarse, fine)) > 1e-6:
                    return False, "granularity-dependent phases"
                if max(abs(a - b) for a, b in zip(coarse, analytic)) > 1e-6:
                    return False, "tracked phases differ from closed form"
    return True, "tracked = closed-form arguments, two granularities, n<=2"


_MELLIN_TOL = 1e-6  # relative deviation of a k = 1 integral from its Mellin value


def _mellin_agrees(value: complex, mell: complex) -> bool:
    """The k = 1 claim of Sec 0.15: the cycle integral `value` is the Mellin
    value `mell` to _MELLIN_TOL relative.  `hc integrate` reads this too."""
    return abs(value - mell) / abs(mell) <= _MELLIN_TOL


def _chk_form_structure(seed):
    lam = [Q(3, 10), Q(1, 7)]
    for n, z in ((1, [1e-2, 1.0]), (2, [1e-4, 1e-2, 1.0])):
        sp = se.SpectralParam(rs.vec(lam[:n] + [-sum(lam[:n])]), Q(3, 7))
        c = cy.cycle_for_w(dg.Permutation.identity(n + 1), z, 0.1)
        _, factors = cy.omega_factor_list(c, sp)
        nmono = sum(1 for f in factors if f.kind == "mono")
        nvan = sum(1 for f in factors if f.kind == "vanish")
        ncross = sum(1 for f in factors if f.kind == "diff" and f.pts[0][1] != f.pts[1][1])
        nwithin = sum(1 for f in factors if f.kind == "diff" and f.pts[0][1] == f.pts[1][1])
        N = n * (n + 1) // 2
        if nmono != N or nvan != N:
            return False, "monomial/vanishing factor counts off"
        if ncross + nvan != sum(j * (j + 1) for j in range(1, n + 1)):
            return False, "cross-row factor count off"
        if nwithin != sum(j * (j - 1) // 2 for j in range(1, n + 1)):
            return False, "within-row factor count off"
        sp1 = se.SpectralParam(sp.lam, Q(1))
        for w in dg.all_permutations(n + 1):
            quad = cy.QuadratureSpec(points_per_axis=41 if n == 2 else 121)
            val = cy.integrate_for_w(w, z, sp1, quad)
            mell = cy.mellin_value_at_unit_coupling(w, z, sp1)
            if not _mellin_agrees(val, mell):
                return False, f"k=1 Mellin reduction fails for w={w.images}"
    return True, "factor census matches the product form; k=1 reduces to Mellin value"


def _chk_leading(seed):
    sp = se.SpectralParam(rs.vec([Q(3, 10), Q(-3, 10)]), Q(3, 2))
    quad = cy.QuadratureSpec(points_per_axis=121)
    worst = 0.0
    for w in dg.all_permutations(2):
        est = cy.leading_coeff_estimate(w, sp, 1e-3, quad)
        a = cf.a_w(w, sp)
        worst = _worse(worst, abs(est - a) / abs(a))
    if not worst <= 1e-3:
        return False, f"leading coefficient off by {worst:.2e}"
    return True, f"n=1 both w: |estimate - a(w)|/|a(w)| = {worst:.2e} <= 1e-3"


def _chk_diffeq(seed):
    sp = se.SpectralParam(rs.vec([Q(3, 10), Q(-3, 10)]), Q(3, 2))
    quad = cy.QuadratureSpec(points_per_axis=121)
    target = float(se.gamma_L(sp))
    worst = 0.0
    for w in dg.all_permutations(2):
        got = cy.fd_eigenvalue(w, [1e-2, 1.0], sp, quad)
        worst = _worse(worst, abs(got - target) / abs(target))
    if not worst <= 1e-3:
        return False, f"eigenvalue off by {worst:.2e}"
    return True, f"finite-difference L reproduces the eigenvalue to {worst:.2e}"


def _chk_lemma64(seed):
    for n in (1, 2):
        if not cf.lemma_6_4_check(n, 0.5, seed=seed):
            return False, f"k=1/2 forced-zero case fails at n={n}"
        if not cf.lemma_6_4_check(n, 0.75, seed=seed + 1):
            return False, f"k=3/4 fails at n={n}"
        if not cf.lemma_6_4_check(n, 1.0, seed=seed + 2):
            return False, f"k=1 fails at n={n}"
    return True, "residual < 1e-9 at 100 points, n<=2, k in {1/2, 3/4, 1}"


def _chk_lemma65(seed):
    for n in (1, 2, 3):
        if not cf.lemma_6_5_check(n):
            return False, f"symbolic identity fails at n={n}"
    if [str(cf.lemma_sum_constant(n)) for n in (1, 2, 3)] != ["0", "2", "11"]:
        return False, "constants differ from the closed form"
    return True, "exact symbolic equality, n<=3, constants 0, 2, 11"


def _chk_sumid(seed):
    n = cf.sum_identity_check(200)
    if n is not None:
        return False, f"summation identity fails at n={n}"
    return True, "double sum equals (n-1)n(n+1)(3n+2)/24 for n<=200"


def _chk_opdam(seed):
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(20):
        # keep all four Beta arguments positive: 1 - 2s - k > 0
        k = Q(rng.randint(2, 8), 20) + Q(1, 40)
        s = Q(rng.randint(1, 5), 25) + Q(1, 53)
        sp = se.SpectralParam(rs.vec([s, -s]), k)
        for w in dg.all_permutations(2):
            got = cf.F_w_at_1(w, sp)
            m = rs.inner(rs.weyl_apply(w, sp.lam), rs.root(1, 1, 2))
            ref = cf.gauss_value_by_beta_quadrature(float(m), float(k))
            worst = _worse(worst, abs(got - ref) / abs(ref))
    if not worst <= 1e-10:
        return False, f"Gauss-summation oracle off by {worst:.2e}"
    return True, f"F_w(1) matches the Beta-quadrature Gauss oracle to {worst:.2e}"


def _chk_limit(seed):
    rng = random.Random(seed)
    worst = 0.0
    for n in (1, 2, 3):
        trials = 0
        while trials < 50:
            sp = random_generic(rng, n, Q(1, 5), 29)
            try:
                for w in dg.all_permutations(n + 1):
                    lhs = cf.limit_value(w, sp)
                    rhs = cf.a_w(w, sp) * cf.F_w_at_1(w, sp)
                    worst = _worse(worst, abs(lhs - rhs) / abs(rhs))
            except (cf.PoleError, ZeroDivisionError):
                continue
            trials += 1
    if not worst <= 1e-10:
        return False, f"limit != a*F by {worst:.2e}"
    return True, f"limit = a(w) F_w(1) to {worst:.2e}, 50 draws per rank, n<=3, all w"


SUITES = {
    "combinatorics": [
        ("Def 1.1 / Rem 1.2 diagrams", _chk_diagram_validity),
        ("Prop 2.2 bijection", _chk_bijection),
        ("Rem 2.3 top-row mark", _chk_top_mark),
        ("Rem 2.4 component rule", _chk_component_rule),
        ("Def 2.5 / Thm 2.6 length", _chk_length),
        ("Rem 2.7 left arrows", _chk_left_arrows),
        ("Thm 2.8 Poincare identity", _chk_poincare),
        ("Thm 2.9 multiparametric identity", _chk_multiparam),
        ("Thm 2.10 reduced words", _chk_words),
        ("Def 2.12 / Prop 2.13 order counts", _chk_order),
        ("Thm 3.1 GZ patterns", _chk_gz),
        ("Sec 6.2 induction mechanism", _chk_induction),
    ],
    "series": [
        ("Sec 0.2 root data", _chk_root_data),
        ("Sec 0.4 Harish-Chandra image of L", _chk_gamma_L),
        ("Thm 0.9(1-2) commuting symbols", _chk_symbols),
        ("Thm 0.9(3) pairwise commutation", _chk_commutation),
        ("Sec 0.14 Freudenthal recurrence", _chk_freudenthal),
    ],
    "integrals": [
        ("Def 4.1 bump", _chk_bump),
        ("Def 4.3 / Rem 4.4 cycles", _chk_cycles),
        ("Def 5.1 / 5.2 / Rem 5.3 phases", _chk_phases),
        ("Sec 0.15 algebraic integral form", _chk_form_structure),
        ("Thm 6.1 leading coefficient", _chk_leading),
        ("Thm 6.3 differential equation", _chk_diffeq),
    ],
    "identities": [
        ("Lemma 6.4 twisted Euler identity", _chk_lemma64),
        ("Lemma 6.5 Vandermonde identity", _chk_lemma65),
        ("Lemma 6.5 summation identity", _chk_sumid),
        ("Thm 6.7 Opdam value", _chk_opdam),
        ("Thm 6.8 unit-argument limit", _chk_limit),
    ],
}
