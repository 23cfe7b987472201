import cmath
import json
import math
import random
from fractions import Fraction as Q

import pytest

from hccycles import diagrams as dg
from hccycles import rootsystem as rs
from hccycles import series as se
from hccycles.polynomial import Poly


def sp1(s=Q(3, 10), k=Q(3, 2)):
    return se.SpectralParam(rs.vec([s, -s]), k)


def random_generic(rng, n):
    while True:
        lam = [Q(rng.randint(-30, 30), 41) + Q(1, 53) for _ in range(n)]
        lam.append(-sum(lam))
        sp = se.SpectralParam(rs.vec(lam), Q(rng.randint(3, 30), 12) + Q(1, 17))
        if sp.is_generic():
            return sp


def test_spectral_param_validation():
    with pytest.raises(ValueError):
        se.SpectralParam(rs.vec([1, 1]), Q(1))
    sp = sp1()
    assert sp.rank == 1
    assert sp.is_generic()
    assert not se.SpectralParam(rs.vec([Q(1, 2), Q(-1, 2)]), Q(1)).is_generic()


def test_gamma_L():
    s, k = Q(3, 10), Q(3, 2)
    sp = sp1(s, k)
    assert se.gamma_L(sp) == 2 * s**2 - k**2 / 2
    sp0 = se.SpectralParam(rs.zero_vec(3), Q(2, 3))
    rho = sp0.rho
    assert se.gamma_L(sp0) == -rs.inner(rho, rho)


def test_gamma_L_weyl_invariance():
    rng = random.Random(4)
    for n in (1, 2, 3):
        sp = random_generic(rng, n)
        vals = set()
        for w in dg.all_permutations(n + 1):
            vals.add(se.gamma_L(se.SpectralParam(rs.weyl_apply(w, sp.lam), sp.k)))
        assert len(vals) == 1


# -- vector-form reference ------------------------------------------------------
# The recurrence and its residual as first written, on root vectors in the
# e-basis and inner products of Fraction tuples; the library works on index
# pairs and coordinate differences, and must agree with this exactly.


def _reference_offset_vector(n, offset):
    v = rs.zero_vec(n + 1)
    for c, alpha in zip(offset, rs.simple_roots(n)):
        if c:
            v = rs.add(v, rs.scale(c, alpha))
    return v


def _reference_freudenthal_table(mu, sp, depth, require_generic=True):
    mu = se._validate_mu(mu, sp)
    n = sp.rank
    if require_generic:
        for alpha in rs.positive_roots(n):
            pairing = rs.inner(sp.lam, rs.coroot(alpha))
            if pairing.denominator == 1:
                j = abs(int(pairing))
                nu = rs.add(mu, rs.scale(j, alpha))
                raise se.ResonanceError(
                    "resonant spectral parameter: (lambda, coroot of "
                    f"{tuple(map(str, alpha))}) = {pairing} is an integer; "
                    f"exponents collide at nu = {tuple(map(str, nu))}",
                    nu=nu,
                )

    wlam = rs.sub(mu, sp.rho)
    roots = rs.positive_roots(n)
    root_coords = se.root_offset_coords(n)
    table = {(0,) * n: Q(1)}

    for h in range(1, depth + 1):
        for offset in sorted(se.offsets_of_height(n, h)):
            beta = _reference_offset_vector(n, offset)
            nu_minus_rho = rs.add(wlam, beta)
            bracket = rs.inner(nu_minus_rho, nu_minus_rho) - rs.inner(wlam, wlam)
            rhs = Q(0)
            nu = rs.add(mu, beta)
            for alpha, coords in zip(roots, root_coords):
                j = 1
                while True:
                    lower = tuple(c - j * rc for c, rc in zip(offset, coords))
                    if any(c < 0 for c in lower):
                        break
                    term = rs.inner(rs.sub(nu, rs.scale(j, alpha)), alpha)
                    rhs += term * table[lower]
                    j += 1
            rhs *= 2 * sp.k
            if bracket == 0:
                raise se.ResonanceError(
                    "resonant spectral parameter: recurrence bracket vanishes "
                    f"at nu = {tuple(map(str, nu))}",
                    nu=nu,
                )
            table[offset] = rhs / bracket

    return se.CoeffTable(mu=mu, k=sp.k, depth=depth, entries=table)


def _reference_residual_L(table):
    n = table.rank
    k = table.k
    rho = rs.rho(n, k)
    wlam = table.wlam
    lam_norm2 = rs.inner(wlam, wlam)
    eigen = lam_norm2 - rs.inner(rho, rho)
    roots = rs.positive_roots(n)
    root_coords = se.root_offset_coords(n)

    worst = Q(0)
    for offset, g in table.entries.items():
        nu = rs.add(rs.add(wlam, rho), _reference_offset_vector(n, offset))
        acc = (rs.inner(nu, nu) - 2 * rs.inner(rho, nu) - eigen) * g
        for alpha, coords in zip(roots, root_coords):
            m = 1
            while True:
                lower = tuple(c - m * rc for c, rc in zip(offset, coords))
                if any(c < 0 for c in lower):
                    break
                acc -= 2 * k * rs.inner(rs.sub(nu, rs.scale(m, alpha)), alpha) * table.entries[lower]
                m += 1
        worst = max(worst, abs(acc))
    return worst


# -- Fraction reference ------------------------------------------------------------
# The recurrence and its residual on index pairs in Fraction arithmetic, one
# gcd per operation, as the library computed them before it moved to integers
# over one denominator; the library must give equal tables, in the same
# order, the same ResonanceError and the same residual.


def _bracket(wlam, beta):
    return 2 * sum((x * c for x, c in zip(wlam, beta) if c), Q(0)) + sum(c * c for c in beta)


def _fraction_freudenthal_table(mu, sp, depth):
    mu = se._validate_mu(mu, sp)
    n = sp.rank
    pairs = rs.positive_root_pairs(n)
    for a, b in pairs:
        pairing = sp.lam[a] - sp.lam[b]
        if pairing.denominator == 1:
            alpha = rs.root(n, a + 1, b + 1)
            nu = rs.add(mu, rs.scale(abs(int(pairing)), alpha))
            raise se.ResonanceError(
                "resonant spectral parameter: (lambda, coroot of "
                f"{tuple(map(str, alpha))}) = {pairing} is an integer; "
                f"exponents collide at nu = {tuple(map(str, nu))}",
                nu=nu,
            )
    wlam = rs.sub(mu, sp.rho)
    gaps = [(a, b, mu[a] - mu[b]) for a, b in pairs]
    table = {(0,) * n: Q(1)}
    for h in range(1, depth + 1):
        for offset in sorted(se.offsets_of_height(n, h)):
            beta = se.offset_vector(n, offset)
            bracket = _bracket(wlam, beta)
            if bracket == 0:
                nu = rs.add(mu, beta)
                raise se.ResonanceError(
                    "resonant spectral parameter: recurrence bracket vanishes "
                    f"at nu = {tuple(map(str, nu))}",
                    nu=nu,
                )
            rhs = Q(0)
            for a, b, gap in gaps:
                nu_ab = gap + beta[a] - beta[b]
                for j, lower in se._lowered(offset, a, b):
                    rhs += (nu_ab - 2 * j) * table[lower]
            table[offset] = 2 * sp.k * rhs / bracket
    return se.CoeffTable(mu=mu, k=sp.k, depth=depth, entries=table)


def _fraction_residual_L(table):
    n = table.rank
    two_k = 2 * table.k
    wlam = table.wlam
    gaps = [(a, b, table.mu[a] - table.mu[b]) for a, b in rs.positive_root_pairs(n)]
    worst = Q(0)
    for offset, g in table.entries.items():
        beta = se.offset_vector(n, offset)
        acc = _bracket(wlam, beta) * g
        for a, b, gap in gaps:
            nu_ab = gap + beta[a] - beta[b]
            for m, lower in se._lowered(offset, a, b):
                acc -= two_k * (nu_ab - 2 * m) * table.entries[lower]
        worst = max(worst, abs(acc))
    return worst


def _outcome(build, *args):
    """The table's entries as a list (values and order), or the
    ResonanceError's message and nu."""
    try:
        return list(build(*args).entries.items())
    except se.ResonanceError as exc:
        return str(exc), exc.nu


@pytest.mark.parametrize("n, depth, ks", [
    (1, 40, (None, Q(0), Q(-5, 3), Q(2))),
    (2, 12, (None, Q(-1, 2), Q(1))),
    (3, 6, (None, Q(-2, 5), Q(3))),
])
def test_integer_recurrence_matches_fraction_reference(n, depth, ks):
    # seeded generic draws, with k > 0, k <= 0 and integer k; every w
    rng = random.Random(100 + n)
    raised = 0
    for k in ks:
        sp = random_generic(rng, n)
        if k is not None:
            sp = se.SpectralParam(sp.lam, k)
        for w in dg.all_permutations(n + 1):
            mu = rs.add(rs.weyl_apply(w, sp.lam), sp.rho)
            want = _outcome(_fraction_freudenthal_table, mu, sp, depth)
            try:
                t = se.freudenthal_table(mu, sp, depth)
            except se.ResonanceError as exc:
                assert (str(exc), exc.nu) == want
                raised += 1
                continue
            assert list(t.entries.items()) == want
            assert all(type(g) is Q for g in t.entries.values())
            assert se.residual_L(t) == 0
    assert raised < len(ks) * math.factorial(n + 1)


def test_integer_recurrence_resonance_matches_fraction_reference():
    # draws with small denominators: integer pairings and vanishing
    # brackets both occur, and must raise the same ResonanceError
    rng = random.Random(21)
    kinds = set()
    for n, depth in ((1, 8), (2, 5), (3, 4)):
        for _ in range(12):
            lam = [Q(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n)]
            lam.append(-sum(lam))
            sp = se.SpectralParam(rs.vec(lam), Q(rng.randint(-4, 8), rng.choice((1, 2, 3))))
            for w in dg.all_permutations(n + 1):
                mu = rs.add(rs.weyl_apply(w, sp.lam), sp.rho)
                got = _outcome(se.freudenthal_table, mu, sp, depth)
                assert got == _outcome(_fraction_freudenthal_table, mu, sp, depth)
                if isinstance(got, tuple):
                    kinds.add("coroot" if "coroot" in got[0] else "bracket")
    assert kinds == {"coroot", "bracket"}


def test_integer_residual_matches_fraction_reference_on_corrupted_tables():
    rng = random.Random(5)
    for n, depth in ((1, 10), (2, 5), (3, 4)):
        sp = random_generic(rng, n)
        for w in list(dg.all_permutations(n + 1))[:3]:
            t = se.freudenthal_table_for_w(w, sp, depth)
            offsets = list(t.entries)
            for off, delta in ((offsets[-1], Q(1, 1000)), (offsets[len(offsets) // 2], Q(-7, 3)),
                               (offsets[1], -t.entries[offsets[1]])):
                bad = se.CoeffTable(t.mu, t.k, t.depth, {**t.entries, off: t.entries[off] + delta})
                got = se.residual_L(bad)
                assert type(got) is Q and got == _fraction_residual_L(bad) != 0


def test_offset_vector_is_prefix_difference():
    for n in (1, 2, 3, 4):
        for h in range(5):
            for offset in se.offsets_of_height(n, h):
                assert se.offset_vector(n, offset) == _reference_offset_vector(n, offset)
    with pytest.raises(ValueError):
        se.offset_vector(2, (1,))


def test_root_pairs_match_root_vectors():
    for n in (1, 2, 3, 4):
        roots = rs.positive_roots(n)
        for (a, b), alpha in zip(rs.positive_root_pairs(n), roots, strict=True):
            assert a < b and alpha[a] == 1 and alpha[b] == -1 and sum(map(abs, alpha)) == 2
        for coords, alpha in zip(se.root_offset_coords(n), roots, strict=True):
            assert _reference_offset_vector(n, coords) == alpha


def test_freudenthal_matches_vector_form_reference():
    rng = random.Random(11)
    for n, depth in ((1, 12), (2, 6), (3, 4)):
        for _ in range(2):
            sp = random_generic(rng, n)
            for w in dg.all_permutations(n + 1):
                mu = rs.add(rs.weyl_apply(w, sp.lam), sp.rho)
                t = se.freudenthal_table(mu, sp, depth)
                ref = _reference_freudenthal_table(mu, sp, depth)
                assert list(t.entries.items()) == list(ref.entries.items())
                assert se.residual_L(t) == 0
    # corrupt the last (rank-3) table: both residuals see the same defect
    t.entries[(1, 1, 0)] += Q(1, 1000)
    assert se.residual_L(t) == _reference_residual_L(t) != 0


def test_freudenthal_depth0_and_first_step():
    sp = sp1()
    w = dg.Permutation((1, 2))
    t0 = se.freudenthal_table_for_w(w, sp, 0)
    assert t0.entries == {(0,): Q(1)}
    t = se.freudenthal_table_for_w(w, sp, 1)
    s, k = Q(3, 10), Q(3, 2)
    assert t.entries[(1,)] == k * (2 * s + k) / (2 * s + 1)


def test_freudenthal_residual_exact_zero():
    rng = random.Random(7)
    for n in (1, 2):
        for _ in range(4):
            sp = random_generic(rng, n)
            for w in dg.all_permutations(n + 1):
                t = se.freudenthal_table_for_w(w, sp, 4)
                assert se.residual_L(t) == 0


def test_residual_detects_corruption():
    sp = sp1()
    t = se.freudenthal_table_for_w(dg.Permutation((1, 2)), sp, 4)
    t.entries[(2,)] += Q(1, 1000)
    assert se.residual_L(t) != 0


def test_a1_ode_oracle_exact_match():
    sp = sp1()
    for w in dg.all_permutations(2):
        t = se.freudenthal_table_for_w(w, sp, 8)
        oracle = se.a1_hypergeometric_coefficients(sp, w, 8)
        assert [t.entries[(c,)] for c in range(9)] == oracle


def test_resonance_flag_lambda_zero():
    sp = se.SpectralParam(rs.zero_vec(2), Q(1, 2))
    with pytest.raises(se.ResonanceError) as err:
        se.freudenthal_table(sp.rho, sp, 2)
    assert "resonant spectral parameter" in str(err.value)
    assert str(err.value) == (
        "resonant spectral parameter: (lambda, coroot of ('1', '-1')) = 0 is an integer; "
        "exponents collide at nu = ('1/4', '-1/4')"
    )
    assert err.value.nu == (Q(1, 4), Q(-1, 4)) and all(type(c) is Q for c in err.value.nu)
    # a nonzero integer pairing moves nu off mu by that multiple of the root
    sp = se.SpectralParam(rs.vec([Q(1, 2), Q(-1, 2), 0]), Q(1, 2))
    with pytest.raises(se.ResonanceError) as err:
        se.freudenthal_table_for_w(dg.Permutation.identity(3), sp, 2)
    assert str(err.value) == (
        "resonant spectral parameter: (lambda, coroot of ('1', '-1', '0')) = 1 is an integer; "
        "exponents collide at nu = ('2', '-3/2', '-1/2')"
    )
    assert err.value.nu == (Q(2), Q(-3, 2), Q(-1, 2)) and all(type(c) is Q for c in err.value.nu)


def test_resonance_bracket_mid_cone():
    # all root pairings non-integral, yet the bracket vanishes at 2a1 + a2
    sp = se.SpectralParam(rs.vec([-1, Q(1, 3), Q(2, 3)]), Q(1, 2))
    assert sp.is_generic()
    for a in rs.positive_roots(2):
        assert rs.inner(sp.lam, rs.coroot(a)).denominator != 1
    with pytest.raises(se.ResonanceError) as err:
        se.freudenthal_table_for_w(dg.Permutation.identity(3), sp, 3)
    assert err.value.nu is not None
    assert str(err.value) == (
        "resonant spectral parameter: recurrence bracket vanishes at nu = ('3/2', '-2/3', '-5/6')"
    )
    assert err.value.nu == (Q(3, 2), Q(-2, 3), Q(-5, 6)) and all(type(c) is Q for c in err.value.nu)


def test_mu_validation():
    sp = sp1()
    with pytest.raises(ValueError):
        se.freudenthal_table(rs.vec([1, 1]), sp, 1)


def test_phi_eval_depth0_is_leading_power():
    sp = sp1()
    w = dg.Permutation((2, 1))
    t = se.freudenthal_table_for_w(w, sp, 0)
    z = [1e-3, 1.0]
    mu = t.mu
    val = se.phi_eval(t, z)
    direct = z[0] ** float(mu[0]) * z[1] ** float(mu[1])
    assert abs(val - direct) < 1e-15 * abs(direct)


def test_phi_eval_ordering_error():
    sp = sp1()
    t = se.freudenthal_table_for_w(dg.Permutation((1, 2)), sp, 2)
    with pytest.raises(ValueError):
        se.phi_eval(t, [1.0, 0.5])


def test_phi_eval_term_decay():
    sp = sp1()
    t = se.freudenthal_table_for_w(dg.Permutation((1, 2)), sp, 8)
    mags = se.series_terms_by_depth(t, [1e-3, 1.0])
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_phi_eval_sums_whole_table():
    # phi_eval takes no depth: it sums every entry of the table
    t = se.freudenthal_table_for_w(dg.Permutation((2, 1)), sp1(), 4)
    z = [1e-1, 1.0]
    r = complex(z[0] / z[1])
    head = complex(z[0]) ** float(t.mu[0]) * complex(z[1]) ** float(t.mu[1])
    whole = head * sum(complex(g) * r ** off[0] for off, g in t.entries.items())
    assert abs(se.phi_eval(t, z) - whole) <= 1e-14 * abs(whole)
    with pytest.raises(TypeError):
        se.phi_eval(t, z, 10)


def test_series_terms_sized_by_entries():
    # the per-depth sums run to the deepest entry, whatever the depth field
    # says, as phi_eval sums every entry; `from_json` sets the field so
    t = se.freudenthal_table_for_w(dg.Permutation((2, 1)), sp1(), 4)
    z = [1e-1, 1.0]
    mags = se.series_terms_by_depth(t, z)
    assert len(mags) == 5
    assert se.series_terms_by_depth(se.CoeffTable(t.mu, t.k, 2, t.entries), z) == mags
    assert se.series_terms_by_depth(se.CoeffTable.from_json(t.to_json()), z) == mags


def test_freudenthal_table_rejects_negative_depth():
    sp = sp1()
    with pytest.raises(ValueError, match="depth"):
        se.freudenthal_table_for_w(dg.Permutation((1, 2)), sp, -1)
    mu = rs.add(sp.lam, sp.rho)
    with pytest.raises(ValueError, match="depth"):
        se.freudenthal_table(mu, sp, -1)
    assert se.freudenthal_table(mu, sp, 0).entries == {(0,): 1}


def test_series_terms_need_asymptotic_zone():
    # both evaluations of the series make one zone check
    t = se.freudenthal_table_for_w(dg.Permutation((1, 2)), sp1(), 4)
    for z in ([2.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, float("inf")], [float("nan"), 1.0], [1e-3, 1.0, 2.0]):
        for fn in (se.phi_eval, se.series_terms_by_depth):
            with pytest.raises(ValueError):
                fn(t, z)


def _phi_eval_loop(table, z):
    """phi_eval as one loop of its own, as it was before the shared walk."""
    zs = [complex(v) for v in z]
    head = cmath.exp(sum(float(m) * cmath.log(zi) for m, zi in zip(table.mu, zs)))
    ratios = [zs[i] / zs[i + 1] for i in range(table.rank)]
    total = 0j
    for offset in sorted(table.entries, key=lambda o: (sum(o), o)):
        term = complex(table.entries[offset])
        for r, c in zip(ratios, offset):
            term *= r ** c
        total += term
    return head * total


def _terms_by_depth_loop(table, z):
    """series_terms_by_depth as one loop of its own, in the table's order."""
    zs = [complex(v) for v in z]
    ratios = [zs[i] / zs[i + 1] for i in range(table.rank)]
    sums = [0j] * (table.depth + 1)
    for offset, g in table.entries.items():
        term = complex(g)
        for r, c in zip(ratios, offset):
            term *= r ** c
        sums[sum(offset)] += term
    return [abs(s) for s in sums]


def test_series_walk_matches_separate_loops_bitwise():
    rng = random.Random(11)
    for n, depth in ((1, 6), (2, 4), (3, 3)):
        for _ in range(2):
            sp = random_generic(rng, n)
            zs = [[r ** (n - i) for i in range(n + 1)] for r in (0.02, 0.1)]
            zs.append([complex(0.3 ** (n - i)) * cmath.exp(0.4j * i) for i in range(n + 1)])
            for w in dg.all_permutations(n + 1):
                t = se.freudenthal_table_for_w(w, sp, depth)
                for z in zs:
                    got, want = se.phi_eval(t, z), _phi_eval_loop(t, z)
                    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
                    got = [m.hex() for m in se.series_terms_by_depth(t, z)]
                    assert got == [m.hex() for m in _terms_by_depth_loop(t, z)]


def test_table_offsets_respect_dominance():
    sp = sp1()
    for w in dg.all_permutations(2):
        t = se.freudenthal_table_for_w(w, sp, 4)
        for off in t.entries:
            nu = rs.add(t.mu, se.offset_vector(1, off))
            assert rs.dominance_leq(t.mu, nu)


def test_coefftable_json_roundtrip():
    sp = sp1()
    t = se.freudenthal_table_for_w(dg.Permutation((1, 2)), sp, 3)
    raw = json.loads(t.to_json())
    assert set(raw) == {"mu", "k", "entries"}
    assert raw["k"] == "3/2"
    back = se.CoeffTable.from_json(t.to_json())
    assert back.entries == t.entries
    assert back.mu == t.mu
    assert se.residual_L(back) == 0


@pytest.mark.parametrize("rank, offsets", [
    (1, [[0], [1, 0]]), (2, [[0]]), (1, [[0], [-1]]), (1, [[0], [0.5]]), (1, [[0], [True]]),
], ids=["long", "short", "negative", "fraction", "bool"])
def test_coefftable_json_rejects_bad_offsets(rank, offsets):
    # each offset is `rank` nonnegative integers; phi_eval zipped a wrong
    # length short, and residual_L alone refused it
    mu = [str(Q(m, 10)) for m in range(rank + 1)]
    text = json.dumps({"mu": mu, "k": "3/2", "entries": [{"offset": o, "value": "1/10"} for o in offsets]})
    with pytest.raises(ValueError, match=f"offset .* is not {rank} nonnegative integers"):
        se.CoeffTable.from_json(text)


@pytest.mark.parametrize("offsets, message", [
    ([[0], [1], [1]], r"offset \[1\] is repeated"),
    ([[1]], "the offsets are not every 1-tuple of height <= 1"),
    ([], "the offsets are not every 1-tuple of height <= 0"),
    ([[0], [2]], "the offsets are not every 1-tuple of height <= 2"),
], ids=["repeated", "no-leading", "empty", "gap"])
def test_coefftable_json_rejects_incomplete_tables(offsets, message):
    # a table holds each offset of height <= its depth once, as
    # freudenthal_table writes it; a repeated offset kept the last value, and
    # a missing one made residual_L raise KeyError
    text = json.dumps({"mu": ["1/5", "-1/5"], "k": "3/2",
                       "entries": [{"offset": o, "value": str(Q(1, 10 + i))} for i, o in enumerate(offsets)]})
    with pytest.raises(ValueError, match=message):
        se.CoeffTable.from_json(text)


def test_coefftable_rejects_incomplete_tables_when_built():
    # every path to a table checks its offsets: a table built directly with
    # offset (1,) deleted made residual_L raise KeyError and phi_eval sum it
    t = se.freudenthal_table_for_w(dg.Permutation((1, 2)), sp1(), 3)
    entries = dict(t.entries)
    del entries[(1,)]
    with pytest.raises(ValueError, match="the offsets are not every 1-tuple of height <= 3"):
        se.CoeffTable(t.mu, t.k, t.depth, entries)
    for bad in ((1, 0), (), (-1,), (0.5,), (4.0,), "1"):
        with pytest.raises(ValueError, match=r"offset .* is not 1 nonnegative integers"):
            se.CoeffTable(t.mu, t.k, t.depth, {**t.entries, bad: Q(0)})
    with pytest.raises(ValueError, match="the offsets are not every 1-tuple of height <= 0"):
        se.CoeffTable(t.mu, t.k, 0)


_TABLE = {"mu": ["1/5", "-1/5"], "k": "3/2", "entries": [{"offset": [0], "value": "1"}]}


@pytest.mark.parametrize("doc", [
    {**_TABLE, "entries": [{"offset": [0], "value": "1/0"}]},
    {**_TABLE, "k": "1/0"},
    {**_TABLE, "entries": [{"offset": [0], "value": None}]},
    {"mu": _TABLE["mu"], "k": "3/2"},
    [_TABLE],
    {**_TABLE, "entries": [{"offset": [0], "value": True}]},
    {**_TABLE, "entries": [{"offset": [0], "value": 0.1}]},
    {"mu": ["0"], "k": "3/2", "entries": [{"offset": [], "value": "1"}]},
], ids=["value-1/0", "k-1/0", "value-null", "no-entries", "list", "value-true", "value-float", "rank-0"])
def test_coefftable_json_rejects_malformed_documents(doc):
    # the JSON comes from outside: each of these raised ZeroDivisionError,
    # TypeError or KeyError, or loaded (true as 1, 0.1 as its binary float,
    # a rank-0 table that residual_L then refused); values, mu and k are
    # rational strings, as as_dict writes them, or ints that are not bools
    with pytest.raises(ValueError):
        se.CoeffTable.from_json(json.dumps(doc))
    good = se.CoeffTable.from_json(json.dumps({"mu": ["1/5", "-1/5"], "k": 2, "entries": [{"offset": [0], "value": 1}]}))
    assert (good.k, good.entries) == (2, {(0,): 1})


def test_symbol_table_identity_and_first_order():
    for n in (1, 2):
        k = Q(5, 7)
        nv = n + 1
        tab = se.commuting_symbol_table(Poly.const(nv, 1), n, k, 2)
        assert tab[(0,) * n] == Poly.const(nv, 1)
        assert all(p.is_zero for o, p in tab.items() if sum(o) > 0)
        s1 = se.elementary_power_sum(nv, 1)
        tab1 = se.commuting_symbol_table(s1, n, k, 2)
        assert tab1[(0,) * n] == s1  # sum(lam - rho) = sum(lam)
        assert all(p.is_zero for o, p in tab1.items() if sum(o) > 0)


def test_symbol_table_reproduces_L():
    for n in (1, 2):
        k = Q(5, 7)
        nv = n + 1
        tab = se.commuting_symbol_table(se.elementary_power_sum(nv, 2), n, k, 3)
        L = se.l_operator_symbols(n, k, 3)
        rho = rs.rho(n, k)
        assert tab[(0,) * n] == L[(0,) * n] + Poly.const(nv, rs.inner(rho, rho))
        for off, p in L.items():
            if sum(off) > 0:
                assert tab[off] == p


def test_symbol_tables_reject_negative_depth():
    # both used to return the depth-0 table
    p2 = se.elementary_power_sum(3, 2)
    with pytest.raises(ValueError, match="depth must be >= 0, got -1"):
        se.commuting_symbol_table(p2, 2, Q(2, 3), -1)
    with pytest.raises(ValueError, match="depth must be >= 0, got -2"):
        se.l_operator_symbols(2, Q(2, 3), -2)
    assert list(se.commuting_symbol_table(p2, 2, Q(2, 3), 0)) == [(0, 0)]
    assert list(se.l_operator_symbols(2, Q(2, 3), 0)) == [(0, 0)]


def test_symbol_table_requires_symmetric():
    with pytest.raises(ValueError):
        se.commuting_symbol_table(Poly.var(2, 0), 1, Q(1, 2), 1)


def test_weyl_invariance_checker():
    for n in (1, 2):
        k = Q(2, 3)
        nv = n + 1
        tab = se.commuting_symbol_table(se.elementary_power_sum(nv, 3), n, k, 2)
        assert se.weyl_invariance_check(tab, n, k)
        bad = dict(tab)
        off = next(o for o in bad if sum(o) == 1)
        bad[off] = bad[off] + Poly.const(nv, Q(1, 5))
        assert not se.weyl_invariance_check(bad, n, k)
        bad0 = dict(tab)
        zero = (0,) * n
        bad0[zero] = bad0[zero] + Poly.var(nv, 0)
        assert not se.weyl_invariance_check(bad0, n, k)


def test_commutators_vanish():
    for n in (1, 2):
        k = Q(2, 3)
        nv = n + 1
        a = se.commuting_symbol_table(se.elementary_power_sum(nv, 2), n, k, 3)
        b = se.commuting_symbol_table(se.elementary_power_sum(nv, 3), n, k, 3)
        comm = se.operator_commutator(a, b, n)
        assert all(p.is_zero for p in comm.values())
        # and each commutes with L itself (the recurrence residuals vanish)
        res = se.symbol_recurrence_residuals(b, n, k)
        assert all(p.is_zero for p in res.values())
