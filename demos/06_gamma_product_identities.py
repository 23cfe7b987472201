"""The Gamma/sine product evaluators and the identities tying them together."""

import random
from fractions import Fraction as Q

from hccycles import closedforms as cf
from hccycles import diagrams as dg
from hccycles import rootsystem as rs
from hccycles.claims import _worse
from hccycles.series import SpectralParam

# The z -> 1 limit of the cycle integral factors as a(w) * F_w(1).
rng = random.Random(0)
for n in (1, 2, 3):
    lam = [Q(rng.randint(-20, 20), 41) + Q(1, 53) for _ in range(n)]
    lam.append(-sum(lam))
    sp = SpectralParam(rs.vec(lam), Q(rng.randint(7, 40), 29))
    worst = 0.0
    for w in dg.all_permutations(n + 1):
        lhs = cf.limit_value(w, sp)
        rhs = cf.a_w(w, sp) * cf.F_w_at_1(w, sp)
        worst = _worse(worst, abs(lhs - rhs) / abs(rhs))
    print(f"rank {n}: max |limit - a*F| / |a*F| over all w = {worst:.2e}")

# Rank-1 Opdam value against a pure-quadrature Gauss summation (no Gamma).
sp = SpectralParam(rs.vec([Q(1, 6), Q(-1, 6)]), Q(1, 5))
got = cf.F_w_at_1(dg.Permutation.identity(2), sp)
ref = cf.gauss_value_by_beta_quadrature(1 / 3, 1 / 5)
print("F_id(1):", got.real, " Beta-quadrature oracle:", ref)

# Reflection-formula rewriting is an internal consistency check.
a_direct = cf.a_w(dg.Permutation((2, 1)), SpectralParam(rs.vec([Q(3, 10), Q(-3, 10)]), Q(3, 2)))
a_refl = cf.a_w_product(dg.Permutation((2, 1)), SpectralParam(rs.vec([Q(3, 10), Q(-3, 10)]), Q(3, 2))
                        ).reflected().eval()
print("reflection rewrite deviation:", abs(a_direct - a_refl) / abs(a_direct))

# The Vandermonde differential identities behind the eigenvalue bookkeeping.
for n in (1, 2, 3):
    print(f"mixed Euler operator on Vandermonde, n={n}: "
          f"constant {cf.lemma_sum_constant(n)}, exact: {cf.lemma_6_5_check(n)}")
print("twisted version residual ok at k=3/4:", cf.lemma_6_4_check(2, 0.75, seed=1))
print("summation identity n<=50:", cf.sum_identity_check(50) is None)
