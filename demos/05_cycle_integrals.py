"""Quadrature of the multivalued form over the tower-of-loops cycles:
leading asymptotics, the closed-form coefficient, and the eigenvalue check."""

from fractions import Fraction as Q

from hccycles import closedforms as cf
from hccycles import cycles as cy
from hccycles import diagrams as dg
from hccycles import rootsystem as rs
from hccycles import series as se

sp = se.SpectralParam(rs.vec([Q(3, 10), Q(-3, 10)]), k=Q(3, 2))
quad = cy.QuadratureSpec(points_per_axis=121)

for w in dg.all_permutations(2):
    z = [1e-3, 1.0]
    value = cy.integrate_for_w(w, z, sp, quad)
    ratio = value / cy.leading_power(w, sp, z)
    a = cf.a_w(w, sp)
    est = cy.leading_coeff_estimate(w, sp, 1e-3, quad)
    print(f"w = {w.images}")
    print(f"  integral / z^(w.lambda+rho) = {ratio:.6f}")
    print(f"  a(w)                        = {a:.6f}")
    print(f"  Richardson estimate dev     = {abs(est - a) / abs(a):.2e}")

# The integral solves the second-order equation: apply L by central
# differences in log z and read off the eigenvalue.
ev = cy.fd_eigenvalue(dg.Permutation.identity(2), [1e-2, 1.0], sp, quad)
print("finite-difference eigenvalue:", ev)
print("(lambda,lambda) - (rho,rho) =", float(se.gamma_L(sp)))

# Independence of the regularization: bump height does not move the value.
z = [1e-3, 1.0]
v1 = cy.integrate_for_w(dg.Permutation.identity(2), z, sp, cy.QuadratureSpec(points_per_axis=161, epsilon=0.05))
v2 = cy.integrate_for_w(dg.Permutation.identity(2), z, sp, cy.QuadratureSpec(points_per_axis=161, epsilon=0.1))
print("bump independence:", abs(v1 - v2) / abs(v2))

# At k = 1 the form collapses to Mellin monomials with a closed form.
sp1 = se.SpectralParam(rs.vec([Q(3, 10), Q(-3, 10)]), Q(1))
v = cy.integrate_for_w(dg.Permutation((2, 1)), z, sp1, quad)
m = cy.mellin_value_at_unit_coupling(dg.Permutation((2, 1)), z, sp1)
print("k=1 quadrature vs closed form:", abs(v - m) / abs(m))
