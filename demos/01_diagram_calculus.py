"""Marked diagrams and the symmetric group: the bijection, lengths,
reduced words, and the counting identities."""

from hccycles import diagrams as dg

# Every choice of one mark per row (1 <= i_j <= j) is a diagram, and
# diagrams with r rows biject with S_r.
d = dg.Diagram((1, 2, 2))
w = d.to_permutation()
print("marks", d.marks, "-> w =", w.images)                # (3, 1, 2)
print("roundtrip marks:", dg.Diagram.from_permutation(w).marks)

# The Coxeter length is just sum(i_j - 1), and it matches inversion count.
print("length:", d.length(), "= inversions:", w.inversions())

# A reduced word comes straight off the marks, block by block.
word = d.reduced_word()
print("reduced word:", word, "->", dg.evaluate_word(word, 3).images)

# Poincare polynomial of S_4, brute force vs product formula.
lhs = dg.poincare_sum(4)
rhs = dg.poincare_product(4)
print("sum q^l(w) over S_4:", list(lhs))
print("product formula:    ", list(rhs))
print("equal:", lhs == rhs)

# The multiparametric refinement tracks each row's mark separately.
print("multiparametric n=3 equal:", dg.multiparam_sum(3) == dg.multiparam_product(3))

# Componentwise order on marks: counts above/below any element factor.
w0 = dg.Permutation.longest(4)
print("elements >= w0:", dg.count_geq(w0), " elements <= w0:", dg.count_leq(w0))
e = dg.Permutation.identity(4)
print("q-count of {v >= id} is the Poincare polynomial:",
      dg.qpoly_geq(e) == dg.poincare_sum(4))
