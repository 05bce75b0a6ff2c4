"""The canonical height of the projective line with three marked points,
in closed form through the Hurwitz zeta function and its s-derivative.

With weights w_1, w_2, w_3 and degree V = 2 - sum(w), the height divided
by 2V is an explicit combination of F(x) = zeta(-1, x) + zeta'(-1, x).
At w = 0 it degenerates to the height of the bare projective line, and for
V < 0 the formula continues real-analytically.
"""
from fractions import Fraction as F

from fanokit import toric_heights as th
from fanokit import zeta
from fanokit.zeta import ZetaHeightInput

# building blocks
print("zeta(-1, 1/2)   =", zeta.hurwitz_zeta(0.5).value, " (= 1/24)")
print("zeta'(-1, 1)    =", zeta.hurwitz_zeta(1.0).derivative,
      " (= 1/12 - log A)")
z = zeta.hurwitz_zeta(1.0)
print("F(1) = -log A   =", z.value + z.derivative)

# the unweighted case recovers the Fubini-Study height of P^1
rep = zeta.p1_canonical_height(ZetaHeightInput(F(0), F(0), F(0)))
print("\nh(P^1, no weights) =", rep.value,
      " vs closed form", th.pn_height(1).value)

# orbifold-style weights 1 - 1/m; m = 3 is excluded (V = 0 exactly),
# and m >= 4 lands on the continuation branch
print("\nweighted examples:")
for m in (2, 4, 5):
    w = 1 - F(1, m)
    inp = ZetaHeightInput(w, w, w)
    rep = zeta.p1_canonical_height(inp)
    print(f"   w = (1-1/{m})^3: V = {inp.v},  h = {rep.value:.9f}"
          f"  [{rep.formula.split('[')[1]}")

# the continuation branch: weight sum above 2
inp = ZetaHeightInput(F(9, 10), F(9, 10), F(9, 10))
rep = zeta.p1_canonical_height(inp)
print(f"\ncontinuation (V = {inp.v}): value = {rep.value:.9f}")

# precision is certified; tightening the target moves nothing beyond the bound
a = zeta.p1_canonical_height(ZetaHeightInput(F(1, 2), F(1, 3), F(1, 5)), 1e-9)
b = zeta.p1_canonical_height(ZetaHeightInput(F(1, 2), F(1, 3), F(1, 5)), 1e-14)
print(f"\ntarget stability: |{a.value:.12f} - {b.value:.12f}|"
      f" = {abs(a.value - b.value):.2e} <= {a.abs_error:.2e}")

# the Mabuchi-functional floor on integral models of the line
print("\nMabuchi constant:", zeta.mabuchi_p1_constant(), "= -(1 + log pi)")
