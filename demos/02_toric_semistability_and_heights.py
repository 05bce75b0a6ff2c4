"""K-semistability of toric log Fano pairs and the closed-form heights.

A toric log Fano pair is K-semistable exactly when the barycenter of its
moment polytope is the origin.  The height of projective space with the
volume-normalized Fubini-Study metric has a closed form, and every other
height here is measured against it.
"""
from fractions import Fraction as F

from fanokit import presets
from fanokit import toric_heights as th
from fanokit.toric_heights import ToricLogFano

# Projective space is K-semistable; the blow-up of P^3 in a point is not.
for label, poly in [("P^3", presets.pn_polytope(3)),
                    ("Bl_pt P^3", presets.p3_blowup_polytope()),
                    ("P(O+O(2))", presets.po_o2_polytope()),
                    ("P^2 x P^1", presets.pn_times_p1_polytope(3))]:
    t = ToricLogFano(poly)
    print(f"{label:>10}: degree {th.log_fano_degree(t)}, "
          f"K-semistable: {th.is_k_semistable(t)}")

# The height of P^n and its normalization a_n = h / (n+1)^{n+1}.
print("\nheights of projective space:")
for n in range(1, 7):
    rep = th.pn_height(n)
    print(f"  n={n}: h = {rep.value:16.6f}   a_n = {th.a_n_constant(n):.6f}")

# Scaling the standard toric boundary divisor: (P^n, (1-t) D_0) is
# K-semistable for every t, and its height increases with t.
print("\nheight along the divisor family on P^2:")
for t in (F(1, 4), F(1, 2), F(3, 4), F(1)):
    rep = th.scaled_divisor_height(2, t)
    print(f"  t = {t}: h = {rep.value:12.6f}")

# Every toric log Fano height obeys the universal volume bound; the P^2
# moment polytope has volume 3^2 / 2!.
bound = th.universal_height_bound(2, F(9, 2))
print(f"\nuniversal bound at the P^2 volume: {bound.value:.6f}"
      f"  >=  pn_height(2) = {th.pn_height(2).value:.6f}")

# Diagnostics: the |det| of each vertex cone, which the moment polytope keeps
# (None at a non-simple vertex), detects singularities; integrality of
# vertices detects the Gorenstein property.
p112 = ToricLogFano(presets.weighted_p112_polytope())
print("\nP(1,1,2) vertex determinants:",
      [d for _, d in p112.polytope.cones],
      "Gorenstein:", th.is_gorenstein(p112))
p113 = ToricLogFano(presets.weighted_p113_polytope())
print("P(1,1,3) vertex determinants:",
      [d for _, d in p113.polytope.cones],
      "Gorenstein:", th.is_gorenstein(p113))

# The volume-gap verdict for some K-semistable examples.
for label, poly in [("P^3", presets.pn_polytope(3)),
                    ("P^2 x P^1", presets.pn_times_p1_polytope(3)),
                    ("hexagonal del Pezzo", presets.p2_blowup_polytope(3)),
                    ("log P(1,1,2)", presets.weighted_p112_centered())]:
    rep = th.gap_check(ToricLogFano(poly))
    print(f"{label:>20}: {rep.verdict.value:13}"
          f" (volume {rep.poly_volume} vs gap bound {rep.gap_threshold})")
