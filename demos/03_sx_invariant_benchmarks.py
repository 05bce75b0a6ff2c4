"""The invariant S(X): the largest volume of a K-semistable log structure.

For a fixed toric X the supremum is realized by cutting the moment polytope
with a half-space perpendicular to its barycenter direction, with the cut
level chosen so the first moment along that direction vanishes.  For the
two degree-relevant threefolds the answer has a closed radical form, which
the exact optimizer reproduces: its integer root refinement is the only
root finder for w, and the radicals are printed beside it.
"""
from fanokit import geometry as geom
from fanokit import presets
from fanokit import sx_optimizer as sx
from fanokit.toric_heights import ToricLogFano, log_fano_degree

# The preset bodies are the real moment polytopes: P^3 blown up in a point as
# it is, P(O+O(2)) as its image under a determinant-2 map, a body symmetric
# about the axis (1, 1, 1); the optimizer divides the volume by that determinant.
maps = {"p3-blowup": "identity", "po-o2": [[1, 0, 0], [0, 1, 0], [-1, -1, 2]]}
for name in ("p3-blowup", "po-o2"):
    body, det = presets.SX_PRESETS[name]()
    result = sx.sx_invariant(body, det)
    print(f"{name}:")
    print(f"  normal-form map        {maps[name]}, |det| {det}")
    bary = geom.barycenter(body)
    print(f"  barycenter             {bary[0]} per coordinate (exact)")
    print(f"  rational cut-off       <u, x> <= {result.cutoff}, u = {result.direction}")
    print(f"  cut weight w           {result.cut_weight:.12f} (exact root refinement)")
    print(f"                         {presets.SX_CLOSED_FORM_W[name]:.12f} (Cardano radical)")
    print(f"  n! S(X)                {result.s_value:.6f}   "
          f"certified: {result.certified} (residual {result.residual:.1e})")

# Both values sit below the degree 54 of P^2 x P^1, which is the point:
# every K-semistable log structure on these threefolds stays within the gap.

# On the genuine P(O+O(2)) coordinates the barycenter direction is not a
# symmetry axis; the optimizer then only certifies an upper bound.
upper = sx.sx_invariant(geom.enumerate_vertices(presets.po_o2_polytope()))
print(f"unsymmetric coordinates: value {upper.s_value:.3f}, "
      f"certified: {upper.certified} -> upper bound only")

# The n = 2 classification table: P^2 blown up in m points has degree 9 - m,
# and P^1 x P^1 sits exactly on the gap bound 8.
print("\ntoric del Pezzo degrees (gap bound 8):")
surfaces = [("P2", presets.p2_blowup_polytope(0))]
surfaces += [(f"Bl_{m} P2", presets.p2_blowup_polytope(m)) for m in (1, 2, 3)]
surfaces.append(("P1xP1", presets.p1xp1_polytope()))
for label, h in surfaces:
    print(f"  {label:>8}: degree {log_fano_degree(ToricLogFano(h))}")
