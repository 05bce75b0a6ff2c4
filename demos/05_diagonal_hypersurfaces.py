"""Diagonal Fano hypersurfaces: height corrections and the bound chain.

For sum a_i x_i^d in P^{n+1} (Fano iff d <= n+1) the canonical height is
controlled by the height of projective space plus an explicit correction
in the coefficients; the sharper route goes through the degree-d cover of
the degree-one model branched over n+2 hyperplanes.
"""
from fractions import Fraction

from fanokit import arrangements as arr
from fanokit import hypersurfaces as hyp
from fanokit import toric_heights as th
from fanokit.hypersurfaces import DiagonalHypersurfaceSpec

# the headline bound: pn_height + correction, strict once d >= 2
for n, d, a in [(2, 1, (3, 1, 1, 1)),
                (2, 3, (1, 1, 1, 1)),
                (2, 3, (1, 1, 1, 8)),
                (3, 2, (2, -1, 1, 1, 5))]:
    spec = DiagonalHypersurfaceSpec(n, d, a)
    bound = hyp.diagonal_theorem_bound(spec)
    print(f"n={n} d={d} a={a}:")
    print(f"   correction   {bound.correction:12.6f}"
          f"   (exact reduction delta {2 * bound.correction:.6f})")
    print(f"   bound        {bound.report.value:12.6f}"
          f"   strict: {bound.strict}")
    print(f"   tighter      {bound.fermat.value + 2 * bound.correction:12.6f}"
          f"   vs pn_height({n}) = {th.pn_height(n).value:.6f}")

# the branch divisor of the cover is always a semistable arrangement
print("\nbranch arrangements:")
for d in (1, 2, 3):
    w = hyp.branch_arrangement(DiagonalHypersurfaceSpec(2, d, (1, 1, 1, 1)))
    print(f"   d={d}: weights {tuple(map(str, w.weights))}, semistable:",
          arr.is_arrangement_semistable(w))

# volume ratio bookkeeping: the cover has topological degree d^{n+1}
print("\ncover degree checks (topological vs volume ratio):")
for n, d in [(2, 2), (2, 3), (3, 4)]:
    ratio = Fraction(d * (n + 2 - d) ** n) / Fraction(n + 2 - d, d) ** n
    print(f"   n={n} d={d}: {d ** (n + 1)} == {ratio}")

# the degree ratio lambda and the Fermat bound it produces
print("\nlambda = V(X)/V(P^n) and the Fermat bound:")
for n, d in [(1, 2), (2, 2), (2, 3), (3, 4)]:
    lam = hyp.lambda_ratio(n, d)
    print(f"   n={n} d={d}: lambda = {lam}  bound = {hyp.fermat_height_bound(n, d).value:.6f}"
          f"  strict: {lam < 1}")
