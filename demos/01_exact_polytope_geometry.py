"""Exact rational polytope geometry: representations, volume, barycenter.

Everything in the geometry kernel is a fractions.Fraction; volumes and
barycenters are exact, so "the barycenter is the origin" is a real
predicate, not a tolerance check.
"""
from fanokit import geometry as geom
from fanokit.geometry import HPolytope, VPolytope

# The anticanonical polytope of P^3: four half-spaces
#   x_i >= -1  and  x_1 + x_2 + x_3 <= 1.
p3 = HPolytope(3, (((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1),
                   ((-1, -1, -1), 1)))
verts = geom.enumerate_vertices(p3)
print("P^3 polytope vertices:")
for v in verts.vertices:
    print("   ", tuple(str(x) for x in v))

vol = geom.volume(verts)
print("volume:", vol, "=> degree", 6 * vol)           # (-K)^3 = 64
print("barycenter:", geom.barycenter(verts))          # exactly the origin

# Chop off the corner at (-1,-1,-1): the moment polytope of P^3 blown up
# in one point.
blown_up = geom.intersect_halfspace(verts, (-1, -1, -1), 1)
print("\nafter the corner cut:")
print("volume:", geom.volume(blown_up), "=> degree", 6 * geom.volume(blown_up))
print("barycenter:", geom.barycenter(blown_up))       # (1/14, 1/14, 1/14)

# The image under a linear map is the hull of the mapped vertices; volumes
# scale by |det|.
t = ((1, 0, 0), (0, 1, 0), (-1, -1, 2))
image = VPolytope.from_points(3, [tuple(sum(a * x for a, x in zip(row, p)) for row in t)
                                  for p in blown_up.vertices])
print("\ndeterminant-2 image volume:", geom.volume(image),
      "=", geom.integer_det(list(t)), "x", geom.volume(blown_up))

# Each polytope value carries its facets next to its vertices: the cut
# added one facet, the hull found the image's from its vertices, and going
# back to half-spaces reads them off without hulling the vertices.
print("\nfacets before and after the cut:", len(verts.facets), len(blown_up.facets))
print("facets of the determinant-2 image:")
for f in image.facets:
    print("    <%s, x> >= %s" % (f.normal, -f.offset))
again = geom.enumerate_vertices(HPolytope(blown_up.dim, blown_up.facets))
print("H/V round trip stable:", again == blown_up)
