"""Fixed-order Gauss quadrature on intervals, triangles and polygons.

One global rule per simplex type (degree 9 on intervals, degree 6 on
triangles) is used everywhere: exact for all products of piecewise-linear
reconstructions, and tight enough for the smooth trigonometric test fields
of the verification suite. Polygons are fanned into triangles from their
first vertex (``polygon_rule``), many at once.
"""

import numpy as np

# 5-point Gauss-Legendre on [0, 1]; weights sum to 1.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(5)
INTERVAL_NODES = 0.5 * (_GL_X + 1.0)
INTERVAL_WEIGHTS = 0.5 * _GL_W


def _perm3(a):
    b = 0.5 * (1.0 - a)
    return [[a, b, b], [b, a, b], [b, b, a]]


def _perm6(a, b):
    c = 1.0 - a - b
    return [[a, b, c], [a, c, b], [b, a, c], [b, c, a], [c, a, b], [c, b, a]]


# 12-point degree-6 rule on the reference triangle (Dunavant), barycentric
# coordinates; weights sum to 1.
TRIANGLE_BARY = np.array(
    _perm3(0.501426509658179)
    + _perm3(0.873821971016996)
    + _perm6(0.053145049844817, 0.310352451033784)
)
TRIANGLE_WEIGHTS = np.array(
    [0.116786275726379] * 3 + [0.050844906370207] * 3 + [0.082851075618374] * 6
)


def polygon_rule(polys, counts):
    """Quadrature on polygons by fanning triangles from vertex 0.

    Polygon p is ``polys[p, :counts[p]]`` with ``polys`` (P, k, 2); its fan
    triangles are (0, t + 1, t + 2) for t < counts[p] - 2, each carrying the
    degree-6 triangle rule scaled by its unsigned area: exact up to degree 6
    on a convex polygon, while the fan of a folded one covers part of it
    twice (see ``clipping``). Returns points
    (P, k - 2, n_q, 2) and weights (P, k - 2, n_q) for every fan slot; the
    weights of the slots past a polygon's fan (all of them when it has fewer
    than 3 vertices) are 0.
    """
    polys = np.asarray(polys, dtype=float)
    n_pairs, k = polys.shape[:2]
    n_tri = max(k - 2, 0)
    v0 = np.broadcast_to(polys[:, :1], (n_pairs, n_tri, 2))
    tris = np.stack([v0, polys[:, 1 : n_tri + 1], polys[:, 2:]], axis=2)  # (P, k - 2, 3, 2)
    area = 0.5 * np.abs(
        (tris[..., 1, 0] - tris[..., 0, 0]) * (tris[..., 2, 1] - tris[..., 0, 1])
        - (tris[..., 2, 0] - tris[..., 0, 0]) * (tris[..., 1, 1] - tris[..., 0, 1])
    )
    area = np.where(np.arange(n_tri) < np.asarray(counts)[:, None] - 2, area, 0.0)
    return TRIANGLE_BARY @ tris, area[..., None] * TRIANGLE_WEIGHTS
