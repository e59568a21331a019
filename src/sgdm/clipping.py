"""Batched Sutherland-Hodgman clipping for translate-overlap integrals.

``clip_polygon`` clips every subject polygon by its own counter-clockwise
clipper, all pairs at once: one pass per clipper edge over (P, k, 2) vertex
arrays, polygon p holding the first ``counts[p]`` rows. The intersection of
two convex polygons is convex, but rounding in the inside test can make a
nearly degenerate clip retrace itself: on ``build_uniform_triangulation(8,
8)``, cell 29 shifted by (0.1, 0) and clipped by cell 13 gives the folded
``[[.025, .775], [.125, .875], [0, .875], [.025, .875]]``, whose unsigned fan
area in ``quadrature.polygon_rule`` is 0.0075 where the overlap is 0.005.
"""

import numpy as np

# consecutive vertices closer than this, relative to the polygon's largest
# coordinate (at least 1), are merged
_DEDUPE_TOL = 1e-13


def clip_polygon(subjects, clippers):
    """Clip each subject polygon by its clipper (both counter-clockwise).

    ``subjects`` is (P, k_s, 2) and ``clippers`` (P, k_c, 2). Returns
    ``(polys, counts)``: polygon p is ``polys[p, :counts[p]]``, possibly
    empty, and the rows past it are padding. Each pass keeps the vertices on
    the inner side of a clipper edge (cross product >= 0) and inserts the
    crossings of the subject's edges with that edge's line, in the subject's
    vertex order. Then every vertex within the tolerance of the last vertex
    kept before it is dropped, and so is the last one kept if it is within
    the tolerance of the first.
    """
    polys = np.array(subjects, dtype=float)
    clippers = np.asarray(clippers, dtype=float)
    n_pairs = len(polys)
    counts = np.full(n_pairs, polys.shape[1])
    n = clippers.shape[1]
    for i in range(n):
        cp1, cp2 = clippers[:, i], clippers[:, (i + 1) % n]
        (x1, y1), (x2, y2) = cp1.T[..., None], cp2.T[..., None]
        inside = (x2 - x1) * (polys[..., 1] - y1) - (y2 - y1) * (polys[..., 0] - x1) >= 0.0
        slot = np.arange(polys.shape[1])
        valid = slot < counts[:, None]
        # vertex e follows s, the vertex before it (cyclically); a pass emits
        # the crossing where they lie on different sides, then e if inside
        prev = np.where(slot == 0, counts[:, None] - 1, slot - 1)
        cross = valid & (inside != np.take_along_axis(inside, prev, axis=1))
        keep = valid & inside
        emitted = cross.astype(int) + keep
        start = np.cumsum(emitted, axis=1) - emitted
        counts = emitted.sum(axis=1)
        out = np.zeros((n_pairs, counts.max(initial=1), 2))
        p, e = np.nonzero(cross)
        (sx, sy), (ex, ey) = polys[p, prev[p, e]].T, polys[p, e].T
        (ax, ay), (bx, by) = cp1[p].T, cp2[p].T
        dcx, dcy, dpx, dpy = ax - bx, ay - by, sx - ex, sy - ey
        n1, n2 = ax * by - ay * bx, sx * ey - sy * ex
        den = dcx * dpy - dcy * dpx
        out[p, start[p, e], 0] = (n1 * dpx - n2 * dcx) / den
        out[p, start[p, e], 1] = (n1 * dpy - n2 * dcy) / den
        p, e = np.nonzero(keep)
        out[p, start[p, e] + cross[p, e]] = polys[p, e]
        polys = out

    slot = np.arange(polys.shape[1])
    keep = slot < counts[:, None]
    coords = np.where(keep[..., None], np.abs(polys), 0.0)
    tol = _DEDUPE_TOL * np.maximum(1.0, coords.max(axis=(1, 2), initial=0.0))
    last, last_slot = polys[:, 0], np.zeros(n_pairs, dtype=int)
    for j in slot[1:]:
        keep[:, j] &= np.abs(polys[:, j] - last).max(axis=1) > tol
        last = np.where(keep[:, j, None], polys[:, j], last)
        last_slot = np.where(keep[:, j], j, last_slot)
    closes = (keep.sum(axis=1) > 1) & (np.abs(polys[:, 0] - last).max(axis=1) <= tol)
    keep[np.nonzero(closes)[0], last_slot[closes]] = False
    order = np.argsort(~keep, axis=1, kind="stable")
    return np.take_along_axis(polys, order[..., None], axis=1), keep.sum(axis=1)
