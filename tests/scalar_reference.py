"""One-object-at-a-time quadrature rules and polygon clipping, kept as the
references that the batched versions in ``sgdm`` are checked against."""

import numpy as np

from sgdm.quadrature import INTERVAL_NODES, INTERVAL_WEIGHTS, TRIANGLE_BARY, TRIANGLE_WEIGHTS


def interval_rule(a, b):
    """Quadrature nodes/weights on the interval [a, b]."""
    return a + (b - a) * INTERVAL_NODES, (b - a) * INTERVAL_WEIGHTS


def triangle_rule(verts):
    """Quadrature nodes/weights on a triangle given as a (3, 2) array."""
    verts = np.asarray(verts, dtype=float)
    pts = TRIANGLE_BARY @ verts
    area = 0.5 * abs(
        (verts[1, 0] - verts[0, 0]) * (verts[2, 1] - verts[0, 1])
        - (verts[2, 0] - verts[0, 0]) * (verts[1, 1] - verts[0, 1])
    )
    return pts, area * TRIANGLE_WEIGHTS


def fan_rule(poly):
    """Quadrature on one polygon by fanning triangles from vertex 0; empty
    arrays for fewer than 3 vertices."""
    poly = np.asarray(poly, dtype=float)
    if len(poly) < 3:
        return np.empty((0, 2)), np.empty(0)
    pts = []
    wts = []
    for i in range(1, len(poly) - 1):
        x, w = triangle_rule(poly[[0, i, i + 1]])
        pts.append(x)
        wts.append(w)
    return np.vstack(pts), np.concatenate(wts)


def clip_polygon(subject, clipper):
    """Sutherland-Hodgman clip of one polygon `subject` by one
    counter-clockwise polygon `clipper`; an (m, 2) array, possibly empty."""
    output = [tuple(p) for p in np.asarray(subject, dtype=float)]
    clipper = np.asarray(clipper, dtype=float)
    n = len(clipper)
    for i in range(n):
        if not output:
            break
        cp1 = clipper[i]
        cp2 = clipper[(i + 1) % n]
        ex, ey = cp2[0] - cp1[0], cp2[1] - cp1[1]

        def inside(p):
            return ex * (p[1] - cp1[1]) - ey * (p[0] - cp1[0]) >= 0.0

        inputs = output
        output = []
        s = inputs[-1]
        s_in = inside(s)
        for e in inputs:
            e_in = inside(e)
            if e_in:
                if not s_in:
                    output.append(_intersect(s, e, cp1, cp2))
                output.append(e)
            elif s_in:
                output.append(_intersect(s, e, cp1, cp2))
            s, s_in = e, e_in
    return _dedupe(output)


def _intersect(s, e, cp1, cp2):
    dcx, dcy = cp1[0] - cp2[0], cp1[1] - cp2[1]
    dpx, dpy = s[0] - e[0], s[1] - e[1]
    n1 = cp1[0] * cp2[1] - cp1[1] * cp2[0]
    n2 = s[0] * e[1] - s[1] * e[0]
    den = dcx * dpy - dcy * dpx
    return ((n1 * dpx - n2 * dcx) / den, (n1 * dpy - n2 * dcy) / den)


def _dedupe(points, tol=1e-13):
    if not points:
        return np.empty((0, 2))
    pts = np.asarray(points, dtype=float)
    scale = max(1.0, np.abs(pts).max())
    keep = [pts[0]]
    for p in pts[1:]:
        if np.abs(p - keep[-1]).max() > tol * scale:
            keep.append(p)
    if len(keep) > 1 and np.abs(keep[0] - keep[-1]).max() <= tol * scale:
        keep.pop()
    return np.asarray(keep)
