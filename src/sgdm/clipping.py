"""Convex polygon/interval intersection for translate-overlap integrals.

2D clipping is Sutherland-Hodgman against a convex clip polygon; 1D reduces
to interval intersection. Intersections of convex pieces are convex, so the
fan quadrature in `quadrature.polygon_rule` applies directly.
"""

import numpy as np


def clip_interval(a0, a1, b0, b1):
    """Intersection of [a0,a1] and [b0,b1]; None if empty."""
    lo, hi = max(a0, b0), min(a1, b1)
    if hi - lo <= 0.0:
        return None
    return lo, hi


def clip_polygon(subject, clipper):
    """Clip convex polygon `subject` by convex polygon `clipper` (CCW).

    Returns an (m, 2) vertex array, possibly empty. Both inputs are (k, 2)
    arrays with counter-clockwise orientation.
    """
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
