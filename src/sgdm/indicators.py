"""Quality indicators of a gradient discretisation.

* ``interpolate_best`` -- best-approximation interpolation of a smooth
  function; its attained objective is the consistency error of the space.
* ``indicator_W``      -- discrete Stokes-formula defect (limit-conformity).
* ``indicator_T``      -- translate bound with zero extension (compactness).
* ``poincare_constant``-- discrete Poincare constant (coercivity).

For p = 2 every indicator reduces to a linear solve or a generalized
eigenproblem and is exact up to quadrature. For p != 2 the values are
certified lower bounds (indicators) or upper bounds (consistency error)
obtained by iteratively reweighted least squares; every reported bound is
the best ratio/objective actually attained at an explicit discrete vector.
Their linear systems (mass and weighted gradient forms) are filled into the
discretisation's form pattern and solved by its band LU, ``gd.form_solver``.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .clipping import clip_polygon
from .gd import _basis_matrix
from .quadrature import INTERVAL_NODES, INTERVAL_WEIGHTS, polygon_rule

IRLS_MAX_ITER = 50
IRLS_RTOL = 1e-9
_DENSE_EIG_LIMIT = 800


def _max_gen_eig(A, B):
    """Largest eigenpair of A v = lam B v with B positive definite."""
    n = A.shape[0]
    A = (A + A.T) * 0.5
    if n <= _DENSE_EIG_LIMIT:
        vals, vecs = sla.eigh(np.asarray(A.todense()), np.asarray(B.todense()))
        return vals[-1], vecs[:, -1]
    vals, vecs = spla.eigsh(A.tocsc(), k=1, M=B.tocsc(), which="LA", maxiter=10000)
    return vals[0], vecs[:, 0]


def _damp(w_new, w_old):
    # geometric mean: 0.5 damping on the reweighting, robust for power weights
    return np.sqrt(w_new * w_old)


def _grad_power(gd, v, p):
    """``(||grad v||_p^p, its gradient / p)``; the latter is
    ``G^T (meas |g|^(p-2) g)`` with g the per-cell gradients."""
    g = (gd.G @ v).reshape(gd.mesh.n_cells, gd.dim)
    mag = np.linalg.norm(g, axis=1)
    wcell = gd.mesh.cell_measures * mag ** (p - 2.0)
    return np.sum(gd.mesh.cell_measures * mag**p), gd.G.T @ (np.repeat(wcell, gd.dim) * g.ravel())


def _value_power(gd, v, p):
    """``(||Pi v||_p^p, its gradient / p)``; the latter is
    ``P^T (w |Pi v|^(p-2) Pi v)`` with w the quadrature weights."""
    pv = gd.P @ v
    return np.sum(gd.quad_w * np.abs(pv) ** p), gd.P.T @ (gd.quad_w * np.abs(pv) ** (p - 2) * pv)


# -- consistency: best interpolation ------------------------------------------


@dataclass
class BestFit:
    """Result of the best-approximation interpolation."""

    coefficients: np.ndarray
    value: float
    converged: bool
    iterations: int


def _fit_objective(gd, w, phi_q, gphi_q, p, phat):
    r1 = np.abs(gd.P @ w - phi_q)
    func = np.sum(gd.quad_w * r1**phat) ** (1.0 / phat)
    g = (gd.G @ w).reshape(gd.mesh.n_cells, gd.dim)
    r2 = np.linalg.norm(g[gd.quad_cell] - gphi_q, axis=1)
    grad = np.sum(gd.quad_w * r2**p) ** (1.0 / p)
    return float(func + grad)


def _cellwise_vector_integral(gd, values, weights):
    """Per-cell weighted sum of a vector field sampled at quadrature points,
    flattened cell-major to match the gradient operator rows."""
    n = gd.mesh.n_cells
    return np.column_stack(
        [np.bincount(gd.quad_cell, weights * values[:, k], n) for k in range(gd.dim)]
    ).ravel()


def interpolate_best(gd, phi, grad_phi, p=2.0, phat=None, max_iter=IRLS_MAX_ITER, rtol=IRLS_RTOL):
    """Minimize ||reconstruction - phi||_phat + ||gradient - grad phi||_p.

    A squared-sum surrogate solve provides the starting point; reweighted
    least squares on the true sum-of-norms objective then polishes it. The
    returned ``value`` is attained at the returned coefficients, hence always
    an upper bound for the exact minimum (and equal to it at convergence).
    """
    if phat is None:
        phat = max(2.0, p / (p - 1.0))
    phi_q = np.asarray(phi(gd.quad_x), dtype=float)
    gphi_q = np.asarray(grad_phi(gd.quad_x), dtype=float).reshape(-1, gd.dim)

    b0 = gd.P.T @ (gd.quad_w * phi_q) + gd.G.T @ _cellwise_vector_integral(gd, gphi_q, gd.quad_w)
    w = gd.form_solver(gd.form_values_of(gd.mass) + gd.form_values(gd.mesh.cell_measures))(b0)
    best_val = _fit_objective(gd, w, phi_q, gphi_q, p, phat)
    best_w = w
    scale = max(1.0, np.abs(phi_q).max(initial=0.0), np.abs(gphi_q).max(initial=0.0))
    if best_val <= 1e-13 * scale:  # target is exactly representable
        return BestFit(w, best_val, True, 1)

    eps2 = (1e-9 * scale) ** 2
    om1 = np.ones(len(gd.quad_w))
    om2 = np.ones(len(gd.quad_w))
    s1 = s2 = 1.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        r1 = gd.P @ w - phi_q
        g = (gd.G @ w).reshape(gd.mesh.n_cells, gd.dim)
        r2 = g[gd.quad_cell] - gphi_q
        # group scalings 1/(norm^(q-1)) turn the power-sum weights into the
        # gradient of the sum of norms itself
        u_norm = max(np.sum(gd.quad_w * np.abs(r1) ** phat) ** (1.0 / phat), 1e-14 * scale)
        v_norm = max(
            np.sum(gd.quad_w * np.sum(r2**2, axis=1) ** (p / 2.0)) ** (1.0 / p), 1e-14 * scale
        )
        om1 = _damp((r1**2 + eps2) ** ((phat - 2.0) / 2.0), om1)
        om2 = _damp((np.sum(r2**2, axis=1) + eps2) ** ((p - 2.0) / 2.0), om2)
        s1 = np.sqrt(s1 * u_norm ** (phat - 1.0))
        s2 = np.sqrt(s2 * v_norm ** (p - 1.0))
        # the gradient is constant per cell, so its weights sum per cell
        wq = gd.quad_w * om2 / s2
        wcell = np.bincount(gd.quad_cell, weights=wq, minlength=gd.mesh.n_cells)
        A = gd.form_values_of(gd.P.T @ sp.diags(gd.quad_w * om1 / s1) @ gd.P) + gd.form_values(wcell)
        b = gd.P.T @ (gd.quad_w * om1 * phi_q / s1)
        b = b + gd.G.T @ _cellwise_vector_integral(gd, gphi_q, wq)
        w_new = gd.form_solver(A)(b)
        val = _fit_objective(gd, w_new, phi_q, gphi_q, p, phat)
        if val < best_val:
            best_val, best_w = val, w_new
        delta = np.linalg.norm(w_new - w) / max(1.0, np.linalg.norm(w_new))
        w = w_new
        if delta < rtol:
            converged = True
            break
    return BestFit(best_w, best_val, converged, it)


def consistency_error(gd, phi, grad_phi, p=2.0, phat=None):
    """Attained best-interpolation objective (upper bound on the minimum)."""
    return interpolate_best(gd, phi, grad_phi, p=p, phat=phat).value


# -- limit-conformity ----------------------------------------------------------


def indicator_W(gd, phi, div_phi, p=2.0, max_iter=IRLS_MAX_ITER, rtol=IRLS_RTOL):
    """Discrete Stokes defect: max over v of
    |int(grad_D v . phi + Pi_D v div phi)| / ||grad_D v||_p."""
    if gd.n_dofs == 0:
        raise ValueError("indicator_W undefined for a zero-dimensional DOF space")
    phi_q = np.asarray(phi(gd.quad_x), dtype=float).reshape(-1, gd.dim)
    div_q = np.asarray(div_phi(gd.quad_x), dtype=float)
    c = gd.G.T @ _cellwise_vector_integral(gd, phi_q, gd.quad_w) + gd.P.T @ (gd.quad_w * div_q)
    if np.linalg.norm(c) == 0.0:
        return 0.0

    meas = gd.mesh.cell_measures
    z = gd.form_solver(gd.form_values(meas))(c)
    if p == 2.0:
        return float(np.sqrt(c @ z))

    # maximize |c.v| / ||grad v||_p == 1 / min{||grad v||_p : c.v = 1}
    v = z / (c @ z)
    best = abs(c @ v) / gd.grad_lp_norm(v, p)
    om = np.ones(gd.mesh.n_cells)
    for _ in range(max_iter):
        g = (gd.G @ v).reshape(gd.mesh.n_cells, gd.dim)
        mag2 = np.sum(g**2, axis=1)
        eps2 = 1e-16 * max(mag2.max(), 1e-300)
        om = _damp((mag2 + eps2) ** ((p - 2.0) / 2.0), om)
        y = gd.form_solver(gd.form_values(meas * om))(c)
        v_new = y / (c @ y)
        ratio = abs(c @ v_new) / gd.grad_lp_norm(v_new, p)
        move = np.linalg.norm(v_new - v) / max(1.0, np.linalg.norm(v_new))
        v = v_new
        best = max(best, ratio)
        if move < rtol:
            break
    return float(best)


# -- compactness: translate bound ----------------------------------------------


# bounding-box tests per block of subject pieces in translate_overlap
_BOX_TESTS = 1 << 20


def translate_overlap(gd, xi):
    """Quadrature of the overlap between the reconstruction and its translate.

    Returns sparse operators (S, U) evaluating v -> Pi_D v(x + xi) and
    v -> Pi_D v(x) at common quadrature points covering the region where both
    are supported, together with the quadrature weights.

    The points come pair by pair, for the pieces with a DOF (``gd.pieces``)
    in row-major order over (piece i shifted by -xi, piece j) wherever their
    bounding boxes overlap by more than a tolerance: in 1D the interval rule
    on the intersection, in 2D the fan rule on the clipped polygon, for all
    pairs at once. Pairs whose overlap is within the tolerance are left out.
    """
    xi = np.asarray(xi, dtype=float).reshape(gd.dim)
    has_dof = (gd.pieces[1] >= 0).any(axis=1)
    polys, dofs, const, lin = (a[has_dof] for a in gd.pieces)
    if not len(polys):
        empty = sp.csr_matrix((0, gd.n_dofs))
        return empty, empty, np.zeros(0)
    mins, maxs = polys.min(axis=1), polys.max(axis=1)
    scale = float(np.max(maxs - mins))
    tol = 1e-13 * max(scale, 1.0)

    lo, hi = mins - xi, maxs - xi
    rows = max(1, _BOX_TESTS // len(polys))
    pairs = []
    for first in range(0, len(polys), rows):
        block = slice(first, first + rows)
        boxes = True  # coordinate by coordinate, faster than all() over a short axis
        for k in range(gd.dim):
            boxes = boxes & (maxs[:, k] > lo[block, k, None] + tol)
            boxes &= mins[:, k] < hi[block, k, None] - tol
        i, j = np.nonzero(boxes)
        pairs.append((i + first, j))
    i, j = (np.concatenate(ij) for ij in zip(*pairs))

    if gd.dim == 1:
        a, b = np.maximum(lo[i], mins[j]), np.minimum(hi[i], maxs[j])  # (n_pairs, 1)
        ok = (b - a > tol)[:, 0]
        a, b = a[ok], b[ok]
        pts, wts = (a + (b - a) * INTERVAL_NODES)[..., None], (b - a) * INTERVAL_WEIGHTS
        present = np.ones(wts.shape, dtype=bool)
    else:
        clipped, counts = clip_polygon(polys[i] - xi, polys[j])
        pts, wts = polygon_rule(clipped, counts)  # (n_pairs, n_tri, n_q, ...)
        ok = wts.sum(axis=(1, 2)) > tol * scale
        n_tri, n_q = wts.shape[1:]
        present = np.repeat(np.arange(n_tri) < counts[ok, None] - 2, n_q, axis=1)
        pts, wts = pts[ok].reshape(*present.shape, 2), wts[ok].reshape(present.shape)
    i, j = i[ok], j[ok]
    pair = np.nonzero(present)[0]  # the pair of each point
    S_vals = _piece_values(pts + xi, const[i], lin[i], dofs[i])[present]
    U_vals = _piece_values(pts, const[j], lin[j], dofs[j])[present]
    S = _basis_matrix(dofs[i[pair]], S_vals, gd.n_dofs)
    U = _basis_matrix(dofs[j[pair]], U_vals, gd.n_dofs)
    return S, U, wts[present]


def _piece_values(x, const, lin, dofs):
    """Each DOF slot's affine function on its piece, ``const + x @ lin``, at
    the points x (n_pairs, n, dim) of each pair: (n_pairs, n, n_slots).

    A piece with a single DOF takes the product with that column alone, a
    matrix-vector product, which BLAS rounds differently from the same
    column of a matrix product."""
    vals = const[:, None, :] + x @ lin
    if lin.shape[2] > 1:
        one = np.nonzero((dofs >= 0).sum(axis=1) == 1)[0]
        slot = np.argmax(dofs[one] >= 0, axis=1)
        col = np.take_along_axis(lin[one], slot[:, None, None], axis=2)
        vals[one, :, slot] = const[one, slot, None] + (x[one] @ col)[..., 0]
    return vals


def _translate_numerator_p(gd, S, U, w_a, v, p):
    """||Pi v(.+xi) - Pi v||_{L^p(R^d)}^p via the overlap identity:
    the parts where only one function is supported contribute
    2 ||Pi v||_p^p - int_{overlap} (|f|^p + |g|^p)."""
    s = S @ v
    u = U @ v
    both = np.sum(w_a * (np.abs(s - u) ** p - np.abs(s) ** p - np.abs(u) ** p))
    full = np.sum(gd.quad_w * np.abs(gd.P @ v) ** p)
    return float(both + 2.0 * full)


def indicator_T(gd, xi, p=2.0, n_restarts=5, n_iter=80, seed=0):
    """Translate bound: max over v of
    ||Pi v(.+xi) - Pi v||_{L^p(R^d)} / ||grad v||_p, zero extension outside."""
    xi = np.asarray(xi, dtype=float).reshape(gd.dim)
    if gd.n_dofs == 0 or np.all(xi == 0.0):
        return 0.0
    S, U, w_a = translate_overlap(gd, xi)
    C = S.T @ sp.diags(w_a) @ U if S.shape[0] else sp.csr_matrix((gd.n_dofs, gd.n_dofs))
    A = 2.0 * gd.mass - C - C.T
    lam, vec = _max_gen_eig(A.tocsc(), gd.stiffness)
    if p == 2.0:
        return float(np.sqrt(max(lam, 0.0)))

    def ratio(v):
        den = gd.grad_lp_norm(v, p)
        if den == 0.0:
            return 0.0
        return _translate_numerator_p(gd, S, U, w_a, v, p) ** (1.0 / p) / den

    def grad_log_ratio(v):
        s, u = S @ v, U @ v
        r = s - u
        num_p = _translate_numerator_p(gd, S, U, w_a, v, p)
        gnum = (
            S.T @ (w_a * np.abs(r) ** (p - 2) * r)
            - U.T @ (w_a * np.abs(r) ** (p - 2) * r)
            - S.T @ (w_a * np.abs(s) ** (p - 2) * s)
            - U.T @ (w_a * np.abs(u) ** (p - 2) * u)
            + 2.0 * _value_power(gd, v, p)[1]
        )
        den_p, gden = _grad_power(gd, v, p)
        return gnum / max(num_p, 1e-300) - gden / max(den_p, 1e-300)

    rng = np.random.default_rng(seed)
    starts = [vec] + [rng.standard_normal(gd.n_dofs) for _ in range(n_restarts)]
    return float(max(_ascend_ratio(v, ratio, grad_log_ratio, n_iter)[0] for v in starts))


# -- coercivity ----------------------------------------------------------------


def _ascend_ratio(v0, ratio, grad_log_ratio, n_iter=120):
    """Projected gradient ascent of a 0-homogeneous ratio on the unit sphere;
    returns the best ratio value reached (a certified lower bound)."""
    v = v0 / np.linalg.norm(v0)
    cur = ratio(v)
    best = cur
    step = 1.0
    for _ in range(n_iter):
        d = grad_log_ratio(v)
        d = d - v * (d @ v)
        nd = np.linalg.norm(d)
        if nd < 1e-13:
            break
        improved = False
        while step > 1e-12:
            v_try = v + step * d / nd
            v_try /= np.linalg.norm(v_try)
            r_try = ratio(v_try)
            if r_try > cur:
                v, cur = v_try, r_try
                improved = True
                step = min(step * 2.0, 1.0)
                break
            step *= 0.5
        if not improved:
            break
        best = max(best, cur)
    return best, v


def poincare_constant(gd, p=2.0, max_iter=30, rtol=IRLS_RTOL, n_restarts=6, seed=0):
    """Discrete Poincare constant: max over v of ||Pi v||_p / ||grad v||_p."""
    if gd.n_dofs == 0:
        return 0.0
    lam, vec = _max_gen_eig(gd.mass, gd.stiffness)
    if p == 2.0:
        return float(np.sqrt(max(lam, 0.0)))

    def ratio(v):
        den = gd.grad_lp_norm(v, p)
        return gd.lp_norm(v, p) / den if den > 0 else 0.0

    def grad_log_ratio(v):
        num_p, gnum = _value_power(gd, v, p)
        den_p, gden = _grad_power(gd, v, p)
        return gnum / max(num_p, 1e-300) - gden / max(den_p, 1e-300)

    meas = gd.mesh.cell_measures
    # reweighted eigen fixed point gives good starting vectors
    starts = [vec]
    v = vec
    for _ in range(max_iter):
        pv = gd.P @ v
        g = (gd.G @ v).reshape(gd.mesh.n_cells, gd.dim)
        mag2 = np.sum(g**2, axis=1)
        eps2 = 1e-16 * max(pv.max(initial=0.0) ** 2, mag2.max(initial=0.0), 1e-300)
        om1 = (pv**2 + eps2) ** ((p - 2.0) / 2.0)
        om2 = (mag2 + eps2) ** ((p - 2.0) / 2.0)
        A = gd.P.T @ sp.diags(gd.quad_w * om1) @ gd.P
        B = gd.gradient_form(meas * om2)
        _, v_new = _max_gen_eig(A.tocsc(), B + 1e-300 * sp.eye(gd.n_dofs))
        move = min(np.linalg.norm(v_new - v), np.linalg.norm(v_new + v))
        v = v_new
        if move <= rtol * np.linalg.norm(v):
            break
    starts.append(v)
    rng = np.random.default_rng(seed)
    starts += [rng.standard_normal(gd.n_dofs) for _ in range(n_restarts)]
    best = 0.0
    for v0 in starts:
        val, _ = _ascend_ratio(v0, ratio, grad_log_ratio)
        best = max(best, val)
    return float(best)
