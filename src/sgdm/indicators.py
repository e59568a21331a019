"""Quality indicators of a gradient discretisation.

* ``interpolate_best`` -- best-approximation interpolation of a smooth
  function; its attained objective is the consistency error of the space.
* ``indicator_W``      -- discrete Stokes-formula defect (limit-conformity).
* ``indicator_T``      -- translate bound with zero extension (compactness).
* ``poincare_constant``-- discrete Poincare constant (coercivity).

For p = 2 every indicator reduces to a linear solve or a generalized
eigenproblem and is exact up to quadrature. For p != 2 the values are
certified lower bounds (indicators) or upper bounds (consistency error),
each attained at an explicit discrete vector: by iteratively reweighted
least squares (S and W) or by one ratio ascent from fixed starts (T and
C_p). Every search setting is a module constant, not an argument. The
ascent evaluates each trial point once: one pass gives the ratio and a
thunk of its log-gradient that reuses the pass's products and pointwise
powers, and the transposed operators are formed once per call.
Every largest generalized eigenpair (the p = 2 values of T and C_p, and
the starts of their ascents) comes from ARPACK's Lanczos method
(``eigsh``), at every size, started from the ones vector so that its bits
do not depend on the process; one unknown takes the 1 x 1 closed form.
Their matrices, a weighted gradient form plus the mass or a reweighted mass,
are filled by the discretisation's one slot fill (``gd.form_values``,
``gd.mass_values``) and solved by its band LU, ``gd.form_solver``.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .clipping import clip_polygon
from .gd import _basis_matrix
from .quadrature import INTERVAL_NODES, INTERVAL_WEIGHTS, polygon_rule

IRLS_MAX_ITER = 50
IRLS_RTOL = 1e-9
EIGEN_FIXED_POINT_ITER = 30  # reweightings toward the Poincare constant's second start
POINCARE_ASCENT_STEPS = 120  # ascent steps per start
TRANSLATE_ASCENT_STEPS = 80
TRANSLATE_RESTARTS = 5
TRANSLATE_SEED = 0


def _max_gen_eig(A, B):
    """Largest eigenpair of A v = lam B v with B positive definite, on the
    symmetric part of A: ARPACK's Lanczos method (``eigsh``) at every size,
    started from the ones vector, so that a pencil gives the same bits in
    every process. One unknown, which ``eigsh`` does not take, has the
    closed form lam = a / b, v = b^(-1/2)."""
    n = A.shape[0]
    A = (A + A.T) * 0.5
    if n == 1:
        a, b = A.toarray()[0, 0], B.toarray()[0, 0]
        return a / b, np.array([b**-0.5])
    vals, vecs = spla.eigsh(A.tocsc(), k=1, M=B.tocsc(), which="LA", maxiter=10000, v0=np.ones(n))
    return vals[0], vecs[:, 0]


def _damp(w_new, w_old):
    # geometric mean: 0.5 damping on the reweighting, robust for power weights
    return np.sqrt(w_new * w_old)


def _grad_power(gd, p):
    """``v -> (||grad v||_p^p, thunk of its gradient / p)``; the latter is
    ``G^T (meas |g|^(p-2) g)`` with g the per-cell gradients, and ``G^T`` is
    formed once."""
    GT, meas = gd.G.T, gd.mesh.cell_measures

    def power(v):
        g = (gd.G @ v).reshape(gd.mesh.n_cells, gd.dim)
        mag = np.linalg.norm(g, axis=1)
        return np.sum(meas * mag**p), lambda: GT @ (np.repeat(meas * mag ** (p - 2.0), gd.dim) * g.ravel())

    return power


def _value_power(gd, p):
    """``v -> (||Pi v||_p^p, thunk of its gradient / p)``; the latter is
    ``P^T (w |Pi v|^(p-2) Pi v)`` with w the quadrature weights, and ``P^T``
    is formed once."""
    PT = gd.P.T

    def power(v):
        pv = gd.P @ v
        return np.sum(gd.quad_w * np.abs(pv) ** p), lambda: PT @ (gd.quad_w * np.abs(pv) ** (p - 2) * pv)

    return power


def _log_ratio(p, num_p, grad_num, den_p, grad_den):
    """``(num / den, thunk of grad log(num / den))`` from the p-th powers of
    a ratio's numerator and denominator and thunks of their gradients / p."""
    ratio = float(num_p ** (1.0 / p)) / float(den_p ** (1.0 / p)) if den_p > 0 else 0.0
    return ratio, lambda: grad_num() / max(num_p, 1e-300) - grad_den() / max(den_p, 1e-300)


def _ascend_ratio(starts, evaluate, n_iter):
    """Projected gradient ascent of a 0-homogeneous ratio on the unit sphere
    from each start; returns the best ratio reached (a certified lower bound).

    ``evaluate(v)`` returns ``(ratio, gradient)``: the ratio at v and a
    thunk of the gradient of its logarithm there. The thunk reuses that
    pass's products and powers, so every trial point is evaluated once, and
    only an accepted point's gradient is formed."""
    best = 0.0
    for v0 in starts:
        v = v0 / np.linalg.norm(v0)
        cur, grad = evaluate(v)
        step = 1.0
        for _ in range(n_iter):
            d = grad()
            d = d - v * (d @ v)
            nd = np.linalg.norm(d)
            if nd < 1e-13:
                break
            while step > 1e-12:
                v_try = v + step * d / nd
                v_try /= np.linalg.norm(v_try)
                r_try, g_try = evaluate(v_try)
                if r_try > cur:
                    v, cur, grad = v_try, r_try, g_try
                    step = min(step * 2.0, 1.0)
                    break
                step *= 0.5
            else:
                break
        best = max(best, cur)
    return best


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


def interpolate_best(gd, phi, grad_phi, p=2.0):
    """Minimize ||reconstruction - phi||_phat + ||gradient - grad phi||_p,
    with phat = max(2, p/(p-1)).

    A squared-sum surrogate solve provides the starting point; reweighted
    least squares on the true sum-of-norms objective then polishes it. The
    returned ``value`` is attained at the returned coefficients, hence always
    an upper bound for the exact minimum (and equal to it at convergence).
    """
    phat = max(2.0, p / (p - 1.0))
    phi_q = np.asarray(phi(gd.quad_x), dtype=float)
    gphi_q = np.asarray(grad_phi(gd.quad_x), dtype=float).reshape(-1, gd.dim)

    b0 = gd.P.T @ (gd.quad_w * phi_q) + gd.G.T @ _cellwise_vector_integral(gd, gphi_q, gd.quad_w)
    w = gd.form_solver(gd.mass_values(gd.quad_w) + gd.form_values(gd.mesh.cell_measures))(b0)
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
    for it in range(1, IRLS_MAX_ITER + 1):
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
        A = gd.mass_values(gd.quad_w * om1 / s1) + gd.form_values(wcell)
        b = gd.P.T @ (gd.quad_w * om1 * phi_q / s1)
        b = b + gd.G.T @ _cellwise_vector_integral(gd, gphi_q, wq)
        w_new = gd.form_solver(A)(b)
        val = _fit_objective(gd, w_new, phi_q, gphi_q, p, phat)
        if val < best_val:
            best_val, best_w = val, w_new
        delta = np.linalg.norm(w_new - w) / max(1.0, np.linalg.norm(w_new))
        w = w_new
        if delta < IRLS_RTOL:
            converged = True
            break
    return BestFit(best_w, best_val, converged, it)


def consistency_error(gd, phi, grad_phi, p=2.0):
    """Attained best-interpolation objective (upper bound on the minimum),
    with phat = max(2, p/(p-1)) as in ``interpolate_best``."""
    return interpolate_best(gd, phi, grad_phi, p=p).value


# -- limit-conformity ----------------------------------------------------------


def indicator_W(gd, phi, div_phi, p=2.0):
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
    for _ in range(IRLS_MAX_ITER):
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
        if move < IRLS_RTOL:
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


def _translate_numerator_p(gd, w_a, s, u, pv, p):
    """||Pi v(.+xi) - Pi v||_{L^p(R^d)}^p via the overlap identity, from the
    overlap values s = S v and u = U v and the values pv = Pi v at the
    quadrature points: the parts where only one function is supported
    contribute 2 ||Pi v||_p^p - int_{overlap} (|s|^p + |u|^p).

    Each array x takes one power, f_x = |x|^(p-2) x, and |x|^p = f_x x.
    Returns the numerator and the weighted powers a = w_a (f_r - f_s),
    b = w_a (f_r + f_u) and c = w f_pv, with r = s - u and w the quadrature
    weights: the numerator's gradient / p is ``S^T a - U^T b + 2 P^T c``,
    and the numerator itself a.s - b.u + 2 c.pv. A negative numerator, from
    over-counted overlap weights, raises ``ValueError``."""
    wf_r, wf_s, wf_u = (w_a * (np.abs(x) ** (p - 2.0) * x) for x in (s - u, s, u))
    a, b = wf_r - wf_s, wf_r + wf_u
    c = gd.quad_w * np.abs(pv) ** (p - 2.0) * pv
    num = float(a @ s - b @ u + 2.0 * (c @ pv))
    if num < 0.0:
        raise ValueError(f"translate numerator {num:.3g} < 0: the overlap weights over-count the overlap")
    return num, a, b, c


def indicator_T(gd, xi, p=2.0):
    """Translate bound: max over v of
    ||Pi v(.+xi) - Pi v||_{L^p(R^d)} / ||grad v||_p, zero extension outside.

    For p != 2 the ratio is ascended from the p = 2 eigenvector and from
    ``TRANSLATE_RESTARTS`` random vectors (on some spaces the best start);
    a negative numerator (over-counted overlap weights) raises ``ValueError``.
    That error is raised afresh here, with no context and no traceback into
    the ascent, so an error kept by the caller holds none of its arrays."""
    xi = np.asarray(xi, dtype=float).reshape(gd.dim)
    if gd.n_dofs == 0 or np.all(xi == 0.0):
        return 0.0
    try:
        return _translate_bound(gd, xi, p)
    except ValueError as exc:
        message = str(exc)
    raise ValueError(message)


def _translate_bound(gd, xi, p):
    """``indicator_T`` for a nonzero shift on a nonempty space; every array
    of the evaluation lives in this frame and the ones below it."""
    S, U, w_a = translate_overlap(gd, xi)
    C = S.T @ sp.diags(w_a) @ U if S.shape[0] else sp.csr_matrix((gd.n_dofs, gd.n_dofs))
    A = 2.0 * gd.mass - C - C.T
    lam, vec = _max_gen_eig(A.tocsc(), gd.stiffness)
    if p == 2.0:
        return float(np.sqrt(max(lam, 0.0)))

    rng = np.random.default_rng(TRANSLATE_SEED)
    starts = [vec] + [rng.standard_normal(gd.n_dofs) for _ in range(TRANSLATE_RESTARTS)]
    return float(_ascend_ratio(starts, _translate_ratio(gd, S, U, w_a, p), TRANSLATE_ASCENT_STEPS))


def _translate_ratio(gd, S, U, w_a, p):
    """The translate bound's ``evaluate`` for ``_ascend_ratio`` on the
    overlap quadrature (S, U, w_a), with the transposes formed once."""
    ST, UT, PT = S.T, U.T, gd.P.T
    grad_power = _grad_power(gd, p)

    def evaluate(v):
        num_p, a, b, c = _translate_numerator_p(gd, w_a, S @ v, U @ v, gd.P @ v, p)
        return _log_ratio(p, num_p, lambda: ST @ a - UT @ b + 2.0 * (PT @ c), *grad_power(v))

    return evaluate


# -- coercivity ----------------------------------------------------------------


def poincare_constant(gd, p=2.0):
    """Discrete Poincare constant: max over v of ||Pi v||_p / ||grad v||_p.

    For p != 2 the ratio is ascended from two starts: the p = 2 eigenvector
    and the fixed point of the reweighted eigenproblem."""
    if gd.n_dofs == 0:
        return 0.0
    lam, vec = _max_gen_eig(gd.mass, gd.stiffness)
    if p == 2.0:
        return float(np.sqrt(max(lam, 0.0)))

    value_power, grad_power = _value_power(gd, p), _grad_power(gd, p)

    def evaluate(v):
        return _log_ratio(p, *value_power(v), *grad_power(v))

    v = vec
    for _ in range(EIGEN_FIXED_POINT_ITER):
        pv = gd.P @ v
        g = (gd.G @ v).reshape(gd.mesh.n_cells, gd.dim)
        mag2 = np.sum(g**2, axis=1)
        eps2 = 1e-16 * max(pv.max(initial=0.0) ** 2, mag2.max(initial=0.0), 1e-300)
        om1 = (pv**2 + eps2) ** ((p - 2.0) / 2.0)
        om2 = (mag2 + eps2) ** ((p - 2.0) / 2.0)
        A = gd.form_matrix(gd.mass_values(gd.quad_w * om1))
        B = gd.gradient_form(gd.mesh.cell_measures * om2)
        _, v_new = _max_gen_eig(A, B + 1e-300 * sp.eye(gd.n_dofs))
        move = min(np.linalg.norm(v_new - v), np.linalg.norm(v_new + v))
        v = v_new
        if move <= IRLS_RTOL * np.linalg.norm(v):
            break
    return float(_ascend_ratio([vec, v], evaluate, POINCARE_ASCENT_STEPS))
