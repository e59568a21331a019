"""Quality indicators against closed forms and independent dense oracles."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss
from scipy.optimize import minimize

from sgdm import (
    build_gd,
    build_uniform_interval,
    build_uniform_triangulation,
    indicator_T,
    indicator_W,
    interpolate_best,
    poincare_constant,
    refine,
)
from sgdm import indicators
from sgdm.indicators import (
    _fit_objective,
    _grad_power,
    _value_power,
    consistency_error,
    translate_overlap,
)

import scalar_reference
from conftest import grad_parabola, grad_sin_pi, parabola, sin_pi


# -- independent oracles --------------------------------------------------------


def dense_translate_oracle_1d(gd, xi):
    """Generalized eigenproblem for the translate bound, assembled by direct
    integration over the arrangement of all discontinuity points (mesh
    vertices, dual-cell midpoints, and their shifts)."""
    mesh = gd.mesh
    verts = np.sort(mesh.vertices[:, 0])
    mids = 0.5 * (verts[:-1] + verts[1:])
    marks = np.unique(np.concatenate([verts, mids]))
    bps = np.unique(np.concatenate([marks, marks - xi]))
    gx, gw = leggauss(6)
    n = gd.n_dofs
    lo, hi = verts[0], verts[-1]

    def basis_vals(x):
        out = np.zeros((len(x), n))
        inside = (x >= lo) & (x <= hi)
        if inside.any():
            for j in range(n):
                e = np.zeros(n)
                e[j] = 1.0
                out[inside, j] = gd.reconstruct(e, x[inside][:, None])
        return out

    M = np.zeros((n, n))
    C = np.zeros((n, n))
    for a, b in zip(bps[:-1], bps[1:]):
        if b - a < 1e-14:
            continue
        xs = 0.5 * (a + b) + 0.5 * (b - a) * gx
        ws = 0.5 * (b - a) * gw
        Bp = basis_vals(xs)
        Bs = basis_vals(xs + xi)
        M += Bp.T @ (ws[:, None] * Bp)
        C += Bs.T @ (ws[:, None] * Bp)
    K = np.zeros((n, n))
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = 1.0
        gj = gd.reconstruct_gradient(ej)[:, 0]
        for k in range(n):
            ek = np.zeros(n)
            ek[k] = 1.0
            K[j, k] = np.sum(mesh.cell_measures * gj * gd.reconstruct_gradient(ek)[:, 0])
    lam = sla.eigh(2.0 * M - C - C.T, K, eigvals_only=True)
    return float(np.sqrt(max(lam[-1], 0.0)))


def translate_overlap_loop(gd, xi):
    """The per-pair assembly of the translate overlap: each candidate pair of
    pieces clipped, integrated and assembled on its own, in the order of the
    batched ``translate_overlap``."""
    xi = np.asarray(xi, dtype=float).reshape(gd.dim)
    pieces = []
    for poly, dofs, const, lin in zip(*gd.pieces):
        ok = dofs >= 0
        if ok.any():  # lin as (DOFs, dim), one row per DOF
            pieces.append((poly, dofs[ok], const[ok], np.ascontiguousarray(lin[:, ok].T)))
    mins = np.array([pc[0].min(axis=0) for pc in pieces])
    maxs = np.array([pc[0].max(axis=0) for pc in pieces])
    scale = float(np.max(maxs - mins))
    tol = 1e-13 * max(scale, 1.0)
    pts_all, wts_all, rows_S, cols_S, vals_S, rows_U, cols_U, vals_U = ([] for _ in range(8))
    offset = 0
    for i, (poly, dofs, const, lin) in enumerate(pieces):
        lo, hi = mins[i] - xi, maxs[i] - xi
        cand = np.nonzero(np.all((maxs > lo + tol) & (mins < hi - tol), axis=1))[0]
        for j in cand:
            poly_j, dofs_j, const_j, lin_j = pieces[j]
            if gd.dim == 1:
                a, b = max(lo[0], mins[j, 0]), min(hi[0], maxs[j, 0])
                if b - a <= tol:
                    continue
                pts, wts = scalar_reference.interval_rule(a, b)
                pts = pts[:, None]
            else:
                clipped = scalar_reference.clip_polygon(poly - xi, poly_j)
                if len(clipped) < 3:
                    continue
                pts, wts = scalar_reference.fan_rule(clipped)
                if wts.sum() <= tol * scale:
                    continue
            q = offset + np.arange(len(wts))
            pts_all.append(pts)
            wts_all.append(wts)
            rows_S.append(np.repeat(q, len(dofs)))
            cols_S.append(np.tile(dofs, len(q)))
            vals_S.append((const[None, :] + (pts + xi) @ lin.T).ravel())
            rows_U.append(np.repeat(q, len(dofs_j)))
            cols_U.append(np.tile(dofs_j, len(q)))
            vals_U.append((const_j[None, :] + pts @ lin_j.T).ravel())
            offset += len(q)
    S, U = (
        sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(offset, gd.n_dofs),
        ).tocsr()
        for rows, cols, vals in ((rows_S, cols_S, vals_S), (rows_U, cols_U, vals_U))
    )
    return S, U, np.concatenate(wts_all)


def ratio_oracle(gd, numerator, denominator, n_starts=40, seed=0):
    """Best ratio over random starts polished with Nelder-Mead."""
    rng = np.random.default_rng(seed)

    def neg(v):
        den = denominator(v)
        return -(numerator(v) / den) if den > 1e-14 else 0.0

    best = 0.0
    for _ in range(n_starts):
        v0 = rng.standard_normal(gd.n_dofs)
        res = minimize(neg, v0, method="Nelder-Mead",
                       options=dict(xatol=1e-12, fatol=1e-14, maxiter=5000, maxfev=5000))
        best = max(best, -res.fun)
    return best


# -- best interpolation / consistency -------------------------------------------


class TestInterpolateBest:
    def test_exact_representation_gives_zero(self, gd_interval_16):
        gd = gd_interval_16
        e = np.zeros(gd.n_dofs)
        e[4] = 1.0
        fit = interpolate_best(
            gd, lambda x: gd.reconstruct(e, x), lambda x: gd.reconstruct_gradient(e, x), p=2.0
        )
        assert fit.value <= 1e-10
        np.testing.assert_allclose(fit.coefficients, e, atol=1e-8)

    def test_sine_refinement_ratio(self):
        m = build_uniform_interval(8, 0.0, 1.0)
        vals = []
        for _ in range(4):
            vals.append(consistency_error(build_gd(m, "p1"), sin_pi, grad_sin_pi, p=2.0))
            m = refine(m)
        ratios = [vals[i] / vals[i + 1] for i in range(3)]
        assert all(1.8 <= r <= 4.2 for r in ratios)

    def test_brute_force_oracle_parabola(self):
        gd = build_gd(build_uniform_interval(4, 0.0, 1.0), "p1")
        fit = interpolate_best(gd, parabola, grad_parabola, p=2.0, max_iter=200)
        phi_q = parabola(gd.quad_x)
        gphi_q = grad_parabola(gd.quad_x)

        def obj(w):
            return _fit_objective(gd, w, phi_q, gphi_q, 2.0, 2.0)

        grid = np.linspace(-0.5, 0.5, 13)
        best = min(
            (obj(np.array([a, b, c])), (a, b, c)) for a in grid for b in grid for c in grid
        )
        res = minimize(obj, np.array(best[1]), method="Nelder-Mead",
                       options=dict(xatol=1e-14, fatol=1e-16, maxiter=40000, maxfev=40000))
        assert abs(fit.value - res.fun) <= 1e-8

    def test_general_p_upper_bound_and_decay(self):
        m = build_uniform_interval(8, 0.0, 1.0)
        prev = None
        for _ in range(3):
            gd = build_gd(m, "p1")
            fit = interpolate_best(gd, sin_pi, grad_sin_pi, p=3.0)
            phi_q = sin_pi(gd.quad_x)
            gphi_q = grad_sin_pi(gd.quad_x)
            # reported value is attained, hence an upper bound on the min
            assert abs(fit.value - _fit_objective(gd, fit.coefficients, phi_q, gphi_q, 3.0, 2.0)) < 1e-14
            if prev is not None:
                assert fit.value < prev
            prev = fit.value
            m = refine(m)

    @pytest.mark.parametrize("kind", ["p1", "p1_lumped", "cr"])
    def test_decay_all_kinds_2d(self, square_meshes, kind):
        from conftest import grad_sin_product, sin_product

        vals = [
            consistency_error(build_gd(m, kind), sin_product, grad_sin_product, p=2.0)
            for m in square_meshes[:3]
        ]
        assert vals[0] > vals[1] > vals[2]


    @pytest.mark.parametrize(
        "kind, expected",
        [("p1", 0.9855040978539389), ("p1_lumped", 1.0789995140641246), ("cr", 0.6713252234487906)],
    )
    def test_p3_value_unchanged(self, kind, expected):
        # values of the earlier assembly, which summed one sparse triple
        # product per gradient component over the quadrature points
        from conftest import grad_sin_product, sin_product

        gd = build_gd(build_uniform_triangulation(4, 4), kind)
        fit = interpolate_best(gd, sin_product, grad_sin_product, p=3.0)
        assert abs(fit.value - expected) <= 1e-10


# -- p-power derivatives ---------------------------------------------------------------


@pytest.mark.parametrize("kind", ["p1", "p1_lumped", "cr"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("helper", [_grad_power, _value_power], ids=["grad", "value"])
def test_power_helpers_match_finite_differences(helper, dim, kind):
    mesh = build_uniform_interval(7, 0.0, 1.0) if dim == 1 else build_uniform_triangulation(3, 3)
    gd = build_gd(mesh, kind)
    p, h = 3.0, 1e-6
    v = np.random.default_rng(12).standard_normal(gd.n_dofs)
    value, grad = helper(gd, v, p)
    # the helper returns the derivative divided by p
    fd = np.array(
        [(helper(gd, v + h * e, p)[0] - helper(gd, v - h * e, p)[0]) / (2 * h) for e in np.eye(gd.n_dofs)]
    )
    np.testing.assert_allclose(p * grad, fd, rtol=1e-6, atol=1e-8 * max(1.0, value))


# -- limit-conformity ------------------------------------------------------------


class TestIndicatorW:
    def test_conforming_poly_fields_machine_zero(self, square_meshes):
        gd = build_gd(square_meshes[2], "p1")
        fields = [
            (lambda x: np.column_stack([x[:, 0] ** 2, x[:, 1] ** 2]), lambda x: 2 * x[:, 0] + 2 * x[:, 1]),
            (lambda x: np.column_stack([x[:, 1] * (1 - x[:, 1]), x[:, 0]]), lambda x: np.zeros(len(x))),
            (lambda x: np.column_stack([x[:, 0] * x[:, 1], x[:, 0] + x[:, 1]]), lambda x: x[:, 1] + 1.0),
            (lambda x: np.column_stack([np.ones(len(x)), np.zeros(len(x))]), lambda x: np.zeros(len(x))),
            (lambda x: np.column_stack([x[:, 0] ** 3, x[:, 1] ** 2 * x[:, 0]]), lambda x: 3 * x[:, 0] ** 2 + 2 * x[:, 1] * x[:, 0]),
        ]
        for phi, div in fields:
            assert indicator_W(gd, phi, div, p=2.0) <= 1e-10

    def test_conforming_1d_sine(self, gd_interval_16):
        w = indicator_W(gd_interval_16, lambda x: sin_pi(x)[:, None], lambda x: grad_sin_pi(x)[:, 0], p=2.0)
        assert w <= 1e-10

    def test_single_dof_closed_form(self, single_dof_gd):
        gd = single_dof_gd
        phi = lambda x: (x[:, 0] ** 2)[:, None]
        div = lambda x: 2.0 * x[:, 0]
        # c entry assembled by quadrature equals the closed-form pairing
        e = np.array([1.0])
        grad_e = gd.reconstruct_gradient(e)
        c1 = float(
            np.sum(gd.quad_w * (grad_e[gd.quad_cell, 0] * gd.quad_x[:, 0] ** 2))
            + np.sum(gd.quad_w * gd.reconstruct(e) * 2.0 * gd.quad_x[:, 0])
        )
        expected = abs(c1) / gd.grad_lp_norm(e, 2.0)
        assert abs(indicator_W(gd, phi, div, 2.0) - expected) <= 1e-12

    def test_cr_decay_roughly_linear(self, square_meshes):
        phi = lambda x: np.column_stack([np.sin(np.pi * x[:, 1]), np.sin(np.pi * x[:, 0])])
        div = lambda x: np.zeros(len(x))
        vals = [indicator_W(build_gd(m, "cr"), phi, div, 2.0) for m in square_meshes]
        hs = [m.h for m in square_meshes]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        slope = np.polyfit(np.log(hs), np.log(vals), 1)[0]
        assert slope >= 0.8

    def test_p3_matches_small_oracle(self):
        gd = build_gd(build_uniform_interval(4, 0.0, 1.0), "cr")
        phi = lambda x: (x[:, 0] ** 2)[:, None]
        div = lambda x: 2.0 * x[:, 0]
        got = indicator_W(gd, phi, div, p=3.0)
        phi_q = phi(gd.quad_x)
        c = np.array(
            [
                float(
                    np.sum(gd.quad_w * gd.reconstruct_gradient(e)[gd.quad_cell, 0] * phi_q[:, 0])
                    + np.sum(gd.quad_w * gd.reconstruct(e) * div(gd.quad_x))
                )
                for e in np.eye(gd.n_dofs)
            ]
        )
        oracle = ratio_oracle(gd, lambda v: abs(c @ v), lambda v: gd.grad_lp_norm(v, 3.0))
        assert got <= oracle + 1e-9
        assert got >= oracle - 1e-6

    def test_zero_dof_space_rejected(self):
        gd = build_gd(build_uniform_interval(1, 0.0, 1.0), "p1")
        with pytest.raises(ValueError):
            indicator_W(gd, lambda x: x[:, :1], lambda x: np.ones(len(x)), 2.0)


# -- compactness -----------------------------------------------------------------


class TestIndicatorT:
    def test_zero_shift(self, gd_interval_16):
        assert indicator_T(gd_interval_16, [0.0], 2.0) == 0.0

    def test_single_dof_monotone_in_shift(self, single_dof_gd):
        shifts = [0.05, 0.1, 0.2, 0.4, 0.8]
        vals = [indicator_T(single_dof_gd, [s], 2.0) for s in shifts]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("kind", ["p1", "p1_lumped"])
    @pytest.mark.parametrize("xi", [1 / 16, 0.3, 0.77])
    def test_dense_oracle_1d(self, kind, xi):
        gd = build_gd(build_uniform_interval(8, 0.0, 1.0), kind)
        got = indicator_T(gd, [xi], 2.0)
        assert abs(got - dense_translate_oracle_1d(gd, xi)) <= 1e-8

    def test_shift_larger_than_domain(self, single_dof_gd):
        # no overlap: numerator is sqrt(2) ||Pi v||, still well-defined
        got = indicator_T(single_dof_gd, [5.0], 2.0)
        v = np.array([1.0])
        expected = np.sqrt(2.0) * single_dof_gd.lp_norm(v, 2.0) / single_dof_gd.grad_lp_norm(v, 2.0)
        assert abs(got - expected) <= 1e-12

    def test_2d_oracle_small(self):
        gd = build_gd(build_uniform_triangulation(2, 2), "cr")
        xi = np.array([0.13, -0.07])
        from sgdm.indicators import translate_overlap

        S, U, w_a = translate_overlap(gd, xi)
        rng = np.random.default_rng(2)
        # quadrature identity: overlap integral of products equals the
        # eigenproblem numerator for random vectors
        for _ in range(20):
            v = rng.standard_normal(gd.n_dofs)
            s, u = S @ v, U @ v
            num = np.sum(w_a * (s - u) ** 2) + 2 * gd.lp_norm(v, 2.0) ** 2 - np.sum(w_a * (s**2 + u**2))
            den = gd.grad_lp_norm(v, 2.0)
            assert np.sqrt(max(num, 0.0)) / den <= indicator_T(gd, xi, 2.0) + 1e-10

    def test_p3_between_bounds_small(self):
        gd = build_gd(build_uniform_interval(4, 0.0, 1.0), "p1")
        xi = 0.2
        got = indicator_T(gd, [xi], 3.0)
        from sgdm.indicators import _translate_numerator_p, translate_overlap

        S, U, w_a = translate_overlap(gd, [xi])
        oracle = ratio_oracle(
            gd,
            lambda v: _translate_numerator_p(gd, S, U, w_a, v, 3.0) ** (1 / 3.0),
            lambda v: gd.grad_lp_norm(v, 3.0),
            n_starts=25,
        )
        assert got <= oracle + 1e-8
        assert got >= oracle - 1e-5

    @pytest.mark.xfail(
        strict=True,
        reason="clip_polygon can return a folded polygon, whose area polygon_rule's fan over-counts",
    )
    @pytest.mark.parametrize(
        "refinements, shift",
        [(0, 0.1), (0, 0.5 * np.sqrt(2.0) / 8), (1, 0.5 * np.sqrt(2.0) / 8)],
        ids=["8x8-0.1", "8x8-0.5h0", "refined-0.5h0"],
    )
    def test_overlap_weights_cover_the_overlap(self, refinements, shift):
        # every CR cell carries a DOF, so the overlap quadrature covers the
        # unit square and its translate by (shift, 0): area 1 - shift
        from sgdm.indicators import translate_overlap

        mesh = build_uniform_triangulation(8, 8)
        for _ in range(refinements):
            mesh = refine(mesh)
        w_a = translate_overlap(build_gd(mesh, "cr"), [shift, 0.0])[2]
        assert abs(w_a.sum() - (1.0 - shift)) <= 1e-12


class TestTranslateOverlap:
    """The batched overlap quadrature against the per-pair assembly, bit for
    bit."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["p1", "p1_lumped", "cr"])
    @pytest.mark.parametrize(
        "make_mesh, xi",
        [
            (lambda: build_uniform_interval(8, 0.0, 1.0), [1 / 16]),
            (lambda: build_uniform_interval(8, 0.0, 1.0), [0.3]),
            (lambda: build_uniform_interval(7, -1.0, 2.0), [-0.77]),
            (lambda: build_uniform_triangulation(8, 8), [0.5 * np.sqrt(2.0) / 8, 0.0]),
            (lambda: build_uniform_triangulation(8, 8), [0.1, 0.0]),
            (lambda: build_uniform_triangulation(3, 5, ((0.0, -1.0), (2.0, 0.5))), [0.13, -0.07]),
            # one row of cells up: touching pairs clip to slivers, left out
            (lambda: build_uniform_triangulation(3, 5, ((0.0, -1.0), (2.0, 0.5))), [0.0, 0.3]),
            (lambda: refine(build_uniform_triangulation(2, 3)), [-0.3, 0.45]),
        ],
        ids=[
            "1d-1/16",
            "1d-0.3",
            "1d-shifted-left",
            "8x8-0.5h0",
            "8x8-0.1",
            "rect-oblique",
            "rect-one-row",
            "refined",
        ],
    )
    def test_matches_per_pair_assembly(self, make_mesh, xi, kind):
        gd = build_gd(make_mesh(), kind)
        got, ref = translate_overlap(gd, np.array(xi)), translate_overlap_loop(gd, xi)
        for a, b in zip(got[:2], ref[:2]):
            assert a.shape == b.shape
            np.testing.assert_array_equal(a.indptr, b.indptr)
            np.testing.assert_array_equal(a.indices, b.indices)
            assert a.data.tobytes() == b.data.tobytes()
        assert got[2].tobytes() == ref[2].tobytes()

    def test_blocks_of_box_tests_change_nothing(self, monkeypatch):
        gd = build_gd(build_uniform_triangulation(4, 4), "p1_lumped")
        xi = np.array([0.1, -0.05])
        whole = translate_overlap(gd, xi)
        monkeypatch.setattr(indicators, "_BOX_TESTS", 7 * len(gd.pieces[0]))  # blocks of ~12 rows
        blocks = translate_overlap(gd, xi)
        for a, b in zip(whole[:2], blocks[:2]):
            assert (a != b).nnz == 0
        assert whole[2].tobytes() == blocks[2].tobytes()

    def test_no_overlap(self):
        gd = build_gd(build_uniform_triangulation(2, 2), "cr")
        S, U, w_a = translate_overlap(gd, np.array([5.0, 0.0]))
        assert S.shape == U.shape == (0, gd.n_dofs) and w_a.shape == (0,)


# -- coercivity ------------------------------------------------------------------


class TestPoincare:
    def test_single_dof_closed_form(self, single_dof_gd):
        expected = (1.0 / np.sqrt(3.0)) / 2.0
        assert abs(poincare_constant(single_dof_gd, 2.0) - expected) <= 1e-12

    def test_monotone_approach_to_continuum(self, interval_meshes):
        vals = [poincare_constant(build_gd(m, "p1"), 2.0) for m in interval_meshes]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v <= 1.0 / np.pi + 1e-6 for v in vals)

    def test_domain_scaling(self):
        g1 = build_gd(build_uniform_interval(8, 0.0, 1.0), "p1")
        g2 = build_gd(build_uniform_interval(8, 0.0, 2.0), "p1")
        c1 = poincare_constant(g1, 2.0)
        c2 = poincare_constant(g2, 2.0)
        assert abs(c2 - 2.0 * c1) <= 1e-10

    def test_p3_matches_small_oracle(self):
        gd = build_gd(build_uniform_interval(4, 0.0, 1.0), "p1")
        got = poincare_constant(gd, 3.0)
        oracle = ratio_oracle(gd, lambda v: gd.lp_norm(v, 3.0), lambda v: gd.grad_lp_norm(v, 3.0))
        assert got >= oracle - 1e-6
        assert got <= oracle + 1e-8


class TestEigensolver:
    """The sparse branch of ``_max_gen_eig`` (ARPACK, above the dense size
    limit) against the dense one."""

    @pytest.mark.parametrize("kind", ["p1", "cr"])
    def test_sparse_branch_matches_dense(self, kind, monkeypatch):
        gd = build_gd(build_uniform_triangulation(4, 4), kind)
        xi = np.array([0.1, 0.05])
        dense = [poincare_constant(gd, 2.0), indicator_T(gd, xi, 2.0)]
        calls = []
        eigsh = indicators.spla.eigsh
        monkeypatch.setattr(indicators.spla, "eigsh", lambda *a, **k: calls.append(1) or eigsh(*a, **k))
        monkeypatch.setattr(indicators, "_DENSE_EIG_LIMIT", 4)
        sparse = [poincare_constant(gd, 2.0), indicator_T(gd, xi, 2.0)]
        assert len(calls) == 2
        np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-8)
