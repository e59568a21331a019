"""Gradient discretisations: reconstruction operators, interpolation, norms."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sgdm import build_gd, build_uniform_interval, build_uniform_triangulation, refine
from sgdm.gd import _basis_matrix, _dual_quadrature, _simplex_quadrature

from conftest import grad_sin_pi, sin_pi
from scalar_reference import interval_rule, triangle_rule


class TestBuild:
    def test_interval_two_cells_single_dof(self, single_dof_gd):
        assert single_dof_gd.n_dofs == 1

    def test_unit_square_interior_vertices(self):
        m = build_uniform_triangulation(2, 2)
        gd = build_gd(m, "p1")
        # 3x3 vertex grid has exactly one interior vertex
        assert gd.n_dofs == 1

    def test_lumped_shares_dofs_with_p1(self, square_meshes):
        m = square_meshes[1]
        assert build_gd(m, "p1_lumped").n_dofs == build_gd(m, "p1").n_dofs

    def test_cr_dofs_are_interior_edges(self, square_meshes):
        m = square_meshes[0]
        gd = build_gd(m, "cr")
        interior_edges = sum(1 for _, k in m.edges().items() if k == 2)
        assert gd.n_dofs == interior_edges

    def test_cr_1d_coincides_with_p1(self, interval_meshes):
        m = interval_meshes[0]
        cr = build_gd(m, "cr")
        p1 = build_gd(m, "p1")
        assert cr.n_dofs == p1.n_dofs
        v = np.linspace(0.3, -0.4, cr.n_dofs)
        np.testing.assert_allclose(cr.reconstruct(v), p1.reconstruct(v))

    def test_unknown_kind(self, interval_meshes):
        with pytest.raises(ValueError, match="kind"):
            build_gd(interval_meshes[0], "q2")


class TestReconstruction:
    @pytest.mark.parametrize("kind", ["p1", "p1_lumped", "cr"])
    def test_zero_vector_everywhere_zero(self, square_meshes, kind):
        gd = build_gd(square_meshes[1], kind)
        z = np.zeros(gd.n_dofs)
        assert np.all(gd.reconstruct(z) == 0.0)
        assert np.all(gd.reconstruct_gradient(z) == 0.0)

    def test_p1_reproduces_linear_functions(self):
        # boundary values eliminated, so test against a hat-combination field
        m = refine(build_uniform_interval(4, 0.0, 1.0))
        gd = build_gd(m, "p1")
        v = gd.interpolate(parab := lambda x: x[:, 0] * (1 - x[:, 0]))
        pts = np.linspace(0.0, 1.0, 33)[:, None]
        vals = gd.reconstruct(v, pts)
        # nodal interpolant is exact at the vertices
        verts = np.sort(m.vertices[:, 0])[:, None]
        np.testing.assert_allclose(gd.reconstruct(v, verts), parab(verts), atol=1e-13)
        assert np.all(np.abs(vals - parab(pts)) <= 0.25 * m.h**2 + 1e-13)

    def test_lumped_reconstruction_is_nodal_constant(self, interval_meshes):
        gd = build_gd(interval_meshes[1], "p1_lumped")
        v = np.arange(1.0, gd.n_dofs + 1)
        # points strictly inside dual cells of interior vertices
        verts = gd.dof_positions[:, 0]
        pts = (verts + 0.1 * interval_meshes[1].h)[:, None]
        np.testing.assert_allclose(gd.reconstruct(v, pts), v, atol=1e-14)

    @pytest.mark.parametrize("kind", ["p1", "p1_lumped", "cr"])
    def test_linearity(self, square_meshes, kind):
        gd = build_gd(square_meshes[1], kind)
        rng = np.random.default_rng(3)
        v, w = rng.standard_normal((2, gd.n_dofs))
        a = 0.731
        np.testing.assert_allclose(
            gd.reconstruct(a * v + w), a * gd.reconstruct(v) + gd.reconstruct(w), atol=1e-13
        )
        np.testing.assert_allclose(
            gd.reconstruct_gradient(a * v + w),
            a * gd.reconstruct_gradient(v) + gd.reconstruct_gradient(w),
            atol=1e-13,
        )

    def test_hat_gradient_two_cells(self, single_dof_gd):
        g = single_dof_gd.reconstruct_gradient(np.array([1.0]))
        np.testing.assert_allclose(np.sort(g[:, 0]), [-2.0, 2.0])

    def test_point_outside_domain(self, gd_interval_16):
        with pytest.raises(ValueError, match="outside"):
            gd_interval_16.reconstruct(np.zeros(gd_interval_16.n_dofs), np.array([[1.5]]))

    def test_size_mismatch(self, gd_interval_16):
        with pytest.raises(ValueError, match="shape"):
            gd_interval_16.reconstruct(np.zeros(3))


LOCAL_BASIS_MESHES = {
    "interval": lambda: build_uniform_interval(6, 0.0, 1.0),
    "rectangle": lambda: build_uniform_triangulation(3, 2, ((0.0, 0.0), (1.5, 1.0))),
    "refined": lambda: refine(build_uniform_triangulation(2, 2)),
}


@pytest.fixture(
    scope="module",
    params=[(m, k) for m in LOCAL_BASIS_MESHES for k in ("p1", "p1_lumped", "cr")],
    ids=lambda mk: f"{mk[0]}-{mk[1]}",
)
def local_basis_gd(request):
    mesh_name, kind = request.param
    return build_gd(LOCAL_BASIS_MESHES[mesh_name](), kind)


class TestLocalBasis:
    def test_reconstruction_matrix_at_quadrature_is_P(self, local_basis_gd):
        gd = local_basis_gd
        E = gd.reconstruction_matrix(gd.quad_x)
        assert E.shape == gd.P.shape
        assert np.abs((E - gd.P).toarray()).max(initial=0.0) <= 1e-13

    def test_pieces_match_P_on_their_quadrature_points(self, local_basis_gd):
        # the quadrature points come in equal consecutive runs, one per piece:
        # a cell's points (p1, cr) or a dual sub-region's points (p1_lumped)
        gd = local_basis_gd
        v = np.random.default_rng(2).standard_normal(gd.n_dofs)
        Pv = gd.P @ v
        polys, dofs, const, lin = gd.pieces
        # a lumped cell splits into 2 half-intervals or 6 sub-triangles
        per_cell = {1: 2, 2: 6}[gd.dim] if gd.kind == "p1_lumped" else 1
        assert len(polys) == per_cell * gd.mesh.n_cells
        x = np.split(gd.quad_x, len(polys))
        for k, (xq, ref) in enumerate(zip(x, np.split(Pv, len(polys)))):
            ok = dofs[k] >= 0
            vals = (const[k, ok][None, :] + xq @ lin[k][:, ok]) @ v[dofs[k, ok]]
            np.testing.assert_allclose(vals, ref, rtol=0, atol=1e-13)

    def test_gradients_are_the_local_basis_gradients(self, local_basis_gd):
        gd = local_basis_gd
        v = np.random.default_rng(4).standard_normal(gd.n_dofs)
        ok = gd.cell_dofs >= 0
        vals = np.where(ok, v[np.maximum(gd.cell_dofs, 0)], 0.0)
        expected = np.einsum("cdi,ci->cd", gd.local_gradients, vals)
        np.testing.assert_allclose(gd.reconstruct_gradient(v), expected, rtol=0, atol=1e-12)


def _same_matrix(A, B):
    """Equal CSR matrices, bit for bit."""
    return (
        A.shape == B.shape and np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)
        and A.data.tobytes() == B.data.tobytes()
    )


class TestTransfer:
    @pytest.mark.parametrize("kind", ["p1", "cr", "p1_lumped"])
    @pytest.mark.parametrize("mesh", ["interval", "rectangle", "refined"])
    def test_equals_the_located_reconstruction_bitwise(self, mesh, kind):
        # the mesh itself (a pair of levels that differ in time only), its
        # refinement and the refinement of that
        coarse = build_gd(LOCAL_BASIS_MESHES[mesh](), kind)
        once = refine(coarse.mesh)
        for fine in (coarse, build_gd(once, kind), build_gd(refine(once), kind)):
            assert _same_matrix(coarse.transfer_matrix(fine), coarse.reconstruction_matrix(fine.quad_x))

    def test_time_only_pair_shares_one_mesh(self):
        # the pair of tests/test_analysis.py whose levels differ in time only
        gd = build_gd(build_uniform_interval(8, 0.0, 1.0), "p1")
        E = gd.transfer_matrix(gd)
        assert _same_matrix(E, gd.reconstruction_matrix(gd.quad_x))
        assert np.abs((E - gd.P).toarray()).max() <= 1e-13

    @pytest.mark.parametrize("kind", ["p1", "p1_lumped"])
    @pytest.mark.parametrize(
        "coarse, fine",
        [
            (lambda: build_uniform_interval(2, 0.0, 1.0), lambda: build_uniform_interval(3, 0.0, 1.0)),
            (lambda: build_uniform_triangulation(2, 2), lambda: build_uniform_triangulation(3, 3)),
        ],
        ids=["interval", "square"],
    )
    def test_non_nested_fine_mesh_raises(self, coarse, fine, kind):
        # a fine cell across a coarse edge has points outside the coarse
        # cell that holds its centroid
        with pytest.raises(ValueError, match="outside the cell of its fine cell's centroid"):
            build_gd(coarse(), kind).transfer_matrix(build_gd(fine(), kind))


class TestGradientForm:
    """``gradient_form`` against the sparse triple product it replaced."""

    def test_isotropic_blocks_match_triple_product(self, local_basis_gd):
        gd = local_basis_gd
        w = np.random.default_rng(6).uniform(0.5, 2.0, gd.mesh.n_cells)
        ref = gd.G.T @ sp.diags(np.repeat(w, gd.dim)) @ gd.G
        got = gd.gradient_form(w)
        assert got.format == "csc"
        scale = max(np.abs(ref).max(), 1e-300)
        assert np.abs((got - ref).toarray()).max(initial=0.0) <= 1e-13 * scale

    def test_full_nonsymmetric_blocks_match_triple_product(self, local_basis_gd):
        gd = local_basis_gd
        B = np.random.default_rng(8).standard_normal((gd.mesh.n_cells, gd.dim, gd.dim))
        ref = gd.G.T @ sp.block_diag(list(B)) @ gd.G
        got = gd.gradient_form(B)
        scale = max(np.abs(ref).max(), 1e-300)
        assert np.abs((got - ref).toarray()).max(initial=0.0) <= 1e-13 * scale

    def test_band_holds_the_same_matrix(self, local_basis_gd):
        gd = local_basis_gd
        vals = gd.form_values(np.random.default_rng(9).uniform(0.5, 2.0, gd.mesh.n_cells))
        order, b, place = gd.band_layout
        n = gd.n_dofs
        ab = np.zeros(n * (3 * b + 1))
        ab[place] = vals
        ab = ab.reshape(n, 3 * b + 1).T
        # read entry (i, j) of the reordered matrix back from row 2b + i - j
        i, j = np.nonzero(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= b)
        A = np.zeros((n, n))
        A[order[i], order[j]] = ab[2 * b + i - j, j]
        np.testing.assert_array_equal(A, gd.form_matrix(vals).toarray())

    def test_band_solve_matches_sparse_solve(self, local_basis_gd):
        gd = local_basis_gd
        vals = gd.mass_values(gd.quad_w) + gd.form_values(gd.mesh.cell_measures)
        rhs = np.random.default_rng(10).standard_normal(gd.n_dofs)
        kept = rhs.copy()
        x = gd.form_solver(vals)(rhs)
        np.testing.assert_array_equal(rhs, kept)
        ref = spla.spsolve(gd.form_matrix(vals), rhs)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_band_solve_of_several_right_hand_sides(self, local_basis_gd):
        gd = local_basis_gd
        vals = gd.mass_values(gd.quad_w) + gd.form_values(gd.mesh.cell_measures)
        rhs = np.random.default_rng(11).standard_normal((gd.n_dofs, 3))
        kept = rhs.copy()
        solve = gd.form_solver(vals)
        X = solve(rhs)
        np.testing.assert_array_equal(rhs, kept)
        assert X.shape == rhs.shape
        for j in range(3):
            x = solve(rhs[:, j])
            assert np.abs(X[:, j] - x).max() <= 1e-14 * np.abs(x).max()

    def test_form_values_of_a_block_match_each_form(self, local_basis_gd):
        # one bincount over offset slots fills every form as it is filled alone
        gd = local_basis_gd
        rng = np.random.default_rng(12)
        blocks = rng.standard_normal((3, gd.mesh.n_cells, gd.dim, gd.dim))
        weights = rng.random((3, gd.mesh.n_cells))
        for block in (blocks, weights):
            values = gd.form_values(block)
            assert values.shape == (3, len(gd.form_values(block[0])))
            for b in range(3):
                np.testing.assert_array_equal(values[b], gd.form_values(block[b]))
        isotropic = gd.form_values(weights[0][:, None, None] * np.eye(gd.dim))
        got = gd.form_values(weights[0])
        assert np.abs(got - isotropic).max() <= 1e-14 * np.abs(isotropic).max()

    def test_band_order_picks_reverse_cuthill_mckee(self):
        gd = build_gd(refine(build_uniform_triangulation(10, 10)), "p1")
        A = gd.gradient_form(gd.mesh.cell_measures).tocoo()
        assert np.abs(A.row - A.col).max() == 280
        order, b, _ = gd.band_layout
        assert b == 19
        assert not np.array_equal(order, np.arange(gd.n_dofs))

    def test_band_order_keeps_natural_when_narrower(self):
        gd = build_gd(build_uniform_triangulation(20, 20), "cr")
        order, b, _ = gd.band_layout
        assert b == 58
        np.testing.assert_array_equal(order, np.arange(gd.n_dofs))

    def test_singular_band_raises(self, local_basis_gd):
        gd = local_basis_gd
        with pytest.raises(np.linalg.LinAlgError):
            gd.form_solver(0.0 * gd.form_values(gd.mesh.cell_measures))

    def test_mass_pattern_inside_form_pattern(self, local_basis_gd):
        # the stepper adds the mass into the form's slots
        _assert_mass_values_match_product(local_basis_gd)


def _assert_mass_values_match_product(gd):
    """``mass_values`` against the sparse product ``P^T diag(w) P`` it
    replaced, for the quadrature weights and a block of random ones."""
    weights = np.random.default_rng(13).uniform(0.5, 2.0, (3, len(gd.quad_w)))
    block = gd.mass_values(weights)
    assert block.shape == (3, len(gd.mass_values(gd.quad_w)))
    for w, values in zip([gd.quad_w, *weights], [gd.mass_values(gd.quad_w), *block]):
        ref = (gd.P.T @ sp.diags(w) @ gd.P).toarray()
        got = gd.form_matrix(values).toarray()
        # the fill sums each cell's points first, the product sums point by
        # point: a few units in the last place apart (1.1e-15 seen)
        assert np.abs(got - ref).max(initial=0.0) <= 4e-15 * np.abs(ref).max(initial=0.0)


@pytest.fixture(
    scope="module",
    params=[(m, k) for m in LOCAL_BASIS_MESHES for k in ("p1", "p1_lumped", "cr")] + [("one_cell", "p1")],
    ids=lambda mk: f"{mk[0]}-{mk[1]}",
)
def value_form_gd(request):
    """The local-basis spaces and one space without DOFs (stencil width 0)."""
    mesh_name, kind = request.param
    meshes = dict(LOCAL_BASIS_MESHES, one_cell=lambda: build_uniform_interval(1, 0.0, 1.0))
    return build_gd(meshes[mesh_name](), kind)


class TestValueForm:
    def test_mass_values_without_dofs(self):
        gd = build_gd(build_uniform_interval(1, 0.0, 1.0), "p1")
        assert gd.n_dofs == 0 and gd.mass.shape == (0, 0)
        _assert_mass_values_match_product(gd)

    def test_mass_is_exactly_symmetric(self, value_form_gd):
        M = value_form_gd.mass.toarray()
        np.testing.assert_array_equal(M, M.T)

    def test_P_is_built_from_the_basis_values_at_the_points(self, value_form_gd):
        gd = value_form_gd
        if gd.kind == "p1_lumped":
            _, _, cells, owner, _ = _dual_quadrature(gd.mesh)
            dof = gd.cell_dofs[cells, owner][:, None]
            ref = _basis_matrix(dof, np.ones(dof.shape), gd.n_dofs)
        else:
            lam_ref = _simplex_quadrature(gd.mesh)[3]
            phi = gd.alpha + gd.beta * np.tile(lam_ref, (gd.mesh.n_cells, 1))
            ref = _basis_matrix(gd.cell_dofs[gd.quad_cell], phi, gd.n_dofs)
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(gd.P, part), getattr(ref, part))


def _dual_quadrature_loop(mesh):
    """The cell-by-cell construction of the lumped quadrature, kept as the
    reference for the vectorised one."""
    pts, wts, cells, owners, polys = [], [], [], [], []
    if mesh.dim == 1:
        for c, (x0, x1) in enumerate(mesh.vertices[mesh.cells, 0]):
            m = 0.5 * (x0 + x1)
            for a, b, owner in ((x0, m, 0), (m, x1, 1)):
                x, w = interval_rule(a, b)
                pts.append(x[:, None])
                wts.append(w)
                cells.append(np.full(len(w), c))
                owners.append(np.full(len(w), owner))
                polys.append((np.array([[a], [b]]), c, owner))
    else:
        for c, V in enumerate(mesh.vertices[mesh.cells]):
            mids = 0.5 * (V + np.roll(V, -1, axis=0))  # m01, m12, m20
            cen = V.mean(axis=0)
            subs = [
                (np.array([V[0], mids[0], cen]), 0),
                (np.array([V[0], cen, mids[2]]), 0),
                (np.array([V[1], mids[1], cen]), 1),
                (np.array([V[1], cen, mids[0]]), 1),
                (np.array([V[2], mids[2], cen]), 2),
                (np.array([V[2], cen, mids[1]]), 2),
            ]
            for tri, owner in subs:
                x, w = triangle_rule(tri)
                pts.append(x)
                wts.append(w)
                cells.append(np.full(len(w), c))
                owners.append(np.full(len(w), owner))
                x, y = tri[:, 0], tri[:, 1]
                if np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)) < 0:
                    tri = tri[::-1]
                polys.append((tri, c, owner))
    return np.vstack(pts), np.concatenate(wts), np.concatenate(cells), np.concatenate(owners), polys


@pytest.mark.parametrize(
    "mesh",
    [
        build_uniform_interval(7, -1.0, 2.0),
        build_uniform_triangulation(4, 3, ((0.0, -1.0), (2.0, 0.5))),
        refine(build_uniform_triangulation(3, 5, ((0.0, -1.0), (2.0, 0.5)))),
    ],
    ids=["interval", "rectangle", "refined"],
)
def test_lumped_quadrature_matches_cell_loop(mesh):
    got, ref = _dual_quadrature(mesh), _dual_quadrature_loop(mesh)
    for a, b in zip(got[:4], ref[:4]):
        np.testing.assert_array_equal(a, b)
    polys, cells, owners = got[4]
    assert len(polys) == len(cells) == len(owners) == len(ref[4])
    for poly, c, owner, (poly_ref, c_ref, owner_ref) in zip(polys, cells, owners, ref[4]):
        np.testing.assert_array_equal(poly, poly_ref)
        assert (c, owner) == (c_ref, owner_ref)


class TestInterpolation:
    def test_zero_function(self, gd_interval_16):
        np.testing.assert_array_equal(
            gd_interval_16.interpolate(lambda x: np.zeros(len(x))), 0.0
        )

    def test_hat_gives_unit_vector(self, interval_meshes):
        gd = build_gd(interval_meshes[1], "p1")
        e = np.zeros(gd.n_dofs)
        e[2] = 1.0
        hat = lambda x: gd.reconstruct(e, x)
        np.testing.assert_allclose(gd.interpolate(hat), e, atol=1e-14)

    def test_sine_interpolation_error_order_two(self):
        m = build_uniform_interval(8, 0.0, 1.0)
        errs = []
        for _ in range(4):
            gd = build_gd(m, "p1")
            v = gd.interpolate(sin_pi)
            diff = gd.reconstruct(v) - sin_pi(gd.quad_x)
            errs.append(np.sqrt(np.sum(gd.quad_w * diff**2)))
            m = refine(m)
        ratios = [errs[i] / errs[i + 1] for i in range(3)]
        assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
        assert all(3.5 <= r <= 4.5 for r in ratios)

    def test_cr_interpolates_at_edge_midpoints(self, square_meshes):
        gd = build_gd(square_meshes[1], "cr")
        vals = gd.interpolate(sin_product := lambda x: np.sin(x[:, 0] + 2 * x[:, 1]))
        np.testing.assert_allclose(vals, sin_product(gd.dof_positions), atol=1e-14)


class TestNorms:
    def test_zero_vector(self, gd_interval_16):
        z = np.zeros(gd_interval_16.n_dofs)
        assert gd_interval_16.lp_norm(z, 2.0) == 0.0
        assert gd_interval_16.grad_lp_norm(z, 3.0) == 0.0

    def test_hat_hand_integration(self, single_dof_gd):
        # hat on (0,1) with peak 1 at x=1/2: ||.||_2^2 = 1/3, ||grad||_2^2 = 4
        v = np.array([1.0])
        assert abs(single_dof_gd.lp_norm(v, 2.0) - np.sqrt(1.0 / 3.0)) <= 1e-12
        assert abs(single_dof_gd.grad_lp_norm(v, 2.0) - 2.0) <= 1e-12
        # L1 norms: area under hat = 1/2; |grad| = 2 everywhere
        assert abs(single_dof_gd.lp_norm(v, 1.0) - 0.5) <= 1e-12
        assert abs(single_dof_gd.grad_lp_norm(v, 1.0) - 2.0) <= 1e-12

    def test_inner_product_symmetric(self, gd_interval_16):
        rng = np.random.default_rng(11)
        v, w = rng.standard_normal((2, gd_interval_16.n_dofs))
        assert gd_interval_16.l2_inner(v, w) == gd_interval_16.l2_inner(w, v)

    def test_p_below_one_rejected(self, gd_interval_16):
        with pytest.raises(ValueError):
            gd_interval_16.lp_norm(np.zeros(gd_interval_16.n_dofs), 0.5)

    @pytest.mark.parametrize("kind", ["p1", "p1_lumped", "cr"])
    def test_gradient_norm_is_a_norm(self, square_meshes, kind):
        gd = build_gd(square_meshes[1], kind)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            v = rng.standard_normal(gd.n_dofs)
            if np.linalg.norm(v) > 1e-12:
                assert gd.grad_lp_norm(v, 2.0) > 0.0

    def test_discrete_sobolev_embedding(self, interval_meshes):
        # ||Pi v||_L4 <= C ||grad v||_L2 with one C across refinements
        rng = np.random.default_rng(5)
        gds = [build_gd(m, "p1") for m in interval_meshes[:3]]
        ratios = []
        for gd in gds:
            level = []
            for _ in range(500):
                v = rng.standard_normal(gd.n_dofs)
                level.append(gd.lp_norm(v, 4.0) / gd.grad_lp_norm(v, 2.0))
            ratios.append(max(level))
        C = 1.5 * ratios[0]
        assert all(r <= C for r in ratios)
