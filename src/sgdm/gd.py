"""Gradient discretisations: discrete spaces with function and gradient
reconstruction operators on a simplicial mesh.

The three spaces share one local basis. On a cell with barycentric
coordinates lambda_0..lambda_dim, local basis function i is
``alpha + beta * lambda_i`` and belongs to the DOF ``cell_dofs[c, i]``; the
homogeneous Dirichlet condition removes the boundary DOFs (marked -1).

* ``p1``        -- conforming P1: (alpha, beta) = (0, 1) on the vertex DOFs;
                   piecewise-linear reconstruction.
* ``p1_lumped`` -- mass-lumped P1: the basis of ``p1`` for the gradients,
                   piecewise-constant reconstruction on the barycentric dual
                   cells (1 on the dual region of the owning vertex).
* ``cr``        -- Crouzeix-Raviart: (alpha, beta) = (1, -2) on the DOFs of the
                   interior edges, local function i on the edge opposite
                   vertex i; broken linear reconstruction (coincides with
                   ``p1`` in 1D).

``P``, ``G``, the affine pieces (as arrays) and the per-cell gradient
stencils C_c are all built from that description. Every form
``sum_c C_c^T B_c C_c`` with per-cell blocks B_c is filled by one routine,
``form_values``, into the slots of one pattern per space, and every system
with that pattern is solved by one LAPACK band LU, ``form_solver``.

Scalar fields are callables mapping an (n, dim) coordinate array to (n,)
values; vector fields map to (n, dim).
"""

from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee

from . import quadrature

P1_CONFORMING = "p1"
P1_MASS_LUMPED = "p1_lumped"
CROUZEIX_RAVIART = "cr"
KINDS = (P1_CONFORMING, P1_MASS_LUMPED, CROUZEIX_RAVIART)


class GradientDiscretisation:
    """Discrete space given by its local basis, with sparse reconstruction
    operators and quadrature.

    ``cell_dofs`` (n_cells, dim+1) names the DOF of each local basis function
    ``alpha + beta * lambda_i`` (-1 where the Dirichlet condition removed it);
    ``local_gradients`` (n_cells, dim, dim+1) holds their constant gradients.
    ``P`` maps DOF vectors to function values at the quadrature points,
    ``G`` maps DOF vectors to the per-cell constant gradients (row layout
    cell-major: row ``c*dim + k`` is component k on cell c). ``stencils``
    gives them cell by cell; ``gradient_form`` fills ``sum_c C_c^T B_c C_c``
    into a pattern and slot map kept per space (the stiffness: B_c = meas I),
    and ``form_solver`` factors a matrix with that pattern in band storage.
    """

    def __init__(self, mesh, kind, cell_dofs, alpha, beta, dof_positions):
        self.mesh = mesh
        self.kind = kind
        self.dim = d = mesh.dim
        self.cell_dofs = cell_dofs
        self.alpha, self.beta = alpha, beta
        self.dof_positions = dof_positions
        self.n_dofs = n_dofs = len(dof_positions)
        v = mesh.vertices[mesh.cells]  # (n_c, dim+1, dim)
        A = np.concatenate([np.ones(v.shape[:2] + (1,)), v], axis=2)
        # lambda_i(x) = coeff[c, 0, i] + coeff[c, 1:, i] . x on cell c
        self._bary_coeff = np.linalg.inv(A)
        self.local_gradients = beta * self._bary_coeff[:, 1:, :]

        # row c*dim + k: component k of the local gradients on cell c
        self.G = _basis_matrix(
            np.repeat(cell_dofs, d, axis=0), self.local_gradients.reshape(-1, d + 1), n_dofs
        )
        if kind == P1_MASS_LUMPED:
            self.quad_x, self.quad_w, self.quad_cell, owner, self._dual_regions = _dual_quadrature(mesh)
            dof = cell_dofs[self.quad_cell, owner][:, None]
            self.P = _basis_matrix(dof, np.ones(dof.shape), n_dofs)
        else:
            self.quad_x, self.quad_w, self.quad_cell, lam_ref = _simplex_quadrature(mesh)
            phi = alpha + beta * np.tile(lam_ref, (mesh.n_cells, 1))
            self.P = _basis_matrix(cell_dofs[self.quad_cell], phi, n_dofs)
        mass = (self.P.T @ sp.diags(self.quad_w) @ self.P).tocsc()
        self.mass = 0.5 * (mass + mass.T)
        stiff = self.gradient_form(mesh.cell_measures)
        self.stiffness = 0.5 * (stiff + stiff.T)

    @cached_property
    def pieces(self):
        """The convex regions on which the reconstruction is one affine map,
        built on first use, as arrays ``(polys, dofs, const, lin)``: on piece
        k, with vertices ``polys[k]`` (counter-clockwise in 2D, the two
        endpoints in 1D), the reconstruction of v is ``sum_s v[dofs[k, s]] *
        (const[k, s] + (x @ lin[k])[s])`` over the slots with ``dofs[k, s]
        >= 0`` (-1 where the Dirichlet condition removed the DOF, as in
        ``cell_dofs``); ``lin`` is (n_pieces, dim, n_slots). The pieces are
        the cells, with dim+1 slots, or for ``p1_lumped`` the dual
        sub-regions, with one slot: the owner's DOF."""
        if self.kind == P1_MASS_LUMPED:
            polys, cells, owners = self._dual_regions
            dofs = self.cell_dofs[cells, owners][:, None]
            return polys, dofs, np.ones(dofs.shape), np.zeros((len(dofs), self.dim, 1))
        const = self.alpha + self.beta * self._bary_coeff[:, 0, :]
        return self.mesh.vertices[self.mesh.cells], self.cell_dofs, const, self.local_gradients

    # -- weighted gradient forms: sum_c C_c^T B_c C_c ---------------------------

    @cached_property
    def stencils(self):
        """Per-cell gradient stencils ``(dofs, coef)``: gradient component k
        on cell c is ``sum_i coef[c, k, i] v[dofs[c, i]]``. An eliminated
        basis function is padded with a DOF of its cell (or DOF 0) and
        coefficient 0; a space without DOFs has stencils of width 0."""
        ok = self.cell_dofs >= 0
        pad = np.maximum(self.cell_dofs.max(axis=1, keepdims=True), 0)
        width = self.dim + 1 if self.n_dofs else 0
        dofs = np.where(ok, self.cell_dofs, pad)[:, :width]
        return dofs, (self.local_gradients * ok[:, None, :])[:, :, :width]

    @cached_property
    def _form_layout(self):
        """The sorted column-major keys ``col * n + row`` of all stencil
        blocks (CSC order), each block entry's slot, and the CSC indptr."""
        dofs, _ = self.stencils
        n = self.n_dofs
        keys = (dofs[:, None, :] * n + dofs[:, :, None]).ravel()
        pattern, slots = np.unique(keys, return_inverse=True)
        return pattern, slots, np.searchsorted(pattern, np.arange(n + 1) * n)

    def form_values(self, blocks):
        """Slot values of ``sum_c C_c^T blocks[c] C_c``: blocks are
        (n_cells, dim, dim), or (n_cells,) weights w for the blocks w * I.
        A block of B forms, (B, n_cells, dim, dim) or (B, n_cells), gives
        (B, n_slots) values from one ``bincount`` over slots offset by
        n_slots per form; each form's slots are summed in the same order as
        alone."""
        if np.ndim(blocks) in (1, 2):
            blocks = blocks[..., None, None] * np.eye(self.dim)
        _, coef = self.stencils
        pattern, slots, _ = self._form_layout
        local = coef.transpose(0, 2, 1) @ (blocks @ coef)
        if local.ndim == 3:
            return np.bincount(slots, weights=local.ravel(), minlength=len(pattern))
        n, B = len(pattern), len(local)
        keys = (slots + n * np.arange(B)[:, None]).ravel()
        return np.bincount(keys, weights=local.ravel(), minlength=B * n).reshape(B, n)

    def form_values_of(self, A):
        """Slot values of a sparse matrix whose pattern lies inside the form
        pattern, such as the mass matrix."""
        pattern = self._form_layout[0]
        A = A.tocoo()
        keys = A.col.astype(np.int64) * self.n_dofs + A.row
        slots = np.searchsorted(pattern, keys)
        if not np.array_equal(pattern.take(slots, mode="clip"), keys):
            raise ValueError("matrix pattern is not inside the gradient-form pattern")
        return np.bincount(slots, weights=A.data, minlength=len(pattern))

    def form_matrix(self, values):
        """The (n_dofs, n_dofs) CSC matrix with these slot values."""
        pattern, _, indptr = self._form_layout
        n = self.n_dofs
        return sp.csc_matrix((values, pattern % n, indptr), shape=(n, n))

    @cached_property
    def band_layout(self):
        """Band storage of the form pattern, ``(order, b, place)``: the DOF
        order (natural or reverse Cuthill-McKee, whichever has the smaller
        half-bandwidth; natural on a tie), the half-bandwidth b in that
        order, and each slot's flat index in the column-major LAPACK general
        band array (3b+1, n) of the reordered matrix."""
        pattern = self._form_layout[0]
        n = self.n_dofs
        rows, cols = pattern % n, pattern // n
        graph = sp.csr_matrix((np.ones(len(pattern)), (rows, cols)), shape=(n, n))
        layouts = []
        for order in (np.arange(n), reverse_cuthill_mckee(graph, symmetric_mode=True)):
            pos = np.argsort(order)  # the place of each DOF in the order
            layouts.append((int(np.abs(pos[rows] - pos[cols]).max(initial=0)), order, pos))
        b, order, pos = min(layouts, key=lambda layout: layout[0])
        # entry (i, j) sits at row 2b + i - j of column j: b rows above the
        # upper band are left for the fill-in of the LU factors
        return order, b, pos[cols] * (3 * b + 1) + 2 * b + pos[rows] - pos[cols]

    @cached_property
    def _band_natural(self):
        """Whether the band order is the natural DOF order."""
        order = self.band_layout[0]
        return bool(np.array_equal(order, np.arange(self.n_dofs)))

    def form_solver(self, values):
        """Band LU factors (LAPACK ``dgbtrf``) of the matrix with these slot
        values, as a function that solves it for a right-hand side (n,) or
        for the columns of (n, m); the right-hand side is not overwritten.
        Raises
        ``np.linalg.LinAlgError`` when the matrix is singular."""
        if self.n_dofs == 0:  # LAPACK rejects an empty right-hand side
            return np.copy
        order, b, place = self.band_layout
        ab = np.zeros(self.n_dofs * (3 * b + 1))
        ab[place] = values
        lu, piv, info = lapack.dgbtrf(ab.reshape(self.n_dofs, 3 * b + 1).T, b, b, overwrite_ab=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"singular matrix: zero pivot {info} in band LU")
        if self._band_natural:
            # dgbtrs solves a copy of the right-hand side and returns it
            return lambda rhs: lapack.dgbtrs(lu, b, b, rhs, piv)[0]

        def solve(rhs):
            x, _ = lapack.dgbtrs(lu, b, b, rhs[order], piv, overwrite_b=1)
            out = np.empty_like(x)
            out[order] = x
            return out

        return solve

    def gradient_form(self, blocks):
        """``sum_c C_c^T blocks[c] C_c`` as a CSC matrix (see form_values)."""
        return self.form_matrix(self.form_values(blocks))

    @cached_property
    def eigenbasis(self):
        """Generalized eigenpairs of (mass, stiffness), computed on first use
        and kept: ``(lam, Y, YM)`` with ``Y^T K Y = I``, ``Y^T M Y = diag(lam)``
        (``lam`` clipped at 0) and ``YM = Y^T M``, which maps DOF vectors to
        their eigen-coordinates."""
        M = self.mass.toarray()
        lam, Y = sla.eigh(M, self.stiffness.toarray())
        return np.maximum(lam, 0.0), Y, Y.T @ M

    # -- reconstruction -------------------------------------------------------

    def reconstruct(self, v, points=None):
        """Evaluate the function reconstruction of DOF vector ``v``.

        With ``points=None`` returns values at the quadrature points;
        otherwise at the given (n, dim) points (which must lie in the domain).
        """
        v = self._check(v)
        if points is None:
            return self.P @ v
        return self.reconstruction_matrix(points) @ v

    def reconstruct_gradient(self, v, points=None):
        """Per-cell gradients (n_cells, dim), or gradients at given points."""
        v = self._check(v)
        g = (self.G @ v).reshape(self.mesh.n_cells, self.dim)
        if points is None:
            return g
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return g[self.locate(points)]

    def interpolate(self, u0):
        """Interpolation of an initial condition by nodal/midpoint sampling."""
        if self.n_dofs == 0:
            return np.zeros(0)
        return np.asarray(u0(self.dof_positions), dtype=float).reshape(self.n_dofs)

    # -- norms ----------------------------------------------------------------

    def lp_norm(self, v, p):
        """L^p norm of the function reconstruction (quadrature realization)."""
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        vals = np.abs(self.P @ self._check(v))
        return float(np.sum(self.quad_w * vals**p) ** (1.0 / p))

    def grad_lp_norm(self, v, p):
        """L^p norm of the gradient reconstruction (exact: gradients are
        constant per cell)."""
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        g = self.reconstruct_gradient(v)
        mag = np.linalg.norm(g, axis=1)
        return float(np.sum(self.mesh.cell_measures * mag**p) ** (1.0 / p))

    def l2_inner(self, v, w):
        """L^2 inner product of two reconstructed functions (exactly
        symmetric: computed from commutative pointwise products)."""
        pv = self.P @ self._check(v)
        pw = self.P @ self._check(w)
        return float(np.sum(self.quad_w * (pv * pw)))

    # -- geometry helpers -----------------------------------------------------

    def locate(self, points, tol=1e-12):
        """Cell index containing each point; raises for points outside."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = len(points)
        out = np.empty(n, dtype=int)
        scale = max(1.0, np.abs(self.mesh.vertices).max())
        for start in range(0, n, 512):
            blk = points[start : start + 512]
            ones = np.ones((len(blk), 1))
            aug = np.concatenate([ones, blk], axis=1)  # (b, dim+1)
            # (b, n_cells, dim+1) barycentric coordinates
            lam = np.einsum("bk,cki->bci", aug, self._bary_coeff)
            worst = lam.min(axis=2)
            best = worst.argmax(axis=1)
            if np.any(worst[np.arange(len(blk)), best] < -tol * scale):
                bad = blk[worst[np.arange(len(blk)), best] < -tol * scale][0]
                raise ValueError(f"point {bad} lies outside the meshed domain")
            out[start : start + 512] = best
        return out

    def barycentric(self, points, cells):
        points = np.atleast_2d(points)
        aug = np.concatenate([np.ones((len(points), 1)), points], axis=1)
        return np.einsum("bk,bki->bi", aug, self._bary_coeff[cells])

    def reconstruction_matrix(self, points):
        """Sparse operator E with (E @ v) = reconstruction of v at the points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        cells = self.locate(points)
        lam = self.barycentric(points, cells)
        if self.kind == P1_MASS_LUMPED:
            # 1 on the dual region of the vertex with the largest coordinate
            dof = self.cell_dofs[cells, lam.argmax(axis=1)][:, None]
            return _basis_matrix(dof, np.ones(dof.shape), self.n_dofs)
        return _basis_matrix(self.cell_dofs[cells], self.alpha + self.beta * lam, self.n_dofs)

    def _check(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_dofs,):
            raise ValueError(f"DOF vector has shape {v.shape}, expected ({self.n_dofs},)")
        return v


def build_gd(mesh, kind):
    """Build a gradient discretisation of the requested kind on a mesh."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if kind == CROUZEIX_RAVIART and mesh.dim == 2:
        # DOFs: the interior edges in sorted vertex-pair order
        edges, counts, cell_edges = mesh.edge_table
        interior = counts == 2
        edge_to_dof = np.where(interior, np.cumsum(interior) - 1, -1)
        a, b = edges[interior].T
        midpoints = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        return GradientDiscretisation(mesh, kind, edge_to_dof[cell_edges], 1.0, -2.0, midpoints)
    # cr on 1D meshes coincides with conforming P1
    interior = mesh.interior_vertices()
    vert_to_dof = -np.ones(mesh.n_vertices, dtype=int)
    vert_to_dof[interior] = np.arange(len(interior))
    return GradientDiscretisation(
        mesh, kind, vert_to_dof[mesh.cells], 0.0, 1.0, mesh.vertices[interior]
    )


def _basis_matrix(dof, vals, n_dofs):
    """Sparse (len(dof), n_dofs) matrix whose row r is sum_i vals[r, i] at
    column dof[r, i], leaving out the eliminated functions (dof -1)."""
    ok = dof >= 0
    return sp.coo_matrix(
        (vals[ok], (np.nonzero(ok)[0], dof[ok])), shape=(len(dof), n_dofs)
    ).tocsr()


def _simplex_quadrature(mesh):
    """The simplex rule on every cell, with the barycentric coordinates of
    its reference nodes, (n_loc, dim+1)."""
    if mesh.dim == 1:
        x0 = mesh.vertices[mesh.cells[:, 0], 0]
        x1 = mesh.vertices[mesh.cells[:, 1], 0]
        pts = (x0[:, None] + (x1 - x0)[:, None] * quadrature.INTERVAL_NODES[None, :]).reshape(-1, 1)
        w = ((x1 - x0)[:, None] * quadrature.INTERVAL_WEIGHTS[None, :]).ravel()
        lam_ref = np.column_stack([1.0 - quadrature.INTERVAL_NODES, quadrature.INTERVAL_NODES])
    else:
        v = mesh.vertices[mesh.cells]
        pts = np.einsum("qi,cix->cqx", quadrature.TRIANGLE_BARY, v).reshape(-1, 2)
        w = (mesh.cell_measures[:, None] * quadrature.TRIANGLE_WEIGHTS[None, :]).ravel()
        lam_ref = quadrature.TRIANGLE_BARY
    quad_cell = np.repeat(np.arange(mesh.n_cells), len(lam_ref))
    return pts, w, quad_cell, lam_ref


def _dual_quadrature(mesh):
    """Quadrature subordinate to the barycentric dual cells: each cell is
    subdivided so that every quadrature point lies inside one dual region.
    Regions and points name their owner by its local vertex index. Returns
    the points, weights, cells and owners of the points, then the regions
    as ``(polys, cells, owners)`` arrays: the two half-intervals (endpoints)
    of each 1D cell, or the six sub-triangles (vertex, edge midpoint,
    centroid) of each 2D cell, counter-clockwise on a positively oriented
    cell."""
    if mesh.dim == 1:
        x0, x1 = mesh.vertices[mesh.cells, 0].T
        m = 0.5 * (x0 + x1)
        a, b = np.column_stack([x0, m]), np.column_stack([m, x1])  # (n, 2): the two halves
        pts = (a[..., None] + (b - a)[..., None] * quadrature.INTERVAL_NODES)[..., None]
        wts = (b - a)[..., None] * quadrature.INTERVAL_WEIGHTS
        subs = np.stack([a, b], axis=-1)[..., None]  # (n, 2, 2, 1) endpoints
        owner = np.array([0, 1])
    else:
        V = mesh.vertices[mesh.cells]
        mids = 0.5 * (V + np.roll(V, -1, axis=1))  # m01, m12, m20
        cen = V.mean(axis=1)
        # points 0-2 the vertices, 3-5 the midpoints m01, m12, m20, 6 the centroid
        nodes = np.concatenate([V, mids, cen[:, None, :]], axis=1)
        subs = nodes[:, [[0, 3, 6], [0, 6, 5], [1, 4, 6], [1, 6, 3], [2, 5, 6], [2, 6, 4]]]
        pts = quadrature.TRIANGLE_BARY @ subs  # (n, 6, n_q, 2)
        e1, e2 = subs[:, :, 1] - subs[:, :, 0], subs[:, :, 2] - subs[:, :, 0]
        area = 0.5 * np.abs(e1[..., 0] * e2[..., 1] - e2[..., 0] * e1[..., 1])
        wts = area[..., None] * quadrature.TRIANGLE_WEIGHTS
        owner = np.array([0, 0, 1, 1, 2, 2])
    n_cells, n_sub, n_q = wts.shape
    cells = np.repeat(np.arange(n_cells), n_sub)
    sub_owner = np.tile(owner, n_cells)
    return (
        pts.reshape(-1, mesh.dim),
        wts.ravel(),
        np.repeat(cells, n_q),
        np.repeat(sub_owner, n_q),
        (subs.reshape(-1, *subs.shape[2:]), cells, sub_owner),
    )
