"""Gradient discretisations: discrete spaces with function and gradient
reconstruction operators on a simplicial mesh.

Three kinds are provided, all with homogeneous Dirichlet conditions built in
(boundary degrees of freedom eliminated):

* ``p1``        -- conforming P1: nodal hats, piecewise-linear reconstruction.
* ``p1_lumped`` -- mass-lumped P1: same gradients, piecewise-constant
                   reconstruction on the barycentric dual cells.
* ``cr``        -- Crouzeix-Raviart: edge-midpoint unknowns, broken linear
                   reconstruction (coincides with ``p1`` in 1D).

Scalar fields are callables mapping an (n, dim) coordinate array to (n,)
values; vector fields map to (n, dim).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import quadrature

P1_CONFORMING = "p1"
P1_MASS_LUMPED = "p1_lumped"
CROUZEIX_RAVIART = "cr"
KINDS = (P1_CONFORMING, P1_MASS_LUMPED, CROUZEIX_RAVIART)


@dataclass
class Piece:
    """A convex region on which the reconstruction is a single affine map.

    value(x) = sum_j v[dofs[j]] * (const[j] + lin[j] . x) on the region.
    ``poly`` is (k, 2) in 2D or (2, 1) interval endpoints in 1D.
    """

    poly: np.ndarray
    dofs: np.ndarray
    const: np.ndarray
    lin: np.ndarray


class GradientDiscretisation:
    """Discrete space with sparse reconstruction operators and quadrature.

    ``P`` maps DOF vectors to function values at the quadrature points,
    ``G`` maps DOF vectors to the per-cell constant gradients (row layout
    cell-major: row ``c*dim + k`` is component k on cell c).
    """

    def __init__(self, mesh, kind, n_dofs, quad_x, quad_w, quad_cell, P, G, dof_positions, pieces):
        self.mesh = mesh
        self.kind = kind
        self.n_dofs = n_dofs
        self.quad_x = quad_x
        self.quad_w = quad_w
        self.quad_cell = quad_cell
        self.P = P.tocsr()
        self.G = G.tocsr()
        self.dof_positions = dof_positions
        self.pieces = pieces
        self.dim = mesh.dim
        mass = (self.P.T @ sp.diags(quad_w) @ self.P).tocsc()
        self.mass = 0.5 * (mass + mass.T)
        meas = np.repeat(mesh.cell_measures, self.dim)
        stiff = (self.G.T @ sp.diags(meas) @ self.G).tocsc()
        self.stiffness = 0.5 * (stiff + stiff.T)
        # Barycentric coefficient tensor per cell, for point location/eval.
        v = mesh.vertices[mesh.cells]  # (n_c, dim+1, dim)
        A = np.concatenate([np.ones(v.shape[:2] + (1,)), v], axis=2)
        self._bary_coeff = np.linalg.inv(A)  # (n_c, dim+1, dim+1)

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
        points = np.atleast_2d(np.asarray(points, dtype=float))
        cells = self.locate(points)
        return self._eval_in_cells(v, points, cells)

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
        n = len(points)
        if self.kind == P1_MASS_LUMPED:
            owner = self.mesh.cells[cells, lam.argmax(axis=1)]
            dof = self._vert_to_dof[owner]
            ok = dof >= 0
            return sp.coo_matrix(
                (np.ones(ok.sum()), (np.nonzero(ok)[0], dof[ok])), shape=(n, self.n_dofs)
            ).tocsr()
        if self.kind == CROUZEIX_RAVIART and self.dim == 2:
            vals = 1.0 - 2.0 * lam
            dof = self._cell_edge_dofs[cells]
        else:
            vals = lam
            dof = self._vert_to_dof[self.mesh.cells[cells]]
        ok = dof >= 0
        rows = np.nonzero(ok)[0]
        return sp.coo_matrix(
            (vals[ok], (rows, dof[ok])), shape=(n, self.n_dofs)
        ).tocsr()

    def _check(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_dofs,):
            raise ValueError(f"DOF vector has shape {v.shape}, expected ({self.n_dofs},)")
        return v

    def _eval_in_cells(self, v, points, cells):
        lam = self.barycentric(points, cells)
        if self.kind == P1_MASS_LUMPED:
            owner_local = lam.argmax(axis=1)
            owner = self.mesh.cells[cells, owner_local]
            dof = self._vert_to_dof[owner]
            vals = np.where(dof >= 0, v[np.maximum(dof, 0)], 0.0)
            return vals
        if self.kind == CROUZEIX_RAVIART and self.dim == 2:
            psi = 1.0 - 2.0 * lam  # basis of the edge opposite each vertex
            dof = self._cell_edge_dofs[cells]  # (n, 3), -1 for boundary edges
            vv = np.where(dof >= 0, v[np.maximum(dof, 0)], 0.0)
            return np.sum(psi * vv, axis=1)
        dof = self._vert_to_dof[self.mesh.cells[cells]]
        vv = np.where(dof >= 0, v[np.maximum(dof, 0)], 0.0)
        return np.sum(lam * vv, axis=1)


def build_gd(mesh, kind):
    """Build a gradient discretisation of the requested kind on a mesh."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if kind == CROUZEIX_RAVIART and mesh.dim == 2:
        return _build_cr(mesh)
    if kind == P1_MASS_LUMPED:
        return _build_p1(mesh, lumped=True, label=kind)
    # cr on 1D meshes coincides with conforming P1
    return _build_p1(mesh, lumped=False, label=kind)


# -- P1 (conforming and mass-lumped) ------------------------------------------


def _p1_data(mesh):
    vert_to_dof = -np.ones(mesh.n_vertices, dtype=int)
    interior = mesh.interior_vertices()
    vert_to_dof[interior] = np.arange(len(interior))
    v = mesh.vertices[mesh.cells]
    A = np.concatenate([np.ones(v.shape[:2] + (1,)), v], axis=2)
    coeff = np.linalg.inv(A)  # lambda_i(x) = coeff[c,0,i] + coeff[c,1:,i] . x
    return vert_to_dof, interior, coeff


def _grad_matrix(mesh, coeff, vert_to_dof, scale=1.0):
    d = mesh.dim
    n_dofs = int((vert_to_dof >= 0).sum())
    rows, cols, vals = [], [], []
    for i in range(d + 1):
        dof = vert_to_dof[mesh.cells[:, i]]
        ok = dof >= 0
        cells_ok = np.nonzero(ok)[0]
        for k in range(d):
            rows.append(cells_ok * d + k)
            cols.append(dof[ok])
            vals.append(scale * coeff[cells_ok, 1 + k, i])
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_cells * d, n_dofs),
    )


def _build_p1(mesh, lumped, label):
    d = mesh.dim
    vert_to_dof, interior, coeff = _p1_data(mesh)
    n_dofs = len(interior)
    G = _grad_matrix(mesh, coeff, vert_to_dof)

    if not lumped:
        quad_x, quad_w, quad_cell = _simplex_quadrature(mesh)
        n_loc = len(quad_w) // mesh.n_cells
        if d == 1:
            lam_ref = np.column_stack([1.0 - quadrature.INTERVAL_NODES, quadrature.INTERVAL_NODES])
        else:
            lam_ref = quadrature.TRIANGLE_BARY
        rows, cols, vals = [], [], []
        for i in range(d + 1):
            dof = vert_to_dof[mesh.cells[:, i]]
            ok = np.nonzero(dof >= 0)[0]
            q = (ok[:, None] * n_loc + np.arange(n_loc)[None, :]).ravel()
            rows.append(q)
            cols.append(np.repeat(dof[ok], n_loc))
            vals.append(np.tile(lam_ref[:, i], len(ok)))
        P = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(len(quad_w), n_dofs),
        )
        pieces = _p1_pieces(mesh, coeff, vert_to_dof)
    else:
        quad_x, quad_w, quad_cell, owners, sub_polys = _dual_quadrature(mesh)
        dof = vert_to_dof[owners]
        ok = dof >= 0
        P = sp.coo_matrix(
            (np.ones(ok.sum()), (np.nonzero(ok)[0], dof[ok])),
            shape=(len(quad_w), n_dofs),
        )
        pieces = [
            Piece(
                poly,
                np.array([vert_to_dof[o]]) if vert_to_dof[o] >= 0 else np.empty(0, dtype=int),
                np.ones(1 if vert_to_dof[o] >= 0 else 0),
                np.zeros((1 if vert_to_dof[o] >= 0 else 0, d)),
            )
            for poly, o in sub_polys
        ]

    g = GradientDiscretisation(
        mesh, label, n_dofs, quad_x, quad_w, quad_cell, P, G,
        mesh.vertices[interior], pieces,
    )
    g._vert_to_dof = vert_to_dof
    return g


def _p1_pieces(mesh, coeff, vert_to_dof):
    pieces = []
    for c in range(mesh.n_cells):
        dofs, consts, lins = [], [], []
        for i in range(mesh.dim + 1):
            dof = vert_to_dof[mesh.cells[c, i]]
            if dof >= 0:
                dofs.append(dof)
                consts.append(coeff[c, 0, i])
                lins.append(coeff[c, 1:, i])
        pieces.append(
            Piece(
                mesh.vertices[mesh.cells[c]],
                np.array(dofs, dtype=int),
                np.array(consts),
                np.array(lins).reshape(len(dofs), mesh.dim),
            )
        )
    return pieces


def _simplex_quadrature(mesh):
    if mesh.dim == 1:
        x0 = mesh.vertices[mesh.cells[:, 0], 0]
        x1 = mesh.vertices[mesh.cells[:, 1], 0]
        pts = (x0[:, None] + (x1 - x0)[:, None] * quadrature.INTERVAL_NODES[None, :]).reshape(-1, 1)
        w = ((x1 - x0)[:, None] * quadrature.INTERVAL_WEIGHTS[None, :]).ravel()
        n_loc = len(quadrature.INTERVAL_WEIGHTS)
    else:
        v = mesh.vertices[mesh.cells]
        pts = np.einsum("qi,cix->cqx", quadrature.TRIANGLE_BARY, v).reshape(-1, 2)
        w = (mesh.cell_measures[:, None] * quadrature.TRIANGLE_WEIGHTS[None, :]).ravel()
        n_loc = len(quadrature.TRIANGLE_WEIGHTS)
    quad_cell = np.repeat(np.arange(mesh.n_cells), n_loc)
    return pts, w, quad_cell


def _dual_quadrature(mesh):
    """Quadrature subordinate to the barycentric dual cells: each cell is
    subdivided so that every quadrature point lies inside one dual region."""
    pts, wts, cells, owners, polys = [], [], [], [], []
    if mesh.dim == 1:
        for c, (i0, i1) in enumerate(mesh.cells):
            x0, x1 = mesh.vertices[i0, 0], mesh.vertices[i1, 0]
            m = 0.5 * (x0 + x1)
            for a, b, owner in ((x0, m, i0), (m, x1, i1)):
                x, w = quadrature.interval_rule(a, b)
                pts.append(x[:, None])
                wts.append(w)
                cells.append(np.full(len(w), c))
                owners.append(np.full(len(w), owner))
                polys.append((np.array([[a], [b]]), owner))
    else:
        for c, cell in enumerate(mesh.cells):
            V = mesh.vertices[cell]
            mids = 0.5 * (V + np.roll(V, -1, axis=0))  # m01, m12, m20
            cen = V.mean(axis=0)
            subs = [
                (np.array([V[0], mids[0], cen]), cell[0]),
                (np.array([V[0], cen, mids[2]]), cell[0]),
                (np.array([V[1], mids[1], cen]), cell[1]),
                (np.array([V[1], cen, mids[0]]), cell[1]),
                (np.array([V[2], mids[2], cen]), cell[2]),
                (np.array([V[2], cen, mids[1]]), cell[2]),
            ]
            for tri, owner in subs:
                x, w = quadrature.triangle_rule(tri)
                pts.append(x)
                wts.append(w)
                cells.append(np.full(len(w), c))
                owners.append(np.full(len(w), owner))
                polys.append((_ccw(tri), owner))
    return (
        np.vstack(pts),
        np.concatenate(wts),
        np.concatenate(cells),
        np.concatenate(owners),
        polys,
    )


def _ccw(poly):
    x, y = poly[:, 0], poly[:, 1]
    if 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) < 0:
        return poly[::-1]
    return poly


# -- Crouzeix-Raviart ----------------------------------------------------------


def _build_cr(mesh):
    d = 2
    pairs = mesh.edges()
    interior_edges = sorted(e for e, k in pairs.items() if k == 2)
    edge_to_dof = {e: i for i, e in enumerate(interior_edges)}
    n_dofs = len(interior_edges)

    # local edge i is opposite local vertex i
    cell_edge_dofs = -np.ones((mesh.n_cells, 3), dtype=int)
    for c, (v0, v1, v2) in enumerate(mesh.cells):
        loc = [(v1, v2), (v2, v0), (v0, v1)]
        for i, (a, b) in enumerate(loc):
            cell_edge_dofs[c, i] = edge_to_dof.get((min(a, b), max(a, b)), -1)

    _, _, coeff = _p1_data(mesh)
    quad_x, quad_w, quad_cell = _simplex_quadrature(mesh)
    n_loc = len(quadrature.TRIANGLE_WEIGHTS)
    psi_ref = 1.0 - 2.0 * quadrature.TRIANGLE_BARY  # psi_i = 1 - 2 lambda_i

    rows, cols, vals = [], [], []
    g_rows, g_cols, g_vals = [], [], []
    for i in range(3):
        dof = cell_edge_dofs[:, i]
        ok = np.nonzero(dof >= 0)[0]
        q = (ok[:, None] * n_loc + np.arange(n_loc)[None, :]).ravel()
        rows.append(q)
        cols.append(np.repeat(dof[ok], n_loc))
        vals.append(np.tile(psi_ref[:, i], len(ok)))
        for k in range(d):
            g_rows.append(ok * d + k)
            g_cols.append(dof[ok])
            g_vals.append(-2.0 * coeff[ok, 1 + k, i])
    P = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(quad_w), n_dofs),
    )
    G = sp.coo_matrix(
        (np.concatenate(g_vals), (np.concatenate(g_rows), np.concatenate(g_cols))),
        shape=(mesh.n_cells * d, n_dofs),
    )

    pieces = []
    for c in range(mesh.n_cells):
        dofs, consts, lins = [], [], []
        for i in range(3):
            dof = cell_edge_dofs[c, i]
            if dof >= 0:
                dofs.append(dof)
                consts.append(1.0 - 2.0 * coeff[c, 0, i])
                lins.append(-2.0 * coeff[c, 1:, i])
        pieces.append(
            Piece(
                mesh.vertices[mesh.cells[c]],
                np.array(dofs, dtype=int),
                np.array(consts),
                np.array(lins).reshape(len(dofs), d),
            )
        )

    midpoints = np.array([0.5 * (mesh.vertices[a] + mesh.vertices[b]) for a, b in interior_edges])
    midpoints = midpoints.reshape(n_dofs, d)
    g = GradientDiscretisation(
        mesh, CROUZEIX_RAVIART, n_dofs, quad_x, quad_w, quad_cell, P, G, midpoints, pieces
    )
    g._cell_edge_dofs = cell_edge_dofs
    g._vert_to_dof = -np.ones(mesh.n_vertices, dtype=int)  # unused for cr
    return g
