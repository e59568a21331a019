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

The reconstruction matrix ``P``, the gradient matrix ``G``, the affine pieces
and the stepper's per-cell stencils are all built from that description.

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
    """Discrete space given by its local basis, with sparse reconstruction
    operators and quadrature.

    ``cell_dofs`` (n_cells, dim+1) names the DOF of each local basis function
    ``alpha + beta * lambda_i`` (-1 where the Dirichlet condition removed it);
    ``local_gradients`` (n_cells, dim, dim+1) holds their constant gradients.
    ``P`` maps DOF vectors to function values at the quadrature points,
    ``G`` maps DOF vectors to the per-cell constant gradients (row layout
    cell-major: row ``c*dim + k`` is component k on cell c).
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
            self.quad_x, self.quad_w, self.quad_cell, owner, regions = _dual_quadrature(mesh)
            dof = cell_dofs[self.quad_cell, owner][:, None]
            self.P = _basis_matrix(dof, np.ones(dof.shape), n_dofs)
            self.pieces = []
            for poly, c, i in regions:
                n = int(cell_dofs[c, i] >= 0)  # 0 where the owner was eliminated
                self.pieces.append(
                    Piece(poly, np.full(n, cell_dofs[c, i]), np.ones(n), np.zeros((n, d)))
                )
        else:
            self.quad_x, self.quad_w, self.quad_cell, lam_ref = _simplex_quadrature(mesh)
            phi = alpha + beta * np.tile(lam_ref, (mesh.n_cells, 1))
            self.P = _basis_matrix(cell_dofs[self.quad_cell], phi, n_dofs)
            cells, local = np.nonzero(cell_dofs >= 0)  # cell-major, local order
            dofs = cell_dofs[cells, local]
            const = (alpha + beta * self._bary_coeff[:, 0, :])[cells, local]
            grads = self.local_gradients[cells, :, local]  # (n, dim)
            split = np.cumsum(np.bincount(cells, minlength=mesh.n_cells))[:-1]
            self.pieces = [
                Piece(*piece)
                for piece in zip(v, *(np.split(a, split) for a in (dofs, const, grads)))
            ]
        mass = (self.P.T @ sp.diags(self.quad_w) @ self.P).tocsc()
        self.mass = 0.5 * (mass + mass.T)
        meas = np.repeat(mesh.cell_measures, d)
        stiff = (self.G.T @ sp.diags(meas) @ self.G).tocsc()
        self.stiffness = 0.5 * (stiff + stiff.T)

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
    Regions and points name their owner by its local vertex index."""
    pts, wts, cells, owners, polys = [], [], [], [], []
    if mesh.dim == 1:
        for c, (x0, x1) in enumerate(mesh.vertices[mesh.cells, 0]):
            m = 0.5 * (x0 + x1)
            for a, b, owner in ((x0, m, 0), (m, x1, 1)):
                x, w = quadrature.interval_rule(a, b)
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
                x, w = quadrature.triangle_rule(tri)
                pts.append(x)
                wts.append(w)
                cells.append(np.full(len(w), c))
                owners.append(np.full(len(w), owner))
                polys.append((_ccw(tri), c, owner))
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
