"""Implicit Euler gradient scheme for du - div(a(u, grad u)) dt = f(u) dW.

Each step solves the nonlinear variational system

    <u_next - u_n, phi> + dt <a(Pi u_next, grad u_next), grad phi>
        = <f0(Pi u_n) dW, Pi phi>      for all discrete test functions phi,

with the noise term explicit in the previous iterate. The nonlinear solver
is damped Newton with the smoothed flux Jacobian, falling back to the
frozen-coefficient (Kacanov) iteration; time steps are uniform and a step
that fails both strategies aborts the trajectory with diagnostics.
"""

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .flux import CUSTOM, LINEAR_DIFFUSION, P_LAPLACE, REGULARIZED_P_LAPLACE, eval_flux, eval_flux_jacobian
from .noise import NoiseIncrement, RngStream, sample_increment


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-10
    max_newton: int = 30
    max_fixed_point: int = 200
    line_search_shrink: float = 0.5

    def __post_init__(self):
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
        if not 0 < self.line_search_shrink < 1:
            raise ValueError("line_search_shrink must lie in (0, 1)")


@dataclass(frozen=True)
class SpaceTimeGD:
    """A gradient discretisation together with a uniform time grid on [0, T]."""

    gd: object
    T: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1 or self.T <= 0:
            raise ValueError("need n_steps >= 1 and T > 0")

    @property
    def dt(self):
        return self.T / self.n_steps

    @property
    def t_grid(self):
        return np.linspace(0.0, self.T, self.n_steps + 1)


class StepFailure(RuntimeError):
    """Nonlinear solve failed; carries the best iterate and its residual."""

    def __init__(self, message, best_iterate, residual_norm, step_index=None):
        super().__init__(message)
        self.best_iterate = best_iterate
        self.residual_norm = residual_norm
        self.step_index = step_index


@dataclass
class Trajectory:
    """One sample path of the scheme.

    ``u`` holds the N+1 DOF vectors u^(0..N); ``m_partial`` holds the running
    noise sums evaluated at the quadrature points, one row per time interval
    (row n is the value of the discrete martingale on (t_n, t_{n+1}]).
    """

    sgd: SpaceTimeGD
    flux: object
    noise: object
    u: np.ndarray
    m_partial: np.ndarray
    master_seed: int
    sample_index: int
    per_step_residuals: np.ndarray
    per_step_newton_iters: np.ndarray
    increments: np.ndarray = None


def _cell_local_gradients(gd):
    """Per-cell gradient stencils: DOF indices (padded with 0, coefficient 0)
    and coefficients so that component d of the cell-c gradient is
    sum_k coef[c, d, k] v[idx[c, k]]."""
    G = gd.G.tocsr()
    n_c, d = gd.mesh.n_cells, gd.dim
    cols = [
        np.unique(G.indices[G.indptr[c * d] : G.indptr[(c + 1) * d]]) for c in range(n_c)
    ]
    kmax = max((len(x) for x in cols), default=1)
    idx = np.zeros((n_c, kmax), dtype=int)
    coef = np.zeros((n_c, d, kmax))
    for c in range(n_c):
        idx[c, : len(cols[c])] = cols[c]
        for k in range(d):
            row = G.getrow(c * d + k)
            for j, col in enumerate(cols[c]):
                pos = np.nonzero(row.indices == col)[0]
                if len(pos):
                    coef[c, k, j] = row.data[pos[0]]
    return idx, coef


class Stepper:
    """Assembles and solves one implicit step; reused along a trajectory.

    Systems with few unknowns run on dense precomputed operators (the sparse
    machinery costs more than the arithmetic at that scale)."""

    _DENSE_LIMIT = 220

    def __init__(self, sgd, flux_model, noise, cfg=None):
        self.sgd = sgd
        self.gd = sgd.gd
        self.flux = flux_model
        self.noise = noise
        self.cfg = cfg or SolverConfig()
        self.dt = sgd.dt
        gd = self.gd
        self.E = noise.basis.values(gd.quad_x)
        self._meas_rep = np.repeat(gd.mesh.cell_measures, gd.dim)
        self._dense = gd.n_dofs <= self._DENSE_LIMIT
        if self._dense:
            self._Pd = gd.P.toarray()
            self._PTw = self._Pd.T * gd.quad_w
            self._Md = gd.mass.toarray()
            self._Gd = gd.G.toarray().reshape(gd.mesh.n_cells, gd.dim, gd.n_dofs)
            self._cell_dofs, self._cell_coef = _cell_local_gradients(gd)
        self._linear_solve = None
        self._Ad = None
        if flux_model.is_linear:
            A = (gd.mass + self.dt * gd.stiffness).tocsc()
            if self._dense:
                self._Ad = A.toarray()
                Ainv = np.linalg.inv(self._Ad)
                self._linear_solve = lambda b: Ainv @ b
            else:
                lu = spla.splu(A)
                self._linear_solve = lu.solve

    def noise_values(self, u_n, inc):
        """f0(Pi u_n) * sum_k c_k e_k at the quadrature points."""
        u_q = self._Pd @ u_n if self._dense else self.gd.P @ u_n
        return self.noise.f0(u_q) * (self.E @ inc.coeffs)

    def _flux_vector(self, u):
        gd = self.gd
        if self._dense:
            u_q = self._Pd @ u
            g = np.einsum("cdn,n->cd", self._Gd, u)
        else:
            u_q = gd.P @ u
            g = (gd.G @ u).reshape(gd.mesh.n_cells, gd.dim)
        a_q = eval_flux(self.flux, u_q, g[gd.quad_cell])
        t = np.empty((gd.mesh.n_cells, gd.dim))
        for k in range(gd.dim):
            t[:, k] = np.bincount(
                gd.quad_cell, weights=gd.quad_w * a_q[:, k], minlength=gd.mesh.n_cells
            )
        if self._dense:
            return np.einsum("cdn,cd->n", self._Gd, t)
        return gd.G.T @ t.ravel()

    def residual(self, u, u_n, b_noise):
        mass_term = self._Md @ (u - u_n) if self._dense else self.gd.mass @ (u - u_n)
        return mass_term + self.dt * self._flux_vector(u) - b_noise

    def _jacobian(self, u):
        gd = self.gd
        if self._dense:
            u_q = self._Pd @ u
            g = np.einsum("cdn,n->cd", self._Gd, u)
        else:
            u_q = gd.P @ u
            g = (gd.G @ u).reshape(gd.mesh.n_cells, gd.dim)
        J_q = eval_flux_jacobian(self.flux, u_q, g[gd.quad_cell])
        blocks = np.zeros((gd.mesh.n_cells, gd.dim, gd.dim))
        np.add.at(blocks, gd.quad_cell, gd.quad_w[:, None, None] * J_q)
        if self._dense:
            # scatter small per-cell blocks instead of a full dense contraction
            local = np.einsum("cdk,cde,cel->ckl", self._cell_coef, blocks, self._cell_coef)
            J = self._Md.copy()
            idx = self._cell_dofs
            np.add.at(J, (idx[:, :, None], idx[:, None, :]), self.dt * local)
            return J
        B = sp.bsr_matrix(
            (blocks, np.arange(gd.mesh.n_cells), np.arange(gd.mesh.n_cells + 1)),
            shape=(gd.mesh.n_cells * gd.dim,) * 2,
        )
        return (gd.mass + self.dt * (gd.G.T @ B @ gd.G)).tocsc()

    def _solve(self, A, b):
        return np.linalg.solve(A, b) if self._dense else spla.spsolve(A, b)

    def _kacanov_weights(self, u):
        gd = self.gd
        g = (gd.G @ u).reshape(gd.mesh.n_cells, gd.dim)
        r = np.linalg.norm(g, axis=1)
        p = self.flux.p
        if self.flux.kind == P_LAPLACE:
            eps = max(self.flux.newton_epsilon, 1e-12)
            return (eps**2 + r**2) ** ((p - 2.0) / 2.0)
        if self.flux.kind == REGULARIZED_P_LAPLACE:
            return (1.0 + r) ** (p - 2.0)
        if self.flux.kind == LINEAR_DIFFUSION:
            return np.ones(gd.mesh.n_cells)
        # custom: project the flux on the gradient direction
        a = eval_flux(self.flux, np.zeros(gd.mesh.n_cells), g)
        w = np.ones(gd.mesh.n_cells)
        nz = r > 1e-14
        w[nz] = np.sum(a[nz] * g[nz], axis=1) / r[nz] ** 2
        return np.maximum(w, 1e-14)

    def step(self, u_n, inc):
        """Advance one step; returns (u_next, residual_norm, iterations, z)
        where z is the sampled noise term at the quadrature points."""
        gd = self.gd
        cfg = self.cfg
        z = self.noise_values(u_n, inc)
        if self._dense:
            b_noise = self._PTw @ z
            mass_u = self._Md @ u_n
        else:
            b_noise = gd.P.T @ (gd.quad_w * z)
            mass_u = gd.mass @ u_n

        if self._linear_solve is not None:
            rhs = mass_u + b_noise
            u = self._linear_solve(rhs)
            if self._Ad is not None:
                res = np.linalg.norm(self._Ad @ u - rhs)
            else:
                res = np.linalg.norm(self.residual(u, u_n, b_noise))
            return u, res, 1, z

        u = u_n.copy()
        R = self.residual(u, u_n, b_noise)
        nr = np.linalg.norm(R)
        best_u, best_nr = u, nr
        iters = 0
        for _ in range(cfg.max_newton):
            if nr <= cfg.newton_tol:
                return u, nr, iters, z
            iters += 1
            du = self._solve(self._jacobian(u), -R)
            t = 1.0
            accepted = False
            while t >= 1e-10:
                u_try = u + t * du
                R_try = self.residual(u_try, u_n, b_noise)
                nr_try = np.linalg.norm(R_try)
                if nr_try < nr * (1.0 - 1e-4 * t) or nr_try <= cfg.newton_tol:
                    u, R, nr = u_try, R_try, nr_try
                    accepted = True
                    break
                t *= cfg.line_search_shrink
            if nr < best_nr:
                best_u, best_nr = u, nr
            if not accepted:
                break
        if nr <= cfg.newton_tol:
            return u, nr, iters, z

        # frozen-coefficient (Kacanov) fallback
        rhs = mass_u + b_noise
        for _ in range(cfg.max_fixed_point):
            iters += 1
            w = self._kacanov_weights(u)
            if self._dense:
                A = self._Md + self.dt * np.einsum(
                    "cdn,c,cdm->nm", self._Gd, gd.mesh.cell_measures * w, self._Gd
                )
            else:
                A = (
                    gd.mass
                    + self.dt
                    * gd.G.T
                    @ sp.diags(np.repeat(gd.mesh.cell_measures * w, gd.dim))
                    @ gd.G
                ).tocsc()
            u = self._solve(A, rhs)
            nr = np.linalg.norm(self.residual(u, u_n, b_noise))
            if nr < best_nr:
                best_u, best_nr = u, nr
            if nr <= cfg.newton_tol:
                return u, nr, iters, z
        raise StepFailure(
            f"nonlinear step did not converge (best residual {best_nr:.3e})",
            best_u,
            best_nr,
        )


def solve_step(sgd, flux_model, noise, u_n, inc, cfg=None):
    """Single implicit step from u_n with a given noise increment."""
    stepper = Stepper(sgd, flux_model, noise, cfg)
    u, res, iters, _ = stepper.step(np.asarray(u_n, dtype=float), inc)
    return u, res, iters


def run_trajectory(sgd, flux_model, noise, u0, master_seed, sample_index, cfg=None, increments=None, _stepper=None):
    """Simulate one full path of the scheme.

    ``u0`` is either a callable initial condition (interpolated onto the
    discrete space) or a DOF vector. ``increments`` optionally prescribes the
    per-step spectral increment coefficients, e.g. for coupled-refinement
    studies; by default step n draws from the stream
    (master_seed, sample_index, n+1), so a path is a deterministic function
    of (master_seed, sample_index).
    """
    gd = sgd.gd
    N = sgd.n_steps
    stepper = _stepper if _stepper is not None else Stepper(sgd, flux_model, noise, cfg)
    u = np.zeros((N + 1, gd.n_dofs))
    u[0] = gd.interpolate(u0) if callable(u0) else np.asarray(u0, dtype=float)
    m_partial = np.zeros((N, len(gd.quad_w)))
    residuals = np.zeros(N)
    newton_iters = np.zeros(N, dtype=int)
    used = np.zeros((N, noise.k_max))
    for n in range(N):
        if increments is not None:
            inc = NoiseIncrement(np.asarray(increments[n], dtype=float), sgd.dt)
        else:
            inc = sample_increment(noise, RngStream(master_seed, sample_index, n + 1), sgd.dt)
        used[n] = inc.coeffs
        try:
            u[n + 1], residuals[n], newton_iters[n], z = stepper.step(u[n], inc)
        except StepFailure as exc:
            exc.step_index = n
            raise
        m_partial[n] = (m_partial[n - 1] if n > 0 else 0.0) + z
    return Trajectory(
        sgd, flux_model, noise, u, m_partial, master_seed, sample_index, residuals, newton_iters, used
    )


def energy_identity_residual(traj):
    """Max violation over steps of the per-step energy identity obtained by
    testing the scheme with u^(n+1):
    1/2||Pi u^(n+1)||^2 + 1/2||Pi(u^(n+1)-u^(n))||^2 + dt<a, grad u^(n+1)>
        = 1/2||Pi u^(n)||^2 + <f dW, Pi u^(n+1)>."""
    gd = traj.sgd.gd
    stepper = Stepper(traj.sgd, traj.flux, traj.noise)
    worst = 0.0
    for n in range(traj.sgd.n_steps):
        u_new, u_old = traj.u[n + 1], traj.u[n]
        z = traj.m_partial[n] - (traj.m_partial[n - 1] if n > 0 else 0.0)
        lhs = (
            0.5 * gd.l2_inner(u_new, u_new)
            + 0.5 * gd.l2_inner(u_new - u_old, u_new - u_old)
            + traj.sgd.dt * float(stepper._flux_vector(u_new) @ u_new)
        )
        rhs = 0.5 * gd.l2_inner(u_old, u_old) + float(
            (gd.P.T @ (gd.quad_w * z)) @ u_new
        )
        worst = max(worst, abs(lhs - rhs))
    return worst


def save_trajectory(traj, csv_path, sidecar_path=None, config_hash=None):
    """Dump the DOF path as CSV rows (step, dof_index, value) plus a JSON
    sidecar with seeds, residuals and the configuration hash."""
    with open(csv_path, "w") as f:
        f.write("step,dof_index,value\n")
        for n, row in enumerate(traj.u):
            for i, val in enumerate(row):
                f.write(f"{n},{i},{val:.17g}\n")
    if sidecar_path is not None:
        meta = {
            "master_seed": int(traj.master_seed),
            "sample_index": int(traj.sample_index),
            "n_steps": int(traj.sgd.n_steps),
            "T": float(traj.sgd.T),
            "per_step_residuals": [float(x) for x in traj.per_step_residuals],
            "per_step_newton_iters": [int(x) for x in traj.per_step_newton_iters],
            "config_hash": config_hash,
        }
        with open(sidecar_path, "w") as f:
            json.dump(meta, f, indent=2, sort_keys=True)
            f.write("\n")
