"""Implicit Euler gradient scheme for du - div(a(u, grad u)) dt = f(u) dW.

Each step solves the nonlinear variational system

    <u_next - u_n, phi> + dt <a(Pi u_next, grad u_next), grad phi>
        = <f0(Pi u_n) dW, Pi phi>      for all discrete test functions phi,

with the noise term explicit in the previous iterate. The nonlinear solver
is damped Newton with the smoothed flux Jacobian, falling back to the
frozen-coefficient (Kacanov) iteration; time steps are uniform and a step
that fails both strategies aborts the trajectory with diagnostics.

All three system matrices (Newton Jacobian, Kacanov matrix, linear
operator) are the mass plus ``dt`` times a weighted gradient form: the
discretisation fills their slot values from per-cell blocks and solves them
by one LAPACK band LU (``gd.form_solver``), at every size.

The reconstructed gradient is constant on each cell, so a flux that does
not read the value (every built-in kind) is constant per cell too: the flux
term and its Jacobian are integrated exactly with one point per cell. A
custom flux may read Pi u, which varies inside a cell, and is evaluated at
the quadrature points.
"""

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .flux import LINEAR_DIFFUSION, P_LAPLACE, REGULARIZED_P_LAPLACE, eval_flux, eval_flux_jacobian
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


class Stepper:
    """Assembles and solves one implicit step; reused along a trajectory.

    Every system the step solves has the form ``M + dt sum_c C_c^T B_c C_c``
    with the per-cell gradient stencils C_c of the discretisation
    (``gd.stencils``); the Newton Jacobian, the frozen-coefficient matrix and
    the linear operator differ only in the per-cell blocks B_c. ``_system``
    adds the mass, mapped into the form's slots once here, to ``dt`` times
    the discretisation's fill ``gd.form_values``, and ``_solve`` factors and
    solves the slot values by the discretisation's band LU
    (``gd.form_solver``); the linear operator is factored once.

    The flux and its Jacobian are evaluated on a flux rule built here: the
    cell of each point, the weighted sum per cell, and the operator giving
    Pi u at each point. A flux of the gradient alone
    (``FluxModel.depends_on_value`` false) gets one point per cell, weighted
    by the cell measure and valued at the cell mean of Pi u; a custom flux
    gets the quadrature points. The noise term stays at the quadrature
    points, since the noise basis varies inside a cell.

    The number of unknowns picks only the storage of the constant operators
    (the reconstruction, its weighted transpose, the mass, the flux rule's
    operators, and the linear operator for its residual check): up to
    ``_DENSE_LIMIT`` unknowns they are dense arrays, since sparse products
    cost more than the arithmetic at that scale, and above it CSR matrices.
    The benchmark has a workload on each side (``oracle_pool`` dense,
    ``mc_p3_2d_sparse`` CSR)."""

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
        store = (lambda A: A.toarray()) if gd.n_dofs <= self._DENSE_LIMIT else sp.csr_matrix
        self._P = store(gd.P)
        self._PTw = store(gd.P.T @ sp.diags(gd.quad_w))
        self._M = store(gd.mass)
        self._cell_dofs, self._cell_coef = gd.stencils
        n_cells = gd.mesh.n_cells
        # the flux rule (see the class docstring); cell_sum sums weighted point
        # values per cell
        cell_sum = sp.csr_matrix(
            (gd.quad_w, (gd.quad_cell, np.arange(len(gd.quad_w)))), shape=(n_cells, len(gd.quad_w))
        )
        if flux_model.depends_on_value:
            self._rule_cell, self._rule_P, self._rule_sum = gd.quad_cell, self._P, store(cell_sum)
        else:
            # a(grad u) is constant per cell: one point per cell integrates
            # it exactly; its value there is the cell mean of Pi u
            meas = gd.mesh.cell_measures
            self._rule_cell = np.arange(n_cells)
            self._rule_P = store(sp.diags(1.0 / meas) @ cell_sum @ gd.P)
            self._rule_sum = store(sp.diags(meas, format="csr"))
        self._mass_vals = gd.form_values_of(gd.mass)
        self._linear_solve = None
        if flux_model.is_linear:
            values = self._system(gd.mesh.cell_measures)
            self._A_lin = store(gd.form_matrix(values))
            self._linear_solve = gd.form_solver(values)

    def _system(self, blocks):
        """Slot values of ``M + dt sum_c C_c^T blocks[c] C_c``; blocks as in
        ``gd.form_values``."""
        return self._mass_vals + self.dt * self.gd.form_values(blocks)

    def _gradients(self, u):
        return np.einsum("cdk,ck->cd", self._cell_coef, u[self._cell_dofs])

    def noise_values(self, u_n, inc):
        """f0(Pi u_n) * sum_k c_k e_k at the quadrature points."""
        return self.noise.f0(self._P @ u_n) * (self.E @ inc.coeffs)

    def _flux_integrals(self, u, g):
        """Cell integrals (n_cells, dim) of a(Pi u, g) by the flux rule, for
        the per-cell gradients g of u."""
        return self._rule_sum @ eval_flux(self.flux, self._rule_P @ u, g[self._rule_cell])

    def _flux_vector(self, u):
        local = np.einsum("cdk,cd->ck", self._cell_coef, self._flux_integrals(u, self._gradients(u)))
        return np.bincount(self._cell_dofs.ravel(), weights=local.ravel(), minlength=self.gd.n_dofs)

    def residual(self, u, u_n, b_noise):
        return self._M @ (u - u_n) + self.dt * self._flux_vector(u) - b_noise

    def _jacobian(self, u):
        d = self.gd.dim
        J = eval_flux_jacobian(self.flux, self._rule_P @ u, self._gradients(u)[self._rule_cell])
        blocks = self._rule_sum @ J.reshape(len(J), -1)
        return self._system(blocks.reshape(-1, d, d))

    def _solve(self, values, b):
        """Solve the system with these slot values for ``b``."""
        return self.gd.form_solver(values)(b)

    def _kacanov_weights(self, u):
        gd = self.gd
        g = self._gradients(u)
        r = np.linalg.norm(g, axis=1)
        p = self.flux.p
        if self.flux.kind == P_LAPLACE:
            eps = max(self.flux.newton_epsilon, 1e-12)
            return (eps**2 + r**2) ** ((p - 2.0) / 2.0)
        if self.flux.kind == REGULARIZED_P_LAPLACE:
            return (1.0 + r) ** (p - 2.0)
        if self.flux.kind == LINEAR_DIFFUSION:
            return np.ones(gd.mesh.n_cells)
        # custom: project the cell integral of the flux on the gradient
        a = self._flux_integrals(u, g)
        w = np.ones(gd.mesh.n_cells)
        nz = r > 1e-14
        w[nz] = np.sum(a[nz] * g[nz], axis=1) / (gd.mesh.cell_measures[nz] * r[nz] ** 2)
        return np.maximum(w, 1e-14)

    def step(self, u_n, inc):
        """Advance one step; returns (u_next, residual_norm, iterations, z)
        where z is the sampled noise term at the quadrature points."""
        gd = self.gd
        cfg = self.cfg
        z = self.noise_values(u_n, inc)
        b_noise = self._PTw @ z
        rhs = self._M @ u_n + b_noise

        if self._linear_solve is not None:
            u = self._linear_solve(rhs)
            return u, np.linalg.norm(self._A_lin @ u - rhs), 1, z

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

        # frozen-coefficient (Kacanov) fallback: isotropic blocks meas * w * I
        for _ in range(cfg.max_fixed_point):
            iters += 1
            u = self._solve(self._system(gd.mesh.cell_measures * self._kacanov_weights(u)), rhs)
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
