"""Implicit Euler gradient scheme for du - div(a(u, grad u)) dt = f(u) dW.

Each step solves the nonlinear variational system

    <u_next - u_n, phi> + dt <a(Pi u_next, grad u_next), grad phi>
        = <f0(Pi u_n) dW, Pi phi>      for all discrete test functions phi,

with the noise term explicit in the previous iterate. The nonlinear solver
is damped Newton with the smoothed flux Jacobian; time steps are uniform
and a step on which Newton does not converge aborts the trajectory with
diagnostics.

Samples advance in lockstep blocks (``run_block``): the states of B samples
are one (B, n) array, one keyed noise call draws the increments of every
sample and every step before the first step, and ``Stepper.step`` moves the
whole block one step at a time, carrying a per-sample active mask through
Newton and its line search, so each sample stops once it has converged. A
single path (``run_trajectory``) is a block of one.

Both system matrices (the Newton Jacobian and the linear operator) are the
mass plus ``dt`` times a weighted gradient form: the discretisation fills
their slot values from per-cell blocks and solves them by one LAPACK band
LU (``gd.form_solver``), at every size.

The reconstructed gradient is constant on each cell, so a flux that does
not read the value (every built-in kind) is constant per cell too: the flux
term and its Jacobian are integrated exactly with one point per cell. A
custom flux may read Pi u, which varies inside a cell, and is evaluated at
the quadrature points.

The step holds its per-cell arrays component-major, with the samples and
the cells as the long, contiguous axes: the gradients are (dim, B, n_cells)
memory, the flux and its Jacobian come back as (dim, n) and (dim, dim, n)
memory for the n = B n_cells k points, and the cell sums of the Jacobian
reach ``gd.form_values`` as rows of (dim, dim, B, n_cells). Every
elementwise operation and every sum over the 1-3 components runs over rows
of every sample and cell.
"""

import json
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .flux import eval_flux, eval_flux_jacobian
from .noise import sample_increment

LINE_SEARCH_SHRINK = 0.5  # the Newton line search's step factor, down to steps of 1e-10


@dataclass(frozen=True)
class SolverConfig:
    newton_tol: float = 1e-10
    max_newton: int = 30

    def __post_init__(self):
        # a NaN tolerance would pass every residual test untouched
        if isinstance(self.newton_tol, bool) or not 0 < self.newton_tol < float("inf"):
            raise ValueError("newton_tol must be a positive finite number")
        if type(self.max_newton) is not int or self.max_newton < 0:
            raise ValueError("max_newton must be a non-negative integer")


@dataclass(frozen=True)
class SpaceTimeGD:
    """A gradient discretisation together with a uniform time grid on [0, T]."""

    gd: object
    T: float
    n_steps: int

    def __post_init__(self):
        # a NaN or infinite T would give every step a NaN or infinite dt
        if isinstance(self.T, bool) or not 0 < self.T < float("inf"):
            raise ValueError("T must be a positive finite number")
        if isinstance(self.n_steps, bool) or not isinstance(self.n_steps, numbers.Integral) or self.n_steps < 1:
            raise ValueError("n_steps must be a positive integer")

    @property
    def dt(self):
        return self.T / self.n_steps

    @property
    def t_grid(self):
        return np.linspace(0.0, self.T, self.n_steps + 1)


class StepFailure(RuntimeError):
    """Nonlinear solve failed; carries the best iterate and its residual.

    ``block_row`` is the failing row of the block ``Stepper.step`` advanced;
    the trajectory runner adds the ``step_index`` and the ``sample_index``,
    ``analysis.run_levels`` the ``level``, and the message names each once
    it is set."""

    def __init__(self, message, best_iterate, residual_norm, step_index=None, sample_index=None, block_row=0):
        super().__init__(message)
        self.message = message
        self.best_iterate = best_iterate
        self.residual_norm = residual_norm
        self.step_index = step_index
        self.sample_index = sample_index
        self.block_row = block_row
        self.level = None

    def __reduce__(self):
        # a pool worker's failure reaches the parent pickled; the default
        # would call the constructor with the message alone
        return type(self), (self.message, self.best_iterate, self.residual_norm), vars(self)

    def __str__(self):
        where = [
            f"{name} {value}"
            for name, value in (("level", self.level), ("sample", self.sample_index), ("step", self.step_index))
            if value is not None
        ]
        return f"{self.message} at {', '.join(where)}" if where else self.message


@dataclass
class Trajectory:
    """One sample path of the scheme.

    ``u`` holds the N+1 DOF vectors u^(0..N) and ``increments`` the (N,
    k_max) spectral increment coefficients that drove them. Step n's noise
    term f0(Pi u^(n)) dW_n is a function of the two
    (``Stepper.noise_values``), so the path stores no noise values.
    """

    sgd: SpaceTimeGD
    flux: object
    noise: object
    u: np.ndarray
    increments: np.ndarray
    master_seed: int
    sample_index: int
    per_step_residuals: np.ndarray
    per_step_newton_iters: np.ndarray


def _rows(A, X):
    """``A`` (dense or sparse) applied to every row of ``X``."""
    return (A @ X.T).T


class Stepper:
    """Assembles and solves one implicit step for a block of samples; reused
    along their trajectories.

    ``step`` advances B samples at once, states held as a (B, n) array; a
    single sample is a block of one. Rows never mix: each is the step of its
    own sample, and damped Newton, the one nonlinear solver, carries a
    per-row active mask, so a row stops as soon as it has converged or
    failed and its iterates depend only on its own data. Every evaluation covers the active rows at once: one flux
    and one flux-Jacobian call on all their points, and one
    ``gd.form_values`` fill of all their systems.

    Every system the step solves has the form ``M + dt sum_c C_c^T B_c C_c``
    with the per-cell gradient stencils C_c of the discretisation
    (``gd.stencils``); the Newton Jacobian and the linear operator differ
    only in the per-cell blocks B_c. ``_system`` adds the mass's slot
    values, filled once here by ``gd.mass_values``, to ``dt`` times the fill
    ``gd.form_values``, and ``_solve`` factors and solves each row's slot
    values by the band LU ``gd.form_solver``. The linear operator is
    factored once, and a step solves it for the B right-hand sides in one
    call.

    The flux and its Jacobian are evaluated on a flux rule of k points per
    cell, with weights (n_cells, k), and a cell's integral is the weighted
    sum of its k values. A flux of the gradient alone
    (``FluxModel.depends_on_value`` false) gets k = 1, weighted by the cell
    measure, and no value argument; a custom flux gets the quadrature points
    and weights, and Pi u there. The points are laid out component-major:
    the flux sees its gradients as an F-ordered (n, dim) view of (dim, n)
    memory, the n points running over sample, cell and point (the order of
    the values Pi u), and its results stay in that layout through the cell
    sums: (dim, B, n_cells) for the flux, (dim, dim, B, n_cells) for the
    Jacobian. The gradient operator is stored with its rows in that order;
    the flux vector is taken back to the cell-major columns of G^T in one
    copy. The noise term stays at the quadrature points, since the noise
    basis varies inside a cell.

    The number of unknowns picks only the storage of the constant operators
    (the reconstruction, its weighted transpose, the mass, the gradient
    operator G and its transpose, and the linear operator for its residual
    check): up to
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
        # the gradient rows component-major: row k * n_cells + c is
        # component k on cell c
        cm = np.arange(gd.G.shape[0]).reshape(-1, gd.dim).T.ravel()
        self._G, self._GT = store(gd.G)[cm], store(gd.G.T)
        # the flux rule's weights (see the class docstring): a(grad u) is
        # constant per cell, so one point per cell integrates it exactly
        rule_w = gd.quad_w if flux_model.depends_on_value else gd.mesh.cell_measures
        self._rule_w = rule_w.reshape(gd.mesh.n_cells, -1)
        self._mass_vals = gd.mass_values(gd.quad_w)
        self._linear_solve = None
        if flux_model.is_linear:
            values = self._system(gd.mesh.cell_measures)
            self._A_lin = store(gd.form_matrix(values))
            self._linear_solve = gd.form_solver(values)

    def _system(self, blocks):
        """Slot values of ``M + dt sum_c C_c^T blocks[c] C_c``; blocks as in
        ``gd.form_values``, one form or a block of forms."""
        return self._mass_vals + self.dt * self.gd.form_values(blocks)

    def _gradients(self, U):
        """Per-cell gradients (B, n_cells, dim) of the rows of U, held
        component-major: a view of (dim, B, n_cells) memory."""
        d, n_cells = self.gd.dim, self.gd.mesh.n_cells
        g = (self._G @ U.T).reshape(d, n_cells, len(U)).transpose(0, 2, 1)
        return np.ascontiguousarray(g).transpose(1, 2, 0)

    def noise_values(self, U_n, C):
        """f0(Pi u_n) * sum_k c_k e_k at the quadrature points, (B, n_q), for
        states U_n (B, n) and increment coefficients C (B, k_max)."""
        return self.noise.f0(_rows(self._P, U_n)) * (C @ self.E.T)

    def _cell_sums(self, evaluate, U, g):
        """Cell integrals by the flux rule of ``evaluate`` (``eval_flux`` or
        ``eval_flux_jacobian``) for the rows of U and their per-cell
        gradients g, component-major: (dim, B, n_cells) for the flux,
        (dim, dim, B, n_cells) for its Jacobian. Each cell's k points are
        evaluated on one array of component rows (k = 1 passes g itself), and
        a cell's integral is the weighted sum of its k values."""
        w = self._rule_w
        x = _rows(self._P, U).ravel() if self.flux.depends_on_value else None
        g = g.transpose(2, 0, 1)[..., None]
        y = np.broadcast_to(g, g.shape[:-1] + w.shape[1:]).reshape(len(g), -1).T
        X = evaluate(self.flux, x, y)
        X = X.transpose(tuple(range(1, X.ndim)) + (0,))  # the points last
        return np.sum(X.reshape(X.shape[:-1] + (len(U),) + w.shape) * w, axis=-1)

    def _flux_vector(self, U):
        """The flux term <a(Pi u, grad u), grad phi_i> of every row, (B, n)."""
        a = self._cell_sums(eval_flux, U, self._gradients(U))
        return (self._GT @ a.transpose(2, 0, 1).reshape(-1, len(U))).T

    def residual(self, U, U_n, b_noise):
        """Residuals (B, n) of the step equation at the rows of U."""
        return _rows(self._M, U - U_n) + self.dt * self._flux_vector(U) - b_noise

    def _jacobian(self, U):
        """Slot values (B, n_slots) of the Newton matrix at every row of U."""
        return self._system(self._cell_sums(eval_flux_jacobian, U, self._gradients(U)).transpose(2, 3, 0, 1))

    def _solve(self, values, b):
        """Solve, row by row, the system with slot values ``values[i]`` for
        ``b[i]``."""
        return np.array([self.gd.form_solver(v)(r) for v, r in zip(values, b)]).reshape(b.shape)

    def step(self, U_n, C):
        """Advance a block one step: states U_n (B, n) and increment
        coefficients C (B, k_max). Returns (U, residual norms (B,),
        iterations (B,)).

        Damped Newton runs on the rows not yet converged, for at most
        ``max_newton`` iterations; a row whose line search fails stops. The
        line search accepts only a lower residual, so a row's last iterate
        is its best. A row still unconverged raises ``StepFailure`` for the
        first such row (``block_row``), carrying that iterate."""
        tol = self.cfg.newton_tol
        b_noise = _rows(self._PTw, self.noise_values(U_n, C))
        B = len(U_n)

        if self._linear_solve is not None:
            rhs = _rows(self._M, U_n) + b_noise
            U = self._linear_solve(rhs.T).T
            return U, np.linalg.norm(_rows(self._A_lin, U) - rhs, axis=1), np.ones(B, dtype=int)

        U = U_n.copy()
        R = self.residual(U, U_n, b_noise)
        nr = np.linalg.norm(R, axis=1)
        iters = np.zeros(B, dtype=int)
        active = nr > tol
        for _ in range(self.cfg.max_newton):
            rows = np.flatnonzero(active)
            if rows.size == 0:
                break
            iters[rows] += 1
            dU = self._solve(self._jacobian(U[rows]), -R[rows])
            t = 1.0
            searching = np.arange(rows.size)  # positions in rows
            while t >= 1e-10 and searching.size:
                r = rows[searching]
                U_try = U[r] + t * dU[searching]
                R_try = self.residual(U_try, U_n[r], b_noise[r])
                nr_try = np.linalg.norm(R_try, axis=1)
                ok = (nr_try < nr[r] * (1.0 - 1e-4 * t)) | (nr_try <= tol)
                U[r[ok]], R[r[ok]], nr[r[ok]] = U_try[ok], R_try[ok], nr_try[ok]
                searching = searching[~ok]
                t *= LINE_SEARCH_SHRINK
            active[rows] = nr[rows] > tol
            active[rows[searching]] = False  # a failed line search ends the row
        unconverged = np.flatnonzero(nr > tol)
        if unconverged.size:
            row = int(unconverged[0])
            raise StepFailure(
                f"nonlinear step did not converge (best residual {nr[row]:.3e})", U[row], nr[row], block_row=row
            )
        return U, nr, iters


def coupled_increments(noise, master_seed, sample_index, n_fine, dt_fine, n_levels):
    """Wiener increments shared across refinement levels, coarsest first, as
    (n_steps, k_max) coefficient arrays: the finest level's are drawn in one
    keyed call over the steps, step n from the stream (master_seed,
    sample_index, n+1) as a path draws them (so one level gives a path's own
    increments), and each coarser level's are summed pairwise from the next.
    ``sample_index`` may be a (B, 1) column of indices: the arrays then have
    a leading sample axis, and row b is bit-identical to sample b alone."""
    levels = [sample_increment(noise, master_seed, sample_index, np.arange(1, n_fine + 1), dt_fine)]
    for _ in range(n_levels - 1):
        prev = levels[-1]
        levels.append(prev.reshape(prev.shape[:-2] + (prev.shape[-2] // 2, 2, -1)).sum(axis=-2))
    return levels[::-1]


def run_block(sgd, flux_model, noise, u0, master_seed, samples, cfg=None, increments=None, _stepper=None):
    """Simulate the paths of a block of samples in lockstep; returns one
    ``Trajectory`` per entry of ``samples``, in order.

    ``u0`` is either a callable initial condition (interpolated onto the
    discrete space) or a DOF vector, shared by the block. ``increments``
    optionally prescribes the spectral increment coefficients, (B, N,
    k_max); by default step n of sample s draws from the stream
    (master_seed, s, n+1), the whole block's steps in one keyed call
    (``coupled_increments`` at one level) before the first step. A failed
    step raises ``StepFailure`` naming the first step at which a sample
    fails and the first such sample of the block; no path is returned then.

    The block holds the full paths of all its samples until it returns:
    their states, increments, residuals and iteration counts, which
    ``analysis.ensemble_block`` counts to bound its size.
    """
    gd = sgd.gd
    N = sgd.n_steps
    stepper = _stepper if _stepper is not None else Stepper(sgd, flux_model, noise, cfg)
    samples = [int(s) for s in samples]
    B = len(samples)
    if increments is None:
        (increments,) = coupled_increments(noise, master_seed, np.array(samples, dtype=np.int64)[:, None], N, sgd.dt, 1)
    used = np.array(increments, dtype=float).reshape(B, N, noise.k_max)
    u = np.zeros((B, N + 1, gd.n_dofs))
    u[:, 0] = gd.interpolate(u0) if callable(u0) else np.asarray(u0, dtype=float)
    residuals = np.zeros((B, N))
    newton_iters = np.zeros((B, N), dtype=int)
    for n in range(N):
        try:
            u[:, n + 1], residuals[:, n], newton_iters[:, n] = stepper.step(u[:, n], used[:, n])
        except StepFailure as exc:
            exc.step_index = n
            exc.sample_index = samples[exc.block_row]
            raise
    return [
        Trajectory(sgd, flux_model, noise, u[b], used[b], master_seed, s, residuals[b], newton_iters[b])
        for b, s in enumerate(samples)
    ]


def run_trajectory(sgd, flux_model, noise, u0, master_seed, sample_index, cfg=None, increments=None):
    """Simulate one full path of the scheme: ``run_block`` for a block of one.

    ``u0`` is either a callable initial condition (interpolated onto the
    discrete space) or a DOF vector. ``increments`` optionally prescribes the
    per-step spectral increment coefficients, (N, k_max), e.g. for
    coupled-refinement studies; by default step n draws from the stream
    (master_seed, sample_index, n+1), so a path is a deterministic function
    of (master_seed, sample_index).
    """
    if increments is not None:
        increments = np.asarray(increments, dtype=float)[None]
    return run_block(sgd, flux_model, noise, u0, master_seed, [sample_index], cfg, increments)[0]


def energy_identity_residual(traj):
    """Max violation over steps of the per-step energy identity obtained by
    testing the scheme with u^(n+1):
    1/2||Pi u^(n+1)||^2 + 1/2||Pi(u^(n+1)-u^(n))||^2 + dt<a, grad u^(n+1)>
        = 1/2||Pi u^(n)||^2 + <f dW, Pi u^(n+1)>.

    Every step is read at once; each step's inner products sum as
    ``gd.l2_inner`` and a vector dot product do for it alone."""
    gd, U = traj.sgd.gd, traj.u
    stepper = Stepper(traj.sgd, traj.flux, traj.noise)

    def squared_norms(V):
        PV = np.ascontiguousarray(_rows(gd.P, V))
        return np.sum(gd.quad_w * (PV * PV), axis=1)

    def dots(V, W):
        return (V[:, None, :] @ W[:, :, None])[:, 0, 0]

    norms = squared_norms(U)
    noise_loads = np.ascontiguousarray(_rows(gd.P.T, gd.quad_w * stepper.noise_values(U[:-1], traj.increments)))
    lhs = 0.5 * norms[1:] + 0.5 * squared_norms(U[1:] - U[:-1])
    lhs += traj.sgd.dt * dots(stepper._flux_vector(U[1:]), U[1:])
    rhs = 0.5 * norms[:-1] + dots(noise_loads, U[1:])
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


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
