"""Monte Carlo estimator suite: energy and moment estimators, time-translate
and dual-norm increment statistics, fractional time-regularity norms of
piecewise-constant paths, noise-accumulator (martingale) statistics from
each path's states and increments, coupled refinement levels, and the exact
single-unknown linear-scheme oracle.

Every Monte Carlo ensemble runs through one driver, ``run_levels``, over a
list of refinement levels (one level for a plain ensemble,
``run_ensemble``). Its one task runs a block of sample indices
(``_sample_blocks``) on every level under the block's coupled noise, one
keyed draw, summarises each level's paths in one
``EnsembleAccumulator.summarize`` call, a table with a row per sample, and
gives the block's rows of coarse-to-fine differences. ``map_blocks`` maps
the task, built once with the steppers and whatever else it reuses, over
the blocks, in this process or on a fork pool.

Every Monte Carlo reduction is one streaming statistic, ``RunningVector``:
one pairwise merge per block of each column's mean and squared deviations,
block after block in sample order, so results are bit-identical however the
blocks were spread over workers.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .noise import ziggurat_tables
from .scheme import Stepper, StepFailure, coupled_increments, run_block, run_trajectory


# -- streaming statistics ------------------------------------------------------


@dataclass
class MeanSE:
    mean: float
    se: float
    n: int


class RunningVector:
    """Streaming elementwise mean, standard error and sample variance of
    equal-length vectors, added a block of rows at a time: the block's
    column means, by the shifted two-pass x[0] + mean(x - x[0]), and sums of
    squared deviations are merged in by the pairwise update of Chan, Golub
    & LeVeque (1983). Equal values give exactly their mean and zero spread,
    which the plain sums of x and x^2 do not. Each column is summed on its
    own, as a contiguous row, so its bits do not depend on the width."""

    def __init__(self, size):
        self.n = 0
        self.mean = np.zeros(size)
        self.m2 = np.zeros(size)  # sums of squared deviations from the mean

    def add(self, x):
        """Add one vector, or an (m, size) block of rows in one merge."""
        x = np.asarray(x, dtype=float)
        cols = x.reshape(len(x) if x.ndim == 2 else 1, len(self.mean)).T.copy()  # a row per column
        mean = cols[:, 0] + (cols - cols[:, :1]).mean(axis=1)
        dev = cols - mean[:, None]
        self.merge(cols.shape[1], mean, np.sum(dev * dev, axis=1))

    def merge(self, m, mean, m2):
        """Merge in the statistic of m more rows: their column means and sums
        of squared deviations. A first merge takes them exactly."""
        n = self.n + m
        delta = mean - self.mean
        self.mean = self.mean + delta * (m / n)
        self.m2 = self.m2 + m2 + delta * delta * (self.n * m / n)
        self.n = n

    def __getitem__(self, cols):
        """The statistic of the columns ``cols`` (an index array or slice),
        as it stands now."""
        part = RunningVector(0)
        part.n = self.n
        part.mean, part.m2 = self.mean[cols].copy(), self.m2[cols].copy()
        return part

    @property
    def variance(self):
        if self.n < 2:
            return np.zeros_like(self.mean)
        return np.maximum(self.m2, 0.0) / (self.n - 1)

    @property
    def se(self):
        return np.sqrt(self.variance / max(self.n, 1))

    @property
    def variance_se(self):
        """Standard error of the sample variance under approximate normality."""
        return self.variance * np.sqrt(2.0 / max(self.n - 1, 1))

    def results(self):
        """One MeanSE per column; NaN mean and error before the first row."""
        if self.n == 0:
            return [MeanSE(math.nan, math.nan, 0) for _ in self.mean]
        return [MeanSE(m, se, self.n) for m, se in zip(self.mean.tolist(), self.se.tolist())]


def loglog_slope(x, y):
    """Least-squares slope of log y against log x."""
    lx, ly = np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float))
    A = np.column_stack([lx, np.ones_like(lx)])
    sol, *_ = np.linalg.lstsq(A, ly, rcond=None)
    return float(sol[0])


# -- piecewise-constant-in-time paths ------------------------------------------


def translate_at_lags(dist, dt):
    """The translate integral phi(rho) = int_0^{T-rho} ||g(s+rho) - g(s)||^q ds
    of a path g constant on N intervals of length dt, at the grid lags
    rho = ell dt, ell = 0..N, from dist[i, j] = ||g_i - g_j||^q: dt times the
    sum of the ell-th subdiagonal of dist (0 at ell = N). Between the grid
    lags phi is linear in rho."""
    return dt * np.array([dist.diagonal(-ell).sum() for ell in range(len(dist))] + [0.0])


def fractional_norm(sq_dist, dt, beta, q_exp=2.0):
    """Slobodeckij-type time-regularity integral of a piecewise-constant path:

        int_0^T ( int_0^{T-rho} ||g(s+rho) - g(s)||^q ds ) rho^(-1-beta q) drho

    i.e. the q-th power of the fractional norm, for a path constant on
    intervals of length ``dt`` with squared distances
    ``sq_dist[i, j] = ||g_i - g_j||^2`` between its values. The inner integral
    is linear in rho between the grid lags (``translate_at_lags``); each
    piece is integrated exactly with the antiderivatives of
    rho^(-1-beta q) and rho^(-beta q).
    """
    if not 0.0 < beta < 0.5:
        raise ValueError(f"beta must lie in (0, 1/2), got {beta}")
    if q_exp < 1.0:
        raise ValueError(f"q_exp must be >= 1, got {q_exp}")
    c = beta * q_exp
    if c >= 1.0:
        raise ValueError(f"beta * q must be < 1 for piecewise-constant paths, got {c}")
    phi = translate_at_lags(np.asarray(sq_dist) ** (q_exp / 2.0), dt)
    slope = np.diff(phi) / dt
    a = dt * np.arange(len(slope))  # the pieces [a, a + dt]
    b = a + dt
    I2 = (b ** (1.0 - c) - a ** (1.0 - c)) / (1.0 - c)
    # the first piece starts at phi(0) = 0, where rho^(-1-c) is not integrable
    I1 = (a[1:] ** (-c) - b[1:] ** (-c)) / c
    return float(slope[0] * I2[0] + np.sum(phi[1:-1] * I1 + slope[1:] * (I2[1:] - a[1:] * I1)))


# -- dual norm of reconstructed elements ----------------------------------------


class DualNormSolver:
    """Computes |v|_* = sup { <v, Pi phi> : ||Pi phi||_2 + ||grad phi||_2 <= 1 }
    for elements v = Pi w of the reconstructed space.

    The maximizer lies on the path phi = (M + mu K)^(-1) M w, so the sup is
    the maximum over mu of a ratio f, evaluated in the generalized eigenbasis
    of (M, K). With e_i the squared eigen-coordinates of w, r_i = 1/(lam_i+mu),
    N = sum e_i r_i, P = sum e_i lam_i r_i^2, G = sum e_i r_i^2 and S3 (S3lam)
    = sum e_i r_i^3 (times lam_i): f = N / (sqrt(P) + sqrt(G)), and its slope
    s = d log f / d log mu has the closed form
    s / mu = -G/N + (S3lam / sqrt(P) + S3 / sqrt(G)) / (sqrt(P) + sqrt(G)).
    The value is exact up to rounding (about 2 ulps) when s changes sign once
    in the bracket that ``batch`` refines, so the maximum lies in mu within
    [1e-9, 1e9]; otherwise it is at least the maximum on ``batch``'s grid.
    """

    _MU_GRID = np.logspace(-9.0, 9.0, 181)
    # Illinois steps from the grid bracket (0.2 decades of mu): on 6,960 increment rows of
    # the mc_p3_1d and mc_p3_2d_sparse benchmark configs (seeds 1-3), 6 steps came within
    # 6.0e-15 relative of a 30-step search, 7 within 5.6e-16 and 8 within 4.4e-16 (2 ulps).
    _ILLINOIS_STEPS = 7

    def __init__(self, gd):
        self.lam, _, self.YM = gd.eigenbasis
        # n x (3 grid) table of 1/(lam+mu), lam/(lam+mu)^2 and 1/(lam+mu)^2
        r = 1.0 / (self.lam[:, None] + self._MU_GRID[None, :])
        self._grid_table = np.hstack([r, self.lam[:, None] * r * r, r * r])

    def _ratio_and_slope(self, e2, x):
        """f and s at mu = exp(x), one mu per row of e2."""
        mu = np.exp(x)
        r = 1.0 / (self.lam[None, :] + mu[:, None])
        t = e2 * r
        num = t.sum(axis=1)
        t *= r
        gr2 = t.sum(axis=1)
        sqrt_p, sqrt_g = np.sqrt(t @ self.lam), np.sqrt(gr2)
        t *= r
        den = np.maximum(sqrt_p + sqrt_g, 1e-300)
        tail = t @ self.lam / np.maximum(sqrt_p, 1e-300) + t.sum(axis=1) / np.maximum(sqrt_g, 1e-300)
        return num / den, mu * (tail / den - gr2 / np.maximum(num, 1e-300))

    def batch(self, W):
        """Dual norms of the rows of W (DOF coefficients).

        f is evaluated on the whole mu-grid. The bracket [a, b] from the left
        to the right neighbour of each row's best grid point is then refined
        by Illinois steps (regula falsi in log(mu) that halves the slope at
        an end kept twice running) on the sign of s. A row without
        s(a) > 0 > s(b) (a zero row, a flat ratio, a maximum at the grid's
        end) bisects on the sign of s instead. The result, the maximum over
        the grid and every refinement point, is never below the grid maximum
        and depends on its row alone.
        """
        W = np.atleast_2d(np.asarray(W, dtype=float))
        e2 = (W @ self.YM.T) ** 2
        num, pi2, gr2 = np.split(e2 @ self._grid_table, 3, axis=1)
        vals = num / np.maximum(np.sqrt(pi2) + np.sqrt(gr2), 1e-300)
        arg = vals.argmax(axis=1)
        best = vals[np.arange(len(W)), arg]
        a = np.log(self._MU_GRID[np.maximum(arg - 1, 0)])
        b = np.log(self._MU_GRID[np.minimum(arg + 1, len(self._MU_GRID) - 1)])
        sa, sb = self._ratio_and_slope(e2, a)[1], self._ratio_and_slope(e2, b)[1]
        # a row without a sign change holds slopes +1 and -1, so its secant point is the midpoint
        bracketed = (sa > 0.0) & (sb < 0.0)
        sa, sb = np.where(bracketed, sa, 1.0), np.where(bracketed, sb, -1.0)
        last = np.zeros(len(W))  # +1 (-1): the last step moved a (b)
        for _ in range(self._ILLINOIS_STEPS):
            x = (a * sb - b * sa) / (sb - sa)
            fx, sx = self._ratio_and_slope(e2, x)
            best = np.maximum(best, fx)
            up = sx >= 0.0
            sx = np.where(bracketed, sx, np.where(up, 1.0, -1.0))
            sa = np.where(up, sx, np.where(last < 0, 0.5 * sa, sa))
            sb = np.where(up, np.where(last > 0, 0.5 * sb, sb), sx)
            a, b = np.where(up, x, a), np.where(up, b, x)
            last = np.where(up, 1.0, -1.0) * bracketed
        return best


# -- ensemble estimators ---------------------------------------------------------


MARTINGALE_R = 2  # the exponent r of the martingale estimator E sup_n ||M_n||^r


@dataclass
class EstimatorReport:
    """Aggregated Monte Carlo statistics of one trajectory ensemble.

    ``dual_increment_table`` maps (ell, r) to the mean over samples and n of
    |Pi u^(n+ell) - Pi u^(n)|_*^r, where |.|_* is always the p = 2 dual norm
    (``DualNormSolver``), whatever the ensemble's ``p``.
    """

    n_samples: int = 0
    p: float = 2.0
    alpha: float = 0.5
    beta: float = 0.25
    energy_max_l2_sq: MeanSE = None
    grad_lp_p: MeanSE = None
    increment_sum: MeanSE = None
    higher_moments: dict = field(default_factory=dict)
    grad_moments: dict = field(default_factory=dict)
    translate_table: dict = field(default_factory=dict)
    dual_increment_table: dict = field(default_factory=dict)
    martingale_h_beta: MeanSE = None
    martingale_sup_r: MeanSE = None
    martingale_sq_by_step: list = None
    increment_pair_mean: MeanSE = None
    extra: RunningVector = None

    def translate_slope(self, dt):
        ells = sorted(self.translate_table)
        return loglog_slope([ell * dt for ell in ells], [self.translate_table[e].mean for e in ells])

    def dual_slope(self, dt, r):
        ells = sorted(ell for (ell, rr) in self.dual_increment_table if rr == r)
        return loglog_slope(
            [ell * dt for ell in ells],
            [self.dual_increment_table[(e, r)].mean for e in ells],
        )


class EnsembleAccumulator:
    """One-pass computation of the estimator suite over a trajectory stream.

    ``summarize`` computes the pathwise quantities of a block of
    trajectories at once, as one table with a row per sample, and
    ``add_summary`` merges the block into one ``RunningVector``; one
    trajectory is a block of one. The table's columns are fixed here, in
    ``columns``, which maps each quantity's name to its column (an index, or
    a slice for the per-step ``m_sq`` and ``pairs`` and the ``extra_fn``
    values): ``max_sq``, ``grad_total`` and ``incr_sum``; ``moment.q`` and
    ``grad_moment.q`` for q in ``moment_qs``; ``translate.ell`` and
    ``dual.ell`` for the lags; ``mart_h``, ``mart_sup``, ``m_sq`` and the
    pairs <z_n, Pi e_0> (none without unknowns) with the martingale
    estimators; then ``extra``, the last columns.

    ``p`` sets the gradient moments and the report's exponents; the dual-norm
    increment table always uses the p = 2 dual norm, with one batched search
    per sample over the increments of every lag in ``dual_ells``.
    """

    def __init__(
        self,
        sgd,
        p,
        moment_qs=(1, 2, 3),
        translate_ells=(1, 2, 4, 8),
        dual_ells=(1, 2, 4, 8),
        dual_r=2,
        beta=0.25,
        with_dual=True,
        with_martingale=True,
        extra_fn=None,
    ):
        if dual_r < 1 or (dual_r & (dual_r - 1)) != 0:
            raise ValueError(f"dual-norm exponent r must be a power of two, got {dual_r}")
        if with_martingale and not 0.0 < beta < 0.5:
            raise ValueError(f"beta must lie in (0, 1/2), got {beta}")
        self.sgd = sgd
        self.p = p
        self.moment_qs = tuple(moment_qs)
        N = sgd.n_steps
        gd = sgd.gd
        self.translate_ells = tuple(e for e in translate_ells if 1 <= e <= N - 1)
        self.dual_ells = tuple(e for e in dual_ells if 1 <= e <= N - 1) if with_dual and gd.n_dofs else ()
        self.dual_r = dual_r
        self.beta = beta
        self.with_martingale = with_martingale
        self.extra_fn = extra_fn
        self._dual = DualNormSolver(gd) if self.dual_ells else None
        self._phi_quad = None
        if gd.n_dofs:
            e0 = np.zeros(gd.n_dofs)
            e0[0] = 1.0
            self._phi_quad = gd.P @ e0

        names = ["max_sq", "grad_total", "incr_sum"]
        names += [f"moment.{q}" for q in self.moment_qs] + [f"grad_moment.{q}" for q in self.moment_qs]
        names += [f"translate.{e}" for e in self.translate_ells] + [f"dual.{e}" for e in self.dual_ells]
        names += ["mart_h", "mart_sup"] if with_martingale else []
        self.columns = {name: k for k, name in enumerate(names)}
        width = len(names)
        for name, count in [("m_sq", N), ("pairs", N if gd.n_dofs else 0)] if with_martingale else []:
            self.columns[name] = slice(width, width + count)
            width += count
        self.columns["extra"] = slice(width, None)
        self.stat = None  # RunningVector over the table, sized by the first block

    def summarize(self, trajs, stepper):
        """Pathwise quantities of a block of trajectories on this space-time
        grid: a (B, K) table, row b for ``trajs[b]`` in the layout of
        ``columns``. ``add_summary`` merges the blocks in sample order, so
        reports do not depend on the worker count.

        The energy-type columns come from the whole block at once
        (``_energy_columns``). The dual-norm search, the martingale
        statistics (``_martingale_rows``) and ``extra_fn`` run per sample.
        ``stepper`` is the ``Stepper`` that ran the paths, whose noise basis
        values the martingale statistics reuse."""
        N = self.sgd.n_steps
        U = np.stack([traj.u for traj in trajs])  # (B, N+1, n)
        cols = self._energy_columns(U)
        if self.dual_ells:
            # one search per sample over the increments of every lag, rows
            # u^(n+ell) - u^(n) for n = 1..N-ell, lag after lag
            powers = np.array([
                self._dual.batch(np.concatenate([u[1 + ell :] - u[1 : N + 1 - ell] for ell in self.dual_ells]))
                for u in U
            ]) ** self.dual_r
            per_lag = np.split(powers, np.cumsum([N - ell for ell in self.dual_ells])[:-1], axis=1)
            cols += [np.mean(x, axis=1) for x in per_lag]
        if self.with_martingale:
            rows = [self._martingale_rows(stepper, traj) for traj in trajs]
            mart_h, m_sq, pairs = (np.array(col) for col in zip(*rows))
            cols += [mart_h, m_sq.max(axis=1) ** (MARTINGALE_R / 2.0), m_sq, pairs]
        if self.extra_fn is not None:
            cols.append(np.array([np.asarray(self.extra_fn(traj), dtype=float) for traj in trajs]))
        return np.column_stack(cols)

    def _martingale_rows(self, stepper, traj):
        """The fractional norm of one path's discrete martingale
        M_n = z_0 + ... + z_n, its squared L^2 norms (N,), and the pairs
        <z_n, Pi e_0> (N,) (none without unknowns), from the path's noise
        terms z_n = f0(Pi u^(n)) dW_n at the quadrature points.

        The z_n are recomputed from the path's states and increments, one
        sample at a time, since a block of them is the largest temporary of
        the summary. Only their weighted Gram F = (z_k, z_l) enters: the Gram
        of the M_n is the cumulative sum of F along both axes, and the
        squared distances ||M_i - M_j||^2 follow from it."""
        Z = stepper.noise_values(traj.u[:-1], traj.increments)  # (N, n_q)
        w = self.sgd.gd.quad_w
        gram = np.cumsum(np.cumsum((Z * w) @ Z.T, axis=0), axis=1)
        m_sq = np.diag(gram)
        sq_dist = np.maximum(m_sq[:, None] + m_sq[None, :] - 2.0 * gram, 0.0)
        pairs = Z @ (w * self._phi_quad) if self._phi_quad is not None else np.zeros(0)
        return fractional_norm(sq_dist, self.sgd.dt, self.beta, 2.0), m_sq, pairs

    def _energy_columns(self, U):
        """Max L^2 norm, gradient p-power, increment sum, their moments and
        the translates of a block of paths U (B, N+1, n), one (B,) array per
        column. The squared L^2 distances come from one batched Gram product
        U M U^T with the mass matrix, read along its diagonals, and the
        gradient p-powers from one G product over all B(N+1) states."""
        sgd, gd = self.sgd, self.sgd.gd
        N, dt = sgd.n_steps, sgd.dt
        B = len(U)
        states = U.reshape(-1, gd.n_dofs)
        MU = (gd.mass @ states.T).reshape(gd.n_dofs, B, N + 1)
        gram = U @ MU.transpose(1, 0, 2)  # (B, N+1, N+1)
        sq = np.diagonal(gram, axis1=1, axis2=2)  # ||Pi u^(n)||^2, (B, N+1)

        def lag_sq(ell):
            """||Pi u^(n+ell) - Pi u^(n)||^2 for n = 0..N-ell, (B, N+1-ell)."""
            cross = np.diagonal(gram, -ell, axis1=1, axis2=2)
            return np.maximum(sq[:, ell:] + sq[:, :-ell] - 2 * cross, 0.0)

        g_all = gd.G @ states.T  # per-cell gradients of every state
        g_all *= g_all
        mag_p = np.sum(g_all.reshape(gd.mesh.n_cells, gd.dim, -1), axis=1)  # (n_cells, B(N+1))
        np.power(mag_p, self.p / 2.0, out=mag_p)
        grad_p_by_node = (gd.mesh.cell_measures @ mag_p).reshape(B, N + 1)
        max_sq = sq[:, 1:].max(axis=1)
        grad_total = dt * np.sum(grad_p_by_node[:, 1:], axis=1)
        return [
            max_sq,
            grad_total,
            np.sum(lag_sq(1), axis=1),
            *(max_sq ** (2 ** (q - 1)) for q in self.moment_qs),
            *(grad_total ** (2 ** (q - 1)) for q in self.moment_qs),
            *(dt * np.sum(lag_sq(ell)[:, 1:], axis=1) for ell in self.translate_ells),
        ]

    def add_summary(self, table):
        """Reduce a block summary (``summarize``): one ``RunningVector``
        merge of the whole table."""
        if self.stat is None:
            self.stat = RunningVector(table.shape[1])
        self.stat.add(table)

    def report(self):
        stat = self.stat if self.stat is not None else RunningVector(self.columns["extra"].start)
        results = stat.results()
        col = {name: results[k] for name, k in self.columns.items()}
        rep = EstimatorReport(
            n_samples=stat.n,
            p=self.p,
            alpha=min(0.5, 1.0 / self.p),
            beta=self.beta,
            energy_max_l2_sq=col["max_sq"],
            grad_lp_p=col["grad_total"],
            increment_sum=col["incr_sum"],
            higher_moments={q: col[f"moment.{q}"] for q in self.moment_qs},
            grad_moments={q: col[f"grad_moment.{q}"] for q in self.moment_qs},
            translate_table={e: col[f"translate.{e}"] for e in self.translate_ells},
            dual_increment_table={(e, self.dual_r): col[f"dual.{e}"] for e in self.dual_ells},
        )
        if self.with_martingale:
            rep.martingale_h_beta = col["mart_h"]
            rep.martingale_sup_r = col["mart_sup"]
            rep.martingale_sq_by_step = col["m_sq"]
            # the per-step pair columns pooled in step order, n = samples x N
            pairs, steps = RunningVector(1), stat[self.columns["pairs"]]
            for mean, m2 in zip(steps.mean, steps.m2) if stat.n else ():
                pairs.merge(stat.n, mean, m2)
            rep.increment_pair_mean = pairs.results()[0]
        if self.extra_fn is not None:
            rep.extra = stat[self.columns["extra"]]
        return rep


# Samples advance in blocks of consecutive indices (_sample_blocks), and a
# block holds the full paths of its samples at once. Measured with
# run_ensemble of 32 samples at B = 1, 4, 8, 16, 32 (2-vCPU VM): 63
# unknowns, 64 steps ran 10, 20, 29, 33-37, 37 samples/s; P1 20x20, 16
# steps ran 12, 17-20, 19-20, 19-23, 17-18/s; hence at most 16 rows. On
# 20x20 at 64 steps more rows bought nothing past 8: P1 ran 3.5, 4.4-5.1,
# 5.1-5.7, 5.3/s at B up to 16, p1_lumped 2.3-2.6/s at any B up to 16.
# Newton runs a block as long as its slowest row; a linear flux has no
# Newton, so its blocks take LINEAR_ENSEMBLE_BLOCK rows and a block's fixed
# cost (the keyed noise draw, one step call per step, one summary) spreads
# over more samples. Measured on the 1000-sample oracle ensemble (one
# unknown, 16 steps) in process, median of 9 (2-vCPU VM): B = 16, 64, 256,
# 1000 took 0.101, 0.042, 0.027, 0.024 s (16 rows with the noise drawn
# stream by stream: 0.146 s). The budget of BLOCK_BYTES (see ensemble_block)
# caps the block on larger problems: at most 22 rows of a p1_lumped 20x20
# path of 64 steps, which holds 57,600 noise values per step and 104,000
# gradient components in the summary.
ENSEMBLE_BLOCK = 16
LINEAR_ENSEMBLE_BLOCK = 256
BLOCK_BYTES = 32 * 2**20


def ensemble_block(flux_model, noise, *sgds):
    """Samples per block when each sample holds one path on every
    space-time grid of ``sgds`` (every level of ``run_levels``):
    ``ENSEMBLE_BLOCK``, or ``LINEAR_ENSEMBLE_BLOCK`` for a linear flux, or
    fewer when what the block's rows hold at its peak would pass
    ``BLOCK_BYTES``; at least one. A row holds, on every grid,
    its path (``scheme.run_block`` stores N+1 states, N increments,
    residuals and iteration counts), one step's noise values at the n_q
    quadrature points (``scheme.Stepper.noise_values``), and the (N+1)^2
    energy Gram and the per-cell gradients of its N+1 states
    (``EnsembleAccumulator._energy_columns``)."""
    row_bytes = 0
    for sgd in sgds:
        N, gd = sgd.n_steps, sgd.gd
        path = (N + 1) * gd.n_dofs + N * (noise.k_max + 2)
        summary = (N + 1) ** 2 + (N + 1) * gd.mesh.n_cells * gd.dim  # energy Gram, state gradients
        row_bytes += 8 * (path + len(gd.quad_w) + summary)
    cap = LINEAR_ENSEMBLE_BLOCK if flux_model.is_linear else ENSEMBLE_BLOCK
    return int(max(1, min(cap, BLOCK_BYTES // row_bytes)))


def _sample_blocks(n_samples, B):
    """The blocks [kB, (k+1)B) ∩ [0, n_samples), in order, as ranges of
    sample indices. The boundaries depend only on the sample indices and B,
    so a sample's path is a deterministic function of (master_seed, sample,
    its block), however the blocks are spread over workers."""
    return [range(k * B, min((k + 1) * B, n_samples)) for k in range(-(-n_samples // B))]


# -- the block driver --------------------------------------------------------------


_WORKER_TASK = None  # the task of a pool worker process, set as the worker starts


def _start_worker(task):
    global _WORKER_TASK
    _WORKER_TASK = task


def _run_in_worker(block):
    return _WORKER_TASK(block)


def map_blocks(task, blocks, workers):
    """Yield ``task(block)`` for each block of sample indices, in block
    order: in this process for ``workers`` <= 1, else on a fork pool of
    ``workers`` processes that hands out whole blocks.

    The task is built once, here, with what it reuses across blocks (its
    steppers, accumulator, transfer matrices); pool workers inherit it by
    the fork, so only blocks and results are pickled. An exception raised
    by a block ends the iteration at that block."""
    if workers <= 1:
        yield from map(task, blocks)
        return
    import multiprocessing as mp

    ziggurat_tables()  # derived once here, not again in every worker

    with mp.get_context("fork").Pool(workers, initializer=_start_worker, initargs=(task,)) as pool:
        yield from pool.imap(_run_in_worker, blocks, chunksize=max(1, len(blocks) // (workers * 16)))


def run_levels(sgds, flux_model, noise, u0, master_seed, n_samples, acc_kwargs=None, cfg=None, workers=1):
    """Run a sample ensemble on every refinement level of ``sgds`` (coarse
    to fine, each doubling the step count on a mesh nested in the previous)
    under one noise path per sample. Returns one ``EstimatorReport`` per
    level and one ``MeanSE`` per consecutive pair, the mean pathwise
    L^p(space-time) difference for the accumulators' p (``acc_kwargs``,
    shared by every level; p defaults to the flux's).

    Samples advance in fixed blocks of ``ensemble_block(flux_model, noise,
    *sgds)`` consecutive indices (``_sample_blocks``), run by ``map_blocks``
    on one stepper per level and one ``transfer_matrix`` per pair. Per
    block: one keyed ``coupled_increments`` draw (at one level, the paths'
    own streams (master_seed, sample, step)), one ``scheme.run_block`` and
    one ``EnsembleAccumulator.summarize`` per level, then the differences of
    all the block's samples at once. A sample's states agree with
    ``run_trajectory`` on its increments up to the rounding of the block's
    row arithmetic. The blocks are merged in sample order, so the results
    are bit-identical for any worker count. A ``StepFailure`` ends the run
    on every level and names the ``level`` whose step failed.
    """
    for a, b in zip(sgds[:-1], sgds[1:]):
        if b.n_steps != 2 * a.n_steps:
            raise ValueError("levels must double the step count")
    acc_kwargs = dict(acc_kwargs or {})
    acc_kwargs.setdefault("p", flux_model.p)
    accs = [EnsembleAccumulator(sgd, **acc_kwargs) for sgd in sgds]
    steppers = [Stepper(sgd, flux_model, noise, cfg) for sgd in sgds]
    transfers = [c.gd.transfer_matrix(f.gd) for c, f in zip(sgds[:-1], sgds[1:])]

    def run(block):
        """The block's summary table on every level and its rows of differences."""
        samples = np.array(block, dtype=np.int64)[:, None]
        incs = coupled_increments(noise, master_seed, samples, sgds[-1].n_steps, sgds[-1].dt, len(sgds))
        tables, paths = [], []
        for level, (sgd, inc, stepper, acc) in enumerate(zip(sgds, incs, steppers, accs)):
            try:
                trajs = run_block(sgd, flux_model, noise, u0, master_seed, block, cfg, inc, _stepper=stepper)
            except StepFailure as exc:
                exc.level = level
                raise
            tables.append(acc.summarize(trajs, stepper))
            paths.append(trajs)
        U = [np.stack([t.u for t in trajs]) for trajs in paths] if transfers else []
        rows = [_lp_differences(E, sgds[i + 1], U[i], U[i + 1], accs[0].p) for i, E in enumerate(transfers)]
        return tables, np.reshape(rows, (len(transfers), len(block))).T

    stat = RunningVector(len(transfers))
    blocks = _sample_blocks(n_samples, ensemble_block(flux_model, noise, *sgds))
    for tables, rows in map_blocks(run, blocks, workers):
        for acc, table in zip(accs, tables):
            acc.add_summary(table)
        stat.add(rows)
    return [acc.report() for acc in accs], stat.results()


def run_ensemble(sgd, flux_model, noise, u0, master_seed, n_samples, acc_kwargs=None, cfg=None, workers=1):
    """Run a sample ensemble on one space-time grid and reduce it to an
    ``EstimatorReport``: ``run_levels`` at one level."""
    (report,), _ = run_levels([sgd], flux_model, noise, u0, master_seed, n_samples, acc_kwargs, cfg, workers)
    return report


# -- oracles and convergence studies ---------------------------------------------


def ou_exact_moments(mass, stiffness, noise_gain, u0_coeff, dt, n_steps):
    """Exact mean/variance recursion of the single-unknown linear scheme

        u^(n+1) = (m u^n + g sqrt(dt) xi_n) / (m + dt k),

    with m the reconstruction mass, k the gradient stiffness and g the noise
    gain (multiplier constant x spectrum coefficient x basis load)."""
    a = mass / (mass + dt * stiffness)
    b2 = (noise_gain**2) * dt / (mass + dt * stiffness) ** 2
    means = np.empty(n_steps + 1)
    variances = np.empty(n_steps + 1)
    means[0], variances[0] = u0_coeff, 0.0
    for n in range(n_steps):
        means[n + 1] = a * means[n]
        variances[n + 1] = a * a * variances[n] + b2
    return means, variances


def _lp_differences(E, sgd_fine, U_c, U_f, p):
    """Space-time L^p distances of a block of piecewise-constant scheme
    solutions on nested discretisations (the fine time grid refines the
    coarse one): coarse paths U_c (B, Nc+1, n_c), fine paths U_f (B, Nf+1,
    n_f) on ``sgd_fine``, and E the coarse reconstruction at the fine
    quadrature points; returns (B,). One sample at a time, so that what it
    holds beyond the paths is one sample's values at the fine quadrature
    points, which ``ensemble_block``'s budget need not count per row."""
    gd_f, Nf = sgd_fine.gd, sgd_fine.n_steps
    B, Nc = len(U_c), U_c.shape[1] - 1
    if Nf % Nc != 0:
        raise ValueError("fine step count must be a multiple of the coarse one")
    out = np.empty(B)
    for b in range(B):
        # fine less coarse values at the fine quadrature points, in place
        diff = (gd_f.P @ U_f[b, 1:].T).reshape(-1, Nc, Nf // Nc)
        diff -= (E @ U_c[b, 1:].T).reshape(-1, Nc, 1)
        np.abs(diff, out=diff)
        diff **= p
        out[b] = sgd_fine.dt * (gd_f.quad_w @ diff.reshape(len(gd_f.quad_w), Nf)).sum()
    return out ** (1.0 / p)


def deterministic_errors(sgds, flux_model, noise, u0, exact, master_seed=0, cfg=None):
    """Max-in-time L^2 errors against an exact solution (t, points) -> values
    for the noise-free scheme, one per discretisation level."""
    errs = []
    for sgd in sgds:
        traj = run_trajectory(sgd, flux_model, noise, u0, master_seed, 0, cfg)
        gd = sgd.gd
        # every state at once, one row each, summed as the row alone
        values = np.ascontiguousarray((gd.P @ traj.u.T).T)
        diff = values - np.array([exact(t, gd.quad_x) for t in sgd.t_grid])
        errs.append(float(np.sqrt(np.sum(gd.quad_w * diff**2, axis=1)).max()))
    return errs
