"""Path norms, dual norms, Monte Carlo estimators and oracles."""

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy import integrate

from sgdm import build_gd, build_uniform_interval, build_uniform_triangulation, refine
from sgdm import analysis, cli
from sgdm.analysis import (
    ENSEMBLE_BLOCK,
    LINEAR_ENSEMBLE_BLOCK,
    DualNormSolver,
    EnsembleAccumulator,
    MeanSE,
    RunningVector,
    coupled_increments,
    ensemble_block,
    fractional_norm,
    loglog_slope,
    map_blocks,
    ou_exact_moments,
    run_ensemble,
    run_levels,
    translate_at_lags,
)
from sgdm.analysis import _lp_differences, _sample_blocks
from sgdm.flux import linear_diffusion, p_laplace
from sgdm.noise import make_noise, sample_increment, ziggurat_tables
from sgdm.scheme import SpaceTimeGD, Stepper, run_block, run_trajectory

from conftest import dual_norm_oracle, sin_pi, sin_product, zero_field


@dataclass
class StepPath:
    """A path constant on N intervals of length dt: ``values[n]`` at the
    quadrature points on interval n, ``weights`` the quadrature weights."""

    dt: float
    values: np.ndarray
    weights: np.ndarray

    @property
    def n_intervals(self):
        return len(self.values)

    @property
    def T(self):
        return self.dt * self.n_intervals

    def sq_distances(self):
        """||g_i - g_j||^2 for every pair of interval values, by differences."""
        diff = self.values[:, None, :] - self.values[None, :, :]
        return np.einsum("ijq,ijq,q->ij", diff, diff, self.weights)

    def translate(self, rho):
        """The translate integral at rho, linear between the grid lags."""
        lags = self.dt * np.arange(self.n_intervals + 1)
        return float(np.interp(rho, lags, translate_at_lags(self.sq_distances(), self.dt)))


def brute_force_translate(path, rho):
    """Independent evaluation of the translate integral by splitting (0, T-rho)
    at every discontinuity of the integrand and summing exactly."""
    N, dt, T = path.n_intervals, path.dt, path.T
    grid = dt * np.arange(N + 1)
    bps = np.unique(np.concatenate([grid, grid - rho]))
    bps = bps[(bps > 0.0) & (bps < T - rho)]
    bps = np.concatenate([[0.0], bps, [T - rho]])
    w = path.weights
    total = 0.0
    for a, b in zip(bps[:-1], bps[1:]):
        if b - a < 1e-15:
            continue
        s = 0.5 * (a + b)
        i = min(int(s / dt), N - 1)
        j = min(int((s + rho) / dt), N - 1)
        diff = path.values[j] - path.values[i]
        total += (b - a) * float(np.sum(w * diff**2))
    return total


@pytest.fixture(scope="module")
def random_path():
    rng = np.random.default_rng(4)
    return StepPath(0.125, rng.standard_normal((8, 5)), rng.uniform(0.05, 0.3, 5))


def path_fractional_norm(path, beta, q_exp):
    return fractional_norm(path.sq_distances(), path.dt, beta, q_exp)


class ScalarMerge:
    """The statistic of one column on Python floats, merged block by block:
    the reference for ``RunningVector``'s columns. A block's mean and sum of
    squared deviations come from its values as one 1-D array."""

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, block):
        x = np.array(block, dtype=float).reshape(-1)
        mean = float(x[0] + (x - x[0]).mean())
        self.merge(len(x), mean, float(np.sum((x - mean) ** 2)))

    def merge(self, m, mean, m2):
        n = self.n + m
        delta = mean - self.mean
        self.mean = self.mean + delta * (m / n)
        self.m2 = self.m2 + m2 + delta * delta * (self.n * m / n)
        self.n = n

    def result(self):
        if self.n == 0:
            return MeanSE(math.nan, math.nan, 0)
        if self.n == 1:
            return MeanSE(self.mean, 0.0, 1)
        var = max(self.m2, 0.0) / (self.n - 1)
        return MeanSE(self.mean, math.sqrt(var / self.n), self.n)


def merged(blocks):
    """The reference statistic of each column of a sequence of (m, K)
    blocks, one ``ScalarMerge`` per column."""
    stats = [ScalarMerge() for _ in range(np.shape(blocks[0])[1])]
    for block in blocks:
        for stat, col in zip(stats, np.asarray(block, dtype=float).T, strict=True):
            stat.add(col)
    return stats


class TestRunningVector:
    TABLE = np.random.default_rng(5).standard_normal((257, 40)) * np.logspace(-3, 3, 40)
    BLOCKS = np.array_split(TABLE, [1, 17, 18, 100])  # blocks of uneven size

    def test_columns_equal_the_scalar_reference_bitwise(self):
        stat = RunningVector(40)
        for block in self.BLOCKS:
            stat.add(block)
        assert stat.results() == [ref.result() for ref in merged(self.BLOCKS)]
        assert stat.n == 257

    def test_columns_match_exact_rational_statistics(self):
        # |mean - exact| <= 1e-15 sd and |variance - exact| <= 1e-15 variance
        # against the exact mean and sample variance of the same doubles
        stat = RunningVector(40)
        for block in self.BLOCKS:
            stat.add(block)
        for k, col in enumerate(self.TABLE.T):
            values = [Fraction(v) for v in col.tolist()]
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
            assert abs(Fraction(stat.mean[k]) - mean) <= 1e-15 * math.sqrt(var), k
            assert abs(Fraction(stat.variance[k]) - var) <= Fraction(1e-15) * var, k

    def test_equal_rows_have_zero_spread(self):
        stat = RunningVector(2)
        for m in (3, 1, 5):
            stat.add(np.full((m, 2), 0.1845861140097293))
        assert stat.n == 9
        np.testing.assert_array_equal(stat.mean, 0.1845861140097293)
        np.testing.assert_array_equal(stat.variance, 0.0)
        np.testing.assert_array_equal(stat.se, 0.0)
        np.testing.assert_array_equal(stat.variance_se, 0.0)

    def test_one_column_equals_the_scalar_reference_bitwise(self):
        # a column is summed on its own, alone or beside another: both are
        # the scalar statistic bit for bit
        x = np.random.default_rng(7).standard_normal(300)
        narrow, wide, scalar = RunningVector(1), RunningVector(2), ScalarMerge()
        for block in np.array_split(x, [1, 17, 18, 100, 101, 250]):
            narrow.add(block.reshape(-1, 1))
            wide.add(np.column_stack([block, -block]))
            scalar.add(block)
            assert narrow.n == wide.n == scalar.n
            assert (narrow.mean[0], narrow.m2[0]) == (scalar.mean, scalar.m2)
            for name in ("mean", "m2", "variance", "se", "variance_se"):
                np.testing.assert_array_equal(getattr(narrow, name), getattr(wide, name)[:1], err_msg=name)
        assert narrow.results() == [scalar.result()]

    def test_before_two_rows(self):
        stat = RunningVector(2)
        empty = stat.results()
        assert [r.n for r in empty] == [0, 0]
        assert all(math.isnan(r.mean) and math.isnan(r.se) for r in empty)
        stat.add([1.5, -2.0])
        assert stat.results() == [MeanSE(1.5, 0.0, 1), MeanSE(-2.0, 0.0, 1)]
        np.testing.assert_array_equal(stat.variance, 0.0)

    def test_blocks_of_zero_columns(self):
        # a run of one level has no pair of levels: its difference rows are
        # (m, 0) blocks
        stat = RunningVector(0)
        for m in (3, 1):
            stat.add(np.zeros((m, 0)))
        assert stat.n == 4 and stat.results() == []
        assert stat.mean.shape == stat.variance.shape == stat.se.shape == (0,)

    def test_column_selection(self):
        x = np.random.default_rng(6).standard_normal((9, 5))
        stat = RunningVector(5)
        stat.add(x)
        part = stat[slice(2, None)]
        assert part.n == 9
        assert part.results() == stat.results()[2:]
        np.testing.assert_array_equal(part.variance, stat.variance[2:])


class TestContinuousTranslate:
    """The translate integral of a piecewise-constant path, as
    ``fractional_norm`` integrates it: exact values at the grid lags
    (``translate_at_lags``), linear in between."""

    def test_rho_equal_dt_case(self, random_path):
        path = random_path
        jumps = sum(
            float(np.sum(path.weights * (path.values[n + 1] - path.values[n]) ** 2))
            for n in range(path.n_intervals - 1)
        )
        assert abs(path.translate(path.dt) - path.dt * jumps) <= 1e-12

    def test_constant_path_zero(self):
        path = StepPath(0.25, np.ones((4, 3)), np.ones(3))
        for rho in (0.1, 0.25, 0.5, 0.9):
            assert path.translate(rho) == 0.0

    @pytest.mark.parametrize("rho", [0.037, 0.125, 0.2, 0.44, 0.61, 0.93])
    def test_brute_force_quadrature_oracle(self, random_path, rho):
        got = random_path.translate(rho)
        assert abs(got - brute_force_translate(random_path, rho)) <= 1e-8

    def test_vanishes_at_zero_and_full_lag(self, random_path):
        lags = translate_at_lags(random_path.sq_distances(), random_path.dt)
        assert len(lags) == random_path.n_intervals + 1
        assert lags[0] == 0.0 and lags[-1] == 0.0 and np.all(lags[1:-1] > 0.0)


class TestFractionalNorm:
    def test_constant_path_zero(self):
        path = StepPath(0.25, 3.0 * np.ones((4, 2)), np.ones(2))
        assert path_fractional_norm(path, 0.25, 2.0) == 0.0

    def test_two_interval_jump_analytic(self):
        # unit L2 jump at t = 1/2 on (0,1), beta = 1/4, q = 2:
        # integral of min-overlap formula gives 4 sqrt(2) - 4
        path = StepPath(0.5, np.array([[0.0], [1.0]]), np.array([1.0]))
        got = path_fractional_norm(path, 0.25, 2.0)
        assert abs(got - (4.0 * np.sqrt(2.0) - 4.0)) <= 1e-12

    def test_two_interval_jump_dblquad_oracle(self):
        path = StepPath(0.5, np.array([[0.0], [1.0]]), np.array([1.0]))

        def inner(rho):
            # phi(rho) = measure of {s : s <= 1/2 < s + rho, 0 < s < 1 - rho}
            return min(rho, 1.0 - rho) if rho < 1.0 else 0.0

        oracle, err = integrate.quad(
            lambda rho: inner(rho) * rho ** (-1.5), 0.0, 1.0, points=[0.5], limit=200
        )
        assert err < 1e-9
        assert abs(path_fractional_norm(path, 0.25, 2.0) - oracle) <= 1e-6

    def test_random_path_dblquad_oracle(self, random_path):
        path = random_path
        beta, q = 0.2, 2.0

        def inner(rho):
            return brute_force_translate(path, rho) if 0 < rho < path.T else 0.0

        oracle, err = integrate.quad(
            lambda rho: inner(rho) * rho ** (-1.0 - beta * q),
            0.0,
            path.T,
            points=list(path.dt * np.arange(1, path.n_intervals)),
            limit=400,
        )
        got = path_fractional_norm(path, beta, q)
        assert abs(got - oracle) <= 1e-6 * max(1.0, oracle)

    def test_homogeneity(self, random_path):
        lam = 2.37
        q = 2.0
        scaled = StepPath(random_path.dt, lam * random_path.values, random_path.weights)
        a = path_fractional_norm(scaled, 0.25, q)
        b = path_fractional_norm(random_path, 0.25, q)
        assert abs(a - lam**q * b) <= 1e-10 * max(1.0, abs(a))

    def test_vanishes_iff_constant(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            vals = rng.standard_normal((6, 3))
            path = StepPath(0.1, vals, np.ones(3))
            norm = path_fractional_norm(path, 0.3, 2.0)
            constant = np.allclose(vals, vals[0])
            assert (norm <= 1e-12) == constant

    def test_invalid_parameters(self, random_path):
        with pytest.raises(ValueError):
            path_fractional_norm(random_path, 0.6, 2.0)
        with pytest.raises(ValueError):
            path_fractional_norm(random_path, 0.3, 4.0)  # beta q >= 1
        with pytest.raises(ValueError):
            path_fractional_norm(random_path, 0.3, 0.5)  # q < 1


class TestDualNorm:
    def test_zero_element(self, gd_interval_16):
        # no slope sign change either: the search must bisect without 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert DualNormSolver(gd_interval_16).batch(np.zeros(gd_interval_16.n_dofs))[0] == 0.0

    def test_single_dof_closed_form(self, single_dof_gd):
        gd = single_dof_gd
        w = np.array([2.0])
        # ratio <v, Pi e> / (||Pi e||_2 + ||grad e||_2) at the only direction
        e = np.array([1.0])
        expected = gd.l2_inner(w, e) / (gd.lp_norm(e, 2.0) + gd.grad_lp_norm(e, 2.0))
        solver = DualNormSolver(gd)
        # the ratio is flat in mu, so its slope has no sign change to find
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solver.batch(w)[0]
        assert abs(got - expected) <= 1e-10
        assert got >= grid_ratio(solver, w).max()

    def test_bounded_by_l2_norm(self, gd_interval_16):
        gd = gd_interval_16
        W = np.random.default_rng(3).standard_normal((20, gd.n_dofs))
        got = DualNormSolver(gd).batch(W)
        assert np.all(got <= [gd.lp_norm(w, 2.0) + 1e-10 for w in W])

    def test_dense_oracle_small(self):
        gd = build_gd(build_uniform_interval(6, 0.0, 1.0), "p1")
        solver = DualNormSolver(gd)
        # the rows a restarted Nelder-Mead oracle drew, each followed by its 60 starts
        for w in np.random.default_rng(14).standard_normal((5, 61, gd.n_dofs))[:, 0]:
            best = dual_norm_oracle(gd, gd.mass @ w)
            got = solver.batch(w)[0]
            assert got >= best - 1e-6
            assert got <= best + 1e-6


def reference_dual_batch(gd, W):
    """The p = 2 dual-norm search as it was before the batched rewrite: its
    own eigh(M, K), 181 one-mu grid evaluations, then 60 golden-section steps
    that re-evaluate both interior points."""
    M, K = gd.mass.toarray(), gd.stiffness.toarray()
    lam, Y = sla.eigh(M, K)
    lam = np.maximum(lam, 0.0)
    W = np.atleast_2d(np.asarray(W, dtype=float))
    m = len(W)
    e2 = (W @ (Y.T @ M).T) ** 2

    def values_at(mu):
        r = 1.0 / (lam[None, :] + mu[:, None])
        num = np.sum(e2 * r, axis=1)
        pi2 = np.sum(e2 * lam[None, :] * r * r, axis=1)
        gr2 = np.sum(e2 * r * r, axis=1)
        den = np.sqrt(np.maximum(pi2, 0.0)) + np.sqrt(np.maximum(gr2, 0.0))
        return num / np.maximum(den, 1e-300)

    grid = np.logspace(-9.0, 9.0, 181)
    vals = np.column_stack([values_at(np.full(m, mu)) for mu in grid])
    best = vals.max(axis=1)
    arg = vals.argmax(axis=1)
    a = np.log(grid[np.maximum(arg - 1, 0)])
    b = np.log(grid[np.minimum(arg + 1, len(grid) - 1)])
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = values_at(np.exp(c)), values_at(np.exp(d))
    for _ in range(60):
        go_right = fc < fd
        a = np.where(go_right, c, a)
        b = np.where(go_right, b, d)
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = values_at(np.exp(c)), values_at(np.exp(d))
        best = np.maximum(best, np.maximum(fc, fd))
    return best


BENCHMARK_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def grid_ratio(solver, W):
    """The ratio f of ``DualNormSolver`` at each point of its mu-grid, one
    grid point at a time from the sums N, P and G, (m, len(_MU_GRID))."""
    e2 = (np.atleast_2d(W) @ solver.YM.T) ** 2
    lam = solver.lam
    cols = []
    for mu in solver._MU_GRID:
        r = 1.0 / (lam + mu)
        cols.append(e2 @ r / np.maximum(np.sqrt(e2 @ (lam * r * r)) + np.sqrt(e2 @ (r * r)), 1e-300))
    return np.column_stack(cols)


def p3_trajectory(gd, n_steps=16):
    sgd = SpaceTimeGD(gd, T=0.25, n_steps=n_steps)
    noise = make_noise(gd.mesh.bounding_box, 4, f0="tanh")
    u0 = sin_product if gd.dim == 2 else sin_pi
    return run_block(sgd, p_laplace(3.0), noise, u0, 17, [0])[0]


class TestDualNormSearch:
    """The grid + Illinois search against the old per-lag golden-section one,
    its closed-form slope, and its fallback for rows without a sign change."""

    @pytest.mark.parametrize(
        "mesh",
        [build_uniform_interval(32, 0.0, 1.0), build_uniform_triangulation(4, 4)],
        ids=["interval_p1", "square_p1"],
    )
    def test_matches_per_lag_reference(self, mesh):
        gd = build_gd(mesh, "p1")
        traj = p3_trajectory(gd)
        N = traj.sgd.n_steps
        acc = EnsembleAccumulator(traj.sgd, 3.0, dual_ells=(1, 2, 4, 8), dual_r=4)
        stepper = Stepper(traj.sgd, traj.flux, traj.noise)
        table = acc.summarize([traj], stepper)
        got = {int(name[5:]): table[0, k] for name, k in acc.columns.items() if name.startswith("dual.")}
        assert set(got) == {1, 2, 4, 8}
        rows_all, ref_all = [], []
        for ell in (1, 2, 4, 8):
            idx = np.arange(1, N - ell + 1)
            rows = traj.u[idx + ell] - traj.u[idx]
            ref = reference_dual_batch(gd, rows)
            assert np.all(ref > 0.0)
            assert abs(got[ell] - np.mean(ref**4)) <= 1e-13 * np.mean(ref**4)
            rows_all.append(rows)
            ref_all.append(ref)
        new = DualNormSolver(gd).batch(np.concatenate(rows_all))
        np.testing.assert_allclose(new, np.concatenate(ref_all), rtol=1e-13, atol=0.0)

    def test_zero_row_in_batch(self):
        gd = build_gd(build_uniform_interval(32, 0.0, 1.0), "p1")
        rows = np.diff(p3_trajectory(gd).u[1:], axis=0)
        solver = DualNormSolver(gd)
        alone = solver.batch(rows)
        mixed = solver.batch(np.insert(rows, 3, 0.0, axis=0))
        assert mixed[3] == 0.0
        np.testing.assert_allclose(np.delete(mixed, 3), alone, rtol=1e-15, atol=0.0)

    def test_eigenbasis_cached_per_discretisation(self):
        gd = build_gd(build_uniform_interval(8, 0.0, 1.0), "p1")
        lam, Y, YM = gd.eigenbasis
        assert gd.eigenbasis[1] is Y
        np.testing.assert_allclose(Y.T @ gd.stiffness.toarray() @ Y, np.eye(gd.n_dofs), atol=1e-12)
        np.testing.assert_allclose(YM @ Y, np.diag(lam), atol=1e-12)
        assert DualNormSolver(gd).YM is YM

    @pytest.mark.parametrize(
        "mesh, space",
        [(build_uniform_interval(16, 0.0, 1.0), "p1"), (build_uniform_triangulation(4, 4), "cr")],
        ids=["interval_p1", "square_cr"],
    )
    def test_slope_matches_central_difference(self, mesh, space):
        gd = build_gd(mesh, space)
        solver = DualNormSolver(gd)
        W = np.random.default_rng(8).standard_normal((6, gd.n_dofs))
        e2 = (W @ solver.YM.T) ** 2
        h = 1e-4
        for mu in (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0):
            x = np.full(len(W), np.log(mu))
            slope = solver._ratio_and_slope(e2, x)[1]
            f_plus, f_minus = solver._ratio_and_slope(e2, x + h)[0], solver._ratio_and_slope(e2, x - h)[0]
            central = (np.log(f_plus) - np.log(f_minus)) / (2.0 * h)
            np.testing.assert_allclose(slope, central, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize(
        "lam, w, arg",
        [([0.0, 1.0], [1.0, 1.0], 0), ([0.0, 1e18], [1e-5, 1e5], 180)],
        ids=["max_at_first", "max_at_last"],
    )
    def test_rows_without_sign_change(self, lam, w, arg):
        # a two-mode stand-in for a discretisation (the solver reads only its
        # eigenbasis): a mode with lam = 0 makes f fall from mu = 0 on, and
        # one with lam = 1e18 carrying most of w makes it rise to mu = infinity
        solver = DualNormSolver(SimpleNamespace(eigenbasis=(np.array(lam), None, np.eye(2))))
        vals = grid_ratio(solver, [w])
        assert vals.argmax() == arg
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solver.batch(w)
        assert np.isfinite(got[0]) and got[0] >= vals.max()

    @pytest.mark.parametrize("config", ["mc_p3_1d", "mc_p3_2d_sparse"])
    def test_benchmark_increments_bracket_a_sign_change(self, config):
        """Evidence, not a proof, for what ``batch`` assumes: on every
        increment row of one ensemble block of the benchmark config whose
        grid maximum is interior, the slope s changes sign from + to -
        across the bracket that the Illinois steps refine."""
        cfg = cli.load_config(BENCHMARK_CONFIGS / f"{config}.json")
        (mesh, gd, sgd), = cli.build_levels(cfg)
        trajs = run_block(
            sgd, cli.build_flux(cfg), cli.build_noise_model(cfg, mesh), cli.build_u0(cfg, mesh, gd),
            cfg["master_seed"], range(cfg["n_samples"]), cli.build_solver_config(cfg),
        )
        N = sgd.n_steps
        ells = [ell for ell in cfg["estimators"]["dual_ells"] if 1 <= ell <= N - 1]
        W = np.concatenate([t.u[1 + ell :] - t.u[1 : N + 1 - ell] for t in trajs for ell in ells])
        solver = DualNormSolver(gd)
        arg = grid_ratio(solver, W).argmax(axis=1)
        interior = (arg > 0) & (arg < len(solver._MU_GRID) - 1)
        assert interior.sum() > len(W) // 2
        e2 = (W[interior] @ solver.YM.T) ** 2
        log_mu = np.log(solver._MU_GRID)
        s_a = solver._ratio_and_slope(e2, log_mu[arg[interior] - 1])[1]
        s_b = solver._ratio_and_slope(e2, log_mu[arg[interior] + 1])[1]
        assert np.all(s_a > 0.0) and np.all(s_b < 0.0)


@pytest.fixture(scope="module")
def small_ensemble():
    gd = build_gd(build_uniform_interval(8, 0.0, 1.0), "p1")
    sgd = SpaceTimeGD(gd, T=0.5, n_steps=8)
    noise = make_noise(gd.mesh.bounding_box, 4, f0="tanh")
    flux = linear_diffusion()
    trajs = run_block(sgd, flux, noise, sin_pi, 41, range(16))
    return sgd, flux, noise, trajs


def reduce_block(trajs, p, **acc_kwargs):
    """The report of one accumulator over the trajectories as one block."""
    acc = EnsembleAccumulator(trajs[0].sgd, p, **acc_kwargs)
    acc.add_summary(acc.summarize(trajs, Stepper(trajs[0].sgd, trajs[0].flux, trajs[0].noise)))
    return acc.report()


ENERGY_ONLY = dict(translate_ells=(), dual_ells=(), with_dual=False, with_martingale=False)


class TestEstimators:
    def test_deterministic_path_zero_se(self):
        gd = build_gd(build_uniform_interval(8, 0.0, 1.0), "p1")
        sgd = SpaceTimeGD(gd, T=0.5, n_steps=8)
        noise = make_noise(gd.mesh.bounding_box, 2, f0="zero")
        trajs = run_block(sgd, linear_diffusion(), noise, sin_pi, 0, range(3))
        rep = reduce_block(trajs, 2.0, **ENERGY_ONLY)
        assert rep.energy_max_l2_sq.se == 0.0
        single = np.sum(gd.quad_w * (gd.P @ trajs[0].u[1]) ** 2)
        assert abs(rep.energy_max_l2_sq.mean - single) <= 1e-14

    def test_zero_initial_zero_noise_all_zero(self):
        gd = build_gd(build_uniform_interval(8, 0.0, 1.0), "p1")
        sgd = SpaceTimeGD(gd, T=0.5, n_steps=8)
        noise = make_noise(gd.mesh.bounding_box, 2, f0="zero")
        trajs = run_block(sgd, linear_diffusion(), noise, zero_field, 0, range(2))
        rep = reduce_block(trajs, 2.0, **ENERGY_ONLY)
        assert rep.energy_max_l2_sq.mean == 0.0
        assert rep.grad_lp_p.mean == 0.0
        assert rep.increment_sum.mean == 0.0

    def test_translate_constant_path_zero(self):
        gd = build_gd(build_uniform_interval(8, 0.0, 1.0), "p1")
        sgd = SpaceTimeGD(gd, T=0.5, n_steps=8)
        noise = make_noise(gd.mesh.bounding_box, 2, f0="zero")
        # zero initial data and no noise: path constant in time
        trajs = run_block(sgd, linear_diffusion(), noise, zero_field, 0, range(2))
        table = reduce_block(trajs, 2.0, **dict(ENERGY_ONLY, translate_ells=(1, 2, 4))).translate_table
        assert set(table) == {1, 2, 4}
        assert all(v.mean == 0.0 for v in table.values())

    def test_translate_deterministic_direct_evaluation(self):
        gd = build_gd(build_uniform_interval(8, 0.0, 1.0), "p1")
        sgd = SpaceTimeGD(gd, T=0.5, n_steps=8)
        noise = make_noise(gd.mesh.bounding_box, 2, f0="zero")
        trajs = run_block(sgd, linear_diffusion(), noise, sin_pi, 0, range(1))
        table = reduce_block(trajs, 2.0, **dict(ENERGY_ONLY, translate_ells=(2,))).translate_table
        traj = trajs[0]
        direct = sgd.dt * sum(
            gd.l2_inner(traj.u[n + 2] - traj.u[n], traj.u[n + 2] - traj.u[n])
            for n in range(1, sgd.n_steps - 1)
        )
        assert abs(table[2].mean - direct) <= 1e-13
        assert table[2].se == 0.0

    def test_dual_exponent_must_be_power_of_two(self, small_ensemble):
        sgd, flux, noise, trajs = small_ensemble
        dual = dict(translate_ells=(), dual_ells=(1, 2), with_martingale=False)
        with pytest.raises(ValueError):
            EnsembleAccumulator(sgd, 2.0, dual_r=3, **dual)
        table = reduce_block(trajs, 2.0, dual_r=2, **dual).dual_increment_table
        assert set(table) == {(1, 2), (2, 2)}

    def test_martingale_beta_checked_at_construction(self, small_ensemble):
        sgd = small_ensemble[0]
        for beta in (0.0, 0.5, 0.7):
            with pytest.raises(ValueError, match="beta"):
                EnsembleAccumulator(sgd, 2.0, beta=beta)
        # without the martingale estimators no fractional norm reads beta
        EnsembleAccumulator(sgd, 2.0, beta=0.7, with_martingale=False)

    def test_dual_increments_of_constant_path_zero(self):
        gd = build_gd(build_uniform_interval(8, 0.0, 1.0), "p1")
        sgd = SpaceTimeGD(gd, T=0.5, n_steps=8)
        noise = make_noise(gd.mesh.bounding_box, 2, f0="zero")
        trajs = run_block(sgd, linear_diffusion(), noise, zero_field, 0, range(2))
        table = reduce_block(trajs, 2.0, translate_ells=(), dual_ells=(1, 2), with_martingale=False).dual_increment_table
        assert all(v.mean == 0.0 for v in table.values())

    def test_dual_table_is_p2_dual_norm_for_p3(self):
        gd = build_gd(build_uniform_interval(8, 0.0, 1.0), "p1")
        sgd = SpaceTimeGD(gd, T=0.5, n_steps=8)
        noise = make_noise(gd.mesh.bounding_box, 4, f0="tanh")
        trajs = run_block(sgd, p_laplace(3.0), noise, sin_pi, 23, range(4))
        table = reduce_block(trajs, 3.0, translate_ells=(), dual_ells=(1, 2), with_martingale=False).dual_increment_table
        solver = DualNormSolver(gd)
        for ell in (1, 2):
            per_sample = [
                np.mean([solver.batch(t.u[n + ell] - t.u[n])[0] ** 2 for n in range(1, 9 - ell)])
                for t in trajs
            ]
            want = np.mean(per_sample)
            assert abs(table[(ell, 2)].mean - want) <= 1e-12 * want

    def test_martingale_zero_noise(self):
        gd = build_gd(build_uniform_interval(8, 0.0, 1.0), "p1")
        sgd = SpaceTimeGD(gd, T=0.5, n_steps=8)
        noise = make_noise(gd.mesh.bounding_box, 2, f0="zero")
        trajs = run_block(sgd, linear_diffusion(), noise, sin_pi, 0, range(2))
        rep = reduce_block(trajs, 2.0, translate_ells=(), dual_ells=(), with_dual=False)
        assert rep.martingale_h_beta.mean == 0.0
        assert rep.martingale_sup_r.mean == 0.0

    def test_ensemble_workers_identical(self, small_ensemble):
        sgd, flux, noise, _ = small_ensemble
        kwargs = dict(translate_ells=(1, 2), dual_ells=(1,))
        a = run_ensemble(sgd, flux, noise, sin_pi, 41, 12, kwargs, workers=1)
        b = run_ensemble(sgd, flux, noise, sin_pi, 41, 12, kwargs, workers=2)
        assert a.energy_max_l2_sq == b.energy_max_l2_sq
        assert a.translate_table == b.translate_table
        assert a.dual_increment_table == b.dual_increment_table
        assert a.martingale_h_beta == b.martingale_h_beta



def row_bytes(noise, *sgds):
    """What a block row holds at its peak on every grid: its path (N+1
    states, N increments, residuals and iteration counts), one step's noise
    values at the quadrature points, its (N+1)^2 energy Gram and the
    per-cell gradients of its states."""
    return sum(
        8 * ((s.n_steps + 1) * s.gd.n_dofs + s.n_steps * (noise.k_max + 2) + len(s.gd.quad_w)
             + (s.n_steps + 1) ** 2 + (s.n_steps + 1) * s.gd.G.shape[0])
        for s in sgds
    )


class TestBlocks:
    def test_block_boundaries_depend_only_on_sample_indices(self):
        B = 5
        assert _sample_blocks(2 * B + 3, B) == [range(0, B), range(B, 2 * B), range(2 * B, 2 * B + 3)]
        assert _sample_blocks(B + 2, B) == [range(0, B), range(B, B + 2)]
        assert _sample_blocks(0, B) == []

    def test_block_size_bounded_by_the_paths_it_holds(self, small_ensemble, monkeypatch):
        sgd, flux, noise, _ = small_ensemble
        (traj,) = run_block(sgd, flux, noise, sin_pi, 41, [0])
        fields = (traj.u, traj.increments, traj.per_step_residuals, traj.per_step_newton_iters)
        path = sum(a.nbytes for a in fields)
        # at the block's peak a row also holds one step's noise values at
        # the quadrature points, its (N+1)^2 energy Gram and the per-cell
        # gradients of its states
        noise_values = Stepper(sgd, flux, noise).noise_values(traj.u[:1], traj.increments[:1])
        gradients = sgd.gd.G @ traj.u.T
        row = path + noise_values.nbytes + 8 * (sgd.n_steps + 1) ** 2 + gradients.nbytes
        for budget, B in ((3 * row, 3), (4 * row - 1, 3), (row - 1, 1)):
            monkeypatch.setattr(analysis, "BLOCK_BYTES", budget)
            assert ensemble_block(flux, noise, sgd) == B
            assert ensemble_block(p_laplace(3.0), noise, sgd) == B

    def test_linear_flux_blocks_take_more_rows(self, small_ensemble):
        sgd, flux, noise, _ = small_ensemble
        assert flux.is_linear and LINEAR_ENSEMBLE_BLOCK == 256
        assert ensemble_block(flux, noise, sgd) == LINEAR_ENSEMBLE_BLOCK
        assert ensemble_block(p_laplace(3.0), noise, sgd) == ENSEMBLE_BLOCK == 16
        assert ensemble_block(p_laplace(2.0), noise, sgd) == LINEAR_ENSEMBLE_BLOCK  # no Newton at p = 2

    def test_p1_lumped_paths_shrink_the_block(self, monkeypatch):
        # a path of 64 steps on 20 x 20 holds its 361-unknown states and its
        # increments, 0.19 MB, but a row also holds 57,600 noise values in a
        # step and the 65 x 800 x 2 gradient components of its states in the
        # summary: the budget keeps a linear block at 22 rows, and a budget
        # below two rows shrinks any block to one
        gd = build_gd(build_uniform_triangulation(20, 20), "p1_lumped")
        sgd = SpaceTimeGD(gd, T=0.25, n_steps=64)
        noise = make_noise(gd.mesh.bounding_box, 16, f0="tanh")
        path = 8 * (65 * gd.n_dofs + 64 * (16 + 2))
        row = path + 8 * (57_600 + 65**2 + 65 * 1600)
        assert len(gd.quad_w) == 57_600 and gd.G.shape[0] == 1600 and path < 200_000
        assert ensemble_block(p_laplace(3.0), noise, sgd) == ENSEMBLE_BLOCK
        assert ensemble_block(linear_diffusion(), noise, sgd) == analysis.BLOCK_BYTES // row == 22
        monkeypatch.setattr(analysis, "BLOCK_BYTES", 2 * row - 1)
        assert ensemble_block(linear_diffusion(), noise, sgd) == 1
        assert ensemble_block(p_laplace(3.0), noise, sgd) == 1

    def test_map_blocks_runs_the_fixed_blocks(self, small_ensemble, monkeypatch):
        sgd, flux, noise, _ = small_ensemble

        def paths(block):
            return np.stack([t.u for t in run_block(sgd, flux, noise, sin_pi, 41, block)])

        for budget in (analysis.BLOCK_BYTES, 1):  # blocks of LINEAR_ENSEMBLE_BLOCK, then of 1
            monkeypatch.setattr(analysis, "BLOCK_BYTES", budget)
            B = ensemble_block(flux, noise, sgd)
            n = B + 3  # the last block is short
            blocks = _sample_blocks(n, B)
            assert [s for block in blocks for s in block] == list(range(n))
            want = [paths(block) for block in blocks]
            for workers in (1, 2):
                got = list(map_blocks(paths, blocks, workers))
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)

    def test_pool_workers_inherit_the_ziggurat_tables(self):
        # derived in this process before the fork, not once per worker
        ziggurat_tables.cache_clear()
        sizes = list(map_blocks(lambda block: ziggurat_tables.cache_info().currsize, [range(1), range(1, 2)], 2))
        assert sizes == [1, 1]

    def test_reports_identical_across_workers_over_several_blocks(self, single_dof_gd):
        sgd = SpaceTimeGD(single_dof_gd, T=0.5, n_steps=4)
        noise = make_noise(single_dof_gd.mesh.bounding_box, 1, f0="constant")
        kwargs = dict(translate_ells=(1,), dual_ells=(), with_dual=False, extra_fn=lambda t: t.u[:, 0])
        assert ensemble_block(linear_diffusion(), noise, sgd) == LINEAR_ENSEMBLE_BLOCK
        n = 3 * LINEAR_ENSEMBLE_BLOCK + 5  # three full blocks and a short one
        reports = [
            run_ensemble(sgd, linear_diffusion(), noise, np.ones(1), 3, n, kwargs, workers=w) for w in (1, 2)
        ]
        for rep in reports:
            assert rep.n_samples == n
        a, b = (_report_fields(rep) for rep in reports)
        for name in EXTRA_FIELDS:
            np.testing.assert_array_equal(a[f"extra.{name}"], b[f"extra.{name}"])
        assert a["translate_table"] == b["translate_table"]
        assert a["martingale_h_beta"] == b["martingale_h_beta"]


def _summary_columns(acc, table):
    """A block summary's columns by name ("max_sq", "translate.2", ...,
    "m_sq", "pairs", "extra")."""
    return {name: table[:, k] for name, k in acc.columns.items()}


EXTRA_FIELDS = ("n", "mean", "variance", "se", "variance_se")


def _report_fields(rep):
    fields = dict(vars(rep))
    extra = fields.pop("extra")
    if extra is not None:
        fields.update({f"extra.{name}": np.asarray(getattr(extra, name)).tolist() for name in EXTRA_FIELDS})
    return fields


def reference_martingale(stepper, traj, beta, r):
    """The martingale statistics of one path from its noise sums at the
    quadrature points, as paths once stored them: M_n = z_0 + ... + z_n with
    z_n the noise term of step n alone (``Stepper.noise_values``), then the
    fractional norm of M on the squared distances of its values, the sup of
    ||M_n||^r and the pairs <z_n, Pi e_0>."""
    gd, dt = stepper.gd, stepper.dt
    Z = np.array([stepper.noise_values(u[None], c[None])[0] for u, c in zip(traj.u[:-1], traj.increments)])
    M = np.cumsum(Z, axis=0)
    m_sq = M**2 @ gd.quad_w
    e0 = np.zeros(gd.n_dofs)
    e0[0] = 1.0
    h = fractional_norm(StepPath(dt, M, gd.quad_w).sq_distances(), dt, beta, 2.0)
    return h, m_sq, m_sq.max() ** (r / 2.0), Z @ (gd.quad_w * (gd.P @ e0))


def reference_report_fields(acc, summaries):
    """The report fields of an accumulator's block summaries by the scalar
    reference: each column's statistic merged block after block in sample
    order, and the pairs' per-step statistics pooled in step order."""
    stats = merged(summaries)
    results = [stat.result() for stat in stats]
    col = {name: results[k] for name, k in acc.columns.items()}
    pairs = ScalarMerge()
    for stat in stats[acc.columns["pairs"]]:
        pairs.merge(stat.n, stat.mean, stat.m2)
    return {
        "n_samples": sum(len(table) for table in summaries),
        "energy_max_l2_sq": col["max_sq"],
        "grad_lp_p": col["grad_total"],
        "increment_sum": col["incr_sum"],
        "higher_moments": {q: col[f"moment.{q}"] for q in acc.moment_qs},
        "grad_moments": {q: col[f"grad_moment.{q}"] for q in acc.moment_qs},
        "translate_table": {e: col[f"translate.{e}"] for e in acc.translate_ells},
        "dual_increment_table": {(e, acc.dual_r): col[f"dual.{e}"] for e in acc.dual_ells},
        "martingale_h_beta": col["mart_h"],
        "martingale_sup_r": col["mart_sup"],
        "martingale_sq_by_step": col["m_sq"],
        "increment_pair_mean": pairs.result(),
        "extra": col["extra"],
    }


class TestBlockSummaries:
    ESTIMATORS = dict(
        translate_ells=(1, 2, 4), dual_ells=(1, 2, 4), dual_r=2, with_dual=True, with_martingale=True,
        extra_fn=lambda traj: traj.u[:, 0],
    )

    def test_block_summary_matches_blocks_of_one(self):
        gd = build_gd(build_uniform_interval(16, 0.0, 1.0), "p1")
        sgd = SpaceTimeGD(gd, T=0.25, n_steps=12)
        noise = make_noise(gd.mesh.bounding_box, 4, f0="tanh")
        trajs = run_block(sgd, p_laplace(3.0), noise, sin_pi, 29, range(5))
        acc = EnsembleAccumulator(sgd, 3.0, **self.ESTIMATORS)
        stepper = Stepper(sgd, p_laplace(3.0), noise)
        block = _summary_columns(acc, acc.summarize(trajs, stepper))
        singles = [_summary_columns(acc, acc.summarize([traj], stepper)) for traj in trajs]
        assert set(block) == {
            "max_sq", "grad_total", "incr_sum", "translate.1", "translate.2", "translate.4", "dual.1", "dual.2",
            "dual.4", "mart_h", "m_sq", "mart_sup", "pairs", "extra",
            *(f"{kind}.{q}" for kind in ("moment", "grad_moment") for q in (1, 2, 3)),
        }
        for key, got in block.items():
            want = np.concatenate([single[key] for single in singles])
            assert got.shape == want.shape == (5,) + want.shape[1:]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=key)
        # the energy-type rows against a loop over each path's states
        N, dt = sgd.n_steps, sgd.dt
        for b, traj in enumerate(trajs):
            sq = [gd.l2_inner(v, v) for v in traj.u]
            steps = [gd.l2_inner(v, v) for v in np.diff(traj.u, axis=0)]
            grad = dt * sum(gd.grad_lp_norm(v, 3.0) ** 3 for v in traj.u[1:])
            assert abs(block["max_sq"][b] - max(sq[1:])) <= 1e-12 * max(sq[1:])
            assert abs(block["incr_sum"][b] - sum(steps)) <= 1e-12 * sum(sq)
            assert abs(block["grad_total"][b] - grad) <= 1e-12 * grad
            for ell in (1, 2, 4):
                diffs = traj.u[1 + ell :] - traj.u[1 : N + 1 - ell]
                lagged = dt * sum(gd.l2_inner(v, v) for v in diffs)
                assert abs(block[f"translate.{ell}"][b] - lagged) <= 1e-12 * dt * sum(sq)

    @pytest.mark.parametrize(
        "mesh, kind",
        [(lambda: build_uniform_interval(16, 0.0, 1.0), "p1"), (lambda: build_uniform_triangulation(4, 4), "p1_lumped")],
        ids=["interval_p1", "square_p1_lumped"],
    )
    def test_martingale_matches_quadrature_point_sums(self, mesh, kind):
        gd = build_gd(mesh(), kind)
        sgd = SpaceTimeGD(gd, T=0.25, n_steps=12)
        noise = make_noise(gd.mesh.bounding_box, 4, f0="tanh")
        trajs = run_block(sgd, p_laplace(3.0), noise, sin_product if gd.dim == 2 else sin_pi, 31, range(5))
        acc = EnsembleAccumulator(sgd, 3.0, beta=0.3, **ENERGY_ONLY | dict(with_martingale=True))
        stepper = Stepper(sgd, p_laplace(3.0), noise)
        got = _summary_columns(acc, acc.summarize(trajs, stepper))
        ref = [reference_martingale(stepper, traj, 0.3, 2) for traj in trajs]
        for key, want in zip(("mart_h", "m_sq", "mart_sup", "pairs"), zip(*ref)):
            want = np.array(want)
            assert got[key].shape == want.shape
            assert np.all(want != 0.0)
            np.testing.assert_allclose(got[key], want, rtol=1e-12, atol=0.0, err_msg=key)

    def test_reports_identical_across_workers_over_blocks_of_three(self, monkeypatch):
        gd = build_gd(build_uniform_interval(8, 0.0, 1.0), "p1")
        sgd = SpaceTimeGD(gd, T=0.5, n_steps=8)
        noise = make_noise(gd.mesh.bounding_box, 4, f0="tanh")
        monkeypatch.setattr(analysis, "BLOCK_BYTES", 3 * row_bytes(noise, sgd))
        assert ensemble_block(p_laplace(3.0), noise, sgd) == 3
        summaries = []
        add_summary = EnsembleAccumulator.add_summary

        def recording(acc, summary):
            summaries.append((acc, summary))
            add_summary(acc, summary)

        monkeypatch.setattr(EnsembleAccumulator, "add_summary", recording)
        reports = [
            run_ensemble(sgd, p_laplace(3.0), noise, sin_pi, 43, 8, dict(self.ESTIMATORS), workers=w)
            for w in (1, 2)
        ]
        a, b = (_report_fields(rep) for rep in reports)
        assert a["n_samples"] == 8
        assert a["dual_increment_table"] and a["martingale_sq_by_step"] and a["translate_table"]
        assert a == b
        # every field is the scalar reference statistic of the serial run's summaries
        acc = summaries[0][0]
        serial = [summary for owner, summary in summaries if owner is acc]
        assert len(serial) == 3 and len(summaries) == 6
        for key, want in reference_report_fields(acc, serial).items():
            got = reports[0].extra.results() if key == "extra" else getattr(reports[0], key)
            assert got == want, key


class TestOuOracle:
    def test_zero_noise_geometric_decay(self):
        means, variances = ou_exact_moments(1.0, 4.0, 0.0, 2.0, 0.1, 5)
        a = 1.0 / (1.0 + 0.1 * 4.0)
        np.testing.assert_allclose(means, 2.0 * a ** np.arange(6))
        np.testing.assert_array_equal(variances, 0.0)

    def test_no_stiffness_random_walk(self):
        means, variances = ou_exact_moments(2.0, 0.0, 3.0, 0.0, 0.1, 10)
        np.testing.assert_array_equal(means, 0.0)
        np.testing.assert_allclose(variances[-1], 10 * 0.1 * (3.0 / 2.0) ** 2)

    def test_monte_carlo_cross_check(self, single_dof_gd):
        gd = single_dof_gd
        sgd = SpaceTimeGD(gd, T=0.5, n_steps=8)
        noise = make_noise(gd.mesh.bounding_box, 1, f0="constant")
        flux = linear_diffusion()

        def track(traj):
            return traj.u[:, 0]

        rep = run_ensemble(
            sgd, flux, noise, np.array([1.0]), 51, 20000,
            dict(p=2.0, translate_ells=(), dual_ells=(), with_dual=False,
                 with_martingale=False, extra_fn=track),
        )
        mass = gd.l2_inner(np.array([1.0]), np.array([1.0]))
        stiff = float(np.ones(1) @ (gd.stiffness @ np.ones(1)))
        load = float((gd.P.T @ (gd.quad_w * noise.basis.values(gd.quad_x)[:, 0]))[0])
        means, variances = ou_exact_moments(mass, stiff, noise.q[0] * load, 1.0, sgd.dt, 8)
        assert np.all(np.abs(rep.extra.mean - means) <= 3.0 * np.maximum(rep.extra.se, 1e-300))
        assert np.all(
            np.abs(rep.extra.variance - variances)[1:]
            <= 3.0 * rep.extra.variance_se[1:]
        )


class TestRefinementTools:
    def test_coupled_increments_sum_pairwise(self):
        noise = make_noise([[0.0], [1.0]], 3, f0="tanh")
        levels = coupled_increments(noise, 7, 2, n_fine=8, dt_fine=0.0625, n_levels=3)
        assert [len(l) for l in levels] == [2, 4, 8]
        np.testing.assert_allclose(levels[1], levels[2].reshape(4, 2, 3).sum(axis=1), atol=1e-15)
        np.testing.assert_allclose(levels[0], levels[1].reshape(2, 2, 3).sum(axis=1), atol=1e-15)

    def test_coupled_finest_level_is_the_keyed_path(self):
        noise = make_noise([[0.0], [1.0]], 3, f0="tanh")
        fine = coupled_increments(noise, 7, 2, n_fine=8, dt_fine=0.0625, n_levels=3)[-1]
        assert fine.shape == (8, 3)
        for n in range(8):
            np.testing.assert_array_equal(fine[n], sample_increment(noise, 7, 2, n + 1, 0.0625))

    def test_coupled_increments_of_a_sample_column(self):
        noise = make_noise([[0.0], [1.0]], 3, f0="tanh")
        samples = [0, 2, 5, 11]
        block = coupled_increments(noise, 7, np.array(samples)[:, None], n_fine=8, dt_fine=0.0625, n_levels=3)
        assert [lvl.shape for lvl in block] == [(4, 2, 3), (4, 4, 3), (4, 8, 3)]
        for b, s in enumerate(samples):
            alone = coupled_increments(noise, 7, s, n_fine=8, dt_fine=0.0625, n_levels=3)
            for got, want in zip(block, alone, strict=True):
                np.testing.assert_array_equal(got[b], want)

    def test_pathwise_difference_of_identical_levels_zero(self):
        gd = build_gd(build_uniform_interval(8, 0.0, 1.0), "p1")
        sgd_c = SpaceTimeGD(gd, T=0.5, n_steps=4)
        sgd_f = SpaceTimeGD(gd, T=0.5, n_steps=8)
        noise = make_noise(gd.mesh.bounding_box, 2, f0="zero")
        t_c = run_trajectory(sgd_c, linear_diffusion(), noise, sin_pi, 0, 0)
        t_same = run_trajectory(sgd_c, linear_diffusion(), noise, sin_pi, 0, 0)
        E = gd.reconstruction_matrix(gd.quad_x)  # both levels share the mesh
        # same trajectory through two evaluation paths: zero up to roundoff
        assert _lp_differences(E, sgd_c, t_c.u[None], t_same.u[None], 2.0)[0] <= 1e-14
        # different step counts give a genuine positive difference
        t_f = run_trajectory(sgd_f, linear_diffusion(), noise, sin_pi, 0, 0)
        assert _lp_differences(E, sgd_f, t_c.u[None], t_f.u[None], 2.0)[0] > 0.0

    def test_differences_hold_one_sample_at_a_time(self):
        # ensemble_block's budget counts a row's paths, not its values at the
        # fine quadrature points: the differences hold those for one sample
        import tracemalloc

        coarse = build_gd(build_uniform_triangulation(4, 4), "p1")
        fine = build_gd(refine(coarse.mesh), "p1")
        sgd_f = SpaceTimeGD(fine, T=0.25, n_steps=8)
        E = coarse.transfer_matrix(fine)
        rng = np.random.default_rng(0)
        peaks = []
        for B in (1, 8):
            U_c = rng.standard_normal((B, 5, coarse.n_dofs))
            U_f = rng.standard_normal((B, 9, fine.n_dofs))
            tracemalloc.start()
            _lp_differences(E, sgd_f, U_c, U_f, 3.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    @pytest.mark.parametrize("mesh", ["interval", "square"])
    def test_deterministic_errors_match_per_step_loop(self, mesh):
        m = build_uniform_interval(16, 0.0, 1.0) if mesh == "interval" else build_uniform_triangulation(8, 8)
        sgds = [SpaceTimeGD(build_gd(m, kind), T=0.1, n_steps=7) for kind in ("p1", "cr")]
        noise = make_noise(m.bounding_box, 1, f0="zero")

        def u0(x):
            return np.prod(np.sin(np.pi * x), axis=1)

        def exact(t, x):
            return np.exp(-np.pi**2 * t) * u0(x)

        want = []
        for sgd in sgds:
            gd = sgd.gd
            traj = run_trajectory(sgd, p_laplace(3.0), noise, u0, 0, 0)
            worst = 0.0
            for n, t in enumerate(sgd.t_grid):
                diff = gd.P @ traj.u[n] - exact(t, gd.quad_x)
                worst = max(worst, math.sqrt(float(np.sum(gd.quad_w * diff**2))))
            want.append(worst.hex())
        got = analysis.deterministic_errors(sgds, p_laplace(3.0), noise, u0, exact)
        assert [e.hex() for e in got] == want

    def test_slope_fit(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        assert abs(loglog_slope(x, 3.0 * x**1.4) - 1.4) <= 1e-12


def reference_coupled_rows(sgds, flux, noise, u0, master_seed, n_samples, p):
    """The per-sample coupled study: each level's path by ``run_trajectory``
    on the sample's coupled increments, and each pair's L^p difference by a
    loop over the fine steps; one row of differences per sample."""
    rows = []
    for s in range(n_samples):
        incs = coupled_increments(noise, master_seed, s, sgds[-1].n_steps, sgds[-1].dt, len(sgds))
        trajs = [run_trajectory(sgd, flux, noise, u0, master_seed, s, increments=inc) for sgd, inc in zip(sgds, incs)]
        row = []
        for coarse, fine in zip(trajs[:-1], trajs[1:]):
            gd_f = fine.sgd.gd
            E = coarse.sgd.gd.reconstruction_matrix(gd_f.quad_x)
            ratio = fine.sgd.n_steps // coarse.sgd.n_steps
            total = 0.0
            for j in range(fine.sgd.n_steps):
                diff = gd_f.P @ fine.u[j + 1] - E @ coarse.u[j // ratio + 1]
                total += fine.sgd.dt * float(np.sum(gd_f.quad_w * np.abs(diff) ** p))
            row.append(total ** (1.0 / p))
        rows.append(row)
    return np.array(rows)


class TestCoupledStudy:
    N_SAMPLES = 7

    @pytest.fixture
    def levels_in_blocks_of_three(self, monkeypatch):
        """Three nested P1 levels on (0, 1) and a path budget of three
        samples per block."""
        mesh = build_uniform_interval(4, 0.0, 1.0)
        sgds = []
        for lvl in range(3):
            sgds.append(SpaceTimeGD(build_gd(mesh, "p1"), 0.25, 4 * 2**lvl))
            mesh = refine(mesh)
        noise = make_noise(mesh.bounding_box, 4, f0="tanh")
        monkeypatch.setattr(analysis, "BLOCK_BYTES", 3 * row_bytes(noise, *sgds))
        assert ensemble_block(p_laplace(3.0), noise, *sgds) == 3
        return sgds, noise

    def test_block_study_matches_per_sample_reference(self, levels_in_blocks_of_three, monkeypatch):
        sgds, noise = levels_in_blocks_of_three
        built = {"steppers": 0, "transfers": 0}

        class CountingStepper(analysis.Stepper):
            def __init__(self, *args, **kwargs):
                built["steppers"] += 1
                super().__init__(*args, **kwargs)

        transfer_matrix = type(sgds[0].gd).transfer_matrix

        def counting_matrix(gd, fine):
            built["transfers"] += 1
            return transfer_matrix(gd, fine)

        reduced = []
        map_blocks = analysis.map_blocks

        def recording_map(*args):
            for tables, rows in map_blocks(*args):
                reduced.append(rows)
                yield tables, rows

        monkeypatch.setattr(analysis, "Stepper", CountingStepper)
        monkeypatch.setattr(type(sgds[0].gd), "transfer_matrix", counting_matrix)
        monkeypatch.setattr(analysis, "map_blocks", recording_map)
        _, stats = run_levels(sgds, p_laplace(3.0), noise, sin_pi, 9, self.N_SAMPLES, ENERGY_ONLY)
        # three blocks, one stepper per level and one matrix per pair
        assert built == {"steppers": 3, "transfers": 2}
        # the rows it reduced, by the scalar reference, bit for bit
        assert len(reduced) == 3
        assert stats == [ref.result() for ref in merged(reduced)]
        rows = reference_coupled_rows(sgds, p_laplace(3.0), noise, sin_pi, 9, self.N_SAMPLES, 3.0)
        assert rows.shape == (self.N_SAMPLES, 2) and np.all(rows > 0.0)
        for stat, ref in zip(stats, merged([rows]), strict=True):
            ref = ref.result()
            assert stat.n == ref.n == self.N_SAMPLES
            assert abs(stat.mean - ref.mean) <= 1e-13 * ref.mean
            assert abs(stat.se - ref.se) <= 1e-13 * ref.se

    def test_identical_across_workers_over_blocks_of_three(self, levels_in_blocks_of_three):
        sgds, noise = levels_in_blocks_of_three
        (reports_a, a), (reports_b, b) = (
            run_levels(sgds, p_laplace(3.0), noise, sin_pi, 9, self.N_SAMPLES, ENERGY_ONLY, workers=w)
            for w in (1, 2)
        )
        assert a == b
        assert [st.n for st in a] == [self.N_SAMPLES] * 2
        assert [_report_fields(rep) for rep in reports_a] == [_report_fields(rep) for rep in reports_b]
        assert [rep.n_samples for rep in reports_a] == [self.N_SAMPLES] * 3
