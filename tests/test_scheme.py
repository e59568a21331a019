"""Implicit Euler steps, full trajectories and their pathwise identities."""

import json
import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from sgdm import build_gd, build_uniform_interval, build_uniform_triangulation
import sgdm.scheme
from sgdm.flux import (
    custom_flux,
    eval_flux,
    eval_flux_jacobian,
    linear_diffusion,
    p_laplace,
    regularized_p_laplace,
)
import sgdm.analysis
from sgdm.analysis import DualNormSolver, EnsembleAccumulator, map_blocks, run_ensemble
from sgdm.noise import make_noise, sample_increment
from sgdm.scheme import (
    SolverConfig,
    SpaceTimeGD,
    StepFailure,
    Stepper,
    energy_identity_residual,
    run_trajectory,
    save_trajectory,
)

from conftest import count_calls, sin_pi, zero_field


@pytest.fixture(scope="module")
def setup16():
    gd = build_gd(build_uniform_interval(16, 0.0, 1.0), "p1")
    sgd = SpaceTimeGD(gd, T=0.5, n_steps=16)
    noise = make_noise(gd.mesh.bounding_box, 8, f0="tanh")
    return sgd, noise


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_newton": -1},
        {"max_newton": 2.5},
        {"newton_tol": 0.0},
        {"newton_tol": float("nan")},
        {"newton_tol": float("inf")},
        {"newton_tol": True},
    ],
    ids=["max_newton-negative", "max_newton-float", "newton_tol-zero", "newton_tol-nan", "newton_tol-inf",
         "newton_tol-bool"],
)
def test_solver_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        SolverConfig(**kwargs)


@pytest.mark.parametrize(
    "name, value",
    [
        ("T", float("nan")),
        ("T", float("inf")),
        ("T", 0.0),
        ("n_steps", 2.5),
        ("n_steps", 4.0),
        ("n_steps", 0),
        ("n_steps", True),
    ],
)
def test_time_grid_rejects_bad_values(single_dof_gd, name, value):
    kwargs = {"T": 1.0, "n_steps": 4, name: value}
    with pytest.raises(ValueError, match=name):
        SpaceTimeGD(single_dof_gd, **kwargs)


def test_newton_step_reaches_the_traced_names(monkeypatch, setup16):
    # the benchmark's per-layer spans wrap these three names; a step that
    # stops calling one of them would read 0 there
    sgd, noise = setup16
    stepper = Stepper(sgd, p_laplace(3.0), noise)
    names = ((sgdm.scheme, "eval_flux"), (sgdm.scheme, "eval_flux_jacobian"), (Stepper, "_solve"))
    calls = count_calls(monkeypatch, names)
    u = sgd.gd.interpolate(sin_pi)
    stepper.step(u[None], 0.1 * np.ones((1, noise.k_max)))
    assert set(calls) == {"eval_flux", "eval_flux_jacobian", "_solve"}
    assert min(calls.values()) > 0


def test_ensemble_driver_reaches_the_traced_names(monkeypatch, setup16):
    # the names the benchmark's ensemble workloads trace, as the library
    # looks them up; a driver that bypasses one would read 0 there
    sgd, noise = setup16
    names = (
        (sgdm.scheme, "sample_increment"),
        (Stepper, "step"),
        (Stepper, "__init__"),
        (EnsembleAccumulator, "summarize"),
        (EnsembleAccumulator, "add_summary"),
        (DualNormSolver, "batch"),
        (sgdm.analysis, "fractional_norm"),
    )
    calls = count_calls(monkeypatch, names)
    run_ensemble(sgd, p_laplace(3.0), noise, sin_pi, 5, 3, dict(translate_ells=(1, 2), dual_ells=(1, 2)))
    assert min(calls.values()) > 0, calls


class TestSolveStep:
    def test_single_dof_hand_formula(self, single_dof_gd):
        sgd = SpaceTimeGD(single_dof_gd, T=0.1, n_steps=10)
        noise = make_noise(single_dof_gd.mesh.bounding_box, 1, f0="zero")
        u0 = np.array([0.7])
        (u1,), (res,), _ = Stepper(sgd, linear_diffusion(), noise).step(u0[None], np.zeros((1, 1)))
        m, k = 1.0 / 3.0, 4.0  # hand integration of the hat on two cells
        assert abs(u1[0] - 0.7 * m / (m + sgd.dt * k)) <= 1e-12
        assert res <= 1e-12

    def test_zero_state_zero_increment_fixed_point(self, setup16):
        sgd, noise = setup16
        U0 = np.zeros((1, sgd.gd.n_dofs))
        (u1,), _, _ = Stepper(sgd, p_laplace(3.0), noise).step(U0, np.zeros((1, noise.k_max)))
        np.testing.assert_allclose(u1, 0.0, atol=1e-14)

    def test_p3_residual_and_energy_identity(self, setup16):
        sgd, noise = setup16
        gd = sgd.gd
        rng = np.random.default_rng(8)
        u_n = rng.standard_normal(gd.n_dofs)
        flux = p_laplace(3.0)
        stepper = Stepper(sgd, flux, noise)
        (u1,), (res,), _ = stepper.step(u_n[None], np.zeros((1, noise.k_max)))
        assert res <= 1e-10
        # identity from testing the step equation with u^{n+1}
        lhs = (
            0.5 * gd.l2_inner(u1, u1)
            + 0.5 * gd.l2_inner(u1 - u_n, u1 - u_n)
            + sgd.dt * float(stepper._flux_vector(u1[None])[0] @ u1)
        )
        rhs = 0.5 * gd.l2_inner(u_n, u_n)
        assert abs(lhs - rhs) <= 1e-9

    def test_linear_superposition(self, setup16):
        sgd, noise = setup16
        flux = linear_diffusion()
        rng = np.random.default_rng(9)
        u_a, u_b = rng.standard_normal((2, sgd.gd.n_dofs))
        c_a = sample_increment(noise, 1, 0, 1, sgd.dt)
        c_b = sample_increment(noise, 1, 1, 1, sgd.dt)
        # noise multiplier must be state-independent for superposition
        noise_add = make_noise(sgd.gd.mesh.bounding_box, noise.k_max, f0="constant")
        stepper = Stepper(sgd, flux, noise_add)
        out_a, out_b, both = (
            stepper.step(u[None], c[None])[0][0] for u, c in ((u_a, c_a), (u_b, c_b), (u_a + u_b, c_a + c_b))
        )
        np.testing.assert_allclose(both, out_a + out_b, atol=1e-12)

    def test_nonconvergence_carries_best_iterate(self, setup16):
        sgd, noise = setup16
        # a rough start on a strongly nonlinear flux cannot reach 1e-10 in one
        # Newton iteration
        cfg = SolverConfig(max_newton=1)
        rng = np.random.default_rng(10)
        with pytest.raises(StepFailure) as exc:
            Stepper(sgd, p_laplace(6.0), noise, cfg).step(
                50.0 * rng.standard_normal((1, sgd.gd.n_dofs)), np.zeros((1, noise.k_max))
            )
        assert exc.value.best_iterate.shape == (sgd.gd.n_dofs,)
        assert exc.value.residual_norm > 0

    def test_trajectory_abort_reports_step(self, setup16):
        sgd, noise = setup16
        cfg = SolverConfig(max_newton=1)
        big = lambda x: 50.0 * np.sin(np.pi * np.atleast_2d(x)[:, 0])
        with pytest.raises(StepFailure) as exc:
            run_trajectory(sgd, p_laplace(6.0), noise, big, 1, 0, cfg)
        assert exc.value.step_index == 0


class TestTrajectory:
    def test_single_step_equals_stepper_step(self, setup16):
        sgd_1 = SpaceTimeGD(setup16[0].gd, T=0.5 / 16, n_steps=1)
        noise = setup16[1]
        flux = p_laplace(3.0)
        traj = run_trajectory(sgd_1, flux, noise, sin_pi, master_seed=3, sample_index=5)
        inc = sample_increment(noise, 3, 5, 1, sgd_1.dt)
        (u1,), _, _ = Stepper(sgd_1, flux, noise).step(traj.u[:1], inc[None])
        np.testing.assert_array_equal(traj.u[1], u1)

    def test_paths_hold_the_stepper_that_ran_them(self, setup16):
        sgd, noise = setup16
        stepper = Stepper(sgd, p_laplace(3.0), noise)
        trajs = stepper.run(sin_pi, 21, [4, 5, 6])
        assert [traj.sample_index for traj in trajs] == [4, 5, 6]
        assert all(traj.stepper is stepper for traj in trajs)
        assert run_trajectory(sgd, p_laplace(3.0), noise, sin_pi, 21, 4).stepper.sgd is sgd

    def test_misshaped_increments_are_rejected(self, setup16):
        # a transposed (k_max, N) array must not drive a path
        sgd, noise = setup16
        incs = np.array([sample_increment(noise, 13, 0, n + 1, sgd.dt) for n in range(sgd.n_steps)])
        assert incs.shape == (16, 8)
        with pytest.raises(ValueError, match=r"shape \(1, 8, 16\), expected \(1, 16, 8\)"):
            run_trajectory(sgd, p_laplace(3.0), noise, sin_pi, 13, 0, increments=incs.T)
        with pytest.raises(ValueError, match=r"shape \(2, 16, 8\), expected \(3, 16, 8\)"):
            Stepper(sgd, p_laplace(3.0), noise).run(sin_pi, 13, [0, 1, 2], np.stack([incs, incs]))

    def test_regularized_p2_is_the_linear_scheme(self, setup16):
        # (1 + |y|)^0 y = y: the same linear solve as linear_diffusion, bit for bit
        sgd, noise = setup16
        assert regularized_p_laplace(2.0).is_linear and not regularized_p_laplace(3.0).is_linear
        a = run_trajectory(sgd, regularized_p_laplace(2.0), noise, sin_pi, 9, 3)
        b = run_trajectory(sgd, linear_diffusion(), noise, sin_pi, 9, 3)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.per_step_newton_iters, b.per_step_newton_iters)

    def test_deterministic_in_seed(self, setup16):
        sgd, noise = setup16
        a = run_trajectory(sgd, p_laplace(3.0), noise, sin_pi, 21, 4)
        b = run_trajectory(sgd, p_laplace(3.0), noise, sin_pi, 21, 4)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.increments, b.increments)

    def test_initial_value_is_interpolant(self, setup16):
        sgd, noise = setup16
        traj = run_trajectory(sgd, linear_diffusion(), noise, sin_pi, 0, 0)
        np.testing.assert_array_equal(traj.u[0], sgd.gd.interpolate(sin_pi))

    def test_residuals_below_tolerance(self, setup16):
        sgd, noise = setup16
        traj = run_trajectory(sgd, p_laplace(3.0), noise, sin_pi, 2, 7)
        assert np.all(traj.per_step_residuals <= 1e-10)

    def test_zero_noise_matches_deterministic(self, setup16):
        sgd, _ = setup16
        silent = make_noise(sgd.gd.mesh.bounding_box, 8, f0="zero")
        loud_off = make_noise(sgd.gd.mesh.bounding_box, 8, q=np.zeros(8), f0="tanh")
        a = run_trajectory(sgd, p_laplace(3.0), silent, sin_pi, 5, 0)
        b = run_trajectory(sgd, p_laplace(3.0), loud_off, sin_pi, 5, 0)
        np.testing.assert_array_equal(a.u, b.u)

    def test_adaptedness_prefix_invariance(self, setup16):
        sgd, noise = setup16
        flux = p_laplace(3.0)
        incs = np.array(
            [sample_increment(noise, 13, 0, n + 1, sgd.dt) for n in range(sgd.n_steps)]
        )
        base = run_trajectory(sgd, flux, noise, sin_pi, 13, 0, increments=incs)
        tampered = incs.copy()
        tampered[10:] *= -3.0
        other = run_trajectory(sgd, flux, noise, sin_pi, 13, 0, increments=tampered)
        np.testing.assert_array_equal(base.u[: 10 + 1], other.u[: 10 + 1])
        assert not np.array_equal(base.u[11], other.u[11])

    def test_martingale_partial_sums_start_at_first_increment(self, setup16):
        sgd, noise = setup16
        traj = run_trajectory(sgd, p_laplace(3.0), noise, sin_pi, 17, 2)
        gd = sgd.gd
        inc = sample_increment(noise, 17, 2, 1, sgd.dt)
        z0 = noise.f0(gd.reconstruct(traj.u[0])) * (noise.basis.values(gd.quad_x) @ inc)
        z = Stepper(sgd, p_laplace(3.0), noise).noise_values(traj.u[:-1], traj.increments)
        np.testing.assert_allclose(z[0], z0, atol=1e-14)

    def test_energy_identity_residual_small(self, setup16):
        sgd, noise = setup16
        traj = run_trajectory(sgd, p_laplace(3.0), noise, sin_pi, 23, 1)
        bound = 10.0 * 1e-10 * (1.0 + max(np.linalg.norm(traj.u[n]) for n in range(sgd.n_steps + 1)))
        assert energy_identity_residual(traj) <= bound

    def test_energy_identity_builds_no_stepper(self, monkeypatch, setup16):
        # the identity reads the flux and noise of the stepper that ran the path
        sgd, noise = setup16
        traj = run_trajectory(sgd, p_laplace(3.0), noise, sin_pi, 23, 1)
        calls = count_calls(monkeypatch, ((Stepper, "__init__"),))
        assert energy_identity_residual(traj) <= 1e-8
        assert calls == {"__init__": 0}

    @pytest.mark.parametrize("mesh", ["interval", "square"])
    def test_energy_identity_residual_matches_per_step_loop(self, mesh):
        # the array form reads every step at once; each step still sums as
        # gd.l2_inner and a vector dot product do for it alone
        m = build_uniform_interval(16, 0.0, 1.0) if mesh == "interval" else build_uniform_triangulation(12, 12)
        gd = build_gd(m, "p1")
        sgd = SpaceTimeGD(gd, T=0.25, n_steps=9)
        noise = make_noise(m.bounding_box, 4, f0="tanh")
        traj = run_trajectory(sgd, p_laplace(3.0), noise, lambda x: np.prod(np.sin(np.pi * x), axis=1), 23, 1)
        stepper = traj.stepper
        flux_terms = stepper._flux_vector(traj.u[1:])
        worst = 0.0
        for n, z in enumerate(stepper.noise_values(traj.u[:-1], traj.increments)):
            u_new, u_old = traj.u[n + 1], traj.u[n]
            lhs = (
                0.5 * gd.l2_inner(u_new, u_new)
                + 0.5 * gd.l2_inner(u_new - u_old, u_new - u_old)
                + sgd.dt * float(flux_terms[n] @ u_new)
            )
            rhs = 0.5 * gd.l2_inner(u_old, u_old) + float((gd.P.T @ (gd.quad_w * z)) @ u_new)
            worst = max(worst, abs(lhs - rhs))
        assert energy_identity_residual(traj).hex() == worst.hex()

    def test_energy_identity_zero_path(self, setup16):
        sgd, _ = setup16
        silent = make_noise(sgd.gd.mesh.bounding_box, 2, f0="zero")
        traj = run_trajectory(sgd, p_laplace(3.0), silent, zero_field, 1, 1)
        assert energy_identity_residual(traj) <= 1e-14

    def test_energy_identity_grows_with_loose_tolerance(self, setup16):
        sgd, noise = setup16
        flux = p_laplace(3.0)
        tight = run_trajectory(sgd, flux, noise, sin_pi, 29, 0, SolverConfig(newton_tol=1e-12))
        loose = run_trajectory(sgd, flux, noise, sin_pi, 29, 0, SolverConfig(newton_tol=1e-3))
        assert energy_identity_residual(loose) > energy_identity_residual(tight)

    def test_pathwise_energy_inequality(self, setup16):
        # the summed estimate with the coercivity constant c1 = 1 of the flux
        sgd, noise = setup16
        gd = sgd.gd
        flux = p_laplace(3.0)
        for s in range(5):
            traj = run_trajectory(sgd, flux, noise, sin_pi, 31, s)
            VV = (gd.P @ traj.u.T).T
            norms_sq = np.sum(gd.quad_w * VV**2, axis=1)
            incs_sq = np.sum(gd.quad_w * np.diff(VV, axis=0) ** 2, axis=1)
            grads = np.array([gd.grad_lp_norm(traj.u[n + 1], 3.0) ** 3 for n in range(sgd.n_steps)])
            # noise terms recomputed from the stored states and increments
            used = traj.increments
            Z = Stepper(sgd, flux, noise).noise_values(traj.u[:-1], used)
            fnorm_sq = np.array(
                [noise.F1 * norms_sq[n] + noise.F2 for n in range(sgd.n_steps)]
            )
            dw_sq = np.sum(used**2, axis=1)
            pair = np.sum(gd.quad_w * Z * VV[:-1], axis=1)
            for k in range(sgd.n_steps):
                lhs = (
                    0.5 * norms_sq[k + 1]
                    + 0.25 * np.sum(incs_sq[: k + 1])
                    + flux.c1 * sgd.dt * np.sum(grads[: k + 1])
                )
                rhs = 0.5 * norms_sq[0] + np.sum(fnorm_sq[: k + 1] * dw_sq[: k + 1]) + np.sum(pair[: k + 1])
                assert lhs <= rhs + 1e-8

    def test_dump_roundtrip(self, setup16, tmp_path):
        sgd, noise = setup16
        traj = run_trajectory(sgd, linear_diffusion(), noise, sin_pi, 37, 0)
        csv = tmp_path / "traj.csv"
        sidecar = tmp_path / "traj.json"
        save_trajectory(traj, csv, sidecar, config_hash="abc")
        lines = csv.read_text().splitlines()
        assert lines[0] == "step,dof_index,value"
        assert len(lines) == 1 + (sgd.n_steps + 1) * sgd.gd.n_dofs
        meta = json.loads(sidecar.read_text())
        assert meta["master_seed"] == 37
        assert meta["config_hash"] == "abc"
        step, dof, value = lines[1 + sgd.gd.n_dofs].split(",")
        assert (int(step), int(dof)) == (1, 0)
        assert float(value) == traj.u[1, 0]


@pytest.mark.parametrize("flux", [p_laplace(3.0), linear_diffusion()], ids=["p3", "linear"])
@pytest.mark.parametrize("kind", ["p1", "cr"])
def test_space_without_dofs_runs(kind, flux):
    # one cell: both basis functions are eliminated by the Dirichlet condition
    gd = build_gd(build_uniform_interval(1, 0.0, 1.0), kind)
    sgd = SpaceTimeGD(gd, T=0.1, n_steps=3)
    noise = make_noise(gd.mesh.bounding_box, 2, f0="tanh")
    traj = run_trajectory(sgd, flux, noise, sin_pi, master_seed=5, sample_index=0)
    assert traj.u.shape == (sgd.n_steps + 1, 0)


def _reference_jacobian(stepper, u):
    """The Newton Jacobian as a sparse product, M + dt G^T B G with B the
    block-diagonal matrix of quadrature-summed flux Jacobians."""
    gd = stepper.gd
    g = (gd.G @ u).reshape(gd.mesh.n_cells, gd.dim)
    J_q = eval_flux_jacobian(stepper.flux, gd.P @ u, g[gd.quad_cell])
    blocks = np.zeros((gd.mesh.n_cells, gd.dim, gd.dim))
    np.add.at(blocks, gd.quad_cell, gd.quad_w[:, None, None] * J_q)
    B = sp.bsr_matrix(
        (blocks, np.arange(gd.mesh.n_cells), np.arange(gd.mesh.n_cells + 1)),
        shape=(gd.mesh.n_cells * gd.dim,) * 2,
    )
    return (gd.mass + stepper.dt * (gd.G.T @ B @ gd.G)).toarray()


def _step(stepper, u, inc):
    """One step of the single state u, as a block of one."""
    U, res, iters = stepper.step(u[None], inc[None])
    return U[0], res[0], iters[0]


def _array(A):
    return A.toarray() if sp.issparse(A) else np.asarray(A)


def _slot_matrix(stepper, values):
    return stepper.gd.form_matrix(values).toarray()


MESHES = {
    "1d": lambda: build_uniform_interval(12, 0.0, 1.0),
    "2d": lambda: build_uniform_triangulation(4, 3),
}
# the constant operators: a limit no space reaches stores them all CSR; a
# huge one, dense
STORAGES = {"dense": 10**9, "sparse": -1}


@pytest.fixture(
    scope="module",
    params=[(m, k) for m in MESHES for k in ("p1", "p1_lumped", "cr")],
    ids=lambda mk: f"{mk[0]}-{mk[1]}",
)
def assembly_case(request):
    mesh_name, kind = request.param
    gd = build_gd(MESHES[mesh_name](), kind)
    sgd = SpaceTimeGD(gd, T=0.004, n_steps=4)
    noise = make_noise(gd.mesh.bounding_box, 4, f0="tanh")
    rng = np.random.default_rng(41)
    u = 0.5 * rng.standard_normal(gd.n_dofs)
    inc = 0.3 * rng.standard_normal(4)
    return sgd, noise, u, inc


def _nonsymmetric_flux():
    """a(y) = (I + S) y with S skew-symmetric: in 2D its Jacobian is not
    symmetric, so an assembly that transposes a block shows."""

    def matrix(d):
        return np.eye(d) + np.triu(np.ones((d, d)), 1) - np.tril(np.ones((d, d)), -1)

    return custom_flux(
        2.0,
        lambda x, y: y @ matrix(y.shape[1]).T,
        lambda x, y: np.broadcast_to(matrix(y.shape[1]), (len(y),) + (y.shape[1],) * 2),
    )


JACOBIAN_FLUXES = {"p3": lambda: p_laplace(3.0), "nonsymmetric": _nonsymmetric_flux}


def _stepper(monkeypatch, case, storage, flux, cfg=None):
    sgd, noise, _, _ = case
    monkeypatch.setattr(Stepper, "_DENSE_LIMIT", STORAGES[storage])
    stepper = Stepper(sgd, flux, noise, cfg)
    assert sp.issparse(stepper._M) == (storage == "sparse")
    return stepper


@pytest.mark.parametrize("storage", list(STORAGES))
class TestAssembly:
    @pytest.mark.parametrize("flux", list(JACOBIAN_FLUXES))
    def test_jacobian_matches_sparse_product(self, monkeypatch, assembly_case, storage, flux):
        stepper = _stepper(monkeypatch, assembly_case, storage, JACOBIAN_FLUXES[flux]())
        u = assembly_case[2]
        J = _slot_matrix(stepper, stepper._jacobian(u[None])[0])
        ref = _reference_jacobian(stepper, u)
        assert np.abs(J - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("flux", list(JACOBIAN_FLUXES))
    def test_jacobian_matches_residual_difference(self, monkeypatch, assembly_case, storage, flux):
        stepper = _stepper(monkeypatch, assembly_case, storage, JACOBIAN_FLUXES[flux]())
        u = assembly_case[2]
        n, h = len(u), 1e-5
        b = np.zeros((n, n))
        U, E = np.broadcast_to(u, (n, n)), h * np.eye(n)
        # row e of the block is the residual difference along e
        fd = ((stepper.residual(U + E, U, b) - stepper.residual(U - E, U, b)) / (2 * h)).T
        J = _slot_matrix(stepper, stepper._jacobian(u[None])[0])
        assert np.abs(J - fd).max() <= 1e-6 * np.abs(J).max()

    def test_isotropic_blocks_match_weighted_stiffness(self, monkeypatch, assembly_case, storage):
        # blocks meas * w * I with the p=3 weights w = |grad u|^(p-2) per cell
        stepper = _stepper(monkeypatch, assembly_case, storage, p_laplace(3.0))
        gd, u = stepper.gd, assembly_case[2]
        w = gd.mesh.cell_measures * np.linalg.norm((gd.G @ u).reshape(-1, gd.dim), axis=1) ** (3.0 - 2.0)
        ref = (gd.mass + stepper.dt * gd.G.T @ sp.diags(np.repeat(w, gd.dim)) @ gd.G).toarray()
        A = _slot_matrix(stepper, stepper._system(w[:, None, None] * np.eye(gd.dim)))
        assert np.abs(A - ref).max() <= 1e-13 * np.abs(ref).max()
        # the linear operator: w = 1
        linear = _stepper(monkeypatch, assembly_case, storage, linear_diffusion())
        ref = (gd.mass + linear.dt * gd.stiffness).toarray()
        assert np.abs(_array(linear._A_lin) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_dense_and_sparse_storage_same_step(monkeypatch, assembly_case):
    _, _, u, inc = assembly_case
    out = {}
    for storage in STORAGES:
        for flux in (p_laplace(3.0), linear_diffusion()):
            stepper = _stepper(monkeypatch, assembly_case, storage, flux)
            out[storage, flux.kind] = _step(stepper, u, inc)[0]
    for kind in (p_laplace(3.0).kind, linear_diffusion().kind):
        dense, sparse = out["dense", kind], out["sparse", kind]
        assert np.abs(dense - sparse).max() <= 1e-12 * np.abs(dense).max()


def _value_dependent_flux():
    """a(x, y) = (1 + x^2) y: it reads the value, which varies inside a cell."""
    return custom_flux(
        2.0,
        lambda x, y: (1.0 + x**2)[:, None] * y,
        lambda x, y: (1.0 + x**2)[:, None, None] * np.eye(y.shape[1]),
    )


class TestFluxRule:
    @pytest.mark.parametrize(
        "flux",
        [p_laplace(3.0), regularized_p_laplace(3.0), linear_diffusion()],
        ids=["p3", "regularized_p3", "linear"],
    )
    def test_gradient_only_flux_evaluated_once_per_cell(self, monkeypatch, assembly_case, flux):
        sgd, noise, u, _ = assembly_case
        stepper = Stepper(sgd, flux, noise)
        rows = []
        for name in ("eval_flux", "eval_flux_jacobian"):
            original = getattr(sgdm.scheme, name)

            def record(model, x, y, original=original):
                rows.append((x, len(y)))
                return original(model, x, y)

            monkeypatch.setattr(sgdm.scheme, name, record)
        stepper._flux_vector(u[None])
        stepper._jacobian(u[None])
        n_cells = sgd.gd.mesh.n_cells
        # one point per cell, and no value argument: a built-in flux reads none
        assert rows == [(None, n_cells)] * 2

    @pytest.mark.parametrize(
        "flux",
        [p_laplace(3.0), regularized_p_laplace(3.0), _value_dependent_flux()],
        ids=["p3", "regularized_p3", "custom"],
    )
    def test_builtin_step_receives_no_value_array(self, monkeypatch, assembly_case, flux):
        # a whole Newton step, line search included: a built-in flux never
        # gets a value array, a custom flux gets Pi u at every quadrature point
        sgd, noise, u, inc = assembly_case
        gd = sgd.gd
        stepper = Stepper(sgd, flux, noise)
        U = np.stack([u, 0.5 * u])
        values = []
        for name in ("eval_flux", "eval_flux_jacobian"):
            original = getattr(sgdm.scheme, name)

            def record(model, x, y, original=original):
                values.append(x)
                return original(model, x, y)

            monkeypatch.setattr(sgdm.scheme, name, record)
        stepper.step(U, np.tile(inc, (2, 1)))
        assert len(values) >= 3  # residual, Jacobian, line search
        if flux.depends_on_value:
            assert all(isinstance(x, np.ndarray) for x in values)
            want = (gd.P @ U.T).T.ravel()  # the first residual is at U itself
            np.testing.assert_allclose(values[0], want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
        else:
            assert all(x is None for x in values)

    def test_value_dependent_flux_sees_every_quadrature_point(self, assembly_case):
        sgd, noise, u, _ = assembly_case
        gd = sgd.gd
        flux = _value_dependent_flux()
        stepper = Stepper(sgd, flux, noise)
        g = (gd.G @ u).reshape(gd.mesh.n_cells, gd.dim)
        integrals = np.zeros_like(g)
        a_q = eval_flux(flux, gd.P @ u, g[gd.quad_cell])
        np.add.at(integrals, gd.quad_cell, gd.quad_w[:, None] * a_q)
        ref = gd.G.T @ integrals.ravel()
        got = stepper._flux_vector(u[None])[0]
        scale = np.abs(ref).max()
        assert np.abs(got - ref).max() <= 1e-13 * scale
        # one point per cell at the cell mean of Pi u misses the variation
        meas = gd.mesh.cell_measures
        mean = np.bincount(gd.quad_cell, weights=gd.quad_w * (gd.P @ u)) / meas
        one_point = gd.G.T @ (meas[:, None] * eval_flux(flux, mean, g)).ravel()
        assert np.abs(one_point - ref).max() > 1e-6 * scale
        J = _slot_matrix(stepper, stepper._jacobian(u[None])[0])
        J_ref = _reference_jacobian(stepper, u)
        assert np.abs(J - J_ref).max() <= 1e-13 * np.abs(J_ref).max()


def _cell_mean_rule_reference(stepper, U):
    """The flux vectors and Newton slot values of the rows of U by the
    earlier flux rule of a gradient-only flux: the value argument from a
    cell-mean operator and the per-cell sum by a diagonal matrix of cell
    measures, both stored as the stepper stores its operators."""
    gd, d, B = stepper.gd, stepper.gd.dim, len(U)
    n_cells, meas = gd.mesh.n_cells, gd.mesh.cell_measures
    store = sp.csr_matrix if sp.issparse(stepper._M) else (lambda A: A.toarray())
    cell_sum = sp.csr_matrix(
        (gd.quad_w, (gd.quad_cell, np.arange(len(gd.quad_w)))), shape=(n_cells, len(gd.quad_w))
    )
    rule_P = store(sp.diags(1.0 / meas) @ cell_sum @ gd.P)
    rule_sum = store(sp.diags(meas, format="csr"))

    def cell_sums(X):
        sums = rule_sum @ X.swapaxes(0, 1).reshape(n_cells, -1)
        return sums.reshape((-1, B) + X.shape[2:]).swapaxes(0, 1)

    x = (rule_P @ U.T).T.ravel()
    y = stepper._gradients(U)[:, np.arange(n_cells)].reshape(-1, d)
    a = cell_sums(eval_flux(stepper.flux, x, y).reshape(B, -1, d))
    J = cell_sums(eval_flux_jacobian(stepper.flux, x, y).reshape(B, -1, d, d))
    return (stepper._GT @ a.reshape(B, -1).T).T, stepper._system(J)


@pytest.mark.parametrize("storage", list(STORAGES))
@pytest.mark.parametrize("flux", [p_laplace(3.0), regularized_p_laplace(3.0)], ids=["p3", "regularized_p3"])
def test_flux_rule_bitwise_equal_to_cell_mean_reference(monkeypatch, assembly_case, storage, flux):
    stepper = _stepper(monkeypatch, assembly_case, storage, flux)
    U = np.array([0.0, 0.3, 1.0, 4.0])[:, None] * assembly_case[2]
    ref_vector, ref_jacobian = _cell_mean_rule_reference(stepper, U)
    assert stepper._flux_vector(U).tobytes() == ref_vector.tobytes()
    assert stepper._jacobian(U).tobytes() == ref_jacobian.tobytes()


def test_newton_converges_for_value_dependent_flux():
    # Newton's matrix leaves out the value derivative of the flux, so it
    # converges only linearly here, but within the default max_newton
    gd = build_gd(build_uniform_interval(12, 0.0, 1.0), "p1")
    sgd = SpaceTimeGD(gd, T=0.004, n_steps=4)
    noise = make_noise(gd.mesh.bounding_box, 4, f0="tanh")
    rng = np.random.default_rng(41)
    u = 1.5 * rng.standard_normal(gd.n_dofs)
    inc = 0.3 * rng.standard_normal(4)
    flux = _value_dependent_flux()
    _, res, iters = _step(Stepper(sgd, flux, noise), u, inc)
    assert res <= 1e-10 and 1 <= iters <= SolverConfig().max_newton


def _sine_product(x):
    return np.prod(np.sin(np.pi * x), axis=1)


BLOCK_FLUXES = {"p3": lambda: p_laplace(3.0), "linear": linear_diffusion, "value_dependent": _value_dependent_flux}


def _assert_rows_match_alone(U, res, iters, singles):
    """Block rows against (u, residual, iterations) of each row stepped alone."""
    for b, (u, r, it) in enumerate(singles):
        assert np.abs(U[b] - u).max() <= 1e-12 * max(np.abs(u).max(), 1e-300)
        assert iters[b] == it
        assert res[b] <= 1e-10 and r <= 1e-10


class TestBlocks:
    @pytest.mark.parametrize("flux", list(BLOCK_FLUXES))
    @pytest.mark.parametrize("kind", ["p1", "p1_lumped", "cr"])
    @pytest.mark.parametrize("mesh", list(MESHES))
    def test_block_paths_match_single_samples(self, mesh, kind, flux):
        gd = build_gd(MESHES[mesh](), kind)
        sgd = SpaceTimeGD(gd, T=0.05, n_steps=5)
        noise = make_noise(gd.mesh.bounding_box, 4, f0="tanh")
        model = BLOCK_FLUXES[flux]()
        samples = [3, 4, 5, 6, 7]
        block = Stepper(sgd, model, noise).run(_sine_product, 19, samples)
        for traj, s in zip(block, samples):
            alone = run_trajectory(sgd, model, noise, _sine_product, 19, s)
            assert traj.sample_index == s
            np.testing.assert_array_equal(traj.increments, alone.increments)
            assert np.abs(traj.u - alone.u).max() <= 1e-12 * np.abs(alone.u).max()
            np.testing.assert_array_equal(traj.per_step_newton_iters, alone.per_step_newton_iters)

    def test_rows_stop_at_their_own_iteration_counts(self, assembly_case):
        sgd, noise, u, inc = assembly_case
        stepper = Stepper(sgd, p_laplace(3.0), noise)
        U = np.array([0.0, 0.01, 0.3, 1.0, 4.0])[:, None] * u
        C = np.array([0.0, 0.5, 1.0, 1.0, 2.0])[:, None] * inc
        U1, res, iters = stepper.step(U, C)
        singles = [_step(stepper, U[b], C[b]) for b in range(len(U))]
        _assert_rows_match_alone(U1, res, iters, singles)
        assert iters[0] == 0 and len(set(iters.tolist())) >= 3
        z = stepper.noise_values(U[2:3], C[2:3])[0]
        assert np.abs(stepper.noise_values(U, C)[2] - z).max() <= 1e-14 * np.abs(z).max()

    def test_unconverged_rows_raise_for_the_first(self, assembly_case):
        # one Newton iteration leaves every row but the zero one short of the
        # tolerance; the block raises for the first, with its own iterate
        sgd, noise, u, inc = assembly_case
        stepper = Stepper(sgd, p_laplace(3.0), noise, SolverConfig(max_newton=1))
        U = np.array([0.0, 0.1, 0.5, 1.0, 2.0])[:, None] * u
        C = np.array([0.0, 1.0, 1.0, 1.0, 1.0])[:, None] * inc
        assert _step(stepper, U[0], C[0])[2] == 0
        alone = []
        for b in range(1, len(U)):
            with pytest.raises(StepFailure) as exc:
                _step(stepper, U[b], C[b])
            alone.append(exc.value)
        with pytest.raises(StepFailure) as exc:
            stepper.step(U, C)
        assert exc.value.block_row == 1
        first = alone[0]
        assert exc.value.residual_norm == pytest.approx(first.residual_norm, rel=1e-9)
        assert exc.value.residual_norm > stepper.cfg.newton_tol
        scale = np.abs(first.best_iterate).max()
        assert np.abs(exc.value.best_iterate - first.best_iterate).max() <= 1e-12 * scale

    def test_block_failure_names_its_sample(self, setup16):
        sgd, _ = setup16
        noise = make_noise(sgd.gd.mesh.bounding_box, 4, f0="constant")
        cfg = SolverConfig(max_newton=1)
        # rows 0 and 1 stay at zero; row 2 is driven hard at step 1
        increments = np.zeros((3, sgd.n_steps, 4))
        increments[2, 1] = 5.0
        with pytest.raises(StepFailure) as exc:
            Stepper(sgd, p_laplace(3.0), noise, cfg).run(zero_field, 1, [7, 8, 9], increments)
        assert (exc.value.sample_index, exc.value.step_index) == (9, 1)
        assert "sample 9" in str(exc.value) and "step 1" in str(exc.value)
        assert exc.value.best_iterate.shape == (sgd.gd.n_dofs,)

    def test_failure_survives_pickling(self, setup16):
        # a pool worker's failure reaches the parent process pickled
        sgd, _ = setup16
        noise = make_noise(sgd.gd.mesh.bounding_box, 4, f0="constant")
        increments = np.zeros((2, sgd.n_steps, 4))
        increments[1, 2] = 5.0
        with pytest.raises(StepFailure) as exc:
            Stepper(sgd, p_laplace(3.0), noise, SolverConfig(max_newton=1)).run(zero_field, 1, [4, 5], increments)
        exc.value.level = 2
        again = pickle.loads(pickle.dumps(exc.value))
        assert type(again) is StepFailure and str(again) == str(exc.value)
        assert vars(again).keys() == vars(exc.value).keys()
        assert (again.level, again.sample_index, again.step_index, again.block_row) == (2, 5, 2, 1)
        assert again.residual_norm == exc.value.residual_norm
        np.testing.assert_array_equal(again.best_iterate, exc.value.best_iterate)

    def test_ensemble_failure_names_its_sample(self, setup16):
        sgd, noise = setup16
        cfg = SolverConfig(max_newton=1)
        blocks = [range(18, 21)]  # a block that does not start at sample 0

        stepper = Stepper(sgd, p_laplace(3.0), noise, cfg)

        def paths(block):
            return stepper.run(sin_pi, 1, block)

        with pytest.raises(StepFailure) as exc:
            list(map_blocks(paths, blocks, 1))
        assert (exc.value.sample_index, exc.value.step_index) == (18, 0)
        assert "sample 18" in str(exc.value)
