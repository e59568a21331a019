"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The two stochastic benchmarks are shared module-scoped fixtures:

* p3 benchmark: p-Laplace p=3 on (0,1), h=1/16, N=32, f0=tanh, k_max=8,
  u0 = sin(pi x), T=0.5, 1000 samples, refined twice (dt and h halve).
* p2 benchmark: linear diffusion with the same noise and geometry.
"""

import json
import time

import numpy as np
import pytest

from sgdm import build_gd, build_uniform_interval, build_uniform_triangulation, refine
from sgdm.analysis import (
    DualNormSolver,
    coupled_refinement_study,
    deterministic_errors,
    loglog_slope,
    ou_exact_moments,
    run_ensemble,
)
from sgdm.flux import custom_flux, linear_diffusion, p_laplace, probe_assumptions, regularized_p_laplace
from sgdm.indicators import consistency_error, indicator_T, indicator_W, poincare_constant
from sgdm.noise import growth_check, make_noise
from sgdm.scheme import SolverConfig, SpaceTimeGD, run_trajectory
from sgdm.cli import main as cli_main

from conftest import dual_norm_oracle

WORKERS = 2


def sin_u0(x):
    return np.sin(np.pi * np.atleast_2d(x)[:, 0])


def _report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def _identity_bound(traj):
    """Per-step certificate |energy identity violation| <= ||R|| ||u^(n+1)||:
    its max over the steps, and 1 if that passes 1e-8, else 0."""
    bound = np.max(traj.per_step_residuals * np.linalg.norm(traj.u[1:], axis=1))
    return np.array([bound, bound > 1e-8])


def _levels(n_cells0, n_steps0, count, T=0.5, kind="p1"):
    mesh = build_uniform_interval(n_cells0, 0.0, 1.0)
    out = []
    for lvl in range(count):
        gd = build_gd(mesh, kind)
        out.append(SpaceTimeGD(gd, T, n_steps0 * 2**lvl))
        mesh = refine(mesh)
    return out


@pytest.fixture(scope="module")
def p3_reports():
    """Energy/moment/martingale reports of the p=3 benchmark at 3 levels.

    The horizon is short enough that the coarsest level's implicit-Euler
    damping does not bias its max-norm estimators far below the finer levels
    (the 2x-stability criterion compares against the coarsest value)."""
    sgds = _levels(16, 32, 3, T=0.125)
    flux = p_laplace(3.0)
    reports = []
    for lvl, sgd in enumerate(sgds):
        noise = make_noise(sgd.gd.mesh.bounding_box, 8, f0="tanh")
        n_samples = 1000 if lvl == 0 else 400  # finer levels: unpinned by the criteria
        reports.append(
            run_ensemble(
                sgd, flux, noise, sin_u0, 2024, n_samples,
                dict(
                    translate_ells=(), dual_ells=(), with_dual=False,
                    extra_fn=_identity_bound,
                ),
                workers=WORKERS,
            )
        )
    return sgds, reports


@pytest.fixture(scope="module")
def p2_base_report():
    """p=2 benchmark at the base level with translate and dual tables."""
    sgd = _levels(16, 32, 1)[0]
    noise = make_noise(sgd.gd.mesh.bounding_box, 8, f0="tanh")
    rep = run_ensemble(
        sgd, linear_diffusion(), noise, sin_u0, 99, 1000,
        dict(translate_ells=(1, 2, 4, 8), dual_ells=(1, 2, 4, 8), dual_r=2, beta=0.25),
        workers=WORKERS,
    )
    return sgd, rep


@pytest.fixture(scope="module")
def p2_level_reports():
    """Martingale statistics of the p=2 benchmark across 3 levels."""
    sgds = _levels(16, 32, 3)
    reports = []
    for lvl, sgd in enumerate(sgds):
        noise = make_noise(sgd.gd.mesh.bounding_box, 8, f0="tanh")
        n_samples = 1000 if lvl == 0 else 400
        reports.append(
            run_ensemble(
                sgd, linear_diffusion(), noise, sin_u0, 99, n_samples,
                dict(translate_ells=(), dual_ells=(), with_dual=False, beta=0.25),
                workers=WORKERS,
            )
        )
    return sgds, reports


def test_criterion_1_heat_oracle():
    t0 = time.time()
    hs = [1 / 8, 1 / 16, 1 / 32]
    sgds = []
    for h in hs:
        mesh = build_uniform_interval(round(1 / h), 0.0, 1.0)
        sgds.append(SpaceTimeGD(build_gd(mesh, "p1"), 0.1, round(0.1 / h**2)))
    noise = make_noise([[0.0], [1.0]], 1, f0="zero")

    def exact(t, x):
        return np.exp(-np.pi**2 * t) * np.sin(np.pi * x[:, 0])

    errs = deterministic_errors(sgds, linear_diffusion(), noise, sin_u0, exact)
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    elapsed = time.time() - t0
    _report(
        1,
        all(o >= 1.8 for o in orders) and elapsed < 10.0,
        f"heat errors {['%.3e' % e for e in errs]}, orders {['%.2f' % o for o in orders]}, {elapsed:.1f}s",
    )


def _ou_track(traj):
    return traj.u[:, 0]


def test_criterion_2_ou_oracle():
    t0 = time.time()
    gd = build_gd(build_uniform_interval(2, 0.0, 1.0), "p1")
    sgd = SpaceTimeGD(gd, T=1.0, n_steps=16)
    noise = make_noise(gd.mesh.bounding_box, 1, f0="constant")
    rep = run_ensemble(
        sgd, linear_diffusion(), noise, np.array([1.0]), 7, 100_000,
        dict(p=2.0, translate_ells=(), dual_ells=(), with_dual=False,
             with_martingale=False, extra_fn=_ou_track),
        workers=WORKERS,
    )
    mass = gd.l2_inner(np.ones(1), np.ones(1))
    stiff = float(np.ones(1) @ (gd.stiffness @ np.ones(1)))
    load = float((gd.P.T @ (gd.quad_w * noise.basis.values(gd.quad_x)[:, 0]))[0])
    means, variances = ou_exact_moments(mass, stiff, noise.q[0] * load, 1.0, sgd.dt, 16)
    mean_z = np.abs(rep.extra.mean - means)[1:] / rep.extra.se[1:]
    var_z = np.abs(rep.extra.variance - variances)[1:] / rep.extra.variance_se[1:]
    elapsed = time.time() - t0
    _report(
        2,
        float(mean_z.max()) <= 3.0 and float(var_z.max()) <= 3.0 and elapsed < 60.0,
        f"max |z|: mean {mean_z.max():.2f}, var {var_z.max():.2f} over 16 steps at 1e5 samples, {elapsed:.1f}s",
    )


def test_criterion_3_energy_estimate(p3_reports):
    sgds, reports = p3_reports
    totals = [
        r.energy_max_l2_sq.mean + r.grad_lp_p.mean + r.increment_sum.mean for r in reports
    ]
    bounded = all(np.isfinite(t) and t <= 2.0 * totals[0] for t in totals)
    identity_ok = all(float(r.extra.mean[1]) == 0.0 for r in reports)  # no path over 1e-8
    # exact identity evaluation on a few paths of the base level
    noise = make_noise(sgds[0].gd.mesh.bounding_box, 8, f0="tanh")
    from sgdm.scheme import energy_identity_residual

    exact_ok = all(
        energy_identity_residual(run_trajectory(sgds[0], p_laplace(3.0), noise, sin_u0, 2024, s)) <= 1e-8
        for s in range(5)
    )
    _report(
        3,
        bounded and identity_ok and exact_ok,
        f"energy estimator by level {['%.4f' % t for t in totals]} (bound {2*totals[0]:.4f}), "
        f"identity bound mean {max(float(r.extra.mean[0]) for r in reports):.2e}, "
        f"paths over 1e-8 {sum(round(r.extra.mean[1] * r.n_samples) for r in reports)}",
    )


def test_criterion_4_higher_moments(p3_reports):
    _, reports = p3_reports
    ok = True
    details = []
    for q in (1, 2, 3):
        m = [r.higher_moments[q].mean for r in reports]
        g = [r.grad_moments[q].mean for r in reports]
        ok = ok and all(np.isfinite(v) and v <= 2.0 * m[0] for v in m)
        ok = ok and all(np.isfinite(v) and v <= 2.0 * g[0] for v in g)
        details.append(f"q={q}: {m[0]:.3f}->{m[-1]:.3f}")
    _report(4, ok, "; ".join(details))


def test_criterion_5_time_translates(p2_base_report):
    sgd, rep = p2_base_report
    slope = rep.translate_slope(sgd.dt)
    # independent brute-force check of the continuous translate quadrature
    rng = np.random.default_rng(0)
    from test_analysis import StepPath, brute_force_translate

    path = StepPath(0.125, rng.standard_normal((8, 6)), rng.uniform(0.1, 0.2, 6))
    quad_ok = all(
        abs(path.translate(rho) - brute_force_translate(path, rho)) <= 1e-8
        for rho in (0.07, 0.125, 0.4, 0.81)
    )
    _report(
        5,
        slope >= 0.8 and quad_ok,
        f"translate log-log slope {slope:.3f} (need >= 0.8); quadrature cross-check "
        f"{'ok' if quad_ok else 'failed'}",
    )


def test_criterion_6_dual_norm_increments(p2_base_report):
    sgd, rep = p2_base_report
    slope = rep.dual_slope(sgd.dt, 2)
    # alpha = min(1/2, 1/p) = 1/2 at p = 2, so the target is 0.8 * alpha * r
    target = 0.8 * 0.5 * 2
    # dense oracle agreement on a small instance
    gd = build_gd(build_uniform_interval(6, 0.0, 1.0), "p1")
    solver = DualNormSolver(gd)
    oracle_ok = True
    # the rows a restarted Nelder-Mead oracle drew, each followed by its 40 starts
    for w in np.random.default_rng(5).standard_normal((3, 41, gd.n_dofs))[:, 0]:
        best = dual_norm_oracle(gd, gd.mass @ w)
        oracle_ok = oracle_ok and abs(solver.batch(w)[0] - best) <= 1e-6
    _report(
        6,
        slope >= target and oracle_ok,
        f"dual-increment slope {slope:.3f} (need >= {target}); dense oracle "
        f"{'ok' if oracle_ok else 'failed'}",
    )


def test_criterion_7_martingale_suite(p2_level_reports, p3_reports):
    _, reports = p2_level_reports
    h_beta = [r.martingale_h_beta.mean for r in reports]
    stable = all(np.isfinite(v) and v <= 2.0 * h_beta[0] for v in h_beta)
    # the p=2 energy estimator is level-stable as well (same bound shape)
    totals = [r.energy_max_l2_sq.mean + r.grad_lp_p.mean + r.increment_sum.mean for r in reports]
    stable = stable and all(t <= 2.0 * totals[0] for t in totals)

    # additive-noise exact identity: E ||M at interval n||^2 = (n+1) dt q1^2
    gd = build_gd(build_uniform_interval(8, 0.0, 1.0), "p1")
    sgd = SpaceTimeGD(gd, T=1.0, n_steps=16)
    noise = make_noise(gd.mesh.bounding_box, 1, f0="constant")
    rep = run_ensemble(
        sgd, linear_diffusion(), noise, sin_u0, 11, 20_000,
        dict(p=2.0, translate_ells=(), dual_ells=(), with_dual=False),
        workers=WORKERS,
    )
    additive_ok = True
    for n, stat in enumerate(rep.martingale_sq_by_step):
        expected = (n + 1) * sgd.dt * noise.trace
        additive_ok = additive_ok and abs(stat.mean - expected) <= 3.0 * stat.se

    # increment-mean test on the nonlinear p=3 benchmark
    pair = p3_reports[1][0].increment_pair_mean
    increment_ok = abs(pair.mean) <= 3.0 * pair.se
    _report(
        7,
        stable and additive_ok and increment_ok,
        f"H^beta means {['%.4f' % v for v in h_beta]}; additive identity "
        f"{'ok' if additive_ok else 'failed'}; increment mean z = {abs(pair.mean)/pair.se:.2f}",
    )


def test_criterion_8_gd_indicators():
    # consistency: strictly decreasing over 3 levels for the sine battery
    mesh = build_uniform_interval(8, 0.0, 1.0)
    gds = []
    for _ in range(3):
        gds.append(build_gd(mesh, "p1"))
        mesh = refine(mesh)
    batteries = {
        "sin1": (lambda x: np.sin(np.pi * x[:, 0]), lambda x: np.pi * np.cos(np.pi * x[:, 0])[:, None]),
        "sin2": (lambda x: np.sin(2 * np.pi * x[:, 0]), lambda x: 2 * np.pi * np.cos(2 * np.pi * x[:, 0])[:, None]),
        "sin3": (lambda x: np.sin(3 * np.pi * x[:, 0]), lambda x: 3 * np.pi * np.cos(3 * np.pi * x[:, 0])[:, None]),
    }
    s_ok = True
    for phi, grad in batteries.values():
        vals = [consistency_error(g, phi, grad, p=2.0) for g in gds]
        s_ok = s_ok and vals[0] > vals[1] > vals[2]

    # limit-conformity: conforming machine-zero, Crouzeix-Raviart decays
    w_conf = indicator_W(
        gds[1],
        lambda x: np.sin(np.pi * x[:, 0])[:, None],
        lambda x: np.pi * np.cos(np.pi * x[:, 0]),
        2.0,
    )
    sq = build_uniform_triangulation(2, 2)
    w_cr, hs = [], []
    phi2 = lambda x: np.column_stack([np.sin(np.pi * x[:, 1]), np.sin(np.pi * x[:, 0])])
    div2 = lambda x: np.zeros(len(x))
    for _ in range(4):
        g = build_gd(sq, "cr")
        w_cr.append(indicator_W(g, phi2, div2, 2.0))
        hs.append(sq.h)
        sq = refine(sq)
    w_order = -loglog_slope(hs, w_cr)  # slope of value against h
    w_ok = w_conf <= 1e-10 and all(a > b for a, b in zip(w_cr, w_cr[1:])) and -w_order >= 0.8

    # compactness: T(xi) <= C |xi| with C fitted on the coarsest level x 1.5
    shifts = [1 / 32, 1 / 16, 1 / 8]
    tables = [[indicator_T(g, [s], 2.0) for s in shifts] for g in gds]
    C = 1.5 * max(t / s for t, s in zip(tables[0], shifts))
    t_ok = all(t <= C * s for row in tables for t, s in zip(row, shifts))

    # coercivity: C_p -> 1/pi within 1e-3 at h = 1/64
    g64 = build_gd(build_uniform_interval(64, 0.0, 1.0), "p1")
    cp = poincare_constant(g64, 2.0)
    c_ok = abs(cp - 1.0 / np.pi) <= 1e-3
    _report(
        8,
        s_ok and w_ok and t_ok and c_ok,
        f"S decreasing {s_ok}; W conf {w_conf:.1e}, CR order {-w_order:.2f}; "
        f"T bound {t_ok}; C_p {cp:.6f} vs {1/np.pi:.6f}",
    )


def test_criterion_9_assumption_probes():
    clean = [
        p_laplace(1.5),
        p_laplace(2.0),
        p_laplace(3.0),
        regularized_p_laplace(2.5),
        linear_diffusion(),
    ]
    flux_ok = all(probe_assumptions(m, 100_000, rng_seed=31).passed for m in clean)

    gd = build_gd(build_uniform_interval(16, 0.0, 1.0), "p1")
    bbox = gd.mesh.bounding_box
    noises = [
        make_noise(bbox, 8, f0="zero"),
        make_noise(bbox, 8, f0="constant"),
        make_noise(bbox, 8, f0="tanh"),
        make_noise(bbox, 8, f0="identity"),
    ]
    noise_ok = all(
        growth_check(n, gd, trials=2000, amplitude=4.0, rng_seed=13).passed for n in noises
    )

    planted_flux = probe_assumptions(custom_flux(2.0, lambda x, y: -y), 1000, rng_seed=1)
    planted_noise = growth_check(
        make_noise(bbox, 4, f0=lambda s: s**2, F1=1.0, F2=1.0), gd,
        trials=2000, amplitude=50.0, rng_seed=2,
    )
    planted_ok = planted_flux.monotonicity_violations > 0 and planted_noise.violations > 0
    _report(
        9,
        flux_ok and noise_ok and planted_ok,
        f"built-ins clean (flux {flux_ok}, noise {noise_ok}); planted violations detected "
        f"(anti-monotone {planted_flux.monotonicity_violations}, unbounded f0 {planted_noise.violations})",
    )


def test_criterion_10_self_convergence():
    sgds = _levels(8, 8, 4)
    noise = make_noise([[0.0], [1.0]], 8, f0="tanh")
    stats = coupled_refinement_study(
        sgds, p_laplace(3.0), noise, sin_u0, 515, 64, p=3.0
    )
    means = [s.mean for s in stats]
    _report(
        10,
        all(a > b for a, b in zip(means, means[1:])),
        f"coupled pathwise L^p differences {['%.4f' % m for m in means]} strictly decreasing",
    )


def test_criterion_11_reproducibility(tmp_path):
    cfg = {
        "mesh": {"kind": "interval", "n_cells": 8},
        "gd": "p1",
        "levels": 2,
        "p": 3.0,
        "flux": {"kind": "p_laplace"},
        "time": {"T": 0.25, "n_steps": 8},
        "noise": {"k_max": 4, "f0": "tanh"},
        "u0": "sine",
        "n_samples": 16,
        "master_seed": 3,
        "estimators": {"translate_ells": [1, 2], "dual_ells": [1, 2]},
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    payloads = []
    for name, workers in (("r1", 1), ("r2", 1), ("r4", 2)):
        out = tmp_path / name
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out), "--workers", str(workers)]) == 0
        payloads.append((out / "estimators.csv").read_bytes())
    identical = payloads[0] == payloads[1] == payloads[2]
    _report(11, identical, "estimator CSVs byte-identical across reruns and worker counts")
