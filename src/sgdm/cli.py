"""Experiment orchestration: config-driven ensemble runs, indicator sweeps,
assumption probes, oracle checks and convergence studies.

Configs are single JSON files (diffable, hashable); every run writes CSV
tables, a JSON summary with pass/fail flags, and a reproducibility manifest
carrying the config echo, its SHA-256 hash, the seed, the package version,
the numpy and scipy versions and the BLAS/OpenMP thread settings (every
linear solve runs through scipy). CSV outputs are byte-identical for
identical (config, seed) at any worker count.
"""

import argparse
import copy
import hashlib
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import scipy

import importlib

from . import __version__, analysis
from .flux import custom_flux, linear_diffusion, p_laplace, probe_assumptions, regularized_p_laplace
from .gd import KINDS, build_gd
from .indicators import consistency_error, indicator_T, indicator_W, poincare_constant
from .mesh import build_uniform_interval, build_uniform_triangulation, load_mesh, refine
from .noise import F0_KINDS, growth_check, make_noise
from .scheme import SolverConfig, SpaceTimeGD, StepFailure


class ConfigError(ValueError):
    """Invalid configuration; message names the offending key path."""


DEFAULTS = {
    "gd": "p1",
    "levels": 1,
    "p": 2.0,
    "flux": {"kind": "linear", "epsilon": None},
    "time": {"T": 0.5, "n_steps": 16},
    "noise": {"k_max": 4, "spectrum_s": 1.5, "f0": "tanh", "f0_constant": 1.0, "F1": None, "F2": None},
    "u0": "sine",
    "n_samples": 100,
    "master_seed": 0,
    "solver": {"newton_tol": 1e-10, "max_newton": 30},
    "estimators": {
        "moments_q": [1, 2, 3],
        "translate_ells": [1, 2, 4, 8],
        "dual_ells": [1, 2, 4, 8],
        "dual_r": 2,
        "beta": 0.25,
    },
    "output_dir": "out",
}
# per kind, the keys a mesh or a flux holds besides its kind
MESH_KEYS = {"interval": ("n_cells", "a", "b"), "rectangle": ("nx", "ny", "rect"), "file": ("path",)}
FLUX_KEYS = {kind: ("epsilon",) for kind in ("linear", "p_laplace", "regularized_p_laplace")}
FLUX_KEYS["custom"] = ("epsilon", "callable", "c1", "c2")


def _require(cfg, key, types, path, ok=lambda v: True, rule=""):
    """``cfg[key]``, of the types (a bool is no number) and passing ``ok``."""
    if key not in cfg:
        raise ConfigError(f"missing key {path}{key}")
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"key {path}{key} has wrong type {type(value).__name__}")
    if not ok(value):
        raise ConfigError(f"key {path}{key} must be {rule}")
    return value


def _reals(values, n):
    """Whether ``values`` is a list of n numbers (a bool is no number)."""
    return isinstance(values, list) and len(values) == n and all(type(v) in (int, float) for v in values)


def _reject_unknown(section, known, path):
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigError(f"unknown key {path}{unknown[0]}")


def _kind(cfg, section, keys):
    """The section and its kind, one of ``keys``; it holds only that kind's keys."""
    sub = _require(cfg, section, dict, "")
    kind = _require(sub, "kind", str, f"{section}.")
    if kind not in keys:
        raise ConfigError(f"key {section}.kind has unknown value {kind!r}")
    _reject_unknown(sub, ("kind", *keys[kind]), f"{section}.")
    return sub, kind


def _merged(defaults, given):
    out = dict(defaults)
    for k, v in given.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merged(out[k], v)
        else:
            out[k] = v
    return out


def _finite(literal):
    """The number of a JSON literal; ``json`` turns NaN, Infinity and an
    overflowing literal such as 1e400 into floats that are not finite."""
    value = float(literal)
    if not np.isfinite(value):
        raise ConfigError(f"number {literal} is not finite")
    return value


def load_config(path):
    """Parse and validate a JSON experiment config; returns the merged dict."""
    try:
        with open(path) as f:
            raw = json.load(f, parse_constant=_finite, parse_float=_finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    cfg = _merged(copy.deepcopy(DEFAULTS), raw)
    _reject_unknown(cfg, [*DEFAULTS, "mesh"], "")
    for section in ("time", "noise", "solver", "estimators"):
        _reject_unknown(_require(cfg, section, dict, ""), DEFAULTS[section], f"{section}.")
    mesh_cfg, kind = _kind(cfg, "mesh", MESH_KEYS)
    positive, real = (lambda v: v >= 1, "an integer >= 1"), (int, float)
    real_or_null, nonnegative_or_null = (*real, type(None)), (lambda v: v is None or v >= 0, "a number >= 0 or null")
    if kind == "interval":
        _require(mesh_cfg, "n_cells", int, "mesh.", *positive)
        a, b = mesh_cfg.get("a", 0.0), mesh_cfg.get("b", 1.0)
        if not (_reals([a, b], 2) and a < b):
            raise ConfigError("keys mesh.a and mesh.b must be numbers with a < b")
    elif kind == "rectangle":
        for k in ("nx", "ny"):
            _require(mesh_cfg, k, int, "mesh.", *positive)
        rect = mesh_cfg.get("rect", [[0, 0], [1, 1]])
        if not (isinstance(rect, list) and len(rect) == 2 and all(_reals(c, 2) for c in rect)
                and all(lo < hi for lo, hi in zip(*rect))):
            raise ConfigError("key mesh.rect must be [[x0, y0], [x1, y1]] of numbers with x0 < x1 and y0 < y1")
    else:
        p = Path(_require(mesh_cfg, "path", str, "mesh."))
        if not p.exists():
            raise ConfigError(f"key mesh.path: file {p} does not exist")
    if cfg["gd"] not in KINDS:
        raise ConfigError(f"key gd has unknown value {cfg['gd']!r}; expected one of {KINDS}")
    _require(cfg, "levels", int, "", *positive)
    _require(cfg, "p", real, "", lambda v: v > 1, "a number > 1")
    flux_cfg, flux_kind = _kind(cfg, "flux", FLUX_KEYS)
    _require(flux_cfg, "epsilon", real_or_null, "flux.", *nonnegative_or_null)
    if flux_kind == "custom":
        spec = _require(flux_cfg, "callable", str, "flux.")
        if ":" not in spec:
            raise ConfigError("key flux.callable must look like 'module:attribute'")
        for k in ("c1", "c2"):
            if k in flux_cfg:
                _require(flux_cfg, k, real, "flux.", lambda v: v > 0, "positive")
    _require(cfg["time"], "n_steps", int, "time.", *positive)
    _require(cfg["time"], "T", real, "time.", lambda v: v > 0, "positive")
    noise = cfg["noise"]
    _require(noise, "k_max", int, "noise.", *positive)
    _require(noise, "spectrum_s", real, "noise.")
    _require(noise, "f0_constant", real, "noise.")
    for k in ("F1", "F2"):
        _require(noise, k, real_or_null, "noise.", *nonnegative_or_null)
    f0 = noise["f0"]
    if not (f0 in F0_KINDS or isinstance(f0, list) and f0
            and all(_reals(row, 2) for row in f0) and all(r[0] < s[0] for r, s in zip(f0, f0[1:]))):
        raise ConfigError(f"key noise.f0 must be {', '.join(F0_KINDS)} or a table [[x, y], ...], x increasing")
    _require(cfg, "n_samples", int, "", *positive)
    _require(cfg, "master_seed", int, "", lambda v: v >= 0, "an integer >= 0")
    est = cfg["estimators"]
    for k in ("moments_q", "translate_ells", "dual_ells"):
        entries = _require(est, k, list, "estimators.")
        if not all(type(v) is int and v >= 1 for v in entries):
            raise ConfigError(f"key estimators.{k} must hold integers >= 1")
    _require(est, "dual_r", int, "estimators.", lambda v: v >= 1 and v & (v - 1) == 0, "a power of two")
    _require(est, "beta", real, "estimators.", lambda v: 0 < v < 0.5, "in (0, 1/2)")
    try:
        build_solver_config(cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key solver: {exc}") from exc
    u0 = cfg["u0"]
    if isinstance(u0, dict):
        _reject_unknown(u0, ("file",), "u0.")
        p = Path(_require(u0, "file", str, "u0."))
        if not p.exists():
            raise ConfigError(f"key u0.file: file {p} does not exist")
        if cfg["levels"] != 1:
            raise ConfigError("key u0.file requires levels == 1 (DOF values are level-specific)")
    elif u0 not in ("zero", "sine", "bump"):
        raise ConfigError(f"key u0 has unknown value {u0!r}")
    return cfg


def config_hash(cfg):
    return hashlib.sha256(json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


# -- object construction ---------------------------------------------------------


def build_base_mesh(cfg):
    mc = cfg["mesh"]
    if mc["kind"] == "interval":
        return build_uniform_interval(mc["n_cells"], mc.get("a", 0.0), mc.get("b", 1.0))
    if mc["kind"] == "rectangle":
        rect = mc.get("rect", [[0.0, 0.0], [1.0, 1.0]])
        return build_uniform_triangulation(mc["nx"], mc["ny"], rect)
    return load_mesh(mc["path"])


def build_flux(cfg):
    fc = cfg["flux"]
    if fc["kind"] == "linear":
        return linear_diffusion()
    if fc["kind"] == "p_laplace":
        return p_laplace(cfg["p"], newton_epsilon=fc.get("epsilon"))
    if fc["kind"] == "custom":
        mod, attr = fc["callable"].split(":", 1)
        try:
            fn = getattr(importlib.import_module(mod), attr)
        except (ImportError, AttributeError) as exc:
            raise ConfigError(f"key flux.callable: cannot resolve {fc['callable']!r} ({exc})")
        return custom_flux(cfg["p"], fn, c1=fc.get("c1", 1.0), c2=fc.get("c2", 1.0))
    return regularized_p_laplace(cfg["p"])


def build_noise_model(cfg, mesh):
    """The noise model of the ``noise`` section, whose keys are ``make_noise``'s arguments."""
    return make_noise(mesh.bounding_box, **cfg["noise"])


class _SineU0:
    def __init__(self, bbox):
        self.bbox = np.asarray(bbox, dtype=float)

    def __call__(self, x):
        rel = (np.atleast_2d(x) - self.bbox[0]) / (self.bbox[1] - self.bbox[0])
        return np.prod(np.sin(np.pi * rel), axis=1)


class _BumpU0:
    def __init__(self, bbox):
        self.bbox = np.asarray(bbox, dtype=float)

    def __call__(self, x):
        rel = 2.0 * (np.atleast_2d(x) - self.bbox[0]) / (self.bbox[1] - self.bbox[0]) - 1.0
        r2 = np.sum(rel**2, axis=1)
        out = np.zeros(len(rel))
        inside = r2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out


def _zero_u0(x):
    return np.zeros(len(np.atleast_2d(x)))


def build_u0(cfg, mesh, gd):
    u0 = cfg["u0"]
    if isinstance(u0, dict):
        vals = np.loadtxt(u0["file"]).reshape(-1)
        if len(vals) != gd.n_dofs:
            raise ConfigError(
                f"key u0.file: {len(vals)} values for a space with {gd.n_dofs} unknowns"
            )
        return vals
    if u0 == "zero":
        return _zero_u0
    if u0 == "sine":
        return _SineU0(mesh.bounding_box)
    return _BumpU0(mesh.bounding_box)


def build_levels(cfg):
    """Space-time discretisations per refinement level (h and dt both halve)."""
    mesh = build_base_mesh(cfg)
    levels = []
    for lvl in range(cfg["levels"]):
        gd = build_gd(mesh, cfg["gd"])
        sgd = SpaceTimeGD(gd, cfg["time"]["T"], cfg["time"]["n_steps"] * 2**lvl)
        levels.append((mesh, gd, sgd))
        if lvl + 1 < cfg["levels"]:
            mesh = refine(mesh)
    return levels


def build_solver_config(cfg):
    return SolverConfig(**{f.name: cfg["solver"][f.name] for f in fields(SolverConfig)})


# -- output helpers ---------------------------------------------------------------


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(x) for x in row) + "\n")


def _finish(outdir, cfg, summary):
    """Write summary.json and manifest.json; the exit code: 0 if summary["ok"]."""
    manifest = {
        "config": cfg,
        "config_sha256": config_hash(cfg),
        "master_seed": cfg["master_seed"],
        "version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "threads": {  # null where unset
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
    for name, content in (("summary.json", summary), ("manifest.json", manifest)):
        with open(Path(outdir) / name, "w") as f:
            json.dump(content, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0 if summary["ok"] else 1


# -- subcommands -------------------------------------------------------------------


def _run_levels(cfg, workers, acc_kwargs, summary, one_path_if_silent=False):
    """``analysis.run_levels`` on the config's levels, one noise model and one
    initial condition (refinement keeps the bounding box), over one sample if
    ``one_path_if_silent`` and the noise is zero. Returns the levels, reports
    and differences, none of either after a failed step, which ``summary`` records."""
    levels = build_levels(cfg)
    mesh0, gd0, _ = levels[0]
    noise_model = build_noise_model(cfg, mesh0)
    try:
        return levels, *analysis.run_levels(
            [sgd for (_, _, sgd) in levels], build_flux(cfg), noise_model, build_u0(cfg, mesh0, gd0),
            cfg["master_seed"], 1 if one_path_if_silent and noise_model.is_zero else cfg["n_samples"],
            acc_kwargs, build_solver_config(cfg), workers=workers,
        )
    except StepFailure as exc:
        summary["failures"].append(
            {"level": exc.level, "sample": exc.sample_index, "step": exc.step_index, "residual": exc.residual_norm}
        )
        summary["ok"] = False
        return levels, [], []


def cmd_run(cfg, workers, outdir):
    """Trajectory ensembles on every level with the full estimator suite;
    ``summary.json`` also holds the pathwise L^p differences of consecutive
    levels, as ``convergence`` reports them."""
    est = cfg["estimators"]
    acc_kwargs = dict(
        p=cfg["p"], moment_qs=tuple(est["moments_q"]), translate_ells=tuple(est["translate_ells"]),
        dual_ells=tuple(est["dual_ells"]), dual_r=est["dual_r"], beta=est["beta"],
    )
    rows = []
    summary = {"levels": [], "failures": [], "ok": True}
    levels, reports, stats = _run_levels(cfg, workers, acc_kwargs, summary)
    for lvl, ((mesh, gd, sgd), rep) in enumerate(zip(levels, reports)):

        def push(name, key, stat):
            rows.append([lvl, name, key, stat.mean, stat.se, stat.n])

        push("energy_max_l2_sq", "", rep.energy_max_l2_sq)
        push("grad_lp_p", "", rep.grad_lp_p)
        push("increment_sum", "", rep.increment_sum)
        for q, stat in sorted(rep.higher_moments.items()):
            push("moment_max_l2", f"q={q}", stat)
        for q, stat in sorted(rep.grad_moments.items()):
            push("moment_grad", f"q={q}", stat)
        for ell, stat in sorted(rep.translate_table.items()):
            push("translate", f"ell={ell}", stat)
        for (ell, r), stat in sorted(rep.dual_increment_table.items()):
            push("dual_increment", f"ell={ell},r={r}", stat)
        push("martingale_h_beta", f"beta={est['beta']}", rep.martingale_h_beta)
        push("martingale_sup_r", "", rep.martingale_sup_r)
        push("increment_pair_mean", "", rep.increment_pair_mean)
        lvl_summary = {
            "level": lvl,
            "h": mesh.h,
            "n_steps": sgd.n_steps,
            "energy_mean": rep.energy_max_l2_sq.mean,
            "martingale_h_beta": rep.martingale_h_beta.mean,
        }
        if len(rep.translate_table) >= 2:
            lvl_summary["translate_slope"] = rep.translate_slope(sgd.dt)
        if len(rep.dual_increment_table) >= 2:
            lvl_summary["dual_slope"] = rep.dual_slope(sgd.dt, est["dual_r"])
        summary["levels"].append(lvl_summary)
    summary["differences"] = [
        {"pair": i, "h_coarse": levels[i][0].h, "mean": st.mean, "se": st.se, "n_samples": st.n}
        for i, st in enumerate(stats)
    ]
    write_csv(
        Path(outdir) / "estimators.csv",
        ["level", "estimator", "key", "mean", "se", "n_samples"],
        rows,
    )
    return _finish(outdir, cfg, summary)


_W_FIELDS_1D = [
    ("poly_cubic", lambda x: (x[:, 0] ** 2 * (1 - x[:, 0]))[:, None], lambda x: 2 * x[:, 0] - 3 * x[:, 0] ** 2),
    ("sine", lambda x: np.sin(np.pi * x[:, 0])[:, None], lambda x: np.pi * np.cos(np.pi * x[:, 0])),
]
_W_FIELDS_2D = [
    (
        "poly_cubic",
        lambda x: np.column_stack([x[:, 0] ** 2 * (1 - x[:, 1]), x[:, 1] * (1 - x[:, 0])]),
        lambda x: 2 * x[:, 0] * (1 - x[:, 1]) + (1 - x[:, 0]),
    ),
    (
        "sine_swirl",
        lambda x: np.column_stack([np.sin(np.pi * x[:, 1]), np.sin(np.pi * x[:, 0])]),
        lambda x: np.zeros(len(x)),
    ),
]


def _sine_battery(mesh):
    bbox = np.asarray(mesh.bounding_box, dtype=float)
    lengths = bbox[1] - bbox[0]

    def make(freqs):
        def phi(x):
            rel = (np.atleast_2d(x) - bbox[0]) / lengths
            return np.prod(np.sin(np.pi * np.asarray(freqs) * rel), axis=1)

        def grad(x):
            rel = (np.atleast_2d(x) - bbox[0]) / lengths
            s = np.sin(np.pi * np.asarray(freqs) * rel)
            c = np.cos(np.pi * np.asarray(freqs) * rel)
            out = np.empty_like(rel)
            for d in range(rel.shape[1]):
                cols = s.copy()
                cols[:, d] = c[:, d]
                out[:, d] = np.pi * freqs[d] / lengths[d] * np.prod(cols, axis=1)
            return out

        return phi, grad

    if mesh.dim == 1:
        return [("sin1", *make([1])), ("sin2", *make([2])), ("sin3", *make([3]))]
    return [("sin11", *make([1, 1])), ("sin21", *make([2, 1])), ("sin22", *make([2, 2]))]


def cmd_indicators(cfg, workers, outdir):
    """Consistency, limit-conformity, compactness and coercivity sweeps. An
    evaluation that raises is written as nan, recorded in the summary's
    failures, and the sweep goes on."""
    levels = build_levels(cfg)
    p = cfg["p"]
    rows = []
    failures = []
    s_values = {}
    w_values = {}

    def evaluate(lvl, h, indicator, name, fn, *args):
        try:
            value = fn(*args, p=p)
        except Exception as exc:  # one failed evaluation is reported, not fatal
            failures.append(
                {"level": lvl, "indicator": indicator, "name": name, "error": f"{type(exc).__name__}: {exc}"}
            )
            value = float("nan")
        rows.append([lvl, h, indicator, name, value])
        return value

    for lvl, (mesh, gd, sgd) in enumerate(levels):
        for name, phi, grad in _sine_battery(mesh):
            s = evaluate(lvl, mesh.h, "S", name, consistency_error, gd, phi, grad)
            s_values.setdefault(name, []).append(s)
        fields = _W_FIELDS_1D if mesh.dim == 1 else _W_FIELDS_2D
        for name, phi, div in fields:
            wv = evaluate(lvl, mesh.h, "W", name, indicator_W, gd, phi, div)
            w_values.setdefault(name, []).append(wv)
        base_h = levels[0][0].h
        for scale in (0.5, 0.25):
            xi = np.zeros(mesh.dim)
            xi[0] = scale * base_h
            evaluate(lvl, mesh.h, "T", f"xi={scale}h0", indicator_T, gd, xi)
        evaluate(lvl, mesh.h, "C_p", "", poincare_constant, gd)
    write_csv(Path(outdir) / "indicators.csv", ["level", "h", "indicator", "name", "value"], rows)
    conforming = cfg["gd"] == "p1"
    checks = {
        "consistency_decreasing": all(
            all(a > b for a, b in zip(v, v[1:])) for v in s_values.values()
        ) if cfg["levels"] > 1 else True,
        "conformity": all(v <= 1e-10 for vs in w_values.values() for v in vs)
        if conforming
        else all(vs[0] > vs[-1] for vs in w_values.values() if vs[0] > 1e-12) or cfg["levels"] == 1,
    }
    summary = {"checks": checks, "failures": failures, "ok": all(checks.values()) and not failures}
    return _finish(outdir, cfg, summary)


def cmd_probe(cfg, workers, outdir):
    """Randomized verification of the flux and noise structure assumptions."""
    mesh = build_base_mesh(cfg)
    gd = build_gd(mesh, cfg["gd"])
    flux_model = build_flux(cfg)
    noise_model = build_noise_model(cfg, mesh)
    rep = probe_assumptions(
        flux_model, n_samples=100_000, rng_seed=cfg["master_seed"], dim=mesh.dim
    )
    growth = growth_check(noise_model, gd, trials=2000, rng_seed=cfg["master_seed"])
    summary = {
        "flux": {
            "coercivity_violations": rep.coercivity_violations,
            "growth_violations": rep.growth_violations,
            "monotonicity_violations": rep.monotonicity_violations,
            "tight_c1": rep.tight_c1,
            "tight_c2": rep.tight_c2,
        },
        "noise": {"violations": growth.violations, "max_excess": growth.max_excess},
        "ok": rep.passed and growth.passed,
    }
    write_csv(
        Path(outdir) / "probe.csv",
        ["check", "violations"],
        [
            ["flux_coercivity", rep.coercivity_violations],
            ["flux_growth", rep.growth_violations],
            ["flux_monotonicity", rep.monotonicity_violations],
            ["noise_growth", growth.violations],
        ],
    )
    return _finish(outdir, cfg, summary)


def _traj_final_value(traj):
    return traj.u[:, 0]


def cmd_oracle(cfg, workers, outdir):
    """Statistical comparison of the single-unknown linear scheme against the
    exact Gaussian recursion."""
    mesh = build_uniform_interval(2, 0.0, 1.0)
    gd = build_gd(mesh, "p1")
    sgd = SpaceTimeGD(gd, cfg["time"]["T"], cfg["time"]["n_steps"])
    noise_model = make_noise(mesh.bounding_box, 1, f0="constant")
    flux_model = linear_diffusion()
    u0 = np.array([1.0])
    rep = analysis.run_ensemble(
        sgd, flux_model, noise_model, u0, cfg["master_seed"], cfg["n_samples"],
        dict(p=2.0, translate_ells=(), dual_ells=(), with_dual=False,
             with_martingale=False, extra_fn=_traj_final_value),
        workers=workers,
    )
    mass = gd.l2_inner(np.ones(1), np.ones(1))
    stiff = float(np.ones(1) @ (gd.stiffness @ np.ones(1)))
    load = float((gd.P.T @ (gd.quad_w * noise_model.basis.values(gd.quad_x)[:, 0]))[0])
    gain = noise_model.q[0] * load
    means, variances = analysis.ou_exact_moments(mass, stiff, gain, 1.0, sgd.dt, sgd.n_steps)
    mean_z = np.abs(rep.extra.mean - means) / np.maximum(rep.extra.se, 1e-300)
    var_z = np.abs(rep.extra.variance - variances) / np.maximum(rep.extra.variance_se, 1e-300)
    ok = bool(np.all(mean_z[1:] <= 3.0) and np.all(var_z[1:] <= 3.0))
    rows = [
        [n, means[n], rep.extra.mean[n], rep.extra.se[n], variances[n], rep.extra.variance[n], rep.extra.variance_se[n]]
        for n in range(sgd.n_steps + 1)
    ]
    write_csv(
        Path(outdir) / "oracle.csv",
        ["step", "exact_mean", "mc_mean", "mean_se", "exact_var", "mc_var", "var_se"],
        rows,
    )
    summary = {
        "max_mean_z": float(mean_z[1:].max()),
        "max_var_z": float(var_z[1:].max()),
        "ok": ok,
    }
    return _finish(outdir, cfg, summary)


def cmd_convergence(cfg, workers, outdir):
    """Coupled-seed refinement study of consecutive levels, with the energy
    estimators only; a noise-free study has one path per level, so it runs
    one sample."""
    if cfg["levels"] < 2:
        raise ConfigError("key levels must be >= 2 for a convergence study")
    summary = {"failures": [], "ok": True}
    energy_only = dict(p=cfg["p"], translate_ells=(), dual_ells=(), with_martingale=False)
    levels, _, stats = _run_levels(cfg, workers, energy_only, summary, one_path_if_silent=True)
    for failure in summary["failures"]:
        failure["pair"] = max(failure["level"] - 1, 0)  # the first pair that holds the failing level
    means = [st.mean for st in stats]
    summary["differences"] = means
    summary["orders"] = [float(np.log2(a / b)) if a > 0 and b > 0 else None for a, b in zip(means, means[1:])]
    summary["ok"] = summary["ok"] and all(a > b for a, b in zip(means, means[1:]))
    write_csv(
        Path(outdir) / "convergence.csv",
        ["pair", "h_coarse", "mean_diff", "se", "n_samples"],
        [[i, levels[i][0].h, st.mean, st.se, st.n] for i, st in enumerate(stats)],
    )
    return _finish(outdir, cfg, summary)


COMMANDS = {
    "run": cmd_run,
    "indicators": cmd_indicators,
    "probe": cmd_probe,
    "oracle": cmd_oracle,
    "convergence": cmd_convergence,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sgdm",
        description="Stochastic p-Laplace gradient-discretisation experiments",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--workers", type=int, default=1, help="sample-level parallel workers")
    parser.add_argument("--seed", type=int, default=None, help="override master_seed")
    parser.add_argument("--out", default=None, help="override output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be >= 0")
            cfg["master_seed"] = args.seed
        outdir = Path(args.out if args.out is not None else cfg["output_dir"])
        outdir.mkdir(parents=True, exist_ok=True)
        code = COMMANDS[args.command](cfg, max(1, args.workers), outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.command}: {'pass' if code == 0 else 'FAIL'} (outputs in {outdir})")
    return code


if __name__ == "__main__":
    sys.exit(main())
