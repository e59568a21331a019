"""The benchmark's workloads, their correctness checks and the trace probes.

Each workload builds its inputs from a JSON config in ``configs/`` (the same
format ``sgdm`` reads) and the run's seed. ``phases()`` maps a phase label
to the calls one timed round makes, each returning (operations, outcome);
the first phase is the one whose throughput the workload reports. Why each
workload exists:

* ``mc_p3_1d`` -- the paper's headline experiment (p-Laplace p=3, 63
  unknowns, so the dense stepper); time splits between Newton and the
  dual-norm estimator.
* ``mc_p3_2d_sparse`` -- 361 unknowns, the only workload above the stepper's
  dense/sparse switch; sparse Jacobian assembly and SuperLU dominate.
* ``oracle_pool`` -- the exact single-unknown linear oracle: no Newton, flux or
  dual norm, so it should not move when those get faster; per-step noise
  sampling dominates. It reports the workers=1 rate and runs the fork pool at
  workers=2 in turn, for the bit-identity check and the parallel efficiency;
  on a shared 2-vCPU VM the pool's rate varied more between runs than the
  serial one.
* ``indicators_p3_2d`` -- the quality-indicator battery (S, W, T, C_p) for P1
  and Crouzeix-Raviart spaces; the only workload for ``indicators``,
  ``clipping`` and ``quadrature``.

Not covered: p < 2. ``run_ensemble`` aborts a whole ensemble at the first
``StepFailure``, and at p=1.5 with the default Newton tolerance a third or
more of the samples fail, so such a workload would measure aborts.
"""

import json
from functools import partial
from pathlib import Path

import numpy as np

from sgdm import analysis, cli, indicators, scheme
from sgdm.scheme import StepFailure

from measure import FailureCounter
from tracer import span_stats

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
REFERENCE_FILE = HERE / "reference.json"

# Seed of the small ensembles whose results reference.json records exactly.
REFERENCE_SEED = 0
# Relative tolerance for values recorded at the reference commit. Newton
# stops at a residual of 1e-10, so a change of summation order or solver
# moves estimator means far less than this; a change of numerics does not.
EXACT_RTOL = 1e-6
EXACT_ATOL = 1e-12
# Largest accepted |z| of a run's estimator mean against the large-sample
# reference mean, for the estimators in Z_CHECKED. Resampling 10^4 runs from
# 240 (1D) and 80 (2D) single-sample reports gave no z above 4.8 for these.
# Higher moments and the martingale sup and fractional norm are heavy-tailed
# (z reached 6.2 in the same resampling), so only the reference-seed check
# covers them.
Z_MAX = 6.0
Z_CHECKED = (
    "energy_max_l2_sq", "grad_lp_p", "increment_sum", "increment_pair_mean", "translate.", "dual_increment.",
)
# Largest accepted |z| of the oracle's 32 per-step means and variances
# against the exact Gaussian recursion. `sgdm oracle` uses 3, which suits
# one fixed seed: over seeds 0..59 at 2000 samples, 5 of 60 exceeded 3 (the
# largest was 3.97), so every seed a run may get needs a wider bound.
ORACLE_Z_MAX = 5.0


def load_config(name, seed):
    cfg = cli.load_config(CONFIGS / f"{name}.json")
    cfg["master_seed"] = seed
    return cfg


def load_reference():
    with open(REFERENCE_FILE) as f:
        return json.load(f)


def matches_recorded(value, ref):
    return abs(value - ref) <= EXACT_RTOL * abs(ref) + EXACT_ATOL


class Workload:
    def __init__(self, name, seed):
        self.name = name
        self.cfg = load_config(name, seed)
        self.failures = FailureCounter()


# -- Monte Carlo ensembles --------------------------------------------------------


def estimator_table(rep):
    """Estimator means of a report as {key: (mean, se, n)}, keyed like the
    rows of `sgdm run`'s estimators.csv."""
    rows = {
        "energy_max_l2_sq": rep.energy_max_l2_sq,
        "grad_lp_p": rep.grad_lp_p,
        "increment_sum": rep.increment_sum,
        "martingale_h_beta": rep.martingale_h_beta,
        "martingale_sup_r": rep.martingale_sup_r,
        "increment_pair_mean": rep.increment_pair_mean,
    }
    rows.update({f"moment_max_l2.q={q}": s for q, s in rep.higher_moments.items()})
    rows.update({f"moment_grad.q={q}": s for q, s in rep.grad_moments.items()})
    rows.update({f"translate.ell={e}": s for e, s in rep.translate_table.items()})
    rows.update(
        {f"dual_increment.ell={e},r={r}": s for (e, r), s in rep.dual_increment_table.items()}
    )
    return {k: (s.mean, s.se, s.n) for k, s in rows.items()}


class MonteCarlo(Workload):
    """Trajectory ensembles with the full estimator suite, as `sgdm run`
    builds them: one `run_ensemble` call per batch, at master_seed = seed."""

    workers = 1

    def setup(self):
        cfg = self.cfg
        (mesh, gd, sgd), = cli.build_levels(cfg)
        est = cfg["estimators"]
        return {
            "sgd": sgd,
            "flux": cli.build_flux(cfg),
            "noise": cli.build_noise_model(cfg, mesh),
            "u0": cli.build_u0(cfg, mesh, gd),
            "solver": cli.build_solver_config(cfg),
            "acc_kwargs": dict(
                p=cfg["p"],
                moment_qs=tuple(est["moments_q"]),
                translate_ells=tuple(est["translate_ells"]),
                dual_ells=tuple(est["dual_ells"]),
                dual_r=est["dual_r"],
                beta=est["beta"],
            ),
        }

    def ensemble(self, pb, master_seed, n_samples):
        return analysis.run_ensemble(
            pb["sgd"], pb["flux"], pb["noise"], pb["u0"], master_seed, n_samples,
            pb["acc_kwargs"], pb["solver"], workers=self.workers,
        )

    def batch(self, pb):
        n = self.cfg["n_samples"]
        try:
            rep = self.ensemble(pb, self.cfg["master_seed"], n)
        except StepFailure:
            self.failures.add(n, n, "StepFailure")
            return n, None
        self.failures.add(n)
        return n, estimator_table(rep)

    def phases(self, pb, serial_only=False):
        return {f"workers={self.workers}": [lambda: self.batch(pb)]}

    def check_reference(self, pb, ref):
        """A small ensemble at the reference seed reproduces the estimator
        means recorded at the reference commit, to EXACT_RTOL."""
        exact = ref["exact"]
        table = estimator_table(self.ensemble(pb, exact["master_seed"], exact["n_samples"]))
        errors = []
        if set(table) != set(exact["means"]):
            errors.append(f"estimator keys changed: {sorted(set(table) ^ set(exact['means']))}")
        for key, want in exact["means"].items():
            if key in table and not matches_recorded(table[key][0], want):
                errors.append(f"reference ensemble: {key} = {table[key][0]!r}, recorded {want!r}")
        return errors

    def check(self, pb, outcomes, ref, info):
        """Repeated ensembles at one seed agree bit for bit, and the means in
        Z_CHECKED lie within Z_MAX standard errors of the large-sample
        reference."""
        tables = [t for t in outcomes if t is not None]
        if not tables:
            return []
        errors = []
        if any(t != tables[0] for t in tables[1:]):
            errors.append("ensembles at the same seed gave different reports")
        pop = ref["population"]
        z_max = 0.0
        for key, (mean, _, n) in tables[0].items():
            if not key.startswith(Z_CHECKED):
                continue
            se = np.hypot(pop["sd"][key] / np.sqrt(n), pop["se"][key])
            z = abs(mean - pop["mean"][key]) / se
            z_max = max(z_max, z)
            if not z <= Z_MAX:
                errors.append(f"{key} = {mean!r} is {z:.1f} standard errors from {pop['mean'][key]!r}")
        info["estimator_z_max"] = z_max
        return errors


# -- exact oracle ---------------------------------------------------------------


def final_value(traj):
    return traj.u[:, 0]


class Oracle(Workload):
    """`sgdm oracle`: the single-unknown linear scheme against its exact
    Gaussian mean/variance recursion, at workers=1 and workers=2."""

    def setup(self):
        cfg = self.cfg
        mesh = cli.build_uniform_interval(2, 0.0, 1.0)
        gd = cli.build_gd(mesh, "p1")
        return {
            "gd": gd,
            "sgd": cli.SpaceTimeGD(gd, cfg["time"]["T"], cfg["time"]["n_steps"]),
            "noise": cli.make_noise(mesh.bounding_box, 1, f0="constant"),
            "flux": cli.linear_diffusion(),
            "u0": np.array([1.0]),
        }

    def ensemble(self, pb, master_seed, n_samples, workers):
        rep = analysis.run_ensemble(
            pb["sgd"], pb["flux"], pb["noise"], pb["u0"], master_seed, n_samples,
            dict(p=2.0, translate_ells=(), dual_ells=(), with_dual=False,
                 with_martingale=False, extra_fn=final_value),
            workers=workers,
        )
        return rep.extra

    def batch(self, pb, workers):
        n = self.cfg["n_samples"]
        extra = self.ensemble(pb, self.cfg["master_seed"], n, workers)
        self.failures.add(n)
        return n, (workers, extra.n, extra.mean, extra.variance, extra.se, extra.variance_se)

    def phases(self, pb, serial_only=False):
        workers = (1,) if serial_only else (1, 2)
        return {f"workers={w}": [lambda w=w: self.batch(pb, w)] for w in workers}

    def exact_moments(self, pb):
        gd, sgd, noise = pb["gd"], pb["sgd"], pb["noise"]
        one = np.ones(1)
        mass = gd.l2_inner(one, one)
        stiff = float(one @ (gd.stiffness @ one))
        load = float((gd.P.T @ (gd.quad_w * noise.basis.values(gd.quad_x)[:, 0]))[0])
        return analysis.ou_exact_moments(mass, stiff, noise.q[0] * load, 1.0, sgd.dt, sgd.n_steps)

    def check_reference(self, pb, ref):
        exact = ref["exact"]
        extra = self.ensemble(pb, exact["master_seed"], exact["n_samples"], 1)
        errors = []
        for key, got in (("mean", extra.mean), ("variance", extra.variance)):
            want = exact[key]
            if len(got) != len(want) or not all(map(matches_recorded, got, want)):
                errors.append(f"reference ensemble: {key} {list(got)!r}, recorded {want!r}")
        return errors

    def check(self, pb, outcomes, ref, info):
        """Reports agree bit for bit across repeats and worker counts, and
        per-step z-scores against the exact recursion stay within
        ORACLE_Z_MAX."""
        errors = []
        first = outcomes[0]
        for out in outcomes[1:]:
            if out[1] != first[1] or not all(np.array_equal(a, b) for a, b in zip(out[2:], first[2:])):
                errors.append(f"workers={out[0]} report differs from workers={first[0]}")
                break
        means, variances = self.exact_moments(pb)
        _, _, mean, var, se, var_se = first
        mean_z = np.abs(mean - means)[1:] / np.maximum(se[1:], 1e-300)
        var_z = np.abs(var - variances)[1:] / np.maximum(var_se[1:], 1e-300)
        info["oracle_mean_z_max"] = float(mean_z.max())
        info["oracle_var_z_max"] = float(var_z.max())
        if not (mean_z.max() <= ORACLE_Z_MAX and var_z.max() <= ORACLE_Z_MAX):
            errors.append(
                f"oracle z-scores mean {mean_z.max():.2f}, variance {var_z.max():.2f} exceed {ORACLE_Z_MAX}"
            )
        return errors


# -- indicator battery -------------------------------------------------------------


class SineProduct:
    """prod_d sin(pi f_d x_d) on the unit square, with its gradient."""

    def __init__(self, freqs):
        self.f = np.pi * np.asarray(freqs, dtype=float)

    def __call__(self, x):
        return np.prod(np.sin(self.f * x), axis=1)

    def grad(self, x):
        s, c = np.sin(self.f * x), np.cos(self.f * x)
        return np.column_stack([self.f[0] * c[:, 0] * s[:, 1], self.f[1] * s[:, 0] * c[:, 1]])


def _poly_cubic(x):
    return np.column_stack([x[:, 0] ** 2 * (1 - x[:, 1]), x[:, 1] * (1 - x[:, 0])])


def _poly_cubic_div(x):
    return 2 * x[:, 0] * (1 - x[:, 1]) + (1 - x[:, 0])


def _sine_swirl(x):
    return np.column_stack([np.sin(np.pi * x[:, 1]), np.sin(np.pi * x[:, 0])])


def _sine_swirl_div(x):
    return np.zeros(len(x))


SINE_FIELDS = {"sin11": (1, 1), "sin21": (2, 1), "sin22": (2, 2)}
VECTOR_FIELDS = {"poly_cubic": (_poly_cubic, _poly_cubic_div), "sine_swirl": (_sine_swirl, _sine_swirl_div)}
SHIFTS = (0.5, 0.25)  # translate shifts in units of the base mesh size h0
GD_KINDS = ("p1", "cr")


class Indicators(Workload):
    """`sgdm indicators` at p=3 for P1 and Crouzeix-Raviart on a mesh and one
    refinement: 16 evaluations per space, each counted on its own. The
    battery is deterministic, so the seed does not change it."""

    def setup(self):
        levels = {}
        for kind in GD_KINDS:
            levels[kind] = [(mesh, gd) for mesh, gd, _ in cli.build_levels(dict(self.cfg, gd=kind))]
        return levels

    def evaluations(self, levels):
        """(key, function name in sgdm.indicators, arguments) in sweep order."""
        evals = []
        for kind, lv in levels.items():
            h0 = lv[0][0].h
            for lvl, (mesh, gd) in enumerate(lv):
                tag = f"{kind}/{lvl}"
                for name, freqs in SINE_FIELDS.items():
                    f = SineProduct(freqs)
                    evals.append((f"{tag}/S/{name}", "consistency_error", (gd, f, f.grad)))
                for name, (phi, div) in VECTOR_FIELDS.items():
                    evals.append((f"{tag}/W/{name}", "indicator_W", (gd, phi, div)))
                for scale in SHIFTS:
                    xi = np.array([scale * h0, 0.0])
                    evals.append((f"{tag}/T/xi={scale}h0", "indicator_T", (gd, xi)))
                evals.append((f"{tag}/C_p", "poincare_constant", (gd,)))
        return evals

    def evaluate(self, key, fn, args):
        # looked up at call time, so trace wrappers apply
        ok, value = self.failures.call(getattr(indicators, fn), *args, p=self.cfg["p"])
        return 1, (key, float(value) if ok else value)

    def phases(self, levels, serial_only=False):
        """One round is one sweep, timed evaluation by evaluation."""
        return {"sweep": [partial(self.evaluate, *ev) for ev in self.evaluations(levels)]}

    def check_reference(self, levels, ref):
        return []  # every sweep is checked against the recorded values

    def check(self, pb, outcomes, ref, info):
        """Evaluations that succeeded at the reference commit succeed and
        reproduce their value; ones that failed there may now succeed with
        a finite nonnegative value."""
        errors = []
        recorded = ref["values"]
        keys = {key for key, _ in outcomes}
        if keys != set(recorded):
            errors.append(f"evaluation keys changed: {sorted(keys ^ set(recorded))}")
        for key, got in outcomes:
            if key not in recorded:
                continue  # reported by the key check above
            want = recorded[key]
            if isinstance(got, Exception):
                if want is not None:
                    errors.append(f"{key} raised {type(got).__name__}: {got}; recorded {want!r}")
            elif want is None:
                if not (np.isfinite(got) and got >= 0.0):
                    errors.append(f"{key} = {got!r} (failed at the reference commit)")
            elif not matches_recorded(got, want):
                errors.append(f"{key} = {got!r}, recorded {want!r}")
        return errors


WORKLOADS = {
    "mc_p3_1d": MonteCarlo,
    "mc_p3_2d_sparse": MonteCarlo,
    "oracle_pool": Oracle,
    "indicators_p3_2d": Indicators,
}


def make_workload(name, seed):
    return WORKLOADS[name](name, seed)


# -- trace probes --------------------------------------------------------------------

INDICATOR_FUNCTIONS = ("consistency_error", "indicator_W", "indicator_T", "poincare_constant")
# (module or class, attribute, span name). Each wraps the name where its
# caller looks it up.
SPANS = (
    (cli, "build_uniform_interval", "mesh.build"),
    (cli, "build_uniform_triangulation", "mesh.build"),
    (cli, "refine", "mesh.refine"),
    (cli, "build_gd", "gd.build_gd"),
    (scheme, "eval_flux", "flux.eval_flux"),
    (scheme, "eval_flux_jacobian", "flux.eval_flux_jacobian"),
    (scheme, "sample_increment", "noise.sample_increment"),
    (scheme.Stepper, "__init__", "scheme.Stepper.init"),
    (scheme.Stepper, "step", "scheme.step"),
    (scheme.Stepper, "_solve", "scheme.linear_solve"),
    (analysis.EnsembleAccumulator, "__init__", "analysis.EnsembleAccumulator.init"),
    (analysis.EnsembleAccumulator, "summarize", "analysis.summarize"),
    (analysis.EnsembleAccumulator, "add_summary", "analysis.add_summary"),
    (analysis.DualNormSolver, "batch", "analysis.dual_batch"),
    (analysis, "fractional_norm", "analysis.fractional_norm"),
    *((indicators, fn, f"indicators.{fn}") for fn in INDICATOR_FUNCTIONS),
    (indicators, "translate_overlap", "indicators.translate_overlap"),
)
# Called thousands of times per evaluation: counted, not spanned.
COUNTS = (
    (indicators, "clip_polygon", "indicators.clip_polygon"),
    (indicators, "polygon_rule", "quadrature.polygon_rule"),
)
ENSEMBLE_SPAN = "analysis.run_ensemble"
TRAJECTORY_SPAN = "scheme.run_trajectory"


def instrument(tracer):
    """Wrap every probed library name; ``tracer.restore()`` undoes it."""

    def on_trajectory(traj):
        tracer.counts["scheme.newton_iters"] += int(traj.per_step_newton_iters.sum())
        tracer.counts["scheme.steps"] += len(traj.per_step_newton_iters)

    for owner, attr, name in SPANS:
        tracer.wrap(owner, attr, name)
    for owner, attr, name in COUNTS:
        tracer.count(owner, attr, name)
    tracer.wrap(analysis, "run_ensemble", ENSEMBLE_SPAN, sample="end")
    tracer.wrap(analysis, "run_trajectory", TRAJECTORY_SPAN, sample="begin", on_return=on_trajectory)


def layer_metrics(tracer, workload):
    """Per-layer values by metric name; a layer never reached reads 0."""
    stats = span_stats(tracer)
    out = {}
    for name in {s[2] for s in SPANS} | {ENSEMBLE_SPAN, TRAJECTORY_SPAN}:
        st = stats.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for stat, value in st.items():
            out[f"{name}.{stat}"] = value
    for _, _, name in COUNTS:
        out[f"{name}.calls"] = tracer.counts[name]
    steps = tracer.counts["scheme.steps"]
    out["scheme.newton_iters_per_step"] = tracer.counts["scheme.newton_iters"] / steps if steps else 0.0
    out["indicators.failed"] = sum(tracer.counts[f"indicators.{fn}.raised"] for fn in INDICATOR_FUNCTIONS)
    out["failed_share"] = workload.failures.failed_share
    return out
