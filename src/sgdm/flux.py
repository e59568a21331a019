"""Leray-Lions flux functions a(x, y): coercive, growth-bounded, monotone
maps of (solution value, gradient) used in the divergence-form operator.

Built-in kinds:

* ``p_laplace``:             a(x, y) = |y|^(p-2) y
* ``regularized_p_laplace``: a(x, y) = (1 + |y|)^(p-2) y
* ``linear``:                a(x, y) = y
* ``custom``:                user-supplied callables.

The built-in kinds ignore the value ``x`` and depend on the gradient alone;
``FluxModel.depends_on_value`` is true only for ``custom``. Where the
gradient is constant per cell, a built-in flux is constant per cell too.

For p < 2 the p-Laplace Jacobian is singular at y = 0; Newton solvers use
the Jacobian of the smoothed flux (eps^2 + |y|^2)^((p-2)/2) y controlled by
``newton_epsilon``, while residuals use the flux itself.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

P_LAPLACE = "p_laplace"
REGULARIZED_P_LAPLACE = "regularized_p_laplace"
LINEAR_DIFFUSION = "linear"
CUSTOM = "custom"


@dataclass(frozen=True)
class FluxModel:
    """A flux a(x, y) with growth exponent p and structure constants c1, c2.

    c1 and c2 are the declared coercivity/growth constants:
    a(x,y).y >= c1 |y|^p and |a(x,y)| <= c2 (1 + |y|^(p-1)).
    """

    kind: str
    p: float
    c1: float = 1.0
    c2: float = 1.0
    newton_epsilon: float = 0.0
    fn: Callable | None = field(default=None, compare=False)
    jac: Callable | None = field(default=None, compare=False)

    def __post_init__(self):
        if not 1.0 < self.p < math.inf:
            raise ValueError(f"p must be > 1 and finite, got {self.p}")
        for name in ("c1", "c2"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be a positive finite number, got {getattr(self, name)}")
        if not 0.0 <= self.newton_epsilon < math.inf:
            raise ValueError(f"newton_epsilon must be a non-negative finite number, got {self.newton_epsilon}")

    @property
    def is_linear(self):
        return self.kind == LINEAR_DIFFUSION or (self.kind == P_LAPLACE and self.p == 2.0)

    @property
    def depends_on_value(self):
        return self.kind == CUSTOM


def p_laplace(p, newton_epsilon=None):
    if newton_epsilon is None:
        newton_epsilon = 1e-6 if p < 2.0 else 0.0
    return FluxModel(P_LAPLACE, p, newton_epsilon=newton_epsilon)


def regularized_p_laplace(p):
    # |a| = (1+r)^(p-2) r <= 2^(p-2) (1 + r^(p-1)) for p >= 2 (and <= 1 + r^(p-1)
    # for p <= 2), so the declared growth constant must carry the 2^(p-2) factor
    return FluxModel(REGULARIZED_P_LAPLACE, p, c2=max(1.0, 2.0 ** (p - 2.0)))


def linear_diffusion():
    return FluxModel(LINEAR_DIFFUSION, 2.0)


def custom_flux(p, fn, jac=None, c1=1.0, c2=1.0):
    """Wrap a user flux fn(x, y) -> (n, d); the assumption probe is the
    validation tool for the declared constants."""
    return FluxModel(CUSTOM, p, c1=c1, c2=c2, fn=fn, jac=jac)


def eval_flux(model, x, y):
    """Evaluate a(x, y) for batched values x (n,), or None for a flux that
    does not read them, and gradients y (n, d).

    The built-in kinds compute on the components ``y[:, k]`` as rows, so an
    F-ordered y (a view of (d, n) memory, as the stepper passes it) runs
    every operation over n contiguous entries; the result has the layout of
    y, and its values do not depend on it."""
    x = None if x is None else np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x is not None and np.any(~np.isfinite(x)) or np.any(~np.isfinite(y)):
        raise ValueError("flux arguments must be finite")
    if model.kind == LINEAR_DIFFUSION:
        return y.copy(order="K")
    if model.kind == P_LAPLACE:
        r = np.sqrt(_square_sum(y.T))
        w = np.zeros_like(r)
        nz = r > 0
        w[nz] = r[nz] ** (model.p - 2.0)
        return (w * y.T).T
    if model.kind == REGULARIZED_P_LAPLACE:
        r = np.sqrt(_square_sum(y.T))
        return ((1.0 + r) ** (model.p - 2.0) * y.T).T
    return np.asarray(model.fn(x, y), dtype=float).reshape(y.shape)


def eval_flux_jacobian(model, x, y):
    """Jacobian in y of the (smoothed) flux, batched, x and y as in ``eval_flux``: (n, d, d).

    For the built-in kinds and the finite-difference Jacobian the result is
    a view of (d, d, n) memory, entry (k, l) one contiguous row over the n
    points, filled row by row from the components of y as in ``eval_flux``.
    A custom ``jac`` is returned as it lays its result out."""
    x = None if x is None else np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    n, d = y.shape
    yt = y.T
    if model.kind == LINEAR_DIFFUSION:
        out = np.zeros((d, d, n))
        out[range(d), range(d)] = 1.0
        return out.transpose(2, 0, 1)
    if model.kind == P_LAPLACE:
        r2 = np.maximum(_square_sum(yt) + model.newton_epsilon**2, 1e-300)
        a = r2 ** ((model.p - 2.0) / 2.0)
        b = (model.p - 2.0) * r2 ** ((model.p - 4.0) / 2.0)
    elif model.kind == REGULARIZED_P_LAPLACE:
        r = np.sqrt(_square_sum(yt))
        a = (1.0 + r) ** (model.p - 2.0)
        b = np.zeros(n)
        np.divide((model.p - 2.0) * (1.0 + r) ** (model.p - 3.0), r, out=b, where=r > 0)
    elif model.jac is not None:
        return np.asarray(model.jac(x, y), dtype=float).reshape(n, d, d)
    else:
        return _fd_jacobian(model, x, y)
    # a I + b y y^T entry by entry, exactly symmetric; off the diagonal the
    # zero of a I is added too, as it turns a product -0.0 into 0.0
    out = np.empty((d, d, n))
    for k in range(d):
        out[k, k] = a + b * (yt[k] * yt[k])
        for l in range(k):
            out[k, l] = out[l, k] = b * (yt[k] * yt[l]) + 0.0
    return out.transpose(2, 0, 1)


def _square_sum(rows):
    """|y|^2 from the component rows (d, n) of y, added in component order."""
    total = rows[0] * rows[0]
    for row in rows[1:]:
        total += row * row
    return total


def _fd_jacobian(model, x, y, h=1e-7):
    n, d = y.shape
    out = np.empty((d, d, n))
    for k in range(d):
        dy = np.zeros_like(y)
        dy[:, k] = h
        out[:, k] = ((eval_flux(model, x, y + dy) - eval_flux(model, x, y - dy)) / (2 * h)).T
    return out.transpose(2, 0, 1)


@dataclass
class ProbeReport:
    """Outcome of randomized checks of coercivity, growth and monotonicity."""

    n_samples: int
    coercivity_violations: int
    growth_violations: int
    monotonicity_violations: int
    tight_c1: float
    tight_c2: float

    @property
    def passed(self):
        return (
            self.coercivity_violations == 0
            and self.growth_violations == 0
            and self.monotonicity_violations == 0
        )


PROBE_RANGE = 5.0
PROBE_SLACK = 1e-12


def probe_assumptions(model, n_samples, rng_seed=0, dim=2):
    """Sample x, y and z uniformly from the box of half-width PROBE_RANGE and
    count violations of the three structure inequalities beyond PROBE_SLACK;
    report empirically tight constants."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(rng_seed)
    x = rng.uniform(-PROBE_RANGE, PROBE_RANGE, n_samples)
    y = rng.uniform(-PROBE_RANGE, PROBE_RANGE, (n_samples, dim))
    z = rng.uniform(-PROBE_RANGE, PROBE_RANGE, (n_samples, dim))

    ay = eval_flux(model, x, y)
    az = eval_flux(model, x, z)
    ry = np.linalg.norm(y, axis=1)

    coer = np.sum(ay * y, axis=1) - model.c1 * ry**model.p
    growth = model.c2 * (1.0 + ry ** (model.p - 1.0)) - np.linalg.norm(ay, axis=1)
    mono = np.sum((ay - az) * (y - z), axis=1)

    nz = ry > 1e-12
    tight_c1 = float(np.min(np.sum(ay * y, axis=1)[nz] / ry[nz] ** model.p)) if nz.any() else np.inf
    tight_c2 = float(np.max(np.linalg.norm(ay, axis=1) / (1.0 + ry ** (model.p - 1.0))))

    return ProbeReport(
        n_samples=n_samples,
        coercivity_violations=int(np.sum(coer < -PROBE_SLACK)),
        growth_violations=int(np.sum(growth < -PROBE_SLACK)),
        monotonicity_violations=int(np.sum(mono < -PROBE_SLACK)),
        tight_c1=tight_c1,
        tight_c2=tight_c2,
    )
