"""Shared fixtures and field definitions for the test suite."""

import numpy as np
import pytest
from scipy.optimize import minimize

from sgdm import build_gd, build_uniform_interval, build_uniform_triangulation, refine


def sin_pi(x):
    return np.sin(np.pi * x[:, 0])


def grad_sin_pi(x):
    return (np.pi * np.cos(np.pi * x[:, 0]))[:, None]


def parabola(x):
    return x[:, 0] * (1.0 - x[:, 0])


def grad_parabola(x):
    return (1.0 - 2.0 * x[:, 0])[:, None]


def sin_product(x):
    return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])


def grad_sin_product(x):
    return np.column_stack(
        [
            np.pi * np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]),
            np.pi * np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1]),
        ]
    )


def zero_field(x):
    return np.zeros(len(np.atleast_2d(x)))


def count_calls(monkeypatch, names):
    """Wrap each (owner, name) to count its calls; returns the counts by name."""
    calls = dict.fromkeys((name for _, name in names), 0)
    for owner, name in names:
        original = getattr(owner, name)

        def wrapper(*args, original=original, name=name, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


def dual_norm_oracle(gd, c):
    """The p = 2 dual norm sup |c . phi| / (||Pi phi||_2 + ||grad phi||_2) as
    1 / min{||Pi phi||_2 + ||grad phi||_2 : c . phi = 1}, by SLSQP. The
    objective is convex and the constraint affine, so the minimum it finds
    is the global one."""
    M, K = gd.mass.toarray(), gd.stiffness.toarray()

    def norm(phi):
        return gd.lp_norm(phi, 2.0) + gd.grad_lp_norm(phi, 2.0)

    def grad(phi):
        return M @ phi / gd.lp_norm(phi, 2.0) + K @ phi / gd.grad_lp_norm(phi, 2.0)

    constraint = {"type": "eq", "fun": lambda phi: c @ phi - 1.0, "jac": lambda phi: c}
    res = minimize(norm, c / (c @ c), jac=grad, method="SLSQP", constraints=[constraint],
                   options=dict(ftol=1e-15, maxiter=1000))
    assert res.success, res.message
    return 1.0 / res.fun


@pytest.fixture(scope="session")
def interval_meshes():
    """Nested refinements of (0, 1): 4, 8, 16, 32 cells."""
    meshes = [build_uniform_interval(4, 0.0, 1.0)]
    for _ in range(3):
        meshes.append(refine(meshes[-1]))
    return meshes


@pytest.fixture(scope="session")
def square_meshes():
    """Nested criss-cross refinements of the unit square."""
    meshes = [build_uniform_triangulation(2, 2)]
    for _ in range(3):
        meshes.append(refine(meshes[-1]))
    return meshes


@pytest.fixture(scope="session")
def gd_interval_16(interval_meshes):
    return build_gd(interval_meshes[2], "p1")


@pytest.fixture(scope="session")
def single_dof_gd():
    """Two cells on (0, 1): one interior hat function."""
    return build_gd(build_uniform_interval(2, 0.0, 1.0), "p1")
