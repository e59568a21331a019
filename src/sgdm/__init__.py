"""Gradient-discretisation solvers and estimators for stochastic p-Laplace
evolution equations with multiplicative Q-Wiener noise."""

from .mesh import Mesh, MeshError, build_uniform_interval, build_uniform_triangulation, load_mesh, refine, save_mesh
from .gd import CROUZEIX_RAVIART, P1_CONFORMING, P1_MASS_LUMPED, GradientDiscretisation, build_gd
from .indicators import BestFit, indicator_T, indicator_W, interpolate_best, poincare_constant
from .flux import FluxModel, eval_flux, eval_flux_jacobian, linear_diffusion, p_laplace, probe_assumptions, regularized_p_laplace
from .noise import NoiseModel, growth_check, make_noise, sample_increment
from .scheme import (
    SolverConfig, SpaceTimeGD, StepFailure, Trajectory, energy_identity_residual, run_block, run_trajectory,
)
from . import analysis

__version__ = "0.1.0"
