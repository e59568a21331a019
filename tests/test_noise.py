"""Q-Wiener increment sampling, the multiplicative noise operator and the
growth-bound probes."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sgdm import build_gd, build_uniform_interval, build_uniform_triangulation
from sgdm import noise as noise_module
from sgdm.flux import linear_diffusion
from sgdm.noise import (
    growth_check,
    keyed_normals,
    make_noise,
    philox_words,
    sample_increment,
    stream_keys,
    ziggurat_tables,
)
from sgdm.scheme import SpaceTimeGD, Stepper


@pytest.fixture(scope="module")
def gd16():
    return build_gd(build_uniform_interval(16, 0.0, 1.0), "p1")


class TestIncrements:
    def test_variance_matches_dt(self):
        noise = make_noise([[0.0], [1.0]], 1, q=[1.0], f0="constant")
        draws = sample_increment(noise, 123, np.arange(100_000), 1, 0.01)[:, 0]
        assert 0.0097 <= draws.var() <= 0.0103  # 3 sigma band around 0.01
        assert abs(draws.mean()) <= 3.0 * 0.1 / np.sqrt(len(draws))

    def test_zero_spectrum(self):
        noise = make_noise([[0.0], [1.0]], 3, q=[0.0, 0.0, 0.0], f0="constant")
        inc = sample_increment(noise, 1, 2, 3, 0.5)
        np.testing.assert_array_equal(inc, 0.0)

    def test_k_norm_mean_is_trace_times_dt(self):
        noise = make_noise([[0.0], [1.0]], 8, spectrum_s=1.5, f0="tanh")
        dt = 0.125
        sq = np.sum(sample_increment(noise, 9, np.arange(20_000), 1, dt) ** 2, axis=1)
        expected = dt * noise.trace
        se = sq.std(ddof=1) / np.sqrt(len(sq))
        assert abs(sq.mean() - expected) <= 3.0 * se

    def test_nonpositive_dt_rejected(self):
        noise = make_noise([[0.0], [1.0]], 1, f0="zero")
        with pytest.raises(ValueError):
            sample_increment(noise, 0, 0, 0, 0.0)

    def test_bit_reproducible(self):
        noise = make_noise([[0.0], [1.0]], 4, f0="tanh")
        a = sample_increment(noise, 77, 5, 9, 0.1)
        b = sample_increment(noise, 77, 5, 9, 0.1)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_uncorrelated(self):
        noise = make_noise([[0.0], [1.0]], 1, q=[1.0], f0="constant")
        n = 10_000
        a = sample_increment(noise, 5, np.arange(n), 1, 1.0)[:, 0]
        b = sample_increment(noise, 5, np.arange(n), 2, 1.0)[:, 0]
        c = sample_increment(noise, 6, np.arange(n), 1, 1.0)[:, 0]
        assert abs(np.corrcoef(a, b)[0, 1]) <= 3.0 / np.sqrt(n)
        assert abs(np.corrcoef(a, c)[0, 1]) <= 3.0 / np.sqrt(n)


def _numpy_stream(master_seed, sample, step):
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(sample, step))
    return np.random.Generator(np.random.Philox(ss))


class TestBlockStreams:
    SAMPLES = np.array([0, 2**32 + 1, 5, 0, 2**32 - 1])

    @pytest.mark.parametrize("master_seed", [0, 11, 2**32 + 5, 2**70])
    @pytest.mark.parametrize("step", [0, 1, 16])
    def test_block_draws_bit_identical_to_per_key_generators(self, master_seed, step):
        noise = make_noise([[0.0], [1.0]], 6, q=np.ones(6), f0="constant")
        block = sample_increment(noise, master_seed, self.SAMPLES, step, 1.0)
        assert block.shape == (len(self.SAMPLES), 6)
        for row, s in zip(block, self.SAMPLES.tolist()):
            np.testing.assert_array_equal(row, _numpy_stream(master_seed, s, step).standard_normal(6))
            alone = sample_increment(noise, master_seed, s, step, 1.0)
            np.testing.assert_array_equal(row, alone)

    @pytest.mark.parametrize("master_seed", [0, 11, 2**32 + 5, 2**70, 2**128 + 3])
    def test_block_keys_are_seed_sequence_states(self, master_seed):
        samples = np.concatenate([np.arange(40), self.SAMPLES])
        for step in (0, 1, 16, 2**40):
            keys = stream_keys(master_seed, samples, step)
            want = [
                np.random.SeedSequence(entropy=master_seed, spawn_key=(s, step)).generate_state(2, np.uint64)
                for s in samples.tolist()
            ]
            np.testing.assert_array_equal(keys, want)

    def test_scaled_rows_and_row_norms(self):
        noise = make_noise([[0.0], [1.0]], 4, f0="tanh")
        inc = sample_increment(noise, 7, np.arange(3), 2, 0.25)
        for s in range(3):
            alone = sample_increment(noise, 7, s, 2, 0.25)
            np.testing.assert_array_equal(inc[s], alone)

    def test_negative_sample_rejected(self):
        noise = make_noise([[0.0], [1.0]], 1, f0="constant")
        with pytest.raises(ValueError, match="nonnegative"):
            sample_increment(noise, 1, np.array([3, -1]), 1, 0.1)

    def test_negative_master_seed_rejected(self):
        noise = make_noise([[0.0], [1.0]], 1, f0="constant")
        with pytest.raises(ValueError):
            sample_increment(noise, -1, 0, 1, 0.1)

    def test_philox_words_are_numpy_raw_words(self):
        # keys of streams, random keys and the extreme ones, over several
        # blocks of four words and the partial blocks between them
        random = np.random.default_rng(3).integers(0, 2**64, (8, 2), dtype=np.uint64)
        extreme = np.array([[0, 0], [2**64 - 1, 2**64 - 1], [2**63, 1]], dtype=np.uint64)
        keys = np.concatenate([stream_keys(11, np.arange(8), 1), random, extreme])
        for n in (1, 3, 4, 5, 23):
            words = philox_words(keys, n)
            assert words.shape == (len(keys), n) and words.dtype == np.uint64
            for key, row in zip(keys, words):
                np.testing.assert_array_equal(row, np.random.Philox(key=key).random_raw(n))

    def test_fast_path_in_use(self, monkeypatch):
        # the derived tables pass their check on this numpy, so only the
        # streams with a draw off the fast path (about 1.5% at one draw
        # each) go to numpy
        assert ziggurat_tables() is not None
        loop, calls = noise_module._keyed_normals, []
        monkeypatch.setattr(noise_module, "_keyed_normals", lambda key, n: calls.append(n) or loop(key, n))
        noise = make_noise([[0.0], [1.0]], 1, q=[1.0], f0="constant")
        coeffs = sample_increment(noise, 5, np.arange(1000), 2, 1.0)
        assert 0 < len(calls) < 50
        want = [_numpy_stream(5, s, 2).standard_normal(1) for s in range(1000)]
        np.testing.assert_array_equal(coeffs, want)

    def test_tables_derived_on_the_first_array_draw(self):
        # in a fresh process: not by importing sgdm or building a noise model,
        # but by the first draw, of a single stream
        script = (
            "import sgdm\n"
            "from sgdm.noise import make_noise, sample_increment, ziggurat_tables\n"
            "noise = make_noise([[0.0], [1.0]], 4)\n"
            "assert ziggurat_tables.cache_info().currsize == 0\n"
            "sample_increment(noise, 0, 0, 1, 0.1)\n"
            "assert ziggurat_tables.cache_info().currsize == 1\n"
        )
        src_dir = str(Path(noise_module.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)

    def test_wrong_tables_rejected(self):
        ki, wi = ziggurat_tables()
        keys = stream_keys(5, np.arange(300), 2)
        want = np.array([_numpy_stream(5, s, 2).standard_normal(8) for s in range(300)])
        np.testing.assert_array_equal(keyed_normals(keys, 8, (ki, wi)), want)
        wrong = {
            "wi one ulp high": (ki, np.nextafter(wi, np.inf)),
            "every draw on the fast path": (np.full(256, 2**52, dtype=np.uint64), wi),
            "no draw on the fast path": (np.zeros(256, dtype=np.uint64), wi),
        }
        for name, tables in wrong.items():
            if name != "no draw on the fast path":
                assert not np.array_equal(keyed_normals(keys, 8, tables), want), name
            assert noise_module._checked_tables(tables) is None, name
            np.testing.assert_array_equal(keyed_normals(keys, 8, noise_module._checked_tables(tables)), want)


class TestStreamGrid:
    """Keys and draws of a sample x step grid, the noise of a block's path."""

    SAMPLES = np.array([0, 3, 2**32 - 1, 2**32, 2**32 + 1])
    STEPS = np.array([0, 1, 16, 2**32 - 1, 2**32, 2**40])

    @pytest.mark.parametrize("master_seed", [0, 11, 2**32 + 5, 2**70, 2**128 + 3])
    def test_grid_keys_are_seed_sequence_states(self, master_seed):
        keys = stream_keys(master_seed, self.SAMPLES[:, None], self.STEPS)
        assert keys.shape == (len(self.SAMPLES), len(self.STEPS), 2)
        for i, s in enumerate(self.SAMPLES.tolist()):
            for j, n in enumerate(self.STEPS.tolist()):
                want = np.random.SeedSequence(entropy=master_seed, spawn_key=(s, n)).generate_state(2, np.uint64)
                np.testing.assert_array_equal(keys[i, j], want)

    def test_path_draw_is_the_per_step_draws(self):
        noise = make_noise([[0.0], [1.0]], 5, f0="tanh")
        samples = np.array([4, 2**32 + 3, 9])
        block = sample_increment(noise, 11, samples[:, None], np.arange(1, 9), 0.1)
        assert block.shape == (3, 8, 5)
        for row, s in zip(block, samples.tolist()):
            for n in range(8):
                alone = sample_increment(noise, 11, s, n + 1, 0.1)
                np.testing.assert_array_equal(row[n], alone)

    # 1000 samples on both sides of 2**32 by 4 steps, two of them above 2**32
    MANY_SAMPLES = np.concatenate([np.arange(500), 2**32 - 250 + np.arange(500)])
    MANY_STEPS = np.array([1, 7, 2**32 + 3, 2**40])

    @pytest.mark.parametrize("k_max", [1, 8, 16, 64])
    def test_grid_draws_are_numpy_draws_through_both_slow_paths(self, k_max):
        noise = make_noise([[0.0], [1.0]], k_max, q=np.ones(k_max), f0="constant")
        keys = stream_keys(2024, self.MANY_SAMPLES[:, None], self.MANY_STEPS).reshape(-1, 2)
        want = [
            _numpy_stream(2024, s, n).standard_normal(k_max)
            for s, n in itertools.product(self.MANY_SAMPLES.tolist(), self.MANY_STEPS.tolist())
        ]
        # the array path, and sample_increment, which takes it at every k_max
        block = keyed_normals(keys, k_max, ziggurat_tables())
        assert block.shape == (4000, k_max)
        np.testing.assert_array_equal(block, want)
        np.testing.assert_array_equal(sample_increment(noise, 2024, self.MANY_SAMPLES[:, None], self.MANY_STEPS, 1.0).reshape(-1, k_max), want)
        # some streams leave the fast path first at layer 0 (the tail) and
        # some at another layer (a wedge)
        ki, _ = ziggurat_tables()
        words = philox_words(keys, k_max)
        layer = (words & 0xFF).astype(int)
        off = ((words >> 9) & (2**52 - 1)) >= ki[layer]
        rows = np.flatnonzero(off.any(axis=1))
        first = layer[rows, off[rows].argmax(axis=1)]
        assert np.any(first == 0) and np.any(first != 0)

    def test_negative_step_rejected(self):
        noise = make_noise([[0.0], [1.0]], 1, f0="constant")
        with pytest.raises(ValueError, match="nonnegative"):
            sample_increment(noise, 1, np.array([[3]]), np.array([2, -1]), 0.1)


class TestBasis:
    def test_orthonormal_under_quadrature_1d(self):
        gd = build_gd(build_uniform_interval(64, 0.0, 1.0), "p1")
        noise = make_noise(gd.mesh.bounding_box, 8, f0="tanh")
        E = noise.basis.values(gd.quad_x)
        gram = E.T @ (gd.quad_w[:, None] * E)
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-8)

    def test_orthonormal_under_quadrature_2d(self):
        m = build_uniform_triangulation(16, 16)
        gd = build_gd(m, "p1")
        noise = make_noise(m.bounding_box, 6, f0="tanh")
        E = noise.basis.values(gd.quad_x)
        gram = E.T @ (gd.quad_w[:, None] * E)
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)

    def test_rectangle_scaling(self):
        noise = make_noise([[0.0, 0.0], [2.0, 0.5]], 4, f0="zero")
        pts = np.random.default_rng(0).uniform([0, 0], [2, 0.5], (64, 2))
        vals = noise.basis.values(pts)
        assert np.all(np.isfinite(vals))
        assert vals.shape == (64, 4)


def noise_values(noise, gd, v, inc, dt):
    """f0(Pi v) * sum_k c_k e_k at the quadrature points, as a step
    evaluates it (``Stepper.noise_values`` on a block of one)."""
    stepper = Stepper(SpaceTimeGD(gd, T=dt, n_steps=1), linear_diffusion(), noise)
    return stepper.noise_values(v[None], inc[None])[0]


class TestApplyNoise:
    def test_zero_multiplier(self, gd16):
        noise = make_noise(gd16.mesh.bounding_box, 4, f0="zero")
        inc = sample_increment(noise, 3, 0, 1, 0.1)
        v = np.random.default_rng(1).standard_normal(gd16.n_dofs)
        np.testing.assert_array_equal(noise_values(noise, gd16, v, inc, 0.1), 0.0)

    def test_constant_multiplier_single_mode(self, gd16):
        noise = make_noise(gd16.mesh.bounding_box, 1, q=[0.5], f0="constant")
        inc = sample_increment(noise, 3, 1, 1, 0.1)
        out = noise_values(noise, gd16, np.zeros(gd16.n_dofs), inc, 0.1)
        e1 = noise.basis.values(gd16.quad_x)[:, 0]
        np.testing.assert_allclose(out, inc[0] * e1, atol=1e-13)

    def test_identity_multiplier_hand_formula(self):
        gd = build_gd(build_uniform_interval(8, 0.0, 1.0), "p1_lumped")
        noise = make_noise(gd.mesh.bounding_box, 3, f0="identity")
        inc = sample_increment(noise, 4, 0, 2, 0.05)
        c = 0.8
        v = np.full(gd.n_dofs, c)  # lumped reconstruction is exactly c inside
        inside = (gd.quad_x[:, 0] > 0.07) & (gd.quad_x[:, 0] < 0.93)
        out = noise_values(noise, gd, v, inc, 0.05)[inside]
        expected = c * (noise.basis.values(gd.quad_x[inside]) @ inc)
        np.testing.assert_allclose(out, expected, atol=1e-13)


class TestGrowthCheck:
    def test_bounded_multiplier_operator_bound(self, gd16):
        # tanh bounded by 1: F1 = 0, F2 = 1 is the valid operator-norm bound
        noise = make_noise(gd16.mesh.bounding_box, 4, f0="tanh")
        rep = growth_check(noise, gd16, trials=10_000, amplitude=3.0, rng_seed=0)
        assert rep.passed

    def test_additive_isometry(self, gd16):
        noise = make_noise(gd16.mesh.bounding_box, 4, f0="constant")
        rep = growth_check(noise, gd16, trials=5_000, rng_seed=1)
        assert rep.passed
        assert rep.max_excess <= 1e-10

    def test_identity_with_basis_bound(self, gd16):
        noise = make_noise(gd16.mesh.bounding_box, 4, f0="identity")
        rep = growth_check(noise, gd16, trials=5_000, amplitude=5.0, rng_seed=2)
        assert rep.passed

    def test_unbounded_multiplier_flagged(self, gd16):
        # f0(s) = s^2 with linear-growth constants must violate at amplitude
        noise = make_noise(gd16.mesh.bounding_box, 4, f0=lambda s: s**2, F1=1.0, F2=1.0)
        rep = growth_check(noise, gd16, trials=2_000, amplitude=50.0, rng_seed=3)
        assert rep.violations > 0

    def test_unknown_f0_offers_the_other_forms(self, gd16):
        # "custom" is the kind a callable or a table gets, not a value to pass
        with pytest.raises(ValueError, match="unknown f0 'custom'") as err:
            make_noise(gd16.mesh.bounding_box, 4, f0="custom")
        offered = str(err.value).split("expected", 1)[1]
        assert "custom" not in offered
        assert "callable" in offered and "table" in offered

    def test_custom_requires_constants(self, gd16):
        with pytest.raises(ValueError):
            make_noise(gd16.mesh.bounding_box, 2, f0=lambda s: s)

    def test_table_multiplier(self, gd16):
        noise = make_noise(gd16.mesh.bounding_box, 2, f0=[[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(noise.f0(np.array([-0.5, 0.0, 0.25])), [0.5, 1.0, 0.75])
        # clamped outside the table, so the default operator bound is valid
        assert noise.f0(np.array([9.0]))[0] == 0.0
        assert noise.F2 == 1.0
        rep = growth_check(noise, gd16, trials=2000, amplitude=10.0, rng_seed=4)
        assert rep.passed

    def test_table_must_be_increasing(self, gd16):
        with pytest.raises(ValueError, match="increasing"):
            make_noise(gd16.mesh.bounding_box, 2, f0=[[1.0, 0.0], [0.0, 1.0]])
