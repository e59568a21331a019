"""Truncated Karhunen-Loeve Q-Wiener increments and the pointwise
multiplicative noise operator.

The driving process is W(t) = sum_k q_k W_k(t) e_k with independent scalar
Wiener processes W_k, truncated at k_max modes. The spectral basis consists
of sine products on the bounding rectangle, which are L^2-orthonormal when
the domain fills the rectangle. The noise operator maps a state v to the
multiplication operator k |-> f0(v(.)) k(.).
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

F0_KINDS = ("zero", "constant", "identity", "tanh", "custom")


class SineBasis:
    """Sine-product eigenbasis on a bounding rectangle, L^2-orthonormal."""

    def __init__(self, bbox, k_max):
        bbox = np.asarray(bbox, dtype=float)
        self.bbox = bbox
        self.dim = bbox.shape[1]
        self.k_max = k_max
        self.lengths = bbox[1] - bbox[0]
        if self.dim == 1:
            self.modes = np.arange(1, k_max + 1)[:, None]
        else:
            # deterministic enumeration of (i, j) pairs by increasing frequency
            n = int(np.ceil(np.sqrt(k_max))) + 2
            pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
            pairs.sort(key=lambda ij: (ij[0] ** 2 + ij[1] ** 2, ij[0], ij[1]))
            self.modes = np.array(pairs[:k_max])
        self.norm = np.sqrt(2.0**self.dim / np.prod(self.lengths))

    def values(self, points):
        """Basis values at (n, dim) points, as an (n, k_max) array."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        rel = (points - self.bbox[0]) / self.lengths  # (n, dim) in [0,1]
        out = np.ones((len(points), self.k_max))
        for d in range(self.dim):
            out *= np.sin(np.pi * np.outer(rel[:, d], self.modes[:, d]))
        return self.norm * out

    def sup_norms(self):
        return np.full(self.k_max, self.norm)


@dataclass(frozen=True)
class NoiseModel:
    """Truncated Q-Wiener spectrum plus the scalar multiplier f0."""

    k_max: int
    q: np.ndarray
    basis: SineBasis
    f0: Callable
    f0_kind: str
    F1: float
    F2: float

    @property
    def trace(self):
        """Trace of the covariance in the series representation: sum q_k^2."""
        return float(np.sum(self.q**2))

    @property
    def is_zero(self):
        return self.f0_kind == "zero" or np.all(self.q == 0.0)


def make_noise(bbox, k_max, spectrum_s=1.5, f0="tanh", f0_constant=1.0, q=None, F1=None, F2=None):
    """Build a noise model on the bounding box of the domain.

    The default spectrum is q_k = k^(-s). Growth constants default to valid
    bounds for the built-in multipliers: bounded f0 gives an additive-type
    bound (F1 = 0, F2 = sup|f0|^2); the identity multiplier is bounded
    through the sup norms of the truncated basis.
    """
    basis = SineBasis(np.asarray(bbox, dtype=float), k_max)
    if q is None:
        q = np.arange(1, k_max + 1, dtype=float) ** (-spectrum_s)
    q = np.asarray(q, dtype=float).reshape(k_max)
    if np.any(q < 0):
        raise ValueError("spectrum coefficients must be nonnegative")

    if isinstance(f0, (list, tuple, np.ndarray)) and not isinstance(f0, str):
        table = np.asarray(f0, dtype=float).reshape(-1, 2)
        if len(table) < 1 or np.any(np.diff(table[:, 0]) <= 0):
            raise ValueError("f0 table needs strictly increasing sample points")
        kind, fn = "custom", _TableMultiplier(table)
        # np.interp clamps outside the table, so the multiplier is bounded
        F1 = 0.0 if F1 is None else F1
        F2 = float(np.max(np.abs(table[:, 1])) ** 2) if F2 is None else F2
    elif callable(f0):
        kind, fn = "custom", f0
        if F1 is None or F2 is None:
            raise ValueError("custom f0 requires explicit F1 and F2")
    elif f0 == "zero":
        kind, fn = "zero", _zero_multiplier
        F1, F2 = 0.0, 0.0
    elif f0 == "constant":
        kind, fn = "constant", _ConstantMultiplier(f0_constant)
        F1 = 0.0 if F1 is None else F1
        F2 = f0_constant**2 if F2 is None else F2
    elif f0 == "identity":
        kind, fn = "identity", _identity_multiplier
        # |f(v)k| <= ||k||_inf |v|; ||k||_inf <= sqrt(sum_k sup|e_k|^2) for unit k
        F1 = float(np.sum(basis.sup_norms() ** 2)) if F1 is None else F1
        F2 = 0.0 if F2 is None else F2
    elif f0 == "tanh":
        kind, fn = "tanh", np.tanh
        F1 = 0.0 if F1 is None else F1
        F2 = 1.0 if F2 is None else F2
    else:
        raise ValueError(f"unknown f0 {f0!r}; expected callable or one of {F0_KINDS}")
    return NoiseModel(k_max, q, basis, fn, kind, float(F1), float(F2))


def _zero_multiplier(s):
    return np.zeros_like(s)


def _identity_multiplier(s):
    return s


class _ConstantMultiplier:
    def __init__(self, c):
        self.c = float(c)

    def __call__(self, s):
        return np.full_like(s, self.c)


class _TableMultiplier:
    """Piecewise-linear interpolation of a (points, values) table, clamped to
    the edge values outside the sampled range."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)

    def __call__(self, s):
        return np.interp(s, self.table[:, 0], self.table[:, 1])


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (master seed, sample, time).

    The stream is numpy's ``Generator(Philox(SeedSequence(entropy=
    master_seed, spawn_key=(sample_index, time_index))))``. Distinct stream
    ids are statistically independent; the same key is bit-reproducible
    regardless of sampling order or worker placement. ``sample_index`` and
    ``time_index`` may be integer arrays, broadcast against each other: the
    stream then stands for the grid of streams (master_seed, s, n), one per
    broadcast entry, and ``sample_increment`` draws one increment per entry.
    A (B, 1) column of samples against an (N,) row of steps is the noise of
    a block's whole path.
    """

    master_seed: int
    sample_index: int
    time_index: int


# numpy's SeedSequence hash (a pool of four 32-bit words), written out so that
# one array of sample indices is hashed at once; every value is a Python int
# or a uint64 array holding 32-bit words.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(n):
    """The 32-bit words of a nonnegative integer, least significant first
    (one word for 0), as SeedSequence splits its entropy."""
    n = int(n)
    if n < 0:
        raise ValueError(f"stream ids must be nonnegative, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashmix(value, const, mult):
    """One hash of a word with the running constant ``const`` (SeedSequence's
    ``hashmix`` with mult A, a ``generate_state`` word with mult B)."""
    value = (value ^ const) * (const * mult & _MASK32) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> 16)


def _successors(const, mult):
    """The next ``_POOL_SIZE`` running hash constants from ``const``, and the
    one after them."""
    consts = []
    for _ in range(_POOL_SIZE):
        consts.append(const)
        const = const * mult & _MASK32
    return consts, const


@lru_cache(maxsize=64)
def _master_pool(master_seed):
    """The pool, a (_POOL_SIZE, 1) column, and the running hash constant after
    the master seed's words (zero padded to the pool size, as with a spawn
    key): the part of every stream's hash that the sample and time indices
    do not touch."""
    words = _uint32_words(master_seed)
    words += [0] * (_POOL_SIZE - len(words))
    consts, const = _successors(_INIT_A, _MULT_A)
    pool = [_hashmix(word, c, _MULT_A) for word, c in zip(words, consts)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], const, _MULT_A))
                const = const * _MULT_A & _MASK32
    pool, const = _mix_words(np.array(pool, dtype=np.uint64)[:, None], const, words[_POOL_SIZE:])
    pool.flags.writeable = False  # shared by every call with this seed
    return pool, const


def _mix_words(pool, const, words):
    """Mix entropy words past the pool size into every pool word. The pool is
    a (_POOL_SIZE, B) array with one column per stream, hashed against a
    column of constants; a word is an int or a (B,) array."""
    for word in words:
        consts, const = _successors(const, _MULT_A)
        pool = _mix(pool, _hashmix(word, np.array(consts, dtype=np.uint64)[:, None], _MULT_A))
    return pool, const


def _pool_keys(pool):
    """``generate_state(2, np.uint64)`` of every column of a pool: (B, 2)."""
    consts, _ = _successors(_INIT_B, _MULT_B)
    words = _hashmix(pool, np.array(consts, dtype=np.uint64)[:, None], _MULT_B)
    return np.stack([words[0] | words[1] << 32, words[2] | words[3] << 32], axis=1)


def stream_keys(master_seed, sample_index, time_index):
    """Philox keys of the streams (master_seed, s, n) for the entries s of
    ``sample_index`` and n of ``time_index``, broadcast against each other:
    an array of the broadcast shape plus a last axis of 2, each key
    bit-identical to numpy's ``SeedSequence(entropy=master_seed,
    spawn_key=(s, n)).generate_state(2, np.uint64)`` (the key a Philox
    seeded by that SeedSequence takes). Every entry whose s and n fit one
    32-bit word is hashed in one numpy pass; an entry with a larger index
    goes through numpy's SeedSequence on its own."""
    samples, steps = np.broadcast_arrays(np.asarray(sample_index), np.asarray(time_index))
    shape = samples.shape
    samples, steps = samples.reshape(-1), steps.reshape(-1)
    for ids in (samples, steps):
        if ids.size and ids.min() < 0:
            raise ValueError(f"stream ids must be nonnegative, got {ids.min()}")
    words = [samples.astype(np.uint64), steps.astype(np.uint64)]
    pool, const = _master_pool(int(master_seed))
    keys = _pool_keys(_mix_words(pool, const, words)[0])
    for i in np.flatnonzero((words[0] > _MASK32) | (words[1] > _MASK32)):
        ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(int(samples[i]), int(steps[i])))
        keys[i] = ss.generate_state(2, np.uint64)
    return keys.reshape(shape + (2,))


class _KeyedNormals:
    """Standard normals of keyed streams from one reused Philox: with the key
    set, a zero counter and an empty buffer it continues exactly as a Philox
    seeded by a SeedSequence whose ``generate_state(2, np.uint64)`` is that
    key. Each call sets the whole state, so no draw depends on an earlier
    one; not thread-safe."""

    def __init__(self):
        self.bits = np.random.Philox(0)
        self.normals = np.random.Generator(self.bits).standard_normal
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def __call__(self, key, n):
        self.state["state"]["key"] = key
        self.bits.state = self.state
        return self.normals(n)


_keyed_normals = _KeyedNormals()


@dataclass(frozen=True)
class NoiseIncrement:
    """One sampled Wiener increment: coeffs_k = q_k sqrt(dt) xi_k; a grid of
    increments has coeffs of shape (..., k_max), one row per stream."""

    coeffs: np.ndarray
    dt: float


def sample_increment(noise, stream, dt):
    """Draw a Q-Wiener increment over a step of length dt from an
    ``RngStream``.

    A stream of index arrays gives coeffs of the broadcast shape of its
    sample and time indices plus a last axis of k_max, one increment per
    stream (master seed, s, n), each bit-identical to the increment of that
    stream drawn alone: one call keys a block's whole path, (B, N, k_max)
    for a (B, 1) column of samples and N steps. The keys are hashed in one
    pass (``stream_keys``); each stream's normals are then drawn from the
    reused Philox with that key."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    keys = stream_keys(stream.master_seed, stream.sample_index, stream.time_index)
    xi = np.array([_keyed_normals(key, noise.k_max) for key in keys.reshape(-1, 2)])
    xi = xi.reshape(keys.shape[:-1] + (noise.k_max,))
    return NoiseIncrement(noise.q * np.sqrt(dt) * xi, float(dt))


@dataclass
class GrowthReport:
    n_trials: int
    violations: int
    max_excess: float

    @property
    def passed(self):
        return self.violations == 0


def growth_check(noise, gd, trials=1000, amplitude=1.0, rng_seed=0, slack=1e-10):
    """Verify ||f(v) k||^2 <= F1 ||Pi v||^2 + F2 for random states v and
    random unit elements k of the truncated covariance space."""
    rng = np.random.default_rng(rng_seed)
    E = noise.basis.values(gd.quad_x)  # (n_q, k_max)
    violations = 0
    max_excess = -np.inf
    for _ in range(trials):
        v = amplitude * rng.standard_normal(gd.n_dofs)
        a = rng.standard_normal(noise.k_max)
        a /= np.linalg.norm(a)
        vals = gd.reconstruct(v)
        fk = noise.f0(vals) * (E @ a)
        lhs = float(np.sum(gd.quad_w * fk**2))
        rhs = noise.F1 * float(np.sum(gd.quad_w * vals**2)) + noise.F2
        excess = lhs - rhs
        max_excess = max(max_excess, excess)
        if excess > slack:
            violations += 1
    return GrowthReport(trials, violations, max_excess)
