"""Truncated Karhunen-Loeve Q-Wiener increments and the pointwise
multiplicative noise operator.

The driving process is W(t) = sum_k q_k W_k(t) e_k with independent scalar
Wiener processes W_k, truncated at k_max modes. The spectral basis consists
of sine products on the bounding rectangle, which are L^2-orthonormal when
the domain fills the rectangle. The noise operator maps a state v to the
multiplication operator k |-> f0(v(.)) k(.).

Increments are drawn from counter-based streams keyed by (master seed,
sample, step), each bit-identical to numpy's ``Generator(Philox(...))`` of
that key. Every draw, whatever its block's shape, takes one path: the keys
are hashed at once in numpy arrays, by numpy's SeedSequence hash
(``stream_keys``), the raw words by Philox4x64-10 (``philox_words``) and
the normals by the fast path of numpy's ziggurat, whose tables are read
from numpy itself at a process's first draw (``ziggurat_tables``). A stream
with a draw off the fast path, and every stream when the tables fail their
check, is drawn by numpy's own generator (``_KeyedNormals``).
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

F0_KINDS = ("zero", "constant", "identity", "tanh")  # or a callable, or a table


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
        raise ValueError(f"unknown f0 {f0!r}; expected one of {F0_KINDS}, a callable or a table [[x, y], ...]")
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


# numpy's SeedSequence hash (a pool of four 32-bit words), written out so that
# one array of sample indices is hashed at once; every value is a Python int
# or a uint64 array holding 32-bit words.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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
    """The pool of ``SeedSequence(master_seed)``, a (_POOL_SIZE, 1) column,
    and the running hash constant after it: the part of every stream's hash
    that the sample and time indices do not touch. Mixing the entropy steps
    the constant once per pool word, once per ordered pair of pool words and
    once per pool word for each of the w entropy words past the pool size:
    4 (4 + w) steps in all."""
    pool = np.random.SeedSequence(master_seed).pool.astype(np.uint64)[:, None]
    pool.flags.writeable = False  # shared by every call with this seed
    extra = max(0, -(-master_seed.bit_length() // 32) - _POOL_SIZE)
    const = _INIT_A * pow(_MULT_A, _POOL_SIZE * (_POOL_SIZE + extra), 2**32) & _MASK32
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
    """Standard normals of keyed streams from one reused Philox, one stream
    per call: with the key set, a zero counter and an empty buffer it
    continues exactly as a Philox seeded by a SeedSequence whose
    ``generate_state(2, np.uint64)`` is that key. Each call sets the whole
    state, so no draw depends on an earlier one; not thread-safe.

    The slow path of ``keyed_normals``, for the streams with a draw off the
    ziggurat's fast path and for every stream when the tables fail their
    check, and the reference its fast path is checked against."""

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


# Philox4x64-10 (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
# 3", SC 2011) as numpy's Philox runs it. A round multiplies the counter
# words 0 and 2 by one constant each, 64x64 -> 128 bits, and mixes the
# halves of the products with words 1 and 3 and the key; the key is bumped
# by the Weyl constants between rounds. Words 0 and 2 ("even") and 1 and 3
# ("odd") are held as two (2, ...) stacks, so that each round is one pass
# of array operations over both products.
_PHILOX_MULT = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_WEYL = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)
_MULT_LO, _MULT_HI = _PHILOX_MULT & _LOW32, _PHILOX_MULT >> _SHIFT32
# counter blocks (4 words each) per pass of philox_words: its temporaries
# stay at 64 kB
_PHILOX_PASS = 2**12


def _mulhi(b):
    """The high 64-bit words of the 128-bit products of the multipliers with
    the (2, ...) stack b of even counter words, from 32-bit halves (Knuth's
    schoolbook product); the low words are the wrapped uint64 products."""
    b_lo, hi = b & _LOW32, b >> _SHIFT32
    t = _MULT_LO * b_lo
    t >>= _SHIFT32
    t += _MULT_HI * b_lo
    u = _MULT_LO * hi
    u += t & _LOW32
    hi *= _MULT_HI
    t >>= _SHIFT32
    u >>= _SHIFT32
    hi += t
    hi += u
    return hi


def philox_words(keys, n):
    """The first n raw 64-bit words of the Philox4x64-10 streams with keys
    (S, 2), as an (S, n) uint64 array: row i equals numpy's
    ``Philox(key=keys[i]).random_raw(n)``. As numpy's buffer refill does,
    the j-th block of four words enciphers the counter (j + 1, 0, 0, 0)."""
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 2)
    n_blocks = -(-n // 4)
    out = np.empty((len(keys), n_blocks, 4), dtype=np.uint64)
    rows = max(1, _PHILOX_PASS // max(n_blocks, 1))
    for start in range(0, len(keys), rows):
        key = keys[start : start + rows].T[:, :, None].copy()  # (2, S, 1)
        even = np.zeros((2, len(key[0]), n_blocks), dtype=np.uint64)
        even[0] = np.arange(1, n_blocks + 1, dtype=np.uint64)
        odd = np.zeros_like(even)
        for r in range(_PHILOX_ROUNDS):
            if r:
                key += _PHILOX_WEYL
            hi = _mulhi(even)
            even *= _PHILOX_MULT
            # words 0, 2 <- hi(word 2), hi(word 0) ^ words 1, 3 ^ key;
            # words 1, 3 <- lo(word 2), lo(word 0)
            odd ^= hi[::-1]
            odd ^= key
            even, odd = odd, even[::-1]
        out[start : start + rows] = np.stack([even[0], odd[0], even[1], odd[1]], axis=2)
    return out.reshape(len(keys), -1)[:, :n]


# numpy's standard_normal is the ziggurat of Marsaglia & Tsang ("The Ziggurat
# Method for Generating Random Variables", J. Stat. Softw. 2000) on 256
# layers. Its fast path reads one raw word r: layer idx = r & 0xff, the sign
# from bit 8, rabs = the 52 bits above it; the draw is +-rabs * wi[idx] when
# rabs < ki[idx] (about 99% of draws), and otherwise reads more words.
_RABS_BITS = 52
_FILLER = 0xE000000000000000  # layer 0, rabs 0: on the fast path; as a uniform, 0.875


def _ziggurat_fast(words, ki, wi):
    """The fast-path normals of raw words, and the mask of the words whose
    draw is on the fast path (elsewhere the value is meaningless)."""
    idx = (words & np.uint64(0xFF)).astype(np.intp)
    rabs = (words >> np.uint64(9)) & np.uint64(2**_RABS_BITS - 1)
    x = rabs.astype(float) * wi[idx]
    np.negative(x, out=x, where=(words & np.uint64(0x100)).astype(bool))
    return x, rabs < ki[idx]


def _derive_ziggurat_tables():
    """The tables ki and wi of numpy's own standard_normal, read from it one
    crafted word at a time: a word of layer idx and magnitude rabs, placed
    first in the Philox buffer ahead of filler words, is on the fast path
    exactly when the draw consumes that one word. ki[idx] is the least rabs
    off the fast path (binary search; 2**52 when there is none), and wi[idx]
    the draw at rabs = 1 where that is on the fast path (0 where the fast
    path holds rabs = 0 only or nothing, so wi is never read)."""
    bits = np.random.Philox(0)
    normal = np.random.Generator(bits).standard_normal
    state = bits.state
    filler = [_FILLER] * 3

    def draw(idx, rabs):
        """(the draw, whether it is on the fast path) of one crafted word."""
        state["buffer"] = np.array([idx | rabs << 9] + filler, dtype=np.uint64)
        state["buffer_pos"] = 0
        bits.state = state
        x = normal()
        return x, bits.state["buffer_pos"] == 1

    ki = np.zeros(256, dtype=np.uint64)
    wi = np.zeros(256)
    for idx in range(256):
        if not draw(idx, 0)[1]:
            continue
        lo, hi = 0, 2**_RABS_BITS  # fast at lo; hi off the fast path, or the end
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if draw(idx, mid)[1] else (lo, mid)
        ki[idx] = hi
        if hi > 1:
            wi[idx] = draw(idx, 1)[0]
    return ki, wi


# streams (master seed 0, sample s, step 1) for s below this, at this many
# draws each, check the derived tables against numpy before they are used
_CHECK_STREAMS, _CHECK_DRAWS = 256, 16


def _checked_tables(tables):
    """``tables`` if the fast path drawn with them equals numpy's draws on
    the check streams, bit for bit, and takes at least one of them; else
    None, and every stream is drawn by numpy (a numpy release may change its
    sampler)."""
    keys = stream_keys(0, np.arange(_CHECK_STREAMS), 1)
    x, fast = _ziggurat_fast(philox_words(keys, _CHECK_DRAWS), *tables)
    rows = np.flatnonzero(fast.all(axis=1))
    want = np.array([_keyed_normals(key, _CHECK_DRAWS) for key in keys[rows]]).reshape(-1, _CHECK_DRAWS)
    return tables if rows.size and np.array_equal(x[rows], want) else None


@lru_cache(maxsize=None)
def ziggurat_tables():
    """numpy's ziggurat tables (ki, wi), derived and checked once per process
    on the first call (about 0.1 s), or None when the check rejects them.
    ``analysis.map_blocks`` calls it before it forks, so that pool workers
    inherit the result."""
    tables = _checked_tables(_derive_ziggurat_tables())
    if tables is not None:
        for table in tables:
            table.flags.writeable = False
    return tables


def keyed_normals(keys, n, tables):
    """n standard normals of each stream with Philox keys (S, 2), (S, n),
    each row bit-identical to numpy's draws from that stream (see
    ``_KeyedNormals``), for any S and n. The raw words of every stream come
    from one ``philox_words`` call and go through the ziggurat's fast path
    with the ``tables`` (``ziggurat_tables``); a stream with any draw off
    the fast path (a stream of n draws leaves it with probability about
    1 - 0.985^n) is drawn by numpy, and so is every stream when ``tables``
    is None."""
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 2)
    if tables is None:
        return np.array([_keyed_normals(key, n) for key in keys]).reshape(len(keys), n)
    x, fast = _ziggurat_fast(philox_words(keys, n), *tables)
    for i in np.flatnonzero(~fast.all(axis=1)):
        x[i] = _keyed_normals(keys[i], n)
    return x


def sample_increment(noise, master_seed, sample_index, time_index, dt):
    """Q-Wiener increments over a step of length dt: the coefficients
    q_k sqrt(dt) xi_k of the stream (master_seed, sample_index, time_index),
    a (k_max,) array.

    The indices may be integer arrays, broadcast against each other: the
    result then has their broadcast shape plus a last axis of k_max, one
    increment per stream (master_seed, s, n), each bit-identical to the
    increment of that stream drawn alone. One call keys a block's whole
    path, (B, N, k_max) for a (B, 1) column of samples and N steps. The keys
    are hashed in one pass (``stream_keys``) and the normals of all the
    streams drawn in one ``keyed_normals`` call."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    keys = stream_keys(master_seed, sample_index, time_index)
    xi = keyed_normals(keys, noise.k_max, ziggurat_tables()).reshape(keys.shape[:-1] + (noise.k_max,))
    return noise.q * np.sqrt(dt) * xi


@dataclass
class GrowthReport:
    n_trials: int
    violations: int
    max_excess: float

    @property
    def passed(self):
        return self.violations == 0


GROWTH_SLACK = 1e-10  # excess over the growth bound not counted as a violation


def growth_check(noise, gd, trials=1000, amplitude=1.0, rng_seed=0):
    """Verify ||f(v) k||^2 <= F1 ||Pi v||^2 + F2, up to GROWTH_SLACK, for
    random states v and random unit elements k of the truncated covariance
    space."""
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
        if excess > GROWTH_SLACK:
            violations += 1
    return GrowthReport(trials, violations, max_excess)
