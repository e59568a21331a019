"""Bookkeeping shared by the workloads: failure counting, timed phases,
machine-speed calibration, peak memory, and the format checks on the result
line the benchmark prints."""

import math
import re
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


class FailureCounter:
    """Operations attempted and failed, with failures counted by error type."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = Counter()

    def add(self, attempted, failed=0, error=None):
        if not 0 <= failed <= attempted:
            raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.errors[error] += failed

    def call(self, fn, *args, **kwargs):
        """Run one operation; an exception counts as its failure and is
        returned in place of the result, so the caller keeps going."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the benchmark counts every failure and continues
            self.add(1, 1, type(exc).__name__)
            return False, exc
        self.add(1)
        return True, result

    @property
    def failed_share(self):
        return self.failed / self.attempted if self.attempted else 0.0


# Duration of one calibration kernel at the reference machine speed: about
# its median on the 2-vCPU VM where the benchmark was defined.
CALIBRATION_REF_S = 0.007
# Calibration time before each timed call, as a share of that phase's
# previous call, and the fewest kernel runs per calibration.
CALIBRATION_SHARE = 0.03
CALIBRATION_MIN_RUNS = 4


class Calibrator:
    """Times a fixed kernel of numpy and scipy calls that mixes, in roughly
    equal time, interpreted Python, small dense solves and products, and a
    sparse LU factorisation with a larger dense solve, as the workloads do.

    On a shared VM the CPU's speed drifts by 10-20% over tens of seconds,
    which moves every timing alike; the kernel's duration next to a timed
    call measures that drift, so throughput can be scaled to a reference
    speed. Over four minutes of alternating 1D and 2D ensembles, different
    parts tracked each workload best; the mix tracked both.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.A = rng.random((48, 48)) + 48.0 * np.eye(48)
        self.b = rng.random(48)
        self.S = (sp.random(400, 400, density=0.02, random_state=1) + sp.eye(400)).tocsr()
        self.v = rng.random(400)
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(30, 30))
        self.L = (sp.kron(lap, sp.eye(30)) + sp.kron(sp.eye(30), lap)).tocsc()
        self.r = rng.random(900)
        self.B = rng.random((120, 120)) + 120.0 * np.eye(120)
        self.c = rng.random(120)

    def kernel(self):
        t0 = time.perf_counter()
        for _ in range(40):
            np.linalg.solve(self.A, self.b)
            self.S @ self.v
            np.einsum("ij,j->i", self.A, self.b)
            acc = 0.0
            for i in range(600):
                acc += i * 0.5
        spla.splu(self.L).solve(self.r)
        np.linalg.solve(self.B, self.c)
        return time.perf_counter() - t0

    def sample(self, seconds):
        """Kernel durations over about ``seconds``."""
        out = []
        t_end = time.perf_counter() + seconds
        while len(out) < CALIBRATION_MIN_RUNS or time.perf_counter() < t_end:
            out.append(self.kernel())
        return out


@dataclass
class Phase:
    """The calls one timed phase ran: operations, seconds and outcome of
    each, and the calibration kernel durations measured next to them."""

    ops: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    calibration: list = field(default_factory=list)

    @property
    def throughput(self):
        """Operations per wall-clock second over the whole phase."""
        return sum(self.ops) / sum(self.seconds)

    @property
    def speed(self):
        """Machine speed during the phase relative to the reference speed."""
        return CALIBRATION_REF_S / trimmed_mean(self.calibration)

    @property
    def ref_throughput(self):
        """Operations per reference second: throughput at reference speed."""
        return self.throughput / self.speed

    @property
    def rates(self):
        return [o / s for o, s in zip(self.ops, self.seconds)]


def timed_rounds(steps, seconds, calibrator, clock=time.perf_counter):
    """Run rounds while the next round is expected to end within ``seconds``
    of the start (at least one round). A round runs, phase by phase, every
    callable in ``steps[label]``; each returns (operations, outcome). The
    calibration kernel runs before every call and after the last one, so
    even a long round is scaled by the machine speed during it.

    Interleaving the phases exposes them to the same machine conditions.
    Returns {label: Phase}.
    """
    phases = {label: Phase() for label in steps}
    rounds = []
    t_start = clock()
    while True:
        t_round = clock()
        for label, calls in steps.items():
            phase = phases[label]
            for call in calls:
                phase.calibration += calibrator.sample(CALIBRATION_SHARE * (phase.seconds or [0.0])[-1])
                t0 = clock()
                ops, outcome = call()
                dt = clock() - t0
                phase.ops.append(ops)
                phase.seconds.append(dt)
                phase.outcomes.append(outcome)
        rounds.append(clock() - t_round)
        if clock() - t_start + statistics.median(rounds) > seconds:
            phase.calibration += calibrator.sample(CALIBRATION_SHARE * dt)
            return phases


def timed_setup(setup, calibrator, min_reps=5, max_reps=500, min_seconds=0.5, clock=time.perf_counter):
    """Repeat ``setup()`` at least ``min_reps`` times and until its runs add
    up to ``min_seconds`` (at most ``max_reps``), one calibration kernel
    before each. Returns (median seconds at reference speed, median
    wall-clock seconds, repetitions, the last result)."""
    times, calibration = [], []
    while len(times) < max_reps and (len(times) < min_reps or sum(times) < min_seconds):
        calibration.append(calibrator.kernel())
        t0 = clock()
        result = setup()
        times.append(clock() - t0)
    wall = statistics.median(times)
    return wall * CALIBRATION_REF_S / trimmed_mean(calibration), wall, len(times), result


def trimmed_mean(values, cut=0.1):
    """Mean without the lowest and highest ``cut`` share of the values: a
    kernel run hit by preemption can take ten times as long."""
    v = sorted(values)
    k = int(len(v) * cut)
    return statistics.mean(v[k:len(v) - k])


def quartiles(values):
    """(first quartile, median, third quartile); a single value repeats."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb():
    """Peak resident set of this process plus the largest of its waited-for
    children (Linux reports kilobytes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def metric_entries(values, specs):
    """Result-line metrics for the declared ``specs`` (dicts with name and
    unit), taking each value from ``values``; refuses undeclared or malformed
    names, missing values and values that are not finite."""
    out = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        if not NAME_RE.match(name):
            raise ValueError(f"metric name {name!r} is not letters, digits, '_', '.', '-'")
        if not UNIT_RE.match(unit):
            raise ValueError(f"unit {unit!r} of {name} is malformed")
        if name in out:
            raise ValueError(f"metric {name} declared twice")
        if name not in values:
            raise KeyError(f"no value measured for metric {name}")
        value = float(values[name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        out[name] = {"value": value, "unit": unit}
    return out
