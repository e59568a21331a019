"""In-memory span tracing of the sgdm library, applied from outside.

A ``Tracer`` replaces library callables by wrappers that record one span per
call: a name, start and end on ``time.perf_counter``, the span that was open
when the call began (its parent) and the id of the Monte Carlo sample being
computed. Spans live in flat arrays until the run ends; ``save`` writes them
out and ``span_stats`` reduces them to per-name call counts, inclusive time
and self time.

Wrap a callable where its caller looks it up: ``from .flux import eval_flux``
binds a name in ``sgdm.scheme``, so the flux layer is traced by wrapping
``sgdm.scheme.eval_flux``, not ``sgdm.flux.eval_flux``.
"""

import functools
import time
from array import array
from collections import Counter

import numpy as np

NO_PARENT = -1
NO_SAMPLE = -1


class Tracer:
    """Records spans around wrapped callables; ``restore`` undoes every wrap."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.sample = array("q")
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._sample = NO_SAMPLE
        self._n_samples = 0
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name):
        """Start a span and make it the parent of spans opened before it closes."""
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.sample.append(self._sample)
        self.end.append(np.nan)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx):
        self.end[idx] = self.clock()
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()
        else:
            raise RuntimeError(f"span {idx} closed out of order")

    def begin_sample(self):
        """Give the spans that follow a fresh sample id."""
        self._sample = self._n_samples
        self._n_samples += 1

    def end_sample(self):
        self._sample = NO_SAMPLE

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        wrapper = make(original)
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap(self, owner, attr, name, sample=None, on_return=None):
        """Record a span ``name`` around every call of ``owner.attr``.

        ``sample="begin"`` starts a new sample id at each call (the call
        computes one sample); ``sample="end"`` clears it (the call is outside
        any sample). ``on_return(result)`` sees each result; calls that
        raise are counted as ``counts[name + ".raised"]``. A missing
        attribute is noted in ``missing`` instead of raising, so the traced
        run still reports the layers it can reach.
        """
        begin = sample == "begin"
        clear = sample == "end"

        def make(fn):
            def wrapper(*args, **kwargs):
                if begin:
                    self.begin_sample()
                elif clear:
                    self.end_sample()
                idx = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    self.counts[f"{name}.raised"] += 1
                    raise
                finally:
                    self.close(idx)
                if on_return is not None:
                    on_return(result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def count(self, owner, attr, name):
        """Count calls of ``owner.attr`` without recording spans."""

        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name_id, start, end, parent, sample."""
        return tuple(
            np.frombuffer(buf, dtype=dtype).copy()
            for buf, dtype in (
                (self.name_id, np.int64), (self.start, np.float64), (self.end, np.float64),
                (self.parent, np.int64), (self.sample, np.int64),
            )
        )

    def save(self, path):
        name_id, start, end, parent, sample = self.arrays()
        np.savez(
            path, names=np.array(self.names, dtype=str), name_id=name_id,
            start=start, end=end, parent=parent, sample=sample,
        )


def self_times(start, end, parent):
    """Per-span self time: the span's duration minus the length of the union
    of its children's intervals, each clipped to the span.

    Children may overlap one another (spans recorded from several threads or
    processes); overlapping parts are counted once.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    out = end - start
    children = np.nonzero(parent != NO_PARENT)[0]
    order = children[np.lexsort((start[children], parent[children]))].tolist()
    start, end, parent = start.tolist(), end.tolist(), parent.tolist()
    i = 0
    while i < len(order):
        p = parent[order[i]]
        lo, hi = start[p], end[p]
        covered = 0.0
        reach = lo
        while i < len(order) and parent[order[i]] == p:
            c = order[i]
            s, e = max(start[c], reach), min(end[c], hi)
            if e > s:
                covered += e - s
                reach = e
            i += 1
        out[p] -= covered
    return out


def span_stats(tracer):
    """Per span name: {"calls": int, "s": inclusive seconds, "self_s": seconds}."""
    name_id, start, end, parent, _ = tracer.arrays()
    dur = end - start
    own = self_times(start, end, parent)
    stats = {}
    for nid, name in enumerate(tracer.names):
        sel = name_id == nid
        stats[name] = {
            "calls": int(np.count_nonzero(sel)),
            "s": float(dur[sel].sum()),
            "self_s": float(own[sel].sum()),
        }
    return stats
