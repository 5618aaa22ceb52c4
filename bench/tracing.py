"""Spans and counters for the traced run, recorded from the benchmark's side.

Nothing here edits ``gsgs``. Layers are observed by wrapping the calls into
them: methods of the model, precision and operator *instances* (so their
types, and any code path chosen by type, stay the same), the ``gsgs.engine``
bindings of ``build_conjugate_set`` and ``sample_along``, the random
generator behind the chain's ``RngState``, and the FFT entry points of
``numpy.fft`` and ``scipy.fft``. Every wrapper calls the original with the
same arguments, so a traced chain reproduces the untraced one bit for bit.
"""

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Axes transformed per call; None means "all axes", counted once per call.
FFT_AXES = {
    "fft": 1, "ifft": 1, "rfft": 1, "irfft": 1,
    "fft2": 2, "ifft2": 2, "rfft2": 2, "irfft2": 2,
    "fftn": None, "ifftn": None, "rfftn": None, "irfftn": None,
}


class Tracer:
    """Spans of the current iteration plus running per-layer aggregates.

    A span is ``[name, start, end, parent]``, where ``parent`` indexes the
    span that was open when it began (-1 for none); all spans of one chain
    iteration belong to it. ``end_iteration`` folds them into per-name call
    counts, inclusive time and self time (duration minus the time covered by
    direct children), then drops them, so memory stays bounded on long
    chains.
    """

    def __init__(self):
        self.spans = []
        self._open = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.iterations = 0

    def begin(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def end_iteration(self):
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (name, start, end, _) in enumerate(self.spans):
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += end - start - covered[index]
        self.spans = []
        self.iterations += 1

    def discard_iteration(self):
        """Drop the spans of an iteration that raised."""
        self.spans = []

    def wrap(self, name, fn, on_result=None):
        """``fn`` inside a span; ``on_result(args, result)`` runs after it ends."""

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def per_call_ms(self, name, use_self=False):
        calls = self.calls[name]
        if not calls:
            return 0.0
        return 1e3 * (self.self_s if use_self else self.total_s)[name] / calls


class CountingGenerator:
    """Stands in for ``RngState.generator``: every draw is a ``rng.draw``
    span, and normal draws are counted by the values they return."""

    def __init__(self, generator, tracer):
        self._generator = generator
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if not callable(attr):
            return attr
        counts = self._tracer.counts

        def count_normals(args, result):
            counts["rng.normals"] += np.size(result)

        normal = name in ("standard_normal", "normal")
        return self._tracer.wrap("rng.draw", attr, count_normals if normal else None)


def instrument_operator(tracer, op):
    """Count calls of ``apply``/``adjoint_apply`` on one operator instance as
    ``operators.<class>.calls``, and the bytes they read plus write.

    Counts only, no spans: these calls are many and short, and timing them
    would inflate the Q-apply spans around them. Their time is measured
    apart, by ``pair_us`` in run.py.
    """
    calls = f"operators.{type(op).__name__}.calls"
    counts = tracer.counts

    def counted(method):
        def apply(v):
            out = method(v)
            counts[calls] += 1
            counts["operators.bytes"] += v.nbytes + out.nbytes
            return out

        return apply

    for name in ("apply", "adjoint_apply"):
        setattr(op, name, counted(getattr(op, name)))


def instrument_theta_model(tracer, theta_model):
    """Trace the theta draw, the precision build and the perturbation; every
    precision the model hands out gets its ``apply`` traced as a Q-apply."""

    def trace_precision(args, precision):
        precision.apply = tracer.wrap("conjugate.q_apply", precision.apply)

    theta_model.sample_theta = tracer.wrap("superres.theta", theta_model.sample_theta)
    theta_model.precision_at = tracer.wrap(
        "superres.precision", theta_model.precision_at, trace_precision
    )
    theta_model.perturbation_at = tracer.wrap(
        "superres.perturbation", theta_model.perturbation_at
    )


@contextmanager
def replaced(namespace, name, replacement):
    """Temporarily rebind ``namespace.name``."""
    original = getattr(namespace, name)
    setattr(namespace, name, replacement)
    try:
        yield
    finally:
        setattr(namespace, name, original)


def _batch(shape, axes):
    if axes is None or len(shape) <= axes:
        return 1
    return int(np.prod(shape[:-axes]))


@contextmanager
def counting_ffts(tracer, modules):
    """Count transforms (not calls: a batch of ten 2-D transforms counts
    ten) made through the public FFT functions of ``modules``."""
    counts = tracer.counts
    saved = []

    def counted(original, axes):
        def fft(a, *args, **kwargs):
            counts["operators.ffts"] += _batch(np.shape(a), axes)
            return original(a, *args, **kwargs)

        return fft

    try:
        for module in modules:
            for name, axes in FFT_AXES.items():
                original = getattr(module, name, None)
                if original is not None:
                    saved.append((module, name, original))
                    setattr(module, name, counted(original, axes))
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
