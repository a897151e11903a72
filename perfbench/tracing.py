"""In-memory span tracer and the wrappers that attach it to sgdmlab.

Spans are recorded by the benchmark's own wrappers around each layer's
public calls.  A wrapper replaces the name where the program looks it up
at call time -- a module attribute such as ``sgdmlab.windows.applicability_index``
or a class attribute such as ``NoiseStream.take`` -- so the program under
test is unchanged.  A span is (name, start, end, parent); the parent is
the span that was open when the call began.  Spans are kept in flat
arrays while the run lasts and written out once, when it ends.

A span's self time is its duration minus the durations of its direct
children; a layer's self time sums that over the layer's spans.  The
layer is the span name up to the first dot.
"""

from __future__ import annotations

import dataclasses
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack = [-1]
        self._undo = []

    def wrap(self, label: str, fn):
        """fn, recording one span per call."""
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        nid = self._ids[label]
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(end)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, label: str, make=None):
        """Replace owner.attr by a traced wrapper until restore()."""
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(label)
            return
        new = make(orig) if make is not None else self.wrap(label, orig)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def install(self, sgdmlab):
        """Wrap every layer's public entry points in the loaded program."""
        harness, windows = sgdmlab.harness, sgdmlab.windows
        self.patch(sgdmlab.config, "parse_config", "config.parse_config")
        self.patch(sgdmlab.config, "make_problem", "problems.make_problem",
                   make=self._traced_problems)
        self.patch(harness, "run_experiment", "harness.run_experiment")
        self.patch(harness, "emit_outputs", "harness.emit_outputs")
        self.patch(harness, "run_batch", "runner.run_batch")
        self.patch(harness, "estimate_exponent", "rates.estimate_exponent")
        for fn in ("build_partition", "verify_window_lengths", "applicability_index",
                   "spread_residual", "gap_residual", "descent_residual",
                   "tail_error_sums", "tail_error_sums_batch"):
            self.patch(windows, fn, f"windows.{fn}")
        self.patch(sgdmlab.schedules.StepSchedule, "step_size", "schedules.step_size")
        self.patch(sgdmlab.noise.NoiseStream, "take", "noise.take",
                   make=self._counted_take)

    def _traced_problems(self, make_problem):
        """make_problem whose problems trace grad_batch and f_batch."""
        def make(*args, **kwargs):
            p = make_problem(*args, **kwargs)
            return dataclasses.replace(
                p, grad_batch=self.wrap("problems.grad_batch", p.grad_batch),
                f_batch=self.wrap("problems.f_batch", p.f_batch))
        return make

    def _counted_take(self, take):
        """NoiseStream.take that also counts the vectors drawn."""
        traced = self.wrap("noise.take", take)
        counts = self.counts
        counts.setdefault("noise.vectors", 0)

        def counted(stream, n):
            counts["noise.vectors"] += n
            return traced(stream, n)
        return counted

    # -- results --------------------------------------------------------

    def arrays(self):
        """(name, parent, start, end) as numpy arrays over all spans."""
        return (np.frombuffer(self.name, dtype=np.uint16),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def per_label(self) -> dict[str, tuple[int, float, float]]:
        """label -> (calls, total seconds, self seconds)."""
        name, parent, start, end = self.arrays()
        n, k = len(name), len(self.labels)
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=n)
        self_t = dur - child
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_t, minlength=k)
        return {lab: (int(calls[i]), float(total[i]), float(own[i]))
                for i, lab in enumerate(self.labels)}

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, labels=np.array(self.labels), name=name, parent=parent,
                 start=start, end=end)


def nesting_violations(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> int:
    """Number of spans that do not lie inside their parent span."""
    child = np.nonzero(parent >= 0)[0]
    p = parent[child]
    return int(((start[child] < start[p]) | (end[child] > end[p])).sum())
