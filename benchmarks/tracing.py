"""Span tracing by temporarily swapping public functions for timing wrappers.

A :class:`Tracer` replaces ``module.attr`` with a wrapper that records one
span per call (name, start, end, parent span, run id and an integer tag)
and calls the original.  Wrappers are installed under the names the
callers look up, so ``bayesglasso.sampler.pd_check`` and
``bayesglasso.distributions.pd_check`` are two wrappers that share one span
name.  Spans live in flat arrays in memory until :meth:`Tracer.spans`
turns them into numpy columns; nothing is written while tracing.
"""

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.run_id = 0
        self._stack = [-1]
        self._cols = {"name": array("i"), "parent": array("i"), "run": array("i"),
                      "tag": array("q"), "start": array("d"), "end": array("d")}

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, tag=None):
        """Timing wrapper for fn; tag(*args, **kwargs) gives the span's tag."""
        nid = self._name_id(name)
        c = self._cols
        names, parents, runs, tags = c["name"], c["parent"], c["run"], c["tag"]
        starts, ends = c["start"], c["end"]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(self.run_id)
            tags.append(tag(*args, **kwargs) if tag is not None else 0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    @contextmanager
    def installed(self, targets):
        """Install wrappers for (module, attr, span_name, tag) targets.

        Every original is put back on exit, in reverse order, whatever
        happened inside the block.
        """
        saved = []
        try:
            for module, attr, name, tag in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, tag))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def spans(self):
        """All recorded spans as a dict of numpy columns plus derived times.

        ``dur`` is end - start and ``self`` is dur minus the durations of
        the span's direct children, i.e. the part of the interval no child
        span covers.
        """
        c = self._cols
        out = {k: np.frombuffer(v, dtype=v.typecode).copy() for k, v in c.items()}
        out["dur"] = out["end"] - out["start"]
        child = out["parent"] >= 0
        covered = np.bincount(out["parent"][child], weights=out["dur"][child],
                              minlength=len(out["dur"]))
        out["self"] = out["dur"] - covered
        return out

    def name_ids(self, *names):
        return [self._name_ids[n] for n in names if n in self._name_ids]


def inside(spans, ancestor_ids):
    """Boolean mask: spans that have an ancestor whose name id is listed."""
    parent = spans["parent"]
    is_anc = np.isin(spans["name"], ancestor_ids)
    found = np.zeros(parent.shape[0], dtype=bool)
    cur = parent.copy()
    live = cur >= 0
    while live.any():
        found[live] |= is_anc[cur[live]]
        cur[live] = parent[cur[live]]
        live = cur >= 0
    return found
