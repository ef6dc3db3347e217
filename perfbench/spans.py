"""Span tracing of windvecm's layer boundaries, installed from outside.

The package imports functions by name (``from .vecm import fit_vecm``), so a
layer boundary is the name a caller looks up, not the function object. The
tracer replaces each such name with a wrapper that records a span (name,
start, end, parent) and counts calls and exceptions, and puts the original
back on exit. Spans stay in memory until the run ends.

Only the process that installed the wrappers records. Pool workers forked
from it inherit the wrappers and call straight through, so a parallel run
is traced on the parent side only.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

#: (module, attribute looked up by the caller, span name). Several names may
#: share one span name when different callers reach the same layer.
LAYER_BOUNDARIES = (
    ("windvecm.cli", "main", "cli.main"),
    ("windvecm.cli", "cmd_backtest", "cli.cmd_backtest"),
    ("windvecm.cli", "_load_source", "cli.load_source"),
    ("windvecm.cli", "generate", "simulate.generate"),
    ("windvecm.cli", "run_grid", "backtest.run_grid"),
    ("windvecm.backtest", "run_cell", "backtest.run_cell"),
    ("windvecm.backtest", "fit_vecm", "vecm.fit_vecm"),
    ("windvecm.backtest", "forecast_vecm", "vecm.forecast_vecm"),
    ("windvecm.vecm", "fit_vecm", "vecm.fit_vecm"),
    ("windvecm.vecm", "forecast_vecm", "vecm.forecast_vecm"),
    ("windvecm.vecm", "build_design", "panel.build_design"),
    ("windvecm.vecm", "_johansen_eigen", "vecm.johansen_eigen"),
    ("windvecm.vecm", "solve_ls", "lstsq.solve_ls"),
    ("windvecm.vecm", "forecast_var", "var.forecast_var"),
    ("windvecm.panel", "TimeSeriesPanel.window", "panel.window"),
    ("windvecm.metrics", "mae", "metrics.loss"),
    ("windvecm.metrics", "mse", "metrics.loss"),
    ("windvecm.metrics", "per_origin_loss", "metrics.loss"),
    ("windvecm.ingest", "load_panel", "ingest.load_panel"),
    ("windvecm.ingest", "_read_file", "ingest.read_file"),
    ("numpy.linalg", "lstsq", "linalg.lstsq"),
)

INGEST_BOUNDARIES = tuple(b for b in LAYER_BOUNDARIES if b[0] == "windvecm.ingest")


def _resolve(module: str, attr: str):
    """(object holding the name, final attribute name)."""
    owner = importlib.import_module(module)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()  # (span name, exception class)
        self._stack: list[int] = []
        self._pid = os.getpid()

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                tracer.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[idx] = (name, start, end, parent)
                tracer.calls[name] += 1

        return traced

    @contextmanager
    def installed(self, boundaries=LAYER_BOUNDARIES):
        """Wrap every boundary for the duration of the block."""
        undo = []
        try:
            for module, attr, name in boundaries:
                owner, last = _resolve(module, attr)
                original = getattr(owner, last)
                setattr(owner, last, self._wrap(original, name))
                undo.append((owner, last, original))
            yield self
        finally:
            for owner, last, original in reversed(undo):
                setattr(owner, last, original)

    def layer_times(self) -> tuple[dict[str, float], dict[str, float], float]:
        """(total seconds by span name, self seconds by name, root seconds).

        Self time is a span's duration minus the time its children cover;
        spans of one thread nest, so the children's durations simply add.
        Root seconds is the time covered by spans that have no parent.
        """
        child_cover = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_cover[parent] += end - start
        total: Counter = Counter()
        own: Counter = Counter()
        root = 0.0
        for (name, start, end, parent), covered in zip(self.spans, child_cover):
            total[name] += end - start
            own[name] += end - start - covered
            if parent < 0:
                root += end - start
        return dict(total), dict(own), root

    def dump(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": idx, "name": name, "start": start, "end": end,
                     "parent": parent if parent >= 0 else None}
                ) + "\n")
