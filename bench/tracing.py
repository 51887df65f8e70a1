"""Outside-in tracing: spans around ltensor's module-level call sites.

The tracer replaces each wrap point (a function looked up at call time by
the module that calls it) with a wrapper that records one span per call:
name, start, end, the enclosing span and the group of the solve or algebra
op it belongs to.  Spans stay in memory; :meth:`Tracer.write` dumps them as
JSON lines when the run ends.  Every patched attribute is restored when the
``installed`` block exits, also on error.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
from time import perf_counter

import numpy as np

import ltensor.completion
import ltensor.io
import ltensor.linalg
import ltensor.transforms


def _nbytes(x):
    return int(np.asarray(x).nbytes)


def _svd_stats(args, kwargs, result):
    """Slices and flops of one batched np.linalg.svd call.

    Flops are Golub & Van Loan's R-SVD counts for an m x n slice (m >= n),
    times 4 for complex data, computed from shapes, not measured.
    """
    a = np.asarray(args[0])
    m, n = max(a.shape[-2:]), min(a.shape[-2:])
    slices = int(np.prod(a.shape[:-2], dtype=np.int64)) if a.ndim > 2 else 1
    if not kwargs.get("compute_uv", True):
        per = 2 * m * n * n + 2 * n**3
    elif kwargs.get("full_matrices", True):
        per = 4 * m * m * n + 22 * n**3
    else:
        per = 6 * m * n * n + 20 * n**3
    return {"slices": slices, "flops": slices * per * (4 if np.iscomplexobj(a) else 1)}


def _transform_bytes(args, kwargs, result):
    return {"bytes": _nbytes(args[0]) + _nbytes(result)}


def _mode_product_flops(args, kwargs, result):
    x, u, n = np.asarray(args[0]), np.atleast_2d(np.asarray(args[1])), int(args[2])
    fibers = x.size // x.shape[n - 1]
    factor = 4 if (np.iscomplexobj(x) or np.iscomplexobj(u)) else 1
    return {"flops": 2 * u.shape[0] * u.shape[1] * fibers * factor}


def _read_bytes(args, kwargs, result):
    return {"bytes": _nbytes(result)}


def _write_bytes(args, kwargs, result):
    return {"bytes": _nbytes(args[1])}


# (owner, attribute, layer metric name, per-call stats).  Each function is
# wrapped where its caller looks it up, so ``ltensor.linalg.apply_l`` is the
# name ``linalg`` calls, not the definition in ``transforms``.
WRAP_POINTS = [
    (ltensor.linalg, "apply_l", "transforms.apply_l", _transform_bytes),
    (ltensor.linalg, "apply_l_inv", "transforms.apply_l_inv", _transform_bytes),
    (ltensor.linalg, "as_rep_stack", "core.as_rep_stack", None),
    (ltensor.linalg, "from_rep_stack", "core.from_rep_stack", None),
    (ltensor.linalg, "fro_norm", "core.fro_norm", None),
    (ltensor.linalg, "l_product", "linalg.l_product", None),
    (ltensor.linalg, "l_transpose", "linalg.l_transpose", None),
    (ltensor.linalg, "t_svd", "linalg.t_svd", None),
    (ltensor.linalg, "truncate", "linalg.truncate", None),
    (ltensor.linalg, "nuclear_norm", "linalg.nuclear_norm", None),
    (ltensor.completion, "svt", "linalg.svt", None),
    (ltensor.completion, "project_omega", "completion.project_omega", None),
    (ltensor.completion, "fro_norm", "core.fro_norm", None),
    (ltensor.completion, "pga_complete", "completion.pga_complete", None),
    (ltensor.transforms, "mode_n_product", "core.mode_n_product", _mode_product_flops),
    (ltensor.io, "read_container", "io.read_container", _read_bytes),
    (ltensor.io, "write_container", "io.write_container", _write_bytes),
    (ltensor.transforms.TransformSpec, "mode_inverse", "transforms.mode_inverse", None),
    (np.linalg, "svd", "linalg.svd", _svd_stats),
]

# np.linalg.svd is patched process-wide; only calls made by this module count.
_SVD_CALLER = "ltensor.linalg"


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, group, stats]."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._group = -1

    @contextlib.contextmanager
    def group(self, name):
        """A root span; every span recorded inside it shares its group id."""
        self._group += 1
        with self.span(name):
            yield

    @contextlib.contextmanager
    def span(self, name):
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self._group, None]
        index = len(self.spans)
        self.spans.append(record)
        self._open.append(index)
        record[1] = perf_counter()
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def _wrap(self, name, fn, stats, caller=None):
        def traced(*args, **kwargs):
            if caller is not None and sys._getframe(1).f_globals.get("__name__") != caller:
                return fn(*args, **kwargs)
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if stats is not None:
                record[5] = stats(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every wrap point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, stats in WRAP_POINTS:
                original = vars(owner)[attr]
                caller = _SVD_CALLER if owner is np.linalg else None
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, stats, caller))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, group, stats) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end, "parent": parent, "group": group}
                if stats:
                    row.update(stats)
                fh.write(json.dumps(row) + "\n")


def layer_metrics(spans, units):
    """Per-layer totals divided by the number of traced units (solves or rounds).

    ``.s`` is inclusive time, ``.self_s`` excludes the time of child spans,
    ``.calls`` counts spans; ``linalg.svd.slices`` and
    ``linalg.truncate.transforms_per_call`` are per call.
    """
    totals = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    truncate_transforms = 0
    for i, (name, start, end, parent, _, stats) in enumerate(spans):
        add(name + ".calls", 1)
        add(name + ".s", end - start)
        add(name + ".self_s", end - start - child_time[i])
        for key, value in (stats or {}).items():
            add(f"{name}.{key}", value)
        if name in ("transforms.apply_l", "transforms.apply_l_inv") and _has_ancestor(spans, parent, "linalg.truncate"):
            truncate_transforms += 1

    def total(key):
        return totals.get(key, 0.0)

    out = {key: value / units for key, value in totals.items()}
    svd_calls = total("linalg.svd.calls")
    out["linalg.svd.slices"] = total("linalg.svd.slices") / svd_calls if svd_calls else 0.0
    truncates = total("linalg.truncate.calls")
    out["linalg.truncate.transforms_per_call"] = truncate_transforms / truncates if truncates else 0.0
    return out


def _has_ancestor(spans, parent, name):
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def wrapper_seconds(calls=20000, repeats=5):
    """Time one wrapper adds to a call: a wrapped no-op against a bare one.

    The median over ``repeats`` batches of ``calls``; multiplied by the span
    count it gives the time tracing adds to a unit.
    """
    probe = Tracer()

    def noop():
        return None

    wrapped = probe._wrap("probe", noop, None)
    costs = []
    for _ in range(repeats):
        probe.spans.clear()
        start = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((perf_counter() - start - bare) / calls)
    return statistics.median(costs)
