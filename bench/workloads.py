"""Seeded inputs and units of work for the benchmark's workloads.

A *unit* is what one end-to-end sample times: one in-process
``ltensor complete`` invocation for the completion workloads, one round of
*_L algebra ops for ``algebra-matrix``.  Every unit's output is checked;
failed checks and raised ``LTensorError`` are counted, never raised.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import ltensor.completion
from ltensor import btph, cli, linalg
from ltensor import io as lio
from ltensor.errors import LTensorError
from ltensor.transforms import make_spec

VIDEO_DIMS = (72, 88, 3, 20)
SAMPLING_RATIO = 0.2
MAX_ITERS = 300
WARMUP_ITERS = 2
# Measured final RSEs are ~2.7e-5 (fft) and ~2.0e-5 (dct); a solver that
# stops early or diverges lands orders of magnitude above this gate.
RSE_GATE = 1e-4

ALGEBRA_DIMS = (32, 24, 8, 10)
TRUNCATE_RANK = 6
TAIL_OPS = 4
# Outputs of later rounds must reproduce the validated first round.
REPEAT_RTOL = 1e-9
CONTRACT_RTOL = 1e-10


@dataclass
class Checks:
    """Correctness checks made in a run: attempted, failed and why."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return bool(ok)


@dataclass
class Unit:
    seconds: float
    steps: int  # solver iterations, or algebra ops in the round
    op_seconds: list = field(default_factory=list)  # per algebra op, or between solver iterations
    rse: float = float("nan")


def synthetic_video(dims):
    """The smooth moving-gradient video of ``scripts/sr_sweep.py``, in [0, 1]."""
    h, w, c, t = dims
    yy = np.linspace(0, 1, h)[:, None]
    xx = np.linspace(0, 1, w)[None, :]
    video = np.zeros(dims)
    for ti in range(t):
        phase = 2 * np.pi * ti / t
        for ci in range(c):
            video[:, :, ci, ti] = (
                0.45
                + 0.25 * np.sin(2 * np.pi * yy + phase + ci)
                + 0.2 * np.cos(2 * np.pi * xx - 0.5 * phase + 0.3 * ci)
                + 0.08 * np.sin(6 * np.pi * yy) * np.cos(6 * np.pi * xx)
            )
    lo, hi = video.min(), video.max()
    return (video - lo) / (hi - lo)


def uniform_mask(dims, sr, seed):
    """Exactly round(sr * size) observed entries, drawn like ``sample_mask``."""
    total = int(np.prod(dims))
    flat = np.zeros(total, dtype=bool)
    rng = np.random.default_rng(seed)
    flat[rng.choice(total, size=int(round(sr * total)), replace=False)] = True
    return flat.reshape(dims, order="F")


def read_tlt1_float64(path, dims):
    """Independent reader for a float64 TLT1 container, used to check outputs."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = 4 + 1 + 8 * len(dims) + 1
    if data[:4] != b"TLT1" or data[header - 1] != 0 or len(data) != header + 8 * int(np.prod(dims)):
        return None
    return np.frombuffer(data, dtype="<f8", offset=header).reshape(dims, order="F")


def no_group(name):
    """Default for the ``group`` hook of ``run_unit``: record nothing."""
    return contextlib.nullcontext()


_STATUS = re.compile(r"status (\S+) after (\d+) iterations")


class Completion:
    """``ltensor complete`` on the synthetic video; the seed draws the mask."""

    def __init__(self, transform, seed, workdir, dims):
        self.transform = transform
        self.seed = seed
        self.dims = tuple(dims)
        self.paths = {k: os.path.join(workdir, f"{k}.tlt") for k in ("input", "mask", "out")}
        self.checks = Checks()

    def inputs(self):
        return synthetic_video(self.dims), uniform_mask(self.dims, SAMPLING_RATIO, self.seed)

    def setup(self):
        self.video, mask = self.inputs()
        try:
            lio.write_container(self.paths["input"], self.video)
            lio.write_container(self.paths["mask"], mask)
        except LTensorError as exc:
            self.checks.check(False, f"write_container raised {exc!r}")
        code = self._invoke(WARMUP_ITERS)[1]
        self.checks.check(code == 0, f"warm-up complete exited {code}")

    def validate(self):
        """Nothing to check before solving; every solve is checked."""

    def _invoke(self, max_iters, group=no_group):
        argv = [
            "complete", "--input", self.paths["input"], "--mask", self.paths["mask"],
            "--transform", self.transform, "--max-iters", str(max_iters), "--out", self.paths["out"],
        ]
        stdout = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(stdout), group("cli.main"):
            code = cli.main(argv)
        return perf_counter() - start, code, stdout.getvalue()

    def run_unit(self, group=no_group):
        # One clock stamp per solver iteration, taken where pga_complete calls
        # svt, gives per-iteration latencies without tracing.
        svt, stamps = ltensor.completion.svt, []

        def stamped(*args, **kwargs):
            stamps.append(perf_counter())
            return svt(*args, **kwargs)

        ltensor.completion.svt = stamped
        try:
            seconds, code, text = self._invoke(MAX_ITERS, group)
        finally:
            ltensor.completion.svt = svt
        self.checks.check(code == 0, f"complete exited {code}")
        found = _STATUS.search(text)
        self.checks.check(found is not None and found.group(1) == "converged", f"status: {text.strip()!r}")
        iters = int(found.group(2)) if found else 0
        x = read_tlt1_float64(self.paths["out"], self.dims) if code == 0 else None
        err = float("nan")
        if x is not None:
            err = float(np.sum((self.video - x) ** 2) / np.sum(x**2))
        self.checks.check(err < RSE_GATE, f"rse {err} not below {RSE_GATE}")
        return Unit(seconds=seconds, steps=iters, op_seconds=list(np.diff(stamps)), rse=err)

    @staticmethod
    def tail_ms(units):
        """op_ms.p90's population: each solve's median iteration time.

        Iterations of a solve do the same work and differ only by the shared
        machine's spikes, whose rate changes from solve to solve: a p90 over
        single iterations measures the machine.
        """
        return [1e3 * float(np.median(u.op_seconds)) for u in units if u.op_seconds]


def _scaled_orthogonal(n, scale, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return scale * q


def _ok(x):
    """``x``, or raise it again if it is the error a previous op raised."""
    if isinstance(x, LTensorError):
        raise x
    return x


def _close(out, ref, rtol):
    if isinstance(ref, linalg.LFactors):
        return isinstance(out, linalg.LFactors) and _close(out.tube_norms, ref.tube_norms, rtol) and _close(out.s, ref.s, rtol)
    out, ref = np.asarray(out), np.asarray(ref)
    return out.shape == ref.shape and bool(np.linalg.norm(out - ref) <= rtol * np.linalg.norm(ref))


class Algebra:
    """A closed loop, one caller, of *_L algebra rounds on order-4 tensors.

    The seed draws the operands; shapes and transform specs are fixed.
    """

    def __init__(self, seed, dims):
        self.seed = seed
        self.dims = tuple(dims)
        self.checks = Checks()

    def inputs(self):
        i1, i2, *trailing = self.dims
        rng = np.random.default_rng(self.seed)
        a = rng.standard_normal((i1, i2, *trailing))
        b = rng.standard_normal((i2, i2, *trailing))
        c = rng.standard_normal((i2, i1, *trailing))
        return a, b, c

    def explicit_matrices(self):
        rng = np.random.default_rng(2022)  # seed-independent: the seed varies data only
        return {m: _scaled_orthogonal(n, 2.0 + m, rng) for m, n in enumerate(self.dims[2:], start=3)}

    def setup(self):
        self.a, self.b, self.c = self.inputs()
        self.cprod = make_spec("cprod", self.dims)
        self.explicit = make_spec("explicit", self.dims, matrices=self.explicit_matrices())
        self.plan = self._plan()
        self.refs = []  # the warm-up round; validate() checks it, later rounds must repeat it
        for name, fn in self.plan:
            out = self._run_op(name, fn, self.refs)
            if isinstance(out, LTensorError):
                self.checks.check(False, f"warm-up {name} raised {out!r}")
            self.refs.append(out)
        self.rse = self._truncation_rse()

    def _plan(self):
        """The round: (op name, fn(results so far in this round))."""
        a, b, c, cp, ex = self.a, self.b, self.c, self.cprod, self.explicit
        return [  # the first TAIL_OPS ops are the cprod l_product calls
            ("l_product", lambda r: linalg.l_product(a, b, cp)),
            ("l_product", lambda r: linalg.l_product(b, c, cp)),
            ("l_product", lambda r: linalg.l_product(a, c, cp)),
            ("l_product", lambda r: linalg.l_product(c, a, cp)),
            ("l_transpose", lambda r: linalg.l_transpose(a, cp)),
            ("t_svd", lambda r: linalg.t_svd(a, cp)),
            ("truncate", lambda r: linalg.truncate(_ok(r[-1]), TRUNCATE_RANK)),
            ("l_product", lambda r: linalg.l_product(a, b, ex)),
            ("l_product", lambda r: linalg.l_product(c, a, ex)),
            ("l_transpose", lambda r: linalg.l_transpose(a, ex)),
            ("nuclear_norm", lambda r: linalg.nuclear_norm(a, ex)),
        ]

    def _check(self, ok, what):
        """Record ``ok()`` as a check; a raised LTensorError fails it."""
        try:
            ok = ok()
        except LTensorError as exc:
            ok, what = False, f"{what}: raised {exc!r}"
        return self.checks.check(ok, what)

    def validate(self):
        """Check the warm-up round against btph and the algebra's contracts."""
        check, a, refs = self._check, self.a, self.refs
        rng = np.random.default_rng(self.seed)
        x, y = rng.standard_normal((3, 4, 2, 3)), rng.standard_normal((4, 2, 2, 3))
        small = make_spec("cprod", x.shape)
        check(lambda: _close(linalg.l_product(x, y, small), btph.cproduct_via_btph(x, y), CONTRACT_RTOL),
              "cprod l_product differs from the btph oracle")
        for spec, transpose in ((self.cprod, refs[4]), (self.explicit, refs[9])):
            check(lambda: _close(linalg.l_product(a, linalg.identity_tensor(a.shape[1], a.shape[2:], spec), spec), a, CONTRACT_RTOL),
                  f"{spec.kind}: a * I != a")
            check(lambda: _close(linalg.l_transpose(_ok(transpose), spec), a, CONTRACT_RTOL),
                  f"{spec.kind}: transpose is no involution")

        def reconstructs():
            f, cp = _ok(refs[5]), self.cprod
            return _close(linalg.l_product(linalg.l_product(f.u, f.s, cp), linalg.l_transpose(f.v, cp), cp), a, CONTRACT_RTOL)

        check(reconstructs, "t_svd does not reconstruct its input")
        check(lambda: bool(np.all(np.diff(_ok(refs[5]).tube_norms) <= 0)), "t_svd tube norms increase")
        check(lambda: _close(linalg.truncate(_ok(refs[5]), min(a.shape[:2])), a, CONTRACT_RTOL),
              "full-rank truncate differs from its input")
        check(lambda: np.isfinite(self.rse), "rank-k truncate is malformed")

        def within_bounds():
            nn, fro, alpha = _ok(refs[10]), np.linalg.norm(a), self.explicit.alpha
            slices = min(a.shape[:2]) * int(np.prod(a.shape[2:]))
            return fro / np.sqrt(alpha) <= nn * (1 + CONTRACT_RTOL) and nn <= np.sqrt(slices / alpha) * fro * (1 + CONTRACT_RTOL)

        check(within_bounds, "nuclear norm outside its Frobenius bounds")
        check(lambda: _close(linalg.nuclear_norm(2.0 * a, self.explicit), 2.0 * _ok(refs[10]), CONTRACT_RTOL),
              "nuclear norm is not homogeneous")

    def _truncation_rse(self):
        """||a - a_k||^2 / ||a_k||^2 of the rank-k truncation, the round's accuracy figure."""
        approx = np.asarray(self.refs[6])
        if approx.shape != self.a.shape:
            return float("nan")
        return float(np.sum((self.a - approx) ** 2) / np.sum(approx**2))

    @staticmethod
    def _run_op(name, fn, results, group=no_group):
        """One op of the round; a raised LTensorError is returned, not raised."""
        try:
            with group("bench." + name):
                return fn(results)
        except LTensorError as exc:
            return exc

    def run_unit(self, group=no_group):
        results, op_seconds = [], []
        for (name, fn), ref in zip(self.plan, self.refs):
            start = perf_counter()
            out = self._run_op(name, fn, results, group)
            op_seconds.append(perf_counter() - start)
            if isinstance(out, LTensorError):
                self.checks.check(False, f"{name} raised {out!r}")
            else:
                self.checks.check(_close(out, ref, REPEAT_RTOL), f"{name} output differs from the validated round")
            results.append(out)
        return Unit(seconds=sum(op_seconds), steps=len(self.plan), op_seconds=op_seconds, rse=self.rse)

    @staticmethod
    def tail_ms(units):
        """op_ms.p90's population: the cprod l_product calls.

        Over ops of mixed kinds the p90 falls on the edge between t_svd (one
        op in eleven, ~18 ms) and the rest (under 6 ms), so it jumps between
        the two with the machine's spike rate.
        """
        return [1e3 * t for u in units for t in u.op_seconds[:TAIL_OPS]]


def make_workload(name, seed, workdir):
    if name == "algebra-matrix":
        return Algebra(seed, ALGEBRA_DIMS)
    return Completion(name.split("-", 1)[1], seed, workdir, VIDEO_DIMS)
