"""End-to-end acceptance checks for the library.

Each test prints a single PASS/FAIL line for its criterion so a full run
doubles as a short report: run ``pytest tests/test_acceptance.py -s``.
"""

import math
import time

import numpy as np
import pytest

from ltensor.btph import check_diagonalization, cproduct_via_btph
from ltensor.completion import (
    CompletionConfig,
    pga_complete,
    project_omega,
    psnr,
    rse,
    sample_mask,
)
from ltensor.core import fro_norm
from ltensor.io import export_ppm_dir, import_ppm_dir, read_container, write_container
from ltensor.linalg import (
    identity_tensor,
    is_orthogonal,
    l_product,
    l_transpose,
    nuclear_norm,
    ranks,
    svt,
    t_svd,
    truncate,
)
from ltensor.transforms import make_spec

from conftest import synthetic_video


def _report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _random_shape(r, max_dim=4):
    order = int(r.integers(3, 6))
    return tuple(int(d) for d in r.integers(1, max_dim + 1, size=order))


def test_product_matches_structured_matrix_oracle():
    r = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        shape = _random_shape(r)
        l = int(r.integers(1, 4))
        a = r.standard_normal((shape[0], l) + shape[2:])
        b = r.standard_normal((l, shape[1]) + shape[2:])
        spec = make_spec("cprod", (shape[0], shape[1]) + shape[2:])
        fast = l_product(a, b, spec)
        oracle = cproduct_via_btph(a, b)
        scale = max(fro_norm(oracle), 1e-30)
        worst = max(worst, fro_norm(fast - oracle) / scale)
    elapsed = time.monotonic() - start
    _report(
        "cosine product agrees with block-structured matrix oracle",
        worst < 1e-10 and elapsed < 30,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s / 100 cases",
    )


def test_transform_diagonalizes_structured_matrices():
    r = np.random.default_rng(202)
    start = time.monotonic()
    cases = []
    for _ in range(150):
        cases.append(r.standard_normal(_random_shape(r, max_dim=3)))
    for _ in range(25):  # scalar-tensors
        trailing = tuple(int(d) for d in r.integers(1, 4, size=int(r.integers(1, 4))))
        cases.append(r.standard_normal((1, 1) + trailing))
    for _ in range(25):
        cases.append(r.standard_normal((2, 3, 2, 2)))
    ok = True
    worst = 0.0
    for x in cases:
        spec = make_spec("cprod", x.shape)
        resid = check_diagonalization(x, spec)
        bound = 1e-10 * (1 + fro_norm(x))
        worst = max(worst, resid / bound)
        ok = ok and resid < bound
    elapsed = time.monotonic() - start
    _report(
        "transform block-diagonalizes the structured matrices",
        ok and elapsed < 60,
        f"worst residual ratio {worst:.2e}, {elapsed:.1f}s / {len(cases)} cases",
    )


@pytest.mark.parametrize("kind", ["fft", "dct"])
def test_tensor_svd_contract(kind):
    r = np.random.default_rng(303)
    ok = True
    detail = ""
    for _ in range(100):
        shape = _random_shape(r)
        a = r.standard_normal(shape)
        spec = make_spec(kind, shape)
        f = t_svd(a, spec)
        recon = l_product(
            l_product(f.u, f.s, make_spec(kind, (shape[0], shape[1]) + shape[2:])),
            l_transpose(f.v, make_spec(kind, f.v.shape)),
            spec,
        )
        scale = max(fro_norm(a), 1e-30)
        checks = [
            fro_norm(recon - a) / scale < 1e-10,
            is_orthogonal(f.u, make_spec(kind, f.u.shape), tol=1e-9),
            is_orthogonal(f.v, make_spec(kind, f.v.shape), tol=1e-9),
            bool(np.all(np.diff(f.tube_norms) <= 1e-12 * (1 + f.tube_norms[0]))),
            abs(fro_norm(a) ** 2 - float((f.tube_norms**2).sum())) <= 1e-10 * fro_norm(a) ** 2,
        ]
        if not all(checks):
            ok = False
            detail = f"shape {shape}, checks {checks}"
            break
    _report(f"tensor SVD contract ({kind})", ok, detail or "100 random tensors")


def test_truncation_error_identity():
    r = np.random.default_rng(404)
    spec = make_spec("fft", (4, 4, 2, 2))
    ok = True
    for _ in range(30):
        a = r.standard_normal((4, 4, 2, 2))
        f = t_svd(a, spec)
        for k in range(1, 5):
            err = fro_norm(a - truncate(f, k)) ** 2
            tail = float((f.tube_norms[k:] ** 2).sum())
            ok = ok and abs(err - tail) <= 1e-9 * max(tail, 1e-30) + 1e-12
    for _ in range(10):  # exact recovery at the tubal rank for rank-2 tensors
        a = l_product(r.standard_normal((4, 2, 2, 2)), r.standard_normal((2, 4, 2, 2)), spec)
        f = t_svd(a, spec)
        k = ranks(a, spec).tubal
        ok = ok and k == 2 and fro_norm(a - truncate(f, k)) < 1e-9
    _report("truncation error identity and exact low-rank recovery", ok)


def test_svt_prox_optimality():
    r = np.random.default_rng(505)
    spec = make_spec("dct", (2, 2, 2))
    min_margin = math.inf
    for _ in range(20):
        a = r.standard_normal((2, 2, 2))
        for tau in (0.1, 0.5, 1.0):
            out = svt(a, tau, spec)

            def obj(y):
                return tau * nuclear_norm(y, spec) + 0.5 * fro_norm(y - a) ** 2

            base = obj(out)
            for _ in range(1000 // 3 + 1):
                radius = 10 ** r.uniform(-3, 0)
                pert = r.standard_normal((2, 2, 2))
                pert *= radius / fro_norm(pert)
                min_margin = min(min_margin, obj(out + pert) - base)
        ident = fro_norm(svt(a, 0.0, spec) - a) < 1e-10
        if not ident:
            min_margin = -math.inf
    _report(
        "singular value thresholding is the nuclear-norm prox",
        min_margin >= -1e-12,
        f"min perturbation margin {min_margin:.2e}",
    )


def test_ring_and_algebra_laws():
    r = np.random.default_rng(606)
    ok = True
    for i in range(120):
        kind = ("fft", "dct", "cprod")[i % 3]
        trailing = tuple(int(d) for d in r.integers(1, 4, size=int(r.integers(1, 4))))
        shape = (1, 1) + trailing
        spec = make_spec(kind, shape)
        a, b, c = (r.standard_normal(shape) for _ in range(3))
        scale = 1e-12 * (1 + fro_norm(a) * fro_norm(b) * (1 + fro_norm(c)))
        assoc = l_product(a, l_product(b, c, spec), spec) - l_product(
            l_product(a, b, spec), c, spec
        )
        dist = l_product(a, b + c, spec) - l_product(a, b, spec) - l_product(a, c, spec)
        comm = l_product(a, b, spec) - l_product(b, a, spec)
        ok = ok and fro_norm(assoc) < scale and fro_norm(dist) < scale and fro_norm(comm) < scale
    for i in range(100):  # transpose reversal and identity neutrality
        kind = ("fft", "dct", "cprod")[i % 3]
        trailing = tuple(int(d) for d in r.integers(1, 4, size=int(r.integers(1, 3))))
        m, l, n = (int(d) for d in r.integers(1, 4, size=3))
        a = r.standard_normal((m, l) + trailing)
        b = r.standard_normal((l, n) + trailing)
        spec = make_spec(kind, (m, n) + trailing)
        eye = identity_tensor(m, trailing, spec)
        neutral = l_product(eye, a, make_spec(kind, a.shape)) - a
        lhs = l_transpose(l_product(a, b, spec), spec)
        rhs = l_product(
            l_transpose(b, make_spec(kind, b.shape)),
            l_transpose(a, make_spec(kind, a.shape)),
            spec,
        )
        scale = 1e-10 * (1 + fro_norm(a) * (1 + fro_norm(b)))
        ok = ok and fro_norm(neutral) < scale and fro_norm(lhs - rhs) < scale
    _report("ring and algebra laws (220 randomized cases)", ok)


# Pinned at the first green run of this suite; any drift means the solver
# or its dependencies changed numerically.
_PINNED_RSE = {"fft": 0.0003459755997733272, "dct": 0.00020922751673777}


@pytest.mark.parametrize("kind", ["fft", "dct"])
def test_completion_recovery_regression(kind):
    r = np.random.default_rng(7)
    dims = (20, 20, 3, 5)
    start = time.monotonic()
    # draw both kinds' factors from one stream, fft first, to keep the
    # pinned values independent of parametrization order
    problems = {}
    for k in ("fft", "dct"):
        spec = make_spec(k, dims)
        x = r.standard_normal((20, 2, 3, 5))
        y = r.standard_normal((2, 20, 3, 5))
        problems[k] = (l_product(x, y, spec), spec)
    m, spec = problems[kind]
    mask = sample_mask(dims, 0.5, 7)
    out, trace = pga_complete(m, mask, CompletionConfig(spec=spec, max_iters=300))
    final = rse(out, m)
    elapsed = time.monotonic() - start
    pinned = _PINNED_RSE[kind]
    _report(
        f"completion recovery regression ({kind})",
        final < 1e-2 and np.isclose(final, pinned, rtol=1e-6) and elapsed < 120,
        f"RSE {final:.6e} vs pinned {pinned:.6e}, "
        f"{trace.iterations} iters, {elapsed:.1f}s",
    )


def test_recovery_improves_with_sampling_ratio():
    m = synthetic_video((36, 44, 3, 20))
    spec = make_spec("fft", m.shape)
    results = {}
    for sr in (0.05, 0.10):
        mask = sample_mask(m.shape, sr, 11)
        out, _ = pga_complete(m, mask, CompletionConfig(spec=spec, max_iters=300))
        results[sr] = (psnr(out, m), psnr(project_omega(m, mask), m))
    gap = results[0.10][0] - results[0.05][0]
    margins = [results[sr][0] - results[sr][1] for sr in (0.05, 0.10)]
    _report(
        "recovered PSNR improves with sampling ratio and beats zero filling",
        gap >= 1.0 and all(mg >= 5.0 for mg in margins),
        f"PSNR(0.10) - PSNR(0.05) = {gap:.2f} dB, "
        f"margins over zero-filled {margins[0]:.2f} / {margins[1]:.2f} dB",
    )


def test_metric_formulas_and_stopping_rule():
    obtained = np.ones((2, 2, 2))
    original = obtained.copy()
    original[0, 0, 0] += 0.1
    checks = [
        abs(rse(obtained, original) - 0.01 / 8.0) < 1e-12,
        abs(psnr(obtained, original) - 20.0) < 1e-12,
        psnr(obtained, obtained) == math.inf,
        rse(obtained, obtained) == 0.0,
    ]
    r = np.random.default_rng(909)
    spec = make_spec("fft", (12, 12, 3))
    m = l_product(r.standard_normal((12, 2, 3)), r.standard_normal((2, 12, 3)), spec)
    mask = sample_mask(m.shape, 0.6, 9)
    _, trace = pga_complete(m, mask, CompletionConfig(spec=spec, max_iters=300))
    checks.append(trace.status == "converged")
    checks.append(trace.records[-1].rel_change <= 1e-4)
    checks.append(all(rec.rel_change > 1e-4 for rec in trace.records[:-1]))
    _report("metric formulas and stopping rule", all(checks), f"checks {checks}")


def test_io_round_trips_and_cli_determinism(tmp_path):
    from ltensor.cli import main

    r = np.random.default_rng(1010)
    checks = []
    x = r.standard_normal((4, 3, 2, 2))
    p = tmp_path / "x.tlt"
    write_container(p, x)
    checks.append(np.array_equal(read_container(p), x))
    p2 = tmp_path / "x2.tlt"
    write_container(p2, x)
    checks.append(p.read_bytes() == p2.read_bytes())

    frames = np.clip(r.random((6, 7, 3, 3)), 0, 1)
    d1, d2 = tmp_path / "v1", tmp_path / "v2"
    export_ppm_dir(frames, d1)
    once = import_ppm_dir(d1)
    export_ppm_dir(once, d2)
    checks.append(np.array_equal(import_ppm_dir(d2), once))

    ma, mb = tmp_path / "ma.tlt", tmp_path / "mb.tlt"
    for out in (ma, mb):
        code = main(["mask", "gen", "--dims", "8,8,3", "--sr", "0.3",
                     "--seed", "3", "--out", str(out)])
        checks.append(code == 0)
    checks.append(ma.read_bytes() == mb.read_bytes())

    spec = make_spec("fft", (8, 8, 3))
    m = l_product(r.standard_normal((8, 2, 3)), r.standard_normal((2, 8, 3)), spec)
    pm = tmp_path / "m.tlt"
    write_container(pm, m)
    outs = []
    for name in ("c1.tlt", "c2.tlt"):
        po = tmp_path / name
        code = main(["complete", "--input", str(pm), "--mask", str(ma),
                     "--transform", "fft", "--max-iters", "50", "--out", str(po)])
        checks.append(code == 0)
        outs.append(po.read_bytes())
    checks.append(outs[0] == outs[1])
    _report("container/PPM round trips and CLI determinism", all(checks), f"checks {checks}")
