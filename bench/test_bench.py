"""Tests of the benchmark itself:  python3 -m pytest -q bench"""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.import_library()

import ltensor.completion  # noqa: E402
import ltensor.linalg  # noqa: E402
from ltensor.errors import LTensorError  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY_VIDEO = (12, 14, 3, 4)
TINY_ALGEBRA = (8, 7, 2, 3)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "VIDEO_DIMS", TINY_VIDEO)
    monkeypatch.setattr(workloads, "ALGEBRA_DIMS", TINY_ALGEBRA)
    monkeypatch.setattr(workloads, "RSE_GATE", 1.0)  # tiny videos complete less accurately


def raise_library_error(*args, **kwargs):
    raise LTensorError("injected")


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, out.getvalue().splitlines()


def test_emitted_names_are_well_formed():
    spans = {name for _, _, name, _ in tracing.WRAP_POINTS}
    for name in [*run.END_TO_END, *run.PER_LAYER, *run.WORKLOADS, *spans]:
        assert NAME.fullmatch(name), name
    for unit in [*run.END_TO_END.values(), *run.PER_LAYER.values()]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(tiny, workload):
    code, lines = run_main(["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0"])
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not list((run.ROOT / ".bench_out").glob("work-*"))  # scratch files removed


def test_traced_unit_restores_every_patched_attribute(tiny, tmp_path):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracing.WRAP_POINTS]
    tracer = tracing.Tracer()
    w = workloads.make_workload("complete-dct", 1, str(tmp_path))
    w.setup()
    with tracer.installed():
        assert all(getattr(owner, attr) is not original for owner, attr, original in originals)
        w.run_unit(tracer.group)
    with pytest.raises(RuntimeError), tracer.installed():
        raise RuntimeError("fault inside the traced block")
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, attr
    assert tracer.spans and all(end >= start for _, start, end, *_ in tracer.spans)


def test_layer_counts_and_separation(tiny, tmp_path):
    layers = {}
    for name in ("complete-fft", "algebra-matrix"):
        tracer = tracing.Tracer()
        w = workloads.make_workload(name, 1, str(tmp_path))
        w.setup()
        with tracer.installed():
            w.run_unit(tracer.group)
        layers[name] = tracing.layer_metrics(tracer.spans, 1)
    fft, alg = layers["complete-fft"], layers["algebra-matrix"]
    assert fft["linalg.svd.calls"] == fft["linalg.svt.calls"] == fft["transforms.apply_l.calls"]
    assert fft["linalg.svd.slices"] == 3 * 4
    assert "core.mode_n_product.calls" not in fft and "transforms.mode_inverse.calls" not in fft
    assert alg["linalg.truncate.transforms_per_call"] == 8
    assert alg["linalg.svd.calls"] == 2 and alg["transforms.mode_inverse.calls"] > 0
    assert fft["cli.main.self_s"] <= fft["cli.main.s"]


def test_seed_changes_the_mask_and_nothing_else(tmp_path):
    a = workloads.Completion("fft", 1, str(tmp_path), TINY_VIDEO)
    b = workloads.Completion("fft", 2, str(tmp_path), TINY_VIDEO)
    (video_a, mask_a), (video_b, mask_b) = a.inputs(), b.inputs()
    assert np.array_equal(video_a, video_b)
    assert not np.array_equal(mask_a, mask_b) and mask_a.sum() == mask_b.sum()
    assert np.array_equal(mask_a, a.inputs()[1])
    assert np.array_equal(mask_a, ltensor.completion.sample_mask(TINY_VIDEO, workloads.SAMPLING_RATIO, 1))

    x, y = workloads.Algebra(1, TINY_ALGEBRA), workloads.Algebra(2, TINY_ALGEBRA)
    assert all(u.shape == v.shape and not np.array_equal(u, v) for u, v in zip(x.inputs(), y.inputs()))
    for m, mat in x.explicit_matrices().items():
        assert np.array_equal(mat, y.explicit_matrices()[m])


def test_video_is_the_sweep_scripts_video():
    sys.path.insert(0, str(run.ROOT / "scripts"))
    try:
        sr_sweep = pytest.importorskip("sr_sweep")
    finally:
        sys.path.pop(0)
    assert np.array_equal(workloads.synthetic_video(TINY_VIDEO), sr_sweep.synthetic_video(TINY_VIDEO))


@pytest.mark.parametrize(
    "workload, owner, attr, fault",
    [
        ("algebra-matrix", ltensor.linalg, "truncate", lambda f, k: f.u[:, :k]),
        ("complete-fft", ltensor.completion, "svt", lambda a, tau, spec: np.asarray(a)),
        # raised from the warm-up round and the set-up checks as well as from every round
        ("algebra-matrix", ltensor.linalg, "t_svd", raise_library_error),
    ],
)
def test_injected_fault_fails_checks(tiny, monkeypatch, workload, owner, attr, fault):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", "0"]
    assert json.loads(run_main(argv)[1][-1])["failed"] == 0
    monkeypatch.setattr(owner, attr, fault)
    code, lines = run_main(argv)
    result = json.loads(lines[-1])
    assert code == 1 and not result["correct"] and result["failed"] > 0
    fail_frac = next(line for line in lines if line.startswith("# fail_frac"))
    assert float(fail_frac.split()[2]) == result["failed"] / result["attempted"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "complete-fft", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2 and "correct" not in proc.stdout and "no ltensor package" in proc.stderr
