"""The error contract over the whole public API.

Every name in ``ltensor.__all__`` that takes an array is called on each
hostile operand below, and every name that takes a count on each hostile
count. A call must return a result or raise an ``LTensorError``, with
warnings treated as errors; a hostile count must be refused. The table has
to cover ``ltensor.__all__`` exactly, so a new public name cannot skip it.
"""

import warnings

import numpy as np
import pytest

import ltensor
from ltensor import (
    CompletionConfig,
    apply_l,
    apply_l_inv,
    build_cproduct_matrix,
    build_dct_matrix,
    build_fourier_matrix,
    export_ppm_dir,
    facewise_product,
    fro_norm,
    identity_tensor,
    inner_product,
    is_orthogonal,
    l_product,
    l_transpose,
    make_spec,
    mode_n_fold,
    mode_n_product,
    mode_n_unfold,
    nuclear_norm,
    num_rep,
    pga_complete,
    project_omega,
    psnr,
    ranks,
    rep_matrix,
    rse,
    sample_mask,
    spectral_norm,
    svt,
    t_svd,
    truncate,
    write_container,
)
from ltensor.errors import LTensorError

SHAPE = (3, 3, 3, 2)  # square slices for is_orthogonal, three channels for export_ppm_dir
SPEC = make_spec("fft", SHAPE)
CFG = CompletionConfig(spec=SPEC, max_iters=2)
Y = np.arange(54.0).reshape(SHAPE) / 54.0  # a valid tensor for the other argument
MASK = sample_mask(SHAPE, 0.5, 1)


def _operands():
    nan = Y.copy()
    nan[0, 0, 0, 0] = np.nan
    return {
        "int": np.arange(54).reshape(SHAPE),
        "bool": np.arange(54).reshape(SHAPE) % 2 == 0,
        "float32": Y.astype(np.float32),
        "nan": nan,
        "str": np.full(SHAPE, "a"),
        "object": Y.astype(object),
        "nested-list": Y.tolist(),
        "scalar": 3.0,
        "None": None,
        "zero-size-dim": np.ones((0,) + SHAPE[1:]),
        "order-2": np.ones(SHAPE[:2]),
        "wrong-trailing-dims": np.ones(SHAPE[:3] + (3,)),
        "complex": Y + 1j,
        "1e308": np.full(SHAPE, 1e308),
        "ragged": [[1.0, 2.0], [3.0]],
    }


OPERANDS = _operands()
COUNTS = {"2.5": 2.5, "True": True, "None": None, "str": "3", "-1": -1}

# (name, call): each call takes the hostile operand and a scratch directory
ARRAY_ROWS = [
    ("apply_l", lambda x, d: apply_l(x, SPEC)),
    ("apply_l_inv", lambda x, d: apply_l_inv(x, SPEC)),
    ("export_ppm_dir", lambda x, d: export_ppm_dir(x, d / "frames")),
    ("facewise_product", lambda x, d: facewise_product(x, x)),
    ("fro_norm", lambda x, d: fro_norm(x)),
    ("inner_product", lambda x, d: inner_product(x, x)),
    ("is_orthogonal", lambda x, d: is_orthogonal(x, SPEC)),
    ("l_product", lambda x, d: l_product(x, x, SPEC)),
    ("l_transpose", lambda x, d: l_transpose(x, SPEC)),
    ("make_spec", lambda x, d: make_spec("explicit", SHAPE, modes=(3,), matrices={3: x})),
    ("mode_n_fold", lambda x, d: mode_n_fold(x, 1, (3, 3))),
    ("mode_n_product", lambda x, d: mode_n_product(x, np.ones((2, 3)), 1)),
    ("mode_n_product", lambda x, d: mode_n_product(Y, x, 1)),
    ("mode_n_unfold", lambda x, d: mode_n_unfold(x, 1)),
    ("nuclear_norm", lambda x, d: nuclear_norm(x, SPEC)),
    ("pga_complete", lambda x, d: pga_complete(x, MASK, CFG)),
    ("pga_complete", lambda x, d: pga_complete(Y, x, CFG)),
    ("pga_complete", lambda x, d: pga_complete(Y, MASK, CFG, ground_truth=x)),
    ("project_omega", lambda x, d: project_omega(x, MASK)),
    ("project_omega", lambda x, d: project_omega(Y, x)),
    ("psnr", lambda x, d: psnr(x, x)),
    ("psnr", lambda x, d: psnr(x, Y)),
    ("ranks", lambda x, d: ranks(x, SPEC)),
    ("rep_matrix", lambda x, d: rep_matrix(x, 1)),
    ("rse", lambda x, d: rse(x, x)),
    ("rse", lambda x, d: rse(x, Y)),
    ("sample_mask", lambda x, d: sample_mask(x, 0.5, 1)),
    ("spectral_norm", lambda x, d: spectral_norm(x, SPEC)),
    ("svt", lambda x, d: svt(x, 0.5, SPEC)),
    ("t_svd", lambda x, d: t_svd(x, SPEC)),
    ("write_container", lambda x, d: write_container(d / "x.tlt", x)),
]

# (name, call): each call takes the hostile count
COUNT_ROWS = [
    ("build_cproduct_matrix", build_cproduct_matrix),
    ("build_dct_matrix", build_dct_matrix),
    ("build_fourier_matrix", build_fourier_matrix),
    ("identity_tensor", lambda c: identity_tensor(c, SHAPE[2:], SPEC)),
    ("identity_tensor", lambda c: identity_tensor(3, (3, c), SPEC)),
    ("make_spec", lambda c: make_spec("fft", (3, 3, c))),
    ("make_spec", lambda c: make_spec("fft", SHAPE, modes=(c,))),
    ("mode_n_fold", lambda c: mode_n_fold(np.ones((3, 6)), 1, (3, 3, c))),
    ("mode_n_fold", lambda c: mode_n_fold(np.ones((3, 6)), c, (3, 3, 2))),
    ("mode_n_product", lambda c: mode_n_product(Y, np.ones((2, 3)), c)),
    ("mode_n_unfold", lambda c: mode_n_unfold(Y, c)),
    ("num_rep", lambda c: num_rep((3, 3, c))),
    ("rep_matrix", lambda c: rep_matrix(Y, c)),
    ("sample_mask", lambda c: sample_mask((3, 3, c), 0.5, 1)),
    ("sample_mask", lambda c: sample_mask(SHAPE, 0.5, c)),
    ("truncate", lambda c: truncate(t_svd(Y, SPEC), c)),
]

# names that take neither an array nor a count, and why
EXEMPT = {
    "CompletionConfig": "a class; validate() checks its fields (tests/test_completion.py)",
    "CompletionTrace": "a class holding solver records",
    "LFactors": "a class; leading() takes the count truncate passes on",
    "RankReport": "a class holding results",
    "TransformSpec": "a class; make_spec builds and checks it",
    "read_container": "takes a path; tests/test_io_fuzz.py feeds it malformed files",
    "import_ppm_dir": "takes a path; tests/test_io_cli.py feeds it malformed frames",
}


def _ids(rows):
    seen = {}
    ids = []
    for name, _ in rows:
        seen[name] = seen.get(name, 0) + 1
        ids.append(f"{name}{seen[name]}" if seen[name] > 1 else name)
    return ids


def _outcome(call, *args):
    """The LTensorError a call raised, or None; any other exception or a warning propagates."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(*args)
        except LTensorError as exc:
            return exc
    return None


def test_table_covers_the_public_api():
    names = {name for name, _ in ARRAY_ROWS + COUNT_ROWS}
    assert names.isdisjoint(EXEMPT)
    assert sorted(names | set(EXEMPT)) == sorted(ltensor.__all__)


@pytest.mark.parametrize("operand", OPERANDS, ids=str)
@pytest.mark.parametrize("call", [c for _, c in ARRAY_ROWS], ids=_ids(ARRAY_ROWS))
def test_hostile_operand_gives_a_result_or_an_ltensor_error(call, operand, tmp_path):
    _outcome(call, OPERANDS[operand], tmp_path)


@pytest.mark.parametrize("count", COUNTS, ids=str)
@pytest.mark.parametrize("call", [c for _, c in COUNT_ROWS], ids=_ids(COUNT_ROWS))
def test_hostile_count_is_refused_with_an_ltensor_error(call, count):
    assert _outcome(call, COUNTS[count]) is not None
