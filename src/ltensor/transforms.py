"""Mode-wise invertible transforms defining the *_L product family.

A :class:`TransformSpec` fixes the operator L: which trailing modes are
transformed and by which matrices M_i.  fft applies its fixed M_i by fast
transforms; the other three store their matrices and ``np.linalg.inv``
inverses alike:

* ``fft`` - unnormalized DFT along each transformed mode (t-product family).
* ``dct`` - orthogonal DCT-II matrix (TNN-PGA-C style solving).
* ``cprod`` - M = W^{-1} C (I + Z), the exact cosine-product matrix.
* ``explicit`` - the caller's invertible matrices.

``alpha`` is the product over transformed modes of the unitarity scales s_i
with M_i M_i* = s_i I, so that ||a||_F^2 = alpha^{-1} ||L(a)||_F^2 for
unitary-scaled kinds (alpha = prod I_i for fft).  One Gram test per M_i finds
s_i for the matrix kinds: dct gives 1 up to rounding (1.0000000000000002 on
modes of sizes 7, 9 and 11), and alpha is None if one fails (cprod on a mode
of size >= 2), which disables the nuclear-norm/SVT theory.

Every transform runs on the rep-stack block array, the one view
:func:`ltensor.core.rep_block`; its memory order and the workspace are
described in :mod:`ltensor.core`.  Each step writes where
:func:`ltensor.core.scratch` puts it: a workspace role, or a fresh array for
role None.  fft transforms all its modes in one in-place multi-axis
``numpy.fft`` call (``fftn``/``ifftn`` with ``out=`` the block): on the
input itself when it is handed over, else on a complex128 copy made in the
result's place.  A dense complex DFT costs about 4x a real one.  The *_L
ops of :mod:`ltensor.linalg` take fft's inverse of a real result as one
``np.fft.irfftn`` call on the half spectrum :func:`_half_spectrum` names,
which forms no imaginary part.  Only a public caller's
``apply_l_inv(..., assume_real=True)`` tests an imaginary residual; no op
passes ``assume_real``.
The matrix kinds, dct included, take one :func:`ltensor.core.mode_n_product`
per mode.  Every kind works in double precision (complex when L or the input
is), so a spec with no transformed modes also returns float64 for integer,
boolean or float32 input.

No NaN or inf enters or leaves the L-domain: every forward and inverse
transform makes one finiteness pass over its result and raises
``ParameterError`` for NaN or inf input or an overflow, without a numpy
warning.  This covers :func:`apply_l`, :func:`apply_l_inv`,
:func:`ltensor.linalg.identity_tensor` and every *_L op.

:func:`check_spec` is the one rule for a spec argument: every transform runs
it, and so does each op that reads its spec before the first transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import _as_tensor, count_tuple, fro_norm, from_rep_stack, in_workspace, is_count, is_flag, mode_n_product, num_rep, rep_block, scratch
from .errors import ParameterError, NumericConsistencyError, TransformError, UnsupportedSpecError

_INV_TOL = 1e-10
_UNITARY_TOL = 1e-10
_IMAG_TOL = 1e-9


def build_dct_matrix(n: int) -> np.ndarray:
    """Orthogonal DCT-II matrix: C[i,j] = sqrt((2-d_{i1})/n) cos((i-1)(2j-1)pi/2n)."""
    if not is_count(n, 1):
        raise ParameterError(f"matrix size must be >= 1 and an integer, got {n!r}")
    i = np.arange(1, n + 1)[:, None]
    j = np.arange(1, n + 1)[None, :]
    scale = np.sqrt((2.0 - (i == 1)) / n)
    return scale * np.cos((i - 1) * (2 * j - 1) * np.pi / (2 * n))


def build_fourier_matrix(n: int) -> np.ndarray:
    """Unnormalized DFT matrix with entries omega_n^{(i-1)(j-1)}."""
    if not is_count(n, 1):
        raise ParameterError(f"matrix size must be >= 1 and an integer, got {n!r}")
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def build_cproduct_matrix(n: int) -> np.ndarray:
    """Cosine-product matrix M = W^{-1} C (I + Z), W = diag(C[:, 0]), Z upshift."""
    c = build_dct_matrix(n)
    w_inv = np.diag(1.0 / c[:, 0])
    iz = np.eye(n) + np.diag(np.ones(n - 1), 1)
    return w_inv @ c @ iz


# The kinds that build their own mode matrices and then run as ``explicit`` does.
_BUILDERS = {"dct": build_dct_matrix, "cprod": build_cproduct_matrix}
_KINDS = ("fft", "explicit", *_BUILDERS)


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, no longer writable: a spec's matrices and inverses never change."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class TransformSpec:
    """The operator L: transformed modes, per-mode matrices and their inverses, scaling.

    Immutable: fields cannot be reassigned, and :func:`make_spec` stores every
    matrix and inverse a spec holds, read-only.  fft stores none: its
    transforms run on ``numpy.fft``, and :meth:`mode_matrix` and
    :meth:`mode_inverse` build its (read-only) pair on each call.
    """

    kind: str
    modes: tuple  # 1-based tensor modes, each >= 3, ascending
    sizes: tuple  # mode sizes, parallel to `modes`
    alpha: float | None  # None unless every mode matrix is unitary-scaled
    _matrices: dict = field(default_factory=dict, repr=False)
    _inverses: dict = field(default_factory=dict, repr=False)

    @property
    def unitary_scaled(self) -> bool:
        return self.alpha is not None

    def __eq__(self, other):
        if not isinstance(other, TransformSpec):
            return NotImplemented
        if (self.kind, self.modes, self.sizes) != (other.kind, other.modes, other.sizes):
            return False
        return all(np.array_equal(mat, other._matrices[m]) for m, mat in self._matrices.items())

    def __hash__(self):
        return hash((self.kind, self.modes, self.sizes))  # equal specs agree on these

    def mode_matrix(self, mode: int) -> np.ndarray:
        """The transform matrix for one mode, read-only (fft's DFT matrix is built on each call)."""
        return self._pair(mode)[0]

    def mode_inverse(self, mode: int) -> np.ndarray:
        """The inverse of :meth:`mode_matrix`, read-only (fft's exact conj(F) / n is built on each call)."""
        return self._pair(mode)[1]

    def _pair(self, mode):
        if mode not in self.modes:
            raise TransformError(f"mode {mode} is not transformed by this spec")
        if mode in self._matrices:
            return self._matrices[mode], self._inverses[mode]
        f = build_fourier_matrix(self.sizes[self.modes.index(mode)])
        return _read_only(f), _read_only(f.conj() / len(f))


def check_spec(spec, unitary_for: str | None = None) -> TransformSpec:
    """spec, checked: the one rule for a spec argument.

    Raises ``ParameterError`` unless spec is a :class:`TransformSpec`, and
    ``UnsupportedSpecError`` unless it is unitary-scaled when ``unitary_for``
    names an op that needs that.
    """
    if not isinstance(spec, TransformSpec):
        raise ParameterError(f"spec must be a TransformSpec from make_spec, got {type(spec).__name__}")
    if unitary_for is not None and not spec.unitary_scaled:
        raise UnsupportedSpecError(f"{unitary_for} requires a unitary-scaled transform; the {spec.kind!r} kind is not")
    return spec


def _alpha(scales):
    """The product of the Gram scales, taken in floats so that it overflows to inf, or None unless it is finite and > 0."""
    alpha = math.prod(scales, start=1.0)
    return alpha if 0.0 < alpha < math.inf else None


def make_spec(kind: str, shape, modes=None, matrices=None) -> TransformSpec:
    """Build a TransformSpec for tensors of the given shape.

    Dims and ``modes`` are integers (Python or numpy, not bool).  ``modes``
    defaults to all trailing modes 3..N; each may appear once.  ``matrices``
    is only for kind ``explicit`` (mode -> invertible matrix); the other kinds
    build their own and reject it.  ``alpha`` is None unless the product of
    the Gram scales (fft's are its mode sizes) is a finite float > 0 (1.0
    with no transformed modes), so a matrix too large or small to square in
    double precision, or fft sizes whose product exceeds the float range,
    give None.
    """
    checked = count_tuple(shape)
    if checked is None or len(checked) < 3:
        raise TransformError(f"transforms need order >= 3 and integer dims >= 0, got shape {shape}")
    shape = checked
    if modes is not None and not np.iterable(modes):
        raise TransformError(f"modes must be a sequence of integers, got {modes!r}")
    modes = tuple(range(3, len(shape) + 1) if modes is None else modes)
    for m in modes:
        if not (is_count(m, 3) and m <= len(shape)):
            raise TransformError(f"mode {m} out of range [3, {len(shape)}] (an integer) for shape {shape}")
    modes = tuple(sorted(map(int, modes)))
    for i, m in enumerate(modes):
        if m in modes[:i]:
            raise TransformError(f"mode {m} is given more than once")
        if shape[m - 1] == 0:
            raise TransformError(f"transformed mode {m} has size 0")
    sizes = tuple(shape[m - 1] for m in modes)
    if not (isinstance(kind, str) and kind in _KINDS):
        raise TransformError(f"unknown transform kind {kind!r}")
    if matrices is not None and kind != "explicit":
        raise TransformError(f"matrices are only for kind 'explicit'; {kind!r} takes none")

    if kind == "fft":
        return TransformSpec("fft", modes, sizes, _alpha(sizes))
    if kind in _BUILDERS:
        matrices = {m: _BUILDERS[kind](n) for m, n in zip(modes, sizes)}
    elif not isinstance(matrices, dict):
        raise TransformError(f"explicit kind requires per-mode matrices as a dict, got {type(matrices).__name__}")
    try:
        mats = {m: _read_only(np.array(matrices[m])) for m in matrices}
    except ValueError as exc:  # a ragged nested sequence
        raise TransformError(f"matrices must be rectangular arrays: {exc}") from exc
    if set(mats) != set(modes) or not all(map(is_count, mats)):
        raise TransformError(f"matrices given for modes {sorted(mats)}, expected {modes}")
    inverses, scales = {}, []
    for m, n in zip(modes, sizes):
        mat = mats[m]
        if mat.shape != (n, n):
            raise TransformError(f"matrix for mode {m} has shape {mat.shape}, expected ({n}, {n})")
        if mat.dtype.kind not in "biufc" or not np.isfinite(mat).all():
            raise TransformError(f"matrix for mode {m} must hold finite numbers")
        try:
            inverses[m] = _read_only(np.linalg.inv(mat))
        except np.linalg.LinAlgError as exc:
            raise TransformError(f"matrix for mode {m} is singular") from exc
        # an overflowed inverse or Gram gives NaN or inf, which fails each test
        with np.errstate(over="ignore", invalid="ignore"):
            residual = np.linalg.norm(mat @ inverses[m] - np.eye(n))
            if not residual < _INV_TOL * max(1.0, float(np.linalg.norm(mat))):
                raise TransformError("transform matrix is not invertible to working precision")
            gram = mat @ mat.conj().T
            s = float(np.trace(gram).real) / n
            if np.linalg.norm(gram - s * np.eye(n)) < _UNITARY_TOL * max(1.0, s):
                scales.append(s)
    return TransformSpec(kind, modes, sizes, _alpha(scales) if len(scales) == len(modes) else None, mats, inverses)


# The two workspace roles the rep-order copy and the mode products alternate between.
_STEPS = ("transforms.step0", "transforms.step1")


def _half_spectrum(spec, shape, real):
    """The L-domain slices the half-spectrum inverse reads, as an index into the rep block; None if it reads all.

    Under fft the slices of a real tensor's L-domain come in conjugate pairs,
    so L^{-1} of a real result needs only one of each pair: numpy's ``irfftn``,
    with the last transformed mode m (the block's outermost transformed axis)
    as its halved axis, reads just the slices whose index k there is
    < I_m // 2 + 1.  The index selects them from the block's (I_N, ..., I_3)
    axes: a prefix of the rep stack when m = N, strided rows otherwise.  None
    unless ``real`` and L is fft with transformed modes.
    """
    if not (real and spec.kind == "fft" and spec.modes):
        return None
    return (slice(None),) * (len(shape) - spec.modes[-1]) + (slice(spec.sizes[-1] // 2 + 1),)


def _conj_rows(spec, shape):
    """Under fft, the rep-stack row of each slice's conjugate: slice p of a real
    tensor's L-domain is the conjugate of slice ``_conj_rows(...)[p]``, whose index
    on every transformed mode m is -k mod I_m."""
    rows = np.arange(num_rep(shape)).reshape(shape[:1:-1])
    for m in spec.modes:
        rows = np.roll(np.flip(rows, len(shape) - m), 1, len(shape) - m)
    return rows.ravel()


def _mode_loop(x, spec, inverse, overwrite=False, role=None, half=False):
    check_spec(spec)
    x = _as_tensor(x)
    for mode, size in zip(spec.modes, spec.sizes):
        if mode > x.ndim or x.shape[mode - 1] != size:
            raise TransformError(
                f"tensor of shape {x.shape} does not match spec modes {spec.modes} "
                f"with sizes {spec.sizes}"
            )
    block = rep_block(x)  # mode m is its axis N - m
    axes = [x.ndim - m for m in spec.modes]  # the last is the half spectrum's halved axis
    index = _half_spectrum(spec, x.shape, half)
    fft = spec.kind == "fft" and bool(spec.modes)
    # L is computed in double precision under every kind, and fft in complex
    dtype = np.promote_types(x.dtype, np.complex128 if fft else np.float64)
    ready = spec.modes and block.flags.c_contiguous and block.dtype == dtype
    # the result may take the memory of an input handed over, never the workspace's
    owned = block if ready and overwrite and block.flags.writeable and not in_workspace(block) else None
    if index is None and (not ready or fft and owned is None):
        # fft transforms this copy in place; with no modes L is the identity, and it is the result
        copy = scratch(_STEPS[1] if spec.modes and not fft else role, block.shape, dtype)
        np.copyto(copy, block)
        block = copy
    if fft:  # one multi-axis numpy.fft call: in place, or a new real block from half the slices
        # numpy's fft warns on an overflow to inf or NaN (mode_n_product silences
        # its own), and the finiteness pass below refuses it
        with np.errstate(over="ignore", invalid="ignore"):
            if index is not None:
                block = np.fft.irfftn(block[index], s=spec.sizes, axes=axes)
            else:
                block = (np.fft.ifftn if inverse else np.fft.fftn)(block, axes=axes, out=block)
    else:
        modes = tuple(reversed(spec.modes)) if inverse else spec.modes
        for i, mode in enumerate(modes):
            mat = spec.mode_inverse(mode) if inverse else spec.mode_matrix(mode)
            dtype = np.result_type(block, mat)
            if i < len(modes) - 1:
                out = scratch(_STEPS[i % 2], block.shape, dtype)
            elif i > 0 and owned is not None and owned.dtype == dtype:
                out = owned  # only the first product read it
            else:
                out = scratch(role, block.shape, dtype)
            block = mode_n_product(block, mat, x.ndim - mode + 1, out=out)
    # Every mode matrix is invertible, so a NaN or inf input leaves NaN or inf in the result.
    if not np.isfinite(block).all():
        what = "inverse-transformed results" if inverse else "transform-domain slices"
        raise ParameterError(f"{what} hold NaN or inf (non-finite input or overflow)")
    return from_rep_stack(block.reshape((num_rep(x.shape),) + x.shape[:2]), x.shape[2:])


def apply_l(x, spec: TransformSpec, *, _scratch=None) -> np.ndarray:
    """L(x): successive mode products with M_i over spec.modes (fast transforms for fft).

    Raises ``ParameterError`` when the result holds NaN or inf: a non-finite
    input or an overflow.  The result is a new array.  ``_scratch`` is
    internal: a workspace role that receives the result instead (the matrix
    kinds' last product, fft's transformed copy, or with no transformed modes
    any kind's copy), for a caller whose stack dies inside its own op.
    """
    return _mode_loop(x, spec, inverse=False, role=_scratch)


def apply_l_inv(xhat, spec: TransformSpec, assume_real: bool = False, overwrite: bool = False, *, _half=False) -> np.ndarray:
    """L^{-1}(xhat): inverse mode products in reverse mode order.

    Raises ``ParameterError`` when the result holds NaN or inf, before any
    residual test.  With ``assume_real`` the source is known real: the
    imaginary residual must stay below 1e-9 relative and is discarded; larger
    residuals signal a corrupted transform-domain tensor.  xhat is left
    unchanged unless ``overwrite`` hands it over: the result may then take
    its memory (fft transforms in place; the matrix kinds write their last
    mode product there when there are two or more), never workspace memory.
    The result is a new array unless xhat was handed over.  Both options are
    bools, Python or numpy; anything else raises ``ParameterError``.
    ``_half`` is internal, for a caller that knows the result is real: under
    fft, numpy's ``irfftn`` reads only the slices :func:`_half_spectrum`
    names and forms no imaginary part; other kinds ignore it.
    """
    if not (is_flag(assume_real) and is_flag(overwrite)):
        raise ParameterError(f"assume_real and overwrite must be bools, got {assume_real!r} and {overwrite!r}")
    out = _mode_loop(xhat, spec, inverse=True, overwrite=overwrite, half=_half)
    if assume_real and np.iscomplexobj(out):
        # both norms of out / its largest part, as unscaled ones overflow near 1e308
        big = max(np.abs(out.real).max(initial=1.0), np.abs(out.imag).max(initial=1.0))
        norm, imag = fro_norm(out / big), fro_norm(out.imag / big)
        if norm > 0 and not imag / norm <= _IMAG_TOL:
            raise NumericConsistencyError(
                f"imaginary residual {imag / norm:.3e} exceeds {_IMAG_TOL:.0e}; "
                "transform-domain tensor is not the image of a real tensor"
            )
        out = out.real.copy(order="K")
    return out
