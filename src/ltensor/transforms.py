"""Mode-wise invertible transforms defining the *_L product family.

A :class:`TransformSpec` fixes the operator L: which trailing modes are
transformed and by which matrices M_i.  Two kinds apply fixed M_i by fast
transforms; two store their matrices and ``np.linalg.inv`` inverses alike:

* ``fft`` - unnormalized DFT along each transformed mode (t-product family).
* ``dct`` - orthogonal DCT-II matrix (TNN-PGA-C style solving).
* ``cprod`` - M = W^{-1} C (I + Z), the exact cosine-product matrix.
* ``explicit`` - the caller's invertible matrices.

``alpha`` is the product over transformed modes of the unitarity scales s_i
with M_i M_i* = s_i I, so that ||a||_F^2 = alpha^{-1} ||L(a)||_F^2 for
unitary-scaled kinds (alpha = prod I_i for fft, 1 for dct).  One Gram test
per M_i finds s_i for the matrix kinds; alpha is None if one fails (cprod on
a mode of size >= 2), which disables the nuclear-norm/SVT theory.

Every transform runs on the rep-stack block array (see :mod:`ltensor.core`)
and returns a tensor in that memory order.  fft and dct transform all their
modes in one multi-axis ``scipy.fft`` call (``fftn``/``dctn`` and inverses),
in double precision; the results differ from single-axis ``np.fft`` passes by
rounding.  The matrix kinds take one :func:`ltensor.core.mode_n_product` per
mode: the rep-order copy of the input and every product but the last go to
two workspace buffers (see :mod:`ltensor.core`) in turn, and the last product
to a new array, so results never share memory with the workspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.fft

from .core import as_rep_stack, fro_norm, from_rep_stack, in_workspace, mode_n_product, num_rep, scratch
from .errors import ParameterError, NumericConsistencyError, TransformError, UnsupportedSpecError

_INV_TOL = 1e-10
_UNITARY_TOL = 1e-10
_IMAG_TOL = 1e-9


def build_dct_matrix(n: int) -> np.ndarray:
    """Orthogonal DCT-II matrix: C[i,j] = sqrt((2-d_{i1})/n) cos((i-1)(2j-1)pi/2n)."""
    if n < 1:
        raise ParameterError(f"matrix size must be >= 1, got {n}")
    i = np.arange(1, n + 1)[:, None]
    j = np.arange(1, n + 1)[None, :]
    scale = np.sqrt((2.0 - (i == 1)) / n)
    return scale * np.cos((i - 1) * (2 * j - 1) * np.pi / (2 * n))


def build_fourier_matrix(n: int) -> np.ndarray:
    """Unnormalized DFT matrix with entries omega_n^{(i-1)(j-1)}."""
    if n < 1:
        raise ParameterError(f"matrix size must be >= 1, got {n}")
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def build_cproduct_matrix(n: int) -> np.ndarray:
    """Cosine-product matrix M = W^{-1} C (I + Z), W = diag(C[:, 0]), Z upshift."""
    c = build_dct_matrix(n)
    w_inv = np.diag(1.0 / c[:, 0])
    iz = np.eye(n) + np.diag(np.ones(n - 1), 1)
    return w_inv @ c @ iz


_BUILDERS = {"fft": build_fourier_matrix, "dct": build_dct_matrix}


@dataclass(eq=False)
class TransformSpec:
    """The operator L: transformed modes, per-mode matrices and their inverses, scaling."""

    kind: str
    modes: tuple  # 1-based tensor modes, each >= 3, ascending
    sizes: tuple  # mode sizes, parallel to `modes`
    alpha: float | None  # None unless every mode matrix is unitary-scaled
    _matrices: dict = field(default_factory=dict, repr=False)
    _inverses: dict = field(default_factory=dict, repr=False)

    @property
    def unitary_scaled(self) -> bool:
        return self.alpha is not None

    def require_unitary(self, what: str) -> None:
        """Raise UnsupportedSpecError unless ``what`` may run on this spec."""
        if not self.unitary_scaled:
            raise UnsupportedSpecError(
                f"{what} requires a unitary-scaled transform; the {self.kind!r} kind is not"
            )

    def __eq__(self, other):
        if not isinstance(other, TransformSpec):
            return NotImplemented
        if (self.kind, self.modes, self.sizes) != (other.kind, other.modes, other.sizes):
            return False
        return self.kind != "explicit" or all(
            np.array_equal(self._matrices[m], other._matrices[m]) for m in self.modes
        )

    def __hash__(self):
        return hash((self.kind, self.modes, self.sizes))  # equal specs agree on these

    def mode_matrix(self, mode: int) -> np.ndarray:
        """The transform matrix for one mode (built lazily for the fast kinds)."""
        if mode not in self.modes:
            raise TransformError(f"mode {mode} is not transformed by this spec")
        if mode not in self._matrices:
            n = self.sizes[self.modes.index(mode)]
            self._matrices[mode] = _BUILDERS[self.kind](n)
        return self._matrices[mode]

    def mode_inverse(self, mode: int) -> np.ndarray:
        """The inverse of :meth:`mode_matrix`, computed once per mode."""
        if mode not in self._inverses:
            self._inverses[mode] = np.linalg.inv(self.mode_matrix(mode))
        return self._inverses[mode]


def make_spec(kind: str, shape, modes=None, matrices=None) -> TransformSpec:
    """Build a TransformSpec for tensors of the given shape.

    ``modes`` defaults to all trailing modes 3..N; each may appear once.
    ``matrices`` is only for kind ``explicit`` (mode -> invertible matrix);
    the other kinds build their own and reject it.
    """
    shape = tuple(int(d) for d in shape)
    if len(shape) < 3:
        raise TransformError(f"transforms need order >= 3, got shape {shape}")
    if modes is None:
        modes = tuple(range(3, len(shape) + 1))
    else:
        modes = tuple(sorted(int(m) for m in modes))
    for i, m in enumerate(modes):
        if not 3 <= m <= len(shape):
            raise TransformError(f"mode {m} out of range [3, {len(shape)}] for shape {shape}")
        if m in modes[:i]:
            raise TransformError(f"mode {m} is given more than once")
        if shape[m - 1] == 0:
            raise TransformError(f"transformed mode {m} has size 0")
    sizes = tuple(shape[m - 1] for m in modes)
    if matrices is not None and kind != "explicit":
        raise TransformError(f"matrices are only for kind 'explicit'; {kind!r} takes none")

    if kind == "fft":
        return TransformSpec("fft", modes, sizes, float(np.prod(sizes)))
    if kind == "dct":
        return TransformSpec("dct", modes, sizes, 1.0)
    if kind == "cprod":
        matrices = {m: build_cproduct_matrix(n) for m, n in zip(modes, sizes)}
    elif kind != "explicit":
        raise TransformError(f"unknown transform kind {kind!r}")
    elif matrices is None:
        raise TransformError("explicit kind requires per-mode matrices")
    mats = {int(m): np.array(matrices[m]) for m in matrices}
    if set(mats) != set(modes):
        raise TransformError(f"matrices given for modes {sorted(mats)}, expected {modes}")
    inverses, scales = {}, []
    for m, n in zip(modes, sizes):
        mat = mats[m]
        if mat.shape != (n, n):
            raise TransformError(f"matrix for mode {m} has shape {mat.shape}, expected ({n}, {n})")
        try:
            inverses[m] = np.linalg.inv(mat)
        except np.linalg.LinAlgError as exc:
            raise TransformError(f"matrix for mode {m} is singular") from exc
        if np.linalg.norm(mat @ inverses[m] - np.eye(n)) >= _INV_TOL * max(1.0, float(np.linalg.norm(mat))):
            raise TransformError("transform matrix is not invertible to working precision")
        gram = mat @ mat.conj().T
        s = float(np.trace(gram).real) / n
        if np.linalg.norm(gram - s * np.eye(n)) < _UNITARY_TOL * max(1.0, s):
            scales.append(s)
    alpha = float(np.prod(scales)) if len(scales) == len(modes) else None
    return TransformSpec(kind, modes, sizes, alpha, mats, inverses)


# Fast (forward, inverse) pair per kind, each one multi-axis scipy.fft call;
# other kinds use the mode matrices.
_FAST = {
    "fft": (scipy.fft.fftn, scipy.fft.ifftn),
    "dct": (partial(scipy.fft.dctn, type=2, norm="ortho"), partial(scipy.fft.idctn, type=2, norm="ortho")),
}


# The two workspace roles the matrix kinds' mode products alternate between.
_STEPS = ("transforms.step0", "transforms.step1")


def _mode_loop(x, spec, inverse, overwrite=False, role=None):
    x = np.asarray(x)
    for mode, size in zip(spec.modes, spec.sizes):
        if mode > x.ndim or x.shape[mode - 1] != size:
            raise TransformError(
                f"tensor of shape {x.shape} does not match spec modes {spec.modes} "
                f"with sizes {spec.sizes}"
            )
    # The rep stack viewed as the (I_N, ..., I_3, I_1, I_2) block array: mode m is axis N - m.
    trailing = x.shape[2:]
    fast = _FAST.get(spec.kind)
    if not spec.modes:  # L is the identity; the result is still a new array
        block = as_rep_stack(x).astype(np.promote_types(x.dtype, np.float64) if fast else x.dtype)
    elif fast is not None:
        block = as_rep_stack(x).reshape(trailing[::-1] + x.shape[:2])
        # scipy.fft keeps single precision; L is computed in double like every other kind
        block = block.astype(np.promote_types(block.dtype, np.float64), copy=False)
        # scipy may return its input's memory when overwriting: never overwrite the workspace
        overwrite = overwrite and not in_workspace(block)
        block = fast[inverse](block, axes=[x.ndim - m for m in spec.modes], overwrite_x=overwrite)
    else:
        block = x.transpose(tuple(range(x.ndim - 1, 1, -1)) + (0, 1))
        if not block.flags.c_contiguous:
            copy = scratch(_STEPS[1], block.shape, block.dtype)
            np.copyto(copy, block)
            block = copy
        modes = tuple(reversed(spec.modes)) if inverse else spec.modes
        for i, mode in enumerate(modes):
            mat = spec.mode_inverse(mode) if inverse else spec.mode_matrix(mode)
            dtype = np.result_type(block, mat)
            if i < len(modes) - 1:
                out = scratch(_STEPS[i % 2], block.shape, dtype)
            else:
                out = np.empty(block.shape, dtype) if role is None else scratch(role, block.shape, dtype)
            block = mode_n_product(block, mat, x.ndim - mode + 1, out=out)
    return from_rep_stack(block.reshape((num_rep(x.shape),) + x.shape[:2]), trailing)


def apply_l(x, spec: TransformSpec, *, _scratch=None) -> np.ndarray:
    """L(x): successive mode products with M_i over spec.modes (fast transforms for fft/dct).

    The result is a new array.  ``_scratch`` is internal: a workspace role
    that receives the matrix kinds' last product instead, for a caller whose
    stack dies inside its own op.
    """
    return _mode_loop(x, spec, inverse=False, role=_scratch)


def apply_l_inv(xhat, spec: TransformSpec, assume_real: bool = False, overwrite: bool = False) -> np.ndarray:
    """L^{-1}(xhat): inverse mode products in reverse mode order.

    With ``assume_real`` the source is known real: the imaginary residual must
    stay below 1e-9 relative and is discarded; larger residuals signal a
    corrupted transform-domain tensor.  xhat is left unchanged unless
    ``overwrite`` hands it over: fft and dct may then transform in its memory
    (never in workspace memory).  The result is a new array unless xhat was
    handed over.
    """
    out = _mode_loop(xhat, spec, inverse=True, overwrite=overwrite)
    if assume_real and np.iscomplexobj(out):
        norm, imag = fro_norm(out), fro_norm(out.imag)
        if norm > 0 and not imag / norm <= _IMAG_TOL:  # inf / inf is NaN: refused too
            raise NumericConsistencyError(
                f"imaginary residual {imag / norm:.3e} exceeds {_IMAG_TOL:.0e}; "
                "transform-domain tensor is not the image of a real tensor"
            )
        out = out.real.copy(order="K")
    return out
