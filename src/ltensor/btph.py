"""Brute-force oracles built on the block-Toeplitz-plus-Hankel unrolling.

Everything here materializes O((I_1 P)(I_2 P)) dense matrices and is meant
for small test tensors only; a size guard rejects anything larger.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .core import _as_array, as_rep_stack, count_tuple, num_rep, product_operands
from .errors import OracleScaleError, ParameterError, ShapeError, StructureError
from .transforms import TransformSpec, apply_l, build_dct_matrix, check_spec

_MAX_SIDE = 4096
_STRUCT_TOL = 1e-8


def _guard(dims):
    P = num_rep(dims)
    side = max(dims[0], dims[1]) * P
    if side > _MAX_SIDE:
        raise OracleScaleError(
            f"btph side {side} exceeds the oracle guard {_MAX_SIDE} for dims {dims}"
        )


def _btph_blocks(blocks):
    """Toeplitz-plus-Hankel assembly from the list of n slice blocks."""
    n = len(blocks)
    zero = np.zeros_like(blocks[0])
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            t = blocks[abs(i - j)]
            k = i + j  # Hankel anti-diagonal index
            if k <= n:
                h = blocks[k - 1]
            elif k == n + 1:
                h = zero
            else:
                h = blocks[2 * n + 1 - k]
            row.append(t + h)
        rows.append(row)
    return np.block(rows)


def btph(x) -> np.ndarray:
    """Block-Toeplitz-plus-Hankel matrix of an order >= 3 tensor (recursive)."""
    x = _as_array(x)
    if x.ndim < 3:
        raise ShapeError(f"btph needs order >= 3, got order {x.ndim}")
    _guard(x.shape)
    return _btph_rec(x)


def _btph_rec(x):
    if x.ndim == 3:
        blocks = [x[:, :, k] for k in range(x.shape[2])]
    else:
        blocks = [_btph_rec(x[..., k]) for k in range(x.shape[-1])]
    return _btph_blocks(blocks)


def ten(m, dims) -> np.ndarray:
    """Left inverse of btph: recover the generating tensor of shape ``dims``.

    Slices are extracted bottom-up from the first block column, where row
    block i equals X^{(i)} + X^{(i+1)} (Toeplitz plus Hankel overlap).  The
    result is re-unrolled and must reproduce ``m``, else StructureError.
    """
    m = _as_array(m)
    checked = count_tuple(dims)
    if checked is None:
        raise ParameterError(f"dims must be a sequence of integers >= 0, got {dims}")
    dims = checked
    _guard(dims)
    P = num_rep(dims)
    if m.shape != (dims[0] * P, dims[1] * P):
        raise StructureError(f"matrix shape {m.shape} does not match dims {dims}")
    x = _ten_rec(m, dims)
    resid = np.linalg.norm(_btph_rec(x) - m)
    if resid > _STRUCT_TOL * (1.0 + np.linalg.norm(m)):
        raise StructureError(f"matrix is not a consistent btph unrolling (residual {resid:.3e})")
    return x


def _ten_rec(m, dims):
    last = dims[-1]
    sub_dims = dims[:-1]
    b1 = m.shape[0] // last
    b2 = m.shape[1] // last
    slices = [None] * last
    # first block column: row i holds S_i + S_{i+1}, last row holds S_last
    nxt = np.zeros((b1, b2), dtype=m.dtype)
    for i in range(last, 0, -1):
        block = m[(i - 1) * b1 : i * b1, :b2] - nxt
        slices[i - 1] = block
        nxt = block
    if len(sub_dims) == 2:
        return np.stack(slices, axis=2)
    return np.stack([_ten_rec(s, sub_dims) for s in slices], axis=-1)


def bdiag(xhat) -> np.ndarray:
    """Block-diagonal matrix with the representative matrices on the diagonal."""
    stack = as_rep_stack(xhat)
    P, m, n = stack.shape
    out = np.zeros((P, m, P, n), stack.dtype)
    out[np.arange(P), :, np.arange(P)] = stack
    return out.reshape(P * m, P * n)


def check_diagonalization(x, spec: TransformSpec) -> float:
    """Residual of the DCT-Kronecker block diagonalization of btph(x).

    ``spec`` must be the cprod kind over all trailing modes; the contract is a
    residual below 1e-10 * (1 + ||x||_F).
    """
    x = _as_array(x)
    if check_spec(spec).kind != "cprod":
        raise StructureError("diagonalization check is defined for the cprod kind")
    if spec.modes != tuple(range(3, x.ndim + 1)):
        raise StructureError("diagonalization check needs all trailing modes transformed")
    cs = [build_dct_matrix(n) for n in x.shape[2:]]
    left = reduce(np.kron, reversed([np.eye(x.shape[0])] + cs))
    right = reduce(np.kron, reversed([np.eye(x.shape[1])] + cs)).T
    diag = bdiag(apply_l(x, spec))
    return float(np.linalg.norm(left @ btph(x) @ right - diag))


def cproduct_via_btph(a, b) -> np.ndarray:
    """Generalized c-product computed as ten(btph(a) btph(b))."""
    a, b = product_operands(a, b)
    prod = btph(a) @ btph(b)
    return ten(prod, (a.shape[0], b.shape[1]) + a.shape[2:])
