"""Dense tensor primitives.

Tensors are plain numpy arrays of order >= 2.  The first two modes play the
role of matrix rows/columns; the trailing modes index the P = I_3*...*I_N
representative matrices.  All index conventions are 1-based at the API level
(modes, representative index p) to match the usual multilinear-algebra
notation; flattening of trailing indices is column-major, i.e.

    p = k_3 + sum_{i>=4} (k_i - 1) * I_3*...*I_{i-1}.
"""

from __future__ import annotations

import numpy as np

from .errors import ModeError, ShapeError


def _as_tensor(x) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim < 2:
        raise ShapeError(f"tensor order must be >= 2, got order {x.ndim}")
    return x


def same_shape(a, b):
    """a and b as arrays; ShapeError unless their dims agree."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def product_operands(a, b):
    """a and b as tensors whose slices multiply: a^p b^p for every p."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"trailing dims differ: {a.shape[2:]} vs {b.shape[2:]}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dims differ: {a.shape[1]} vs {b.shape[0]}")
    return a, b


def inner_product(a, b):
    """<a, b>, conjugate-linear in the first argument for complex tensors."""
    a, b = same_shape(_as_tensor(a), _as_tensor(b))
    out = np.vdot(a, b)
    if np.isrealobj(a) and np.isrealobj(b):
        return float(out.real)
    return complex(out)


def fro_norm(a) -> float:
    """Frobenius norm: sqrt of the sum of squared entry moduli."""
    return float(np.linalg.norm(np.asarray(a).ravel()))


def num_rep(dims) -> int:
    """Number P of representative matrices for the given dimension vector."""
    return int(np.prod(dims[2:], dtype=np.int64)) if len(dims) > 2 else 1


def rep_index_to_multi(p: int, dims) -> tuple:
    """Decode 1-based p into the trailing multi-index (k_3, ..., k_N)."""
    P = num_rep(dims)
    if not 1 <= p <= P:
        raise ModeError(f"representative index {p} out of range [1, {P}]")
    multi = np.unravel_index(p - 1, dims[2:], order="F")
    return tuple(int(k) + 1 for k in multi)


def multi_to_rep_index(multi, dims) -> int:
    """Inverse of :func:`rep_index_to_multi`."""
    zero_based = tuple(int(k) - 1 for k in multi)
    return int(np.ravel_multi_index(zero_based, dims[2:], order="F")) + 1


def rep_matrix(x, p: int) -> np.ndarray:
    """The p-th representative matrix X^p = x[:, :, k_3, ..., k_N]."""
    x = _as_tensor(x)
    multi = rep_index_to_multi(p, x.shape)
    return x[(slice(None), slice(None)) + tuple(k - 1 for k in multi)]


def as_rep_stack(x) -> np.ndarray:
    """All representative matrices as a (P, I_1, I_2) array in p-order."""
    x = _as_tensor(x)
    flat = x.reshape(x.shape[0], x.shape[1], -1, order="F")
    return np.moveaxis(flat, 2, 0)


def from_rep_stack(stack, trailing_dims) -> np.ndarray:
    """Reassemble a tensor from its (P, I_1, I_2) representative stack."""
    stack = np.asarray(stack)
    P, i1, i2 = stack.shape
    if P != num_rep((i1, i2) + tuple(trailing_dims)):
        raise ShapeError(
            f"stack holds {P} slices, trailing dims {tuple(trailing_dims)} need "
            f"{num_rep((i1, i2) + tuple(trailing_dims))}"
        )
    flat = np.moveaxis(stack, 0, 2)
    return flat.reshape((i1, i2) + tuple(trailing_dims), order="F")


def mode_n_unfold(x, n: int) -> np.ndarray:
    """Mode-n matricization: mode-n fibers become columns (Kolda ordering)."""
    x = _as_tensor(x)
    if not 1 <= n <= x.ndim:
        raise ModeError(f"mode {n} out of range [1, {x.ndim}]")
    return np.moveaxis(x, n - 1, 0).reshape(x.shape[n - 1], -1, order="F")


def mode_n_fold(m, n: int, dims) -> np.ndarray:
    """Inverse of :func:`mode_n_unfold` for the given target dims."""
    m = np.asarray(m)
    dims = tuple(int(d) for d in dims)
    if not 1 <= n <= len(dims):
        raise ModeError(f"mode {n} out of range [1, {len(dims)}]")
    rest = dims[: n - 1] + dims[n:]
    if m.shape != (dims[n - 1], int(np.prod(rest, dtype=np.int64))):
        raise ShapeError(f"unfolded shape {m.shape} does not match dims {dims}")
    return np.moveaxis(m.reshape((dims[n - 1],) + rest, order="F"), 0, n - 1)


def mode_n_product(x, u, n: int) -> np.ndarray:
    """x x_n u: multiply every mode-n fiber of x by the matrix u."""
    x = _as_tensor(x)
    u = np.atleast_2d(np.asarray(u))
    if not 1 <= n <= x.ndim:
        raise ModeError(f"mode {n} out of range [1, {x.ndim}]")
    if u.shape[1] != x.shape[n - 1]:
        raise ShapeError(
            f"matrix with {u.shape[1]} columns cannot act on mode of size {x.shape[n - 1]}"
        )
    return np.moveaxis(np.tensordot(u, x, axes=(1, n - 1)), 0, n - 1)


def facewise_product(a, b) -> np.ndarray:
    """Slice-wise matrix product over all P representative matrices."""
    a, b = product_operands(a, b)
    prod = np.matmul(as_rep_stack(a), as_rep_stack(b))
    return from_rep_stack(prod, a.shape[2:])
