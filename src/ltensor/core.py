"""Dense tensor primitives.

Tensors are plain numpy arrays of order >= 2.  The first two modes play the
role of matrix rows/columns; the trailing modes index the P = I_3*...*I_N
representative matrices.  All index conventions are 1-based at the API level
(modes, representative index p) to match the usual multilinear-algebra
notation; flattening of trailing indices is column-major, i.e.

    p = k_3 + sum_{i>=4} (k_i - 1) * I_3*...*I_{i-1}.

Memory order: transform-domain work runs on the C-contiguous (P, I_1, I_2)
rep stack, which is the C-contiguous (I_N, ..., I_3, I_1, I_2) block array
(mode m >= 3 is its axis N - m); :func:`rep_block` is the one view of a
tensor as that block array.  :func:`from_rep_stack` returns a view of its
stack, so a tensor in this order goes back through :func:`as_rep_stack`
without a copy; a tensor in any other order costs one copy.  Every transform
returns a tensor in this order.

Workspace: :func:`scratch` hands out per-thread buffers by role for
intermediates that live and die inside one *_L op, so repeat calls reuse
memory instead of mapping and faulting fresh pages.  Under every kind these
are each operand's L-domain stack and :func:`ltensor.linalg.l_product`'s
facewise product; under the matrix kinds (every kind but fft) also a
transform's rep-order copy of its input (made when the input is not in rep
order, or when it must be promoted to double precision) and every mode
product but the last.  fft copies its input straight into the result's place
and transforms it there.  A role's buffer
grows to its largest request and is kept for the thread's lifetime; the
buffers of one thread hold at most ``WORKSPACE_CAP`` bytes, and a request past
that cap, or for role None, is a fresh array.  No public function returns
workspace memory or a view of it, and an inverse transform never overwrites
it.

Operands: :func:`_as_array` is the one reader of array operands, and every
public function reads its arrays through it or through :func:`_as_tensor`,
which adds the order >= 2 test.  A ragged sequence, or a dtype other than
bool, integer, float or complex (strings, objects, None), raises
``ParameterError``.  Every count a caller passes (a size, dim, rank or seed)
must pass :func:`is_count`, and every real parameter (a threshold, tolerance,
ratio or step) :func:`is_real` before its range test.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import ModeError, ParameterError, ShapeError


WORKSPACE_CAP = 16 << 20  # bytes of workspace per thread
_workspace = threading.local()
# below this norm the squares of the largest entries lose accuracy to underflow
_NORM_MIN = math.sqrt(np.finfo(float).tiny / np.finfo(float).eps)


def _buffers() -> dict:
    """This thread's workspace: role -> uint8 buffer."""
    if not hasattr(_workspace, "buffers"):
        _workspace.buffers = {}
    return _workspace.buffers


def scratch(role, shape, dtype) -> np.ndarray:
    """An uninitialised C-contiguous array in this thread's workspace buffer for ``role``.

    The next request for the same role in this thread reuses the memory, so the
    array must die inside the op that asked for it.  Role None, or a request
    that would take the workspace past ``WORKSPACE_CAP``, gets a fresh array
    instead.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    buffers = _buffers()
    buf = buffers.get(role)
    if buf is None or buf.nbytes < nbytes:
        others = sum(b.nbytes for r, b in buffers.items() if r != role)
        if role is None or others + nbytes > WORKSPACE_CAP:
            return np.empty(shape, dtype)
        buf = buffers[role] = np.empty(nbytes, np.uint8)
    return buf[:nbytes].view(dtype).reshape(shape)


def in_workspace(a) -> bool:
    """Whether ``a`` may share memory with this thread's workspace."""
    return any(np.may_share_memory(a, buf) for buf in _buffers().values())


def _as_array(x) -> np.ndarray:
    """x as an array; ParameterError unless it is rectangular and holds bools or numbers."""
    try:
        x = np.asarray(x)
    except ValueError as exc:  # numpy's refusal of a ragged nested sequence
        raise ParameterError("operand is a ragged sequence, not an array") from exc
    if x.dtype.kind not in "biufc":
        raise ParameterError(f"operand must hold bools or numbers, got dtype {x.dtype}")
    return x


def _as_tensor(x) -> np.ndarray:
    x = _as_array(x)
    if x.ndim < 2:
        raise ShapeError(f"tensor order must be >= 2, got order {x.ndim}")
    return x


def is_count(value, low=0) -> bool:
    """Whether value is an integer (Python or numpy) >= low; floats are not, even 2.0, nor are bools."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low


def is_real(value) -> bool:
    """Whether value is a real number: an int or float (Python or numpy); bools, complex, str and None are not."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def is_flag(value) -> bool:
    """Whether value is a bool (Python or numpy); 0, 1, "no", None and arrays are not."""
    return isinstance(value, (bool, np.bool_))


def count_tuple(dims):
    """dims as a tuple of Python ints if it is a sequence of counts (see is_count), else None."""
    if not np.iterable(dims):
        return None
    dims = tuple(dims)
    return tuple(map(int, dims)) if all(map(is_count, dims)) else None


def _too_large(dims, itemsize) -> bool:
    """Whether numpy cannot shape ``dims``: its nonzero dims times ``itemsize`` overflow intp."""
    return math.prod(d for d in dims if d) * itemsize > np.iinfo(np.intp).max


def _check_index(value, high, what="mode") -> None:
    """ModeError unless value is an integer in [1, high]: the one rule for 1-based modes and indices."""
    if not (is_count(value, 1) and value <= high):
        raise ModeError(f"{what} {value} out of range [1, {high}]")


def same_shape(a, b):
    """a and b as arrays; ShapeError unless their dims agree."""
    a, b = _as_array(a), _as_array(b)
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
    # bools and integers are summed as floats: np.vdot ORs bools and wraps small integers
    a, b = (x if x.dtype.kind in "fc" else x.astype(float) for x in (a, b))
    out = np.vdot(a, b)
    if np.isrealobj(a) and np.isrealobj(b):
        return float(out.real)
    return complex(out)


def fro_norm(a) -> float:
    """Frobenius norm: sqrt of the sum of squared entry moduli.

    The entries are summed in memory order, so no layout is copied.  When the
    squares overflow or underflow but every entry is finite, the norm of
    a / max|a| is scaled back; it is inf only when the norm itself exceeds the
    float range, and 0.0 only for a zero tensor.
    """
    flat = _as_array(a).ravel("K")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(flat))
        if (norm == math.inf or norm < _NORM_MIN and flat.any()) and np.isfinite(flat).all():
            big = max(float(np.abs(flat.real).max()), float(np.abs(flat.imag).max()))
            norm = big * float(np.linalg.norm(flat / big))
    return norm


def num_rep(dims) -> int:
    """Number P of representative matrices for the given dimension vector."""
    checked = count_tuple(dims)
    if checked is None:
        raise ParameterError(f"trailing dims must be integers >= 0 and dims a sequence of them, got {dims}")
    return math.prod(checked[2:])


def rep_index_to_multi(p: int, dims) -> tuple:
    """Decode 1-based p into the trailing multi-index (k_3, ..., k_N)."""
    _check_index(p, num_rep(dims), "representative index")
    multi = np.unravel_index(p - 1, dims[2:], order="F")
    return tuple(int(k) + 1 for k in multi)


def rep_matrix(x, p: int) -> np.ndarray:
    """The p-th representative matrix X^p = x[:, :, k_3, ..., k_N]."""
    x = _as_tensor(x)
    multi = rep_index_to_multi(p, x.shape)
    return x[(slice(None), slice(None)) + tuple(k - 1 for k in multi)]


def rep_block(x) -> np.ndarray:
    """x viewed as the (I_N, ..., I_3, I_1, I_2) block array: mode m >= 3 is axis N - m.

    C-contiguous exactly when x is in rep-stack memory order.
    """
    return x.transpose(tuple(range(x.ndim - 1, 1, -1)) + (0, 1))


def as_rep_stack(x) -> np.ndarray:
    """All representative matrices as a C-contiguous (P, I_1, I_2) array in p-order.

    A view when x is in rep-stack memory order, else one copy.
    """
    x = _as_tensor(x)
    block = np.ascontiguousarray(rep_block(x))
    return block.reshape(num_rep(x.shape), x.shape[0], x.shape[1])


def from_rep_stack(stack, trailing_dims) -> np.ndarray:
    """Reassemble a tensor from its (P, I_1, I_2) representative stack, as a view."""
    stack = np.asarray(stack)
    P, i1, i2 = stack.shape
    trailing = tuple(int(d) for d in trailing_dims)
    if P != num_rep((i1, i2) + trailing):
        raise ShapeError(
            f"stack holds {P} slices, trailing dims {trailing} need {num_rep((i1, i2) + trailing)}"
        )
    block = stack.reshape(trailing[::-1] + (i1, i2))
    n = block.ndim
    return block.transpose((n - 2, n - 1) + tuple(range(n - 3, -1, -1)))


def mode_n_unfold(x, n: int) -> np.ndarray:
    """Mode-n matricization: mode-n fibers become columns (Kolda ordering)."""
    x = _as_tensor(x)
    _check_index(n, x.ndim)
    columns = math.prod(x.shape[: n - 1] + x.shape[n:])
    return np.moveaxis(x, n - 1, 0).reshape(x.shape[n - 1], columns, order="F")


def mode_n_fold(m, n: int, dims) -> np.ndarray:
    """Inverse of :func:`mode_n_unfold` for the given target dims."""
    m = _as_tensor(m)
    checked = count_tuple(dims)
    if checked is None:
        raise ParameterError(f"dims must be integers >= 0, got {dims}")
    dims = checked
    _check_index(n, len(dims))
    rest = dims[: n - 1] + dims[n:]
    if m.shape != (dims[n - 1], math.prod(rest)):
        raise ShapeError(f"unfolded shape {m.shape} does not match dims {dims}")
    return np.moveaxis(m.reshape((dims[n - 1],) + rest, order="F"), 0, n - 1)


def mode_n_product(x, u, n: int, out=None) -> np.ndarray:
    """x x_n u: multiply every mode-n fiber of x by the matrix u.

    One ``np.matmul`` of u with x viewed as (I_1*...*I_{n-1}, I_n, I_{n+1}*...*I_N);
    the view is free for a C-contiguous x.  ``out``, a C-contiguous array of
    the result's shape and dtype, receives the result.  An overflow gives inf
    entries without a warning: the transforms, which call this once per mode,
    refuse a non-finite result once per crossing.
    """
    x = _as_tensor(x)
    u = np.atleast_2d(_as_array(u))
    _check_index(n, x.ndim)
    if u.ndim > 2 or u.shape[1] != x.shape[n - 1]:
        raise ShapeError(f"matrix of shape {u.shape} cannot act on mode of size {x.shape[n - 1]}")
    lead, trail = x.shape[: n - 1], x.shape[n:]
    fibers = x.reshape(math.prod(lead), x.shape[n - 1], math.prod(trail))
    shape = lead + (u.shape[0],) + trail
    if out is None:
        out = np.empty(shape, np.result_type(u, x))
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ShapeError(f"out must be a C-contiguous array of shape {shape}, got {out.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(u, fibers, out=out.reshape(fibers.shape[0], u.shape[0], fibers.shape[2]))
    return out


def facewise_product(a, b) -> np.ndarray:
    """Slice-wise matrix product over all P representative matrices.

    Raises ``ParameterError`` for a result that holds NaN or inf (a non-finite
    input or an overflow), as the *_L product does.
    """
    a, b = product_operands(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = np.matmul(as_rep_stack(a), as_rep_stack(b))
    if not np.isfinite(prod).all():
        raise ParameterError("facewise product holds NaN or inf (non-finite input or overflow)")
    return from_rep_stack(prod, a.shape[2:])
