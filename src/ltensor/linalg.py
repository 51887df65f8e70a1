"""The *_L algebra: product, transpose, SVD, ranks, norms, thresholding.

All operations transform to the L-domain, act slice-wise on the P
representative matrices (batched over p in fixed ascending order) and
transform back.  Every op enters through :func:`_forward`.  This module
checks no finiteness itself: each transform, forward or inverse, raises
``ParameterError`` on NaN or inf in its result (see
:mod:`ltensor.transforms`), which also refuses a slice-wise result that
overflowed, since its inverse cannot be finite.  The stacks are in
rep-stack memory order and the intermediates live in the workspace (see
:mod:`ltensor.core`); every result is a new array.
Real inputs under fft, dct or cprod come back real via the imaginary-residual
contract in :func:`ltensor.transforms.apply_l_inv`; an explicit L may be
complex and so may its outputs.  A zero-size first or second dim gives the
empty result.

:func:`svt` factors each slice's small Hermitian Gram matrix instead of the
slice, and takes the slice's SVD when ``tau < 1e-6 * max_p ||H_p||_F``; both
give the (U, sigma) of one shrink.
:func:`t_svd`, :func:`ranks`, :func:`spectral_norm` and :func:`nuclear_norm`
need the small singular values, which squaring would lose, and stay on the
direct SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import _as_tensor, as_rep_stack, fro_norm, from_rep_stack, is_count, num_rep, product_operands, scratch
from .errors import ParameterError, ShapeError
from .transforms import TransformSpec, apply_l, apply_l_inv

DEFAULT_RANK_THRESHOLD = 1e-10

# svt's Gram path needs tau >= 1e-6 * fmax (see svt) and fmax^2 >= tiny / eps,
# below which the Gram's entries lose accuracy to underflow.
_GRAM_MIN_TAU = 1e-6
_GRAM_MIN_F2 = np.finfo(float).tiny / np.finfo(float).eps


def _forward(a, spec, slot=0):
    """L(a) as a (P, I_1, I_2) stack, the one way into the L-domain.  The transform
    refuses NaN and inf input and overflow, so inf never reaches LAPACK's SVD (it hung).
    The stack lives in workspace role ``("forward", slot)`` under the matrix kinds."""
    return as_rep_stack(apply_l(a, spec, _scratch=("forward", slot)))


def _real(spec, *tensors) -> bool:
    """Whether L^{-1} may drop the imaginary part: real inputs, and L is not explicit (maybe complex)."""
    return spec.kind != "explicit" and all(np.isrealobj(t) for t in tensors)


def _slicewise(fn, spec, *tensors):
    """L^{-1}(fn(L(t_1), L(t_2), ...)) with fn acting on (P, I_1, I_2) stacks.

    ``fn`` may return a tuple of stacks; each is transformed back.  Overflow
    in ``fn`` is silenced here: its inf or NaN reaches the inverse, which
    raises ``ParameterError`` like one that overflows itself.
    """
    # The forward stacks stay referenced until the inverse is done: freeing
    # them first made a dct solve take 1.5x the minor page faults.
    hats = [_forward(t, spec, slot) for slot, t in enumerate(tensors)]
    real = _real(spec, *tensors)

    def back(stack):  # new stacks or views of hats: the inverse may overwrite those not in the workspace
        stack = from_rep_stack(stack, tensors[0].shape[2:])
        return apply_l_inv(stack, spec, assume_real=real, overwrite=True)

    with np.errstate(over="ignore", invalid="ignore"):
        out = fn(*hats)
    return tuple(map(back, out)) if isinstance(out, tuple) else back(out)


def _facewise(x, y):
    """x^p y^p for every slice p, into the workspace: the stack dies inside l_product."""
    out = scratch("facewise", x.shape[:2] + y.shape[2:], np.result_type(x, y))
    return np.matmul(x, y, out=out)


def l_product(a, b, spec: TransformSpec) -> np.ndarray:
    """a *_L b = L^{-1}(L(a) facewise L(b))."""
    return _slicewise(_facewise, spec, *product_operands(a, b))


def identity_tensor(n: int, trailing_dims, spec: TransformSpec) -> np.ndarray:
    """The tensor with every L-domain representative matrix equal to I_n."""
    trailing = tuple(trailing_dims)
    if not all(is_count(v) for v in (n, *trailing)):
        raise ParameterError(f"identity size must be an integer >= 0, so must trailing dims: {n}, {trailing}")
    P = num_rep((n, n) + trailing)
    stack = np.broadcast_to(np.eye(n), (P, n, n)).copy()
    return apply_l_inv(from_rep_stack(stack, trailing), spec, assume_real=_real(spec))


def _conj_transpose(stack):
    """The conjugate transpose of every slice; a view for a real stack."""
    return np.swapaxes(stack, 1, 2).conj()


def l_transpose(a, spec: TransformSpec) -> np.ndarray:
    """Transpose under *_L: conjugate-transpose of every L-domain slice."""
    return _slicewise(_conj_transpose, spec, _as_tensor(a))


def is_orthogonal(q, spec: TransformSpec, tol: float = 1e-10) -> bool:
    """Whether q *_L q^T and q^T *_L q both equal the identity within tol >= 0."""
    if not 0.0 <= tol:
        raise ParameterError(f"tol must be >= 0, got {tol}")
    q = _as_tensor(q)
    if q.shape[0] != q.shape[1]:
        raise ShapeError(f"orthogonality needs square first two dims, got {q.shape[:2]}")
    n = q.shape[0]

    def residuals(hat):  # both residual stacks on one row axis: one inverse transform
        hat_t = _conj_transpose(hat)
        both = np.concatenate((np.matmul(hat, hat_t), np.matmul(hat_t, hat)), axis=1)
        return both - np.tile(np.eye(n), (2, 1))

    r = _slicewise(residuals, spec, q)
    return fro_norm(r[:n]) < tol and fro_norm(r[n:]) < tol


def _equal_fields(self, other):
    """Value equality of two results of one class: the spec by ==, every other field by ``np.array_equal``."""
    if type(other) is not type(self):
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    return all(a == b if isinstance(a, TransformSpec) else np.array_equal(a, b) for a, b in pairs)


@dataclass
class LFactors:
    """The *_L-SVD triple plus the tube norms ||S_i||_F (non-increasing)."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    tube_norms: np.ndarray
    spec: TransformSpec
    __eq__ = _equal_fields

    def leading(self, k: int):
        """The leading factors u(:,1:k), s(1:k,1:k), v(:,1:k) for 1 <= k <= min(I_1, I_2)."""
        kmax = min(self.s.shape[0], self.s.shape[1])
        if not is_count(k, 1) or k > kmax:
            raise ParameterError(f"truncation rank {k} out of range [1, {kmax}]")
        return self.u[:, :k], self.s[:k, :k], self.v[:, :k]


@dataclass
class RankReport:
    tubal: int
    multirank: np.ndarray  # rho_p for p = 1..P
    average: float
    __eq__ = _equal_fields


def _spectrum(a, spec):
    """Singular values of every L-domain slice, (P, min(I_1, I_2)), non-increasing per slice."""
    return np.linalg.svd(_forward(a, spec), compute_uv=False)


def _svd_factors(hat):
    """Full SVD of every slice as the stacks u, f-diagonal s and v."""
    u_hat, sv, vh_hat = np.linalg.svd(hat, full_matrices=True)
    s_hat = np.zeros(hat.shape, dtype=sv.dtype)
    idx = np.arange(sv.shape[1])
    s_hat[:, idx, idx] = sv
    return u_hat, s_hat, _conj_transpose(vh_hat)


def t_svd(a, spec: TransformSpec) -> LFactors:
    """Slice-wise SVD in the transform domain, inverse-transformed.

    a = u *_L s *_L v^T with u, v orthogonal and s f-diagonal; tube norms are
    the Frobenius norms of the scalar-tensors s(i,i,:,...,:).
    """
    u, s, v = _slicewise(_svd_factors, spec, _as_tensor(a))
    tube_norms = np.array([fro_norm(s[(i, i)]) for i in range(min(s.shape[:2]))])
    return LFactors(u=u, s=s, v=v, tube_norms=tube_norms, spec=spec)


def truncate(f: LFactors, k: int) -> np.ndarray:
    """Rank-k Eckart-Young truncation u(:,1:k) *_L s(1:k,1:k) *_L v(:,1:k)^T."""
    uk, sk, vk = f.leading(k)
    return l_product(l_product(uk, sk, f.spec), l_transpose(vk, f.spec), f.spec)


def ranks(a, spec: TransformSpec, threshold: float = DEFAULT_RANK_THRESHOLD) -> RankReport:
    """Tubal rank, multirank vector and average rank at a relative threshold."""
    if not 0.0 <= threshold:
        raise ParameterError(f"threshold must be >= 0, got {threshold}")
    sv = _spectrum(a, spec)
    nonzero = sv > threshold * float(sv.max(initial=0.0))
    multirank = nonzero.sum(axis=1)
    tubal = int(nonzero.any(axis=0).sum())
    average = float(multirank.sum() / max(len(multirank), 1))  # 0.0 for no slices
    return RankReport(tubal=tubal, multirank=multirank, average=average)


def spectral_norm(a, spec: TransformSpec) -> float:
    """Largest transform-domain singular value over all slices."""
    spec.require_unitary("spectral_norm")
    return float(_spectrum(a, spec).max(initial=0.0))


def nuclear_norm(a, spec: TransformSpec) -> float:
    """alpha^{-1} * sum of all transform-domain singular values."""
    spec.require_unitary("nuclear_norm")
    return float(_spectrum(a, spec).sum() / spec.alpha)


def svt(a, tau: float, spec: TransformSpec) -> np.ndarray:
    """Singular value thresholding: shrink each slice's spectrum by tau.

    Proximal operator of tau * nuclear_norm for unitary-scaled specs.

    Each transform-domain slice H (H^H when tall) gives U and sigma with
    H H^H = U diag(sigma^2) U^H, for all slices from one ``np.linalg.svd``
    call.  The result is U_k diag(max(sigma - tau, 0) / sigma) U_k^H H over the
    k leading columns that hold some sigma_p > tau.  The call factors the
    Hermitian Gram matrix G = H H^H, which agrees with the SVD prox to about
    eps * fmax^2 / tau (Golub & Van Loan §8.6), where fmax = max_p ||H_p||_F;
    so when tau < 1e-6 * fmax, or the Gram overflows or underflows, it takes
    the thin SVD of H instead.
    """
    if not 0.0 <= tau:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    spec.require_unitary("svt")

    def shrink(hat):
        tall = hat.shape[1] > hat.shape[2]
        h = _conj_transpose(hat) if tall else hat
        gram = np.matmul(h, _conj_transpose(h))  # overflow is silenced by _slicewise
        # max_p ||H_p||_F^2, read off the Gram diagonal; inf when the Gram overflowed.
        fmax2 = float(np.trace(gram, axis1=1, axis2=2).real.max(initial=0.0))
        if _GRAM_MIN_F2 <= fmax2 < np.inf and _GRAM_MIN_TAU * np.sqrt(fmax2) <= tau:
            u, lam, _ = np.linalg.svd(gram, hermitian=True)
            sv = np.sqrt(lam)
        else:
            u, sv, _ = np.linalg.svd(h, full_matrices=False)
        k = int((sv > tau).sum(axis=1).max(initial=0))
        u, sv = u[:, :, :k], sv[:, :k]
        scale = np.divide(sv - tau, sv, out=np.zeros_like(sv), where=sv > tau)
        out = np.matmul(u * scale[:, None, :], np.matmul(_conj_transpose(u), h))
        return _conj_transpose(out) if tall else out

    return _slicewise(shrink, spec, _as_tensor(a))
