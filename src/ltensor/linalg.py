"""The *_L algebra: product, transpose, SVD, ranks, norms, thresholding.

All operations transform to the L-domain, act slice-wise on the P
representative matrices (batched over p in fixed ascending order) and
transform back, through the one helper :func:`_slicewise`.  Real inputs under
a complex backend (fft) come back real via the imaginary-residual contract in
:func:`ltensor.transforms.apply_l_inv`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_rep_stack, fro_norm, from_rep_stack, num_rep, product_operands
from .errors import ParameterError, ShapeError
from .transforms import TransformSpec, apply_l, apply_l_inv

DEFAULT_RANK_THRESHOLD = 1e-10


def _slicewise(fn, spec, *tensors):
    """L^{-1}(fn(L(t_1), L(t_2), ...)) with fn acting on (P, I_1, I_2) stacks.

    ``fn`` may return a tuple of stacks; each is transformed back.  Outputs
    are real whenever every input is real.
    """
    # The forward stacks stay referenced until the inverse is done: freeing
    # them first made a dct solve take 1.5x the minor page faults.
    hats = [as_rep_stack(apply_l(t, spec)) for t in tensors]
    out = fn(*hats)
    real = all(np.isrealobj(t) for t in tensors)

    def back(stack):
        return apply_l_inv(from_rep_stack(stack, tensors[0].shape[2:]), spec, assume_real=real)

    return tuple(map(back, out)) if isinstance(out, tuple) else back(out)


def l_product(a, b, spec: TransformSpec) -> np.ndarray:
    """a *_L b = L^{-1}(L(a) facewise L(b))."""
    return _slicewise(np.matmul, spec, *product_operands(a, b))


def identity_tensor(n: int, trailing_dims, spec: TransformSpec) -> np.ndarray:
    """The tensor with every L-domain representative matrix equal to I_n."""
    trailing = tuple(int(d) for d in trailing_dims)
    P = num_rep((n, n) + trailing)
    stack = np.broadcast_to(np.eye(n), (P, n, n)).copy()
    return apply_l_inv(from_rep_stack(stack, trailing), spec, assume_real=True)


def _conj_transpose(stack):
    return np.conj(np.swapaxes(stack, 1, 2))


def l_transpose(a, spec: TransformSpec) -> np.ndarray:
    """Transpose under *_L: conjugate-transpose of every L-domain slice."""
    return _slicewise(_conj_transpose, spec, np.asarray(a))


def is_orthogonal(q, spec: TransformSpec, tol: float = 1e-10) -> bool:
    """Whether q *_L q^T and q^T *_L q both equal the identity within tol."""
    q = np.asarray(q)
    if q.shape[0] != q.shape[1]:
        raise ShapeError(f"orthogonality needs square first two dims, got {q.shape[:2]}")
    eye = np.eye(q.shape[0])

    def residuals(hat):
        hat_t = _conj_transpose(hat)
        return np.matmul(hat, hat_t) - eye, np.matmul(hat_t, hat) - eye

    return all(fro_norm(r) < tol for r in _slicewise(residuals, spec, q))


@dataclass
class LFactors:
    """The *_L-SVD triple plus the tube norms ||S_i||_F (non-increasing)."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    tube_norms: np.ndarray
    spec: TransformSpec

    def leading(self, k: int):
        """The leading factors u(:,1:k), s(1:k,1:k), v(:,1:k) for 1 <= k <= min(I_1, I_2)."""
        kmax = min(self.s.shape[0], self.s.shape[1])
        if not 1 <= k <= kmax:
            raise ParameterError(f"truncation rank {k} out of range [1, {kmax}]")
        return self.u[:, :k], self.s[:k, :k], self.v[:, :k]


@dataclass
class RankReport:
    tubal: int
    multirank: np.ndarray  # rho_p for p = 1..P
    average: float


def _svd(stack, **kwargs):
    """np.linalg.svd of a slice stack; NaN or inf is refused before LAPACK sees it
    (callers silence overflow warnings, so an overflowed transform shows only here)."""
    if not np.isfinite(stack).all():
        raise ParameterError("transform-domain slices hold NaN or inf (non-finite input or overflow)")
    return np.linalg.svd(stack, **kwargs)


def _spectrum(a, spec):
    """Singular values of every L-domain slice, (P, min(I_1, I_2)), non-increasing per slice."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _svd(as_rep_stack(apply_l(np.asarray(a), spec)), compute_uv=False)


def _svd_factors(hat):
    """Full SVD of every slice as the stacks u, f-diagonal s and v."""
    u_hat, sv, vh_hat = _svd(hat, full_matrices=True)
    s_hat = np.zeros(hat.shape, dtype=sv.dtype)
    idx = np.arange(sv.shape[1])
    s_hat[:, idx, idx] = sv
    return u_hat, s_hat, _conj_transpose(vh_hat)


def t_svd(a, spec: TransformSpec) -> LFactors:
    """Slice-wise SVD in the transform domain, inverse-transformed.

    a = u *_L s *_L v^T with u, v orthogonal and s f-diagonal; tube norms are
    the Frobenius norms of the scalar-tensors s(i,i,:,...,:).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        u, s, v = _slicewise(_svd_factors, spec, np.asarray(a))
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
    smax = float(sv.max(initial=0.0))
    if smax == 0.0:
        return RankReport(tubal=0, multirank=np.zeros(sv.shape[0], dtype=int), average=0.0)
    nonzero = sv > threshold * smax
    multirank = nonzero.sum(axis=1)
    tubal = int(nonzero.any(axis=0).sum())
    return RankReport(tubal=tubal, multirank=multirank, average=float(multirank.mean()))


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
    """
    if not 0.0 <= tau:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    spec.require_unitary("svt")

    def shrink(hat):
        u, sv, vh = _svd(hat, full_matrices=False)
        u *= np.maximum(sv - tau, 0.0)[:, None, :]
        return np.matmul(u, vh)

    with np.errstate(over="ignore", invalid="ignore"):
        return _slicewise(shrink, spec, np.asarray(a))
