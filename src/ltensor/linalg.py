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

:func:`svt` works on each slice's small Hermitian Gram matrix instead of the
slice.  When the Gram has order >= 4 * ``_BLOCK`` it first screens out the
slices whose Gershgorin bound is at most tau^2, steps a block of ``_BLOCK``
Ritz pairs on the others until each converges and retires, and certifies
them all with one Cholesky over the unscreened slices; this may also prove the
result zero.  Otherwise, or when the block cannot be certified, it factors the
whole Gram.  It takes the slice's SVD when ``tau < 1e-6 * max_p ||H_p||_F``.  Each
way gives the (U, sigma) of one shrink.
:func:`t_svd`, :func:`ranks`, :func:`spectral_norm` and :func:`nuclear_norm`
need the small singular values, which squaring would lose, and stay on the
direct SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import _as_tensor, as_rep_stack, count_tuple, fro_norm, from_rep_stack, is_count, num_rep, product_operands, scratch
from .errors import ParameterError, ShapeError
from .transforms import TransformSpec, apply_l, apply_l_inv

DEFAULT_RANK_THRESHOLD = 1e-10

# svt's Gram path needs tau >= 1e-6 * fmax (see svt) and fmax^2 >= tiny / eps,
# below which the Gram's entries lose accuracy to underflow.
_GRAM_MIN_TAU = 1e-6
_GRAM_MIN_F2 = np.finfo(float).tiny / np.finfo(float).eps

# svt's block prox (see _block_pairs): the block width r, used on Grams of
# order >= 4 r; its most block steps; and c in the residual bound c n eps theta_1.
_BLOCK = 6
_BLOCK_MAX_STEPS = 30
_BLOCK_RESIDUAL = 4.0


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
    trailing = count_tuple(trailing_dims)
    if trailing is None or not is_count(n):
        raise ParameterError(f"identity size must be an integer >= 0, so must trailing dims: {n}, {trailing_dims}")
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


def _rows(stack, rows):
    """stack[rows], or stack itself when rows is every slice: no copy of a Gram-sized stack."""
    return stack if len(rows) == len(stack) else stack[rows]


def _certified(gram, rows, v, theta, tau):
    """Whether the Cholesky of tau^2 I - G + V diag(theta) V^H succeeds on every slice in rows."""
    cert = np.matmul(v * theta[:, None, :], _conj_transpose(v))
    cert -= _rows(gram, rows)
    idx = np.arange(gram.shape[1])
    cert[:, idx, idx] += tau * tau
    try:
        np.linalg.cholesky(cert)
    except np.linalg.LinAlgError:  # not positive definite: the certificate's "no"
        return False
    return True


def _block_pairs(h, gram, tau):
    """Every Gram slice's eigenpairs above tau^2 as (U, sigma), certified; None to decline.

    A slice is zero, with no factorization, when the largest absolute row sum
    of its G, times 1 + 2 n eps for the sum's rounding, is at most tau^2: by
    Gershgorin no eigenvalue of the computed Gram exceeds it.  The other
    slices start live and take block subspace iteration (Halko, Martinsson &
    Tropp, SIAM Rev. 2011) on G = H H^H: Q = orth(H Omega) for a fixed Omega
    of r = _BLOCK columns, then Q <- orth(G Q).  A Rayleigh-Ritz step factors
    the (L, r, r) stack Q^H G Q of the L live slices at step 1, and then at
    the step where the decay of each live slice's residuals since the last
    check predicts that they all pass.  It keeps the Ritz pairs (v, theta)
    with sigma = sqrt(theta) > tau.  A live slice retires, and takes no more
    steps, when
    - each kept pair has ||G v - theta v|| <= c n eps theta_1, so G is within
      rounding of a G~ with these exact eigenpairs, and
    - its first unkept pair (theta, r) has theta + r max(1, r / (theta -
      theta')) < tau^2, theta' the next Ritz value (0 past the block).  If
      the pair's vector is c x + s z, x an eigenvector of eigenvalue lambda
      and z of Rayleigh quotient mu, then lambda = theta + r^2 / (theta - mu),
      and theta' stands in for mu; so the slice's next eigenvalue is most
      likely below tau^2, which the certificate then proves.
    At the first check where every live slice passes the first test, and at
    each later one while some pair is kept, one Cholesky of
    tau^2 I - G + V_k Theta_k V_k^H is tried over the unscreened slices, with
    each retired slice's pairs.  If it succeeds, then by Sylvester's law of
    inertia no G~ has another eigenvalue above tau^2, and the block is
    accepted.  With nothing kept it is the zero prox's certificate, and if it
    fails the steps go on.  The block declines, and the caller factors the
    whole Gram, when an r-th Ritz value exceeds tau^2 (Ritz values are lower
    bounds, so more than r eigenvalues do), when the residuals will not pass
    within _BLOCK_MAX_STEPS steps or every slice retired uncertified, or when
    a certificate with pairs kept fails.
    """
    P, n = gram.shape[:2]
    eps = np.finfo(float).eps
    omega = np.random.default_rng(0).standard_normal((h.shape[2], _BLOCK))
    u = np.zeros((P, n, _BLOCK), dtype=np.result_type(h, omega))  # each slice's pairs at its last check
    lam = np.zeros((P, _BLOCK))  # their kept Ritz values, 0 where unkept
    unscreened = np.flatnonzero(np.abs(gram).sum(axis=2).max(axis=1) * (1.0 + 2.0 * n * eps) > tau * tau)
    if not unscreened.size:
        return u[:, :, :0], lam[:, :0]
    live = unscreened
    q = np.linalg.qr(np.matmul(h, omega)[live])[0]
    g = _rows(gram, live)  # the live slices' Gram
    check, zero_tried = 1, False
    last, since = np.full(P, np.inf), 0  # each slice's worst ratio (below) at the last check, and its step
    for step in range(1, _BLOCK_MAX_STEPS + 1):
        y = np.matmul(g, q)
        if step == check:
            w, theta, _ = np.linalg.svd(np.matmul(_conj_transpose(q), y), hermitian=True)
            sv = np.sqrt(theta)
            if (sv[:, -1] > tau).any():  # a lower bound: more than r eigenvalues exceed tau^2
                return None
            kept = sv > tau
            v = np.matmul(q, w)
            res = np.linalg.norm(np.matmul(y, w) - v * theta[:, None, :], axis=1)
            # each live slice's largest kept residual over its bound
            bound = _BLOCK_RESIDUAL * n * eps * theta[:, :1]
            worst = np.divide(res, bound, out=np.zeros_like(res), where=kept).max(axis=1)
            u[live], lam[live] = v, np.where(kept, theta, 0.0)
            k = int(np.count_nonzero(lam, axis=1).max())
            if worst.max() <= 1.0 and (k or not zero_tried):
                g = None  # freed before the certificate's two Gram-sized stacks
                if _certified(gram, unscreened, u[unscreened, :, :k], lam[unscreened, :k], tau):
                    return u[:, :, :k], np.sqrt(lam[:, :k])
                if k:
                    return None
                zero_tried = True
            first = kept.sum(axis=1)[:, None]  # the first unkept pair (t1, r1), then t2 = theta'
            t1, r1 = np.take_along_axis(theta, first, axis=1)[:, 0], np.take_along_axis(res, first, axis=1)[:, 0]
            t2 = np.take_along_axis(np.pad(theta, ((0, 0), (0, 1))), first + 1, axis=1)[:, 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                stay = (worst > 1.0) | (t1 + r1 * np.fmax(1.0, r1 / (t1 - t2)) >= tau * tau)
                # the steps until each failing slice passes, from its decay per step since the
                # last check: inf if the decay is lost to rounding, 1 with no decay to go by
                decay = np.log(last[live] / worst) / (step - since)
                gaps = np.where((worst > 1.0) & (0.0 <= decay) & (decay < np.inf), np.log(worst) / decay, 1.0)
            last[live], since = worst, step
            if not stay.all():
                live, q, y, g, gaps = live[stay], q[stay], y[stay], None, gaps[stay]
                if not live.size:
                    return None
            if g is None:
                g = _rows(gram, live)
            gap = float(gaps.max())
            if step + gap > _BLOCK_MAX_STEPS:
                break
            check = step + max(1, math.ceil(gap))
        q = np.linalg.qr(y)[0]
    return None


def svt(a, tau: float, spec: TransformSpec) -> np.ndarray:
    """Singular value thresholding: shrink each slice's spectrum by tau.

    Proximal operator of tau * nuclear_norm for unitary-scaled specs.

    Each transform-domain slice H (H^H when tall) gives U and sigma with
    H H^H = U diag(sigma^2) U^H, and the result is
    U_k diag(max(sigma - tau, 0) / sigma) U_k^H H over the k leading columns
    that hold some sigma_p > tau.  U and sigma come from the Hermitian Gram
    G = H H^H of every slice, with one of three outcomes for the whole stack:

    - zero: each slice passes a Gershgorin screen (its largest absolute row
      sum of G is at most tau^2), or the Cholesky of tau^2 I - G succeeds on
      every slice that does not, so no sigma exceeds tau and the result is
      exactly zero;
    - certified block: the slices that fail the screen step a block of
      ``_BLOCK`` Ritz pairs each.  A slice stops stepping, or retires, once
      its kept pairs pass a residual bound of c n eps ||G|| and its first
      unkept pair is most likely below tau^2.  One inertia certificate over
      the unscreened slices, each with its retired pairs, then accepts the
      block (see :func:`_block_pairs`).  The result is the exact Gram prox
      of a matrix within that bound of G, as the factorization's own result
      is for a matrix within its backward error;
    - exact: one ``np.linalg.svd(G, hermitian=True)`` factors every slice.

    The first two need a Gram of order >= 4 * ``_BLOCK``; below that, and
    whenever the block declines, the exact outcome runs.  The Gram prox
    agrees with the SVD prox to about eps * fmax^2 / tau (Golub & Van Loan
    §8.6), where fmax = max_p ||H_p||_F; so when tau < 1e-6 * fmax, or the
    Gram overflows or underflows, svt takes the thin SVD of H instead.
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
            pairs = _block_pairs(h, gram, tau) if gram.shape[1] >= 4 * _BLOCK else None
            if pairs is None:
                u, lam, _ = np.linalg.svd(gram, hermitian=True)
                pairs = u, np.sqrt(lam)
            u, sv = pairs
        else:
            u, sv, _ = np.linalg.svd(h, full_matrices=False)
        k = int((sv > tau).sum(axis=1).max(initial=0))
        u, sv = u[:, :, :k], sv[:, :k]
        scale = np.divide(sv - tau, sv, out=np.zeros_like(sv), where=sv > tau)
        out = np.matmul(u * scale[:, None, :], np.matmul(_conj_transpose(u), h))
        return _conj_transpose(out) if tall else out

    return _slicewise(shrink, spec, _as_tensor(a))
