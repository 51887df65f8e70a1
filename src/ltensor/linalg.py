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
Real inputs under dct or cprod come back real because L is real, with no
test.  Under fft they come back through the half-spectrum inverse, numpy's
``irfftn``, which reads only the slices
:func:`ltensor.transforms._half_spectrum` names and forms no imaginary part.
No op runs the imaginary-residual test of the public
``apply_l_inv(..., assume_real=True)``.  An explicit L may be complex and so
may its outputs.  A zero-size first or second dim gives the empty result.

:func:`svt` takes each slice's (U, sigma) from one of two routines: the
Gram routine :func:`_gram_pairs`, which certifies a block of Ritz pairs of
G = H H^H slice by slice, when G has order >= 4 * ``_BLOCK``, on just the
slices the inverse reads; and the thin SVD of every slice, for smaller
slices and for Grams that are unsafe.
:func:`t_svd`, :func:`ranks`, :func:`spectral_norm` and :func:`nuclear_norm`
need the small singular values, which squaring would lose, and stay on the
direct SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import _NORM_MIN, _as_tensor, as_rep_stack, count_tuple, fro_norm, from_rep_stack, is_count, is_real, num_rep, product_operands, scratch
from .errors import ParameterError, ShapeError
from .transforms import TransformSpec, _conj_rows, _half_spectrum, apply_l, apply_l_inv, check_spec

DEFAULT_RANK_THRESHOLD = 1e-10

# svt's Gram routine needs tau >= 1e-6 * fmax (see svt), and fmax >= core._NORM_MIN,
# below which the Gram's entries lose accuracy to underflow.
_GRAM_MIN_TAU = 1e-6

# svt's block prox (see _gram_pairs): the block width r, used on Grams of
# order >= 4 r; its most block steps; the steps from one Rayleigh-Ritz check to
# the next; and c in the residual bound c n eps theta_1.
_BLOCK = 6
_BLOCK_MAX_STEPS = 30
_BLOCK_CHECK = 3
_BLOCK_RESIDUAL = 4.0


def _forward(a, spec, slot=0):
    """L(a) as a (P, I_1, I_2) stack, the one way into the L-domain.  The transform
    refuses NaN and inf input and overflow, so inf never reaches LAPACK's SVD (it hung).
    The stack lives in workspace role ``("forward", slot)``."""
    return as_rep_stack(apply_l(a, spec, _scratch=("forward", slot)))


def _slicewise(fn, spec, *tensors):
    """L^{-1}(fn(L(t_1), L(t_2), ...)) with fn acting on (P, I_1, I_2) stacks.

    ``fn`` may return a tuple of stacks; each is transformed back.  Real
    inputs give a real result, and the inverse is told so with ``_half``:
    under fft it reads only the rows
    :func:`ltensor.transforms._half_spectrum` names, so ``fn`` may leave the
    others as they are, and no kind tests an imaginary residual.  Overflow in
    ``fn`` is silenced here: its inf or NaN reaches the inverse, which raises
    ``ParameterError`` like one that overflows itself.
    """
    # The forward stacks stay referenced until the inverse is done: freeing
    # them first made a dct solve take 1.5x the minor page faults.
    hats = [_forward(t, spec, slot) for slot, t in enumerate(tensors)]
    real = all(map(np.isrealobj, tensors))

    def back(stack):  # new stacks or views of hats: the inverse may overwrite those not in the workspace
        return apply_l_inv(from_rep_stack(stack, tensors[0].shape[2:]), spec, overwrite=True, _half=real)

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
    return apply_l_inv(from_rep_stack(stack, trailing), spec, _half=True)


def _conj_transpose(stack):
    """The conjugate transpose of every slice; a view for a real stack."""
    return np.swapaxes(stack, 1, 2).conj()


def l_transpose(a, spec: TransformSpec) -> np.ndarray:
    """Transpose under *_L: conjugate-transpose of every L-domain slice."""
    return _slicewise(_conj_transpose, spec, _as_tensor(a))


def is_orthogonal(q, spec: TransformSpec, tol: float = 1e-10) -> bool:
    """Whether q *_L q^T and q^T *_L q both equal the identity within tol >= 0."""
    if not (is_real(tol) and 0.0 <= tol):
        raise ParameterError(f"tol must be >= 0, got {tol!r}")
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
    a = _as_tensor(a)

    def factors(hat):
        # Where singular values repeat, the factors of a real tensor's slices under
        # fft need not come in conjugate pairs, nor be real on a self-conjugate
        # slice, and the half-spectrum inverse would mix two bases; so those slices
        # are factored as real matrices, and the second slice of each pair takes
        # the conjugates of the first one's factors.
        if _half_spectrum(spec, a.shape, np.isrealobj(a)) is None:
            return _svd_factors(hat)
        pair, row = _conj_rows(spec, a.shape), np.arange(len(hat))
        hat.imag[pair == row] = 0.0
        out = _svd_factors(hat)
        second = np.flatnonzero(pair < row)
        for x in out:
            x[second] = x[pair[second]].conj()
        return out

    u, s, v = _slicewise(factors, spec, a)
    tube_norms = np.array([fro_norm(s[(i, i)]) for i in range(min(s.shape[:2]))])
    return LFactors(u=u, s=s, v=v, tube_norms=tube_norms, spec=spec)


def truncate(f: LFactors, k: int) -> np.ndarray:
    """Rank-k Eckart-Young truncation u(:,1:k) *_L s(1:k,1:k) *_L v(:,1:k)^T."""
    if not isinstance(f, LFactors):
        raise ParameterError(f"truncate needs the LFactors of t_svd, got {type(f).__name__}")
    uk, sk, vk = f.leading(k)
    return l_product(l_product(uk, sk, f.spec), l_transpose(vk, f.spec), f.spec)


def ranks(a, spec: TransformSpec, threshold: float = DEFAULT_RANK_THRESHOLD) -> RankReport:
    """Tubal rank, multirank vector and average rank at a relative threshold."""
    if not (is_real(threshold) and 0.0 <= threshold):
        raise ParameterError(f"threshold must be >= 0, got {threshold!r}")
    sv = _spectrum(a, spec)
    nonzero = sv > threshold * float(sv.max(initial=0.0))
    multirank = nonzero.sum(axis=1)
    tubal = int(nonzero.any(axis=0).sum())
    average = float(multirank.sum() / max(len(multirank), 1))  # 0.0 for no slices
    return RankReport(tubal=tubal, multirank=multirank, average=average)


def spectral_norm(a, spec: TransformSpec) -> float:
    """Largest transform-domain singular value over all slices."""
    check_spec(spec, "spectral_norm")
    return float(_spectrum(a, spec).max(initial=0.0))


def nuclear_norm(a, spec: TransformSpec) -> float:
    """alpha^{-1} * sum of all transform-domain singular values."""
    check_spec(spec, "nuclear_norm")
    return float(_spectrum(a, spec).sum() / spec.alpha)


def _rows(stack, rows):
    """stack[rows] for ascending rows; a view, not a copy of a Gram-sized stack, when they are consecutive."""
    if len(rows) and rows[-1] - rows[0] == len(rows) - 1:
        return stack[rows[0] : rows[-1] + 1]
    return stack[rows]


def _positive_definite(x):
    """Whether np.linalg.cholesky factors every slice of x."""
    try:
        np.linalg.cholesky(x)
    except np.linalg.LinAlgError:  # not positive definite: the certificate's "no"
        return False
    return True


def _certified(g, v, theta, tau):
    """Whether the Cholesky of tau^2 I - G + V diag(theta) V^H succeeds, one bool per slice.

    One batched call answers for the whole stack; only when it fails is each
    slice factored alone, to tell which ones failed.
    """
    cert = np.matmul(v * theta[:, None, :], _conj_transpose(v))
    cert -= g
    idx = np.arange(g.shape[1])
    cert[:, idx, idx] += tau * tau
    if _positive_definite(cert):
        return np.ones(len(cert), dtype=bool)
    return np.array([_positive_definite(c) for c in cert], dtype=bool)


def _gram_pairs(h, tau):
    """Every slice's eigenpairs of G = H H^H above tau^2 as (U, sigma); None when the Gram is unsafe.

    The Gram is unsafe, and the caller takes the slice SVD, when tau < 1e-6
    fmax or fmax^2 is below tiny / eps or overflows, fmax = max_p ||H_p||_F
    read off the trace of G.  Otherwise a slice is zero, with no
    factorization, when the largest absolute row sum of its G, times 1 + 2 n
    eps for the sum's rounding, is at most tau^2: by Gershgorin no eigenvalue
    of the computed Gram exceeds it.  The other slices start live and take
    block subspace iteration (Halko, Martinsson & Tropp, SIAM Rev. 2011) on G:
    Q = orth(H Omega) for a fixed Omega of r = _BLOCK columns, then Q <-
    orth(G Q).  A Rayleigh-Ritz check factors the (L, r, r) stack Q^H G Q of
    the L live slices at step 1 and every _BLOCK_CHECK steps after it.  It
    keeps the Ritz pairs (v, theta) with sigma = sqrt(theta) > tau.  A live
    slice has converged when each kept pair has ||G v - theta v|| <= c n eps
    theta_1, so G is within rounding of a G~ with these exact eigenpairs.
    Each converged slice then tries its own Cholesky of tau^2 I - G + V_k
    Theta_k V_k^H (see :func:`_certified`).  If it succeeds, then by
    Sylvester's law of inertia no G~ has another eigenvalue above tau^2, and
    the slice keeps its pairs and leaves the live set; with nothing kept its
    prox is proved zero.  If it fails, the slice steps on.  The block is
    accepted once no slice is live.  It gives up, and one ``np.linalg.eigh(G)``
    factors the whole Gram, when an r-th Ritz value exceeds tau^2 (Ritz values
    are lower bounds, so more than r eigenvalues do), or after
    _BLOCK_MAX_STEPS steps.  Every factorization is ``np.linalg.eigh``, so
    columns come in ascending order.  U and sigma come back untrimmed, zero
    where a slice keeps nothing: :func:`svt` keeps the columns that hold some
    sigma > tau.
    """
    gram = np.matmul(h, _conj_transpose(h))  # overflow is silenced by _slicewise
    # max_p ||H_p||_F^2, read off the Gram diagonal; inf when the Gram overflowed.
    fmax2 = float(np.trace(gram, axis1=1, axis2=2).real.max(initial=0.0))
    if not (_NORM_MIN**2 <= fmax2 < np.inf and _GRAM_MIN_TAU * np.sqrt(fmax2) <= tau):
        return None
    P, n = gram.shape[:2]
    eps = np.finfo(float).eps
    omega = np.random.default_rng(0).standard_normal((h.shape[2], _BLOCK))
    u = np.zeros((P, n, _BLOCK), dtype=np.result_type(h, omega))  # each certified slice's pairs
    lam = np.zeros((P, _BLOCK))  # their kept Ritz values, 0 where unkept
    live = np.flatnonzero(np.abs(gram).sum(axis=2).max(axis=1) * (1.0 + 2.0 * n * eps) > tau * tau)
    if not live.size:
        return u, lam
    q = np.linalg.qr(np.matmul(_rows(h, live), omega))[0]
    g = _rows(gram, live)  # the live slices' Gram
    for step in range(_BLOCK_MAX_STEPS):
        y = np.matmul(g, q)
        if step % _BLOCK_CHECK == 0:
            theta, w = np.linalg.eigh(np.matmul(_conj_transpose(q), y))  # ascending
            if (theta[:, 0] > tau * tau).any():  # a lower bound: more than r eigenvalues exceed tau^2
                break
            kept = theta > tau * tau
            v = np.matmul(q, w)
            res = np.linalg.norm(np.matmul(y, w) - v * theta[:, None, :], axis=1)
            done = np.flatnonzero((~kept | (res <= _BLOCK_RESIDUAL * n * eps * theta[:, -1:])).all(axis=1))
            if done.size:  # the converged slices; those that pass their certificate leave
                theta = np.where(kept, theta, 0.0)
                done = done[_certified(_rows(g, done), v[done], theta[done], tau)]
                u[live[done]], lam[live[done]] = v[done], theta[done]
                stay = np.delete(np.arange(live.size), done)
                live, q, y, g = live[stay], q[stay], y[stay], _rows(g, stay)
                if not live.size:
                    return u, np.sqrt(lam)
        q = np.linalg.qr(y)[0]
    lam, u = np.linalg.eigh(gram)
    return u, np.sqrt(np.maximum(lam, 0.0))  # eigh may return -eps ||G||, far below tau^2


def svt(a, tau: float, spec: TransformSpec) -> np.ndarray:
    """Singular value thresholding: shrink each slice's spectrum by tau.

    Proximal operator of tau * nuclear_norm for unitary-scaled specs.

    Each transform-domain slice H (H^H when tall) gives U and sigma with
    H H^H = U diag(sigma^2) U^H, and the result is
    U_k diag(max(sigma - tau, 0) / sigma) U_k^H H over the k columns that
    hold some sigma_p > tau, wherever the routine puts them.  U and sigma come
    from one of two routines for the whole stack:

    - Gram, when G = H H^H has order >= 4 * ``_BLOCK``; :func:`_gram_pairs`
      sets out its protocol.  Under fft on real input it works on just the
      rows the half-spectrum inverse reads (the prox of conj(H) is
      conj(prox(H))), and the result goes back into those rows of the
      L-domain stack.  It has three outcomes:
      - zero: a slice that passes the Gershgorin screen, or whose inertia
        certificate with no pair kept succeeds, has no sigma above tau;
      - certified block: every other slice keeps up to ``_BLOCK`` Ritz
        pairs once they pass a residual bound of c n eps ||G|| and its own
        inertia certificate.  The result is the exact Gram prox of a matrix
        within that bound of G, as the factorization's own result is for a
        matrix within its backward error;
      - whole Gram: when the block gives up, one ``np.linalg.eigh(G)``
        factors every slice.
    - slice SVD: one thin ``np.linalg.svd(H)`` of every slice, with no Gram
      formed, for Grams of order < 4 * ``_BLOCK``, and for unsafe ones.  The
      Gram prox agrees with the SVD prox to about eps * fmax^2 / tau (Golub &
      Van Loan §8.6), where fmax = max_p ||H_p||_F; so a Gram is unsafe when
      tau < 1e-6 * fmax, or when it overflows or underflows.
    """
    if not (is_real(tau) and 0.0 <= tau):
        raise ParameterError(f"tau must be >= 0, got {tau!r}")
    check_spec(spec, "svt")
    a = _as_tensor(a)

    def shrink(hat):
        tall = hat.shape[1] > hat.shape[2]
        h = _conj_transpose(hat) if tall else hat
        gram = h.shape[1] >= 4 * _BLOCK
        # The Gram route takes only the rows the half-spectrum inverse reads.  The
        # slice SVD keeps every slice: bench/'s linalg.svd.slices pin counts them
        # until ROADMAP item 1 re-pins it.
        half = _half_spectrum(spec, a.shape, np.isrealobj(a)) if gram else None
        if half is not None:
            rows = np.arange(len(hat)).reshape(a.shape[:1:-1])[half].ravel()
            h = _rows(h, rows)
        pairs = _gram_pairs(h, tau) if gram else None
        u, sv = pairs if pairs is not None else np.linalg.svd(h, full_matrices=False)[:2]
        keep = (sv > tau).any(axis=0)  # the columns some slice keeps, in any order
        u, sv = u[:, :, keep], sv[:, keep]
        scale = np.divide(sv - tau, sv, out=np.zeros_like(sv), where=sv > tau)
        out = np.matmul(u * scale[:, None, :], np.matmul(_conj_transpose(u), h))
        out = _conj_transpose(out) if tall else out
        if len(out) == len(hat):
            return out
        hat[rows] = out  # the inverse reads no other row
        return hat

    return _slicewise(shrink, spec, a)
