"""Low-tubal-rank tensor completion by accelerated proximal gradient.

The iteration alternates a momentum extrapolation, a gradient step on the
data-fit term (Lipschitz constant 1, so observed entries of the gradient
point are restored exactly) and a singular-value-thresholding prox step with
a geometrically decaying shrinkage mu_k = max(nu^k mu_0, mu_bar).

:func:`pga_complete` works in the rep-stack memory order of
:mod:`ltensor.core`, the order :func:`ltensor.linalg.svt` returns: it copies
m and the mask into that order once and reuses the previous iterate's memory
for the momentum point and then for the stopping test's difference, so an
iteration allocates only the gradient point and svt's result.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .core import _as_array, as_rep_stack, count_tuple, fro_norm, from_rep_stack, is_count, is_flag, is_real, same_shape
from .errors import ParameterError, ShapeError
from .linalg import svt
from .transforms import TransformSpec, check_spec


# The tensors an RSE may divide by; ``rse``'s ``denominator`` names one.
RSE_DENOMINATORS = ("obtained", "original")


def _check_denominator(denominator):
    """ParameterError unless denominator is one of the strings in RSE_DENOMINATORS."""
    if not (isinstance(denominator, str) and denominator in RSE_DENOMINATORS):
        raise ParameterError(f"unknown RSE denominator {denominator!r}")


def _observed(mask, shape) -> np.ndarray:
    """The observation mask as booleans: the one rule for what a mask may hold.

    A mask has the data's shape and is boolean, or numeric with every entry
    exactly 0 or 1; anything else (a probability, NaN, -1) raises
    ``ParameterError`` instead of counting as observed.
    """
    mask = _as_array(mask)
    if mask.shape != shape:
        raise ShapeError(f"mask shape {mask.shape} does not match data shape {shape}")
    if mask.dtype != bool:
        if mask.dtype.kind not in "iuf" or not np.isin(mask, (0, 1)).all():
            raise ParameterError(f"mask entries must be boolean or exactly 0 or 1, got {mask.dtype} values")
        mask = mask == 1
    return mask


def _real_finite(t, what) -> np.ndarray:
    """t as a float64 array; ParameterError unless t holds bools, integers or floats, all finite."""
    try:
        t = np.asarray(t)
    except ValueError as exc:  # numpy's refusal of a ragged nested sequence
        raise ParameterError(f"completion needs real {what}, got a ragged sequence") from exc
    if t.dtype.kind not in "biuf":
        raise ParameterError(f"completion needs real {what}, got {t.dtype}")
    t = t.astype(float, copy=False)
    if not np.isfinite(t).all():
        raise ParameterError(f"{what} holds NaN or inf entries, observed or not")
    return t


def project_omega(x, mask) -> np.ndarray:
    """P_Omega(x): keep observed entries, zero the rest.

    The mask has x's shape and is boolean, or numeric with every entry
    exactly 0 or 1; anything else raises ``ParameterError``.
    """
    x = _as_array(x)
    return np.where(_observed(mask, x.shape), x, 0.0)


def sample_mask(dims, sr: float, seed: int) -> np.ndarray:
    """Uniform observation mask with exactly round(sr * prod(dims)) entries."""
    if not (is_real(sr) and 0.0 <= sr <= 1.0):
        raise ParameterError(f"sampling ratio must be in [0, 1], got {sr!r}")
    checked = count_tuple(dims)
    if checked is None or not is_count(seed):
        raise ParameterError(f"seed and dims must be integers >= 0, got seed {seed} and dims {dims}")
    dims = checked
    total = int(np.prod(dims, dtype=np.int64))
    count = int(round(sr * total))
    rng = np.random.default_rng(seed)
    flat = np.zeros(total, dtype=bool)
    flat[rng.choice(total, size=count, replace=False)] = True
    return flat.reshape(dims, order="F")


def _error_norm(obtained, original, ref=None):
    """s, ||obtained - original||_F / s and ||ref||_F / s (0.0 without ref): the one overflow rule of rse and psnr.

    s is 1 unless one of the norms exceeds the float range; then it is the
    largest |entry| of either tensor, which brings both below it.  NaN or inf
    in either tensor raises ``ParameterError``; bools count as 0 and 1
    (numpy has no bool minus).
    """
    if not (np.isfinite(obtained).all() and np.isfinite(original).all()):
        raise ParameterError("error metrics need finite tensors, got NaN or inf")

    def norms(x, y, r):
        with np.errstate(over="ignore"):  # an overflowing difference is rescaled below
            err = fro_norm(np.subtract(x, y, dtype=np.result_type(x, y, np.int8)))
        return err, 0.0 if r is None else fro_norm(r)

    err, den = norms(obtained, original, ref)
    if max(err, den) < math.inf:
        return 1.0, err, den
    s = max(float(np.max(np.abs(obtained))), float(np.max(np.abs(original))))
    return (s, *norms(obtained / s, original / s, None if ref is None else ref / s))


def rse(obtained, original, denominator: str = "obtained") -> float:
    """Relative squared error ||original - obtained||_F^2 / ||obtained||_F^2.

    The denominator is the obtained tensor by convention here; pass
    ``denominator='original'`` for the more common normalization.  The ratio
    of the two norms is squared, not each norm, and both are rescaled when
    either exceeds the float range, so none overflows or underflows on its
    own.  NaN or inf in either tensor raises ``ParameterError``.
    """
    obtained, original = same_shape(obtained, original)
    _check_denominator(denominator)
    _, err, den = _error_norm(obtained, original, obtained if denominator == "obtained" else original)
    if den == 0.0:
        raise ParameterError("RSE undefined: zero denominator tensor")
    ratio = err / den
    return ratio * ratio


def psnr(obtained, original) -> float:
    """10 log10(Max^2 / ||obtained - original||_F^2), Max over the obtained tensor.

    Computed as 20 (log10 |Max| - log10 ||obtained - original||_F), so no
    square overflows or underflows; when the error norm itself exceeds the
    float range, its log is log10 s + log10 ||obtained / s - original / s||_F
    with s the largest |entry| of either tensor.  Identical tensors give +inf,
    a zero Max gives -inf; complex tensors, NaN and inf raise ``ParameterError``.
    """
    obtained, original = same_shape(obtained, original)
    if np.iscomplexobj(obtained) or np.iscomplexobj(original):
        raise ParameterError("PSNR needs real tensors, got complex")
    s, err, _ = _error_norm(obtained, original)
    if err == 0.0:
        return math.inf
    peak = abs(float(np.max(obtained)))
    if peak == 0.0:
        return -math.inf
    return 20.0 * (math.log10(peak) - math.log10(s) - math.log10(err))


@dataclass
class CompletionConfig:
    """Solver parameters, and the one place their defaults are set.

    mu0 defaults to nu * ||M||_F at solve time.  That norm runs over every
    entry of M, unobserved ones included, so the result depends on them;
    :func:`pga_complete` therefore rejects M holding NaN or inf anywhere.
    """

    spec: TransformSpec
    nu: float = 0.9
    mu0: float | None = None
    mu_bar_ratio: float = 1e-4
    tol: float = 1e-4
    max_iters: int = 100
    reimpose_observed: bool = False
    rse_denominator: str = "obtained"

    def validate(self):
        """Raise ParameterError for any value out of range; NaN is out of every range."""
        check_spec(self.spec)
        if not (is_real(self.nu) and 0.0 < self.nu < 1.0):
            raise ParameterError(f"nu must be in (0, 1), got {self.nu!r}")
        if not (is_real(self.tol) and 0.0 < self.tol):
            raise ParameterError(f"tol must be > 0, got {self.tol!r}")
        if not (is_real(self.mu_bar_ratio) and 0.0 <= self.mu_bar_ratio <= 1.0):
            raise ParameterError(f"mu_bar_ratio must be in [0, 1], got {self.mu_bar_ratio!r}")
        if self.mu0 is not None and not (is_real(self.mu0) and 0.0 <= self.mu0 < math.inf):
            raise ParameterError(f"mu0 must be finite and >= 0, got {self.mu0!r}")
        if not is_count(self.max_iters, 1):
            raise ParameterError(f"max_iters must be an integer >= 1, got {self.max_iters}")
        if not is_flag(self.reimpose_observed):
            raise ParameterError(f"reimpose_observed must be a bool, got {self.reimpose_observed!r}")
        _check_denominator(self.rse_denominator)


@dataclass
class IterationRecord:
    """One solver iteration; each field is one column of the trace CSV."""

    k: int = field(metadata={"column": "iter"})
    mu: float
    t: float
    rel_change: float
    rse: float | None = None
    psnr: float | None = None


@dataclass
class CompletionTrace:
    records: list = field(default_factory=list)
    status: str = "max-iters"

    @property
    def iterations(self) -> int:
        return len(self.records)

    def write_csv(self, path):
        columns = fields(IterationRecord)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([c.metadata.get("column", c.name) for c in columns])
            for r in self.records:
                values = (getattr(r, c.name) for c in columns)
                writer.writerow(["" if v is None else repr(v) for v in values])


def pga_complete(m, mask, cfg: CompletionConfig, ground_truth=None):
    """Complete the observed tensor P_Omega(m) by accelerated proximal gradient.

    ``m`` and ``ground_truth`` must be real and finite everywhere and have
    the shape of ``mask``, which follows :func:`project_omega`'s rule; each is
    checked before any work.  Returns (completed tensor, trace).  Iterates start from
    X^0 = X^1 = 0 with t_0 = t_1 = 1; per iteration Y is the momentum point,
    G restores the observed entries of Y to those of m, and
    X^{k+1} = svt(G, mu_k).  Stops when ||Y^k - X^{k+1}||_F / ||X^{k+1}||_F
    <= tol or at max_iters.
    """
    cfg.validate()
    check_spec(cfg.spec, "pga_complete")
    m = _real_finite(m, "data")
    mask = _observed(mask, m.shape)
    if ground_truth is not None:
        m, ground_truth = same_shape(m, _real_finite(ground_truth, "ground truth"))
    m, mask = (from_rep_stack(as_rep_stack(t), t.shape[2:]) for t in (m, mask))
    nu = float(cfg.nu)  # a numpy scalar would reach the trace CSV as its repr
    mu0 = nu * fro_norm(m) if cfg.mu0 is None else float(cfg.mu0)
    mu_bar = float(cfg.mu_bar_ratio) * mu0

    x_prev = np.zeros_like(m)
    x_cur = np.zeros_like(m)
    t_prev, t_cur = 1.0, 1.0
    trace = CompletionTrace()

    for k in range(1, cfg.max_iters + 1):
        mu_k = max(nu**k * mu0, mu_bar)
        # y = x_cur + ((t_prev - 1) / t_cur) (x_cur - x_prev), written over x_prev, its last use
        y = np.subtract(x_cur, x_prev, out=x_prev)
        y *= (t_prev - 1.0) / t_cur
        y += x_cur
        g = np.where(mask, m, y)
        x_next = svt(g, mu_k, cfg.spec)

        num = fro_norm(np.subtract(y, x_next, out=y))
        den = fro_norm(x_next)
        if den > 0.0:
            rel = num / den
        elif not g.any():
            rel = 0.0  # g is zero exactly when every observation is: zeros are the exact solution
        else:
            rel = math.inf  # shrinkage still zeroes everything; keep iterating

        rec = IterationRecord(k=k, mu=mu_k, t=t_cur, rel_change=rel)
        if ground_truth is not None:
            try:
                rec.rse = rse(x_next, ground_truth, denominator=cfg.rse_denominator)
            except ParameterError:
                rec.rse = math.nan  # all-zero iterate, metric undefined
            rec.psnr = psnr(x_next, ground_truth)
        trace.records.append(rec)

        x_prev, x_cur = x_cur, x_next
        t_prev, t_cur = t_cur, (1.0 + math.sqrt(4.0 * t_cur**2 + 1.0)) / 2.0

        if rel <= cfg.tol:
            trace.status = "converged"
            break

    out = x_cur
    if cfg.reimpose_observed:
        out = np.where(mask, m, out)
    return out, trace
