import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ltensor.completion
import ltensor.linalg
from ltensor.btph import cproduct_via_btph
from ltensor.completion import CompletionConfig, pga_complete, sample_mask
from ltensor.core import as_rep_stack, fro_norm, from_rep_stack, rep_matrix
from ltensor.errors import LTensorError, ParameterError, ShapeError, UnsupportedSpecError
from ltensor.linalg import (
    LFactors,
    _conj_transpose,
    identity_tensor,
    is_orthogonal,
    l_product,
    l_transpose,
    nuclear_norm,
    ranks,
    spectral_norm,
    svt,
    t_svd,
    truncate,
)
from ltensor.transforms import apply_l, apply_l_inv, build_fourier_matrix, make_spec

from conftest import random_shape, synthetic_video


def tube(*vals):
    return np.asarray(vals, dtype=float).reshape(1, 1, len(vals))


class TestLProduct:
    def test_identity_neutral(self, rng):
        for kind in ("fft", "dct", "cprod"):
            x = rng.standard_normal((3, 2, 2, 2))
            spec = make_spec(kind, (3, 3) + x.shape[2:])
            eye = identity_tensor(3, x.shape[2:], spec)
            np.testing.assert_allclose(l_product(eye, x, spec), x, atol=1e-10)

    def test_fourier_tubes_circular_convolution(self):
        spec = make_spec("fft", (1, 1, 2))
        out = l_product(tube(1, 2), tube(3, 4), spec)
        np.testing.assert_allclose(out.ravel(), [11.0, 10.0], atol=1e-12)

    def test_cproduct_tubes(self):
        spec = make_spec("cprod", (1, 1, 2))
        out = l_product(tube(1, 2), tube(3, 4), spec)
        np.testing.assert_allclose(out.ravel(), [3.0, 26.0], atol=1e-12)

    def test_matches_btph_oracle(self, rng):
        for _ in range(10):
            shape = random_shape(rng)
            l = int(rng.integers(1, 4))
            a = rng.standard_normal((shape[0], l) + shape[2:])
            b = rng.standard_normal((l, shape[1]) + shape[2:])
            spec = make_spec("cprod", a.shape[:1] + (shape[1],) + shape[2:])
            fast = l_product(a, b, spec)
            oracle = cproduct_via_btph(a, b)
            np.testing.assert_allclose(fast, oracle, rtol=1e-10, atol=1e-10)

    def test_shape_errors(self):
        spec = make_spec("fft", (2, 2, 3))
        with pytest.raises(ShapeError):
            l_product(np.ones((2, 3, 3)), np.ones((2, 2, 3)), spec)
        with pytest.raises(ShapeError):
            l_product(np.ones((2, 2, 3)), np.ones((2, 2, 4)), spec)


class TestRingLaws:
    @given(st.integers(0, 10_000), st.sampled_from(["fft", "dct", "cprod"]))
    @settings(max_examples=60, deadline=None)
    def test_scalar_tensor_ring(self, seed, kind):
        r = np.random.default_rng(seed)
        trailing = tuple(int(d) for d in r.integers(1, 4, size=int(r.integers(1, 4))))
        shape = (1, 1) + trailing
        spec = make_spec(kind, shape)
        a, b, c = (r.standard_normal(shape) for _ in range(3))
        assoc = l_product(a, l_product(b, c, spec), spec) - l_product(l_product(a, b, spec), c, spec)
        dist = l_product(a, b + c, spec) - (l_product(a, b, spec) + l_product(a, c, spec))
        comm = l_product(a, b, spec) - l_product(b, a, spec)
        scale = 1 + fro_norm(a) * fro_norm(b) * (1 + fro_norm(c))
        assert fro_norm(assoc) < 1e-12 * scale
        assert fro_norm(dist) < 1e-12 * scale
        assert fro_norm(comm) < 1e-12 * scale

    def test_matrix_case_associative_distributive(self, rng):
        shape = (2, 3, 2, 2)
        spec = make_spec("fft", (2, 2) + shape[2:])
        a = rng.standard_normal((2, 2) + shape[2:])
        b = rng.standard_normal((2, 3) + shape[2:])
        c = rng.standard_normal((3, 2) + shape[2:])
        lhs = l_product(a, l_product(b, c, make_spec("fft", b.shape[:1] + (2,) + shape[2:])), spec)
        rhs = l_product(l_product(a, b, make_spec("fft", (2, 3) + shape[2:])), c, spec)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestTranspose:
    def test_double_transpose_dct(self, rng):
        x = rng.standard_normal((3, 2, 4))
        spec = make_spec("dct", x.shape)
        np.testing.assert_allclose(l_transpose(l_transpose(x, spec), make_spec("dct", (2, 3, 4))), x, atol=1e-10)

    def test_dct_is_slicewise_transpose(self, rng):
        x = rng.standard_normal((3, 2, 4))
        spec = make_spec("dct", x.shape)
        xt = l_transpose(x, spec)
        hat = apply_l(x, spec)
        hat_t = apply_l(xt, make_spec("dct", xt.shape))
        for p in range(1, 5):
            np.testing.assert_allclose(rep_matrix(hat_t, p), rep_matrix(hat, p).T, atol=1e-12)

    def test_reversal(self, rng):
        a = rng.standard_normal((2, 3, 2))
        b = rng.standard_normal((3, 2, 2))
        for kind in ("fft", "dct", "cprod"):
            spec_ab = make_spec(kind, (2, 2, 2))
            lhs = l_transpose(l_product(a, b, spec_ab), spec_ab)
            rhs = l_product(
                l_transpose(b, make_spec(kind, b.shape)),
                l_transpose(a, make_spec(kind, a.shape)),
                spec_ab,
            )
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)

    def test_fourier_transpose_real(self, rng):
        a = rng.standard_normal((3, 2, 4, 2))
        spec = make_spec("fft", a.shape)
        at = l_transpose(a, spec)
        assert np.isrealobj(at)
        back = l_transpose(at, make_spec("fft", at.shape))
        np.testing.assert_allclose(back, a, rtol=1e-10, atol=1e-12)


class TestOrthogonality:
    def test_identity_tensor(self):
        spec = make_spec("fft", (3, 3, 2, 2))
        eye = identity_tensor(3, (2, 2), spec)
        assert is_orthogonal(eye, spec)

    @pytest.mark.parametrize("n", [-1, 1.5, True])
    def test_identity_tensor_rejects_bad_sizes(self, n):
        # -1 escaped as numpy ValueError, True as numpy TypeError
        with pytest.raises(ParameterError, match="identity size must be an integer >= 0"):
            identity_tensor(n, (3,), make_spec("fft", (2, 2, 3)))

    @pytest.mark.parametrize("trailing", [(2.5,), (3, 2.0), (-1,)])
    def test_identity_tensor_rejects_bad_trailing_dims(self, trailing):
        # (2.5,) was truncated to (2,) and gave a (2, 2, 2) tensor
        with pytest.raises(ParameterError, match="so must trailing dims"):
            identity_tensor(2, trailing, make_spec("fft", (2, 2, 2)))

    def test_identity_tensor_accepts_numpy_integers(self):
        spec = make_spec("dct", (3, 3, 2))
        eye = identity_tensor(np.int64(3), (np.int64(2),), spec)
        np.testing.assert_array_equal(eye, identity_tensor(3, (2,), spec))

    def test_svd_factor(self, rng):
        a = rng.standard_normal((4, 3, 2, 2))
        spec = make_spec("fft", a.shape)
        f = t_svd(a, spec)
        assert is_orthogonal(f.u, make_spec("fft", f.u.shape), tol=1e-9)
        assert is_orthogonal(f.v, make_spec("fft", f.v.shape), tol=1e-9)

    @pytest.mark.parametrize("tol", [np.nan, -1.0])
    def test_rejects_a_tolerance_below_zero_or_nan(self, tol):
        # returned False instead of refusing the tolerance
        spec = make_spec("fft", (3, 3, 2))
        with pytest.raises(ParameterError, match="tol must be >= 0"):
            is_orthogonal(identity_tensor(3, (2,), spec), spec, tol)

    def test_all_ones_not_orthogonal(self):
        spec = make_spec("fft", (2, 2, 2))
        assert not is_orthogonal(np.ones((2, 2, 2)), spec)

    def test_norm_preservation(self, rng):
        a = rng.standard_normal((2, 4, 3, 2))
        spec_a = make_spec("fft", a.shape)
        q = t_svd(rng.standard_normal((4, 4, 3, 2)), make_spec("fft", (4, 4, 3, 2))).u
        prod = l_product(a, q, spec_a)
        assert np.isclose(fro_norm(prod), fro_norm(a), rtol=1e-10)

    def test_non_square_error(self):
        with pytest.raises(ShapeError):
            is_orthogonal(np.ones((2, 3, 2)), make_spec("fft", (2, 3, 2)))

    def test_both_products_are_checked(self):
        # L-domain slices U S V^T and U S V[:, ::-1]^T with S^2 = diag(1 +- 1e-6): both
        # slices give q *_L q^T the residual U (S^2 - I) U^T, and q^T *_L q the residuals
        # +-V (S^2 - I) V^T.  cprod's inverse is not unitary-scaled, so the spatial
        # residuals differ: 1.41e-6 for q *_L q^T, 2.0e-6 for q^T *_L q
        def rotation(t):
            return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])

        u, v, s = rotation(0.3), rotation(1.1), np.sqrt([1 + 1e-6, 1 - 1e-6])
        spec = make_spec("cprod", (2, 2, 2))
        q = apply_l_inv(from_rep_stack(np.stack([(u * s) @ v.T, (u * s) @ v[:, ::-1].T]), (2,)), spec, assume_real=True)
        assert not is_orthogonal(q, spec, 1.7e-6)
        assert is_orthogonal(q, spec, 2.1e-6)

    @pytest.mark.parametrize("kind", ["fft", "cprod"])
    def test_three_transforms_per_call(self, kind, rng, monkeypatch):
        import ltensor.linalg as linalg

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("apply_l", "apply_l_inv"):
            monkeypatch.setattr(linalg, name, counted(name, getattr(linalg, name)))
        q = t_svd(rng.standard_normal((3, 3, 2, 2)), make_spec(kind, (3, 3, 2, 2))).u
        calls.clear()
        assert is_orthogonal(q, make_spec(kind, q.shape), tol=1e-9)
        assert sorted(calls) == ["apply_l", "apply_l_inv"]


class TestTSvd:
    def test_zeros(self):
        spec = make_spec("dct", (3, 2, 2))
        f = t_svd(np.zeros((3, 2, 2)), spec)
        assert fro_norm(f.s) == 0.0
        assert ranks(np.zeros((3, 2, 2)), spec).tubal == 0

    def test_identity(self):
        spec = make_spec("dct", (3, 3, 2))
        eye = identity_tensor(3, (2,), spec)
        f = t_svd(eye, spec)
        np.testing.assert_allclose(f.s, eye, atol=1e-10)
        assert np.allclose(f.tube_norms, f.tube_norms[0])

    @pytest.mark.parametrize("kind", ["fft", "dct"])
    def test_contract(self, kind, rng):
        a = rng.standard_normal((4, 3, 2, 2))
        spec = make_spec(kind, a.shape)
        f = t_svd(a, spec)
        recon = l_product(
            l_product(f.u, f.s, make_spec(kind, (4, 3) + a.shape[2:])),
            l_transpose(f.v, make_spec(kind, f.v.shape)),
            make_spec(kind, a.shape),
        )
        assert fro_norm(recon - a) / fro_norm(a) < 1e-10
        assert np.all(np.diff(f.tube_norms) <= 1e-12)
        assert np.isclose(fro_norm(a) ** 2, (f.tube_norms**2).sum(), rtol=1e-10)

    def test_tube_norms_of_huge_entries(self, rng):
        # fro_norm overflowed: tube_norms read inf although s was finite
        a = rng.standard_normal((3, 3, 2))
        spec = make_spec("fft", a.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = t_svd(1e200 * a, spec).tube_norms
        np.testing.assert_allclose(huge, 1e200 * t_svd(a, spec).tube_norms, rtol=1e-12)

    def test_f_diagonal(self, rng):
        a = rng.standard_normal((3, 3, 2, 2))
        spec = make_spec("dct", a.shape)
        f = t_svd(a, spec)
        hat = apply_l(f.s, spec)
        for p in range(1, 5):
            sl = rep_matrix(hat, p)
            np.testing.assert_allclose(sl, np.diag(np.diag(sl)), atol=1e-10)
            assert np.all(np.diag(sl) > -1e-12)


class TestTruncate:
    def test_full_rank_reconstruction(self, rng):
        a = rng.standard_normal((3, 4, 2, 2))
        spec = make_spec("fft", a.shape)
        f = t_svd(a, spec)
        np.testing.assert_allclose(truncate(f, 3), a, atol=1e-10)

    def test_exact_low_rank_recovery(self, rng):
        spec4 = make_spec("fft", (4, 3, 2, 2))
        a = l_product(
            rng.standard_normal((4, 2, 2, 2)),
            rng.standard_normal((2, 3, 2, 2)),
            make_spec("fft", (4, 3, 2, 2)),
        )
        f = t_svd(a, spec4)
        r = ranks(a, spec4).tubal
        assert r == 2
        assert fro_norm(truncate(f, r) - a) < 1e-9

    def test_error_identity(self, rng):
        a = rng.standard_normal((4, 4, 2))
        spec = make_spec("dct", a.shape)
        f = t_svd(a, spec)
        for k in range(1, 5):
            err = fro_norm(a - truncate(f, k)) ** 2
            tail = (f.tube_norms[k:] ** 2).sum()
            assert abs(err - tail) <= 1e-9 * (1 + tail)

    def test_k_out_of_range(self, rng):
        f = t_svd(rng.standard_normal((3, 3, 2)), make_spec("dct", (3, 3, 2)))
        with pytest.raises(ParameterError):
            truncate(f, 4)
        with pytest.raises(ParameterError):
            truncate(f, 0)
        with pytest.raises(ParameterError, match="truncation rank True"):
            truncate(f, True)  # truncated to rank 1

    def test_fractional_k(self, rng):
        # failed while slicing with TypeError
        f = t_svd(rng.standard_normal((3, 3, 2)), make_spec("dct", (3, 3, 2)))
        for call in (lambda: f.leading(1.5), lambda: truncate(f, 1.5)):
            with pytest.raises(ParameterError, match="truncation rank 1.5"):
                call()
        np.testing.assert_array_equal(truncate(f, np.int64(2)), truncate(f, 2))


class TestResultEquality:
    # the dataclass-generated __eq__ raised numpy ValueError: truth value of an array is ambiguous
    @pytest.mark.parametrize("op", [t_svd, ranks])
    def test_results_compare_by_value(self, op, rng):
        a = rng.standard_normal((4, 3, 2, 2))
        spec = make_spec("dct", a.shape)
        assert op(a, spec) == op(a.copy(), spec)
        assert not op(a, spec) != op(a, spec)
        assert op(a, spec) != op(np.zeros_like(a), spec)
        assert op(a, spec) != "a result"

    def test_factors_of_other_shapes_or_specs_differ(self, rng):
        a = rng.standard_normal((4, 3, 2))
        spec = make_spec("fft", a.shape)
        f = t_svd(a, spec)
        assert f != t_svd(a[:3], spec) and ranks(a, spec) != ranks(a[:, :2], spec)
        # equal arrays, other spec: the same tensors, but not the same factorization
        assert f != LFactors(f.u, f.s, f.v, f.tube_norms, make_spec("dct", a.shape))


class TestRanks:
    def test_zeros(self):
        r = ranks(np.zeros((3, 2, 4)), make_spec("fft", (3, 2, 4)))
        assert r.tubal == 0 and r.average == 0.0 and np.all(r.multirank == 0)

    def test_identity(self):
        spec = make_spec("dct", (3, 3, 2, 2))
        r = ranks(identity_tensor(3, (2, 2), spec), spec)
        assert r.tubal == 3 and r.average == 3.0

    def test_negative_threshold(self):
        with pytest.raises(ParameterError, match="threshold must be >= 0"):
            ranks(np.ones((2, 2, 2)), make_spec("fft", (2, 2, 2)), threshold=-1e-3)

    def test_nan_threshold(self):
        # NaN passed `threshold < 0` and gave tubal rank 0
        with pytest.raises(ParameterError, match="threshold must be >= 0"):
            ranks(np.ones((2, 2, 2)), make_spec("fft", (2, 2, 2)), threshold=np.nan)

    def test_constructed_rank_two(self, rng):
        spec = make_spec("fft", (4, 3, 2, 2))
        a = l_product(
            rng.standard_normal((4, 2, 2, 2)), rng.standard_normal((2, 3, 2, 2)), spec
        )
        r = ranks(a, spec)
        assert r.tubal == 2
        assert np.all(r.multirank <= 2)
        assert r.average <= r.tubal


class TestNorms:
    def test_spectral_zeros_identity(self):
        spec = make_spec("dct", (3, 3, 2))
        assert spectral_norm(np.zeros((3, 3, 2)), spec) == 0.0
        assert np.isclose(spectral_norm(identity_tensor(3, (2,), spec), spec), 1.0)

    def test_spectral_matches_slice_svd(self, rng):
        a = rng.standard_normal((3, 3, 2))
        spec = make_spec("fft", a.shape)
        hat = apply_l(a, spec)
        expected = max(np.linalg.svd(rep_matrix(hat, p), compute_uv=False)[0] for p in (1, 2))
        assert np.isclose(spectral_norm(a, spec), expected, rtol=1e-12)

    def test_nuclear_zeros(self):
        assert nuclear_norm(np.zeros((2, 2, 3)), make_spec("fft", (2, 2, 3))) == 0.0

    def test_nuclear_identity_dct(self):
        spec = make_spec("dct", (3, 3, 2, 2))
        eye = identity_tensor(3, (2, 2), spec)
        assert np.isclose(nuclear_norm(eye, spec), 3 * 4)

    def test_nuclear_matches_bdiag(self, rng):
        from ltensor.btph import bdiag

        a = rng.standard_normal((3, 2, 2, 2))
        spec = make_spec("fft", a.shape)
        direct = nuclear_norm(a, spec)
        via_bdiag = np.linalg.norm(
            np.linalg.svd(bdiag(apply_l(a, spec)), compute_uv=False), 1
        ) / spec.alpha
        assert np.isclose(direct, via_bdiag, rtol=1e-10)

    def test_cprod_refused(self):
        spec = make_spec("cprod", (2, 2, 3))
        a = np.ones((2, 2, 3))
        for fn in (spectral_norm, nuclear_norm):
            with pytest.raises(UnsupportedSpecError):
                fn(a, spec)
        with pytest.raises(UnsupportedSpecError):
            svt(a, 0.5, spec)


class TestSvt:
    def test_tau_zero_identity(self, rng):
        a = rng.standard_normal((3, 2, 2, 2))
        spec = make_spec("fft", a.shape)
        np.testing.assert_allclose(svt(a, 0.0, spec), a, atol=1e-10)

    def test_large_tau_zeroes(self, rng):
        a = rng.standard_normal((3, 2, 4))
        spec = make_spec("dct", a.shape)
        out = svt(a, spectral_norm(a, spec) + 1e-9, spec)
        assert fro_norm(out) < 1e-10

    def test_negative_tau(self):
        with pytest.raises(ParameterError):
            svt(np.ones((2, 2, 2)), -0.1, make_spec("dct", (2, 2, 2)))

    def test_nan_tau(self):
        # NaN passed `tau < 0` and returned all NaN
        with pytest.raises(ParameterError, match="tau must be >= 0"):
            svt(np.ones((2, 2, 2)), np.nan, make_spec("dct", (2, 2, 2)))

    def test_prox_optimality_random_perturbations(self, rng):
        spec = make_spec("dct", (2, 2, 2))
        tau = 0.5
        a = rng.standard_normal((2, 2, 2))
        out = svt(a, tau, spec)

        def objective(y):
            return tau * nuclear_norm(y, spec) + 0.5 * fro_norm(y - a) ** 2

        base = objective(out)
        for _ in range(1000):
            radius = 10 ** rng.uniform(-3, 0)
            pert = rng.standard_normal((2, 2, 2))
            pert *= radius / fro_norm(pert)
            assert objective(out + pert) - base >= -1e-12

    def test_prox_closed_form_diagonal_tubes(self):
        # 1 x 1 x 2 under dct: slices are scalars, prox is soft thresholding
        spec = make_spec("dct", (1, 1, 2))
        a = tube(3.0, -1.0)
        hat = apply_l(a, spec).ravel()
        tau = 0.7
        shrunk = np.sign(hat) * np.maximum(np.abs(hat) - tau, 0)
        expected = np.zeros((1, 1, 2))
        from ltensor.transforms import apply_l_inv

        expected = apply_l_inv(shrunk.reshape(1, 1, 2), spec)
        np.testing.assert_allclose(svt(a, tau, spec), expected, atol=1e-12)


def _svd_prox(a, tau, spec):
    """The reference prox: a full SVD of every transform-domain slice."""
    # svt too silences overflow: norms of 1e200 entries overflow to inf
    with np.errstate(over="ignore"):
        hat = as_rep_stack(apply_l(a, spec))
        u, sv, vh = np.linalg.svd(hat, full_matrices=False)
        out = np.matmul(u * np.maximum(sv - tau, 0.0)[:, None, :], vh)
        return apply_l_inv(from_rep_stack(out, a.shape[2:]), spec, assume_real=np.isrealobj(a))


def _fmax(a, spec):
    """max_p ||H_p||_F over the transform-domain slices."""
    return float(np.linalg.norm(as_rep_stack(apply_l(a, spec)), axis=(1, 2)).max())


def _with_spectrum(rng, shape, svals):
    """A real tensor whose frontal slices have the singular values svals."""
    m, n = shape[:2]
    slices = []
    for _ in range(int(np.prod(shape[2:]))):
        q1 = np.linalg.qr(rng.standard_normal((m, len(svals))))[0]
        q2 = np.linalg.qr(rng.standard_normal((n, len(svals))))[0]
        slices.append((q1 * svals) @ q2.T)
    return np.moveaxis(np.reshape(slices, shape[2:] + (m, n)), (-2, -1), (0, 1))


@pytest.fixture
def svd_calls(monkeypatch):
    """Record the keyword arguments of every np.linalg.svd call."""
    calls, svd = [], np.linalg.svd

    def counting(x, **kwargs):
        calls.append(kwargs)
        return svd(x, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


class TestSvtGram:
    """svt's Gram prox against the SVD prox; tau is given relative to fmax."""

    @pytest.mark.parametrize("kind", ["fft", "dct"])
    @pytest.mark.parametrize("shape", [(30, 26, 2, 2), (26, 30, 2, 2), (26, 26, 2, 2)], ids=["tall", "wide", "square"])
    @pytest.mark.parametrize("spectrum", ["random", "rank3", "clustered", "graded"])
    def test_matches_the_svd_prox(self, rng, kind, shape, spectrum, svd_calls):
        # Grams of order 26, so the guard at 1e-6 fmax decides inside _gram_pairs
        # between its own routine (eigh only, so no np.linalg.svd call) and the
        # caller's one thin slice SVD
        k = min(shape[:2])
        a = {
            "random": lambda: rng.standard_normal(shape),
            "rank3": lambda: _with_spectrum(rng, shape, np.array([5.0, 2.0, 1.0])),
            "clustered": lambda: _with_spectrum(rng, shape, 1.0 + 1e-9 * np.arange(k)),
            "graded": lambda: _with_spectrum(rng, shape, np.logspace(0, -8, k)),
        }[spectrum]()
        spec = make_spec(kind, a.shape)
        fmax = _fmax(a, spec)
        for ratio, gram in [(0.99e-6, False), (1.01e-6, True), (1e-4, True), (0.05, True), (0.3, True), (0.999, True)]:
            svd_calls.clear()
            out = svt(a, ratio * fmax, spec)
            assert svd_calls == ([] if gram else [{"full_matrices": False}])
            assert fro_norm(out - _svd_prox(a, ratio * fmax, spec)) <= 1e-12 * fro_norm(a)

    @pytest.mark.parametrize("shape", [(5, 3, 4), (3, 5, 4)], ids=["tall", "wide"])
    def test_complex_input(self, rng, shape):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        spec = make_spec("fft", shape)
        tau = 0.2 * _fmax(a, spec)
        np.testing.assert_allclose(svt(a, tau, spec), _svd_prox(a, tau, spec), rtol=0, atol=1e-12 * fro_norm(a))

    def test_singular_values_on_both_sides_of_tau(self, rng):
        # The worst case for the Gram: tau at the guard with singular values
        # just above and below it.  The gap to the SVD prox stays within the
        # documented eps * fmax^2 / tau, far above the 1e-12 of other spectra.
        for kind in ("fft", "dct"):
            sv = np.concatenate([[1.0, 0.5], np.full(5, 1.5e-6), rng.uniform(0, 1e-6, 23)])
            a = _with_spectrum(rng, (40, 30, 3), sv)
            spec = make_spec(kind, a.shape)
            fmax = _fmax(a, spec)
            tau = 1.01e-6 * fmax
            gap = apply_l(svt(a, tau, spec) - _svd_prox(a, tau, spec), spec)
            assert np.linalg.norm(gap) <= np.finfo(float).eps * fmax**2 / tau

    def test_tau_zero_is_the_identity_through_the_svd(self, rng, svd_calls):
        a = rng.standard_normal((4, 3, 5))
        np.testing.assert_allclose(svt(a, 0.0, make_spec("fft", a.shape)), a, atol=1e-12)
        assert svd_calls == [{"full_matrices": False}]

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_zero_tensor(self, tau, svd_calls):
        out = svt(np.zeros((3, 4, 2)), tau, make_spec("dct", (3, 4, 2)))
        assert np.array_equal(out, np.zeros((3, 4, 2))) and len(svd_calls) == 1

    @pytest.mark.parametrize("scale", [1e200, 1e-160], ids=["gram_overflows", "gram_underflows"])
    def test_extreme_scales_take_the_svd(self, rng, scale, svd_calls):
        # 1e200 squared overflows to inf; 1e-160 squared is subnormal
        base = rng.standard_normal((4, 3, 2))
        a, spec = scale * base, make_spec("fft", base.shape)
        tau = 0.1 * scale * _fmax(base, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = svt(a, tau, spec)
        assert np.isfinite(out).all() and svd_calls == [{"full_matrices": False}]
        np.testing.assert_allclose(out, _svd_prox(a, tau, spec), rtol=0, atol=1e-12 * scale * fro_norm(base))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected_at_any_tau(self, bad):
        a = np.ones((3, 3, 2))
        a[1, 1, 0] = bad
        for tau in (1.0, 1e300, np.inf):
            with pytest.raises(ParameterError, match="NaN or inf"):
                svt(a, tau, make_spec("fft", a.shape))

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["fft", "dct"]),
        st.booleans(),
        st.sampled_from([(30, 26), (26, 30), (24, 24)]),
        st.lists(st.integers(1, 5), min_size=1, max_size=2),
        st.integers(0, 8),
        st.floats(1e-3, 1.0),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_the_svd_prox_on_any_gram_route_operand(self, seed, kind, complex_input, slices, trailing, rank, ratio, data):
        # tall, wide and square slices with Grams of order >= 24; a mode subset
        # such as (3,) of an order-4 tensor makes fft's half-spectrum rows strided.
        # rank 0 is Gaussian noise, which mostly gives the block up; a low L-rank
        # plus noise is mostly certified by it
        shape = slices + tuple(trailing)
        modes = data.draw(st.none() | st.sets(st.integers(3, len(shape)), min_size=1).map(sorted), label="modes")
        spec = make_spec(kind, shape, modes=modes)
        r = np.random.default_rng(seed)

        def draw(dims):
            return r.standard_normal(dims) + (1j * r.standard_normal(dims) if complex_input else 0.0)

        a = draw(shape)
        if rank:
            a = l_product(draw((shape[0], rank) + shape[2:]), draw((rank, shape[1]) + shape[2:]), spec) + 1e-3 * a
        before = a.copy()
        tau = ratio * _fmax(a, spec)
        out = svt(a, tau, spec)
        assert np.array_equal(a, before)
        assert fro_norm(out - _svd_prox(a, tau, spec)) <= 1e-12 * fro_norm(a)

    @pytest.mark.parametrize("kind", ["fft", "dct"])
    def test_one_svd_call_per_svt(self, rng, kind, svd_calls):
        # a Gram of order 6 < 4 * _BLOCK: one thin slice SVD at every tau, no Gram
        a = rng.standard_normal((6, 8, 3, 4))
        spec = make_spec(kind, a.shape)
        fmax = _fmax(a, spec)
        for tau in (0.0, 1e-8 * fmax, 0.1 * fmax, 2 * fmax):
            svd_calls.clear()
            svt(a, tau, spec)
            assert svd_calls == [{"full_matrices": False}]


def _with_l_spectrum(rng, kind, shape, svals, complex_input):
    """A tensor and its spec whose transform-domain slices each have the singular values svals.

    svals is one spectrum for every slice, or a list of one per slice.  Under
    fft the trailing dims are 2s, so the real slices of a real tensor are any
    real matrices.
    """
    spec = make_spec(kind, shape)
    per_slice = svals if isinstance(svals, list) else [svals] * int(np.prod(shape[2:]))

    def orthonormal(rows, cols):
        z = rng.standard_normal((rows, cols))
        return np.linalg.qr(z + 1j * rng.standard_normal(z.shape) if complex_input else z)[0]

    stack = np.stack([(orthonormal(shape[0], len(sv)) * sv) @ orthonormal(shape[1], len(sv)).conj().T
                      for sv in per_slice])
    return apply_l_inv(from_rep_stack(stack, shape[2:]), spec, assume_real=not complex_input), spec


class TestSvtBlock:
    """svt's certified block prox, on Grams of order >= 4 * _BLOCK; tau is 1."""

    R = ltensor.linalg._BLOCK
    CHECK = ltensor.linalg._BLOCK_CHECK
    SHAPES = {"tall": (30, 26, 2, 2), "wide": (26, 30, 2, 2)}
    # sigma_1 = 5 is kept; the rest sit just below tau, so the block converges
    # slowly and the slice stays live for several checks before its kept pair
    # passes the residual test and its own certificate
    SLOW = np.r_[5.0, np.linspace(0.999, 0.9, 25)]
    SPECTRA = {
        "rank2": [5.0, 2.0],
        "clustered": [3.0, 1.0 + 1e-9, 1.0 - 1e-9, 0.5],
        "graded": np.logspace(1, -8, 26),  # 10, 4.4, 1.9, 0.83, ...
        "all_below": np.linspace(0.99, 0.01, 26),
        "full_rank": np.linspace(3.0, 0.5, 26),  # 20 values above tau: more than the block holds
        "full_rank_below_2tau": np.linspace(1.9, 0.5, 26),  # 16 values above tau, none above 2 tau
    }

    @pytest.mark.parametrize("kind", ["fft", "dct"])
    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    @pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("spectrum", SPECTRA, ids=str)
    def test_matches_the_svd_prox(self, rng, kind, shape, complex_input, spectrum, eigh_shapes):
        a, spec = _with_l_spectrum(rng, kind, shape, np.asarray(self.SPECTRA[spectrum]), complex_input)
        out = svt(a, 1.0, spec)
        assert fro_norm(out - _svd_prox(a, 1.0, spec)) <= 1e-12 * fro_norm(a)
        # one Rayleigh-Ritz per check, then the Gram's factorization on a fallback
        blocks, last = eigh_shapes[:-1], eigh_shapes[-1]
        gives_up = spectrum.startswith("full_rank")
        assert set(blocks) <= {(4, self.R, self.R)}
        assert last == ((4, 26, 26) if gives_up else (4, self.R, self.R))
        if gives_up:  # the r-th Ritz value exceeds tau^2 at the first check
            assert blocks == [(4, self.R, self.R)]
        if spectrum in ("rank2", "all_below"):  # certified, or proved zero, at the first check
            assert not blocks
        if spectrum == "all_below":
            assert not out.any()

    def test_a_value_the_block_cannot_see_fails_the_certificate(self, rng, eigh_shapes):
        # svt's block starts from orth(H Omega).  A right singular vector orthogonal
        # to Omega hides sigma = 1.2 > tau from it: over a floor of 0.5 it takes ~20
        # steps to surface, while the pair at 5 passes its residual test in ~6, so
        # only the inertia certificate tells that the block is incomplete
        omega = np.random.default_rng(0).standard_normal((30, self.R))
        hidden = np.linalg.qr(np.hstack([omega, rng.standard_normal((30, 1))]))[0][:, -1]
        svals = np.r_[5.0, 1.2, np.full(20, 0.5)]
        stack = []
        for _ in range(4):
            u = np.linalg.qr(rng.standard_normal((26, 22)))[0]
            v = np.linalg.qr(np.hstack([hidden[:, None], rng.standard_normal((30, 21))]))[0][:, [1, 0, *range(2, 22)]]
            stack.append((u * svals) @ v.T)
        spec = make_spec("dct", (26, 30, 2, 2))
        a = apply_l_inv(from_rep_stack(np.array(stack), (2, 2)), spec, assume_real=True)
        out = svt(a, 1.0, spec)
        assert fro_norm(out - _svd_prox(a, 1.0, spec)) <= 1e-12 * fro_norm(a)
        assert eigh_shapes[-1] == (4, 26, 26)

    def test_a_failed_certificate_takes_the_gram_factorization(self, rng, eigh_shapes, monkeypatch):
        def refuse(x):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        a, spec = _with_l_spectrum(rng, "fft", (26, 30, 2, 2), np.array([5.0, 2.0]), True)
        out = svt(a, 1.0, spec)
        assert fro_norm(out - _svd_prox(a, 1.0, spec)) <= 1e-12 * fro_norm(a)
        assert eigh_shapes[-1] == (4, 26, 26)

    @staticmethod
    def _record(monkeypatch, eigh_shapes, refuse_first_cholesky=False):
        """Every np.linalg.qr and cholesky call, in order, as (name, stack shape, eigh calls before it)."""
        calls = []
        qr, cholesky = np.linalg.qr, np.linalg.cholesky

        def recording_qr(x, *args, **kwargs):
            calls.append(("qr", x.shape, len(eigh_shapes)))
            return qr(x, *args, **kwargs)

        def recording_cholesky(x):
            calls.append(("cholesky", x.shape, len(eigh_shapes)))
            if refuse_first_cholesky and [name for name, *_ in calls].count("cholesky") == 1:
                raise np.linalg.LinAlgError("not positive definite")
            return cholesky(x)

        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        monkeypatch.setattr(np.linalg, "cholesky", recording_cholesky)
        return calls

    @pytest.mark.parametrize("kind", ["fft", "dct"])
    def test_a_refused_batch_certificate_is_retried_slice_by_slice(self, rng, kind, monkeypatch, eigh_shapes):
        # every slice converges at the same check.  The batched certificate with
        # sigma_1's pair kept is refused; each slice's own then passes, so all four
        # are certified at that check and none reaches the Gram factorization
        a, spec = _with_l_spectrum(rng, kind, (26, 30, 2, 2), self.SLOW, False)
        calls = self._record(monkeypatch, eigh_shapes, refuse_first_cholesky=True)
        out = svt(a, 1.0, spec)
        assert [shape for name, shape, _ in calls if name == "cholesky"] == [(4, 26, 26)] + [(26, 26)] * 4
        assert (4, 26, 26) not in eigh_shapes
        monkeypatch.undo()
        assert fro_norm(out - _svd_prox(a, 1.0, spec)) <= 1e-12 * fro_norm(a)

    @pytest.mark.parametrize("kind", ["fft", "dct"])
    def test_each_slice_is_certified_on_its_own(self, rng, kind, monkeypatch, eigh_shapes):
        # the far slices pass the screen; the rank-2 slice is certified alone at the
        # first check, the SLOW one alone at a later check
        far = np.full(26, 0.01)
        a, spec = _with_l_spectrum(rng, kind, (26, 30, 2, 2), [far, np.array([5.0, 2.0]), self.SLOW, far], False)
        calls = self._record(monkeypatch, eigh_shapes)
        out = svt(a, 1.0, spec)
        assert [shape[0] for name, shape, _ in calls if name == "cholesky"] == [1, 1]
        monkeypatch.undo()
        assert fro_norm(out - _svd_prox(a, 1.0, spec)) <= 1e-12 * fro_norm(a)

    @pytest.mark.parametrize("kind", ["fft", "dct"])
    def test_a_slice_its_certificate_refuses_steps_on_alone(self, rng, kind, monkeypatch, eigh_shapes):
        # every slice converges at the first check.  The batched certificate is refused,
        # so each slice is factored alone, and slice 1's own is refused too: the other
        # three are certified there, and only slice 1 steps on to the next check
        a, spec = _with_l_spectrum(rng, kind, (26, 30, 2, 2), np.array([5.0, 2.0]), False)
        shapes, cholesky = [], np.linalg.cholesky

        def refusing(x):
            shapes.append(x.shape)
            if len(shapes) in (1, 3):  # the batch, then slice 1 alone
                raise np.linalg.LinAlgError("not positive definite")
            return cholesky(x)

        monkeypatch.setattr(np.linalg, "cholesky", refusing)
        out = svt(a, 1.0, spec)
        assert shapes == [(4, 26, 26)] + [(26, 26)] * 4 + [(1, 26, 26)]
        assert eigh_shapes == [(4, self.R, self.R), (1, self.R, self.R)]
        monkeypatch.undo()
        assert fro_norm(out - _svd_prox(a, 1.0, spec)) <= 1e-12 * fro_norm(a)

    @pytest.mark.parametrize("kind", ["fft", "dct"])
    def test_rayleigh_ritz_runs_at_a_fixed_stride(self, rng, kind, monkeypatch, eigh_shapes):
        # one QR starts the block and one ends each step, so a check after steps
        # 1, 1 + CHECK, 1 + 2 CHECK, ... follows 1, then CHECK, QRs each
        a, spec = _with_l_spectrum(rng, kind, (26, 30, 2, 2), self.SLOW, False)
        calls = self._record(monkeypatch, eigh_shapes)
        out = svt(a, 1.0, spec)
        checks_before_qr = [before for name, _, before in calls if name == "qr"]
        qrs_before = [sum(before <= i for before in checks_before_qr) for i in range(len(eigh_shapes))]
        assert len(eigh_shapes) >= 3 and set(eigh_shapes) == {(4, self.R, self.R)}
        assert np.diff(qrs_before, prepend=0).tolist() == [1] + [self.CHECK] * (len(eigh_shapes) - 1)
        monkeypatch.undo()
        assert fro_norm(out - _svd_prox(a, 1.0, spec)) <= 1e-12 * fro_norm(a)

    @pytest.mark.parametrize("kind", ["fft", "dct"])
    def test_screened_and_retired_slices_leave_the_ritz_stack(self, rng, kind, eigh_shapes):
        # the two slices far below tau pass the Gershgorin screen and never enter the
        # block; the rank-2 slice is certified at the first check, the graded one steps on
        far = np.full(26, 0.01)
        spectra = [far, np.array([5.0, 2.0]), np.logspace(1, -8, 26), far]
        a, spec = _with_l_spectrum(rng, kind, (26, 30, 2, 2), spectra, False)
        out = svt(a, 1.0, spec)
        assert fro_norm(out - _svd_prox(a, 1.0, spec)) <= 1e-12 * fro_norm(a)
        assert eigh_shapes[0] == (2, self.R, self.R)
        assert (1, self.R, self.R) in eigh_shapes[1:]
        assert all(shape[1:] == (self.R, self.R) for shape in eigh_shapes)  # no Gram factorization

    @pytest.mark.parametrize("kind", ["fft", "dct"])
    @pytest.mark.parametrize("top", [1.03, 1.1])
    def test_a_value_the_first_check_underestimates_keeps_its_slice_live(self, rng, kind, top, eigh_shapes):
        # sigma_1 just above tau over a floor at 0.5 tau: every slice's first Ritz value is
        # below tau^2, so nothing is kept and each slice's zero certificate fails.  The
        # slices step on until sigma_1's pair surfaces and passes, with no Gram factorization
        a, spec = _with_l_spectrum(rng, kind, (26, 30, 2, 2), np.r_[top, np.full(25, 0.5)], False)
        hat = as_rep_stack(apply_l(a, spec))
        q = np.linalg.qr(hat @ np.random.default_rng(0).standard_normal((30, self.R)))[0]  # svt's first block
        qh_hat = np.swapaxes(q, 1, 2).conj() @ hat
        assert np.linalg.eigvalsh(qh_hat @ np.swapaxes(qh_hat, 1, 2).conj()).max() < 1.0
        out = svt(a, 1.0, spec)
        assert fro_norm(out - _svd_prox(a, 1.0, spec)) <= 1e-12 * fro_norm(a)
        assert eigh_shapes and all(shape[1:] == (self.R, self.R) for shape in eigh_shapes)

    def test_a_stack_under_the_gershgorin_screen_needs_no_factorization(self, rng, eigh_shapes, monkeypatch):
        factored, cholesky = [], np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda x: factored.append(x.shape) or cholesky(x))
        a, spec = _with_l_spectrum(rng, "fft", (26, 30, 2, 2), np.full(26, 0.01), True)
        out = svt(a, 1.0, spec)
        assert not out.any() and not eigh_shapes and not factored
        assert fro_norm(out - _svd_prox(a, 1.0, spec)) <= 1e-12 * fro_norm(a)

    @pytest.mark.parametrize("kind", ["fft", "dct"])
    def test_the_benchmark_solve_factors_no_whole_gram(self, kind, eigh_shapes, monkeypatch):
        # bench/'s complete-* workloads: a 72x88x3x20 video with 20% observed by mask
        # seed 1, so 60 slices of 72x88 and Grams of order 72 (~1 s dct, ~2 s fft)
        m = synthetic_video((72, 88, 3, 20))
        latest, prox = [], ltensor.completion.svt

        def keep_latest(*args):  # one call's input only: each holds a whole video
            latest[:] = args
            return prox(*args)

        monkeypatch.setattr(ltensor.completion, "svt", keep_latest)
        pga_complete(m, sample_mask(m.shape, 0.2, 1), CompletionConfig(spec=make_spec(kind, m.shape), max_iters=300))
        assert len(eigh_shapes) > 50 and all(shape[1:] == (self.R, self.R) for shape in eigh_shapes)
        g, tau, spec = latest
        assert fro_norm(svt(g, tau, spec) - _svd_prox(g, tau, spec)) <= 1e-12 * fro_norm(g)

    @pytest.mark.parametrize("kind", ["fft", "dct"])
    def test_a_noisy_solve_factors_the_whole_gram_in_some_calls(self, kind, eigh_shapes, monkeypatch):
        # a 30x26x3x6 video plus N(0, 0.05^2) noise: 18 slices with Grams of order 26.  In
        # some calls a slice holds more than R values above tau, or the step cap is
        # reached, and the block gives up; every call must still match the SVD prox (~2 s).
        # Under fft the block and the whole Gram take only the 3 x (6 // 2 + 1) slices
        # that the half-spectrum inverse reads
        dims = (30, 26, 3, 6)
        m = np.clip(synthetic_video(dims) + 0.05 * np.random.default_rng(0).standard_normal(dims), 0.0, 1.0)
        whole, prox = [], ltensor.completion.svt
        gram = ({"fft": 12, "dct": 18}[kind], 26, 26)

        def checked(g, tau, spec):
            before = len(eigh_shapes)
            out = prox(g, tau, spec)
            whole.append(gram in eigh_shapes[before:])
            assert fro_norm(out - _svd_prox(g, tau, spec)) <= 1e-12 * fro_norm(g)
            return out

        monkeypatch.setattr(ltensor.completion, "svt", checked)
        pga_complete(m, sample_mask(dims, 0.2, 1), CompletionConfig(spec=make_spec(kind, dims), max_iters=300))
        assert any(whole) and not all(whole)

    def test_same_input_same_output_whatever_ran_before(self, rng):
        a, spec = _with_l_spectrum(rng, "dct", (30, 26, 2, 2), np.array([3.0, 1.5, 0.2]), False)
        first = svt(a, 1.0, spec)
        svt(rng.standard_normal(a.shape), 1.0, spec)
        assert np.array_equal(svt(a, 1.0, spec), first)


def _fft_and_dft(shape, modes):
    """The fft spec for shape and modes, and an explicit spec holding the same DFT matrices."""
    fft = make_spec("fft", shape, modes)
    matrices = {m: build_fourier_matrix(n) for m, n in zip(fft.modes, fft.sizes)}
    return fft, make_spec("explicit", shape, fft.modes, matrices)


def _real_and_close(out, reference):
    """out is real and equals the complex reference within rounding."""
    assert out.dtype == np.float64
    assert fro_norm(out - reference) <= 1e-12 * max(1.0, fro_norm(reference))


class TestHalfSpectrum:
    """Real inputs under fft come back through the half-spectrum inverse, which
    reads only the slices with k < n // 2 + 1 along the last transformed mode.
    Each op is compared with an explicit spec holding the DFT matrices, whose
    inverse reads every slice."""

    R = ltensor.linalg._BLOCK

    # orders 3-5 with mode sizes 1-5; the halved mode is the last transformed one,
    # so modes (3,) on order 4 and (3, 4) on order 5 read strided rows
    CASES = {
        "order3-odd-tall": ((4, 3, 5), None),
        "order3-even-wide": ((3, 4, 4), None),
        "order3-size1": ((3, 2, 1), None),
        "order4": ((4, 3, 2, 3), None),
        "order4-modes3": ((3, 4, 3, 4), (3,)),
        "order4-modes4": ((4, 3, 3, 4), (4,)),
        "order5-modes35": ((2, 3, 2, 3, 5), (3, 5)),
        "order5-modes34": ((3, 2, 3, 5, 2), (3, 4)),
        "order5": ((3, 2, 5, 1, 4), None),
    }

    @pytest.fixture(params=CASES.values(), ids=CASES.keys())
    def case(self, request, rng):
        shape, modes = request.param
        return rng.standard_normal(shape), *_fft_and_dft(shape, modes)

    def test_l_product_and_l_transpose(self, rng, case):
        a, fft, dft = case
        b = rng.standard_normal((a.shape[1], 3) + a.shape[2:])
        _real_and_close(l_product(a, b, fft), l_product(a, b, dft))
        _real_and_close(l_transpose(a, fft), l_transpose(a, dft))
        eye = identity_tensor(a.shape[1], a.shape[2:], fft)
        _real_and_close(eye, identity_tensor(a.shape[1], a.shape[2:], dft))
        _real_and_close(l_product(a, eye, fft), a)

    def test_t_svd_factors_and_truncate(self, case):
        a, fft, dft = case
        f, g = t_svd(a, fft), t_svd(a, dft)
        # u and v are unique only up to each slice's phases: check what defines them
        _real_and_close(f.s, g.s)
        _real_and_close(l_product(l_product(f.u, f.s, fft), l_transpose(f.v, fft), fft), a)
        assert is_orthogonal(f.u, fft) and is_orthogonal(f.v, fft)
        assert f.u.dtype == f.v.dtype == np.float64
        np.testing.assert_allclose(f.tube_norms, g.tube_norms, rtol=1e-12)
        _real_and_close(truncate(f, 1), truncate(g, 1))

    # a mode of size 6 gives self-conjugate slices (k = 3) with imaginary parts of
    # ~1e-16 from the fft's twiddles, in the plane the inverse halves or beside it
    @pytest.mark.parametrize("trailing, modes", [((6,), None), ((6, 3), None), ((6, 2), (3,))])
    def test_t_svd_where_every_singular_value_repeats(self, rng, trailing, modes):
        # In the slices of an orthogonal tensor, and of a matrix times a tube, all
        # singular values are equal, so each slice's factors are free up to a unitary,
        # and a slice that is real up to rounding can give complex ones.  Mixing them
        # in the half-spectrum inverse gave factors far from orthogonal; the full
        # inverse's residual test refused them with NumericConsistencyError
        fft = make_spec("fft", (4, 4) + trailing, modes)
        orthogonal = t_svd(rng.standard_normal((4, 4) + trailing), fft).u
        matrix = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        tube = np.einsum("ij,...->ij...", matrix, rng.standard_normal(trailing))
        for b in (orthogonal, tube):
            f = t_svd(b, fft)
            assert is_orthogonal(f.u, fft) and is_orthogonal(f.v, fft)
            _real_and_close(l_product(l_product(f.u, f.s, fft), l_transpose(f.v, fft), fft), b)

    def test_is_orthogonal(self, case):
        a, fft, dft = case
        q = t_svd(a[:, :1] * a[:1], fft).u  # square slices
        assert is_orthogonal(q, fft) and is_orthogonal(q, dft)
        assert not is_orthogonal(q + 1e-3, fft) and not is_orthogonal(q + 1e-3, dft)

    def test_svt(self, case):
        a, fft, dft = case
        tau = 0.3 * _fmax(a, fft)
        out = svt(a, tau, fft)
        _real_and_close(out, _svd_prox(a, tau, fft))
        _real_and_close(out, svt(a, tau, dft))

    # Grams of order 26, so svt takes the Gram route on the rows the inverse reads:
    # 3 x (5 // 2 + 1), 4 // 2 + 1, and under modes (3,) rows 0-2 and 5-7 of 10
    GRAM = {
        "wide-order4": ((26, 30, 3, 5), None, 9),
        "tall-order3": ((30, 26, 4), None, 3),
        "wide-strided": ((26, 30, 5, 2), (3,), 6),
    }

    @pytest.mark.parametrize("shape, modes, rows", GRAM.values(), ids=GRAM.keys())
    def test_the_gram_route_takes_only_the_rows_the_inverse_reads(self, rng, shape, modes, rows, eigh_shapes):
        a = rng.standard_normal(shape)
        fft, dft = _fft_and_dft(shape, modes)
        fmax = _fmax(a, fft)
        # at 0.4 fmax the block is certified; at 0.05 fmax every slice holds more than
        # R values above tau, and the block gives up to the whole Gram of those rows
        for ratio in (0.4, 0.05):
            eigh_shapes.clear()
            out = svt(a, ratio * fmax, fft)
            if ratio == 0.05:
                assert eigh_shapes == [(rows, self.R, self.R), (rows, 26, 26)]
            else:
                assert eigh_shapes and all(s[0] <= rows and s[1] == self.R for s in eigh_shapes)
            _real_and_close(out, _svd_prox(a, ratio * fmax, fft))
            _real_and_close(out, svt(a, ratio * fmax, dft))


class TestInverseFlags:
    """``assume_real`` is the public, checked contract of ``apply_l_inv``: it tests
    the imaginary residual and drops it.  An op states that its result is real
    with the internal ``_half`` alone, so no op runs the residual test."""

    @pytest.mark.parametrize("kind", ["fft", "dct", "cprod", "explicit"])
    def test_no_op_passes_assume_real(self, kind, rng, monkeypatch):
        shape = (26, 26, 3, 2)  # Grams of order 26: svt takes the Gram route
        spec = _fft_and_dft(shape, None)[1] if kind == "explicit" else make_spec(kind, shape)
        calls, norms = [], []
        inverse, norm = ltensor.linalg.apply_l_inv, ltensor.transforms.fro_norm

        def recording(*args, **kwargs):
            calls.append((len(args), set(kwargs)))
            return inverse(*args, **kwargs)

        def counting(x):
            norms.append(x.shape)
            return norm(x)

        monkeypatch.setattr(ltensor.linalg, "apply_l_inv", recording)
        monkeypatch.setattr(ltensor.transforms, "fro_norm", counting)
        real = rng.standard_normal(shape)
        for a in (real, real + 1j * rng.standard_normal(shape)):
            f = t_svd(a, spec)
            truncate(f, 2)
            l_product(a, a, spec)
            l_transpose(a, spec)
            is_orthogonal(a, spec)
            if spec.unitary_scaled:
                svt(a, 0.4 * _fmax(a, spec), spec)
        identity_tensor(shape[0], shape[2:], spec)
        assert calls and all(n == 2 and "assume_real" not in kw for n, kw in calls)
        assert norms == []
        # a public call on a complex result: ||out|| and ||Im out||, then real
        out = apply_l_inv(apply_l(real + 0j, spec), spec, assume_real=True)
        assert out.dtype == np.float64 and len(norms) == 2


def _l_square(a, spec):
    return l_product(a, a, spec)


_ALL_OPS = [t_svd, lambda a, spec: svt(a, 1.0, spec), ranks, spectral_norm, nuclear_norm,
            _l_square, l_transpose, is_orthogonal]
_ALL_OP_IDS = ["t_svd", "svt", "ranks", "spectral_norm", "nuclear_norm",
               "l_product", "l_transpose", "is_orthogonal"]


class TestConjTranspose:
    def test_real_stacks_give_a_view_and_complex_ones_the_conjugate(self, rng):
        # svt's half-spectrum view keeps the block's trailing axes, (I_4, k_3, I_1, I_2) on order 4
        for shape, axes in [((3, 2, 4), (0, 2, 1)), ((2, 3, 5, 4), (0, 1, 3, 2))]:
            real = rng.standard_normal(shape)
            assert np.shares_memory(_conj_transpose(real), real)
            np.testing.assert_array_equal(_conj_transpose(real), real.transpose(axes))
            cplx = real + 1j * rng.standard_normal(real.shape)
            np.testing.assert_array_equal(_conj_transpose(cplx), np.conj(cplx.transpose(axes)))


class TestNonFinite:
    @pytest.mark.parametrize("kind", ["fft", "dct"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("op", _ALL_OPS, ids=_ALL_OP_IDS)
    def test_rejected_before_the_svd(self, op, bad, kind):
        # compute_uv=True never returned on a 3x3 slice holding inf
        a = np.ones((3, 3, 2))
        a[1, 1, 0] = bad
        with pytest.raises(ParameterError, match="NaN or inf"):
            op(a, make_spec(kind, a.shape))

    @pytest.mark.parametrize("kind", ["fft", "cprod"])
    @pytest.mark.parametrize("op", _ALL_OPS, ids=_ALL_OP_IDS)
    def test_overflowing_transform_raises_without_warning(self, op, kind):
        # a finite tensor of 1e308 overflows the fft ("overflow encountered in fft")
        # and the cprod mode products ("overflow encountered in dot")
        a = np.full((3, 3, 2), 1e308)
        spec = make_spec(kind, a.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LTensorError) as err:
                op(a, spec)
        if spec.unitary_scaled or op in (t_svd, ranks, _l_square, l_transpose, is_orthogonal):
            assert err.type is ParameterError and "NaN or inf" in str(err.value)
        else:
            assert err.type is UnsupportedSpecError


    @pytest.mark.parametrize("kind", ["fft", "dct", "cprod"])
    def test_overflowing_slicewise_result_raises_without_warning(self, kind, rng):
        # finite transforms whose slice products overflow came back as inf
        a = 1e200 * rng.standard_normal((3, 3, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="NaN or inf"):
                l_product(a, a, make_spec(kind, a.shape))

    @pytest.mark.parametrize(
        "op, passes",
        [(t_svd, 4), (lambda a, spec: svt(a, 1.0, spec), 2), (_l_square, 3), (l_transpose, 2), (is_orthogonal, 2)],
        ids=["t_svd", "svt", "l_product", "l_transpose", "is_orthogonal"],
    )
    def test_one_finiteness_pass_per_transform(self, op, passes, rng, monkeypatch):
        # each transform checks its own result and the ops add no pass of their own; t_svd
        # made 7: the forward, then each of its three stacks before and after its inverse
        a = rng.standard_normal((3, 3, 2))
        spec = make_spec("fft", a.shape)
        sizes, isfinite = [], np.isfinite

        def counting(x, *args, **kwargs):
            sizes.append(np.size(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting)
        op(a, spec)
        assert len(sizes) == passes and sizes[0] == a.size  # is_orthogonal inverts a stack of 2x the rows

    def test_overflowing_inverse_raises_without_warning(self):
        # both dct-domain slices hold a finite 1.4e308 and the orthogonal inverse
        # sums them: the exact product, 2.0e308, is beyond the float range.  With
        # 1.2e154, whose finite product (1.0e308) the dense DCT returns but
        # pocketfft overflowed on, [inf, 2.99e292] came back with no warning or error.
        a = np.zeros((1, 1, 2))
        a[0, 0, 0] = 1.7e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="inverse-transformed results hold NaN or inf"):
                l_product(a, a, make_spec("dct", a.shape))


class TestZeroSize:
    @pytest.mark.parametrize("kind", ["fft", "dct", "cprod"])
    @pytest.mark.parametrize(
        "shape, modes", [((0, 3, 2), None), ((3, 0, 2), None), ((3, 3, 0, 2), (4,))],
        ids=["no-rows", "no-columns", "no-slices"],
    )
    def test_ops_return_the_empty_result(self, kind, shape, modes):
        # a zero-size dim raised numpy's "cannot reshape array of size 0"
        a = np.ones(shape)
        spec = make_spec(kind, shape, modes=modes)
        assert l_product(a, np.ones((shape[1], 4) + shape[2:]), spec).shape == (shape[0], 4) + shape[2:]
        assert l_transpose(a, spec).shape == (shape[1], shape[0]) + shape[2:]
        f = t_svd(a, spec)
        assert f.u.shape[:2] == (shape[0],) * 2 and f.s.shape == shape and f.v.shape[:2] == (shape[1],) * 2
        assert not f.tube_norms.any()
        report = ranks(a, spec)
        assert report.tubal == 0 and not report.multirank.any() and report.average == 0.0
        if spec.unitary_scaled:
            assert svt(a, 0.5, spec).shape == shape
            assert spectral_norm(a, spec) == nuclear_norm(a, spec) == 0.0


def _complex_unitary(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


class TestComplexExplicit:
    """An explicit L may be complex: real inputs then give complex outputs."""

    def test_l_product_is_facewise_in_the_l_domain(self, rng):
        # real inputs raised NumericConsistencyError: imaginary residual 7.5e-01
        spec = make_spec("explicit", (2, 3, 3), matrices={3: _complex_unitary(rng, 3)})
        a, b = rng.standard_normal((2, 3, 3)), rng.standard_normal((3, 2, 3))
        out = l_product(a, b, spec)
        expected = apply_l_inv(np.einsum("ijp,jkp->ikp", apply_l(a, spec), apply_l(b, spec)), spec)
        assert out.dtype == np.complex128
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_t_svd_reconstructs(self, rng):
        a = rng.standard_normal((4, 3, 3, 2))
        spec = make_spec("explicit", a.shape, matrices={3: _complex_unitary(rng, 3), 4: 2 * np.eye(2)})
        f = t_svd(a, spec)
        rebuilt = l_product(l_product(f.u, f.s, spec), l_transpose(f.v, spec), spec)
        assert fro_norm(rebuilt - a) <= 1e-13 * fro_norm(a)
        assert is_orthogonal(f.u, spec) and is_orthogonal(f.v, spec)

    def test_identity_tensor(self, rng):
        spec = make_spec("explicit", (3, 3, 4), matrices={3: _complex_unitary(rng, 4)})
        a = rng.standard_normal((3, 3, 4))
        eye = identity_tensor(3, (4,), spec)
        np.testing.assert_allclose(l_product(a, eye, spec), a, rtol=0, atol=1e-13)
        np.testing.assert_allclose(l_product(eye, a, spec), a, rtol=0, atol=1e-13)

    def test_the_dft_matrix_gives_the_fft_product_as_complex(self, rng):
        a, b = rng.standard_normal((2, 2, 3)), rng.standard_normal((2, 2, 3))
        dft = make_spec("explicit", a.shape, matrices={3: build_fourier_matrix(3)})
        out = l_product(a, b, dft)
        assert out.dtype == np.complex128
        np.testing.assert_allclose(out, l_product(a, b, make_spec("fft", a.shape)), rtol=0, atol=1e-13)
