import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltensor.btph import cproduct_via_btph
from ltensor.core import fro_norm, rep_matrix
from ltensor.errors import LTensorError, ParameterError, ShapeError, UnsupportedSpecError
from ltensor.linalg import (
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
from ltensor.transforms import apply_l, make_spec

from conftest import random_shape


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

    def test_svd_factor(self, rng):
        a = rng.standard_normal((4, 3, 2, 2))
        spec = make_spec("fft", a.shape)
        f = t_svd(a, spec)
        assert is_orthogonal(f.u, make_spec("fft", f.u.shape), tol=1e-9)
        assert is_orthogonal(f.v, make_spec("fft", f.v.shape), tol=1e-9)

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
        assert sorted(calls) == ["apply_l", "apply_l_inv", "apply_l_inv"]


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


class TestNonFinite:
    @pytest.mark.parametrize("kind", ["fft", "dct"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "op",
        [t_svd, lambda a, spec: svt(a, 1.0, spec), ranks, spectral_norm, nuclear_norm],
        ids=["t_svd", "svt", "ranks", "spectral_norm", "nuclear_norm"],
    )
    def test_rejected_before_the_svd(self, op, bad, kind):
        # compute_uv=True never returned on a 3x3 slice holding inf
        a = np.ones((3, 3, 2))
        a[1, 1, 0] = bad
        with pytest.raises(ParameterError, match="NaN or inf"):
            op(a, make_spec(kind, a.shape))

    @pytest.mark.parametrize("kind", ["fft", "cprod"])
    @pytest.mark.parametrize(
        "op",
        [t_svd, lambda a, spec: svt(a, 1.0, spec), ranks, spectral_norm, nuclear_norm],
        ids=["t_svd", "svt", "ranks", "spectral_norm", "nuclear_norm"],
    )
    def test_overflowing_transform_raises_without_warning(self, op, kind):
        # a finite tensor of 1e308 overflows the fft ("overflow encountered in fft")
        # and the cprod mode products ("overflow encountered in dot")
        a = np.full((3, 3, 2), 1e308)
        spec = make_spec(kind, a.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LTensorError) as err:
                op(a, spec)
        if spec.unitary_scaled or op is t_svd or op is ranks:
            assert err.type is ParameterError and "NaN or inf" in str(err.value)
        else:
            assert err.type is UnsupportedSpecError
