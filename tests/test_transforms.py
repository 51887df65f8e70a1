import warnings

import numpy as np
import pytest
import scipy.fft

from ltensor.core import as_rep_stack, fro_norm, inner_product, mode_n_product
from ltensor.errors import NumericConsistencyError, ParameterError, TransformError
from ltensor.transforms import (
    apply_l,
    apply_l_inv,
    build_cproduct_matrix,
    build_dct_matrix,
    build_fourier_matrix,
    make_spec,
)

from conftest import random_shape


class TestDctMatrix:
    def test_n1(self):
        np.testing.assert_allclose(build_dct_matrix(1), [[1.0]])

    def test_n2(self):
        r = 1 / np.sqrt(2)
        np.testing.assert_allclose(build_dct_matrix(2), [[r, r], [r, -r]], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_orthogonal(self, n):
        c = build_dct_matrix(n)
        assert np.linalg.norm(c @ c.T - np.eye(n)) < 1e-12

    def test_size_error(self):
        with pytest.raises(ParameterError):
            build_dct_matrix(0)


    @pytest.mark.parametrize("builder", [build_dct_matrix, build_fourier_matrix, build_cproduct_matrix])
    @pytest.mark.parametrize("n", [2.5, 2.0, True, None, "3"])
    def test_size_must_be_an_integer(self, builder, n):
        # build_dct_matrix(2.5) returned a 3x3 matrix built with n = 2.5, (True) a 1x1 one,
        # and build_cproduct_matrix(2.5) leaked TypeError
        with pytest.raises(ParameterError, match="matrix size must be >= 1"):
            builder(n)


class TestFourierMatrix:
    def test_n1(self):
        np.testing.assert_allclose(build_fourier_matrix(1), [[1.0]])

    def test_n2(self):
        np.testing.assert_allclose(build_fourier_matrix(2), [[1, 1], [1, -1]], atol=1e-12)

    def test_n4_column2(self):
        f = build_fourier_matrix(4)
        np.testing.assert_allclose(f[:, 1], [1, -1j, -1, 1j], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_scaled_unitary(self, n):
        f = build_fourier_matrix(n)
        assert np.linalg.norm(f @ f.conj().T - n * np.eye(n)) < 1e-10

    def test_size_error(self):
        with pytest.raises(ParameterError, match="matrix size must be >= 1"):
            build_fourier_matrix(0)


class TestCproductMatrix:
    def test_n1(self):
        np.testing.assert_allclose(build_cproduct_matrix(1), [[1.0]])

    def test_n2(self):
        np.testing.assert_allclose(build_cproduct_matrix(2), [[1, 2], [1, 0]], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_inverse_formula(self, n):
        m = build_cproduct_matrix(n)
        m_inv = make_spec("cprod", (1, 1, n)).mode_inverse(3)
        assert np.linalg.norm(m @ m_inv - np.eye(n)) < 1e-12


class TestApplyL:
    @pytest.mark.parametrize("kind", ["cprod", "explicit"])
    @pytest.mark.parametrize("dtype", [np.int64, bool, np.float32])
    def test_no_transformed_modes_work_in_double(self, kind, dtype):
        # returned int64, bool and float32 unchanged, where fft and dct promote to float64
        x = (np.arange(24).reshape(2, 3, 4) % 3).astype(dtype)
        spec = make_spec(kind, x.shape, modes=(), matrices={} if kind == "explicit" else None)
        for out in (apply_l(x, spec), apply_l_inv(x, spec)):
            assert out.dtype == np.float64
            np.testing.assert_array_equal(out, x.astype(np.float64))

    def test_zeros(self):
        spec = make_spec("dct", (2, 2, 3))
        assert fro_norm(apply_l(np.zeros((2, 2, 3)), spec)) == 0.0

    def test_cproduct_tube(self):
        spec = make_spec("cprod", (1, 1, 2))
        tube = np.array([1.0, 2.0]).reshape(1, 1, 2)
        np.testing.assert_allclose(apply_l(tube, spec).ravel(), [5.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("kind", ["fft", "dct", "cprod"])
    def test_roundtrip_fourth_order(self, kind, rng):
        x = rng.standard_normal((3, 2, 4, 3))
        spec = make_spec(kind, x.shape)
        back = apply_l_inv(apply_l(x, spec), spec, assume_real=True)
        np.testing.assert_allclose(back, x, rtol=1e-10, atol=1e-12)

    def test_dct_roundtrip_complex(self, rng):
        x = rng.standard_normal((8, 9, 5)) + 1j * rng.standard_normal((8, 9, 5))
        spec = make_spec("dct", x.shape)
        np.testing.assert_allclose(apply_l_inv(apply_l(x, spec), spec), x, rtol=1e-12, atol=1e-12)
        # the inverse acts on real and imaginary parts alike
        split = apply_l_inv(x.real, spec) + 1j * apply_l_inv(x.imag, spec)
        np.testing.assert_allclose(apply_l_inv(x, spec), split, rtol=1e-14, atol=1e-14)

    def test_inverse_fourier_constant_tube(self):
        spec = make_spec("fft", (1, 1, 6))
        out = apply_l_inv(np.ones((1, 1, 6), dtype=complex), spec, assume_real=True)
        expected = np.zeros(6)
        expected[0] = 1.0
        np.testing.assert_allclose(out.ravel(), expected, atol=1e-12)

    def test_inverse_cproduct_tube(self):
        spec = make_spec("cprod", (1, 1, 2))
        out = apply_l_inv(np.array([5.0, 1.0]).reshape(1, 1, 2), spec)
        np.testing.assert_allclose(out.ravel(), [1.0, 2.0], atol=1e-12)

    def test_shape_mismatch(self):
        spec = make_spec("fft", (2, 2, 3))
        with pytest.raises(TransformError):
            apply_l(np.ones((2, 2, 4)), spec)

    # The residual rule is the same under every kind, and only public calls reach
    # it, so these tests run it under fft and dct.
    def test_imaginary_residual_error(self):
        bad = np.array([1.0 + 2j, 0.5, 0.25]).reshape(1, 1, 3)  # not the image of a real tube
        for kind in ("fft", "dct"):
            with pytest.raises(NumericConsistencyError):
                apply_l_inv(bad, make_spec(kind, bad.shape), assume_real=True)

    # the squares of 1e200 overflowed to inf and the residual was dropped unchecked;
    # at 1.5e308 both norms overflowed, and the refusal read "imaginary residual nan"
    @pytest.mark.parametrize("kind", ["fft", "dct"])
    @pytest.mark.parametrize(
        "bad",
        [np.full((2, 2, 3), 1e200 * (1 + 1j)), np.full((2, 2, 1), 1.5e308 * (1 + 1j))],
        ids=["squares-overflow", "norms-overflow"],
    )
    def test_imaginary_residual_error_when_the_norms_overflow(self, bad, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericConsistencyError, match="imaginary residual 7.071e-01"):
                apply_l_inv(bad, make_spec(kind, bad.shape), assume_real=True)
            assert apply_l_inv(bad.real + 0j, make_spec(kind, bad.shape), assume_real=True).dtype == float

    @pytest.mark.parametrize("scale", [1.0, 1e-300])
    def test_imaginary_residual_error_when_the_squares_underflow_or_not(self, scale):
        for kind in ("fft", "dct"):
            spec = make_spec(kind, (2, 2, 3))
            with pytest.raises(NumericConsistencyError, match="imaginary residual 1.000e-07"):
                apply_l_inv(np.full((2, 2, 3), scale * (1 + 1e-7j)), spec, assume_real=True)
            assert apply_l_inv(np.full((2, 2, 3), scale * (1 + 1e-11j)), spec, assume_real=True).dtype == float

    @pytest.mark.parametrize("kind", ["fft", "dct"])
    def test_fast_matches_explicit(self, kind, rng):
        # dct runs on its own matrices, so an explicit spec built from them would check nothing
        for _ in range(5):
            shape = random_shape(rng)
            x = rng.standard_normal(shape)
            spec = make_spec(kind, shape)
            fast = apply_l(x, spec)
            if kind == "dct":
                slow = scipy.fft.dctn(x, type=2, norm="ortho", axes=[m - 1 for m in spec.modes])
            else:
                matrices = {m: spec.mode_matrix(m) for m in spec.modes}
                slow = apply_l(x, make_spec("explicit", shape, matrices=matrices))
            np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-10)

    def test_linearity(self, rng):
        shape = (2, 3, 2, 2)
        spec = make_spec("fft", shape)
        a = rng.standard_normal(shape)
        b = rng.standard_normal(shape)
        beta = 1.7
        lhs = apply_l(beta * a + b, spec)
        rhs = beta * apply_l(a, spec) + apply_l(b, spec)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "shape, modes",
        [((2, 3, 4, 1, 3), (3, 5)), ((2, 3, 4, 1, 3), (4, 5)), ((3, 2, 2, 3, 2), None), ((2, 2, 1, 3), (3,))],
    )
    def test_fast_kinds_match_their_matrices_on_mode_subsets(self, shape, modes, rng):
        # one multi-axis numpy.fft call against one tensordot per mode with the DFT matrix;
        # dct runs on its matrices and is checked against scipy in test_dct_matches_scipy_on_mode_subsets
        spec = make_spec("fft", shape, modes=modes)
        x = rng.standard_normal(shape)
        expected = x.astype(complex)
        for m in spec.modes:
            expected = np.moveaxis(np.tensordot(build_fourier_matrix(shape[m - 1]), expected, axes=(1, m - 1)), 0, m - 1)
        xhat = apply_l(x, spec)
        np.testing.assert_allclose(xhat, expected, rtol=1e-12, atol=1e-12)
        back = expected
        for m in spec.modes:
            inv = np.linalg.inv(build_fourier_matrix(shape[m - 1]))
            back = np.moveaxis(np.tensordot(inv, back, axes=(1, m - 1)), 0, m - 1)
        np.testing.assert_allclose(apply_l_inv(xhat, spec), back, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(apply_l_inv(xhat, spec, assume_real=True), x, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "shape, modes",
        [((2, 3, 4, 1, 3), (3, 5)), ((2, 3, 4, 1, 3), (4, 5)), ((3, 2, 2, 3, 2), None), ((2, 2, 1, 3), (3,))],
    )
    def test_dct_matches_scipy_on_mode_subsets(self, shape, modes, rng):
        # dct runs as one mode product per DCT-II matrix; scipy.fft's orthonormal dctn is the reference
        spec = make_spec("dct", shape, modes=modes)
        axes = [m - 1 for m in spec.modes]
        x = rng.standard_normal(shape)
        xhat = apply_l(x, spec)
        np.testing.assert_allclose(xhat, scipy.fft.dctn(x, type=2, norm="ortho", axes=axes), rtol=1e-12, atol=1e-12)
        y = rng.standard_normal(shape)
        expected = scipy.fft.idctn(y, type=2, norm="ortho", axes=axes)
        np.testing.assert_allclose(apply_l_inv(y, spec), expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(apply_l_inv(xhat, spec, assume_real=True), x, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", ["fft", "dct", "cprod", "explicit"])
    def test_rep_stack_of_the_transform_is_a_free_view(self, kind, rng):
        shape = (3, 4, 2, 3)
        spec = _spec_of_kind(kind, shape, rng)
        x = rng.standard_normal(shape)
        for out in (apply_l(x, spec), apply_l_inv(x, spec), apply_l_inv(apply_l(x, spec), spec, assume_real=True)):
            stack = as_rep_stack(out)
            assert stack.flags.c_contiguous and np.shares_memory(stack, out)

    @pytest.mark.parametrize("kind", ["fft", "dct", "cprod", "explicit"])
    @pytest.mark.parametrize("assume_real", [False, True])
    def test_apply_l_inv_leaves_its_input(self, kind, assume_real, rng):
        shape = (3, 4, 2, 3)
        spec = _spec_of_kind(kind, shape, rng)
        xhat = apply_l(rng.standard_normal(shape), spec)  # in rep order: read without a copy
        kept = xhat.copy()
        out = apply_l_inv(xhat, spec, assume_real=assume_real and kind != "explicit")
        np.testing.assert_array_equal(xhat, kept)
        # handing the input over gives the same result
        owned = apply_l_inv(xhat, spec, assume_real=assume_real and kind != "explicit", overwrite=True)
        np.testing.assert_array_equal(owned, out)

    @pytest.mark.parametrize("kind", ["fft", "dct", "cprod", "explicit"])
    def test_matrix_kinds_write_the_last_product_into_a_handed_over_input(self, kind, rng):
        # fft transforms in place, the matrix kinds write their last product there: a fresh
        # result per inverse made a dct solve take 5x the page faults
        shape = (3, 4, 2, 3)
        spec = _spec_of_kind(kind, shape, rng)
        xhat = apply_l(rng.standard_normal(shape), spec)
        expected = apply_l_inv(xhat, spec)
        owned = apply_l_inv(xhat, spec, overwrite=True)
        assert np.shares_memory(owned, xhat)
        np.testing.assert_array_equal(owned, expected)

    @pytest.mark.parametrize("kind", ["fft", "dct", "cprod", "explicit"])
    def test_a_read_only_input_handed_over_is_left_alone(self, kind, rng):
        shape = (3, 4, 2, 3)
        spec = _spec_of_kind(kind, shape, rng)
        xhat = apply_l(rng.standard_normal(shape), spec)
        expected, kept = apply_l_inv(xhat, spec), xhat.copy()
        xhat.flags.writeable = False
        np.testing.assert_array_equal(apply_l_inv(xhat, spec, overwrite=True), expected)
        np.testing.assert_array_equal(xhat, kept)

    @pytest.mark.parametrize("kind", ["fft", "dct"])
    def test_single_precision_is_transformed_in_double(self, kind, rng):
        # numpy.fft keeps float32; its imaginary residual (~1e-8) would fail the 1e-9 check
        x = rng.standard_normal((3, 4, 5, 6)).astype(np.float32)
        spec = make_spec(kind, x.shape)
        xhat = apply_l(x, spec)
        assert xhat.dtype == (complex if kind == "fft" else float)
        np.testing.assert_allclose(xhat, apply_l(x.astype(float), spec), rtol=1e-14, atol=1e-13)
        back = apply_l_inv(xhat, spec, assume_real=True)
        assert back.dtype == float
        np.testing.assert_allclose(back, x, rtol=1e-12, atol=1e-12)

    def test_restricted_modes(self, rng):
        x = rng.standard_normal((2, 3, 4, 2))
        spec = make_spec("fft", x.shape, modes=(3,))
        expected = np.fft.fft(x, axis=2)
        np.testing.assert_allclose(apply_l(x, spec), expected, atol=1e-12)
        assert spec.alpha == 4.0


def _overflowing_spec(kind, shape):
    """A spec on (.., .., 2) tensors; the explicit matrix's inverse [[1, -1], [0, 1]] can overflow."""
    return make_spec(kind, shape, matrices={3: [[1.0, 1.0], [0.0, 1.0]]} if kind == "explicit" else None)


_ALL_KINDS = ["fft", "dct", "cprod", "explicit"]


@pytest.mark.filterwarnings("error")
class TestNonFinite:
    @pytest.mark.parametrize("kind", _ALL_KINDS)
    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)], ids=["nan", "inf", "-inf", "nan-imag"]
    )
    @pytest.mark.parametrize("inverse", [False, True], ids=["apply_l", "apply_l_inv"])
    def test_non_finite_input_is_refused(self, inverse, bad, kind):
        # went through every kind: fft and dct inverses returned [inf, inf, inf] for an
        # inf entry, and a NaN imaginary part was dropped by the real inverse unchecked
        a = np.ones((3, 3, 2), dtype=type(bad))
        a[1, 1, 0] = bad
        spec = _overflowing_spec(kind, a.shape)
        with pytest.raises(ParameterError, match="NaN or inf"):
            apply_l_inv(a, spec, assume_real=True) if inverse else apply_l(a, spec)

    def test_non_finite_input_is_refused_with_no_transformed_modes(self):
        # L is the identity: its copy of the input came back holding the NaN
        a = np.ones((3, 3, 2))
        a[0, 0, 1] = np.nan
        spec = make_spec("fft", a.shape, modes=())
        for transform in (apply_l, apply_l_inv):
            with pytest.raises(ParameterError, match="NaN or inf"):
                transform(a, spec)

    @pytest.mark.parametrize("kind", _ALL_KINDS)
    def test_overflowing_forward_transform_is_refused(self, kind):
        # fft and dct returned inf; the matrix kinds warned "overflow encountered in matmul".
        # The exact dct of 1.5e308 (2.1e308) is beyond the float range; the dense DCT
        # maps 1e308 to a finite 1.4e308, where pocketfft's intermediate sum overflowed.
        a = np.full((3, 3, 2), 1.5e308)
        with pytest.raises(ParameterError, match="transform-domain slices hold NaN or inf"):
            apply_l(a, _overflowing_spec(kind, a.shape))

    # cprod's inverse matrices have rows of absolute sum 1, so no finite input overflows them
    @pytest.mark.parametrize("kind", ["fft", "dct", "explicit"])
    def test_overflowing_inverse_is_refused(self, kind):
        # as going forward, the exact dct inverse of +-1.5e308 (2.1e308) is beyond the float range
        a = np.full((3, 3, 2), 1.5e308)
        a[:, :, 1] = -1.5e308
        with pytest.raises(ParameterError, match="inverse-transformed results hold NaN or inf"):
            apply_l_inv(a, _overflowing_spec(kind, a.shape))

    @pytest.mark.parametrize("kind", _ALL_KINDS)
    def test_each_transform_makes_one_finiteness_pass(self, kind, rng, monkeypatch):
        x = rng.standard_normal((3, 4, 2))
        spec = _overflowing_spec(kind, x.shape)
        passes, isfinite = [], np.isfinite

        def counting(a, *args, **kwargs):
            passes.append(np.size(a))
            return isfinite(a, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting)
        apply_l_inv(apply_l(x, spec), spec, assume_real=kind != "explicit")
        assert passes == [x.size, x.size]


def _spec_of_kind(kind, shape, rng):
    if kind != "explicit":
        return make_spec(kind, shape)
    mats = {m: rng.standard_normal((shape[m - 1],) * 2) + 3 * np.eye(shape[m - 1]) for m in range(3, len(shape) + 1)}
    return make_spec("explicit", shape, matrices=mats)


class TestNormIdentities:
    @pytest.mark.parametrize("kind", ["fft", "dct"])
    def test_norm_identity(self, kind, rng):
        for _ in range(10):
            shape = random_shape(rng)
            x = rng.standard_normal(shape)
            spec = make_spec(kind, shape)
            lhs = fro_norm(x)
            rhs = fro_norm(apply_l(x, spec)) / np.sqrt(spec.alpha)
            assert np.isclose(lhs, rhs, rtol=1e-10)

    @pytest.mark.parametrize("kind", ["fft", "dct"])
    def test_inner_product_identity(self, kind, rng):
        for _ in range(10):
            shape = random_shape(rng)
            a = rng.standard_normal(shape)
            b = rng.standard_normal(shape)
            spec = make_spec(kind, shape)
            lhs = inner_product(a, b)
            rhs = inner_product(apply_l(a, spec), apply_l(b, spec)) / spec.alpha
            assert np.isclose(lhs, np.real(rhs), rtol=1e-10, atol=1e-10)


class TestSpecConstruction:
    def test_unitary_flags(self):
        assert make_spec("fft", (2, 2, 3, 4)).unitary_scaled
        assert make_spec("dct", (2, 2, 3)).unitary_scaled
        assert not make_spec("cprod", (2, 2, 3)).unitary_scaled

    def test_cprod_alpha_comes_from_the_gram_test(self):
        assert make_spec("cprod", (2, 2, 2)).alpha is None
        assert make_spec("cprod", (2, 2, 3, 1)).alpha is None
        # size-1 modes make M = [[1]], the identity: unitary-scaled like explicit [[1.0]]
        assert make_spec("cprod", (2, 2, 1)).alpha == 1.0
        assert make_spec("explicit", (2, 2, 1), matrices={3: [[1.0]]}).alpha == 1.0

    def test_fft_alpha_is_product_of_scales(self):
        assert make_spec("fft", (2, 2, 3, 4)).alpha == 12.0
        assert make_spec("dct", (2, 2, 3, 4)).alpha == 1.0

    def test_explicit_spec_detects_unitary_scaling(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        spec = make_spec("explicit", (2, 2, 3), matrices={3: 2.0 * q})
        assert spec.unitary_scaled
        assert np.isclose(spec.alpha, 4.0)
        general = make_spec("explicit", (2, 2, 3), matrices={3: np.eye(3) + np.diag([0.5, 0.5], 1)})
        assert not general.unitary_scaled

    def test_explicit_specs_compare_their_matrices(self):
        eye = make_spec("explicit", (2, 2, 3), matrices={3: np.eye(3)})
        double = make_spec("explicit", (2, 2, 3), matrices={3: 2.0 * np.eye(3)})
        assert (eye.alpha, double.alpha) == (1.0, 4.0)
        assert eye != double
        assert eye == make_spec("explicit", (2, 2, 3), matrices={3: np.eye(3)})
        assert make_spec("dct", (2, 2, 3)) == make_spec("dct", (2, 2, 3))

    @pytest.mark.parametrize("kind", ["fft", "dct", "cprod", "explicit"])
    def test_matrices_and_inverses_are_read_only(self, kind, rng):
        # += 5 on an explicit matrix left the cached inverse stale: round trips off by 6.1
        x = rng.standard_normal((2, 3, 4, 3))
        matrices = {3: 2.0 * np.eye(4), 4: np.eye(3) + np.diag([0.5, 0.5], 1)} if kind == "explicit" else None
        spec = make_spec(kind, x.shape, matrices=matrices)
        before = apply_l_inv(apply_l(x, spec), spec)
        for mode in spec.modes:
            for mat in (spec.mode_matrix(mode), spec.mode_inverse(mode)):
                with pytest.raises(ValueError, match="read-only"):
                    mat[0, 0] += 5
        np.testing.assert_array_equal(apply_l_inv(apply_l(x, spec), spec), before)

    @pytest.mark.parametrize(
        "field, value", [("kind", "dct"), ("modes", (4,)), ("sizes", (5,)), ("alpha", None)]
    )
    def test_fields_cannot_be_reassigned(self, field, value):
        # __hash__ reads these fields, and reassigning them changed what the spec meant
        spec = make_spec("fft", (2, 2, 3, 5), modes=(3,))
        with pytest.raises(AttributeError):
            setattr(spec, field, value)
        assert (spec.kind, spec.modes, spec.sizes, spec.alpha) == ("fft", (3,), (3,), 3.0)

    def test_explicit_spec_keeps_its_matrix(self):
        mat = np.eye(3) + np.diag([0.5, 0.5], 1)
        spec = make_spec("explicit", (2, 2, 3), matrices={3: mat})
        mat[0, 0] = 7.0  # the spec keeps a copy, so its cached inverse still matches
        assert spec.mode_matrix(3)[0, 0] == 1.0

    @pytest.mark.parametrize("kind", ["explicit", "cprod"])
    def test_mode_inverse_is_computed_once(self, kind, rng):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        matrices = {3: q, 4: np.eye(3) + np.diag([0.5, 0.5], 1)} if kind == "explicit" else None
        spec = make_spec(kind, (2, 2, 4, 3), matrices=matrices)
        for mode in spec.modes:
            inv = spec.mode_inverse(mode)
            assert spec.mode_inverse(mode) is inv
            np.testing.assert_allclose(spec.mode_matrix(mode) @ inv, np.eye(inv.shape[0]), atol=1e-12)

    def test_unitary_scaled_follows_alpha(self):
        general = make_spec("explicit", (2, 2, 3), matrices={3: np.eye(3) + np.diag([0.5, 0.5], 1)})
        assert general.alpha is None and not general.unitary_scaled
        with pytest.raises(AttributeError):
            general.unitary_scaled = True

    def test_explicit_requires_invertible(self):
        with pytest.raises(TransformError):
            make_spec("explicit", (2, 2, 2), matrices={3: np.ones((2, 2))})

    def test_unknown_kind(self):
        with pytest.raises(TransformError):
            make_spec("wavelet", (2, 2, 2))

    @pytest.mark.parametrize(
        "kind, shape, modes, matrices, message",
        [
            ("fft", (2, 2), None, None, "order >= 3"),
            ("fft", (2, 2, 3), (2,), None, r"mode 2 out of range \[3, 3\]"),
            ("dct", (2, 2, 3), (4,), None, r"mode 4 out of range \[3, 3\]"),
            ("explicit", (2, 2, 3), None, None, "requires per-mode matrices"),
            ("explicit", (2, 2, 3, 2), None, {3: np.eye(3)}, r"modes \[3\], expected \(3, 4\)"),
            ("explicit", (2, 2, 3), None, {3: np.eye(2)}, r"shape \(2, 2\), expected \(3, 3\)"),
            # matrices= was ignored: cprod built the cosine-product matrix anyway
            ("fft", (2, 2, 3), None, {3: np.eye(3)}, "only for kind 'explicit'"),
            ("dct", (2, 2, 3), None, {3: np.eye(3)}, "only for kind 'explicit'"),
            ("cprod", (2, 2, 3), None, {3: np.eye(3)}, "only for kind 'explicit'"),
            ("fft", (2, 2, 0), None, None, "transformed mode 3 has size 0"),
            ("cprod", (2, 2, 3, 0), (4,), None, "transformed mode 4 has size 0"),
            # these three leaked TypeError from iterating the container
            ("fft", (4, 5, 3), 3, None, "modes must be a sequence of integers"),
            ("explicit", (4, 5, 3), None, [np.eye(3)], "per-mode matrices as a dict, got list"),
            ("explicit", (4, 5, 3), None, 3, "per-mode matrices as a dict, got int"),
        ],
    )
    def test_make_spec_rejects(self, kind, shape, modes, matrices, message):
        with pytest.raises(TransformError, match=message):
            make_spec(kind, shape, modes=modes, matrices=matrices)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "kind, shape, matrices, message",
        [
            # accepted: NaN >= tol is False, and every later op blamed its input for the NaN slices
            ("explicit", (2, 2, 2), {3: [[np.nan, 0.0], [0.0, 1.0]]}, "must hold finite numbers"),
            # accepted with numpy RuntimeWarnings
            ("explicit", (2, 2, 2), {3: [[np.inf, 0.0], [0.0, 1.0]]}, "must hold finite numbers"),
            # escaped as numpy UFuncTypeError
            ("explicit", (2, 2, 2), {3: [["1", "0"], ["0", "1"]]}, "must hold finite numbers"),
            # finite, but its inverse overflows and the residual is NaN: accepted with a RuntimeWarning
            ("explicit", (2, 2, 2), {3: [[1e-320, 0.0], [0.0, 1.0]]}, "not invertible to working precision"),
            # gave alpha == -3.0
            ("fft", (2, 2, -3), None, "dims >= 0"),
        ],
    )
    def test_make_spec_rejects_unusable_specs(self, kind, shape, matrices, message):
        with pytest.raises(TransformError, match=message):
            make_spec(kind, shape, matrices=matrices)

    @pytest.mark.parametrize("kind", ["fft", "dct", "cprod", "explicit"])
    def test_make_spec_rejects_a_mode_given_twice(self, kind):
        # mode 3 was transformed twice: fft alpha 9.0, explicit 2I alpha 16.0
        with pytest.raises(TransformError, match="mode 3 is given more than once"):
            make_spec(kind, (2, 2, 3, 4), modes=(3, 3), matrices={3: 2 * np.eye(3)})

    def test_mode_matrix_of_an_untransformed_mode(self):
        for kind in ("fft", "dct", "cprod", "explicit"):
            spec = make_spec(kind, (2, 2, 3, 4), modes=(3,), matrices={3: np.eye(3)} if kind == "explicit" else None)
            for get in (spec.mode_matrix, spec.mode_inverse):
                with pytest.raises(TransformError, match="mode 4 is not transformed"):
                    get(4)

    @pytest.mark.parametrize("kind", ["fft", "dct", "cprod", "explicit"])
    def test_alpha_is_a_float_with_no_transformed_modes(self, kind):
        # the matrix kinds gave the int math.prod([]) == 1
        spec = make_spec(kind, (2, 2, 3), modes=(), matrices={} if kind == "explicit" else None)
        assert spec.alpha == 1.0 and type(spec.alpha) is float

    def test_spec_differing_in_kind_modes_or_sizes_is_unequal(self):
        spec = make_spec("fft", (2, 2, 3, 4))
        assert spec != make_spec("dct", (2, 2, 3, 4))
        assert spec != make_spec("fft", (2, 2, 3, 4), modes=(3,))
        assert spec != make_spec("fft", (2, 2, 3, 5))
        assert spec.__eq__("fft") is NotImplemented and spec != "fft"

    def test_fast_kinds_compute_their_mode_inverse(self):
        spec = make_spec("fft", (2, 2, 3))
        np.testing.assert_allclose(spec.mode_inverse(3), build_fourier_matrix(3).conj() / 3, atol=1e-15)
        # both were cached into the frozen spec on first use; it still equals a fresh spec
        assert spec.mode_matrix(3) is not spec.mode_matrix(3) and spec == make_spec("fft", (2, 2, 3))

    def test_make_spec_rejects_a_ragged_matrix(self):
        # escaped as numpy ValueError ("inhomogeneous shape")
        with pytest.raises(TransformError, match="rectangular"):
            make_spec("explicit", (2, 2, 2), matrices={3: [[1, 0], [0]]})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "shape, matrices",
        [
            # warned "overflow encountered in dot" from the Gram test
            ((2, 2, 2), {3: 1e200 * np.eye(2)}),
            # gave alpha == 0.0, and nuclear_norm divided by it
            ((2, 2, 2), {3: 1e-200 * np.eye(2)}),
            # two finite scales of 1e200: warned "overflow encountered in reduce"
            ((2, 2, 2, 2), {3: 1e100 * np.eye(2), 4: 1e100 * np.eye(2)}),
        ],
        ids=["gram-overflows", "gram-underflows", "alpha-overflows"],
    )
    def test_alpha_is_none_unless_a_finite_positive_float(self, shape, matrices):
        spec = make_spec("explicit", shape, matrices=matrices)
        assert spec.alpha is None and not spec.unitary_scaled

    def test_make_spec_takes_integer_sizes_and_modes_only(self):
        # int() truncated each of these: sizes (2,), sizes (3,), mode 3, matrices for mode 3 (twice)
        for shape, modes, matrices, message in [
            ((2, 2, 2.5), None, None, "integer dims >= 0"),
            ((2, 2, 3.0), None, None, "integer dims >= 0"),
            ((True, 2, 3), None, None, "integer dims >= 0"),  # read as (1, 2, 3)
            ((2, 2, 3, 4), [3.7], None, r"mode 3.7 out of range \[3, 4\] \(an integer\)"),
            ((2, 2, 2), None, {3.7: np.eye(2)}, r"matrices given for modes \[3.7\]"),
            ((2, 2, 2), None, {3.0: np.eye(2)}, r"matrices given for modes \[3.0\]"),
        ]:
            with pytest.raises(TransformError, match=message):
                make_spec("fft" if matrices is None else "explicit", shape, modes=modes, matrices=matrices)
        # numpy integers are integers, and the spec holds them as Python ints
        spec = make_spec("fft", (np.int64(2), 2, np.int32(3), 4), modes=[np.int64(4)])
        assert spec == make_spec("fft", (2, 2, 3, 4), modes=(4,))
        assert type(spec.modes[0]) is int and type(spec.sizes[0]) is int
        eye = make_spec("explicit", (2, 2, 2), matrices={np.int64(3): np.eye(2)})
        assert eye.alpha == 1.0 and eye == make_spec("explicit", (2, 2, 2), matrices={3: np.eye(2)})

    def test_equal_specs_hash_equal(self):
        a, b = make_spec("dct", (2, 2, 3, 4)), make_spec("dct", (5, 1, 3, 4))
        assert a == b and hash(a) == hash(b)
        cache = {a: "plan"}
        assert cache[b] == "plan" and make_spec("fft", (2, 2, 3, 4)) not in cache
        eye = make_spec("explicit", (2, 2, 3), matrices={3: np.eye(3)})
        assert hash(eye) == hash(make_spec("explicit", (2, 2, 3), matrices={3: np.eye(3)}))

    def test_mode_matrix_mode_product_agreement(self, rng):
        x = rng.standard_normal((2, 2, 3, 2))
        spec = make_spec("cprod", x.shape)
        manual = x
        for mode in spec.modes:
            manual = mode_n_product(manual, spec.mode_matrix(mode), mode)
        np.testing.assert_allclose(apply_l(x, spec), manual, atol=1e-12)
