import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltensor.core import (
    as_rep_stack,
    facewise_product,
    from_rep_stack,
    fro_norm,
    inner_product,
    mode_n_fold,
    mode_n_product,
    mode_n_unfold,
    num_rep,
    rep_block,
    rep_index_to_multi,
    rep_matrix,
)
from ltensor.errors import ModeError, ParameterError, ShapeError

from conftest import random_shape


def seq_tensor(shape):
    """Entries 1..prod(shape) laid out column-major."""
    n = int(np.prod(shape))
    return np.arange(1.0, n + 1.0).reshape(shape, order="F")


class TestInnerProduct:
    def test_all_ones(self):
        a = np.ones((2, 2, 2))
        assert inner_product(a, a) == 8.0

    def test_entries_1_to_8(self):
        x = seq_tensor((2, 2, 2))
        # independent oracle: direct summation of k^2
        assert inner_product(x, x) == sum(k**2 for k in range(1, 9)) == 204

    def test_bool_and_small_integer_entries_are_counted(self):
        # np.vdot ORs the ANDs of bools (1.0) and sums int8 products in int8 (-56)
        ones = np.ones((2, 2, 2), bool)
        assert inner_product(ones, ones) == 8.0
        assert inner_product(ones, np.full((2, 2, 2), 2)) == 16.0
        big = np.ones((5, 5, 8), np.int8)
        assert inner_product(big, big) == 200.0

    def test_zero_annihilator(self, rng):
        b = rng.standard_normal((3, 2, 4))
        assert inner_product(np.zeros((3, 2, 4)), b) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            inner_product(np.ones((2, 2, 2)), np.ones((2, 2, 3)))

    def test_sesquilinear_complex(self, rng):
        a = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
        b = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
        c = 0.7 - 0.2j
        assert np.isclose(inner_product(c * a, b), np.conj(c) * inner_product(a, b))
        assert np.isclose(inner_product(a, c * b), c * inner_product(a, b))
        assert np.isclose(inner_product(a, a), fro_norm(a) ** 2)


class TestFroNorm:
    def test_zeros(self):
        assert fro_norm(np.zeros((2, 3, 4))) == 0.0

    def test_all_ones(self):
        assert np.isclose(fro_norm(np.ones((2, 2, 2))), 2 * np.sqrt(2))

    def test_matches_inner_product(self, rng):
        for _ in range(20):
            x = np.random.default_rng(_).standard_normal(random_shape(rng))
            assert np.isclose(fro_norm(x) ** 2, inner_product(x, x), rtol=1e-12)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_squares_that_overflow(self, rng, dtype):
        # np.linalg.norm of 1e200 entries overflowed to inf with a numpy warning
        x = rng.standard_normal((3, 3, 2)).astype(dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isclose(fro_norm(1e200 * x), 1e200 * fro_norm(x), rtol=1e-14)
            assert fro_norm(np.full(4, 1e308)) == np.inf  # the norm itself is out of range
            assert fro_norm(np.array([1e200, np.inf])) == np.inf
            assert np.isnan(fro_norm(np.array([1e200, np.nan])))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_squares_that_underflow(self, rng, dtype):
        # np.linalg.norm of 1e-200 entries underflowed to 0.0, so rse saw a zero denominator
        x = rng.standard_normal((3, 3, 2)).astype(dtype)
        assert np.isclose(fro_norm(1e-200 * x), 1e-200 * fro_norm(x), rtol=1e-14, atol=0.0)
        assert fro_norm(np.zeros(0)) == 0.0

    def test_any_memory_order(self, rng):
        x = rng.standard_normal((3, 4, 2, 2))
        for view in (np.asfortranarray(x), from_rep_stack(as_rep_stack(x), x.shape[2:]), x[:, ::2]):
            assert np.isclose(fro_norm(view), np.linalg.norm(np.ravel(view)), rtol=1e-14)


class TestUnfold:
    def test_mode1_sequential(self):
        x = seq_tensor((2, 2, 2))
        expected = np.array([[1, 3, 5, 7], [2, 4, 6, 8]], dtype=float)
        np.testing.assert_array_equal(mode_n_unfold(x, 1), expected)

    def test_scalar_tensor_mode3(self):
        x = seq_tensor((1, 1, 5))
        np.testing.assert_array_equal(mode_n_unfold(x, 3), np.arange(1.0, 6.0).reshape(5, 1))

    def test_mode_out_of_range(self):
        for n in (4, 2.0):  # 2.0 escaped as TypeError
            with pytest.raises(ModeError, match=f"mode {n} out of range"):
                mode_n_unfold(np.ones((2, 2, 2)), n)

    @pytest.mark.parametrize("n", [0, 4, 2.0])
    def test_fold_mode_out_of_range(self, n):
        with pytest.raises(ModeError, match=r"out of range \[1, 3\]"):
            mode_n_fold(np.ones((2, 4)), n, (2, 2, 2))

    @pytest.mark.parametrize("dims", [(2, 2.7, 2), (2, True, 2), (2, -1, 2), (2, "2", 2)])
    def test_fold_refuses_dims_that_are_not_counts(self, dims):
        # int(d) folded (2, 2.7, 2) into a (2, 2, 2) tensor
        with pytest.raises(ParameterError, match="dims must be integers >= 0"):
            mode_n_fold(np.ones((2, 4)), 1, dims)

    @pytest.mark.parametrize("n, shape", [(1, (0, 6)), (2, (3, 0)), (3, (2, 0))])
    def test_unfold_of_a_zero_size_dim(self, n, shape):
        # reshape(..., -1) raised numpy ValueError on the zero-size first dim
        x = np.ones((0, 3, 2))
        assert mode_n_unfold(x, n).shape == shape
        assert mode_n_fold(mode_n_unfold(x, n), n, x.shape).shape == x.shape

    def test_fold_shape_mismatch(self):
        with pytest.raises(ShapeError, match=r"unfolded shape \(2, 3\) does not match"):
            mode_n_fold(np.ones((2, 3)), 1, (2, 2, 2))

    @given(st.integers(0, 10_000), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_fold_roundtrip(self, seed, mode_pick):
        r = np.random.default_rng(seed)
        shape = random_shape(r)
        n = 1 + mode_pick % len(shape)
        x = r.standard_normal(shape)
        np.testing.assert_array_equal(mode_n_fold(mode_n_unfold(x, n), n, shape), x)


class TestModeNProduct:
    @pytest.mark.parametrize("u", [np.ones((2, 3, 1)), np.ones((1, 3, 2))])
    def test_matrix_of_order_above_two(self, u):
        # numpy's matmul ValueError escaped
        with pytest.raises(ShapeError, match="cannot act on mode"):
            mode_n_product(np.ones((3, 2, 2)), u, 1)

    def test_overflow_gives_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = mode_n_product(np.full((3, 2, 2), 1e308), np.ones((2, 3)), 1)
        assert np.isposinf(out).all()

    def test_identity(self, rng):
        x = rng.standard_normal((3, 2, 4))
        np.testing.assert_allclose(mode_n_product(x, np.eye(4), 3), x, atol=1e-15)

    def test_tube_example(self):
        tube = np.array([1.0, 2.0]).reshape(1, 1, 2)
        out = mode_n_product(tube, np.array([[1.0, 2.0], [1.0, 0.0]]), 3)
        np.testing.assert_allclose(out.ravel(), [5.0, 1.0])

    def test_commutes_across_modes(self, rng):
        x = rng.standard_normal((2, 3, 4, 2))
        m = rng.standard_normal((4, 4))
        v = rng.standard_normal((2, 2))
        a = mode_n_product(mode_n_product(x, m, 3), v, 4)
        b = mode_n_product(mode_n_product(x, v, 4), m, 3)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_matches_unfolded_definition(self, rng):
        for _ in range(10):
            shape = random_shape(rng)
            n = int(rng.integers(1, len(shape) + 1))
            j = int(rng.integers(1, 5))
            x = rng.standard_normal(shape)
            u = rng.standard_normal((j, shape[n - 1]))
            out = mode_n_product(x, u, n)
            np.testing.assert_allclose(mode_n_unfold(out, n), u @ mode_n_unfold(x, n), atol=1e-12)

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            mode_n_product(np.ones((2, 2, 3)), np.ones((2, 2)), 3)

    @pytest.mark.parametrize("n", [0, 4, 2.0, True])
    def test_mode_out_of_range(self, n):
        with pytest.raises(ModeError, match=r"out of range \[1, 3\]"):
            mode_n_product(np.ones((2, 2, 2)), np.eye(2), n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_out_receives_the_product(self, n, rng):
        x = rng.standard_normal((3, 2, 4))
        u = rng.standard_normal((5, x.shape[n - 1]))
        expected = mode_n_product(x, u, n)
        out = np.empty(expected.shape)
        assert mode_n_product(x, u, n, out=out) is out
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("out", [np.empty((3, 2, 5)), np.empty((3, 2, 4), order="F")], ids=["shape", "order"])
    def test_out_must_be_c_contiguous_of_the_result_shape(self, out, rng):
        with pytest.raises(ShapeError, match="out must be"):
            mode_n_product(np.ones((3, 2, 4)), np.eye(4), 3, out=out)

    @pytest.mark.parametrize("shape", [(3, 2, 4, 2), (1, 4, 1, 3), (2, 0, 3, 2), (3, 2, 0)])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_tensordot_on_every_mode(self, shape, kind, rng):
        x = np.asfortranarray(rng.standard_normal(shape))  # not C-contiguous: the reshape copies
        for n in range(1, len(shape) + 1):
            for rows in (1, shape[n - 1], 5):  # rectangular and square u
                u = rng.standard_normal((rows, shape[n - 1]))
                if kind == "complex":
                    u = u + 1j * rng.standard_normal(u.shape)
                expected = np.moveaxis(np.tensordot(u, x, axes=(1, n - 1)), 0, n - 1)
                out = mode_n_product(x, u, n)
                assert out.shape == expected.shape and out.dtype == expected.dtype
                np.testing.assert_allclose(out, expected, rtol=1e-13, atol=1e-13)


class TestRepMatrix:
    def test_third_order_frontal_slice(self, rng):
        x = rng.standard_normal((3, 2, 4))
        for p in range(1, 5):
            np.testing.assert_array_equal(rep_matrix(x, p), x[:, :, p - 1])

    def test_fourth_order_p3(self):
        x = seq_tensor((2, 2, 2, 2))
        # p = k3 + (k4-1) * I3 -> p=3 is (k3, k4) = (1, 2)
        np.testing.assert_array_equal(rep_matrix(x, 3), x[:, :, 0, 1])

    def test_scalar_tensor_slice_is_scalar(self):
        x = seq_tensor((1, 1, 3))
        assert rep_matrix(x, 2).shape == (1, 1)
        assert rep_matrix(x, 2)[0, 0] == 2.0

    @pytest.mark.parametrize(
        "dims, expected", [((3, 4), 1), ((3,), 1), ((2, 2, 3), 3), ((2, 2, 3, 2, 2), 12), ((2, 2, 0, 4), 0)]
    )
    def test_num_rep(self, dims, expected):
        for given_dims in (dims, np.array(dims, dtype=np.int64)):
            out = num_rep(given_dims)
            assert out == expected and type(out) is int

    @pytest.mark.parametrize("dims", [(2, 2, 2.5), (2, 2, True), (2, 2, -1), (2, 2, "3"), (2, 2, None)])
    def test_num_rep_refuses_trailing_dims_that_are_not_counts(self, dims):
        # (2, 2, 2.5) gave 2, and (2, 2, "3") gave 3
        with pytest.raises(ParameterError, match="trailing dims must be integers >= 0"):
            num_rep(dims)

    def test_index_bijection_exhaustive(self):
        dims = (2, 2, 3, 2, 2)
        P = num_rep(dims)
        seen = set()
        for p in range(1, P + 1):
            multi = rep_index_to_multi(p, dims)
            # the module docstring's p = k_3 + sum_{i>=4} (k_i - 1) * I_3*...*I_{i-1}
            stride, q = 1, 1
            for k, d in zip(multi, dims[2:]):
                q += (k - 1) * stride
                stride *= d
            assert q == p
            seen.add(multi)
        assert len(seen) == P

    def test_out_of_range(self):
        for p in (3, 1.5):  # 1.5 escaped as TypeError
            with pytest.raises(ModeError, match=f"representative index {p} out of range"):
                rep_matrix(np.ones((2, 2, 2)), p)

    def test_reassembly(self, rng):
        x = rng.standard_normal((2, 3, 2, 2))
        rebuilt = np.empty_like(x)
        for p in range(1, num_rep(x.shape) + 1):
            multi = rep_index_to_multi(p, x.shape)
            rebuilt[(slice(None), slice(None)) + tuple(k - 1 for k in multi)] = rep_matrix(x, p)
        np.testing.assert_array_equal(rebuilt, x)


    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 4), (2, 3, 4, 1, 3)])
    def test_rep_stack_is_c_contiguous_and_free_in_rep_order(self, shape, rng):
        x = rng.standard_normal(shape)
        stack = as_rep_stack(x)
        assert stack.flags.c_contiguous
        for p in range(1, num_rep(shape) + 1):
            np.testing.assert_array_equal(stack[p - 1], rep_matrix(x, p))
        tensor = from_rep_stack(stack, shape[2:])
        np.testing.assert_array_equal(tensor, x)
        assert np.shares_memory(tensor, stack)
        again = as_rep_stack(tensor)  # a tensor in rep order goes back without a copy
        assert again.flags.c_contiguous and np.shares_memory(again, stack)

    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 4), (2, 3, 4, 1, 3)])
    def test_rep_block_is_the_view_behind_the_rep_stack(self, shape, rng):
        x = rng.standard_normal(shape)
        block = rep_block(x)
        n = x.ndim
        assert np.shares_memory(block, x) and block.shape == shape[:1:-1] + shape[:2]
        for m in range(3, n + 1):  # mode m is axis N - m
            assert block.shape[n - m] == shape[m - 1]
        np.testing.assert_array_equal(block.reshape(as_rep_stack(x).shape), as_rep_stack(x))
        assert rep_block(from_rep_stack(as_rep_stack(x), shape[2:])).flags.c_contiguous

    @pytest.mark.parametrize("x", [np.float64(1.0), np.ones(3)], ids=["order-0", "order-1"])
    def test_order_below_two_is_refused(self, x):
        with pytest.raises(ShapeError, match="tensor order must be >= 2"):
            as_rep_stack(x)

    def test_from_rep_stack_checks_the_slice_count(self):
        with pytest.raises(ShapeError, match=r"stack holds 3 slices, trailing dims \(2, 2\) need 4"):
            from_rep_stack(np.ones((3, 2, 2)), (2, 2))

    @pytest.mark.parametrize("shape", [(0, 3, 2), (3, 0, 2, 2), (3, 3, 0)])
    def test_zero_size_stack_round_trip(self, shape):
        # reshaping to -1 slices raised "cannot reshape array of size 0"
        stack = as_rep_stack(np.ones(shape))
        assert stack.shape == (num_rep(shape),) + shape[:2]
        assert from_rep_stack(stack, shape[2:]).shape == shape


class TestFacewiseProduct:
    def test_identity_slices(self, rng):
        a = rng.standard_normal((3, 2, 2, 2))
        b = np.zeros((2, 2, 2, 2))
        b[0, 0] = b[1, 1] = 1.0
        np.testing.assert_allclose(facewise_product(a, b), a, atol=1e-15)

    def test_tubes(self):
        a = np.array([5.0, 1.0]).reshape(1, 1, 2)
        b = np.array([11.0, 3.0]).reshape(1, 1, 2)
        np.testing.assert_allclose(facewise_product(a, b).ravel(), [55.0, 3.0])

    def test_zeros(self, rng):
        b = rng.standard_normal((2, 3, 4))
        assert fro_norm(facewise_product(np.zeros((3, 2, 4)), b)) == 0.0

    def test_slicewise_agreement(self, rng):
        a = rng.standard_normal((3, 2, 2, 3))
        b = rng.standard_normal((2, 4, 2, 3))
        c = facewise_product(a, b)
        for p in range(1, num_rep(a.shape) + 1):
            np.testing.assert_allclose(rep_matrix(c, p), rep_matrix(a, p) @ rep_matrix(b, p), atol=1e-13)

    @pytest.mark.parametrize("fill", [1e200, np.nan])
    def test_non_finite_result_is_refused(self, fill):
        # 1e200 slices warned "overflow encountered in matmul" and returned inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="facewise product holds NaN or inf"):
                facewise_product(np.full((2, 2, 2), fill), np.full((2, 2, 2), fill))

    def test_mismatches(self):
        with pytest.raises(ShapeError):
            facewise_product(np.ones((2, 3, 2)), np.ones((2, 2, 2)))
        with pytest.raises(ShapeError):
            facewise_product(np.ones((2, 3, 2)), np.ones((3, 2, 3)))


class TestReader:
    @pytest.mark.parametrize(
        "operand, message",
        [
            ([[1.0, 2.0], [3.0]], "ragged sequence"),
            (np.full((2, 2, 2), "a"), "got dtype <U1"),
            (np.ones((2, 2, 2), dtype=object), "got dtype object"),
            (None, "got dtype object"),
        ],
        ids=["ragged", "str", "object", "None"],
    )
    @pytest.mark.parametrize("fn", [fro_norm, lambda x: inner_product(x, x), lambda x: mode_n_unfold(x, 1),
                                    lambda x: mode_n_product(np.ones((2, 2, 2)), x, 1)],
                             ids=["fro_norm", "inner_product", "mode_n_unfold", "mode_n_product-matrix"])
    def test_ragged_or_non_numeric_operand(self, fn, operand, message):
        with pytest.raises(ParameterError, match=message):
            fn(operand)


class TestPackage:
    def test_exports_only_functions_and_classes(self):
        # __all__ held the submodules too, so a star import rebound the standard library's io
        import inspect
        import io

        import ltensor

        exported = [getattr(ltensor, name) for name in ltensor.__all__]
        assert exported and all(inspect.isfunction(v) or inspect.isclass(v) for v in exported)
        namespace = {}
        exec("import io\nfrom ltensor import *", namespace)
        assert namespace["io"] is io and namespace["svt"] is ltensor.svt
