import numpy as np
import pytest

from ltensor.btph import bdiag, btph, check_diagonalization, cproduct_via_btph, ten
from ltensor.core import as_rep_stack, fro_norm
from ltensor.errors import OracleScaleError, ParameterError, ShapeError, StructureError
from ltensor.linalg import identity_tensor, l_product
from ltensor.transforms import make_spec

from conftest import random_shape


class TestBtph:
    def test_tube_1_2(self):
        tube = np.array([1.0, 2.0]).reshape(1, 1, 2)
        np.testing.assert_allclose(btph(tube), [[3, 2], [2, 3]])

    def test_tube_3_4(self):
        tube = np.array([3.0, 4.0]).reshape(1, 1, 2)
        np.testing.assert_allclose(btph(tube), [[7, 4], [4, 7]])

    def test_third_order_structure(self, rng):
        x = rng.standard_normal((2, 3, 3))
        m = btph(x)
        assert m.shape == (6, 9)
        s = [x[:, :, k] for k in range(3)]
        # spot-check the worked Toeplitz + Hankel layout
        np.testing.assert_allclose(m[0:2, 0:3], s[0] + s[1])
        np.testing.assert_allclose(m[0:2, 3:6], s[1] + s[2])
        np.testing.assert_allclose(m[0:2, 6:9], s[2])
        np.testing.assert_allclose(m[4:6, 0:3], s[2])
        np.testing.assert_allclose(m[4:6, 3:6], s[1] + s[2])

    def test_roundtrip_fourth_order(self, rng):
        x = rng.standard_normal((2, 2, 2, 2))
        np.testing.assert_allclose(ten(btph(x), x.shape), x, atol=1e-12)

    def test_roundtrip_orders_3_to_5(self, rng):
        for _ in range(10):
            shape = random_shape(rng, max_dim=3)
            x = rng.standard_normal(shape)
            np.testing.assert_allclose(ten(btph(x), shape), x, atol=1e-12)

    def test_size_guard(self):
        with pytest.raises(OracleScaleError):
            btph(np.zeros((64, 64, 65)))

    def test_order_guard(self):
        with pytest.raises(ShapeError):
            btph(np.zeros((4, 4)))

    def test_returns_the_matrix(self, rng):
        x = rng.standard_normal((2, 3, 2))
        m = btph(x)
        assert isinstance(m, np.ndarray) and m.shape == (2 * 2, 3 * 2)


class TestTen:
    def test_worked_tube(self):
        out = ten(np.array([[29.0, 26.0], [26.0, 29.0]]), (1, 1, 2))
        np.testing.assert_allclose(out.ravel(), [3.0, 26.0])

    def test_zeros(self):
        np.testing.assert_allclose(ten(np.zeros((4, 6)), (2, 3, 2)), np.zeros((2, 3, 2)))

    def test_structure_error(self):
        with pytest.raises(StructureError):
            ten(np.arange(16.0).reshape(4, 4), (2, 2, 2))

    def test_shape_error(self):
        with pytest.raises(StructureError):
            ten(np.zeros((4, 4)), (2, 3, 2))

    @pytest.mark.parametrize("dims", [(2, 2.7, 2), None], ids=["float", "none"])
    def test_dims_must_be_counts(self, rng, dims):
        # int(d) read 2.7 as 2 and returned a (2, 2, 2) tensor; None leaked TypeError
        with pytest.raises(ParameterError, match="dims must be"):
            ten(btph(rng.standard_normal((2, 2, 2))), dims)


class TestBdiag:
    def test_scalar_tensor_is_diag(self, rng):
        x = rng.standard_normal((1, 1, 2, 3))
        np.testing.assert_allclose(bdiag(x), np.diag(x.reshape(-1, order="F")))

    def test_zeros(self):
        assert fro_norm(bdiag(np.zeros((2, 3, 4)))) == 0.0

    def test_third_order_layout(self, rng):
        x = rng.standard_normal((2, 2, 2))
        expected = np.zeros((4, 4))
        expected[:2, :2] = x[:, :, 0]
        expected[2:, 2:] = x[:, :, 1]
        np.testing.assert_allclose(bdiag(x), expected)

    @pytest.mark.parametrize("shape", [(2, 3, 0), (2, 3, 2, 2)])
    def test_complex_stack_matches_a_per_block_loop(self, rng, shape):
        # a stack with no slices gives (0, 0); scipy's block_diag() of no blocks gave (1, 0)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stack = as_rep_stack(x)
        expected = np.zeros((2 * len(stack), 3 * len(stack)), complex)
        for p, block in enumerate(stack):
            expected[2 * p : 2 * p + 2, 3 * p : 3 * p + 3] = block
        m = bdiag(x)
        assert m.dtype == complex and m.shape == expected.shape
        np.testing.assert_array_equal(m, expected)


class TestDiagonalization:
    def test_scalar_tensor(self, rng):
        x = rng.standard_normal((1, 1, 2, 2))
        spec = make_spec("cprod", x.shape)
        assert check_diagonalization(x, spec) < 1e-10 * (1 + fro_norm(x))

    def test_third_order(self, rng):
        x = rng.standard_normal((2, 3, 2))
        spec = make_spec("cprod", x.shape)
        assert check_diagonalization(x, spec) < 1e-10 * (1 + fro_norm(x))

    def test_zeros(self):
        x = np.zeros((2, 2, 3))
        assert check_diagonalization(x, make_spec("cprod", x.shape)) == 0.0

    def test_random_orders_3_to_5(self, rng):
        for _ in range(30):
            shape = random_shape(rng, max_dim=3)
            x = rng.standard_normal(shape)
            spec = make_spec("cprod", shape)
            assert check_diagonalization(x, spec) < 1e-10 * (1 + fro_norm(x))

    @pytest.mark.parametrize(
        "kind, modes, message", [("dct", None, "cprod kind"), ("cprod", (3,), "all trailing modes")]
    )
    def test_rejects_other_specs(self, kind, modes, message):
        x = np.ones((2, 2, 2, 2))
        with pytest.raises(StructureError, match=message):
            check_diagonalization(x, make_spec(kind, x.shape, modes=modes))


class TestCproductViaBtph:
    def test_worked_tubes(self):
        a = np.array([1.0, 2.0]).reshape(1, 1, 2)
        b = np.array([3.0, 4.0]).reshape(1, 1, 2)
        np.testing.assert_allclose(cproduct_via_btph(a, b).ravel(), [3.0, 26.0])

    def test_identity_neutral(self, rng):
        a = rng.standard_normal((2, 3, 2, 2))
        spec = make_spec("cprod", (3, 3) + a.shape[2:])
        eye = identity_tensor(3, a.shape[2:], spec)
        np.testing.assert_allclose(cproduct_via_btph(a, eye), a, atol=1e-10)

    def test_matches_transform_domain(self, rng):
        a = rng.standard_normal((2, 2, 2, 2))
        b = rng.standard_normal((2, 2, 2, 2))
        spec = make_spec("cprod", a.shape)
        oracle = cproduct_via_btph(a, b)
        fast = l_product(a, b, spec)
        np.testing.assert_allclose(oracle, fast, rtol=1e-10, atol=1e-10)

    def test_product_closure(self, rng):
        a = rng.standard_normal((2, 3, 2, 2))
        b = rng.standard_normal((3, 2, 2, 2))
        prod = btph(a) @ btph(b)
        # closed: the product is itself a consistent btph matrix
        c = ten(prod, (2, 2, 2, 2))
        np.testing.assert_allclose(btph(c), prod, atol=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cproduct_via_btph(np.ones((2, 3, 2)), np.ones((2, 2, 2)))


def test_bdiag_matches_rep_stack(rng):
    x = rng.standard_normal((2, 3, 2, 2))
    m = bdiag(x)
    for p, block in enumerate(as_rep_stack(x)):
        np.testing.assert_allclose(m[2 * p : 2 * p + 2, 3 * p : 3 * p + 3], block)
