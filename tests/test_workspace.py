"""The per-thread workspace: op intermediates reuse it, results never live in it."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltensor import core
from ltensor.linalg import (
    LFactors,
    identity_tensor,
    is_orthogonal,
    l_product,
    l_transpose,
    svt,
    t_svd,
    truncate,
)
from ltensor.transforms import apply_l, apply_l_inv, make_spec

KINDS = ["fft", "dct", "cprod", "explicit"]
JOIN_S = 60  # seconds a test waits for a thread


def _spec(kind, shape):
    if kind != "explicit":
        return make_spec(kind, shape)
    rng = np.random.default_rng(7)
    matrices = {m: (m - 1.0) * np.linalg.qr(rng.standard_normal((n, n)))[0] for m, n in enumerate(shape[2:], 3)}
    return make_spec(kind, shape, matrices=matrices)


def _arrays(result):
    if isinstance(result, LFactors):
        return [result.u, result.s, result.v, result.tube_norms]
    return [np.asarray(result)]


def _run_in_thread(fn):
    """fn() in a new thread, whose workspace starts empty; its result, or its error raised here."""
    box = {}

    def target():
        try:
            box["out"] = fn()
        except BaseException as exc:  # re-raised in the calling thread
            box["err"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(JOIN_S)
    assert not thread.is_alive()
    if "err" in box:
        raise box["err"]
    return box["out"]


def _held():
    return sum(buf.nbytes for buf in core._buffers().values())


# op name -> fn(a, spec) on a square-fronted operand a of shape (n, n, ...)
OPS = {
    "l_product": lambda a, spec: l_product(a, a[:, ::-1], spec),
    "l_transpose": lambda a, spec: l_transpose(a, spec),
    "t_svd": lambda a, spec: t_svd(a, spec),
    "truncate": lambda a, spec: truncate(t_svd(a, spec), 1),
    "svt": lambda a, spec: svt(a, 0.5, spec),
    "is_orthogonal": lambda a, spec: is_orthogonal(t_svd(a, spec).u, spec, tol=1e-8),
    "identity_tensor": lambda a, spec: identity_tensor(a.shape[0], a.shape[2:], spec),
    "apply_l": lambda a, spec: apply_l(a, spec),
    "apply_l_inv": lambda a, spec: apply_l_inv(a, spec),
}

shapes = st.tuples(
    st.integers(1, 4), st.lists(st.integers(1, 4), min_size=1, max_size=2)
).map(lambda t: (t[0], t[0]) + tuple(t[1]))


class TestResults:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", list(OPS))
    @settings(max_examples=8, deadline=None)
    @given(shape=shapes, seed=st.integers(0, 2**16))
    def test_results_are_not_workspace_memory(self, kind, name, shape, seed):
        spec = _spec(kind, shape)
        if name == "svt" and not spec.unitary_scaled:
            return
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(shape), rng.standard_normal(shape)
        first = OPS[name](a, spec)
        kept = [x.copy() for x in _arrays(first)]
        for x in _arrays(first):
            assert not any(np.shares_memory(x, buf) for buf in core._buffers().values())
        # a later call on other operands of the same shape, then ops that use every role
        OPS[name](b, spec)
        l_product(b, b, spec)
        l_transpose(b, spec)
        t_svd(b, spec)
        for x, copy in zip(_arrays(first), kept):
            assert np.array_equal(x, copy)
        assert _held() <= core.WORKSPACE_CAP

    @pytest.mark.parametrize("kind", KINDS)
    def test_matrix_kinds_run_in_the_workspace(self, kind, rng):
        a = rng.standard_normal((5, 5, 3, 2))
        spec = _spec(kind, a.shape)

        def roles():
            l_product(a, a, spec)
            return set(core._buffers())

        # a is in C order, so the matrix kinds copy it into transforms.step1;
        # fft copies it straight into each operand's L-domain stack
        expected = {"facewise", ("forward", 0), ("forward", 1)}
        if spec.kind != "fft":
            expected |= {"transforms.step0", "transforms.step1"}
        assert _run_in_thread(roles) == expected


    @pytest.mark.parametrize("kind", ["fft", "dct", "cprod"])
    def test_specs_without_transformed_modes_give_new_results(self, kind):
        # L is the identity: the inverse used to hand back the facewise product's buffer
        a = np.arange(12.0).reshape(2, 2, 3)
        spec = make_spec(kind, a.shape, modes=[])
        first = l_product(a, a, spec)
        expected = np.einsum("ijp,jkp->ikp", a, a)
        l_product(a + 1, a, spec)
        np.testing.assert_array_equal(first, expected)
        assert apply_l(a, spec).dtype == np.float64 and not np.shares_memory(apply_l(a, spec), a)


class TestThreads:
    def test_concurrent_l_products_give_the_serial_results(self, rng):
        # more threads than cores, switching often: a shared buffer would mix their stacks
        spec = make_spec("cprod", (16, 12, 4, 5))
        operands = [(rng.standard_normal((16, 12, 4, 5)), rng.standard_normal((12, 12, 4, 5))) for _ in range(4)]
        serial = [l_product(a, b, spec) for a, b in operands]
        barrier = threading.Barrier(len(operands), timeout=JOIN_S)
        mismatches = [None] * len(operands)

        def work(i):
            a, b = operands[i]
            barrier.wait()
            mismatches[i] = sum(not np.array_equal(l_product(a, b, spec), serial[i]) for _ in range(50))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(operands))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(JOIN_S)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == [0] * len(operands)

    def test_each_thread_has_its_own_workspace(self):
        a = np.ones((3, 3, 4))
        spec = make_spec("cprod", a.shape)
        l_product(a, a, spec)
        mine = dict(core._buffers())
        theirs = _run_in_thread(lambda: (l_product(a, a, spec), dict(core._buffers()))[1])
        assert core._buffers().keys() == mine.keys() and all(core._buffers()[r] is mine[r] for r in mine)
        assert set(theirs) <= set(mine)
        assert not any(np.shares_memory(x, y) for x in mine.values() for y in theirs.values())


class TestCap:
    def test_an_op_over_the_cap_leaves_the_workspace_within_it(self, rng, monkeypatch):
        a, b = rng.standard_normal((6, 5, 4, 3)), rng.standard_normal((5, 7, 4, 3))
        spec = make_spec("cprod", (6, 7, 4, 3))
        expected = l_product(a, b, spec)
        cap = 3 * a.nbytes  # room for some roles, not for all five
        monkeypatch.setattr(core, "WORKSPACE_CAP", cap)

        def run():
            out = l_product(a, b, spec)
            return out, _held(), len(core._buffers())

        out, held, roles = _run_in_thread(run)
        assert np.array_equal(out, expected)
        assert 0 < held <= cap and 0 < roles < 5

    def test_a_request_larger_than_the_cap_is_a_fresh_array(self, monkeypatch):
        monkeypatch.setattr(core, "WORKSPACE_CAP", 64)

        def run():
            small = core.scratch("small", (4,), float)
            big = core.scratch("big", (9,), float)
            return small, big, dict(core._buffers())

        small, big, buffers = _run_in_thread(run)
        assert set(buffers) == {"small"} and np.shares_memory(small, buffers["small"])
        assert big.shape == (9,) and big.flags.c_contiguous and not np.shares_memory(big, buffers["small"])


class TestFresh:
    def test_role_none_is_a_fresh_array_outside_the_workspace(self):
        # role None was a workspace role like any other, reused by the next request
        def run():
            a, b = core.scratch(None, (4,), float), core.scratch(None, (4,), float)
            return a, b, dict(core._buffers()), core.in_workspace(a)

        a, b, buffers, held = _run_in_thread(run)
        assert buffers == {} and not held and not np.shares_memory(a, b)
        assert a.shape == (4,) and a.flags.c_contiguous and a.dtype == np.float64


class TestReuse:
    @pytest.mark.parametrize("kind", KINDS)
    def test_warm_repeat_calls_add_no_buffers(self, kind, rng):
        a, c = rng.standard_normal((6, 5, 4, 3)), rng.standard_normal((5, 6, 4, 3))
        spec = _spec(kind, (6, 6, 4, 3))

        def rounds():
            seen = []
            for _ in range(3):
                l_product(a, c, spec)
                l_product(c, a, spec)
                truncate(t_svd(a, spec), 2)
                seen.append(dict(core._buffers()))
            return seen

        first, *later = _run_in_thread(rounds)
        for buffers in later:
            assert buffers.keys() == first.keys()
            assert all(buffers[role] is first[role] for role in first)

    def test_scratch_reuses_one_buffer_per_role_across_shapes_and_dtypes(self):
        def run():
            x = core.scratch("r", (4, 6), np.complex128)
            y = core.scratch("r", (3, 2), np.float64)
            z = core.scratch("s", (3, 2), np.float64)
            return x, y, z, dict(core._buffers())

        x, y, z, buffers = _run_in_thread(run)
        assert x.dtype == np.complex128 and y.dtype == np.float64 and y.shape == (3, 2)
        assert np.shares_memory(x, y) and not np.shares_memory(y, z)
        assert buffers["r"].nbytes == x.nbytes and buffers["s"].nbytes == z.nbytes
