import csv
import math

import numpy as np
import pytest

import ltensor.completion
import ltensor.linalg
from ltensor.completion import (
    CompletionConfig,
    CompletionTrace,
    IterationRecord,
    pga_complete,
    project_omega,
    psnr,
    rse,
    sample_mask,
)
from ltensor.core import as_rep_stack, fro_norm, from_rep_stack
from ltensor.errors import ParameterError, ShapeError, UnsupportedSpecError
from ltensor.linalg import l_product
from ltensor.transforms import make_spec


def low_rank(dims, rank, seed, kind="fft"):
    r = np.random.default_rng(seed)
    spec = make_spec(kind, dims)
    x = r.standard_normal((dims[0], rank) + dims[2:])
    y = r.standard_normal((rank, dims[1]) + dims[2:])
    return l_product(x, y, spec), spec


class TestProjectOmega:
    def test_keeps_observed_zeros_rest(self):
        x = np.arange(8.0).reshape(2, 2, 2)
        mask = np.zeros((2, 2, 2), dtype=bool)
        mask[0, 0, 0] = mask[1, 1, 1] = True
        out = project_omega(x, mask)
        assert out[0, 0, 0] == x[0, 0, 0] and out[1, 1, 1] == x[1, 1, 1]
        assert np.count_nonzero(out) <= 2

    def test_idempotent(self, rng):
        x = rng.standard_normal((3, 2, 4))
        mask = sample_mask(x.shape, 0.5, 3)
        once = project_omega(x, mask)
        np.testing.assert_array_equal(project_omega(once, mask), once)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            project_omega(np.ones((2, 2, 2)), np.ones((2, 2, 3), dtype=bool))

    @pytest.mark.parametrize(
        "values",
        [np.full((2, 2, 2), 0.5), [[[0, 1], [1, np.nan]], [[0, 0], [1, 1]]], -np.ones((2, 2, 2)),
         2 * np.ones((2, 2, 2), dtype=int), np.ones((2, 2, 2), dtype=complex)],
        ids=["probability", "nan", "negative", "two", "complex"],
    )
    def test_rejects_masks_that_are_not_zero_one(self, values):
        # each entry other than 0 counted as observed
        with pytest.raises(ParameterError, match="boolean or exactly 0 or 1"):
            project_omega(np.ones((2, 2, 2)), values)


class TestSampleMask:
    def test_exact_count(self):
        mask = sample_mask((4, 5, 3), 0.5, 0)
        assert mask.sum() == round(0.5 * 60)

    def test_deterministic(self):
        a = sample_mask((4, 5, 3), 0.3, 42)
        b = sample_mask((4, 5, 3), 0.3, 42)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = sample_mask((6, 6, 4), 0.5, 1)
        b = sample_mask((6, 6, 4), 0.5, 2)
        assert not np.array_equal(a, b)

    def test_extremes(self):
        assert not sample_mask((3, 3, 2), 0.0, 0).any()
        assert sample_mask((3, 3, 2), 1.0, 0).all()

    def test_invalid_ratio(self):
        with pytest.raises(ParameterError):
            sample_mask((2, 2, 2), 1.5, 0)

    @pytest.mark.parametrize(
        "dims, sr, seed",
        # dims that are not a sequence raised TypeError when unpacked
        [((2, 2, 2), math.nan, 0), ((2, 2, 2), 0.5, -1), ((2, -2, 2), 0.5, 0), (3.0, 0.5, 0), (None, 0.5, 0)],
        ids=["nan-ratio", "negative-seed", "negative-dim", "scalar-dims", "none-dims"],
    )
    def test_rejects_bad_arguments(self, dims, sr, seed):
        with pytest.raises(ParameterError):
            sample_mask(dims, sr, seed)

    @pytest.mark.parametrize("dims, seed", [((2.5, 2, 3), 1), ((2, 2, 3), 1.5)], ids=["dim", "seed"])
    def test_rejects_fractional_counts(self, dims, seed):
        # a dim of 2.5 was truncated to 2; a seed of 1.5 escaped as numpy TypeError
        with pytest.raises(ParameterError, match="must be integers >= 0"):
            sample_mask(dims, 0.5, seed)

    def test_accepts_numpy_integers(self):
        mask = sample_mask((np.int64(2), np.int32(2), 3), 0.5, np.int64(1))
        np.testing.assert_array_equal(mask, sample_mask((2, 2, 3), 0.5, 1))


class TestMetrics:
    def test_rse_identical(self):
        a = np.ones((2, 3, 2))
        assert rse(a, a) == 0.0

    def test_rse_worked_value(self):
        obtained = np.ones((2, 2, 2))
        original = obtained.copy()
        original[0, 0, 0] += 0.1
        # ||diff||^2 = 0.01, ||obtained||^2 = 8
        assert np.isclose(rse(obtained, original), 0.01 / 8.0, rtol=1e-12)

    def test_rse_denominator_choice(self):
        obtained = 2.0 * np.ones((2, 2, 2))
        original = np.ones((2, 2, 2))
        assert np.isclose(rse(obtained, original), 8.0 / 32.0)
        assert np.isclose(rse(obtained, original, denominator="original"), 8.0 / 8.0)

    def test_rse_zero_denominator(self):
        with pytest.raises(ParameterError):
            rse(np.zeros((2, 2, 2)), np.ones((2, 2, 2)))

    def test_rse_bad_denominator_name(self):
        with pytest.raises(ParameterError):
            rse(np.ones((2, 2, 2)), np.ones((2, 2, 2)), denominator="mean")

    def test_psnr_identical_is_inf(self):
        a = np.ones((2, 2, 2))
        assert psnr(a, a) == math.inf

    def test_psnr_worked_value(self):
        obtained = np.ones((2, 2, 2))
        original = obtained.copy()
        original[0, 0, 0] = 1.1
        # peak 1, ||diff||^2 = 0.01 -> 10 log10(100) = 20 dB
        assert np.isclose(psnr(obtained, original), 20.0, rtol=1e-12)

    def test_psnr_zero_db(self):
        obtained = np.zeros((2, 2, 2))
        obtained[0, 0, 0] = 1.0
        original = np.zeros((2, 2, 2))
        # peak^2 == error^2 == 1
        assert psnr(obtained, original) == 0.0

    def test_psnr_zero_peak(self):
        assert psnr(np.zeros((2, 2, 2)), np.ones((2, 2, 2))) == -math.inf

    @pytest.mark.filterwarnings("error")
    def test_large_tensors(self):
        # each norm was squared with **, which raised OverflowError
        s = (2, 2, 2)
        assert np.isclose(rse(np.full(s, 1e200), np.full(s, 2e200)), 1.0, rtol=1e-14)
        assert np.isclose(psnr(np.full(s, 1e200), np.full(s, 2e200)), 10 * math.log10(1 / 8), rtol=1e-14)
        # peak 1e308, error norm sqrt(8) * 0.5e308: 10 log10(1 / 2)
        assert np.isclose(psnr(np.full(s, 1e308), np.full(s, 0.5e308)), 10 * math.log10(0.5), rtol=1e-14)
        # the error norm sqrt(8) * 1e308 itself overflowed and psnr read -inf: 10 log10(1 / 8)
        assert np.isclose(psnr(np.full(s, 1e308), np.zeros(s)), -9.030899869919435, rtol=1e-14)
        # so did the difference 1e308 - (-1e308): 10 log10(1 / 32)
        assert np.isclose(psnr(np.full(s, 1e308), np.full(s, -1e308)), 10 * math.log10(1 / 32), rtol=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_rse_beyond_the_float_range(self):
        s = (2, 2, 2)
        # both norms, sqrt(8) * 1e308, overflowed and inf / inf read nan
        assert np.isclose(rse(np.full(s, 1e308), np.zeros(s)), 1.0, rtol=1e-14)
        # the difference 1e308 - (-1e308) warned "overflow encountered in subtract"
        assert np.isclose(rse(np.full(s, 1e308), np.full(s, -1e308)), 4.0, rtol=1e-14)
        # only the denominator overflowed, and a finite error over inf read 0
        assert np.isclose(rse(np.full(s, 1e308), np.full(s, 0.9e308)), 0.01, rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("metric", [rse, psnr])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["obtained", "original"])
    def test_non_finite_operands_are_refused(self, metric, bad, which):
        # both metrics returned nan
        pair = [np.ones((2, 2, 2)), np.full((2, 2, 2), 0.5)]
        pair[which == "original"][1, 0, 1] = bad
        with pytest.raises(ParameterError, match="NaN or inf"):
            metric(*pair)

    @pytest.mark.filterwarnings("error")
    def test_tiny_tensors(self):
        # the squares underflowed: rse saw a zero denominator, psnr returned inf for
        # tensors that differ, and a zero peak square gave "math domain error"
        s = (2, 2, 2)
        assert np.isclose(rse(np.full(s, 1e-200), np.full(s, 2e-200)), 1.0, rtol=1e-14)
        assert np.isclose(psnr(np.full(s, 1e-200), np.full(s, 2e-200)), 10 * math.log10(1 / 8), rtol=1e-14)
        expected = 20 * (-200 - math.log10(math.sqrt(8)))
        assert np.isclose(psnr(np.full(s, 1e-200), np.ones(s)), expected, rtol=1e-14)

    def test_psnr_of_a_negative_peak(self):
        obtained = np.full((2, 2, 2), -2.0)
        # |peak| 2, error norm sqrt(8) * 2: 10 log10(1 / 8)
        assert np.isclose(psnr(obtained, np.zeros((2, 2, 2))), 10 * math.log10(1 / 8), rtol=1e-14)

    def test_bool_tensors(self):
        # numpy has no bool minus: its TypeError escaped
        a = np.array([True, False, True, True]).reshape(2, 2, 1)
        b = np.array([True, True, True, False]).reshape(2, 2, 1)
        assert np.isclose(rse(a, b), 2 / 3, rtol=1e-14)
        assert np.isclose(psnr(a, b), 10 * math.log10(1 / 2), rtol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            rse(np.ones((2, 2, 2)), np.ones((2, 2, 3)))
        with pytest.raises(ShapeError):
            psnr(np.ones((2, 2, 2)), np.ones((2, 2, 3)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("which", ["obtained", "original"])
    def test_psnr_rejects_complex(self, which):
        # numpy ComplexWarning, then a peak read off the real parts
        a, b = np.ones((2, 2, 2)), np.ones((2, 2, 2))
        a[0, 0, 0] = 1.5
        pair = (a.astype(complex), b) if which == "obtained" else (a, b.astype(complex))
        with pytest.raises(ParameterError, match="PSNR needs real tensors"):
            psnr(*pair)


class TestConfig:
    def test_validate_rejects_bad_values(self):
        spec = make_spec("fft", (2, 2, 2))
        for kwargs in (
            {"nu": 1.0},
            {"nu": 0.0},
            {"tol": 0.0},
            {"mu_bar_ratio": 2.0},
            {"max_iters": 0},
            {"max_iters": True},
        ):
            with pytest.raises(ParameterError):
                CompletionConfig(spec=spec, **kwargs).validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("nu", math.nan),
            ("tol", math.nan),
            ("mu_bar_ratio", math.nan),
            ("mu0", math.nan),
            ("mu0", math.inf),
            ("mu0", -1.0),
        ],
    )
    def test_validate_rejects_nan_and_unbounded_values(self, field, value):
        # tol=nan and mu0=inf ran to max_iters; mu_bar_ratio=nan dropped the mu_bar floor
        cfg = CompletionConfig(spec=make_spec("fft", (2, 2, 2)), **{field: value})
        with pytest.raises(ParameterError, match=field):
            cfg.validate()

    @pytest.mark.parametrize(
        "field, value",
        # mu0=None is the default, nu * ||M||_F
        [(f, v) for f in ("nu", "tol", "mu_bar_ratio", "mu0") for v in (None, "0.5", [0.5], 0.5j, True)
         if (f, v) != ("mu0", None)],
        ids=str,
    )
    def test_validate_refuses_a_value_that_is_not_a_real_number(self, field, value):
        # each leaked a TypeError from its range test, or passed it (True)
        cfg = CompletionConfig(spec=make_spec("fft", (2, 2, 2)), **{field: value})
        with pytest.raises(ParameterError, match=field):
            cfg.validate()

    def test_validate_rejects_a_fractional_max_iters(self):
        # passed validate() and failed in range() with TypeError
        cfg = CompletionConfig(spec=make_spec("fft", (2, 2, 2)), max_iters=2.5)
        with pytest.raises(ParameterError, match="max_iters must be an integer >= 1"):
            cfg.validate()

    def test_numpy_integer_max_iters_runs(self):
        cfg = CompletionConfig(spec=make_spec("fft", (2, 2, 2)), max_iters=np.int64(2))
        _, trace = pga_complete(np.ones((2, 2, 2)), np.ones((2, 2, 2), bool), cfg)
        assert trace.iterations <= 2

    def test_validate_rejects_an_unknown_rse_denominator(self):
        # passed validate(); pga_complete with ground truth then caught rse()'s
        # ParameterError as an all-zero iterate and reported every rse as NaN
        spec = make_spec("fft", (2, 2, 2))
        cfg = CompletionConfig(spec=spec, rse_denominator="bogus")
        with pytest.raises(ParameterError, match="unknown RSE denominator 'bogus'"):
            cfg.validate()
        with pytest.raises(ParameterError, match="unknown RSE denominator"):
            pga_complete(np.ones((2, 2, 2)), np.ones((2, 2, 2), bool), cfg, ground_truth=np.ones((2, 2, 2)))

    @pytest.mark.parametrize("flag", ["false", 0, 1, None, np.array([True, False])], ids=str)
    def test_validate_rejects_a_reimpose_observed_that_is_not_a_bool(self, flag):
        # "false" reimposed the observed entries; an array leaked numpy's ValueError
        cfg = CompletionConfig(spec=make_spec("fft", (2, 2, 2)), max_iters=2, reimpose_observed=flag)
        with pytest.raises(ParameterError, match="reimpose_observed must be a bool"):
            pga_complete(np.ones((2, 2, 2)), np.ones((2, 2, 2), bool), cfg)

    def test_a_numpy_bool_reimpose_observed_passes(self):
        CompletionConfig(spec=make_spec("fft", (2, 2, 2)), reimpose_observed=np.bool_(True)).validate()

    @pytest.mark.parametrize("denominator", [np.array([1, 2]), np.array(["obtained", "x"]), ["obtained"], None, 1],
                             ids=str)
    def test_validate_rejects_an_rse_denominator_that_is_not_a_choice(self, denominator):
        # an array leaked numpy's "truth value ... is ambiguous" ValueError
        cfg = CompletionConfig(spec=make_spec("fft", (2, 2, 2)), rse_denominator=denominator)
        with pytest.raises(ParameterError, match="unknown RSE denominator"):
            cfg.validate()

    def test_validate_rejects_a_spec_that_is_not_a_transform_spec(self):
        # escaped as AttributeError from require_unitary
        for spec in (None, "fft"):
            with pytest.raises(ParameterError, match="spec must be a TransformSpec"):
                pga_complete(np.ones((2, 2, 2)), np.ones((2, 2, 2), bool), CompletionConfig(spec=spec))

    def test_zero_mu0_passes(self):
        CompletionConfig(spec=make_spec("dct", (2, 2, 2)), mu0=0.0).validate()

    def test_defaults_pass(self):
        CompletionConfig(spec=make_spec("dct", (2, 2, 2))).validate()


class TestPgaComplete:
    def test_cprod_refused(self):
        spec = make_spec("cprod", (2, 2, 2))
        with pytest.raises(UnsupportedSpecError):
            pga_complete(np.ones((2, 2, 2)), np.ones((2, 2, 2), dtype=bool),
                         CompletionConfig(spec=spec))

    def test_zero_observation_converges_to_zero(self, rng):
        spec = make_spec("fft", (3, 3, 2))
        # nonzero unobserved entries make mu0 > 0 but leave the observation zero
        for m in (np.zeros((3, 3, 2)), rng.standard_normal((3, 3, 2))):
            out, trace = pga_complete(m, np.zeros((3, 3, 2), dtype=bool), CompletionConfig(spec=spec))
            assert fro_norm(out) == 0.0
            assert trace.status == "converged"
            assert trace.iterations == 1

    def test_all_zero_iterates_from_nonzero_observations_keep_iterating(self, rng):
        # mu0 = 1e6 shrinks every iterate to zero; the zero-observation rule must not stop it
        m = rng.standard_normal((4, 3, 2))
        cfg = CompletionConfig(spec=make_spec("fft", m.shape), mu0=1e6, max_iters=3)
        out, trace = pga_complete(m, sample_mask(m.shape, 0.5, 1), cfg)
        assert fro_norm(out) == 0.0 and trace.status == "max-iters"
        assert [r.rel_change for r in trace.records] == [math.inf] * 3

    def test_full_mask_recovers_input(self):
        m, spec = low_rank((12, 12, 3), 2, 5)
        mask = np.ones(m.shape, dtype=bool)
        cfg = CompletionConfig(spec=spec, tol=1e-6, mu_bar_ratio=1e-6, max_iters=300)
        out, trace = pga_complete(m, mask, cfg)
        assert rse(out, m) < 1e-5
        assert trace.status == "converged"

    def test_mu_schedule_exact(self):
        m, spec = low_rank((8, 8, 2), 2, 3)
        mask = sample_mask(m.shape, 0.6, 0)
        cfg = CompletionConfig(spec=spec, nu=0.8, mu0=5.0, mu_bar_ratio=1e-2,
                               tol=1e-12, max_iters=40)
        _, trace = pga_complete(m, mask, cfg)
        mu_bar = 1e-2 * 5.0
        for rec in trace.records:
            assert rec.mu == max(0.8**rec.k * 5.0, mu_bar)

    def test_momentum_sequence(self):
        m, spec = low_rank((8, 8, 2), 2, 3)
        mask = sample_mask(m.shape, 0.6, 0)
        cfg = CompletionConfig(spec=spec, tol=1e-12, max_iters=30)
        _, trace = pga_complete(m, mask, cfg)
        t = 1.0
        for rec in trace.records:
            assert rec.t == t
            t = (1.0 + math.sqrt(4.0 * t * t + 1.0)) / 2.0

    def test_deterministic_bitwise(self):
        m, spec = low_rank((10, 10, 3), 2, 9)
        mask = sample_mask(m.shape, 0.5, 9)
        cfg = CompletionConfig(spec=spec, max_iters=40)
        a, _ = pga_complete(m, mask, cfg)
        b, _ = pga_complete(m, mask, cfg)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", ["fft", "dct"])
    def test_block_prox_solves_as_the_gram_factorization_does(self, kind, monkeypatch, eigh_shapes):
        # 40 x 44 slices: svt's Gram has order 40, large enough for the block prox.
        # eigh factors stacks of order 6 for a Ritz check, 40 for the whole Gram
        m, spec = low_rank((40, 44, 3, 4), 2, 5, kind)
        mask = sample_mask(m.shape, 0.5, 5)
        cfg = CompletionConfig(spec=spec, max_iters=100)
        gram_pairs, accepted = ltensor.linalg._gram_pairs, []

        def recording(h, tau):
            pairs = gram_pairs(h, tau)
            accepted.append(pairs is not None)
            return pairs

        monkeypatch.setattr(ltensor.linalg, "_gram_pairs", recording)
        x, trace = pga_complete(m, mask, cfg)
        monkeypatch.setattr(ltensor.linalg, "_gram_pairs", lambda h, tau: None)  # the slice SVD
        x_exact, trace_exact = pga_complete(m, mask, cfg)
        assert trace.status == "converged" and all(accepted) and len(accepted) == trace.iterations
        assert {shape[1] for shape in eigh_shapes} <= {ltensor.linalg._BLOCK}  # the block was certified, never the whole Gram factored
        assert trace.iterations == trace_exact.iterations
        assert np.abs(x - x_exact).max() <= 1e-12 * np.abs(x_exact).max()

    def test_stopping_rule(self):
        m, spec = low_rank((10, 10, 3), 2, 9)
        mask = sample_mask(m.shape, 0.6, 9)
        cfg = CompletionConfig(spec=spec, tol=1e-3, max_iters=300)
        _, trace = pga_complete(m, mask, cfg)
        assert trace.status == "converged"
        last = trace.records[-1]
        assert last.rel_change <= 1e-3
        # no earlier record already satisfied the tolerance
        assert all(r.rel_change > 1e-3 for r in trace.records[:-1])

    def test_recovery_improves_with_iterations(self):
        m, spec = low_rank((16, 16, 3), 2, 11)
        mask = sample_mask(m.shape, 0.6, 11)
        cfg = CompletionConfig(spec=spec, tol=1e-13, max_iters=120)
        _, trace = pga_complete(m, mask, cfg, ground_truth=m)
        rses = [r.rse for r in trace.records]
        assert rses[99] < 1e-4 < rses[9]
        assert rses[99] < rses[49] < rses[9]

    def test_ground_truth_metrics_recorded(self):
        m, spec = low_rank((8, 8, 2), 2, 3)
        mask = sample_mask(m.shape, 0.5, 3)
        cfg = CompletionConfig(spec=spec, max_iters=10, tol=1e-12)
        _, trace = pga_complete(m, mask, cfg, ground_truth=m)
        for rec in trace.records:
            assert rec.rse is not None and rec.psnr is not None

    def test_reimpose_observed(self):
        m, spec = low_rank((8, 8, 2), 2, 3)
        mask = sample_mask(m.shape, 0.5, 3)
        cfg = CompletionConfig(spec=spec, max_iters=5, reimpose_observed=True)
        out, _ = pga_complete(m, mask, cfg)
        np.testing.assert_array_equal(out[mask], m[mask])

    def test_gradient_point_restores_observed(self):
        # one plain iteration by hand must match the solver's first iterate
        from ltensor.linalg import svt

        m, spec = low_rank((8, 8, 2), 2, 7)
        mask = sample_mask(m.shape, 0.5, 7)
        cfg = CompletionConfig(spec=spec, max_iters=1)
        out, trace = pga_complete(m, mask, cfg)
        mu0 = cfg.nu * fro_norm(m)
        expected = svt(project_omega(m, mask), cfg.nu * mu0, spec)
        np.testing.assert_allclose(out, expected, atol=1e-12)
        assert trace.records[0].mu == cfg.nu * mu0

    @pytest.mark.parametrize(
        "index, value, observed, message",
        [
            ((1, 2, 0), np.nan, False, "NaN or inf"),
            ((3, 4, 2), np.inf, True, "NaN or inf"),
            ((0, 0, 1), 1j, True, "real data"),
        ],
    )
    def test_rejects_non_finite_or_complex_data(self, index, value, observed, message):
        m, spec = low_rank((4, 5, 3), 1, 3)
        m = m.astype(complex) if np.iscomplexobj(value) else m
        m[index] = value
        mask = sample_mask(m.shape, 0.5, 1)
        mask[index] = observed
        with pytest.raises(ParameterError, match=message):
            pga_complete(m, mask, CompletionConfig(spec=spec, max_iters=3))

    @pytest.mark.parametrize("kind", ["fft", "dct"])
    def test_any_input_layout_gives_the_same_result_and_is_left_unchanged(self, kind):
        m, spec = low_rank((8, 7, 3, 2), 2, 5, kind=kind)
        mask = sample_mask(m.shape, 0.5, 5)
        cfg = CompletionConfig(spec=spec, max_iters=8, reimpose_observed=True)
        results = []
        for order in (np.ascontiguousarray, np.asfortranarray, lambda t: from_rep_stack(as_rep_stack(t), t.shape[2:])):
            m_in, mask_in = order(m), order(mask)
            m_kept, mask_kept = m_in.copy(), mask_in.copy()
            out, trace = pga_complete(m_in, mask_in, cfg)
            np.testing.assert_array_equal(m_in, m_kept)
            np.testing.assert_array_equal(mask_in, mask_kept)
            results.append((out, [r.rel_change for r in trace.records]))
        for out, rels in results[1:]:
            np.testing.assert_array_equal(out, results[0][0])
            assert rels == results[0][1]

    def test_shape_mismatch(self):
        spec = make_spec("fft", (2, 2, 2))
        with pytest.raises(ShapeError):
            pga_complete(np.ones((2, 2, 2)), np.ones((2, 2, 3), dtype=bool),
                         CompletionConfig(spec=spec))

    @pytest.mark.parametrize(
        "mask",
        [lambda shape: np.random.default_rng(0).uniform(0, 1, shape),
         lambda shape: np.where(sample_mask(shape, 0.5, 1), 1.0, np.nan),
         lambda shape: np.where(sample_mask(shape, 0.5, 1), 1, -1)],
        ids=["probability", "nan", "negative"],
    )
    def test_rejects_masks_that_are_not_zero_one(self, mask, monkeypatch):
        # a uniform(0, 1) mask marked every entry observed, and the solve ran
        m, spec = low_rank((4, 5, 3), 1, 3)
        monkeypatch.setattr(ltensor.completion, "svt", _no_svt)
        with pytest.raises(ParameterError, match="boolean or exactly 0 or 1"):
            pga_complete(m, mask(m.shape), CompletionConfig(spec=spec, max_iters=3))

    def test_zero_one_float_mask_gives_the_boolean_result(self):
        m, spec = low_rank((6, 5, 3), 1, 4)
        mask = sample_mask(m.shape, 0.5, 2)
        cfg = CompletionConfig(spec=spec, max_iters=20)
        out, trace = pga_complete(m, mask, cfg)
        for numeric in (mask.astype(float), mask.astype(np.int8)):
            out_n, trace_n = pga_complete(m, numeric, cfg)
            np.testing.assert_array_equal(out_n, out)
            assert trace_n.records == trace.records

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "truth, error, message",
        [
            # ShapeError only after the first svt
            (lambda m: m[:, :, :2], ShapeError, "dimension mismatch"),
            # every rec.rse was NaN
            (lambda m: np.where(m > m.max() - 1e-12, np.nan, m), ParameterError, "ground truth holds NaN or inf"),
            (lambda m: np.where(m > m.max() - 1e-12, np.inf, m), ParameterError, "ground truth holds NaN or inf"),
            # every rec.rse was NaN, with a numpy ComplexWarning from psnr
            (lambda m: m.astype(complex), ParameterError, "needs real ground truth"),
        ],
        ids=["shape", "nan", "inf", "complex"],
    )
    def test_rejects_bad_ground_truth_before_any_work(self, truth, error, message, monkeypatch):
        m, spec = low_rank((4, 5, 3), 1, 3)
        monkeypatch.setattr(ltensor.completion, "svt", _no_svt)
        with pytest.raises(error, match=message):
            pga_complete(m, sample_mask(m.shape, 0.5, 1), CompletionConfig(spec=spec, max_iters=3),
                         ground_truth=truth(m))

    @pytest.mark.parametrize("which", ["data", "ground truth"])
    @pytest.mark.parametrize("fill", ["x", None], ids=["str", "object"])
    def test_rejects_non_numeric_data_or_ground_truth(self, which, fill, monkeypatch):
        # numpy's "could not convert string to float" escaped from astype(float)
        m, spec = low_rank((4, 5, 3), 1, 3)
        bad = np.full(m.shape, fill)
        data, truth = (bad, m) if which == "data" else (m, bad)
        monkeypatch.setattr(ltensor.completion, "svt", _no_svt)
        with pytest.raises(ParameterError, match=f"completion needs real {which}, got {bad.dtype}"):
            pga_complete(data, sample_mask(m.shape, 0.5, 1), CompletionConfig(spec=spec, max_iters=3),
                         ground_truth=truth)


    @pytest.mark.parametrize("which", ["data", "ground truth"])
    def test_rejects_a_ragged_sequence(self, which, monkeypatch):
        # numpy's ValueError escaped from np.asarray
        m, spec = low_rank((4, 5, 3), 1, 3)
        ragged = [[1.0, 2.0], [3.0]]
        data, truth = (ragged, None) if which == "data" else (m, ragged)
        monkeypatch.setattr(ltensor.completion, "svt", _no_svt)
        with pytest.raises(ParameterError, match=f"completion needs real {which}, got a ragged sequence"):
            pga_complete(data, sample_mask(m.shape, 0.5, 1), CompletionConfig(spec=spec, max_iters=3),
                         ground_truth=truth)


def _no_svt(*args, **kwargs):
    raise AssertionError("the solver ran before its inputs were checked")


class TestTraceCsv:
    def test_roundtrip_values(self, tmp_path):
        trace = CompletionTrace(
            records=[
                IterationRecord(k=1, mu=0.5, t=1.0, rel_change=0.25, rse=0.1, psnr=12.5),
                IterationRecord(k=2, mu=0.25, t=1.618, rel_change=0.125),
            ],
            status="max-iters",
        )
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,mu,t,rel_change,rse,psnr"
        assert lines[1].split(",")[0] == "1"
        assert float(lines[1].split(",")[1]) == 0.5
        assert lines[2].endswith(",,")

    def test_numpy_scalar_settings_write_plain_numbers(self, tmp_path):
        # a numpy scalar's repr, "np.float64(...)", is no number a CSV reader parses
        m, spec = low_rank((6, 5, 3), 2, 1)
        cfg = CompletionConfig(spec=spec, nu=np.float64(0.5), mu_bar_ratio=np.float64(0.1), tol=1e-12, max_iters=8)
        _, trace = pga_complete(m, sample_mask(m.shape, 0.6, 1), cfg, ground_truth=m)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 8 and trace.records[-1].mu == trace.records[-2].mu  # mu_bar won the max
        for cell in (cell for row in rows for cell in row if cell):
            float(cell)
