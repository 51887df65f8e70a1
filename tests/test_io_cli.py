import os
import subprocess
import sys

import numpy as np
import pytest

import ltensor.completion
from ltensor.cli import main
from ltensor.completion import CompletionConfig, CompletionTrace, IterationRecord, sample_mask
from ltensor.errors import FormatError, ParameterError
from ltensor.io import _read_ppm, export_ppm_dir, import_ppm_dir, read_container, write_container

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestContainer:
    def test_roundtrip_float64_bit_exact(self, tmp_path, rng):
        x = rng.standard_normal((3, 4, 2, 5))
        path = tmp_path / "x.tlt"
        write_container(path, x)
        back = read_container(path)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, x)

    def test_roundtrip_float32(self, tmp_path, rng):
        x = rng.standard_normal((2, 3, 4)).astype(np.float32)
        path = tmp_path / "x.tlt"
        write_container(path, x)
        back = read_container(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, x)

    def test_roundtrip_complex(self, tmp_path, rng):
        x = rng.standard_normal((2, 2, 3)) + 1j * rng.standard_normal((2, 2, 3))
        path = tmp_path / "x.tlt"
        write_container(path, x)
        np.testing.assert_array_equal(read_container(path), x)

    def test_roundtrip_mask_preserves_support(self, tmp_path):
        mask = sample_mask((5, 4, 3, 2), 0.37, 21)
        path = tmp_path / "mask.tlt"
        write_container(path, mask)
        back = read_container(path)
        assert back.dtype == bool
        assert back.sum() == mask.sum()
        np.testing.assert_array_equal(back, mask)

    def test_file_is_byte_identical_across_writes(self, tmp_path, rng):
        x = rng.standard_normal((3, 3, 2))
        a, b = tmp_path / "a.tlt", tmp_path / "b.tlt"
        write_container(a, x)
        write_container(b, x)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tlt"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(FormatError, match="magic"):
            read_container(path)

    def test_truncated_payload_reports_bytes(self, tmp_path, rng):
        x = rng.standard_normal((2, 2, 2))
        path = tmp_path / "x.tlt"
        write_container(path, x)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(FormatError, match=r"payload length 56.*expected 64"):
            read_container(path)

    def test_unsupported_order(self, tmp_path):
        path = tmp_path / "x.tlt"
        path.write_bytes(b"TLT1" + bytes([9]) + bytes(80))
        with pytest.raises(FormatError, match="order 9"):
            read_container(path)

    def test_huge_dims_do_not_wrap_the_size_check(self, tmp_path, capsys):
        # 2^32 * 2^32 entries wrap an int64 size to 0, which an empty payload would match
        path = tmp_path / "huge.tlt"
        path.write_bytes(b"TLT1" + bytes([2]) + np.array([2**32, 2**32], dtype="<u8").tobytes() + bytes([0]))
        with pytest.raises(FormatError, match="payload length 0"):
            read_container(path)
        assert main(["metrics", "--a", str(path), "--b", str(path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_dims_numpy_cannot_shape(self, tmp_path, capsys):
        path = tmp_path / "big.tlt"
        dims = np.array([0, 2**63, 1], dtype="<u8")  # product 0, so the empty payload fits
        path.write_bytes(b"TLT1" + bytes([3]) + dims.tobytes() + bytes([0]))
        with pytest.raises(FormatError, match="too large for an array"):
            read_container(path)
        assert main(["metrics", "--a", str(path), "--b", str(path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("byte", [7, 255])
    def test_bool_byte_other_than_0_or_1(self, tmp_path, byte):
        # read back as True: a damaged mask file passed its entries as observed
        path = tmp_path / "mask.tlt"
        write_container(path, np.zeros((2, 2, 2), dtype=bool))
        data = bytearray(path.read_bytes())
        data[-1] = byte
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"bool byte {byte} at offset {len(data) - 1}, expected 0 or 1"):
            read_container(path)

    def test_uint8_round_trips_as_float64(self, tmp_path):
        path = tmp_path / "x.tlt"
        x = np.array([0, 5, 7, 255], dtype=np.uint8).reshape(2, 2)
        write_container(path, x)
        back = read_container(path)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, x)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"TLT1", "missing order byte"),
            (b"TLT1" + bytes([3]) + bytes(10), "truncated header"),
            (b"TLT1" + bytes([2]) + np.array([1, 1], dtype="<u8").tobytes() + bytes([7, 0]),
             "unsupported dtype code 7 at byte 21"),
        ],
    )
    def test_malformed_header(self, tmp_path, data, message):
        path = tmp_path / "x.tlt"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=message):
            read_container(path)

    @pytest.mark.parametrize(
        "x", [np.array([["a", "b"], ["c", "d"]]), np.array([[1, 2], [3, 4]], dtype=object)], ids=["str", "object"]
    )
    def test_write_refuses_non_numeric_arrays(self, tmp_path, x):
        # the string array escaped as numpy ValueError, after the file was opened
        path = tmp_path / "x.tlt"
        with pytest.raises(FormatError, match=f"got dtype {x.dtype}"):
            write_container(path, x)
        assert not path.exists()

    def test_write_refuses_a_ragged_sequence(self, tmp_path):
        # numpy's ValueError escaped
        path = tmp_path / "x.tlt"
        with pytest.raises(FormatError, match="ragged sequence"):
            write_container(path, [[1.0, 2.0], [3.0]])
        assert not path.exists()

    def test_order_guard_on_write(self, tmp_path):
        with pytest.raises(FormatError):
            write_container(tmp_path / "x.tlt", np.ones(3))


class TestPpm:
    def test_single_white_frame(self, tmp_path):
        frame_dir = tmp_path / "vid"
        frame_dir.mkdir()
        (frame_dir / "f0.ppm").write_bytes(b"P6\n2 2\n255\n" + b"\xff" * 12)
        x = import_ppm_dir(frame_dir)
        assert x.shape == (2, 2, 3, 1)
        np.testing.assert_array_equal(x, np.ones((2, 2, 3, 1)))

    def test_export_import_roundtrip_on_quantized(self, tmp_path, rng):
        x = rng.random((4, 5, 3, 2))
        out1 = tmp_path / "v1"
        export_ppm_dir(x, out1)
        y = import_ppm_dir(out1)
        # quantization error bounded by half a level
        assert np.max(np.abs(x - y)) <= 0.5 / 255 + 1e-12
        out2 = tmp_path / "v2"
        export_ppm_dir(y, out2)
        np.testing.assert_array_equal(import_ppm_dir(out2), y)

    def test_frame_order_lexicographic(self, tmp_path):
        frame_dir = tmp_path / "vid"
        frame_dir.mkdir()
        for name, level in (("b.ppm", 20), ("a.ppm", 10), ("c.ppm", 30)):
            (frame_dir / name).write_bytes(b"P6\n1 1\n255\n" + bytes([level] * 3))
        x = import_ppm_dir(frame_dir)
        np.testing.assert_allclose(x[0, 0, 0, :] * 255, [10, 20, 30])

    def test_comment_header(self, tmp_path):
        frame_dir = tmp_path / "vid"
        frame_dir.mkdir()
        (frame_dir / "f.ppm").write_bytes(b"P6\n# made by hand\n1 1\n255\n\x00\x80\xff")
        x = import_ppm_dir(frame_dir)
        np.testing.assert_allclose(x.ravel() * 255, [0, 128, 255])

    def test_rejects_non_p6(self, tmp_path):
        frame_dir = tmp_path / "vid"
        frame_dir.mkdir()
        (frame_dir / "f.ppm").write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(FormatError):
            import_ppm_dir(frame_dir)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P6\n1 1\n65535\n" + bytes(6), "only maxval 255 supported, got 65535"),
            (b"P6\n2 2\n255\n" + bytes(11), "expected 12 pixel bytes, got 11"),
        ],
    )
    def test_rejects_unsupported_frames(self, tmp_path, data, message):
        frame_dir = tmp_path / "vid"
        frame_dir.mkdir()
        (frame_dir / "f.ppm").write_bytes(data)
        with pytest.raises(FormatError, match=message):
            import_ppm_dir(frame_dir)

    def test_rejects_frame_numpy_cannot_shape(self, tmp_path):
        path = tmp_path / "f.ppm"
        path.write_bytes(b"P6\n0 3074457345618258603\n255\n")  # 0 pixel bytes, as the header says
        with pytest.raises(FormatError, match="too large for an array"):
            _read_ppm(path)

    def test_empty_dir(self, tmp_path):
        with pytest.raises(FormatError, match="no .ppm frames"):
            import_ppm_dir(tmp_path)

    def test_mismatched_frame_shapes(self, tmp_path):
        frame_dir = tmp_path / "vid"
        frame_dir.mkdir()
        (frame_dir / "a.ppm").write_bytes(b"P6\n1 1\n255\n" + bytes(3))
        (frame_dir / "b.ppm").write_bytes(b"P6\n2 1\n255\n" + bytes(6))
        with pytest.raises(FormatError, match="differs"):
            import_ppm_dir(frame_dir)

    def test_export_shape_guard(self, tmp_path):
        with pytest.raises(FormatError):
            export_ppm_dir(np.ones((2, 2, 4, 1)), tmp_path / "v")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_export_rejects_non_finite_before_writing(self, tmp_path, bad):
        # NaN was cast to 0 with "invalid value encountered in cast"
        x = np.full((2, 2, 3, 2), 0.5)
        x[0, 1, 2, 1] = bad
        with pytest.raises(ParameterError, match="NaN or inf"):
            export_ppm_dir(x, tmp_path / "v")
        assert not (tmp_path / "v").exists()

    def test_export_rejects_complex_before_writing(self, tmp_path):
        # numpy "ufunc 'floor' not supported" escaped after the directory was made
        with pytest.raises(ParameterError, match="complex"):
            export_ppm_dir(np.full((2, 2, 3, 1), 0.5 + 0.5j), tmp_path / "v")
        assert not (tmp_path / "v").exists()


    @pytest.mark.parametrize(
        "x, message",
        [
            ([[1.0, 2.0], [3.0]], "ragged sequence"),
            (np.full((2, 2, 3, 1), "a"), "got dtype <U1"),
            (np.full((2, 2, 3, 1), 0.5, dtype=object), "got dtype object"),
        ],
        ids=["ragged", "str", "object"],
    )
    def test_export_refuses_ragged_or_non_numeric_frames(self, tmp_path, x, message):
        # numpy's ValueError or np.isfinite's TypeError escaped
        with pytest.raises(ParameterError, match=message):
            export_ppm_dir(x, tmp_path / "v")
        assert not (tmp_path / "v").exists()

    @pytest.mark.filterwarnings("error")
    def test_export_clips_huge_entries_without_overflow(self, tmp_path):
        # x * 255 warned "overflow encountered in multiply" at 1e308
        x, expected = np.zeros((2, 2, 3, 2)), np.zeros((2, 2, 3, 2))
        x[0, 0, 0], expected[0, 0, 0] = (1e308, -1e308), (1.0, 0.0)
        x[1, 1, 2], expected[1, 1, 2] = (0.5, 1.0), (128 / 255, 1.0)
        export_ppm_dir(x, tmp_path / "v")
        np.testing.assert_array_equal(import_ppm_dir(tmp_path / "v"), expected)


class TestCli:
    def test_metrics_identical_file(self, tmp_path, capsys, rng):
        x = rng.standard_normal((3, 3, 2))
        path = tmp_path / "x.tlt"
        write_container(path, x)
        code = main(["metrics", "--a", str(path), "--b", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "RSE 0" in out
        assert "PSNR inf" in out

    def test_metrics_print_a_negative_infinite_psnr(self, tmp_path, capsys):
        # a zero peak gives -inf, which printed as "PSNR inf"
        obtained = -np.ones((2, 2, 2))
        obtained[0, 0, 0] = 0.0
        write_container(tmp_path / "a.tlt", obtained)
        write_container(tmp_path / "b.tlt", np.ones((2, 2, 2)))
        code = main(["metrics", "--a", str(tmp_path / "a.tlt"), "--b", str(tmp_path / "b.tlt")])
        out = capsys.readouterr().out
        assert code == 0 and "PSNR -inf" in out

    def test_mask_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.tlt", tmp_path / "b.tlt"
        for out in (a, b):
            assert main(["mask", "gen", "--dims", "6,6,3", "--sr", "0.4",
                         "--seed", "5", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        mask = read_container(a)
        assert mask.dtype == bool and mask.sum() == round(0.4 * 108)

    def test_product_matches_library(self, tmp_path, rng):
        from ltensor.linalg import l_product
        from ltensor.transforms import make_spec

        a = rng.standard_normal((2, 3, 2, 2))
        b = rng.standard_normal((3, 2, 2, 2))
        pa, pb, po = (tmp_path / n for n in ("a.tlt", "b.tlt", "out.tlt"))
        write_container(pa, a)
        write_container(pb, b)
        assert main(["product", "--a", str(pa), "--b", str(pb),
                     "--transform", "dct", "--out", str(po)]) == 0
        spec = make_spec("dct", (2, 2, 2, 2))
        np.testing.assert_allclose(read_container(po), l_product(a, b, spec), atol=1e-12)

    def test_tsvd_outputs_reconstruct(self, tmp_path, rng):
        from ltensor.linalg import l_product, l_transpose
        from ltensor.transforms import make_spec

        a = rng.standard_normal((3, 3, 2, 2))
        pi = tmp_path / "a.tlt"
        write_container(pi, a)
        pu, ps, pv = (tmp_path / n for n in ("u.tlt", "s.tlt", "v.tlt"))
        assert main(["tsvd", "--input", str(pi), "--transform", "fft",
                     "--out-u", str(pu), "--out-s", str(ps), "--out-v", str(pv)]) == 0
        u, s, v = (read_container(p) for p in (pu, ps, pv))
        spec = make_spec("fft", a.shape)
        recon = l_product(l_product(u, s, spec), l_transpose(v, spec), spec)
        np.testing.assert_allclose(recon, a, atol=1e-9)

    @pytest.mark.parametrize("k", [0, 4])
    def test_tsvd_truncate_out_of_range_exit_2(self, tmp_path, capsys, rng, k):
        pi = tmp_path / "a.tlt"
        write_container(pi, rng.standard_normal((3, 3, 2)))
        code = main(["tsvd", "--input", str(pi), "--transform", "dct", "--truncate", str(k),
                     "--out-u", str(tmp_path / "u.tlt"), "--out-s", str(tmp_path / "s.tlt"),
                     "--out-v", str(tmp_path / "v.tlt")])
        assert code == 2
        assert f"truncation rank {k} out of range [1, 3]" in capsys.readouterr().err
        assert not (tmp_path / "u.tlt").exists()

    def test_complete_end_to_end(self, tmp_path, capsys, rng):
        from ltensor.linalg import l_product
        from ltensor.transforms import make_spec

        dims = (16, 16, 3)
        spec = make_spec("fft", dims)
        m = l_product(rng.standard_normal((16, 2, 3)), rng.standard_normal((2, 16, 3)), spec)
        pm, pk, po, pt = (tmp_path / n for n in ("m.tlt", "mask.tlt", "out.tlt", "trace.csv"))
        write_container(pm, m)
        write_container(pk, sample_mask(dims, 0.6, 2))
        code = main(["complete", "--input", str(pm), "--mask", str(pk),
                     "--transform", "fft", "--max-iters", "300",
                     "--tol", "1e-6", "--mu-bar-ratio", "1e-6",
                     "--ground-truth", str(pm), "--trace-csv", str(pt),
                     "--out", str(po)])
        out = capsys.readouterr().out
        assert code == 0
        assert "status" in out and "RSE" in out
        assert pt.read_text().startswith("iter,mu,t,rel_change,rse,psnr")
        from ltensor.completion import rse

        assert rse(read_container(po), m) < 1e-2

    def test_complete_cprod_exit_2(self, tmp_path, capsys, rng):
        x = rng.standard_normal((4, 4, 2))
        pm, pk = tmp_path / "m.tlt", tmp_path / "mask.tlt"
        write_container(pm, x)
        write_container(pk, sample_mask((4, 4, 2), 0.5, 1))
        code = main(["complete", "--input", str(pm), "--mask", str(pk),
                     "--transform", "cprod", "--out", str(tmp_path / "o.tlt")])
        assert code == 2
        assert "unitary-scaled" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(["metrics", "--a", str(tmp_path / "nope.tlt"),
                     "--b", str(tmp_path / "nope.tlt")])
        assert code == 2

    def test_unknown_flag_exit_1(self, capsys):
        assert main(["mask", "gen", "--bogus", "1"]) == 1

    def test_no_command_exit_1(self, capsys):
        assert main([]) == 1

    def test_svt_command(self, tmp_path, rng):
        from ltensor.linalg import svt
        from ltensor.transforms import make_spec

        a = rng.standard_normal((3, 3, 2))
        pi, po = tmp_path / "a.tlt", tmp_path / "o.tlt"
        write_container(pi, a)
        assert main(["svt", "--input", str(pi), "--tau", "0.5",
                     "--transform", "dct", "--out", str(po)]) == 0
        np.testing.assert_allclose(
            read_container(po), svt(a, 0.5, make_spec("dct", a.shape)), atol=1e-12
        )

    def test_modes_list_transforms_only_those_modes(self, tmp_path, rng):
        from ltensor.linalg import l_product
        from ltensor.transforms import make_spec

        a = rng.standard_normal((2, 3, 2, 3))
        b = rng.standard_normal((3, 2, 2, 3))
        pa, pb, po = (tmp_path / n for n in ("a.tlt", "b.tlt", "out.tlt"))
        write_container(pa, a)
        write_container(pb, b)
        assert main(["product", "--a", str(pa), "--b", str(pb), "--transform", "fft",
                     "--modes", "3", "--out", str(po)]) == 0
        spec = make_spec("fft", a.shape, modes=(3,))
        np.testing.assert_allclose(read_container(po), l_product(a, b, spec), atol=1e-12)
        assert not np.allclose(read_container(po), l_product(a, b, make_spec("fft", a.shape)))

    @pytest.mark.parametrize(
        "argv",
        [
            ["svt", "--input", "a.tlt", "--tau", "1", "--transform", "dct", "--modes", "3;4", "--out", "o.tlt"],
            ["mask", "gen", "--dims", "4,x,3", "--sr", "0.5", "--seed", "1", "--out", "m.tlt"],
            ["mask", "gen", "--dims", "4,0,3", "--sr", "0.5", "--seed", "1", "--out", "m.tlt"],
        ],
    )
    def test_bad_modes_or_dims_exit_1(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        write_container("a.tlt", np.ones((2, 2, 3)))
        assert main(argv) == 1
        assert "Traceback" not in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.tlt"]

    @pytest.mark.parametrize(
        "command, outputs",
        [
            ("tsvd", ["--out-u", "u.tlt", "--out-s", "s.tlt", "--out-v", "v.tlt"]),
            ("svt", ["--tau", "1", "--out", "o.tlt"]),
        ],
    )
    def test_svd_failure_exit_2(self, tmp_path, capsys, monkeypatch, command, outputs):
        monkeypatch.chdir(tmp_path)
        a = np.ones((3, 3, 2))
        a[1, 1, 0] = np.nan
        write_container("a.tlt", a)
        assert main([command, "--input", "a.tlt", "--transform", "dct"] + outputs) == 2
        err = capsys.readouterr().err
        assert "NaN or inf" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, outputs",
        [
            ("tsvd", ["--out-u", "u.tlt", "--out-s", "s.tlt", "--out-v", "v.tlt"]),
            ("svt", ["--tau", "1", "--out", "o.tlt"]),
        ],
    )
    def test_lapack_failure_exit_2(self, tmp_path, capsys, monkeypatch, command, outputs):
        # main is the one place LAPACK non-convergence becomes an exit code
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.chdir(tmp_path)
        write_container("a.tlt", np.ones((3, 3, 2)))
        monkeypatch.setattr(np.linalg, "svd", fail)
        assert main([command, "--input", "a.tlt", "--transform", "dct"] + outputs) == 2
        err = capsys.readouterr().err
        assert err == "error: SVD did not converge\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.tlt"]

    @pytest.mark.parametrize("kind", ["fft", "cprod"])
    def test_product_on_nan_exit_2(self, tmp_path, capsys, monkeypatch, kind):
        # l_product returned NaN silently and wrote it out
        monkeypatch.chdir(tmp_path)
        a = np.ones((3, 3, 2))
        a[1, 1, 0] = np.nan
        write_container("a.tlt", a)
        argv = ["product", "--a", "a.tlt", "--b", "a.tlt", "--transform", kind, "--out", "o.tlt"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "NaN or inf" in err and "Traceback" not in err
        assert not (tmp_path / "o.tlt").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["svt", "--input", "a.tlt", "--tau", "nan", "--transform", "dct", "--out", "o.tlt"],
            ["mask", "gen", "--dims", "4,2,3", "--sr", "0.5", "--seed", "-1", "--out", "o.tlt"],
            ["product", "--a", "a.tlt", "--b", "a.tlt", "--transform", "fft", "--modes", "3,3",
             "--out", "o.tlt"],
        ],
        ids=["svt-tau-nan", "mask-negative-seed", "product-mode-twice"],
    )
    def test_bad_parameter_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        write_container("a.tlt", np.ones((2, 2, 3)))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "o.tlt").exists()

    def test_svt_on_inf_exits_2_without_hanging(self, tmp_path):
        a = np.ones((3, 3, 2))
        a[1, 1, 0] = np.inf
        write_container(tmp_path / "a.tlt", a)
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-m", "ltensor", "svt", "--input", "a.tlt", "--tau", "1",
             "--transform", "fft", "--out", "o.tlt"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2
        assert "NaN or inf" in done.stderr and "Traceback" not in done.stderr

    @pytest.mark.parametrize("kind", ["fft", "dct"])
    def test_complete_loads_no_scipy(self, tmp_path, kind):
        # importing scipy.fft took ~0.35 s of every fresh CLI call
        write_container(tmp_path / "m.tlt", np.ones((4, 5, 3)))
        write_container(tmp_path / "k.tlt", sample_mask((4, 5, 3), 0.5, 1))
        script = (
            "import sys\n"
            "from ltensor.cli import main\n"
            f"code = main(['complete', '--input', 'm.tlt', '--mask', 'k.tlt', '--transform', '{kind}',"
            " '--max-iters', '5', '--out', 'o.tlt'])\n"
            "print('scipy modules:', sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "sys.exit(code)\n"
        )
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "scipy modules: []" in done.stdout
        assert (tmp_path / "o.tlt").exists()

    @pytest.mark.parametrize("mask_dtype", [np.float64, np.float32])
    def test_complete_rejects_a_probability_mask_exit_2(self, tmp_path, capsys, mask_dtype):
        # every nonzero entry counted as observed, and the solve exited 0
        pm, pk = tmp_path / "m.tlt", tmp_path / "mask.tlt"
        write_container(pm, np.ones((4, 5, 3)))
        write_container(pk, np.random.default_rng(0).uniform(0, 1, (4, 5, 3)).astype(mask_dtype))
        code = main(["complete", "--input", str(pm), "--mask", str(pk), "--transform", "fft",
                     "--max-iters", "3", "--out", str(tmp_path / "o.tlt")])
        err = capsys.readouterr().err
        assert code == 2 and "boolean or exactly 0 or 1" in err and "Traceback" not in err
        assert not (tmp_path / "o.tlt").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, 1j])
    def test_complete_rejects_bad_ground_truth_exit_2(self, tmp_path, capsys, bad):
        # NaN or complex ground truth made every reported RSE NaN
        truth = np.ones((4, 5, 3), dtype=complex if np.iscomplexobj(bad) else float)
        truth[1, 2, 0] = bad
        pm, pk, pt = tmp_path / "m.tlt", tmp_path / "mask.tlt", tmp_path / "t.tlt"
        write_container(pm, np.ones((4, 5, 3)))
        write_container(pk, sample_mask((4, 5, 3), 0.5, 1))
        write_container(pt, truth)
        code = main(["complete", "--input", str(pm), "--mask", str(pk), "--ground-truth", str(pt),
                     "--transform", "fft", "--max-iters", "3", "--out", str(tmp_path / "o.tlt")])
        err = capsys.readouterr().err
        assert code == 2 and "ground truth" in err and "Traceback" not in err
        assert not (tmp_path / "o.tlt").exists()

    @pytest.mark.filterwarnings("error")
    def test_metrics_on_complex_containers_exit_2(self, tmp_path, capsys):
        # printed a PSNR read off the real parts, with a numpy ComplexWarning, and exited 0
        a = np.ones((2, 2, 2), dtype=complex)
        a[0, 0, 0] = 1 + 1j
        write_container(tmp_path / "a.tlt", a)
        write_container(tmp_path / "b.tlt", np.ones((2, 2, 2), dtype=complex))
        code = main(["metrics", "--a", str(tmp_path / "a.tlt"), "--b", str(tmp_path / "b.tlt")])
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "PSNR needs real tensors" in err

    @pytest.mark.parametrize("bad", [np.nan, 1j])
    def test_complete_rejects_bad_data_exit_2(self, tmp_path, capsys, bad):
        m = np.ones((4, 5, 3), dtype=complex if np.iscomplexobj(bad) else float)
        m[1, 2, 0] = bad
        pm, pk = tmp_path / "m.tlt", tmp_path / "mask.tlt"
        write_container(pm, m)
        write_container(pk, sample_mask(m.shape, 0.5, 1))
        code = main(["complete", "--input", str(pm), "--mask", str(pk), "--transform", "fft",
                     "--max-iters", "3", "--out", str(tmp_path / "o.tlt")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, changed",
        [
            ([], {}),
            (["--nu", "0.5"], {"nu": 0.5}),
            (["--mu0", "2.5"], {"mu0": 2.5}),
            (["--mu-bar-ratio", "1e-3"], {"mu_bar_ratio": 1e-3}),
            (["--tol", "1e-6"], {"tol": 1e-6}),
            (["--max-iters", "7"], {"max_iters": 7}),
            (["--reimpose-observed"], {"reimpose_observed": True}),
            (["--rse-denominator", "original"], {"rse_denominator": "original"}),
        ],
    )
    def test_complete_flags_build_the_config(self, tmp_path, monkeypatch, flags, changed):
        from ltensor.transforms import make_spec

        seen = []

        def fake_solver(m, mask, cfg, ground_truth=None):
            seen.append(cfg)
            return m, CompletionTrace(records=[IterationRecord(k=1, mu=1.0, t=1.0, rel_change=0.0)])

        monkeypatch.setattr(ltensor.completion, "pga_complete", fake_solver)
        pm, pk = tmp_path / "m.tlt", tmp_path / "mask.tlt"
        write_container(pm, np.ones((2, 2, 3)))
        write_container(pk, sample_mask((2, 2, 3), 0.5, 1))
        assert main(["complete", "--input", str(pm), "--mask", str(pk), "--transform", "dct",
                     "--out", str(tmp_path / "o.tlt")] + flags) == 0
        defaults = dict(nu=0.9, mu0=None, mu_bar_ratio=1e-4, tol=1e-4, max_iters=100,
                        reimpose_observed=False, rse_denominator="obtained")
        assert seen == [CompletionConfig(spec=make_spec("dct", (2, 2, 3)), **{**defaults, **changed})]
