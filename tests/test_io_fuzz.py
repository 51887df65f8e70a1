"""Fuzzing the readers: malformed input must raise FormatError and nothing else."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ltensor.errors import FormatError
from ltensor.io import MAGIC, _read_ppm, read_container

# tmp_path is shared by the examples of one test; each example rewrites the file.
FUZZ = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
DIMS = [0, 1, 2, 2**32, 2**63, 2**64 - 1]


@st.composite
def containers(draw):
    order = draw(st.integers(0, 9))
    dims = draw(st.lists(st.sampled_from(DIMS), min_size=order, max_size=order))
    code = draw(st.integers(0, 5))
    header = MAGIC + bytes([order]) + np.array(dims, dtype="<u8").tobytes() + bytes([code])
    cut = draw(st.one_of(st.just(len(header)), st.integers(4, len(header))))
    return header[:cut] + draw(st.one_of(st.just(b""), st.binary(max_size=64)))


@st.composite
def ppms(draw):
    sizes = st.one_of(st.sampled_from(DIMS), st.integers(0, 4), st.integers(0, 2**70))
    width, height = draw(sizes), draw(sizes)
    maxval = draw(st.one_of(st.just(255), st.integers(0, 2**20)))
    exact = width * height * 3 <= 64 and draw(st.booleans())
    payload = draw(st.binary(min_size=width * height * 3, max_size=width * height * 3) if exact
                   else st.binary(max_size=64))
    return f"P6\n{width} {height}\n{maxval}\n".encode() + payload


def _read_or_format_error(reader, path, data):
    path.write_bytes(data)
    try:
        assert isinstance(reader(path), np.ndarray)
    except FormatError:
        pass


@FUZZ
@given(data=containers())
def test_read_container_raises_only_format_error(tmp_path, data):
    _read_or_format_error(read_container, tmp_path / "x.tlt", data)


@FUZZ
@given(data=ppms())
def test_read_ppm_raises_only_format_error(tmp_path, data):
    _read_or_format_error(_read_ppm, tmp_path / "x.ppm", data)
