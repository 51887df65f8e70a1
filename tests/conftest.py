import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def eigh_shapes(monkeypatch):
    """The shape of every stack that np.linalg.eigh factors, in call order."""
    shapes, eigh = [], np.linalg.eigh

    def recording(x, *args, **kwargs):
        shapes.append(x.shape)
        return eigh(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return shapes


def random_shape(rng, min_order=3, max_order=5, max_dim=4):
    order = int(rng.integers(min_order, max_order + 1))
    return tuple(int(d) for d in rng.integers(1, max_dim + 1, size=order))


def synthetic_video(dims):
    """A smooth moving-gradient video in [0, 1], as the benchmark and the example scripts make it."""
    h, w, c, t = dims
    yy = np.linspace(0, 1, h)[:, None]
    xx = np.linspace(0, 1, w)[None, :]
    video = np.zeros(dims)
    for ti in range(t):
        phase = 2 * np.pi * ti / t
        for ci in range(c):
            base = (0.45 + 0.25 * np.sin(2 * np.pi * yy + phase + ci)
                    + 0.2 * np.cos(2 * np.pi * xx - 0.5 * phase + 0.3 * ci)
                    + 0.08 * np.sin(6 * np.pi * yy) * np.cos(6 * np.pi * xx))
            video[:, :, ci, ti] = base
    lo, hi = video.min(), video.max()
    return (video - lo) / (hi - lo)
