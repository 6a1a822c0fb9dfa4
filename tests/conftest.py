import numpy as np
import pytest

from headcount import Frame


@pytest.fixture
def rng():
    return np.random.default_rng(20250811)


def make_frame(pixels, index=0):
    arr = np.asarray(pixels, dtype=np.uint8)
    return Frame(index=index, pixels=arr)


def uniform_frame(width, height, value, index=0):
    return make_frame(np.full((height, width), value, dtype=np.uint8), index=index)
