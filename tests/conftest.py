import numpy as np
import pytest

from remtrack import autodiff as ad
from remtrack.autodiff import ParameterStore
from remtrack.geometry import BoundingBox
from remtrack.rem import RemParameters
from remtrack.tracker import TrackerParameters


def make_model(dim=8, app_dim=6, seed=0):
    """Small randomly initialized model for unit tests."""
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    rem_params = RemParameters.create(store, dim=dim, rng=rng)
    trk_params = TrackerParameters.create(store, rel_dim=dim, app_dim=app_dim, rng=rng)
    return store, rem_params, trk_params


def make_rem(dim=8, seed=0):
    store = ParameterStore()
    rem_params = RemParameters.create(store, dim=dim, rng=np.random.default_rng(seed))
    return store, rem_params


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def weighted_sum(x, c):
    """sum(x * c) as one tape node, a scalar loss over a matrix of rows."""
    return ad._make(np.asarray(np.sum(x.data * c)), (x,), lambda g: (g * c,))


def frame_box(frame, i):
    """Instance ``i``'s box in the graph frame ``frame``, as a record."""
    (q,) = np.flatnonzero(frame.ids == i)
    return BoundingBox(*frame.boxes[q].tolist())
