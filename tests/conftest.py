import numpy as np
import pytest

from specrank.numkernel import cluster, eig, riesz_projection, settle


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


@pytest.fixture
def rng():
    return make_rng(1234)


def cluster_one(values, tol):
    """``cluster`` of one row of values at ``tol``."""
    return cluster(np.asarray(values, dtype=np.complex128).reshape(1, -1), [tol])[0]


def project(m, center, radius, values=None):
    """``riesz_projection`` for the one contour around ``center``, with the
    eigenvalues of ``m`` computed when not given; a rejected contour raises
    its ``ContourError``."""
    values = eig(m) if values is None else values
    return settle(riesz_projection(m, [center], radius, values)[0])
