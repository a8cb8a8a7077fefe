"""Batched clustering against the one-row pair loop it replaces.

``numkernel.cluster`` clusters a ``(k, N)`` stack of values, one tolerance
per row, with the pair distances of all rows as one numpy array. The
reference below is the pure-Python union-find loop it replaced, one row at a
time. Every row must come out equal to the bit: the same values (signed
zeros included), counts, order and tolerance, or the same ``NonFiniteError``.
"""

import cmath
import struct

import numpy as np
import pytest

import specrank.algebra as algebra
import specrank.numkernel as numkernel
from specrank.algebra import AlgebraShape
from specrank.config import DEFAULT_TOLS
from specrank.numkernel import ClusteredSpectrum, NonFiniteError, cluster
from conftest import cluster_one, make_rng


def reference_cluster(values, tol):
    if tol <= 0:
        raise ValueError("cluster tolerance must be positive")
    vals = [complex(v) for v in np.asarray(values, dtype=np.complex128).ravel()]
    if not vals:
        return ClusteredSpectrum(points=(), tol=tol)

    parent = list(range(len(vals)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    try:
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if abs(vals[i] - vals[j]) <= tol:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[rj] = ri
    except OverflowError as exc:
        raise NonFiniteError(f"distance between spectral values: {exc}") from exc

    groups = {}
    for i, v in enumerate(vals):
        groups.setdefault(find(i), []).append(v)
    points = [(sum(g) / len(g), len(g)) for g in groups.values()]

    merged = True
    while merged and len(points) > 1:
        merged = False
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                if abs(points[i][0] - points[j][0]) <= tol:
                    (vi, ci), (vj, cj) = points[i], points[j]
                    points[i] = ((vi * ci + vj * cj) / (ci + cj), ci + cj)
                    del points[j]
                    merged = True
                    break
            if merged:
                break

    if not all(cmath.isfinite(v) for v, _ in points):
        raise NonFiniteError("cluster mean overflowed to a non-finite value")
    points.sort(key=lambda p: (p[0].real, p[0].imag))
    return ClusteredSpectrum(points=tuple(points), tol=tol)


def bits(spec):
    return ([(struct.pack("<dd", v.real, v.imag), c) for v, c in spec.points],
            struct.pack("<d", spec.tol))


def outcome(fn):
    try:
        return [bits(s) for s in fn()], None
    except NonFiniteError as exc:
        return None, str(exc)


def assert_rows_match(rows, tols):
    rows = np.asarray(rows, dtype=np.complex128)
    got = outcome(lambda: cluster(rows, tols))
    want = outcome(lambda: [reference_cluster(r, t) for r, t in zip(rows, tols)])
    assert got == want
    return got


def random_rows(rng, k, n, zeros=0):
    """Gaussian values, the last ``zeros`` of each row shrunk into a clique
    near 0, as in the product of a rank-deficient element."""
    rows = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    rows[:, n - zeros:] *= 1e-17
    return rows


@pytest.mark.parametrize("seed", range(20))
def test_random_rows(seed):
    rng = make_rng(seed)
    k, n = int(rng.integers(1, 8)), int(rng.integers(1, 25))
    rows = random_rows(rng, k, n, zeros=int(rng.integers(0, n + 1)))
    # tolerances from separating everything to merging most pairs
    tols = list(10.0 ** rng.uniform(-9, 0.3, size=k))
    assert_rows_match(rows, tols)


def test_rows_match_one_row_calls():
    rng = make_rng(3)
    rows = random_rows(rng, 6, 12, zeros=5)
    tols = [1e-8, 0.3, 1e-8, 0.5, 2.0, 1e-12]
    assert cluster(rows, tols) == [cluster_one(r, t) for r, t in zip(rows, tols)]


def test_pairs_at_tolerance_within_ulps():
    """Pairs whose distance is the tolerance to a few ulps, at magnitudes
    from 1e-300 to 1e300: numpy's complex abs and Python's differ in the
    last bit on some of them, and the decision must be Python's."""
    rng = make_rng(11)
    disagree = 0
    for scale in [1.0, 1e-300, 1e-150, 1e150, 1e300] * 8:
        rows, tols = [], []
        for _ in range(6):
            row = random_rows(rng, 1, 8)[0] * scale
            d = row[1] - row[0]
            py, np_abs = abs(complex(d)), float(np.abs(d))
            disagree += py != np_abs
            tol = (py, np_abs)[int(rng.integers(2))]
            tols.append(tol * (1.0 + int(rng.integers(-3, 4)) * 2.0 ** -52))
            rows.append(row)
        assert_rows_match(rows, tols)
        # the same rows with the tolerance exactly at each side's distance
        exact = [abs(complex(r[1] - r[0])) for r in rows]
        assert_rows_match(rows, exact)
        assert_rows_match(rows, [float(np.abs(r[1] - r[0])) for r in rows])
    assert disagree  # numpy's complex abs would decide some pairs otherwise


def test_chained_clusters_are_remerged():
    # -0.5 and 0.5 link at distance 1; 0.95i is farther than 1 from both, but
    # within 1 of their mean 0, so the means merge; likewise 1.4 + 0.95i and
    # the chain 0, 0.9, 1.9, 2.8 of mean 1.4
    rows = [[-0.5, 0.5, 0.95j, 5.0, 9.0], [0.0, 0.9, 1.9, 2.8, 1.4 + 0.95j],
            [3.0, 0.0, 1.0, 2.0, 4.0]]
    got, _ = assert_rows_match(rows, [1.0, 1.0, 1.0])
    assert [[c for _, c in points] for points, _ in got] == [[3, 1, 1], [5], [5]]
    rng = make_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        chain = np.cumsum(rng.uniform(0.5, 1.0, n))
        rows = [np.concatenate([chain, [chain.mean() + 1j * rng.uniform(0.8, 1.2)]])
                for _ in range(3)]
        assert_rows_match(rows, [1.0, 1.0, 1.0])


def test_shuffled_chains():
    """A chain whose values are numbered out of order takes several label
    passes to settle on its lowest index."""
    rng = make_rng(9)
    for _ in range(10):
        n = int(rng.integers(10, 60))
        rows = []
        for _ in range(4):
            chain = np.cumsum(rng.uniform(0.5, 0.99, n)) * np.exp(1j * rng.uniform(0, 6))
            rows.append(rng.permutation(np.concatenate([chain, chain[::7] + 50.0])))
        got, _ = assert_rows_match(rows, [1.0] * 4)
        assert all(points[0][1] == n for points, _ in got)


@pytest.mark.parametrize("budget", [1, 2 * 6 * 6, 3 * 6 * 6])
def test_rounds_split_into_chunks(monkeypatch, budget):
    """Rows clustered a chunk at a time give what one chunk gives, and the
    first failing row's error is still the one raised."""
    monkeypatch.setattr(numkernel, "_PAIR_BUDGET", budget)
    rng = make_rng(17)
    rows = random_rows(rng, 7, 6, zeros=3)
    tols = list(10.0 ** rng.uniform(-9, 0.3, size=7))
    assert_rows_match(rows, tols)
    mean = [1.5e308, 1.5e308 * (1 + 1e-12), 1.0, 0, 0, 0]
    distance = [1.5e308, -1.5e308j, 1.0, 0, 0, 0]
    for bad in ([1, 5], [5, 1], [2, 3]):
        rows_bad = rows.copy()
        rows_bad[bad[0]], rows_bad[bad[1]] = mean, distance
        _, error = assert_rows_match(rows_bad, [1e300] * 7)
        assert error


def test_long_rows():
    """Rows of a few hundred values, one chunk each, as in the spectrum of a
    large element: a near-zero clique and a spread of distinct values."""
    rng = make_rng(23)
    rows = random_rows(rng, 3, 400, zeros=150)
    assert_rows_match(rows, [1e-8, 1e-8, 0.05])


def test_empty_and_single_value_rows():
    assert_rows_match(np.empty((3, 0)), [1e-8, 1.0, 0.5])
    assert cluster(np.empty((3, 0)), [1e-8, 1.0, 0.5]) == [
        ClusteredSpectrum(points=(), tol=t) for t in (1e-8, 1.0, 0.5)]
    assert cluster(np.empty((0, 4)), []) == []
    assert_rows_match([[2.0 - 1.0j], [-0.0 - 0.0j], [1e300]], [1e-8, 1e-8, 1e-8])
    assert bits(cluster_one([], 1e-8)) == bits(reference_cluster([], 1e-8))
    assert bits(cluster_one([-0.0j], 1e-8)) == bits(reference_cluster([-0.0j], 1e-8))


@pytest.mark.parametrize("bad, match", [
    # |1.5e308 + 1.5e308j| overflows although both components are finite
    ([1.5e308, -1.5e308j, 1.0], "distance"),
    ([1.5e308, 1.5e308 * (1 + 1e-12), 1.0], "cluster mean"),
])
def test_overflowing_rows_raise_the_same_error(bad, match):
    good = [1.0, 2.0, 3.0]
    tols = [1e300, 1e300]
    for rows in ([bad, good], [good, bad]):
        _, error = assert_rows_match(rows, tols)
        assert match in error
    # with two failing rows the first one's error is raised
    mean, distance = [1.5e308, 1.5e308 * (1 + 1e-12), 1.0], [1.5e308, -1.5e308j, 1.0]
    for rows in ([mean, distance], [distance, mean]):
        assert_rows_match(rows, tols)
    with pytest.raises(NonFiniteError, match=match):
        cluster_one(bad, 1e300)
    # a difference with an infinite component is a far pair, not an error
    got, error = assert_rows_match([[1e308, -1e308, 1.0]], [1e300])
    assert error is None and len(got[0][0]) == 3


def test_one_tolerance_per_row():
    with pytest.raises(ValueError, match="one tolerance per row"):
        cluster(np.zeros((3, 2)), [1e-8, 1e-8])
    with pytest.raises(ValueError, match="positive"):
        cluster(np.zeros((2, 2)), [1e-8, 0.0])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_round_spectra_raise_the_first_rows_error():
    """``algebra._spectra_of`` clusters a round in one call, yet raises what
    the rows' own calls would raise first, in row order."""
    shape = AlgebraShape(dims=(2,))
    radius = [1.5e308 + 1.5e308j, 1.0]  # |v| overflows: no tau
    distance = [1.5e308, -1.5e308j]  # finite |v|, overflowing distance
    good = [1.0, 2.0]

    def first_error(rows):
        for row in rows:
            try:
                algebra._spectra_of(np.array([row], dtype=np.complex128), shape,
                                    DEFAULT_TOLS)
            except NonFiniteError as exc:
                return str(exc)

    for rows in ([good, radius], [radius, distance], [distance, radius],
                 [good, distance, radius]):
        with pytest.raises(NonFiniteError) as info:
            algebra._spectra_of(np.array(rows, dtype=np.complex128), shape,
                                DEFAULT_TOLS)
        assert str(info.value) == first_error(rows)
