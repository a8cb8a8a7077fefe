"""JSON helpers shared by the serialization code.

Complex scalars travel as ``[re, im]`` pairs of IEEE-754 doubles; matrices as
arrays of rows of such pairs. ``dumps_canonical`` fixes key order and
separators so identical data serializes to identical bytes.
"""

from __future__ import annotations

import json

import numpy as np


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def pair_to_complex(pair) -> complex:
    re, im = pair
    return complex(float(re), float(im))


def matrix_to_rows(m: np.ndarray) -> list[list[list[float]]]:
    m = np.asarray(m, dtype=np.complex128)
    return np.stack((m.real, m.imag), -1).tolist()


def rows_to_matrix(rows) -> np.ndarray:
    m = np.array([[pair_to_complex(p) for p in row] for row in rows],
                 dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
