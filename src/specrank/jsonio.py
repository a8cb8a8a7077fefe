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


_NUMBERS = frozenset((int, float))  # a bool is not a JSON number


def pair_to_complex(pair) -> complex:
    """A ``[re, im]`` pair of JSON numbers, not bools or strings, as a complex."""
    re, im = pair
    if type(re) in _NUMBERS and type(im) in _NUMBERS:
        return complex(re, im)
    raise ValueError(f"expected a [re, im] pair of numbers, got {pair!r}")


def matrix_to_rows(m: np.ndarray) -> list[list[list[float]]]:
    m = np.asarray(m, dtype=np.complex128)
    return np.stack((m.real, m.imag), -1).tolist()


def rows_to_matrix(rows) -> np.ndarray:
    """Rows of ``[re, im]`` pairs as a complex array; the ``Element`` it
    becomes a block of checks that it is square."""
    return np.array([[pair_to_complex(p) for p in row] for row in rows],
                    dtype=np.complex128)


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
