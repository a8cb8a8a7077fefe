"""Byte-identity guard for ``specrank check`` reports.

A check report holds the rank certificate with its winning witness, the
multiplicity votes, the factored polynomial, the residual, the trace and
``det(a + 1)``. Performance work on witness sampling must leave all of it
unchanged, so this pins the SHA-256 of the report for a few fixed elements:
socle elements in both ambients, a graded block and a near-coalescing pair.
A change that alters these bytes must say why and re-pin the hashes.
"""

import hashlib
import json

import numpy as np
import pytest

from specrank.cli import main
from specrank.jsonio import matrix_to_rows

CHECK_SEED = 11


def _ginibre(rng, n, m):
    g = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return g / np.sqrt(2.0 * n)


def _socle(rng, dims):
    blocks = []
    for n in dims:
        r = int(rng.integers(0, n + 1))
        blocks.append(_ginibre(rng, n, r) @ _ginibre(rng, r, n) if r
                      else np.zeros((n, n), dtype=np.complex128))
    return blocks


def _graded(rng, dims, j, scale):
    blocks = [_ginibre(rng, n, n) for n in dims]
    diag = np.zeros(dims[j], dtype=np.complex128)
    diag[0], diag[1] = scale, 0.5
    blocks[j] = np.diag(diag)
    return blocks


def _coalescing(rng, dims, j, gap):
    blocks = [_ginibre(rng, n, n) for n in dims]
    lam = np.exp(2j * np.pi * rng.random())
    diag = np.zeros(dims[j], dtype=np.complex128)
    diag[0], diag[1] = lam, lam * (1.0 + gap)
    s = np.eye(dims[j]) + _ginibre(rng, dims[j], dims[j])
    blocks[j] = s @ np.diag(diag) @ np.linalg.inv(s)
    return blocks


def golden_elements():
    """(name, blocks, ambient) for each pinned element."""
    rng = np.random.default_rng(20240)
    return [
        ("socle_3526_finite", _socle(rng, (3, 5, 2, 6)), "finite"),
        ("socle_3526_infinite", _socle(rng, (3, 5, 2, 6)), "infinite"),
        ("socle_16_8_finite", _socle(rng, (16, 8)), "finite"),
        ("socle_16_8_infinite", _socle(rng, (16, 8)), "infinite"),
        ("socle_4_3_infinite", _socle(rng, (4, 3)), "infinite"),
        ("socle_2_finite", _socle(rng, (2,)), "finite"),
        ("graded_1e3", _graded(rng, (3, 5, 2, 6), 1, 1e3), "finite"),
        ("coalesce_1e-4", _coalescing(rng, (16, 8), 1, 1e-4), "infinite"),
    ]


GOLDEN_SHA256 = {
    "socle_3526_finite":
        "5f2e34c07ea955b7f88e249f2a673c9a66c672039d5e65cfa7e9d6da0b986d8b",
    "socle_3526_infinite":
        "a0fe4e1a700ae75a896c7d25ccbc177e99ac97222f9310c9b6663878eb62bea4",
    "socle_16_8_finite":
        "8c57647a0571d1d464bde5f8e74c8aabc04122ff40d69497dec5d86bbebbb491",
    "socle_16_8_infinite":
        "e4d9fbdf89f78aeba26d39b10ebf69525674ecaf408af7e168fe173a7a5d3530",
    "socle_4_3_infinite":
        "9b5da4870f6b5059c72a1fb3abef806decab9e0c08ea03525d0d2a5b294b2f55",
    "socle_2_finite":
        "817fcd5f4be92e759dcab6b438c20d38334b14654162b978544111f9705b795e",
    "graded_1e3":
        "883e95a0ed26b921be8523c788ddba9d582e8c50dcfcf33113470964b223faf3",
    "coalesce_1e-4":
        "29695bf764e8b689bcb205ceb6c17cf888c2aac5030eaefb1de73903997db7f8",
}


def check_report_sha256(tmp_path, name, blocks, ambient) -> str:
    element = tmp_path / f"{name}.json"
    element.write_text(json.dumps(
        {"dims": [b.shape[0] for b in blocks], "ambient": ambient,
         "blocks": [matrix_to_rows(b) for b in blocks]}))
    out = tmp_path / f"{name}.report.json"
    code = main(["check", str(element), "--seed", str(CHECK_SEED),
                 "--out", str(out)])
    assert code == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name, blocks, ambient", golden_elements(),
                         ids=[e[0] for e in golden_elements()])
def test_check_report_bytes_are_pinned(tmp_path, name, blocks, ambient):
    assert check_report_sha256(tmp_path, name, blocks, ambient) == GOLDEN_SHA256[name]
