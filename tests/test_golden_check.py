"""Byte-identity guard for ``specrank check`` reports.

A check report holds the rank certificate with its winning witness, the
multiplicity votes, the factored polynomial, the residual, the trace and
``det(a + 1)``. Performance work on witness sampling must leave all of it
unchanged, so this pins the SHA-256 of the report for a few fixed elements:
socle elements in both ambients, a graded block and a near-coalescing pair.
A change that alters these bytes must say why and re-pin the hashes. A
second hash per element pins the parsed content alone, so a change of
layout moves only the byte pins.
"""

import hashlib
import json

import numpy as np
import pytest

from specrank.cli import main
from specrank.jsonio import dumps_canonical, matrix_to_rows

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
        "37afd185b5fa5b8942af429e5940d87d34f80e9f3f91635e2945850b9a631d61",
    "socle_3526_infinite":
        "8ecaa93e52cb76e78d2521e7bc500056e5f1042101ef049164fc03344a121ee4",
    "socle_16_8_finite":
        "33db4258142851b96f546914483304bde6f1a818215be64a71b0af1b7ab5d477",
    "socle_16_8_infinite":
        "469cfc27d7334cae7f2ba66819b63139c59618bb74ba09cd37c6ce321eab8ef9",
    "socle_4_3_infinite":
        "63d36fe03496cbb2030559272008052dd37fba2ed679d446cc46e606733ccf6d",
    "socle_2_finite":
        "b58bee66f6271e2d3a816e32f3c0d9fcb2deb7e0e8a9fd94d7c9fc0689fb2556",
    "graded_1e3":
        "d7ee1fd17b65e25e0d387fb389cdf529e9c784fcd314ef9880a11e7efcd4636c",
    "coalesce_1e-4":
        "202c30daa81404db4b5a5681f8f265e0aa23aaad69f77b9ffc4f475dc1985e27",
}


# SHA-256 of each report's parsed content, re-encoded by dumps_canonical:
# these pin the numbers alone, whatever the report's layout
GOLDEN_CONTENT_SHA256 = {
    "socle_3526_finite":
        "846e43d71e8e9d09b70c4f7e08f2a6b511b1514ce4457b74e8a79f3cfaa674dc",
    "socle_3526_infinite":
        "d435fecbfb622bb64059468ee6ad912496bd62a13db5e2fd1de5a45bfef4c16f",
    "socle_16_8_finite":
        "93a1ba7a2a940e03b5af4b6c956bbf15fff5986fbe92a2d12ccd4355c7690c6c",
    "socle_16_8_infinite":
        "6211dc0eb0c6da3fcefe96414c544e006ebda7216af2746e2d93c959534a0285",
    "socle_4_3_infinite":
        "6e2b3a4281f26757b5f9ea4fdaa53529aa3552634e3ecc9eaa8bfe616e506323",
    "socle_2_finite":
        "271f8cd0331a5830a8bba0806ef0c97337aa0f27c2c3e7410f2cfeaf556b03c8",
    "graded_1e3":
        "8381b9012f85c2b83ffa6242da14144239eca8d0d5628b1b7a428e21510b91d2",
    "coalesce_1e-4":
        "dbae43d5d396dbc933415616aa4f9f61020ae487f86e9a1cda914523c08818b0",
}


def check_report(tmp_path, name, blocks, ambient) -> bytes:
    element = tmp_path / f"{name}.json"
    element.write_text(json.dumps(
        {"dims": [b.shape[0] for b in blocks], "ambient": ambient,
         "blocks": [matrix_to_rows(b) for b in blocks]}))
    out = tmp_path / f"{name}.report.json"
    code = main(["check", str(element), "--seed", str(CHECK_SEED),
                 "--out", str(out)])
    assert code == 0
    return out.read_bytes()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name, blocks, ambient", golden_elements(),
                         ids=[e[0] for e in golden_elements()])
def test_check_report_bytes_are_pinned(tmp_path, name, blocks, ambient):
    assert _sha256(check_report(tmp_path, name, blocks, ambient)) == GOLDEN_SHA256[name]


@pytest.mark.parametrize("name, blocks, ambient", golden_elements(),
                         ids=[e[0] for e in golden_elements()])
def test_check_report_content_is_pinned(tmp_path, name, blocks, ambient):
    content = dumps_canonical(json.loads(check_report(tmp_path, name, blocks, ambient)))
    assert _sha256(content.encode()) == GOLDEN_CONTENT_SHA256[name]
