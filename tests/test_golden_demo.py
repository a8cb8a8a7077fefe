"""Byte-identity guard for ``specrank demo`` output.

Each worked example prints a JSON document built from the factored
polynomial, the rank certificate and the identity walk. Refactoring the demo
builders must leave those bytes unchanged, so this pins the SHA-256 of
``specrank demo <name> --format json --seed 20240`` on stdout. A change that
alters these bytes must say why and re-pin the hashes.
"""

import hashlib

import pytest

from specrank.cli import DEMO_NAMES, main

DEMO_SEED = 20240

GOLDEN_SHA256 = {
    "m3_example":
        "50be283a3fdb37543b26675293ed17db765df5cca9e7fd19cd7ec263e1da0801",
    "zero_example":
        "51d5775582518c03f6dbca7c5033e205fc05312944fe6282a4169e692d24582e",
    "c3_naive_det":
        "860d7aced3b8c274865c33f3ca496be6b00f354463b55eb61a28dd51d3af4c2b",
    "ch_walkthrough":
        "b8ed5ae41f91655409cba25ae55f36fedad439797f4f1c70be7e6a5b119707df",
}


def test_every_demo_is_pinned():
    assert set(GOLDEN_SHA256) == set(DEMO_NAMES)


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demo_json_bytes_are_pinned(capsys, name):
    assert main(["demo", name, "--format", "json", "--seed", str(DEMO_SEED)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_SHA256[name]
