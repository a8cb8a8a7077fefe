"""The README's library calls reproduce ``specrank check``.

``check --seed s`` certifies the rank and factors the polynomial from the
generator of seed ``s``. Starting from that seed's generator, the documented
calls ``spectral_rank``, ``char_poly``, ``cayley_hamilton_residual``,
``det_plus_one`` and ``trace`` must give what the report holds: the
polynomial, the residual and ``det(a + 1)`` exactly, the trace within
``identity_rel`` (the report sums it in record order, ``trace`` in factor
order).
"""

import json

import numpy as np
import pytest

import specrank as sr
from specrank.cli import main
from specrank.jsonio import matrix_to_rows, pair_to_complex
from conftest import make_rng


def _socle(rng, dims):
    blocks = []
    for n in dims:
        r = int(rng.integers(1, n + 1))
        g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        h = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        blocks.append(g @ h / (2.0 * n))
    return blocks


CASES = [(dims, ambient, seed)
         for dims in ((3, 5, 2, 6), (4, 3), (2,))
         for ambient in ("finite", "infinite")
         for seed in (3, 29)]


@pytest.mark.parametrize("dims, ambient, seed", CASES,
                         ids=[f"{'_'.join(map(str, d))}-{amb}-{s}" for d, amb, s in CASES])
def test_library_calls_match_check_report(tmp_path, dims, ambient, seed):
    blocks = _socle(np.random.default_rng([seed, len(dims)]), dims)
    data = {"dims": list(dims), "ambient": ambient,
            "blocks": [matrix_to_rows(b) for b in blocks]}
    path, out = tmp_path / "a.json", tmp_path / "report.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path), "--seed", str(seed), "--out", str(out)]) == 0
    report = json.loads(out.read_text())

    a = sr.Element.from_json(data)
    rng = make_rng(seed)
    cert = sr.spectral_rank(a, rng=rng)
    poly = sr.char_poly(a, rng, cert)

    assert report["rank"] == json.loads(json.dumps(cert.to_json()))
    assert report["char_poly"] == json.loads(json.dumps(poly.to_json()))
    assert report["cayley_hamilton_residual"] == sr.cayley_hamilton_residual(a, poly)
    assert pair_to_complex(report["det_plus_one"]) == sr.det_plus_one(a, poly)
    reported, traced = pair_to_complex(report["trace"]), sr.trace(poly)
    assert abs(reported - traced) <= sr.DEFAULT_TOLS.identity_rel * max(1.0, abs(reported))
