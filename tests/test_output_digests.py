"""Byte-for-byte pins of CLI outputs.

`tests/fixtures/output_digests.json` maps a CLI argument line to the
sha256 of its standard output: `svg --highlight F` for every face of A2,
B2 and G2 (polygon order), `star --face F` for every face of A3 (facet
witness order), `overlap --face1 F1 --face2 F2` for every pair of
faces of A2, B2 and G2 (double-coset representatives, their words and
translations, and pair-stabilizer orders), `parabolic --face1 F1
--face2 F2` for every non-identity arrow of A2, B2 and G2 (ambient,
Levi and nilradical roots in order), and `diagram` on B2, G2, A3, B3 and
C3 (A2 is pinned by `sl3_diagram.json`).

`tests/fixtures/verify_digests.json` maps a `verify` argument line to its
exit code and the sha256 of its standard output with every
`, "elapsed_ms": N` removed, so the pin covers each line's check name,
parameters, verdict and counterexample but not its timing.  The adjoint
and gl lines exit 1: they pin today's refusals, which the isogeny work in
ROADMAP direction 1 will change on purpose.
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from alcoves import cli

FIXTURES = Path(__file__).parent / "fixtures"
DIGESTS = json.loads((FIXTURES / "output_digests.json").read_text())
VERIFY_DIGESTS = json.loads((FIXTURES / "verify_digests.json").read_text())


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv.split())
    return code, buf.getvalue()


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(DIGESTS))
def test_output_digest(argv):
    code, out = run(argv)
    assert code == 0
    assert sha256(out) == DIGESTS[argv]


@pytest.mark.parametrize("argv", sorted(VERIFY_DIGESTS))
def test_verify_digest(argv):
    code, out = run(argv)
    assert code == VERIFY_DIGESTS[argv]["exit"]
    assert sha256(re.sub(r', "elapsed_ms": \d+', "", out)) == \
        VERIFY_DIGESTS[argv]["sha256"]
