"""Byte-for-byte pins of outputs whose order follows the reflection closure.

`tests/fixtures/output_digests.json` maps a CLI argument line to the
sha256 of its standard output: `svg --highlight F` for every face of A2,
B2 and G2 (polygon order), `star --face F` for every face of A3 (facet
witness order), and `overlap --face1 F1 --face2 F2` for every pair of
faces of A2, B2 and G2 (double-coset representatives, their words and
translations, and pair-stabilizer orders).
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from alcoves import cli

DIGESTS = json.loads(
    (Path(__file__).parent / "fixtures" / "output_digests.json").read_text()
)


@pytest.mark.parametrize("argv", sorted(DIGESTS))
def test_output_digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv.split()) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == DIGESTS[argv]
