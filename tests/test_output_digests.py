"""Byte-for-byte pins of CLI outputs.

`tests/fixtures/output_digests.json` maps a CLI argument line to the
sha256 of its standard output: `svg --highlight F` for every face of A2,
B2 and G2, sc and adjoint (polygon order), `star --face F` for every face
of A3 and of adjoint B2, G2 and A3 (facet witness order), `overlap --face1
F1 --face2 F2` for every pair of
faces of A2, B2, G2, A3, B3 and C3 (double-coset representatives, their
words and translations, and pair-stabilizer orders), `parabolic --face1 F1
--face2 F2` for every non-identity arrow of A2, B2 and G2 (ambient,
Levi and nilradical roots in order), and `diagram` on B2, G2, A3, B3 and
C3 (A2 is pinned by `sl3_diagram.json`).

`tests/fixtures/verify_digests.json` maps a `verify` argument line to its
exit code and the sha256 of its standard output with every
`, "elapsed_ms": N` removed, so the pin covers each line's check name,
parameters, verdict and counterexample but not its timing.  The adjoint
and gl lines exit 1: they pin today's refusals, which the isogeny work in
ROADMAP direction 1 will change on purpose.

`tests/fixtures/rootdata_digests.json` maps a Cartan type, written
`<family><rank>-<isogeny>`, to the sha256 of each part of its root
system: the `roots` JSON (`to_json`), the Cartan matrix, and the
integer tables `grads`, `coroots`, `negation`, `positive_indices`,
`coweight_inv_num` and `coweight_inv_den`.  It covers every type that
`CartanType` accepts with rank <= 4, and sc and adjoint D5, E6, E7 and
E8.
"""

import contextlib
import hashlib
import io
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from alcoves import cli
from alcoves.rootdata import CartanType, build_root_system

FIXTURES = Path(__file__).parent / "fixtures"
DIGESTS = json.loads((FIXTURES / "output_digests.json").read_text())
VERIFY_DIGESTS = json.loads((FIXTURES / "verify_digests.json").read_text())
ROOTDATA_DIGESTS = json.loads(
    (FIXTURES / "rootdata_digests.json").read_text())


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


def rootdata_digests(rs):
    """The sha256 of each pinned part of a root system, by name."""
    parts = {
        "to_json": rs.to_json(),
        "cartan": [[str(c) for c in row] for row in rs.cartan],
        "grads": rs.grads,
        "coroots": rs.coroots,
        "negation": rs.negation,
        "positive_indices": rs.positive_indices,
        "coweight_inv_num": rs.coweight_inv_num,
        "coweight_inv_den": rs.coweight_inv_den,
    }
    return {k: sha256(json.dumps(v, sort_keys=True))
            for k, v in parts.items()}


@pytest.mark.parametrize("label", sorted(ROOTDATA_DIGESTS))
def test_rootdata_digest(label):
    m = re.fullmatch(r"([A-G])(\d)-(\w+)", label)
    rs = build_root_system(CartanType(m[1], int(m[2]), m[3]))
    assert rootdata_digests(rs) == ROOTDATA_DIGESTS[label]
    # the public fields keep their types: Fractions, and ints in the
    # integer tables
    fracs = (rs.cartan, rs.simple_roots, rs.simple_coroots, rs.all_roots,
             rs.inner_product_matrix, (rs.highest_root,),
             rs.coweight_lattice_basis)
    assert all(type(c) is Fraction for rows in fracs for r in rows for c in r)
    ints = (rs.grads, rs.coroots, rs.coweight_inv_num,
            (rs.negation, rs.positive_indices, (rs.coweight_inv_den,)))
    assert all(type(c) is int for rows in ints for r in rows for c in r)
