"""The per-face caches: W_J, the Levi data, the star's facet witnesses and
the root scan of `parabolics`, each built once per (root system, face).

A cached value must equal the value built afresh on every face of every
sc type of rank <= 4; a second `verify` run in one process must make no
W scan at a face witness; and a refusal must be raised on every call,
with nothing cached for it.
"""

import json

import pytest

from alcoves import centralizer, cli, parabolic, ratmat, weylaff
from alcoves.alcove import faces_of_alcove
from alcoves.centralizer import ExpPoint, centralizer_elliptic, \
    centralizer_face
from alcoves.parabolic import parabolics
from alcoves.rootdata import (
    FAMILIES,
    CartanType,
    InvalidCartanType,
    build_root_system,
)
from alcoves.weylaff import (
    stabilizer_of_face,
    stabilizer_of_point,
    star_facet_witnesses,
)


def _accepted(family, rank):
    try:
        CartanType(family, rank)
    except InvalidCartanType:
        return False
    return True


SC_TYPES = [(f, r) for f in FAMILIES for r in range(1, 5) if _accepted(f, r)]


def test_every_sc_type_of_rank_at_most_4_is_listed():
    assert len(SC_TYPES) == 14


@pytest.mark.parametrize("family,rank", SC_TYPES,
                         ids=[f"{f}{r}" for f, r in SC_TYPES])
def test_cached_face_data_equals_fresh(family, rank):
    rs = build_root_system(CartanType(family, rank))
    cat = faces_of_alcove(rs)
    zero = ratmat.zeros(rs.dim)
    table = parabolics(rs, cat.faces, cat.arrows)
    wits = {f: star_facet_witnesses(rs, f) for f in cat.faces}
    for f in cat.faces:
        stab = stabilizer_of_face(rs, f)
        assert stab == stabilizer_of_point(rs, f.witness)
        assert stabilizer_of_face(rs, f) is stab
        assert stab.element_set() is stab.element_set()
        data = centralizer_face(rs, f)
        assert data == centralizer_elliptic(rs, ExpPoint(zero, f.witness))
        assert centralizer_face(rs, f) is data
        # W_s at the face witness is W_J: the same elements in the same
        # order
        assert data.w == stab and data.w.elements == stab.elements
        again = star_facet_witnesses(rs, f)
        assert again == wits[f] and again is not wits[f]
    second = parabolics(rs, cat.faces, cat.arrows)
    assert second == table
    assert all(second[k].ambient is table[k].ambient
               and second[k].levi is table[k].levi for k in table)
    weylaff._star_witnesses.cache_clear()
    parabolic._face_scan.cache_clear()
    assert {f: star_facet_witnesses(rs, f) for f in cat.faces} == wits
    assert parabolics(rs, cat.faces, cat.arrows) == table


def test_shape_cells_match_the_simple_root_coordinates():
    """Each root of A_{n-1} is e_i - e_j at its cell (i, j): its
    simple-root coordinates are 1 on alpha_i, ..., alpha_{j-1} for
    i < j, and -1 on alpha_j, ..., alpha_{i-1} for i > j."""
    for rank in (1, 2, 3, 4):
        rs = build_root_system(CartanType("A", rank))
        cells = centralizer._shape_cells(rs)
        assert centralizer._shape_cells(rs) is cells
        for c, (i, j) in zip(rs.all_roots, cells):
            lo, hi, sign = (i, j, 1) if i < j else (j, i, -1)
            assert list(c) == [sign * (lo <= k < hi) for k in range(rank)]


# -- a second run in one process ----------------------------------------------


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, [{k: v for k, v in json.loads(line).items()
                   if k != "elapsed_ms"} for line in out.splitlines()]


def _count_face_scans(monkeypatch):
    """Patch `int_weyl_test`, the one W test, behind every W-scan group;
    the returned list gets the pairs of each W test made inside
    `stabilizer_of_face` or `centralizer_face`: a test at a face witness
    for face data.  Tests at sampled points that happen to be face
    witnesses are not counted."""
    calls, depth = [], [0]
    test = weylaff.int_weyl_test

    def counting(r, d, fixed, pairs, lattice=()):
        if depth[0]:
            calls.append(pairs)
        return test(r, d, fixed, pairs, lattice)

    def inside(fn):
        def wrapped(*args):
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return wrapped

    monkeypatch.setattr(weylaff, "int_weyl_test", counting)
    monkeypatch.setattr(weylaff, "stabilizer_of_face",
                        inside(weylaff.stabilizer_of_face))
    monkeypatch.setattr(centralizer, "centralizer_face",
                        inside(centralizer.centralizer_face))
    return calls


def test_second_verify_stars_run_scans_no_face_witness(capsys, monkeypatch):
    calls = _count_face_scans(monkeypatch)
    argv = ["verify", "stars", "--type", "A", "--rank", "2", "--seed", "7",
            "--samples", "20"]
    first = _run(capsys, argv)
    del calls[:]
    assert _run(capsys, argv) == first and first[0] == 0
    assert calls == []


def test_second_verify_centralizer_run_scans_no_face_witness(capsys,
                                                             monkeypatch):
    calls = _count_face_scans(monkeypatch)
    vanishing = []
    roots = centralizer.vanishing_affine_roots
    monkeypatch.setattr(centralizer, "vanishing_affine_roots",
                        lambda r, pts: vanishing.append(pts) or roots(r, pts))
    argv = ["verify", "centralizer", "--type", "A", "--rank", "2", "--seed",
            "7", "--samples", "20"]
    first = _run(capsys, argv)
    del calls[:], vanishing[:]
    assert _run(capsys, argv) == first and first[0] == 0
    assert calls == [] and vanishing == []


# -- refusals -------------------------------------------------------------------


@pytest.mark.parametrize("isogeny", ["adjoint", "gl"])
def test_refusals_are_raised_on_every_call(isogeny):
    rs = build_root_system(CartanType("A", 2, isogeny))
    f = faces_of_alcove(rs).faces[0]
    before = (weylaff._face_stabilizer.cache_info().currsize,
              centralizer._face_centralizer.cache_info().currsize)
    for fn, msg in ((stabilizer_of_face, "face stabilizers"),
                    (centralizer_face, "face centralizers")):
        for _ in range(2):
            with pytest.raises(ValueError) as e:
                fn(rs, f)
            assert str(e.value) == \
                f"{msg} require simply-connected isogeny"
    assert (weylaff._face_stabilizer.cache_info().currsize,
            centralizer._face_centralizer.cache_info().currsize) == before


def test_overlap_refusal_exits_2_on_every_call(capsys):
    argv = ["overlap", "--type", "A", "--rank", "2", "--isogeny", "adjoint",
            "--face1", "0", "--face2", "1"]
    for _ in range(2):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == \
            "error: face stabilizers require simply-connected isogeny\n"
