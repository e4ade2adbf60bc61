"""The per-root-system texts: the `roots`, `faces` and `diagram` outputs,
each written once per root system by `cli._text`.

A cached text must equal a cold build after `cache_clear`, and the text
built without the cache; a refusal must be raised on every call, with
nothing cached for it.
"""

import json
from pathlib import Path

import pytest

from alcoves import alcove, cli, parabolic
from alcoves.jsontext import dumps_indented
from alcoves.rootdata import CartanType, build_root_system

FIXTURES = Path(__file__).parent / "fixtures"

# every (family, rank, isogeny) the CLI accepts up to E8, as pinned in
# `rootdata_digests.json`
TYPES = [(t[0], int(t[1:].split("-")[0]), t.split("-")[1]) for t in
         json.loads((FIXTURES / "rootdata_digests.json").read_text())]
DIAGRAM_TYPES = [(f, r) for f, r, iso in TYPES if iso == "sc" and r <= 3]


def _ids(types):
    return ["".join(map(str, t)) for t in types]


def assert_cached_equals_cold(command, rs, build):
    """`cli._text(rs, command)` is kept, and equals both a cold build
    after `cache_clear` and `build(rs)`, which does not read the cache."""
    text = cli._text
    warm = text(rs, command)
    assert text(rs, command) is warm
    text.cache_clear()
    assert text(rs, command) == warm == build(rs)
    assert text.cache_info().currsize == 1


def assert_refused(command, rs, message):
    text = cli._text
    size = text.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError) as e:
            text(rs, command)
        assert str(e.value) == message
    assert text.cache_info().currsize == size


def test_every_type_is_listed():
    assert len(TYPES) == 40 and len(DIAGRAM_TYPES) == 9


@pytest.mark.parametrize("family,rank", DIAGRAM_TYPES,
                         ids=_ids(DIAGRAM_TYPES))
def test_cached_diagram_equals_cold(family, rank):
    rs = build_root_system(CartanType(family, rank))
    assert_cached_equals_cold(
        "diagram", rs,
        lambda rs: dumps_indented(parabolic.restriction_diagram(rs)))


@pytest.mark.parametrize("family,rank,isogeny", TYPES, ids=_ids(TYPES))
def test_cached_roots_and_faces_equal_cold(family, rank, isogeny):
    rs = build_root_system(CartanType(family, rank, isogeny))
    assert_cached_equals_cold("roots", rs,
                              lambda rs: dumps_indented(rs.to_json()))
    if isogeny == "gl":
        assert_refused("faces", rs,
                       "fundamental alcove requires sc or adjoint isogeny")
    else:
        assert_cached_equals_cold(
            "faces", rs,
            lambda rs: dumps_indented(alcove.faces_of_alcove(rs).to_json(rs)))


@pytest.mark.parametrize("family,rank,isogeny,message", [
    ("A", 2, "adjoint",
     "restriction diagram requires simply-connected isogeny"),
    ("A", 2, "gl", "restriction diagram requires simply-connected isogeny"),
    ("B", 4, "sc", "rank 4 exceeds diagram guard 3"),
], ids=["A2-adjoint", "A2-gl", "B4-sc"])
def test_diagram_refusals_are_raised_on_every_call(family, rank, isogeny,
                                                   message):
    rs = build_root_system(CartanType(family, rank, isogeny))
    assert_refused("diagram", rs, message)


def test_diagram_refusal_exits_2_on_every_call(capsys):
    argv = ["diagram", "--type", "A", "--rank", "4"]
    for _ in range(2):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == \
            "error: rank 4 exceeds diagram guard 3\n"
