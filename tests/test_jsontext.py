"""`jsontext.dumps_indented` against `json.dumps(obj, indent=2)`: the
same text, or the same exception, on every CLI output pinned in
`tests/fixtures` and on generated values."""

import contextlib
import enum
import io
import json
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcoves import cli, parabolic
from alcoves.jsontext import dumps_indented
from alcoves.rootdata import CartanType, build_root_system

FIXTURES = Path(__file__).parent / "fixtures"


def stdlib(obj):
    try:
        return json.dumps(obj, indent=2)
    except Exception as e:  # the exception is the expected result
        return type(e), str(e)


def ours(obj):
    try:
        return dumps_indented(obj)
    except Exception as e:
        return type(e), str(e)


def assert_same(obj):
    assert ours(obj) == stdlib(obj)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2 ** 70


def test_every_pinned_cli_output():
    """Each value the CLI writes for an output pinned in `tests/fixtures`
    (`svg` writes text, `verify` one-line JSON), caught on its way to the
    writer in `cli`.  The per-root-system texts of `cli._text` are
    cleared before each call, so every value reaches the writer."""
    seen = []

    def spy(obj):
        seen.append(obj)
        return dumps_indented(obj)

    argvs = [a for a in json.loads(
        (FIXTURES / "output_digests.json").read_text())
        if not a.startswith("svg ")]
    argvs += ["diagram --type A --rank 2"]
    argvs += ["roots --type {} --rank {} --isogeny {}".format(
        t[0], *t[1:].split("-"))
        for t in json.loads((FIXTURES / "rootdata_digests.json").read_text())]
    with mock.patch.object(cli, "dumps_indented", spy):
        for argv in argvs:
            cli._text.cache_clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv.split()) == 0, argv
    assert len(seen) == len(argvs)
    for obj in seen:
        assert_same(obj)
    sl3 = parabolic.restriction_diagram(build_root_system(CartanType("A", 2)))
    assert dumps_indented(sl3) + "\n" == \
        (FIXTURES / "sl3_diagram.json").read_text()


CHARS = st.one_of(
    st.characters(),
    st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\n", "\t", "\x7f",
                     "\xe9", " ", "\ud800", "\udfff", "\U0001f600"]))
LEAVES = st.one_of(
    st.text(CHARS, max_size=6),
    st.integers(),
    st.integers(min_value=2 ** 63 - 2, max_value=2 ** 200),
    st.integers(max_value=-2 ** 63 + 2, min_value=-2 ** 200),
    st.booleans(), st.none(),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e300, 0.1]),
    st.floats(),
    st.sampled_from(Level))
KEYS = st.one_of(st.text(CHARS, max_size=4), st.text(CHARS, max_size=4),
                 st.integers(), st.floats(), st.booleans(), st.none())
VALUES = st.recursive(
    LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(CHARS, max_size=4), kids, max_size=4),
        st.dictionaries(KEYS, kids, max_size=4)),
    max_leaves=30)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(VALUES)
def test_generated_values(obj):
    assert_same(obj)


@pytest.mark.parametrize("bad", [Fraction(1, 3), np.int64(3), np.bool_(True),
                                 {(1, 2): 3}, {1, 2}])
def test_values_json_cannot_encode(bad):
    for obj in ([bad], [1, [2, {"k": bad}]], {"a": [True, bad]}):
        want = stdlib(obj)
        assert want[0] is TypeError
        assert ours(obj) == want


def test_cycles_and_the_first_error_in_order():
    cyclic = [1, 2]
    cyclic.append({"x": cyclic})
    assert stdlib(cyclic)[0] is ValueError
    assert_same(cyclic)
    assert_same([Fraction(1), {(1,): 2}])  # the Fraction is met first
    assert_same({"a": {(1,): 2}, "b": Fraction(1)})


def test_subclasses_go_to_the_stdlib():
    class Text(str):
        pass
    assert_same([np.float64(0.5), Text("a\u00e9"), {Text("k"): Level.LOW},
                 {Level.HIGH: [True]}, [np.float64("nan")]])
