"""`cli.main` reads argv from its table of the parser's own actions when
it can, and must give exactly what the full parser gives: the same
Namespace, attribute for attribute in the same order, or the same exit
code with the same stdout and stderr.  These tests only parse: every
command handler is replaced by one that stops with the parsed arguments,
so no input can start a long computation."""

import argparse
import contextlib
import io
import json
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from alcoves import cli

REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference.json"


class Parsed(Exception):
    def __init__(self, args):
        super().__init__()
        self.args_ = args


def _stop(args, *rest):
    raise Parsed(args)


def outcome(parse, argv):
    """What `parse(argv)` gives: ("args", the Namespace's attributes in
    order) or ("exit", code), with everything written to stdout and
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("args", list(vars(parse(argv)).items()))
        except SystemExit as e:
            result = ("exit", e.code)
    return result, out.getvalue(), err.getvalue()


def through_main(argv):
    """The Namespace `cli.main(argv)` hands to its command."""
    with mock.patch.object(cli, "_build", _stop), \
            mock.patch.object(cli, "_verify", _stop), \
            mock.patch.object(cli, "_wp", _stop):
        try:
            cli.main(argv)
        except Parsed as p:
            return p.args_
    raise AssertionError(f"main({argv!r}) returned without parsing")


def full_parse(argv):
    return cli._parsers()[0].parse_args(argv)


def assert_same_parse(argv):
    assert outcome(through_main, argv) == outcome(full_parse, argv)


COMMANDS = next(a for a in cli._parsers()[0]._actions
                if isinstance(a, argparse._SubParsersAction)).choices
OPTIONS = sorted({o for p in COMMANDS.values() for a in p._actions
                  for o in a.option_strings})
VALUES = sorted({str(c) for p in COMMANDS.values() for a in p._actions
                 for c in (a.choices or ())})
JUNK = ["--bogus", "-z", "--", "-h", "--help", "--=x", "-", "---", "x",
        "", "1/2,0", "-1", "--a=-2,7/6", "0,1", "--rank=3", "--type=Q",
        "a b", "roots", "verify"]
ANY_VALUE = ["1", "-2", "1/4,0", "0,1", "-", "x", "m.json"]


def _value(action):
    if action.choices:
        return st.sampled_from([str(c) for c in action.choices] + ["Q"])
    if action.type is int:
        return st.sampled_from(["0", "2", "3", "-1", "x"])
    return st.sampled_from(ANY_VALUE)


@st.composite
def _option(draw, action):
    """One option of a subparser with its value, in one of the spellings
    the parser accepts: `--opt v`, `--opt=v`, or abbreviated."""
    name = draw(st.sampled_from(action.option_strings))
    if name.startswith("--") and draw(st.booleans()):
        name = name[:draw(st.integers(3, len(name)))]
    if action.nargs == 0:  # -h, --help
        return [name]
    value = draw(_value(action))
    return [f"{name}={value}"] if draw(st.booleans()) else [name, value]


@st.composite
def argvs(draw):
    """A command and its options, each required one or any other drawn,
    in a drawn order, with drawn junk inserted and tokens dropped:
    unknown and abbreviated options, `--`, `-h`, bad and missing values,
    an option before the command, or no command at all."""
    commands = sorted(COMMANDS)
    head = draw(st.sampled_from(commands))
    parts = []
    for action in COMMANDS[head]._actions:
        if not action.option_strings:
            parts.append([draw(_value(action))])
        elif (action.required or draw(st.booleans())) and \
                (action.nargs != 0 or draw(st.integers(0, 9)) == 0):
            parts.append(draw(_option(action)))
    parts = draw(st.permutations(parts))
    argv = [head] + [t for part in parts for t in part]
    junk = st.one_of(st.sampled_from(JUNK), st.sampled_from(OPTIONS),
                     st.sampled_from(VALUES + ANY_VALUE),
                     st.text(st.sampled_from("-=,/ab1"), max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(argv)))
        if draw(st.integers(0, 3)) == 0 and k < len(argv):
            del argv[k]
        else:
            argv.insert(k, draw(junk))
    return argv


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argvs())
def test_main_parses_as_the_full_parser(argv):
    assert_same_parse(argv)


A2 = ["--type", "A", "--rank", "2"]

# argvs the table reads itself
TABLE_ROUTES = [
    ["roots", *A2],
    ["verify", "all", "--type", "B", "--rank", "3", "--seed", "7"],
    ["star", *A2, "--face", "-"], ["star", *A2, "--face="],
    ["star", *A2, "--face", ""], ["star", *A2, "--face=-"],
    ["centralizer", *A2, "--a=-1/2,0"], ["centralizer", *A2, "--a=1=2"],
    ["roots", *A2, "--type", "B"], ["roots", "--type", "A", "--rank", "0_3"],
    ["roots", "--rank", " 2 ", "--type=A", "--isogeny=gl", "--out", "x"],
    ["wp", "--omega1", "1,0", "--omega2", "0,2", "--matrix", "m"],
    ["verify", "faces", "--samples=-3"],
]

# argvs only the full parser reads
FULL_PARSER_ROUTES = [
    [], ["-h"], ["--help"], ["bogus"], ["-h", "roots"],
    ["roots", *A2, "--bogus"], ["roots", *A2, "--bogus", "1"],
    ["roots", *A2, "extra"], ["roots", "--type", "A"], ["roots", "-h"],
    ["roots", "--type", "A", "-h"], ["roots", "--he"], ["roots", "--ran", "2"],
    ["roots", "--ty", "A", "--ra", "2", "--iso", "gl"],
    ["roots", "--type", "A", "--rank="],
    ["roots", "--type", "A", "--rank", "x"],
    ["roots", "--type", "Z", "--rank", "2"], ["roots", *A2, "--out"],
    ["roots", "--type", "A", "--rank", "-1"],
    ["roots", "--type=A=B", "--rank", "2"],
    ["verify", "--seed", "3", "faces"], ["verify", "faces", "faces"],
    ["verify", "--", "faces"], ["verify", "faces", "--", "x"], ["verify"],
    ["centralizer", *A2, "--a", "-1/2,0"], ["star", *A2, "--face=--"],
    ["star", *A2, "--face", "--"], ["svg", *A2, "--region", "x"],
]


def test_named_routes_parse_as_the_full_parser():
    for argv in TABLE_ROUTES + FULL_PARSER_ROUTES:
        assert_same_parse(argv)
    assert all(cli._table_parse(argv) is not None for argv in TABLE_ROUTES)
    assert all(cli._table_parse(argv) is None for argv in FULL_PARSER_ROUTES)


def test_every_benchmark_argv_parses_as_the_full_parser():
    """Every argv the benchmark's `cli-session` workload sends is read
    by the table, with no argparse parse, as the full parser reads it."""
    ref = json.loads(REFERENCE.read_text())["cli-session"]
    items = ref["fixed"] + [item for pool in ref["pools"].values()
                            for ops in pool for item in ops]
    argvs = [item["op"]["argv"] for item in items]
    assert len(argvs) > 200
    cli._parsers()  # built before the spy: building parses nothing
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def spy(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    for argv in argvs:
        with mock.patch.object(argparse.ArgumentParser, "parse_known_args",
                               spy):
            result = outcome(through_main, argv)
        assert calls == [] and result[0][0] == "args"
        assert result == outcome(full_parse, argv)
