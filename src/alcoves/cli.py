"""Command-line front end: parses a call, runs it, prints its output.

All combinatorial inputs are exact: rational arguments are given as
comma-separated "p/q" strings, faces as comma-separated wall indices.
Exit codes: 0 passed, 1 a check failed, 2 usage error, 141 stdout closed.

A call made of a command and exact `--opt value` or `--opt=value` pairs
is read from a table of the parser's own actions (`_table_parse`); any
other argv goes to the full parser, whose answer it is.  A JSON value is
written by `jsontext.dumps_indented`, the bytes of
`json.dumps(value, indent=2)` in one pass; `_text` writes the `roots`,
`faces` and `diagram` texts once per root system.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from . import alcove, centralizer, parabolic, ratmat, svg, verify, \
    weierstrass, weylaff
from .jsontext import dumps_indented
from .rootdata import CartanType, EnumerationGuard, InvalidCartanType, \
    RootSystem, build_root_system
from .weylaff import star_contains


RADIUS_HELP = ("largest lattice shell of the p and p' sums (>= 1); they stop "
               "at the first shell whose omitted tail is certified below "
               "1e-16")


# -- argument parsing ------------------------------------------------------


def _parse_vec(args, option: str):
    s = getattr(args, option)
    try:
        return tuple(ratmat.parse_frac(p) for p in s.split(","))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--{option} {s!r} is not a comma list of p/q") \
            from None


def _parse_complex(args, option: str) -> complex:
    s = getattr(args, option)
    try:
        re, im = map(float, s.split(","))
    except ValueError:
        raise ValueError(f"--{option} {s!r} is not re,im") from None
    return complex(re, im)


def _parse_matrix(raw) -> list[list[complex]]:
    """Rows of complex entries from a JSON array of rows of [re, im]
    pairs; shape is checked by the weierstrass module."""
    def entry(c) -> complex:
        if not (isinstance(c, list) and len(c) == 2 and all(
                isinstance(x, (int, float)) and not isinstance(x, bool)
                for x in c)):
            raise ValueError(f"--matrix entry {c!r} is not an [re, im] pair")
        return complex(c[0], c[1])

    if not (isinstance(raw, list)
            and all(isinstance(row, list) for row in raw)):
        raise ValueError("--matrix must be a JSON array of rows")
    return [[entry(c) for c in row] for row in raw]


def _build(args) -> RootSystem:
    return build_root_system(CartanType(args.type, args.rank, args.isogeny))


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, flush=True)


@lru_cache(maxsize=None)
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The argument parser, and the table `_parse_args` reads: for each
    command, its positional action (or None), its options by option
    string, and every action its `add_argument` calls returned, in order.
    Built once, on the first call: parsing changes neither."""
    parser = argparse.ArgumentParser(
        prog="alcoves",
        description="Exact alcove geometry, loop-group centralizer "
                    "combinatorics, and a matrix Weierstrass p-function.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    actions = {}

    def command(name, help, common=True):
        """A subparser; returns its `add_argument`, which records each
        action.  Every option is a single-value store option."""
        p = sub.add_parser(name, help=help)
        added = actions[name] = []

        def add(*names, **kwargs):
            added.append(p.add_argument(*names, **kwargs))
        if common:
            add("--type", required=True, choices=list("ABCDEFG"))
            add("--rank", required=True, type=int)
            add("--isogeny", default="sc", choices=["sc", "adjoint", "gl"])
            add("--out", default=None)
        return add

    command("roots", "root system data as JSON")
    command("faces", "face category of the alcove as JSON")
    add = command("centralizer", "centralizer data at Exp(theta, a tau)")
    add("--theta", default=None,
        help="coweight-basis coordinates, p/q comma list")
    add("--a", required=True,
        help="coroot-basis coordinates of a, p/q comma list")
    add = command("parabolic", "parabolic data for an arrow")
    add("--face1", required=True, help="wall indices, e.g. 0,2")
    add("--face2", required=True)
    command("diagram", "full restriction diagram as JSON")
    add = command("star", "star membership / star facets")
    add("--face", required=True)
    add("--point", default=None)
    add = command("overlap", "double cosets of two chart stars")
    add("--face1", required=True)
    add("--face2", required=True)

    add = command("wp", "matrix Weierstrass p report", common=False)
    add("--omega1", required=True, help="re,im")
    add("--omega2", required=True, help="re,im")
    add("--radius", type=int, default=100, help=RADIUS_HELP)
    add("--matrix", required=True,
        help="JSON file, n x n array of [re, im] pairs")
    add("--out", default=None)

    add = command("verify", "run a verification suite", common=False)
    add("suite", choices=(*verify.SUITES, "all"))
    add("--type", default="A", choices=list("ABCDEFG"))
    add("--rank", type=int, default=1)
    add("--isogeny", default="sc", choices=["sc", "adjoint", "gl"])
    add("--seed", type=int, default=0)
    add("--samples", type=int, default=100)
    add("--radius", type=int, default=100, help=RADIUS_HELP)
    add("--out", default=None)

    add = command("svg", "rank-2 arrangement picture")
    add("--region", type=int, default=2)
    add("--highlight", default=None, help="wall indices of a face")

    table = {name: (next((a for a in acts if not a.option_strings), None),
                    {s: a for a in acts for s in a.option_strings},
                    acts) for name, acts in actions.items()}
    return parser, table


def _parse_args(argv) -> argparse.Namespace:
    """The full parser's `parse_args(argv)`, read from the table if it can
    be."""
    argv = sys.argv[1:] if argv is None else argv
    args = _table_parse(argv)
    return _parsers()[0].parse_args(argv) if args is None else args


def _table_parse(argv) -> argparse.Namespace | None:
    """The full parser's Namespace for a command followed by exact
    `--opt value` or `--opt=value` pairs (`verify`'s suite first), each
    value converted by the action's `type` and checked against its
    `choices`, each option not given at its `default`, attributes in the
    full parser's order.  None where only the full parser can answer: an
    abbreviated, unknown or missing option, `-h`, `--`, a separate value
    starting with "-" (but "-" itself), or a value `type` or `choices`
    refuse."""
    entry = _parsers()[1].get(argv[0]) if argv else None
    if entry is None:
        return None
    positional, options, actions = entry
    rest, given = argv[1:], {}
    if positional is not None:
        if not rest or rest[0] not in positional.choices:
            return None
        given[positional], rest = rest[0], rest[1:]
    i = 0
    while i < len(rest):
        if rest[i] in options and i + 1 < len(rest):
            action, value = options[rest[i]], rest[i + 1]
            # the full parser reads "-x" as an option, "-" as a value
            if value.startswith("-") and value != "-":
                return None
            i += 2
        else:
            name, eq, value = rest[i].partition("=")
            # the full parser drops "--" from `--opt=--`, leaving no value
            if not eq or name not in options or value == "--":
                return None
            action = options[name]
            i += 1
        try:
            value = action.type(value) if action.type else value
        except ValueError:
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action] = value
    if any(a.required and a not in given for a in actions):
        return None
    return argparse.Namespace(command=argv[0], **{
        a.dest: given.get(a, a.default) for a in actions})


# -- commands --------------------------------------------------------------


def _face(rs: RootSystem, args, option: str):
    """The face named by `--option`: its vanishing walls as a comma list;
    "", "-" and "interior" name the interior.  A gl group has no alcove,
    so its faces are refused as `faces` refuses them."""
    if rs.cartan_type.isogeny == "gl":
        raise ValueError("fundamental alcove requires sc or adjoint isogeny")
    walls = getattr(args, option)
    try:
        key = frozenset() if walls in ("", "-", "interior") \
            else frozenset(int(p) for p in walls.split(","))
    except ValueError:
        raise ValueError(
            f"--{option} {walls!r} is not a face: give comma-separated wall "
            f"indices 0..{rs.rank}, or - for the interior") from None
    return alcove.faces_of_alcove(rs).face_by_walls(key)


def _centralizer(rs, args):
    theta = _parse_vec(args, "theta") if args.theta else ratmat.zeros(rs.dim)
    data = centralizer.centralizer_elliptic(
        rs, centralizer.exp_point(rs, theta, _parse_vec(args, "a")))
    out = data.to_json()
    if rs.cartan_type.family == "A":
        shape = centralizer.matrix_shape(rs, data.phi)
        out["shape"] = shape.to_json()
        out["shape_text"] = shape.render()
    return out


def _parabolic(rs, args):
    pd = parabolic.parabolic(rs, _face(rs, args, "face1"),
                             _face(rs, args, "face2"))
    out = {key: [[a.root_index, a.level] for a in getattr(pd, key)]
           for key in ("ambient", "levi", "nilradical")}
    if rs.cartan_type.family == "A":
        out["shape"] = centralizer.matrix_shape(
            rs, tuple(pd.parabolic_set())).to_json()
    return out


def _star(rs, args):
    j = _face(rs, args, "face")
    if args.point is not None:
        x = _parse_vec(args, "point")
        if len(x) != rs.dim:
            raise ValueError(
                f"point: expected dimension {rs.dim}, got {len(x)}")
        return {"contains": star_contains(rs, j, x)}
    return {"facet_witnesses": [ratmat.vec_str(w) for w in
                                weylaff.star_facet_witnesses(rs, j)]}


def _overlap(rs, args):
    cosets = weylaff.chart_overlap(rs, _face(rs, args, "face1"),
                                   _face(rs, args, "face2"))
    return [{"rep_word": list(w.finite_part.word),
             "rep_translation": ratmat.vec_str(w.translation),
             "pair_stabilizer_order": stab.order} for w, stab in cosets]


def _svg(rs, args):
    highlight = None if args.highlight is None \
        else _face(rs, args, "highlight")
    return svg.render_svg(rs, args.region, highlight)


# command -> the JSON value of its text, which depends on rs only; each
# builder is looked up at call time, so tracing sees a rebound one
_TEXTS = {
    "roots": lambda rs: rs.to_json(),
    "faces": lambda rs: alcove.faces_of_alcove(rs).to_json(rs),
    "diagram": lambda rs: parabolic.restriction_diagram(rs),
}


@lru_cache(maxsize=None)
def _text(rs: RootSystem, command: str) -> str:
    """The text of a `_TEXTS` command, written once per root system; a
    refusal is raised on every call and never cached."""
    return dumps_indented(_TEXTS[command](rs))


# command -> handler (rs, args) returning a JSON value or a string
_COMMANDS = {
    **dict.fromkeys(_TEXTS, lambda rs, args: _text(rs, args.command)),
    "centralizer": _centralizer,
    "parabolic": _parabolic,
    "star": _star,
    "overlap": _overlap,
    "svg": _svg,
}


def _wp(args) -> dict:
    lat = weierstrass.Lattice(_parse_complex(args, "omega1"),
                              _parse_complex(args, "omega2"))
    with open(args.matrix, encoding="utf-8") as fh:
        try:  # not JSON, or not UTF-8
            raw = json.load(fh)
        except ValueError as e:
            raise ValueError(f"--matrix {args.matrix!r}: {e}") from None
    z = _parse_matrix(raw)
    rep = weierstrass.cubic_report(z, lat, args.radius)
    return {
        "g2": [rep["g2"].real, rep["g2"].imag],
        "g3": [rep["g3"].real, rep["g3"].imag],
        "residual_cubic": rep["residual_cubic"],
        "residual_commutator": rep["residual_commutator"],
    }


def _verify(args) -> tuple[str, int]:
    """The report lines and the exit code: 0 if every check passed."""
    if args.radius < 1:
        raise ValueError("--radius must be at least 1")
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    rs = None if args.suite == "weierstrass" else _build(args)
    reports = verify.run_suite(args.suite, rs, args.seed, args.samples,
                               args.radius)
    return ("\n".join(json.dumps(r) for r in reports),
            0 if all(r["passed"] for r in reports) else 1)


def main(argv=None) -> int:
    args = _parse_args(argv)
    code = 0
    try:
        if args.command == "verify":
            out, code = _verify(args)
        elif args.command == "wp":
            out = _wp(args)
        else:
            out = _COMMANDS[args.command](_build(args), args)
        _emit(args, out if isinstance(out, str) else dumps_indented(out))
    except BrokenPipeError:
        # stdout closed: exit as on SIGPIPE, with nothing left to flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InvalidCartanType, EnumerationGuard, ValueError, KeyError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
