import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from alcoves import cli, verify

WP_MATRIX = str(Path(__file__).parent / "fixtures" / "wp_1x1.json")
# re,im written as text, not as a JSON array; a first byte that is not
# UTF-8
WP_NOT_JSON = str(Path(__file__).parent / "fixtures" / "wp_not_json.txt")
WP_NOT_UTF8 = str(Path(__file__).parent / "fixtures" / "wp_not_utf8.json")


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_faces_command(capsys):
    code, out = run(capsys, ["faces", "--type", "A", "--rank", "2"])
    assert code == 0
    data = json.loads(out)
    assert len(data["faces"]) == 7
    code, out = run(capsys, ["faces", "--type", "C", "--rank", "3"])
    assert len(json.loads(out)["faces"]) == 15


def test_roots_command(capsys):
    code, out = run(capsys, ["roots", "--type", "G", "--rank", "2"])
    assert code == 0
    assert len(json.loads(out)["all_roots"]) == 12


def test_centralizer_command(capsys):
    code, out = run(capsys, [
        "centralizer", "--type", "A", "--rank", "1",
        "--isogeny", "adjoint", "--a", "1/4",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["pi0"] == 2 and data["phi"] == []

    code, out = run(capsys, [
        "centralizer", "--type", "A", "--rank", "1", "--a", "1/2",
    ])
    data = json.loads(out)
    assert data["shape"] == [[0, 1], [-1, 0]]
    assert data["dim"] == 3

    code, out = run(capsys, [
        "centralizer", "--type", "B", "--rank", "2", "--a", "1/7,1/11",
    ])
    assert json.loads(out)["dim"] == 2


def test_parabolic_and_diagram_commands(capsys):
    code, out = run(capsys, [
        "parabolic", "--type", "A", "--rank", "1",
        "--face1", "0", "--face2", "-",
    ])
    assert code == 0
    assert json.loads(out)["shape"] == [[0, 0], [None, 0]]

    code, out = run(capsys, ["diagram", "--type", "A", "--rank", "2"])
    data = json.loads(out)
    assert len(data["nodes"]) == 7 and len(data["edges"]) == 12


def test_star_and_overlap_commands(capsys):
    code, out = run(capsys, [
        "star", "--type", "A", "--rank", "1", "--face", "0",
        "--point", "1/4",
    ])
    assert code == 0 and json.loads(out)["contains"] is True
    code, out = run(capsys, [
        "star", "--type", "A", "--rank", "1", "--face", "0",
        "--point", "3/4",
    ])
    assert json.loads(out)["contains"] is False
    code, out = run(capsys, [
        "star", "--type", "A", "--rank", "1", "--face", "0",
    ])
    assert len(json.loads(out)["facet_witnesses"]) == 3

    code, out = run(capsys, [
        "overlap", "--type", "A", "--rank", "1",
        "--face1", "0", "--face2", "1",
    ])
    data = json.loads(out)
    assert len(data) == 1 and data[0]["pair_stabilizer_order"] == 1


def test_wp_command(tmp_path, capsys):
    mat = tmp_path / "z.json"
    mat.write_text(json.dumps([[[0.3, 0.2]]]))
    code, out = run(capsys, [
        "wp", "--omega1", "1,0", "--omega2", "0,2",
        "--radius", "60", "--matrix", str(mat),
    ])
    assert code == 0
    data = json.loads(out)
    assert data["residual_cubic"] < 1e-6
    assert data["residual_commutator"] == 0.0


@pytest.mark.parametrize("matrix,radius", [
    ([[1]], "60"),                 # entry is not a pair
    ([[[0.3]]], "60"),             # pair is too short
    ([[["0.3", 0.2]]], "60"),      # entry is not a number
    ({"z": 1}, "60"),              # not an array of rows
    ([[[0.3, 0.2]]], "0"),         # no shell to sum
])
def test_wp_bad_input_exits_2(tmp_path, capsys, matrix, radius):
    mat = tmp_path / "z.json"
    mat.write_text(json.dumps(matrix))
    code = cli.main([
        "wp", "--omega1", "1,0", "--omega2", "0,2",
        "--radius", radius, "--matrix", str(mat),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_svg_command(tmp_path, capsys):
    out_file = tmp_path / "pic.svg"
    code, _ = run(capsys, [
        "svg", "--type", "A", "--rank", "2", "--region", "2",
        "--highlight", "0,1", "--out", str(out_file),
    ])
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("<svg") and text.endswith("</svg>")
    # determinism
    code, _ = run(capsys, [
        "svg", "--type", "A", "--rank", "2", "--region", "2",
        "--highlight", "0,1", "--out", str(out_file),
    ])
    assert out_file.read_text() == text


def test_svg_rejects_other_ranks(capsys):
    code, _ = run(capsys, ["svg", "--type", "A", "--rank", "3"])
    assert code == 2


def test_verify_command_and_exit_codes(capsys):
    code, out = run(capsys, [
        "verify", "faces", "--type", "A", "--rank", "2",
    ])
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["passed"] for r in reports)
    assert all("cartan_type" in r and "elapsed_ms" in r for r in reports)


def test_verify_out_writes_stdout_without_last_newline(tmp_path, capsys):
    argv = ["verify", "faces", "--type", "A", "--rank", "2"]
    out_file = tmp_path / "faces.jsonl"
    code, out = run(capsys, [*argv, "--out", str(out_file)])
    assert code == 0 and out == ""
    code, out = run(capsys, argv)
    assert code == 0 and out.endswith("}\n")

    def lines(text):
        return [{k: v for k, v in json.loads(line).items()
                 if k != "elapsed_ms"} for line in text.split("\n")]
    written = out_file.read_text(encoding="utf-8")
    assert not written.endswith("\n")
    assert lines(written) == lines(out[:-1])


def stub_suite(check):
    """A suite of one check, for the `faces` entry of `verify.SUITES`."""
    def suite(rs, rng, seed, samples, radius):
        yield "stub", {}, check
    return suite, True


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(verify.SUITES, "faces", stub_suite(lambda: "forced"))
    code, out = run(capsys, ["verify", "faces", "--type", "A", "--rank", "1"])
    assert code == 1
    report = json.loads(out.strip())
    assert report["passed"] is False and "counterexample" in report
    assert report["check"] == "stub" and report["cartan_type"] == "A1"
    assert report["counterexample"] == repr("forced")


def test_verify_check_that_raises_fails(capsys, monkeypatch):
    def check():
        raise RuntimeError("boom")
    monkeypatch.setitem(verify.SUITES, "faces", stub_suite(check))
    code, out = run(capsys, ["verify", "faces", "--type", "A", "--rank", "1"])
    assert code == 1
    report = json.loads(out.strip())
    assert report["passed"] is False
    assert report["counterexample"] == repr("exception: RuntimeError('boom')")


def test_usage_errors_exit_2(capsys):
    assert cli.main(["roots", "--type", "G", "--rank", "5"]) == 2
    with pytest.raises(SystemExit) as e:
        cli.main(["verify", "bogus-suite"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        cli.main([])
    assert e.value.code == 2


# a face that does not exist: the exact line, without repr quotes
FACE_LOOKUPS = {
    ("svg", "--type", "A", "--rank", "2", "--highlight", "9"):
        "error: no face with vanishing walls [9]\n",
    ("star", "--type", "A", "--rank", "2", "--face", "5"):
        "error: no face with vanishing walls [5]\n",
    ("overlap", "--type", "A", "--rank", "2", "--face1", "0,1,2",
     "--face2", "0"):
        "error: no face with vanishing walls [0, 1, 2]\n",
}

# a face argument that is not a comma list of wall indices: the line
# names the option and says what a face is
FACE_HINT = ("is not a face: give comma-separated wall indices 0..2, "
             "or - for the interior\n")
FACE_PARSES = {
    ("parabolic", "--type", "A", "--rank", "2", "--face1", "x",
     "--face2", "0"): f"error: --face1 'x' {FACE_HINT}",
    ("parabolic", "--type", "A", "--rank", "2", "--face1", "0",
     "--face2", "0;1"): f"error: --face2 '0;1' {FACE_HINT}",
    ("star", "--type", "A", "--rank", "2", "--face", ","):
        f"error: --face ',' {FACE_HINT}",
    ("svg", "--type", "A", "--rank", "2", "--highlight", "1,,2"):
        f"error: --highlight '1,,2' {FACE_HINT}",
    ("overlap", "--type", "A", "--rank", "2", "--face1", "1.5",
     "--face2", "0"): f"error: --face1 '1.5' {FACE_HINT}",
}

# two faces with no arrow between them: the line names both faces and
# the rule
NO_ARROW = {
    ("parabolic", "--type", "A", "--rank", "2", "--face1", "-",
     "--face2", "0"):
        "error: no arrow from face [] to face [0]: an arrow J -> J' needs "
        "the walls of J' to be a subset of those of J\n",
}

# a point of the wrong dimension: the line names the argument and the
# length it got
BAD_DIMENSION = {
    ("centralizer", "--type", "A", "--rank", "2", "--a", "1/2"):
        "error: a: expected dimension 2, got 1\n",
    ("centralizer", "--type", "A", "--rank", "2", "--theta", "0,1/2,1",
     "--a", "1/2,0"): "error: theta: expected dimension 2, got 3\n",
    ("centralizer", "--type", "A", "--rank", "2", "--isogeny", "gl",
     "--a", "0,0"): "error: a: expected dimension 3, got 2\n",
    ("star", "--type", "A", "--rank", "2", "--face", "0", "--point", "1/2"):
        "error: point: expected dimension 2, got 1\n",
}

# a guard hit in a later suite discards the lines of the suites before
# it: the E6 `faces` checks pass, then `stabilizers` needs W(E6)
GUARD_HITS = {
    ("verify", "all", "--type", "E", "--rank", "6", "--samples", "2"):
        "error: rank 6 exceeds enumeration guard 4\n",
}

# a value the command cannot use: a gl group has no alcove to draw or to
# name a face of, and a period is not a re,im pair of floats
BAD_VALUES = {
    ("svg", "--type", "A", "--rank", "2", "--isogeny", "gl"):
        "error: fundamental alcove requires sc or adjoint isogeny\n",
    ("star", "--type", "A", "--rank", "2", "--isogeny", "gl", "--face", "0"):
        "error: fundamental alcove requires sc or adjoint isogeny\n",
    ("parabolic", "--type", "A", "--rank", "2", "--isogeny", "gl", "--face1",
     "0,1", "--face2", "0"):
        "error: fundamental alcove requires sc or adjoint isogeny\n",
    ("wp", "--omega1", "1", "--omega2", "0,1", "--matrix", WP_MATRIX):
        "error: --omega1 '1' is not re,im\n",
    ("wp", "--omega1", "1,2,3", "--omega2", "0,1", "--matrix", WP_MATRIX):
        "error: --omega1 '1,2,3' is not re,im\n",
    ("wp", "--omega1", "a,b", "--omega2", "0,1", "--matrix", WP_MATRIX):
        "error: --omega1 'a,b' is not re,im\n",
    ("centralizer", "--type", "A", "--rank", "2", "--a", ","):
        "error: --a ',' is not a comma list of p/q\n",
    ("centralizer", "--type", "A", "--rank", "2", "--a", "1/0,1"):
        "error: --a '1/0,1' is not a comma list of p/q\n",
    ("centralizer", "--type", "A", "--rank", "2", "--theta", "1/2,x",
     "--a", "0,0"):
        "error: --theta '1/2,x' is not a comma list of p/q\n",
    ("star", "--type", "A", "--rank", "2", "--face", "0", "--point", "1/2,q"):
        "error: --point '1/2,q' is not a comma list of p/q\n",
    ("wp", "--omega1", "1,0", "--omega2", "0,1", "--matrix", WP_NOT_JSON):
        f"error: --matrix {WP_NOT_JSON!r}: Extra data: line 1 column 4 "
        "(char 3)\n",
    ("wp", "--omega1", "1,0", "--omega2", "0,1", "--matrix", WP_NOT_UTF8):
        f"error: --matrix {WP_NOT_UTF8!r}: 'utf-8' codec can't decode byte "
        "0xff in position 0: invalid start byte\n",
}


@pytest.mark.parametrize("argv", [
    # the Weyl-group enumeration guard refuses rank 6
    ["centralizer", "--type", "E", "--rank", "6", "--a", "0,0,0,0,0,0"],
    ["centralizer", "--type", "A", "--rank", "2", "--a", "1/0,1"],
    ["verify", "weierstrass", "--radius", "0"],
    # suites that need the Weyl group refuse a rank above the guard
    ["verify", "stabilizers", "--type", "E", "--rank", "6"],
    ["verify", "cover", "--type", "B", "--rank", "5", "--samples", "2"],
    # a sample count below 1 is refused for every suite
    ["verify", "faces", "--samples", "0"],
    ["verify", "cover", "--type", "A", "--rank", "2", "--samples", "-3"],
    ["verify", "weierstrass", "--samples", "0"],
    ["svg", "--type", "A", "--rank", "2", "--region", "-1"],
    ["svg", "--type", "B", "--rank", "2", "--region", "0"],
    # periods whose Eisenstein values are not finite floats
    ["wp", "--omega1", "1e-300,0", "--omega2", "0,1e-300",
     "--matrix", WP_MATRIX],
    ["wp", "--omega1", "nan,0", "--omega2", "0,1", "--matrix", WP_MATRIX],
    ["wp", "--omega1", "1,0", "--omega2", "0,inf", "--matrix", WP_MATRIX],
    *map(list, FACE_LOOKUPS),
    *map(list, FACE_PARSES),
    *map(list, NO_ARROW),
    *map(list, BAD_DIMENSION),
    *map(list, BAD_VALUES),
    *map(list, GUARD_HITS),
])
def test_bad_input_exits_2_without_traceback(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    expected = {**FACE_LOOKUPS, **FACE_PARSES, **NO_ARROW,
                **BAD_DIMENSION, **BAD_VALUES, **GUARD_HITS}.get(tuple(argv))
    if expected is not None:
        assert captured.err == expected


def test_closed_stdout_exits_141_without_a_message():
    """`alcoves faces --type E --rank 6 | head -1`: the 149 KB report
    overfills the pipe, whose reader leaves after one line.  A closed
    stdout is not a usage error (exit 2), and no "Exception ignored"
    message follows at interpreter exit."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    with subprocess.Popen(
            [sys.executable, "-m", "alcoves.cli", "faces", "--type", "E",
             "--rank", "6"], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


def test_reports_are_deterministic(capsys):
    _, out1 = run(capsys, [
        "verify", "stars", "--type", "A", "--rank", "2",
        "--seed", "7", "--samples", "30",
    ])
    _, out2 = run(capsys, [
        "verify", "stars", "--type", "A", "--rank", "2",
        "--seed", "7", "--samples", "30",
    ])
    def strip(ms):
        return [{k: v for k, v in json.loads(line).items()
                 if k != "elapsed_ms"} for line in ms.strip().splitlines()]
    assert strip(out1) == strip(out2)
