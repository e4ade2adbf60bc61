"""Acceptance criteria, one test per criterion, with pinned tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failure) and enforces its time budget.
"""

import cmath
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from alcoves import cli, verify, weierstrass
from alcoves.alcove import faces_of_alcove
from alcoves.centralizer import centralizer_elliptic, exp_point, matrix_shape
from alcoves.rootdata import CartanType, build_root_system

FIXTURES = Path(__file__).parent / "fixtures"


def _report(n, ok):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}")
    assert ok


def rs_of(family, rank, isogeny="sc"):
    return build_root_system(CartanType(family, rank, isogeny))


def test_criterion_1_su3_seven_strata(capsys):
    t0 = time.monotonic()
    rs = rs_of("A", 2)
    cat = faces_of_alcove(rs)
    ok = len(cat.faces) == 7
    code = cli.main(["faces", "--type", "A", "--rank", "2",
                     "--isogeny", "sc", "--out", "/dev/null"])
    ok = ok and code == 0
    code = cli.main(["verify", "faces", "--type", "A", "--rank", "2",
                     "--out", "/dev/null"])
    ok = ok and code == 0
    ok = ok and (time.monotonic() - t0) < 1.0
    with capsys.disabled():
        _report(1, ok)


def test_criterion_2_sl2_centralizer(capsys):
    t0 = time.monotonic()
    rs = rs_of("A", 1)
    d = centralizer_elliptic(rs, exp_point(rs, (0,), (Fraction(1, 2),)))
    signed = {(tuple(rs.all_roots[ar.root_index]), ar.level)
              for ar in d.phi}
    ok = signed == {((1,), 1), ((-1,), -1)}
    ok = ok and d.dim == 3
    ok = ok and d.connected
    ok = ok and matrix_shape(rs, d.phi).to_json() == [[0, 1], [-1, 0]]
    ok = ok and (time.monotonic() - t0) < 1.0
    with capsys.disabled():
        _report(2, ok)


def test_criterion_3_pgl2_component_group(capsys):
    t0 = time.monotonic()
    rs = rs_of("A", 1, "adjoint")
    d = centralizer_elliptic(rs, exp_point(rs, (0,), (Fraction(1, 4),)))
    ok = d.phi == ()
    ok = ok and d.w0_order == 1  # identity component is the torus
    ok = ok and d.pi0_order == 2
    ok = ok and (time.monotonic() - t0) < 1.0
    with capsys.disabled():
        _report(3, ok)


def test_criterion_4_sl3_diagram_fixture(capsys):
    t0 = time.monotonic()
    produced = cli._text(rs_of("A", 2), "diagram") + "\n"
    committed = (FIXTURES / "sl3_diagram.json").read_text()
    ok = produced == committed
    data = json.loads(produced)
    ok = ok and len(data["nodes"]) == 7
    ok = ok and len(data["edges"]) == 12
    ok = ok and all("shape" in n for n in data["nodes"])
    ok = ok and all("shape" in e for e in data["edges"])
    ok = ok and (time.monotonic() - t0) < 2.0
    with capsys.disabled():
        _report(4, ok)


def test_criterion_5_property_suites(capsys):
    t0 = time.monotonic()
    expected_checks = {
        "face_stabilizer_equals_point_stabilizer",  # (a)
        "star_cover",  # (b)
        "open_embedding",  # (c)
        "star_intersection",  # (d)
        "se_inside_et",  # (e)
        "connected_at_theta_zero",  # (f)
    }
    ok = True
    for family, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3)]:
        rs = rs_of(family, rank)
        reports = []
        for suite in ("stabilizers", "stars", "cover", "centralizer"):
            reports.extend(verify.run_suite(suite, rs, seed=7, samples=100))
        ok = ok and all(r["passed"] for r in reports)
        seen = {r["check"] for r in reports}
        ok = ok and expected_checks <= seen
    ok = ok and (time.monotonic() - t0) < 60.0
    with capsys.disabled():
        _report(5, ok)


def test_criterion_6_parabolic_composition(capsys):
    t0 = time.monotonic()
    ok = True
    for family, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                         ("C", 3), ("D", 3), ("G", 2)]:
        rs = rs_of(family, rank)
        reports = verify.run_suite("parabolic", rs, seed=0, samples=0)
        ok = ok and all(r["passed"] for r in reports)
    ok = ok and (time.monotonic() - t0) < 10.0
    with capsys.disabled():
        _report(6, ok)


def test_criterion_7_double_affine_squares(capsys):
    t0 = time.monotonic()
    ok = True
    for family, rank in [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2)]:
        rs = rs_of(family, rank)
        reports = verify.run_suite("double-affine", rs, seed=11, samples=50)
        ok = ok and all(r["passed"] for r in reports)
    ok = ok and (time.monotonic() - t0) < 10.0
    with capsys.disabled():
        _report(7, ok)


def test_criterion_8_weierstrass(capsys):
    t0 = time.monotonic()
    lat = weierstrass.Lattice(1.0, 2.0j)
    rng = random.Random(17)
    ok = True
    matrices = []
    ev = 0.4 + 0.3j
    matrices.append(np.array([[ev, 1, 0], [0, ev, 1], [0, 0, ev]]))
    while len(matrices) < 10:
        z = np.array(
            [[complex(rng.uniform(0.1, 0.9), rng.uniform(0.2, 1.8))
              for _ in range(3)] for _ in range(3)]
        ) * 0.4 + 0.3 * np.eye(3)
        matrices.append(z)
    for z in matrices:
        rep = weierstrass.cubic_report(z, lat, 100)
        ok = ok and rep["residual_cubic"] < 1e-5
        ok = ok and rep["residual_commutator"] < 1e-9
    e = [weierstrass.wp_scalar(w / 2, lat, 100)
         for w in (1.0, 2.0j, 1.0 + 2.0j)]
    ok = ok and abs(sum(e)) < 1e-7
    ok = ok and abs(weierstrass.eisenstein(
        weierstrass.Lattice(1.0, 1.0j), 6)) < 1e-7
    ok = ok and abs(weierstrass.eisenstein(
        weierstrass.Lattice(1.0, cmath.exp(1j * cmath.pi / 3)), 4)) < 1e-7
    ok = ok and (time.monotonic() - t0) < 30.0
    with capsys.disabled():
        _report(8, ok)
