"""cubic_report takes p and p' from one pass over the lattice shells, handed
to the module's wp_matrix and wp_prime_matrix through a one-entry slot;
standalone calls sum only their own series."""

import numpy as np
import pytest

from alcoves import weierstrass
from alcoves.weierstrass import (
    PoleError,
    _stop_radius,
    cubic_report,
    wp_matrix,
    wp_prime_matrix,
)
from test_wp_stop_radius import CASES, RECT


@pytest.fixture
def shell_calls(monkeypatch):
    """Counts the shells enumerated, one _shell_points call per shell."""
    calls = []
    inner = weierstrass._shell_points

    def counting(lat, s):
        calls.append(s)
        return inner(lat, s)

    monkeypatch.setattr(weierstrass, "_shell_points", counting)
    return calls


@pytest.fixture
def captured(monkeypatch):
    """Wraps the module-global wp_matrix and wp_prime_matrix, as the
    benchmark does to read cubic_report's p and p'; records each result."""
    out = {"wp_matrix": [], "wp_prime_matrix": []}
    for name in out:
        def capture(*args, _inner=getattr(weierstrass, name), _name=name,
                    **kwargs):
            result = _inner(*args, **kwargs)
            out[_name].append(result)
            return result

        monkeypatch.setattr(weierstrass, name, capture)
    return out


@pytest.mark.parametrize("name", CASES)
def test_one_shell_pass_per_cubic_report(name, shell_calls):
    z, lat = CASES[name]
    r_p = _stop_radius(z, lat, 100, derivative=False)
    r_dp = _stop_radius(z, lat, 100, derivative=True)
    cubic_report(z, lat, 100)
    assert shell_calls == list(range(1, max(r_p, r_dp) + 1))
    shell_calls.clear()
    wp_matrix(z, lat, 100)
    assert shell_calls == list(range(1, r_p + 1))
    shell_calls.clear()
    wp_prime_matrix(z, lat, 100)
    assert shell_calls == list(range(1, r_dp + 1))


@pytest.mark.parametrize("name", CASES)
def test_cubic_report_values_match_standalone_calls(name, captured):
    z, lat = CASES[name]
    cubic_report(z, lat, 100)
    assert len(captured["wp_matrix"]) == 1
    assert len(captured["wp_prime_matrix"]) == 1
    assert np.array_equal(captured["wp_matrix"][0], wp_matrix(z, lat, 100))
    assert np.array_equal(captured["wp_prime_matrix"][0],
                          wp_prime_matrix(z, lat, 100))
    assert weierstrass._shared is None


def test_mutating_a_result_leaves_the_next_call_alone(captured):
    z, lat = CASES["random-3x3-rect"]
    want_p, want_dp = wp_matrix(z, lat, 100), wp_prime_matrix(z, lat, 100)
    cubic_report(z, lat, 100)
    captured["wp_matrix"][0] += 1.0
    captured["wp_prime_matrix"][0] += 1.0
    cubic_report(z, lat, 100)
    assert np.array_equal(captured["wp_matrix"][1], want_p)
    assert np.array_equal(captured["wp_prime_matrix"][1], want_dp)
    p = wp_matrix(z, lat, 100)
    p += 1.0
    assert np.array_equal(wp_matrix(z, lat, 100), want_p)


def test_pole_error_leaves_no_stale_slot(captured):
    with pytest.raises(PoleError):
        cubic_report([[1.0 + 2.0j]], RECT, 100)
    assert weierstrass._shared is None
    z, lat = CASES["jordan"]
    cubic_report(z, lat, 100)
    assert np.array_equal(captured["wp_matrix"][-1], wp_matrix(z, lat, 100))
    assert np.array_equal(captured["wp_prime_matrix"][-1],
                          wp_prime_matrix(z, lat, 100))


def test_error_after_the_pass_clears_the_slot(monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("stop")

    monkeypatch.setattr(weierstrass, "wp_prime_matrix", fail)
    z, lat = CASES["jordan"]
    with pytest.raises(RuntimeError):
        cubic_report(z, lat, 100)
    assert weierstrass._shared is None


def test_slot_for_other_arguments_is_not_read(monkeypatch):
    z, lat = CASES["random-3x3-rect"]
    want = wp_matrix(z, lat, 100)
    sums = weierstrass._shell_sums(z, lat, 3, 3)
    for key in (weierstrass._pass_key(z, lat, 99),
                weierstrass._pass_key(z + 1e-3, lat, 100),
                weierstrass._pass_key(z, CASES["random-8x8-hex"][1], 100)):
        monkeypatch.setattr(weierstrass, "_shared", (key, sums))
        assert np.array_equal(wp_matrix(z, lat, 100), want)
