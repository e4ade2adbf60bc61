"""cubic_report takes p and p' from one pass over the lattice shells, handed
to the module's wp_matrix and wp_prime_matrix through a one-entry slot;
standalone calls sum only their own series.  The shells' Z-independent
data come from a per-lattice table, built once and grown on demand."""

import numpy as np
import pytest

from alcoves import weierstrass
from alcoves.weierstrass import (
    Lattice,
    PoleError,
    _stop_radius,
    cubic_report,
    wp_matrix,
    wp_prime_matrix,
)
from test_wp_stop_radius import CASES, RECT, reference_wp, reference_wp_prime


@pytest.fixture(autouse=True)
def cold_tables():
    """Each test starts, and ends, with no lattice's shell table."""
    weierstrass._shell_table.cache_clear()
    yield
    weierstrass._shell_table.cache_clear()


@pytest.fixture
def inverted(monkeypatch):
    """The number of matrices handed to each np.linalg.inv call."""
    sizes = []
    inner = np.linalg.inv

    def counting(a):
        sizes.append(int(np.prod(np.shape(a)[:-2])))
        return inner(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    return sizes


@pytest.fixture
def shell_calls(monkeypatch):
    """Counts the shells built, one _shell_points call per shell."""
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


def one_pass(radius):
    """Inversions of one pass through shell radius: Z, then each shell's
    8s matrices Z + wI in one stack; 1 + 4R(R+1) matrices in all."""
    return [1] + [8 * s for s in range(1, radius + 1)]


@pytest.mark.parametrize("name", CASES)
def test_one_shell_pass_per_cubic_report(name, inverted):
    z, lat = CASES[name]
    r_p = _stop_radius(z, lat, 100, derivative=False)
    r_dp = _stop_radius(z, lat, 100, derivative=True)
    r = max(r_p, r_dp)
    for _ in range(2):  # a cold table, then a warm one
        inverted.clear()
        cubic_report(z, lat, 100)
        assert inverted == one_pass(r)
        assert sum(inverted) == 1 + 4 * r * (r + 1)
    inverted.clear()
    wp_matrix(z, lat, 100)
    assert inverted == one_pass(r_p)
    inverted.clear()
    wp_prime_matrix(z, lat, 100)
    assert inverted == one_pass(r_dp)


@pytest.mark.parametrize("name", CASES)
def test_each_shell_is_built_once(name, shell_calls):
    z, lat = CASES[name]
    r = max(_stop_radius(z, lat, 100, derivative=False),
            _stop_radius(z, lat, 100, derivative=True))
    assert r <= weierstrass._POINTS_CAP
    cubic_report(z, lat, 100)
    assert shell_calls == list(range(1, r + 1))
    shell_calls.clear()
    cubic_report(z, lat, 100)
    wp_matrix(z, lat, 100)
    wp_prime_matrix(z, lat, 100)
    wp_matrix(z, lat, 3)
    assert shell_calls == []
    weierstrass._shell_table.cache_clear()
    wp_prime_matrix(z, lat, 5)
    assert shell_calls == [1, 2, 3, 4, 5]
    shell_calls.clear()
    cubic_report(z, lat, 100)
    assert shell_calls == list(range(6, r + 1))


def results(z, lat, captured):
    """cubic_report's p and p', then standalone p and p'."""
    cubic_report(z, lat, 100)
    return [captured["wp_matrix"][-1], captured["wp_prime_matrix"][-1],
            wp_matrix(z, lat, 100), wp_prime_matrix(z, lat, 100)]


@pytest.mark.parametrize("name", CASES)
def test_warm_table_gives_the_bits_of_a_cold_one(name, captured):
    z, lat = CASES[name]
    cold = results(z, lat, captured)
    warm = results(z, lat, captured)
    for a, b in zip(cold, warm):
        assert np.array_equal(a, b)
    want_p = reference_wp(z, lat, _stop_radius(z, lat, 100, False))
    want_dp = reference_wp_prime(z, lat, _stop_radius(z, lat, 100, True))
    for got, want in zip(cold, [want_p, want_dp] * 2):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", CASES)
def test_table_grown_in_steps_equals_a_cold_one(name, captured):
    z, lat = CASES[name]
    for r in (1, 4, 9):
        wp_matrix(z, lat, r)
        wp_prime_matrix(z, lat, r + 1)
    grown = results(z, lat, captured)
    weierstrass._shell_table.cache_clear()
    cold = results(z, lat, captured)
    for a, b in zip(grown, cold):
        assert np.array_equal(a, b)


def test_cached_data_is_read_only():
    z, lat = CASES["jordan"]
    cubic_report(z, lat, 100)
    table = weierstrass._shell_table(lat)
    assert table.shells
    for w, _, _ in table.shells:
        with pytest.raises(ValueError):
            w[0] = 0
    with pytest.raises(TypeError):
        table.exact[4] = 0j


@pytest.mark.parametrize("periods", [
    ((1.0, 2.0j), (1 + 0j, 2j)),
    ((complex(-1.0, -0.0), complex(-0.0, -3.0)),
     (complex(-1.0, 0.0), complex(0.0, -3.0))),
])
def test_equal_lattices_share_one_table(periods):
    lats = [Lattice(*p) for p in periods]
    assert lats[0] == lats[1]
    z = CASES["random-3x3-rect"][0]
    for lat in lats:
        r_p = _stop_radius(z, lat, 100, derivative=False)
        r_dp = _stop_radius(z, lat, 100, derivative=True)
        assert wp_matrix(z, lat, 100).tobytes() == \
            reference_wp(z, lat, r_p).tobytes()
        assert wp_prime_matrix(z, lat, 100).tobytes() == \
            reference_wp_prime(z, lat, r_dp).tobytes()
    info = weierstrass._shell_table.cache_info()
    assert (info.currsize, info.misses) == (1, 1)


def test_ninth_lattice_evicts_the_oldest():
    lats = [Lattice(1.0, (2.0 + i) * 1j) for i in range(9)]
    tables = [weierstrass._shell_table(lat) for lat in lats]
    assert weierstrass._shell_table.cache_info().currsize == 8
    for lat, table in zip(lats[1:], tables[1:]):
        assert weierstrass._shell_table(lat) is table
    assert weierstrass._shell_table(lats[0]) is not tables[0]


def test_error_while_growing_leaves_the_table_whole(monkeypatch):
    z, lat = CASES["random-3x3-rect"]
    inner = weierstrass._shell_points

    def failing(lat, s):
        if s == 5:
            raise RuntimeError("shell 5")
        return inner(lat, s)

    monkeypatch.setattr(weierstrass, "_shell_points", failing)
    with pytest.raises(RuntimeError):
        wp_matrix(z, lat, 100)
    assert len(weierstrass._shell_table(lat).shells) == 4
    monkeypatch.setattr(weierstrass, "_shell_points", inner)
    r_p = _stop_radius(z, lat, 100, derivative=False)
    assert np.array_equal(wp_matrix(z, lat, 100), reference_wp(z, lat, r_p))


def test_points_beyond_the_cap_are_not_kept():
    z, lat = np.array([[50.3 + 20.2j]]), RECT
    for derivative in (False, True):
        assert _stop_radius(z, lat, 300, derivative) == 300
    p, dp = wp_matrix(z, lat, 300), wp_prime_matrix(z, lat, 300)
    shells = weierstrass._shell_table(lat).shells
    assert len(shells) == 300
    assert [w is not None for w, _, _ in shells] == \
        [s <= weierstrass._POINTS_CAP for s in range(1, 301)]
    assert np.array_equal(p, reference_wp(z, lat, 300))
    assert np.array_equal(dp, reference_wp_prime(z, lat, 300))


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
