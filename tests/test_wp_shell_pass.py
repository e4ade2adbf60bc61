"""cubic_report takes p and p' from one pass over the lattice shells, handed
to the module's wp_matrix and wp_prime_matrix through a one-entry slot;
standalone calls sum only their own series.  The shells' Z-independent
data come from a per-lattice table, built once and grown on demand.  The
pass inverts the shells in groups, from n = 7 on helper threads; the
pass that inverts one shell at a time is kept here as its oracle, and the
two agree bit for bit."""

import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

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
from test_wp_stop_radius import (
    CASES,
    RECT,
    rand_matrix,
    reference_wp,
    reference_wp_prime,
)


@pytest.fixture(autouse=True)
def cold_tables():
    """Each test starts, and ends, with no lattice's shell table."""
    weierstrass._shell_table.cache_clear()
    yield
    weierstrass._shell_table.cache_clear()


@pytest.fixture
def inverted(monkeypatch):
    """Each np.linalg.inv call as (the number of matrices handed to it,
    the top-left entry of the first).  Groups of shells may be inverted
    on several threads, so the calls are listed in the order the threads
    made them."""
    calls = []
    inner = np.linalg.inv

    def counting(a):
        calls.append((int(np.prod(np.shape(a)[:-2])),
                      complex(np.asarray(a).flat[0])))
        return inner(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    return calls


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


def shell_groups(radius, n, budget):
    """Shells 1..radius grouped as the pass inverts them: a shell joins the
    group before it while the group's points times n^2 stay within budget,
    and a shell over budget on its own is a group by itself."""
    groups, points = [], 0
    for s in range(1, radius + 1):
        if groups and (points + 8 * s) * n * n <= budget:
            groups[-1].append(s)
            points += 8 * s
        else:
            groups.append([s])
            points = 8 * s
    return groups


def assert_one_pass(calls, z, lat, radius, budget=None):
    """`inverted` calls of one pass through shell radius, in any order but
    Z's: Z is inverted first; then each group of shells is inverted once,
    in one call, as the stack of the 8s matrices Z + wI of its shells; a
    stack holds at most budget entries unless its one shell alone is
    over; and 1 + 4R(R+1) matrices are inverted in all.  A call is matched
    to its group by its first matrix, whose top-left entry is z[0, 0] plus
    the first point of the group's first shell.  Returns each group's
    stack size, in shell order."""
    if budget is None:
        budget = weierstrass._GROUP_ENTRIES
    n = z.shape[0]
    groups = [tuple(g) for g in shell_groups(radius, n, budget)]
    assert calls[0] == (1, complex(z[0, 0]))
    group_of = {complex(z[0, 0] + weierstrass._shell_points(lat, g[0])[0]): g
                for g in groups}
    sizes = {}
    for size, first in calls[1:]:
        group = group_of[first]
        assert group not in sizes
        sizes[group] = size
    assert set(sizes) == set(groups)
    for g in groups:
        assert sizes[g] == sum(8 * s for s in g)
        assert sizes[g] * n * n <= budget or len(g) == 1
    assert sum(size for size, _ in calls) == 1 + 4 * radius * (radius + 1)
    return [sizes[g] for g in groups]


def test_group_budget_is_64_kib():
    assert weierstrass._GROUP_ENTRIES == 2 ** 12
    assert shell_groups(40, 1, 2 ** 12)[:2] == \
        [list(range(1, 32)), list(range(32, 41))]
    assert shell_groups(9, 8, 2 ** 12) == \
        [[1, 2, 3], [4], [5], [6], [7], [8], [9]]


@pytest.mark.parametrize("name", CASES)
def test_one_shell_pass_per_cubic_report(name, inverted):
    z, lat = CASES[name]
    r_p = _stop_radius(z, lat, 100, derivative=False)
    r_dp = _stop_radius(z, lat, 100, derivative=True)
    for _ in range(2):  # a cold table, then a warm one
        inverted.clear()
        cubic_report(z, lat, 100)
        assert_one_pass(inverted, z, lat, max(r_p, r_dp))
    inverted.clear()
    wp_matrix(z, lat, 100)
    assert_one_pass(inverted, z, lat, r_p)
    inverted.clear()
    wp_prime_matrix(z, lat, 100)
    assert_one_pass(inverted, z, lat, r_dp)


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


def shell_sums_per_shell(z, lat, r_p, r_dp):
    """The shell pass one shell at a time, one np.linalg.inv call per
    shell: the oracle of the grouped `_shell_sums`."""
    table = weierstrass._shell_table(lat)
    eye = np.eye(z.shape[0], dtype=complex)
    inv0 = np.linalg.inv(z)
    p = inv0 @ inv0 if r_p else None
    dp = -2 * inv0 @ inv0 @ inv0 if r_dp else None
    shells = table.grow(max(r_p, r_dp))
    for s, (w, w2_sum, _) in enumerate(shells, 1):
        if w is None:
            w = weierstrass._shell_points(lat, s)
        shifted = z[None, :, :] + w[:, None, None] * eye[None, :, :]
        inv = np.linalg.inv(shifted)
        inv2 = inv @ inv
        if s <= r_p:
            p = p + np.sum(inv2, axis=0) - w2_sum * eye
        if s <= r_dp:
            dp = dp - 2 * np.sum(inv2 @ inv, axis=0)

    def tail(r):
        if not r:
            return None
        return {k: g - raw for (k, g), raw in zip(table.exact.items(),
                                                   shells[r - 1][2])}

    return (p, tail(r_p)), (dp, tail(r_dp))


def assert_same_bits(got, want):
    """Both series of two shell passes, sums and tail tables, bit for bit."""
    for (acc, tail), (want_acc, want_tail) in zip(got, want):
        if want_acc is None:
            assert acc is None and tail is None and want_tail is None
            continue
        assert acc.tobytes() == want_acc.tobytes()
        assert list(tail) == list(want_tail)
        assert np.array(list(tail.values())).tobytes() == \
            np.array(list(want_tail.values())).tobytes()


def oracle_matrices():
    """Each CASES entry, and n x n matrices for n = 1, 2, 3 and 8 on its
    lattice."""
    rng = np.random.default_rng(15)
    out = {}
    for name, (z, lat) in CASES.items():
        out[name] = (z, lat)
        for n in (1, 2, 3, 8):
            out[f"{name}-n{n}"] = (rand_matrix(rng, n) * 3 / n, lat)
    return out


ORACLE_MATRICES = oracle_matrices()
# (r_p, r_dp) pairs: radius 1, either radius 0, each radius the larger, and
# both sides of the first group boundary at n = 1 (shells 31 and 32)
PASS_RADII = [(1, 1), (1, 0), (0, 1), (5, 9), (9, 5), (0, 7), (7, 0),
              (31, 32), (32, 31), (45, 44)]


@pytest.mark.parametrize("name", ORACLE_MATRICES)
def test_grouped_pass_matches_the_per_shell_pass(name):
    z, lat = ORACLE_MATRICES[name]
    stop = (_stop_radius(z, lat, 100, derivative=False),
            _stop_radius(z, lat, 100, derivative=True))
    for r_p, r_dp in [stop] + PASS_RADII:
        assert_same_bits(weierstrass._shell_sums(z, lat, r_p, r_dp),
                         shell_sums_per_shell(z, lat, r_p, r_dp))


@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("budget", [8, 48, 2 ** 12, 2 ** 20])
def test_groups_follow_the_budget(n, budget, inverted, monkeypatch):
    """At n = 1 a budget of 8 puts each shell in a group of its own, and one
    of 48 fills the group of shells 1..3 exactly; at n = 8 and 2^12 shell 8
    fills its group exactly; 2^20 puts the shells 1..45 in one group at
    n = 1, 2 and 8."""
    z = rand_matrix(np.random.default_rng(n), n) * 3 / n
    monkeypatch.setattr(weierstrass, "_GROUP_ENTRIES", budget)
    for r_p, r_dp in [(45, 44), (12, 0), (0, 12)]:
        inverted.clear()
        got = weierstrass._shell_sums(z, RECT, r_p, r_dp)
        sizes = assert_one_pass(inverted, z, RECT, max(r_p, r_dp), budget)
        assert_same_bits(got, shell_sums_per_shell(z, RECT, r_p, r_dp))
        if (n, budget) == (1, 48):
            assert sizes[:3] == [48, 32, 40]
        if (n, budget) == (8, 2 ** 12):
            assert sizes[:6] == [48, 32, 40, 48, 56, 64]


def test_groups_past_the_points_cap_match_the_per_shell_pass(inverted):
    """Z = 50.3+20.2i certifies no shell up to 300, so the pass runs
    multi-shell groups over shells past _POINTS_CAP, whose points it
    rebuilds."""
    z = np.array([[50.3 + 20.2j]])
    got = weierstrass._shell_sums(z, RECT, 300, 300)
    assert_one_pass(inverted, z, RECT, 300)
    groups = shell_groups(300, 1, weierstrass._GROUP_ENTRIES)
    assert any(len(g) > 1 and g[0] > weierstrass._POINTS_CAP
               for g in groups)
    assert any(g[0] <= weierstrass._POINTS_CAP < g[-1] for g in groups)
    assert_same_bits(got, shell_sums_per_shell(z, RECT, 300, 300))


# -- groups on helper threads ---------------------------------------------------

N8_CASES = [name for name, (z, _) in CASES.items() if z.shape[0] == 8]
SRC = Path(weierstrass.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent


def run_python(script, *args):
    """Runs script in a fresh interpreter that imports this checkout's
    alcoves and these tests' modules; returns what it pickled to stdout."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, timeout=120, check=True)
    return pickle.loads(done.stdout)


ONE_CPU_PASS = """
import os, pickle, sys, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from alcoves import weierstrass
from test_wp_shell_pass import ORACLE_MATRICES, PASS_RADII, _stop_radius

started = []
start = threading.Thread.start
threading.Thread.start = lambda t: (started.append(t), start(t))
z, lat = ORACLE_MATRICES[sys.argv[1]]
stop = (_stop_radius(z, lat, 100, derivative=False),
        _stop_radius(z, lat, 100, derivative=True))
sums = [weierstrass._shell_sums(z, lat, r_p, r_dp)
        for r_p, r_dp in [stop] + PASS_RADII]
pickle.dump((weierstrass._usable_cpus(), len(started), sums), sys.stdout.buffer)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
@pytest.mark.parametrize("name", N8_CASES)
def test_one_cpu_pass_runs_inline_with_the_oracle_bits(name):
    """Pinned to one CPU before alcoves is imported, the pass starts no
    thread, and its sums keep the per-shell pass's bits."""
    cpus, started, sums = run_python(ONE_CPU_PASS, name)
    assert (cpus, started) == (1, 0)
    z, lat = ORACLE_MATRICES[name]
    stop = (_stop_radius(z, lat, 100, derivative=False),
            _stop_radius(z, lat, 100, derivative=True))
    for (r_p, r_dp), got in zip([stop] + PASS_RADII, sums, strict=True):
        assert_same_bits(got, shell_sums_per_shell(z, lat, r_p, r_dp))


@pytest.mark.parametrize("name", N8_CASES)
def test_an_error_in_one_group_reaches_the_caller(name, monkeypatch):
    """np.linalg.inv fails on the stacks of shells 8 and 9, the groups of
    64 and 72 matrices; on two or more CPUs both fail, each waiting for
    the other.  The caller gets the exception of shell 8, the same object,
    once every helper has ended, and the next pass keeps the per-shell
    pass's bits."""
    z, lat = CASES[name]
    r = _stop_radius(z, lat, 100, derivative=True)
    assert shell_groups(r, 8, weierstrass._GROUP_ENTRIES)[4:7] == \
        [[7], [8], [9]]
    errors = {64: FloatingPointError("shell 8"), 72: ValueError("shell 9")}
    threaded = weierstrass._usable_cpus() > 1
    both_failing = threading.Barrier(2 if threaded else 1, timeout=60)
    failed = []
    inner = np.linalg.inv

    def failing(a):
        if len(a) in errors:
            failed.append(len(a))
            both_failing.wait()
            raise errors[len(a)]
        return inner(a)

    threads = threading.active_count()
    monkeypatch.setattr(np.linalg, "inv", failing)
    with pytest.raises(FloatingPointError) as info:
        weierstrass._shell_sums(z, lat, r, r)
    assert info.value is errors[64]
    assert sorted(failed) == ([64, 72] if threaded else [64])
    assert threading.active_count() == threads
    monkeypatch.setattr(np.linalg, "inv", inner)
    assert_same_bits(weierstrass._shell_sums(z, lat, r, r),
                     shell_sums_per_shell(z, lat, r, r))


FORK_AFTER_PASS = """
import os, pickle, signal, sys
from alcoves import weierstrass
from test_wp_stop_radius import CASES

got = []
for name in ("wp_matrix", "wp_prime_matrix"):
    def capture(*args, _inner=getattr(weierstrass, name)):
        got.append(_inner(*args))
        return got[-1]
    setattr(weierstrass, name, capture)

def p_and_dp():
    got.clear()
    weierstrass.cubic_report(z, lat, 100)
    return list(got)

z, lat = CASES[sys.argv[1]]
before = p_and_dp()
read, write = os.pipe()
pid = os.fork()
if pid == 0:
    signal.alarm(100)  # a child that hangs does not outlive the test
    os.close(read)
    with os.fdopen(write, "wb") as out:
        pickle.dump(p_and_dp(), out)
    os._exit(0)
os.close(write)
with os.fdopen(read, "rb") as pipe:
    child = pickle.load(pipe)
assert os.waitpid(pid, 0)[1] == 0
pickle.dump((before, child), sys.stdout.buffer)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("name", N8_CASES)
def test_a_child_forked_after_a_pass_gets_the_same_bits(name):
    """A pass leaves no thread behind: a child forked after one finishes
    its own cubic_report, within the timeout of `run_python`, with the
    bits of the pass before the fork and of the per-shell sums."""
    before, child = run_python(FORK_AFTER_PASS, name)
    z, lat = CASES[name]
    want = [reference_wp(z, lat, _stop_radius(z, lat, 100, False)),
            reference_wp_prime(z, lat, _stop_radius(z, lat, 100, True))]
    for got in (before, child):
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


def test_helpers_run_with_the_callers_numpy_error_state():
    """A group on a helper thread sees the np.errstate of the caller: the
    first two groups wait for each other, so each runs on its own
    thread."""
    both_running = threading.Barrier(2, timeout=60)

    def over(g):
        if g < 2:
            both_running.wait()
        return threading.get_ident(), np.geterr()["over"]

    with np.errstate(over="raise"):
        seen = weierstrass._each_group(over, range(8), threads=2)
    assert len({thread for thread, _ in seen[:2]}) == 2
    assert [state for _, state in seen] == ["raise"] * 8


@pytest.mark.parametrize("name", N8_CASES)
def test_a_pass_runs_on_at_most_two_helpers(name, monkeypatch):
    """With more usable CPUs than the two measured, a pass still starts at
    most two helper threads, inverts every group on them, and keeps the
    per-shell pass's bits."""
    monkeypatch.setattr(weierstrass, "_usable_cpus", lambda: 16)
    z, lat = CASES[name]
    r = _stop_radius(z, lat, 100, derivative=True)
    assert len(shell_groups(r, 8, weierstrass._GROUP_ENTRIES)) > 2
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda t: (started.append(t), start(t)))
    inverting = set()
    inner = np.linalg.inv

    def recording(a):
        if np.ndim(a) == 3:
            inverting.add(threading.get_ident())
        return inner(a)

    monkeypatch.setattr(np.linalg, "inv", recording)
    got = weierstrass._shell_sums(z, lat, r, r)
    assert 1 <= len(started) <= weierstrass._MAX_THREADS == 2
    assert threading.get_ident() not in inverting
    assert len(inverting) <= 2
    monkeypatch.setattr(np.linalg, "inv", inner)
    assert_same_bits(got, shell_sums_per_shell(z, lat, r, r))
