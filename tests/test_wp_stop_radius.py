"""The certified stop shell R* of the matrix p and p' lattice sums, checked
against the fixed-radius shell sum, which always sums every shell up to
`radius`.  The fixed-radius sums enumerate each shell with a Python loop,
the oracle of the library's vectorized `_shell_points`."""

import cmath

import numpy as np
import pytest

from alcoves.weierstrass import (
    Lattice,
    _TAIL_TERMS,
    _eisenstein_exact_table,
    _shell_points,
    _stop_radius,
    wp_matrix,
    wp_prime_matrix,
)

RECT = Lattice(1.0, 2.0j)
HEX = Lattice(1.0, cmath.exp(1j * cmath.pi / 3))


def shell_points_loop(lat, s):
    """Lattice points m*w1 + n*w2 with max(|m|,|n|) = s, lexicographic."""
    pts = []
    for m in range(-s, s + 1):
        if abs(m) == s:
            ns = range(-s, s + 1)
        else:
            ns = (-s, s)
        for n in ns:
            pts.append(m * lat.omega1 + n * lat.omega2)
    return np.array(pts, dtype=complex)


def _tail_table(lat, radius):
    """G_k minus its shell sum through radius, for the corrected weights."""
    kmax = 2 * _TAIL_TERMS + 2
    raw = dict.fromkeys(range(4, kmax + 1, 2), 0j)
    for s in range(1, radius + 1):
        w = shell_points_loop(lat, s)
        w2 = 1.0 / (w * w)
        wk = w2 * w2
        for k in raw:
            raw[k] += complex(np.sum(wk))
            wk = wk * w2
    exact = _eisenstein_exact_table(lat, kmax)
    return {k: exact[k] - raw[k] for k in raw}


def reference_wp(z, lat, radius):
    """p(Z) summed over every shell up to radius, tail-corrected there."""
    z = np.asarray(z, dtype=complex)
    n = z.shape[0]
    eye = np.eye(n, dtype=complex)
    acc = np.linalg.inv(z)
    acc = acc @ acc
    for s in range(1, radius + 1):
        w = shell_points_loop(lat, s)
        shifted = z[None, :, :] + w[:, None, None] * eye[None, :, :]
        inv = np.linalg.inv(shifted)
        acc = acc + np.sum(inv @ inv, axis=0) \
            - complex(np.sum(1.0 / (w * w))) * eye
    tail = _tail_table(lat, radius)
    zp = z @ z
    pw = eye
    for m in range(1, _TAIL_TERMS + 1):
        pw = pw @ zp
        acc = acc + (2 * m + 1) * tail[2 * m + 2] * pw
    return acc


def reference_wp_prime(z, lat, radius):
    """p'(Z) summed over every shell up to radius, tail-corrected there."""
    z = np.asarray(z, dtype=complex)
    n = z.shape[0]
    eye = np.eye(n, dtype=complex)
    inv0 = np.linalg.inv(z)
    acc = -2 * inv0 @ inv0 @ inv0
    for s in range(1, radius + 1):
        w = shell_points_loop(lat, s)
        shifted = z[None, :, :] + w[:, None, None] * eye[None, :, :]
        inv = np.linalg.inv(shifted)
        acc = acc - 2 * np.sum(inv @ inv @ inv, axis=0)
    tail = _tail_table(lat, radius)
    zp = z @ z
    pw = z
    for m in range(1, _TAIL_TERMS + 1):
        acc = acc + (2 * m + 1) * (2 * m) * tail[2 * m + 2] * pw
        pw = pw @ zp
    return acc


def rand_matrix(rng, n):
    z = rng.uniform(0.1, 0.9, (n, n)) + 1j * rng.uniform(0.2, 1.8, (n, n))
    return 0.4 * z + 0.3 * np.eye(n)


def im_spread_5(rng):
    """Non-normal 3x3 whose eigenvalues spread 5 in Im."""
    upper = np.triu(rng.uniform(-0.5, 0.5, (3, 3)), 1)
    return np.diag([0.3 - 2.3j, 0.45 + 0.2j, 0.2 + 2.7j]) + upper


def cases():
    rng = np.random.default_rng(11)
    ev = 0.4 + 0.3j
    return {
        "jordan": (np.array([[ev, 1, 0], [0, ev, 1], [0, 0, ev]]), RECT),
        "random-3x3-rect": (rand_matrix(rng, 3), RECT),
        "random-8x8-hex": (rand_matrix(rng, 8), HEX),
        "im-spread-5": (im_spread_5(rng), RECT),
        "unreduced-basis": (rand_matrix(rng, 3), Lattice(1.0, 3.0 + 2.0j)),
    }


CASES = cases()
FUNCTIONS = [(wp_matrix, reference_wp, False),
             (wp_prime_matrix, reference_wp_prime, True)]


def rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("lat", [
    RECT, HEX, Lattice(1.0, 3.0 + 2.0j), Lattice(0.7 - 0.3j, -0.2 + 1.9j),
    Lattice(2.5, 0.001 + 4.0j), Lattice(complex(-1.0, -0.0),
                                        complex(-0.0, -3.0)),
], ids=repr)
def test_shell_points_match_the_loop(lat):
    for s in range(1, 300):
        assert _shell_points(lat, s).tobytes() == \
            shell_points_loop(lat, s).tobytes()


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("fn,ref,derivative", FUNCTIONS)
def test_matches_full_radius_sum(name, fn, ref, derivative):
    z, lat = CASES[name]
    r_star = _stop_radius(z, lat, 100, derivative)
    assert r_star < 100  # the stop rule cuts the sum short on every case
    got = fn(z, lat, 100)
    # shells 1..R*, tail-corrected at R*: the reference loop stopped there
    assert np.array_equal(got, ref(z, lat, r_star))
    assert rel_err(got, ref(z, lat, 100)) < 1e-12


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("derivative", [False, True])
def test_stop_radius_never_exceeds_radius(name, derivative):
    z, lat = CASES[name]
    for radius in (1, 2, 5, 20, 100, 400):
        assert 1 <= _stop_radius(z, lat, radius, derivative) <= radius


@pytest.mark.parametrize("fn,ref,derivative", FUNCTIONS)
def test_radius_below_stop_radius_is_summed_as_given(fn, ref, derivative):
    z, lat = CASES["random-3x3-rect"]
    r_star = _stop_radius(z, lat, 100, derivative)
    for radius in (1, r_star // 2, r_star - 1):
        assert np.array_equal(fn(z, lat, radius), ref(z, lat, radius))


@pytest.mark.parametrize("fn", [wp_matrix, wp_prime_matrix])
def test_radius_below_one_rejected(fn):
    for radius in (0, -3):
        with pytest.raises(ValueError, match="radius"):
            fn([[0.3 + 0.2j]], RECT, radius)
