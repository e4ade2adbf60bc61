import cmath

import numpy as np
import pytest

from alcoves.weierstrass import (
    DegenerateLattice,
    Lattice,
    PoleError,
    cubic_report,
    eisenstein,
    eisenstein_truncated,
    invariants,
    wp_matrix,
    wp_prime_matrix,
    wp_scalar,
)

LAT = Lattice(1.0, 2.0j)


def rand_matrix(rng, n=3):
    z = rng.uniform(0.1, 0.9, (n, n)) + 1j * rng.uniform(0.2, 1.8, (n, n))
    return 0.4 * z + 0.3 * np.eye(n)


def test_degenerate_lattice_rejected():
    with pytest.raises(DegenerateLattice):
        Lattice(1.0, 2.0)
    with pytest.raises(DegenerateLattice):
        Lattice(0.0, 1.0j)


@pytest.mark.parametrize("periods,match", [
    ((complex("nan"), 1.0j), "finite"),
    ((1.0, complex(0, float("inf"))), "finite"),
    ((5e-324, 1.0j), "ratio"),
    # |a|^4 underflows to 0, and |a|^6 overflows, in G_4 and G_6
    ((1e-300, 1e-300j), "shortest period"),
    ((1e60, 1e60j), "shortest period"),
    # G_14 = sum' omega^-14 overflows
    ((1e-25, 1e-25j), "shortest period"),
])
def test_lattice_without_finite_eisenstein_values_rejected(periods, match):
    with pytest.raises(DegenerateLattice, match=match):
        Lattice(*periods)


def test_lattice_inside_period_range_accepted():
    for scale in (1e-20, 1e20):
        g2, g3 = invariants(Lattice(scale, 2j * scale))
        assert cmath.isfinite(g2) and cmath.isfinite(g3)


def test_eisenstein_guards():
    with pytest.raises(ValueError):
        eisenstein(LAT, 5)
    with pytest.raises(ValueError):
        eisenstein_truncated(LAT, 3, 50)


def test_square_lattice_g3_vanishes():
    assert abs(eisenstein(Lattice(1.0, 1.0j), 6)) < 1e-7


def test_hexagonal_lattice_g2_vanishes():
    hexa = Lattice(1.0, cmath.exp(1j * cmath.pi / 3))
    assert abs(eisenstein(hexa, 4)) < 1e-7


def test_truncated_oracle_converges_to_exact():
    # tail is O(R^{2-k}): successive radii must approach the q-series value
    exact = eisenstein(LAT, 4)
    errs = [abs(eisenstein_truncated(LAT, 4, r) - exact)
            for r in (20, 40, 80)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 4 * errs[1] / 4  # roughly quadratic decay


def test_wp_even_and_wp_prime_odd():
    rng = np.random.default_rng(2)
    z = rand_matrix(rng)
    assert np.max(np.abs(wp_matrix(-z, LAT, 60) - wp_matrix(z, LAT, 60))) \
        < 1e-9
    assert np.max(np.abs(wp_prime_matrix(-z, LAT, 60)
                         + wp_prime_matrix(z, LAT, 60))) < 1e-9


def test_diagonal_matrix_is_entrywise_scalar():
    d = np.diag([0.3 + 0.2j, 0.45 + 0.8j, 0.2 + 1.1j])
    m = wp_matrix(d, LAT, 60)
    mp = wp_prime_matrix(d, LAT, 60)
    for k in range(3):
        assert abs(m[k, k] - wp_scalar(d[k, k], LAT, 60)) < 1e-12
        assert abs(mp[k, k]
                   - wp_prime_matrix([[d[k, k]]], LAT, 60)[0, 0]) < 1e-12
    off = m - np.diag(np.diag(m))
    assert np.max(np.abs(off)) == 0


def test_half_period_roots_sum_to_zero():
    e = [wp_scalar(w / 2, LAT, 100) for w in (1.0, 2.0j, 1.0 + 2.0j)]
    assert abs(sum(e)) < 1e-7


def test_wp_prime_vanishes_at_half_period():
    assert abs(wp_prime_matrix([[0.5]], LAT, 100)[0, 0]) < 1e-6


def test_pole_detection():
    with pytest.raises(PoleError):
        wp_matrix([[1e-9]], LAT, 20)
    with pytest.raises(PoleError):
        wp_matrix([[1.0 + 2.0j + 1e-8]], LAT, 20)


def test_cubic_scalar():
    rep = cubic_report([[0.3 + 0.2j]], LAT, 100)
    assert max(rep["residual_cubic"], rep["residual_commutator"]) < 1e-6


def test_cubic_matrix_and_commutator():
    rng = np.random.default_rng(5)
    for _ in range(3):
        rep = cubic_report(rand_matrix(rng), LAT, 100)
        assert rep["residual_cubic"] < 1e-5
        assert rep["residual_commutator"] < 1e-9


def test_cubic_jordan_block():
    ev = 0.4 + 0.3j
    z = np.array([[ev, 1, 0], [0, ev, 1], [0, 0, ev]])
    rep = cubic_report(z, LAT, 100)
    assert max(rep["residual_cubic"], rep["residual_commutator"]) < 1e-5


def test_residual_decreases_with_radius():
    z = np.array([[0.3 + 0.2j]])
    reps = [cubic_report(z, LAT, r) for r in (40, 80, 160)]
    res = [max(r["residual_cubic"], r["residual_commutator"]) for r in reps]
    # the tail-corrected sum is already at the rounding floor for every
    # radius, so "decreasing within noise" collapses to staying at the floor
    assert max(res) < 1e-9


def test_periodicity():
    z = np.array([[0.3 + 0.2j, 0.1], [0.05j, 0.4 + 0.25j]])
    eye = np.eye(2)
    shifts = (0, LAT.omega1, LAT.omega2)
    p60 = [wp_matrix(z + w * eye, LAT, 60) for w in shifts]
    p120 = [wp_matrix(z + w * eye, LAT, 120) for w in shifts]
    # both radii stop at the same certified shell, below 60
    assert all(np.array_equal(a, b) for a, b in zip(p60, p120))
    for shifted in p120[1:]:
        assert np.max(np.abs(shifted - p120[0])) < 1e-9


def test_spectral_functoriality():
    rng = np.random.default_rng(8)
    d = np.diag([0.3 + 0.2j, 0.45 + 0.8j, 0.2 + 1.1j])
    p = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
    z = p @ d @ np.linalg.inv(p)
    lhs = wp_matrix(z, LAT, 100)
    rhs = p @ wp_matrix(d, LAT, 100) @ np.linalg.inv(p)
    assert np.max(np.abs(lhs - rhs)) < 1e-7


def test_invariants_are_the_standard_multiples():
    g2, g3 = invariants(LAT)
    assert abs(g2 - 60 * eisenstein(LAT, 4)) < 1e-12
    assert abs(g3 - 140 * eisenstein(LAT, 6)) < 1e-12


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        wp_matrix([[0.1, 0.2]], LAT, 20)
