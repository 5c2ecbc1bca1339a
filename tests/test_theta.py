import itertools
import math
import operator
import sys
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import THETA00_AT_I, mp_theta, mp_theta_moment, mp_theta_tail

from siegeltheta import theta as kernel
from siegeltheta.characteristics import Characteristic, enumerate_characteristics
from siegeltheta.siegel import DerivationIndex, SiegelPoint
from siegeltheta.theta import (
    NearZeroThetanull,
    QuarticForm,
    SymmetricForm,
    TruncationError,
    batch_moments,
    delta_theta,
    odd_z_gradient,
    psi_matrix,
    quartic_delta_psi,
    theta_jet,
    theta_moments,
    theta_values,
    truncation_radius,
    _AxisSums,
    _box_tails,
    _radius_scan,
    _exp_terms,
    _lattice_two_m,
    _phase_factors,
)

TAU_I = SiegelPoint(1, np.array([[1j]]))
C00 = Characteristic(1, (0,), (0,))
C01 = Characteristic(1, (0,), (1,))
C10 = Characteristic(1, (1,), (0,))
C11 = Characteristic(1, (1,), (1,))


def _random_point(genus, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (genus, genus))
    x = (x + x.T) / 2
    y = np.diag(rng.uniform(0.8, 2.0, genus))
    s = rng.uniform(-0.08, 0.08, (genus, genus))
    return SiegelPoint(genus, x + 1j * (y + (s + s.T) / 2))


# ----------------------------------------------------------------------
# truncation bounds
# ----------------------------------------------------------------------

def test_truncation_radius_at_i_small():
    result = truncation_radius(TAU_I, None, 1e-15)
    assert result.radius <= 6
    assert result.bound <= 1e-15
    # the certified bound dominates the exact tail at the same radius
    true_tail = float(mp_theta_tail(1.0, result.radius))
    assert result.bound >= true_tail


def test_truncation_radius_monotone_in_imag():
    for genus, seed in [(1, 0), (2, 1)]:
        pt = _random_point(genus, seed)
        doubled = SiegelPoint(genus, pt.tau.real + 2j * pt.tau.imag)
        n1 = truncation_radius(pt, None, 1e-14).radius
        n2 = truncation_radius(doubled, None, 1e-14).radius
        assert n2 <= n1


def test_truncation_radius_monotone_in_eps():
    pt = _random_point(2, 5)
    radii = [truncation_radius(pt, None, e).radius for e in (1e-6, 1e-10, 1e-14)]
    assert radii == sorted(radii)
    bounds = [truncation_radius(pt, None, e).bound for e in (1e-6, 1e-10, 1e-14)]
    assert bounds == sorted(bounds, reverse=True)


def test_truncation_bound_dominates_true_tail_100_samples():
    # oracle: brute-force abs-sum of the terms in box(N+10) \ box(N)
    count = 0
    for seed in range(100):
        genus = 1 + seed % 2
        rng = np.random.default_rng(1000 + seed)
        pt = _random_point(genus, 1000 + seed)
        z = rng.uniform(-0.3, 0.3, genus) + 1j * rng.uniform(-0.3, 0.3, genus)
        for a in (Characteristic(genus, (0,) * genus, (0,) * genus),
                  Characteristic(genus, (1,) * genus, (0,) * genus)):
            res = truncation_radius(pt, z, 1e-12, a=a)
            inner = {tuple(r) for r in _lattice_two_m(a.a_prime, res.radius)}
            outer = _lattice_two_m(a.a_prime, res.radius + 10)
            sel = np.array([tuple(r) not in inner for r in outer])
            shell = outer[sel]
            tail_true = float(np.abs(_exp_terms(shell, pt.tau, z)).sum())
            assert res.bound >= tail_true
            count += 1
    assert count == 200


def test_truncation_radius_rejects_bad_eps():
    for eps in (0.0, -1e-14, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            truncation_radius(TAU_I, None, eps)
    with pytest.raises(ValueError, match="finite and positive"):
        theta_jet(Characteristic(1, (0,), (0,)), None, TAU_I, math.nan)


def test_truncation_radius_refuses_box_beyond_point_budget():
    # radius arithmetic only: no lattice is allocated.  Without the budget
    # this genus-3 point needs radius 186, a box of 5.2e7 points.
    zero3 = Characteristic(3, (0, 0, 0), (0, 0, 0))
    with pytest.raises(TruncationError, match="lattice points"):
        truncation_radius(SiegelPoint(3, 1e-3j * np.eye(3)), None, 1e-14, weight=4, a=zero3)
    # the budget counts points, not radius: the same depth at genus 2
    # needs radius 179, a box of 359^2 points, and is accepted
    zero2 = Characteristic(2, (0, 0), (0, 0))
    res = truncation_radius(SiegelPoint(2, 1e-3j * np.eye(2)), None, 1e-14, weight=4, a=zero2)
    assert res.radius == 179 and res.bound <= 1e-14


def test_truncation_radius_refuses_terms_beyond_the_float_range():
    # |Im z| = 2 against lambda_min = 0.01: the one-dimensional terms peak
    # near exp(1256), past the float range; the scan finds no bound
    # instead of raising OverflowError from math.exp
    tau = SiegelPoint(1, np.array([[0.01j]]))
    with pytest.raises(TruncationError, match="no radius"):
        theta_jet(C00, np.array([2j]), tau)


def _first_certified_radius(pt, z, eps, weight, a):
    """Reference search: the first radius whose bound for weight meets eps."""
    r = 0.0 if z is None else float(np.linalg.norm(np.imag(z)))
    nrad = 1
    axis = _AxisSums(r)
    while not _box_tails(axis, pt.lambda_min, a.a_prime, nrad, (weight,))[weight] <= eps:
        nrad += 1
    return nrad


def test_box_radius_is_the_largest_per_weight_radius():
    # the one radius scan certifies each weight where its own search would
    two_pi = 2.0 * math.pi
    eps_sets = ((1e-14, 1e-14 / two_pi, 1e-14 / two_pi**2), (1e-12,) * 5, (1e-14, 1.0, 1.0))
    for seed in range(24):
        genus = 1 + seed % 3
        rng = np.random.default_rng(2000 + seed)
        pt = _random_point(genus, 2000 + seed)
        pt = SiegelPoint(genus, pt.tau.real + 1j * rng.uniform(0.05, 1.0) * pt.tau.imag)
        z = rng.uniform(-0.3, 0.3, genus) + 1j * rng.uniform(-0.3, 0.3, genus)
        z = None if seed % 2 else z
        chars = enumerate_characteristics(genus)
        a = chars[seed % len(chars)]
        for eps_by_weight in eps_sets:
            own = [truncation_radius(pt, z, e, w, a) for w, e in enumerate(eps_by_weight)]
            assert [r.radius for r in own] == [
                _first_certified_radius(pt, z, e, w, a) for w, e in enumerate(eps_by_weight)
            ]
            nrad, bounds = _radius_scan(pt, z, a.a_prime, dict(enumerate(eps_by_weight)))
            assert nrad == max(r.radius for r in own)
            assert bounds[0] <= own[0].bound
            if own[0].radius == nrad:
                assert bounds[0] == own[0].bound


def _gauss_terms(lam, r, shift, nrad):
    """2 h(x) for the first nrad lattice points x > 0 of Z + shift/2, by
    the expression _AxisSums evaluates."""
    xs = np.arange(0.5, nrad + 0.25, 1.0) if shift else np.arange(1.0, nrad + 0.5, 1.0)
    return 2.0 * np.exp(-math.pi * lam * xs * xs + 2 * math.pi * r * xs)


def test_exp_of_a_longer_array_keeps_every_prefix_bit():
    # _AxisSums sums prefixes of one np.exp array; numpy's vectorized exp
    # must round each element as it does in the shorter array
    rng = np.random.default_rng(31)
    for _ in range(60):
        lam, r = 10 ** rng.uniform(-3, 1), rng.uniform(0, 0.5)
        shift = int(rng.integers(2))
        full = _gauss_terms(lam, r, shift, 200)
        for nrad in list(range(1, 40)) + [63, 64, 65, 127, 128, 129, 199]:
            assert _gauss_terms(lam, r, shift, nrad).tobytes() == full[:nrad].tobytes()


def test_axis_sums_match_a_rebuild_per_radius_bitwise():
    # the reference builds the terms of each radius from scratch
    rng = np.random.default_rng(32)
    for _ in range(40):
        lam, r = 10 ** rng.uniform(-2.5, 1), rng.uniform(0, 1.5)
        axis = _AxisSums(r)
        for nrad in [50] + list(range(1, 70)):  # a large radius first, then growing
            for shift in (0, 1):
                terms = _gauss_terms(lam, r, shift, nrad)
                inside = math.fsum(terms) if shift else 1.0 + math.fsum(terms)
                x1 = nrad + 0.5 if shift else float(nrad + 1)
                rho = math.exp(-math.pi * lam * (2 * x1 + 1) + 2 * math.pi * r)
                tail = math.inf
                if rho < 1.0:
                    h1 = math.exp(-math.pi * lam * x1 * x1 + 2 * math.pi * r * x1)
                    tail = 2.0 * h1 / (1.0 - rho)
                s, t = axis(lam, shift, nrad)
                assert (s.hex(), t.hex()) == (inside.hex(), tail.hex())


# ----------------------------------------------------------------------
# values and jets
# ----------------------------------------------------------------------

def test_theta00_at_i_against_50_digit_oracle():
    jet = theta_jet(C00, None, TAU_I, 1e-15)
    assert abs(jet.value - complex(mp_theta((0,), (0,), None, [[1j]]))) < 1e-13
    assert abs(jet.value - float(THETA00_AT_I)) < 1e-12
    assert jet.value.imag == 0.0  # conjugate-symmetric lattice at purely imaginary tau


def test_large_real_parts_against_50_digit_oracle():
    # an anisotropic genus-2 point with Re tau and Re z far from 0: the
    # phase pi m^t (Re tau) m reaches 10^8 in the box, so it must be
    # reduced exactly (an unreduced phase is off by about 2e-10 here)
    x = np.array([[2.0e6 + 0.3, -7.0e5 - 0.45], [-7.0e5 - 0.45, 3.0e5 + 0.8]])
    tau = SiegelPoint(2, x + 1j * np.array([[0.5, 0.2], [0.2, 1.6]]))
    z = np.array([1.0e5 + 0.2 + 0.05j, -3.0e4 + 0.1 - 0.1j])
    even = [Characteristic(2, (0, 0), (0, 0)), Characteristic(2, (1, 0), (0, 1)),
            Characteristic(2, (1, 1), (0, 0))]
    odd = [Characteristic(2, (1, 0), (1, 1)), Characteristic(2, (1, 1), (0, 1))]
    values = theta_values(even + odd, z, tau)
    nulls = theta_values(even, None, tau)
    moments = batch_moments(even, tau, order=2)
    t = tau.tau.tolist()
    for a in even + odd:
        ref = complex(mp_theta(a.a_prime, a.a_double_prime, z.tolist(), t, radius=12))
        assert abs(values[a] - ref) < 1e-13
    for a in even:
        assert abs(nulls[a] - complex(mp_theta(a.a_prime, a.a_double_prime, None, t, radius=12))) < 1e-13
        ref = complex(mp_theta_moment(a.a_prime, a.a_double_prime, t, (1, 1), radius=12))
        assert abs(moments[a].t2[0, 1] - ref) < 1e-13


def test_theta00_is_periodic_in_re_tau_to_the_bit():
    # theta_00(tau + 8k) = theta_00(tau), and 8k is reduced away exactly
    at_i = theta_values([C00], None, TAU_I)[C00]
    for x in (200.0, 2e6, 2e12, 1e17):
        shifted = SiegelPoint(1, np.array([[x + 1j]]))
        assert theta_values([C00], None, shifted)[C00] == at_i


def test_odd_characteristic_exact_zeros_at_origin():
    for genus in (1, 2, 3):
        for a in enumerate_characteristics(genus, "odd"):
            jet = theta_jet(a, None, _random_point(genus, 7), 1e-13)
            assert jet.value == 0.0
            assert np.all(jet.z_hessian == 0.0)


def test_even_characteristic_exact_zero_gradient_at_origin():
    for genus in (1, 2):
        for a in enumerate_characteristics(genus, "even"):
            jet = theta_jet(a, None, _random_point(genus, 8), 1e-13)
            assert np.all(jet.z_gradient == 0.0)


def test_jet_matches_oracle_including_derivatives():
    pt = _random_point(2, 12)
    z = np.array([0.07 - 0.04j, -0.1 + 0.06j])
    a = Characteristic(2, (1, 0), (0, 1))
    jet = theta_jet(a, z, pt, 1e-14)
    tau_list = [[complex(pt.tau[j, l]) for l in range(2)] for j in range(2)]
    ref = complex(mp_theta(a.a_prime, a.a_double_prime, list(z), tau_list, radius=14))
    assert abs(jet.value - ref) < 1e-12
    # derivatives by central differences of the oracle
    h = 1e-6
    for j in range(2):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        fd = (
            complex(mp_theta(a.a_prime, a.a_double_prime, list(zp), tau_list, radius=14))
            - complex(mp_theta(a.a_prime, a.a_double_prime, list(zm), tau_list, radius=14))
        ) / (2 * h)
        assert abs(jet.z_gradient[j] - fd) < 1e-7


def test_parity_under_z_negation():
    pt = _random_point(2, 13)
    rng = np.random.default_rng(13)
    z = rng.uniform(-0.2, 0.2, 2) + 1j * rng.uniform(-0.2, 0.2, 2)
    for a in enumerate_characteristics(2, "all"):
        vp = theta_values([a], z, pt, 1e-14)[a]
        vm = theta_values([a], -z, pt, 1e-14)[a]
        sign = (-1) ** a.weight
        assert abs(vm - sign * vp) <= 1e-12


def test_quasi_periodicity_integer_shift():
    pt = _random_point(2, 14)
    z = np.array([0.1 + 0.05j, -0.07 + 0.1j])
    for a in enumerate_characteristics(2, "all"):
        for shift in ([1, 0], [0, 1], [1, 1], [2, 1]):
            v0 = theta_values([a], z, pt, 1e-13)[a]
            v1 = theta_values([a], z + np.array(shift), pt, 1e-13)[a]
            factor = (-1) ** (sum(p * q for p, q in zip(a.a_prime, shift)) % 2)
            assert abs(v1 - factor * v0) < 5e-12


def test_product_splitting_block_diagonal():
    t1, t2 = 0.2 + 1.1j, -0.3 + 0.9j
    pt = SiegelPoint(2, np.diag([t1, t2]))
    p1 = SiegelPoint(1, np.array([[t1]]))
    p2 = SiegelPoint(1, np.array([[t2]]))
    for a in enumerate_characteristics(2, "even"):
        left = Characteristic(1, (a.a_prime[0],), (a.a_double_prime[0],))
        right = Characteristic(1, (a.a_prime[1],), (a.a_double_prime[1],))
        v = theta_values([a], None, pt, 1e-14)[a]
        vl = theta_values([left], None, p1, 1e-14)[left]
        vr = theta_values([right], None, p2, 1e-14)[right]
        assert abs(v - vl * vr) < 1e-13


def test_batch_values_match_single_evaluations():
    # the jet path uses a larger derivative-certified box, so agreement is
    # within the certified bounds rather than bitwise
    pt = _random_point(3, 15)
    chars = enumerate_characteristics(3, "all")
    z = np.full(3, 0.05 + 0.02j)
    batch = theta_values(chars, z, pt, 1e-13)
    for a in chars[::7]:
        assert abs(batch[a] - theta_jet(a, z, pt, 1e-13).value) < 5e-13
    again = theta_values(chars, z, pt, 1e-13)
    assert all(again[a] == batch[a] for a in chars)  # same call is bitwise stable


def test_determinism_bitwise():
    pt = _random_point(2, 16)
    a = Characteristic(2, (1, 1), (0, 0))
    j1 = theta_jet(a, None, pt, 1e-14)
    j2 = theta_jet(a, None, pt, 1e-14)
    assert j1.value == j2.value
    assert np.array_equal(j1.z_hessian, j2.z_hessian)
    m1 = theta_moments(a, pt, 1e-14, order=4)
    m2 = theta_moments(a, pt, 1e-14, order=4)
    assert m1.value == m2.value and np.array_equal(m1.t4, m2.t4)


# ----------------------------------------------------------------------
# tau derivatives and psi
# ----------------------------------------------------------------------

def test_delta_theta_equals_hessian_over_2pii_squared():
    pt = _random_point(2, 17)
    a = Characteristic(2, (0, 0), (1, 0))
    jet = theta_jet(a, None, pt, 1e-14)
    for j, l in ((1, 1), (1, 2), (2, 2)):
        d = delta_theta(a, pt, DerivationIndex(j, l), 1e-14)
        h = jet.z_hessian[j - 1, l - 1] / (2j * math.pi) ** 2
        assert abs(d - h) < 1e-13


def test_delta_theta_matches_tau_finite_difference():
    pt = _random_point(2, 18)
    a = Characteristic(2, (0, 0), (0, 0))
    h = 1e-5
    for j, l in ((0, 0), (0, 1), (1, 1)):
        shift = np.zeros((2, 2))
        shift[j, l] = shift[l, j] = h
        vp = theta_values([a], None, SiegelPoint(2, pt.tau + shift), 1e-15)[a]
        vm = theta_values([a], None, SiegelPoint(2, pt.tau - shift), 1e-15)[a]
        norm = 1j * math.pi if j == l else 2j * math.pi
        fd = (vp - vm) / (2 * h) / norm
        exact = delta_theta(a, pt, DerivationIndex(j + 1, l + 1), 1e-15)
        assert abs(fd - exact) < 1e-8


def test_delta_theta_real_at_i():
    d = delta_theta(C00, TAU_I, DerivationIndex(1, 1), 1e-15)
    assert abs(d.imag) == 0.0
    ref = complex(mp_theta_moment((0,), (0,), [[1j]], (2,)))
    assert abs(d - ref) < 1e-13


def test_delta_theta_requires_even():
    with pytest.raises(ValueError):
        delta_theta(C11, TAU_I, DerivationIndex(1, 1))


def test_moments_match_mp_oracle_genus2():
    pt = _random_point(2, 19)
    a = Characteristic(2, (0, 1), (1, 0))
    mom = theta_moments(a, pt, 1e-14, order=4)
    tau_list = [[complex(pt.tau[j, l]) for l in range(2)] for j in range(2)]

    def oracle(powers):
        return complex(
            mp_theta_moment(a.a_prime, a.a_double_prime, tau_list, powers, radius=14)
        )

    assert abs(mom.value - oracle((0, 0))) < 1e-12
    assert abs(mom.t2[0, 0] - oracle((2, 0))) < 1e-12
    assert abs(mom.t2[0, 1] - oracle((1, 1))) < 1e-12
    assert abs(mom.t2[1, 1] - oracle((0, 2))) < 1e-12
    assert abs(mom.t4[(0, 0, 0, 0)] - oracle((4, 0))) < 1e-12
    assert abs(mom.t4[(0, 0, 1, 1)] - oracle((2, 2))) < 1e-12
    assert abs(mom.t4[(0, 1, 1, 1)] - oracle((1, 3))) < 1e-12


def test_psi_matrix_symmetric_and_diagonal_splitting():
    t0 = 0.1 + 1.05j
    for genus in (2, 3):
        pt = SiegelPoint(genus, t0 * np.eye(genus))
        for bits in ((0,) * genus, (1,) * genus):
            a = Characteristic(genus, bits, (0,) * genus)
            psi = psi_matrix(a, pt, 1e-14)
            m = psi.coefficients
            assert np.array_equal(m, m.T)  # exact shared storage
            off = m - np.diag(np.diag(m))
            assert np.abs(off).max() < 1e-13
            # every diagonal slot carries the genus-1 value
            g1 = Characteristic(1, (bits[0],), (0,))
            ref = theta_moments(g1, SiegelPoint(1, [[t0]]), 1e-14, order=2)
            val = ref.t2[0, 0] / ref.value
            assert np.abs(np.diag(m) - val).max() < 1e-12


def test_symmetric_form_mirrors_the_upper_triangle_and_clears_negative_zeros():
    # every entry is the upper-triangle one plus 0.0, so -0.0 reads +0.0
    # in both parts, and the lower triangle is ignored
    c = np.array([[complex(-0.0, -0.0), complex(-0.0, 2.0), complex(-3.0, -0.0)],
                  [7.0 + 7.0j, complex(1.5, -0.0), complex(-0.0, -0.0)],
                  [7.0 + 7.0j, 7.0 + 7.0j, complex(-0.0, 4.0)]])
    before = _hex(c)
    form = SymmetricForm(3, c)
    assert _hex(c) == before  # the input is not written
    expected = [[0j, 2j, -3 + 0j], [2j, 1.5 + 0j, 0j], [-3 + 0j, 0j, 4j]]
    assert _hex(form.coefficients) == _hex(expected)
    assert all(part == "0x0.0p+0" for pair in _hex(form.coefficients[1, 2]) for part in pair)
    with pytest.raises(ValueError):
        form.coefficients[0, 1] = 1.0
    assert _hex(SymmetricForm(1, [[complex(-0.0, -0.0)]]).coefficients) == _hex([0j])


def test_psi_requires_even_and_guards_near_zero():
    pt = _random_point(2, 20)
    with pytest.raises(ValueError):
        psi_matrix(Characteristic(2, (0, 1), (1, 1)), pt)
    # theta_01 decays like exp(-pi/(4t)) as tau = it approaches the real
    # axis, so a loose eps pushes the value inside the guard band
    near = SiegelPoint(1, np.array([[0.05j]]))
    with pytest.raises(NearZeroThetanull):
        psi_matrix(C01, near, eps=1e-3)


def test_moments_form_psi_once_and_guard_it():
    pt = _random_point(2, 20)
    a = Characteristic(2, (1, 0), (0, 1))
    mom = theta_moments(a, pt, 1e-14, order=2)
    assert mom.a == a
    assert mom.psi is mom.psi  # formed once, on first read
    assert _hex(psi_matrix(a, pt).coefficients) == _hex(mom.psi.coefficients)
    # thetanull 33 vanishes at every diagonal genus-2 point: its value
    # reads, and psi and delta(psi) refuse
    a33 = Characteristic(2, (1, 1), (1, 1))
    m33 = theta_moments(a33, SiegelPoint(2, np.diag([0.3 + 1.1j, -0.2 + 0.9j])), 1e-14)
    assert np.isfinite(m33.value)
    for attr in ("psi", "delta_psi"):
        with pytest.raises(NearZeroThetanull, match="thetanull 33"):
            getattr(m33, attr)


def test_moments_refuse_reads_above_their_order():
    # an order-1 record has no t2 and an order-2 record no t4: psi and
    # delta(psi) refuse rather than form a zero form or fail on a key
    pt = _random_point(2, 21)
    a = Characteristic(2, (0, 1), (0, 0))
    m1 = theta_moments(a, pt, 1e-14, order=1)
    m2 = theta_moments(a, pt, 1e-14, order=2)
    assert m1.t2 is None and m1.t4 is None and m2.t4 is None
    for mom, attr in ((m1, "psi"), (m1, "psi_sq"), (m1, "delta_psi"), (m2, "delta_psi")):
        with pytest.raises(ValueError, match="needs moments of order"):
            getattr(mom, attr)
    assert _hex(m2.psi.coefficients) == _hex(SymmetricForm(2, m2.t2 / m2.value).coefficients)


def test_odd_gradient_jacobi_formula():
    for tau in (1j, 2j):
        pt = SiegelPoint(1, np.array([[tau]]))
        grad = odd_z_gradient(C11, pt, 1e-15)[0]
        vals = theta_values([C00, C01, C10], None, pt, 1e-15)
        # classical product formula up to the sign fixed by the oracle:
        # (1/2 pi i) dtheta_11/dz (0) = (i/2) theta_00 theta_01 theta_10
        ref = 0.5j * vals[C00] * vals[C01] * vals[C10]
        assert abs(grad - ref) < 1e-13


def test_odd_gradient_rejects_even():
    with pytest.raises(ValueError):
        odd_z_gradient(C00, TAU_I)


def test_quartic_delta_psi_unit_vector_and_fd_oracle():
    pt = _random_point(2, 21)
    a = Characteristic(2, (0, 0), (0, 0))
    quartic = quartic_delta_psi(a, pt, 1e-14)
    mom = theta_moments(a, pt, 1e-14, order=4)
    psi = mom.t2 / mom.value
    for j in range(2):
        u = np.zeros(2)
        u[j] = 1.0
        expected = mom.t4[(j, j, j, j)] / mom.value - psi[j, j] ** 2
        assert abs(quartic.value_at(u) - expected) < 1e-13
    # tau finite differences of psi as an independent oracle
    h = 1e-5
    fd_full = np.zeros((2, 2, 2, 2), dtype=complex)
    for j in range(2):
        for l in range(j, 2):
            shift = np.zeros((2, 2))
            shift[j, l] = shift[l, j] = h
            pp = psi_matrix(a, SiegelPoint(2, pt.tau + shift), 1e-15).coefficients
            pm = psi_matrix(a, SiegelPoint(2, pt.tau - shift), 1e-15).coefficients
            norm = 1j * math.pi if j == l else 2j * math.pi
            fd_full[j, l] = fd_full[l, j] = (pp - pm) / (2 * h) / norm
    fd_coeffs = {}
    for idx in itertools.product(range(2), repeat=4):
        key = tuple(sorted(idx))
        fd_coeffs[key] = fd_coeffs.get(key, 0.0) + fd_full[idx[0], idx[1]][idx[2], idx[3]]
    for key, val in fd_coeffs.items():
        assert abs(quartic.coefficient(*key) - val) < 1e-7


def test_quartic_coefficients_fully_symmetric_keys():
    # one coefficient per monomial: every index order reads the same number
    pt = _random_point(3, 22)
    quartic = quartic_delta_psi(Characteristic(3, (0, 0, 1), (0, 1, 0)), pt)
    assert quartic.coefficients.shape == (15,)
    seen = set()
    for idx in itertools.product(range(3), repeat=4):
        c = quartic.coefficient(*idx)
        assert c == quartic.coefficient(*sorted(idx))
        seen.add(c)
    assert len(seen) == 15


def _dict_symmetrize(genus, terms):
    """Reference for the dense forms: the dict-keyed accumulation over
    sorted index keys, in C order of (j, l, m, p), of x - y for
    (x, y) = terms(j, l, m, p), with the summed |x| + |y| per key."""
    out, size = {}, {}
    for idx in itertools.product(range(genus), repeat=4):
        key = tuple(sorted(idx))
        x, y = terms(*idx)
        out[key] = out.get(key, 0.0) + (x - y)
        size[key] = size.get(key, 0.0) + abs(x) + abs(y)
    return out, size


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_dense_quartic_forms_match_dict_reference(genus):
    # the dense products may round differently in the last bit (vectorized
    # complex multiply), so compare within 8 ulps of the summed magnitudes
    ulp = np.finfo(float).eps
    rng = np.random.default_rng([41, genus])
    pt = _random_point(genus, 40 + genus)
    cases = []
    for _ in range(5):
        m = rng.normal(size=(2, genus, genus)) + 1j * rng.normal(size=(2, genus, genus))
        phi, eta = SymmetricForm(genus, m[0]), SymmetricForm(genus, m[1])
        p, q = phi.coefficients, eta.coefficients
        cases.append((
            QuarticForm.from_quadratic_product(phi, eta),
            _dict_symmetrize(genus, lambda j, l, mm, pp: (p[j, l] * q[mm, pp], 0.0)),
        ))
    for a in enumerate_characteristics(genus, "even"):
        mom = theta_moments(a, pt, 1e-14, order=4)
        psi = mom.t2 / mom.value
        cases.append((
            mom.delta_psi,
            _dict_symmetrize(genus, lambda j, l, mm, pp: (
                mom.t4[tuple(sorted((j, l, mm, pp)))] / mom.value, psi[j, l] * psi[mm, pp]
            )),
        ))
    for form, (ref, size) in cases:
        assert form.coefficients.shape == (len(ref),)
        for key, val in ref.items():
            assert abs(form.coefficient(*key) - val) <= 8 * ulp * size[key]


def test_moment_batching_consistency():
    pt = _random_point(3, 23)
    chars = enumerate_characteristics(3, "even")[:6]
    batch = batch_moments(chars, pt, 1e-13, order=2)
    for a in chars:
        single = theta_moments(a, pt, 1e-13, order=2)
        assert batch[a].value == single.value
        assert np.array_equal(batch[a].t2, single.t2)


def test_phase_factors_are_exact_units():
    two_m = _lattice_two_m((1, 0), 3)
    ph = _phase_factors(two_m, (1, 1))
    assert set(np.unique(ph)).issubset({1 + 0j, -1 + 0j, 1j, -1j})


# ----------------------------------------------------------------------
# the z = 0 fold
# ----------------------------------------------------------------------

def _full_box_sums(a, z, tau, nrad, monomials):
    """Reference without the fold: fsum over every row of the box."""
    two_m = _lattice_two_m(a.a_prime, nrad)
    m = two_m.astype(np.float64) / 2.0
    t = _exp_terms(two_m, tau.tau, z) * _phase_factors(two_m, a.a_double_prime)
    out = {}
    for mono in monomials:
        terms = reduce(operator.mul, [m[:, i] for i in mono]) * t if mono else t
        out[mono] = complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
    return out


def _hex(values):
    """float.hex of every real and imaginary part, so signed zeros count."""
    return [(v.real.hex(), v.imag.hex()) for v in np.asarray(values, dtype=complex).ravel()]


def _monomials(genus, order):
    return [()] + [
        mono
        for k in (1, 2, 4)
        if k <= order
        for mono in itertools.combinations_with_replacement(range(genus), k)
    ]


def test_lattice_box_is_symmetric_under_negation():
    # row i is minus row n-1-i, with and without the origin
    for a_prime in ((0,), (1,), (0, 0), (0, 1), (1, 1), (0, 0, 0), (1, 0, 1)):
        two_m = _lattice_two_m(a_prime, 3)
        assert np.array_equal(two_m, -two_m[::-1])
        assert (len(two_m) % 2 == 1) == (not any(a_prime))


def _assert_full_box_bits(pt, chars, orders, zs):
    """batch_moments at each order, and theta_values and theta_jet at each
    z, have the bits of _full_box_sums at the radius each one chose."""
    genus = pt.genus
    two_pi = 2.0 * math.pi
    for order in orders:
        moments = batch_moments(chars, pt, order=order)
        for a in chars:
            mom = moments[a]
            ref = _full_box_sums(a, None, pt, mom.radius, _monomials(genus, order))
            assert _hex(mom.value) == _hex(ref[()])
            assert _hex(mom.t1) == _hex([ref[(j,)] for j in range(genus)])
            if order >= 2:
                t2 = [ref[tuple(sorted((j, l)))] for j in range(genus) for l in range(genus)]
                assert _hex(mom.t2) == _hex(t2)
            if order == 4:
                t4 = [ref[tuple(sorted(key))] for key in itertools.product(range(genus), repeat=4)]
                assert _hex(mom.t4) == _hex(t4)
    for z in zs:
        values = theta_values(chars, z, pt)
        for a in chars:
            nrad = truncation_radius(pt, z, 1e-14, 0, a).radius
            assert _hex(values[a]) == _hex(_full_box_sums(a, z, pt, nrad, [()])[()])
            jet = theta_jet(a, z, pt)
            nrad = max(truncation_radius(pt, z, 1e-14 / two_pi**w, w, a).radius for w in (0, 1, 2))
            ref = _full_box_sums(a, z, pt, nrad, _monomials(genus, 2))
            assert _hex(jet.value) == _hex(ref[()])
            assert _hex(jet.z_gradient) == _hex([2j * math.pi * ref[(j,)] for j in range(genus)])
            hess = [(2j * math.pi) ** 2 * ref[tuple(sorted((j, l)))]
                    for j in range(genus) for l in range(genus)]
            assert _hex(jet.z_hessian) == _hex(hess)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_folded_sums_match_full_box_bitwise(genus):
    pt = _random_point(genus, 40 + genus)
    _assert_full_box_bits(pt, enumerate_characteristics(genus), (1, 2, 4), (None, np.zeros(genus)))


@pytest.mark.parametrize("genus, lam", [(2, 0.02), (3, 0.3)])
def test_deep_boxes_sum_by_the_tree_with_the_bits_of_fsum(genus, lam, monkeypatch):
    # at these depths nearly every term, folded or not, is in a block past
    # the small-block rule, so it is summed by the TwoSum tree (or its
    # fallback); a single theta_values row or the last block of a coset
    # can be smaller
    sizes = []
    row_sums = kernel._row_sums
    monkeypatch.setattr(kernel, "_row_sums", lambda block: sizes.append(block.size) or row_sums(block))
    pt = _random_point(genus, 60 + genus)
    pt = SiegelPoint(genus, pt.tau.real + 1j * (lam / pt.lambda_min) * pt.tau.imag)
    z = np.random.default_rng(70 + genus).uniform(-0.3, 0.3, genus) + 0.1j
    chars = enumerate_characteristics(genus)[:: 2 ** genus - 1]  # both parities, three cosets
    _assert_full_box_bits(pt, chars, (4,), (None, z))
    tree = sum(size for size in sizes if size >= kernel._TREE_MIN_TERMS)
    assert tree >= 0.9 * sum(sizes)


# ----------------------------------------------------------------------
# one pass per call: shared scans, grouped cosets
# ----------------------------------------------------------------------

def _call_hex(chars, z, pt, order):
    """float.hex of every output, per characteristic, of batch_moments
    (z is None) or theta_values."""
    if z is None:
        moments = batch_moments(chars, pt, order=order)
        return {a: _hex([m.value, *m.t1, *(() if m.t2 is None else m.t2.ravel()),
                         *(() if m.t4 is None else m.t4.ravel())]) + [m.tail_bound.hex(), m.radius]
                for a, m in moments.items()}
    return {a: _hex(v) for a, v in theta_values(chars, z, pt).items()}


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_one_pass_over_all_characteristics_matches_per_coset_and_single_calls(genus):
    pt = _random_point(genus, 90 + genus)
    chars = enumerate_characteristics(genus)
    z = np.random.default_rng(genus).uniform(-0.3, 0.3, genus) + 0.1j
    cosets = {}
    for a in chars:
        cosets.setdefault(a.a_prime, []).append(a)
    for zz, orders in ((None, (1, 2, 4)), (np.zeros(genus), (0,)), (z, (0,))):
        for order in orders:
            batch = _call_hex(chars, zz, pt, order)
            assert list(batch) == [a for coset in cosets.values() for a in coset]
            per_coset = {a: v for coset in cosets.values()
                         for a, v in _call_hex(coset, zz, pt, order).items()}
            assert batch == per_coset
            assert batch == {a: _call_hex([a], zz, pt, order)[a] for a in chars}
        # a characteristic named twice is summed once
        assert _call_hex(chars + chars[:3], zz, pt, orders[-1]) == batch


@pytest.mark.parametrize("genus, lam", [(2, 0.05), (3, 0.35)])
def test_grouping_and_padding_keep_every_bit(genus, lam, monkeypatch):
    # the boxes of the cosets differ in size (by parity, and odd shifts
    # can need a larger radius), so a group pads its shorter rows to its
    # widest box; the caps run every coset alone, the first alone, about
    # half of the points per group, and one group for all
    pt = _random_point(genus, 80 + genus)
    pt = SiegelPoint(genus, pt.tau.real + 1j * (lam / pt.lambda_min) * pt.tau.imag)
    chars = enumerate_characteristics(genus)
    z = np.random.default_rng(81).uniform(-0.3, 0.3, genus) + 0.05j
    widths = []
    exp_terms = kernel._exp_terms
    monkeypatch.setattr(kernel, "_exp_terms",
                        lambda two_m, *rest: widths.append(len(two_m)) or exp_terms(two_m, *rest))
    cosets = 2**genus
    for zz, order in ((None, 4), (None, 1), (z, 0)):
        widths.clear()
        alone = {a: _call_hex([a], zz, pt, order)[a] for a in chars}
        sizes = list(dict(zip((a.a_prime for a in chars), widths)).values())
        assert len(sizes) == cosets and len(set(sizes)) > 1
        caps = (0, sizes[0] + sizes[1] - 1, sum(sizes) // 2, sum(sizes))
        passes = []
        for cap in caps:
            monkeypatch.setattr(kernel, "_GROUP_POINTS", cap)
            widths.clear()
            assert _call_hex(chars, zz, pt, order) == alone
            assert sum(widths) == sum(sizes)
            passes.append(list(widths))
        assert len(passes[0]) == cosets and passes[1][0] == sizes[0]
        assert 1 < len(passes[2]) < cosets and len(passes[3]) == 1


def test_refused_last_coset_builds_no_lattice(monkeypatch):
    # at Im tau = 0.0101 I the cosets a' = 0 and a' = (0, 0, 1) certify at
    # radius 50, boxes of about 101^3 points under the 2^20 budget, each
    # a group of its own, and a' = (0, 1, 1) needs a larger box: the call
    # is refused before any lattice is built
    pt = SiegelPoint(3, 0.0101j * np.eye(3))
    chars = [Characteristic(3, a_prime, (0, 0, 0))
             for a_prime in ((0, 0, 0), (0, 0, 1), (0, 1, 1))]
    for a in chars[:2]:
        assert _radius_scan(pt, None, a.a_prime, {0: 1e-14, 1: 1e-14})[0] == 50
    built = []
    monkeypatch.setattr(kernel, "_lattice_two_m", lambda *args: built.append(args))
    with pytest.raises(TruncationError, match="lattice points"):
        batch_moments(chars, pt, 1e-14, order=1)
    assert built == []


def test_moments_arrays_are_read_only():
    # a campaign shares one record among its checks
    pt = _random_point(2, 22)
    mom = theta_moments(Characteristic(2, (1, 0), (0, 0)), pt, 1e-14, order=4)
    for array in (mom.t1, mom.t2, mom.t4):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0
    with pytest.raises(ValueError):
        mom.t2[0, 1] = 0.0


# ----------------------------------------------------------------------
# exact row sums
# ----------------------------------------------------------------------

_TINY = 2.0**-1074
_FINITE_ROWS = ("spread", "narrow", "subnormal", "to_zero", "to_ulp", "tie", "zeros")
_SPECIAL_ROWS = ("inf", "-inf", "nan", "inf-inf", "overflow", "prefix_overflow", "huge")


def _row(kind, n, rng):
    """One adversarial row of n floats."""
    sign = rng.choice([-1.0, 1.0], n)
    if kind == "spread":  # 1e-300 ... 1e290: the tree still runs
        return sign * 10.0 ** rng.uniform(-300, 290, n)
    if kind == "narrow":
        return rng.normal(size=n) * 2.0 ** rng.integers(-30, 30, n)
    if kind == "subnormal":
        return sign * rng.integers(0, 2**30, n) * _TINY
    if kind == "zeros":
        return rng.choice([0.0, -0.0], n)
    if kind == "to_zero":  # pairs x, -x: the sum is exactly zero
        half = rng.normal(size=n // 2) * 10.0 ** rng.uniform(-200, 200, n // 2)
        return rng.permutation(np.concatenate([half, -half, [-0.0] * (n % 2)]))
    if kind == "to_ulp":  # pairs x, -x but one moved by an ulp
        row = _row("to_zero", n, rng)
        i = int(np.flatnonzero(row)[0]) if np.any(row) else 0
        row[i] = np.nextafter(row[i], 0.0) if row[i] else _TINY
        return row
    if kind == "tie":  # 1 + 2^-53 hidden in cancelling pairs: a tie fsum rounds to 1.0
        return rng.permutation(np.concatenate([[1.0, 2.0**-53], _row("to_zero", max(n - 2, 0), rng)]))[:n]
    row = _row("narrow", n, rng)
    big = sys.float_info.max
    specials = {
        "inf": [math.inf],
        "-inf": [-math.inf],
        "nan": [math.nan],
        "inf-inf": [math.inf, -math.inf],
        "overflow": [big, big],
        "prefix_overflow": [big, big, -big],  # fsum overflows; a tree order need not
        "huge": [1e302],  # finite, but large enough to leave the tree
    }[kind]
    row[: len(specials)] = specials[:n]
    return row


@st.composite
def _blocks(draw, kinds):
    n = draw(st.sampled_from([1, 2, 3, 5, 8, 63, 64, 255, 256, 257, 1024, 4095, 4096, 4097]))
    rows = draw(st.integers(1, 6))
    if draw(st.booleans()):  # past the small-block rule: the tree
        rows = max(rows, -(-kernel._TREE_MIN_TERMS // n))
    chosen = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array([_row(chosen[i % len(chosen)], n, rng) for i in range(rows)])


def _fsum_outcome(block):
    """fsum's hex of every row, or the first row's exception as (type, message)."""
    out = []
    for row in block.tolist():
        try:
            out.append(math.fsum(row).hex())
        except (OverflowError, ValueError) as exc:
            return type(exc), str(exc)
    return out


def _row_sums_outcome(block):
    try:
        return [v.hex() for v in kernel._row_sums(block)]
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(_blocks(_FINITE_ROWS))
def test_row_sums_are_fsum_bit_for_bit(block):
    assert _row_sums_outcome(block) == _fsum_outcome(block)


@settings(max_examples=80, deadline=None)
@given(_blocks(_FINITE_ROWS + _SPECIAL_ROWS))
def test_row_sums_fail_and_overflow_as_fsum_does(block):
    assert _row_sums_outcome(block) == _fsum_outcome(block)


def test_row_sums_fall_back_to_fsum_exactly_where_the_bound_fails(monkeypatch):
    rng = np.random.default_rng(7)
    n = 4097
    easy = rng.normal(size=n)
    block = np.array([easy, _row("tie", n, rng), _row("to_zero", n, rng), easy[::-1]])
    calls = []
    monkeypatch.setattr(kernel, "fsum", lambda row: calls.append(row) or math.fsum(row))
    got = kernel._row_sums(block)
    assert [v.hex() for v in got] == _fsum_outcome(block)
    assert got[1] == 1.0 and math.copysign(1.0, got[2]) == 1.0
    # the tie (no bound can separate it from its neighbours) and the zero
    assert calls == [block[1].tolist(), block[2].tolist()]
