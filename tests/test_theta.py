import itertools
import math
import operator
from functools import reduce

import numpy as np
import pytest

from oracles import THETA00_AT_I, mp_theta, mp_theta_moment, mp_theta_tail

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


def _first_certified_radius(pt, z, eps, weight, a):
    """Reference search: the first radius whose bound for weight meets eps."""
    r = 0.0 if z is None else float(np.linalg.norm(np.imag(z)))
    nrad = 1
    while not _box_tails(pt.lambda_min, r, a.a_prime, nrad, (weight,))[weight] <= eps:
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


# ----------------------------------------------------------------------
# values and jets
# ----------------------------------------------------------------------

def test_theta00_at_i_against_50_digit_oracle():
    jet = theta_jet(C00, None, TAU_I, 1e-15)
    assert abs(jet.value - complex(mp_theta((0,), (0,), None, [[1j]]))) < 1e-13
    assert abs(jet.value - float(THETA00_AT_I)) < 1e-12
    assert jet.value.imag == 0.0  # conjugate-symmetric lattice at purely imaginary tau


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


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_folded_sums_match_full_box_bitwise(genus):
    pt = _random_point(genus, 40 + genus)
    chars = enumerate_characteristics(genus)
    two_pi = 2.0 * math.pi
    for order in (1, 2, 4):
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
    for z in (None, np.zeros(genus)):
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
