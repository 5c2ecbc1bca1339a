import numpy as np
import pytest

from oracles import mp_hyp2f1

from siegeltheta.halphen import (
    HalphenState,
    genus1_data,
    halphen_rhs,
    hyp2f1,
    integrate,
    legendre_lambda_checks,
    state_from_theta,
    theta4_differences,
)
from siegeltheta.identities import SamplePlan
from siegeltheta.theta import NearZeroThetanull


def test_rhs_symmetric_input():
    s = HalphenState(1j, 0.7 + 0.2j, 0.7 + 0.2j, 0.7 + 0.2j)
    p = 0.7 + 0.2j
    assert all(abs(v - 2 * p * p) < 1e-15 for v in halphen_rhs(s))


def test_rhs_sum_identity():
    # summing the three equations gives 2(xy + yz + zx)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x, y, z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        s = HalphenState(1j, x, y, z)
        total = sum(halphen_rhs(s))
        assert abs(total - 2 * (x * y + y * z + x * z)) < 1e-12


def test_rhs_matches_tau_finite_difference_of_psi():
    tau = 0.1 + 1.1j
    h = 1e-5
    state = state_from_theta(tau)
    rhs = halphen_rhs(state)
    dp = genus1_data(tau + h)
    dm = genus1_data(tau - h)
    for k, name in enumerate(("psi_10", "psi_00", "psi_01")):
        fd = (dp[name] - dm[name]) / (2 * h) / (1j * np.pi)
        assert abs(fd - rhs[k]) < 1e-7


def test_integrate_zero_length_and_zero_steps():
    s0 = state_from_theta(1j)
    out = integrate(1j, 1j, 100)
    assert out.triple() == s0.triple()
    out = integrate(1j, 2j, 0)
    assert out.triple() == s0.triple()


def test_integrate_i_to_2i_accuracy():
    truth = state_from_theta(2j)
    end = integrate(1j, 2j, 10000)
    err = max(abs(a - b) for a, b in zip(end.triple(), truth.triple()))
    assert err < 1e-6


def test_integrate_order_four_convergence():
    truth = state_from_theta(2j)

    def err(steps):
        end = integrate(1j, 2j, steps)
        return max(abs(a - b) for a, b in zip(end.triple(), truth.triple()))

    ratio = err(40) / err(80)
    assert 12.0 <= ratio <= 20.0


def test_integrate_preserves_theta_parametrization_along_path():
    # invariant combinations stay below 1e-6 at interior points too
    for frac in (0.25, 0.5, 0.75):
        mid_tau = 1j + frac * 1j
        mid = integrate(1j, mid_tau, 4000)
        d = genus1_data(mid_tau)
        assert abs(mid.psi10 - d["psi_10"]) < 1e-6
        assert abs(4 * (mid.psi10 - mid.psi01) - d["theta_00"] ** 4) < 1e-6


def test_integrate_path_margin():
    with pytest.raises(ValueError):
        integrate(1j, -0.5j, 100)
    with pytest.raises(ValueError):
        integrate(1e-5j, 1j, 100)


def test_theta4_differences_at_i():
    rec = theta4_differences(1j)
    assert rec["max_rel_residual"] < 1e-10
    vals = rec["values"]
    # classical consequences at tau = i
    assert abs(vals["theta_01"] - vals["theta_10"]) < 1e-13
    jac = vals["theta_00"] ** 4 - vals["theta_01"] ** 4 - vals["theta_10"] ** 4
    assert abs(jac) < 1e-12


def test_theta4_differences_seeded_points():
    for tau in [complex(t) for t in (0.4 + 0.9j, -0.7 + 1.6j, 0.05 + 1.05j)]:
        assert theta4_differences(tau)["max_rel_residual"] < 1e-12


def test_hyp2f1_against_mpmath():
    for a, b, c in ((0.5, 0.5, 1.0), (-0.5, 0.5, 1.0)):
        # direct-series points plus points reached through z/(z-1)
        for z in (0.1, 0.5 + 0.2j, -0.6, 0.69, -0.8 + 0.3j, -1.5, 0.4 - 0.45j):
            got = hyp2f1(a, b, c, z)
            ref = complex(mp_hyp2f1(a, b, c, z))
            assert abs(got - ref) < 1e-12, (z, got, ref)


def test_hyp2f1_rejects_far_argument():
    with pytest.raises(ValueError):
        hyp2f1(0.5, 0.5, 1.0, 1.6)
    with pytest.raises(ValueError):
        hyp2f1(0.5, 0.5, 1.0, 0.9 + 0.05j)  # right of the disc, Pfaff blows up


def test_lambda_at_i_is_half_and_f1_matches_theta():
    rec = legendre_lambda_checks(1j)
    assert abs(rec["lambda"] - 0.5) < 1e-13
    assert rec["resid_f1"] < 1e-12
    d = genus1_data(1j)
    f1 = hyp2f1(0.5, 0.5, 1.0, 0.5)
    assert abs(f1 - 1.1803405990160962) < 1e-12
    assert abs(f1 - d["theta_00"] ** 2) < 1e-12


def test_genus1_data_refuses_near_zero_thetanull():
    # theta_01(0.05i) = 1.36e-6 lies within 10^3 of its tail bound at eps 1e-3
    with pytest.raises(NearZeroThetanull, match=r"\(0;1\)"):
        genus1_data(0.05j, 1e-3)


def test_lambda_checks_large_imaginary_limit():
    # leading Fourier behavior: lambda ~ 0, both sides of each formula -> 1
    rec = legendre_lambda_checks(8j)
    assert abs(rec["lambda"]) < 1e-9
    assert rec["max_rel_residual"] < 1e-9


def test_lambda_derivative_identities_20_seeded_points():
    plan = SamplePlan(seed=11, count=20)
    hyper_evaluated = 0
    for pt in plan.tau_points(1):
        rec = legendre_lambda_checks(complex(pt.tau[0, 0]))
        assert rec["resid_dlambda_01"] < 1e-9
        assert rec["resid_dlambda_00"] < 1e-9
        assert rec["max_rel_residual"] < 1e-9
        hyper_evaluated += rec["hypergeometric_evaluated"]
    assert hyper_evaluated >= 5  # the gate leaves plenty of covered points


def test_halphen_consistent_with_second_order_system_genus1():
    # the genus-1 specialization of the quartic-form system reproduces the
    # first-order system at the same point
    from siegeltheta.characteristics import enumerate_characteristics, pairing
    from siegeltheta.siegel import SiegelPoint
    from siegeltheta.theta import batch_moments

    tau = 0.2 + 1.3j
    pt = SiegelPoint(1, np.array([[tau]]))
    evens = enumerate_characteristics(1, "even")
    moms = batch_moments(evens, pt, 1e-14, order=4)
    state = state_from_theta(tau)
    rhs = dict(zip(("psi_10", "psi_00", "psi_01"), halphen_rhs(state)))
    for a in evens:
        name = "psi_" + "".join(str(b) for b in (a.a_prime[0], a.a_double_prime[0]))
        lhs = moms[a].delta_psi.coefficient(0, 0, 0, 0)
        t_a4 = moms[a].value ** 4
        total = -2 * (moms[a].t2[0, 0] / moms[a].value) ** 2
        for b in evens:
            total += (
                2.0
                * (-1) ** pairing(a, b)
                * (moms[b].value / moms[a].value) ** 4
                * (moms[b].t2[0, 0] / moms[b].value) ** 2
            )
        assert abs(lhs - total) < 1e-12  # second-order system at genus 1
        assert abs(lhs - rhs[name]) < 1e-12  # equals the first-order system
