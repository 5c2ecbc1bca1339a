"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines and timings.  Tolerances and wall-clock budgets are asserted
exactly as stated; nothing is deferred to later calibration.
"""

import resource
import time

import numpy as np

from oracles import THETA00_AT_I

from siegeltheta.characteristics import (
    Characteristic,
    enumerate_characteristics,
    gopel_systems,
)
from siegeltheta.identities import SamplePlan, check_transformation_laws, run_check
from siegeltheta.siegel import SiegelPoint
from siegeltheta.theta import batch_moments, theta_jet
from siegeltheta import exactpoly, halphen
from siegeltheta.fourier import crosscheck


def _line(num, label, elapsed, budget, detail=""):
    print(f"\n[criterion {num:>2}] PASS  {label}  ({elapsed:.1f}s, budget {budget:.0f}s) {detail}")


def test_criterion_01_combinatorial_counts():
    t0 = time.perf_counter()
    for genus, expected in ((1, 3), (2, 10), (3, 36)):
        evens = enumerate_characteristics(genus, "even")
        assert len(evens) == expected == 2 ** (genus - 1) * (2**genus + 1)
    systems = gopel_systems(2)
    assert len(systems) == 15
    counts = {}
    for G in systems:
        for m in G.members:
            counts[m] = counts.get(m, 0) + 1
    assert len(counts) == 10 and set(counts.values()) == {6}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _line(1, "even counts 3/10/36, 15 Gopel systems, 6-fold membership", elapsed, 1)


def test_criterion_02_kernel_certification():
    t0 = time.perf_counter()
    # 50-digit oracle value of theta_00(0, i)
    jet = theta_jet(Characteristic(1, (0,), (0,)), None, SiegelPoint(1, np.array([[1j]])), 1e-15)
    assert abs(jet.value - float(THETA00_AT_I)) < 1e-12
    # termwise tau derivative t2 = delta theta vs Hessian/(2 pi i)^2 of the z-jet
    for genus in (2, 3):
        pt = SamplePlan(seed=2, count=1).tau_points(genus)[0]
        a = Characteristic(genus, (0,) * genus, (0,) * genus)
        jet_g = theta_jet(a, None, pt, 1e-14)
        t2 = batch_moments([a], pt, 1e-14, order=2)[a].t2
        for j in range(genus):
            for l in range(j, genus):
                h = jet_g.z_hessian[j, l] / (2j * np.pi) ** 2
                assert abs(t2[j, l] - h) <= 1e-12
    # heat-equation consistency vs tau finite differences at 50 seeded
    # points spread over genus 1..3
    worst = 0.0
    for genus, count in ((1, 17), (2, 17), (3, 16)):
        check = run_check("heat_equation", genus, SamplePlan(seed=2, count=count))
        assert check.status == "pass"
        worst = max(worst, check.max_rel_residual)
    assert worst < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _line(2, "theta_00(0,i) to 1e-12; heat equation < 1e-8 at 50 points", elapsed, 10,
          f"worst heat residual {worst:.2e}")


def test_criterion_03_riemann_quartic():
    t0 = time.perf_counter()
    worst = 0.0
    for genus in (1, 2, 3):
        check = run_check("riemann_quartic", genus, SamplePlan(seed=7, count=20))
        assert check.status == "pass", (genus, check.witness)
        assert check.max_rel_residual < 1e-9
        worst = max(worst, check.max_rel_residual)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _line(3, "Riemann quartic relation, all (a, c), genus 1-3", elapsed, 120,
          f"worst rel {worst:.2e}")


def test_criterion_04_second_order_system():
    t0 = time.perf_counter()
    worst = 0.0
    for genus in (1, 2, 3):
        check = run_check("second_order_system", genus, SamplePlan(seed=7, count=20))
        assert check.status == "pass"
        assert check.max_rel_residual < 1e-9
        worst = max(worst, check.max_rel_residual)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _line(4, "second-order quartic-form system, all even a, genus 1-3", elapsed, 120,
          f"worst rel {worst:.2e}")


def test_criterion_05_odd_gradient_formulas():
    t0 = time.perf_counter()
    worst = 0.0
    for genus in (1, 2, 3):
        for name in ("odd_gradient_squared", "odd_gradient_fourth"):
            check = run_check(name, genus, SamplePlan(seed=7, count=20))
            assert check.status == "pass", (name, genus, check.witness)
            assert check.max_rel_residual < 1e-9
            worst = max(worst, check.max_rel_residual)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _line(5, "odd z-gradient formulas (squared and fourth power), genus 1-3",
          elapsed, 120, f"worst rel {worst:.2e}")


def test_criterion_06_genus2_suite():
    t0 = time.perf_counter()
    plan = SamplePlan(seed=7, count=20)
    names = [
        "genus2_quadratic",
        "genus2_quartic",
        "gopel_quartet",
        "gopel_single",
        "genus2_eta_explicit",
        "genus2_eta_product",
        "genus2_power72",
        "chi_relation",
        "phi_relation",
    ]
    worst = 0.0
    results = {}
    for name in names:
        check = run_check(name, 2, plan)
        assert check.status == "pass", (name, check.witness, check.max_rel_residual)
        assert check.max_rel_residual < 1e-9, name
        worst = max(worst, check.max_rel_residual)
        results[name] = check
    # 45 product-formula pairs all covered, signs recorded
    assert len(results["genus2_eta_product"].notes["signs"]) == 45
    assert len(results["genus2_power72"].notes["signs"]) == 10
    # chi leading coefficient -3/16^2 confirmed numerically at 3 seeded points
    leads = results["chi_relation"].notes["chi_leading_coefficient"]
    assert len(leads) == 3
    for re, im in leads:
        assert abs(complex(re, im) - (-3 / 256)) < 1e-6 * abs(-3 / 256) * 1e3
        assert abs(complex(re, im) - (-3 / 256)) < 1e-6
    # phi leading coefficient at tau = i * identity, relative 1e-8
    r1 = run_check("phi_leading", 2, SamplePlan(seed=7, count=5))
    assert r1.status == "pass"
    assert r1.max_rel_residual < 1e-8
    lead = complex(*r1.notes["lead_at_i"])
    expected = complex(*r1.notes["theta10_32_over_16^4"])
    assert abs(lead - expected) / abs(expected) < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    _line(6, "genus-2 suite (quadratic/quartic, derivatives, eta, powers, chi, phi)",
          elapsed, 180, f"worst rel {worst:.2e}")


def test_criterion_07_formal_identities():
    t0 = time.perf_counter()
    assert exactpoly.verify_chi_identity()
    assert not exactpoly.chi_combination(cross_factor=1).is_zero()
    poly, stats = exactpoly.phi_combination()
    assert poly.is_zero()
    mutated, _ = exactpoly.phi_combination(product_constant=63)
    assert not mutated.is_zero()
    elapsed = time.perf_counter() - t0
    peak_gib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024**2)
    assert peak_gib < 8.0
    assert elapsed < 600.0
    _line(7, "formal chi and phi identities exact; mutations non-zero",
          elapsed, 600,
          f"high-water {stats['term_count_high_water']} terms, peak rss {peak_gib:.2f} GiB")


def test_criterion_08_transformation_laws():
    t0 = time.perf_counter()
    check = check_transformation_laws(2, SamplePlan(seed=7, count=5))
    assert check.status == "pass", check.witness
    assert check.max_rel_residual < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _line(8, "congruence and weight-2 laws under 10 level-(4,8) words",
          elapsed, 120, f"worst rel {check.max_rel_residual:.2e}")


def test_criterion_09_halphen():
    t0 = time.perf_counter()
    truth = halphen.state_from_theta(2j)
    end = halphen.integrate(1j, 2j, 10000)
    err = max(abs(a - b) for a, b in zip(end.triple(), truth.triple()))
    assert err < 1e-6

    def endpoint_error(steps):
        state = halphen.integrate(1j, 2j, steps)
        return max(abs(a - b) for a, b in zip(state.triple(), truth.triple()))

    ratio = endpoint_error(40) / endpoint_error(80)
    assert 12.0 <= ratio <= 20.0
    assert halphen.theta4_differences(1j)["max_rel_residual"] < 1e-9
    for pt in SamplePlan(seed=7, count=20).tau_points(1):
        rec = halphen.legendre_lambda_checks(complex(pt.tau[0, 0]))
        assert rec["resid_dlambda_01"] < 1e-9
        assert rec["resid_dlambda_00"] < 1e-9
    rec_i = halphen.legendre_lambda_checks(1j)
    assert abs(rec_i["lambda"] - 0.5) < 1e-12
    assert rec_i["resid_f1"] < 1e-9  # 2F1(1/2,1/2;1;lambda(i)) = theta_00(0,i)^2
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _line(9, "RK4 to 1e-6 with order-4 ratio; theta^4 and lambda identities",
          elapsed, 30, f"step-halving ratio {ratio:.1f}")


def test_criterion_10_fourier_agreement():
    t0 = time.perf_counter()
    plan = SamplePlan(seed=23, count=25, diag_min=1.6, diag_max=2.6)
    checked = 0
    for genus, order in ((1, 60), (2, 40)):
        evens = enumerate_characteristics(genus, "even")
        for k, pt in enumerate(plan.tau_points(genus)):
            rec = crosscheck(evens[k % len(evens)], pt, order)
            assert rec["within_bounds"]
            checked += 1
    assert checked == 50
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _line(10, "q-expansion oracle agrees with the series kernel at 50 points",
          elapsed, 30)
