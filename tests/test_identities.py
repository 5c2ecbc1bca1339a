import inspect

import numpy as np
import pytest

from siegeltheta import identities
from siegeltheta.characteristics import char_table
from siegeltheta.siegel import SiegelPoint
from siegeltheta.theta import (
    NearZeroThetanull,
    QuarticForm,
    SymmetricForm,
    TruncationError,
    batch_moments,
)
from siegeltheta.identities import (
    REGISTRY,
    IdentityCheck,
    SamplePlan,
    check_eta_product,
    check_power72,
    check_riemann_quartic,
    checks_for_genus,
    run_check,
)

PLAN = SamplePlan(seed=3, count=2)

EXPECTED_REGISTRY = [
    "riemann_quartic",
    "heat_equation",
    "second_order_system",
    "odd_gradient_squared",
    "odd_gradient_fourth",
    "transformation",
    "weight2_diagonal",
    "gopel_quartet",
    "gopel_single",
    "genus2_quadratic",
    "genus2_quartic",
    "genus2_eta_explicit",
    "genus2_eta_product",
    "genus2_power72",
    "chi_relation",
    "phi_relation",
    "phi_leading",
]


def test_registry_complete_and_nonempty():
    assert list(REGISTRY) == EXPECTED_REGISTRY
    assert len(checks_for_genus(2)) == len(EXPECTED_REGISTRY)
    assert set(checks_for_genus(1)) == {
        "riemann_quartic",
        "heat_equation",
        "second_order_system",
        "odd_gradient_squared",
        "odd_gradient_fourth",
        "transformation",
        "weight2_diagonal",
    }
    assert set(checks_for_genus(3)) == {
        "riemann_quartic",
        "heat_equation",
        "second_order_system",
        "odd_gradient_squared",
        "odd_gradient_fourth",
        "weight2_diagonal",
    }


def test_registry_runners_share_one_signature():
    for name, spec in REGISTRY.items():
        fn = spec.runner
        assert fn.__name__.startswith("check_"), name
        assert getattr(identities, fn.__name__) is fn, name
        params = list(inspect.signature(fn).parameters)
        assert params[:4] == ["genus", "plan", "eps", "tol"], (name, params)


def test_checks_own_their_tolerance_floors():
    plan = SamplePlan(seed=0, count=1)
    assert identities.check_heat_equation(1, plan, tol=1e-12).tolerance == 1e-8
    assert identities.check_heat_equation(1, plan, tol=1e-6).tolerance == 1e-6
    assert identities.check_phi_leading(2, plan, tol=1e-12).tolerance == 1e-8
    assert identities.effective_tol("transformation", 1e-12) == 1e-9
    assert check_riemann_quartic(1, plan, tol=1e-12).tolerance == 1e-12


def test_run_check_validation():
    with pytest.raises(KeyError):
        run_check("no_such_identity", 2, PLAN)
    with pytest.raises(ValueError):
        run_check("gopel_quartet", 3, PLAN)


@pytest.mark.parametrize("name", EXPECTED_REGISTRY)
def test_each_check_passes_at_genus2(name):
    check = run_check(name, 2, PLAN)
    assert isinstance(check, IdentityCheck)
    assert check.status == "pass", (name, check.max_rel_residual, check.witness)
    assert check.max_rel_residual <= check.tolerance
    assert check.witness  # worst instance always recorded


@pytest.mark.parametrize("genus", [1, 3])
@pytest.mark.parametrize("name", ["riemann_quartic", "second_order_system", "odd_gradient_squared", "odd_gradient_fourth"])
def test_core_checks_other_genera(name, genus):
    check = run_check(name, genus, SamplePlan(seed=5, count=1))
    assert check.status == "pass", (name, genus, check.max_rel_residual)


def test_sample_plan_determinism():
    p1 = SamplePlan(seed=9, count=3)
    p2 = SamplePlan(seed=9, count=3)
    for a, b in zip(p1.tau_points(2), p2.tau_points(2)):
        assert np.array_equal(a.tau, b.tau)
    za = p1.tau_z_points(2)
    zb = p2.tau_z_points(2)
    assert all(np.array_equal(x[1], y[1]) for x, y in zip(za, zb))
    # a different seed changes the sequence
    p3 = SamplePlan(seed=10, count=3)
    assert not np.array_equal(p1.tau_points(2)[0].tau, p3.tau_points(2)[0].tau)


def test_check_determinism_same_seed_same_residuals():
    c1 = check_riemann_quartic(2, SamplePlan(seed=4, count=2))
    c2 = check_riemann_quartic(2, SamplePlan(seed=4, count=2))
    assert c1.max_rel_residual == c2.max_rel_residual
    assert c1.max_abs_residual == c2.max_abs_residual
    assert c1.witness == c2.witness


def test_failure_records_witness():
    check = run_check("second_order_system", 2, SamplePlan(seed=3, count=1), tol=1e-30)
    assert check.status == "fail"
    assert check.max_rel_residual > 1e-30
    assert "sample=0" in check.witness


def test_eta_product_and_power72_record_signs():
    c6a = check_eta_product(2, SamplePlan(seed=3, count=1))
    assert c6a.status == "pass"
    assert len(c6a.notes["signs"]) == 45
    assert c6a.notes["signs_consistent_across_samples"]
    assert set(c6a.notes["signs"].values()) == {1, -1}
    c6b = check_power72(2, SamplePlan(seed=3, count=1))
    assert c6b.status == "pass"
    assert len(c6b.notes["signs"]) == 10
    # the six pairs inside K0 must reproduce the explicit display signs
    explicit = {
        "00,01": 1,
        "00,02": 1,
        "01,02": -1,
        "00,03": 1,
        "01,03": -1,
        "02,03": -1,
    }
    for pair, sign in explicit.items():
        assert c6a.notes["signs"][pair] == sign


def test_riemann_zero_z_specializations():
    # a = c = 0 at z = 0: theta_0^4 = 2^-g sum_b theta_b(0)^4 over the
    # parity-surviving terms; odd a = c forces the signed square sum to 0
    from siegeltheta.characteristics import enumerate_characteristics, pairing
    from siegeltheta.theta import theta_values

    plan = SamplePlan(seed=6, count=2)
    for genus in (1, 2):
        allc = enumerate_characteristics(genus, "all")
        evens = enumerate_characteristics(genus, "even")
        for tau in plan.tau_points(genus):
            vals = theta_values(allc, None, tau, 1e-14)
            zero = allc[0]
            assert zero.bits == (0,) * (2 * genus)
            rhs = sum(vals[b] ** 4 for b in evens) / 2**genus
            assert abs(vals[zero] ** 4 - rhs) < 1e-12
            for a in enumerate_characteristics(genus, "odd"):
                total = 0.0j
                for b in evens:
                    sgn = (-1) ** (
                        sum(p * q for p, q in zip(a.a_prime, b.a_double_prime)) % 2
                    )
                    total += sgn * vals[a + b] ** 2 * vals[b] ** 2
                assert abs(total) < 1e-12


def test_level48_translation_leaves_thetanulls_fixed():
    # for b = 0 mod 4 with diagonal = 0 mod 8 every thetanull is literally
    # periodic, so quotients are too (the cocycle is the identity)
    import numpy as np

    from siegeltheta.characteristics import enumerate_characteristics
    from siegeltheta.siegel import SiegelPoint, SymplecticMatrix, act
    from siegeltheta.theta import theta_values

    pt = SamplePlan(seed=8, count=1).tau_points(2)[0]
    b = np.array([[8, 4], [4, 16]], dtype=np.int64)
    moved = act(SymplecticMatrix.upper_unipotent(b), pt)
    chars = enumerate_characteristics(2, "even")
    v0 = theta_values(chars, None, pt, 1e-14)
    v1 = theta_values(chars, None, moved, 1e-14)
    for a in chars:
        assert abs(v0[a] - v1[a]) < 1e-12


def test_identity_check_json_roundtrip():
    check = run_check("genus2_quadratic", 2, SamplePlan(seed=3, count=1))
    payload = check.to_json()
    assert payload["name"] == "genus2_quadratic"
    assert payload["status"] == "pass"
    assert payload["notes"]["middle_reading_confirmed"] is True
    import json

    json.dumps(payload)  # JSON-serializable end to end


def test_nonfinite_residual_or_scale_fails_check():
    for bad_res, bad_scale in ((float("nan"), 1), (float("inf"), 1), (1e-16, float("nan"))):
        check = IdentityCheck("probe", 2, 1, 0, 1e-9)
        check.add(1e-16, 1, "ok")
        check.add(bad_res, bad_scale, "x")
        check.add(1e-15, 1, "later")
        assert check.finish() is check
        assert check.status == "fail"
        assert check.witness == "x"


def test_identity_sweeps_build_no_characteristics(monkeypatch):
    # the sweeps index the characteristic table; none of them builds a
    # Characteristic per term (a + b and friends) once the tables exist
    from siegeltheta.characteristics import Characteristic, char_table

    char_table(3)
    calls = []
    original = Characteristic.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(Characteristic, "__post_init__", counting)
    plan = SamplePlan(seed=0, count=1)
    for name in ("riemann_quartic", "odd_gradient_squared", "odd_gradient_fourth",
                 "second_order_system"):
        assert run_check(name, 3, plan).status == "pass"
    assert len(calls) == 0


def _negate_eta_00_01_on_second_sample(monkeypatch, plan):
    from siegeltheta.characteristics import digit_decode

    # the second sample is recognized by its theta_00 (position 0)
    second = identities._point(plan.tau_points(2)[1], identities.DEFAULT_EPS)[0].value
    pair = {digit_decode("00").code, digit_decode("01").code}
    original = identities._eta_from_psi

    def flipped(data, a, b):
        eta = original(data, a, b)
        return -eta if {a, b} == pair and data[0].value == second else eta

    monkeypatch.setattr(identities, "_eta_from_psi", flipped)


def test_sign_flip_witness_names_the_flipped_pair(monkeypatch):
    plan = SamplePlan(count=2)
    _negate_eta_00_01_on_second_sample(monkeypatch, plan)
    check = check_eta_product(2, plan)
    assert check.status == "fail"
    assert check.max_rel_residual < check.tolerance  # only the sign fails
    assert check.witness == "sign flip pair=00,01 at sample=1"
    assert check.notes["signs_consistent_across_samples"] is False


def test_sign_flip_witness_names_the_flipped_characteristics(monkeypatch):
    # eta_{00,01} enters every right side through the product over all
    # pairs, and for a in {00, 01} also with power -3, so negating it
    # flips the sign of the other eight characteristics only
    plan = SamplePlan(count=2)
    _negate_eta_00_01_on_second_sample(monkeypatch, plan)
    check = check_power72(2, plan)
    assert check.status == "fail"
    assert check.max_rel_residual < check.tolerance
    flipped = ("02", "03", "10", "12", "20", "21", "30", "33")
    assert check.witness == "sign flip " + "; ".join(f"a={x} at sample=1" for x in flipped)


def _bits(*arrays) -> list[str]:
    return [float.hex(x) for arr in arrays for v in np.ravel(arr) for x in (v.real, v.imag)]


def _moment_bits(m) -> list[str]:
    moments = [x for x in (m.value, m.t1, m.t2, m.t4) if x is not None]
    return _bits(*moments) + [float.hex(m.tail_bound), str(m.radius)]


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_point_record_matches_direct_moments(genus):
    # the record is one batch of moments keyed by position, and its psi,
    # psi^2 and delta(psi) are the kernel's own forms, bit for bit
    table = char_table(genus)
    tau = SamplePlan(seed=5, count=1).tau_points(genus)[0]
    eps = 1e-14
    for order, positions in ((4, None), (2, table.even[1::2]), (1, table.odd)):
        data = identities._point(tau, eps, order=order, positions=positions)
        expected = table.even if positions is None else positions
        chars = [table.chars[i] for i in expected]
        moments = batch_moments(chars, tau, eps, order=order)
        assert list(data) == list(expected)
        for i, a in zip(expected, chars):
            assert data[i].a == a
            assert _moment_bits(data[i]) == _moment_bits(moments[a])
        if order == 1:
            continue
        for i, a in zip(expected, chars):
            m = moments[a]
            psi = SymmetricForm(genus, m.t2 / m.value)
            assert _bits(data[i].psi.coefficients) == _bits(psi.coefficients)
            if order == 4:
                square = QuarticForm.from_quadratic_product(psi, psi)
                assert _bits(data[i].psi_sq.coefficients) == _bits(square.coefficients)
                assert _bits(data[i].delta_psi.coefficients) == _bits(m.delta_psi.coefficients)


def test_point_record_guards_psi_on_first_read():
    # thetanull 33 vanishes at every diagonal genus-2 point: the values
    # are read, and only psi refuses
    data = identities._point(SiegelPoint(2, np.diag([0.3 + 1.1j, -0.2 + 0.9j])), 1e-14)
    assert len(data) == 10
    assert all(np.isfinite(m.value) for m in data.values())
    with pytest.raises(NearZeroThetanull, match="thetanull 33"):
        for m in data.values():
            m.psi


def test_genus1_transformation_sums_each_point_once(monkeypatch):
    # one record per sample and one per transformed sample: the Legendre
    # law reads the records of the pair laws, not sums of its own
    calls = []
    original = identities.batch_moments

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(identities, "batch_moments", counting)
    plan = SamplePlan(seed=0, count=2)
    assert run_check("transformation", 1, plan).status == "pass"
    assert len(calls) == (1 + identities._GAMMA_COUNT) * plan.count == 11 * plan.count


def test_genus2_transformation_passes_at_seed_11():
    # the deep transformed point of word 8 has |Re g tau| up to 16 and box
    # radius 60, where an unreduced phase pi m^t (Re tau) m puts the
    # weight-2 law of pair 00,02 at 1.3e-8
    check = identities.check_transformation_laws(2, SamplePlan(seed=11, count=1))
    assert check.status == "pass", f"{check.max_rel_residual:.4e} at {check.witness}"


def test_point_records_are_shared_only_inside_a_point_memo(monkeypatch):
    calls = []
    real = identities.batch_moments
    monkeypatch.setattr(identities, "batch_moments",
                        lambda *args, **kw: calls.append(kw["order"]) or real(*args, **kw))
    tau = PLAN.tau_points(2)[0]
    # outside a campaign nothing is kept
    assert identities._point(tau, 1e-14) is not identities._point(tau, 1e-14)
    assert len(calls) == 2
    with identities.point_memo():
        first = identities._point(tau, 1e-14)
        assert identities._point(tau, 1e-14, positions=list(char_table(2).even)) is first
        # the order is part of the key: an order-4 box is another record
        assert identities._point(tau, 1e-14, order=4) is not first
        assert identities._point(tau, 1e-13) is not first
        assert calls == [2, 2, 2, 4, 2]
        # a refused call stores nothing and is refused again
        deep = SiegelPoint(3, 1e-3j * np.eye(3))
        for _ in range(2):
            with pytest.raises(TruncationError):
                identities._point(deep, 1e-14)
        assert len(identities._POINTS.get()) == 3
    assert identities._POINTS.get() is None
