import dataclasses
import inspect

import numpy as np
import pytest

from siegeltheta import identities
from siegeltheta.characteristics import char_table
from siegeltheta.siegel import SiegelPoint
from siegeltheta.theta import (
    NearZeroThetanull,
    PointRecord,
    TruncationError,
    _symmetrize,
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
#: thetanull 33 vanishes at every diagonal genus-2 point
_DIAGONAL = SiegelPoint(2, np.diag([0.3 + 1.1j, -0.2 + 0.9j]))

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


def test_array_add_skips_nan_for_the_largest_absolute_residual():
    check = IdentityCheck("probe", 2, 1, 0, 1e-9)
    check.add(np.array([1e-16, np.nan, 3e-16]), np.ones(3), "x")
    assert check.max_abs_residual == 3e-16
    assert check.max_rel_residual == np.inf  # the NaN still fails the check
    assert isinstance(check.max_abs_residual, float)
    assert isinstance(check.max_rel_residual, float)
    check = IdentityCheck("probe", 2, 1, 0, 1e-9)
    check.add(np.array([np.nan, np.nan]), np.ones(2), "x")
    assert check.max_abs_residual == 0.0


def test_array_add_names_the_first_worst_element_and_builds_only_new_witnesses():
    check = IdentityCheck("probe", 2, 1, 0, 1e-9)
    calls = []

    def witness(i):
        calls.append(i)
        return f"element {i}"

    residuals = np.array([[1e-16, 4e-16], [2e-16, 4e-16]])
    scales = np.array([[1.0, 2.0], [1.0, 2.0]])
    check.add(residuals, scales, witness)
    assert check.witness == "element 1"  # ties with element 3; the first in C order wins
    assert (check.max_rel_residual, check.max_abs_residual) == (2e-16, 4e-16)
    check.add(residuals, scales, witness)  # no new worst
    check.add(np.array([1e-16, 0.0]), np.array([1.0, 0.0]), witness)  # 0 / 0 counts as 0
    assert calls == [1]
    check.add(np.array([1e-16, 1e-16]), np.array([1.0, 0.0]), witness)  # x / 0 is inf
    assert calls == [1, 1] and check.max_rel_residual == np.inf


def test_array_add_matches_scalar_adds():
    rng = np.random.default_rng(5)
    residuals, scales = rng.uniform(0, 1e-15, (3, 4)), rng.uniform(0.5, 2.0, (3, 4))
    one_by_one = IdentityCheck("probe", 2, 1, 0, 1e-9)
    for i, (r, s) in enumerate(zip(residuals.ravel(), scales.ravel())):
        one_by_one.add(float(r), float(s), f"element {i}")
    stacked = IdentityCheck("probe", 2, 1, 0, 1e-9)
    stacked.add(residuals, scales, lambda i: f"element {i}")
    assert stacked == one_by_one


@pytest.mark.parametrize("genus", [1, 2])
def test_riemann_quartic_reports_the_largest_absolute_residual(genus):
    # at eps = 1e-4 truncation, not rounding, sets every residual, so a
    # term-by-term recomputation agrees with the check's own to ~1e-12;
    # the largest |lhs - rhs| is seldom where the relative one is largest
    from siegeltheta.theta import theta_values

    plan, eps = SamplePlan(seed=0, count=5), 1e-4
    table = char_table(genus)
    n = len(table.chars)
    worst = 0.0
    for tau, z in plan.tau_z_points(genus):
        v0, vz, v2z = (
            [v[a] for a in table.chars]
            for v in (theta_values(table.chars, w, tau, eps) for w in (None, z, 2 * z))
        )
        for c in range(n):
            for a in range(n):
                rhs = sum(
                    (-1) ** int(table.pairing[a, b] + table.cross[c, a] + table.cross[c, b])
                    * v2z[b ^ c] * v0[b ^ c] * v0[b] ** 2
                    for b in range(n)
                ) / 2**genus
                worst = max(worst, abs(vz[a ^ c] ** 2 * vz[a] ** 2 - rhs))
    check = check_riemann_quartic(genus, plan, eps=eps)
    assert check.max_abs_residual == pytest.approx(worst, rel=1e-9)


def _negate_eta_00_01_on_second_sample(monkeypatch, plan):
    # the second sample is recognized by its theta_00; 00 and 01 are rows
    # 0 and 1 of the even record
    second = identities._point(plan.tau_points(2)[1], identities.DEFAULT_EPS).value[0]
    original = PointRecord.eta

    def flipped(record, a, b):
        eta = original(record, a, b)
        a, b = np.broadcast_arrays(a, b)
        pair = (np.minimum(a, b) == 0) & (np.maximum(a, b) == 1)
        return np.where(pair & (record.value[0] == second), -eta, eta)

    monkeypatch.setattr(PointRecord, "eta", flipped)


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


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_point_record_matches_direct_moments(genus):
    # the record is one batch of moments stacked in position order, and
    # its psi, psi^2, delta(psi) and eta are those of each characteristic
    # alone, bit for bit
    table = char_table(genus)
    tau = SamplePlan(seed=5, count=1).tau_points(genus)[0]
    eps = 1e-14
    for order, positions in ((4, None), (2, table.even[1::2]), (1, table.odd)):
        record = identities._point(tau, eps, order=order, positions=positions)
        chars = [table.chars[i] for i in (table.even if positions is None else positions)]
        moments = [batch_moments(chars, tau, eps, order=order)[a] for a in chars]
        assert record.chars == tuple(chars)
        for name in ("value", "t1", "t2", "t4", "tail_bound"):
            stacked = getattr(record, name)
            if stacked is None:
                assert all(getattr(m, name) is None for m in moments)
            else:
                assert _bits(stacked) == _bits(*(getattr(m, name) for m in moments)), name
                assert not stacked.flags.writeable
        if order == 1:
            continue
        # psi's reference mirrors the upper triangle, which adds 0.0 to
        # every entry as the record's + 0.0 does
        psis = [np.triu(q) + np.triu(q, 1).T for q in (m.t2 / m.value for m in moments)]
        for i, (m, psi) in enumerate(zip(moments, psis)):
            assert _bits(record.psi(i)) == _bits(psi)
            for j, other in enumerate(psis):
                assert _bits(record.eta(i, j)) == _bits(np.linalg.det(other - psi))
            if order == 4:
                square = _symmetrize(np.multiply.outer(psi, psi))
                assert _bits(record.psi_sq(i)) == _bits(square)
                q = m.t2 / m.value
                delta_psi = _symmetrize(m.t4 / m.value - np.multiply.outer(q, q))
                assert _bits(record.delta_psi(i)) == _bits(delta_psi)


def test_point_record_guards_psi_on_first_read():
    # thetanull 33 (row 9) vanishes at every diagonal genus-2 point: the
    # values are read, and psi refuses the rows that hold 33 only
    record = identities._point(_DIAGONAL, 1e-14)
    assert len(record.value) == 10
    assert np.isfinite(record.value).all()
    assert np.isfinite(record.psi(range(9))).all()
    assert np.isfinite(record.eta([0, 1], [2, 3])).all()
    for read in (record.psi, lambda: record.psi([0, 9]), lambda: record.eta(9, 0)):
        with pytest.raises(NearZeroThetanull, match="thetanull 33"):
            read()


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

#: the checks that read psi of 33 there, and those that read no psi or
#: only that of 00-03
_READS_PSI_33 = ("second_order_system", "odd_gradient_squared", "odd_gradient_fourth",
                 "gopel_quartet", "gopel_single", "genus2_eta_product", "genus2_power72")
_SKIPS_PSI_33 = ("heat_equation", "genus2_quadratic", "genus2_quartic", "genus2_eta_explicit",
                 "chi_relation", "phi_relation")


@pytest.mark.parametrize("name", _READS_PSI_33 + _SKIPS_PSI_33)
def test_the_guard_refuses_only_the_checks_that_read_a_vanishing_psi(monkeypatch, name):
    monkeypatch.setattr(SamplePlan, "tau_points", lambda self, genus: [_DIAGONAL])
    plan = SamplePlan(count=1)
    if name in _READS_PSI_33:
        with pytest.raises(NearZeroThetanull, match="thetanull 33"):
            run_check(name, 2, plan)
    else:
        assert run_check(name, 2, plan).status in ("pass", "fail")


@pytest.mark.parametrize("name", ["genus2_eta_product", "genus2_power72", "gopel_quartet"])
def test_a_vanishing_thetanull_is_a_kernel_refusal_at_a_diagonal_plan(name):
    # a diagonal plan has theta_33 = 0 at every sample; a check that
    # divides by it refuses as the kernel does, not with ZeroDivisionError
    with pytest.raises(NearZeroThetanull, match="thetanull 33"):
        run_check(name, 2, SamplePlan(count=1, re_range=0.0, offdiag=0.0))


#: the point-record fields each check reads as data, not only as a scale;
#: riemann_quartic reads no record (its values come from theta_values)
_READS = {
    "heat_equation": ("t2",),  # value only scales its residuals
    "second_order_system": ("value", "t2", "t4"),
    "odd_gradient_squared": ("value", "t1", "t2"),
    "odd_gradient_fourth": ("value", "t1", "t2"),
    "transformation": ("value", "t2"),
    "weight2_diagonal": ("value", "t2"),
    "gopel_quartet": ("value", "t2", "t4"),
    "gopel_single": ("value", "t2", "t4"),
    "genus2_quadratic": ("value",),
    "genus2_quartic": ("value",),
    "genus2_eta_explicit": ("value", "t2"),
    "genus2_eta_product": ("value", "t2"),
    "genus2_power72": ("value", "t2"),
    "chi_relation": ("value", "t2"),
    "phi_relation": ("value", "t2"),
    "phi_leading": ("value", "t2"),
}
#: ROADMAP G: phi_relation holds for any psi (it is the polynomial identity
#: that formal phi proves), and chi_relation reads t2 about 10^3 more
#: weakly than the other checks read their data
_BLIND = {("phi_relation", "value"), ("phi_relation", "t2"), ("chi_relation", "t2")}


def test_every_check_passes_at_the_sensitivity_plan():
    # so that a failure under a perturbation below is the perturbation's
    for genus in (2, 3):
        for name in checks_for_genus(genus):
            check = run_check(name, genus, SamplePlan(seed=0, count=1))
            assert check.status == "pass", (genus, name, check.max_rel_residual)


def _sensitivity_cases():
    for genus in (2, 3):
        for name in checks_for_genus(genus):
            for field in _READS.get(name, ()):
                blind = (name, field) in _BLIND
                marks = pytest.mark.xfail(strict=True, reason="ROADMAP G") if blind else ()
                yield pytest.param(genus, name, field, marks=marks, id=f"{genus}-{name}-{field}")


@pytest.mark.parametrize("genus, name, field", _sensitivity_cases())
def test_a_check_fails_when_a_field_it_reads_is_off_by_1e_6(monkeypatch, genus, name, field):
    # every record the check reads gets a relative error of 1e-6 in one
    # field at row 1
    real = identities._point

    def perturbed(*args, **kwargs):
        record = real(*args, **kwargs)
        data = getattr(record, field)
        if data is None:
            return record
        data = data.copy()
        data[1] *= 1 + 1e-6
        return dataclasses.replace(record, **{field: data})

    monkeypatch.setattr(identities, "_point", perturbed)
    check = run_check(name, genus, SamplePlan(seed=0, count=1))
    assert check.status == "fail", f"{check.max_rel_residual:.2g} at {check.witness}"


#: the theta_values calls two checks read beside the point record, each
#: told apart by its arguments: riemann_quartic's values at z and 2z, and
#: heat_equation's at tau shifted up and down by its difference step
_VALUES_READ = {
    "riemann_quartic": {
        "z": lambda z, tau, z0, tau0: z is not None and np.array_equal(z, z0),
        "2z": lambda z, tau, z0, tau0: z is not None and np.array_equal(z, 2 * z0),
    },
    "heat_equation": {
        "tau+h": lambda z, tau, z0, tau0: (tau.tau - tau0.tau).real.sum() > 0,
        "tau-h": lambda z, tau, z0, tau0: (tau.tau - tau0.tau).real.sum() < 0,
    },
}


@pytest.mark.parametrize("genus, name, read", [
    pytest.param(genus, name, read, id=f"{genus}-{name}-{read}")
    for genus in (2, 3) for name, reads in _VALUES_READ.items() for read in reads
])
def test_a_check_fails_when_theta_values_it_reads_are_off_by_1e_6(monkeypatch, genus, name, read):
    # the value of the second characteristic asked for gets a relative
    # error of 1e-6 in every call the selector picks, and in no other
    plan = SamplePlan(seed=0, count=1)
    [(tau0, z0)] = plan.tau_z_points(genus) if name == "riemann_quartic" else [(plan.tau_points(genus)[0], None)]
    real, picked = identities.theta_values, []

    def perturbed(chars, z, tau, eps):
        values = real(chars, z, tau, eps)
        if _VALUES_READ[name][read](z, tau, z0, tau0):
            a = list(chars)[1]
            values[a] *= 1 + 1e-6
            picked.append(a)
        return values

    monkeypatch.setattr(identities, "theta_values", perturbed)
    check = run_check(name, genus, plan)
    assert picked
    assert check.status == "fail", f"{check.max_rel_residual:.2g} at {check.witness}"
