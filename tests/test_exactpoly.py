import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegeltheta.exactpoly import (
    RationalPoly,
    chi_combination,
    gopel_sum_defect,
    gopel_sum_defects_by_system,
    phi_combination,
    phi_expressions,
    phi_polynomials,
    verify_phi_identity,
    verify_chi_identity,
    verify_gopel_sum_lemma,
)


def aligned_terms(p: RationalPoly, names) -> dict:
    """p's public terms with exponent tuples over the variable list names."""
    out = {}
    for expo, c in p.terms.items():
        by_name = dict(zip(p.variables, expo))
        out[tuple(by_name.get(v, 0) for v in names)] = c
    return out


def dense_multiply(a: RationalPoly, b: RationalPoly) -> dict:
    """Independent oracle: plain double loop over aligned exponent tuples
    and Fraction coefficients, read through the public view only."""
    merged = tuple(sorted(set(a.variables) | set(b.variables)))
    out = {}
    for ea, ca in aligned_terms(a, merged).items():
        for eb, cb in aligned_terms(b, merged).items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def small_polys(nvars=3, max_degree=6, max_terms=5):
    names = tuple(f"x{i}" for i in range(nvars))
    coeff = st.fractions(
        min_value=-9, max_value=9, max_denominator=7
    )
    expo = st.tuples(*[st.integers(0, max_degree // 2)] * nvars)
    term = st.tuples(expo, coeff)
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda ts: RationalPoly(names, {e: c for e, c in ts})
    )


def test_square_expansion_is_zero():
    x, y = RationalPoly.ring(["x", "y"])
    assert ((x + y) ** 2 - (x**2 + 2 * x * y + y**2)).is_zero()


def test_substitute_collapses_difference():
    x, y = RationalPoly.ring(["x", "y"])
    assert (x - y).substitute("y", x).is_zero()
    p = (x + y) ** 3
    q = p.substitute("y", RationalPoly.constant(2, p.variables))
    assert q == (x + 2) ** 3


def test_zero_detection_and_lowest_terms():
    x, y = RationalPoly.ring(["x", "y"])
    p = Fraction(2, 4) * x - Fraction(1, 2) * x
    assert p.is_zero() and p.terms == {}
    assert (Fraction(1, 3) * x - Fraction(1, 3) * x).terms == {}
    q = Fraction(2, 6) * x
    assert list(q.terms.values()) == [Fraction(1, 3)]
    # mixed denominators share one canonical form
    mixed = Fraction(1, 3) * x + Fraction(1, 6) * y
    assert mixed * 6 == 2 * x + y
    assert mixed.terms == {(1, 0): Fraction(1, 3), (0, 1): Fraction(1, 6)}
    assert str(Fraction(2, 4) * x + Fraction(5, 30) * y) == "1/6*y + 1/2*x"


def test_degree_guard():
    x, = RationalPoly.ring(["x"])
    with pytest.raises(OverflowError):
        RationalPoly(("x",), {(10**6 + 1,): 1})
    assert (x**100).degree() == 100


def test_packed_fields_never_carry():
    x, y = RationalPoly.ring(["x", "y"])
    for v in (x, y):
        with pytest.raises(OverflowError):
            v**600000 * v**600000
    assert (y**600000 * y**400000).terms == {(0, 10**6): 1}
    p = x**500000 * y**500000
    assert p.degree() == 10**6
    assert p.terms == {(500000, 500000): 1}


def test_hash_agrees_with_equality():
    x, = RationalPoly.ring(["x"])
    x_in_xy = RationalPoly.variable("x", ("x", "y"))
    xy = RationalPoly.variable("x", ("x", "y")) * RationalPoly.variable("y", ("x", "y"))
    yx = RationalPoly.variable("x", ("y", "x")) * RationalPoly.variable("y", ("y", "x"))
    pairs = [
        (x, x_in_xy),
        (RationalPoly.constant(3), 3),
        (RationalPoly.constant(Fraction(1, 2), ("x",)), Fraction(1, 2)),
        (RationalPoly.zero(("x",)), RationalPoly.zero()),
        (xy, yx),
    ]
    for p, q in pairs:
        assert p == q
        assert hash(p) == hash(q)
    assert len({x, x_in_xy}) == 1


def test_equality_with_a_non_number_is_false():
    x, = RationalPoly.ring(["x"])
    for other in (None, "a", object(), 1j):
        assert (x == other) is False
        assert x != other
    assert x not in [None, "a"]
    assert x in [None, x]
    assert RationalPoly.constant(3) == 3 and 3 == RationalPoly.constant(3)


def test_variable_merge_by_name():
    x, = RationalPoly.ring(["x"])
    y, = RationalPoly.ring(["y"])
    p = x + y
    assert set(p.variables) == {"x", "y"}
    assert p.evaluate({"x": Fraction(2), "y": Fraction(3)}) == 5


def test_sorted_terms_graded_lex():
    x, y = RationalPoly.ring(["x", "y"])
    p = x**3 + y**2 + x * y + x + 1
    order = [e for e, _ in p.sorted_terms()]
    assert order == [(0, 0), (1, 0), (0, 2), (1, 1), (3, 0)]


def test_pow_validation():
    x, = RationalPoly.ring(["x"])
    with pytest.raises(ValueError):
        x ** (-1)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys())
def test_mul_matches_dense_oracle(a, b):
    got = aligned_terms(a * b, tuple(sorted(set(a.variables) | set(b.variables))))
    assert got == dense_multiply(a, b)


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert (a - a).is_zero()


@settings(max_examples=30, deadline=None)
@given(small_polys(), st.integers(0, 3))
def test_pow_matches_repeated_multiplication(a, n):
    expected = RationalPoly.constant(1, a.variables)
    for _ in range(n):
        expected = expected * a
    assert a**n == expected


# ----------------------------------------------------------------------
# the certified identities
# ----------------------------------------------------------------------

def test_chi_identity_holds_and_mutation_breaks():
    assert verify_chi_identity()
    assert chi_combination().is_zero()
    mutated = chi_combination(cross_factor=1)
    assert not mutated.is_zero()
    # numeric shadow: the true combination vanishes at any point
    values = {"p": Fraction(3), "q": Fraction(5), "r": Fraction(11)}
    assert chi_combination().evaluate(values) == 0
    assert mutated.evaluate(values) != 0


def test_phi_identity_holds_and_mutation_breaks():
    assert verify_phi_identity()
    poly, stats = phi_combination()
    assert poly.is_zero()
    assert stats["term_count_high_water"] > 1000  # genuinely expanded
    mutated, _ = phi_combination(product_constant=63)
    assert not mutated.is_zero()
    # nonzero certified by exact evaluation at a generic rational point
    # (avoid linear-in-index values: they kill every developed determinant)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assignment = {
        v: Fraction(primes[k], 1 + (k * k) % 5) for k, v in enumerate(mutated.variables)
    }
    assert mutated.evaluate(assignment) != 0


def test_phi_slot2_partner_also_holds():
    poly, _ = phi_combination(slot=2)
    assert poly.is_zero()


@pytest.mark.parametrize("slot", [1, 2])
def test_phi_expressions_on_numbers_evaluate_the_phi_polynomials(slot):
    # the one phi builder gives the same values over numbers as the
    # expanded polynomials at the same point
    k0 = ("00", "01", "02", "03")
    psi = {(a, j): Fraction((7 * i + 3) ** j % 11 - 5, i + j) for i, a in enumerate(k0) for j in (1, 2, 3)}
    assignment = {f"psi_{a}_{j}": v for (a, j), v in psi.items()}
    expected = [p.evaluate(assignment) for p in phi_polynomials(slot)]
    assert phi_expressions(psi, slot) == expected
    assert any(expected)
    with pytest.raises(ValueError):
        phi_expressions(psi, 3)


def test_phi_polynomials_shape():
    phis = phi_polynomials()
    assert len(phis) == 4
    assert all(p.degree() == 4 for p in phis)
    assert all(len(p.variables) == 12 for p in phis)


@pytest.mark.parametrize("slot", [1, 2])
def test_phi_expansion_statistics_are_pinned(slot):
    _, stats = phi_combination(slot=slot)
    assert stats == {"term_count_high_water": 7255, "result_terms": 0, "phi_terms": [21] * 4}


@pytest.mark.parametrize(
    "control,terms,degree,digest",
    [
        (lambda: chi_combination(3), 12, 4,
         "d8cfb62c170418f91265e917979f80bc7eda70071559313176cec5ed7cd8c299"),
        (lambda: phi_combination(63, 1)[0], 7255, 16,
         "96c14dc165eaa932cf22f24f0e7de1e1e75bd10bfd4b7357ab9ad9e2db45a232"),
        (lambda: gopel_sum_defect(Fraction(1, 3)), 465, 6,
         "c7b6f83843521b43b6987cce325b67bea620db3db097b3c2392e2bbf55657456"),
    ],
    ids=["chi[3]", "phi[63,slot1]", "gopel-sum[1/3]"],
)
def test_mutation_controls_are_pinned(control, terms, degree, digest):
    # digests of str() as the tuple-and-Fraction engine printed them: the
    # packed engine must expand to byte-identical polynomials
    poly = control()
    assert (poly.term_count, poly.degree()) == (terms, degree)
    assert hashlib.sha256(str(poly).encode()).hexdigest() == digest


def test_gopel_sum_lemma_holds_and_mutation_breaks():
    assert verify_gopel_sum_lemma()
    assert gopel_sum_defect().is_zero()
    mutated = gopel_sum_defect(quarter=Fraction(1, 3))
    assert not mutated.is_zero()


def test_gopel_per_system_defect_vanishes_only_on_theta_locus():
    # the per-system difference is NOT the zero polynomial in free
    # symbols; only the sum over all fifteen systems cancels exactly
    defects = gopel_sum_defects_by_system()
    assert all(not d.is_zero() for d in defects)
    total = defects[0]
    for d in defects[1:]:
        total = total + d
    # sum of per-system defects = 6 * single-sum defect rearranged; the
    # global statement is the one that cancels
    assert gopel_sum_defect().is_zero()


def test_gopel_numeric_shadow_agrees_with_series_values():
    # evaluate the global defect at psi values taken from the series
    # kernel; it vanishes there too (it is the zero polynomial)
    import numpy as np

    from siegeltheta.characteristics import digit_encode, enumerate_characteristics
    from siegeltheta.siegel import SiegelPoint
    from siegeltheta.theta import batch_moments

    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, (2, 2))
    x = (x + x.T) / 2
    pt = SiegelPoint(2, x + 1j * (np.diag(rng.uniform(1.0, 1.8, 2))))
    moms = batch_moments(enumerate_characteristics(2, "even"), pt, 1e-14, order=2)
    assignment = {"u1": 0.37 + 0.11j, "u2": -0.52 + 0.23j}
    for a, m in moms.items():
        psi = m.t2 / m.value
        lbl = digit_encode(a)
        assignment[f"psi_{lbl}_1"] = complex(psi[0, 0])
        assignment[f"psi_{lbl}_2"] = complex(psi[1, 1])
        assignment[f"psi_{lbl}_3"] = complex(psi[0, 1])
    defect = gopel_sum_defect()
    total = 0.0
    for expo, coeff in defect.sorted_terms():
        term = complex(coeff)
        for var, e in zip(defect.variables, expo):
            if e:
                term *= assignment[var] ** e
        total += term
    assert abs(total) < 1e-10


def test_str_and_repr_smoke():
    x, y = RationalPoly.ring(["x", "y"])
    p = 2 * x * y - y**2
    assert "x" in str(p) and "RationalPoly" in repr(p)
    assert RationalPoly.zero(("x",)).is_zero()
    assert str(RationalPoly.zero(("x",))) == "0"
