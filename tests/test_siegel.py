import json
import math

import numpy as np
import pytest

from siegeltheta.siegel import (
    HalfSpaceError,
    SiegelPoint,
    SymplecticMatrix,
    act,
    cocycle_factor,
    is_in_gamma_48,
    random_gamma_48,
)


def _point(genus=2, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (genus, genus))
    x = (x + x.T) / 2
    y = np.diag(rng.uniform(1.0, 2.0, genus)) + 0.05 * np.eye(genus)
    return SiegelPoint(genus, x + 1j * y)


def test_siegel_point_symmetry_from_upper_triangle():
    m = np.array([[1j, 0.5], [99.0, 2j]])  # lower triangle ignored
    pt = SiegelPoint(2, m)
    assert pt.tau[1, 0] == pt.tau[0, 1] == 0.5


def test_siegel_point_rejects_non_positive_imag():
    with pytest.raises(HalfSpaceError):
        SiegelPoint(1, np.array([[1.0 + 0j]]))
    with pytest.raises(HalfSpaceError):
        SiegelPoint(2, np.array([[1j, 2j], [2j, 1j]]))  # indefinite imag


def test_siegel_point_json_roundtrip():
    pt = _point()
    again = SiegelPoint.from_json(json.dumps(pt.to_json()))
    assert again == pt


@pytest.mark.parametrize("missing", ["genus", "tau"])
def test_siegel_point_json_names_a_missing_field(missing):
    obj = _point().to_json()
    del obj[missing]
    with pytest.raises(ValueError, match=f"'{missing}'"):
        SiegelPoint.from_json(obj)


@pytest.mark.parametrize("entry", [complex(math.nan, 1.0), complex(math.inf, 1.0),
                                   complex(-math.inf, 1.0), complex(0.0, math.nan),
                                   complex(0.0, math.inf)])
def test_siegel_point_rejects_non_finite_entries(entry):
    # a non-finite Re tau would give nan thetas beside a finite tail bound
    with pytest.raises(HalfSpaceError, match="finite entries"):
        SiegelPoint(1, np.array([[entry]]))
    with pytest.raises(HalfSpaceError, match="finite entries"):
        SiegelPoint(2, np.array([[1j, entry], [0.0, 1j]]))


def test_siegel_point_json_names_a_malformed_entry():
    obj = {"genus": 1, "tau": [[[0.0, 1.0, 5.0]]]}
    with pytest.raises(ValueError, match=r"tau must be a matrix of \[re, im\] pairs"):
        SiegelPoint.from_json(obj)


def test_symplectic_validation():
    e = np.eye(2, dtype=np.int64)
    z = np.zeros((2, 2), dtype=np.int64)
    SymplecticMatrix(2, e, z, z, e)
    # non-symmetric b violates t(gamma) J gamma = J
    b = np.array([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        SymplecticMatrix.upper_unipotent(b)
    with pytest.raises(ValueError):
        SymplecticMatrix(2, e, np.asarray(b, dtype=np.int64), z, e)


def test_gamma48_membership_examples():
    assert is_in_gamma_48(SymplecticMatrix.identity(2))
    b = np.array([[8, 4], [4, 16]], dtype=np.int64)
    assert is_in_gamma_48(SymplecticMatrix.upper_unipotent(b))
    # diagonal entry 4 mod 8 fails the diag(a b^t) condition
    b_bad = np.array([[4, 4], [4, 8]], dtype=np.int64)
    assert not is_in_gamma_48(SymplecticMatrix.upper_unipotent(b_bad))
    # entry 2 mod 4 fails the mod-4 congruence
    b_bad2 = np.array([[8, 2], [2, 8]], dtype=np.int64)
    assert not is_in_gamma_48(SymplecticMatrix.upper_unipotent(b_bad2))
    c = 8 * np.eye(2, dtype=np.int64)
    assert is_in_gamma_48(SymplecticMatrix.lower_unipotent(c))


def test_act_identity_and_translation():
    pt = _point()
    assert act(SymplecticMatrix.identity(2), pt) == pt
    b = np.array([[8, 4], [4, 8]], dtype=np.int64)
    moved = act(SymplecticMatrix.upper_unipotent(b), pt)
    assert np.allclose(moved.tau, pt.tau + b)


def test_act_genus1_imaginary_part():
    pt = SiegelPoint(1, np.array([[0.3 + 1.2j]]))
    gamma = random_gamma_48(5, 2, genus=1)
    out = act(gamma, pt)
    c = gamma.c[0, 0]
    d = gamma.d[0, 0]
    tau = complex(pt.tau[0, 0])
    expected = tau.imag / abs(c * tau + d) ** 2
    assert out.tau[0, 0].imag > 0
    assert np.isclose(out.tau[0, 0].imag, expected)


def test_act_is_group_action():
    pt = _point()
    g1 = random_gamma_48(11, 2)
    g2 = random_gamma_48(12, 2)
    lhs = act(g1 @ g2, pt)
    rhs = act(g1, act(g2, pt))
    assert np.allclose(lhs.tau, rhs.tau, atol=1e-12)


def test_cocycle_chain_rule():
    pt = _point()
    g1 = random_gamma_48(21, 1)
    g2 = random_gamma_48(22, 2)
    left = cocycle_factor(g1 @ g2, pt)
    right = cocycle_factor(g1, act(g2, pt)) @ cocycle_factor(g2, pt)
    assert np.allclose(left, right, atol=1e-10)


def test_cocycle_trivial_cases():
    pt = _point()
    assert np.allclose(cocycle_factor(SymplecticMatrix.identity(2), pt), np.eye(2))
    b = np.array([[8, 0], [0, 8]], dtype=np.int64)
    assert np.allclose(cocycle_factor(SymplecticMatrix.upper_unipotent(b), pt), np.eye(2))


@pytest.mark.parametrize("seed", range(6))
def test_random_gamma48_properties(seed):
    gamma = random_gamma_48(seed, 1 + seed % 3)
    m = gamma.matrix()
    j = SymplecticMatrix._J(2)
    assert np.array_equal(m.T @ j @ m, j)  # exact symplectic
    assert is_in_gamma_48(gamma)


def test_random_gamma48_word_length_validation():
    with pytest.raises(ValueError):
        random_gamma_48(0, 0)


def test_gamma48_closed_under_product_and_inverse():
    for seed in range(4):
        g1 = random_gamma_48(seed, 2)
        g2 = random_gamma_48(seed + 100, 1)
        assert is_in_gamma_48(g1 @ g2)
        assert is_in_gamma_48(g1.inverse())
        prod = g1 @ g1.inverse()
        assert np.array_equal(prod.matrix(), np.eye(4, dtype=np.int64))
