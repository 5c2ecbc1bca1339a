import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from siegeltheta.characteristics import (
    Characteristic,
    GopelSystem,
    char_table,
    digit_decode,
    digit_encode,
    enumerate_characteristics,
    gopel_systems,
    pairing,
    parity,
)


def C(genus, ap, ad):
    return Characteristic(genus, tuple(ap), tuple(ad))


def test_parity_examples():
    assert parity(C(1, [0], [0])) == "even"
    assert parity(C(1, [1], [1])) == "odd"


@pytest.mark.parametrize("genus,even_count", [(1, 3), (2, 10), (3, 36)])
def test_even_counts(genus, even_count):
    # 2^(g-1) (2^g + 1) even, the rest odd
    assert len(enumerate_characteristics(genus, "even")) == even_count
    assert even_count == 2 ** (genus - 1) * (2**genus + 1)
    assert len(enumerate_characteristics(genus, "odd")) == 4**genus - even_count
    assert len(enumerate_characteristics(genus, "all")) == 4**genus


def test_genus2_counts_10_6():
    assert len(enumerate_characteristics(2, "even")) == 10
    assert len(enumerate_characteristics(2, "odd")) == 6


def test_enumeration_is_lexicographic_and_deterministic():
    allc = enumerate_characteristics(2, "all")
    bits = [a.bits for a in allc]
    assert bits == sorted(bits)
    assert allc == enumerate_characteristics(2, "all")


def test_genus2_even_digit_labels_match_convention():
    labels = [digit_encode(a) for a in enumerate_characteristics(2, "even")]
    assert sorted(labels) == ["00", "01", "02", "03", "10", "12", "20", "21", "30", "33"]


def test_unsupported_genus_rejected():
    with pytest.raises(ValueError):
        enumerate_characteristics(4, "all")
    with pytest.raises(ValueError):
        enumerate_characteristics(0, "all")


def test_digit_encode_examples():
    assert digit_encode(C(2, [1, 0], [0, 0])) == "20"
    assert digit_encode(C(2, [0, 0], [0, 0])) == "00"
    with pytest.raises(ValueError):
        digit_encode(C(1, [1], [0]))


def test_digit_roundtrip_all_16():
    for a in enumerate_characteristics(2, "all"):
        assert digit_decode(digit_encode(a)) == a


def test_bit_vector_parse_roundtrip():
    a = C(3, [1, 0, 1], [0, 1, 1])
    assert Characteristic.parse("(1,0,1;0,1,1)") == a
    assert Characteristic.parse(a.label()) == a
    assert Characteristic.parse("20") == C(2, [1, 0], [0, 0])


@pytest.mark.parametrize("text", ["(1;2)", "(0,2;1,1)", "(1,0;0,-1)", "(3;0)"])
def test_parse_refuses_entries_other_than_0_and_1(text):
    # theta[1;2] = -theta[1;0]: reducing mod 2 would name the wrong sign
    with pytest.raises(ValueError, match="must be 0 or 1"):
        Characteristic.parse(text)


def test_pairing_alternating_and_symmetric_relation():
    for genus in (1, 2, 3):
        allc = enumerate_characteristics(genus, "all")
        for a in allc:
            assert pairing(a, a) == 0
        for a, b in itertools.product(allc, repeat=2):
            lhs = pairing(a, b)
            assert lhs == ((a + b).weight + a.weight + b.weight) % 2
            assert (pairing(a, b) + pairing(b, a)) % 2 == 0


def test_pairing_genus_mismatch():
    with pytest.raises(ValueError):
        pairing(C(1, [0], [0]), C(2, [0, 0], [0, 0]))


@pytest.mark.parametrize("genus", [2, 3])
def test_even_character_sum_identity(genus):
    # sum over even b of (-1)^<a+c, b> = (-1)^|a+c| 2^(g-1), a odd, c even
    evens = enumerate_characteristics(genus, "even")
    odds = enumerate_characteristics(genus, "odd")
    for a in odds:
        for c in evens:
            ac = a + c
            total = sum((-1) ** pairing(ac, b) for b in evens)
            assert total == (-1) ** ac.weight * 2 ** (genus - 1)


@given(
    st.integers(1, 3),
    st.data(),
)
def test_pairing_bilinear(genus, data):
    bits = st.tuples(*[st.integers(0, 1)] * genus)
    mk = lambda: Characteristic(genus, data.draw(bits), data.draw(bits))
    a, b, c = mk(), mk(), mk()
    assert pairing(a + b, c) == (pairing(a, c) + pairing(b, c)) % 2
    assert pairing(c, a + b) == (pairing(c, a) + pairing(c, b)) % 2


def test_characteristics_reduced_mod_2_on_construction():
    a = Characteristic(2, (2, 3), (4, 5))
    assert a.a_prime == (0, 1) and a.a_double_prime == (0, 1)


def test_gopel_systems_count_and_structure():
    systems = gopel_systems(2)
    assert len(systems) == 15
    zero = Characteristic(2, (0, 0), (0, 0))
    for G in systems:
        assert len(G.members) == 4
        assert all(m.is_even for m in G.members)
        total = G.members[0]
        for m in G.members[1:]:
            total = total + m
        assert total == zero


def test_gopel_contains_k0():
    wanted = {digit_decode(x) for x in ("00", "01", "02", "03")}
    assert any(set(G.members) == wanted for G in gopel_systems(2))


def test_gopel_membership_six_fold():
    counts = {}
    for G in gopel_systems(2):
        for m in G.members:
            counts[m] = counts.get(m, 0) + 1
    assert set(counts.values()) == {6}
    assert len(counts) == 10


def test_gopel_brute_force_matches():
    # independent enumeration: 4-subsets of the evens with zero sum, built
    # with Characteristic arithmetic and sorted, against the table's
    # XOR-of-codes enumeration and gopel_systems, in the same order
    evens = enumerate_characteristics(2, "even")
    zero = Characteristic(2, (0, 0), (0, 0))
    found = []
    for quad in itertools.combinations(evens, 4):
        total = quad[0]
        for m in quad[1:]:
            total = total + m
        if total == zero:
            found.append(quad)
    found.sort(key=lambda q: tuple(m.bits for m in q))
    table = char_table(2)
    assert [tuple(table.chars[i] for i in q) for q in table.gopel] == found
    assert [G.members for G in gopel_systems(2)] == found


def test_gopel_system_validation():
    d = digit_decode
    with pytest.raises(ValueError):
        GopelSystem((d("00"), d("01"), d("02"), d("12")))  # sum not zero
    with pytest.raises(ValueError):
        gopel_systems(3)


def test_gopel_pairs_lie_in_exactly_two_systems():
    systems = gopel_systems(2)
    evens = enumerate_characteristics(2, "even")
    for a, b in itertools.combinations(evens, 2):
        through = [G for G in systems if a in G and b in G]
        assert len(through) == 2


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_char_table_matches_characteristic_algebra(genus):
    table = char_table(genus)
    chars = table.chars
    n = 4**genus
    assert chars == tuple(enumerate_characteristics(genus))
    for i, a in enumerate(chars):
        assert a.bits == tuple(int(b) for b in format(i, f"0{2 * genus}b"))
        assert a.code == i
        assert table.weight[i] == a.weight
    for i, j in itertools.product(range(n), repeat=2):
        a, b = chars[i], chars[j]
        assert chars[table.add[i, j]] == a + b
        assert table.cross[i, j] == sum(p * q for p, q in zip(a.a_prime, b.a_double_prime)) % 2
        assert table.pairing[i, j] == pairing(a, b)
    assert [chars[i] for i in table.even] == enumerate_characteristics(genus, "even")
    assert [chars[i] for i in table.odd] == enumerate_characteristics(genus, "odd")

