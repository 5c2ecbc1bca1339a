"""Combinatorics of 2-characteristics.

A 2-characteristic of genus g is a pair a = (a', a'') of vectors in
{0,1}^g.  Everything here is mod-2 arithmetic:

  |a|     = a' . a''                  (parity: a is even iff |a| is even)
  <a, b>  = a'.b'' - b'.a''  (mod 2)  (symplectic pairing)
  a + b   = componentwise sum mod 2

For genus 2 a characteristic is conventionally written as two digits,
one per vector, via (0,0)->0, (0,1)->1, (1,0)->2, (1,1)->3; the ten
even characteristics are then {00,01,02,03,10,12,20,21,30,33}.

A Gopel system is a set of four distinct even characteristics of the
shape {a, a+c, a+d, a+c+d}; equivalently, four distinct even
characteristics whose mod-2 sum is zero.  Genus 2 has exactly fifteen
of them and every even characteristic lies in exactly six.

Each characteristic has an integer code: the bits a' || a'' read as a
binary number, a' in the high g bits.  enumerate_characteristics lists
the characteristics in lexicographic bit order, so the one at position i
has code i, and the algebra above becomes integer arithmetic on codes:

  code(a + b) = code(a) XOR code(b)
  |a|         = popcount(hi(a) AND lo(a))          (hi = a', lo = a'')
  a'.b''      = popcount(hi(a) AND lo(b)) mod 2
  <a, b>      = a'.b'' XOR b'.a''

char_table(g) holds these as per-genus arrays indexed by position,
built once on first use; the identity checks read them instead of
building characteristics in their inner loops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Characteristic",
    "CharTable",
    "GopelSystem",
    "parity",
    "pairing",
    "enumerate_characteristics",
    "char_table",
    "digit_encode",
    "digit_decode",
    "gopel_systems",
]

MAX_GENUS = 3

_DIGIT_OF_BITS = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
_BITS_OF_DIGIT = {v: k for k, v in _DIGIT_OF_BITS.items()}


@dataclass(frozen=True, order=True)
class Characteristic:
    """An immutable reduced 2-characteristic (a', a'') in {0,1}^{2g}."""

    genus: int
    a_prime: tuple[int, ...]
    a_double_prime: tuple[int, ...]

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("genus must be a positive integer")
        ap = tuple(int(x) % 2 for x in self.a_prime)
        ad = tuple(int(x) % 2 for x in self.a_double_prime)
        if len(ap) != self.genus or len(ad) != self.genus:
            raise ValueError("bit vectors must have length equal to the genus")
        object.__setattr__(self, "a_prime", ap)
        object.__setattr__(self, "a_double_prime", ad)

    @property
    def weight(self) -> int:
        """|a| = a'.a'' as an integer in {0,...,g}."""
        return sum(p * q for p, q in zip(self.a_prime, self.a_double_prime))

    @property
    def is_even(self) -> bool:
        return self.weight % 2 == 0

    def __add__(self, other: "Characteristic") -> "Characteristic":
        if other.genus != self.genus:
            raise ValueError("cannot add characteristics of different genus")
        return Characteristic(
            self.genus,
            tuple((x + y) % 2 for x, y in zip(self.a_prime, other.a_prime)),
            tuple((x + y) % 2 for x, y in zip(self.a_double_prime, other.a_double_prime)),
        )

    @property
    def bits(self) -> tuple[int, ...]:
        """Concatenated (a' || a'') bits; the canonical sort key."""
        return self.a_prime + self.a_double_prime

    @property
    def code(self) -> int:
        """The bits read as a binary number: the position of a in
        enumerate_characteristics(genus) and in char_table(genus)."""
        return int("".join(map(str, self.bits)), 2)

    def label(self) -> str:
        """Two-digit label at genus 2, explicit bit form otherwise."""
        if self.genus == 2:
            return digit_encode(self)
        return "(%s;%s)" % (
            ",".join(str(b) for b in self.a_prime),
            ",".join(str(b) for b in self.a_double_prime),
        )

    @staticmethod
    def parse(text: str, genus: int | None = None) -> "Characteristic":
        """Parse "(a';a'')" bit-vector form, or a two-digit genus-2 label.
        Entries must be 0 or 1: theta[a'; a''+2k] = (-1)^(a'.k) theta[a'; a'']."""
        text = text.strip()
        if text.startswith("("):
            body = text.strip("()")
            left, right = body.split(";")
            ap = tuple(int(b) for b in left.replace(" ", "").split(","))
            ad = tuple(int(b) for b in right.replace(" ", "").split(","))
            if not set(ap + ad) <= {0, 1}:
                raise ValueError(f"characteristic entries must be 0 or 1: {text!r}")
            return Characteristic(len(ap), ap, ad)
        if len(text) == 2 and text.isdigit() and (genus in (None, 2)):
            return digit_decode(text)
        raise ValueError(f"unrecognized characteristic syntax: {text!r}")

    def __str__(self) -> str:
        return self.label()


def parity(a: Characteristic) -> str:
    """Return "even" or "odd" according to the parity of |a| = a'.a''."""
    return "even" if a.is_even else "odd"


def pairing(a: Characteristic, b: Characteristic) -> int:
    """Symplectic pairing <a,b> = a'.b'' - b'.a'' mod 2."""
    if a.genus != b.genus:
        raise ValueError("pairing requires characteristics of the same genus")
    s = sum(p * q for p, q in zip(a.a_prime, b.a_double_prime))
    s -= sum(p * q for p, q in zip(b.a_prime, a.a_double_prime))
    return s % 2


@lru_cache(maxsize=None)
def _enumerate_all(genus: int) -> tuple[Characteristic, ...]:
    out = []
    for bits in itertools.product((0, 1), repeat=2 * genus):
        out.append(Characteristic(genus, bits[:genus], bits[genus:]))
    return tuple(sorted(out, key=lambda c: c.bits))


def enumerate_characteristics(genus: int, parity_filter: str = "all") -> list[Characteristic]:
    """All characteristics of the given genus in lexicographic (a'||a'') order.

    parity_filter is one of "all", "even", "odd".
    """
    if not (1 <= genus <= MAX_GENUS):
        raise ValueError(f"unsupported genus {genus}; supported range is 1..{MAX_GENUS}")
    allc = _enumerate_all(genus)
    if parity_filter == "all":
        return list(allc)
    if parity_filter == "even":
        return [a for a in allc if a.is_even]
    if parity_filter == "odd":
        return [a for a in allc if not a.is_even]
    raise ValueError(f"parity_filter must be all|even|odd, got {parity_filter!r}")


@dataclass(frozen=True, eq=False)
class CharTable:
    """The characteristic algebra of one genus, indexed by position (= code).

    chars[i] has code i; add[i, j] = i ^ j is the position of
    chars[i] + chars[j]; weight[i] = |chars[i]|; cross[i, j] =
    a'_i . a''_j mod 2; pairing[i, j] = <chars[i], chars[j]>; even and
    odd list the positions of each parity in increasing order.  The
    arrays are read-only and shared by every caller.
    """

    chars: tuple[Characteristic, ...]
    add: np.ndarray
    weight: np.ndarray
    cross: np.ndarray
    pairing: np.ndarray
    even: tuple[int, ...]
    odd: tuple[int, ...]

    @cached_property
    def gopel(self) -> tuple[tuple[int, int, int, int], ...]:
        """Gopel systems as increasing position quads, in lexicographic
        order: four even positions whose codes XOR to 0."""
        return tuple(
            q for q in itertools.combinations(self.even, 4) if q[0] ^ q[1] ^ q[2] ^ q[3] == 0
        )


@lru_cache(maxsize=None)
def char_table(genus: int) -> CharTable:
    """The cached CharTable of the given genus (1..MAX_GENUS)."""
    chars = tuple(enumerate_characteristics(genus))
    codes = np.arange(len(chars))
    bits = np.array([a.bits for a in chars])
    hi, lo = bits[:, :genus], bits[:, genus:]
    weight = (hi * lo).sum(axis=1)
    cross = (hi @ lo.T) % 2
    arrays = (codes[:, None] ^ codes[None, :], weight, cross, cross ^ cross.T)
    for arr in arrays:
        arr.setflags(write=False)
    even = tuple(np.flatnonzero(weight % 2 == 0).tolist())
    odd = tuple(np.flatnonzero(weight % 2).tolist())
    return CharTable(chars, *arrays, even, odd)


def digit_encode(a: Characteristic) -> str:
    """Two-digit genus-2 label: first digit encodes a', second a''."""
    if a.genus != 2:
        raise ValueError("digit labels are defined for genus 2 only")
    return f"{_DIGIT_OF_BITS[a.a_prime]}{_DIGIT_OF_BITS[a.a_double_prime]}"


def digit_decode(label: str) -> Characteristic:
    """Inverse of digit_encode."""
    if len(label) != 2 or not label.isdigit():
        raise ValueError(f"expected a two-digit label, got {label!r}")
    d1, d2 = int(label[0]), int(label[1])
    if d1 > 3 or d2 > 3:
        raise ValueError(f"digits must be in 0..3, got {label!r}")
    return Characteristic(2, _BITS_OF_DIGIT[d1], _BITS_OF_DIGIT[d2])


@dataclass(frozen=True)
class GopelSystem:
    """Four distinct even characteristics forming a coset {a, a+c, a+d, a+c+d}."""

    members: tuple[Characteristic, ...]

    def __post_init__(self):
        ms = tuple(sorted(set(self.members), key=lambda c: c.bits))
        if len(ms) != 4:
            raise ValueError("a Gopel system has exactly 4 distinct members")
        if any(not m.is_even for m in ms):
            raise ValueError("all members of a Gopel system must be even")
        if ms[0].code ^ ms[1].code ^ ms[2].code ^ ms[3].code:
            raise ValueError("members do not form a coset (their sum is non-zero)")
        object.__setattr__(self, "members", ms)

    def __contains__(self, a: Characteristic) -> bool:
        return a in self.members

    def labels(self) -> tuple[str, ...]:
        return tuple(m.label() for m in self.members)


def gopel_systems(genus: int = 2) -> list[GopelSystem]:
    """All Gopel systems, deterministically ordered.  Genus 2 only."""
    if genus != 2:
        raise ValueError("Gopel system enumeration is implemented for genus 2 only")
    table = char_table(genus)
    return [GopelSystem(tuple(table.chars[i] for i in q)) for q in table.gopel]
