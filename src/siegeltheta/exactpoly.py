"""Exact sparse multivariate polynomials over the rationals.

A polynomial over the variable list ``variables`` (a fixed tuple of
names) is stored as ``{packed monomial: integer numerator}`` over one
positive integer denominator.  The stored form is canonical: no numerator
is zero, the gcd of the denominator and every numerator is 1, and the
zero polynomial is the empty map over denominator 1.  Equal polynomials
over the same variables therefore have equal maps and denominators.

Packing.  Variable i of n owns a field of W = 21 bits, the first
variable the most significant, so a monomial is one int
``sum(e_i << W*(n-1-i))`` and, for a fixed variable list, integer order
on keys is lexicographic order on exponent vectors.  Every stored term
has total degree at most MAX_DEGREE = 10^6, so every field is at most
10^6, and 2^W = 2097152 > 2 * MAX_DEGREE: adding two stored keys adds
their fields without a carry, and the monomial product is one integer
addition.  Because 2^W = 1 (mod 2^W - 1), a key modulo 2^W - 1 is the
sum of its fields, exactly the total degree of the monomial while that
is below 2^W - 1.  A product's degree is exactly deg a + deg b (the top
homogeneous parts multiply to a nonzero form), so a product above
MAX_DEGREE raises OverflowError before any of its keys is formed.

Fraction appears only at the edges: the constructor, ``constant``,
scalar operands of ``+``, ``-``, ``*`` and ``==``, the ``terms`` view
(a decoded ``{exponent tuple: Fraction}`` dict), ``sorted_terms`` (graded
lexicographic order), ``evaluate``, ``substitute`` and ``str``.

On top of the ring arithmetic this module certifies the two
coefficient-level identities of the genus-2 thetanull ring and one
consistency lemma:

  * the chi identity: with chi1 = (p-q)^2, chi2 = (p-r)^2,
    chi3 = (r-q)^2 in three indeterminates,
    chi1^2+chi2^2+chi3^2 - 2(chi1 chi2 + chi2 chi3 + chi3 chi1) = 0;

  * the phi identity: with phi_0..phi_3 built from first-slot
    differences and developed 2x2 determinants in the twelve
    indeterminates psi_{a,j} (a in {00,01,02,03}, j in {1,2,3}),
    ((phi_0+..+phi_3)^2 - 2(phi_0^2+..+phi_3^2))^2
      - 64 phi_0 phi_1 phi_2 phi_3 = 0;

  * the Gopel sum lemma: the fifteen per-system derivative identities
    and the ten single-characteristic ones express the same derivatives,
    and the two global sums cancel exactly in the thirty genus-2 symbols
    (per system the difference is not formally zero; it vanishes only on
    the theta locus, which the numeric harness covers).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm
from numbers import Real

from .characteristics import digit_encode, enumerate_characteristics, gopel_systems

__all__ = [
    "RationalPoly",
    "verify_chi_identity",
    "verify_phi_identity",
    "verify_gopel_sum_lemma",
    "chi_combination",
    "phi_expressions",
    "phi_polynomials",
    "phi_combination",
    "gopel_sum_defect",
    "gopel_sum_defects_by_system",
]

MAX_DEGREE = 10**6

#: bits per exponent field; 2**_W > 2 * MAX_DEGREE keeps key sums carry-free
_W = 21
#: one field of ones; a key modulo _MASK is its total degree
_MASK = (1 << _W) - 1


def _shift(variables: tuple, name: str) -> int:
    """Bit offset of the named variable's exponent field."""
    return _W * (len(variables) - 1 - variables.index(name))


def _fraction(value) -> Fraction:
    """Fraction(value), also for numpy's float16, float32 and longdouble:
    numbers.Real, but not float subclasses, so Fraction refuses them."""
    try:
        return Fraction(value)
    except TypeError:
        if not isinstance(value, Real):
            raise
        return Fraction(*value.as_integer_ratio())


class RationalPoly:
    """Sparse polynomial with exact rational coefficients."""

    __slots__ = ("variables", "_num", "_den")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        n = len(self.variables)
        coeffs = {}
        for expo, coeff in (terms or {}).items():
            c = _fraction(coeff)
            if c == 0:
                continue
            expo = tuple(int(e) for e in expo)
            if len(expo) != n:
                raise ValueError("exponent vector length does not match variable count")
            if any(e < 0 for e in expo):
                raise ValueError("negative exponents are not supported")
            if sum(expo) > MAX_DEGREE:
                raise OverflowError(f"degree above the supported limit {MAX_DEGREE}")
            key = 0
            for e in expo:
                key = (key << _W) | e
            coeffs[key] = c
        den = lcm(*(c.denominator for c in coeffs.values()))
        # over the lcm of lowest-terms denominators the gcd is already 1
        self._num = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}
        self._den = den

    @classmethod
    def _packed(cls, variables, num: dict, den: int = 1) -> "RationalPoly":
        """Wrap packed terms with nonzero numerators over den > 0,
        dividing out their common factor."""
        if not num:
            den = 1
        elif den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {k: c // g for k, c in num.items()}
        poly = object.__new__(cls)
        poly.variables = variables
        poly._num = num
        poly._den = den
        return poly

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variables=()) -> "RationalPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, value, variables=()) -> "RationalPoly":
        value = _fraction(value)
        num = {0: value.numerator} if value else {}
        return cls._packed(tuple(variables), num, value.denominator)

    @classmethod
    def variable(cls, name: str, variables=None) -> "RationalPoly":
        if variables is None:
            variables = (name,)
        variables = tuple(variables)
        return cls._packed(variables, {1 << _shift(variables, name): 1})

    @classmethod
    def ring(cls, names) -> list["RationalPoly"]:
        """Generators x_1, ..., x_k over a shared variable context."""
        names = tuple(names)
        return [cls.variable(n, names) for n in names]

    # -- variable alignment ---------------------------------------------

    def _remap(self, variables) -> "RationalPoly":
        if variables == self.variables:
            return self
        moves = [(_shift(self.variables, v), _shift(variables, v)) for v in self.variables]
        num = {}
        for key, c in self._num.items():
            new = 0
            for old_shift, new_shift in moves:
                new |= ((key >> old_shift) & _MASK) << new_shift
            num[new] = c
        return RationalPoly._packed(variables, num, self._den)

    @staticmethod
    def _common(a: "RationalPoly", b: "RationalPoly"):
        if a.variables == b.variables:
            return a, b
        merged = tuple(sorted(set(a.variables) | set(b.variables)))
        return a._remap(merged), b._remap(merged)

    def _coerce(self, other) -> "RationalPoly":
        if isinstance(other, RationalPoly):
            return other
        return RationalPoly.constant(other, self.variables)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        a, b = self._common(self, self._coerce(other))
        den = lcm(a._den, b._den)
        sa, sb = den // a._den, den // b._den
        num = {k: c * sa for k, c in a._num.items()} if sa != 1 else dict(a._num)
        for k, c in b._num.items():
            s = num.get(k, 0) + c * sb
            if s:
                num[k] = s
            else:
                del num[k]
        return RationalPoly._packed(a.variables, num, den)

    __radd__ = __add__

    def __neg__(self):
        num = {k: -c for k, c in self._num.items()}
        return RationalPoly._packed(self.variables, num, self._den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, RationalPoly):
            s = _fraction(other)
            num = {k: c * s.numerator for k, c in self._num.items()} if s else {}
            return RationalPoly._packed(self.variables, num, self._den * s.denominator)
        a, b = self._common(self, other)
        # deg ab = deg a + deg b: the top homogeneous parts multiply to a nonzero form
        if a.degree() + b.degree() > MAX_DEGREE:
            raise OverflowError(f"degree above the supported limit {MAX_DEGREE}")
        out: dict = {}
        get = out.get
        items = list(b._num.items())
        for ka, ca in a._num.items():
            for kb, cb in items:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        num = {k: c for k, c in out.items() if c}
        return RationalPoly._packed(a.variables, num, a._den * b._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = RationalPoly.constant(1, self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def substitute(self, name: str, replacement) -> "RationalPoly":
        """Substitute a polynomial (or constant) for the named variable."""
        if name not in self.variables:
            return self
        repl = replacement if isinstance(replacement, RationalPoly) else \
            RationalPoly.constant(replacement, self.variables)
        shift = _shift(self.variables, name)
        by_power: dict = {}
        for key, c in self._num.items():
            k = (key >> shift) & _MASK
            by_power.setdefault(k, {})[key & ~(_MASK << shift)] = c
        out = RationalPoly.zero(self.variables)
        for k in sorted(by_power):
            out = out + RationalPoly._packed(self.variables, by_power[k], self._den) * repl**k
        return out

    def evaluate(self, assignment: dict):
        """Exact evaluation with Fractions (or any commutative values)."""
        vals = [assignment[v] for v in self.variables]
        total = Fraction(0)
        first = True
        for expo, c in self.sorted_terms():
            term = c
            for v, e in zip(vals, expo):
                if e:
                    term = term * v**e
            total = term if first else total + term
            first = False
        return total if not first else Fraction(0)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other):
        if not isinstance(other, RationalPoly):
            if not isinstance(other, Real):
                return NotImplemented
            if other != other or abs(other) == inf:
                return False  # nan or an infinity: no rational constant equals it
            other = RationalPoly.constant(other, self.variables)
        a, b = self._common(self, other)
        return a._den == b._den and a._num == b._num

    def __hash__(self):
        if not self._num.keys() - {0}:
            return hash(Fraction(self._num.get(0, 0), self._den))
        return hash(frozenset(
            (frozenset((v, e) for v, e in zip(self.variables, expo) if e), c)
            for expo, c in self.terms.items()
        ))

    def _decode(self, key: int) -> tuple:
        n = len(self.variables)
        return tuple((key >> (_W * i)) & _MASK for i in range(n - 1, -1, -1))

    @property
    def terms(self) -> dict:
        """{exponent tuple: Fraction}, decoded afresh on each access."""
        return {self._decode(k): Fraction(c, self._den) for k, c in self._num.items()}

    @property
    def term_count(self) -> int:
        return len(self._num)

    def degree(self) -> int:
        return max((key % _MASK for key in self._num), default=0)

    def sorted_terms(self):
        """Terms in graded lexicographic order on the fixed variable list."""
        return [
            (self._decode(k), Fraction(self._num[k], self._den))
            for k in sorted(self._num, key=lambda k: (k % _MASK, k))
        ]

    def __str__(self):
        if not self._num:
            return "0"
        parts = []
        for expo, c in self.sorted_terms():
            factors = [str(c)]
            for v, e in zip(self.variables, expo):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"RationalPoly({len(self.variables)} vars, {len(self._num)} terms)"


# ----------------------------------------------------------------------
# the chi identity
# ----------------------------------------------------------------------

def chi_combination(cross_factor=2) -> RationalPoly:
    """chi1^2 + chi2^2 + chi3^2 - f (chi1 chi2 + chi2 chi3 + chi3 chi1)
    with chi1 = (p-q)^2, chi2 = (p-r)^2, chi3 = (r-q)^2.

    With the true cross factor f = 2 this is the zero polynomial; any
    other factor is a mutation control.
    """
    p, q, r = RationalPoly.ring(["p", "q", "r"])
    chi1 = (p - q) ** 2
    chi2 = (p - r) ** 2
    chi3 = (r - q) ** 2
    f = Fraction(cross_factor)
    return (
        chi1**2 + chi2**2 + chi3**2
        - f * (chi1 * chi2) - f * (chi2 * chi3) - f * (chi3 * chi1)
    )


def verify_chi_identity() -> bool:
    """True iff the chi combination expands to exactly zero."""
    return chi_combination().is_zero()


# ----------------------------------------------------------------------
# the phi identity (developed determinants, twelve indeterminates)
# ----------------------------------------------------------------------

_K0 = ("00", "01", "02", "03")


def _psi_vars():
    names = tuple(f"psi_{a}_{j}" for a in _K0 for j in (1, 2, 3))
    gens = {(a, j): RationalPoly.variable(f"psi_{a}_{j}", names) for a in _K0 for j in (1, 2, 3)}
    return gens


def phi_expressions(psi, slot: int = 1) -> list:
    """The four phi expressions from psi[(a, j)], a in {00,01,02,03} and
    j in {1,2,3} for the slots (1,1), (2,2) and (1,2) of psi_a.

    The values may be RationalPoly indeterminates (the formal identity)
    or complex numbers (the numeric check).  slot selects which
    derivative slot the plain differences use (1 by default; 2 gives the
    symmetric partner obtained by the index swap 1 <-> 2, which
    satisfies the same relation).
    """
    if slot not in (1, 2):
        raise ValueError("slot must be 1 or 2")

    def eta(a, b):
        # det of the difference of psi matrices in first-minor form:
        # (psi_{a,1}-psi_{b,1})(psi_{a,2}-psi_{b,2}) - (psi_{a,3}-psi_{b,3})^2
        return (psi[(a, 1)] - psi[(b, 1)]) * (psi[(a, 2)] - psi[(b, 2)]) - (
            psi[(a, 3)] - psi[(b, 3)]
        ) ** 2

    def d(a, b):
        return psi[(a, slot)] - psi[(b, slot)]

    def phi(x, y, z):
        # the triple excluding one member of K0, in the fixed pattern
        return (
            d(z, x) * d(x, y) * eta(y, z)
            + d(y, z) * d(x, y) * eta(z, x)
            + d(y, z) * d(z, x) * eta(x, y)
        )

    return [
        phi("01", "02", "03"),
        phi("00", "02", "03"),
        phi("00", "01", "03"),
        phi("00", "01", "02"),
    ]


def phi_polynomials(slot: int = 1) -> list[RationalPoly]:
    """The four phi polynomials over the twelve psi indeterminates."""
    return phi_expressions(_psi_vars(), slot)


def phi_combination(product_constant=64, slot: int = 1) -> tuple[RationalPoly, dict]:
    """((sum phi)^2 - 2 sum phi^2)^2 - c * phi_0 phi_1 phi_2 phi_3.

    Returns the expanded polynomial together with expansion statistics
    (term-count high-water mark across intermediates).
    """
    phis = phi_polynomials(slot)
    high_water = max(p.term_count for p in phis)
    total = phis[0] + phis[1] + phis[2] + phis[3]
    squares = [p * p for p in phis]
    high_water = max(high_water, *(s.term_count for s in squares))
    inner = total * total - 2 * squares[0] - 2 * squares[1] - 2 * squares[2] - 2 * squares[3]
    high_water = max(high_water, inner.term_count)
    inner_sq = inner * inner
    high_water = max(high_water, inner_sq.term_count)
    prod = (phis[0] * phis[1]) * (phis[2] * phis[3])
    high_water = max(high_water, prod.term_count)
    result = inner_sq - Fraction(product_constant) * prod
    stats = {
        "term_count_high_water": high_water,
        "result_terms": result.term_count,
        "phi_terms": [p.term_count for p in phis],
    }
    return result, stats


def verify_phi_identity() -> bool:
    """True iff the phi combination (with constant 64) is exactly zero."""
    poly, _ = phi_combination()
    return poly.is_zero()


# ----------------------------------------------------------------------
# Gopel sum lemma (thirty genus-2 symbols)
# ----------------------------------------------------------------------

def _genus2_symbol_ring():
    evens = enumerate_characteristics(2, "even")
    labels = [digit_encode(a) for a in evens]
    names = tuple(sorted([f"psi_{a}_{j}" for a in labels for j in (1, 2, 3)] + ["u1", "u2"]))
    u1 = RationalPoly.variable("u1", names)
    u2 = RationalPoly.variable("u2", names)
    qforms = {}
    for a in labels:
        p1 = RationalPoly.variable(f"psi_{a}_1", names)
        p2 = RationalPoly.variable(f"psi_{a}_2", names)
        p3 = RationalPoly.variable(f"psi_{a}_3", names)
        # quadratic form of the symmetric matrix [[p1, p3], [p3, p2]]
        qforms[a] = p1 * u1 * u1 + p2 * u2 * u2 + 2 * (p3 * u1) * u2
    return labels, qforms


def _gopel_setup(quarter):
    labels, q = _genus2_symbol_ring()
    systems = [[digit_encode(m) for m in G.members] for G in gopel_systems(2)]
    sum_all = sum((q[a] for a in labels), RationalPoly.zero())
    sum_sq = sum((q[a] * q[a] for a in labels), RationalPoly.zero())
    sum_all_sq = sum_all * sum_all
    system_sq = {}
    for G in systems:
        s = sum((q[a] for a in G), RationalPoly.zero())
        system_sq[tuple(G)] = s * s

    def rhs_single(a: str) -> RationalPoly:
        out = -2 * (q[a] * q[a]) - Fraction(1, 3) * sum_sq - Fraction(1, 6) * sum_all_sq
        for G in systems:
            if a in G:
                out = out + Fraction(quarter) * system_sq[tuple(G)]
        return out

    def rhs_system(G) -> RationalPoly:
        s = sum((q[a] for a in G), RationalPoly.zero())
        return s * s - 2 * sum((q[a] * q[a] for a in G), RationalPoly.zero())

    return labels, systems, rhs_single, rhs_system


def gopel_sum_defect(quarter=Fraction(1, 4)) -> RationalPoly:
    """Global consistency defect between the per-system and the
    single-characteristic derivative expressions:

        sum over all fifteen systems of the per-system right-hand side
        minus 6 * sum over the ten even characteristics of the
        single-characteristic right-hand side

    (the factor 6 is the incidence degree: every characteristic lies in
    six systems, so both sums express the same derivative).  With the
    true coefficient 1/4 this expands to the zero polynomial in the
    thirty symbols; any other coefficient is a mutation control.
    """
    labels, systems, rhs_single, rhs_system = _gopel_setup(quarter)
    total_systems = sum((rhs_system(G) for G in systems), RationalPoly.zero())
    total_single = sum((rhs_single(a) for a in labels), RationalPoly.zero())
    return total_systems - 6 * total_single


def gopel_sum_defects_by_system(quarter=Fraction(1, 4)) -> list[RationalPoly]:
    """Per-system defects: sum of the four single-characteristic right-hand
    sides minus the per-system right-hand side.

    These are NOT the zero polynomial in free symbols (the cross-term
    coefficients obstruct); they vanish only on the theta locus, which
    the numeric harness checks.  Only the sum over all fifteen systems
    cancels formally; see gopel_sum_defect.
    """
    labels, systems, rhs_single, rhs_system = _gopel_setup(quarter)
    return [
        sum((rhs_single(a) for a in G), RationalPoly.zero()) - rhs_system(G)
        for G in systems
    ]


def verify_gopel_sum_lemma() -> bool:
    """True iff the global consistency defect expands to exactly zero."""
    return gopel_sum_defect().is_zero()
