"""Certified evaluation of theta functions with 2-characteristics.

The series evaluated here is

    theta_a(z, tau) = sum_{n in Z^g} exp( pi i (n+a'/2)^t tau (n+a'/2)
                                          + 2 pi i (n+a'/2)^t (z+a''/2) ),

truncated to the box |n_j + a'_j/2| <= N.  Every term with m = n + a'/2
satisfies |term| <= exp(-pi lam |m|^2 + 2 pi r |m|) where lam is the
smallest eigenvalue of Im(tau) and r = |Im z|; the discarded tail is
bounded by a product of one-dimensional Gaussian sums, so each returned
value carries a certified absolute truncation bound.

Derivatives come from the same lattice sum: d/dz_j brings a per-term
factor 2 pi i m_j, and the heat equation makes the normalized tau
derivatives computable termwise as well,

    delta_jl theta_a = (1/(2 pi i)^2) d^2 theta_a / dz_j dz_l,

i.e. a per-term factor m_j m_l.  Logarithmic derivatives of thetanulls
are assembled into the symmetric matrix psi_a with entries
psi_{a,jl} = delta_jl theta_a / theta_a, and the quartic form
delta(psi_a) has coefficients

    delta_jl psi_{a,mp} = (fourth moment)_{jlmp} / theta_a
                          - psi_{a,jl} psi_{a,mp},

computed from fourth-order z-derivative data, never by tau differencing.

One basis, _basis(g, k), orders the monomials of degree k everywhere: the
sorted index tuples in lexicographic order, with the map from each of the
g^k index tuples to its monomial.  One engine, _coset_sums, does every
lattice sum: for the characteristics of one a' coset it returns, per
degree k in (0, 1, 2, 4), the exactly rounded sums of m_j ... m_p term(m)
in that order.  One batch loop, _sums, serves theta_jet, theta_values and
batch_moments, which choose only the degrees and the eps per weight; it
scans the radii once per coset (_radius_scan) and takes the largest over
the weights of the first radius that certifies each (eps, eps/2pi,
eps/(2pi)^2 for a jet's value, gradient and Hessian; eps for each moment
weight).  A box (2N+1)^g above 2^20 points raises TruncationError before
any allocation.

Each sum is exactly rounded (Shewchuk accumulation, math.fsum), so it is
reproducible bitwise and does not depend on the order of its terms.
Without a z term the sum is folded over m <-> -m: the box is symmetric,
and for a monomial of degree k the weighted term of -m is
(-1)^(|a| + k) times that of m, bit for bit.  So a degree with |a| + k
odd is exactly 0 and is returned as +0.0 without summing (odd
characteristics give value and Hessian exactly 0 at z = 0, even ones
give gradient exactly 0), and every other sum is the fsum of the origin
term once and of twice the terms after it.  Doubling is exact and
leaves the exact sum as it was, so the fold returns the bits of the
full-box sum from half the exponentials.

A Moments record is the thetanull data of one characteristic, with t2
and t4 the full symmetric g^2 and g^4 arrays, and the only owner of
psi_a: Moments.psi forms it on first read and refuses a thetanull within
10^3 of its certified tail bound; delta_psi and psi_sq read psi first.

A QuarticForm is dense: one complex vector over _basis(g, 4) (1, 5 and
15 monomials at genus 1, 2 and 3).  _symmetrize folds a 4-index array
onto it with one np.add.at over the map, adding the orderings of each
monomial in C order.  Sums, differences and scalar multiples are vector
operations.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from math import fsum

import numpy as np

from .characteristics import Characteristic
from .siegel import PD_MARGIN, SiegelPoint, DerivationIndex, HalfSpaceError

__all__ = [
    "ThetaJet",
    "SymmetricForm",
    "QuarticForm",
    "Moments",
    "TruncationError",
    "NearZeroThetanull",
    "truncation_radius",
    "theta_jet",
    "theta_values",
    "theta_moments",
    "batch_moments",
    "delta_theta",
    "psi_matrix",
    "odd_z_gradient",
    "quartic_delta_psi",
    "DEFAULT_EPS",
]

#: default absolute accuracy requested from the series kernel
DEFAULT_EPS = 1e-14

_MAX_RADIUS = 400
#: largest box (2N+1)^g: 8 MB per float row; campaign boxes reach ~2 * 10^4
_MAX_BOX_POINTS = 2**20

_PHASES = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


class TruncationError(ValueError):
    """Requested accuracy unreachable (tau too close to the boundary)."""


class NearZeroThetanull(ArithmeticError):
    """A thetanull is too close to 0 for a reliable logarithmic derivative."""


# ----------------------------------------------------------------------
# truncation bounds
# ----------------------------------------------------------------------

def _one_dim_sums(lam: float, r: float, shift: int, nrad: int) -> tuple[float, float]:
    """(S, T): S = sum of h(|x|) over lattice points x in Z + shift/2 with
    |x| <= nrad, and T = certified upper bound for the rest, where
    h(x) = exp(-pi lam x^2 + 2 pi r x).  T = inf when the geometric
    bound does not yet apply at radius nrad."""
    if shift:
        xs = np.arange(0.5, nrad + 0.25, 1.0)
        inside = fsum(2.0 * np.exp(-math.pi * lam * xs * xs + 2 * math.pi * r * xs))
        x1 = nrad + 0.5
    else:
        xs = np.arange(1.0, nrad + 0.5, 1.0)
        inside = 1.0 + fsum(2.0 * np.exp(-math.pi * lam * xs * xs + 2 * math.pi * r * xs))
        x1 = float(nrad + 1)
    rho = math.exp(-math.pi * lam * (2 * x1 + 1) + 2 * math.pi * r)
    if rho >= 1.0:
        return inside, math.inf
    h1 = math.exp(-math.pi * lam * x1 * x1 + 2 * math.pi * r * x1)
    return inside, 2.0 * h1 / (1.0 - rho)


def _tail_product(lam: float, r: float, shifts, nrad: int) -> float:
    """prod(S_j + T_j) - prod(S_j) over the axes, from the one-dimensional
    sums of exp(-pi lam x^2 + 2 pi r x); inf when some T_j is.

    shifts holds one entry per axis: 0 or 1 for the parity of a'_j, or
    "any" to dominate both parities at once (per-axis maxima; the
    resulting bound is monotone in each one-dimensional sum, so it covers
    every mixed pattern).
    """
    sums, tails = [], []
    for aj in shifts:
        if aj == "any":
            s0, t0 = _one_dim_sums(lam, r, 0, nrad)
            s1, t1 = _one_dim_sums(lam, r, 1, nrad)
            s, t = max(s0, s1), max(t0, t1)
        else:
            s, t = _one_dim_sums(lam, r, aj % 2, nrad)
        if math.isinf(t):
            return math.inf
        sums.append(s)
        tails.append(t)
    # prod(S+T) - prod(S), telescoped to avoid catastrophic cancellation
    diff = 0.0
    g = len(sums)
    for j in range(g):
        part = tails[j]
        for k in range(j):
            part *= sums[k] + tails[k]
        for k in range(j + 1, g):
            part *= sums[k]
        diff += part
    return diff


def _box_tails(lam: float, r: float, shifts, nrad: int, weights) -> dict[int, float]:
    """Certified bounds, for each w in weights, on the sum of
    |m|^w * exp(-pi lam |m|^2 + 2 pi r |m|) over lattice points m outside
    the box |m_j| <= nrad.

    Weight 0 is the plain Gaussian tail.  A weight w >= 1 uses
    |m|^w <= C_w exp(pi (lam/2) |m|^2), C_w the analytic maximum, so all
    such weights scale one tail product at lam/2.
    """
    bounds = {}
    if 0 in weights:
        bounds[0] = _tail_product(lam, r, shifts, nrad)
    if any(weights):
        half = lam / 2.0
        diff = _tail_product(lam - half, r, shifts, nrad)
        for w in weights:
            if w:
                scale = (w / (2.0 * math.pi * half * math.e)) ** (w / 2.0)
                bounds[w] = math.inf if math.isinf(diff) else scale * diff
    return bounds


@dataclass(frozen=True)
class TruncationResult:
    radius: int
    bound: float


def _radius_scan(tau: SiegelPoint, z, shifts, eps_by_weight: dict) -> tuple[int, dict]:
    """The one radius search: the smallest N at which every weight w has
    certified tail <= eps_by_weight[w], with the bound of each weight at N.

    The radii are scanned once, computing the lam and lam/2 tail products
    once per radius.  Each weight is certified at the first radius whose
    bound meets its eps, so N is the largest of the per-weight radii.  A
    box of more than _MAX_BOX_POINTS points raises TruncationError naming
    the eps of the first weight still open.
    """
    if not all(0 < e < math.inf for e in eps_by_weight.values()):
        raise ValueError("eps must be finite and positive")
    lam = tau.lambda_min
    if lam <= PD_MARGIN:
        raise HalfSpaceError("Im(tau) is not positive definite with margin")
    r = _imag_norm(z, tau.genus)
    open_weights = list(eps_by_weight)
    for nrad in range(1, _MAX_RADIUS + 1):
        if (2 * nrad + 1) ** tau.genus > _MAX_BOX_POINTS:
            raise TruncationError(f"eps={eps_by_weight[open_weights[0]]:g} needs more than "
                                  f"{_MAX_BOX_POINTS} lattice points (lambda_min={lam:g})")
        bounds = _box_tails(lam, r, shifts, nrad, eps_by_weight)
        open_weights = [w for w in open_weights if not bounds[w] <= eps_by_weight[w]]
        if not open_weights:
            return nrad, bounds
    raise TruncationError(f"no radius up to {_MAX_RADIUS} certifies "
                          f"eps={eps_by_weight[open_weights[0]]:g} (lambda_min={lam:g})")


def truncation_radius(
    tau: SiegelPoint, z, eps: float, weight: int = 0, a: Characteristic | None = None
) -> TruncationResult:
    """Smallest box radius N whose certified tail is <= eps.

    The tail bound covers sum of |m|^weight |term(m)| outside the box
    |n_j + a'_j/2| <= N; weight 0 is the plain value.  Without an
    explicit characteristic the bound dominates every parity pattern of
    a'; with one it uses the exact per-axis parities (slightly tighter).
    A box of more than _MAX_BOX_POINTS points raises TruncationError.
    """
    shifts = ("any",) * tau.genus if a is None else a.a_prime
    nrad, bounds = _radius_scan(tau, z, shifts, {weight: eps})
    return TruncationResult(nrad, bounds[weight])


def _imag_norm(z, genus: int) -> float:
    if z is None:
        return 0.0
    zz = np.asarray(z, dtype=complex).reshape(genus)
    return float(np.linalg.norm(zz.imag))


# ----------------------------------------------------------------------
# lattice enumeration and exact summation
# ----------------------------------------------------------------------

@lru_cache(maxsize=64)
def _lattice_two_m(a_prime: tuple[int, ...], nrad: int) -> np.ndarray:
    """Integer array of doubled lattice points 2m = 2n + a' with
    |m_j| <= nrad, in lexicographic order."""
    axes = []
    for aj in a_prime:
        if aj % 2 == 0:
            axes.append(np.arange(-2 * nrad, 2 * nrad + 1, 2, dtype=np.int64))
        else:
            axes.append(np.arange(-2 * nrad + 1, 2 * nrad, 2, dtype=np.int64))
    grids = np.meshgrid(*axes, indexing="ij")
    two_m = np.stack([gr.reshape(-1) for gr in grids], axis=1)
    two_m.setflags(write=False)
    return two_m


def _exp_terms(two_m: np.ndarray, tau: np.ndarray, z) -> np.ndarray:
    """exp(pi i m^t tau m + 2 pi i m^t z) for every lattice row (phase of
    a'' excluded; that factor is exact and applied separately)."""
    m = two_m.astype(np.float64) / 2.0
    expo = 1j * math.pi * np.einsum("bj,jl,bl->b", m, tau, m)
    zz = _nonzero_z(z, two_m.shape[1])
    if zz is not None:
        expo = expo + 2j * math.pi * (m @ zz)
    return np.exp(expo)


def _nonzero_z(z, genus: int):
    """z as a complex vector, or None when the series has no z term
    (z is None or every entry is zero)."""
    if z is None:
        return None
    zz = np.asarray(z, dtype=complex).reshape(genus)
    return zz if np.any(zz != 0) else None


def _phase_factors(two_m: np.ndarray, a_double_prime) -> np.ndarray:
    """i^((2m).a'' mod 4); exactly one of {1, i, -1, -i} per point."""
    p = (two_m @ np.asarray(a_double_prime, dtype=np.int64)) % 4
    return _PHASES[p]


@lru_cache(maxsize=None)
def _basis(genus: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """(keys, index) of the monomials of one degree in genus variables:
    keys holds the sorted index tuples j <= l <= ... in lexicographic
    order, one row per monomial (degree 0 is the one empty row), and
    index[j, l, ...] is the row of sorted((j, l, ...))."""
    keys = list(itertools.combinations_with_replacement(range(genus), degree))
    row = {key: i for i, key in enumerate(keys)}
    index = [row[tuple(sorted(t))] for t in itertools.product(range(genus), repeat=degree)]
    keys = np.array(keys, dtype=np.intp).reshape(len(keys), degree)
    index = np.array(index).reshape((genus,) * degree)
    keys.setflags(write=False)
    index.setflags(write=False)
    return keys, index


def _coset_sums(
    coset, z, tau: SiegelPoint, nrad: int, degrees
) -> dict[Characteristic, dict[int, list[complex]]]:
    """{a: {k: sums}} for one a' coset: per degree k, the exactly rounded
    sums of m_j ... m_p term(m) over the box, one per row of
    _basis(g, k)[0].  The lattice, the weight rows m_j ... m_p and the
    exponentials are shared by the coset.  Each weight is exact whatever
    the order of its product: the m are half-integers with
    |m_j| <= _MAX_RADIUS, so every partial product of up to four of them
    is K/16 with |K| <= 800^4 < 2^39.

    Without a z term the sum is folded over m <-> -m.  The box is
    symmetric (row i of _lattice_two_m is minus row n-1-i), the exponent
    of -m is bitwise that of m, the phase picks up (-1)^|a| and a weight
    of degree k picks up (-1)^k.  So every sum of a degree with k + |a|
    odd is exactly 0, returned as +0.0 + 0.0j, the bits fsum gives for
    any zero sum; every other sum is the fsum of the origin term (present
    when a' = 0) once and of (weight * term) * 2 over the rows after it.
    Doubling is exact, the exact sum is unchanged, and fsum rounds it
    exactly, so the folded sums have the bits of the full-box sums at
    half the exponentials and half the summed terms.
    """
    two_m = _lattice_two_m(coset[0].a_prime, nrad)
    fold = _nonzero_z(z, tau.genus) is None
    if fold:
        n = len(two_m)
        two_m = two_m[n // 2:]  # the origin first when n is odd, i.e. a' = 0
        multiplicity = np.full(len(two_m), 2.0)
        multiplicity[0] = 2.0 - n % 2
    m = two_m.T.astype(np.float64, order="C") / 2.0  # one row per axis
    weights = {k: [reduce(operator.mul, [m[j] for j in key]) for key in _basis(tau.genus, k)[0]]
               for k in degrees if k}
    base = _exp_terms(two_m, tau.tau, z)
    out = {}
    for a in coset:
        t = base * _phase_factors(two_m, a.a_double_prime)
        sums = {}
        for k in degrees:
            if fold and (k + a.weight) % 2:
                sums[k] = [0j] * len(_basis(tau.genus, k)[0])
                continue
            # one weighted row alive at a time, not one box-sized row per monomial
            rows = (w * t for w in weights[k]) if k else [t]
            if fold:
                rows = (multiplicity * row for row in rows)
            sums[k] = [complex(fsum(row.real.tolist()), fsum(row.imag.tolist())) for row in rows]
        out[a] = sums
    return out


# ----------------------------------------------------------------------
# jets and moments
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ThetaJet:
    """theta_a at (z, tau) with z-gradient, z-Hessian and a certified
    absolute truncation bound on the value."""

    value: complex
    z_gradient: np.ndarray
    z_hessian: np.ndarray
    tail_bound: float

    def to_json(self) -> dict:
        return {
            "value": [self.value.real, self.value.imag],
            "grad": [[v.real, v.imag] for v in self.z_gradient],
            "hess": [[[v.real, v.imag] for v in row] for row in self.z_hessian],
            "tail_bound": self.tail_bound,
        }


@dataclass(frozen=True)
class Moments:
    """Termwise z = 0 lattice moments of the characteristic a.

    value = theta_a(0, tau); t1[j] = sum m_j term (equals the gradient
    over 2 pi i); t2[j, l] = sum m_j m_l term (equals delta_jl theta_a);
    t4[j, l, m, p] = sum m_j m_l m_m m_p term.  t2 and t4 are the full
    symmetric arrays, None below order 2 and 4 of the batch.

    psi, delta_psi and psi_sq are formed on first read and kept
    (cached_property writes the instance __dict__, which the frozen
    dataclass allows).  psi raises NearZeroThetanull when theta_a lies
    within 10^3 of its certified tail bound; delta_psi and psi_sq read
    psi first.  A read above the record's order raises ValueError.
    """

    value: complex
    t1: np.ndarray
    t2: np.ndarray | None
    t4: np.ndarray | None
    tail_bound: float
    radius: int
    a: Characteristic

    @cached_property
    def psi(self) -> SymmetricForm:
        """psi_a = t2 / theta_a."""
        if self.t2 is None:
            raise ValueError("psi needs moments of order 2")
        if abs(self.value) <= 1e3 * self.tail_bound:
            raise NearZeroThetanull(
                f"thetanull {self.a.label()}: |theta| = {abs(self.value):.3g} is within 10^3 "
                f"of the certified tail bound {self.tail_bound:.3g}"
            )
        return SymmetricForm(self.a.genus, self.t2 / self.value)

    @cached_property
    def delta_psi(self) -> QuarticForm:
        """delta(psi_a): the symmetrization of t4_{jlmp} / theta_a - psi_jl psi_mp,
        with psi the raw quotient t2 / theta_a (SymmetricForm would turn a
        -0.0 entry into +0.0)."""
        if self.t4 is None:
            raise ValueError("delta_psi needs moments of order 4")
        self.psi  # the near-zero guard
        psi = self.t2 / self.value
        full = self.t4 / self.value - np.multiply.outer(psi, psi)
        return QuarticForm(self.a.genus, _symmetrize(full))

    @cached_property
    def psi_sq(self) -> QuarticForm:
        """The quartic form psi_a(u)^2."""
        return QuarticForm.from_quadratic_product(self.psi, self.psi)


def _sums(chars, z, tau: SiegelPoint, eps_by_weight: dict, degrees):
    """Yield (a, sums, value bound, radius) for each a in chars, a' coset
    by a' coset in order of first appearance: one _radius_scan for
    eps_by_weight and one _coset_sums of the given degrees per coset."""
    cosets: dict[tuple, list[Characteristic]] = {}
    for a in chars:
        if a.genus != tau.genus:
            raise ValueError("characteristic and point have different genus")
        cosets.setdefault(a.a_prime, []).append(a)
    for a_prime, coset in cosets.items():
        nrad, bounds = _radius_scan(tau, z, a_prime, eps_by_weight)
        for a, sums in _coset_sums(coset, z, tau, nrad, degrees).items():
            yield a, sums, bounds[0], nrad


def theta_jet(a: Characteristic, z, tau: SiegelPoint, eps: float = DEFAULT_EPS) -> ThetaJet:
    """Evaluate theta_a and its z-derivatives to order 2 at (z, tau).

    The box radius is chosen so that value, gradient and Hessian all
    carry truncation error at most eps; tail_bound is the (smaller)
    certified bound on the value itself.
    """
    two_pi = 2.0 * math.pi
    eps_by_weight = dict(enumerate((eps, eps / two_pi, eps / two_pi**2)))
    [(_, s, bound, _)] = _sums([a], z, tau, eps_by_weight, (0, 1, 2))
    grad = np.array([2j * math.pi * x for x in s[1]])
    hess = np.array([(2j * math.pi) ** 2 * x for x in s[2]])[_basis(tau.genus, 2)[1]]
    return ThetaJet(s[0][0], grad, hess, bound)


def theta_values(
    chars, z, tau: SiegelPoint, eps: float = DEFAULT_EPS
) -> dict[Characteristic, complex]:
    """Batch values theta_a(z, tau) for several characteristics.

    Characteristics sharing the same a' reuse one lattice/exponential
    pass; only the exact phase factors differ.
    """
    return {a: s[0][0] for a, s, _, _ in _sums(chars, z, tau, {0: eps}, (0,))}


def theta_moments(
    a: Characteristic, tau: SiegelPoint, eps: float = DEFAULT_EPS, order: int = 4
) -> Moments:
    """z = 0 moments of theta_a up to the requested order (1, 2 or 4)."""
    return batch_moments([a], tau, eps, order)[a]


def batch_moments(
    chars, tau: SiegelPoint, eps: float = DEFAULT_EPS, order: int = 4
) -> dict[Characteristic, Moments]:
    """Batch z = 0 moments, sharing lattice passes within each a' coset."""
    if order not in (1, 2, 4):
        raise ValueError("order must be 1, 2 or 4")
    degrees = [k for k in (0, 1, 2, 4) if k <= order]
    eps_by_weight = dict.fromkeys(range(order + 1), eps)
    out: dict[Characteristic, Moments] = {}
    for a, s, bound, nrad in _sums(chars, None, tau, eps_by_weight, degrees):
        t2, t4 = (np.array(s[k])[_basis(a.genus, k)[1]] if k in s else None for k in (2, 4))
        out[a] = Moments(s[0][0], np.array(s[1]), t2, t4, bound, nrad, a)
    return out


# ----------------------------------------------------------------------
# quadratic and quartic form containers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetricForm:
    """Coefficients of a quadratic form sum_{j,l} c_jl u_j u_l (c symmetric)."""

    genus: int
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.shape != (self.genus, self.genus):
            raise ValueError("coefficient matrix has wrong shape")
        c = (np.triu(c) + np.triu(c, 1).T)  # exact symmetry, shared storage
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    def __getitem__(self, jl):
        return self.coefficients[jl]

    def __add__(self, other):
        return SymmetricForm(self.genus, self.coefficients + other.coefficients)

    def __sub__(self, other):
        return SymmetricForm(self.genus, self.coefficients - other.coefficients)

    def __mul__(self, s):
        return SymmetricForm(self.genus, self.coefficients * s)

    __rmul__ = __mul__

    def value_at(self, u) -> complex:
        u = np.asarray(u, dtype=complex)
        return complex(u @ self.coefficients @ u)

    def det(self) -> complex:
        return complex(np.linalg.det(self.coefficients))


def _symmetrize(full: np.ndarray) -> np.ndarray:
    """Monomial coefficients of the quartic form with 4-index array full:
    each is the sum of full over the orderings of its indices, added in
    C order of (j, l, m, p)."""
    keys, index = _basis(full.shape[0], 4)
    out = np.zeros(len(keys), dtype=complex)
    np.add.at(out, index.reshape(-1), full.reshape(-1))
    return out


@dataclass(frozen=True)
class QuarticForm:
    """A quartic form in u, one complex vector over the monomial basis.

    coefficients[i] is the full coefficient of the monomial
    u_j u_l u_m u_p with (j, l, m, p) = _basis(genus, 4)[0][i],
    i.e. the sum over all index orderings of the defining 4-index array,
    so evaluation is a plain dot product with the monomials.
    """

    genus: int
    coefficients: np.ndarray = field(repr=False)

    @staticmethod
    def from_quadratic_product(phi: SymmetricForm, eta: SymmetricForm) -> "QuarticForm":
        """The quartic form phi(u) * eta(u)."""
        if eta.genus != phi.genus:
            raise ValueError("genus mismatch")
        full = np.multiply.outer(phi.coefficients, eta.coefficients)
        return QuarticForm(phi.genus, _symmetrize(full))

    def __add__(self, other):
        return QuarticForm(self.genus, self.coefficients + other.coefficients)

    def __sub__(self, other):
        return QuarticForm(self.genus, self.coefficients - other.coefficients)

    def __mul__(self, s):
        return QuarticForm(self.genus, self.coefficients * s)

    __rmul__ = __mul__

    def coefficient(self, j, l, m, p) -> complex:
        """The coefficient of u_j u_l u_m u_p, in any index order."""
        return complex(self.coefficients[_basis(self.genus, 4)[1][j, l, m, p]])

    def value_at(self, u) -> complex:
        u = np.asarray(u, dtype=complex)
        return complex(self.coefficients @ u[_basis(self.genus, 4)[0]].prod(axis=1))

    def max_abs(self) -> float:
        return float(np.abs(self.coefficients).max())


# ----------------------------------------------------------------------
# derived quantities
# ----------------------------------------------------------------------

def delta_theta(
    a: Characteristic,
    tau: SiegelPoint,
    idx: DerivationIndex,
    eps: float = DEFAULT_EPS,
) -> complex:
    """delta_jl theta_a(0, tau), computed termwise via the heat equation."""
    if not a.is_even:
        raise ValueError("delta_theta expects an even characteristic (thetanull context)")
    if idx.l > a.genus:
        raise ValueError("derivation index out of range for this genus")
    mom = theta_moments(a, tau, eps, order=2)
    return complex(mom.t2[idx.j - 1, idx.l - 1])


def psi_matrix(a: Characteristic, tau: SiegelPoint, eps: float = DEFAULT_EPS) -> SymmetricForm:
    """The symmetric matrix psi_a with entries delta_jl theta_a / theta_a."""
    if not a.is_even:
        raise ValueError("psi_matrix is defined for even characteristics")
    return theta_moments(a, tau, eps, order=2).psi


def odd_z_gradient(a: Characteristic, tau: SiegelPoint, eps: float = DEFAULT_EPS) -> np.ndarray:
    """(1 / 2 pi i) dtheta_a/dz at z = 0, for odd a."""
    if a.is_even:
        raise ValueError("odd_z_gradient requires an odd characteristic")
    mom = theta_moments(a, tau, eps, order=1)
    return mom.t1  # per-term factor m_j already equals the normalized gradient


def quartic_delta_psi(a: Characteristic, tau: SiegelPoint, eps: float = DEFAULT_EPS) -> QuarticForm:
    """The quartic form delta(psi_a) with entries delta_jl psi_{a,mp}.

    Computed from fourth-order z-derivative data and the quotient rule;
    tau finite differences are used only as a test oracle elsewhere.
    """
    if not a.is_even:
        raise ValueError("quartic_delta_psi is defined for even characteristics")
    return theta_moments(a, tau, eps, order=4).delta_psi
