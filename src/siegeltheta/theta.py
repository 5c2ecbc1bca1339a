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

One engine, _coset_sums, does every lattice sum: for the characteristics
of one a' coset it returns the exactly rounded sums of m_j ... m_p term(m)
for the monomials (), (j,), (j, l), (j, l, m, p) a caller asks for.
theta_jet, theta_values and batch_moments choose only the monomials and
the radius.  Every radius comes from one scan of the radii, _radius_scan,
as the largest over the weights a caller needs of the first radius that
certifies it (eps, eps/2pi, eps/(2pi)^2 for a jet's value, gradient and
Hessian; eps for each moment weight).  A radius whose box (2N+1)^g
exceeds 2^20 points raises TruncationError before any allocation.

Each sum is exactly rounded (Shewchuk accumulation, math.fsum), so it is
reproducible bitwise and does not depend on the order of its terms.
Without a z term the sum is folded over m <-> -m: the box is symmetric,
and for a monomial of degree k the weighted term of -m is
(-1)^(|a| + k) times that of m, bit for bit.  So a monomial with |a| + k
odd is exactly 0 and is returned as +0.0 without summing (odd
characteristics give value and Hessian exactly 0 at z = 0, even ones
give gradient exactly 0), and every other monomial is the fsum of the
origin term once and of twice the terms after it.  Doubling is exact and
leaves the exact sum as it was, so the fold returns the bits of the
full-box sum from half the exponentials.  psi_a is formed only by
_psi_from_moments, which refuses a thetanull within 10^3 of its
certified tail bound.

A QuarticForm is dense: one complex vector over the monomial basis of
its genus, the sorted index 4-tuples j <= l <= m <= p in lexicographic
order (1, 5 and 15 monomials at genus 1, 2 and 3).  _quartic_basis(g)
caches that basis with the map from each of the g^4 index tuples to its
monomial, and _symmetrize folds a 4-index array onto the basis with one
np.add.at over that map, adding the orderings of each monomial in C
order.  Sums, differences and scalar multiples are vector operations.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache, reduce
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
    if min(eps_by_weight.values()) <= 0:
        raise ValueError("eps must be positive")
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


def _csum(arr: np.ndarray) -> complex:
    """Exactly rounded complex sum (Shewchuk accumulation per part)."""
    return complex(fsum(arr.real.tolist()), fsum(arr.imag.tolist()))


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


def _coset_sums(
    coset, z, tau: SiegelPoint, nrad: int, monomials
) -> dict[Characteristic, dict[tuple, complex]]:
    """{a: {monomial: sum of m_j ... m_p term(m) over the box}} for one a'
    coset.  A weight row is the product of its m columns, left to right;
    the lattice, weights and exponentials are shared by the coset.

    Without a z term the sum is folded over m <-> -m.  The box is
    symmetric (row i of _lattice_two_m is minus row n-1-i), the exponent
    of -m is bitwise that of m, the phase picks up (-1)^|a| and a weight
    row of degree k picks up (-1)^k.  So a monomial with k + |a| odd sums
    to exactly 0, returned as +0.0 + 0.0j, the bits fsum gives for a zero
    sum; every other monomial is the fsum of the origin term (present when
    a' = 0) once and of 2 * term over the rows after it.  Doubling is
    exact, the exact sum is unchanged, and fsum rounds it exactly, so the
    folded sums have the bits of the full-box sums at half the
    exponentials and half the summed terms.
    """
    two_m = _lattice_two_m(coset[0].a_prime, nrad)
    fold = _nonzero_z(z, tau.genus) is None
    if fold:
        n = len(two_m)
        two_m = two_m[n // 2:]  # the origin first when n is odd, i.e. a' = 0
        multiplicity = np.full(len(two_m), 2.0)
        multiplicity[0] = 2.0 - n % 2
    m = two_m.astype(np.float64) / 2.0
    weights = {
        mono: reduce(operator.mul, [m[:, i] for i in mono]) for mono in monomials if mono
    }
    base = _exp_terms(two_m, tau.tau, z)
    out = {}
    for a in coset:
        t = base * _phase_factors(two_m, a.a_double_prime)
        sums = {}
        for mono in monomials:
            if fold and (len(mono) + a.weight) % 2:
                sums[mono] = complex(0.0, 0.0)
                continue
            terms = weights[mono] * t if mono else t
            sums[mono] = _csum(multiplicity * terms if fold else terms)
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
    """Termwise z = 0 lattice moments of one characteristic.

    value = theta_a(0, tau); t1[j] = sum m_j term (equals the gradient
    over 2 pi i); t2[j,l] = sum m_j m_l term (equals delta_jl theta_a);
    t4[(j,l,m,p) sorted] = sum m_j m_l m_m m_p term.
    """

    value: complex
    t1: np.ndarray
    t2: np.ndarray
    t4: dict
    tail_bound: float
    radius: int


def _check_char(a: Characteristic, tau: SiegelPoint):
    if a.genus != tau.genus:
        raise ValueError("characteristic and point have different genus")


def _cosets(chars, tau: SiegelPoint) -> list[list[Characteristic]]:
    """chars grouped by a', in order of first appearance."""
    groups: dict[tuple, list[Characteristic]] = {}
    for a in chars:
        _check_char(a, tau)
        groups.setdefault(a.a_prime, []).append(a)
    return list(groups.values())


def theta_jet(a: Characteristic, z, tau: SiegelPoint, eps: float = DEFAULT_EPS) -> ThetaJet:
    """Evaluate theta_a and its z-derivatives to order 2 at (z, tau).

    The box radius is chosen so that value, gradient and Hessian all
    carry truncation error at most eps; tail_bound is the (smaller)
    certified bound on the value itself.
    """
    _check_char(a, tau)
    g = tau.genus
    two_pi = 2.0 * math.pi
    eps_by_weight = dict(enumerate((eps, eps / two_pi, eps / two_pi**2)))
    nrad, bounds = _radius_scan(tau, z, a.a_prime, eps_by_weight)
    pairs = list(itertools.combinations_with_replacement(range(g), 2))
    monomials = [(), *((j,) for j in range(g)), *pairs]
    sums = _coset_sums([a], z, tau, nrad, monomials)[a]
    grad = np.array([2j * math.pi * sums[(j,)] for j in range(g)])
    hess = np.empty((g, g), dtype=complex)
    for j, l in pairs:
        hess[j, l] = hess[l, j] = (2j * math.pi) ** 2 * sums[(j, l)]
    return ThetaJet(sums[()], grad, hess, bounds[0])


def theta_values(
    chars, z, tau: SiegelPoint, eps: float = DEFAULT_EPS
) -> dict[Characteristic, complex]:
    """Batch values theta_a(z, tau) for several characteristics.

    Characteristics sharing the same a' reuse one lattice/exponential
    pass; only the exact phase factors differ.
    """
    out: dict[Characteristic, complex] = {}
    for coset in _cosets(chars, tau):
        nrad = truncation_radius(tau, z, eps, 0, coset[0]).radius
        for a, sums in _coset_sums(coset, z, tau, nrad, [()]).items():
            out[a] = sums[()]
    return out


def theta_moments(
    a: Characteristic, tau: SiegelPoint, eps: float = DEFAULT_EPS, order: int = 4
) -> Moments:
    """z = 0 moments of theta_a up to the requested order (2 or 4)."""
    return batch_moments([a], tau, eps, order)[a]


def batch_moments(
    chars, tau: SiegelPoint, eps: float = DEFAULT_EPS, order: int = 4
) -> dict[Characteristic, Moments]:
    """Batch z = 0 moments, sharing lattice passes within each a' coset."""
    if order not in (1, 2, 4):
        raise ValueError("order must be 1, 2 or 4")
    g = tau.genus
    monomials = [()] + [
        mono
        for k in (1, 2, 4)
        if k <= order
        for mono in itertools.combinations_with_replacement(range(g), k)
    ]
    eps_by_weight = dict.fromkeys(range(order + 1), eps)
    out: dict[Characteristic, Moments] = {}
    for coset in _cosets(chars, tau):
        nrad, bounds = _radius_scan(tau, None, coset[0].a_prime, eps_by_weight)
        for a, sums in _coset_sums(coset, None, tau, nrad, monomials).items():
            t1 = np.array([sums[(j,)] for j in range(g)])
            t2 = np.zeros((g, g), dtype=complex)
            t4 = {}
            for key, s in sums.items():
                if len(key) == 2:
                    t2[key] = t2[key[::-1]] = s
                elif len(key) == 4:
                    t4[key] = s
            out[a] = Moments(sums[()], t1, t2, t4, bounds[0], nrad)
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


@lru_cache(maxsize=None)
def _quartic_basis(genus: int) -> tuple[np.ndarray, np.ndarray]:
    """(keys, index) of the monomial basis of quartic forms in genus
    variables.  keys holds the sorted index 4-tuples j <= l <= m <= p in
    lexicographic order, one row per monomial (1, 5 and 15 of them at
    genus 1, 2 and 3); index[j, l, m, p] is the row of sorted((j, l, m, p))."""
    tuples = np.array(list(itertools.product(range(genus), repeat=4)))
    keys, index = np.unique(np.sort(tuples, axis=1), axis=0, return_inverse=True)
    index = index.reshape((genus,) * 4)
    keys.setflags(write=False)
    index.setflags(write=False)
    return keys, index


def _symmetrize(full: np.ndarray) -> np.ndarray:
    """Monomial coefficients of the quartic form with 4-index array full:
    each is the sum of full over the orderings of its indices, added in
    C order of (j, l, m, p)."""
    keys, index = _quartic_basis(full.shape[0])
    out = np.zeros(len(keys), dtype=complex)
    np.add.at(out, index.reshape(-1), full.reshape(-1))
    return out


@dataclass(frozen=True)
class QuarticForm:
    """A quartic form in u, one complex vector over the monomial basis.

    coefficients[i] is the full coefficient of the monomial
    u_j u_l u_m u_p with (j, l, m, p) = _quartic_basis(genus)[0][i],
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
        return complex(self.coefficients[_quartic_basis(self.genus)[1][j, l, m, p]])

    def value_at(self, u) -> complex:
        u = np.asarray(u, dtype=complex)
        return complex(self.coefficients @ u[_quartic_basis(self.genus)[0]].prod(axis=1))

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


def _psi_from_moments(a: Characteristic, mom: Moments) -> SymmetricForm:
    """psi_a = t2 / theta_a from the moments of a; raises NearZeroThetanull
    when theta_a lies within 10^3 of its certified tail bound."""
    if abs(mom.value) <= 1e3 * mom.tail_bound:
        raise NearZeroThetanull(
            f"thetanull {a.label()}: |theta| = {abs(mom.value):.3g} is within 10^3 "
            f"of the certified tail bound {mom.tail_bound:.3g}"
        )
    return SymmetricForm(mom.t2.shape[0], mom.t2 / mom.value)


def psi_matrix(a: Characteristic, tau: SiegelPoint, eps: float = DEFAULT_EPS) -> SymmetricForm:
    """The symmetric matrix psi_a with entries delta_jl theta_a / theta_a."""
    if not a.is_even:
        raise ValueError("psi_matrix is defined for even characteristics")
    return _psi_from_moments(a, theta_moments(a, tau, eps, order=2))


def odd_z_gradient(a: Characteristic, tau: SiegelPoint, eps: float = DEFAULT_EPS) -> np.ndarray:
    """(1 / 2 pi i) dtheta_a/dz at z = 0, for odd a."""
    if a.is_even:
        raise ValueError("odd_z_gradient requires an odd characteristic")
    mom = theta_moments(a, tau, eps, order=1)
    return mom.t1  # per-term factor m_j already equals the normalized gradient


def _delta_psi_from_moments(mom: Moments) -> QuarticForm:
    """delta(psi_a): the symmetrization of t4_{jlmp} / theta_a - psi_jl psi_mp."""
    g = mom.t2.shape[0]
    keys, index = _quartic_basis(g)
    t4 = np.array([mom.t4[key] for key in map(tuple, keys.tolist())])
    psi = mom.t2 / mom.value
    return QuarticForm(g, _symmetrize(t4[index] / mom.value - np.multiply.outer(psi, psi)))


def quartic_delta_psi(a: Characteristic, tau: SiegelPoint, eps: float = DEFAULT_EPS) -> QuarticForm:
    """The quartic form delta(psi_a) with entries delta_jl psi_{a,mp}.

    Computed from fourth-order z-derivative data and the quotient rule;
    tau finite differences are used only as a test oracle elsewhere.
    """
    if not a.is_even:
        raise ValueError("quartic_delta_psi is defined for even characteristics")
    mom = theta_moments(a, tau, eps, order=4)
    _psi_from_moments(a, mom)  # the near-zero guard
    return _delta_psi_from_moments(mom)
