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
g^k index tuples to its monomial.  One batch loop, _sums, does every
lattice sum, and a kernel call is one pass of it over its point:
theta_jet, theta_values and batch_moments choose only the degrees and
the eps per weight.  _sums scans the radii of every a' coset
(_radius_scan, all cosets reading one _AxisSums) before it builds any
lattice, taking the largest over the weights of the first radius that
certifies each (eps, eps/2pi, eps/(2pi)^2 for a jet's value, gradient
and Hessian; eps for each moment weight).  A box (2N+1)^g above 2^20
points raises TruncationError before any allocation.  _group_sums then
returns, per degree k in (0, 1, 2, 4), the exactly rounded sums of
m_j ... m_p term(m) in that order for the characteristics of a group of
consecutive cosets: their lattices are concatenated into one
_exp_terms while the group holds at most 2^14 summed points, and a
deeper box runs alone.

Each sum is exactly rounded: it has the bits math.fsum gives its terms,
so it is reproducible bitwise and does not depend on the order of its
terms, nor on the group its coset was summed in.  _group_sums writes the
real and imaginary parts of the weighted rows of every characteristic
and degree of a group into blocks of at most 256 KiB (a shorter box's
rows padded with -0.0), and _row_sums sums each block with a vectorized
TwoSum tree.  A row's tree sum is kept only where a rounding-error bound
proves it to be fsum's; the rest, and every block too small for the
tree to pay, go to fsum row by row.

Without a z term the sum is folded over m <-> -m: the box is symmetric,
and for a monomial of degree k the weighted term of -m is
(-1)^(|a| + k) times that of m, bit for bit.  So a degree with |a| + k
odd is exactly 0 and is returned as +0.0 without summing (odd
characteristics give value and Hessian exactly 0 at z = 0, even ones
give gradient exactly 0), and every other sum is the exactly rounded
sum of the origin term once and of twice the terms after it.  Doubling
is exact and leaves the exact sum as it was, so the fold returns the
bits of the full-box sum from half the exponentials.

The radius scan builds the one-dimensional Gaussian terms of each
(lambda, parity) once (_AxisSums) and takes each radius's sum from a
prefix of them.

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

#: unit roundoff of float64
_U = 2.0**-53
#: largest block of real rows _row_sums takes at once, in bytes
_BLOCK_BYTES = 2**18
#: blocks of fewer terms than this are summed with fsum row by row
_TREE_MIN_TERMS = 4096
#: most summed lattice points a group of cosets shares in one pass: its
#: exponentials fill at most one block
_GROUP_POINTS = _BLOCK_BYTES // 16


class TruncationError(ValueError):
    """Requested accuracy unreachable (tau too close to the boundary)."""


class NearZeroThetanull(ArithmeticError):
    """A thetanull is too close to 0 for a reliable logarithmic derivative."""


# ----------------------------------------------------------------------
# truncation bounds
# ----------------------------------------------------------------------

class _AxisSums:
    """The one-dimensional sums of h(x) = exp(-pi lam x^2 + 2 pi r x) for
    one r, at any lam, parity and radius.

    The terms 2 h(x) of one (lam, parity) are one np.exp over the first
    radii, rebuilt at twice the length when a larger radius is asked for,
    and the sum at radius N is the fsum of the first N of them.  Every
    element is computed by the same elementwise expression whatever the
    length of the array (tests check that np.exp gives a prefix the bits
    of the shorter array), so each (S, T) has the bits of building the
    terms up to N alone.  Overflow past the radii read is ignored: those
    terms are never summed.
    """

    def __init__(self, r: float):
        self.r = r
        self._terms: dict[tuple[float, int], list[float]] = {}
        self._sums: dict[tuple[float, int, int], tuple[float, float]] = {}

    def __call__(self, lam: float, shift: int, nrad: int) -> tuple[float, float]:
        """(S, T): S = sum of h(|x|) over lattice points x in Z + shift/2
        with |x| <= nrad, and T = certified upper bound for the rest.
        T = inf when the geometric bound does not yet apply at radius
        nrad."""
        key = (lam, shift, nrad)
        if key not in self._sums:
            self._sums[key] = self._one_dim_sums(lam, shift, nrad)
        return self._sums[key]

    def _one_dim_sums(self, lam: float, shift: int, nrad: int) -> tuple[float, float]:
        r = self.r
        terms = self._terms.setdefault((lam, shift), [])
        if len(terms) < nrad:
            size = max(nrad, 2 * len(terms), 8)
            xs = np.arange(0.5, size + 0.25, 1.0) if shift else np.arange(1.0, size + 0.5, 1.0)
            with np.errstate(over="ignore"):
                terms[:] = (2.0 * np.exp(-math.pi * lam * xs * xs + 2 * math.pi * r * xs)).tolist()
        x1 = nrad + 0.5 if shift else float(nrad + 1)
        try:
            inside = fsum(terms[:nrad]) if shift else 1.0 + fsum(terms[:nrad])
            rho = math.exp(-math.pi * lam * (2 * x1 + 1) + 2 * math.pi * r)
            if rho >= 1.0:
                return inside, math.inf
            h1 = math.exp(-math.pi * lam * x1 * x1 + 2 * math.pi * r * x1)
        except OverflowError:
            # terms beyond the float range (|Im z| large against lam):
            # no bound at this radius, so the scan goes on or refuses
            return math.inf, math.inf
        return inside, 2.0 * h1 / (1.0 - rho)


def _tail_product(axis: _AxisSums, lam: float, shifts, nrad: int) -> float:
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
            s0, t0 = axis(lam, 0, nrad)
            s1, t1 = axis(lam, 1, nrad)
            s, t = max(s0, s1), max(t0, t1)
        else:
            s, t = axis(lam, aj % 2, nrad)
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


def _box_tails(axis: _AxisSums, lam: float, shifts, nrad: int, weights) -> dict[int, float]:
    """Certified bounds, for each w in weights, on the sum of
    |m|^w * exp(-pi lam |m|^2 + 2 pi r |m|) over lattice points m outside
    the box |m_j| <= nrad, r = axis.r.

    Weight 0 is the plain Gaussian tail.  A weight w >= 1 uses
    |m|^w <= C_w exp(pi (lam/2) |m|^2), C_w the analytic maximum, so all
    such weights scale one tail product at lam/2.
    """
    bounds = {}
    if 0 in weights:
        bounds[0] = _tail_product(axis, lam, shifts, nrad)
    if any(weights):
        half = lam / 2.0
        diff = _tail_product(axis, lam - half, shifts, nrad)
        for w in weights:
            if w:
                scale = (w / (2.0 * math.pi * half * math.e)) ** (w / 2.0)
                bounds[w] = math.inf if math.isinf(diff) else scale * diff
    return bounds


@dataclass(frozen=True)
class TruncationResult:
    radius: int
    bound: float


def _radius_scan(
    tau: SiegelPoint, z, shifts, eps_by_weight: dict, axis: _AxisSums | None = None
) -> tuple[int, dict]:
    """The one radius search: the smallest N at which every weight w has
    certified tail <= eps_by_weight[w], with the bound of each weight at N.

    The radii are scanned once, computing the lam and lam/2 tail products
    once per radius.  Each weight is certified at the first radius whose
    bound meets its eps, so N is the largest of the per-weight radii.  A
    box of more than _MAX_BOX_POINTS points raises TruncationError naming
    the eps of the first weight still open.  axis, when given, is the
    _AxisSums of z, shared by the scans of one point.
    """
    if not all(0 < e < math.inf for e in eps_by_weight.values()):
        raise ValueError("eps must be finite and positive")
    lam = tau.lambda_min
    if lam <= PD_MARGIN:
        raise HalfSpaceError("Im(tau) is not positive definite with margin")
    if axis is None:
        axis = _AxisSums(_imag_norm(z, tau.genus))
    open_weights = list(eps_by_weight)
    for nrad in range(1, _MAX_RADIUS + 1):
        if (2 * nrad + 1) ** tau.genus > _MAX_BOX_POINTS:
            raise TruncationError(f"eps={eps_by_weight[open_weights[0]]:g} needs more than "
                                  f"{_MAX_BOX_POINTS} lattice points (lambda_min={lam:g})")
        bounds = _box_tails(axis, lam, shifts, nrad, eps_by_weight)
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

def _lattice_two_m(a_prime: tuple[int, ...], nrad: int) -> np.ndarray:
    """Integer array of doubled lattice points 2m = 2n + a' with
    |m_j| <= nrad, in lexicographic order.  Built per call and not kept:
    a box near the _MAX_BOX_POINTS guard is 25 MB at genus 3."""
    low = np.array([2 * nrad - aj % 2 for aj in a_prime], dtype=np.int64)
    index = np.indices([2 * nrad + 1 - aj % 2 for aj in a_prime], dtype=np.int64)
    return 2 * index.reshape(len(a_prime), -1).T - low


def _exp_terms(two_m: np.ndarray, tau: np.ndarray, z) -> np.ndarray:
    """exp(pi i m^t tau m + 2 pi i m^t z) for every lattice row (phase of
    a'' excluded; that factor is exact and applied separately).

    The magnitude is exp(-pi m^t (Im tau) m - 2 pi m^t (Im z)).  The phase
    is reduced mod 2 pi by exact steps before it meets pi, so it carries
    the rounding error of a number below 3, not that of
    pi m^t (Re tau) m, which reaches 10^5 in the boxes of deep
    transformed points:
    - X = Re tau taken mod 8 entrywise leaves exp(pi i m^t X m) as it was
      (each m_j m_l is a multiple of 1/4), and Y = Re z taken mod 2
      leaves exp(2 pi i m^t Y) (each 2 m_j is an integer); fmod is exact;
    - X = X_hi + X_lo and Y = Y_hi + Y_lo with X_hi, Y_hi on the grid
      2^-24 and X_lo, Y_lo in [0, 2^-24) (_grid_split);
    - with |m_j| <= 400, m^t X_hi m + 2 m^t Y_hi is a multiple of 2^-26
      below 2^25, so every product and partial sum of it is exact, in any
      order, and so is its residue mod 2;
    - the rest, m^t X_lo m + 2 m^t Y_lo, is below 0.1 and rounded.
    The exact part is the same for m and -m, and one einsum forms the
    rest of every row as the magnitude's einsum does, so at z = 0 the
    term of -m keeps the bits of the term of m, as the fold requires.
    """
    m = two_m.astype(np.float64) / 2.0
    whole, rest = np.einsum("bj,kjl,bl->kb", m, np.array(_grid_split(tau.real, 8.0)), m)
    magnitude = -math.pi * np.einsum("bj,jl,bl->b", m, tau.imag, m)
    zz = _nonzero_z(z, two_m.shape[1])
    if zz is not None:
        whole_z, rest_z = np.array(_grid_split(zz.real, 2.0)) @ m.T
        whole = whole + 2.0 * whole_z
        rest = rest + 2.0 * rest_z
        magnitude = magnitude - 2 * math.pi * (m @ zz.imag)
    expo = np.empty(len(m), dtype=complex)
    expo.real = magnitude
    expo.imag = math.pi * ((whole - 2.0 * np.floor(whole / 2.0)) + rest)
    return np.exp(expo)


def _grid_split(x: np.ndarray, period: float) -> tuple[np.ndarray, np.ndarray]:
    """(x_hi, x_lo) with x_hi + x_lo = fmod(x, period), x_hi on the grid
    2^-24 and 0 <= x_lo < 2^-24; exact for period <= 8."""
    x = np.fmod(x, period)
    x_hi = np.floor(x * 2.0**24) / 2.0**24
    return x_hi, x - x_hi


def _nonzero_z(z, genus: int):
    """z as a complex vector, or None when the series has no z term
    (z is None or every entry is zero)."""
    if z is None:
        return None
    zz = np.asarray(z, dtype=complex).reshape(genus)
    return zz if zz.any() else None


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


def _row_sums(block: np.ndarray) -> list[float]:
    """[math.fsum(row) for row in block], bit for bit, for a C-contiguous
    2-D float64 block, from a vectorized TwoSum tree.

    Method (Ogita, Rump and Oishi, "Accurate sum and dot product", SIAM J.
    Sci. Comput. 26, 2005; Rump, Ogita and Oishi, "Accurate floating-point
    summation I", SIAM J. Sci. Comput. 31, 2008).  Each level of the tree
    adds the first half of the columns to the second half (an odd last
    column passes up unchanged) with TwoSum: s = fl(a + b), b' = s - a,
    e = (a - (s - b')) + (b - b').  A row of n terms ends as its top sum
    and its m = n - 1 errors E.  Level by level the errors are added into
    sigma = fl(sum E) and A' = fl(sum |E|), each an order of m additions
    (the first, to 0, exact).  Then (r, f) = TwoSum(top, sigma), and r is
    returned when

        fl(|f| + fl(c A')) < h,   c = 4 m u,   u = 2^-53,

    with h = fl(g / 2) and g = |r - nextafter(r, 0)|, the smaller of the
    two gaps beside r.  Any other row is fsum'd.

    Proof that an accepted r is fsum's.  fsum returns the exact sum s
    rounded to nearest, ties to even, unless a partial sum overflows.
    - TwoSum is exact: a + b = s + e whenever s does not overflow.  An
      addition whose result underflows is itself exact, so this holds
      among subnormals too.  By induction over the tree, s = top + sum E,
      and r + f = top + sigma exactly.
    - Any order of m additions gives |sigma - sum E| <= gamma_{m-1} A,
      with A = sum |E| and gamma_k = k u / (1 - k u); the same bound on A'
      gives A <= A' / (1 - gamma_{m-1}).  For (m - 1) u <= 1/4 (any block
      that fits in memory) the two give gamma_{m-1} A <= 2 m u A'
      = (c/2) A'.
    - The bound is itself rounded.  c is exact (m times a power of two).
      If c A' is normal, fl(c A') >= (1 - u) c A' >= (c/2) A'; if it is
      subnormal, fl(c A') >= c A' - 2^-1075.  Either way
      gamma_{m-1} A <= fl(c A') + 2^-1075.
    - Rounding to nearest is monotone and h is a float, so
      fl(|f| + fl(c A')) < h gives |f| + fl(c A') < h exactly.  Both sides
      are multiples of 2^-1074, as every float is, so
      |f| + fl(c A') <= h - 2^-1074.
    - Hence |s - r| = |f - (sigma - sum E)| <= |f| + gamma_{m-1} A
      <= h - 2^-1075 < h.  g is exact (Sterbenz), and so is h = g / 2
      unless g = 2^-1074, where h = 0 and nothing is accepted.  So s lies
      strictly inside the interval of reals that round to r; strictness
      keeps s off the two ties at its ends, where the rounding would
      depend on the last bit of r.  fsum returns r.
    At r = 0 the gap is 0 and nothing is accepted, which leaves the sign
    of a zero sum to fsum.  fsum raises OverflowError when a partial sum
    in its input order overflows, which the tree's order need not meet,
    and ValueError on inf - inf.  So a block holding an inf or a nan, or
    whose largest |x| is at least 2^1000 / n, is fsum'd row by row, which
    raises or returns inf or nan exactly as fsum does.  Below that bound
    every partial sum of any order is below 2^1000, and no step of the
    tree or of fsum overflows.

    Two sizes are measured, not tuned per workload.  _group_sums caps a
    block at _BLOCK_BYTES (256 KiB): the tree's temporaries add about 1.5
    times the block, and caps of 2 MiB and 8 MiB raised the peak RSS of
    a genus-2 campaign round from 42 to 47-48 MiB at the same speed.  A
    block of fewer than _TREE_MIN_TERMS (4096) terms is fsum'd row by
    row: each level of the tree costs a dozen numpy calls whatever its
    size, and below about 3000 to 4000 terms fsum of the rows is faster.
    """
    rows, n = block.shape
    if rows * n < _TREE_MIN_TERMS or not max(block.max(), -block.min()) < 2.0**1000 / n:
        return [fsum(row) for row in block.tolist()]
    x = block
    sigma = np.zeros(rows)
    mag = np.zeros(rows)
    while x.shape[1] > 1:
        h = x.shape[1] // 2
        a, b = x[:, :h], x[:, h:2 * h]
        if x.shape[1] % 2:
            up = np.empty((rows, h + 1))
            up[:, h] = x[:, 2 * h]
            s = np.add(a, b, out=up[:, :h])
        else:
            s = up = a + b
        bb = s - a
        e = s - bb
        np.subtract(a, e, out=e)
        np.subtract(b, bb, out=bb)
        e += bb
        sigma += e.sum(axis=1)
        mag += np.abs(e, out=e).sum(axis=1)
        x = up
    top = x[:, 0]
    r = top + sigma
    bb = r - top
    f = (top - (r - bb)) + (sigma - bb)
    gap = np.abs(r - np.nextafter(r, 0.0))
    accept = np.abs(f) + (4.0 * (n - 1) * _U) * mag < gap / 2
    out = r.tolist()
    for i in np.flatnonzero(~accept).tolist():
        out[i] = fsum(block[i].tolist())
    return out


def _box_points(a_prime, nrad: int) -> int:
    """The number of rows of _lattice_two_m(a_prime, nrad)."""
    return math.prod(2 * nrad + 1 - aj % 2 for aj in a_prime)


def _summed_box(a_prime, nrad: int, fold: bool) -> np.ndarray:
    """The doubled lattice points of one box that are summed: every row
    of _lattice_two_m, or with the fold the origin (present when a' = 0)
    and the rows after it."""
    two_m = _lattice_two_m(a_prime, nrad)
    return two_m[len(two_m) // 2:] if fold else two_m


def _group_sums(group, z, tau: SiegelPoint, degrees, fold: bool):
    """Yield (a, {k: sums}, value bound, radius) for the characteristics of
    a group of consecutive a' cosets, each given as (coset, radius,
    bounds, box points): per degree k, the exactly rounded sums of
    m_j ... m_p term(m) over the coset's box, one per row of
    _basis(g, k)[0].

    The lattices of the group are concatenated, so one _exp_terms serves
    every coset; the phase of a'' is exact and applied per
    characteristic, and the weight rows m_j ... m_p are formed per box,
    since a group's would be a dozen rows of all its points.  Every term
    and weight is formed by the same elementwise expression, from a
    lattice in the same column-major layout, as for its box alone.  Each
    weight is exact whatever the order of its product: the m are
    half-integers with |m_j| <= _MAX_RADIUS, so every partial product of
    up to four of them is K/16 with |K| <= 800^4 < 2^39.

    With fold (no z term) each box is folded over m <-> -m.  The box is
    symmetric (row i of _lattice_two_m is minus row n-1-i), the exponent
    of -m is bitwise that of m, the phase picks up (-1)^|a| and a weight
    of degree k picks up (-1)^k.  So every sum of a degree with k + |a|
    odd is exactly 0, returned as +0.0 + 0.0j, the bits fsum gives for
    any zero sum; every other sum is the exactly rounded sum of the
    origin term (present when a' = 0) once and of (weight * term) * 2
    over the rows after it.  Doubling is exact, the exact sum is
    unchanged, and it is rounded exactly, so the folded sums have the
    bits of the full-box sums at half the exponentials and half the
    summed terms.

    The rows are formed one at a time, in the order of the cosets, their
    characteristics, the degrees and _basis, and their real and
    imaginary parts are written into one reused buffer of blocks of at
    most _BLOCK_BYTES (at least one row) for _row_sums.  A block is as
    wide as the group's longest box; a shorter row is padded with -0.0,
    which adds nothing to any sum, the sign of a zero sum included.
    """
    spans, start = [], 0  # per coset: its rows of the group's lattice and its box points
    for *_, n in group:
        stop = start + (n - n // 2 if fold else n)
        spans.append((start, stop, n))
        start = stop
    if len(group) == 1:
        two_m = _summed_box(group[0][0][0].a_prime, group[0][1], fold)
    else:
        # filled box by box, so that one full box at a time is alive, and
        # column-major as _lattice_two_m lays out a box: the matrix
        # products of _exp_terms round by the layout of their operands
        two_m = np.empty((start, tau.genus), dtype=np.int64, order="F")
        for (coset, nrad, *_), (s, e, _) in zip(group, spans):
            two_m[s:e] = _summed_box(coset[0].a_prime, nrad, fold)
    m = two_m.T.astype(np.float64, order="C") / 2.0  # one row per axis
    base = _exp_terms(two_m, tau.tau, z)
    if fold:
        multiplicity = np.full(len(two_m), 2.0)
        for s, _, n in spans:
            multiplicity[s] = 2.0 - n % 2  # the origin, when a' = 0
    summed = {a: [k for k in degrees if not (fold and (k + a.weight) % 2)]
              for coset, *_ in group for a in coset}

    def rows():
        for (coset, *_), (s, e, _) in zip(group, spans):
            box_m = m[:, s:e]
            weights = {k: [reduce(operator.mul, [box_m[j] for j in key])
                           for key in _basis(tau.genus, k)[0]] for k in degrees if k}
            box_two_m, box_base = two_m[s:e], base[s:e]
            if fold:
                box_multiplicity = multiplicity[s:e]
            for a in coset:
                t = box_base * _phase_factors(box_two_m, a.a_double_prime)
                for k in summed[a]:
                    for row in (w * t for w in weights[k]) if k else [t]:
                        yield box_multiplicity * row if fold else row

    # the real and imaginary parts of as many rows as fit in one block,
    # written into one buffer as each row is formed
    count = sum(len(_basis(tau.genus, k)[0]) for ks in summed.values() for k in ks)
    width = max(e - s for s, e, _ in spans)
    per_block = max(1, _BLOCK_BYTES // (16 * width))
    buffer = np.empty((2 * min(per_block, count), width))
    pending = rows()
    flat = []
    for start in range(0, count, per_block):
        size = min(per_block, count - start)
        block = buffer[:2 * size]
        for i, row in zip(range(size), pending):
            n = len(row)
            if n == width:
                block[i] = row.real
                block[size + i] = row.imag
            else:
                block[i, :n] = row.real
                block[size + i, :n] = row.imag
                block[i, n:] = -0.0
                block[size + i, n:] = -0.0
        parts = _row_sums(block)
        flat.extend(map(complex, parts[:size], parts[size:]))

    sums = iter(flat)
    for coset, nrad, bounds, _ in group:
        for a in coset:
            out = {}
            for k in degrees:
                size = len(_basis(tau.genus, k)[0])
                out[k] = [next(sums) for _ in range(size)] if k in summed[a] else [0j] * size
            yield a, out, bounds[0], nrad


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
    symmetric arrays, None below order 2 and 4 of the batch.  The arrays
    are read-only, since a campaign shares one record among its checks.

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
    by a' coset in order of first appearance: one pass over the point.

    One _AxisSums serves the _radius_scan of every coset, which all read
    the same (lambda, parity) terms, and every coset is scanned before
    any lattice is built, so a refused call allocates nothing.  The
    cosets are then summed by _group_sums in groups of consecutive ones
    holding at most _GROUP_POINTS summed points between them; a coset
    above that is a group of its own.  Shallow cosets, where numpy and
    Python call overhead rather than arithmetic sets the cost, share one
    lattice, one _exp_terms and one _row_sums per block.  The cap keeps
    a deep box alone, so its lattice and exponentials are never held
    beside another's: without it, the rounds of a genus-2 campaign
    (whose transformation check sums deep boxes) peaked at 45.2 MiB
    resident, against 42.5 MiB with it."""
    cosets: dict[tuple, list[Characteristic]] = {}
    for a in dict.fromkeys(chars):
        if a.genus != tau.genus:
            raise ValueError("characteristic and point have different genus")
        cosets.setdefault(a.a_prime, []).append(a)
    axis = _AxisSums(_imag_norm(z, tau.genus))
    scans = [(coset, *_radius_scan(tau, z, a_prime, eps_by_weight, axis))
             for a_prime, coset in cosets.items()]
    fold = _nonzero_z(z, tau.genus) is None
    group, points = [], 0
    for coset, nrad, bounds in scans:
        n = _box_points(coset[0].a_prime, nrad)
        size = n - n // 2 if fold else n
        if group and points + size > _GROUP_POINTS:
            yield from _group_sums(group, z, tau, degrees, fold)
            group, points = [], 0
        group.append((coset, nrad, bounds, n))
        points += size
    if group:
        yield from _group_sums(group, z, tau, degrees, fold)


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
        t1 = np.array(s[1])
        t2, t4 = (np.array(s[k])[_basis(a.genus, k)[1]] if k in s else None for k in (2, 4))
        for t in (t1, t2, t4):
            if t is not None:
                t.setflags(write=False)
        out[a] = Moments(s[0][0], t1, t2, t4, bound, nrad, a)
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
        # exact symmetry from the upper triangle; + 0.0 turns -0.0 into +0.0
        c = c + 0.0
        lower, upper = _lower_triangle(self.genus)
        c[lower] = c[upper]
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
def _lower_triangle(genus: int) -> tuple[tuple, tuple]:
    """(lower, upper): index arrays of the entries below the diagonal and
    of their mirror images above it."""
    rows, cols = np.tril_indices(genus, -1)
    for index in (rows, cols):
        index.setflags(write=False)
    return (rows, cols), (cols, rows)


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
