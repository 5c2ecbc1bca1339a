"""Certified evaluation of theta functions with 2-characteristics.

The series evaluated here is

    theta_a(z, tau) = sum_{n in Z^g} exp( pi i (n+a'/2)^t tau (n+a'/2)
                                          + 2 pi i (n+a'/2)^t (z+a''/2) ),

truncated with a certified absolute bound on what is left out.  The term
of m = n + a'/2 has modulus exp(-pi q(m) - 2 pi m^t Im z) with
q(m) = m^t (Im tau) m.  Without a z term (z None or zero) the sum runs
over the ellipsoid q(m) <= r2 (_Ellipsoid), r2 the root of a closed-form
tail bound (_ellipsoid_radius2), a fraction of a box at a deep point.
With a z term it runs over the box |n_j + a'_j/2| <= N, the tail bounded
by one-dimensional Gaussian sums (_radius_scan, _AxisSums).

Derivatives come from the same lattice sum: d/dz_j brings a per-term
factor 2 pi i m_j, and the heat equation makes the normalized tau
derivatives computable termwise as well,

    delta_jl theta_a = (1/(2 pi i)^2) d^2 theta_a / dz_j dz_l,

i.e. a per-term factor m_j m_l.  The kernel has three entry points:
theta_jet (one characteristic, value and z-derivatives at any z),
theta_values (values of several) and batch_moments (the z = 0 moments of
several).  The z = 0 data have one route: batch_moments returns plain
Moments, and PointRecord stacks them and is the one place that forms
psi_a (entries delta_jl theta_a / theta_a), psi_a^2,
eta_{a,b} = det(psi_b - psi_a) and delta(psi_a), quartic forms being
dense vectors over _basis(g, 4), from fourth-order z-derivative data,
never from tau differencing:

    delta_jl psi_{a,mp} = (fourth moment)_{jlmp} / theta_a - psi_{a,jl} psi_{a,mp}.

One basis, _basis(g, k), orders the monomials of degree k everywhere: the
sorted index tuples in lexicographic order, with the map from each of the
g^k index tuples to its monomial.  One batch loop, _sums, does every
lattice sum, and a kernel call is one pass of it over its point:
theta_jet, theta_values and batch_moments choose only the degrees and
the eps per weight (eps, eps/2pi, eps/(2pi)^2 for a jet's value,
gradient and Hessian; eps for each moment weight), and the truncation
certifies every weight.  Every a' coset is counted before any lattice is
built; one of more than 2^20 points raises TruncationError.
_group_sums then returns, per degree k in (0, 1, 2, 4), the exactly
rounded sums of m_j ... m_p term(m) in that order for the
characteristics of a group of consecutive cosets: their lattices are
concatenated into one _exp_terms while the group holds at most 2^14
summed points, and a deeper coset runs alone.

Each sum is exactly rounded: it has the bits math.fsum gives its terms,
so it is reproducible bitwise and does not depend on the order of its
terms, nor on the group its coset was summed in.  Blocks of weighted
rows are summed by a vectorized TwoSum tree (_two_sum_tree, _row_sums),
and a coset of several characteristics forms each weighted row once,
summed by parity class and combined per characteristic
(_class_combination), each kept where a proven bound shows it to be
fsum's; the rest go to fsum.

Without a z term the sum is folded over m <-> -m: the ellipsoid is
symmetric, and for a monomial of degree k the weighted term of -m is
(-1)^(|a| + k) times that of m, bit for bit.  So a degree with |a| + k
odd is exactly 0 and is returned as +0.0 without summing, and every
other sum is the exactly rounded sum of the origin term once and of
twice the terms of one point of each pair m, -m, with the bits of the
whole ellipsoid's sum from half the exponentials.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import NamedTuple
from math import fsum

import numpy as np

from .characteristics import Characteristic
from .siegel import PD_MARGIN, SiegelPoint, HalfSpaceError

__all__ = [
    "ThetaJet",
    "Moments",
    "PointRecord",
    "square_forms",
    "quartic_monomials",
    "TruncationError",
    "NearZeroThetanull",
    "truncation_radius",
    "theta_jet",
    "theta_values",
    "batch_moments",
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

# glibc's malloc maps the kernel's temporaries of 0.1-1 MiB afresh and gives
# them back when freed: a genus-2 campaign round took 2 600 to 22 000 more
# page faults than with fixed thresholds, by the order in which they died.
# A malloc without mallopt keeps its own policy.
with contextlib.suppress(AttributeError, OSError, TypeError):
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD: map from 4 MiB
    _mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD: trim above 8 MiB


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
    for j, tail in enumerate(tails):
        diff += math.prod([tail] + [s + t for s, t in zip(sums[:j], tails[:j])] + sums[j + 1:])
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
    lam = _checked_lambda(tau, eps_by_weight)
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


def _checked_lambda(tau: SiegelPoint, eps_by_weight: dict) -> float:
    """lambda_min of tau, once eps and the margin of tau are checked."""
    if not all(0 < e < math.inf for e in eps_by_weight.values()):
        raise ValueError("eps must be finite and positive")
    lam = tau.lambda_min
    if lam <= PD_MARGIN:
        raise HalfSpaceError("Im(tau) is not positive definite with margin")
    return lam


#: the Rankin exponents t over which _ellipsoid_radius2 minimises its bound
_THETAS = (0.01, 0.02, 0.03, 0.05, 0.07, 0.1, 0.14, 0.2, 0.27, 0.35, 0.45, 0.55, 0.65, 0.75)


def _ellipsoid_radius2(genus: int, lam: float, eps_by_weight: dict) -> tuple[float, dict]:
    """(r2, bounds): the least r2 of the closed form below at which every
    weight w certifies its eps, and the bound of each at r2, on the sum
    of |m|^w exp(-pi q(m)) over the points m of any coset Z^g + a'/2 with
    q(m) = m^t Y m > r2, Y = Im tau of smallest eigenvalue lam.

    Proof of the bound min over t in _THETAS of
    C_w(h) (1 + 1/sqrt(h))^g exp(-pi (1 - t) r2) (Rankin's trick).
    - For q > r2, exp(-pi q) <= exp(-pi (1 - t) r2) exp(-pi t q): the tail
      is at most that factor times the sum of |m|^w exp(-pi t q).
    - q >= lam |m|^2.  For w = 0, exp(-pi t q) <= exp(-pi h |m|^2) with
      h = t lam, C_0 = 1.  For w >= 1, h = t lam / 2 and
      |m|^w <= C_w(h) exp(pi h |m|^2), C_w(h) = (w / (2 pi e h))^(w/2) the
      maximum of x^w exp(-pi h x^2) (the C_w of _box_tails), so
      |m|^w exp(-pi t q) <= C_w(h) exp(-pi t q / 2) <= C_w(h) exp(-pi h |m|^2).
    - exp(-pi h |m|^2) is a product over the axes, and the sum of
      exp(-pi h x^2) over x in Z + s, any s, is at most 1 + 1/sqrt(h):
      samples at unit spacing of a unimodal function sum to at most its
      maximum plus its integral.
    The bound decreases in r2 and does not depend on a'.  r2 is the
    largest over w of the least over t of the root
    (log prefactor - log eps) / (pi (1 - t)), at least 0, raised by 2^-40
    relative and absolute, above the rounding of the closed form, and
    again while a rounded bound exceeds its eps.
    """
    logs = []  # per t: pi (1 - t) and the log prefactor of each weight
    for t in _THETAS:
        h = t * lam / 2.0
        axes = genus * math.log1p(1.0 / math.sqrt(h))
        logs.append((math.pi * (1.0 - t), {
            w: (w / 2.0) * math.log(w / (2.0 * math.pi * math.e * h)) + axes if w
            else genus * math.log1p(1.0 / math.sqrt(2.0 * h)) for w in eps_by_weight}))
    r2 = max(min((log[w] - math.log(eps)) / slope for slope, log in logs) for w, eps in eps_by_weight.items())
    r2 = max(r2, 0.0) * (1.0 + 2.0**-40) + 2.0**-40
    while True:
        bounds = {w: math.exp(min(log[w] - slope * r2 for slope, log in logs)) for w in eps_by_weight}
        if all(bounds[w] <= eps for w, eps in eps_by_weight.items()):
            return r2, bounds
        r2 *= 1.0 + 2.0**-30


def truncation_radius(
    tau: SiegelPoint, z, eps: float, weight: int = 0, a: Characteristic | None = None
) -> TruncationResult:
    """The certified truncation the kernel takes for one weight.

    bound covers the sum of |m|^weight |term(m)| left out.  Without a z
    term (z None or zero) the sum runs over the ellipsoid of _Ellipsoid,
    and radius is the half-width of the box enclosing it; otherwise over
    the box of the smallest radius N whose certified tail outside
    |n_j + a'_j/2| <= N is <= eps, for no characteristic dominating every
    parity pattern of a'.  A sum of more than _MAX_BOX_POINTS points (for
    no characteristic, in any coset) raises TruncationError.
    """
    if _nonzero_z(z, tau.genus) is None:
        a_primes = [a.a_prime] if a else list(itertools.product((0, 1), repeat=tau.genus))
        ball = _Ellipsoid(tau, {weight: eps}, a_primes)
        return TruncationResult(ball.radius, ball.bounds[weight])
    shifts = ("any",) * tau.genus if a is None else a.a_prime
    nrad, bounds = _radius_scan(tau, z, shifts, {weight: eps})
    return TruncationResult(nrad, bounds[weight])


def _imag_norm(z, genus: int) -> float:
    """|Im z| of a z other than None; a non-finite z is refused, since no
    radius bounds its terms."""
    zz = np.asarray(z, dtype=complex).reshape(genus)
    if not np.isfinite(zz).all():
        raise ValueError("z must have finite entries")
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


def _ldl(y: list) -> tuple[list, list, list]:
    """(d, l, v): y = l diag(d) l^t with l unit lower triangular, and v the
    diagonal of y^-1 = l^-t diag(d)^-1 l^-1, in Python floats: a fixed
    order of operations, whatever the BLAS."""
    g = len(y)
    l = [[float(i == j) for j in range(g)] for i in range(g)]
    inv = [[float(i == j) for j in range(g)] for i in range(g)]
    d = []
    for j in range(g):
        d.append(y[j][j] - sum(l[j][k] * l[j][k] * d[k] for k in range(j)))
        for i in range(j + 1, g):
            l[i][j] = (y[i][j] - sum(l[i][k] * l[j][k] * d[k] for k in range(j))) / d[j]
    for i in range(g):
        for j in range(i):
            inv[i][j] = -sum(l[i][k] * inv[k][j] for k in range(j, i))
    return d, l, [sum(inv[k][j] ** 2 / d[k] for k in range(j, g)) for j in range(g)]


def _quadratic(y: list, m: list) -> np.ndarray:
    """fl(m^t y m) for the columns m_j of a set of points, as
    sum_j m_j (sum_l y_jl m_l), each sum from the left: even in m bit for
    bit, since -m negates every partial sum of the inner sums exactly."""
    out = 0.0
    for j, row in enumerate(y):
        s = row[0] * m[0]
        for yl, ml in zip(row[1:], m[1:]):
            s = s + yl * ml
        out = out + m[j] * s
    return out


class _Ellipsoid:
    """The points the z = 0 series sums for the a' cosets of one call:
    the m in Z^g + a'/2 with fl(q(m)) <= limit (_quadratic), one of each
    pair m, -m, in parity-class order.

    r2 and bounds are _ellipsoid_radius2's, limit = r2 (1 + delta),
    delta = 10^-9 + 8 (g + 1) u k with k = tr(Y) / lam >= g, and radius,
    the half-width of the box enclosing the ellipsoid, is at most
    _MAX_RADIUS.  Candidates come from Fincke-Pohst bounds (Math. Comp.
    44, 1985) in doubled coordinates T = 2m on Y' = L D L^t, the exact
    product of _ldl's factors (d_i > 0): q'(m) = sum_i (d_i/4)(T_i + C_i)^2,
    C_i = sum_{j>i} L_ji T_j, and level i takes |T_i + C_i| <= H_i =
    sqrt(4 rem_i / d_i), rem_i = B - sum_{j>i} (d_j/4)(T_j + C_j)^2,
    B = limit (1 + 4 delta).  Every m of exact q(m) <= r2 is summed, for
    g <= 3 and k < 10^19 (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2002, secs. 3.1 and 10.1; gamma_n = n u / (1 - n u); lam
    taken as lambda_min(Y), as in the bound):
    - it is a candidate.  |Y' - Y| <= gamma_{g+2} |L| D |L|^t, whose entries
      are at most sqrt(Y'_jj Y'_ll) (Cauchy-Schwarz), so q'(m) <= r2 (1 + delta)
      as q'(m) <= q (1 + (g + 3) u k), and each rem_i exceeds
      (d_i/4)(T_i + C_i)^2 by at least 4 delta r2.  The computed C_i errs by
      at most gamma_g sum_j |L_ji T_j| <= gamma_g |T| sqrt(tr(Y') / d_i)
      <= e_i = 4 (g + 1) u sqrt(k B / d_i), as L_ji^2 d_i <= Y'_jj and
      |T|^2 <= 4 q / lam.  So each term (d_j/4)(T_j + C_j)^2 <= B errs by at
      most u B (3 g sqrt(k) + 6), the computed rem_i by less than
      4 delta r2, the computed H_i is at least |T_i + C_i| (1 - 3u), and the
      interval -C_i +- H_i, widened by e_i and by (2^-20 + delta) times
      1 + |C_i| + H_i for the rounding of its ends, holds T_i;
    - it passes the test: |fl(q) - q| <= gamma_2g |m|^t |Y| |m|, and
      |m|^t |Y| |m| <= (sum_j sqrt(Y_jj) |m_j|)^2 <= tr(Y) |m|^2 <= k q,
      so fl(q) <= r2 (1 + 2 (g + 1) u k) < limit.
    The rows start as the (coset, class) pairs, class c = n mod 2 read in
    binary with n_1 high, so T_i runs over 4k + 2 c_i + a'_i; each level
    expands every row at once, T_g first, keeping their order.  The fold
    takes the top coordinate >= 0, and so each one whose coordinates above
    are 0: one of each pair, the origin (first in its coset) once; the
    test is even in m.  Each coset's ellipsoid (twice its half, less the
    origin) and every level's rows are counted before a point is built;
    above _MAX_BOX_POINTS, TruncationError.
    """

    def __init__(self, tau: SiegelPoint, eps_by_weight: dict, a_primes: list):
        genus, self.genus = tau.genus, tau.genus
        lam = _checked_lambda(tau, eps_by_weight)
        self.r2, self.bounds = _ellipsoid_radius2(genus, lam, eps_by_weight)
        self.y = y = tau.tau.imag.tolist()
        kappa = sum(y[j][j] for j in range(genus)) / lam
        delta = 1e-9 + 8 * (genus + 1) * _U * kappa
        self.limit = self.r2 * (1.0 + delta)
        budget = self.limit * (1.0 + 4.0 * delta)
        d, l, inverse = _ldl(y)
        self.radius, eps = math.ceil(math.sqrt(budget * max(inverse))), next(iter(eps_by_weight.values()))
        if self.radius > _MAX_RADIUS:
            raise TruncationError(f"no radius up to {_MAX_RADIUS} certifies eps={eps:g} (lambda_min={lam:g})")
        refusal = f"eps={eps:g} needs more than {_MAX_BOX_POINTS} lattice points (lambda_min={lam:g})"
        classes = 2**genus
        origin = np.arange(classes * len(a_primes))  # the (coset, class) row each row comes from
        bits = (origin % classes >> np.arange(genus - 1, -1, -1)[:, None]) & 1
        shift = 2 * bits + np.array(a_primes, dtype=np.int64).T[:, origin // classes] % 2  # T mod 4
        rem, zero, fixed, err = budget, None, {}, 4 * (genus + 1) * _U * math.sqrt(kappa * budget)
        for i in range(genus - 1, -1, -1):
            shift_i, centre = shift[i, origin], 0.0
            for j in range(i + 1, genus):  # C_i, from the left
                centre = centre + l[j][i] * fixed[j]
            h = np.sqrt(np.maximum(rem, 0.0) * (4.0 / d[i]))
            pad = (2.0**-20 + delta) * (1.0 + np.abs(centre) + h) + err / math.sqrt(d[i])  # + e_i
            lo = -centre - h - pad
            lo = np.maximum(lo, 0.0) if zero is None else np.where(zero, np.maximum(lo, 0.0), lo)
            first = np.ceil((lo - shift_i) / 4.0)
            count = np.maximum(np.floor((-centre + h + pad - shift_i) / 4.0) - first + 1.0, 0.0).astype(np.int64)
            first = first.astype(np.int64)
            if i == 0:
                break
            if count.sum() > _MAX_BOX_POINTS:
                raise TruncationError(refusal)
            rows = np.repeat(np.arange(len(count)), count)
            t = 4 * (np.arange(len(rows)) - np.repeat(np.cumsum(count) - count - first, count)) + shift_i[rows]
            rem = rem - (d[i] / 4.0) * t * t if zero is None else rem[rows] - (d[i] / 4.0) * (t + centre[rows]) ** 2
            zero = t == 0 if zero is None else zero[rows] & (t == 0)
            fixed = {j: f[rows] for j, f in fixed.items()} | {i: t}
            origin = origin[rows]
        self._last = fixed, shift_i, first, count, origin
        self.counts = np.bincount(origin // classes, count, len(a_primes)).astype(np.int64).tolist()
        self._row_starts = np.searchsorted(origin, classes * np.arange(len(a_primes) + 1)).tolist()
        if any(2 * n - (not any(a)) > _MAX_BOX_POINTS for a, n in zip(a_primes, self.counts)):
            raise TruncationError(refusal)

    def points(self, first: int, stop: int):
        """(two_m, spans, sizes) for the cosets first to stop - 1: their
        doubled points in turn, column-major, the (start, stop) of each
        coset's rows and the sizes of its classes, [cosets, 2^g]."""
        fixed, shift, low, count, origin = self._last
        r0, r1 = self._row_starts[first], self._row_starts[stop]
        count = count[r0:r1]
        rows = np.repeat(np.arange(r0, r1), count)
        t = 4 * (np.arange(len(rows)) - np.repeat(np.cumsum(count) - count - low[r0:r1], count)) + shift[rows]
        columns = [t] + [fixed[j][rows] for j in range(1, self.genus)]
        keep = _quadratic(self.y, [0.5 * col for col in columns]) <= self.limit
        two_m = np.array([col[keep] for col in columns]).T  # column-major
        classes = 2**self.genus
        sizes = np.bincount(origin[rows][keep] - first * classes, minlength=(stop - first) * classes)
        ends = np.cumsum(sizes.reshape(stop - first, classes).sum(axis=1)).tolist()
        return two_m, list(zip([0] + ends[:-1], ends)), sizes.reshape(stop - first, classes)


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
    return _frozen(keys), _frozen(np.array(index).reshape((genus,) * degree))


def _in_range(block: np.ndarray) -> bool:
    """Whether every |x| of a 2-D block is below 2^1000 / n, n its width:
    then no partial sum of a row, in any order, overflows.  False when the
    block holds an inf or a nan."""
    return bool(max(block.max(), -block.min()) < 2.0**1000 / block.shape[1])


def _two_sum_tree(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, f, b) per row of a C-contiguous 2-D float64 block with
    _in_range: the row's exact sum s is r + f + d with |d| <= b + 2^-1075,
    and r = fl(r + f).

    Method (Ogita, Rump and Oishi, "Accurate sum and dot product", SIAM J.
    Sci. Comput. 26, 2005; Rump, Ogita and Oishi, "Accurate floating-point
    summation I", SIAM J. Sci. Comput. 31, 2008).  Each level of the tree
    adds the first half of the columns to the second half (an odd last
    column passes up unchanged) with TwoSum: s = fl(a + b), b' = s - a,
    e = (a - (s - b')) + (b - b').  A row of n terms ends as its top sum
    and its m = n - 1 errors E.  Level by level the errors are added into
    sigma = fl(sum E) and A' = fl(sum |E|), each an order of m additions
    (the first, to 0, exact).  Then (r, f) = TwoSum(top, sigma) and
    b = fl(c A') with c = 4 m u, u = 2^-53.

    Proof of the bound.
    - TwoSum is exact: a + b = s + e whenever s does not overflow, which
      _in_range guarantees.  An addition whose result underflows is itself
      exact, so this holds among subnormals too.  By induction over the
      tree, s = top + sum E, and r + f = top + sigma exactly.
    - Any order of m additions gives |sigma - sum E| <= gamma_{m-1} A,
      with A = sum |E| and gamma_k = k u / (1 - k u); the same bound on A'
      gives A <= A' / (1 - gamma_{m-1}).  For (m - 1) u <= 1/4 (any block
      that fits in memory) the two give gamma_{m-1} A <= 2 m u A'
      = (c/2) A'.
    - The bound is itself rounded.  c is exact (m times a power of two).
      If c A' is normal, fl(c A') >= (1 - u) c A' >= (c/2) A'; if it is
      subnormal, fl(c A') >= c A' - 2^-1075.  Either way
      |d| = |sigma - sum E| <= gamma_{m-1} A <= b + 2^-1075.
    """
    rows, n = block.shape
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
    return r, f, (4.0 * (n - 1) * _U) * mag


@lru_cache(maxsize=None)
def _monomials(genus: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """The rows of _basis(genus, degree)[0] as tuples."""
    return tuple(map(tuple, _basis(genus, degree)[0].tolist()))


def _row_sums(block: np.ndarray) -> list[float]:
    """[math.fsum(row) for row in block], bit for bit, for a C-contiguous
    2-D float64 block, from _two_sum_tree.

    A row's r is returned when

        fl(|f| + b) < h,

    with h = fl(g / 2) and g = |r - nextafter(r, 0)|, the smaller of the
    two gaps beside r.  Any other row is fsum'd.

    Proof that an accepted r is fsum's.  fsum returns the exact sum s
    rounded to nearest, ties to even, unless a partial sum overflows.
    - Rounding to nearest is monotone and h is a float, so
      fl(|f| + b) < h gives |f| + b < h exactly.  Both sides are
      multiples of 2^-1074, as every float is, so |f| + b <= h - 2^-1074.
    - Hence, by _two_sum_tree, |s - r| <= |f| + b + 2^-1075
      <= h - 2^-1075 < h.  g is exact (Sterbenz), and so is h = g / 2
      unless g = 2^-1074, where h = 0 and nothing is accepted.  So s lies
      strictly inside the interval of reals that round to r; strictness
      keeps s off the two ties at its ends, where the rounding would
      depend on the last bit of r.  fsum returns r.
    At r = 0 the gap is 0 and nothing is accepted, which leaves the sign
    of a zero sum to fsum.  fsum raises OverflowError when a partial sum
    in its input order overflows, which the tree's order need not meet,
    and ValueError on inf - inf.  So a block that is not _in_range (it
    holds an inf or a nan, or its largest |x| is at least 2^1000 / n) is
    fsum'd row by row, which raises or returns inf or nan exactly as fsum
    does.  Below that bound every partial sum of any order is below
    2^1000, and no step of the tree or of fsum overflows.

    Two sizes are measured: caps of 2 and 8 MiB for _BLOCK_BYTES raised
    a genus-2 campaign round's peak RSS from 42 to 47-48 MiB at the same
    speed, and below about 3000 to 4000 terms (_TREE_MIN_TERMS) fsum of
    the rows beats the tree's dozen numpy calls per level.
    """
    rows, n = block.shape
    if rows * n < _TREE_MIN_TERMS or not _in_range(block):
        return [fsum(row) for row in block.tolist()]
    r, f, b = _two_sum_tree(block)
    gap = np.abs(r - np.nextafter(r, 0.0))
    accept = np.abs(f) + b < gap / 2
    out = r.tolist()
    for i in np.flatnonzero(~accept).tolist():
        out[i] = fsum(block[i].tolist())
    return out


def _class_combination(r, f, b, idx, signs) -> tuple[np.ndarray, np.ndarray]:
    """(x, certified): x[i] rounds sum_c signs[i, c] X[idx[i, c]], where
    each X is an exact sum known as r + f + d with |d| <= b + 2^-1075 (the
    (r, f, b) of _two_sum_tree), and certified[i] says that x[i] is that
    sum rounded to nearest.  Every sign is +1, -1 or 0.

    The 2C signed values s r and s f of each row i are summed by
    _two_sum_tree into (y, e, b'), so the exact combination is
    x = y + e + d' + sum_c s_c d_c with |d'| <= b' + 2^-1075.  y is kept
    when |y| >= 2^-900 and

        fl(|e| + fl(fl(2 B) + h 2^-60)) < h,   B = fl(b' + fl(sum_c |s_c| b_c)),

    with h half the smaller gap beside y, as in _row_sums.  Proof: for
    |y| >= 2^-900, h >= 2^-954, so h 2^-60 >= 2^-1014 is exact and
    normal.  B, a float sum of at most 9 non-negative terms, is at least
    (1 - 8u) times their exact sum less 9 * 2^-1075, so the rounded
    fl(2 B) + h 2^-60 exceeds b' + sum |s_c| b_c + (C + 1) 2^-1075 for
    C <= 8.  As in _row_sums the test then gives
    |x - y| <= |e| + b' + sum |s_c| b_c + (C + 1) 2^-1075 < h, so x lies
    strictly inside the interval of reals that round to y.  The signs
    are exact, the inputs stay below 2^1000 and 2C <= 16 of them below
    2^1004, so no step overflows; a nan input (an unknown class sum)
    certifies nothing.
    """
    top, rem, bound = _two_sum_tree(np.concatenate((signs * r[idx], signs * f[idx]), axis=1))
    half = np.abs(top - np.nextafter(top, 0.0)) / 2
    bound += (np.abs(signs) * b[idx]).sum(axis=1)
    slack = 2.0 * bound + half * 2.0**-60
    return top, (np.abs(top) >= 2.0**-900) & (np.abs(rem) + slack < half)


def _box_points(a_prime, nrad: int) -> int:
    """The number of rows of _lattice_two_m(a_prime, nrad)."""
    return math.prod(2 * nrad + 1 - aj % 2 for aj in a_prime)


def _box_group(group) -> tuple[np.ndarray, list, None]:
    """(two_m, spans, None) for a group of boxes, given as (coset, radius,
    bounds): their lattices concatenated, filled box by box and
    column-major as _lattice_two_m lays them out (the matrix products of
    _exp_terms round by the layout of their operands), and the (start,
    stop) of each."""
    sizes = [_box_points(coset[0].a_prime, nrad) for coset, nrad, _ in group]
    ends = list(itertools.accumulate(sizes))
    spans = list(zip([0] + ends[:-1], ends))
    if len(group) == 1:
        return _lattice_two_m(group[0][0][0].a_prime, group[0][1]), spans, None
    two_m = np.empty((ends[-1], len(group[0][0][0].a_prime)), dtype=np.int64, order="F")
    for (coset, nrad, _), (s, e) in zip(group, spans):
        two_m[s:e] = _lattice_two_m(coset[0].a_prime, nrad)
    return two_m, spans, None


@lru_cache(maxsize=None)
def _hadamard(genus: int) -> np.ndarray:
    """(-1)^popcount(x & c) for codes x, c in [0, 2^g): row x holds the
    sign of each parity class c under the characteristics with a'' of
    code x."""
    codes = np.arange(2**genus)
    bits = np.array([bin(v).count("1") for v in range(2**genus)])
    return _frozen(1.0 - 2.0 * (bits[codes[:, None] & codes[None, :]] % 2))


class _CosetPlan(NamedTuple):
    """How _group_sums sums a coset by parity class.

    ks lists the degrees any characteristic of the coset sums and count
    the number of class rows formed: weighted row j of the degrees ks
    over the points of class c is row j 2^g + c.  For each sum of
    _coset_sums, in its order, rows holds its 2^g class rows, signs their
    signs and turns its power of i."""

    ks: tuple
    count: int
    rows: np.ndarray
    signs: np.ndarray
    turns: np.ndarray


@lru_cache(maxsize=1024)
def _coset_sums(coset: tuple, degrees: tuple, fold: bool) -> tuple[tuple, tuple]:
    """(summed, sums) of a coset: per characteristic the degrees it sums,
    all but those the fold makes 0, and every sum returned, in output
    order, as (position in coset, degree, row of _basis)."""
    genus = coset[0].genus
    summed = tuple(tuple(k for k in degrees if not (fold and (k + a.weight) % 2)) for a in coset)
    sums = tuple((pos, k, j) for pos, ks in enumerate(summed) for k in ks
                 for j in range(len(_basis(genus, k)[0])))
    return summed, sums


@lru_cache(maxsize=1024)
def _coset_plan(coset: tuple, degrees: tuple, fold: bool) -> _CosetPlan | None:
    """The _CosetPlan of a coset whose classes form fewer weighted rows
    than its characteristics would form of their own, else None (a coset
    of one characteristic always).  The sum of a (a'' of code x) over
    weighted row j is i^|a| sum_c (-1)^popcount(x & c) row (j, c)."""
    genus = coset[0].genus
    summed, sums = _coset_sums(coset, degrees, fold)
    size = {k: len(_basis(genus, k)[0]) for k in degrees if any(k in s for s in summed)}
    if sum(size.values()) >= len(sums):
        return None
    first = dict(zip(size, itertools.accumulate(size.values(), initial=0)))
    codes = [int("".join(map(str, a.a_double_prime)), 2) for a in coset]
    rows = [(first[k] + j) * 2**genus + np.arange(2**genus) for _, k, j in sums]
    return _CosetPlan(tuple(size), sum(size.values()) << genus, _frozen(np.array(rows, dtype=np.intp)),
                      _frozen(_hadamard(genus)[[codes[pos] for pos, *_ in sums]]),
                      _frozen(np.array([coset[pos].weight % 4 for pos, *_ in sums], dtype=np.intp)))


def _class_layout(two_m: np.ndarray, a_prime) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(order, classes, places, largest) for the doubled points two_m of
    one a' coset: the order of the points by parity class c = n mod 2 (c
    read as a binary number, n_1 its high bit), and, in that order, each
    point's class, its place among the points of its class, and the size
    of the largest class."""
    classes = ((two_m - np.array(a_prime)) // 2 % 2) @ (1 << np.arange(len(a_prime))[::-1])
    order = np.argsort(classes, kind="stable")
    sizes = np.bincount(classes, minlength=2 ** len(a_prime))
    places = np.arange(len(order)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return order, classes[order], places, int(sizes.max())


@lru_cache(maxsize=128)
def _small_class_layout(a_prime: tuple, nrad: int):
    """_class_layout of a box, read-only, kept for boxes of at most 1024
    points."""
    order, classes, places, largest = _class_layout(_lattice_two_m(a_prime, nrad), a_prime)
    return _frozen(order), _frozen(classes), _frozen(places), largest


def _block_sums(chunks, count: int, width: int):
    """Write count complex rows, given as chunks [rows, n] with n <= width,
    into blocks of at most _BLOCK_BYTES (at least one row) and yield each
    block once it is filled: the real parts of its rows, then their
    imaginary parts, each padded with -0.0 to width.  The blocks share
    one buffer, so each is to be summed before the next is asked for."""
    per_block = max(1, _BLOCK_BYTES // (16 * width))
    buffer = np.empty((2 * min(per_block, count), width))
    start, size, filled = 0, min(per_block, count), 0
    block = buffer[:2 * size]
    for rows in chunks:
        done, n = 0, rows.shape[1]
        while done < len(rows):
            take = min(len(rows) - done, size - filled)
            part = rows if take == len(rows) else rows[done:done + take]
            block[filled:filled + take, :n] = part.real
            block[size + filled:size + filled + take, :n] = part.imag
            if n < width:
                block[filled:filled + take, n:] = -0.0
                block[size + filled:size + filled + take, n:] = -0.0
            done += take
            filled += take
            if filled < size:
                continue
            yield block
            start += size
            size, filled = min(per_block, count - start), 0
            block = buffer[:2 * size]


def _group_sums(group, lattice, z, tau: SiegelPoint, degrees, fold: bool):
    """Yield (a, {k: sums}, value bound, radius) for the characteristics of
    a group of consecutive a' cosets, each given as (coset, radius,
    bounds): per degree k, the exactly rounded sums of m_j ... m_p term(m)
    over the coset's points, one per row of _basis(g, k)[0].

    lattice is (two_m, spans, sizes): the group's points, coset by coset
    and column-major, the (start, stop) of each coset's rows and the
    sizes of each coset's classes, for the class-ordered points of
    _Ellipsoid (None for boxes, which _class_layout orders).  Each term
    and weight has the bits it has for its coset alone, and each weight
    is exact: every partial product of up to four half-integers
    |m_j| <= _MAX_RADIUS is K/16 with |K| <= 800^4 < 2^39.

    Each sum has one of two sources.
    - The class combination, for a coset whose classes pay (_coset_plan).
      For m = n + a'/2 the phase of a'' is i^|a| (-1)^(n.a''), exactly,
      so with S_c the sum of w(m) term(m) over the points of class
      c = n mod 2, the sum of a with weight w is
      i^|a| sum_c (-1)^(c.a'') S_c, and the coset forms each weighted row
      once, not once per characteristic.  The exact sums agree; the
      rounded class sums do not (adding them moves the last bit of about
      40% of the sums).  So each S_c is kept double-length, as the r + f
      that _two_sum_tree gives the class segments of the rows, and
      _class_combination keeps the signed sum of the classes' r and f
      where its bound proves it the exactly rounded sum, fsum's.
    - The own-row stream, for every other sum: those of the cosets whose
      classes do not pay (every theta_jet), and those the combination
      leaves open (a zero sum, one below 2^-900, one from a block holding
      inf or nan, one whose last bit the bound cannot settle).  Each is
      summed from its own row w(m) term_a(m) by _row_sums, with fsum's
      bits, one characteristic's phased terms alive at a time.

    With fold (no z term) the points are one of each pair m, -m of the
    ellipsoid: the exponent of -m is bitwise that of m, the phase picks
    up (-1)^|a| and a weight of degree k picks up (-1)^k.  So every sum of
    a degree with k + |a| odd is exactly 0, returned as +0.0 + 0.0j, the
    bits fsum gives for any zero sum; every other sum is the exactly
    rounded sum of the origin term (first in its coset, when a' = 0) once
    and of (weight * term) * 2 over the other points.  Doubling is exact,
    so the folded sums have the bits of the sums over the whole
    ellipsoid, and each class holds the origin once and its other points
    twice, so the class identity holds for them too.

    _block_sums writes the real and imaginary parts of each stream's rows
    into blocks of at most _BLOCK_BYTES (at least one row): the class
    rows as many at once as fill a block, as wide as the group's largest
    class, and the own rows as wide as its longest coset.  A shorter row
    is padded with -0.0, which adds nothing to any sum, the sign of a
    zero sum included, so a row's bits do not depend on its block; a
    class segment is padded with the zero term of a point that is not
    there (its zero sums fall back).
    """
    genus = tau.genus
    two_m, spans, sizes = lattice
    m = two_m.T.astype(np.float64, order="C") / 2.0  # one row per axis
    base = _exp_terms(two_m, tau.tau, z)
    if fold:
        multiplicity = np.full(len(two_m), 2.0)
        for (coset, *_), (s, _) in zip(group, spans):
            if not any(coset[0].a_prime):
                multiplicity[s] = 1.0  # the origin

    def weights(points, monomials):
        """The weights m_j ... m_p over points of monomials, one array each
        (for degree 1 the rows of m themselves)."""
        box_m, out = m[:, points], []
        for j, *rest in monomials:
            w = box_m[j]
            for p in rest:
                w = w * box_m[p]
            out.append(w)
        return out

    def weighted(points, monomials, t, step=1):
        """The rows w(m) t(m) over points for monomials (t itself for the
        monomial of degree 0), step rows at a time, with the
        multiplicities of the fold."""
        if monomials[0]:
            w = weights(points, monomials)
            chunks = ((w[i][None] if step == 1 else np.stack(w[i:i + step])) * t
                      for i in range(0, len(w), step))
        else:
            chunks = [t[None]]
        mult = multiplicity[points] if fold else None
        for rows in chunks:
            yield mult * rows if fold else rows

    # per coset: the degrees each characteristic sums and its sums, and
    # the sums' values, from the class combination or from own rows
    summed = [_coset_sums(tuple(coset), tuple(degrees), fold) for coset, *_ in group]
    plans = [_coset_plan(tuple(coset), tuple(degrees), fold) for coset, *_ in group]
    # a coset with no point (a' != 0, a small ellipsoid) sums nothing: fsum's +0.0
    empty = {i for i, (s, e) in enumerate(spans) if s == e}
    values = [[0j if i in empty else None] * len(sums) for i, (_, sums) in enumerate(summed)]
    # (coset, the numbers of its sums formed from their own rows)
    own = [(i, range(len(sums))) for i, (_, sums) in enumerate(summed) if plans[i] is None and i not in empty]
    classed = [i for i, plan in enumerate(plans) if plan and i not in empty]
    if classed:
        # each classed coset's points by class, padded to the group's
        # largest class with a zero term
        if sizes is None:
            layouts = {i: _small_class_layout(group[i][0][0].a_prime, group[i][1])
                       if spans[i][1] - spans[i][0] <= 1024
                       else _class_layout(two_m[slice(*spans[i])], group[i][0][0].a_prime) for i in classed}
            width = max(layout[3] for layout in layouts.values())
            where = {}
            for i, (order, classes, places, _) in layouts.items():
                where[i] = np.full(width << genus, len(two_m))
                where[i][classes * width + places] = spans[i][0] + order
        else:  # the points come in class order
            counts = sizes[classed]
            width, grid = int(counts.max()), np.arange(counts.max())
            starts = np.array([spans[i][0] for i in classed])[:, None] + np.cumsum(counts, axis=1) - counts
            where = np.where(grid < counts[..., None], starts[..., None] + grid, len(two_m))
            where = dict(zip(classed, where.reshape(len(classed), -1)))
        m, base = np.append(m, np.zeros((genus, 1)), axis=1), np.append(base, 0j)
        if fold:
            multiplicity = np.append(multiplicity, 0.0)
        step = max(1, _BLOCK_BYTES // (16 * width) >> genus)
        rows = (split.reshape(-1, width) for i in classed for k in plans[i].ks
                for split in weighted(where[i], _monomials(genus, k), base[where[i]], step))
        count = sum(plans[i].count for i in classed)
        trees = [np.array(_two_sum_tree(block)) if _in_range(block) else np.full((3, len(block)), np.nan)
                 for block in _block_sums(rows, count, width)]
        r, f, b = np.concatenate([t[:, :t.shape[1] // 2] for t in trees]
                                 + [t[:, t.shape[1] // 2:] for t in trees], axis=1)
        offsets = itertools.accumulate((plans[i].count for i in classed), initial=0)
        gather = np.concatenate([plans[i].rows + o for i, o in zip(classed, offsets)])
        signs = np.concatenate([plans[i].signs for i in classed])
        x, ok = _class_combination(r, f, b, np.concatenate((gather, gather + count)),
                                   np.concatenate((signs, signs)))
        half = len(gather)
        re, im, turns = x[:half], x[half:], np.concatenate([plans[i].turns for i in classed])
        combined = np.empty(half, dtype=complex)
        combined.real = np.choose(turns, [re, -im, -re, im])
        combined.imag = np.choose(turns, [im, re, -im, -re])
        combined = combined.tolist()
        missed = np.flatnonzero(~(ok[:half] & ok[half:])).tolist()
        starts = itertools.accumulate((len(summed[i][1]) for i in classed), initial=0)
        for i, start in zip(classed, starts):
            stop = start + len(values[i])
            values[i] = combined[start:stop]
            numbers = [n - start for n in missed if start <= n < stop]
            if numbers:
                own.append((i, numbers))

    def own_rows():
        for i, numbers in own:
            s, e = spans[i]
            sums = summed[i][1]
            for pos, of_a in itertools.groupby(map(sums.__getitem__, numbers), itemgetter(0)):
                t = base[s:e] * _phase_factors(two_m[s:e], group[i][0][pos].a_double_prime)
                for k, of_k in itertools.groupby(of_a, itemgetter(1)):
                    monomials = _monomials(genus, k)
                    yield from weighted(slice(s, e), [monomials[j] for *_, j in of_k], t)

    redone, width = [], max(e - s for s, e in spans)
    for block in _block_sums(own_rows(), sum(len(numbers) for _, numbers in own), width) if own else ():
        flat = _row_sums(block)
        redone.extend(map(complex, flat[:len(flat) // 2], flat[len(flat) // 2:]))
    redone = iter(redone)
    for i, numbers in own:
        for n in numbers:
            values[i][n] = next(redone)

    for (coset, nrad, bounds), (of_coset, _), sums in zip(group, summed, values):
        start = 0
        for a, degrees_of_a in zip(coset, of_coset):
            out = {}
            for k in degrees:
                size = len(_basis(genus, k)[0])
                if k in degrees_of_a:
                    out[k], start = sums[start:start + size], start + size
                else:
                    out[k] = [0j] * size
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
    """Termwise z = 0 lattice moments of the characteristic a, plain data:
    value = theta_a(0, tau); t1[j] = sum m_j term (equals the gradient
    over 2 pi i); t2[j, l] = sum m_j m_l term (equals delta_jl theta_a);
    t4[j, l, m, p] = sum m_j m_l m_m m_p term.  The arrays are read-only,
    t2 and t4 full and symmetric, None below order 2 and 4 of the batch."""

    value: complex
    t1: np.ndarray
    t2: np.ndarray | None
    t4: np.ndarray | None
    tail_bound: float
    radius: int
    a: Characteristic


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class PointRecord:
    """The z = 0 moments of several characteristics at one tau, row i
    holding chars[i]: value[n], t1[n, g], t2[n, g, g], t4[n, g, g, g, g]
    (None below the order of the batch) and tail_bound[n], read-only.

    psi, delta_psi, psi_sq and eta are formed for every row on first read
    and kept.  A read returns the rows asked for (all by default), or
    raises NearZeroThetanull naming the first whose thetanull lies within
    10^3 of its certified tail bound (such rows hold inf or nan), or
    ValueError above the record's order."""

    chars: tuple[Characteristic, ...]
    value: np.ndarray
    t1: np.ndarray
    t2: np.ndarray | None
    t4: np.ndarray | None
    tail_bound: np.ndarray

    @classmethod
    def stack(cls, moments) -> PointRecord:
        """The record of an iterable of Moments, in its order."""
        ms = list(moments)
        stacks = ([getattr(m, f) for m in ms] for f in ("value", "t1", "t2", "t4", "tail_bound"))
        return cls(tuple(m.a for m in ms),
                   *(None if s[0] is None else _frozen(np.array(s)) for s in stacks))

    def psi(self, rows=slice(None)) -> np.ndarray:
        """psi_a = t2 / theta_a, [n, g, g] or the rows asked for."""
        return self._psi[self._guard(rows)]

    def delta_psi(self, rows=slice(None)) -> np.ndarray:
        """The quartic forms delta(psi_a), psi read as the raw t2 / theta_a."""
        return self._delta_psi[self._guard(rows)]

    def psi_sq(self, rows=slice(None)) -> np.ndarray:
        """The quartic forms psi_a(u)^2."""
        return self._psi_sq[self._guard(rows)]

    def eta(self, a, b) -> np.ndarray:
        """eta_{a,b} = det(psi_b - psi_a) for rows a, b: integers or index arrays."""
        eta = self._eta
        self._guard(np.stack(np.broadcast_arrays(a, b), axis=-1))
        return eta[a, b]

    def _guard(self, rows):
        for i in np.arange(len(self.chars))[rows].ravel().tolist():
            if abs(self.value[i]) <= 1e3 * self.tail_bound[i]:
                raise NearZeroThetanull(
                    f"thetanull {self.chars[i].label()}: |theta| = {abs(self.value[i]):.3g} is "
                    f"within 10^3 of the certified tail bound {self.tail_bound[i]:.3g}"
                )
        return rows

    @cached_property
    def _quotient(self) -> np.ndarray:
        if self.t2 is None:
            raise ValueError("psi needs moments of order 2")
        with np.errstate(all="ignore"):
            return self.t2 / self.value[:, None, None]

    @cached_property
    def _psi(self) -> np.ndarray:
        return _frozen(self._quotient + 0.0)  # turns -0.0 into +0.0

    @cached_property
    def _delta_psi(self) -> np.ndarray:
        if self.t4 is None:
            raise ValueError("delta_psi needs moments of order 4")
        with np.errstate(all="ignore"):
            full = self.t4 / self.value[:, None, None, None, None] - _outer_squares(self._quotient)
            return _frozen(_symmetrize(full))

    @cached_property
    def _psi_sq(self) -> np.ndarray:
        with np.errstate(all="ignore"):
            return _frozen(square_forms(self._psi))

    @cached_property
    def _eta(self) -> np.ndarray:
        with np.errstate(all="ignore"):
            return _frozen(np.linalg.det(self._psi[None, :] - self._psi[:, None]))


def _sums(chars, z, tau: SiegelPoint, eps_by_weight: dict, degrees):
    """Yield (a, sums, value bound, radius) for each a in chars, a' coset
    by a' coset in order of first appearance: one pass over the point.

    Without a z term one _Ellipsoid certifies every weight and counts
    every coset's points; otherwise one _AxisSums serves the _radius_scan
    of every coset's box.  Either way every coset is counted before any
    lattice is built, so a refused call allocates no points.  _group_sums
    then sums groups of consecutive cosets of at most _GROUP_POINTS
    summed points, so that shallow cosets, whose cost is call overhead,
    share one lattice, _exp_terms and block buffer, and a deep coset runs
    alone (sharing, the rounds of a genus-2 campaign peaked at 45.2 MiB
    resident, against 42.5 MiB)."""
    cosets: dict[tuple, list[Characteristic]] = {}
    for a in dict.fromkeys(chars):
        if a.genus != tau.genus:
            raise ValueError("characteristic and point have different genus")
        cosets.setdefault(a.a_prime, []).append(a)
    fold = _nonzero_z(z, tau.genus) is None
    if fold:
        ball = _Ellipsoid(tau, eps_by_weight, list(cosets))
        entries = [(coset, ball.radius, ball.bounds) for coset in cosets.values()]
        sizes, lattice = ball.counts, ball.points
    else:
        axis = _AxisSums(_imag_norm(z, tau.genus))
        entries = [(coset, *_radius_scan(tau, z, a_prime, eps_by_weight, axis))
                   for a_prime, coset in cosets.items()]
        sizes = [_box_points(coset[0].a_prime, nrad) for coset, nrad, _ in entries]
        lattice = lambda first, stop: _box_group(entries[first:stop])  # noqa: E731
    first, points = 0, 0
    for i, size in enumerate(sizes):
        if i > first and points + size > _GROUP_POINTS:
            yield from _group_sums(entries[first:i], lattice(first, i), z, tau, degrees, fold)
            first, points = i, 0
        points += size
    yield from _group_sums(entries[first:], lattice(first, len(entries)), z, tau, degrees, fold)


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
        t1 = _frozen(np.array(s[1]))
        t2, t4 = (_frozen(np.array(s[k])[_basis(a.genus, k)[1]]) if k in s else None
                  for k in (2, 4))
        out[a] = Moments(s[0][0], t1, t2, t4, bound, nrad, a)
    return out


# ----------------------------------------------------------------------
# quartic forms: dense vectors over _basis(g, 4)
# ----------------------------------------------------------------------

def _symmetrize(full: np.ndarray) -> np.ndarray:
    """The quartic forms with 4-index arrays full[..., j, l, m, p]: each
    monomial's coefficient sums its index orderings, in C order."""
    keys, index = _basis(full.shape[-1], 4)
    out = np.zeros(full.shape[:-4] + (len(keys),), dtype=complex)
    np.add.at(out, (..., index.reshape(-1)), full.reshape(full.shape[:-4] + (-1,)))
    return out


def _outer_squares(phi: np.ndarray) -> np.ndarray:
    """phi_jl phi_mp for a stack [n, g, g], row by row: numpy rounds a
    complex product by the length of its loop (one element, as at genus
    1, is not fused), so each row keeps the bits of its own product."""
    return np.array([np.multiply.outer(p, p) for p in phi])


def square_forms(phi: np.ndarray) -> np.ndarray:
    """The quartic forms phi(u)^2 of a stack [n, g, g] of symmetric
    coefficient arrays, a -0.0 entry read as +0.0 (as PointRecord.psi does)."""
    return _symmetrize(_outer_squares(phi + 0.0))


def quartic_monomials(u) -> np.ndarray:
    """The degree-4 monomials of u in basis order: a quartic form q, or a
    stack of them, takes the value q @ quartic_monomials(u) at u."""
    u = np.asarray(u, dtype=complex)
    return u[_basis(len(u), 4)[0]].prod(axis=1)
