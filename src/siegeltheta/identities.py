"""Numeric verification of the thetanull identities at seeded sample points.

Each check draws deterministic samples from a SamplePlan, sweeps every
admissible characteristic (never a random subset), and reports the worst
absolute and scale-normalized residual together with the witness that
attains it.  Relative residuals divide by the largest magnitude among
the terms entering the identity at that instance, so checks that mix
very large powers stay meaningful.

Every check has the one signature check_*(genus, plan, eps, tol) and
returns an IdentityCheck, which collects its own residuals (add) and
sets its status (finish).  A check whose accuracy is limited by its own
method has a tolerance floor and records the effective tolerance,
effective_tol(name, tol): heat_equation and phi_leading use
max(tol, 1e-8), transformation uses max(tol, TRANSFORMATION_TOL).  The
floors live in TOLERANCE_FLOORS, which the command line also reads for a
check the kernel refuses.

The checks index characteristics by position in characteristics.char_table.
Every z = 0 datum reaches a check through one point record, _point: the
theta.PointRecord of one batch of moments at one tau, rows in position
order, which forms psi, delta(psi), psi^2 and eta on first read and
refuses a near-zero thetanull only in the rows a check reads.  The
exceptions: riemann_quartic takes its values at z = 0 from the
theta_values pass beside those at z and 2z, heat_equation differences
values at shifted taus, and weight2_diagonal and phi_leading compare
with genus-1 references (halphen.genus1_data).

A sweep over characteristics is array arithmetic: a check signs and sums
the record's stacks through the char_table matrices (pairing, cross,
weight[add]), and hands whole arrays of residuals and scales to
IdentityCheck.add, with a witness string or a function of the flat index
of the worst element.  add keeps the largest absolute residual (NaN
skipped) and the first largest relative one in C order, so interleaved
residual kinds are stacked in the order they would be added one by one.
The genus-2 thetanull formulas keep Python complex arithmetic, and
_modulus gives arrays Python's abs: numpy rounds complex division and
abs otherwise, which would move the reported bits.

The registry at the bottom maps stable check names to these functions
and their supported genera; run_check is the one place that refuses a
check at a genus it does not support.  The command line and the
acceptance suite both consume it.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
import operator
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from functools import reduce

import numpy as np

from .characteristics import Characteristic, char_table, digit_decode
from .exactpoly import phi_expressions
from .siegel import SiegelPoint, act, cocycle_factor, random_gamma_48
from .theta import DEFAULT_EPS, PointRecord, batch_moments
from .theta import quartic_monomials, square_forms, theta_values
from .halphen import genus1_data

__all__ = [
    "SamplePlan",
    "IdentityCheck",
    "REGISTRY",
    "run_check",
    "checks_for_genus",
    "effective_tol",
    "point_memo",
    "check_riemann_quartic",
    "check_heat_equation",
    "check_second_order_system",
    "check_odd_gradient_squared",
    "check_odd_gradient_fourth",
    "check_transformation_laws",
    "check_weight2_diagonal",
    "check_gopel_quartet",
    "check_gopel_single",
    "check_genus2_quadratic",
    "check_genus2_quartic",
    "check_eta_explicit",
    "check_eta_product",
    "check_power72",
    "check_chi_relation",
    "check_phi_relation",
    "check_phi_leading",
]

DEFAULT_TOL = 1e-9
#: transformation-law checks visit points deep in the half-space where the
#: congruence factors amplify absolute error.  With the kernel's phase
#: reduced exactly the worst residual measured is 2.4e-10 (genus 2,
#: SamplePlan(seed=24, count=10)), so the floor is the default tolerance
TRANSFORMATION_TOL = 1e-9
#: checks whose own method limits their accuracy, with the least tolerance
#: each applies: tau finite differences (heat_equation), a 32nd power of a
#: thetanull (phi_leading) and congruence factors (transformation)
TOLERANCE_FLOORS = {
    "heat_equation": 1e-8,
    "phi_leading": 1e-8,
    "transformation": TRANSFORMATION_TOL,
}

_FD_STEP = 1e-5
#: words of the level-(4,8) theta group drawn by the transformation check
_GAMMA_COUNT = 10


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic sample-point generator.

    tau = X + iY with X symmetric, entries uniform in [-re_range, re_range],
    Y = D + S with D diagonal uniform in [diag_min, diag_max] and S symmetric
    uniform in [-offdiag, offdiag]; z entries have real and imaginary parts
    uniform in [-z_box, z_box].  The same (seed, parameters) always produce
    the same sequence.
    """

    seed: int = 0
    count: int = 20
    re_range: float = 1.0
    diag_min: float = 0.8
    diag_max: float = 2.0
    offdiag: float = 0.1
    z_box: float = 0.25

    def _rng(self, genus: int, salt: int = 0):
        return np.random.default_rng([self.seed, genus, salt])

    def tau_points(self, genus: int) -> list[SiegelPoint]:
        rng = self._rng(genus)
        pts = []
        for _ in range(self.count):
            pts.append(self._one_tau(rng, genus))
        return pts

    def _one_tau(self, rng, genus: int) -> SiegelPoint:
        x = rng.uniform(-self.re_range, self.re_range, (genus, genus))
        x = (x + x.T) / 2
        d = np.diag(rng.uniform(self.diag_min, self.diag_max, genus))
        s = rng.uniform(-self.offdiag, self.offdiag, (genus, genus))
        s = (s + s.T) / 2
        return SiegelPoint(genus, x + 1j * (d + s))

    def tau_z_points(self, genus: int) -> list[tuple[SiegelPoint, np.ndarray]]:
        rng = self._rng(genus, salt=1)
        out = []
        for _ in range(self.count):
            pt = self._one_tau(rng, genus)
            z = rng.uniform(-self.z_box, self.z_box, genus) + 1j * rng.uniform(
                -self.z_box, self.z_box, genus
            )
            out.append((pt, z))
        return out

    def scalar_taus(self) -> list[complex]:
        """Genus-1 style scalar points (for scalar-diagonal constructions)."""
        rng = self._rng(1, salt=2)
        out = []
        for _ in range(self.count):
            out.append(
                complex(
                    rng.uniform(-self.re_range, self.re_range),
                    rng.uniform(self.diag_min, self.diag_max),
                )
            )
        return out


@dataclass
class IdentityCheck:
    """Result record of one identity check."""

    name: str
    genus: int
    sample_count: int
    seed: int
    tolerance: float
    max_abs_residual: float = 0.0
    max_rel_residual: float = 0.0
    status: str = "pass"
    witness: str = ""
    notes: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)

    def add(self, abs_res: float | np.ndarray, scale: float | np.ndarray,
            witness: str | Callable[[int], str]):
        """Record residuals, a float or an array with scale of the same
        shape; keep the worst and remember where it happened.  witness
        is a string or a function of the flat index of the worst element,
        called only when that element is the new worst; the first worst
        in C order wins, as if the elements were added one by one."""
        abs_res, scale = np.asarray(abs_res, dtype=float), np.asarray(scale, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(scale > 0, abs_res / scale, np.where(abs_res == 0, 0.0, np.inf))
        # a NaN or infinite residual or scale fails the check
        rel = np.where(np.isfinite(abs_res) & np.isfinite(scale), rel, np.inf).ravel()
        worst_abs = np.fmax.reduce(abs_res.ravel())  # NaN only if every residual is NaN
        if worst_abs > self.max_abs_residual:
            self.max_abs_residual = float(worst_abs)
        i = int(np.argmax(rel))
        if rel[i] > self.max_rel_residual:
            self.max_rel_residual = float(rel[i])
            self.witness = witness(i) if callable(witness) else witness

    def finish(self) -> IdentityCheck:
        self.status = "pass" if self.max_rel_residual <= self.tolerance else "fail"
        return self


def effective_tol(name: str, tol: float) -> float:
    """The tolerance check `name` applies when tol is requested: tol, or
    its floor in TOLERANCE_FLOORS when that is larger."""
    floor = TOLERANCE_FLOORS.get(name)
    return tol if floor is None else max(tol, floor)


# ----------------------------------------------------------------------
# the point record
# ----------------------------------------------------------------------

#: the point records of the open campaign, keyed by (tau bytes, eps,
#: order, positions); None outside a campaign
_POINTS: contextvars.ContextVar[dict | None] = contextvars.ContextVar("points", default=None)


@contextlib.contextmanager
def point_memo():
    """Share point records among the checks run inside: each _point is
    computed once and read by every check that asks for it, and the
    records are dropped on exit, also when a check raises."""
    token = _POINTS.set({})
    try:
        yield
    finally:
        _POINTS.reset(token)


def _point(tau: SiegelPoint, eps: float, order: int = 2, positions=None) -> PointRecord:
    """z = 0 data at one tau from one batch of moments: the PointRecord of
    the characteristics at positions in char_table (every even one by
    default), to the given order, its rows in that order.

    Inside point_memo (a campaign) the record is made once per (tau,
    eps, order, positions) and shared, and the batch is dropped once
    stacked; the key holds the order, since a higher order takes a
    larger box and so other bits.  A call that raises stores nothing,
    and outside point_memo nothing is kept.  Shared records are
    read-only: their arrays refuse writes."""
    table = char_table(tau.genus)
    positions = table.even if positions is None else tuple(positions)
    memo = _POINTS.get()
    key = (tau.tau.tobytes(), eps, order, positions)
    if memo is not None and key in memo:
        return memo[key]
    chars = [table.chars[i] for i in positions]
    moments = batch_moments(chars, tau, eps, order=order)
    record = PointRecord.stack(moments[a] for a in chars)
    if memo is not None:
        memo[key] = record
    return record


# ----------------------------------------------------------------------
# Riemann quartic relation
# ----------------------------------------------------------------------

def check_riemann_quartic(
    genus: int,
    plan: SamplePlan,
    eps: float = DEFAULT_EPS,
    tol: float = DEFAULT_TOL,
) -> IdentityCheck:
    """theta_{a+c}^2(z) theta_a^2(z) =
    2^-g sum_b (-1)^<a,b> (-1)^(c'.(a''+b'')) theta_{b+c}(2z) theta_{b+c}(0) theta_b^2(0),
    swept over all characteristics a, c at every sampled (z, tau)."""
    check = IdentityCheck("riemann_quartic", genus, plan.count, plan.seed, tol)
    table = char_table(genus)
    allc, add, n = table.chars, table.add, len(table.chars)
    pair_sign = 1.0 - 2.0 * table.pairing
    sign2 = 1.0 - 2.0 * table.cross  # sign2[c, x] = (-1)^(c' . x'')
    for k, (tau, z) in enumerate(plan.tau_z_points(genus)):
        values = [theta_values(allc, w, tau, eps) for w in (None, z, 2 * z)]
        v0, vz, v2z = (np.array([v[a] for a in allc]) for v in values)
        w = v2z[add] * v0[add] * v0**2  # w[c, b]
        rhs = sign2 * ((sign2 * w) @ pair_sign) / 2**genus  # rhs[c, a]
        lhs = vz[add] ** 2 * vz**2
        scale = np.maximum(np.abs(lhs), np.abs(w).max(axis=1, keepdims=True) / 2**genus)
        check.add(
            np.abs(lhs - rhs),
            scale,
            lambda i: f"sample={k} a={allc[i % n].label()} c={allc[i // n].label()}",
        )
    return check.finish()


# ----------------------------------------------------------------------
# kernel heat-equation consistency
# ----------------------------------------------------------------------

def check_heat_equation(
    genus: int,
    plan: SamplePlan,
    eps: float = DEFAULT_EPS,
    tol: float = DEFAULT_TOL,
) -> IdentityCheck:
    """Termwise delta_jl theta against central finite differences in tau
    (step 1e-5, derivative normalization 1/pi i on the diagonal and
    1/2 pi i off it), at every even characteristic.  The finite
    differences limit the agreement, so the tolerance is at least 1e-8."""
    check = IdentityCheck(
        "heat_equation", genus, plan.count, plan.seed, effective_tol("heat_equation", tol)
    )
    table = char_table(genus)
    evens = [table.chars[i] for i in table.even]
    h = _FD_STEP
    for k, tau in enumerate(plan.tau_points(genus)):
        record = _point(tau, eps)
        t2, magnitudes = record.t2, np.abs(record.value)
        for j in range(genus):
            for l in range(j, genus):
                shift = np.zeros((genus, genus))
                shift[j, l] = shift[l, j] = h
                vp = theta_values(evens, None, SiegelPoint(genus, tau.tau + shift), eps)
                vm = theta_values(evens, None, SiegelPoint(genus, tau.tau - shift), eps)
                norm = 1j * math.pi if j == l else 2j * math.pi
                fd = np.array([vp[a] - vm[a] for a in evens]) / (2 * h) / norm
                check.add(
                    np.abs(fd - t2[:, j, l]),
                    np.maximum(np.abs(t2[:, j, l]), magnitudes),
                    lambda i: f"sample={k} a={evens[i].label()} j={j + 1} l={l + 1}",
                )
    return check.finish()


# ----------------------------------------------------------------------
# Proposition 3 (second-order system as quartic forms)
# ----------------------------------------------------------------------

def check_second_order_system(
    genus: int,
    plan: SamplePlan,
    eps: float = DEFAULT_EPS,
    tol: float = DEFAULT_TOL,
) -> IdentityCheck:
    """theta_a^4 delta(psi_a) = 2^-(g-2) sum_b (-1)^<a,b> theta_b^4 psi_b^2
    - 2 theta_a^4 psi_a^2, as quartic forms, for every even a."""
    check = IdentityCheck("second_order_system", genus, plan.count, plan.seed, tol)
    coeff = 1.0 / 2 ** (genus - 2)
    table = char_table(genus)
    labels = [table.chars[i].label() for i in table.even]
    sign = 1.0 - 2.0 * table.pairing[np.ix_(table.even, table.even)]
    kinds = ("coefficients", "value at u")
    for k, tau in enumerate(plan.tau_points(genus)):
        record = _point(tau, eps, order=4)
        rng = np.random.default_rng([plan.seed, genus, 97, k])
        u = rng.uniform(-1, 1, genus) + 1j * rng.uniform(-1, 1, genus)
        t4 = record.value ** 4
        psi_sq = record.psi_sq()
        lhs = t4[:, None] * record.delta_psi()
        rhs = (-2 * t4)[:, None] * psi_sq + (coeff * sign * t4) @ psi_sq
        scale = np.maximum(np.abs(lhs).max(axis=1), np.abs(rhs).max(axis=1)) + max(
            coeff * np.abs(t4) * np.abs(psi_sq).max(axis=1)
        )
        at_u = quartic_monomials(u)
        check.add(  # per a: [coefficients, value at u]
            np.stack([np.abs(lhs - rhs).max(axis=1), np.abs(lhs @ at_u - rhs @ at_u)], axis=1),
            np.stack([scale, scale * max(1.0, float(np.max(np.abs(u))) ** 4)], axis=1),
            lambda i: f"sample={k} a={labels[i // 2]} ({kinds[i % 2]})",
        )
    return check.finish()


# ----------------------------------------------------------------------
# Proposition 4 (odd z-gradients vs thetanull data)
# ----------------------------------------------------------------------

def _odd_gradient_sweep(check: IdentityCheck, plan: SamplePlan, eps: float, assemble):
    """Sweep every odd a and every j at each sample.  assemble(values,
    psi_diag, grads) reads the values and psi diagonals of the even
    characteristics (rows in position order) and the normalized
    gradients of the odd ones, and returns the left sides, indexed
    [a, j], and the summands of the right sides before their 2^-(g-1)
    prefactor, indexed [a, b, j]."""
    genus = check.genus
    table = char_table(genus)
    labels = [table.chars[a].label() for a in table.odd]
    for k, tau in enumerate(plan.tau_points(genus)):
        record = _point(tau, eps)
        odd = _point(tau, eps, order=1, positions=table.odd)
        # contiguous: numpy's complex loops round by operand layout
        psi_diag = record.psi().diagonal(axis1=1, axis2=2).copy()
        lhs, terms = assemble(record.value, psi_diag, odd.t1)
        rhs = terms.sum(axis=1) / 2 ** (genus - 1)
        check.add(
            np.abs(lhs - rhs),
            np.maximum(np.abs(lhs), np.abs(terms).max(axis=1) / 2 ** (genus - 1)),
            lambda i: f"sample={k} a={labels[i // genus]} j={i % genus + 1}",
        )
    return check.finish()


def check_odd_gradient_squared(
    genus: int,
    plan: SamplePlan,
    eps: float = DEFAULT_EPS,
    tol: float = DEFAULT_TOL,
) -> IdentityCheck:
    """Part (i), for every odd a and every j:
    (d_j theta_a / theta_0)^2 = 2^-(g-1) sum_b (-1)^(a'.b'')
    (theta_{a+b} theta_b / theta_0^2)^2 (psi_{a+b,jj} - psi_{0,jj}),
    with d_j the normalized z-gradient at z = 0."""
    check = IdentityCheck("odd_gradient_squared", genus, plan.count, plan.seed, tol)
    table = char_table(genus)
    a_plus_b = table.add[np.ix_(table.odd, table.even)]
    even_sum = table.weight[a_plus_b] % 2 == 0  # otherwise theta_{a+b} = 0 in the summand
    # the record's row of a+b, and of the zero characteristic where a+b is odd
    row = np.searchsorted(table.even, np.where(even_sum, a_plus_b, 0))
    sign = 1.0 - 2.0 * table.cross[np.ix_(table.odd, table.even)]

    def assemble(values, psi_diag, grads):
        t0 = values[0]  # position 0 is the zero characteristic
        terms = (
            (sign * (values[row] / t0) ** 2 * (values / t0) ** 2)[:, :, None]
            * (psi_diag[row] - psi_diag[0])
        )
        return (grads / t0) ** 2, np.where(even_sum[:, :, None], terms, 0)

    return _odd_gradient_sweep(check, plan, eps, assemble)


def check_odd_gradient_fourth(
    genus: int,
    plan: SamplePlan,
    eps: float = DEFAULT_EPS,
    tol: float = DEFAULT_TOL,
) -> IdentityCheck:
    """Part (ii), for every odd a and every j:
    (d_j theta_a)^4 = 2^-(g-1) sum_b (-1)^|a+b| theta_b^4 psi_{b,jj}^2.

    Implemented with the prefactor 2^-(g-1): the printed 2^-(g-2) fails
    both the genus-1 reduction via the classical product formula for the
    odd derivative and direct numerics, while 2^-(g-1) matches; see the
    project notes.
    """
    check = IdentityCheck("odd_gradient_fourth", genus, plan.count, plan.seed, tol)
    table = char_table(genus)
    sign = 1.0 - 2.0 * (table.weight[table.add[np.ix_(table.odd, table.even)]] % 2)

    def assemble(values, psi_diag, grads):
        return grads**4, sign[:, :, None] * (values[:, None] ** 4 * psi_diag**2)

    return _odd_gradient_sweep(check, plan, eps, assemble)


# ----------------------------------------------------------------------
# transformation laws under the level-(4,8) theta group
# ----------------------------------------------------------------------

def _pair_laws(record: PointRecord) -> tuple[np.ndarray, np.ndarray]:
    """For the pairs a < b of the record's rows, in itertools.combinations
    order: the stacked lambda_0 (psi_b - psi_a) with lambda_0 =
    theta_b / theta_a, and eta_{a,b} = det(psi_b - psi_a)."""
    psi = record.psi()
    a, b = np.triu_indices(len(psi), 1)
    return (record.value[b] / record.value[a])[:, None, None] * (psi[b] - psi[a]), record.eta(a, b)


def _legendre_derivative(record: PointRecord) -> complex:
    """delta(lambda) = 4 lambda (psi_10 - psi_00) at a genus-1 point, with
    lambda = (theta_10 / theta_00)^4; 00 and 10 are rows 0 and 2."""
    v00, v10 = record.value[[0, 2]].tolist()
    p00, p10 = record.psi([0, 2])[:, 0, 0].tolist()
    return 4 * (v10 / v00) ** 4 * (p10 - p00)


def check_transformation_laws(
    genus: int,
    plan: SamplePlan,
    eps: float = DEFAULT_EPS,
    tol: float = DEFAULT_TOL,
) -> IdentityCheck:
    """For random unipotent words gamma in the level-(4,8) theta group and
    modular quotients lambda_0 = theta_b / theta_a:

      (delta lambda_0)(gamma tau) = C (delta lambda_0)(tau) C^t,  C = c tau + d,
      eta_{a,b}(gamma tau) = det(C)^2 eta_{a,b}(tau),

    and at genus 1 additionally the weight-2 law for the normalized
    derivative of the Legendre lambda function, read from the same two
    point records as the pair laws.

    Words whose cocycle pushes a transformed sample too deep into the
    half-space (tiny smallest eigenvalue of the imaginary part, hence an
    enormous certified box) are deterministically resampled; the law is
    checked where evaluation is affordable.  The tolerance is at least
    TRANSFORMATION_TOL."""
    check = IdentityCheck(
        "transformation", genus, plan.count, plan.seed, effective_tol("transformation", tol)
    )
    table = char_table(genus)
    pairs = [
        f"{table.chars[a].label()},{table.chars[b].label()}"
        for a, b in itertools.combinations(table.even, 2)
    ]
    kinds = ("congruence", "weight 2")
    taus = plan.tau_points(genus)
    gammas = []
    attempt = 0
    while len(gammas) < _GAMMA_COUNT and attempt < 50 * _GAMMA_COUNT:
        gamma = random_gamma_48(plan.seed * 1000 + attempt, 1 + len(gammas) % 3, genus)
        attempt += 1
        if all(act(gamma, t).lambda_min > 5e-3 for t in taus):
            gammas.append(gamma)
    if len(gammas) < _GAMMA_COUNT:
        raise RuntimeError("could not draw enough words with workable margins")
    # per sample (record, pair laws), built at first use to keep the kernel call order
    untransformed = {}
    for kg, gamma in enumerate(gammas):
        for k, tau in enumerate(taus):
            gtau = act(gamma, tau)
            cmat = cocycle_factor(gamma, tau)
            detc2 = complex(np.linalg.det(cmat)) ** 2
            if k not in untransformed:
                data0 = _point(tau, eps)
                untransformed[k] = data0, _pair_laws(data0)
            data0, (m0, eta0) = untransformed[k]
            data1 = _point(gtau, eps)
            m1, eta1 = _pair_laws(data1)
            rhs, eta1_rhs = cmat @ m0 @ cmat.T, detc2 * eta0
            check.add(  # per pair: [congruence, weight 2]
                np.stack([np.abs(m1 - rhs).max(axis=(1, 2)), np.abs(eta1 - eta1_rhs)], axis=1),
                np.stack([
                    np.maximum(np.abs(m1).max(axis=(1, 2)), np.abs(rhs).max(axis=(1, 2))),
                    np.maximum(np.abs(eta1), np.abs(eta1_rhs)),
                ], axis=1),
                lambda i: f"gamma={kg} sample={k} pair={pairs[i // 2]} ({kinds[i % 2]})",
            )
            if genus == 1:
                lhs = _legendre_derivative(data1)
                rhs = detc2 * _legendre_derivative(data0)
                check.add(
                    abs(lhs - rhs),
                    max(abs(lhs), abs(rhs)),
                    f"gamma={kg} sample={k} (legendre weight 2)",
                )
    return check.finish()


# ----------------------------------------------------------------------
# diagonal specialization of the weight-2 determinant
# ----------------------------------------------------------------------

def check_weight2_diagonal(
    genus: int,
    plan: SamplePlan,
    eps: float = DEFAULT_EPS,
    tol: float = DEFAULT_TOL,
) -> IdentityCheck:
    """det(psi_b - psi_a) at scalar-diagonal tau, for a = 0 and
    b = (1...1, 0), against the g-th power of the genus-1 difference
    psi_10 - psi_00 = delta(lambda) / (4 lambda); includes a
    non-vanishing margin at tau = i."""
    check = IdentityCheck("weight2_diagonal", genus, plan.count, plan.seed, tol)
    b = Characteristic(genus, (1,) * genus, (0,) * genus).code  # a = 0 is position 0
    samples = plan.scalar_taus() + [1j]
    for k, t0 in enumerate(samples):
        record = _point(SiegelPoint(genus, t0 * np.eye(genus)), eps, positions=(0, b))
        eta = complex(record.eta(0, 1))
        d = genus1_data(t0, eps)
        diff = d["psi_10"] - d["psi_00"]
        check.add(abs(eta - diff**genus), max(abs(eta), abs(diff) ** genus),
                  f"sample={k} tau={t0}")
        # independent route: delta(lambda) = lambda theta_01^4, so the
        # genus-1 difference is theta_01^4 / 4
        alt = (d["theta_01"] ** 4 / 4.0) ** genus
        check.add(
            abs(eta - alt),
            max(abs(eta), abs(alt)),
            f"sample={k} tau={t0} (lambda-derivative form)",
        )
        if t0 == 1j:
            check.notes["eta_at_i"] = [eta.real, eta.imag]
            if abs(eta) < 1e-6:
                check.add(1.0, 1e-9, "eta vanished at tau = i * identity")
    return check.finish()


# ----------------------------------------------------------------------
# genus-2 differential system (Gopel form)
# ----------------------------------------------------------------------

def check_gopel_quartet(
    genus: int, plan: SamplePlan, eps: float = DEFAULT_EPS, tol: float = DEFAULT_TOL
) -> IdentityCheck:
    """delta(psi_{a1}+...+psi_{a4}) = (sum psi)^2 - 2 sum psi^2 for each of
    the fifteen Gopel systems, as quartic forms."""
    check = IdentityCheck("gopel_quartet", genus, plan.count, plan.seed, tol)
    table = char_table(genus)
    members = np.searchsorted(table.even, table.gopel)  # rows of the record
    systems = ["+".join(table.chars[x].label() for x in G) for G in table.gopel]
    for k, tau in enumerate(plan.tau_points(genus)):
        record = _point(tau, eps, order=4)
        psi = record.psi()
        lhs = record.delta_psi()[members].sum(axis=1)
        rhs = square_forms(psi[members].sum(axis=1)) - 2.0 * record.psi_sq()[members].sum(axis=1)
        check.add(
            np.abs(lhs - rhs).max(axis=1),
            np.maximum(np.abs(lhs).max(axis=1), np.abs(rhs).max(axis=1)),
            lambda i: f"sample={k} system={systems[i]}",
        )
    return check.finish()


def check_gopel_single(
    genus: int, plan: SamplePlan, eps: float = DEFAULT_EPS, tol: float = DEFAULT_TOL
) -> IdentityCheck:
    """Per-characteristic derivative expression: delta(psi_a) =
    -2 psi_a^2 - 1/3 sum_b psi_b^2 - 1/6 (sum_b psi_b)^2
    + 1/4 sum_{G owns a} (sum_{b in G} psi_b)^2, and its consistency with
    the second-order system at the same points."""
    check = IdentityCheck("gopel_single", genus, plan.count, plan.seed, tol)
    table = char_table(genus)
    labels = [table.chars[i].label() for i in table.even]
    members = np.searchsorted(table.even, table.gopel)
    owns = np.array([[a in G for G in table.gopel] for a in table.even])
    sign = 1.0 - 2.0 * table.pairing[np.ix_(table.even, table.even)]
    kinds = ("", " (vs second-order system)")
    for k, tau in enumerate(plan.tau_points(genus)):
        record = _point(tau, eps, order=4)
        values, psi, psi_sq, lhs = record.value, record.psi(), record.psi_sq(), record.delta_psi()
        sum_all_sq = square_forms(psi.sum(axis=0, keepdims=True))[0]
        gopel_sq = square_forms(psi[members].sum(axis=1))
        rhs = -2.0 * psi_sq - psi_sq.sum(axis=0) / 3.0 - sum_all_sq / 6.0 + 0.25 * owns @ gopel_sq
        # consistency with the second-order system: same left side,
        # right side assembled from the pairing-signed fourth powers
        rhs3 = -2.0 * psi_sq + (sign * (values[None, :] / values[:, None]) ** 4) @ psi_sq
        rhs_max = np.abs(rhs).max(axis=1)
        scale = np.maximum(np.abs(lhs).max(axis=1), rhs_max)
        scale = np.maximum(scale, np.abs(sum_all_sq).max() / 6.0)
        check.add(  # per a: [identity, vs second-order system]
            np.stack([np.abs(lhs - rhs).max(axis=1), np.abs(rhs - rhs3).max(axis=1)], axis=1),
            np.stack([scale, np.maximum(rhs_max, np.abs(rhs3).max(axis=1))], axis=1),
            lambda i: f"sample={k} a={labels[i // 2]}{kinds[i % 2]}",
        )
    return check.finish()


# ----------------------------------------------------------------------
# genus-2 algebraic relations between thetanulls
# ----------------------------------------------------------------------

def check_genus2_quadratic(
    genus: int, plan: SamplePlan, eps: float = DEFAULT_EPS, tol: float = DEFAULT_TOL
) -> IdentityCheck:
    """The three quadratic thetanull relations; the middle one is read as
    theta_00^2 theta_02^2 - theta_01^2 theta_03^2 = theta_10^2 theta_12^2,
    and the check confirms or refutes that reading (it also follows from
    the other two at block-diagonal points, where it reduces to the
    genus-1 Jacobi identity)."""
    check = IdentityCheck("genus2_quadratic", genus, plan.count, plan.seed, tol)
    rels = [
        ("00", "01", "02", "03", "20", "21"),
        ("00", "02", "01", "03", "10", "12"),
        ("00", "03", "01", "02", "30", "33"),
    ]
    for k, tau in enumerate(plan.tau_points(genus)):
        t = _labelled(_point(tau, eps))
        for idx, (x1, x2, y1, y2, z1, z2) in enumerate(rels):
            lhs = t[x1] ** 2 * t[x2] ** 2 - t[y1] ** 2 * t[y2] ** 2
            rhs = t[z1] ** 2 * t[z2] ** 2
            scale = max(abs(t[x1] ** 2 * t[x2] ** 2), abs(t[y1] ** 2 * t[y2] ** 2), abs(rhs))
            check.add(abs(lhs - rhs), scale, f"sample={k} relation={idx + 1}")
    check.finish()
    check.notes["middle_reading"] = (
        "theta_00^2 theta_02^2 - theta_01^2 theta_03^2 = theta_10^2 theta_12^2"
    )
    check.notes["middle_reading_confirmed"] = check.status == "pass"
    return check


def check_genus2_quartic(
    genus: int, plan: SamplePlan, eps: float = DEFAULT_EPS, tol: float = DEFAULT_TOL
) -> IdentityCheck:
    """The three quartic thetanull relations."""
    check = IdentityCheck("genus2_quartic", genus, plan.count, plan.seed, tol)
    rels = [
        ("00", "01", "10", "33"),
        ("00", "02", "21", "30"),
        ("00", "03", "12", "20"),
    ]
    for k, tau in enumerate(plan.tau_points(genus)):
        t = _labelled(_point(tau, eps))
        for idx, (x1, x2, y1, y2) in enumerate(rels):
            lhs = t[x1] ** 4 - t[x2] ** 4
            rhs = t[y1] ** 4 + t[y2] ** 4
            scale = max(abs(t[x1]) ** 4, abs(t[x2]) ** 4, abs(t[y1]) ** 4, abs(t[y2]) ** 4)
            check.add(abs(lhs - rhs), scale, f"sample={k} relation={idx + 1}")
    return check.finish()


_SIX_LINES = [
    # (a, b, sign, numerator quadruple)
    ("00", "01", +1, ("10", "12", "30", "33")),
    ("00", "02", +1, ("20", "21", "30", "33")),
    ("01", "02", -1, ("10", "12", "20", "21")),
    ("00", "03", +1, ("10", "12", "20", "21")),
    ("01", "03", -1, ("20", "21", "30", "33")),
    ("02", "03", -1, ("10", "12", "30", "33")),
]


class _EmpiricalSigns:
    """Per-key signs of ratios that are +-1 up to rounding.  The first
    sample's sign of each key is recorded in the notes; a sign that flips
    at a later sample fails the check, and the witness names each flipped
    key with the samples where it flipped."""

    def __init__(self, what: str):
        self.what = what
        self.signs: dict[str, int] = {}
        self.flips: dict[str, list[int]] = {}

    def resolve(self, keys: list[str], ratios: np.ndarray, k: int) -> np.ndarray:
        """The signs of ratios at sample k, one per key."""
        signs = np.where(_modulus(ratios - 1) < _modulus(ratios + 1), 1, -1)
        for key, sgn in zip(keys, signs.tolist()):
            if self.signs.setdefault(key, sgn) != sgn:
                self.flips.setdefault(key, []).append(k)
        return signs

    def finish(self, check: IdentityCheck) -> IdentityCheck:
        check.notes["signs"] = self.signs
        check.notes["signs_consistent_across_samples"] = not self.flips
        check.finish()
        if self.flips:
            check.status = "fail"
            check.witness = "sign flip " + "; ".join(
                f"{self.what}={key} at sample={','.join(map(str, ks))}"
                for key, ks in self.flips.items()
            )
        return check


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| with the bits of Python's abs (libm hypot), which numpy's
    complex absolute does not always give."""
    return np.hypot(z.real, z.imag)


def _labelled(record: PointRecord) -> dict[str, complex]:
    """The thetanulls of a record by label."""
    return dict(zip((a.label() for a in record.chars), record.value.tolist()))


def check_eta_explicit(
    genus: int, plan: SamplePlan, eps: float = DEFAULT_EPS, tol: float = DEFAULT_TOL
) -> IdentityCheck:
    """The six explicit weight-2 determinant formulas with their 1/16
    factors and signs, plus the numerator rewriting of the first line
    through the quadratic relations."""
    check = IdentityCheck("genus2_eta_explicit", genus, plan.count, plan.seed, tol)
    # the rows of 00-03 in the even record are their positions, 0-3
    a, b = ([digit_decode(line[i]).code for line in _SIX_LINES] for i in (0, 1))
    for k, tau in enumerate(plan.tau_points(genus)):
        record = _point(tau, eps)
        t = _labelled(record)
        for eta, (la, lb, sgn, nums) in zip(record.eta(b, a).tolist(), _SIX_LINES):
            rhs = sgn / 16.0
            for x in nums:
                rhs *= t[x] ** 2
            rhs /= t[la] ** 2 * t[lb] ** 2
            check.add(abs(eta - rhs), max(abs(eta), abs(rhs)), f"sample={k} eta_{la},{lb}")
        # numerator rewriting for the first line
        lhs = t["10"] ** 2 * t["12"] ** 2 * t["30"] ** 2 * t["33"] ** 2
        rhs = (t["00"] ** 2 * t["02"] ** 2 - t["01"] ** 2 * t["03"] ** 2) * (
            t["00"] ** 2 * t["03"] ** 2 - t["01"] ** 2 * t["02"] ** 2
        )
        check.add(abs(lhs - rhs), max(abs(lhs), abs(rhs)), f"sample={k} numerator rewrite")
    return check.finish()


def check_eta_product(
    genus: int, plan: SamplePlan, eps: float = DEFAULT_EPS, tol: float = DEFAULT_TOL
) -> IdentityCheck:
    """Product formula for every one of the 45 pairs {a, b}: the
    determinant equals (up to a per-pair sign, resolved empirically and
    recorded) 1/16 times the product of all ten thetanulls squared
    divided by those of the two Gopel systems through {a, b}; after
    cancellation only theta_a^2 theta_b^2 remains in the denominator."""
    check = IdentityCheck("genus2_eta_product", genus, plan.count, plan.seed, tol)
    table = char_table(genus)
    labels = [table.chars[i].label() for i in table.even]
    a, b = np.triu_indices(len(labels), 1)  # the pairs of rows of the record
    pairs = [f"{labels[i]},{labels[j]}" for i, j in zip(a, b)]
    # per pair, the rows of the members of the two Gopel systems through it
    members = np.searchsorted(table.even, table.gopel).tolist()
    through = [[d for G in members if i in G and j in G for d in G] for i, j in zip(a, b)]
    signs = _EmpiricalSigns("pair")
    for k, tau in enumerate(plan.tau_points(genus)):
        record = _point(tau, eps)
        eta = record.eta(b, a)  # det(psi_a - psi_b), which also guards the divisors
        squares = [v**2 for v in record.value.tolist()]
        prod_all = math.prod(squares, start=1.0 + 0.0j) / 16.0
        unsigned = np.array([reduce(operator.truediv, [squares[d] for d in rows], prod_all)
                             for rows in through])
        sgn = signs.resolve(pairs, eta / unsigned, k)
        check.add(
            _modulus(eta - sgn * unsigned),
            np.maximum(_modulus(eta), _modulus(unsigned)),
            lambda i: f"sample={k} pair={pairs[i]}",
        )
    return signs.finish(check)


def check_power72(
    genus: int, plan: SamplePlan, eps: float = DEFAULT_EPS, tol: float = DEFAULT_TOL
) -> IdentityCheck:
    """theta_a^72 = +- 2^72 prod_{pairs} eta_{c,d} * prod_{b != a}
    eta_{a,b}^-3 for every even a; the sign is resolved empirically per
    characteristic and recorded.  Both sides are compared through their
    logarithms (the raw products traverse ~90 orders of magnitude)."""
    check = IdentityCheck("genus2_power72", genus, plan.count, plan.seed, tol)
    table = char_table(genus)
    n = len(table.even)
    labels = [table.chars[i].label() for i in table.even]
    a, b = np.triu_indices(n, 1)  # the pairs of rows of the record
    pair = np.zeros((n, n), dtype=np.intp)
    pair[a, b] = pair[b, a] = np.arange(len(a))
    others = pair[~np.eye(n, dtype=bool)].reshape(n, n - 1)  # per a, the pairs {a, b} by b
    signs = _EmpiricalSigns("a")
    for k, tau in enumerate(plan.tau_points(genus)):
        record = _point(tau, eps)
        log_eta = np.log(record.eta(b, a))  # of det(psi_a - psi_b), a < b
        log_pairs = np.cumsum(log_eta)[-1]  # in pair order; np.sum would pair the terms up
        # per a: 72 log 2 + log_pairs, minus 3 log eta of each pair through
        # a in turn, in order of the other row
        terms = np.column_stack([np.full(n, 72.0 * math.log(2.0) + log_pairs),
                                 3.0 * log_eta[others]])
        ratio = np.exp(72.0 * np.log(record.value) - np.subtract.accumulate(terms, axis=1)[:, -1])
        sgn = signs.resolve(labels, ratio, k)
        check.add(_modulus(ratio - sgn), np.ones(n), lambda i: f"sample={k} a={labels[i]}")
    signs.finish(check)
    check.notes["residual_definition"] = "|lhs/rhs - sign| via log-space evaluation"
    return check


# ----------------------------------------------------------------------
# chi relation and leading coefficient; phi relation and its collapse
# ----------------------------------------------------------------------

def check_chi_relation(
    genus: int, plan: SamplePlan, eps: float = DEFAULT_EPS, tol: float = DEFAULT_TOL
) -> IdentityCheck:
    """chi combination with the chi's eliminated through the first three
    determinant formulas: a genuine thetanull identity (the formal
    square-difference identity specialized along the expansion of each
    determinant), plus the quartic leading-coefficient structure in
    theta_03^2, whose top coefficient is the constant -3/16^2."""
    check = IdentityCheck("chi_relation", genus, plan.count, plan.seed, tol)
    lead_expected = -3.0 / 256.0
    lead_values = []
    for k, tau in enumerate(plan.tau_points(genus)):
        record = _point(tau, eps)
        t = _labelled(record)
        # psi_11, psi_22 and psi_12 of 00, 01 and 02, rows 0-2 of the record
        p00, p01, p02 = record.psi([0, 1, 2])[:, [0, 1, 0], [0, 1, 1]].tolist()

        def combination(u: complex) -> complex:
            # u plays the role of theta_03^2 inside the developed numerators
            n1 = (t["00"] ** 2 * t["02"] ** 2 - t["01"] ** 2 * u) * (
                t["00"] ** 2 * u - t["01"] ** 2 * t["02"] ** 2
            )
            n2 = (t["00"] ** 2 * t["01"] ** 2 - t["02"] ** 2 * u) * (
                t["00"] ** 2 * u - t["01"] ** 2 * t["02"] ** 2
            )
            n3 = (t["00"] ** 2 * t["02"] ** 2 - t["01"] ** 2 * u) * (
                t["00"] ** 2 * t["01"] ** 2 - t["02"] ** 2 * u
            )
            e1 = n1 / (16 * t["00"] ** 2 * t["01"] ** 2)
            e2 = n2 / (16 * t["00"] ** 2 * t["02"] ** 2)
            e3 = -n3 / (16 * t["01"] ** 2 * t["02"] ** 2)
            c1 = (p00[0] - p01[0]) * (p00[1] - p01[1]) - e1
            c2 = (p00[0] - p02[0]) * (p00[1] - p02[1]) - e2
            c3 = (p01[0] - p02[0]) * (p01[1] - p02[1]) - e3
            return (
                c1**2 + c2**2 + c3**2 - 2 * c1 * c2 - 2 * c2 * c3 - 2 * c3 * c1
            )

        u_true = t["03"] ** 2
        value = combination(u_true)
        # the chi's are assembled as differences of psi products and
        # developed thetanull quotients; the identity's expanded terms
        # are pairwise products of those primitives, so normalize by the
        # largest primitive magnitude squared (the chi's themselves can
        # cancel to ~1e-9 at points where the off-diagonal psi slots of
        # two characteristics nearly coincide)
        prims = []
        for (pa, pb), (la, lb) in (
            ((p00, p01), ("00", "01")),
            ((p00, p02), ("00", "02")),
            ((p01, p02), ("01", "02")),
        ):
            prims.append(abs((pa[0] - pb[0]) * (pa[1] - pb[1])))
            prims.append(abs((pa[2] - pb[2]) ** 2))
        scale = max(prims) ** 2
        check.add(abs(value), scale, f"sample={k} (chi relation)")
        if k < 3:
            # quartic interpolation in u; leading coefficient is -3/256
            nodes = [u_true * s for s in (0.55, 0.8, 1.0, 1.3, 1.7)]
            vand = np.vander(np.array(nodes), 5, increasing=True)
            coeffs = np.linalg.solve(vand, np.array([combination(u) for u in nodes]))
            lead_values.append(complex(coeffs[4]))
            # the Vandermonde solve amplifies roundoff by the node
            # conditioning and 1/|theta_03|^8; allow 1e-6 relative here
            check.add(
                abs(coeffs[4] - lead_expected),
                abs(lead_expected) * 1000.0,
                f"sample={k} (theta_03^8 coefficient)",
            )
    check.notes["chi_leading_coefficient"] = [[v.real, v.imag] for v in lead_values]
    check.notes["chi_leading_expected"] = lead_expected
    return check.finish()


def check_phi_relation(
    genus: int, plan: SamplePlan, eps: float = DEFAULT_EPS, tol: float = DEFAULT_TOL
) -> IdentityCheck:
    """The quartic relation among the four phi expressions, evaluated
    numerically with the determinants developed from psi differences;
    both derivative slots are exercised (the second is the stated
    symmetric partner obtained by swapping the two diagonal slots)."""
    check = IdentityCheck("phi_relation", genus, plan.count, plan.seed, tol)
    for k, tau in enumerate(plan.tau_points(genus)):
        # psi_11, psi_22 and psi_12 of 00-03, rows 0-3 of the record
        slots = _point(tau, eps).psi([0, 1, 2, 3])[:, [0, 1, 0], [0, 1, 1]].tolist()
        psi = {
            (lbl, j + 1): x
            for lbl, row in zip(("00", "01", "02", "03"), slots)
            for j, x in enumerate(row)
        }
        for slot in (1, 2):
            phis = phi_expressions(psi, slot)
            inner = sum(phis) ** 2 - 2 * sum(ph**2 for ph in phis)
            lhs = inner**2
            rhs = 64 * phis[0] * phis[1] * phis[2] * phis[3]
            scale = max(abs(lhs), abs(rhs), max(abs(ph) for ph in phis) ** 4)
            check.add(abs(lhs - rhs), scale, f"sample={k} slot={slot}")
    return check.finish()


def check_phi_leading(
    genus: int, plan: SamplePlan, eps: float = DEFAULT_EPS, tol: float = DEFAULT_TOL
) -> IdentityCheck:
    """At scalar-diagonal points the leading coefficient
    ((eta_{00,01}+eta_{00,02}+eta_{01,02})^2 - 2 sum eta^2)^2 collapses to
    eta_{01,02}^4 and equals theta_10^32 / 16^4 of the genus-1 point;
    checked at tau = i and at sampled scalars.  The 32nd power amplifies
    the relative error of theta_10, so the tolerance is at least 1e-8."""
    check = IdentityCheck(
        "phi_leading", genus, plan.count, plan.seed, effective_tol("phi_leading", tol)
    )
    k00, k01, k02 = (digit_decode(lbl).code for lbl in ("00", "01", "02"))
    scalars = [1j] + plan.scalar_taus()[:5]
    for k, t0 in enumerate(scalars):
        tau = SiegelPoint(genus, t0 * np.eye(genus))
        record = _point(tau, eps, positions=(k00, k01, k02))
        # det(psi_00 - psi_01), det(psi_00 - psi_02), det(psi_01 - psi_02)
        e1, e2, e3 = record.eta([1, 2, 2], [0, 0, 1]).tolist()
        lead = ((e1 + e2 + e3) ** 2 - 2 * (e1**2 + e2**2 + e3**2)) ** 2
        d = genus1_data(t0, eps)
        expected = d["theta_10"] ** 32 / 16**4
        check.add(abs(lead - expected), max(abs(lead), abs(expected)),
                  f"sample={k} tau={t0}")
        if t0 == 1j:
            check.notes["lead_at_i"] = [lead.real, lead.imag]
            check.notes["theta10_32_over_16^4"] = [expected.real, expected.imag]
    return check.finish()


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CheckSpec:
    runner: Callable[..., IdentityCheck]
    genera: tuple[int, ...]


REGISTRY: dict[str, CheckSpec] = {
    "riemann_quartic": CheckSpec(check_riemann_quartic, (1, 2, 3)),
    "heat_equation": CheckSpec(check_heat_equation, (1, 2, 3)),
    "second_order_system": CheckSpec(check_second_order_system, (1, 2, 3)),
    "odd_gradient_squared": CheckSpec(check_odd_gradient_squared, (1, 2, 3)),
    "odd_gradient_fourth": CheckSpec(check_odd_gradient_fourth, (1, 2, 3)),
    "transformation": CheckSpec(check_transformation_laws, (1, 2)),
    "weight2_diagonal": CheckSpec(check_weight2_diagonal, (1, 2, 3)),
    "gopel_quartet": CheckSpec(check_gopel_quartet, (2,)),
    "gopel_single": CheckSpec(check_gopel_single, (2,)),
    "genus2_quadratic": CheckSpec(check_genus2_quadratic, (2,)),
    "genus2_quartic": CheckSpec(check_genus2_quartic, (2,)),
    "genus2_eta_explicit": CheckSpec(check_eta_explicit, (2,)),
    "genus2_eta_product": CheckSpec(check_eta_product, (2,)),
    "genus2_power72": CheckSpec(check_power72, (2,)),
    "chi_relation": CheckSpec(check_chi_relation, (2,)),
    "phi_relation": CheckSpec(check_phi_relation, (2,)),
    "phi_leading": CheckSpec(check_phi_leading, (2,)),
}


def checks_for_genus(genus: int) -> list[str]:
    return [name for name, spec in REGISTRY.items() if genus in spec.genera]


def run_check(
    name: str,
    genus: int,
    plan: SamplePlan,
    eps: float = DEFAULT_EPS,
    tol: float = DEFAULT_TOL,
) -> IdentityCheck:
    """Run one registry check by name."""
    if name not in REGISTRY:
        raise KeyError(f"unknown identity {name!r}; known: {', '.join(REGISTRY)}")
    spec = REGISTRY[name]
    if genus not in spec.genera:
        raise ValueError(f"identity {name!r} does not apply at genus {genus}")
    return spec.runner(genus, plan, eps, tol)
