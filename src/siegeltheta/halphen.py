"""Genus-1 specialization: the Halphen system and classical cross-checks.

The three logarithmic derivatives x = psi_10, y = psi_00, z = psi_01 of
the genus-1 thetanulls (delta = (1/pi i) d/dtau) satisfy the first
order system

    delta psi_10 = 2 (psi_10 psi_00 + psi_10 psi_01 - psi_00 psi_01),
    delta psi_00 = 2 (psi_10 psi_00 + psi_00 psi_01 - psi_10 psi_01),
    delta psi_01 = 2 (psi_10 psi_01 + psi_00 psi_01 - psi_10 psi_00),

and the fourth powers of the thetanulls are the pairwise differences

    theta_00^4 = 4 (psi_10 - psi_01),
    theta_01^4 = 4 (psi_10 - psi_00),
    theta_10^4 = 4 (psi_00 - psi_01).

With lambda = (theta_10 / theta_00)^4 the modular lambda function,

    delta lambda = 4 lambda (psi_10 - psi_00) = lambda theta_01^4
                 = lambda (1 - lambda) theta_00^4,

and the hypergeometric period formulas read

    2F1(1/2, 1/2; 1; lambda)  = theta_00^2,
    2F1(-1/2, 1/2; 1; lambda) = (2 theta_00^4 - theta_10^4
                                 + 4 (psi_00 + psi_10 + psi_01))
                                / (3 theta_00^2).

Integration of the system uses classical fourth-order Runge-Kutta along
straight segments in tau (d psi/dtau = pi i * delta psi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import theta
from .characteristics import Characteristic
from .siegel import SiegelPoint
from .theta import DEFAULT_EPS

__all__ = [
    "HalphenState",
    "halphen_rhs",
    "integrate",
    "state_from_theta",
    "theta4_differences",
    "hyp2f1",
    "hyp2f1_supported",
    "legendre_lambda_checks",
    "genus1_data",
]

#: minimum admissible Im(tau) along an integration path
PATH_MARGIN = 1e-3

_C00 = Characteristic(1, (0,), (0,))
_C01 = Characteristic(1, (0,), (1,))
_C10 = Characteristic(1, (1,), (0,))


@dataclass(frozen=True)
class HalphenState:
    """A genus-1 point tau with the triple (psi_10, psi_00, psi_01)."""

    tau: complex
    psi10: complex
    psi00: complex
    psi01: complex

    def triple(self) -> tuple[complex, complex, complex]:
        return (self.psi10, self.psi00, self.psi01)


def halphen_rhs(state: HalphenState) -> tuple[complex, complex, complex]:
    """Right-hand sides (delta psi_10, delta psi_00, delta psi_01)."""
    x, y, z = state.psi10, state.psi00, state.psi01
    return (
        2 * (x * y + x * z - y * z),
        2 * (x * y + y * z - x * z),
        2 * (x * z + y * z - x * y),
    )


def genus1_data(tau: complex, eps: float = DEFAULT_EPS) -> dict:
    """Thetanulls and psi values at a genus-1 point; raises
    NearZeroThetanull where a thetanull is too small to divide by."""
    pt = SiegelPoint(1, np.array([[tau]], dtype=complex))
    # through the module attribute, so a wrapper on theta.batch_moments
    # (tracing, counting) also sees these calls
    moms = theta.batch_moments((_C00, _C01, _C10), pt, eps, order=2)
    record = theta.PointRecord.stack(moms[a] for a in (_C00, _C01, _C10))
    values, psi = record.value.tolist(), record.psi()[:, 0, 0].tolist()
    return {f"{kind}_{name}": x for kind, row in (("theta", values), ("psi", psi))
            for name, x in zip(("00", "01", "10"), row)}


def state_from_theta(tau: complex, eps: float = DEFAULT_EPS) -> HalphenState:
    """Seed a Halphen state from theta-evaluated psi values at tau."""
    d = genus1_data(tau, eps)
    return HalphenState(tau, d["psi_10"], d["psi_00"], d["psi_01"])


def _rk4_step(psi: np.ndarray, tau: complex, dtau: complex) -> np.ndarray:
    def f(p):
        s = HalphenState(tau, p[0], p[1], p[2])
        return (1j * math.pi) * np.array(halphen_rhs(s))

    k1 = f(psi)
    k2 = f(psi + 0.5 * dtau * k1)
    k3 = f(psi + 0.5 * dtau * k2)
    k4 = f(psi + dtau * k3)
    return psi + (dtau / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def integrate(
    start_tau: complex,
    end_tau: complex,
    steps: int,
) -> HalphenState:
    """Integrate the system along the straight segment start -> end.

    The initial state is the theta-seeded values at start_tau.
    The segment must stay in Im(tau) > PATH_MARGIN (linear in t, so the
    endpoints decide).
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if min(start_tau.imag, end_tau.imag) <= PATH_MARGIN:
        raise ValueError("integration path leaves the upper half-plane margin")
    state = state_from_theta(start_tau)
    psi = np.array(state.triple(), dtype=complex)
    if steps == 0 or start_tau == end_tau:
        return HalphenState(start_tau, *psi)
    dtau = (end_tau - start_tau) / steps
    tau = complex(start_tau)
    for _ in range(steps):
        psi = _rk4_step(psi, tau, dtau)
        tau += dtau
    return HalphenState(end_tau, psi[0], psi[1], psi[2])


def theta4_differences(tau: complex, eps: float = DEFAULT_EPS) -> dict:
    """Residuals of the three theta^4 difference formulas at tau."""
    d = genus1_data(tau, eps)
    t00, t01, t10 = d["theta_00"], d["theta_01"], d["theta_10"]
    x, y, z = d["psi_10"], d["psi_00"], d["psi_01"]
    resid = {
        "theta00^4": t00**4 - 4 * (x - z),
        "theta01^4": t01**4 - 4 * (x - y),
        "theta10^4": t10**4 - 4 * (y - z),
    }
    scale = max(abs(t00) ** 4, abs(t01) ** 4, abs(t10) ** 4)
    return {
        "residuals": resid,
        "max_rel_residual": max(abs(v) for v in resid.values()) / scale,
        "values": d,
    }


# ----------------------------------------------------------------------
# Gauss hypergeometric series
# ----------------------------------------------------------------------

def hyp2f1_supported(z: complex) -> bool:
    """Whether the direct series or the z/(z-1) transformation converges."""
    return abs(z) <= 0.7 or abs(z / (z - 1.0)) <= 0.7


def hyp2f1(a: float, b: float, c: float, z: complex) -> complex:
    """2F1(a, b; c; z) by direct power series for |z| <= 0.7, with the
    z/(z-1) transformation pulling the left part of the unit disc back
    into the fast region.  Raises outside the supported set (lambda
    samples are gated to it).
    """
    if abs(z) <= 0.7:
        return _hyp2f1_series(a, b, c, z)
    w = z / (z - 1.0)
    if abs(w) <= 0.7:
        # 2F1(a,b;c;z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1))
        return (1.0 - z) ** (-a) * _hyp2f1_series(a, c - b, c, w)
    raise ValueError(f"hypergeometric argument {z} outside the supported region")


def _hyp2f1_series(a, b, c, z) -> complex:
    """The power series to relative term size 1e-15, within 4000 terms."""
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(4000):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
        if abs(term) <= 1e-15 * max(1.0, abs(total)) and k > 2:
            return total
    raise ValueError("hypergeometric series did not converge within 4000 terms")


def legendre_lambda_checks(tau: complex, eps: float = DEFAULT_EPS) -> dict:
    """Residual record of the lambda-derivative and period identities at tau.

    The lambda derivative is taken from 4 lambda (psi_10 - psi_00); the
    record reports relative residuals of its two thetanull expressions
    always, and of the two hypergeometric formulas whenever lambda(tau)
    lies in the region the series evaluator supports (it can leave the
    unit disc at generic sample points; the record flags that case).
    """
    d = genus1_data(tau, eps)
    t00, t01, t10 = d["theta_00"], d["theta_01"], d["theta_10"]
    x, y, z = d["psi_10"], d["psi_00"], d["psi_01"]
    lam = (t10 / t00) ** 4
    dlam = 4 * lam * (x - y)
    rec = {"tau": tau, "lambda": lam, "delta_lambda": dlam}
    rec["resid_dlambda_01"] = abs(dlam - lam * t01**4) / abs(dlam)
    rec["resid_dlambda_00"] = abs(dlam - lam * (1 - lam) * t00**4) / abs(dlam)
    residuals = [rec["resid_dlambda_01"], rec["resid_dlambda_00"]]
    rec["hypergeometric_evaluated"] = hyp2f1_supported(lam)
    if rec["hypergeometric_evaluated"]:
        f1 = hyp2f1(0.5, 0.5, 1.0, lam)
        rec["resid_f1"] = abs(f1 - t00**2) / abs(f1)
        f2 = hyp2f1(-0.5, 0.5, 1.0, lam)
        # note the + sign on the logarithmic-derivative term: the minus
        # variant fails the q -> 0 limit (it tends to 1/3 instead of 1)
        quasi = (2 * t00**4 - t10**4 + 4 * (y + x + z)) / (3 * t00**2)
        rec["resid_f2"] = abs(f2 - quasi) / abs(f2)
        residuals += [rec["resid_f1"], rec["resid_f2"]]
    rec["max_rel_residual"] = max(residuals)
    return rec
