"""Direct mpmath summation of theta series, written apart from the kernel.

Nothing here imports siegeltheta: the box radius, the lattice and every
term are computed from tau and z alone, so agreement with the kernel is
a genuine cross-check.  Each sum also returns a rounding slack for the
double-precision kernel: 64 u sum_i |w_i t_i| (1 + A_i), where A_i bounds
the magnitude of the exponent the kernel evaluates for term i and u is
the unit roundoff.  The kernel's truncation bound plus that slack is the
allowed disagreement.
"""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np

U = 2.0**-53
SLACK = 64 * U
#: terms beyond the radius are below exp(-TAIL_EXPONENT)
TAIL_EXPONENT = 60.0
#: decimal digits of the mpmath sums
DPS = 30


def _radius(tau: np.ndarray, z) -> int:
    lam = float(np.linalg.eigvalsh(tau.imag).min())
    r = 0.0 if z is None else float(np.linalg.norm(np.asarray(z).imag))
    nrad = 1
    while math.pi * lam * nrad * nrad - 2 * math.pi * r * nrad < TAIL_EXPONENT:
        nrad += 1
    return nrad


def _points(a_prime, nrad: int):
    """Lattice points m = n + a'/2 with |m_j| <= nrad + 1/2."""
    axes = [
        [n + aj / 2 for n in range(-nrad - 1, nrad + 2) if abs(n + aj / 2) <= nrad + 0.5]
        for aj in a_prime
    ]
    return itertools.product(*axes)


def _exponent_size(m, tau: np.ndarray, z) -> float:
    g = len(m)
    size = math.pi * sum(abs(m[j] * tau[j, l] * m[l]) for j in range(g) for l in range(g))
    if z is not None:
        size += 2 * math.pi * sum(abs(m[j] * z[j]) for j in range(g))
    return size


def jet(a_prime, a_double_prime, z, tau: np.ndarray):
    """theta_a(z, tau), its z-gradient and z-Hessian by direct summation.

    Returns (value, grad, hess, slack) with complex values, lists of
    complex values, and a dict of float slacks keyed by "value", "grad"
    and "hess" (the largest slack over the entries of each).
    """
    g = len(a_prime)
    tau = np.asarray(tau, dtype=complex)
    zz = None if z is None else np.asarray(z, dtype=complex).reshape(g)
    two_pi_i = 2j * math.pi
    with mp.workdps(DPS):
        tau_mp = [[mp.mpc(tau[j, l]) for l in range(g)] for j in range(g)]
        z_mp = [mp.mpc(0)] * g if zz is None else [mp.mpc(v) for v in zz]
        half_app = [mp.mpf(b) / 2 for b in a_double_prime]
        value = mp.mpc(0)
        grad = [mp.mpc(0)] * g
        hess = [[mp.mpc(0)] * g for _ in range(g)]
        s_val = 0.0
        s_grad = [0.0] * g
        s_hess = [[0.0] * g for _ in range(g)]
        for m in _points(a_prime, _radius(tau, zz)):
            mm = [mp.mpf(x) for x in m]
            quad = mp.fsum(mm[j] * tau_mp[j][l] * mm[l] for j in range(g) for l in range(g))
            lin = mp.fsum(mm[j] * (z_mp[j] + half_app[j]) for j in range(g))
            t = mp.exp(mp.pi * 1j * quad + 2 * mp.pi * 1j * lin)
            value += t
            at = float(abs(t)) * (1.0 + _exponent_size(m, tau, zz))
            s_val += at
            for j in range(g):
                grad[j] += mm[j] * t
                s_grad[j] += abs(m[j]) * at
                for l in range(j, g):
                    hess[j][l] += mm[j] * mm[l] * t
                    s_hess[j][l] += abs(m[j] * m[l]) * at
        value_c = complex(value)
        grad_c = [two_pi_i * complex(v) for v in grad]
        hess_c = [[two_pi_i**2 * complex(hess[min(j, l)][max(j, l)]) for l in range(g)] for j in range(g)]
    slack = {
        "value": SLACK * s_val,
        "grad": SLACK * 2 * math.pi * max(s_grad),
        "hess": SLACK * (2 * math.pi) ** 2 * max(max(row) for row in s_hess),
    }
    return value_c, grad_c, hess_c, slack


def thetanulls(chars, tau: np.ndarray):
    """theta_a(0, tau) for (a', a'') pairs, sharing one exponential pass
    per a' coset.  Returns {(a', a''): (value, slack)}."""
    tau = np.asarray(tau, dtype=complex)
    g = tau.shape[0]
    nrad = _radius(tau, None)
    by_coset: dict = {}
    for ap, app in chars:
        by_coset.setdefault(tuple(ap), []).append(tuple(app))
    out = {}
    with mp.workdps(DPS):
        tau_mp = [[mp.mpc(tau[j, l]) for l in range(g)] for j in range(g)]
        phases = [mp.mpc(1), mp.mpc(0, 1), mp.mpc(-1), mp.mpc(0, -1)]
        for ap, apps in by_coset.items():
            sums = {app: mp.mpc(0) for app in apps}
            slack = 0.0
            for m in _points(ap, nrad):
                mm = [mp.mpf(x) for x in m]
                quad = mp.fsum(mm[j] * tau_mp[j][l] * mm[l] for j in range(g) for l in range(g))
                t = mp.exp(mp.pi * 1j * quad)
                slack += float(abs(t)) * (1.0 + _exponent_size(m, tau, None))
                two_m = [int(round(2 * x)) for x in m]
                for app in apps:
                    k = sum(p * q for p, q in zip(two_m, app)) % 4
                    sums[app] += phases[k] * t
            for app in apps:
                out[(ap, app)] = (complex(sums[app]), SLACK * slack)
    return out
