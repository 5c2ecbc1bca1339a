"""Exact q-expansions of thetanulls, as an independent oracle.

A thetanull is a lattice sum over m = n + a'/2, and collecting lattice
points by the symmetric matrix m m^t gives its Fourier expansion

    theta_a(tau) = sum_nu a_nu exp(2 pi i Tr(nu tau)),

where nu = m m^t / 2 runs over positive semidefinite quarter-integral
data.  To keep everything exact we index coefficients by the integer
encoding E = 8 nu = (2m)(2m)^t: a single integer (2m)^2 at genus 1, the
triple (E_11, E_22, E_12) at genus 2.  One term contributes
exp(pi i Tr(E tau) / 4).

Coefficients are exact integers: the points m and -m share one key and
contribute i^p + i^{-p} with p = (2m).a'' mod 4, which is +-2 or 0 for
even characteristics (and cancels to 0 identically for odd ones).

Truncation keeps |m|^2 <= order.  The dropped tail is certified with the
same one-dimensional Gaussian machinery as the series kernel, using the
enclosing box |m|_inf > sqrt(order/g).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .characteristics import Characteristic
from .siegel import SiegelPoint
from .theta import DEFAULT_EPS, _AxisSums, _tail_product, theta_values

__all__ = ["QExpansion", "thetanull_qexp", "crosscheck", "MAX_ORDER"]

MAX_ORDER = {1: 200, 2: 40}


class OrderError(ValueError):
    """Requested expansion order outside the supported range."""


@dataclass(frozen=True)
class QExpansion:
    """Truncated thetanull Fourier expansion with exact integer coefficients.

    Keys encode E = 8 nu: an int (2m)^2 at genus 1, a tuple
    (E11, E22, E12) at genus 2.  All lattice points with |m|^2 <= order
    are collected.
    """

    genus: int
    order: int
    coefficients: dict = field(repr=False)

    def evaluate(self, tau: SiegelPoint) -> complex:
        """Value of the truncated expansion at tau."""
        if tau.genus != self.genus:
            raise ValueError("genus mismatch")
        t = tau.tau
        total = 0.0 + 0.0j
        if self.genus == 1:
            t11 = complex(t[0, 0])
            for e, c in sorted(self.coefficients.items()):
                total += c * np.exp(1j * math.pi * e * t11 / 4.0)
        else:
            for (e11, e22, e12), c in sorted(self.coefficients.items()):
                tr = e11 * t[0, 0] + e22 * t[1, 1] + 2 * e12 * t[0, 1]
                total += c * np.exp(1j * math.pi * tr / 4.0)
        return complex(total)

    def tail_bound(self, tau: SiegelPoint) -> float:
        """Certified bound on the terms dropped by the order cutoff."""
        nrad = int(math.floor(math.sqrt(self.order / self.genus)))
        if nrad < 1:
            return math.inf
        return _tail_product(_AxisSums(0.0), tau.lambda_min, ("any",) * self.genus, nrad)

    def to_json(self) -> list:
        """Rows {exponent, coeff}; the exponent is the integer encoding
        8 nu (genus 1 additionally gets the power of q = e^(pi i tau))."""
        out = []
        if self.genus == 1:
            for e, c in sorted(self.coefficients.items()):
                out.append({"exponent": e, "q_power": str(Fraction(e, 4)), "coeff": c})
        else:
            for key, c in sorted(self.coefficients.items()):
                out.append({"exponent": list(key), "coeff": c})
        return out


def thetanull_qexp(a: Characteristic, order: int) -> QExpansion:
    """Exact Fourier coefficients of theta_a(0, tau) up to |m|^2 <= order.

    Odd characteristics yield the zero expansion (all coefficients
    cancel exactly).
    """
    g = a.genus
    if g not in MAX_ORDER:
        raise OrderError(f"q-expansions are implemented for genus 1 and 2, not {g}")
    if not (1 <= order <= MAX_ORDER[g]):
        raise OrderError(f"order must be in 1..{MAX_ORDER[g]} for genus {g}")
    # accumulate Gaussian-integer contributions i^p exactly
    acc: dict = {}
    bound = math.isqrt(4 * order) + 1
    ranges = [
        [x for x in range(-bound, bound + 1) if (x - aj) % 2 == 0] for aj in a.a_prime
    ]
    for two_m in itertools.product(*ranges):
        norm4 = sum(x * x for x in two_m)  # = 4 |m|^2
        if norm4 > 4 * order:
            continue
        p = sum(x * y for x, y in zip(two_m, a.a_double_prime)) % 4
        re, im = ((1, 0), (0, 1), (-1, 0), (0, -1))[p]
        if g == 1:
            key = two_m[0] * two_m[0]
        else:
            key = (two_m[0] * two_m[0], two_m[1] * two_m[1], two_m[0] * two_m[1])
        cur = acc.get(key, (0, 0))
        acc[key] = (cur[0] + re, cur[1] + im)
    coeffs = {}
    for key, (re, im) in acc.items():
        if im != 0:
            raise AssertionError("non-real coefficient; lattice pairing failed")
        if re != 0:
            coeffs[key] = re
    return QExpansion(g, order, coeffs)


def crosscheck(a: Characteristic, tau: SiegelPoint, order: int, eps: float = DEFAULT_EPS) -> dict:
    """Compare the truncated expansion against the series kernel at tau.

    Requires Im(tau) large enough that the certified expansion tail is
    below 1e-12; returns the residual and the combined certified bound.
    """
    qe = thetanull_qexp(a, order)
    tail = qe.tail_bound(tau)
    if not (tail < 1e-12):
        raise ValueError(
            f"expansion tail {tail:.3g} too large at this (tau, order); "
            "increase order or Im(tau)"
        )
    direct = theta_values([a], None, tau, eps)[a]
    approx = qe.evaluate(tau)
    resid = abs(approx - direct)
    return {
        "residual": resid,
        "tail_bound": tail,
        "series_eps": eps,
        "within_bounds": resid <= tail + eps + 1e-13,
        "qexp_value": approx,
        "series_value": direct,
    }
