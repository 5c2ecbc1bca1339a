"""Siegel theta constants with 2-characteristics (genus 1-3).

Certified series evaluation, the combinatorics of characteristics and
Gopel systems, a harness verifying the differential and algebraic
identities of the thetanull ring at seeded sample points, an exact
polynomial engine for the formal identities, the genus-1 first-order
system, and an exact q-expansion oracle.
"""

__version__ = "0.1.0"

from .characteristics import (
    Characteristic,
    GopelSystem,
    digit_decode,
    digit_encode,
    enumerate_characteristics,
    gopel_systems,
    pairing,
    parity,
)
from .siegel import (
    SiegelPoint,
    SymplecticMatrix,
    act,
    cocycle_factor,
    is_in_gamma_48,
    random_gamma_48,
)
from .theta import (
    DEFAULT_EPS,
    ThetaJet,
    theta_jet,
    theta_values,
    truncation_radius,
)
from .identities import REGISTRY, IdentityCheck, SamplePlan, run_check

__all__ = [
    "__version__",
    "Characteristic",
    "GopelSystem",
    "digit_decode",
    "digit_encode",
    "enumerate_characteristics",
    "gopel_systems",
    "pairing",
    "parity",
    "SiegelPoint",
    "SymplecticMatrix",
    "act",
    "cocycle_factor",
    "is_in_gamma_48",
    "random_gamma_48",
    "DEFAULT_EPS",
    "ThetaJet",
    "theta_jet",
    "theta_values",
    "truncation_radius",
    "REGISTRY",
    "IdentityCheck",
    "SamplePlan",
    "run_check",
]
