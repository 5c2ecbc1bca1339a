"""Siegel upper half-space points and the theta group.

Points are symmetric complex g x g matrices tau with positive definite
imaginary part.  The derivations used throughout are the normalized
partials

    delta_jj = (1/pi i) d/dtau_jj,      delta_jl = (1/2 pi i) d/dtau_jl  (j < l),

indexed by pairs j <= l (n = g(g+1)/2 of them).

The theta group of level (4,8) consists of the integral symplectic
matrices gamma = [[a,b],[c,d]] with gamma = 1 mod 4 entrywise and
diag(a.b^t) = diag(c.d^t) = 0 mod 8; it acts by
gamma.tau = (a tau + b)(c tau + d)^{-1}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SiegelPoint",
    "SymplecticMatrix",
    "is_in_gamma_48",
    "act",
    "cocycle_factor",
    "random_gamma_48",
]

#: smallest admissible eigenvalue of Im(tau); series truncation bounds
#: degrade as the minimum eigenvalue approaches 0
PD_MARGIN = 1e-8

#: condition number of (c tau + d) beyond which act() refuses to invert
COND_LIMIT = 1e12


class HalfSpaceError(ValueError):
    """Raised for matrices outside (or numerically too close to the edge of)
    the Siegel upper half-space."""


@dataclass(frozen=True)
class SiegelPoint:
    """A point of the Siegel upper half-space of the given genus.

    Symmetry is exact: only the upper triangle of the input is read and
    the stored matrix mirrors it.  Every entry must be finite, and
    positive definiteness of the imaginary part is checked with margin
    PD_MARGIN.
    """

    genus: int
    tau: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.tau, dtype=complex)
        if m.shape != (self.genus, self.genus):
            raise ValueError(f"tau must be {self.genus}x{self.genus}")
        sym = np.triu(m) + np.triu(m, 1).T  # exact symmetry from the upper triangle
        if not np.isfinite(sym).all():
            raise HalfSpaceError("tau must have finite entries")
        lam = float(np.linalg.eigvalsh(sym.imag).min())
        if not np.isfinite(lam) or lam <= PD_MARGIN:
            raise HalfSpaceError(
                f"Im(tau) must be positive definite with margin {PD_MARGIN:g}; "
                f"smallest eigenvalue {lam:g}"
            )
        sym.setflags(write=False)
        object.__setattr__(self, "tau", sym)
        object.__setattr__(self, "_lambda_min", lam)

    @property
    def lambda_min(self) -> float:
        """Smallest eigenvalue of Im(tau)."""
        return self._lambda_min

    def __eq__(self, other):
        return (
            isinstance(other, SiegelPoint)
            and self.genus == other.genus
            and np.array_equal(self.tau, other.tau)
        )

    def __hash__(self):
        return hash((self.genus, self.tau.tobytes()))

    def to_json(self) -> dict:
        """JSON object with genus and row-major [re, im] entry pairs."""
        return {
            "genus": self.genus,
            "tau": [[[v.real, v.imag] for v in row] for row in self.tau],
        }

    @staticmethod
    def from_json(obj: dict | str) -> "SiegelPoint":
        if isinstance(obj, str):
            obj = json.loads(obj)
        for key in ("genus", "tau"):
            if key not in obj:
                raise ValueError(f"a Siegel point needs the field {key!r}")
        g = int(obj["genus"])
        try:
            m = np.array([[complex(re, im) for re, im in row] for row in obj["tau"]], dtype=complex)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"tau must be a matrix of [re, im] pairs ({exc})") from exc
        return SiegelPoint(g, m)  # symmetry re-enforced by the constructor


def _as_int_matrix(m, genus, name):
    a = np.asarray(m, dtype=np.int64)
    if a.shape != (genus, genus):
        raise ValueError(f"block {name} must be {genus}x{genus} integer")
    return a


@dataclass(frozen=True)
class SymplecticMatrix:
    """An integral symplectic matrix stored as blocks [[a, b], [c, d]]."""

    genus: int
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)

    def __post_init__(self):
        g = self.genus
        for name in "abcd":
            blk = _as_int_matrix(getattr(self, name), g, name)
            blk.setflags(write=False)
            object.__setattr__(self, name, blk)
        # t(gamma) J gamma = J, exactly in integers
        m = self.matrix()
        j = self._J(g)
        if not np.array_equal(m.T @ j @ m, j):
            raise ValueError("blocks do not satisfy the symplectic relation")

    @staticmethod
    def _J(g: int) -> np.ndarray:
        j = np.zeros((2 * g, 2 * g), dtype=np.int64)
        j[:g, g:] = np.eye(g, dtype=np.int64)
        j[g:, :g] = -np.eye(g, dtype=np.int64)
        return j

    def matrix(self) -> np.ndarray:
        return np.block([[self.a, self.b], [self.c, self.d]])

    @staticmethod
    def identity(genus: int) -> "SymplecticMatrix":
        e = np.eye(genus, dtype=np.int64)
        z = np.zeros((genus, genus), dtype=np.int64)
        return SymplecticMatrix(genus, e, z, z, e)

    @staticmethod
    def upper_unipotent(bmat) -> "SymplecticMatrix":
        b = np.asarray(bmat, dtype=np.int64)
        g = b.shape[0]
        e = np.eye(g, dtype=np.int64)
        z = np.zeros((g, g), dtype=np.int64)
        return SymplecticMatrix(g, e, b, z, e)

    @staticmethod
    def lower_unipotent(cmat) -> "SymplecticMatrix":
        c = np.asarray(cmat, dtype=np.int64)
        g = c.shape[0]
        e = np.eye(g, dtype=np.int64)
        z = np.zeros((g, g), dtype=np.int64)
        return SymplecticMatrix(g, e, z, c, e)

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        if other.genus != self.genus:
            raise ValueError("genus mismatch")
        g = self.genus
        m = self.matrix() @ other.matrix()
        return SymplecticMatrix(g, m[:g, :g], m[:g, g:], m[g:, :g], m[g:, g:])

    def inverse(self) -> "SymplecticMatrix":
        # gamma^{-1} = [[d^t, -b^t], [-c^t, a^t]], exact in integers
        return SymplecticMatrix(self.genus, self.d.T, -self.b.T, -self.c.T, self.a.T)


def is_in_gamma_48(gamma: SymplecticMatrix) -> bool:
    """Membership in the theta group of level (4,8)."""
    g = gamma.genus
    m = gamma.matrix()
    if not np.array_equal(m % 4, np.eye(2 * g, dtype=np.int64) % 4):
        return False
    if np.any(np.diag(gamma.a @ gamma.b.T) % 8):
        return False
    if np.any(np.diag(gamma.c @ gamma.d.T) % 8):
        return False
    return True


def cocycle_factor(gamma: SymplecticMatrix, tau: SiegelPoint) -> np.ndarray:
    """The automorphy factor c.tau + d."""
    return gamma.c @ tau.tau + gamma.d


def act(gamma: SymplecticMatrix, tau: SiegelPoint) -> SiegelPoint:
    """gamma.tau = (a tau + b)(c tau + d)^{-1}."""
    if gamma.genus != tau.genus:
        raise ValueError("genus mismatch")
    ctd = cocycle_factor(gamma, tau)
    if np.linalg.cond(ctd) > COND_LIMIT:
        raise HalfSpaceError("c.tau + d is numerically singular; input is ill-conditioned")
    num = gamma.a @ tau.tau + gamma.b
    # gamma.tau solves X (c tau + d) = (a tau + b)
    res = np.linalg.solve(ctd.T, num.T).T
    res = (res + res.T) / 2.0  # symmetric up to roundoff; enforce exactly
    return SiegelPoint(tau.genus, res)


def random_gamma_48(seed: int, word_length: int, genus: int = 2) -> SymplecticMatrix:
    """A random product of `word_length` unipotent generators, each in the
    level-(4,8) theta group.

    Upper generators use symmetric b with entries in 4Z and diagonal in 8Z;
    lower generators mirror them.  Such factors pass the congruence test
    individually, hence so does the product.
    """
    if word_length < 1:
        raise ValueError("word_length must be >= 1")
    rng = np.random.default_rng(seed)
    out = SymplecticMatrix.identity(genus)
    for _ in range(word_length):
        m = 4 * rng.integers(-1, 2, size=(genus, genus), dtype=np.int64)
        m = np.triu(m) + np.triu(m, 1).T
        np.fill_diagonal(m, 8 * rng.integers(-1, 2, size=genus, dtype=np.int64))
        if not m.any():
            np.fill_diagonal(m, 8)  # avoid the identity word
        if rng.integers(0, 2) == 0:
            step = SymplecticMatrix.upper_unipotent(m)
        else:
            step = SymplecticMatrix.lower_unipotent(m)
        out = out @ step
    return out
