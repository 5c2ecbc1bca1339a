"""Write a seeded float.hex dump of the lattice kernel's outputs.

    python tools/kernel_bits.py [--root CHECKOUT] [--seed N] > dump.txt

Two checkouts that give the same dump for a seed have the same kernel
output bits at those points, so a change meant to keep every bit is
checked with a diff:

    python tools/kernel_bits.py --root /path/to/parent > parent.txt
    python tools/kernel_bits.py > change.txt
    diff parent.txt change.txt

The package is imported from CHECKOUT/src (by default the checkout this
script lies in); only its public kernel API is called, so the script
also runs against older checkouts.  At genus 1, 2 and 3 it takes one
shallow and one deep point (Im tau with smallest eigenvalue 0.8, and
0.01, 0.02 and 0.3 at genus 1, 2 and 3), a z != 0 drawn from the seed,
and writes, for every characteristic:
- batch_moments at orders 1, 2 and 4 (value, t1, t2, t4, tail bound and
  radius);
- theta_values at z = None, z = 0 and the z != 0;
- for a mixed selection (one characteristic of the first a' coset, all
  of the second, the last two), whose one call sums cosets by parity
  class beside cosets summed from their own rows: batch_moments at order
  4 and theta_values at z = 0 and the z != 0;
- theta_jet at z = 0 and the z != 0;
- truncation_radius for weights 0, 1, 2 and 4 at both z, for the
  characteristic and for no characteristic.
Each line is one output: its labels, then float.hex of every real and
imaginary part, so signed zeros count.  A run takes a few seconds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

DEPTHS = {1: (0.8, 0.01), 2: (0.8, 0.02), 3: (0.8, 0.3)}  # lambda_min, shallow and deep
EPS = 1e-14


def _hex(values) -> str:
    return " ".join(f"{complex(v).real.hex()},{complex(v).imag.hex()}" for v in values)


def _point(np, SiegelPoint, genus: int, lam: float, rng):
    """tau with Re tau in [-1, 1], Im tau = Q diag(eigenvalues) Q^t, the
    eigenvalues running from lam towards 2, Q drawn from the seed."""
    x = rng.uniform(-1, 1, (genus, genus))
    q, _ = np.linalg.qr(rng.normal(size=(genus, genus)))
    eig = lam + (2.0 - lam) * np.arange(genus) / genus
    return SiegelPoint(genus, (x + x.T) / 2 + 1j * (q * eig) @ q.T)


def dump(root: Path, seed: int):
    """Yield the lines of the dump for the checkout at root."""
    sys.path.insert(0, str(root / "src"))
    import numpy as np

    from siegeltheta import theta
    from siegeltheta.characteristics import enumerate_characteristics
    from siegeltheta.siegel import SiegelPoint

    for genus, lams in DEPTHS.items():
        chars = enumerate_characteristics(genus)
        for depth, lam in zip(("shallow", "deep"), lams):
            rng = np.random.default_rng([seed, genus, int(lam * 1000)])
            tau = _point(np, SiegelPoint, genus, lam, rng)
            z = rng.uniform(-0.3, 0.3, genus) + 1j * rng.uniform(-0.1, 0.1, genus)
            tag = f"g{genus} {depth}"
            for order in (1, 2, 4):
                moments = theta.batch_moments(chars, tau, EPS, order=order)
                for a in chars:
                    mom = moments[a]
                    arrays = [mom.t1] + [x.ravel() for x in (mom.t2, mom.t4) if x is not None]
                    yield (f"{tag} moments{order} {a.label()} radius={mom.radius} "
                           f"bound={mom.tail_bound.hex()} {_hex([mom.value, *np.concatenate(arrays)])}")
            for name, w in (("None", None), ("0", np.zeros(genus)), ("z", z)):
                values = theta.theta_values(chars, w, tau, EPS)
                yield f"{tag} values z={name} " + _hex(values[a] for a in chars)
            mixed = list(dict.fromkeys([chars[1], *chars[2**genus:2 * 2**genus], *chars[-2:]]))
            moments = theta.batch_moments(mixed, tau, EPS, order=4)
            for a in mixed:
                mom = moments[a]
                yield (f"{tag} mixed moments4 {a.label()} radius={mom.radius} "
                       f"bound={mom.tail_bound.hex()} "
                       f"{_hex([mom.value, *mom.t1, *mom.t2.ravel(), *mom.t4.ravel()])}")
            for name, w in (("0", np.zeros(genus)), ("z", z)):
                values = theta.theta_values(mixed, w, tau, EPS)
                yield f"{tag} mixed values z={name} " + _hex(values[a] for a in mixed)
            for name, w in (("0", np.zeros(genus)), ("z", z)):
                for a in chars:
                    jet = theta.theta_jet(a, w, tau, EPS)
                    yield (f"{tag} jet z={name} {a.label()} bound={jet.tail_bound.hex()} "
                           f"{_hex([jet.value, *jet.z_gradient, *jet.z_hessian.ravel()])}")
                for weight in (0, 1, 2, 4):
                    for a in (None, *chars):
                        result = theta.truncation_radius(tau, w, EPS, weight, a)
                        label = "any" if a is None else a.label()
                        yield (f"{tag} radius z={name} w={weight} {label} "
                               f"{result.radius} {result.bound.hex()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/siegeltheta is dumped")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.stdout.write("\n".join(dump(args.root.resolve(), args.seed)) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
