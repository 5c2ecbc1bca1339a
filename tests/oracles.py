"""High-precision test oracles, independent of the package kernel.

Everything here goes through mpmath direct summation (or mpmath's own
special functions); nothing imports the series kernel, so agreements
between the two are genuine cross-checks.
"""

import itertools

import mpmath as mp


def mp_theta(a_prime, a_double_prime, z, tau, radius=30, dps=50):
    """theta_a(z, tau) by direct mpmath box summation.

    tau: nested list of complex numbers (g x g); z: list of complex or
    None.  radius should comfortably exceed what dps requires.
    """
    g = len(a_prime)
    with mp.workdps(dps):
        tau_m = [[mp.mpc(tau[j][l]) for l in range(g)] for j in range(g)]
        if z is None:
            z = [0] * g
        zv = [mp.mpc(zj) for zj in z]
        half = mp.mpf(1) / 2
        total = mp.mpc(0)
        for n in itertools.product(range(-radius, radius + 1), repeat=g):
            m = [mp.mpf(nj) + half * aj for nj, aj in zip(n, a_prime)]
            quad = mp.mpc(0)
            for j in range(g):
                for l in range(g):
                    quad += m[j] * tau_m[j][l] * m[l]
            lin = mp.mpc(0)
            for j in range(g):
                lin += m[j] * (zv[j] + half * a_double_prime[j])
            total += mp.e ** (mp.pi * 1j * quad + 2 * mp.pi * 1j * lin)
        return total


def mp_theta_moment(a_prime, a_double_prime, tau, powers, radius=30, dps=50):
    """Termwise z = 0 moment: sum of prod_j m_j^powers[j] * term."""
    g = len(a_prime)
    with mp.workdps(dps):
        tau_m = [[mp.mpc(tau[j][l]) for l in range(g)] for j in range(g)]
        half = mp.mpf(1) / 2
        total = mp.mpc(0)
        for n in itertools.product(range(-radius, radius + 1), repeat=g):
            m = [mp.mpf(nj) + half * aj for nj, aj in zip(n, a_prime)]
            quad = mp.mpc(0)
            for j in range(g):
                for l in range(g):
                    quad += m[j] * tau_m[j][l] * m[l]
            lin = mp.mpc(0)
            for j in range(g):
                lin += m[j] * half * a_double_prime[j]
            w = mp.mpf(1)
            for j, p in enumerate(powers):
                w *= m[j] ** p
            total += w * mp.e ** (mp.pi * 1j * quad + 2 * mp.pi * 1j * lin)
        return total


def mp_theta_moments(a_prime, a_double_prime, tau, monomials, radius, cutoff=40.0, dps=30):
    """Termwise z = 0 moments by direct mpmath summation, one pass over
    the points m of Z^g + a'/2 in the box |n_j| <= radius with
    m^t (Im tau) m <= cutoff (a float filter; radius must hold that
    ellipsoid): per monomial, a tuple of indices, the sum of
    prod m_j * term and the sum of its absolute values.  The terms left
    out are below exp(-pi cutoff) each."""
    g = len(a_prime)
    y = [[complex(tau[j][l]).imag for l in range(g)] for j in range(g)]
    with mp.workdps(dps):
        tau_m = [[mp.mpc(tau[j][l]) for l in range(g)] for j in range(g)]
        half = mp.mpf(1) / 2
        sums = {mono: mp.mpc(0) for mono in monomials}
        sizes = {mono: mp.mpf(0) for mono in monomials}
        for n in itertools.product(range(-radius, radius + 1), repeat=g):
            m = [nj + aj / 2 for nj, aj in zip(n, a_prime)]
            if sum(m[j] * y[j][l] * m[l] for j in range(g) for l in range(g)) > cutoff:
                continue
            mm = [mp.mpf(nj) + half * aj for nj, aj in zip(n, a_prime)]
            quad = sum(mm[j] * tau_m[j][l] * mm[l] for j in range(g) for l in range(g))
            lin = sum(mm[j] * half * a_double_prime[j] for j in range(g))
            term = mp.e ** (mp.pi * 1j * quad + 2 * mp.pi * 1j * lin)
            for mono in monomials:
                w = mp.mpf(1)
                for j in mono:
                    w *= mm[j]
                sums[mono] += w * term
                sizes[mono] += abs(w * term)
        return {mono: (complex(sums[mono]), float(sizes[mono])) for mono in monomials}


def mp_theta_tail(imag_tau_scalar, nrad, dps=50):
    """Exact genus-1 tail of sum exp(-pi y n^2) beyond |n| <= nrad."""
    with mp.workdps(dps):
        y = mp.mpf(imag_tau_scalar)
        return mp.nsum(lambda n: 2 * mp.e ** (-mp.pi * y * n**2), [nrad + 1, mp.inf])


def mp_hyp2f1(a, b, c, z, dps=40):
    with mp.workdps(dps):
        return mp.hyp2f1(a, b, c, mp.mpc(z))


# 50-digit reference values (computed with mpmath at dps = 60)
THETA00_AT_I = mp.mpf("1.08643481121330801457531612151022345707")
THETA00_SQ_AT_I = mp.mpf("1.18034059901609622604533794056")
