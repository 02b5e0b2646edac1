"""mpmath references shared by several test modules."""

import functools

import mpmath as mp
import pytest


@functools.lru_cache(maxsize=None)
def _band_cells(d, chi):
    """int_k^{k+1} phi_lam(chi) density(lam) dlam for k = 0, ..., 19 at R = 1,
    by 10-point Gauss-Legendre over each cell of 30-digit values: phi is
    2F1((rho+i lam)/2, (rho-i lam)/2; rho+1/2; -sinh^2 chi) and the density
    2^{2 rho} / (2 pi) |c(lam)|^-2 with c from its gamma quotient."""
    with mp.workdps(30):
        xs, ws = mp.gauss_quadrature(10, "legendre")
        rho = mp.mpf(d - 1) / 2
        z = -mp.sinh(mp.mpf(chi)) ** 2

        def g(lam):
            phi = mp.re(mp.hyp2f1((rho + 1j * lam) / 2, (rho - 1j * lam) / 2,
                                  rho + mp.mpf(1) / 2, z))
            log_c = ((2 * rho - 1) * mp.log(2) + mp.loggamma(1j * lam)
                     + mp.loggamma(rho + mp.mpf(1) / 2) - mp.log(mp.pi) / 2
                     - mp.loggamma(rho + 1j * lam))
            return phi * 2 ** (2 * rho) / (2 * mp.pi) * mp.exp(-2 * mp.re(log_c))

        return tuple(mp.fsum(w * g(k + (1 + x) / 2) for x, w in zip(xs, ws)) / 2
                     for k in range(20))


def _band_kernel(d, M, chi):
    """D_M(chi) = int_0^M phi_lam(chi) density(lam) dlam at R = 1, for an
    integer band limit M <= 20."""
    assert M == int(M) and 0 < M <= 20
    with mp.workdps(30):
        return float(mp.fsum(_band_cells(d, chi)[:int(M)]))


@pytest.fixture(scope="session")
def band_kernel_reference():
    return _band_kernel


@functools.lru_cache(maxsize=None)
def _far_band_kernel(d, M, chi):
    """D_M(chi) at R = 1 for chi large enough that e^{-2 chi} is below the
    working precision. There phi_lam(chi) = 2 Re[c(lam) e^{(i lam - rho) chi}],
    so D_M = 2^{2 rho} / pi e^{-rho chi} Re int_0^M e^{i lam chi} h(lam) dlam
    with h = 1/c(-lam), entire within rho of the real axis; the integral is
    the series sum_n (-1)^n [e^{i lam chi} h^{(n)}(lam)]_0^M / (i chi)^{n+1}
    of repeated integration by parts, whose terms fall like n!/(rho chi)^n;
    after eight terms that is below 2e-14 relative for rho chi >= 200."""
    with mp.workdps(30):
        rho = mp.mpf(d - 1) / 2
        M, chi = mp.mpf(M), mp.mpf(chi)

        def h(lam):
            return (mp.sqrt(mp.pi) * mp.gamma(rho - 1j * lam) * mp.rgamma(-1j * lam)
                    / (2 ** (2 * rho - 1) * mp.gamma(rho + mp.mpf(1) / 2)))

        total = 0
        for n in range(8):
            bracket = mp.exp(1j * M * chi) * mp.diff(h, M, n) - mp.diff(h, 0, n)
            total += (-1) ** n * bracket / (1j * chi) ** (n + 1)
        return float(2 ** (2 * rho) / mp.pi * mp.exp(-rho * chi) * mp.re(total))


@pytest.fixture(scope="session")
def far_band_kernel_reference():
    return _far_band_kernel
