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
