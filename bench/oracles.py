"""mpmath reference values for the benchmark's checks.

Every function works at DPS significant digits and returns a Python float.
None of them calls into hyperdirichlet, so they are independent of the code
under test. `self_test` checks them against closed forms before a run uses
them.
"""

from __future__ import annotations

import mpmath as mp

DPS = 32

# Gauss-Legendre rule used for the band integrals over lambda; 20 nodes per
# unit interval resolve both the tanh(pi lam) poles at +-i/2 and the
# oscillation of phi in lambda far below the checks' tolerances.
_GL_NODES = 20


def _gl_rule():
    with mp.workdps(DPS):
        return mp.gauss_quadrature(_GL_NODES, "legendre")


def _gl(f, cuts, rule):
    """Sum of the Gauss-Legendre rule over consecutive cells of cuts."""
    xs, ws = rule
    total = mp.mpf(0)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        half = (hi - lo) / 2
        mid = (hi + lo) / 2
        total += half * mp.fsum(w * f(mid + half * x) for x, w in zip(xs, ws))
    return total


def _rho(d):
    return mp.mpf(d - 1) / 2


def _phi_mp(d, lam, chi):
    rho = _rho(d)
    return mp.re(mp.hyp2f1((rho + 1j * lam) / 2, (rho - 1j * lam) / 2,
                           rho + mp.mpf(1) / 2, -mp.sinh(chi) ** 2))


def phi(d, lam, chi):
    """Zonal spherical function 2F1((rho+i lam)/2, (rho-i lam)/2; rho+1/2; -sinh^2 chi)."""
    with mp.workdps(DPS):
        if chi == 0:
            return 1.0
        return float(_phi_mp(d, mp.mpf(lam), mp.mpf(chi)))


def _inv_c2_mp(d, lam):
    rho = _rho(d)
    log_c = ((2 * rho - 1) * mp.log(2) + mp.loggamma(1j * lam)
             + mp.loggamma(rho + mp.mpf(1) / 2) - mp.log(mp.pi) / 2
             - mp.loggamma(rho + 1j * lam))
    return mp.exp(-2 * mp.re(log_c))


def inv_c2(d, lam):
    """|c(lam)|^-2 from the gamma quotient
    c = 2^(2 rho - 1) Gamma(i lam) Gamma(rho + 1/2) / (sqrt(pi) Gamma(rho + i lam))."""
    with mp.workdps(DPS):
        return float(_inv_c2_mp(d, mp.mpf(lam)))


def _density_mp(d, lam):
    return 2 ** (2 * _rho(d)) / (2 * mp.pi) * _inv_c2_mp(d, lam)


def density(d, lam):
    """Plancherel density 2^(2 rho) / (2 pi) |c(lam)|^-2 at R = 1."""
    with mp.workdps(DPS):
        return float(_density_mp(d, mp.mpf(lam)))


def dirichlet(d, M, chi):
    """Band kernel D_M(chi) = int_0^M phi_lam(chi) density(lam) dlam.

    d = 3 uses the elementary antiderivative
    2 (sin M chi - M chi cos M chi) / (pi chi^2 sinh chi); other d integrate
    the hypergeometric phi against the gamma-quotient density."""
    with mp.workdps(DPS):
        M = mp.mpf(M)
        chi = mp.mpf(chi)
        if d == 3:
            u = M * chi
            return float(2 * (mp.sin(u) - u * mp.cos(u)) / (mp.pi * chi ** 2 * mp.sinh(chi)))
        n = int(mp.ceil(M))
        cuts = [M * k / n for k in range(n + 1)]
        return float(_gl(lambda lam: _phi_mp(d, lam, chi) * _density_mp(d, lam),
                         cuts, _gl_rule()))


def bessel_j(nu, x):
    with mp.workdps(DPS):
        return float(mp.besselj(nu, x))


# Radial profiles of the command line (hyperdirichlet.cli.make_test_function),
# written out again in mpmath. Polynomial-exponential pieces are kept as
# (lo, hi, coefficients of p, beta) for f = p(chi) exp(beta chi) on [lo, hi).
def _pieces(name, a):
    a = mp.mpf(a)
    if name == "linear-ramp":
        return [(0, a, [1, -1 / a], 0)]
    if name == "poly-vanish":
        return [(0, a, [0, 0, a, -1], 0)]
    if name == "exp-decay":
        return [(0, a, [1], -1)]
    if name == "one-jump":
        return [(0, a / 2, [1], 0), (a / 2, a, [mp.mpf(1) / 2], 0)]
    return None


def _profile(name, a):
    """f as an mpmath callable plus its breakpoints inside (0, a)."""
    pieces = _pieces(name, a)
    if pieces is None:
        if name != "bump":
            raise ValueError(f"no mpmath profile {name!r}")
        a = mp.mpf(a)

        def bump(x):
            u = x / a
            return mp.exp(-u * u / (1 - u * u)) if u < 1 else mp.mpf(0)
        return bump, []

    def f(x):
        for lo, hi, p, beta in pieces:
            if lo <= x < hi:
                return mp.polyval(p[::-1], x) * mp.exp(beta * x)
        return mp.mpf(0)
    return f, [lo for lo, _, _, _ in pieces[1:]]


def profile_value(name, a, x):
    with mp.workdps(DPS):
        return float(_profile(name, a)[0](mp.mpf(x)))


def _poly_exp_integral(p, s, lo, hi):
    """int_lo^hi p(x) e^{s x} dx for polynomial coefficients p (ascending)."""
    if s == 0:
        return mp.fsum(c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k, c in enumerate(p))

    def antiderivative(x):
        # e^{sx} sum_j (-1)^j p^(j)(x) / s^(j+1)
        total = 0
        q = list(p)
        j = 0
        while q:
            total += (-1) ** j * mp.polyval(q[::-1], x) / s ** (j + 1)
            q = [k * c for k, c in enumerate(q)][1:]
            j += 1
        return mp.exp(s * x) * total
    return antiderivative(hi) - antiderivative(lo)


def fh_forward_d3(name, a, lam):
    """d = 3 Fourier-Helgason transform int f(chi) sin(lam chi)/(lam sinh chi)
    sinh^2 chi dchi, in closed form for the polynomial-exponential profiles:
    sin(lam x) sinh(x) is a sum of exponentials."""
    with mp.workdps(DPS):
        lam = mp.mpf(lam)
        total = mp.mpf(0)
        for lo, hi, p, beta in _pieces(name, a):
            if lam == 0:
                # sin(lam x)/lam -> x
                xp = [0] + list(p)
                total += (_poly_exp_integral(xp, beta + 1, lo, hi)
                          - _poly_exp_integral(xp, beta - 1, lo, hi)) / 2
            else:
                z = (_poly_exp_integral(p, beta + 1 + 1j * lam, lo, hi)
                     - _poly_exp_integral(p, beta - 1 + 1j * lam, lo, hi)) / 2
                total += mp.im(z) / lam
        return float(total)


def partial_sums_d3(name, a, Ms):
    """d = 3 partial sums at the origin,
    S_M = (2/pi) int_0^a f(chi) sinh(chi) (sin M chi - M chi cos M chi) / chi^2 dchi,
    the elementary integrand of int_0^M fhat(lam) density(lam) dlam."""
    with mp.workdps(DPS):
        a = mp.mpf(a)
        f, breaks = _profile(name, a)
        rule = _gl_rule()
        out = []
        for M in Ms:
            M = mp.mpf(M)

            def g(x):
                u = M * x
                return f(x) * mp.sinh(x) * (mp.sin(u) - u * mp.cos(u)) / (x * x)
            cuts = sorted(set([mp.mpf(0), a] + breaks
                              + [k * mp.pi / M for k in range(1, int(M * a / mp.pi) + 1)
                                 if k * mp.pi / M < a]))
            out.append(float(2 / mp.pi * _gl(g, cuts, rule)))
        return out


def _index_transform_exp_decay(mu):
    return mp.e * mp.sqrt(2 / mp.pi) * mp.re(mp.besselk(1j * mu, 1))


def index_transform_exp_decay(mu):
    """int_1^inf P_{-1/2+i mu}(y) exp(-(y-1)) dy = e sqrt(2/pi) K_{i mu}(1)
    (Gradshteyn-Ryzhik 7.141)."""
    with mp.workdps(DPS):
        return float(_index_transform_exp_decay(mp.mpf(mu)))


def mehler_fock_exp_decay(mu):
    """Mehler-Fock transform of exp(-(y-1)): mu tanh(pi mu) times the index
    transform."""
    with mp.workdps(DPS):
        mu = mp.mpf(mu)
        return float(mu * mp.tanh(mp.pi * mu) * _index_transform_exp_decay(mu))


# J_nu(x) from Abramowitz & Stegun, Table 9.1.
_J_TABLE = (
    (0, 1.0, 0.765197686557967),
    (1, 1.0, 0.440050585744934),
    (0, 2.0, 0.223890779141236),
    (1, 2.0, 0.576724807756873),
    (0, 10.0, -0.245935764451348),
    (1, 10.0, 0.043472746168861),
)


def self_test():
    """Return a list of failures of the oracles against closed forms:
    cos(lam chi) in d = 1, sin(lam chi)/(lam sinh chi) in d = 3, the d = 3
    density 2 lam^2 / pi, and tabulated J_nu."""
    bad = []

    def expect(label, got, want, tol):
        if not abs(got - want) <= tol * max(1.0, abs(want)):
            bad.append(f"{label}: {got!r} != {want!r}")

    with mp.workdps(DPS):
        for lam, chi in ((0.7, 0.3), (13.0, 2.5), (38.0, 4.9)):
            expect(f"phi d=1 ({lam},{chi})", phi(1, lam, chi),
                   float(mp.cos(mp.mpf(lam) * chi)), 1e-14)
            expect(f"phi d=3 ({lam},{chi})", phi(3, lam, chi),
                   float(mp.sin(mp.mpf(lam) * chi) / (lam * mp.sinh(chi))), 1e-14)
            expect(f"density d=3 {lam}", density(3, lam), float(2 * mp.mpf(lam) ** 2 / mp.pi), 1e-14)
        # The quadrature route of `dirichlet` against its d = 3 closed form.
        rule = _gl_rule()
        M, chi = mp.mpf(6.5), mp.mpf(0.8)
        quad = _gl(lambda lam: mp.sin(lam * chi) / (lam * mp.sinh(chi)) * _density_mp(3, lam),
                   [M * k / 7 for k in range(8)], rule)
        expect("dirichlet d=3 quadrature", float(quad), dirichlet(3, M, chi), 1e-13)
        for nu, x, want in _J_TABLE:
            expect(f"J_{nu}({x})", bessel_j(nu, x), want, 1e-14)
    return bad
