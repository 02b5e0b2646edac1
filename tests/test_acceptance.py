"""Acceptance gate: one test per criterion, each printing a single
pass/fail line."""

import json
import math
import random

import mpmath as mp

from hyperdirichlet.numerics import QuadratureSpec, integrate, extrapolate_limit, pointwise
from hyperdirichlet.specfun import gamma_modulus_sq
from hyperdirichlet.spherical import (SpectralParams, phi, phi_legendre,
                                      phi_angular_oracle, eigen_residual,
                                      euclidean_limit_error)
from hyperdirichlet.cfunction import (c_modulus_sq_gamma, c_modulus_sq_closed,
                                      plancherel_density, density_euclid_limit,
                                      density_euclid_constant)
from hyperdirichlet.kernel import (KernelParams, dirichlet_quadrature,
                                   dirichlet_closed, dirichlet_recursion,
                                   dirichlet_asymptotic, dirichlet_origin_odd)
from hyperdirichlet.transform import (RadialFunction, DecayEnvelope,
                                      parseval_check, mehler_fock_forward,
                                      mehler_fock_inverse, partial_sum,
                                      product_formula_residual)
from hyperdirichlet.convergence import (converge_at_origin,
                                        example_d5_boundary_audit, converge_d2)
from hyperdirichlet.cli import main as cli_main

LAMBDAS = (0.0, 0.5, 1.0, 5.0, 20.0)
CHIS = (0.1, 0.5, 1.0, 2.0, 3.0)
GRID_DIMS = (2, 3, 4, 5, 6)


def _check(num, desc, ok):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
    print(line)
    assert ok, line


def _bump():
    def f(x):
        if x >= 1.0:
            return 0.0
        return math.exp(-x * x / (1.0 - x * x))
    return RadialFunction(f, 1.0)


def test_criterion_01_dual_realizations():
    worst_leg = 0.0
    worst_ang = 0.0
    for d in GRID_DIMS:
        pa = SpectralParams(d)
        for lam in LAMBDAS:
            for chi in CHIS:
                v = phi(pa, lam, chi)
                worst_leg = max(worst_leg, abs(v - phi_legendre(pa, lam, chi)))
                worst_ang = max(worst_ang, abs(v - phi_angular_oracle(pa, lam, chi)))
    _check(1, f"dual realizations: legendre {worst_leg:.2e} <= 1e-9, "
               f"angular {worst_ang:.2e} <= 1e-7",
           worst_leg <= 1e-9 and worst_ang <= 1e-7)


def test_criterion_02_eigen_equation():
    worst = 0.0
    for d in GRID_DIMS:
        pa = SpectralParams(d)
        for lam in LAMBDAS:
            for chi in CHIS:
                worst = max(worst, eigen_residual(pa, lam, chi, 1e-3))
    _check(2, f"eigen-equation residual {worst:.2e} < 1e-6", worst < 1e-6)


def test_criterion_03_c_function():
    worst = 0.0
    for d in range(2, 9):
        pa = SpectralParams(d)
        for lam in (0.1, 0.5, 1.0, 3.0, 7.0, 15.0, 30.0):
            g = c_modulus_sq_gamma(pa, lam)
            c = c_modulus_sq_closed(pa, lam)
            worst = max(worst, abs(c - g) / abs(g))
    lam = 1e3
    worst_asym = 0.0
    for d in (2, 3, 5, 6):
        pa = SpectralParams(d)
        rho = pa.rho
        predicted = (2.0 ** (2.0 * rho) / (2.0 * math.pi)
                     * math.pi / (4.0 ** (2.0 * rho - 1.0)
                                  * math.gamma(rho + 0.5) ** 2)
                     * lam ** (d - 1))
        worst_asym = max(worst_asym,
                         abs(plancherel_density(pa, lam) - predicted) / predicted)
    _check(3, f"c-function closed forms rel {worst:.2e} <= 1e-10, "
               f"large-lambda density within {worst_asym:.2%}",
           worst <= 1e-10 and worst_asym < 0.01)


def test_criterion_04_gamma_identities():
    random.seed(7)
    worst = 0.0
    for _ in range(200):
        lam = random.uniform(0.1, 30.0)
        k = random.randint(1, 6)
        kind, z = random.choice([
            ("integer_shift", k + 1j * lam),
            ("half_integer_shift", k + 0.5 + 1j * lam),
        ])
        ref = float(abs(mp.gamma(mp.mpc(z))) ** 2)
        worst = max(worst, abs(gamma_modulus_sq(kind, lam, k) - ref) / ref)
    _check(4, f"gamma identities rel {worst:.2e} <= 1e-10", worst <= 1e-10)


def test_criterion_05_kernel_three_way(band_kernel_reference):
    worst_odd = 0.0
    for d in (3, 5):
        pa = SpectralParams(d)
        for M in (5.0, 20.0):
            kp = KernelParams(pa, M)
            for chi in (0.3, 1.0, 2.0):
                quad = dirichlet_quadrature(kp, chi)
                closed = dirichlet_closed(kp, chi)
                rec = dirichlet_recursion(kp, chi)
                worst_odd = max(worst_odd, abs(quad - closed), abs(rec - closed))
    # even d: the recursion is the quadrature, so both meet mpmath instead
    worst_even = 0.0
    for d in (2, 4, 6):
        pa = SpectralParams(d)
        for M in (5.0, 20.0):
            kp = KernelParams(pa, M)
            for chi in (0.3, 1.0, 2.0):
                ref = band_kernel_reference(d, M, chi)
                worst_even = max(worst_even, abs(dirichlet_quadrature(kp, chi) - ref),
                                 abs(dirichlet_recursion(kp, chi) - ref))
    _check(5, f"kernel three-way odd {worst_odd:.2e} <= 1e-7, "
               f"even vs mpmath {worst_even:.2e} <= 1e-6",
           worst_odd <= 1e-7 and worst_even <= 1e-6)


def test_criterion_06_origin_values():
    pa = SpectralParams(3, 1.0)
    worst = 0.0
    for M in (1.0, 5.0, 10.0):
        kp = KernelParams(pa, M)
        exact = 2.0 * M ** 3 / (3.0 * math.pi)
        worst = max(worst, abs(dirichlet_origin_odd(kp) - exact) / exact)
    # chi -> 0 extrapolation of the closed form; even in chi, so use p = 1/chi^2
    kp = KernelParams(pa, 5.0)
    pts = [(1.0 / chi ** 2, dirichlet_closed(kp, chi))
           for chi in (0.08, 0.04, 0.02, 0.01, 0.005)]
    ext_err = abs(extrapolate_limit(pts) - dirichlet_origin_odd(kp))
    # d = 5 polynomial form vs direct quadrature of the spectral integral
    pa5 = SpectralParams(5, 1.0)
    kp5 = KernelParams(pa5, 8.0)
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=2000)
    integral = integrate(pointwise(lambda lam: plancherel_density(pa5, lam)), 0.0, 8.0, spec).value
    d5_err = abs(dirichlet_origin_odd(kp5) - integral) / abs(integral)
    _check(6, f"origin: d=3 rel {worst:.2e} <= 1e-10, extrapolation "
               f"{ext_err:.2e} <= 1e-8, d=5 vs integral {d5_err:.2e} <= 1e-8",
           worst <= 1e-10 and ext_err <= 1e-8 and d5_err <= 1e-8)


def test_criterion_07_asymptotics():
    pa = SpectralParams(3)
    chi = 1.0
    rel = []
    for M in (200.0, 400.0):
        kp = KernelParams(pa, M)
        exact = dirichlet_closed(kp, chi)
        rel.append(abs(dirichlet_asymptotic(kp, chi) - exact) / abs(exact))
    ratio = rel[0] / rel[1]
    _check(7, f"asymptotics: rel err {rel[0]:.2%} < 5% at M=200, "
               f"relative-error ratio {ratio:.2f} in [1.4, 2.6]",
           rel[0] < 0.05 and 1.4 <= ratio <= 2.6)


def test_criterion_08_euclidean_limits():
    # (a) spherical-function limit: observed decay is O(1/R^2), i.e. the
    # error QUARTERS per R-doubling; require at least halving
    ok_a = True
    detail_a = []
    for d in (2, 3):
        pa = SpectralParams(d)
        errs = euclidean_limit_error(pa, 1.0, 1.0, [10.0, 20.0, 40.0])
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        detail_a.append(f"d={d} ratios {r1:.2f},{r2:.2f}")
        ok_a = ok_a and r1 >= 1.4 and r2 >= 1.4
    # (b) density limit with the printed constant, error ratio ~ 1/4
    pa = SpectralParams(5)
    p = 1.5
    vals = density_euclid_limit(pa, p, [10.0, 20.0, 40.0])
    limit = density_euclid_constant(pa, p)
    errs = [abs(v - limit) for v in vals]
    ratios = (errs[1] / errs[0], errs[2] / errs[1])
    ok_b = all(abs(r - 0.25) < 0.1 for r in ratios) and errs[-1] < 1e-3 * limit
    _check(8, "euclidean limits: " + "; ".join(detail_a)
              + f"; density ratios {ratios[0]:.3f},{ratios[1]:.3f} ~ 0.25",
           ok_a and ok_b)


def test_criterion_09_convergence_experiments():
    pa3 = SpectralParams(3)
    ramp = RadialFunction(lambda x: 1.0 - x, 1.0,
                          derivative=lambda x: -1.0,
                          second_derivative=lambda x: 0.0)
    r1 = converge_at_origin(ramp, pa3, [25.0, 50.0, 100.0, 200.0], 1.0, 5e-2)
    e = r1.abs_errors()
    ok1 = e[-1] < 0.05 and e[-3] >= e[-2] >= e[-1]

    vanish = RadialFunction(lambda x: x * x * (1.0 - x), 1.0,
                            derivative=lambda x: 2.0 * x - 3.0 * x * x,
                            second_derivative=lambda x: 2.0 - 6.0 * x)
    r2 = converge_at_origin(vanish, pa3, [25.0, 50.0, 100.0, 200.0], 0.0, 1e-2)
    ok2 = abs(r2.extrapolated_limit) < 1e-2

    pa5 = SpectralParams(5)
    audit = example_d5_boundary_audit(vanish, pa5, 50.0)
    ok3 = abs(audit.total - partial_sum(vanish, pa5, 50.0)) < 1e-7

    env = DecayEnvelope("exponential", 1.0 + 1e-12, 1.0)
    r4 = converge_d2(lambda y: math.exp(-(y - 1.0)), [10.0, 20.0, 40.0, 80.0],
                     1.0, 2e-2, env)
    ok4 = abs(r4.extrapolated_limit - 1.0) < 2e-2
    _check(9, f"convergence: ramp err {e[-1]:.3f} < 0.05 monotone {ok1}, "
               f"vanishing-class limit {abs(r2.extrapolated_limit):.1e} < 1e-2, "
               f"d=5 audit {ok3}, d=2 limit {abs(r4.extrapolated_limit - 1.0):.1e} < 2e-2",
           ok1 and ok2 and ok3 and ok4)


def test_criterion_10_mehler_fock_round_trip():
    f = lambda y: math.exp(-(y - 1.0))
    env = DecayEnvelope("exponential", 1.0 + 1e-12, 1.0)
    g = lambda mu: mehler_fock_forward(f, mu, env)
    worst = max(abs(mehler_fock_inverse(g, y, 40.0) - f(y))
                for y in (1.1, 2.0, 5.0))
    _check(10, f"Mehler-Fock round trip worst {worst:.2e} < 1e-3", worst < 1e-3)


def test_criterion_11_product_formula():
    random.seed(11)
    worst = 0.0
    for _ in range(5):
        x = random.uniform(1.0, 4.0)
        y = random.uniform(1.0, 4.0)
        mu = random.uniform(0.0, 3.0)
        worst = max(worst, product_formula_residual(x, y, mu))
    _check(11, f"product formula worst residual {worst:.2e} < 1e-6", worst < 1e-6)


def test_criterion_12_parseval():
    pa = SpectralParams(3)
    nf, ns = parseval_check(_bump(), pa, 40.0)
    rel = abs(nf - ns) / nf
    _check(12, f"Parseval d=3 bump relative difference {rel:.2e} < 1%", rel < 0.01)


def test_criterion_13_cli_determinism(tmp_path):
    configs = [
        ["phi", "--d", "3", "--lambda", "0:10:5", "--chi", "0.2:2:4"],
        ["kernel", "--d", "3", "--R", "1", "--M", "10", "--chi", "0.5:2.5:5",
         "--method", "closed"],
        ["cfunc", "--d", "4", "--lambda", "0.5:20:8", "--format", "json"],
    ]
    ok = True
    for i, config in enumerate(configs):
        blobs = []
        for j in range(2):
            path = tmp_path / f"c{i}r{j}.out"
            rc = cli_main(config + ["--output", str(path)])
            ok = ok and rc == 0
            blobs.append(path.read_bytes())
        ok = ok and blobs[0] == blobs[1] and blobs[0].endswith(b"\n")
    _check(13, "CLI determinism: 3 golden configs byte-identical on rerun", ok)
