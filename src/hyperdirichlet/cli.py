"""Deterministic command-line front end: tabulates every computation as CSV
or JSON with fixed 17-significant-digit formatting and newline endings."""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import HyperDirichletError
from .spherical import SpectralParams, phi, euclidean_limit_error
from .cfunction import (inv_c_modulus_sq, plancherel_density,
                        density_euclid_limit, density_euclid_constant)
from .kernel import (KernelParams, dirichlet_quadrature, dirichlet_closed,
                     dirichlet_recursion, dirichlet_asymptotic)
from .transform import (RadialFunction, DecayEnvelope, spectrum_table,
                        fh_inverse, parseval_check, mehler_fock_forward)
from .convergence import converge_at_origin, converge_d2

__all__ = ["main", "make_test_function", "make_weight_function"]


def _fmt(x):
    return f"{float(x):.17g}"


def _parse_grid(spec):
    """Grid spec start:stop:count, or a bare number for a single point."""
    if ":" not in spec:
        return [float(spec)]
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec {spec!r} must be start:stop:count")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if count < 1:
        raise ValueError("grid count must be >= 1")
    if start > stop:
        raise ValueError("grid start must not exceed stop")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def make_test_function(name, a):
    """Built-in radial profiles on [0, a] for command-line experiments."""
    if name == "linear-ramp":
        return RadialFunction(lambda x: 1.0 - x / a, a,
                              derivative=lambda x: -1.0 / a,
                              second_derivative=lambda x: 0.0)
    if name == "poly-vanish":
        return RadialFunction(lambda x: x * x * (a - x), a,
                              derivative=lambda x: 2.0 * a * x - 3.0 * x * x,
                              second_derivative=lambda x: 2.0 * a - 6.0 * x)
    if name == "bump":
        def f(x):
            u = x / a
            if u >= 1.0:
                return 0.0
            return math.exp(-u * u / (1.0 - u * u))

        def f1(x):
            u = x / a
            if u >= 1.0:
                return 0.0
            w = 1.0 - u * u
            return f(x) * (-2.0 * u / (w * w)) / a

        def f2(x):
            u = x / a
            if u >= 1.0:
                return 0.0
            w = 1.0 - u * u
            return f(x) * (4.0 * u * u / w ** 4 - (2.0 + 6.0 * u * u) / w ** 3) / (a * a)

        return RadialFunction(f, a, derivative=f1, second_derivative=f2)
    if name == "exp-decay":
        return RadialFunction(lambda x: math.exp(-x), a,
                              derivative=lambda x: -math.exp(-x),
                              second_derivative=lambda x: math.exp(-x))
    if name == "one-jump":
        b = 0.5 * a
        return RadialFunction(
            lambda x: 1.0 if x < b else 0.5, a,
            breakpoints=(0.0, b, a),
            one_sided_limits={b: [(1.0, 0.5), (0.0, 0.0)]},
            derivative=lambda x: 0.0,
            second_derivative=lambda x: 0.0)
    raise ValueError(f"unknown test function {name!r}")


def make_weight_function(name):
    """The same named profiles as weight functions of y = cosh(chi) on
    (1, inf), with their declared decay envelopes (d = 2 experiments)."""
    if name == "exp-decay":
        return (lambda y: math.exp(-(y - 1.0)),
                DecayEnvelope("exponential", 1.0 + 1e-12, 1.0))
    if name == "poly-vanish":
        return (lambda y: (y - 1.0) * math.exp(-(y - 1.0)),
                DecayEnvelope("exponential", 1.0, 0.5))
    raise ValueError(f"unknown weight function {name!r} (d = 2 supports "
                     "exp-decay and poly-vanish)")


def _csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_rows(header, rows):
    recs = [{k: float(v) for k, v in zip(header, row)} for row in rows]
    return json.dumps(recs, indent=2) + "\n"


def _emit(args, header, rows):
    if args.format == "json":
        return _json_rows(header, rows)
    return _csv(header, rows)


def _cmd_phi(args):
    pa = SpectralParams(args.d, args.R)
    pts = [(lam, chi) for lam in _parse_grid(args.lam) for chi in _parse_grid(args.chi)]
    rows = [(lam, chi, phi(pa, lam, chi)) for lam, chi in pts]
    return _emit(args, ("lambda", "chi", "phi"), rows)


def _cmd_cfunc(args):
    pa = SpectralParams(args.d, args.R)
    rows = [(lam, inv_c_modulus_sq(pa, lam), plancherel_density(pa, lam))
            for lam in _parse_grid(args.lam)]
    return _emit(args, ("lambda", "inv_c2", "density"), rows)


def _cmd_kernel(args):
    pa = SpectralParams(args.d, args.R)
    kp = KernelParams(pa, args.M)
    method = {
        "quadrature": dirichlet_quadrature,
        "closed": dirichlet_closed,
        "recursion": dirichlet_recursion,
        "asymptotic": dirichlet_asymptotic,
    }[args.method]
    rows = [(chi, method(kp, chi)) for chi in _parse_grid(args.chi)]
    return _emit(args, ("chi", "D"), rows)


def _cmd_transform(args):
    pa = SpectralParams(args.d, args.R)
    if args.action == "forward":
        f = make_test_function(args.f, args.a)
        table = spectrum_table(f, pa, _parse_grid(args.lam))
        return _emit(args, ("lambda", "fhat"), list(zip(table.lambda_grid, table.values)))
    if args.action == "inverse":
        f = make_test_function(args.f, args.a)
        lam_max = _parse_grid(args.lam)[-1]
        rows = [(chi, fh_inverse(f, pa, chi, lam_max)) for chi in _parse_grid(args.chi)]
        return _emit(args, ("chi", "f"), rows)
    if args.action == "parseval":
        f = make_test_function(args.f, args.a)
        nf, ns = parseval_check(f, pa, _parse_grid(args.lam)[-1])
        rec = {"norm_f": nf, "norm_spectral": ns,
               "relative_difference": abs(nf - ns) / max(nf, 1e-300)}
        if args.format == "json":
            return json.dumps(rec, indent=2) + "\n"
        return _csv(("norm_f", "norm_spectral", "relative_difference"),
                    [(nf, ns, rec["relative_difference"])])
    if args.action == "mehler-fock":
        w, env = make_weight_function(args.f)
        rows = [(mu, mehler_fock_forward(w, mu, env)) for mu in _parse_grid(args.mu)]
        return _emit(args, ("mu", "g"), rows)
    raise ValueError(f"unknown transform action {args.action!r}")


def _cmd_converge(args):
    schedule = [float(s) for s in args.schedule.split(",")]
    if args.d == 2:
        w, env = make_weight_function(args.f)
        target = w(1.0) if args.target is None else args.target
        report = converge_d2(w, schedule, target, args.tol, env)
    else:
        pa = SpectralParams(args.d, args.R)
        f = make_test_function(args.f, args.a)
        target = f(0.0) if args.target is None else args.target
        report = converge_at_origin(f, pa, schedule, target, args.tol)
    if args.format == "csv":
        return report.to_csv()
    return report.to_json()


def _cmd_limits(args):
    Rs = _parse_grid(args.Rgrid)
    pa = SpectralParams(args.d, 1.0)
    if args.mode == "bessel":
        errs = euclidean_limit_error(pa, args.p, args.r, Rs)
        return _emit(args, ("R", "abs_error"), list(zip(Rs, errs)))
    if args.mode == "density":
        vals = density_euclid_limit(pa, args.p, Rs)
        limit = density_euclid_constant(pa, args.p)
        rows = [(R, v, abs(v - limit)) for R, v in zip(Rs, vals)]
        return _emit(args, ("R", "value", "abs_error"), rows)
    raise ValueError(f"unknown limits mode {args.mode!r}")


def _build_parser():
    p = argparse.ArgumentParser(
        prog="hyperdirichlet",
        description="Radial Fourier analysis on hyperbolic space H^d")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, fmt="csv"):
        sp.add_argument("--d", type=int, default=3)
        sp.add_argument("--R", type=float, default=1.0)
        sp.add_argument("--output", default=None)
        sp.add_argument("--format", choices=("csv", "json"), default=fmt)

    sp = sub.add_parser("phi", help="tabulate the zonal spherical function")
    common(sp)
    sp.add_argument("--lambda", dest="lam", required=True,
                    help="lambda grid start:stop:count or a single value")
    sp.add_argument("--chi", required=True)
    sp.set_defaults(run=_cmd_phi)

    sp = sub.add_parser("cfunc", help="tabulate |c|^-2 and the Plancherel density")
    common(sp)
    sp.add_argument("--lambda", dest="lam", required=True)
    sp.set_defaults(run=_cmd_cfunc)

    sp = sub.add_parser("kernel", help="tabulate the spherical Dirichlet kernel")
    common(sp)
    sp.add_argument("--M", type=float, required=True)
    sp.add_argument("--chi", required=True)
    sp.add_argument("--method", default="closed",
                    choices=("quadrature", "closed", "recursion", "asymptotic"))
    sp.set_defaults(run=_cmd_kernel)

    sp = sub.add_parser("transform", help="forward/inverse/Parseval/Mehler-Fock")
    common(sp)
    sp.add_argument("--action", required=True,
                    choices=("forward", "inverse", "parseval", "mehler-fock"))
    sp.add_argument("--f", default="bump")
    sp.add_argument("--a", type=float, default=1.0)
    sp.add_argument("--lambda", dest="lam", default="0:20:81",
                    help="forward: the lambda grid; inverse and parseval: only its end, "
                         "the band limit")
    sp.add_argument("--chi", default="0.1:2:5")
    sp.add_argument("--mu", default="0:10:11")
    sp.set_defaults(run=_cmd_transform)

    sp = sub.add_parser("converge", help="pointwise-convergence experiments")
    common(sp, fmt="json")
    sp.add_argument("--f", required=True)
    sp.add_argument("--a", type=float, default=1.0)
    sp.add_argument("--schedule", default="25,50,100,200")
    sp.add_argument("--target", type=float, default=None, help="default: f(0), w(1) at d = 2")
    sp.add_argument("--tol", type=float, default=5e-2)
    sp.set_defaults(run=_cmd_converge)

    sp = sub.add_parser("limits", help="Euclidean-limit sweeps in R")
    common(sp)
    sp.add_argument("--mode", required=True, choices=("bessel", "density"))
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--r", type=float, default=1.0)
    sp.add_argument("--Rgrid", default="10:40:3")
    sp.set_defaults(run=_cmd_limits)

    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.run(args)
    except (HyperDirichletError, ValueError, KeyError) as exc:
        record = json.dumps({"error": type(exc).__name__, "message": str(exc)})
        sys.stderr.write(record + "\n")
        return 1
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
