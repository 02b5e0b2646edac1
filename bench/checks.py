"""Reference values and output checks for the benchmark's operations.

`reference(op)` is computed once per input, before the timed run, from the
mpmath oracles or from a second route through the program whose agreement
is a property of the method. `check(op, status, output, ref, peers)`
returns None when the output is right and a one-line reason otherwise;
`peers` lists (name, status, output) of the other operations of the same
pass in op's group, which compute the same number by other methods.
"""

from __future__ import annotations

import csv
import io
import json
import math

import hyperdirichlet as hd
from hyperdirichlet import cli
from scipy.integrate import quad

import oracles

# Tolerances of the repository's tests (acceptance criteria 3, 5, 9-11 and
# tests/test_transform.py), applied to the same quantities. A value passes
# when |got - want| <= tol * max(|want|, floor).
TOL = {
    "phi": (1e-9, 1e-3),
    "cfunc": (1e-10, 0.0),
    "kernel_odd": (1e-7, 1.0),
    "kernel_even": (1e-6, 1.0),
    "partial_sum": (1e-7, 1.0),
    "fh_forward": (1e-10, 1e-2),
    "bessel": (1e-10, 1.0),
    "mehler_fock": (1e-7, 1.0),
    "round_trip": (1e-3, 1.0),
    "spectrum_d2": (2e-5, 1e-3),  # 2e-5 relative or 2e-8 absolute
    "band_convolve": (1e-5, 1.0),
    "product_formula": (1e-6, 1.0),
    "boundary_value": (1e-5, 1.0),
}
CONVERGENCE_TOL = 5e-2  # the command line's default --tol

# Which tolerance applies to each operation kind and CLI table.
_KIND_TOL = {
    "phi": "phi", "phi_table": "phi", "cfunc_row": "cfunc", "bessel_j": "bessel",
    "partial_sum": "partial_sum", "audit": "partial_sum", "fh_forward": "fh_forward",
    "mf_table": "mehler_fock", "mf_round_trip": "round_trip", "spectrum_d2": "spectrum_d2",
    "band_convolve": "band_convolve", "convolve_p_mu": "product_formula",
}
_CLI_TOL = {"phi": "phi", "cfunc": "cfunc", "kernel": "kernel_odd", "forward": "fh_forward",
            "mehler-fock": "mehler_fock"}

# Lowest derivative order j at which each profile jumps (at its support end
# or an interior breakpoint); the bump is smooth. S_M f(0) -> f(0) exactly
# when no jump has j <= (d - 3) / 2.
FIRST_JUMP = {"linear-ramp": 1, "poly-vanish": 1, "bump": math.inf,
              "exp-decay": 0, "one-jump": 0}


def _grid(spec):
    lo, hi, n = spec.split(":")
    lo, hi, n = float(lo), float(hi), int(n)
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _converge_ref(d, f, schedule):
    return {"d3": oracles.partial_sums_d3(f, 1.0, schedule) if d == 3 else None,
            "f0": oracles.profile_value(f, 1.0, 0.0),
            "converges": FIRST_JUMP[f] > (d - 3) / 2}


def _spectral_side(f, d, M):
    """int_0^M fhat(lam) density(lam) dlam, by the forward transform."""
    prof = cli.make_test_function(f, 1.0)
    pa = hd.SpectralParams(d)
    val, _ = quad(lambda lam: hd.fh_forward(prof, pa, lam) * hd.plancherel_density(pa, lam),
                  0.0, M, epsabs=1e-13, epsrel=1e-13, limit=400,
                  points=[float(k) for k in range(1, math.ceil(M))])
    return val


def _cli_reference(a):
    argv = a["argv"]
    kind = a["parse"]
    if kind == "phi":
        d = int(_arg(argv, "--d"))
        return [(lam, chi, oracles.phi(d, lam, chi))
                for lam in _grid(_arg(argv, "--lambda")) for chi in _grid(_arg(argv, "--chi"))]
    if kind == "cfunc":
        d = int(_arg(argv, "--d"))
        return [(lam, oracles.inv_c2(d, lam), oracles.density(d, lam))
                for lam in _grid(_arg(argv, "--lambda"))]
    if kind == "kernel":
        M = float(_arg(argv, "--M"))
        return [(chi, oracles.dirichlet(3, M, chi)) for chi in _grid(_arg(argv, "--chi"))]
    if kind == "forward":
        f = _arg(argv, "--f")
        return [(lam, oracles.fh_forward_d3(f, 1.0, lam)) for lam in _grid(_arg(argv, "--lambda"))]
    if kind == "mehler-fock":
        return [(mu, oracles.mehler_fock_exp_decay(mu)) for mu in _grid(_arg(argv, "--mu"))]
    # converge-json / converge-csv
    d = int(_arg(argv, "--d"))
    f = _arg(argv, "--f")
    schedule = ([float(m) for m in _arg(argv, "--schedule").split(",")]
                if "--schedule" in argv else [25.0, 50.0, 100.0, 200.0])
    if d == 2:
        return {"schedule": schedule, "target": 1.0 if f == "exp-decay" else 0.0}
    return dict(_converge_ref(d, f, schedule), schedule=schedule)


def reference(op):
    a = op.args
    k = op.kind
    if k == "phi":
        return oracles.phi(a["d"], a["lam"], a["chi"])
    if k == "phi_table":
        return [oracles.phi(a["d"], lam, chi) for lam in a["lams"] for chi in a["chis"]]
    if k == "cfunc_row":
        return [[oracles.inv_c2(a["d"], lam), oracles.density(a["d"], lam)] for lam in a["lams"]]
    if k == "bessel_j":
        return oracles.bessel_j(a["nu"], a["x"])
    if k == "kernel":
        return oracles.dirichlet(a["d"], a["M"], a["chi"]) if a["oracle"] else None
    if k == "partial_sum":
        return _spectral_side(a["f"], a["d"], a["M"])
    if k == "converge":
        return _converge_ref(a["d"], a["f"], a["schedule"])
    if k == "audit":
        return hd.partial_sum(cli.make_test_function(a["f"], a["a"]), hd.SpectralParams(5), a["M"])
    if k == "fh_forward":
        return oracles.fh_forward_d3(a["f"], a["a"], a["lam"])
    if k == "converge_d2":
        return 1.0 if a["f"] == "exp-decay" else 0.0
    if k == "mf_table":
        return [oracles.mehler_fock_exp_decay(mu) for mu in a["mus"]]
    if k == "mf_round_trip":
        return math.exp(-(a["y"] - 1.0))
    if k == "spectrum_d2":
        f = cli.make_test_function(a["f"], a["a"])
        return [hd.fh_forward(f, hd.SpectralParams(2), lam) for lam in a["grid"]]
    if k == "band_convolve":
        return math.exp(-(a["x"] - 1.0))
    if k == "convolve_p_mu":
        return (oracles.index_transform_exp_decay(a["mu"])
                * oracles.phi(2, a["mu"], math.acosh(a["x"])))
    if k == "cli":
        return _cli_reference(a)
    raise ValueError(f"no reference for {k!r}")


def _close(got, want, key):
    tol, floor = TOL[key]
    return isinstance(got, (int, float)) and abs(got - want) <= tol * max(abs(want), floor)


def _flat(values):
    return [v for row in values for v in row] if values and isinstance(values[0], list) else values


def _each(got, want, key):
    """Reason for the first mismatch of two equally long sequences, or None."""
    got, want = _flat(got), _flat(want)
    if len(got) != len(want):
        return f"{len(got)} values, expected {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if not _close(g, w, key):
            return f"value {i}: {g!r}, reference {w!r}"
    return None


def _convergence(sums, ref):
    """The paper's condition at the origin, judged on the partial sums."""
    errs = [abs(s - ref["f0"]) for s in sums]
    if ref["converges"] and errs[-1] > CONVERGENCE_TOL:
        return f"should reach f(0) = {ref['f0']}: last error {errs[-1]:.3g} > {CONVERGENCE_TOL}"
    if not ref["converges"] and max(errs) <= CONVERGENCE_TOL:
        return f"should not reach f(0) = {ref['f0']}: errors stay <= {CONVERGENCE_TOL}"
    if ref["d3"] is not None:
        return _each(sums, ref["d3"], "partial_sum")
    return None


def _boundary_value(sums, target):
    if _close(sums[-1], target, "boundary_value"):
        return None
    return f"last partial sum {sums[-1]!r} misses f(1+) = {target}"


def _kernel(op, out, ref, peers):
    key = "kernel_odd" if op.args["d"] % 2 else "kernel_even"
    if ref is not None and not _close(out, ref, key):
        return f"{out!r}, reference {ref!r}"
    agreed = 0
    for name, status, other in peers:
        if status != "ok":
            continue
        if not _close(out, other, key):
            return f"{out!r} disagrees with {name} {other!r}"
        agreed += 1
    if ref is None and agreed == 0:
        return "no other method to compare with"
    return None


def _rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [[float(x) for x in r] for r in rows[1:]]


def _check_cli(op, out, ref):
    if out["rc"] != 0:
        return f"exit {out['rc']}: {out['stderr'].strip()}"
    kind = op.args["parse"]
    text = out["stdout"]
    if kind == "converge-json":
        try:
            sums = json.loads(text)["partial_sums"]
        except (ValueError, KeyError):
            return "output is not a JSON convergence report"
    elif kind == "converge-csv":
        header, rows = _rows(text) if text.startswith("M,") else (None, None)
        if header != ["M", "partial_sum", "abs_error"]:
            return "--format=csv printed no CSV report"
        sums = [r[1] for r in rows]
    elif kind == "cfunc":
        try:
            rows = [[r["lambda"], r["inv_c2"], r["density"]] for r in json.loads(text)]
        except (ValueError, KeyError, TypeError):
            return "output is not a JSON table"
    else:
        try:
            _, rows = _rows(text)
        except ValueError:
            return "output is not a CSV table"

    if kind.startswith("converge"):
        if len(sums) != len(ref["schedule"]):
            return f"{len(sums)} partial sums for {len(ref['schedule'])} band limits"
        if "target" in ref:
            return _boundary_value(sums, ref["target"])
        return _convergence(sums, ref)
    if len(rows) != len(ref):
        return f"{len(rows)} rows, expected {len(ref)}"
    ncoord = 2 if kind == "phi" else 1
    for row, want in zip(rows, ref):
        if len(row) != len(want):
            return f"row {row} has {len(row)} columns"
        for g, w in zip(row[:ncoord], want[:ncoord]):
            if abs(g - w) > 1e-13 * max(abs(w), 1.0):
                return f"grid point {g!r}, expected {w!r}"
        for g, w in zip(row[ncoord:], want[ncoord:]):
            if not _close(g, w, _CLI_TOL[kind]):
                return f"at {row[:ncoord]}: {g!r}, reference {w!r}"
    return None


def check(op, status, out, ref, peers):
    if status != "ok":
        return out
    k = op.kind
    if k == "cli":
        return _check_cli(op, out, ref)
    if k == "kernel":
        return _kernel(op, out, ref, peers)
    if k == "converge":
        return _convergence(out, ref)
    if k == "converge_d2":
        return _boundary_value(out, ref)
    if isinstance(ref, list):
        return _each(out, ref, _KIND_TOL[k])
    if not _close(out, ref, _KIND_TOL[k]):
        return f"{out!r}, reference {ref!r}"
    return None
