"""The benchmark's workloads: seeded, fixed lists of calls into the public
functions of hyperdirichlet and its command line.

`build(workload, seed)` returns the operations of one pass; the same seed
gives the same list. `execute(op)` performs one operation and returns its
output as plain JSON data. This module imports no reference code, so the
measured process loads only the program and this file.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field

import hyperdirichlet as hd
from hyperdirichlet import cli

WORKLOADS = ("tables", "origin-convergence", "d2-index")

PHI_DIMS = (2, 4, 5, 6, 7, 8, 10, 12)
PROFILES = ("linear-ramp", "poly-vanish", "bump", "exp-decay", "one-jump")
# Profiles whose d = 3 transform has a closed form in the reference code.
EXACT_PROFILES = ("linear-ramp", "poly-vanish", "exp-decay", "one-jump")
# Band limits at which a schedule M0, 2 M0, 4 M0, ... starts. The finite set
# keeps the convergence check decidable on every seed. A divergent partial
# sum oscillates about f(0), so a short schedule can sample it only near its
# zeros: with M0 = 22 every d = 3 exp-decay error stays below 0.052, and with
# M0 = 21 the d = 7 bump ends only 0.0467 from f(0). Each M0 kept here
# leaves every divergent sum at least 0.19 from f(0) somewhere and every
# convergent one within 0.019 at its end. M0 = 23 is out because
# partial_sum(d = 7, bump, M = 184) raises QuadratureError (see CHANGES.md).
M0_CHOICES = (20, 24, 25)
D2_M0_CHOICES = (3, 4, 5)


@dataclass(frozen=True)
class Op:
    name: str
    kind: str
    args: dict = field(default_factory=dict)
    # Set on an operation that fails every time because of a known fault in
    # the program; it is counted as failed, not as incorrect.
    fault: str | None = None
    # Operations of one group compute the same number by different methods.
    group: str | None = None


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _strata(rng, lo, hi, n, log=False):
    """One value from each of n equal bands of [lo, hi], in random order.

    Costs grow with band limits and frequencies; drawing every band once per
    pass keeps a pass's cost nearly the same for every seed."""
    if log:
        return [math.exp(v) for v in _strata(rng, math.log(lo), math.log(hi), n)]
    width = (hi - lo) / n
    out = [rng.uniform(lo + k * width, lo + (k + 1) * width) for k in range(n)]
    rng.shuffle(out)
    return out


def _shuffled(rng, values):
    out = list(values)
    rng.shuffle(out)
    return out


# phi tables are drawn from a lattice: lambda = 0.2 j for j = 0..200 and chi the
# k-th of 150 log-spaced points of [0.02, 5], k = 0..149.
def lattice_lam(j):
    return 0.2 * j


def lattice_chi(k):
    return math.exp(math.log(0.02) + k * (math.log(5.0) - math.log(0.02)) / 149)


# Lattice points (d, j, k) at which phi takes the Mehler-Dirichlet fallback
# on the current code and so returns a wrong value: 79 of the 241,200 points
# of the eight dimensions, with lambda from 6.8 to 40. A seeded table that hit
# one would fail on some seeds only, so tables skip them; the fault itself is
# measured by the fixed phi-fallback-d4 and phi-fallback-d6 operations.
PHI_FALLBACK_POINTS = frozenset((
    (2, 107, 69), (2, 150, 72), (2, 152, 80), (2, 155, 59), (2, 160, 85), (2, 166, 84),
    (2, 167, 57), (2, 167, 89), (2, 168, 69), (2, 169, 93), (2, 170, 77), (2, 174, 68),
    (2, 177, 33), (2, 180, 67), (2, 181, 67), (2, 182, 91), (2, 183, 75), (2, 187, 66),
    (2, 188, 66), (2, 190, 74), (2, 193, 80), (2, 194, 65), (2, 194, 93), (2, 195, 65),
    (2, 196, 73), (2, 196, 89), (2, 196, 96), (2, 197, 73), (2, 198, 73), (2, 200, 79),
    (4, 64, 73), (4, 136, 69), (4, 152, 66), (4, 170, 63), (4, 170, 73), (4, 177, 103),
    (4, 183, 61), (4, 183, 71), (4, 185, 78), (4, 188, 88), (4, 190, 60), (4, 190, 70),
    (4, 190, 83), (4, 192, 77), (4, 197, 59), (4, 197, 69), (4, 199, 76), (5, 139, 71),
    (5, 163, 76), (5, 167, 134), (5, 180, 64), (5, 187, 63), (5, 189, 72), (5, 194, 62),
    (5, 196, 71), (6, 34, 111), (6, 59, 83), (6, 116, 103), (6, 162, 94), (6, 187, 74),
    (6, 189, 65), (6, 195, 89), (6, 196, 64), (6, 198, 79), (7, 41, 108), (7, 171, 78),
    (7, 197, 66), (7, 200, 80), (8, 121, 81), (8, 157, 74), (8, 171, 101), (8, 179, 59),
    (8, 187, 83), (8, 189, 69), (8, 200, 56), (10, 94, 112), (10, 185, 80),
    (10, 191, 93), (10, 192, 79),
))


def _grid_arg(lo, hi, n):
    return f"{lo!r}:{hi!r}:{n}"


def _tables(rng):
    ops = []
    # Tables: phi at one lambda from each of four bands of [0.6, 40] times
    # three chi from each of six log bands of [0.02, 5], three times per
    # dimension; |c|^-2 and the density at eight lambda. A table averages over
    # the regimes of the 2F1 evaluator, so its time depends little on the
    # seed. Below lambda = 0.5 phi sums its series close to w = 1 and costs up
    # to a thousand times more at large chi, so a seeded table that drew such
    # a lambda would cost much more on some seeds only; the fixed phi-lambda0
    # row measures that path on every seed instead.
    for d in PHI_DIMS:
        for r in range(3):
            js = [rng.randint(max(3, 50 * i), 50 * (i + 1)) for i in range(4)]
            ks = []
            for band in range(18):
                k = rng.randrange(25 * (band // 3), 25 * (band // 3 + 1))
                while any((d, j, k) in PHI_FALLBACK_POINTS for j in js):
                    k = rng.randrange(25 * (band // 3), 25 * (band // 3 + 1))
                ks.append(k)
            ops.append(Op(f"phi-d{d}-{r}", "phi_table", {
                "d": d, "lams": [lattice_lam(j) for j in js],
                "chis": [lattice_chi(k) for k in ks]}))
        ops.append(Op(f"cfunc-d{d}", "cfunc_row",
                      {"d": d, "lams": sorted(_strata(rng, 0.1, 40.0, 8))}))
    ops.append(Op("phi-lambda0", "phi_table",
                  {"d": 4, "lams": [0.0], "chis": [0.5, 1.5, 2.5, 3.5, 4.5]}))
    # D_M on a 2 x 2 grid per dimension, every method that applies: one
    # band limit from [2, 6] and one from [14, 26] times one chi from each
    # half of [0.2, 1.6] in log scale. The cost grows steeply with both, so
    # every dimension draws each corner. The first point has a small band
    # limit so its mpmath reference stays affordable. Band limits stop at 26
    # because from M = 33 on, at some chi below 0.8, the quadrature meets
    # the Mehler-Dirichlet fallback of phi hundreds of times and one call
    # costs 0.5-1.4 s instead of 5-50 ms (see CHANGES.md).
    methods = {2: ("d2", "quadrature"), 3: ("closed", "recursion", "quadrature"),
               4: ("recursion", "quadrature"), 5: ("closed", "recursion", "quadrature"),
               6: ("recursion", "quadrature"), 7: ("recursion", "quadrature")}
    for d, ms in methods.items():
        points = [{"M": rng.uniform(*m_band), "chi": _log_uniform(rng, *chi_band)}
                  for m_band in ((2.0, 6.0), (14.0, 26.0))
                  for chi_band in ((0.2, 0.566), (0.566, 1.6))]
        for i, point in enumerate(points):
            point = dict(point, d=d, oracle=i == 0 or d == 3)
            for m in ms:
                ops.append(Op(f"kernel-d{d}-{i}-{m}", "kernel", dict(point, method=m),
                              group=f"kernel-d{d}-{i}"))
    # Partial sums at fixed band limits: their adaptive quadrature changes
    # its panel count irregularly with M (bump: 0.3 to 0.7 s over M in
    # [2.5, 10]), so a seeded M would set most of a pass's cost by itself.
    for f, M in (("bump", 2.0), ("linear-ramp", 8.0)):
        ops.append(Op(f"partial-sum-d4-{f}", "partial_sum",
                      {"f": f, "a": 1.0, "d": 4, "M": M}))
    ops.append(Op("cli-phi", "cli", {"parse": "phi", "argv": [
        "phi", "--d", "3", "--lambda",
        _grid_arg(rng.uniform(0.1, 1.0), rng.uniform(10.0, 40.0), 5),
        "--chi", _grid_arg(rng.uniform(0.05, 0.3), rng.uniform(1.0, 5.0), 4)]}))
    d = rng.choice(PHI_DIMS)
    ops.append(Op("cli-cfunc", "cli", {"parse": "cfunc", "argv": [
        "cfunc", "--d", str(d), "--lambda",
        _grid_arg(rng.uniform(0.1, 1.0), rng.uniform(10.0, 40.0), 8), "--format", "json"]}))
    ops.append(Op("cli-kernel", "cli", {"parse": "kernel", "argv": [
        "kernel", "--d", "3", "--M", repr(rng.uniform(5.0, 40.0)), "--chi",
        _grid_arg(rng.uniform(0.2, 0.8), rng.uniform(1.5, 3.0), 5), "--method", "closed"]}))
    ops += [
        Op("phi-fallback-d4", "phi", {"d": 4, "lam": 100.0, "chi": 0.5},
           fault="Mehler-Dirichlet fallback off by 2^(rho-1)"),
        Op("phi-fallback-d6", "phi", {"d": 6, "lam": 225.0, "chi": 0.0578},
           fault="Mehler-Dirichlet fallback off by 2^(rho-1)"),
        Op("phi-underflow-d2", "phi", {"d": 2, "lam": 500.0, "chi": 1.0},
           fault="1-w connection coefficients underflow to an accepted 0.0"),
        Op("phi-overflow-d4", "phi", {"d": 4, "lam": 1000.0, "chi": 1.0},
           fault="1-w connection coefficients overflow (raw OverflowError)"),
        Op("bessel-hankel-j12", "bessel_j", {"nu": 12.0, "x": 15.0},
           fault="Hankel asymptotic used for large order"),
    ]
    return ops


def _schedule(m0, n):
    return [float(m0 * 2 ** k) for k in range(n)]


def _origin_convergence(rng):
    ops = []
    # d = 3 and d = 7 use the start values M0_CHOICES equally often, so the
    # cost of a pass hardly depends on the seed. d = 5 runs every profile
    # from every start value; the median verdict time falls among these
    # fifteen, and the seed only orders them, so that median does not move
    # with the pairing of profiles and start values. d = 7 kernels are jets
    # and a d = 7 sweep costs over ten times a d = 5 one, so its schedules
    # stop at 8 M0.
    for d in (3, 7):
        n = 4 if d == 7 else 5
        m0s = _shuffled(rng, (M0_CHOICES * 2)[:len(PROFILES)])
        for f, m0 in zip(PROFILES, m0s):
            ops.append(Op(f"converge-d{d}-{f}", "converge", {
                "d": d, "f": f, "a": 1.0, "schedule": _schedule(m0, n)}))
    for f, m0 in _shuffled(rng, [(f, m0) for f in PROFILES for m0 in M0_CHOICES]):
        ops.append(Op(f"converge-d5-{f}-{m0}", "converge", {
            "d": 5, "f": f, "a": 1.0, "schedule": _schedule(m0, 5)}))
    for f in ("poly-vanish", "one-jump", "bump"):
        ops.append(Op(f"audit-d5-{f}", "audit", {"f": f, "a": 1.0, "M": rng.uniform(20.0, 60.0)}))
    high = _strata(rng, 50.0, 3000.0, len(EXACT_PROFILES), log=True)
    for f, lam in zip(EXACT_PROFILES, high):
        ops.append(Op(f"fh-forward-{f}-0", "fh_forward",
                      {"f": f, "a": 1.0, "lam": _log_uniform(rng, 1.0, 50.0)}))
        ops.append(Op(f"fh-forward-{f}-1", "fh_forward", {"f": f, "a": 1.0, "lam": lam}))
    ops.append(Op("cli-forward", "cli", {"parse": "forward", "argv": [
        "transform", "--d", "3", "--action", "forward", "--f", rng.choice(EXACT_PROFILES),
        "--a", "1", "--lambda", _grid_arg(0.0, rng.uniform(10.0, 40.0), 41)]}))
    schedule = ",".join(repr(m) for m in _schedule(rng.choice(M0_CHOICES), 4))
    ops.append(Op("cli-converge", "cli", {"parse": "converge-json", "argv": [
        "converge", "--d", "3", "--f", "linear-ramp", "--schedule", schedule]}))
    ops += [
        Op("fh-forward-cap", "fh_forward", {"f": "linear-ramp", "a": 2.0, "lam": 1e4},
           fault="4096-cut cap in transform._chi_oscillatory"),
        Op("cli-format-csv", "cli", {"parse": "converge-csv", "argv": [
            "converge", "--d", "3", "--f", "linear-ramp", "--format=csv"]},
           fault='"--format" not in argv check in cli.main'),
    ]
    return ops


def _d2_index(rng):
    ops = []
    m0s = _shuffled(rng, D2_M0_CHOICES)
    for f, m0 in zip(("exp-decay", "poly-vanish"), m0s):
        ops.append(Op(f"converge-d2-{f}", "converge_d2", {"f": f, "schedule": _schedule(m0, 3)}))
    schedule = ",".join(repr(m) for m in _schedule(m0s[2], 3))
    ops.append(Op("cli-converge-d2", "cli", {"parse": "converge-json", "argv": [
        "converge", "--d", "2", "--f", "exp-decay", "--schedule", schedule, "--tol", "2e-2"]}))
    ops.append(Op("mf-table", "mf_table", {"mus": sorted(_strata(rng, 0.1, 10.0, 8))}))
    ops.append(Op("cli-mehler-fock", "cli", {"parse": "mehler-fock", "argv": [
        "transform", "--d", "2", "--action", "mehler-fock", "--f", "exp-decay",
        "--mu", _grid_arg(0.0, rng.uniform(9.0, 11.0), 11)]}))
    for i, (y0, y1) in enumerate(((1.2, 1.6), (2.5, 3.5))):
        ops.append(Op(f"mf-round-trip-{i}", "mf_round_trip",
                      {"y": rng.uniform(y0, y1), "mu_max": 40.0}))
    top = rng.uniform(14.0, 16.0)
    ops.append(Op("spectrum-d2-bump", "spectrum_d2",
                  {"f": "bump", "a": 1.0, "grid": [top * k / 10 for k in range(11)]}))
    ops.append(Op("band-convolve", "band_convolve",
                  {"M": rng.uniform(14.0, 16.0), "x": rng.uniform(1.3, 2.0)}))
    ops.append(Op("convolve-p-mu", "convolve_p_mu",
                  {"mu": rng.uniform(1.0, 2.0), "x": rng.uniform(1.4, 2.0)}))
    return ops


def p50_indices(workload, ops):
    """Operations whose times make op_p50_ms: on tables the phi tables, on
    origin-convergence the calls that end in a convergence verdict, on
    d2-index all of them. The first two pick one kind of work, so the median
    does not slide between kinds whose costs differ by seed."""
    if workload == "tables":
        return [i for i, op in enumerate(ops) if op.kind == "phi_table"]
    if workload == "origin-convergence":
        return [i for i, op in enumerate(ops) if op.kind == "converge"
                or (op.kind == "cli" and op.args["argv"][0] == "converge")]
    return range(len(ops))


def build(workload, seed):
    """The operations of one pass of workload for this seed."""
    rng = random.Random(f"{workload}:{seed}")
    return {"tables": _tables, "origin-convergence": _origin_convergence,
            "d2-index": _d2_index}[workload](rng)


# Executors. Library functions are looked up on the package at call time, so
# the tracer's wrappers take effect; weight functions and profiles are built
# anew by each operation, as the command line does.
def _params(d):
    return hd.SpectralParams(d)


def _kernel(a):
    kp = hd.KernelParams(_params(a["d"]), a["M"])
    if a["method"] == "d2":
        return hd.dirichlet_d2(kp, math.cosh(a["chi"]))
    return {"closed": hd.dirichlet_closed, "recursion": hd.dirichlet_recursion,
            "quadrature": hd.dirichlet_quadrature}[a["method"]](kp, a["chi"])


def _converge(a):
    f = cli.make_test_function(a["f"], a["a"])
    report = hd.converge_at_origin(f, _params(a["d"]), a["schedule"], f.profile(0.0), 5e-2)
    return list(report.partial_sums)


def _converge_d2(a):
    w, env = cli.make_weight_function(a["f"])
    report = hd.converge_d2(w, a["schedule"], 1.0 if a["f"] == "exp-decay" else 0.0, 2e-2, env)
    return list(report.partial_sums)


def _mf_table(a):
    w, env = cli.make_weight_function("exp-decay")
    return [hd.mehler_fock_forward(w, mu, env) for mu in a["mus"]]


def _mf_round_trip(a):
    w, env = cli.make_weight_function("exp-decay")
    return hd.mehler_fock_inverse(lambda mu: hd.mehler_fock_forward(w, mu, env),
                                  a["y"], a["mu_max"])


def _band_convolve(a):
    w, env = cli.make_weight_function("exp-decay")
    return hd.convolve_band_kernel(w, hd.KernelParams(_params(2), a["M"]), a["x"], env)


def _convolve_p_mu(a):
    w, env = cli.make_weight_function("exp-decay")
    mu = a["mu"]
    return hd.convolve(w, lambda z: hd.conical_p0(mu, z), a["x"], env)


def _cli(a):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(a["argv"]))
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


EXECUTORS = {
    "phi": lambda a: hd.phi(_params(a["d"]), a["lam"], a["chi"]),
    "phi_table": lambda a: [hd.phi(_params(a["d"]), lam, chi)
                            for lam in a["lams"] for chi in a["chis"]],
    "cfunc_row": lambda a: [[hd.inv_c_modulus_sq(_params(a["d"]), lam),
                             hd.plancherel_density(_params(a["d"]), lam)] for lam in a["lams"]],
    "bessel_j": lambda a: hd.bessel_j(a["nu"], a["x"]),
    "kernel": _kernel,
    "partial_sum": lambda a: hd.partial_sum(cli.make_test_function(a["f"], a["a"]),
                                            _params(a["d"]), a["M"]),
    "converge": _converge,
    "audit": lambda a: hd.example_d5_boundary_audit(cli.make_test_function(a["f"], a["a"]),
                                                    _params(5), a["M"]).total,
    "fh_forward": lambda a: hd.fh_forward(cli.make_test_function(a["f"], a["a"]),
                                          _params(3), a["lam"]),
    "converge_d2": _converge_d2,
    "mf_table": _mf_table,
    "mf_round_trip": _mf_round_trip,
    "spectrum_d2": lambda a: list(hd.spectrum_table(cli.make_test_function(a["f"], a["a"]),
                                                    _params(2), a["grid"]).values),
    "band_convolve": _band_convolve,
    "convolve_p_mu": _convolve_p_mu,
    "cli": _cli,
}


def execute(op):
    """Run one operation. Returns ("ok", output) or ("error", "Type: message")."""
    try:
        return "ok", EXECUTORS[op.kind](op.args)
    except Exception as exc:  # a failing operation is a result to be checked
        return "error", f"{type(exc).__name__}: {exc}"
