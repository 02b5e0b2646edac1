"""Pointwise-convergence experiments at the origin: partial-sum sweeps with
extrapolated verdicts, the d = 5 boundary-term audit, the d = 2 index-integral
limit, and the delta-kernel derivative limits."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import DomainError
from .numerics import extrapolate_limit, pointwise
from .kernel import _shannon
from .transform import (DecayEnvelope, _chi_oscillatory, _index_weight, _spectral_side,
                        _radial_abel_profile, mehler_fock_inverse, partial_sum)

__all__ = [
    "ConvergenceReport",
    "BoundaryAudit",
    "converge_at_origin",
    "example_d5_boundary_audit",
    "converge_d2",
    "delta_limit_audit",
]


@dataclass(frozen=True)
class ConvergenceReport:
    """Partial sums over an increasing band-limit schedule, their
    extrapolated limit, and a verdict against the declared target.

    max_drift is the largest change between consecutive partial sums, a
    stability diagnostic alongside the extrapolation.
    """

    M_schedule: tuple
    partial_sums: tuple
    extrapolated_limit: float
    target: float
    verdict: str
    max_drift: float

    def __post_init__(self):
        Ms = tuple(float(m) for m in self.M_schedule)
        sums = tuple(float(s) for s in self.partial_sums)
        if len(Ms) != len(sums) or not Ms:
            raise DomainError("schedule and partial sums must be non-empty and matched")
        if any(Ms[i] >= Ms[i + 1] for i in range(len(Ms) - 1)):
            raise DomainError("M schedule must be strictly increasing")
        if self.verdict not in ("converged", "diverged", "inconclusive"):
            raise DomainError(f"unknown verdict {self.verdict!r}")
        object.__setattr__(self, "M_schedule", Ms)
        object.__setattr__(self, "partial_sums", sums)

    def abs_errors(self):
        return tuple(abs(s - self.target) for s in self.partial_sums)

    def to_json(self):
        return json.dumps({
            "M_schedule": list(self.M_schedule),
            "partial_sums": list(self.partial_sums),
            "extrapolated_limit": self.extrapolated_limit,
            "target": self.target,
            "verdict": self.verdict,
            "max_drift": self.max_drift,
        }, indent=2) + "\n"

    def to_csv(self):
        lines = ["M,partial_sum,abs_error"]
        for m, s, e in zip(self.M_schedule, self.partial_sums, self.abs_errors()):
            lines.append(f"{m:.17g},{s:.17g},{e:.17g}")
        return "\n".join(lines) + "\n"


def _assemble_report(schedule, sums, target, tol):
    if len(sums) >= 3:
        extrap = extrapolate_limit(list(zip(schedule, sums)))
    else:
        extrap = sums[-1]
    drift = max((abs(b - a) for a, b in zip(sums[:-1], sums[1:])), default=0.0)
    errs = [abs(s - target) for s in sums]
    tail = errs[-3:]
    monotone = len(tail) == 3 and tail[0] >= tail[1] >= tail[2]
    growing = len(tail) == 3 and tail[0] < tail[1] < tail[2]
    # Once the errors sit far below tolerance they are quadrature noise and
    # their ordering carries no information; do not let that block the verdict.
    at_floor = len(tail) == 3 and max(tail) < 0.1 * tol
    if abs(extrap - target) < tol and (monotone or at_floor):
        verdict = "converged"
    elif growing and errs[-1] > tol:
        verdict = "diverged"
    else:
        verdict = "inconclusive"
    return ConvergenceReport(tuple(schedule), tuple(sums), extrap, target,
                             verdict, drift)


def _check_target(target, tol):
    if not (math.isfinite(target) and 0.0 < tol < math.inf):
        raise DomainError(f"a verdict needs a finite target and a finite tol > 0, "
                          f"got target = {target}, tol = {tol}")


def converge_at_origin(f, params, M_schedule, target, tol):
    """Sweep the spherical partial sum at the origin over M_schedule and
    judge convergence to the declared target (d != 2). Even d reads every
    sum off one Abel profile of f."""
    _check_target(target, tol)
    if params.d == 2:
        raise DomainError("d = 2: use converge_d2")
    schedule = sorted(float(m) for m in M_schedule)
    if params.d % 2:
        sums = [partial_sum(f, params, M) for M in schedule]
    else:
        prof = _radial_abel_profile(f, params.rho)
        sums = [_spectral_side(prof, params, M) for M in schedule]
    return _assemble_report(schedule, sums, target, tol)


@dataclass(frozen=True)
class BoundaryAudit:
    """Term-by-term decomposition of the d = 5 partial sum at the origin
    after integration by parts against the delta kernel.

    delta_jump_terms carries the delta_M(b) * (f(b+) - f(b-)) * sinh(2b)
    contributions, which vanish identically for continuous profiles.
    """

    endpoint_terms: float
    delta_jump_terms: float
    delta_prime_jump_terms: float
    jump_derivative_terms: float
    interior_integrals: float

    @property
    def total(self):
        return (self.endpoint_terms + self.delta_jump_terms
                + self.delta_prime_jump_terms + self.jump_derivative_terms
                + self.interior_integrals)


def example_d5_boundary_audit(f, params, M):
    """Reassemble the d = 5 partial sum at the origin from its boundary and
    interior pieces, exposing each group so the vanishing of the jump terms
    for continuous profiles can be inspected directly."""
    if params.d != 5:
        raise DomainError("the boundary audit is stated for d = 5")
    a = f.support_bound
    interior = f.breakpoints[1:-1]
    if interior and not f.one_sided_limits:
        raise DomainError("interior breakpoints require declared one-sided limits")
    jumps = []
    for b in interior:
        if f.one_sided_limits is None or b not in f.one_sided_limits:
            raise DomainError(f"missing one-sided limits at breakpoint {b}")
        pairs = f.one_sided_limits[b]
        if len(pairs) < 2:
            raise DomainError("one-sided limits are needed through order 1")
        df0 = pairs[0][1] - pairs[0][0]
        df1 = pairs[1][1] - pairs[1][0]
        jumps.append((b, df0, df1))
    if f.derivative is None or f.second_derivative is None:
        raise DomainError("the boundary audit needs the declared derivative and "
                          "second_derivative of the profile")

    fa = f.profile(a)
    fpa = f.derivative(a)

    dM = lambda x: _shannon(0, M, x)
    dM1 = lambda x: _shannon(1, M, x)
    sh2 = lambda x: math.sinh(x) ** 2
    s2x = lambda x: math.sinh(2.0 * x)
    c2x = lambda x: math.cosh(2.0 * x)

    endpoint = ((2.0 / 3.0) * dM1(a) * fa * sh2(a)
                - (2.0 / 3.0) * dM(a) * fpa * sh2(a)
                - dM(a) * fa * s2x(a))
    delta_jump = sum(dM(b) * df0 * s2x(b) for b, df0, _ in jumps)
    delta_prime_jump = -(2.0 / 3.0) * sum(dM1(b) * df0 * sh2(b) for b, df0, _ in jumps)
    jump_deriv = (2.0 / 3.0) * sum(dM(b) * df1 * sh2(b) for b, _, df1 in jumps)

    profile = pointwise(f.profile)
    d1 = pointwise(f.derivative)
    d2 = pointwise(f.second_derivative)

    def g(x):
        fv = profile(x)
        f1 = d1(x)
        f2 = d2(x)
        s2 = pointwise(s2x)(x)
        c2 = pointwise(c2x)(x)
        second = f2 * pointwise(sh2)(x) + 2.0 * f1 * s2 + 2.0 * fv * c2
        first = f1 * s2 + 2.0 * fv * c2
        return ((2.0 / 3.0) * second + (1.0 / 3.0) * first) * _shannon(0, M, x)

    interior_total = 0.0
    for lo, hi in f.pieces():
        interior_total += _chi_oscillatory(g, M, lo, hi, abs_tol=1e-10, rel_tol=1e-10)

    return BoundaryAudit(endpoint, delta_jump, delta_prime_jump, jump_deriv,
                         interior_total)


def converge_d2(f, M_schedule, target_f_at_1, tol, envelope=DecayEnvelope()):
    """d = 2 index-integral limit: sweep
    S_M = int_0^M lam tanh(pi lam) [int_1^inf P_{-1/2+i lam}(y) f(y) dy] dlam
    over M_schedule and judge convergence to f(1+)."""
    _check_target(target_f_at_1, tol)
    g = _index_weight(f, envelope)
    schedule = sorted(float(m) for m in M_schedule)
    sums = [mehler_fock_inverse(g, 1.0, M) for M in schedule]
    return _assemble_report(schedule, sums, target_f_at_1, tol)


def delta_limit_audit(l, M):
    """One-sided limits at 0 of the delta-kernel derivatives: returns
    (lim delta_M^{(2l)}, lim delta_M^{(2l+1)}). From the Taylor series
    sin(Mt)/(pi t) = sum_l (-1)^l M^{2l+1} t^{2l} / ((2l+1)! pi), the even-order
    limit is (-1)^l M^{2l+1} / ((2l+1) pi) and the odd-order limit vanishes.
    Raises DomainError where M^{2l+1} overflows."""
    if l < 0 or not math.isfinite(M):
        raise DomainError(f"delta_limit_audit requires l >= 0 and a finite M, got M = {M}")
    try:
        power = M ** (2 * l + 1)
    except OverflowError:
        raise DomainError(f"M^{2 * l + 1} overflows at M = {M}") from None
    return (-1.0) ** l * power / ((2 * l + 1) * math.pi), 0.0
