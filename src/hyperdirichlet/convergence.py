"""Pointwise-convergence experiments at the origin: partial-sum sweeps with
extrapolated verdicts, the d = 5 boundary-term audit, the d = 2 index-integral
limit, and the delta-kernel derivative limits."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import DomainError
from .jets import derivatives_taylor, jsin
from .numerics import extrapolate_limit
from .kernel import shannon_delta, _delta1
from .transform import (DecayEnvelope, _band_sum, _chi_oscillatory, _mf_profile,
                        partial_sum)

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


def converge_at_origin(f, params, M_schedule, target, tol):
    """Sweep the spherical partial sum at the origin over M_schedule and
    judge convergence to the declared target (odd dimensions)."""
    if params.d % 2 == 0:
        raise DomainError(
            "even dimension: use converge_d2 for d = 2, or study the "
            "partial_sum quadrature directly for d >= 4")
    schedule = sorted(float(m) for m in M_schedule)
    sums = [partial_sum(f, params, M) for M in schedule]
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


def _one_sided_derivative(g, x, h, side):
    """Fourth-order one-sided finite difference of g at x from inside."""
    s = -1.0 if side == "left" else 1.0
    pts = [g(x + s * j * h) for j in range(5)]
    return s * (-25.0 * pts[0] + 48.0 * pts[1] - 36.0 * pts[2]
                + 16.0 * pts[3] - 3.0 * pts[4]) / (12.0 * h)


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

    h = 1e-3
    fa = f.profile(a)
    if f.derivative is not None:
        fpa = f.derivative(a)
    else:
        fpa = _one_sided_derivative(f.profile, a, h, "left")

    def d1(x, lo, hi):
        if f.derivative is not None:
            return f.derivative(x)
        xc = min(max(x, lo + 2 * h), hi - 2 * h)
        pts = [f.profile(xc + j * h) for j in (-2, -1, 0, 1, 2)]
        base = (pts[0] - 8.0 * pts[1] + 8.0 * pts[3] - pts[4]) / (12.0 * h)
        if xc != x:
            # shifted stencil: correct to first order with the second difference
            d2c = (-pts[0] + 16.0 * pts[1] - 30.0 * pts[2]
                   + 16.0 * pts[3] - pts[4]) / (12.0 * h * h)
            base += (x - xc) * d2c
        return base

    def d2(x, lo, hi):
        if f.second_derivative is not None:
            return f.second_derivative(x)
        if f.derivative is not None:
            xc = min(max(x, lo + 2 * h), hi - 2 * h)
            pts = [f.derivative(xc + j * h) for j in (-2, -1, 0, 1, 2)]
            return (pts[0] - 8.0 * pts[1] + 8.0 * pts[3] - pts[4]) / (12.0 * h)
        xc = min(max(x, lo + 2 * h), hi - 2 * h)
        pts = [f.profile(xc + j * h) for j in (-2, -1, 0, 1, 2)]
        return (-pts[0] + 16.0 * pts[1] - 30.0 * pts[2]
                + 16.0 * pts[3] - pts[4]) / (12.0 * h * h)

    dM = lambda x: shannon_delta(M, x)
    dM1 = lambda x: _delta1(M, x)
    sh2 = lambda x: math.sinh(x) ** 2
    s2x = lambda x: math.sinh(2.0 * x)
    c2x = lambda x: math.cosh(2.0 * x)

    endpoint = ((2.0 / 3.0) * dM1(a) * fa * sh2(a)
                - (2.0 / 3.0) * dM(a) * fpa * sh2(a)
                - dM(a) * fa * s2x(a))
    delta_jump = sum(dM(b) * df0 * s2x(b) for b, df0, _ in jumps)
    delta_prime_jump = -(2.0 / 3.0) * sum(dM1(b) * df0 * sh2(b) for b, df0, _ in jumps)
    jump_deriv = (2.0 / 3.0) * sum(dM(b) * df1 * sh2(b) for b, _, df1 in jumps)

    interior_total = 0.0
    for lo, hi in f.pieces():
        def g(x, lo=lo, hi=hi):
            fv = f.profile(x)
            f1 = d1(x, lo, hi)
            f2 = d2(x, lo, hi)
            second = f2 * sh2(x) + 2.0 * f1 * s2x(x) + 2.0 * fv * c2x(x)
            first = f1 * s2x(x) + 2.0 * fv * c2x(x)
            return ((2.0 / 3.0) * second + (1.0 / 3.0) * first) * dM(x)
        interior_total += _chi_oscillatory(g, M, lo, hi, abs_tol=1e-10, rel_tol=1e-10)

    return BoundaryAudit(endpoint, delta_jump, delta_prime_jump, jump_deriv,
                         interior_total)


def converge_d2(f, M_schedule, target_f_at_1, tol, envelope=DecayEnvelope()):
    """d = 2 index-integral limit: sweep
    S_M = int_0^M lam tanh(pi lam) [int_1^inf P_{-1/2+i lam}(y) f(y) dy] dlam
    over M_schedule and judge convergence to f(1+)."""
    prof = _mf_profile(f, envelope)
    schedule = sorted(float(m) for m in M_schedule)
    sums = [_band_sum(prof, M, 1e-9) for M in schedule]
    return _assemble_report(schedule, sums, target_f_at_1, tol)


def delta_limit_audit(l, M):
    """One-sided limits at 0 of the delta-kernel derivatives: returns
    (lim delta_M^{(2l)}, lim delta_M^{(2l+1)}). The even-order limit has
    magnitude M^{2l+1} / ((2l+1) pi) and sign (-1)^l; the odd-order limit
    vanishes."""
    if l < 0:
        raise DomainError("derivative order index l must be >= 0")

    def g(t):
        return jsin(M * t) / (math.pi * t)

    derivs = derivatives_taylor(g, 0.0, 2 * l + 1)
    return derivs[2 * l], derivs[2 * l + 1]
