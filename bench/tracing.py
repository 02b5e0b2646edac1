"""Per-layer spans for the benchmark's traced run.

The tracer wraps the public functions of each hyperdirichlet module in every
module namespace that holds them, so calls made between modules go through
the wrappers; nothing inside the package is edited. The integrand handed to
`numerics.integrate` is wrapped as well: its calls are counted and their time
is a child of the integrate span, so the integrate span's self time is the
cost of the quadrature loop alone. Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import gzip
import sys
from time import perf_counter_ns

from hyperdirichlet.errors import QuadratureError

# (module, function, reported measures). calls and panels/evals are counts;
# time_ms is inclusive wall time of the outermost calls; self_ms is inclusive
# time minus the time of wrapped children.
LAYERS = (
    ("numerics", "integrate", ("calls", "time_ms", "self_ms", "panels", "integrand_evals")),
    ("specfun", "conical_p0", ("calls", "self_ms")),
    ("spherical", "phi", ("calls", "self_ms")),
    ("spherical", "phi_derivative", ("calls", "self_ms")),
    ("cfunction", "plancherel_density", ("calls", "self_ms")),
    *(("kernel", f, ("calls", "time_ms", "self_ms"))
      for f in ("dirichlet_quadrature", "dirichlet_closed", "dirichlet_recursion", "dirichlet_d2")),
    *(("transform", f, ("calls", "time_ms", "self_ms"))
      for f in ("fh_forward", "partial_sum", "spectrum_table", "mehler_fock_forward",
                "mehler_fock_inverse", "translate", "convolve", "convolve_band_kernel")),
    *(("convergence", f, ("calls", "time_ms", "self_ms"))
      for f in ("converge_at_origin", "converge_d2", "example_d5_boundary_audit")),
    ("cli", "main", ("calls", "self_ms")),
)
COUNTS = ("calls", "panels", "integrand_evals")
OVERHEAD = "trace.overhead_ms"


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = [(f"{m}.{f}.{k}", "count" if k in COUNTS else "ms")
           for m, f, measures in LAYERS for k in measures]
    return out + [(OVERHEAD, "ms")]


# Span record fields.
_NAME, _START, _END, _PARENT, _OP, _CHILD, _EVALS, _PANELS, _OUTER = range(9)


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{f}" for m, f, _ in LAYERS]
        self.spans = []
        self.op = -1            # index of the operation being run
        self._stack = []        # open frames: (parent index for children, record)
        self._active = [0] * len(LAYERS)
        self._patched = []

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "hyperdirichlet" or name.startswith("hyperdirichlet.")]
        for idx, (mod, fname, _) in enumerate(LAYERS):
            orig = getattr(sys.modules[f"hyperdirichlet.{mod}"], fname)
            wrapped = self._wrap_integrate(orig, idx) if fname == "integrate" else self._wrap(orig, idx)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)
                        self._patched.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def _open(self, idx):
        parent = self._stack[-1][0] if self._stack else -1
        rec = [idx, 0, 0, parent, self.op, 0, 0, 0, self._active[idx] == 0]
        self._active[idx] += 1
        self._stack.append((len(self.spans), rec))
        self.spans.append(rec)
        rec[_START] = perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[_END] = perf_counter_ns()
        self._stack.pop()
        self._active[rec[_NAME]] -= 1
        if self._stack:
            self._stack[-1][1][_CHILD] += rec[_END] - rec[_START]

    def _wrap(self, fn, idx):
        def traced(*args, **kwargs):
            rec = self._open(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    def _wrap_integrate(self, fn, idx):
        stack = self._stack

        def traced(f, lo, hi, spec=None):
            rec = self._open(idx)
            owner = stack[-1][0]

            def integrand(x):
                rec[_EVALS] += 1
                frame = [0] * 9  # collects nested child time, which is not reported
                stack.append((owner, frame))
                t0 = perf_counter_ns()
                try:
                    return f(x)
                finally:
                    stack.pop()
                    rec[_CHILD] += perf_counter_ns() - t0

            try:
                res = fn(integrand, lo, hi, spec)
                rec[_PANELS] += res.subdivisions_used
                return res
            except QuadratureError as exc:
                rec[_PANELS] += exc.subdivisions_used
                raise
            finally:
                self._close(rec)
        return traced

    def reset(self):
        self.spans = []

    def summary(self):
        """Per-layer totals over the spans recorded since the last reset."""
        n = len(LAYERS)
        calls, incl, self_ns, evals, panels = ([0] * n for _ in range(5))
        for rec in self.spans:
            i = rec[_NAME]
            dur = rec[_END] - rec[_START]
            calls[i] += 1
            self_ns[i] += dur - rec[_CHILD]
            evals[i] += rec[_EVALS]
            panels[i] += rec[_PANELS]
            if rec[_OUTER]:
                incl[i] += dur
        out = {}
        for i, (m, f, measures) in enumerate(LAYERS):
            values = {"calls": calls[i], "time_ms": incl[i] / 1e6, "self_ms": self_ns[i] / 1e6,
                      "panels": panels[i], "integrand_evals": evals[i]}
            for k in measures:
                out[f"{m}.{f}.{k}"] = values[k]
        return out

    def write(self, path):
        """Write the recorded spans as gzipped CSV, one line per span."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("span,name,op,parent,start_us,end_us,self_us,integrand_evals,panels\n")
            t0 = self.spans[0][_START] if self.spans else 0
            for k, rec in enumerate(self.spans):
                fh.write(f"{k},{self.names[rec[_NAME]]},{rec[_OP]},{rec[_PARENT]},"
                         f"{(rec[_START] - t0) / 1e3:.1f},{(rec[_END] - t0) / 1e3:.1f},"
                         f"{(rec[_END] - rec[_START] - rec[_CHILD]) / 1e3:.1f},"
                         f"{rec[_EVALS]},{rec[_PANELS]}\n")
